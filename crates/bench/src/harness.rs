//! The perf-trajectory harness behind `coolstream bench` (DESIGN.md §12).
//!
//! Runs the golden scenario library (`scenarios/*.json`) end-to-end and
//! distils it into a schema-versioned [`BenchReport`]
//! (`BENCH_<git-describe>.json`): per scenario the trace hash, the event
//! and peer counts, and min-of-K wall time with the events/sec and
//! peers/sec derived from it. [`compare`] gates a report against a
//! committed baseline. Per-layer attribution — which manager, which event
//! kind, which percentile — is the repo benchmark's job (`benchmark/`).
//!
//! Measurement protocol: K repetitions of the hash-only configuration,
//! interleaved across scenarios so drift hits every scenario evenly, each
//! required to reproduce the first one's trace hash and event count — a
//! BENCH file whose hash column matches the golden file *proves* the
//! measured code path is the tested one. Wall time is the minimum over
//! the K reps, the repetition least disturbed by the rest of the machine.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use coolstreaming::{CompiledSpec, RunOptions, ScenarioSpec};
use cs_telemetry::{peak_rss_bytes, HostFingerprint};
use serde::{Deserialize, Serialize};

/// Schema identifier of the `BENCH_*.json` this build writes. `/1`
/// carried per-kind, per-manager and dispatch-percentile tables beside
/// the fields kept here; both versions load (unknown keys are ignored).
pub const BENCH_SCHEMA: &str = "cs-bench/2";
const READABLE_SCHEMAS: [&str; 2] = ["cs-bench/1", BENCH_SCHEMA];

/// Default slowdown percentage that triggers a warning in [`compare`].
pub const DEFAULT_WARN_PCT: u64 = 25;
/// Default slowdown percentage that fails [`compare`] (0 disables).
pub const DEFAULT_FAIL_PCT: u64 = 100;

/// How to run the bench.
#[derive(Clone, Debug)]
pub struct BenchOptions {
    /// Directory holding the scenario library (`scenarios/`).
    pub scenarios_dir: PathBuf,
    /// Timing repetitions per scenario (min-of-K). At least 1.
    pub reps: u64,
    /// Restrict to these scenario names (`None` = the whole library).
    pub filter: Option<Vec<String>>,
    /// `git describe` of the tree, stamped into the report.
    pub git_describe: Option<String>,
    /// Print per-scenario progress to stderr.
    pub verbose: bool,
}

impl BenchOptions {
    /// Defaults: full library, 3 timing reps, quiet.
    pub fn new(scenarios_dir: impl Into<PathBuf>) -> Self {
        BenchOptions {
            scenarios_dir: scenarios_dir.into(),
            reps: 3,
            filter: None,
            git_describe: None,
            verbose: false,
        }
    }
}

/// One scenario's measurements.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ScenarioBench {
    /// Scenario name (file stem, golden-hash key).
    pub name: String,
    /// Deterministic trace hash, 16 hex digits — must match
    /// `tests/golden/scenario_hashes.txt` for the same tree.
    pub trace_hash: String,
    /// Events dispatched per repetition (identical across reps).
    pub events: u64,
    /// Peers simulated (workload arrivals scheduled).
    pub peers: u64,
    /// Wall time of each timing repetition, nanoseconds.
    pub wall_ns: Vec<u64>,
    /// Minimum over the timing repetitions, nanoseconds.
    pub min_wall_ns: u64,
    /// `events / min_wall` in events per second (integer).
    pub events_per_sec: u64,
    /// `peers / min_wall` in peers per second (integer).
    pub peers_per_sec: u64,
}

/// The whole `BENCH_*.json` document.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BenchReport {
    /// [`BENCH_SCHEMA`].
    pub schema: String,
    /// `git describe` of the measured tree ("" if unknown).
    pub git_describe: String,
    /// Timing repetitions per scenario.
    pub reps: u64,
    /// Logical CPU count of the measuring host.
    pub cores: u64,
    /// Target architecture of the measuring host.
    pub arch: String,
    /// Target OS of the measuring host.
    pub os: String,
    /// Peak RSS of the bench process in bytes (0 if unknown).
    pub peak_rss_bytes: u64,
    /// Per-scenario measurements, sorted by name.
    pub scenarios: Vec<ScenarioBench>,
}

impl BenchReport {
    /// Render as pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serializes")
    }

    /// Parse a `BENCH_*.json` document.
    pub fn from_json(text: &str) -> Result<BenchReport, String> {
        let report: BenchReport =
            serde_json::from_str(text).map_err(|e| format!("parse BENCH json: {e}"))?;
        if !READABLE_SCHEMAS.contains(&report.schema.as_str()) {
            return Err(format!(
                "unsupported BENCH schema {:?} (expected one of {READABLE_SCHEMAS:?})",
                report.schema
            ));
        }
        Ok(report)
    }
}

/// The library as `(name, compiled scenario)`, sorted by file name.
fn load_library(opts: &BenchOptions) -> Result<Vec<(String, CompiledSpec)>, String> {
    let dir = &opts.scenarios_dir;
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("read {}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    let mut out = Vec::new();
    for path in files {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let spec =
            ScenarioSpec::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if let Some(filter) = &opts.filter {
            if !filter.contains(&spec.name) {
                continue;
            }
        }
        let compiled = spec
            .compile()
            .map_err(|e| format!("{}: {e}", path.display()))?;
        out.push((spec.name, compiled));
    }
    if out.is_empty() {
        return Err(match &opts.filter {
            Some(f) => format!("no scenarios in {} match {f:?}", dir.display()),
            None => format!("no scenarios in {}", dir.display()),
        });
    }
    Ok(out)
}

/// Run the library and assemble the report (see module docs for the
/// measurement protocol).
pub fn run_bench(opts: &BenchOptions) -> Result<BenchReport, String> {
    let reps = opts.reps.max(1);
    let library = load_library(opts)?;
    let mut benches: Vec<ScenarioBench> = library
        .iter()
        .map(|(name, _)| ScenarioBench {
            name: name.clone(),
            trace_hash: String::new(),
            events: 0,
            peers: 0,
            wall_ns: Vec::new(),
            min_wall_ns: 0,
            events_per_sec: 0,
            peers_per_sec: 0,
        })
        .collect();

    let timing = RunOptions {
        trace_hash: true,
        ..RunOptions::default()
    };
    for rep in 0..reps {
        for ((name, compiled), bench) in library.iter().zip(benches.iter_mut()) {
            if opts.verbose {
                eprintln!("bench: {name} (rep {}/{reps})…", rep + 1);
            }
            #[expect(
                clippy::disallowed_methods,
                reason = "wall-clock timing is the harness's purpose; measurements go only to BENCH_*.json, never into sim state"
            )]
            let t0 = Instant::now();
            let run = compiled
                .scenario
                .run_injected_observed(compiled.injections.clone(), timing);
            let wall = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            let hash = format!("{:016x}", run.trace_hash.expect("hash requested"));
            let events = run.artifacts.run_stats.events;
            if rep == 0 {
                bench.trace_hash = hash;
                bench.events = events;
                bench.peers = run.artifacts.scheduled_arrivals as u64;
            } else if hash != bench.trace_hash || events != bench.events {
                return Err(format!(
                    "{name}: nondeterministic rep — hash {hash} / {events} events != {} / {}",
                    bench.trace_hash, bench.events
                ));
            }
            bench.wall_ns.push(wall);
        }
    }
    for bench in &mut benches {
        let min = bench.wall_ns.iter().copied().min().unwrap_or(0).max(1);
        bench.min_wall_ns = min;
        bench.events_per_sec =
            u64::try_from(u128::from(bench.events) * 1_000_000_000 / u128::from(min))
                .unwrap_or(u64::MAX);
        bench.peers_per_sec =
            u64::try_from(u128::from(bench.peers) * 1_000_000_000 / u128::from(min))
                .unwrap_or(u64::MAX);
    }

    let host = HostFingerprint::detect();
    Ok(BenchReport {
        schema: BENCH_SCHEMA.to_string(),
        git_describe: opts.git_describe.clone().unwrap_or_default(),
        reps,
        cores: host.cores,
        arch: host.arch,
        os: host.os,
        peak_rss_bytes: peak_rss_bytes().unwrap_or(0),
        scenarios: benches,
    })
}

/// Outcome of comparing a fresh report against a baseline.
#[derive(Clone, Debug, Default)]
pub struct CompareOutcome {
    /// Behaviour drift: scenario set, trace hash, or event count changed.
    /// Any entry fails the gate outright.
    pub hard_failures: Vec<String>,
    /// Wall-time slowdowns past the fail band.
    pub time_failures: Vec<String>,
    /// Wall-time slowdowns past the warn band (but inside the fail band).
    pub warnings: Vec<String>,
    /// Human-readable per-scenario comparison lines.
    pub lines: Vec<String>,
}

impl CompareOutcome {
    /// Whether the gate passes (warnings allowed).
    pub fn passed(&self) -> bool {
        self.hard_failures.is_empty() && self.time_failures.is_empty()
    }
}

/// Slowdown of `current` vs `base` in whole percent (0 when faster).
fn slowdown_pct(current: u64, base: u64) -> u64 {
    if base == 0 || current <= base {
        return 0;
    }
    u64::try_from(u128::from(current - base) * 100 / u128::from(base)).unwrap_or(u64::MAX)
}

/// Gate `current` against `baseline`. Behaviour drift (missing/added
/// scenarios, trace-hash or event-count changes) is a hard failure:
/// those fields are deterministic, so any drift means the code's
/// *behaviour* changed and the baseline must be consciously regenerated.
/// Wall-time drift is banded: slowdown beyond `warn_pct` warns, beyond
/// `fail_pct` fails; `fail_pct == 0` disables the failure band (CI runs
/// with 0 because runner speed varies run-to-run).
pub fn compare(
    current: &BenchReport,
    baseline: &BenchReport,
    warn_pct: u64,
    fail_pct: u64,
) -> CompareOutcome {
    let mut out = CompareOutcome::default();
    let base_by_name: BTreeMap<&str, &ScenarioBench> = baseline
        .scenarios
        .iter()
        .map(|s| (s.name.as_str(), s))
        .collect();
    let cur_names: BTreeMap<&str, ()> = current
        .scenarios
        .iter()
        .map(|s| (s.name.as_str(), ()))
        .collect();
    for name in base_by_name.keys() {
        if !cur_names.contains_key(name) {
            out.hard_failures
                .push(format!("{name}: in baseline but not measured"));
        }
    }
    for cur in &current.scenarios {
        let Some(base) = base_by_name.get(cur.name.as_str()) else {
            out.hard_failures.push(format!(
                "{}: not in baseline (regenerate the baseline to admit it)",
                cur.name
            ));
            continue;
        };
        if cur.trace_hash != base.trace_hash {
            out.hard_failures.push(format!(
                "{}: trace hash {} != baseline {}",
                cur.name, cur.trace_hash, base.trace_hash
            ));
        }
        if cur.events != base.events {
            out.hard_failures.push(format!(
                "{}: {} events != baseline {}",
                cur.name, cur.events, base.events
            ));
        }
        let pct = slowdown_pct(cur.min_wall_ns, base.min_wall_ns);
        let verdict = if fail_pct > 0 && pct >= fail_pct {
            out.time_failures.push(format!(
                "{}: {pct}% slower than baseline (fail band {fail_pct}%)",
                cur.name
            ));
            "FAIL"
        } else if pct >= warn_pct && warn_pct > 0 {
            out.warnings.push(format!(
                "{}: {pct}% slower than baseline (warn band {warn_pct}%)",
                cur.name
            ));
            "WARN"
        } else {
            "ok"
        };
        out.lines.push(format!(
            "{:<20} {:>12} ev/s (base {:>12})  wall {:>8.3?}ms (base {:>8.3?}ms, +{pct}%)  {verdict}",
            cur.name,
            cur.events_per_sec,
            base.events_per_sec,
            cur.min_wall_ns as f64 / 1e6,
            base.min_wall_ns as f64 / 1e6,
        ));
    }
    out
}

/// Load a baseline file and gate `current` against it.
pub fn compare_to_file(
    current: &BenchReport,
    baseline_path: &Path,
    warn_pct: u64,
    fail_pct: u64,
) -> Result<CompareOutcome, String> {
    let text = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("read {}: {e}", baseline_path.display()))?;
    let baseline = BenchReport::from_json(&text)?;
    Ok(compare(current, &baseline, warn_pct, fail_pct))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario(name: &str, hash: &str, events: u64, wall: u64) -> ScenarioBench {
        ScenarioBench {
            name: name.into(),
            trace_hash: hash.into(),
            events,
            peers: 10,
            wall_ns: vec![wall, wall + 5],
            min_wall_ns: wall,
            events_per_sec: events * 1_000_000_000 / wall,
            peers_per_sec: 10 * 1_000_000_000 / wall,
        }
    }

    fn report(scenarios: Vec<ScenarioBench>) -> BenchReport {
        BenchReport {
            schema: BENCH_SCHEMA.into(),
            git_describe: "v0-test".into(),
            reps: 2,
            cores: 4,
            arch: "x86_64".into(),
            os: "linux".into(),
            peak_rss_bytes: 1 << 20,
            scenarios,
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let r = report(vec![
            scenario("a", "00000000000000aa", 100, 1_000_000),
            scenario("b", "00000000000000bb", 200, 2_000_000),
        ]);
        let json = r.to_json();
        let back = BenchReport::from_json(&json).unwrap();
        assert_eq!(r, back);
    }

    #[test]
    fn from_json_rejects_wrong_schema() {
        let mut r = report(vec![]);
        r.schema = "cs-bench/999".into();
        let err = BenchReport::from_json(&r.to_json()).unwrap_err();
        assert!(err.contains("unsupported BENCH schema"), "{err}");
    }

    #[test]
    fn compare_passes_identical_reports() {
        let r = report(vec![scenario("a", "00aa", 100, 1_000_000)]);
        let out = compare(&r, &r, DEFAULT_WARN_PCT, DEFAULT_FAIL_PCT);
        assert!(out.passed());
        assert!(out.warnings.is_empty());
        assert_eq!(out.lines.len(), 1);
    }

    #[test]
    fn compare_hard_fails_on_hash_and_count_drift() {
        let base = report(vec![scenario("a", "00aa", 100, 1_000_000)]);
        let cur = report(vec![scenario("a", "00ab", 101, 1_000_000)]);
        let out = compare(&cur, &base, DEFAULT_WARN_PCT, DEFAULT_FAIL_PCT);
        assert!(!out.passed());
        assert_eq!(out.hard_failures.len(), 2, "{:?}", out.hard_failures);
    }

    #[test]
    fn compare_hard_fails_on_scenario_set_drift() {
        let base = report(vec![
            scenario("a", "00aa", 100, 1_000_000),
            scenario("b", "00bb", 100, 1_000_000),
        ]);
        let cur = report(vec![
            scenario("a", "00aa", 100, 1_000_000),
            scenario("c", "00cc", 100, 1_000_000),
        ]);
        let out = compare(&cur, &base, DEFAULT_WARN_PCT, DEFAULT_FAIL_PCT);
        let msgs = out.hard_failures.join("; ");
        assert!(msgs.contains("b: in baseline but not measured"), "{msgs}");
        assert!(msgs.contains("c: not in baseline"), "{msgs}");
    }

    #[test]
    fn compare_bands_wall_time_drift() {
        let base = report(vec![scenario("a", "00aa", 100, 1_000_000)]);
        // 30% slower: warns at 25, passes at 100.
        let warn = report(vec![scenario("a", "00aa", 100, 1_300_000)]);
        let out = compare(&warn, &base, 25, 100);
        assert!(out.passed());
        assert_eq!(out.warnings.len(), 1, "{:?}", out.warnings);

        // 150% slower: fails at 100.
        let slow = report(vec![scenario("a", "00aa", 100, 2_500_000)]);
        let out = compare(&slow, &base, 25, 100);
        assert!(!out.passed());
        assert_eq!(out.time_failures.len(), 1, "{:?}", out.time_failures);

        // fail_pct = 0 disables the failure band entirely (CI mode).
        let out = compare(&slow, &base, 25, 0);
        assert!(out.passed());
        assert_eq!(out.warnings.len(), 1);

        // Exactly at the band edge: >= triggers.
        let edge = report(vec![scenario("a", "00aa", 100, 1_250_000)]);
        let out = compare(&edge, &base, 25, 100);
        assert_eq!(out.warnings.len(), 1, "{:?}", out.warnings);

        // Faster than baseline never warns.
        let fast = report(vec![scenario("a", "00aa", 100, 500_000)]);
        let out = compare(&fast, &base, 25, 100);
        assert!(out.passed() && out.warnings.is_empty());
    }

    #[test]
    fn slowdown_pct_handles_edges() {
        assert_eq!(slowdown_pct(100, 100), 0);
        assert_eq!(slowdown_pct(50, 100), 0); // faster
        assert_eq!(slowdown_pct(150, 100), 50);
        assert_eq!(slowdown_pct(100, 0), 0); // degenerate baseline
        assert_eq!(slowdown_pct(u64::MAX, 1), u64::MAX); // saturates
    }
}
