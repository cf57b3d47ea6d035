//! `coolstream` — the command-line front end of the reproduction.
//!
//! ```text
//! coolstream run      [--preset event_day|steady] [--scale F] [--rate F]
//!                     [--seed N] [--start-h F] [--end-h F]
//!                     [--scenario spec.json] [--config scenario.json]
//!                     [--out DIR] [--quiet]
//! coolstream bench    [--quick] [--reps N] [--scenarios a,b,c]
//!                     [--out-dir DIR] [--compare BENCH.json]
//! coolstream analyze  --log FILE [--out DIR]
//! coolstream config   [--preset event_day|steady] [--scale F] [--rate F]
//!                     [--scenario spec.json] [--example]
//! coolstream help
//! ```
//!
//! `run` executes a scenario and writes `log.txt`, `summary.json`,
//! `figures.txt` and `sessions.csv` into `--out` (default `./out`).
//! The `analyze` command re-derives the log-based figures from a previously saved
//! `log.txt` — the measurement-study workflow without re-simulating.
//! `config` prints a versioned scenario-DSL JSON to stdout for editing
//! (see DESIGN.md §10 and the `scenarios/` library); `--scenario` runs
//! or validates such a file, `--config` still accepts the legacy raw
//! `Scenario` shape.

#![forbid(unsafe_code)]

mod args;
mod output;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use args::Args;
use coolstreaming::experiments::{
    fig10_sessions, fig6_startup, fig7_ready_by_period, render_fig7, LogView,
};
use coolstreaming::proto::Event;
use coolstreaming::{BaseSpec, RunOptions, Scenario, ScenarioSpec};
use cs_logging::LogServer;
use cs_sim::SimTime;
use cs_telemetry::{RunManifest, TelemetryConfig};

/// `git describe --always --dirty` of the working tree, if git and a
/// repository are available; `None` otherwise (e.g. release tarballs).
fn git_describe() -> Option<String> {
    let out = std::process::Command::new("git")
        .args(["describe", "--always", "--dirty", "--tags"])
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let s = String::from_utf8(out.stdout).ok()?;
    let s = s.trim();
    (!s.is_empty()).then(|| s.to_string())
}

/// A runnable scenario plus the chaos injections its source file (if
/// any) scheduled.
#[derive(Debug)]
struct Loaded {
    scenario: Scenario,
    injections: Vec<(SimTime, Event)>,
}

/// Load, strictly validate and compile a `--scenario FILE` DSL document.
fn load_spec(path: &str) -> Result<ScenarioSpec, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    ScenarioSpec::from_json(&text).map_err(|e| format!("{path}: {e}"))
}

fn build_scenario(args: &Args) -> Result<Loaded, String> {
    if let Some(path) = args.get_str("scenario") {
        let spec = load_spec(path)?;
        let compiled = spec.compile().map_err(|e| format!("{path}: {e}"))?;
        let mut scenario = compiled.scenario;
        // --seed still wins, so sweeps can reuse one file across seeds.
        scenario.seed = args.get("seed", scenario.seed)?;
        return Ok(Loaded {
            scenario,
            injections: compiled.injections,
        });
    }
    if let Some(path) = args.get_str("config") {
        // Legacy raw-Scenario JSON (the pre-DSL `coolstream config` shape).
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        let scenario = serde_json::from_str(&text).map_err(|e| format!("parse {path}: {e}"))?;
        return Ok(Loaded {
            scenario,
            injections: Vec::new(),
        });
    }
    let preset = args.get_str("preset").unwrap_or("steady");
    let mut scenario = match preset {
        "event_day" => Scenario::event_day(args.get("scale", 0.02)?),
        "steady" => Scenario::steady(args.get("rate", 0.5)?),
        other => return Err(format!("unknown preset {other:?} (event_day|steady)")),
    };
    scenario.seed = args.get("seed", scenario.seed)?;
    if args.has("start-h") || args.has("end-h") {
        let start = SimTime::from_secs_f64(args.get("start-h", 0.0)? * 3600.0);
        let default_end = scenario.horizon.as_secs_f64() / 3600.0;
        let end = SimTime::from_secs_f64(args.get("end-h", default_end)? * 3600.0);
        if end <= start {
            return Err("end-h must exceed start-h".into());
        }
        scenario.start = start;
        scenario.horizon = end;
    } else if preset == "steady" {
        scenario.horizon = SimTime::from_mins(args.get("minutes", 20)?);
    }
    Ok(Loaded {
        scenario,
        injections: Vec::new(),
    })
}

fn cmd_run(args: &Args) -> Result<(), String> {
    let Loaded {
        scenario,
        injections,
    } = build_scenario(args)?;
    let quiet = args.has("quiet");
    let telemetry_dir = args.get_str("telemetry-dir").map(PathBuf::from);
    let telemetry_window_s: u64 = args.get("telemetry-window", 300)?;
    if args.has("invariant-stride") && !args.has("check-invariants") {
        return Err(
            "--invariant-stride has no effect without --check-invariants; pass both or neither"
                .into(),
        );
    }
    let options = RunOptions {
        check_invariants: args.has("check-invariants"),
        invariant_stride: args.get("invariant-stride", 1)?,
        // The telemetry manifest records the trace hash, so --telemetry-dir
        // implies --trace-hash.
        trace_hash: args.has("trace-hash") || telemetry_dir.is_some(),
        record_spans: false,
        telemetry: telemetry_dir.is_some().then_some(TelemetryConfig {
            window: SimTime::from_secs(telemetry_window_s),
        }),
    };
    if !quiet {
        eprintln!(
            "running {} → {} (seed {})…",
            scenario.start, scenario.horizon, scenario.seed
        );
    }
    // Wall-clock timing for the manifest only; sim behaviour never sees it.
    // cs-lint: allow(ambient-entropy) — manifest wall_ms is explicitly environment-dependent metadata
    let wall_start = std::time::Instant::now();
    let observed = scenario.run_injected_observed(injections, options);
    let wall_ms = u64::try_from(wall_start.elapsed().as_millis()).unwrap_or(u64::MAX);
    if let Some(hash) = observed.trace_hash {
        println!("trace-hash {hash:016x}");
    }
    if let (Some(dir), Some(tel)) = (&telemetry_dir, &observed.telemetry) {
        let manifest = RunManifest {
            seed: scenario.seed,
            scenario_json: serde_json::to_string(&scenario).ok(),
            git_describe: git_describe(),
            trace_hash: observed.trace_hash,
            events: tel.events,
            event_kinds: tel.event_kinds().into_iter().collect(),
            windows: tel.snapshots.len() as u64,
            window_us: telemetry_window_s * 1_000_000,
            start_us: scenario.start.as_micros(),
            horizon_us: scenario.horizon.as_micros(),
            wall_ms,
            peak_rss_bytes: cs_telemetry::peak_rss_bytes(),
            repetitions: 1,
            host: Some(cs_telemetry::HostFingerprint::detect()),
        };
        output::write_telemetry(dir, tel, &manifest)
            .map_err(|e| format!("write telemetry: {e}"))?;
        if !quiet {
            eprintln!(
                "telemetry: {} windows, {} series → {}",
                tel.snapshots.len(),
                tel.registry.len(),
                dir.display()
            );
        }
    }
    let mut violations = 0;
    if let Some(chk) = &observed.invariants {
        violations = chk.total_violations();
        if !quiet || violations > 0 {
            eprintln!(
                "invariants: {} checks over {} events, {violations} violations",
                chk.checks_run(),
                chk.events_seen(),
            );
        }
        if violations > 0 {
            eprint!("{}", chk.report());
        }
    }
    let artifacts = observed.artifacts;
    let view = LogView::build(&artifacts);
    let out: PathBuf = args.get_str("out").unwrap_or("out").into();
    output::write_outputs(&out, &artifacts, &view, scenario.horizon)
        .map_err(|e| format!("write outputs: {e}"))?;
    if !quiet {
        let s = output::summarize(&artifacts, &view);
        eprintln!(
            "done: {} arrivals, {} events, continuity {:.2}%, ready median {:.1}s → {}",
            s.arrivals,
            s.events,
            100.0 * s.mean_continuity,
            s.ready_median_s,
            out.display()
        );
    }
    if violations > 0 {
        return Err(format!("{violations} invariant violations detected"));
    }
    Ok(())
}

/// `coolstream bench` — run the scenario library through the cs-bench
/// harness and emit `BENCH_<git-describe>.json` (+ `spans.jsonl`),
/// optionally gating against a committed baseline (see DESIGN.md §12).
fn cmd_bench(args: &Args) -> Result<(), String> {
    let describe = git_describe();
    let scenarios_dir = args.get_str("scenarios-dir").unwrap_or("scenarios");
    let mut opts = cs_bench::BenchOptions::new(scenarios_dir);
    opts.git_describe = describe.clone();
    opts.verbose = !args.has("quiet");
    // --quick: single timing rep — the CI configuration, where the point
    // is behaviour gating and artifact capture, not stable timing.
    opts.reps = if args.has("quick") {
        1
    } else {
        args.get("reps", 3)?.max(1)
    };
    opts.record_spans = !args.has("no-spans");
    if let Some(list) = args.get_str("scenarios") {
        opts.filter = Some(list.split(',').map(|s| s.trim().to_string()).collect());
    }
    let run = cs_bench::run_bench(&opts)?;

    let out_dir = PathBuf::from(args.get_str("out-dir").unwrap_or("bench-out"));
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("create {}: {e}", out_dir.display()))?;
    // The describe string becomes a filename component; keep it path-safe.
    let tag: String = describe
        .as_deref()
        .unwrap_or("unknown")
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '.' || c == '-' || c == '_' {
                c
            } else {
                '-'
            }
        })
        .collect();
    let bench_path = out_dir.join(format!("BENCH_{tag}.json"));
    std::fs::write(&bench_path, run.report.to_json())
        .map_err(|e| format!("write {}: {e}", bench_path.display()))?;
    eprintln!("wrote {}", bench_path.display());
    if let Some(spans) = &run.spans_jsonl {
        let spans_path = out_dir.join("spans.jsonl");
        std::fs::write(&spans_path, spans)
            .map_err(|e| format!("write {}: {e}", spans_path.display()))?;
        eprintln!("wrote {}", spans_path.display());
    }
    for s in &run.report.scenarios {
        println!(
            "{:<20} {:>9} events  {:>12} ev/s  {:>9} peers/s  hash {}",
            s.name, s.events, s.events_per_sec, s.peers_per_sec, s.trace_hash
        );
    }

    if let Some(baseline) = args.get_str("compare") {
        let warn_pct = args.get("warn-pct", cs_bench::DEFAULT_WARN_PCT)?;
        let fail_pct = args.get("fail-pct", cs_bench::DEFAULT_FAIL_PCT)?;
        let outcome =
            cs_bench::compare_to_file(&run.report, Path::new(baseline), warn_pct, fail_pct)?;
        println!("\ncompare vs {baseline}:");
        for line in &outcome.lines {
            println!("  {line}");
        }
        for w in &outcome.warnings {
            eprintln!("warning: {w}");
        }
        for f in outcome.hard_failures.iter().chain(&outcome.time_failures) {
            eprintln!("failure: {f}");
        }
        if !outcome.passed() {
            return Err(format!(
                "bench gate failed: {} behaviour drift(s), {} time regression(s)",
                outcome.hard_failures.len(),
                outcome.time_failures.len()
            ));
        }
        println!("bench gate passed ({} scenarios)", outcome.lines.len());
    }
    Ok(())
}

fn cmd_analyze(args: &Args) -> Result<(), String> {
    let path = args
        .get_str("log")
        .ok_or("analyze requires --log FILE")?
        .to_string();
    let text = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
    let server = LogServer::from_text(&text)?;
    let (reports, bad) = server.parse_all();
    if !bad.is_empty() {
        eprintln!("warning: {} malformed log lines skipped", bad.len());
    }
    let sessions = cs_analysis::reconstruct(&reports);
    if sessions.is_empty() {
        // Every figure below is a median or a share over sessions.
        return Err(format!("{path}: no sessions in log"));
    }
    let view = LogView { reports, sessions };
    println!(
        "{} log lines, {} sessions\n",
        server.len(),
        view.sessions.len()
    );
    print!(
        "{}",
        fig6_startup(&view, SimTime::ZERO, SimTime::MAX).render()
    );
    print!("{}", render_fig7(&fig7_ready_by_period(&view)));
    print!("{}", fig10_sessions(&view).render());
    if let Some(dir) = args.get_str("out") {
        let dir = PathBuf::from(dir);
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        std::fs::write(dir.join("sessions.csv"), output::sessions_csv(&view))
            .map_err(|e| e.to_string())?;
        eprintln!("wrote {}", dir.join("sessions.csv").display());
    }
    Ok(())
}

/// Build a versioned [`ScenarioSpec`] from the preset flags — the shape
/// `coolstream config` emits and `run --scenario` reads back.
fn spec_from_flags(args: &Args) -> Result<ScenarioSpec, String> {
    let preset = args.get_str("preset").unwrap_or("steady");
    let base = match preset {
        "event_day" => BaseSpec::EventDay {
            scale: args.get("scale", 0.02)?,
        },
        "steady" => BaseSpec::Steady {
            rate: args.get("rate", 0.5)?,
        },
        other => return Err(format!("unknown preset {other:?} (event_day|steady)")),
    };
    let mut spec = ScenarioSpec {
        name: preset.to_string(),
        description: None,
        base,
        seed: None,
        start_s: None,
        end_s: None,
        servers: None,
        public_share: None,
        free_rider_share: None,
        policy: None,
        snapshot_s: None,
        shards: None,
        events: Vec::new(),
    };
    let hours_to_s = |h: f64| (h * 3600.0).round() as u64;
    spec.seed = args.get_opt("seed")?;
    spec.start_s = args.get_opt("start-h")?.map(hours_to_s);
    spec.end_s = args.get_opt("end-h")?.map(hours_to_s);
    if spec.end_s.is_none() && preset == "steady" {
        spec.end_s = Some(args.get("minutes", 20u64)? * 60);
    }
    spec.validate().map_err(|e| e.to_string())?;
    Ok(spec)
}

fn cmd_config(args: &Args) -> Result<(), String> {
    // `config --scenario FILE` strictly validates an existing DSL file
    // and prints its normalized form; `config --example` prints the
    // fully-populated reference spec; otherwise the preset flags are
    // rendered as a minimal versioned spec.
    let spec = if let Some(path) = args.get_str("scenario") {
        load_spec(path)?
    } else if args.has("example") {
        ScenarioSpec::example()
    } else {
        spec_from_flags(args)?
    };
    println!("{}", spec.to_json());
    Ok(())
}

const HELP: &str = "\
coolstream — Coolstreaming reproduction CLI

USAGE:
  coolstream run      [--preset event_day|steady] [--scale F] [--rate F]
                      [--minutes N] [--seed N] [--start-h F] [--end-h F]
                      [--scenario spec.json] [--config scenario.json]
                      [--out DIR] [--quiet]
                      [--check-invariants] [--invariant-stride N]
                      [--trace-hash] [--telemetry-dir DIR]
                      [--telemetry-window SECS]
  coolstream bench    [--quick] [--reps N] [--scenarios a,b,c]
                      [--scenarios-dir DIR] [--out-dir DIR] [--no-spans]
                      [--compare BENCH.json] [--warn-pct N] [--fail-pct N]
                      [--quiet]
  coolstream analyze  --log FILE [--out DIR]
  coolstream config   [--preset ...] [--scenario spec.json] [--example]
  coolstream help

Flags may be spelled `--key value` or `--key=value`. Unknown flags and
unparsable values are errors.

bench runs the scenario library end-to-end and writes a schema-versioned
perf report (BENCH_<git-describe>.json: events/sec, peers/sec, min-of-K
wall time, event totals by kind and manager, dispatch p50/p95/p99) plus
sim-time causal spans (spans.jsonl) into --out-dir (default bench-out).

  --quick              one timing repetition (the CI configuration)
  --reps N             timing repetitions per scenario, min-of-K (default 3)
  --scenarios a,b,c    restrict to the named scenarios
  --scenarios-dir DIR  scenario library location (default scenarios/)
  --no-spans           skip recording/writing spans.jsonl
  --compare FILE       gate against a baseline BENCH json: scenario-set,
                       trace-hash or event-count drift fails hard;
                       wall-time slowdown warns past --warn-pct (default
                       25) and fails past --fail-pct (default 100; 0
                       disables the time failure, as in CI)

  --scenario FILE      load a versioned scenario-DSL file (schema v1:
                       base + overrides + timed chaos `events`; see
                       DESIGN.md §10 and scenarios/). Unknown fields,
                       wrong versions and out-of-range knobs are errors.
  --config FILE        load a legacy raw-Scenario JSON (no events)
  --check-invariants   validate protocol invariants after every event
                       (exit non-zero on any violation)
  --invariant-stride N full-state validation every N-th event (default 1)
  --trace-hash         print the run's deterministic trace hash
  --telemetry-dir DIR  write windowed metrics (metrics.jsonl), a wall-clock
                       dispatch profile (profile.json) and a run manifest
                       (manifest.json) into DIR; implies --trace-hash
  --telemetry-window N aggregation window in seconds (default 300, the
                       paper's status-report cadence)
";

/// The flags each subcommand declares; anything else is an error, so a
/// typo cannot silently run the default.
const RUN_FLAGS: &[&str] = &[
    "preset",
    "scale",
    "rate",
    "minutes",
    "seed",
    "start-h",
    "end-h",
    "scenario",
    "config",
    "out",
    "quiet",
    "check-invariants",
    "invariant-stride",
    "trace-hash",
    "telemetry-dir",
    "telemetry-window",
];
const BENCH_FLAGS: &[&str] = &[
    "quick",
    "reps",
    "scenarios",
    "scenarios-dir",
    "out-dir",
    "no-spans",
    "compare",
    "warn-pct",
    "fail-pct",
    "quiet",
];
const ANALYZE_FLAGS: &[&str] = &["log", "out"];
const CONFIG_FLAGS: &[&str] = &[
    "preset", "scale", "rate", "minutes", "seed", "start-h", "end-h", "scenario", "example",
];

fn cmd_help(_: &Args) -> Result<(), String> {
    print!("{HELP}");
    Ok(())
}

fn dispatch(args: &Args) -> Result<(), String> {
    type Cmd = fn(&Args) -> Result<(), String>;
    let (declared, cmd): (&[&str], Cmd) = match args.command.as_deref() {
        Some("run") => (RUN_FLAGS, cmd_run),
        Some("bench") => (BENCH_FLAGS, cmd_bench),
        Some("analyze") => (ANALYZE_FLAGS, cmd_analyze),
        Some("config") => (CONFIG_FLAGS, cmd_config),
        Some("help") | None => (&["help"], cmd_help),
        Some(other) => return Err(format!("unknown command {other:?}\n{HELP}")),
    };
    args.expect_flags(declared)?;
    cmd(args)
}

fn main() -> ExitCode {
    match dispatch(&Args::parse(std::env::args().skip(1))) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn build_scenario_presets() {
        let s = build_scenario(&parse("run --preset steady --rate 0.8 --minutes 5"))
            .unwrap()
            .scenario;
        assert_eq!(s.horizon, SimTime::from_mins(5));
        let e = build_scenario(&parse("run --preset event_day --scale 0.01 --seed 9"))
            .unwrap()
            .scenario;
        assert_eq!(e.seed, 9);
        assert_eq!(e.horizon, SimTime::from_hours(24));
        assert!(build_scenario(&parse("run --preset nope")).is_err());
    }

    #[test]
    fn window_flags_override() {
        let s = build_scenario(&parse("run --preset event_day --start-h 18 --end-h 19.5"))
            .unwrap()
            .scenario;
        assert_eq!(s.start, SimTime::from_hours(18));
        assert_eq!(s.horizon, SimTime::from_secs(19 * 3600 + 1800));
        assert!(build_scenario(&parse("run --start-h 5 --end-h 4")).is_err());
    }

    #[test]
    fn scenario_json_round_trips() {
        let s = build_scenario(&parse("config --preset event_day --scale 0.03"))
            .unwrap()
            .scenario;
        let json = serde_json::to_string(&s).unwrap();
        let back: Scenario = serde_json::from_str(&json).unwrap();
        assert_eq!(back.seed, s.seed);
        assert_eq!(back.horizon, s.horizon);
        assert_eq!(back.servers, s.servers);
    }

    /// Write `text` to a temp file and return its path.
    fn temp_file(name: &str, text: &str) -> PathBuf {
        let path = std::env::temp_dir().join(format!("coolstream-cli-test-{name}"));
        std::fs::write(&path, text).unwrap();
        path
    }

    #[test]
    fn missing_scenario_file_is_a_clear_error() {
        let e = build_scenario(&parse("run --scenario /nonexistent/nope.json")).unwrap_err();
        assert!(e.contains("read /nonexistent/nope.json"), "{e}");
    }

    #[test]
    fn malformed_scenario_json_is_a_clear_error() {
        let path = temp_file("malformed.json", "{ this is not json");
        let e = build_scenario(&parse(&format!("run --scenario {}", path.display()))).unwrap_err();
        assert!(e.contains("malformed JSON"), "{e}");
    }

    #[test]
    fn wrong_version_and_unknown_field_are_rejected() {
        let v9 = temp_file(
            "v9.json",
            r#"{"version": 9, "name": "x", "base": {"kind": "steady", "rate": 0.5}}"#,
        );
        let e = build_scenario(&parse(&format!("run --scenario {}", v9.display()))).unwrap_err();
        assert!(e.contains("unsupported schema version 9"), "{e}");

        let unk = temp_file(
            "unknown.json",
            r#"{"version": 1, "name": "x", "base": {"kind": "steady", "rate": 0.5}, "sped": 3}"#,
        );
        let e = build_scenario(&parse(&format!("run --scenario {}", unk.display()))).unwrap_err();
        assert!(e.contains("unknown field `sped`"), "{e}");
    }

    #[test]
    fn scenario_file_compiles_with_seed_override() {
        let path = temp_file(
            "good.json",
            r#"{
                "version": 1, "name": "good", "seed": 3, "end_s": 300,
                "base": {"kind": "steady", "rate": 0.4},
                "events": [{"kind": "bootstrap_down", "at_s": 60},
                           {"kind": "bootstrap_up", "at_s": 120}]
            }"#,
        );
        let loaded = build_scenario(&parse(&format!("run --scenario {}", path.display()))).unwrap();
        assert_eq!(loaded.scenario.seed, 3);
        assert_eq!(loaded.scenario.horizon, SimTime::from_secs(300));
        assert_eq!(loaded.injections.len(), 2);
        let cli_seed = build_scenario(&parse(&format!(
            "run --scenario {} --seed 44",
            path.display()
        )))
        .unwrap();
        assert_eq!(cli_seed.scenario.seed, 44, "--seed must override the file");
    }

    #[test]
    fn config_emits_the_versioned_schema() {
        let spec =
            spec_from_flags(&parse("config --preset steady --rate 0.8 --minutes 5")).unwrap();
        let json = spec.to_json();
        assert!(json.contains("\"version\": 1"), "{json}");
        // And what config prints, run --scenario accepts.
        let back = ScenarioSpec::from_json(&json).unwrap();
        assert_eq!(back, spec);
        let compiled = back.compile().unwrap();
        assert_eq!(compiled.scenario.horizon, SimTime::from_mins(5));
    }
}
