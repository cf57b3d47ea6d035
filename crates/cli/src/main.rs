//! `coolstream` — the command-line front end of the reproduction
//! (`coolstream help` prints the usage, `HELP`).
//!
//! A run has one description — a versioned scenario-DSL document
//! (DESIGN.md §10), loaded with `--scenario` or built from the preset
//! flags — and one output: the run directory `--out` (default `./out`),
//! indexed by its `manifest.json` (DESIGN.md §8). `config` prints the
//! description for editing; `analyze` re-derives the log-based figures
//! from a run directory's `log.txt` — the measurement-study workflow
//! without re-simulating; `reproduce` runs the paper-shape oracle and
//! writes `EXPERIMENTS.json`.

#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    warn(
        clippy::disallowed_methods,
        clippy::disallowed_types,
        clippy::float_cmp
    )
)]

mod args;
mod output;

use std::path::PathBuf;
use std::process::ExitCode;

use args::Args;
use coolstreaming::experiments::{
    fig10_sessions, fig6_startup, fig7_ready_by_period, render_fig7, reproduce, LogView,
    REPLICATIONS,
};
use coolstreaming::{BaseSpec, CompiledSpec, RunOptions, ScenarioSpec};
use cs_logging::LogServer;
use cs_sim::SimTime;
use cs_telemetry::DEFAULT_WINDOW;

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

/// Load and strictly validate a `--scenario FILE` DSL document.
fn load_spec(path: &str) -> Result<ScenarioSpec, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    ScenarioSpec::from_json(&text).map_err(|e| format!("{path}: {e}"))
}

/// The run's one description — `--scenario FILE` or the preset flags —
/// and what it compiles to. The returned spec always names its seed
/// (`--seed`, else the file's, else the base default), so feeding it
/// back through `run --scenario` reproduces the run with no flags.
fn build_scenario(args: &Args) -> Result<(ScenarioSpec, CompiledSpec), String> {
    let mut spec = match args.get_str("scenario") {
        Some(path) => load_spec(path)?,
        None => spec_from_flags(args)?,
    };
    // --seed wins over the file, so sweeps can reuse one file across seeds.
    if let Some(seed) = args.get_opt("seed")? {
        spec.seed = Some(seed);
    }
    let compiled = spec.compile().map_err(|e| e.to_string())?;
    spec.seed = Some(compiled.scenario.seed);
    Ok((spec, compiled))
}

fn cmd_run(args: &Args) -> Result<(), String> {
    let (spec, compiled) = build_scenario(args)?;
    let (scenario, injections) = (compiled.scenario, compiled.injections);
    let quiet = args.has("quiet");
    // An instrument flag is bare (its default) or carries a count >= 1.
    let positive = |key: &str, bare: u64| match args.get_or_bare(key, bare)? {
        Some(0) => Err(format!("--{key}: must be at least 1, got 0")),
        value => Ok(value),
    };
    let options = RunOptions {
        invariant_stride: positive("check-invariants", 1)?,
        // The manifest always records the hash; --trace-hash only prints it.
        trace_hash: true,
        record_spans: args.has("spans"),
        telemetry: positive("telemetry", DEFAULT_WINDOW.as_secs())?.map(SimTime::from_secs),
    };
    if !quiet {
        eprintln!(
            "running {} → {} (seed {})…",
            scenario.start, scenario.horizon, scenario.seed
        );
    }
    // Wall-clock timing for the manifest only; sim behaviour never sees it.
    #[expect(
        clippy::disallowed_methods,
        reason = "manifest wall_ms is explicitly environment-dependent metadata"
    )]
    let wall_start = std::time::Instant::now();
    let observed = scenario.run_injected_observed(injections, options);
    let wall_ms = u64::try_from(wall_start.elapsed().as_millis()).unwrap_or(u64::MAX);
    if let (true, Some(hash)) = (args.has("trace-hash"), observed.trace_hash) {
        println!("trace-hash {hash:016x}");
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
    let out: PathBuf = args.get_str("out").unwrap_or("out").into();
    let manifest = output::write_run_dir(
        &out,
        spec,
        scenario.start,
        scenario.horizon,
        &observed,
        git_describe(),
        wall_ms,
    )
    .map_err(|e| format!("write {}: {e}", out.display()))?;
    if !quiet {
        let na = || "n/a".to_string();
        eprintln!(
            "done: {} arrivals, {} events, continuity {}, ready median {} → {}",
            manifest.arrivals,
            manifest.events,
            manifest
                .mean_continuity
                .map_or_else(na, |c| format!("{:.2}%", 100.0 * c)),
            manifest
                .ready_median_s
                .map_or_else(na, |s| format!("{s:.1}s")),
            out.display(),
        );
    }
    if violations > 0 {
        return Err(format!("{violations} invariant violations detected"));
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

/// `coolstream reproduce` — every oracle row at every replication. The
/// verdicts are reported, not enforced: the exit code is 0 whatever they
/// are, and a gate compares the written `EXPERIMENTS.json` instead.
fn cmd_reproduce(args: &Args) -> Result<(), String> {
    let out = args.get_str("out").map(PathBuf::from);
    let rows = coolstreaming::experiments::rows().len();
    eprintln!("running {rows} experiments × {REPLICATIONS} replications…");
    let repro = reproduce();
    print!("{}", repro.render());
    if let Some(dir) = out {
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let path = dir.join("EXPERIMENTS.json");
        std::fs::write(&path, repro.to_json())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        eprintln!("wrote {}", path.display());
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
    let hours_to_s = |key: &str| match args.get_opt::<f64>(key)? {
        None => Ok(None),
        Some(h) if h.is_finite() && h >= 0.0 => Ok(Some((h * 3600.0).round() as u64)),
        Some(h) => Err(format!("--{key}: must be a finite hour >= 0, got {h}")),
    };
    spec.seed = args.get_opt("seed")?;
    spec.start_s = hours_to_s("start-h")?;
    spec.end_s = hours_to_s("end-h")?;
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
                      [--scenario spec.json] [--out DIR] [--quiet]
                      [--check-invariants [N]] [--trace-hash]
                      [--telemetry [SECS]] [--spans]
  coolstream analyze  --log FILE [--out DIR]
  coolstream reproduce [--out DIR]
  coolstream config   [--preset ...] [--scenario spec.json] [--example]
  coolstream help

Flags may be spelled `--key value` or `--key=value`. Unknown flags and
unparsable values are errors.

run executes one scenario — a --scenario file, or the spec the preset
flags describe (what `config` prints) — and writes one run directory,
--out (default out): log.txt, figures.txt, sessions.csv and the
manifest.json that indexes them (DESIGN.md §8).

  --scenario FILE      load a versioned scenario-DSL file (schema v1:
                       base + overrides + timed chaos `events`; see
                       DESIGN.md §10 and scenarios/). Unknown fields,
                       wrong versions and out-of-range knobs are errors.
  --check-invariants [N]
                       validate protocol invariants after every N-th
                       event, N >= 1 (bare: every event); exit non-zero
                       on any violation
  --trace-hash         print the run's deterministic trace hash (the
                       manifest records it either way)
  --telemetry [SECS]   also write windowed metrics (metrics.jsonl), one
                       line per SECS >= 1 of sim time (bare: 300, the
                       paper's status-report cadence), and a wall-clock
                       profile (profile.json): per event kind and owning
                       manager, the handler time of 1 event in 128,
                       scaled to the exact counts in metrics.jsonl
                       (busy_ns)
  --spans              also write one causal span per dispatched event
                       (spans.jsonl)

reproduce runs the paper-shape oracle (EXPERIMENTS.md): every experiment
at 8 seeds, then per predicate its pass count, median [min, max] and the
paper's number. It exits 0 whatever the verdicts.

  --out DIR            also write DIR/EXPERIMENTS.json (no wall time, host
                       or version data: a pure function of the tree)
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
    "out",
    "quiet",
    "check-invariants",
    "trace-hash",
    "telemetry",
    "spans",
];
const ANALYZE_FLAGS: &[&str] = &["log", "out"];
const REPRODUCE_FLAGS: &[&str] = &["out"];
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
        Some("analyze") => (ANALYZE_FLAGS, cmd_analyze),
        Some("reproduce") => (REPRODUCE_FLAGS, cmd_reproduce),
        Some("config") => (CONFIG_FLAGS, cmd_config),
        Some("help") | None => (&["help"], cmd_help),
        Some(other) => return Err(format!("unknown command {other:?}\n{HELP}")),
    };
    args.expect_flags(declared)?;
    // `--out` with no value would write into the working directory.
    if args.get_str("out") == Some("") {
        return Err("--out needs a directory".into());
    }
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

    /// The runnable scenario `args` describe.
    fn scenario_of(args: &str) -> Result<coolstreaming::Scenario, String> {
        build_scenario(&parse(args)).map(|(_, compiled)| compiled.scenario)
    }

    #[test]
    fn build_scenario_presets() {
        let (spec, compiled) =
            build_scenario(&parse("run --preset steady --rate 0.8 --minutes 5")).unwrap();
        assert_eq!(compiled.scenario.horizon, SimTime::from_mins(5));
        // The effective spec names even a defaulted seed and round-trips.
        assert_eq!(spec.seed, Some(compiled.scenario.seed));
        assert_eq!(ScenarioSpec::from_json(&spec.to_json()), Ok(spec));
        let e = scenario_of("run --preset event_day --scale 0.01 --seed 9").unwrap();
        assert_eq!(e.seed, 9);
        assert_eq!(e.horizon, SimTime::from_hours(24));
        assert!(scenario_of("run --preset nope").is_err());
    }

    #[test]
    fn window_flags_override() {
        let s = scenario_of("run --preset event_day --start-h 18 --end-h 19.5").unwrap();
        assert_eq!(s.start, SimTime::from_hours(18));
        assert_eq!(s.horizon, SimTime::from_secs(19 * 3600 + 1800));
        assert!(scenario_of("run --start-h 5 --end-h 4").is_err());
        // `run` and `config | run --scenario` mean the same window: a
        // steady preset ends at --minutes (default 20) unless --end-h says
        // otherwise.
        let s = scenario_of("run --preset steady --start-h 0.1").unwrap();
        assert_eq!(
            (s.start, s.horizon),
            (SimTime::from_mins(6), SimTime::from_mins(20))
        );
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
        let (_, loaded) =
            build_scenario(&parse(&format!("run --scenario {}", path.display()))).unwrap();
        assert_eq!(loaded.scenario.seed, 3);
        assert_eq!(loaded.scenario.horizon, SimTime::from_secs(300));
        assert_eq!(loaded.injections.len(), 2);
        let (spec, cli_seed) = build_scenario(&parse(&format!(
            "run --scenario {} --seed 44",
            path.display()
        )))
        .unwrap();
        assert_eq!(cli_seed.scenario.seed, 44, "--seed must override the file");
        assert_eq!(spec.seed, Some(44), "and the effective spec records it");
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
