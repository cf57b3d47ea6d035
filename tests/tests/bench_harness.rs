//! The perf-trajectory harness (`coolstream bench`, `cs_bench::harness`)
//! measured against the golden scenario library: the harness must cover
//! every scenario and reproduce the committed golden trace hashes, and
//! every report committed at the repo root must still load.

use std::path::{Path, PathBuf};

use coolstreaming::{RunOptions, ScenarioSpec};
use cs_bench::{compare, run_bench, BenchOptions, BenchReport, BENCH_SCHEMA};
use cs_integration::check_golden_in;
use cs_telemetry::TelemetryConfig;

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/scenario_hashes.txt");

fn scenarios_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../scenarios")
}

/// One full harness pass: every scenario in the library is measured, the
/// hashes equal the golden file (the measured code path IS the tested
/// code path), and counts and rates are populated.
#[test]
fn bench_covers_the_library_and_reproduces_golden_hashes() {
    let mut opts = BenchOptions::new(scenarios_dir());
    opts.reps = 1;
    opts.git_describe = Some("test".into());
    let report = &run_bench(&opts).expect("bench runs");
    assert_eq!(report.schema, BENCH_SCHEMA);
    assert_eq!(report.reps, 1);
    assert!(report.cores >= 1, "host fingerprint missing");

    let library = std::fs::read_dir(scenarios_dir()).expect("library").count();
    assert_eq!(report.scenarios.len(), library, "bench must cover it all");
    for s in &report.scenarios {
        let hash = u64::from_str_radix(&s.trace_hash, 16).expect("16 hex digits");
        check_golden_in(GOLDEN_PATH, "scenario golden hashes", &s.name, hash);
        assert!(s.events > 0 && s.peers > 0, "{}: empty run", s.name);
        assert_eq!(s.wall_ns.len(), 1);
        assert!(s.min_wall_ns > 0 && s.events_per_sec > 0, "{}", s.name);
    }
}

/// Determinism under instrumentation: a scenario run with every sink on
/// (hash + invariants + telemetry + spans) produces the same trace hash
/// as a bare hash-only run.
#[test]
fn full_instrumentation_does_not_perturb_the_trace() {
    let text = std::fs::read_to_string(scenarios_dir().join("server_crash.json")).unwrap();
    let spec = ScenarioSpec::from_json(&text).unwrap();
    let hash_with = |options: RunOptions| {
        let compiled = spec.compile().unwrap();
        compiled
            .scenario
            .run_injected_observed(compiled.injections, options)
            .trace_hash
            .expect("hash requested")
    };
    let bare = hash_with(RunOptions {
        trace_hash: true,
        ..RunOptions::default()
    });
    let instrumented = hash_with(RunOptions {
        check_invariants: true,
        invariant_stride: 1,
        trace_hash: true,
        record_spans: true,
        telemetry: Some(TelemetryConfig::default()),
    });
    assert_eq!(bare, instrumented, "observers perturbed the trace");
}

/// The committed trajectory stays readable: `cs-bench/1` reports carry
/// per-kind tables this build no longer writes, and load all the same.
#[test]
fn committed_bench_reports_load_and_self_compare_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut seen = 0;
    for entry in std::fs::read_dir(&root).expect("repo root") {
        let path = entry.expect("dir entry").path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("read report");
        let report = BenchReport::from_json(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(report.scenarios.len(), 9, "{name}");
        let outcome = compare(&report, &report, 25, 100);
        assert!(outcome.passed() && outcome.warnings.is_empty(), "{name}");
        seen += 1;
    }
    assert!(seen >= 4, "only {seen} BENCH_*.json found at the repo root");
}
