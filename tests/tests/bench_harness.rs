//! The perf-trajectory harness (`coolstream bench`, `cs_bench::harness`)
//! measured against the golden scenario library: the harness must cover
//! every scenario, reproduce the committed golden trace hashes with its
//! full instrumentation attached (hasher + telemetry + profiler + span
//! recorder are all passive), and its BENCH report must survive a JSON
//! round trip byte-for-value.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use coolstreaming::{RunOptions, ScenarioSpec};
use cs_bench::{compare, run_bench, BenchOptions, BenchReport, BENCH_SCHEMA};
use cs_telemetry::TelemetryConfig;

fn scenarios_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../scenarios")
}

/// The committed golden hashes, keyed by scenario name.
fn golden_hashes() -> BTreeMap<String, String> {
    let text = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("golden/scenario_hashes.txt"),
    )
    .expect("golden hash file");
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| {
            let mut it = l.split_whitespace();
            (
                it.next().expect("name").to_string(),
                it.next().expect("hash").to_string(),
            )
        })
        .collect()
}

/// One full harness pass: every scenario in the library is measured, the
/// hashes equal the golden file (the measured code path IS the tested
/// code path), counts and rates are populated, and the report + span
/// stream have the committed shapes.
#[test]
fn bench_covers_the_library_and_reproduces_golden_hashes() {
    let mut opts = BenchOptions::new(scenarios_dir());
    opts.reps = 1;
    opts.git_describe = Some("test".into());
    let run = run_bench(&opts).expect("bench runs");
    let report = &run.report;
    assert_eq!(report.schema, BENCH_SCHEMA);
    assert_eq!(report.reps, 1);
    assert!(report.cores >= 1, "host fingerprint missing");

    let golden = golden_hashes();
    assert_eq!(
        report.scenarios.len(),
        golden.len(),
        "bench must cover the whole golden library"
    );
    for s in &report.scenarios {
        let want = golden
            .get(&s.name)
            .unwrap_or_else(|| panic!("{}: not in golden file", s.name));
        assert_eq!(
            &s.trace_hash, want,
            "{}: hash drift with the harness attached — observers must be passive",
            s.name
        );
        assert!(s.events > 0 && s.peers > 0, "{}: empty run", s.name);
        assert_eq!(s.wall_ns.len(), 1);
        assert!(s.min_wall_ns > 0 && s.events_per_sec > 0, "{}", s.name);
        let kind_total: u64 = s.event_kinds.values().sum();
        let mgr_total: u64 = s.manager_events.values().sum();
        assert_eq!(kind_total, s.events, "{}: kind totals disagree", s.name);
        assert_eq!(mgr_total, s.events, "{}: manager totals disagree", s.name);
        assert!(
            !s.dispatch_ns.is_empty(),
            "{}: no dispatch percentiles",
            s.name
        );
        for (kind, p) in &s.dispatch_ns {
            assert!(
                p.p50_ns <= p.p95_ns && p.p95_ns <= p.p99_ns,
                "{}/{kind}: percentiles out of order",
                s.name
            );
        }
    }

    // Round trip: the report parses back value-identical.
    let back = BenchReport::from_json(&report.to_json()).expect("parse");
    assert_eq!(*report, back);

    // Span stream: schema header plus one line per dispatched event.
    let spans = run.spans_jsonl.expect("spans recorded by default");
    let mut lines = spans.lines();
    let header = lines.next().expect("header line");
    assert!(header.contains("\"schema\":\"cs-spans/1\""), "{header}");
    let total_events: u64 = report.scenarios.iter().map(|s| s.events).sum();
    assert_eq!(lines.count() as u64, total_events);

    // Self-comparison gates clean.
    let outcome = compare(report, report, 25, 100);
    assert!(outcome.passed() && outcome.warnings.is_empty());
}

/// Determinism under instrumentation: a scenario run with the full bench
/// observer stack (hash + invariants + telemetry + spans) produces the
/// same trace hash as a bare hash-only run.
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
        check_invariants: false,
        invariant_stride: 1,
        trace_hash: true,
        record_spans: false,
        telemetry: None,
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

/// Spans carry the causal structure: roots are externally scheduled
/// (arrivals, initial events, injections), every cause references an
/// earlier span's seq, and managers partition the event alphabet.
#[test]
fn span_stream_is_causally_consistent() {
    let mut opts = BenchOptions::new(scenarios_dir());
    opts.reps = 1;
    opts.filter = Some(vec!["steady_state".into()]);
    let run = run_bench(&opts).expect("bench runs");
    let spans = run.spans_jsonl.expect("spans recorded");
    let mut seen: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
    let mut roots = 0u64;
    for line in spans.lines().skip(1) {
        let field = |key: &str| -> String {
            let at = line.find(key).unwrap_or_else(|| panic!("{key} in {line}"));
            line[at + key.len()..]
                .chars()
                .take_while(|c| c.is_ascii_digit() || *c == 'n' || *c == 'u' || *c == 'l')
                .collect()
        };
        let seq: u64 = field("\"seq\":").parse().expect("seq");
        let cause = field("\"cause\":");
        if cause == "null" {
            roots += 1;
        } else {
            let cause: u64 = cause.parse().expect("cause seq");
            assert!(
                seen.contains(&cause),
                "span {seq}: cause {cause} not dispatched before it"
            );
        }
        assert!(
            ["membership", "partnership", "stream", "chaos", "engine"]
                .iter()
                .any(|m| line.contains(&format!("\"manager\":\"{m}\""))),
            "unclassified manager in {line}"
        );
        seen.insert(seq);
    }
    assert!(roots > 0, "no externally scheduled spans");
    assert!(
        seen.len() as u64 > roots,
        "no caused spans — cause tracking is dead"
    );
}
