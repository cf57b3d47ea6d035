//! Telemetry end-to-end: windowed metrics ride a scenario run without
//! perturbing it.
//!
//! The acceptance contract for the observability layer: telemetry is
//! passive (trace hashes are identical with it on or off, and still
//! match the golden hash), windows land on the configured sim-time
//! cadence, engine counters agree with the engine's own accounting and
//! with the independently recorded span stream, the protocol series are
//! populated, and the JSONL/profile renderings are structurally valid.

use std::collections::{BTreeMap, BTreeSet};

use coolstreaming::telemetry::{Metric, SnapValue, TelemetryConfig, PROFILE_SAMPLE_EVERY};
use coolstreaming::{RunOptions, Scenario, TelemetryRun};
use cs_sim::SimTime;
use serde::Value;

/// The golden steady-state scenario from `tests/golden/trace_hashes.txt`.
fn golden_steady() -> Scenario {
    Scenario::steady(0.4)
        .with_seed(301)
        .with_window(SimTime::ZERO, SimTime::from_mins(6))
}

fn with_telemetry(window_secs: u64) -> RunOptions {
    RunOptions {
        check_invariants: false,
        invariant_stride: 0,
        trace_hash: true,
        record_spans: false,
        telemetry: Some(TelemetryConfig {
            window: SimTime::from_secs(window_secs),
        }),
    }
}

const HASH_ONLY: RunOptions = RunOptions {
    check_invariants: false,
    invariant_stride: 0,
    trace_hash: true,
    record_spans: false,
    telemetry: None,
};

fn run_golden() -> (Option<u64>, TelemetryRun) {
    let run = golden_steady().run_observed(with_telemetry(300));
    let tel = run.telemetry.expect("telemetry requested");
    (run.trace_hash, tel)
}

#[test]
fn telemetry_is_passive_and_matches_golden_hash() {
    let plain = golden_steady().run_observed(HASH_ONLY);
    let (hash, tel) = run_golden();
    assert_eq!(
        plain.trace_hash, hash,
        "telemetry changed the dispatch sequence"
    );
    // Golden steady_state hash from tests/golden/trace_hashes.txt.
    assert_eq!(hash, Some(0xfd00912eb62e19b3), "golden trace hash moved");
    assert!(tel.events > 0);
}

#[test]
fn windows_follow_the_simtime_cadence() {
    let (_, tel) = run_golden();
    // 6 sim-minutes with 5-minute windows: one full window closed by the
    // first dispatch at-or-after t=300 s, plus the partial tail flushed
    // at the horizon.
    assert_eq!(tel.snapshots.len(), 2, "expected full + partial window");
    assert_eq!(tel.snapshots[0].start, SimTime::ZERO);
    assert_eq!(tel.snapshots[0].end, SimTime::from_secs(300));
    assert!(!tel.snapshots[0].partial);
    assert_eq!(tel.snapshots[1].start, SimTime::from_secs(300));
    assert_eq!(tel.snapshots[1].end, SimTime::from_mins(6));
    assert!(tel.snapshots[1].partial);
    for (i, s) in tel.snapshots.iter().enumerate() {
        assert_eq!(s.index as usize, i);
    }
}

#[test]
fn engine_counters_partition_the_event_total() {
    let (_, tel) = run_golden();
    // Registry totals across kinds equal the observer's event count…
    let registry_total: u64 = tel
        .registry
        .enumerate()
        .filter(|(_, key, _)| key.name == "engine_events_total")
        .map(|(_, _, m)| match m {
            Metric::Counter(n) => *n,
            other => panic!("engine_events_total must be a counter: {other:?}"),
        })
        .sum();
    assert_eq!(registry_total, tel.events);
    // …and the per-window deltas partition the same total.
    let window_sum: u64 = tel
        .snapshots
        .iter()
        .flat_map(|s| &s.series)
        .filter(|(id, _)| id.starts_with("engine_events_total"))
        .map(|(_, v)| match v {
            SnapValue::Counter { delta, .. } => *delta,
            other => panic!("counter snapshot expected: {other:?}"),
        })
        .sum();
    assert_eq!(window_sum, tel.events, "window deltas must partition total");
}

#[test]
fn protocol_series_are_populated() {
    let (_, tel) = run_golden();
    for name in [
        "proto_peers_alive",
        "proto_peers_ready",
        "proto_partners",
        "proto_buffer_occupancy_blocks",
        "proto_substream_lag_blocks",
        "proto_mcache_size",
        "proto_join_ready_ms",
    ] {
        assert!(
            tel.registry.enumerate().any(|(_, key, _)| key.name == name),
            "missing protocol series {name}"
        );
    }
    // At a 0.4/s arrival rate the population is alive at the horizon and
    // sessions reached media-ready, so the load-bearing series are
    // non-trivial, not just registered.
    match tel.registry.get("proto_peers_alive", &[]) {
        Some(Metric::Gauge(v)) => assert!(*v > 0, "no peers alive at horizon"),
        other => panic!("proto_peers_alive must be a gauge: {other:?}"),
    }
    match tel.registry.get("proto_join_ready_ms", &[]) {
        Some(Metric::Histogram(h)) => assert!(h.count() > 0, "no join→ready latencies"),
        other => panic!("proto_join_ready_ms must be a histogram: {other:?}"),
    }
}

#[test]
fn jsonl_and_profile_render_valid_shapes() {
    let (_, tel) = run_golden();
    let jsonl = tel.metrics_jsonl();
    assert!(jsonl.ends_with('\n'));
    assert_eq!(jsonl.lines().count(), tel.snapshots.len());
    for line in jsonl.lines() {
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        assert!(line.contains("\"window\":"), "{line}");
        assert!(
            line.contains("\"start_us\":") && line.contains("\"end_us\":"),
            "{line}"
        );
        assert!(line.contains("\"counters\":{"), "{line}");
    }
    assert_eq!(tel.timed(), tel.events.div_ceil(PROFILE_SAMPLE_EVERY));
    let json = tel.profile_json();
    assert!(json.starts_with("{\"schema\":\"cs-telemetry-profile/3\""));
    assert!(json.contains("\"kinds\":{") && json.contains("\"managers\":{"));
}

/// The per-kind table is the single source of the registry's
/// `engine_events_total{kind=…}` counters; the span stream is recorded
/// independently of it (one record per dispatch, classified by the same
/// `Event::kind_class`). With every sink on, the two must agree with each
/// other, with the engine's own event count, and with the checker's.
#[test]
fn single_table_agrees_with_the_span_stream() {
    let run = golden_steady().run_observed(RunOptions {
        check_invariants: true,
        invariant_stride: 64,
        trace_hash: true,
        record_spans: true,
        telemetry: Some(TelemetryConfig::default()),
    });
    let events = run.artifacts.run_stats.events;
    let tel = run.telemetry.expect("telemetry requested");
    let spans = run.spans.expect("spans requested");
    let mut per_kind = BTreeMap::new();
    for s in &spans {
        *per_kind.entry(s.kind).or_insert(0u64) += 1;
    }
    for (&kind, &n) in &per_kind {
        assert_eq!(
            tel.registry.get("engine_events_total", &[("kind", kind)]),
            Some(&Metric::Counter(n)),
            "{kind}"
        );
    }
    let series = tel.registry.enumerate();
    let counted = series.filter(|(_, key, _)| key.name == "engine_events_total");
    assert_eq!(counted.count(), per_kind.len());
    assert_eq!(tel.events, events);
    assert_eq!(spans.len() as u64, events);
    let chk = run.invariants.expect("checker requested");
    assert_eq!(chk.events_seen(), events);
    assert!(chk.is_clean(), "{}", chk.report());
    assert_eq!(run.trace_hash, Some(0xfd00912eb62e19b3));

    // The profile's rows are the same table's: one per dispatched kind,
    // each tagged with the manager every span of that kind names.
    let profile: Value = serde_json::from_str(&tel.profile_json()).expect("profile.json");
    let managers: BTreeMap<&str, &str> = field(&profile, "kinds")
        .as_map()
        .expect("kinds")
        .iter()
        .map(|(kind, row)| {
            (
                kind.as_str(),
                field(row, "manager").as_str().expect("manager"),
            )
        })
        .collect();
    assert_eq!(managers.len(), per_kind.len());
    for s in &spans {
        assert_eq!(managers.get(s.kind), Some(&s.manager), "span {}", s.seq);
    }
}

/// The value at `key` of a JSON object.
fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    let map = v.as_map().expect("object");
    let (_, value) = map.iter().find(|(k, _)| k == key).expect(key);
    value
}

/// Spans carry the causal structure: roots are externally scheduled
/// (arrivals, initial events), every cause references an earlier span's
/// seq, and managers partition the event alphabet.
#[test]
fn span_stream_is_causally_consistent() {
    let spans = golden_steady()
        .run_observed(RunOptions {
            record_spans: true,
            ..RunOptions::default()
        })
        .spans
        .expect("spans requested");
    let mut seen = BTreeSet::new();
    let mut roots = 0usize;
    for s in &spans {
        match s.cause {
            None => roots += 1,
            Some(cause) => assert!(
                seen.contains(&cause),
                "span {}: cause {cause} not dispatched before it",
                s.seq
            ),
        }
        assert!(
            ["membership", "partnership", "stream", "chaos", "engine"].contains(&s.manager),
            "span {}: unclassified manager {:?}",
            s.seq,
            s.manager
        );
        assert!(seen.insert(s.seq), "span seq {} repeats", s.seq);
    }
    assert!(roots > 0, "no externally scheduled spans");
    assert!(
        seen.len() > roots,
        "no caused spans — cause tracking is dead"
    );
}

#[test]
fn custom_window_changes_the_grid() {
    let run = golden_steady().run_observed(with_telemetry(120));
    let tel = run.telemetry.expect("telemetry requested");
    // 6 minutes on a 2-minute grid: windows end at 120/240/360 s, the
    // last exactly at the horizon, closed by the first dispatch there.
    // What that instant dispatched afterwards, and the horizon's protocol
    // sample, follow in a zero-length partial window.
    let (tail, full) = tel.snapshots.split_last().expect("windows");
    assert_eq!(full.len(), 3);
    for (i, s) in full.iter().enumerate() {
        assert_eq!(s.end, SimTime::from_secs(120 * (i as u64 + 1)));
        assert!(!s.partial);
    }
    let horizon = SimTime::from_mins(6);
    assert_eq!(
        (tail.start, tail.end, tail.partial),
        (horizon, horizon, true)
    );
    let events_by_the_tail: u64 = tail
        .series
        .iter()
        .filter(|(id, _)| id.starts_with("engine_events_total"))
        .map(|(_, v)| match v {
            SnapValue::Counter { total, .. } => *total,
            other => panic!("counter snapshot expected: {other:?}"),
        })
        .sum();
    assert_eq!(events_by_the_tail, tel.events);
}
