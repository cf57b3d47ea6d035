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

use coolstreaming::telemetry::{DEFAULT_WINDOW, PROFILE_SAMPLE_EVERY};
use coolstreaming::{RunOptions, Scenario, TelemetryRun};
use cs_integration::{fnv1a_text, session_table_text};
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
        invariant_stride: None,
        trace_hash: true,
        record_spans: false,
        telemetry: Some(SimTime::from_secs(window_secs)),
    }
}

const HASH_ONLY: RunOptions = RunOptions {
    invariant_stride: None,
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

/// The exact bytes of `metrics.jsonl` on the 5- and 2-minute grids:
/// `coolstream run --preset steady --rate 0.4 --minutes 6 --seed 301
/// --telemetry` writes the first text, and `--telemetry 120` the second.
#[test]
fn metrics_jsonl_bytes_are_pinned() {
    for (window, expected) in [(300, 0x5161_08f0_b16c_5ccf), (120, 0xad90_5d53_8515_d543)] {
        let run = golden_steady().run_observed(with_telemetry(window));
        let tel = run.telemetry.expect("telemetry requested");
        assert_eq!(
            fnv1a_text(tel.metrics_jsonl()),
            expected,
            "{window} s windows:\n{}",
            tel.metrics_jsonl()
        );
    }
}

#[test]
fn windows_follow_the_simtime_cadence() {
    let (_, tel) = run_golden();
    // 6 sim-minutes with 5-minute windows: one full window closed by the
    // first dispatch at-or-after t=300 s, plus the partial tail flushed
    // at the horizon.
    let grid: Vec<_> = windows(&tel).iter().map(grid_of).collect();
    assert_eq!(
        grid,
        [
            (0, 0, 300_000_000, false),
            (1, 300_000_000, 360_000_000, true)
        ],
        "expected full + partial window"
    );
}

#[test]
fn engine_counters_partition_the_event_total() {
    let (_, tel) = run_golden();
    let windows = windows(&tel);
    // The last window's totals across kinds equal the observer's event
    // count…
    let last = windows.last().expect("a window");
    let total: u64 = counters(last).values().map(|&(total, _)| total).sum();
    assert_eq!(total, tel.events);
    // …and the per-window deltas partition the same total.
    let window_sum: u64 = windows
        .iter()
        .flat_map(|w| counters(w).into_values())
        .map(|(_, delta)| delta)
        .sum();
    assert_eq!(window_sum, tel.events, "window deltas must partition total");
}

/// Every window names the same gauges and histograms, in one order, and
/// each kind's window deltas sum to its last total.
#[test]
fn every_window_has_one_schema_and_each_kind_partitions_its_total() {
    let (_, tel) = run_golden();
    let windows = windows(&tel);
    let names = |w: &Value, section| -> Vec<String> {
        let series = field(w, section).as_map().expect(section);
        series.iter().map(|(name, _)| name.clone()).collect()
    };
    let gauges = [
        "engine_queue_depth",
        "engine_queue_high_water",
        "proto_peers_alive",
        "proto_peers_ready",
    ];
    let histograms = [
        "proto_buffer_occupancy_blocks",
        "proto_join_ready_ms",
        "proto_mcache_size",
        "proto_partners",
        "proto_substream_lag_blocks",
    ];
    for w in &windows {
        assert_eq!(names(w, "gauges"), gauges, "{w:?}");
        assert_eq!(names(w, "histograms"), histograms, "{w:?}");
    }
    let last = counters(windows.last().expect("a window"));
    for (kind, (total, _)) in &last {
        let deltas: u64 = windows
            .iter()
            .filter_map(|w| counters(w).get(kind).map(|&(_, delta)| delta))
            .sum();
        assert_eq!(deltas, *total, "{kind}");
    }
}

/// Observer invariance: further sinks leave the metric stream
/// byte-identical, and every sink on leaves the log text and the
/// ground-truth session table of an unobserved run unchanged.
#[test]
fn sinks_change_neither_the_metric_stream_nor_the_run() {
    for seed in [301, 302] {
        let scenario = golden_steady().with_seed(seed);
        let telemetry = RunOptions {
            telemetry: Some(DEFAULT_WINDOW),
            ..RunOptions::default()
        };
        let alone = scenario.run_observed(telemetry);
        let all = scenario.run_observed(RunOptions {
            invariant_stride: Some(64),
            trace_hash: true,
            record_spans: true,
            ..telemetry
        });
        let plain = scenario.run_observed(RunOptions::default());
        assert_eq!(
            all.telemetry.expect("telemetry").metrics_jsonl(),
            alone.telemetry.expect("telemetry").metrics_jsonl(),
            "seed {seed}"
        );
        let (all, plain) = (&all.artifacts.world, &plain.artifacts.world);
        assert_eq!(all.log.as_text(), plain.log.as_text(), "seed {seed}");
        assert_eq!(
            session_table_text(&all.sessions),
            session_table_text(&plain.sessions),
            "seed {seed}"
        );
    }
}

#[test]
fn protocol_series_are_populated() {
    let (_, tel) = run_golden();
    let windows = windows(&tel);
    let last = windows.last().expect("a window");
    for (section, names) in [
        ("gauges", &["proto_peers_alive", "proto_peers_ready"][..]),
        (
            "histograms",
            &[
                "proto_partners",
                "proto_buffer_occupancy_blocks",
                "proto_substream_lag_blocks",
                "proto_mcache_size",
                "proto_join_ready_ms",
            ],
        ),
    ] {
        let series = field(last, section).as_map().expect(section);
        for name in names {
            assert!(
                series.iter().any(|(key, _)| key == name),
                "missing protocol series {name}"
            );
        }
    }
    // At a 0.4/s arrival rate the population is alive at the horizon and
    // sessions reached media-ready, so the load-bearing series are
    // non-trivial, not just present.
    let alive = int(field(field(last, "gauges"), "proto_peers_alive"));
    assert!(alive > 0, "no peers alive at horizon");
    let join_ready = field(field(last, "histograms"), "proto_join_ready_ms");
    assert!(
        int(field(join_ready, "count")) > 0,
        "no join→ready latencies"
    );
}

#[test]
fn jsonl_and_profile_render_valid_shapes() {
    let (_, tel) = run_golden();
    let jsonl = tel.metrics_jsonl();
    assert!(jsonl.ends_with('\n'));
    assert_eq!(jsonl.lines().count(), windows(&tel).len());
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

/// The per-kind table is the single source of `metrics.jsonl`'s
/// `engine_events_total{kind=…}` counters; the span stream is recorded
/// independently of it (one record per dispatch, classified by the same
/// `Event::kind_class`). With every sink on, the two must agree with each
/// other, with the engine's own event count, and with the checker's.
#[test]
fn single_table_agrees_with_the_span_stream() {
    let run = golden_steady().run_observed(RunOptions {
        invariant_stride: Some(64),
        trace_hash: true,
        record_spans: true,
        telemetry: Some(DEFAULT_WINDOW),
    });
    let events = run.artifacts.run_stats.events;
    let tel = run.telemetry.expect("telemetry requested");
    let spans = run.spans.expect("spans requested");
    let mut per_kind = BTreeMap::new();
    for s in &spans {
        *per_kind.entry(s.kind).or_insert(0u64) += 1;
    }
    let last = windows(&tel).pop().expect("a window");
    let totals: BTreeMap<String, u64> = counters(&last)
        .into_iter()
        .map(|(kind, (total, _))| (kind, total))
        .collect();
    let spanned: BTreeMap<String, u64> = per_kind
        .iter()
        .map(|(&kind, &n)| (kind.to_string(), n))
        .collect();
    assert_eq!(totals, spanned);
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

fn int(v: &Value) -> u64 {
    match v {
        Value::Int(i) => u64::try_from(*i).expect("non-negative"),
        other => panic!("expected an integer, got {other:?}"),
    }
}

/// `metrics.jsonl`, one parsed object per window.
fn windows(tel: &TelemetryRun) -> Vec<Value> {
    let lines = tel.metrics_jsonl().lines();
    lines.map(|l| serde_json::from_str(l).expect(l)).collect()
}

/// A window's `(index, start_us, end_us, partial)`.
fn grid_of(window: &Value) -> (u64, u64, u64, bool) {
    let partial = match field(window, "partial") {
        Value::Bool(b) => *b,
        other => panic!("expected a bool, got {other:?}"),
    };
    let at = |key| int(field(window, key));
    (at("window"), at("start_us"), at("end_us"), partial)
}

/// A window's `engine_events_total{kind=…}` counters as kind →
/// `(total, delta)`.
fn counters(window: &Value) -> BTreeMap<String, (u64, u64)> {
    let series = field(window, "counters").as_map().expect("counters");
    series
        .iter()
        .map(|(key, v)| {
            let kind = key
                .strip_prefix("engine_events_total{kind=")
                .and_then(|k| k.strip_suffix('}'))
                .unwrap_or_else(|| panic!("not a per-kind counter: {key}"));
            (
                kind.to_string(),
                (int(field(v, "total")), int(field(v, "delta"))),
            )
        })
        .collect()
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
    let windows = windows(&tel);
    let grid: Vec<_> = windows.iter().map(grid_of).collect();
    let horizon = 360_000_000;
    assert_eq!(
        grid,
        [
            (0, 0, 120_000_000, false),
            (1, 120_000_000, 240_000_000, false),
            (2, 240_000_000, horizon, false),
            (3, horizon, horizon, true),
        ]
    );
    let tail = windows.last().expect("windows");
    let events_by_the_tail: u64 = counters(tail).values().map(|&(total, _)| total).sum();
    assert_eq!(events_by_the_tail, tel.events);
}
