//! Metric tables, repetition aggregation and the result documents.
//!
//! The tables here are the single source of names, units, directions and
//! bounds; `BENCHMARK.json` mirrors them (a test keeps the two in step).

use std::collections::BTreeMap;

use serde::Value;

use crate::host::Host;
use crate::stats::{median, min_max};
use crate::workloads::{Rep, Workload};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the pipeline sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the reference median by which the metric may worsen.
    pub bound: f64,
    /// Differences below this absolute amount never count (`compare` only).
    pub floor: f64,
}

pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        floor: 0.01,
    },
    EndToEnd {
        name: "pipeline_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        floor: 0.0,
    },
    EndToEnd {
        name: "work_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        floor: 0.0,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.2,
        floor: 0.0,
    },
];

/// Event kinds the traced run reports one by one (the protocol's own;
/// chaos injections appear in no workload).
pub const TRACED_KINDS: [&str; 11] = [
    "arrive",
    "bootstrap_reply",
    "partners_ready",
    "patience_check",
    "depart",
    "gossip_tick",
    "bm_tick",
    "sched_round",
    "playback_tick",
    "report_tick",
    "snapshot",
];

/// A per-layer metric. A workload that does not run the layer reports 0.
pub struct Layer {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
}

/// Every per-layer metric, outside-in by crate.
pub fn layers() -> Vec<Layer> {
    use Better::{Higher, Lower};
    let mut out: Vec<Layer> = Vec::new();
    let mut add = |name: &str, unit: &'static str, better: Better| {
        out.push(Layer {
            name: name.to_string(),
            unit,
            better,
        });
    };
    add("sim.events", "count", Lower);
    add("sim.ns_per_event", "ns", Lower);
    add("sim.queue_depth_max", "count", Lower);
    add("sim.engine_overhead_s", "s", Lower);
    add("sim.queue_push_pop_ns", "ns", Lower);
    add("workload.generate_s", "s", Lower);
    add("workload.arrivals", "count", Higher);
    add("core.spec_compile_s", "s", Lower);
    add("core.world_setup_s", "s", Lower);
    add("core.finalize_s", "s", Lower);
    add("core.figures_s", "s", Lower);
    for manager in ["membership", "partnership", "stream", "engine"] {
        add(&format!("proto.{manager}.events"), "count", Lower);
        add(&format!("proto.{manager}.busy_s"), "s", Lower);
    }
    for kind in TRACED_KINDS {
        add(&format!("proto.kind.{kind}.events"), "count", Lower);
        add(&format!("proto.kind.{kind}.busy_s"), "s", Lower);
        add(&format!("proto.kind.{kind}.p99_ns"), "ns", Lower);
    }
    add("proto.partnership.established", "count", Higher);
    add("proto.partnership.establish_fail_share", "share", Lower);
    add("proto.partnership.adaptations", "count", Lower);
    add("proto.stream.parent_repairs", "count", Lower);
    add("proto.stream.blocks_delivered", "count", Higher);
    add("proto.stream.blocks_skipped_share", "share", Lower);
    add("proto.membership.join_retries", "count", Lower);
    add("proto.membership.bootstrap_rejects", "count", Lower);
    add("proto.arena.peers_live_max", "count", Higher);
    add("proto.arena.slots_max", "count", Lower);
    add("proto.arena.rss_bytes_per_live_peer", "B", Lower);
    add("net.try_connect_ns", "ns", Lower);
    add("net.delay_ns", "ns", Lower);
    add("net.connect_attempts", "count", Lower);
    add("net.connect_fail_share", "share", Lower);
    add("logging.lines", "count", Lower);
    add("logging.bytes", "B", Lower);
    add("logging.to_text_s", "s", Lower);
    add("logging.from_text_s", "s", Lower);
    add("logging.parse_s", "s", Lower);
    add("logging.parse_failures", "count", Lower);
    add("logging.encode_ns_per_report", "ns", Lower);
    add("analysis.reconstruct_s", "s", Lower);
    add("analysis.sessions", "count", Higher);
    add("fidelity.mean_continuity", "share", Higher);
    add("fidelity.ready_median_s", "s", Lower);
    add("fidelity.retried_share", "share", Lower);
    add("fidelity.log_fnv", "hash", Higher);
    add("host.ref_kernel_s", "s", Lower);
    add("host.speed_factor", "x", Lower);
    add("trace.sample_stride", "count", Lower);
    add("trace.clock_ns", "ns", Lower);
    add("trace.overhead_pct", "%", Lower);
    add("trace.log_matches", "bool", Higher);
    out
}

/// The outcome of every repetition of one workload under one seed.
pub struct WorkloadResult {
    pub name: &'static str,
    pub work_unit: &'static str,
    pub attempted: usize,
    pub failed: usize,
    /// Why repetitions failed, in order.
    pub failures: Vec<String>,
    /// Samples per end-to-end metric, good timed repetitions only.
    pub samples: BTreeMap<String, Vec<f64>>,
    /// The exact values every good repetition agreed on.
    pub exact: BTreeMap<String, f64>,
    /// Samples of the raw (un-normalised) values, same repetitions.
    pub raw: BTreeMap<String, Vec<f64>>,
    /// Main-stage seconds of each good timed repetition, at nominal host speed.
    pub main_s: Vec<f64>,
    /// Per-layer values, once a traced repetition was folded in.
    pub layers: BTreeMap<String, f64>,
}

impl WorkloadResult {
    pub fn new(workload: &Workload) -> Self {
        WorkloadResult {
            name: workload.name,
            work_unit: workload.work_unit,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            samples: BTreeMap::new(),
            raw: BTreeMap::new(),
            exact: BTreeMap::new(),
            main_s: Vec::new(),
            layers: BTreeMap::new(),
        }
    }

    /// Fold in one timed repetition. It fails if the child failed, if an
    /// output check broke, or if any exact value — event count, log line
    /// count, log fingerprint, … — differs from the earlier repetitions.
    pub fn push_timed(&mut self, rep: Result<Rep, String>) {
        self.attempted += 1;
        let problem = match &rep {
            Err(e) => Some(e.clone()),
            Ok(rep) if !rep.failures.is_empty() => Some(rep.failures.join("; ")),
            Ok(rep) => self.exact_mismatch(rep),
        };
        if let Some(problem) = problem {
            self.failed += 1;
            self.failures.push(problem);
            return;
        }
        let Ok(rep) = rep else { return };
        self.main_s.push(rep.main_s());
        if self.exact.is_empty() {
            self.exact = rep.exact;
        }
        for (name, value) in rep.e2e {
            self.samples.entry(name).or_default().push(value);
        }
        for (name, value) in rep.raw {
            self.raw.entry(name).or_default().push(value);
        }
    }

    fn exact_mismatch(&self, rep: &Rep) -> Option<String> {
        if self.exact.is_empty() || self.exact == rep.exact {
            return None;
        }
        let differing: Vec<&str> = self
            .exact
            .iter()
            .filter(|(k, v)| rep.exact.get(*k) != Some(v))
            .map(|(k, _)| k.as_str())
            .collect();
        Some(format!(
            "not deterministic: {} differ between repetitions",
            differing.join(", ")
        ))
    }

    /// Fold in the traced repetition. A trace whose log differs from the
    /// untraced runs' is reported loudly and its engine-side numbers are
    /// withheld, but it is not a failed repetition.
    pub fn push_traced(&mut self, rep: Result<Rep, String>) {
        let mut rep = match rep {
            Ok(rep) => rep,
            Err(e) => {
                eprintln!("{}: TRACED REPETITION FAILED: {e}", self.name);
                return;
            }
        };
        let matches = self.exact_mismatch(&rep).is_none() && rep.failures.is_empty();
        self.layers = std::mem::take(&mut rep.layers);
        if !matches {
            eprintln!(
                "{}: TRACE DOES NOT MATCH THE UNTRACED RUN — proto.* and sim.engine_overhead_s withheld",
                self.name
            );
            self.layers
                .retain(|k, _| !k.starts_with("proto.") && k != "sim.engine_overhead_s");
        }
        for (layer, exact) in [
            ("fidelity.mean_continuity", "mean_continuity"),
            ("fidelity.ready_median_s", "ready_median_s"),
            ("fidelity.retried_share", "retried_share"),
            ("fidelity.log_fnv", "log_fnv"),
        ] {
            if let Some(&v) = self.exact.get(exact) {
                self.layers.insert(layer.into(), v);
            }
        }
        for key in ["ref_kernel_s", "speed_factor"] {
            if let Some(&v) = rep.raw.get(key) {
                self.layers.insert(format!("host.{key}"), v);
            }
        }
        if !self.main_s.is_empty() && rep.main_s() > 0.0 {
            let overhead = 100.0 * (rep.main_s() / median(&self.main_s) - 1.0);
            self.layers.insert("trace.overhead_pct".into(), overhead);
        }
        self.layers
            .insert("trace.log_matches".into(), f64::from(u8::from(matches)));
    }

    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Median of an end-to-end metric's samples, if any repetition was good.
    pub fn median_of(&self, metric: &str) -> Option<f64> {
        self.samples.get(metric).map(|xs| median(xs))
    }

    /// The unit of an end-to-end metric on this workload.
    pub fn unit_of(&self, metric: &EndToEnd) -> String {
        if metric.name == "work_per_s" {
            format!("{}/s", self.work_unit)
        } else {
            metric.unit.to_string()
        }
    }
}

fn num(x: f64) -> Value {
    // Counts and fingerprints print as integers, measurements with all
    // their digits.
    if x.fract() == 0.0 && x.abs() < 9.0e15 {
        Value::Int(x as i128)
    } else {
        Value::Float(x)
    }
}

fn map(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn metric_value(value: f64, unit: &str) -> Value {
    map(vec![
        ("value", Value::Float(value)),
        ("unit", Value::Str(unit.to_string())),
    ])
}

/// The one-line result of a driver-mode run: every end-to-end metric
/// (`traced == false`) or every per-layer metric (`traced == true`).
pub fn driver_line(result: &WorkloadResult, traced: bool) -> Option<String> {
    let metrics: Vec<(String, Value)> = if traced {
        layers()
            .into_iter()
            .map(|l| {
                let value = result.layers.get(&l.name).copied().unwrap_or(0.0);
                (l.name, metric_value(value, l.unit))
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| {
                let value = result.median_of(m.name)?;
                Some((m.name.to_string(), metric_value(value, m.unit)))
            })
            .collect::<Option<_>>()?
    };
    let line = map(vec![
        ("correct", Value::Bool(result.failed == 0)),
        ("attempted", Value::Int(result.attempted as i128)),
        ("failed", Value::Int(result.failed as i128)),
        ("metrics", Value::Map(metrics)),
    ]);
    serde_json::to_string(&line).ok()
}

/// The result document `run` writes; `compare` reads it back.
pub fn result_document(
    results: &[WorkloadResult],
    host: &Host,
    seed: u64,
    reps: usize,
    smoke: bool,
) -> String {
    let workloads: Vec<(String, Value)> = results
        .iter()
        .map(|r| {
            let end_to_end: Vec<(String, Value)> = END_TO_END
                .iter()
                .filter_map(|m| {
                    let xs = r.samples.get(m.name)?;
                    let (min, max) = min_max(xs);
                    Some((
                        m.name.to_string(),
                        map(vec![
                            ("median", Value::Float(median(xs))),
                            ("min", Value::Float(min)),
                            ("max", Value::Float(max)),
                            ("n", Value::Int(xs.len() as i128)),
                            ("unit", Value::Str(r.unit_of(m))),
                        ]),
                    ))
                })
                .collect();
            let numbers = |m: &BTreeMap<String, f64>| {
                Value::Map(m.iter().map(|(k, v)| (k.clone(), num(*v))).collect())
            };
            let doc = map(vec![
                ("work_unit", Value::Str(r.work_unit.to_string())),
                ("attempted", Value::Int(r.attempted as i128)),
                ("failed", Value::Int(r.failed as i128)),
                ("failed_share", Value::Float(r.failed_share())),
                (
                    "failures",
                    Value::Seq(r.failures.iter().cloned().map(Value::Str).collect()),
                ),
                ("end_to_end", Value::Map(end_to_end)),
                (
                    "raw_medians",
                    Value::Map(
                        r.raw
                            .iter()
                            .map(|(k, xs)| (k.clone(), Value::Float(median(xs))))
                            .collect(),
                    ),
                ),
                ("exact", numbers(&r.exact)),
                ("per_layer", numbers(&r.layers)),
            ]);
            (r.name.to_string(), doc)
        })
        .collect();
    let doc = map(vec![
        ("schema", Value::Str("cs-benchmark/1".to_string())),
        ("seed", Value::Int(i128::from(seed))),
        ("timed_reps", Value::Int(reps as i128)),
        ("smoke", Value::Bool(smoke)),
        (
            "statistics",
            Value::Str(format!(
                "median, min and max of {reps} timed repetitions; that many samples support no percentile beyond the median"
            )),
        ),
        (
            "host",
            map(vec![
                ("nproc", Value::Int(host.nproc as i128)),
                ("load_1m_at_start", Value::Float(host.load_1m)),
                ("rustc", Value::Str(host.rustc.clone())),
                ("git_describe", Value::Str(host.git_describe.clone())),
            ]),
        ),
        ("workloads", Value::Map(workloads)),
        ("claim", Value::Null),
    ]);
    serde_json::to_string_pretty(&doc).unwrap_or_default()
}

/// The human-readable table `run` prints: every metric by name with unit.
pub fn render(results: &[WorkloadResult]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for r in results {
        let _ = writeln!(
            out,
            "\n== {} ({} of {} repetitions failed)",
            r.name, r.failed, r.attempted
        );
        for failure in &r.failures {
            let _ = writeln!(out, "  FAILED: {failure}");
        }
        for m in END_TO_END.iter() {
            let Some(xs) = r.samples.get(m.name) else {
                continue;
            };
            let (min, max) = min_max(xs);
            let _ = writeln!(
                out,
                "  {:<44} {:>16.6} {:<14} median of {} (min {:.6}, max {:.6}); {} is better, bound {:.0} %",
                m.name,
                median(xs),
                r.unit_of(m),
                xs.len(),
                min,
                max,
                m.better.as_str(),
                100.0 * m.bound
            );
        }
        let _ = writeln!(
            out,
            "  {:<44} {:>16.6} {:<14} lower is better, bound 0",
            "failed_share",
            r.failed_share(),
            "share"
        );
        for l in layers() {
            if let Some(v) = r.layers.get(&l.name) {
                let _ = writeln!(
                    out,
                    "  {:<44} {:>16.6} {:<14} {} is better",
                    l.name,
                    v,
                    l.unit,
                    l.better.as_str()
                );
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    fn rep(log_fnv: f64, pipeline_s: f64) -> Rep {
        let mut rep = Rep::default();
        rep.raw.insert("main_s".into(), pipeline_s);
        rep.raw.insert("speed_factor".into(), 1.0);
        rep.exact.insert("events".into(), 1000.0);
        rep.exact.insert("log_lines".into(), 50.0);
        rep.exact.insert("log_fnv".into(), log_fnv);
        rep.e2e.insert("setup_s".into(), 0.5);
        rep.e2e.insert("pipeline_s".into(), pipeline_s);
        rep.e2e.insert("work_per_s".into(), 10.0 / pipeline_s);
        rep.e2e.insert("peak_rss_mb".into(), 12.5);
        rep
    }

    #[test]
    fn a_differing_log_fails_the_repetition() {
        let mut r = WorkloadResult::new(&WORKLOADS[0]);
        r.push_timed(Ok(rep(7.0, 2.0)));
        r.push_timed(Ok(rep(7.0, 4.0)));
        r.push_timed(Ok(rep(8.0, 3.0)));
        r.push_timed(Err("child exited with status 101".into()));
        assert_eq!((r.attempted, r.failed), (4, 2));
        assert!(r.failures[0].contains("log_fnv"), "{:?}", r.failures);
        assert_eq!(r.failed_share(), 0.5);
        // Failed repetitions contribute no samples.
        assert_eq!(r.samples["pipeline_s"], vec![2.0, 4.0]);
        assert_eq!(r.median_of("pipeline_s"), Some(3.0));
        let line = driver_line(&r, false).unwrap();
        assert!(line.starts_with("{\"correct\":false,\"attempted\":4,\"failed\":2,"));
        assert!(line.contains("\"pipeline_s\":{\"value\":3.0,\"unit\":\"s\"}"));
    }

    #[test]
    fn a_mismatching_trace_is_loud_but_not_a_failure() {
        let mut r = WorkloadResult::new(&WORKLOADS[0]);
        r.push_timed(Ok(rep(7.0, 2.0)));
        let mut traced = rep(9.0, 2.1);
        traced
            .layers
            .insert("proto.kind.bm_tick.busy_s".into(), 1.0);
        traced.layers.insert("sim.events".into(), 1000.0);
        r.push_traced(Ok(traced));
        assert_eq!(r.failed, 0);
        assert_eq!(r.layers["trace.log_matches"], 0.0);
        assert!(!r.layers.contains_key("proto.kind.bm_tick.busy_s"));
        assert_eq!(r.layers["sim.events"], 1000.0);
        assert!((r.layers["trace.overhead_pct"] - 5.0).abs() < 1e-6);
        assert_eq!(r.layers["fidelity.log_fnv"], 7.0);
    }

    #[test]
    fn the_traced_line_names_every_layer_metric() {
        let r = WorkloadResult::new(&WORKLOADS[3]);
        let line = driver_line(&r, true).unwrap();
        let all = layers();
        assert!(all.len() <= 128);
        for l in &all {
            assert!(line.contains(&format!("\"{}\":", l.name)), "{}", l.name);
        }
        // No end-to-end sample at all: no line rather than a made-up one.
        assert!(driver_line(&r, false).is_none());
    }

    /// `BENCHMARK.json` is the contract other tools read; it must say
    /// what the tables above say.
    #[test]
    fn benchmark_json_mirrors_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let doc: Value = serde_json::from_str(&text).unwrap();
        let field = |v: &Value, key: &str| -> Value {
            v.as_map()
                .and_then(|m| m.iter().find(|(k, _)| k == key))
                .map(|(_, v)| v.clone())
                .unwrap_or(Value::Null)
        };
        let rows = |key: &str| -> Vec<Value> { field(&doc, key).as_seq().unwrap().to_vec() };
        let text_of = |v: &Value, key: &str| field(v, key).as_str().unwrap().to_string();

        let names: Vec<String> = rows("workloads")
            .iter()
            .map(|w| text_of(w, "name"))
            .collect();
        assert_eq!(names, WORKLOADS.map(|w| w.name.to_string()));

        let e2e = rows("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (row, m) in e2e.iter().zip(END_TO_END.iter()) {
            assert_eq!(text_of(row, "name"), m.name);
            assert_eq!(text_of(row, "unit"), m.unit);
            assert_eq!(text_of(row, "better"), m.better.as_str());
            assert_eq!(field(row, "bound"), Value::Float(m.bound));
        }

        let per_layer = rows("per_layer");
        let expected = layers();
        assert_eq!(per_layer.len(), expected.len());
        for (row, l) in per_layer.iter().zip(expected.iter()) {
            assert_eq!(text_of(row, "name"), l.name);
            assert_eq!(text_of(row, "unit"), l.unit);
            assert_eq!(text_of(row, "better"), l.better.as_str());
        }
    }
}
