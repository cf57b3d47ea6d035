//! Sim-time span tracing: a causal, flamegraph-convertible record of
//! where simulated and wall time go.
//!
//! A run's instrument set (cs-core's `Instruments`) records one
//! [`SpanRecord`] per dispatched event: the event's sim-time, kind,
//! owning manager (membership / partnership / stream / chaos / engine),
//! queue depth, and — through the engine's
//! [`DispatchMeta`] hook — its queue seq and
//! *causal parent*, the seq of the event whose handler scheduled it.
//! Following `cause` links reconstructs the causal tree of a run
//! (arrival → bootstrap reply → partner round → stream ticks …), which
//! converts directly to a flamegraph: the parent chain is the stack.
//! Queue entries carry no cause: the engine resolves it from a table,
//! indexed by seq, that it keeps only for an observer whose
//! `Observer::wants_causes` is true. The instrument set's is true exactly
//! when it records spans, so only a span run pays for causality (8 bytes
//! per event pushed, beside the 80-byte record per event dispatched).
//! This module is the record type and its `spans.jsonl` rendering.
//!
//! Every field except `wall_ns` is a pure function of
//! `(configuration, seed)`: two runs of the same scenario produce
//! byte-identical span streams after stripping `wall_ns`. The wall-clock
//! handler duration is the same deliberate, quarantined nondeterminism
//! as the dispatch profile ([`TelemetryRun::profile_json`](crate::TelemetryRun::profile_json)):
//! it is emitted only to `spans.jsonl`, never into `metrics.jsonl` or
//! simulation state.

use cs_sim::{DispatchMeta, SimTime};

use crate::json::{push_key, push_str_lit};

/// Schema identifier carried by the `spans.jsonl` header line.
pub const SPANS_SCHEMA: &str = "cs-spans/1";

/// One dispatched event's span.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// Queue insertion seq — unique per run, doubles as the span id.
    pub seq: u64,
    /// Seq of the causing event's span (`None` for externally scheduled
    /// events: initial events, workload arrivals, chaos injections).
    pub cause: Option<u64>,
    /// Sim-time of the dispatch, in microseconds.
    pub sim_us: u64,
    /// Event kind name (`Event::kind_class`).
    pub kind: &'static str,
    /// Owning manager (`Event::manager`).
    pub manager: &'static str,
    /// Queue depth at dispatch, including the in-flight event.
    pub queue_depth: u64,
    /// Wall-clock handler duration in nanoseconds. The one
    /// environment-dependent field; strip it when diffing span streams.
    pub wall_ns: u64,
}

impl SpanRecord {
    /// The span of an event about to be handled: `meta` and `queue_depth`
    /// as the engine's observer hooks deliver them (the depth excludes
    /// the popped event, which is counted back in), `wall_ns` still 0.
    pub fn open(
        meta: DispatchMeta,
        now: SimTime,
        kind: &'static str,
        manager: &'static str,
        queue_depth: usize,
    ) -> Self {
        SpanRecord {
            seq: meta.seq,
            cause: meta.cause,
            sim_us: now.as_micros(),
            kind,
            manager,
            queue_depth: queue_depth.saturating_add(1) as u64,
            wall_ns: 0,
        }
    }

    /// Render one JSONL line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\"seq\":{},\"cause\":", self.seq);
        match self.cause {
            Some(c) => out.push_str(&c.to_string()),
            None => out.push_str("null"),
        }
        out.push_str(&format!(",\"sim_us\":{}", self.sim_us));
        out.push(',');
        push_key(&mut out, "kind");
        push_str_lit(&mut out, self.kind);
        out.push(',');
        push_key(&mut out, "manager");
        push_str_lit(&mut out, self.manager);
        out.push_str(&format!(
            ",\"queue_depth\":{},\"wall_ns\":{}}}",
            self.queue_depth, self.wall_ns
        ));
        out
    }
}

/// Render a full `spans.jsonl` document: a schema header line followed
/// by one line per span.
pub fn spans_to_jsonl(spans: &[SpanRecord]) -> String {
    let mut out = String::from("{");
    push_key(&mut out, "schema");
    push_str_lit(&mut out, SPANS_SCHEMA);
    out.push_str(&format!(",\"spans\":{}}}\n", spans.len()));
    for s in spans {
        out.push_str(&s.to_json());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs_sim::{Ctx, Engine, Observer, World};
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Root spawns `n` children; children are leaves.
    struct Tree;

    #[derive(Clone, Copy)]
    enum Ev {
        Root(u32),
        Child,
    }

    impl World for Tree {
        type Event = Ev;
        fn handle(&mut self, ctx: &mut Ctx<'_, Ev>, event: Ev) {
            if let Ev::Root(n) = event {
                for _ in 0..n {
                    ctx.schedule_in(SimTime::from_secs(1), Ev::Child);
                }
            }
        }
    }

    /// Opens one span per dispatch from what the engine hooks deliver.
    #[derive(Default)]
    struct Recorder {
        meta: DispatchMeta,
        spans: Vec<SpanRecord>,
    }

    impl Observer<Tree> for Recorder {
        fn wants_causes(&self) -> bool {
            true
        }
        fn on_dispatch_meta(&mut self, meta: DispatchMeta) {
            self.meta = meta;
        }
        fn on_dispatch(&mut self, now: SimTime, event: &Ev, queue_depth: usize) {
            let (kind, manager) = match event {
                Ev::Root(_) => ("root", "membership"),
                Ev::Child => ("child", "stream"),
            };
            self.spans
                .push(SpanRecord::open(self.meta, now, kind, manager, queue_depth));
        }
    }

    fn record_tree(n: u32) -> Vec<SpanRecord> {
        let rec = Rc::new(RefCell::new(Recorder::default()));
        let mut eng = Engine::new(Tree);
        eng.set_observer(Box::new(Rc::clone(&rec)));
        eng.schedule_at(SimTime::ZERO, Ev::Root(n));
        eng.run_until(SimTime::MAX);
        rec.take().spans
    }

    #[test]
    fn spans_carry_cause_kind_and_manager() {
        let spans = record_tree(3);
        assert_eq!(spans.len(), 4);
        let root = &spans[0];
        assert_eq!(
            (root.kind, root.manager, root.cause),
            ("root", "membership", None)
        );
        // Nothing else is pending while the root runs: depth counts the
        // in-flight event itself.
        assert_eq!(root.queue_depth, 1);
        for child in &spans[1..] {
            assert_eq!(child.kind, "child");
            assert_eq!(child.manager, "stream");
            assert_eq!(
                child.cause,
                Some(root.seq),
                "children are caused by the root"
            );
            assert_eq!(child.sim_us, SimTime::from_secs(1).as_micros());
        }
        // Seqs are unique.
        let mut seqs: Vec<u64> = spans.iter().map(|s| s.seq).collect();
        seqs.dedup();
        assert_eq!(seqs.len(), spans.len());
    }

    #[test]
    fn span_stream_is_deterministic_modulo_wall_ns() {
        let strip = |spans: Vec<SpanRecord>| {
            spans
                .into_iter()
                .map(|mut s| {
                    s.wall_ns = 0;
                    s.to_json()
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(strip(record_tree(5)), strip(record_tree(5)));
    }

    #[test]
    fn jsonl_shape_is_stable() {
        let spans = record_tree(1);
        let doc = spans_to_jsonl(&spans);
        let mut lines = doc.lines();
        let header = lines.next().unwrap();
        assert!(header.contains("\"schema\":\"cs-spans/1\""), "{header}");
        assert!(header.contains("\"spans\":2"), "{header}");
        let first = lines.next().unwrap();
        assert!(first.starts_with("{\"seq\":0,"), "{first}");
        assert!(first.contains("\"cause\":null"), "{first}");
        assert!(first.contains("\"manager\":\"membership\""), "{first}");
        let second = lines.next().unwrap();
        assert!(second.contains("\"cause\":0"), "{second}");
        assert_eq!(lines.next(), None);
    }
}
