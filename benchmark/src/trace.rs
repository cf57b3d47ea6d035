//! Outside-in tracing: everything here lives in the benchmark and wraps
//! calls into the product's public functions.
//!
//! * [`Spans`] records one span per stage (`setup`, `simulate`, …) with
//!   the id of the span that contains it; a stage's self time is its
//!   span minus its children.
//! * [`Tracer`] is a [`cs_sim::Observer`] that counts every dispatched
//!   event per kind and times a deterministic ~1-in-[`SAMPLE_STRIDE`]
//!   subset of handlers. A per-event `Instant` pair costs 4–28 % of the
//!   run; sampling keeps the traced run within a few percent of the
//!   untraced one, and sampled time is scaled by the exact counts.
//!
//! Spans stay in memory until the run ends; `main.rs` then writes
//! [`Spans::to_jsonl`] to `out/trace_<workload>.jsonl`.

use std::fmt::Write as _;
use std::time::Instant;

use cs_sim::{Observer, SimTime, World};

use crate::stats::quantile;

/// Mean gap between timed handlers.
pub const SAMPLE_STRIDE: u64 = 64;
/// Raw handler spans kept for the trace file (aggregates keep them all).
const RAW_SPAN_CAP: usize = 4096;
/// Upper bound on event kinds of any traced world (`cs_proto::Event` has 18).
const MAX_KINDS: usize = 24;

/// One recorded span.
pub struct Span {
    pub name: &'static str,
    /// Index of the containing span.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// The span list of one traced repetition.
pub struct Spans {
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, nested in whatever span is open.
    pub fn stage<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> T {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            dur_ns: 0,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].dur_ns = self.now_ns() - self.spans[id].start_ns;
        out
    }

    /// Attach already-measured child spans (the tracer's raw handler
    /// spans, offsets relative to the parent's start) under span `parent`.
    pub fn adopt(&mut self, parent: usize, children: &[(&'static str, u64, u32)]) {
        let base = self.spans[parent].start_ns;
        for &(name, offset_ns, dur_ns) in children {
            self.spans.push(Span {
                name,
                parent: Some(parent),
                start_ns: base + offset_ns,
                dur_ns: u64::from(dur_ns),
            });
        }
    }

    /// Id of the first span called `name`.
    pub fn find(&self, name: &str) -> Option<usize> {
        self.spans.iter().position(|s| s.name == name)
    }

    /// Total seconds over every span called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns as f64 * 1e-9)
            .sum()
    }

    /// One JSON object per line: `id`, `parent`, `name`, `start_ns`, `dur_ns`.
    pub fn to_jsonl(&self, workload: &str) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"workload\":\"{workload}\",\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"dur_ns\":{}}}",
                s.name, s.start_ns, s.dur_ns
            );
        }
        out
    }
}

/// How a traced world names its events.
pub trait Traced: World {
    /// `(dense kind index, kind name, owning manager)`.
    fn classify(event: &Self::Event) -> (u8, &'static str, &'static str);

    /// `(live peers, arena slots)` when an event of kind `kind` may have
    /// grown the population, else `None`.
    fn population(&self, _kind: u8) -> Option<(usize, usize)> {
        None
    }
}

impl Traced for cs_proto::CsWorld {
    fn classify(event: &cs_proto::Event) -> (u8, &'static str, &'static str) {
        let (ix, name) = event.kind_class();
        (ix, name, event.manager())
    }

    fn population(&self, kind: u8) -> Option<(usize, usize)> {
        // Peers are only ever added by `arrive` (index 0); every other
        // handler can only shrink the population.
        (kind == 0).then(|| (self.peer_count(), self.peer_slots()))
    }
}

/// Per-kind aggregate.
#[derive(Clone, Default)]
pub struct KindAgg {
    pub name: &'static str,
    pub manager: &'static str,
    /// Exact dispatch count.
    pub events: u64,
    /// Durations of the timed subset, raw (clock cost not yet removed).
    pub sampled_ns: Vec<u32>,
}

impl KindAgg {
    /// Estimated total handler seconds: mean sampled duration, less the
    /// clock's own cost, times the exact count.
    pub fn busy_s(&self, clock_ns: f64) -> f64 {
        if self.sampled_ns.is_empty() {
            return 0.0;
        }
        let sum: f64 = self.sampled_ns.iter().map(|&d| f64::from(d)).sum();
        let mean = (sum / self.sampled_ns.len() as f64 - clock_ns).max(0.0);
        mean * self.events as f64 * 1e-9
    }

    /// 99th-percentile sampled handler time in ns, less the clock cost.
    pub fn p99_ns(&self, clock_ns: f64) -> f64 {
        let mut samples = self.sampled_ns.clone();
        (f64::from(quantile(&mut samples, 0.99)) - clock_ns).max(0.0)
    }
}

/// The counting and sampling observer.
pub struct Tracer {
    started: Instant,
    dispatched: u64,
    next_sample: u64,
    gap_state: u64,
    pending: Option<Instant>,
    current: u8,
    pub kinds: Vec<KindAgg>,
    pub queue_depth_max: usize,
    pub peers_live_max: usize,
    pub slots_max: usize,
    /// `(kind, offset from tracer start, duration)` of the first timed handlers.
    pub raw: Vec<(&'static str, u64, u32)>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            started: Instant::now(),
            dispatched: 0,
            next_sample: 1,
            gap_state: 0x9e37_79b9_7f4a_7c15,
            pending: None,
            current: 0,
            kinds: vec![KindAgg::default(); MAX_KINDS],
            queue_depth_max: 0,
            peers_live_max: 0,
            slots_max: 0,
            raw: Vec::new(),
        }
    }

    /// Re-base raw span offsets: call right before `run_until`.
    pub fn start(&mut self) {
        self.started = Instant::now();
    }

    /// Gap to the next timed handler: xorshift-uniform in
    /// `[1, 2·SAMPLE_STRIDE − 1]`, so the subset is the same on every run
    /// but cannot lock onto the protocol's periodic timers the way a
    /// fixed stride can.
    fn next_gap(&mut self) -> u64 {
        let mut x = self.gap_state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.gap_state = x;
        1 + x % (2 * SAMPLE_STRIDE - 1)
    }

    pub fn events(&self) -> u64 {
        self.dispatched
    }

    /// Σ estimated handler seconds over all kinds.
    pub fn busy_s(&self, clock_ns: f64) -> f64 {
        self.kinds.iter().map(|k| k.busy_s(clock_ns)).sum()
    }

    pub fn kind(&self, name: &str) -> Option<&KindAgg> {
        self.kinds.iter().find(|k| k.events > 0 && k.name == name)
    }

    /// `(events, busy seconds)` of one manager.
    pub fn manager(&self, manager: &str, clock_ns: f64) -> (u64, f64) {
        self.kinds
            .iter()
            .filter(|k| k.events > 0 && k.manager == manager)
            .fold((0, 0.0), |(n, s), k| (n + k.events, s + k.busy_s(clock_ns)))
    }
}

impl<W: Traced> Observer<W> for Tracer {
    fn on_dispatch(&mut self, _now: SimTime, event: &W::Event, queue_depth: usize) {
        let (ix, name, manager) = W::classify(event);
        let agg = &mut self.kinds[usize::from(ix)];
        if agg.events == 0 {
            agg.name = name;
            agg.manager = manager;
        }
        agg.events += 1;
        self.current = ix;
        self.queue_depth_max = self.queue_depth_max.max(queue_depth);
        self.dispatched += 1;
        if self.dispatched == self.next_sample {
            self.pending = Some(Instant::now());
        }
    }

    fn after_handle(&mut self, _now: SimTime, world: &W) {
        if let Some(t0) = self.pending.take() {
            let dur = u32::try_from(t0.elapsed().as_nanos()).unwrap_or(u32::MAX);
            let agg = &mut self.kinds[usize::from(self.current)];
            agg.sampled_ns.push(dur);
            if self.raw.len() < RAW_SPAN_CAP {
                let offset = t0.duration_since(self.started).as_nanos() as u64;
                self.raw.push((agg.name, offset, dur));
            }
            self.next_sample = self.dispatched + self.next_gap();
        }
        if let Some((live, slots)) = world.population(self.current) {
            self.peers_live_max = self.peers_live_max.max(live);
            self.slots_max = self.slots_max.max(slots);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_self_time_is_span_minus_children() {
        let mut spans = Spans::new();
        spans.stage("outer", |s| {
            s.stage("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            s.stage("inner", |_| ());
        });
        assert_eq!(spans.spans.len(), 3);
        assert_eq!(spans.spans[1].parent, Some(0));
        assert_eq!(spans.spans[2].parent, Some(0));
        assert!(spans.total_s("outer") >= spans.total_s("inner"));
        assert!(spans.total_s("inner") >= 0.002);
        let jsonl = spans.to_jsonl("w");
        assert_eq!(jsonl.lines().count(), 3);
        assert!(jsonl
            .lines()
            .next()
            .is_some_and(|l| l.contains("\"parent\":null")));
    }

    #[test]
    fn sampling_gaps_are_deterministic_and_average_the_stride() {
        let (mut a, mut b) = (Tracer::new(), Tracer::new());
        let gaps: Vec<u64> = (0..10_000).map(|_| a.next_gap()).collect();
        assert!(gaps.iter().all(|&g| (1..2 * SAMPLE_STRIDE).contains(&g)));
        assert!((0..10_000).all(|i| b.next_gap() == gaps[i]));
        let mean = gaps.iter().sum::<u64>() as f64 / gaps.len() as f64;
        assert!((mean - SAMPLE_STRIDE as f64).abs() < 2.0, "mean gap {mean}");
    }
}
