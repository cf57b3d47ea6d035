//! One instrument set per run.
//!
//! [`Instruments`] is the only [`Observer`] the scenario runner attaches.
//! It holds every opt-in sink by value — trace hash, invariant checker,
//! span stream, telemetry — and is passive: sinks read the event and the
//! post-event world, never write to them, so artifacts and trace hashes
//! are identical whichever sinks are on.
//!
//! Per event, [`Observer::on_dispatch`] classifies the event once
//! (`Event::kind_class` + `Event::manager`) and hands plain values to the
//! sinks that are on; [`Observer::after_handle`] stops the handler timer,
//! runs the checker, and — when the telemetry window is due — samples
//! protocol state and then closes the window, in that order, so the
//! boundary sample lands in the window it closes. The two cheap sinks
//! (hash, per-kind count) run inline; the rest is one out-of-line call
//! taken only when a heavy sink is on or the dispatch is to be timed.
//!
//! The handler is wall-timed by at most one `Instant` pair per event,
//! shared by the span stream (every event) and the dispatch profile (one
//! event in `PROFILE_SAMPLE_EVERY`, added to the telemetry table's row
//! for the event's kind, which the owning manager tags). That duration
//! is the run's only environment-dependent measurement; it reaches
//! `spans.jsonl` and `profile.json` and nothing else.

use std::time::Instant;

use cs_proto::{CsWorld, Event, InvariantChecker, ProtoTelemetry};
use cs_sim::{DispatchMeta, Observer, SimTime, TraceHasher};
use cs_telemetry::{EngineTelemetry, SpanRecord, TelemetryRun};

use crate::scenario::RunOptions;

/// The sinks of one run (`Default` = everything off).
#[derive(Default)]
pub(crate) struct Instruments {
    /// FNV-1a digest of the `(time, kind)` dispatch sequence.
    pub hasher: Option<TraceHasher>,
    /// Protocol-state oracles.
    pub checker: Option<InvariantChecker>,
    /// One causal span per dispatched event.
    pub spans: Option<Vec<SpanRecord>>,
    /// Windowed metrics and the dispatch profile.
    pub telemetry: Option<Telemetry>,
    /// Scheduling metadata of the event being dispatched.
    meta: DispatchMeta,
    /// The running handler timer: kind index, start, and whether the
    /// duration also feeds the dispatch profile.
    in_flight: Option<(u8, Instant, bool)>,
}

/// The telemetry block: the engine-side metrics (which own the series and
/// the window clock) plus the protocol sampler writing into them.
pub(crate) struct Telemetry {
    engine: EngineTelemetry,
    sampler: ProtoTelemetry,
}

impl Telemetry {
    /// Sample protocol state, then close the window(s) ending at or
    /// before `now` — in that order, so the sample lands in the window it
    /// closes.
    fn close_windows(&mut self, now: SimTime, world: &CsWorld) {
        self.sampler.sample(world, self.engine.metrics_mut());
        self.engine.close_windows(now);
    }

    /// Close the books on the horizon state: one last protocol sample,
    /// then the final (possibly partial) window.
    pub fn finish(mut self, world: &CsWorld, end: SimTime) -> TelemetryRun {
        self.sampler.sample(world, self.engine.metrics_mut());
        self.engine.finish(end)
    }
}

impl Instruments {
    /// The sinks `options` asks for, or `None` when it asks for none (the
    /// run then attaches no observer at all). `start` anchors the
    /// telemetry window grid.
    pub fn new(options: &RunOptions, start: SimTime) -> Option<Self> {
        let on = options.check_invariants
            || options.trace_hash
            || options.record_spans
            || options.telemetry.is_some();
        on.then(|| Instruments {
            hasher: options.trace_hash.then(TraceHasher::new),
            checker: options
                .check_invariants
                .then(|| InvariantChecker::with_stride(options.invariant_stride)),
            spans: options.record_spans.then(Vec::new),
            telemetry: options.telemetry.map(|cfg| Telemetry {
                engine: EngineTelemetry::new(cfg, start),
                sampler: ProtoTelemetry::default(),
            }),
            ..Instruments::default()
        })
    }

    /// The per-event work of the heavy sinks (checker, spans) and the
    /// handler timer. Out of line so that [`Observer::on_dispatch`] stays
    /// a small leaf function on the hash-only and telemetry-only paths,
    /// which otherwise pay this code's register saves on every event
    /// (measured: 0.6–0.9 points of overhead on a 250 ns/event scenario).
    #[inline(never)]
    fn on_dispatch_heavy(
        &mut self,
        now: SimTime,
        index: u8,
        kind: &'static str,
        manager: &'static str,
        queue_depth: usize,
        sampled: bool,
    ) {
        if let Some(checker) = &mut self.checker {
            checker.on_dispatch(now, kind);
        }
        if let Some(spans) = &mut self.spans {
            spans.push(SpanRecord::open(self.meta, now, kind, manager, queue_depth));
        }
        if sampled || self.spans.is_some() {
            #[expect(
                clippy::disallowed_methods,
                reason = "wall-clock handler duration goes only to spans.jsonl and profile.json, never into sim state or metrics.jsonl (see module docs)"
            )]
            let t0 = Instant::now();
            self.in_flight = Some((index, t0, sampled));
        }
    }

    /// Stop the handler timer and hand the duration to the span being
    /// recorded and, if this dispatch was sampled, to the profile.
    #[inline(never)]
    fn stop_timer(&mut self, (index, t0, sampled): (u8, Instant, bool)) {
        let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        if let Some(span) = self.spans.as_mut().and_then(|s| s.last_mut()) {
            span.wall_ns = ns;
        }
        if let (true, Some(t)) = (sampled, &mut self.telemetry) {
            t.engine.record_ns(index, ns);
        }
    }
}

impl Observer<CsWorld> for Instruments {
    /// Only the span stream reads causes, so only a span run pays the
    /// engine's cause table.
    fn wants_causes(&self) -> bool {
        self.spans.is_some()
    }

    fn on_dispatch_meta(&mut self, meta: DispatchMeta) {
        self.meta = meta;
    }

    #[inline]
    fn on_dispatch(&mut self, now: SimTime, event: &Event, queue_depth: usize) {
        let (index, kind) = event.kind_class();
        let manager = event.manager();
        if let Some(hasher) = &mut self.hasher {
            hasher.record(now, kind);
        }
        let sampled = match &mut self.telemetry {
            Some(t) => t.engine.on_dispatch(index, kind, manager, queue_depth),
            None => false,
        };
        if sampled || self.checker.is_some() || self.spans.is_some() {
            self.on_dispatch_heavy(now, index, kind, manager, queue_depth, sampled);
        }
    }

    fn after_handle(&mut self, now: SimTime, world: &CsWorld) {
        if let Some(timer) = self.in_flight.take() {
            self.stop_timer(timer);
        }
        if let Some(checker) = &mut self.checker {
            checker.after_handle(now, world);
        }
        if let Some(t) = &mut self.telemetry {
            if t.engine.window_due(now) {
                t.close_windows(now, world);
            }
        }
    }
}
