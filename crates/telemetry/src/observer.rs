//! The engine half of a run's telemetry: what the observer hooks feed.
//!
//! [`EngineTelemetry`] owns the run's [`Metrics`], one dense per-kind
//! table and the window clock. The run's instrument set (cs-core's
//! `Instruments`, the one `cs_sim::Observer` attached to the engine)
//! classifies each event once and hands this block plain values:
//!
//! * [`EngineTelemetry::on_dispatch`] counts the dispatch in the table
//!   row of its kind, tags the row with the kind's owning manager, and
//!   writes the pending-queue depth (including the event being
//!   dispatched) and its high-water mark;
//! * [`EngineTelemetry::record_ns`] adds the wall-clock handler duration
//!   of the one dispatch in [`PROFILE_SAMPLE_EVERY`] that `on_dispatch`
//!   asked the caller to time to the row's fixed-size [`Histogram`];
//! * [`EngineTelemetry::window_due`] / [`EngineTelemetry::close_windows`]
//!   drive the window clock. The protocol sampler (the run's instrument
//!   set, in `coolstreaming`) writes into [`EngineTelemetry::metrics_mut`]
//!   *before* `close_windows`, so their boundary sample lands in the
//!   window being closed.
//!
//! The table is the single source of every per-kind figure: the
//! `engine_events_total{kind=…}` counters of `metrics.jsonl`, rendered
//! from it at each window close, and the wall-clock profile of
//! `profile.json` ([`TelemetryRun::profile_json`]), whose per-kind
//! `busy_ns` scales the timed nanoseconds by that same exact count. So
//! `metrics.jsonl` and `profile.json` cannot disagree about a count.
//!
//! Hot-path design: the per-event work touches only block-local state —
//! the classifier's dense per-kind index makes counting a dispatch an
//! array increment, plus two plain integers for queue accounting.
//! Nothing is looked up or copied until a window closes.
//!
//! Everything here is passive: no simulation state is read and no events
//! are scheduled, so trace hashes are identical with or without
//! telemetry attached. The handler durations are the one
//! environment-dependent measurement; they never enter `metrics.jsonl`,
//! only `profile.json`.

use cs_sim::SimTime;

use crate::registry::{Histogram, Metrics};
use crate::window::Windows;
use crate::DEFAULT_WINDOW;

/// One dispatch in this many is wall-timed for the dispatch profile (the
/// rest cost a counter check), keeping the two clock reads off the
/// per-event path. The stride is fixed: each kind's share of the timed
/// dispatches tracks its share of all dispatches, and kinds rarer than
/// roughly this many events per run may go untimed.
pub const PROFILE_SAMPLE_EVERY: u64 = 128;

/// One row of the per-kind table, addressed by the classifier's dense
/// index. `name` and `manager` are set on dispatch. The row has a fixed
/// size, so the table does not grow with the run.
#[derive(Clone, Debug, Default)]
pub(crate) struct KindRow {
    pub(crate) name: &'static str,
    /// The manager whose handler runs this kind.
    pub(crate) manager: &'static str,
    /// Dispatches seen (cumulative).
    pub(crate) count: u64,
    /// Wall-clock handler durations of the timed dispatches.
    pub(crate) timed: Histogram,
}

impl KindRow {
    /// Handler time over *every* dispatch of the kind: the timed
    /// nanoseconds scaled by `count / timed`. `None` when none was timed.
    pub(crate) fn busy_ns(&self) -> Option<u128> {
        let timed = u128::from(self.timed.count());
        (timed > 0).then(|| u128::from(self.timed.sum()) * u128::from(self.count) / timed)
    }
}

/// Engine-level metrics for one run (see module docs).
pub struct EngineTelemetry {
    metrics: Metrics,
    kinds: Vec<KindRow>,
    windows: Windows,
    events: u64,
}

impl EngineTelemetry {
    /// A block with nothing counted, closing a window every `window` of
    /// sim-time (`SimTime::ZERO` falls back to [`DEFAULT_WINDOW`]).
    /// `start` anchors the window grid (pass the scenario's window start).
    pub fn new(window: SimTime, start: SimTime) -> Self {
        let window = if window == SimTime::ZERO {
            DEFAULT_WINDOW
        } else {
            window
        };
        EngineTelemetry {
            metrics: Metrics::default(),
            kinds: Vec::new(),
            windows: Windows::new(window, start),
            events: 0,
        }
    }

    /// The gauges and histograms, for samplers that write this run's
    /// protocol series.
    pub fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.metrics
    }

    /// Count one dispatch of the kind at dense `index`, run by `manager`.
    /// `queue_depth` is the engine's pending count *after* the pop; the
    /// in-flight event is counted back in, so a run with one event at a
    /// time has a high-water mark of 1. Returns whether the caller should
    /// time this dispatch and report it through [`Self::record_ns`].
    #[inline]
    pub fn on_dispatch(
        &mut self,
        index: u8,
        name: &'static str,
        manager: &'static str,
        queue_depth: usize,
    ) -> bool {
        let index = usize::from(index);
        if index >= self.kinds.len() {
            self.kinds.resize_with(index + 1, KindRow::default);
        }
        let row = &mut self.kinds[index];
        row.name = name;
        row.manager = manager;
        row.count += 1;
        let depth = (queue_depth as u64).saturating_add(1);
        self.metrics.engine_queue_depth = depth;
        self.metrics.engine_queue_high_water = self.metrics.engine_queue_high_water.max(depth);
        let sample = self.events % PROFILE_SAMPLE_EVERY == 0;
        self.events += 1;
        sample
    }

    /// Add the handler duration of a dispatch [`Self::on_dispatch`]
    /// selected for timing.
    pub fn record_ns(&mut self, index: u8, ns: u64) {
        if let Some(row) = self.kinds.get_mut(usize::from(index)) {
            row.timed.observe(ns);
        }
    }

    /// Whether `now` has reached the end of the open window — the cue to
    /// sample protocol state and then [`Self::close_windows`].
    #[inline]
    pub fn window_due(&self, now: SimTime) -> bool {
        now >= self.windows.next_end()
    }

    /// Close every window whose end is at or before `now`.
    pub fn close_windows(&mut self, now: SimTime) {
        self.windows.roll(now, &self.kinds, &self.metrics);
    }

    /// Close the final (partial) window at the run end, and hand over
    /// everything the run recorded.
    pub fn finish(self, end: SimTime) -> TelemetryRun {
        let jsonl = self.windows.finish(end, &self.kinds, &self.metrics);
        let mut kinds = self.kinds;
        kinds.retain(|r| r.count > 0);
        kinds.sort_unstable_by_key(|r| r.name);
        TelemetryRun {
            jsonl,
            events: self.events,
            kinds,
        }
    }
}

/// The telemetry output of an instrumented run.
#[derive(Clone, Debug)]
pub struct TelemetryRun {
    /// `metrics.jsonl`: one line per window, in window order (the last
    /// may be partial).
    jsonl: String,
    /// Events dispatched while telemetry was attached.
    pub events: u64,
    /// The per-kind table: every kind dispatched, sorted by name.
    pub(crate) kinds: Vec<KindRow>,
}

impl TelemetryRun {
    /// Dispatches wall-timed for the profile:
    /// `ceil(events / PROFILE_SAMPLE_EVERY)`.
    pub fn timed(&self) -> u64 {
        self.kinds.iter().map(|r| r.timed.count()).sum()
    }

    /// `metrics.jsonl`: one JSON object per window, each line ending in a
    /// newline.
    pub fn metrics_jsonl(&self) -> &str {
        &self.jsonl
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs_sim::{Ctx, Engine, Observer, World};
    use std::cell::RefCell;
    use std::rc::Rc;

    /// `Spawn(g)` schedules two leaves and, while `g > 0`, `Spawn(g-1)`,
    /// all `step` later.
    struct Fanout {
        step: SimTime,
    }

    #[derive(Clone, Copy)]
    enum Ev {
        Spawn(u32),
        Leaf,
    }

    impl World for Fanout {
        type Event = Ev;
        fn handle(&mut self, ctx: &mut Ctx<'_, Ev>, event: Ev) {
            if let Ev::Spawn(gen) = event {
                if gen > 0 {
                    ctx.schedule_in(self.step, Ev::Spawn(gen - 1));
                }
                ctx.schedule_in(self.step, Ev::Leaf);
                ctx.schedule_in(self.step, Ev::Leaf);
            }
        }
    }

    /// The smallest instrument set: classify (both kinds belong to one
    /// manager, `grow`), count, close windows, and report a fixed 100 ns
    /// for every dispatch selected for timing.
    struct Probe(Option<EngineTelemetry>);

    impl Observer<Fanout> for Probe {
        fn on_dispatch(&mut self, _now: SimTime, event: &Ev, queue_depth: usize) {
            let (index, name) = match event {
                Ev::Spawn(_) => (0, "spawn"),
                Ev::Leaf => (1, "leaf"),
            };
            let tel = self.0.as_mut().expect("attached");
            if tel.on_dispatch(index, name, "grow", queue_depth) {
                tel.record_ns(index, 100);
            }
        }
        fn after_handle(&mut self, now: SimTime, _world: &Fanout) {
            let tel = self.0.as_mut().expect("attached");
            if tel.window_due(now) {
                tel.close_windows(now);
            }
        }
    }

    fn run(first: Ev, step_secs: u64) -> TelemetryRun {
        let tel = EngineTelemetry::new(SimTime::from_secs(300), SimTime::ZERO);
        let probe = Rc::new(RefCell::new(Probe(Some(tel))));
        let mut eng = Engine::new(Fanout {
            step: SimTime::from_secs(step_secs),
        });
        eng.set_observer(Box::new(Rc::clone(&probe)));
        eng.schedule_at(SimTime::ZERO, first);
        eng.run_until(SimTime::MAX);
        let tel = probe.borrow_mut().0.take().expect("attached");
        tel.finish(eng.now())
    }

    /// The value after `"<key>":` in a rendered window line, up to the
    /// next `,` or `}`.
    fn value_of<'l>(line: &'l str, key: &str) -> &'l str {
        let key = format!("\"{key}\":");
        let at = line
            .find(&key)
            .unwrap_or_else(|| panic!("no {key} in {line}"));
        let rest = &line[at + key.len()..];
        &rest[..rest.find([',', '}']).unwrap_or(rest.len())]
    }

    fn lines(run: &TelemetryRun) -> Vec<&str> {
        run.metrics_jsonl().lines().collect()
    }

    fn high_water(run: &TelemetryRun) -> u64 {
        let last = lines(run).pop().expect("a window");
        value_of(last, "engine_queue_high_water")
            .parse()
            .expect("a gauge")
    }

    /// `(total, delta)` of `kind`'s counter in a rendered window line, or
    /// `None` while the kind has not been dispatched.
    fn counter(line: &str, kind: &str) -> Option<(u64, u64)> {
        let key = format!("engine_events_total{{kind={kind}}}\"");
        let rest = &line[line.find(&key)?..];
        let int = |key| value_of(rest, key).parse().expect("an integer");
        Some((int("total"), int("delta")))
    }

    fn kind_total(run: &TelemetryRun, kind: &str) -> u64 {
        let last = lines(run).pop().expect("a window");
        counter(last, kind).expect("a counter").0
    }

    fn kind_deltas(run: &TelemetryRun, kind: &str) -> Vec<u64> {
        lines(run)
            .into_iter()
            .map(|line| counter(line, kind).map_or(0, |(_, delta)| delta))
            .collect()
    }

    #[test]
    fn stats_count_every_dispatch_by_kind() {
        // Spawn(3..=0) → 4 spawn events, each emitting 2 leaves.
        let run = run(Ev::Spawn(3), 1);
        assert_eq!(run.events, 12);
        assert_eq!(
            (kind_total(&run, "leaf"), kind_total(&run, "spawn")),
            (8, 4)
        );
        assert!(high_water(&run) >= 2, "high water {}", high_water(&run));
    }

    #[test]
    fn high_water_includes_the_dispatched_event() {
        // Spawn(0) enqueues 2 leaves → depth peaked at 2 mid-run.
        assert_eq!(high_water(&run(Ev::Spawn(0), 1)), 2);
        // A single event, never more than one pending: the queue peaked
        // at 1, and the mark must say so even though the pending count
        // at dispatch time is 0.
        assert_eq!(high_water(&run(Ev::Leaf, 1)), 1);
    }

    #[test]
    fn counts_dispatches_and_rolls_windows() {
        // Spawn(10) at 60 s steps → spawns at 0, 60, …, 600 s; each
        // spawn's two leaves dispatch one step later. 300 s windows.
        let run = run(Ev::Spawn(10), 60);
        assert_eq!(run.events, 33);
        assert_eq!(kind_total(&run, "spawn"), 11);
        // [0,300) is closed by the first dispatch at t=300, [300,600) by
        // the first at t=600; the leaves at 660 s leave a partial tail.
        let windows: Vec<_> = lines(&run)
            .into_iter()
            .map(|line| (value_of(line, "end_us"), value_of(line, "partial")))
            .collect();
        assert_eq!(
            windows,
            [
                ("300000000", "false"),
                ("600000000", "false"),
                ("660000000", "true")
            ]
        );
        // The boundary event closes its window (documented smear): the
        // spawns at 0, 60, …, 240 plus the first dispatch at t=300.
        assert_eq!(kind_deltas(&run, "spawn")[0], 6);
    }

    #[test]
    fn profiler_samples_dispatches() {
        // Spawn(99) → 100 spawns + 200 leaves: the first spawn, then a
        // spawn and two leaves each second. Timed at event indices 0 and
        // 256 (spawns) and 128 (a leaf), 100 ns each.
        let run = run(Ev::Spawn(99), 1);
        assert_eq!(run.events, 300);
        assert_eq!(run.timed(), 300_u64.div_ceil(PROFILE_SAMPLE_EVERY));
        let rows: Vec<_> = run
            .kinds
            .iter()
            .map(|r| (r.name, r.manager, r.count, r.busy_ns()))
            .collect();
        assert_eq!(
            rows,
            [
                ("leaf", "grow", 200, Some(100 * 200)),
                ("spawn", "grow", 100, Some(100 * 100)),
            ]
        );
        let json = run.profile_json();
        assert!(
            json.starts_with("{\"schema\":\"cs-telemetry-profile/3\",\"kinds\":{"),
            "{json}"
        );
        assert!(
            json.contains(
                "\"leaf\":{\"manager\":\"grow\",\"timed\":1,\"timed_ns\":100,\
                 \"busy_ns\":20000,\"min_ns\":100,\"max_ns\":100,\"buckets_ns\":{\"127\":1}}"
            ),
            "{json}"
        );
        assert!(
            json.ends_with(",\"managers\":{\"grow\":{\"busy_ns\":30000}}}"),
            "{json}"
        );
    }

    #[test]
    fn an_untimed_kind_has_null_busy_time() {
        // Spawn(0) → one spawn, timed, then two leaves, never timed.
        let run = run(Ev::Spawn(0), 1);
        let json = run.profile_json();
        assert!(
            json.contains(
                "\"leaf\":{\"manager\":\"grow\",\"timed\":0,\"timed_ns\":0,\
                 \"busy_ns\":null,\"min_ns\":null,\"max_ns\":null,\"buckets_ns\":{}}"
            ),
            "{json}"
        );
        // The manager sums the kinds that were timed…
        assert!(json.ends_with("\"grow\":{\"busy_ns\":100}}}"), "{json}");
        // …and is null only when none of its kinds was.
        let mut tel = EngineTelemetry::new(DEFAULT_WINDOW, SimTime::ZERO);
        assert!(tel.on_dispatch(0, "tick", "stream", 0));
        tel.record_ns(0, 100);
        assert!(!tel.on_dispatch(1, "snapshot", "engine", 0));
        let json = tel.finish(SimTime::ZERO).profile_json();
        assert!(
            json.ends_with("{\"engine\":{\"busy_ns\":null},\"stream\":{\"busy_ns\":100}}}"),
            "{json}"
        );
    }

    #[test]
    fn buffered_counts_match_registry_after_finish() {
        // The last window's totals must agree with the table's counts
        // once finish() has run, and the window deltas must partition
        // them.
        let run = run(Ev::Spawn(7), 60);
        let mut events = 0;
        for kind in ["leaf", "spawn"] {
            let total = kind_total(&run, kind);
            let sum: u64 = kind_deltas(&run, kind).iter().sum();
            assert_eq!(sum, total, "{kind}: window deltas must partition the total");
            events += total;
        }
        assert_eq!(events, run.events);
    }
}
