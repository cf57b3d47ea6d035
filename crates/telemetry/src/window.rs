//! Sim-time windowed aggregation.
//!
//! A [`WindowedAggregator`] divides the run into fixed windows
//! `[start + i·w, start + (i+1)·w)` — by default `w` is the paper's
//! 5-minute status-report cadence — and flushes one [`WindowSnapshot`] per
//! window carrying, for every registry instrument, its cumulative value
//! plus the delta accrued inside the window.
//!
//! **Window semantics.** The aggregator has no clock of its own; it is
//! advanced from observer hooks ([`WindowedAggregator::roll`]). A window is
//! therefore closed by the *first dispatch at or after its end*, and that
//! closing event is included in the closed window (a deterministic
//! one-event smear; an offline consumer that rolls *before* recording
//! attributes boundary events exactly instead). Gaps
//! longer than one window emit empty snapshots so the cadence is preserved.
//! The final, usually partial, window is flushed by
//! [`WindowedAggregator::finish`] with `partial: true`. When the run ends
//! on the window grid that window has no length, yet it holds whatever
//! arrived after the dispatch that closed its predecessor — the rest of
//! that instant's events, the horizon's protocol sample — so it is flushed
//! whenever the registry moved since the last flush.

use cs_sim::SimTime;

use crate::json::{push_buckets, push_key};
use crate::registry::{Metric, MetricRegistry};

/// One instrument's value inside a [`WindowSnapshot`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapValue {
    /// Counter: cumulative total and this window's delta.
    Counter {
        /// Value at flush time.
        total: u64,
        /// Increase inside the window.
        delta: u64,
    },
    /// Gauge: value at flush time.
    Gauge {
        /// Last-written value.
        value: i64,
    },
    /// Histogram: cumulative count/sum, window deltas, and this window's
    /// non-empty buckets as `(inclusive upper edge, delta count)`.
    Histogram {
        /// Cumulative observation count.
        count: u64,
        /// Observations inside the window.
        delta_count: u64,
        /// Cumulative sum.
        sum: u64,
        /// Sum accrued inside the window.
        delta_sum: u64,
        /// All-time minimum (0 when empty).
        min: u64,
        /// All-time maximum.
        max: u64,
        /// Per-window bucket counts, non-empty only.
        buckets: Vec<(u64, u64)>,
    },
}

/// One flushed window: every instrument's value at the window end.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WindowSnapshot {
    /// Zero-based window index.
    pub index: u64,
    /// Window start (inclusive).
    pub start: SimTime,
    /// Window end (exclusive; the actual run end for a partial window).
    pub end: SimTime,
    /// True for the final window cut short by the run end.
    pub partial: bool,
    /// `(series id, value)` pairs in deterministic (key-sorted) order.
    pub series: Vec<(String, SnapValue)>,
}

impl WindowSnapshot {
    /// Render as one JSONL line (no trailing newline). Counters, gauges
    /// and histograms are grouped into separate objects keyed by series
    /// id; key order follows the registry's deterministic order.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.series.len() * 48);
        out.push('{');
        out.push_str(&format!(
            "\"window\":{},\"start_us\":{},\"end_us\":{},\"partial\":{}",
            self.index,
            self.start.as_micros(),
            self.end.as_micros(),
            self.partial
        ));
        for (section, matches) in [
            ("counters", 0usize),
            ("gauges", 1usize),
            ("histograms", 2usize),
        ] {
            out.push(',');
            push_key(&mut out, section);
            out.push('{');
            let mut first = true;
            for (id, v) in &self.series {
                let section_of = match v {
                    SnapValue::Counter { .. } => 0,
                    SnapValue::Gauge { .. } => 1,
                    SnapValue::Histogram { .. } => 2,
                };
                if section_of != matches {
                    continue;
                }
                if !first {
                    out.push(',');
                }
                first = false;
                push_key(&mut out, id);
                match v {
                    SnapValue::Counter { total, delta } => {
                        out.push_str(&format!("{{\"total\":{total},\"delta\":{delta}}}"));
                    }
                    SnapValue::Gauge { value } => out.push_str(&value.to_string()),
                    SnapValue::Histogram {
                        count,
                        delta_count,
                        sum,
                        delta_sum,
                        min,
                        max,
                        buckets,
                    } => {
                        out.push_str(&format!(
                            "{{\"count\":{count},\"delta\":{delta_count},\"sum\":{sum},\
                             \"delta_sum\":{delta_sum},\"min\":{min},\"max\":{max},\"buckets\":"
                        ));
                        push_buckets(&mut out, buckets.iter().copied());
                        out.push('}');
                    }
                }
            }
            out.push('}');
        }
        out.push('}');
        out
    }
}

/// Rolls a [`MetricRegistry`] into fixed sim-time windows (see module
/// docs for the flush semantics).
#[derive(Clone, Debug)]
pub struct WindowedAggregator {
    window: SimTime,
    next_end: SimTime,
    index: u64,
    /// Cumulative metric values at the last flush, indexed by `MetricId`.
    prev: Vec<Metric>,
    snapshots: Vec<WindowSnapshot>,
}

impl WindowedAggregator {
    /// Windows of width `window` starting at `start`. A zero `window`
    /// falls back to [`crate::DEFAULT_WINDOW`].
    pub fn new(window: SimTime, start: SimTime) -> Self {
        let window = if window == SimTime::ZERO {
            crate::DEFAULT_WINDOW
        } else {
            window
        };
        WindowedAggregator {
            window,
            next_end: start + window,
            index: 0,
            prev: Vec::new(),
            snapshots: Vec::new(),
        }
    }

    /// End of the currently-open window: the next [`Self::roll`] at or
    /// after this time flushes. Lets callers gate per-event work (e.g.
    /// pushing buffered counters into the registry) on an imminent flush
    /// with a single comparison.
    #[inline]
    pub fn next_end(&self) -> SimTime {
        self.next_end
    }

    /// Flush every window whose end is at or before `now`. Call from the
    /// per-event hook; it is a single comparison when no flush is due.
    pub fn roll(&mut self, now: SimTime, registry: &MetricRegistry) {
        while now >= self.next_end {
            let start = self.next_end.saturating_sub(self.window);
            let end = self.next_end;
            self.flush(start, end, false, registry);
            self.next_end += self.window;
        }
    }

    /// Flush remaining complete windows and the final partial one ending
    /// at `end` — also when it is empty of time but not of data.
    pub fn finish(&mut self, end: SimTime, registry: &MetricRegistry) {
        self.roll(end, registry);
        let start = self.next_end.saturating_sub(self.window);
        let unflushed = || {
            registry
                .enumerate()
                .any(|(id, _, metric)| self.prev.get(id) != Some(metric))
        };
        if end > start || unflushed() {
            self.flush(start, end.max(start), true, registry);
        }
    }

    fn flush(&mut self, start: SimTime, end: SimTime, partial: bool, registry: &MetricRegistry) {
        let mut series = Vec::with_capacity(registry.len());
        for (id, key, metric) in registry.enumerate() {
            let value = match (metric, self.prev.get(id)) {
                (Metric::Counter(v), prev) => {
                    let was = match prev {
                        Some(Metric::Counter(w)) => *w,
                        _ => 0,
                    };
                    SnapValue::Counter {
                        total: *v,
                        delta: v.saturating_sub(was),
                    }
                }
                (Metric::Gauge(v), _) => SnapValue::Gauge { value: *v },
                (Metric::Histogram(h), prev) => {
                    let (was_count, was_sum, buckets) = match prev {
                        Some(Metric::Histogram(w)) => (w.count(), w.sum(), h.bucket_deltas(w)),
                        _ => (0, 0, h.buckets().collect()),
                    };
                    SnapValue::Histogram {
                        count: h.count(),
                        delta_count: h.count().saturating_sub(was_count),
                        sum: h.sum(),
                        delta_sum: h.sum().saturating_sub(was_sum),
                        min: h.min(),
                        max: h.max(),
                        buckets,
                    }
                }
            };
            series.push((key.render(), value));
        }
        self.snapshots.push(WindowSnapshot {
            index: self.index,
            start,
            end,
            partial,
            series,
        });
        self.index += 1;
        // Remember cumulative values for the next window's deltas.
        self.prev = {
            let mut prev = vec![Metric::Counter(0); registry.len()];
            for (id, _, m) in registry.enumerate() {
                if let Some(slot) = prev.get_mut(id) {
                    *slot = m.clone();
                }
            }
            prev
        };
    }

    /// Flushed windows so far.
    pub fn snapshots(&self) -> &[WindowSnapshot] {
        &self.snapshots
    }

    /// Consume the aggregator, returning its windows.
    pub fn into_snapshots(self) -> Vec<WindowSnapshot> {
        self.snapshots
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn windows_flush_on_cadence_with_deltas() {
        let mut reg = MetricRegistry::new();
        let c = reg.counter("ev", &[]);
        let g = reg.gauge("depth", &[]);
        let mut agg = WindowedAggregator::new(secs(300), SimTime::ZERO);

        reg.inc(c, 2);
        reg.set(g, 5);
        agg.roll(secs(10), &reg); // inside window 0: nothing flushed
        assert!(agg.snapshots().is_empty());

        reg.inc(c, 3);
        agg.roll(secs(301), &reg); // first event past the boundary
        assert_eq!(agg.snapshots().len(), 1);
        let w0 = &agg.snapshots()[0];
        assert_eq!(
            (w0.index, w0.start, w0.end, w0.partial),
            (0, secs(0), secs(300), false)
        );
        assert_eq!(
            w0.series,
            vec![
                ("depth".to_string(), SnapValue::Gauge { value: 5 }),
                ("ev".to_string(), SnapValue::Counter { total: 5, delta: 5 }),
            ]
        );

        reg.inc(c, 1);
        agg.finish(secs(450), &reg);
        assert_eq!(agg.snapshots().len(), 2);
        let w1 = &agg.snapshots()[1];
        assert_eq!(
            (w1.index, w1.start, w1.end, w1.partial),
            (1, secs(300), secs(450), true)
        );
        assert_eq!(
            w1.series[1],
            ("ev".to_string(), SnapValue::Counter { total: 6, delta: 1 })
        );
    }

    #[test]
    fn a_horizon_on_the_grid_still_flushes_what_arrived_at_it() {
        let mut reg = MetricRegistry::new();
        let c = reg.counter("ev", &[]);
        let mut agg = WindowedAggregator::new(secs(300), SimTime::ZERO);
        reg.inc(c, 4);
        agg.roll(secs(300), &reg); // the first dispatch at the horizon
        reg.inc(c, 2); // the rest of that instant
        agg.finish(secs(300), &reg);
        let last = agg.snapshots().last().unwrap();
        assert_eq!(
            (last.index, last.start, last.end, last.partial),
            (1, secs(300), secs(300), true)
        );
        assert_eq!(
            last.series,
            [("ev".to_string(), SnapValue::Counter { total: 6, delta: 2 })]
        );

        // Nothing new since the flush at the horizon: no empty tail.
        let mut agg = WindowedAggregator::new(secs(300), SimTime::ZERO);
        agg.roll(secs(300), &reg);
        agg.finish(secs(300), &reg);
        assert_eq!(agg.snapshots().len(), 1);
    }

    #[test]
    fn idle_gaps_emit_empty_windows() {
        let mut reg = MetricRegistry::new();
        reg.counter("ev", &[]);
        let mut agg = WindowedAggregator::new(secs(100), SimTime::ZERO);
        agg.roll(secs(350), &reg); // jumps three full windows
        assert_eq!(agg.snapshots().len(), 3);
        assert_eq!(agg.snapshots()[2].end, secs(300));
    }

    #[test]
    fn start_offset_aligns_windows_to_the_run_window() {
        let mut reg = MetricRegistry::new();
        reg.counter("ev", &[]);
        let mut agg = WindowedAggregator::new(secs(300), secs(68_400)); // 19 h
        agg.roll(secs(68_400) + secs(10), &reg);
        assert!(agg.snapshots().is_empty(), "no pre-start windows");
        agg.finish(secs(68_400) + secs(400), &reg);
        assert_eq!(agg.snapshots()[0].start, secs(68_400));
        assert_eq!(agg.snapshots()[0].end, secs(68_700));
    }

    #[test]
    fn histogram_deltas_are_per_window() {
        let mut reg = MetricRegistry::new();
        let h = reg.histogram("lat", &[]);
        let mut agg = WindowedAggregator::new(secs(10), SimTime::ZERO);
        reg.observe(h, 3);
        reg.observe(h, 100);
        agg.roll(secs(10), &reg);
        reg.observe(h, 3);
        agg.finish(secs(15), &reg);
        let series = |i: usize| agg.snapshots()[i].series[0].1.clone();
        match series(0) {
            SnapValue::Histogram {
                count,
                delta_count,
                buckets,
                ..
            } => {
                assert_eq!((count, delta_count), (2, 2));
                assert_eq!(buckets, vec![(3, 1), (127, 1)]);
            }
            other => panic!("wrong kind {other:?}"),
        }
        match series(1) {
            SnapValue::Histogram {
                count,
                delta_count,
                delta_sum,
                buckets,
                ..
            } => {
                assert_eq!((count, delta_count, delta_sum), (3, 1, 3));
                assert_eq!(buckets, vec![(3, 1)]);
            }
            other => panic!("wrong kind {other:?}"),
        }
    }

    #[test]
    fn jsonl_groups_by_instrument_kind() {
        let mut reg = MetricRegistry::new();
        let c = reg.counter("ev", &[("kind", "arrive")]);
        reg.inc(c, 4);
        let depth = reg.gauge("depth", &[]);
        reg.set(depth, 7);
        let lat = reg.histogram("lat", &[]);
        reg.observe(lat, 5);
        let mut agg = WindowedAggregator::new(secs(10), SimTime::ZERO);
        agg.finish(secs(5), &reg);
        let line = agg.snapshots()[0].to_json();
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains("\"counters\":{\"ev{kind=arrive}\":{\"total\":4,\"delta\":4}}"));
        assert!(line.contains("\"gauges\":{\"depth\":7}"));
        assert!(line.contains("\"lat\":{\"count\":1,"));
        assert!(line.contains("\"partial\":true"));
    }
}
