//! Sim-time windows and the `metrics.jsonl` line each one closes with.
//!
//! [`Windows`] divides the run into fixed windows
//! `[start + i·w, start + (i+1)·w)` — by default `w` is the paper's
//! 5-minute status-report cadence — and renders one JSONL line per window
//! from three things: the per-kind table's counts against a copy taken at
//! the last close, the live [`Metrics`], and the copy of them taken at the
//! last close. A line carries every series' cumulative value plus the
//! delta accrued inside the window. It is a `Line` rendered by
//! `serde_json`: the window fields, then counters, gauges and histograms,
//! each map in key order (the counters' keys differ only in the kind
//! name). A kind's counter appears from the first window after its first
//! dispatch.
//!
//! **Window semantics.** The clock is advanced from observer hooks
//! ([`Windows::roll`]). A window is therefore closed by the *first
//! dispatch at or after its end*, and that closing event is included in
//! the closed window (a deterministic one-event smear; an offline
//! consumer that rolls *before* recording attributes boundary events
//! exactly instead). An idle stretch longer than one window emits one
//! empty window per elapsed window, so the cadence is preserved. The
//! final, usually partial, window is closed by [`Windows::finish`] with
//! `partial: true`. When the run ends on the window grid that window has
//! no length, yet it holds whatever arrived after the dispatch that
//! closed its predecessor — the rest of that instant's events, the
//! horizon's protocol sample — so it is written whenever anything changed
//! since the last close.

use std::collections::BTreeMap;

use cs_sim::SimTime;
use serde::Serialize;

use crate::observer::KindRow;
use crate::registry::{Histogram, Metrics};

/// One `metrics.jsonl` line.
#[derive(Serialize)]
struct Line {
    window: u64,
    start_us: u64,
    end_us: u64,
    partial: bool,
    /// `engine_events_total{kind=…}` per dispatched kind.
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, HistogramLine>,
}

/// A kind's dispatch count, cumulative and inside the window.
#[derive(Serialize)]
struct Counter {
    total: u64,
    delta: u64,
}

/// A histogram's cumulative figures, and its count, sum and buckets
/// inside the window (`buckets` by inclusive upper edge).
#[derive(Serialize)]
struct HistogramLine {
    count: u64,
    delta: u64,
    sum: u64,
    delta_sum: u64,
    min: u64,
    max: u64,
    buckets: BTreeMap<u64, u64>,
}

impl HistogramLine {
    fn new(h: &Histogram, was: &Histogram) -> Self {
        HistogramLine {
            count: h.count(),
            delta: h.count().saturating_sub(was.count()),
            sum: h.sum(),
            delta_sum: h.sum().saturating_sub(was.sum()),
            min: h.min(),
            max: h.max(),
            buckets: h.bucket_deltas(was),
        }
    }
}

/// The window clock and the lines it has written.
#[derive(Clone, Debug)]
pub(crate) struct Windows {
    width: SimTime,
    /// Start of the open window. Kept, not derived from `next_end`:
    /// `start + width` saturates at `SimTime::MAX`.
    start: SimTime,
    next_end: SimTime,
    index: u64,
    /// Each kind's count at the last close, by dense kind index.
    counts: Vec<u64>,
    /// The gauges and histograms at the last close.
    metrics: Metrics,
    /// `metrics.jsonl` so far.
    jsonl: String,
}

impl Windows {
    /// Windows of `width` (non-zero) from `start`.
    pub(crate) fn new(width: SimTime, start: SimTime) -> Self {
        Windows {
            width,
            start,
            next_end: start + width,
            index: 0,
            counts: Vec::new(),
            metrics: Metrics::default(),
            jsonl: String::new(),
        }
    }

    /// End of the open window: the next [`Self::roll`] at or after this
    /// time closes it.
    #[inline]
    pub(crate) fn next_end(&self) -> SimTime {
        self.next_end
    }

    /// Close every window whose end is at or before `now`. A window that
    /// ends at `SimTime::MAX` is the last one.
    pub(crate) fn roll(&mut self, now: SimTime, kinds: &[KindRow], metrics: &Metrics) {
        while now >= self.next_end && self.start < self.next_end {
            self.close(self.next_end, false, kinds, metrics);
            self.next_end += self.width;
        }
    }

    /// Close the remaining complete windows and the final partial one
    /// ending at `end` — also when it is empty of time but not of data —
    /// and return `metrics.jsonl`.
    pub(crate) fn finish(mut self, end: SimTime, kinds: &[KindRow], metrics: &Metrics) -> String {
        self.roll(end, kinds, metrics);
        let moved = self.index == 0
            || self.metrics != *metrics
            || kinds
                .iter()
                .enumerate()
                .any(|(i, r)| r.count != self.count(i));
        if end > self.start || moved {
            self.close(end.max(self.start), true, kinds, metrics);
        }
        self.jsonl
    }

    /// Kind `i`'s count at the last close.
    fn count(&self, i: usize) -> u64 {
        self.counts.get(i).copied().unwrap_or(0)
    }

    /// Write the open window's line, ending it at `end`, and open the
    /// next window there.
    fn close(&mut self, end: SimTime, partial: bool, kinds: &[KindRow], metrics: &Metrics) {
        let counters = kinds.iter().enumerate().filter(|(_, r)| r.count > 0);
        let was = self.metrics.histograms();
        let line = Line {
            window: self.index,
            start_us: self.start.as_micros(),
            end_us: end.as_micros(),
            partial,
            counters: counters
                .map(|(i, r)| {
                    let (total, delta) = (r.count, r.count.saturating_sub(self.count(i)));
                    let key = format!("engine_events_total{{kind={}}}", r.name);
                    (key, Counter { total, delta })
                })
                .collect(),
            gauges: metrics.gauges().into_iter().collect(),
            histograms: (metrics.histograms().into_iter().zip(was))
                .map(|((name, h), (_, was))| (name, HistogramLine::new(h, was)))
                .collect(),
        };
        self.jsonl
            .push_str(&serde_json::to_string(&line).unwrap_or_default());
        self.jsonl.push('\n');
        self.index += 1;
        self.start = end;
        self.counts = kinds.iter().map(|r| r.count).collect();
        self.metrics.clone_from(metrics);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn row(name: &'static str, count: u64) -> KindRow {
        KindRow {
            name,
            count,
            ..KindRow::default()
        }
    }

    #[test]
    fn windows_flush_on_cadence_with_deltas() {
        let mut w = Windows::new(secs(300), SimTime::ZERO);
        let mut kinds = [row("ev", 2)];
        let depth = Metrics {
            engine_queue_depth: 5,
            ..Metrics::default()
        };
        w.roll(secs(10), &kinds, &depth); // inside window 0: nothing written
        assert!(w.jsonl.is_empty());

        kinds[0].count += 3;
        w.roll(secs(301), &kinds, &depth); // first event past the boundary
        let first = w.jsonl.clone();
        assert!(
            first.starts_with(
                "{\"window\":0,\"start_us\":0,\"end_us\":300000000,\"partial\":false,\
                 \"counters\":{\"engine_events_total{kind=ev}\":{\"total\":5,\"delta\":5}},\
                 \"gauges\":{\"engine_queue_depth\":5,"
            ),
            "{first}"
        );

        kinds[0].count += 1;
        let text = w.finish(secs(450), &kinds, &depth);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(text.starts_with(&first));
        assert!(
            lines[1].starts_with(
                "{\"window\":1,\"start_us\":300000000,\"end_us\":450000000,\"partial\":true,\
                 \"counters\":{\"engine_events_total{kind=ev}\":{\"total\":6,\"delta\":1}},"
            ),
            "{}",
            lines[1]
        );
    }

    #[test]
    fn a_horizon_on_the_grid_still_flushes_what_arrived_at_it() {
        let mut w = Windows::new(secs(300), SimTime::ZERO);
        let mut kinds = [row("ev", 4)];
        let quiet = Metrics::default();
        w.roll(secs(300), &kinds, &quiet); // the first dispatch at the horizon
        kinds[0].count += 2; // the rest of that instant
        let text = w.finish(secs(300), &kinds, &quiet);
        let last = text.lines().last().expect("a window");
        assert!(
            last.starts_with(
                "{\"window\":1,\"start_us\":300000000,\"end_us\":300000000,\"partial\":true,\
                 \"counters\":{\"engine_events_total{kind=ev}\":{\"total\":6,\"delta\":2}},"
            ),
            "{last}"
        );

        // Nothing new since the close at the horizon: no empty tail…
        let mut w = Windows::new(secs(300), SimTime::ZERO);
        w.roll(secs(300), &kinds, &quiet);
        let closed = w.clone();
        assert_eq!(w.finish(secs(300), &kinds, &quiet).lines().count(), 1);
        // …but the horizon's protocol sample alone makes one.
        let mut sampled = quiet.clone();
        sampled.proto_partners.observe(3);
        assert_eq!(
            closed.finish(secs(300), &kinds, &sampled).lines().count(),
            2
        );
    }

    #[test]
    fn idle_gaps_emit_empty_windows() {
        let mut w = Windows::new(secs(100), SimTime::ZERO);
        w.roll(secs(350), &[row("ev", 1)], &Metrics::default()); // jumps three full windows
        let lines: Vec<&str> = w.jsonl.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(
            lines[2].starts_with(
                "{\"window\":2,\"start_us\":200000000,\"end_us\":300000000,\"partial\":false,\
                 \"counters\":{\"engine_events_total{kind=ev}\":{\"total\":1,\"delta\":0}},"
            ),
            "{}",
            lines[2]
        );
    }

    #[test]
    fn start_offset_aligns_windows_to_the_run_window() {
        let mut w = Windows::new(secs(300), secs(68_400)); // 19 h
        let (kinds, quiet) = ([row("ev", 1)], Metrics::default());
        w.roll(secs(68_400) + secs(10), &kinds, &quiet);
        assert!(w.jsonl.is_empty(), "no pre-start windows");
        let text = w.finish(secs(68_400) + secs(400), &kinds, &quiet);
        assert!(
            text.starts_with("{\"window\":0,\"start_us\":68400000000,\"end_us\":68700000000,"),
            "{text}"
        );
    }

    #[test]
    fn a_window_whose_end_saturates_keeps_its_start() {
        let hour = secs(3_600);
        let mut w = Windows::new(SimTime::MAX, hour);
        let (kinds, quiet) = ([row("ev", 1)], Metrics::default());
        w.roll(hour + secs(72), &kinds, &quiet);
        assert!(w.jsonl.is_empty());
        let closed = w.clone();
        let text = w.finish(hour + secs(72), &kinds, &quiet);
        assert!(
            text.starts_with(
                "{\"window\":0,\"start_us\":3600000000,\"end_us\":3672000000,\"partial\":true,"
            ),
            "{text}"
        );
        // A dispatch at `SimTime::MAX` closes the window once.
        let text = closed.finish(SimTime::MAX, &kinds, &quiet);
        assert_eq!(text.lines().count(), 1, "{text}");
        assert!(text.starts_with("{\"window\":0,\"start_us\":3600000000,"));
    }

    #[test]
    fn histogram_deltas_are_per_window() {
        let mut w = Windows::new(secs(10), SimTime::ZERO);
        let mut m = Metrics::default();
        m.proto_join_ready_ms.observe(3);
        m.proto_join_ready_ms.observe(100);
        w.roll(secs(10), &[], &m);
        m.proto_join_ready_ms.observe(3);
        let text = w.finish(secs(15), &[], &m);
        let lines: Vec<&str> = text.lines().collect();
        assert!(
            lines[0].contains(
                "\"proto_join_ready_ms\":{\"count\":2,\"delta\":2,\"sum\":103,\"delta_sum\":103,\
                 \"min\":3,\"max\":100,\"buckets\":{\"3\":1,\"127\":1}}"
            ),
            "{}",
            lines[0]
        );
        assert!(
            lines[1].contains(
                "\"proto_join_ready_ms\":{\"count\":3,\"delta\":1,\"sum\":106,\"delta_sum\":3,\
                 \"min\":3,\"max\":100,\"buckets\":{\"3\":1}}"
            ),
            "{}",
            lines[1]
        );
    }

    #[test]
    fn jsonl_groups_by_instrument_kind() {
        // Counters sort by kind name whatever their dense index, and a
        // kind not yet dispatched has no counter.
        let kinds = [row("depart", 1), row("snapshot", 0), row("arrive", 4)];
        let mut m = Metrics {
            engine_queue_depth: 7,
            ..Metrics::default()
        };
        m.proto_partners.observe(5);
        let text = Windows::new(secs(10), SimTime::ZERO).finish(secs(5), &kinds, &m);
        let empty = "{\"count\":0,\"delta\":0,\"sum\":0,\"delta_sum\":0,\"min\":0,\"max\":0,\
                     \"buckets\":{}}";
        assert_eq!(
            text,
            format!(
                "{{\"window\":0,\"start_us\":0,\"end_us\":5000000,\"partial\":true,\
                 \"counters\":{{\"engine_events_total{{kind=arrive}}\":{{\"total\":4,\"delta\":4}},\
                 \"engine_events_total{{kind=depart}}\":{{\"total\":1,\"delta\":1}}}},\
                 \"gauges\":{{\"engine_queue_depth\":7,\"engine_queue_high_water\":0,\
                 \"proto_peers_alive\":0,\"proto_peers_ready\":0}},\
                 \"histograms\":{{\"proto_buffer_occupancy_blocks\":{empty},\
                 \"proto_join_ready_ms\":{empty},\"proto_mcache_size\":{empty},\
                 \"proto_partners\":{{\"count\":1,\"delta\":1,\"sum\":5,\"delta_sum\":5,\
                 \"min\":5,\"max\":5,\"buckets\":{{\"7\":1}}}},\
                 \"proto_substream_lag_blocks\":{empty}}}}}\n"
            )
        );
    }
}
