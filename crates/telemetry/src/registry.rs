//! The run's series: a fixed set, known at compile time.
//!
//! `metrics.jsonl` carries one `engine_events_total{kind=…}` counter per
//! dispatched event kind — the per-kind table of
//! [`EngineTelemetry`](crate::EngineTelemetry) holds those — plus the
//! four gauges and five histograms of [`Metrics`], one named field each.
//! Histograms use fixed power-of-two bucket edges (`0`, `1`, `2–3`,
//! `4–7`, …), so bucket boundaries are integers and identical across runs
//! and machines.

use std::collections::BTreeMap;

/// Every `metrics.jsonl` series but the per-kind counters: the engine's
/// queue gauges and the protocol sample (the run's instrument set writes
/// the `proto_*` fields). A field's name is its series name.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Pending events at the last dispatch, the dispatched one included.
    pub engine_queue_depth: u64,
    /// The largest `engine_queue_depth` so far.
    pub engine_queue_high_water: u64,
    /// Live user peers at the last sample.
    pub proto_peers_alive: u64,
    /// Live users whose media player had started at the last sample.
    pub proto_peers_ready: u64,
    /// Contiguous blocks ahead of playback, per live user per sample.
    pub proto_buffer_occupancy_blocks: Histogram,
    /// Join→media-ready latency per session, in milliseconds.
    pub proto_join_ready_ms: Histogram,
    /// mCache entries, per live user per sample.
    pub proto_mcache_size: Histogram,
    /// Partners held, per live user per sample.
    pub proto_partners: Histogram,
    /// Per-sub-stream lag behind the most advanced sub-stream, in blocks.
    pub proto_substream_lag_blocks: Histogram,
}

impl Metrics {
    /// The gauges as `(series name, value)`, in name order.
    pub(crate) fn gauges(&self) -> [(&'static str, u64); 4] {
        [
            ("engine_queue_depth", self.engine_queue_depth),
            ("engine_queue_high_water", self.engine_queue_high_water),
            ("proto_peers_alive", self.proto_peers_alive),
            ("proto_peers_ready", self.proto_peers_ready),
        ]
    }

    /// The histograms as `(series name, histogram)`, in name order.
    pub(crate) fn histograms(&self) -> [(&'static str, &Histogram); 5] {
        [
            (
                "proto_buffer_occupancy_blocks",
                &self.proto_buffer_occupancy_blocks,
            ),
            ("proto_join_ready_ms", &self.proto_join_ready_ms),
            ("proto_mcache_size", &self.proto_mcache_size),
            ("proto_partners", &self.proto_partners),
            (
                "proto_substream_lag_blocks",
                &self.proto_substream_lag_blocks,
            ),
        ]
    }
}

/// Number of histogram buckets: one for zero plus one per power of two up
/// to `u64::MAX`.
pub(crate) const BUCKETS: usize = 65;

/// A fixed-edge log-bucket histogram over `u64` observations.
///
/// Bucket 0 holds the value `0`; bucket `b ≥ 1` holds values in
/// `[2^(b-1), 2^b)`. Edges are thus exact integers and never drift.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

/// Bucket index for an observation.
fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive upper edge of bucket `b` (`0`, `1`, `3`, `7`, …, `u64::MAX`).
pub(crate) fn bucket_le(b: usize) -> u64 {
    if b == 0 {
        0
    } else if b >= 64 {
        u64::MAX
    } else {
        (1u64 << b) - 1
    }
}

impl Histogram {
    /// A fresh, empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Record one observation.
    pub fn observe(&mut self, v: u64) {
        self.buckets[bucket_index(v)] = self.buckets[bucket_index(v)].saturating_add(1);
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observation (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest observation (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Non-empty buckets as `(inclusive upper edge, count)`, ascending.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(b, &n)| (bucket_le(b), n))
    }

    /// Per-bucket counts of `self` minus `earlier` (an earlier snapshot of
    /// the same histogram) by inclusive upper edge, non-empty buckets only.
    pub(crate) fn bucket_deltas(&self, earlier: &Histogram) -> BTreeMap<u64, u64> {
        (0..BUCKETS)
            .filter_map(|b| {
                let d = self.buckets[b].saturating_sub(earlier.buckets[b]);
                (d > 0).then(|| (bucket_le(b), d))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_powers_of_two() {
        let mut h = Histogram::new();
        for v in [0, 1, 2, 3, 4, 7, 8, 1023, 1024, u64::MAX] {
            h.observe(v);
        }
        assert_eq!(h.count(), 10);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), u64::MAX);
        let buckets: Vec<(u64, u64)> = h.buckets().collect();
        // 0 → le 0; 1 → le 1; {2,3} → le 3; {4,7} → le 7; 8 → le 15;
        // 1023 → le 1023; 1024 → le 2047; MAX → le MAX.
        assert_eq!(
            buckets,
            vec![
                (0, 1),
                (1, 1),
                (3, 2),
                (7, 2),
                (15, 1),
                (1023, 1),
                (2047, 1),
                (u64::MAX, 1),
            ]
        );
    }

    #[test]
    fn empty_histogram_reports_zero_min_max() {
        let h = Histogram::new();
        assert_eq!((h.count(), h.min(), h.max(), h.sum()), (0, 0, 0, 0));
        assert_eq!(h.buckets().count(), 0);
    }
}
