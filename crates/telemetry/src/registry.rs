//! The metric registry: named instruments with label sets.
//!
//! Design constraints (a metric stream is a pure function of the run, and
//! clippy's determinism policy, DESIGN.md §7, holds this crate to it):
//!
//! * keys are a `&'static str` name plus sorted `(label, value)` pairs —
//!   no floats, no interior mutability, `Ord` for deterministic iteration;
//! * storage is a [`DetMap`] index over a dense `Vec`, so hot paths update
//!   through a pre-interned [`MetricId`] with no lookups or allocation;
//! * histograms use fixed power-of-two bucket edges (`0`, `1`, `2–3`,
//!   `4–7`, …), so bucket boundaries are integers and identical across
//!   runs and machines.

use cs_sim::DetMap;

/// Handle to an interned metric: a dense index into the registry. Interning
/// the same `(name, labels)` twice returns the same id.
pub type MetricId = usize;

/// Registry key: static metric name plus a sorted label set.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey {
    /// Metric name, e.g. `engine_events_total`.
    pub name: &'static str,
    /// Label pairs, sorted by label name (interning sorts them).
    pub labels: Vec<(&'static str, String)>,
}

impl MetricKey {
    /// Flat series id used in snapshots: `name` or `name{k=v,k2=v2}`.
    pub fn render(&self) -> String {
        if self.labels.is_empty() {
            return self.name.to_string();
        }
        let mut out = String::from(self.name);
        out.push('{');
        for (i, (k, v)) in self.labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(k);
            out.push('=');
            out.push_str(v);
        }
        out.push('}');
        out
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
    /// the same histogram), non-empty buckets only.
    pub(crate) fn bucket_deltas(&self, earlier: &Histogram) -> Vec<(u64, u64)> {
        (0..BUCKETS)
            .filter_map(|b| {
                let d = self.buckets[b].saturating_sub(earlier.buckets[b]);
                (d > 0).then(|| (bucket_le(b), d))
            })
            .collect()
    }
}

/// One instrument's live value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Metric {
    /// Monotonic event count.
    Counter(u64),
    /// Last-written instantaneous value.
    Gauge(i64),
    /// Distribution of `u64` observations (boxed: the fixed bucket array
    /// would otherwise dwarf the scalar variants).
    Histogram(Box<Histogram>),
}

/// The registry: every instrument of a run, with deterministic iteration
/// order (sorted by [`MetricKey`]).
///
/// Interning a key that already exists under a *different* instrument kind
/// returns the existing id; updates through an id of the wrong kind are
/// ignored (metric names are static, so this is a programming error that
/// unit tests catch — the library itself never panics).
#[derive(Clone, Debug, Default)]
pub struct MetricRegistry {
    index: DetMap<MetricKey, MetricId>,
    metrics: Vec<(MetricKey, Metric)>,
}

impl MetricRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricRegistry::default()
    }

    fn intern(
        &mut self,
        name: &'static str,
        labels: &[(&'static str, &str)],
        blank: Metric,
    ) -> MetricId {
        let mut labels: Vec<(&'static str, String)> =
            labels.iter().map(|&(k, v)| (k, v.to_string())).collect();
        labels.sort_unstable();
        let key = MetricKey { name, labels };
        if let Some(&id) = self.index.get(&key) {
            return id;
        }
        let id = self.metrics.len();
        self.metrics.push((key.clone(), blank));
        self.index.insert(key, id);
        id
    }

    /// Intern (or find) a counter.
    pub fn counter(&mut self, name: &'static str, labels: &[(&'static str, &str)]) -> MetricId {
        self.intern(name, labels, Metric::Counter(0))
    }

    /// Intern (or find) a gauge.
    pub fn gauge(&mut self, name: &'static str, labels: &[(&'static str, &str)]) -> MetricId {
        self.intern(name, labels, Metric::Gauge(0))
    }

    /// Intern (or find) a histogram.
    pub fn histogram(&mut self, name: &'static str, labels: &[(&'static str, &str)]) -> MetricId {
        self.intern(name, labels, Metric::Histogram(Box::new(Histogram::new())))
    }

    /// Add `by` to a counter.
    pub fn inc(&mut self, id: MetricId, by: u64) {
        if let Some((_, Metric::Counter(v))) = self.metrics.get_mut(id) {
            *v = v.saturating_add(by);
        }
    }

    /// Set a gauge.
    pub fn set(&mut self, id: MetricId, value: i64) {
        if let Some((_, Metric::Gauge(v))) = self.metrics.get_mut(id) {
            *v = value;
        }
    }

    /// Record a histogram observation.
    pub fn observe(&mut self, id: MetricId, value: u64) {
        if let Some((_, Metric::Histogram(h))) = self.metrics.get_mut(id) {
            h.observe(value);
        }
    }

    /// Look up a metric's current value.
    pub fn get(&self, name: &'static str, labels: &[(&'static str, &str)]) -> Option<&Metric> {
        let mut labels: Vec<(&'static str, String)> =
            labels.iter().map(|&(k, v)| (k, v.to_string())).collect();
        labels.sort_unstable();
        let key = MetricKey { name, labels };
        let id = *self.index.get(&key)?;
        self.metrics.get(id).map(|(_, m)| m)
    }

    /// Number of instruments.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Iterate `(id, key, metric)` in deterministic (key-sorted) order.
    pub fn enumerate(&self) -> impl Iterator<Item = (MetricId, &MetricKey, &Metric)> + '_ {
        self.index
            .iter()
            .filter_map(|(k, &id)| self.metrics.get(id).map(|(_, m)| (id, k, m)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_label_order_free() {
        let mut r = MetricRegistry::new();
        let a = r.counter("ev", &[("kind", "arrive"), ("class", "user")]);
        let b = r.counter("ev", &[("class", "user"), ("kind", "arrive")]);
        assert_eq!(a, b);
        assert_eq!(r.len(), 1);
        r.inc(a, 3);
        assert_eq!(
            r.get("ev", &[("kind", "arrive"), ("class", "user")]),
            Some(&Metric::Counter(3))
        );
    }

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

    #[test]
    fn kind_mismatch_is_ignored_not_fatal() {
        let mut r = MetricRegistry::new();
        let c = r.counter("x", &[]);
        // Same key re-interned as a gauge: same id, still a counter.
        let g = r.gauge("x", &[]);
        assert_eq!(c, g);
        r.set(g, 9); // ignored: `x` is a counter
        r.inc(c, 2);
        assert_eq!(r.get("x", &[]), Some(&Metric::Counter(2)));
    }

    #[test]
    fn enumerate_is_sorted_by_key() {
        let mut r = MetricRegistry::new();
        r.counter("zed", &[]);
        r.gauge("alpha", &[]);
        r.counter("mid", &[("k", "2")]);
        r.counter("mid", &[("k", "1")]);
        let names: Vec<String> = r.enumerate().map(|(_, k, _)| k.render()).collect();
        assert_eq!(names, vec!["alpha", "mid{k=1}", "mid{k=2}", "zed"]);
    }

    #[test]
    fn render_without_labels_is_bare_name() {
        let mut r = MetricRegistry::new();
        r.counter("plain", &[]);
        let (_, key, _) = r.enumerate().next().expect("one metric");
        assert_eq!(key.render(), "plain");
    }
}
