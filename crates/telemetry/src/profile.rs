//! Wall-clock dispatch profile.
//!
//! The one deliberately non-deterministic output of this crate: it
//! answers "where does engine wall-clock go, per event kind?". The
//! [`DispatchProfiler`] only aggregates handler durations it is handed
//! ([`DispatchProfiler::record`]); the clock itself is read by the run's
//! instrument set in cs-core, once per timed dispatch. To keep
//! determinism intact the measurements are quarantined — they are never
//! written into the [`MetricRegistry`](crate::MetricRegistry) or the
//! windowed JSONL stream, only rendered to a separate `profile.json`
//! ([`DispatchProfiler::to_json`]).

use cs_sim::DetMap;

use crate::json::push_key;
use crate::registry::Histogram;

/// Wall-clock timing for one event kind.
#[derive(Clone, Debug, Default)]
pub struct KindTiming {
    /// Events timed.
    pub count: u64,
    /// Total handler nanoseconds.
    pub total_ns: u64,
    /// Fastest handler invocation.
    pub min_ns: u64,
    /// Slowest handler invocation.
    pub max_ns: u64,
    /// Log-bucket distribution of handler nanoseconds.
    pub hist: Histogram,
    /// Raw sampled durations, for exact percentiles. Bounded in practice:
    /// the observer samples 1 dispatch in
    /// [`PROFILE_SAMPLE_EVERY`](crate::PROFILE_SAMPLE_EVERY).
    samples: Vec<u64>,
}

impl KindTiming {
    /// Exact nearest-rank percentile over the sampled durations
    /// (`p` in 0..=100). Returns 0 when nothing was sampled.
    pub fn percentile_ns(&self, p: u8) -> u64 {
        percentile(&self.samples, p)
    }

    /// Number of raw samples held (equals `count`).
    pub fn samples(&self) -> u64 {
        self.samples.len() as u64
    }
}

/// Nearest-rank percentile: the smallest value with at least `p`% of the
/// samples at or below it (`ceil(p/100 * n)`-th smallest). Exact — no
/// interpolation — so results are integers from the sample set itself.
fn percentile(samples: &[u64], p: u8) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let n = sorted.len() as u64;
    let rank = (u64::from(p) * n).div_ceil(100).max(1);
    sorted[(rank - 1) as usize]
}

/// Per-kind aggregate of sampled handler durations (see module docs).
///
/// [`EngineTelemetry`](crate::EngineTelemetry) samples one dispatch in
/// [`PROFILE_SAMPLE_EVERY`](crate::PROFILE_SAMPLE_EVERY) rather than
/// timing all of them, so `count`/`total_ns` describe the sampled subset.
#[derive(Clone, Debug, Default)]
pub struct DispatchProfiler {
    kinds: DetMap<&'static str, KindTiming>,
    events: u64,
    total_ns: u64,
}

impl DispatchProfiler {
    /// A fresh profiler.
    pub fn new() -> Self {
        DispatchProfiler::default()
    }

    /// Add one handler invocation of `kind` that took `ns` nanoseconds.
    pub fn record(&mut self, kind: &'static str, ns: u64) {
        let t = self.kinds.entry(kind).or_default();
        if t.count == 0 || ns < t.min_ns {
            t.min_ns = ns;
        }
        t.max_ns = t.max_ns.max(ns);
        t.count += 1;
        t.total_ns = t.total_ns.saturating_add(ns);
        t.hist.observe(ns);
        t.samples.push(ns);
        self.events += 1;
        self.total_ns = self.total_ns.saturating_add(ns);
    }

    /// Events timed.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Total nanoseconds across all handlers.
    pub fn total_ns(&self) -> u64 {
        self.total_ns
    }

    /// Per-kind timings, sorted by kind name.
    pub fn kinds(&self) -> impl Iterator<Item = (&'static str, &KindTiming)> + '_ {
        self.kinds.iter().map(|(&k, t)| (k, t))
    }

    /// Render `profile.json`: per-event-kind wall-clock totals, means,
    /// extremes, nearest-rank p50/p95/p99 over the raw samples, log-bucket
    /// distributions, and each kind's share of the total in tenths of a
    /// percent (integer, to keep the file free of platform-dependent float
    /// formatting). Schema `/2` added the percentile and sample-count
    /// fields; `/1` consumers that only read the older keys still parse.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"schema\":\"cs-telemetry-profile/2\"");
        out.push_str(&format!(
            ",\"events\":{},\"total_ns\":{}",
            self.events, self.total_ns
        ));
        out.push(',');
        push_key(&mut out, "kinds");
        out.push('{');
        for (i, (kind, t)) in self.kinds().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_key(&mut out, kind);
            let mean = t.total_ns.checked_div(t.count).unwrap_or(0);
            let share_permille = (t.total_ns.saturating_mul(1000))
                .checked_div(self.total_ns)
                .unwrap_or(0);
            out.push_str(&format!(
                "{{\"count\":{},\"samples\":{},\"total_ns\":{},\"mean_ns\":{},\"min_ns\":{},\
                 \"max_ns\":{},\"p50_ns\":{},\"p95_ns\":{},\"p99_ns\":{},\
                 \"share_permille\":{},\"buckets_ns\":{{",
                t.count,
                t.samples(),
                t.total_ns,
                mean,
                t.min_ns,
                t.max_ns,
                t.percentile_ns(50),
                t.percentile_ns(95),
                t.percentile_ns(99),
                share_permille
            ));
            for (j, (le, n)) in t.hist.buckets().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"{le}\":{n}"));
            }
            out.push_str("}}");
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates_per_kind() {
        let mut p = DispatchProfiler::new();
        for ns in [30, 10, 20] {
            p.record("arrive", ns);
        }
        p.record("depart", 7);
        assert_eq!(p.events(), 4);
        assert_eq!(p.total_ns(), 67);
        let kinds: Vec<_> = p
            .kinds()
            .map(|(k, t)| (k, t.count, t.total_ns, t.min_ns, t.max_ns))
            .collect();
        assert_eq!(
            kinds,
            vec![("arrive", 3, 60, 10, 30), ("depart", 1, 7, 7, 7)]
        );
        for (_, t) in p.kinds() {
            assert_eq!(t.hist.count(), t.count);
        }
    }

    #[test]
    fn json_shape_is_stable() {
        let mut p = DispatchProfiler::new();
        p.record("tick", 42);
        let j = p.to_json();
        assert!(j.starts_with("{\"schema\":\"cs-telemetry-profile/2\""));
        assert!(j.contains("\"kinds\":{\"tick\":{\"count\":1,\"samples\":1,"));
        assert!(j.contains("\"p50_ns\":"));
        assert!(j.contains("\"p95_ns\":"));
        assert!(j.contains("\"p99_ns\":"));
        assert!(j.contains("\"share_permille\":"));
        assert!(j.ends_with("}}"));
    }

    #[test]
    fn nearest_rank_percentiles_are_exact() {
        // 1..=100: pN is exactly N under nearest-rank.
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50), 50);
        assert_eq!(percentile(&v, 95), 95);
        assert_eq!(percentile(&v, 99), 99);
        assert_eq!(percentile(&v, 100), 100);
        assert_eq!(percentile(&v, 0), 1); // rank clamps to the smallest sample

        // Small sets: ceil semantics, order-independent.
        assert_eq!(percentile(&[7], 50), 7);
        assert_eq!(percentile(&[7], 99), 7);
        assert_eq!(percentile(&[30, 10, 20], 50), 20); // ceil(0.5*3)=2nd smallest
        assert_eq!(percentile(&[30, 10, 20], 99), 30);
        assert_eq!(percentile(&[5, 5, 5, 5], 95), 5);

        // Empty set renders as 0 rather than panicking.
        assert_eq!(percentile(&[], 50), 0);
    }

    #[test]
    fn kind_timing_percentiles_follow_samples() {
        let mut p = DispatchProfiler::new();
        for ns in (1..=10).rev() {
            p.record("tick", ns * 100);
        }
        let (_, t) = p.kinds().next().unwrap();
        assert_eq!(t.samples(), 10);
        assert!(t.percentile_ns(50) <= t.percentile_ns(95));
        assert!(t.percentile_ns(95) <= t.percentile_ns(99));
        assert!(t.min_ns <= t.percentile_ns(50) && t.percentile_ns(99) <= t.max_ns);
    }
}
