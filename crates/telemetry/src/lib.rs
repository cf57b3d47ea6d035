//! # cs-telemetry — deterministic metrics, windowed aggregation, causal spans
//!
//! The paper *is* an observability system: §V's internal logging (immediate
//! activity reports plus 5-minute QoS/traffic/partner status reports) is
//! what makes every figure possible. This crate is the reproduction's own
//! telemetry layer: a dependency-light metrics core whose output is a pure
//! function of `(configuration, seed)`, so metric streams can be diffed
//! across runs exactly like trace hashes.
//!
//! Pieces:
//!
//! * [`MetricRegistry`] — [`Counter`](Metric::Counter) /
//!   [`Gauge`](Metric::Gauge) / [`Histogram`] instruments keyed by static
//!   name + label set. Histograms use fixed power-of-two bucket edges, so
//!   no floats ever appear in keys or bucket boundaries.
//! * [`WindowedAggregator`] — rolls every metric into sim-time windows
//!   (default: the paper's 5-minute status-report cadence,
//!   [`DEFAULT_WINDOW`]) and flushes them as JSONL snapshots carrying both
//!   cumulative values and per-window deltas.
//! * [`EngineTelemetry`] — the engine half of a run's telemetry: it owns
//!   the registry and the window clock, and counts dispatches in one
//!   dense per-kind table. It is fed plain values by the run's single
//!   observer (cs-core's `Instruments`) and is passive: attaching it
//!   cannot change a run, so golden trace hashes are identical with
//!   telemetry on or off.
//! * [`TelemetryRun`] — what the table and the windows leave at the run
//!   end, rendered to `metrics.jsonl` ([`TelemetryRun::metrics_jsonl`])
//!   and `profile.json` ([`TelemetryRun::profile_json`]). The profile is
//!   the one deliberately non-deterministic piece: per event kind and
//!   per owning manager, the wall-clock handler time of 1 dispatch in
//!   [`PROFILE_SAMPLE_EVERY`], scaled to the table's exact counts. It
//!   never enters the registry or the windowed stream.
//! * [`SpanRecord`] — deterministic sim-time span tracing: one causal
//!   span per dispatched event (seq, causing seq, sim-time, kind, owning
//!   manager), with wall-clock handler duration as the only
//!   environment-dependent field, rendered to `spans.jsonl`.
//! * [`HostFingerprint`] / [`peak_rss_bytes`] — the environment facts a
//!   run's `manifest.json` (written by `coolstream run`) and the
//!   `BENCH_*.json` header record beside their wall-clock numbers.

#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    warn(
        clippy::disallowed_methods,
        clippy::disallowed_types,
        clippy::float_cmp,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]
#![warn(missing_docs)]

mod json;
pub mod manifest;
pub mod observer;
pub mod registry;
pub mod span;
pub mod window;

pub use manifest::{peak_rss_bytes, HostFingerprint};
pub use observer::{EngineTelemetry, TelemetryRun, PROFILE_SAMPLE_EVERY};
pub use registry::{Histogram, Metric, MetricId, MetricKey, MetricRegistry};
pub use span::{spans_to_jsonl, SpanRecord, SPANS_SCHEMA};
pub use window::{SnapValue, WindowSnapshot, WindowedAggregator};

use cs_sim::SimTime;

/// The paper's status-report period (§V.A): 5 minutes. Used as the default
/// aggregation window so simulator metrics line up with report-derived ones.
pub const DEFAULT_WINDOW: SimTime = SimTime::from_secs(300);

/// How a run's telemetry is configured (carried inside the scenario
/// runner's options; `Copy` so option structs stay `Copy`).
#[derive(Clone, Copy, Debug)]
pub struct TelemetryConfig {
    /// Aggregation window; `SimTime::ZERO` falls back to [`DEFAULT_WINDOW`].
    pub window: SimTime,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            window: DEFAULT_WINDOW,
        }
    }
}

impl TelemetryConfig {
    /// The effective window (zero-proofed).
    pub fn effective_window(&self) -> SimTime {
        if self.window == SimTime::ZERO {
            DEFAULT_WINDOW
        } else {
            self.window
        }
    }
}

/// `profile.json`: the per-kind table of a [`TelemetryRun`] rendered as
/// wall-clock time per event kind and per owning manager.
mod profile {
    use cs_sim::DetMap;

    use crate::json::{push_buckets, push_key, push_str_lit};
    use crate::registry::Histogram;
    use crate::TelemetryRun;

    impl TelemetryRun {
        /// Render `profile.json` (schema `cs-telemetry-profile/3`, integers
        /// only): per kind, its `manager`, the `timed` dispatches, their
        /// `timed_ns` total, extremes and log-bucket distribution, and
        /// `busy_ns` — `timed_ns` scaled to the kind's exact count, which
        /// only `metrics.jsonl` records. `managers` sums `busy_ns` over each
        /// manager's kinds. A kind with no timed dispatch, or a manager with
        /// none, has `null` rather than 0 for every timing. `busy_ns`
        /// includes the cost of one `Instant` pair per timed dispatch;
        /// nothing is calibrated or subtracted.
        pub fn profile_json(&self) -> String {
            let mut out = String::from("{\"schema\":\"cs-telemetry-profile/3\",\"kinds\":{");
            let mut managers: DetMap<&'static str, Option<u128>> = DetMap::new();
            for (i, row) in self.kinds.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let busy = row.busy_ns();
                let sum = managers.entry(row.manager).or_default();
                if let Some(b) = busy {
                    *sum = Some(sum.unwrap_or(0) + b);
                }
                let t = (row.timed.count() > 0).then_some(&row.timed);
                push_key(&mut out, row.name);
                out.push_str("{\"manager\":");
                push_str_lit(&mut out, row.manager);
                out.push_str(&format!(
                    ",\"timed\":{},\"timed_ns\":{},\"busy_ns\":{},\"min_ns\":{},\"max_ns\":{},\
                     \"buckets_ns\":",
                    row.timed.count(),
                    row.timed.sum(),
                    or_null(busy),
                    or_null(t.map(Histogram::min)),
                    or_null(t.map(Histogram::max)),
                ));
                push_buckets(&mut out, row.timed.buckets());
                out.push('}');
            }
            out.push_str("},\"managers\":{");
            for (i, (manager, busy)) in managers.into_iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_key(&mut out, manager);
                out.push_str(&format!("{{\"busy_ns\":{}}}", or_null(busy)));
            }
            out.push_str("}}");
            out
        }
    }

    /// A JSON integer, or `null` for a figure that was never measured.
    fn or_null<T: ToString>(v: Option<T>) -> String {
        v.map_or_else(|| "null".to_string(), |v| v.to_string())
    }

    #[cfg(test)]
    mod tests {
        use crate::{EngineTelemetry, TelemetryConfig};
        use cs_sim::SimTime;

        #[test]
        fn record_accumulates_per_kind() {
            let mut tel = EngineTelemetry::new(TelemetryConfig::default(), SimTime::ZERO);
            for ns in [30, 10, 20] {
                tel.on_dispatch(0, "arrive", "membership", 0);
                tel.record_ns(0, ns);
            }
            tel.on_dispatch(1, "depart", "membership", 0);
            tel.record_ns(1, 7);
            let run = tel.finish(SimTime::ZERO);
            assert_eq!((run.events, run.timed()), (4, 4));
            let kinds: Vec<_> = run
                .kinds
                .iter()
                .map(|r| {
                    let t = &r.timed;
                    (r.name, r.count, t.count(), t.sum(), t.min(), t.max())
                })
                .collect();
            assert_eq!(
                kinds,
                vec![("arrive", 3, 3, 60, 10, 30), ("depart", 1, 1, 7, 7, 7)]
            );
            for r in &run.kinds {
                assert_eq!(r.timed.buckets().map(|(_, n)| n).sum::<u64>(), r.count);
            }
            let json = run.profile_json();
            assert!(
                json.contains(
                    "\"arrive\":{\"manager\":\"membership\",\"timed\":3,\"timed_ns\":60,\
                     \"busy_ns\":60,\"min_ns\":10,\"max_ns\":30,"
                ),
                "{json}"
            );
            assert!(
                json.ends_with(",\"managers\":{\"membership\":{\"busy_ns\":67}}}"),
                "{json}"
            );
        }
    }
}
