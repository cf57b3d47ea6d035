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
//!   dense per-kind table that serves the windowed counters, the per-kind
//!   and per-manager totals of [`TelemetryRun`], and the dispatch
//!   profile. It is fed plain values by the run's single observer
//!   (cs-core's `Instruments`) and is passive: attaching it cannot change
//!   a run, so golden trace hashes are identical with telemetry on or off.
//! * [`DispatchProfiler`] — the one deliberately non-deterministic piece:
//!   wall-clock handler durations per event kind, sampled 1 dispatch in
//!   [`PROFILE_SAMPLE_EVERY`]. Its measurements never enter the registry
//!   or the windowed stream; they are emitted only to `profile.json` (see
//!   [`DispatchProfiler::to_json`]).
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
pub mod profile;
pub mod registry;
pub mod span;
pub mod window;

pub use manifest::{peak_rss_bytes, HostFingerprint};
pub use observer::{EngineTelemetry, TelemetryRun, PROFILE_SAMPLE_EVERY};
pub use profile::{DispatchProfiler, KindTiming};
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
