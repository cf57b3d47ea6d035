//! # cs-analysis — the trace-analysis pipeline
//!
//! Turns the raw log-server output of `cs-logging` into the quantities
//! plotted in the paper's evaluation (§V):
//!
//! * [`reconstruct`] / [`LogSession`] — session-level reconstruction from
//!   activity + status reports (§V.C), with §V.B user-type inference and
//!   Fig. 10b retry grouping;
//! * [`Cdf`] / [`Histogram`] — the start-subscription / media-ready /
//!   session-duration distributions of Figs. 6, 7 and 10;
//! * [`Lorenz`] — the Fig. 3b upload-contribution skew (top-share, Gini);
//! * [`TimeBins`] / [`concurrency_curve`] — the population and continuity
//!   time series of Figs. 5 and 8.
//!
//! By design this crate never touches simulator ground truth: it sees the
//! system exactly the way the paper's authors saw theirs.

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

mod lorenz;
mod peerwise;
mod sessions;
mod stats;
mod timeseries;

pub use lorenz::Lorenz;
pub use peerwise::{peerwise, Peerwise};
pub use sessions::{qos_totals, reconstruct, retries_per_user, LogSession, UserAttempts};
pub use stats::{Cdf, Histogram};
pub use timeseries::{concurrency_curve, TimeBins};
