//! # cs-logging — the internal measurement apparatus
//!
//! The paper's key methodological advantage over earlier PPLive/SopCast
//! studies is an *internal* logging system (§V.A): every client reports
//! activities immediately and internal status every 5 minutes, as HTTP URL
//! "log strings" of `name=value&…` pairs collected by a dedicated log
//! server.
//!
//! This crate reproduces that apparatus: the typed [`Report`] schema
//! (activity / QoS / traffic / partner) with its log-string codec
//! ([`Report::encode`], [`Report::decode`]), and the [`LogServer`]. Everything downstream (`cs-analysis`)
//! consumes *parsed log strings*, never simulator ground truth, so the
//! pipeline inherits the paper's own sampling artifacts — most notably the
//! 5-minute status granularity that inflates the continuity index of
//! churning NAT users (§V.D).

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

mod codec;
mod report;
mod server;

pub use codec::CodecError;
pub use report::{ActivityKind, Report, ReportError, UserId};
pub use server::LogServer;

/// The paper's status-report period: 5 minutes.
pub const STATUS_REPORT_INTERVAL: cs_sim::SimTime = cs_sim::SimTime::from_secs(300);
