//! # coolstreaming — facade for the coolstreaming-rs reproduction
//!
//! A from-scratch Rust reproduction of *"A Measurement of a Large-scale
//! Peer-to-Peer Live Video Streaming System"* (Xie, Keung, Li — ICPP
//! 2007): the Coolstreaming mesh-pull protocol, the network and audience
//! it ran on, the paper's internal logging system, and the analysis
//! pipeline regenerating every figure of its evaluation.
//!
//! The five-minute tour:
//!
//! ```
//! use coolstreaming::{experiments, Scenario};
//! use cs_sim::SimTime;
//!
//! // A small slice of the 2006-09-27 broadcast evening.
//! let artifacts = Scenario::event_day(0.002)
//!     .with_seed(42)
//!     .with_window(SimTime::from_hours(19), SimTime::from_hours(19) + SimTime::from_mins(12))
//!     .run();
//!
//! // Everything the paper measured comes out of the *log*:
//! let view = experiments::LogView::build(&artifacts);
//! let fig6 = experiments::fig6_startup(&view, SimTime::ZERO, SimTime::MAX);
//! assert!(fig6.ready.len() > 0);
//! ```
//!
//! Crate map (one crate per subsystem; see DESIGN.md):
//! [`cs_sim`] (event engine) → [`cs_net`] (network substrate) →
//! [`cs_proto`] (the protocol) ← [`cs_workload`] (audience),
//! [`cs_logging`] (measurement apparatus) → [`cs_analysis`] (trace
//! analytics), plus [`cs_model`] (§IV closed forms) and [`cs_baseline`]
//! (tree-multicast comparators).

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

pub mod channels;
pub mod experiments;
mod instruments;
mod scenario;
mod spec;

pub use channels::{zappers, ChannelRun, ChannelScenario};
pub use cs_telemetry::TelemetryRun;
pub use scenario::{ObservedRun, RunArtifacts, RunOptions, Scenario};
pub use spec::{
    BaseSpec, ChaosSpec, CompiledSpec, PolicySpec, ScenarioSpec, ServerSpec, SpecError,
    SPEC_VERSION,
};

// Re-export the sub-crates so downstream users need a single dependency.
pub use cs_analysis as analysis;
pub use cs_baseline as baseline;
pub use cs_logging as logging;
pub use cs_model as model;
pub use cs_net as net;
pub use cs_proto as proto;
pub use cs_sim as sim;
pub use cs_telemetry as telemetry;
pub use cs_workload as workload;
