//! # cs-net — the network substrate
//!
//! Replaces "the global Internet" of the paper's deployment with a
//! deterministic model exposing exactly the properties the Coolstreaming
//! protocol is sensitive to:
//!
//! * **Reachability** — [`NodeClass`] (direct-connect / UPnP / NAT /
//!   firewall / server / source, §V.B) plus a probabilistic
//!   [`ConnectivityPolicy`] that makes NAT↔NAT "random links" rare but not
//!   impossible;
//! * **Heterogeneous uplinks** — [`CapacityModel`], lognormal per class,
//!   calibrated so that ~30 % public peers own > 80 % of upload capacity
//!   (Fig. 3);
//! * **Wide-area delay** — [`LatencyModel`] over synthetic coordinates.
//!
//! The registry itself is [`Network`]. It is passive: the protocol crate
//! drives all event scheduling and asks this crate only "can A connect to
//! B?" and "how long does a message take?".

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

mod capacity;
mod class;
mod connectivity;
mod id;
mod latency;
mod network;

pub use capacity::{Bandwidth, CapacityModel, ClassCapacity};
pub use class::NodeClass;
pub use connectivity::{ConnectError, ConnectivityPolicy};
pub use id::NodeId;
pub use latency::{Coord, LatencyModel};
pub use network::{ConnectStats, Network, NodeInfo};
