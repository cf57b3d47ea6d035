//! # cs-proto — the Coolstreaming protocol
//!
//! A from-scratch implementation of the mesh-pull (data-driven) P2P live
//! streaming system described in §III–§IV of the paper, structured after
//! Fig. 1's three modules:
//!
//! * **Membership manager** — the [`membership`] module: [`MCache`]
//!   partial views filled by the [`Bootstrap`] tracker and gossip;
//! * **Partnership manager** — the [`partnership`] module: bounded
//!   partner sets with periodic buffer-map exchange
//!   ([`StreamBuffer::advertised`] rows, copied into [`PartnerTable`]) and
//!   peer adaptation driven by inequalities (1)/(2) with the `T_a`
//!   cool-down;
//! * **Stream manager** — the [`stream`] module: sub-stream
//!   subscriptions ([`StreamBuffer`], Fig. 2), the §IV.A join position
//!   rule (`m − T_p`), parent selection, and the push schedule (Eq. 5).
//!
//! Each manager owns its slice of per-peer state ([`MembershipState`],
//! [`PartnershipState`], [`StreamState`]) and operates on the shared
//! [`CsWorld`], which keeps only the event alphabet and the dispatch
//! table. DESIGN.md §9 maps the modules to the paper's Fig. 1 and lists
//! the allowed inter-manager calls. All tunables live in [`Params`]
//! (Table I).

#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    warn(
        clippy::disallowed_methods,
        clippy::disallowed_types,
        clippy::float_cmp,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]
#![warn(missing_docs)]

mod arena;
mod bootstrap;
mod buffer;
mod chaos;
mod invariant;
mod mcache;
pub mod membership;
mod params;
pub mod partnership;
mod peer;
mod session;
mod slots;
mod snapshot;
pub mod stream;
mod world;

#[cfg(test)]
mod partnership_tests;

pub use bootstrap::Bootstrap;
pub use buffer::StreamBuffer;
pub use invariant::{InvariantChecker, Violation};
pub use mcache::MCache;
pub use membership::MembershipState;
pub use params::{Allocation, Params, ReplacePolicy, StartPolicy};
pub use partnership::{PartnerTable, PartnershipState};
pub use peer::{PeerCore, PeerMut, PeerRef};
pub use session::{finalize_sessions, DepartReason, SessionRecord};
pub use snapshot::TopologySnapshot;
pub use stream::{ReportCounters, StreamState};
pub use world::{CsWorld, Event, UserSpec, WorldStats, MAX_PENDING_PER_NODE};
