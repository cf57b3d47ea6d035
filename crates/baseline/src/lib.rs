//! # cs-baseline — tree-based overlay multicast comparators
//!
//! §II of the paper contrasts data-driven (mesh-pull) systems against
//! *tree-based overlay multicast*: single-tree end-system multicast
//! \[11\]\[12\] and multi-tree striping à la SplitStream \[13\]. This crate
//! implements both on the same `cs-net` substrate and the same workload
//! specs as the mesh, so the oracle's ABL-TREE row
//! (`coolstreaming::experiments`) can compare continuity under identical
//! churn.
//!
//! The headline expectation (and the reason Coolstreaming is mesh-based):
//! under churn, a single tree's interior departures silence whole
//! subtrees; striping bounds the damage to `1/K`; the mesh's per-block
//! multi-parent pull avoids most of it.

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

mod tree;

pub use tree::{TreeEvent, TreeParams, TreeSession, TreeStats, TreeWorld};
