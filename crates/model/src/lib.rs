//! # cs-model — the paper's analytical models
//!
//! §IV.C in closed form ([`dynamics`]): catch-up time (Eq. 3), starvation
//! time (Eq. 4), bandwidth dilution (Eq. 5) and the competition-loss
//! probability (Eq. 6); plus the §V.B topology-convergence argument as a
//! two-state Markov chain ([`convergence`]).
//!
//! These are validated against the simulator by the EQ3-6 and FIG4 rows
//! of the paper-shape oracle (`coolstream reproduce`): the simulation
//! should track the model where the model's assumptions hold, and the
//! rows' tables record where it deviates.

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

pub mod convergence;
pub mod dynamics;

pub use convergence::ConvergenceModel;
pub use dynamics::{
    catch_up_time, diluted_rate, p_lose_within, p_lose_within_empirical, starvation_time,
    time_to_lose, CompetitionScenario,
};
