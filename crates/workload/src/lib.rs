//! # cs-workload — the synthetic audience
//!
//! Replaces the real viewers of the 2006-09-27 broadcast with a generative
//! model exhibiting the trace's reported statistical properties:
//!
//! * [`RateProfile`] — non-homogeneous Poisson arrivals with the diurnal
//!   shape of Fig. 5 and flash-crowd spikes at program starts;
//! * [`ClassMix`] — the ~30 % public / 70 % NAT-or-firewall split of
//!   Fig. 3a;
//! * [`SessionModel`] — heavy-tailed intended watch times, program-end
//!   alignment (the 22:00 cliff), join patience, and retry budgets
//!   (Fig. 10);
//! * [`Workload`] — ties them together and emits the `(time, UserSpec)`
//!   arrival schedule consumed by `cs-proto`'s world.
//!
//! Everything is deterministic in the `(workload, seed)` pair.

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

mod classes;
mod generator;
mod profile;
mod sessions;

pub use classes::ClassMix;
pub use generator::{FreeRiderModel, Workload};
pub use profile::{RateProfile, Spike};
pub use sessions::SessionModel;
