//! # cs-sim — deterministic discrete-event simulation engine
//!
//! The substrate every other crate in `coolstreaming-rs` runs on. It
//! provides exactly three things, all chosen for *reproducibility*:
//!
//! * [`SimTime`] — integer-microsecond simulated clock,
//! * [`EventQueue`] / [`Engine`] — a time-ordered event loop with stable
//!   FIFO tie-breaking among equal timestamps,
//! * [`rng::Xoshiro256PlusPlus`] — a splittable, version-pinned RNG so each
//!   subsystem owns an independent random stream derived from one master
//!   seed.
//!
//! Together these guarantee that a simulation run is a pure function of
//! `(configuration, seed)`: re-running produces bit-identical logs.
//!
//! ```
//! use cs_sim::{Ctx, Engine, SimTime, World};
//!
//! struct Counter(u32);
//! impl World for Counter {
//!     type Event = ();
//!     fn handle(&mut self, ctx: &mut Ctx<'_, ()>, _: ()) {
//!         self.0 += 1;
//!         if self.0 < 5 {
//!             ctx.schedule_in(SimTime::from_secs(1), ());
//!         }
//!     }
//! }
//!
//! let mut eng = Engine::new(Counter(0));
//! eng.schedule_at(SimTime::ZERO, ());
//! eng.run_until(SimTime::from_secs(60));
//! assert_eq!(eng.world().0, 5);
//! ```

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

pub mod det;
mod engine;
pub mod observer;
mod queue;
pub mod rng;
mod time;

pub use det::{DetMap, DetSet};
pub use engine::{Ctx, Engine, RunStats, StopReason, World};
pub use observer::{DispatchMeta, Observer, TraceHasher};
pub use queue::{EventQueue, Popped};
pub use time::SimTime;
