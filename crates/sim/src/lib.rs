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

pub use det::DetMap;
pub use engine::{Ctx, Engine, RunStats, StopReason, World};
pub use observer::{DispatchMeta, Observer, TraceHasher};
pub use queue::EventQueue;
pub use time::SimTime;

/// The contracts every caller of [`rng::Xoshiro256PlusPlus`]'s samplers
/// relies on: range bounds, unit floats, coin extremes, shuffles and the
/// lognormal's parameter check and median. `rng`'s own tests pin the
/// exact outputs.
#[cfg(test)]
mod tests {
    use crate::rng::Xoshiro256PlusPlus;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = Xoshiro256PlusPlus::new(7);
        let mut seen = [false; 6];
        for _ in 0..10_000 {
            let a: u64 = rng.gen_range(10..20);
            assert!((10..20).contains(&a));
            let c: f64 = rng.gen_range(0.25..0.75);
            assert!((0.25..0.75).contains(&c));
            // `shuffle` draws the inclusive `0..=i` as `0..i + 1`: both
            // ends are reached and nothing beyond.
            let b: usize = rng.gen_range(0..5 + 1);
            seen[b] = true;
        }
        assert_eq!(seen, [true; 6]);
    }

    #[test]
    fn unit_floats_cover_zero_one() {
        let mut rng = Xoshiro256PlusPlus::new(3);
        for _ in 0..10_000 {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = Xoshiro256PlusPlus::new(9);
        for _ in 0..1_000 {
            assert!(!rng.gen_bool(0.0));
            assert!(rng.gen_bool(1.0));
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Xoshiro256PlusPlus::new(11);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted);
        assert!(rng.choose(&v).is_some());
        let empty: [u32; 0] = [];
        assert!(rng.choose(&empty).is_none());
    }

    #[test]
    fn rejects_bad_parameters() {
        let mut rng = Xoshiro256PlusPlus::new(1);
        let before = rng.clone();
        assert_eq!(rng.lognormal(0.0, -1.0), None);
        assert_eq!(rng.lognormal(f64::NAN, 1.0), None);
        assert_eq!(rng.lognormal(0.0, f64::INFINITY), None);
        assert_eq!(rng.next_u64(), before.clone().next_u64(), "no draw");
        assert!(rng.lognormal(0.0, 0.5).is_some());
    }

    #[test]
    fn zero_sigma_is_deterministic() {
        let mut rng = Xoshiro256PlusPlus::new(1);
        for _ in 0..10 {
            let x = rng.lognormal(1.0, 0.0).unwrap();
            assert!((x - 1.0f64.exp()).abs() < 1e-12);
        }
    }

    #[test]
    fn samples_are_positive_with_sane_median() {
        let mut rng = Xoshiro256PlusPlus::new(7);
        let mut samples: Vec<f64> = (0..20_000)
            .map(|_| rng.lognormal(2.0, 0.8).unwrap())
            .collect();
        assert!(samples.iter().all(|&x| x > 0.0));
        samples.sort_by(f64::total_cmp);
        let median = samples[samples.len() / 2];
        assert!(
            (median - 2.0f64.exp()).abs() < 0.5,
            "median {median} vs {}",
            2.0f64.exp()
        );
    }
}
