//! Shared helpers for the figure-reproduction bench targets.
//!
//! Every bench follows the same shape:
//!
//! 1. run the reproduction scenario once (small scale, fixed seed),
//! 2. print the paper-shaped table,
//! 3. `shape_check!` the qualitative claims — who wins, which direction,
//!    roughly what magnitude — so a regression in the protocol breaks
//!    `cargo bench` loudly,
//! 4. hand a cheap, representative kernel to Criterion for timing.

#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    warn(
        clippy::disallowed_methods,
        clippy::disallowed_types,
        clippy::float_cmp
    )
)]

pub mod harness;

pub use harness::{
    compare, compare_to_file, run_bench, BenchOptions, BenchReport, CompareOutcome, ScenarioBench,
    BENCH_SCHEMA, DEFAULT_FAIL_PCT, DEFAULT_WARN_PCT,
};

use coolstreaming::{RunArtifacts, Scenario};
use cs_sim::SimTime;

/// Run a steady-state scenario (`rate` joins/s for `minutes`).
pub fn steady_artifacts(rate: f64, minutes: u64, seed: u64) -> RunArtifacts {
    Scenario::steady(rate)
        .with_seed(seed)
        .with_window(SimTime::ZERO, SimTime::from_mins(minutes))
        .run()
}

/// Run a full event day at population `scale`.
pub fn event_day_artifacts(scale: f64, seed: u64) -> RunArtifacts {
    Scenario::event_day(scale).with_seed(seed).run()
}

/// Print the bench banner: experiment id and the paper's claim.
pub fn banner(id: &str, claim: &str) {
    println!("\n================================================================");
    println!("{id} — paper claim: {claim}");
    println!("================================================================");
}

/// Assert a qualitative shape, printing the verdict either way.
#[macro_export]
macro_rules! shape_check {
    ($cond:expr, $($msg:tt)*) => {{
        let ok = $cond;
        if ok {
            println!("  SHAPE OK   {}", format_args!($($msg)*));
        } else {
            println!("  SHAPE FAIL {}", format_args!($($msg)*));
        }
        assert!(ok, $($msg)*);
    }};
}

/// A Criterion instance configured for heavyweight end-to-end kernels.
pub fn criterion_quick() -> criterion::Criterion {
    criterion::Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_millis(500))
        .configure_from_args()
}
