//! The perf-trajectory harness behind `coolstream bench` (DESIGN.md §12):
//! run the scenario library end-to-end, write a `BENCH_*.json` report
//! and gate it against a committed baseline.
//!
//! The paper's figure shapes are not checked here: they are the oracle
//! in `coolstreaming::experiments`, run by `coolstream reproduce`.

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
