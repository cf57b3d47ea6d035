//! Determinism: the simulation is a pure function of (scenario, seed).
//!
//! Two runs of the same scenario and seed must produce bit-identical
//! traces, logs, and topology snapshots; observers must be passive
//! (attaching them cannot change the run); and different seeds must
//! produce different traces.

use coolstreaming::{RunOptions, Scenario};
use cs_sim::SimTime;

fn small_steady() -> Scenario {
    Scenario::steady(0.4)
        .with_seed(101)
        .with_window(SimTime::ZERO, SimTime::from_mins(6))
        .with_snapshots(Some(SimTime::from_secs(30)))
}

const HASH_ONLY: RunOptions = RunOptions {
    check_invariants: false,
    invariant_stride: 0,
    trace_hash: true,
    record_spans: false,
    telemetry: None,
};

#[test]
fn same_seed_same_trace_hash_and_artifacts() {
    let a = small_steady().run_observed(HASH_ONLY);
    let b = small_steady().run_observed(HASH_ONLY);
    assert_eq!(a.trace_hash, b.trace_hash, "trace diverged under one seed");
    assert!(a.trace_hash.is_some());
    assert_eq!(
        a.artifacts.world.log.to_text(),
        b.artifacts.world.log.to_text(),
        "log text diverged under one seed"
    );
    assert_eq!(
        a.artifacts.world.snapshots, b.artifacts.world.snapshots,
        "topology snapshots diverged under one seed"
    );
    assert!(!a.artifacts.world.snapshots.is_empty(), "cadence was set");
}

#[test]
fn different_seeds_different_trace_hash() {
    let a = small_steady().run_observed(HASH_ONLY);
    let b = small_steady().with_seed(102).run_observed(HASH_ONLY);
    assert_ne!(
        a.trace_hash, b.trace_hash,
        "two seeds produced the same event trace"
    );
}

/// Observers are passive: a run with the full instrumentation attached
/// produces artifacts bit-identical to a plain `run()` of the same
/// scenario.
#[test]
fn observed_run_is_bit_identical_to_plain_run() {
    let observed = small_steady().run_observed(RunOptions {
        check_invariants: true,
        invariant_stride: 1,
        trace_hash: true,
        record_spans: false,
        telemetry: None,
    });
    let plain = small_steady().run();
    assert_eq!(
        observed.artifacts.world.log.to_text(),
        plain.world.log.to_text(),
        "instrumentation changed the log"
    );
    assert_eq!(
        observed.artifacts.world.snapshots, plain.world.snapshots,
        "instrumentation changed the snapshots"
    );
    assert_eq!(
        observed.artifacts.world.stats.arrivals,
        plain.world.stats.arrivals
    );
    assert_eq!(
        observed.artifacts.run_stats.events, plain.run_stats.events,
        "instrumentation changed the event count"
    );
    let chk = observed.invariants.expect("checker was requested");
    assert!(chk.is_clean(), "{}", chk.report());
}

/// The trace hash distinguishes runs that the summary statistics might
/// not: a slightly different window produces a different hash.
#[test]
fn trace_hash_is_sensitive_to_the_window() {
    let a = small_steady().run_observed(HASH_ONLY);
    let b = small_steady()
        .with_window(
            SimTime::ZERO,
            SimTime::from_mins(6) + SimTime::from_secs(30),
        )
        .run_observed(HASH_ONLY);
    assert_ne!(a.trace_hash, b.trace_hash);
}
