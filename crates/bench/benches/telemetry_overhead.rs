//! TEL-OVERHEAD — cost of the telemetry layer.
//!
//! Telemetry rides the same passive observer hooks as the trace hasher:
//! a per-kind table increment plus queue accounting per event, a
//! protocol-state walk once per window, and two `Instant` reads per
//! sampled dispatch (1 in 128). The contract: a
//! fully-enabled telemetry run stays within 5% of a plain run on a real
//! scenario, and a run with telemetry *absent* (`telemetry: None`) pays
//! nothing beyond the existing observer plumbing.
//!
//! Measurement methodology: the three configurations are benchmarked in
//! interleaved rounds and compared by the fastest sample of any round.
//! Interference on a shared machine only ever adds time, so the minimum
//! is the cleanest estimate of true cost, and interleaving ensures slow
//! drift (thermal, frequency scaling) lands on every configuration
//! instead of whichever happened to run last.

use coolstreaming::{RunOptions, Scenario};
use criterion::{black_box, Criterion};
use cs_bench::{banner, shape_check};
use cs_sim::SimTime;
use cs_telemetry::TelemetryConfig;

const ROUNDS: usize = 3;

fn scenario() -> Scenario {
    Scenario::steady(0.4)
        .with_seed(77)
        .with_window(SimTime::ZERO, SimTime::from_mins(5))
}

fn options(telemetry: Option<TelemetryConfig>) -> RunOptions {
    RunOptions {
        check_invariants: false,
        invariant_stride: 0,
        trace_hash: false,
        record_spans: false,
        telemetry,
    }
}

fn main() {
    banner(
        "TEL-OVERHEAD",
        "full telemetry stays under 5% on a real scenario; absent telemetry is free",
    );

    let mut c = Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(1))
        .warm_up_time(std::time::Duration::from_millis(300))
        .configure_from_args();

    for round in 1..=ROUNDS {
        c.bench_function(&format!("scenario/plain#{round}"), |b| {
            b.iter(|| black_box(scenario().run().run_stats.events))
        });
        c.bench_function(&format!("scenario/absent#{round}"), |b| {
            b.iter(|| {
                black_box(
                    scenario()
                        .run_observed(options(None))
                        .artifacts
                        .run_stats
                        .events,
                )
            })
        });
        c.bench_function(&format!("scenario/full#{round}"), |b| {
            b.iter(|| {
                let run = scenario().run_observed(options(Some(TelemetryConfig::default())));
                let tel = run.telemetry.as_ref().expect("telemetry requested");
                assert!(!tel.snapshots.is_empty() && tel.profile.events() > 0);
                black_box(run.artifacts.run_stats.events)
            })
        });
    }

    let best = |prefix: &str| {
        c.results()
            .iter()
            .filter(|r| r.name.starts_with(prefix))
            .map(|r| r.min.as_secs_f64())
            .fold(f64::INFINITY, f64::min)
    };
    let plain = best("scenario/plain#");
    let absent = best("scenario/absent#");
    let full = best("scenario/full#");
    println!(
        "  telemetry absent {:+.1}%, full {:+.1}% vs plain",
        100.0 * (absent / plain - 1.0),
        100.0 * (full / plain - 1.0),
    );

    // `options(None)` and a plain run execute the identical code path
    // (run() delegates to run_observed with default options); the bound
    // below is noise allowance, not a real cost budget.
    shape_check!(
        absent / plain < 1.02,
        "absent telemetry costs {:.1}% (expected ~0)",
        100.0 * (absent / plain - 1.0)
    );
    shape_check!(
        full / plain < 1.05,
        "full telemetry costs {:.1}% (< 5% budget)",
        100.0 * (full / plain - 1.0)
    );

    c.final_summary();
}
