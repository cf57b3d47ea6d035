//! OBS-OVERHEAD — cost of the instrumentation layer.
//!
//! The engine's observer hook must be free when no observer is attached
//! (the disabled path is a single `Option` check per event), cheap for a
//! pure trace hasher, and priced openly for the full `InvariantChecker`
//! (whose per-event full-state validation is `O(peers)` by design —
//! that's what `--invariant-stride` is for).

use std::cell::RefCell;
use std::rc::Rc;

use coolstreaming::{RunOptions, Scenario};
use criterion::{black_box, Criterion};
use cs_bench::{banner, shape_check};
use cs_sim::{Ctx, Engine, Observer, SimTime, TraceHasher, World};

/// A synthetic self-scheduling world: the tightest possible dispatch
/// loop, so the per-event hook cost is maximally visible.
struct Ticker {
    remaining: u64,
}

#[derive(Clone, Copy)]
struct Tick;

impl World for Ticker {
    type Event = Tick;

    fn handle(&mut self, ctx: &mut Ctx<'_, Tick>, _ev: Tick) {
        if self.remaining > 0 {
            self.remaining -= 1;
            ctx.schedule_in(SimTime::from_micros(1), Tick);
        }
    }
}

const TICKS: u64 = 200_000;

fn run_ticker(observer: Option<Box<dyn Observer<Ticker>>>) -> u64 {
    let mut engine = Engine::new(Ticker { remaining: TICKS });
    if let Some(obs) = observer {
        engine.set_observer(obs);
    }
    engine.schedule_at(SimTime::ZERO, Tick);
    let stats = engine.run_until(SimTime::MAX);
    stats.events
}

/// An observer that does nothing — isolates the virtual-call cost from
/// the cost of any particular instrument.
struct Nop;
impl Observer<Ticker> for Nop {}

/// The trace-hash sink behind the hook, as the scenario runner's
/// instrument set feeds it.
#[derive(Default)]
struct Hashing(TraceHasher);
impl Observer<Ticker> for Hashing {
    fn on_dispatch(&mut self, now: SimTime, _: &Tick, _queue_depth: usize) {
        self.0.record(now, "tick");
    }
}

fn main() {
    banner(
        "OBS-OVERHEAD",
        "instrumentation is pay-for-what-you-use; the disabled path is free",
    );

    let mut c = Criterion::default()
        .sample_size(15)
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_millis(500))
        .configure_from_args();

    c.bench_function("ticker/no_observer", |b| {
        b.iter(|| black_box(run_ticker(None)))
    });
    c.bench_function("ticker/nop_observer", |b| {
        b.iter(|| black_box(run_ticker(Some(Box::new(Nop)))))
    });
    c.bench_function("ticker/trace_hasher", |b| {
        b.iter(|| {
            let h = Rc::new(RefCell::new(Hashing::default()));
            run_ticker(Some(Box::new(Rc::clone(&h))));
            let hash = h.borrow().0.hash();
            black_box(hash)
        })
    });

    // End-to-end: a real scenario with and without the full checker.
    let scenario = || {
        Scenario::steady(0.4)
            .with_seed(77)
            .with_window(SimTime::ZERO, SimTime::from_mins(5))
    };
    c.bench_function("scenario/plain", |b| {
        b.iter(|| black_box(scenario().run().run_stats.events))
    });
    c.bench_function("scenario/trace_hash", |b| {
        b.iter(|| {
            black_box(
                scenario()
                    .run_observed(RunOptions {
                        check_invariants: false,
                        invariant_stride: 0,
                        trace_hash: true,
                        record_spans: false,
                        telemetry: None,
                    })
                    .trace_hash,
            )
        })
    });
    c.bench_function("scenario/invariants_stride_16", |b| {
        b.iter(|| {
            let run = scenario().run_observed(RunOptions {
                check_invariants: true,
                invariant_stride: 16,
                trace_hash: false,
                record_spans: false,
                telemetry: None,
            });
            assert!(run.invariants.as_ref().unwrap().is_clean());
            black_box(run.artifacts.run_stats.events)
        })
    });
    c.bench_function("scenario/invariants_stride_1", |b| {
        b.iter(|| {
            let run = scenario().run_observed(RunOptions {
                check_invariants: true,
                invariant_stride: 1,
                trace_hash: false,
                record_spans: false,
                telemetry: None,
            });
            assert!(run.invariants.as_ref().unwrap().is_clean());
            black_box(run.artifacts.run_stats.events)
        })
    });

    let median = |name: &str| {
        c.results()
            .iter()
            .find(|r| r.name == name)
            .map(|r| r.median.as_secs_f64())
            .expect("bench ran")
    };
    let base = median("ticker/no_observer");
    let nop = median("ticker/nop_observer");
    let hashed = median("ticker/trace_hasher");
    let plain = median("scenario/plain");
    let traced = median("scenario/trace_hash");
    println!(
        "  ticker: nop observer {:+.1}%, trace hasher {:+.1}% vs no observer",
        100.0 * (nop / base - 1.0),
        100.0 * (hashed / base - 1.0),
    );
    println!(
        "  scenario: trace hash {:+.1}% vs plain run",
        100.0 * (traced / plain - 1.0),
    );

    // The ticker handler is a few ns, so even two virtual calls per
    // event register as tens of percent *there*; on a real workload the
    // same hooks disappear into the handler cost. The bounds encode
    // that: generous on the empty-handler loop, tight on the scenario.
    // (`scenario/plain` goes through the instrumented engine with no
    // observer attached — it *is* the disabled path, and its cost over
    // the pre-observer engine is one `Option` check per event.)
    shape_check!(
        nop / base < 2.0,
        "nop observer costs {:.1}% on an empty handler (two virtual calls/event)",
        100.0 * (nop / base - 1.0)
    );
    shape_check!(
        traced / plain < 1.15,
        "trace hashing a real scenario costs {:.1}% (< 15%)",
        100.0 * (traced / plain - 1.0)
    );

    c.final_summary();
}
