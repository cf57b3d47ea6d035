//! OBS-OVERHEAD — cost of the instrumentation layer, sink by sink.
//!
//! Every sink rides the engine's one observer hook. No observer attached
//! is free (one `Option` check per event), and a run with telemetry
//! *absent* executes the identical code path as a plain run — its row is
//! this bench's noise floor, not a cost. Trace hashing and full telemetry
//! (a per-kind table increment plus queue accounting per event, a
//! protocol-state walk once per window, two `Instant` reads per sampled
//! dispatch, 1 in 128) both read 5–6 % of a small scenario on the 2-core
//! review host, most of it the attached observer itself (three virtual
//! calls and a `RefCell` borrow per ≈ 250 ns event). The
//! `InvariantChecker` is priced openly: full-state validation is
//! `O(peers)` per check — that's what `--invariant-stride` is for.
//!
//! Each row is the *median over rounds of a paired ratio*: inside a round
//! the baseline and the instrumented configuration run back to back,
//! alternating which goes first, so slow drift (thermal, frequency, a
//! noisy neighbour) lands on both sides of a ratio and the median drops
//! the rounds an interruption hit. Over ten runs on that shared host the
//! identical-code row read −0.6…+0.9 % and full telemetry +2.6…+7.1 %
//! (one run in a noisy episode: +12 %). The statistic this replaced — the
//! fastest sample of each configuration over three rounds — read
//! −19…+27 % on identical code, so its "< 5 %" gate could not tell 5 %
//! from 0 %; the gates below sit where a doubling of a sink's cost trips
//! them and this spread does not.

use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use coolstreaming::{RunOptions, Scenario};
use cs_sim::{Ctx, Engine, Observer, SimTime, TraceHasher, World};
use cs_telemetry::TelemetryConfig;

/// Paired rounds per gated row (odd, so the median is a measured ratio).
/// One side of one round is one call, ≈ 10 ms: short rounds keep the two
/// sides of a ratio close in time, many of them keep the median still.
const ROUNDS: usize = 51;
/// Rounds for the rows that are priced, not gated (the checker at stride
/// 1 is ≈ 70× a plain run).
const PRICED_ROUNDS: usize = 5;

/// Wall seconds of one call of `f`.
fn time(f: &mut dyn FnMut() -> u64) -> f64 {
    let t0 = Instant::now();
    black_box(f());
    t0.elapsed().as_secs_f64()
}

/// Median over `rounds` of `instrumented / baseline`, each round timing
/// the pair back to back in alternating order. Prints and returns it.
fn paired_ratio(
    name: &str,
    rounds: usize,
    mut baseline: impl FnMut() -> u64,
    mut instrumented: impl FnMut() -> u64,
) -> f64 {
    // One untimed pair: page in code and data, size the allocator.
    black_box((baseline(), instrumented()));
    let mut ratios: Vec<f64> = (0..rounds)
        .map(|round| {
            if round % 2 == 0 {
                let base = time(&mut baseline);
                time(&mut instrumented) / base
            } else {
                let inst = time(&mut instrumented);
                inst / time(&mut baseline)
            }
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    let median = ratios[rounds / 2];
    println!(
        "  {name:<32} {:+6.1}%   ({rounds} rounds: min {:+.1}%, max {:+.1}%)",
        100.0 * (median - 1.0),
        100.0 * (ratios[0] - 1.0),
        100.0 * (ratios[rounds - 1] - 1.0),
    );
    median
}

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
    engine.run_until(SimTime::MAX).events
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

fn scenario() -> Scenario {
    Scenario::steady(0.4)
        .with_seed(77)
        .with_window(SimTime::ZERO, SimTime::from_mins(5))
}

/// Events of one scenario run under `options`.
fn observed(options: RunOptions) -> u64 {
    let run = scenario().run_observed(options);
    if let Some(checker) = &run.invariants {
        assert!(checker.is_clean());
    }
    if let (Some(_), Some(tel)) = (options.telemetry, &run.telemetry) {
        assert!(!tel.snapshots.is_empty() && tel.timed() > 0);
    }
    run.artifacts.run_stats.events
}

fn main() {
    println!(
        "OBS-OVERHEAD: instrumentation is pay-for-what-you-use; full telemetry stays under 10%"
    );
    let plain_ticker = || run_ticker(None);
    let nop = paired_ratio("ticker/nop_observer", ROUNDS, plain_ticker, || {
        run_ticker(Some(Box::new(Nop)))
    });
    paired_ratio("ticker/trace_hasher", ROUNDS, plain_ticker, || {
        let h = Rc::new(RefCell::new(Hashing::default()));
        run_ticker(Some(Box::new(Rc::clone(&h))));
        let hasher = h.borrow();
        hasher.0.hash()
    });

    let plain = || scenario().run().run_stats.events;
    let off = RunOptions::default();
    let absent = paired_ratio("scenario/telemetry_absent", ROUNDS, plain, || observed(off));
    let traced = paired_ratio("scenario/trace_hash", ROUNDS, plain, || {
        observed(RunOptions {
            trace_hash: true,
            ..off
        })
    });
    let full = paired_ratio("scenario/telemetry_full", ROUNDS, plain, || {
        observed(RunOptions {
            telemetry: Some(TelemetryConfig::default()),
            ..off
        })
    });
    for stride in [16, 1] {
        paired_ratio(
            &format!("scenario/invariants_stride_{stride}"),
            PRICED_ROUNDS,
            plain,
            || {
                observed(RunOptions {
                    check_invariants: true,
                    invariant_stride: stride,
                    ..off
                })
            },
        );
    }

    // The ticker handler is a few ns, so two virtual calls per event
    // register as tens of percent *there* and disappear into the handler
    // cost on a real workload: generous on the empty-handler loop, tight on
    // the scenario. "Absent" is the identical code path (`run()` delegates
    // to `run_observed` with default options): a noise allowance, not a
    // cost budget.
    for (what, ratio, bound) in [
        ("a nop observer on an empty handler", nop, 2.0),
        ("absent telemetry", absent, 1.02),
        ("trace hashing a real scenario", traced, 1.15),
        ("full telemetry on a real scenario", full, 1.10),
    ] {
        assert!(
            ratio < bound,
            "{what} costs {:+.1}% (≥ {:.0}%)",
            100.0 * (ratio - 1.0),
            100.0 * (bound - 1.0)
        );
        println!("  ok: {what} costs {:+.1}%", 100.0 * (ratio - 1.0));
    }
}
