//! The invariant-oracle regression harness: canonical scenarios run
//! under the `InvariantChecker` with golden trace-hash snapshots.
//!
//! Each scenario must (a) finish with zero invariant violations and
//! (b) reproduce the recorded trace hash exactly. A hash mismatch means
//! the event sequence changed — either an intentional protocol change
//! (regenerate the goldens) or an accidental determinism break.
//!
//! Regenerate goldens after an intentional change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p cs-integration --test invariant_oracles
//! ```

use coolstreaming::{RunOptions, Scenario, ScenarioSpec};
use cs_integration::check_golden_in;
use cs_net::Bandwidth;
use cs_proto::Event;
use cs_sim::SimTime;

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/trace_hashes.txt");
const GOLDEN_HEADER: &str = "Golden trace hashes. Regenerate: UPDATE_GOLDEN=1 cargo test -p cs-integration --test invariant_oracles";

/// Compare `hash` against the golden entry `name`, or record it when
/// `UPDATE_GOLDEN=1` is set.
fn check_golden(name: &str, hash: u64) {
    check_golden_in(GOLDEN_PATH, GOLDEN_HEADER, name, hash);
}

const FULL_CHECK: RunOptions = RunOptions {
    invariant_stride: Some(1),
    trace_hash: true,
    record_spans: false,
    telemetry: None,
};

/// Steady state: constant arrivals and departures around equilibrium.
#[test]
fn steady_state_is_invariant_clean() {
    let run = Scenario::steady(0.4)
        .with_seed(301)
        .with_window(SimTime::ZERO, SimTime::from_mins(6))
        .run_observed(FULL_CHECK);
    let chk = run.invariants.expect("checker requested");
    assert!(chk.is_clean(), "{}", chk.report());
    assert!(
        chk.checks_run() > 1_000,
        "checker barely ran: {}",
        chk.checks_run()
    );
    assert!(run.artifacts.world.stats.arrivals > 50);
    check_golden("steady_state", run.trace_hash.expect("hash requested"));
}

/// Flash crowd: the broadcast-evening arrival surge (§V.B), where
/// partnership and sub-stream structure churn the hardest.
#[test]
fn flash_crowd_is_invariant_clean() {
    let run = Scenario::event_day(0.004)
        .with_seed(302)
        .with_window(
            SimTime::from_hours(19),
            SimTime::from_hours(19) + SimTime::from_mins(10),
        )
        .run_observed(FULL_CHECK);
    let chk = run.invariants.expect("checker requested");
    assert!(chk.is_clean(), "{}", chk.report());
    assert!(run.artifacts.world.stats.arrivals > 20, "no crowd arrived");
    check_golden("flash_crowd", run.trace_hash.expect("hash requested"));
}

/// Server crash mid-run: children must repair onto other parents without
/// the structural invariants ever breaking, even transiently.
#[test]
fn server_crash_is_invariant_clean() {
    let run = Scenario::steady(0.4)
        .with_seed(303)
        .with_window(SimTime::ZERO, SimTime::from_mins(10))
        .with_servers(2, Bandwidth::mbps(24))
        .run_injected_observed(
            vec![(SimTime::from_mins(4), Event::CrashServer(0))],
            FULL_CHECK,
        );
    let world = &run.artifacts.world;
    assert!(
        !world.net.is_alive(world.servers[0]),
        "the crash never happened"
    );
    let chk = run.invariants.expect("checker requested");
    assert!(chk.is_clean(), "{}", chk.report());
    // The crash event itself must be part of the hashed trace.
    check_golden("server_crash", run.trace_hash.expect("hash requested"));
}

/// The soak, cheaply: `scenarios/steady_state.json`'s audience in a
/// 15-minute window that starts at 4·10⁸ s (day 4 630). The event
/// queue's ring pulls and upper-wheel carries then run at an absolute
/// time no other test reaches, where a carry that skipped a parked slot
/// would misorder or lose events.
#[test]
fn steady_audience_soaks_clean_at_four_hundred_million_seconds() {
    const START_S: u64 = 400_000_000;
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../scenarios/steady_state.json"
    );
    let text = std::fs::read_to_string(path).expect("readable scenario file");
    let mut spec = ScenarioSpec::from_json(&text).expect("steady_state.json parses");
    spec.start_s = Some(START_S);
    spec.end_s = Some(START_S + 15 * 60);
    let compiled = spec.compile().expect("the shifted window compiles");
    let run = compiled.scenario.run_injected_observed(
        compiled.injections,
        RunOptions {
            trace_hash: false,
            // The telemetry tests' stride: each check is O(peers), and
            // at stride 1 this window runs about fifty times longer.
            invariant_stride: Some(64),
            ..FULL_CHECK
        },
    );
    let chk = run.invariants.expect("checker requested");
    assert!(chk.is_clean(), "{}", chk.report());
    assert!(
        chk.checks_run() > 2_000,
        "checker barely ran: {}",
        chk.checks_run()
    );
    let world = &run.artifacts.world;
    assert!(
        world.stats.arrivals > 200,
        "{} arrivals",
        world.stats.arrivals
    );
    let users: Vec<_> = world
        .sessions
        .iter()
        .filter(|r| r.class.is_user())
        .collect();
    assert!(!users.is_empty());
    for rec in users {
        assert!(
            rec.reason.is_some(),
            "session of {:?} not finalized",
            rec.user
        );
        assert!(
            rec.join >= SimTime::from_secs(START_S),
            "{:?} joined before the window",
            rec.user
        );
    }
}

/// The same harness catches corruption: strip one side of a partnership
/// in the final state and the oracle must flag it. Guards against the
/// checker silently passing everything.
#[test]
fn harness_detects_planted_corruption() {
    let run = Scenario::steady(0.4)
        .with_seed(301)
        .with_window(SimTime::ZERO, SimTime::from_mins(6))
        .run_observed(RunOptions {
            invariant_stride: Some(1),
            trace_hash: false,
            record_spans: false,
            telemetry: None,
        });
    let mut chk = run.invariants.expect("checker requested");
    assert!(chk.is_clean());
    // Re-validate a world whose accounting we break: lie about arrivals.
    let mut world = run.artifacts.world;
    world.stats.arrivals += 1;
    chk.check_world(SimTime::from_mins(6), &world);
    assert!(
        !chk.is_clean(),
        "oracle failed to flag a session-accounting mismatch"
    );
    assert!(chk.report().contains("session-count"), "{}", chk.report());
}
