//! Arena churn smoke: under sustained join→depart→rejoin turnover the
//! peer arena must recycle vacated slots instead of growing with total
//! arrivals — the memory property the million-peer refactor exists for.
//! (That a reused slot answers only for its new node id is the arena's
//! own model-checked property test in cs-proto.)

use coolstreaming::Scenario;
use cs_sim::SimTime;

/// A steady arrival stream whose sessions end well inside the horizon,
/// so the population turns over several times: total arrivals is a
/// multiple of peak concurrency, and the slot count must track the
/// latter.
#[test]
fn churn_recycles_arena_slots() {
    let mut scenario = Scenario::steady(1.5)
        .with_seed(77)
        .with_window(SimTime::ZERO, SimTime::from_mins(30));
    scenario.snapshot_interval = None;
    let a = scenario.run();

    let world = &a.world;
    let stats = &world.stats;
    assert!(
        a.scheduled_arrivals > 1_000,
        "want a large-N smoke, got {} arrivals",
        a.scheduled_arrivals
    );
    let departs = stats.finished_departs + stats.impatient_departs + stats.giveup_departs;
    assert!(
        departs > 500,
        "scenario must actually churn; only {departs} departures"
    );

    // The witness: the slab stops growing once the free list can serve
    // arrivals, so allocated slots stay near peak concurrency while
    // total arrivals keep climbing past it.
    assert!(
        world.peer_slots() < a.scheduled_arrivals / 2,
        "free-list reuse broken: {} slots for {} arrivals (live now: {})",
        world.peer_slots(),
        a.scheduled_arrivals,
        world.peer_count()
    );
    assert!(
        world.peer_slots() >= world.peer_count(),
        "slots ({}) below live population ({})",
        world.peer_slots(),
        world.peer_count()
    );
}
