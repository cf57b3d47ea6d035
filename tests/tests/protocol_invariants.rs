//! Protocol-state invariants, checked on live worlds mid-run and at the
//! horizon: referential integrity of the partner/parent/child graph, the
//! `M` bound, cool-down monotonicity, and session-record sanity.

use coolstreaming::{RunOptions, Scenario, ScenarioSpec};
use cs_integration::session_table_text;
use cs_proto::{finalize_sessions, CsWorld};
use cs_sim::SimTime;

fn assert_invariants(world: &CsWorld, label: &str) {
    for info in world.net.iter_alive() {
        let Some(peer) = world.peer(info.id) else {
            continue;
        };
        // Partner bound M (per class).
        let max = world.params.max_partners_for(info.class);
        assert!(
            peer.partners().len() <= max,
            "{label}: {:?} has {} partners > M = {max}",
            info.id,
            peer.partners().len()
        );
        // Partner symmetry and liveness.
        for (q, view) in peer.partners().iter() {
            assert!(
                world.net.is_alive(q),
                "{label}: {:?} partnered with dead {:?}",
                info.id,
                q
            );
            let back = world
                .peer(q)
                .map(|qp| qp.partners().contains(info.id))
                .unwrap_or(false);
            assert!(
                back,
                "{label}: partnership {:?}→{:?} not symmetric",
                info.id, q
            );
            // Directions are complementary.
            let q_view_outgoing = world
                .peer(q)
                .unwrap()
                .partners()
                .get(info.id)
                .unwrap()
                .outgoing;
            assert_ne!(
                view.outgoing, q_view_outgoing,
                "{label}: both ends claim the same direction"
            );
        }
        // Parents are partners (selection never leaves the partner set).
        for parent in peer.parents().iter().flatten() {
            assert!(
                peer.partners().contains(*parent),
                "{label}: {:?} has non-partner parent {:?}",
                info.id,
                parent
            );
            // And the parent's children list contains us.
            let listed = world
                .peer(*parent)
                .map(|pp| pp.children().iter().any(|&(c, _)| c == info.id))
                .unwrap_or(false);
            assert!(
                listed,
                "{label}: parent {:?} does not list child {:?}",
                parent, info.id
            );
        }
        // Children entries are live peers pointing back at us via their
        // parent slots.
        for &(c, j) in peer.children() {
            assert_eq!(
                world.peer(c).map(|cp| cp.parents()[j as usize]),
                Some(Some(info.id)),
                "{label}: stale subscription ({:?}, {j}) at {:?}",
                c,
                info.id
            );
        }
        // Buffer sanity: no sub-stream is ahead of the live edge.
        if let Some(buf) = peer.buffer() {
            if let Some(edge) = world.params.live_edge(SimTime::MAX) {
                for i in 0..world.params.substreams {
                    if let Some(h) = buf.latest(i) {
                        assert!(h <= edge);
                    }
                }
            }
        }
    }
}

#[test]
fn graph_invariants_hold_throughout_a_churny_run() {
    let scenario = Scenario::steady(0.5)
        .with_seed(42)
        .with_window(SimTime::ZERO, SimTime::from_mins(15));
    // Re-run to successive horizons: cheap way to sample invariant state
    // at several times deterministically.
    for minutes in [3u64, 6, 10, 15] {
        let artifacts = Scenario {
            horizon: SimTime::from_mins(minutes),
            ..scenario.clone()
        }
        .run();
        assert_invariants(&artifacts.world, &format!("t={minutes}m"));
    }
}

#[test]
fn session_records_are_well_ordered() {
    let artifacts = Scenario::steady(0.6)
        .with_seed(43)
        .with_window(SimTime::ZERO, SimTime::from_mins(20))
        .run();
    let mut finished = 0;
    for rec in artifacts
        .world
        .sessions
        .iter()
        .filter(|r| r.class.is_user())
    {
        if let Some(ss) = rec.start_sub {
            assert!(ss >= rec.join, "start_sub before join: {rec:?}");
        }
        if let Some(r) = rec.ready {
            assert!(r >= rec.start_sub.expect("ready implies start_sub"));
        }
        if let Some(l) = rec.leave {
            assert!(l >= rec.join);
            finished += 1;
        }
        assert!(rec.missed <= rec.due, "missed > due: {rec:?}");
        assert!(rec.reason.is_some(), "unfinalized record: {rec:?}");
    }
    assert!(finished > 100, "not enough completed sessions ({finished})");
}

#[test]
fn servers_never_leave_and_never_consume() {
    let artifacts = Scenario::steady(0.4)
        .with_seed(44)
        .with_window(SimTime::ZERO, SimTime::from_mins(12))
        .run();
    let w = &artifacts.world;
    for &s in &w.servers {
        assert!(w.net.is_alive(s), "server {s:?} departed");
        let rec = &w.sessions[s.index()];
        assert_eq!(rec.down_bytes, 0, "server downloaded from peers");
        assert!(rec.up_bytes > 0, "server {s:?} never served anyone");
    }
    assert!(w.net.is_alive(w.source));
}

#[test]
fn upload_accounting_balances() {
    let artifacts = Scenario::steady(0.4)
        .with_seed(45)
        .with_window(SimTime::ZERO, SimTime::from_mins(15))
        .run();
    let up: u64 = artifacts.world.sessions.iter().map(|r| r.up_bytes).sum();
    let down: u64 = artifacts.world.sessions.iter().map(|r| r.down_bytes).sum();
    assert_eq!(
        up, down,
        "every uploaded byte must be downloaded by someone"
    );
    let blocks = artifacts.world.stats.blocks_delivered;
    assert_eq!(
        up,
        blocks * artifacts.world.params.block_bytes as u64,
        "byte counters disagree with block counters"
    );
}

/// The same identity where peers go away the hard way: graceful departs
/// under a flash crowd, `CrashServer` + restart, and a `RegionalOutage`.
/// Every exit folds the peer's unreported counters into its session
/// record, so the finalised table conserves bytes — and finalising it a
/// second time changes nothing.
#[test]
fn upload_accounting_balances_through_teardown() {
    for name in ["flash_crowd", "server_crash", "regional_outage"] {
        let path = format!("{}/../scenarios/{name}.json", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&path).expect("readable scenario file");
        let compiled = ScenarioSpec::from_json(&text)
            .and_then(|spec| spec.compile())
            .unwrap_or_else(|e| panic!("{path}: {e}"));
        let run = compiled
            .scenario
            .run_injected_observed(compiled.injections, RunOptions::default());
        let mut world = run.artifacts.world;
        let gone = world.sessions.iter().filter(|r| r.leave.is_some()).count();
        assert!(gone > 10, "{name}: only {gone} sessions ended");
        let up: u64 = world.sessions.iter().map(|r| r.up_bytes).sum();
        let down: u64 = world.sessions.iter().map(|r| r.down_bytes).sum();
        assert_eq!(up, down, "{name}: bytes uploaded != bytes downloaded");
        assert_eq!(
            up,
            world.stats.blocks_delivered * world.params.block_bytes as u64,
            "{name}: byte counters disagree with block counters"
        );
        let once = session_table_text(&world.sessions);
        finalize_sessions(&mut world);
        assert_eq!(
            session_table_text(&world.sessions),
            once,
            "{name}: a second finalize_sessions moved the table"
        );
    }
}

#[test]
fn adaptation_counters_are_consistent() {
    let artifacts = Scenario::steady(0.5)
        .with_seed(46)
        .with_window(SimTime::ZERO, SimTime::from_mins(15))
        .run();
    let per_session: u64 = artifacts
        .world
        .sessions
        .iter()
        .map(|r| r.adaptations as u64)
        .sum();
    assert_eq!(
        per_session, artifacts.world.stats.adaptations,
        "session-level and world-level adaptation counts disagree"
    );
}
