//! Fine-grained protocol-mechanics tests on crafted micro-worlds:
//! parent qualification, subscription bookkeeping, adaptation triggers,
//! failure injection, and the join state machine.

use cs_logging::UserId;
use cs_net::{Bandwidth, ConnectivityPolicy, LatencyModel, Network, NodeClass, NodeId};
use cs_proto::{CsWorld, Event, Params, UserSpec};
use cs_sim::{Engine, SimTime};

fn params() -> Params {
    Params::default()
}

fn world_with(params: Params, servers: usize, seed: u64) -> Engine<CsWorld> {
    let net = Network::new(ConnectivityPolicy::strict(), LatencyModel::default(), seed);
    let world = CsWorld::new(params, net, servers, Bandwidth::mbps(50), seed);
    let mut eng = Engine::new(world);
    for (t, e) in eng.world().initial_events() {
        eng.schedule_at(t, e);
    }
    eng
}

fn spec(user: u32, class: NodeClass, kbps: u64, leave_s: u64) -> UserSpec {
    UserSpec {
        user: UserId(user),
        class,
        upload: Bandwidth::kbps(kbps),
        leave_at: SimTime::from_secs(leave_s),
        patience: SimTime::from_secs(120),
        retries_left: 0,
        retry_index: 0,
    }
}

/// A single joiner must subscribe all K sub-streams to the server and
/// start within the §IV.A position (m − T_p).
#[test]
fn join_subscribes_all_substreams_near_live_edge() {
    let mut eng = world_with(params(), 1, 1);
    eng.schedule_at(
        SimTime::from_secs(60),
        Event::Arrive(spec(0, NodeClass::Nat, 300, 10_000)),
    );
    eng.run_until(SimTime::from_secs(90));
    let w = eng.world();
    let id = NodeId(2); // source=0, server=1
    let peer = w.peer(id).expect("alive");
    let k = w.params.substreams;
    for j in 0..k {
        assert_eq!(
            peer.parents()[j as usize],
            Some(w.servers[0]),
            "substream {j} not on the server"
        );
    }
    let buf = peer.buffer().expect("buffer chosen");
    // Start position within [edge − T_p − slack, edge].
    let edge_at_join = w.params.live_edge(SimTime::from_secs(61)).unwrap();
    let lo = edge_at_join.saturating_sub(w.params.tp_blocks + 40);
    assert!(
        buf.start_seq() >= lo && buf.start_seq() <= edge_at_join,
        "start {} not within [{}, {}]",
        buf.start_seq(),
        lo,
        edge_at_join
    );
    // And the server's child list mirrors the subscriptions.
    let server = w.peer(w.servers[0]).unwrap();
    assert_eq!(server.out_degree(), k as usize);
}

/// The cool-down confines quality adaptations: a starving child switches
/// at most once per `T_a`.
#[test]
fn cooldown_limits_adaptation_frequency() {
    let mut p = params();
    p.ta = SimTime::from_secs(30);
    // Tiny server so everything starves and adaptation pressure is
    // constant.
    let net = Network::new(ConnectivityPolicy::strict(), LatencyModel::default(), 2);
    let world = CsWorld::new(p, net, 1, Bandwidth::kbps(900), 2);
    let mut eng = Engine::new(world);
    for (t, e) in eng.world().initial_events() {
        eng.schedule_at(t, e);
    }
    for u in 0..6 {
        eng.schedule_at(
            SimTime::from_secs(30),
            Event::Arrive(spec(u, NodeClass::Nat, 200, 10_000)),
        );
    }
    eng.run_until(SimTime::from_secs(330));
    let w = eng.world();
    // 300 s of pressure with T_a = 30 s → at most ~10 adaptations each,
    // plus the initial one.
    for rec in w.sessions.iter().filter(|r| r.class.is_user()) {
        assert!(
            rec.adaptations <= 11,
            "user {:?} adapted {} times in 300s despite T_a=30s",
            rec.user,
            rec.adaptations
        );
    }
}

/// Crashing a server orphans its children, who repair onto the other
/// server without leaving.
#[test]
fn server_crash_repairs_via_adaptation() {
    let mut eng = world_with(params(), 2, 3);
    for u in 0..10 {
        eng.schedule_at(
            SimTime::from_secs(30),
            Event::Arrive(spec(u, NodeClass::Nat, 300, 10_000)),
        );
    }
    eng.run_until(SimTime::from_secs(120));
    let crashed = eng.world().servers[0];
    assert!(eng.world().net.is_alive(crashed));
    eng.schedule_at(SimTime::from_secs(121), Event::CrashServer(0));
    eng.run_until(SimTime::from_secs(240));
    let w = eng.world();
    assert!(!w.net.is_alive(crashed), "server did not crash");
    // All peers still alive and streaming from live parents.
    let mut streaming = 0;
    for info in w.net.iter_alive().filter(|n| n.class.is_user()) {
        let peer = w.peer(info.id).unwrap();
        for parent in peer.parents().iter().flatten() {
            assert!(w.net.is_alive(*parent), "dead parent kept after crash");
            assert_ne!(*parent, crashed);
        }
        if peer.parents().iter().any(Option::is_some) {
            streaming += 1;
        }
    }
    assert_eq!(streaming, 10, "peers lost service permanently");
}

/// Scheduled user departures must not tear down infrastructure, even if
/// a stray Depart event targets it.
#[test]
fn infrastructure_ignores_depart_events() {
    let mut eng = world_with(params(), 1, 4);
    let server = eng.world().servers[0];
    let source = eng.world().source;
    eng.schedule_at(SimTime::from_secs(10), Event::Depart(server));
    eng.schedule_at(SimTime::from_secs(10), Event::Depart(source));
    eng.run_until(SimTime::from_secs(20));
    assert!(eng.world().net.is_alive(server));
    assert!(eng.world().net.is_alive(source));
}

/// Retries consume the budget: a user with `retries_left = 1` appears at
/// most twice.
#[test]
fn retry_budget_is_finite() {
    // No servers → joins can never complete; patience forces retries.
    let mut eng = world_with(params(), 0, 5);
    let mut s = spec(0, NodeClass::Nat, 300, 4_000);
    s.patience = SimTime::from_secs(15);
    s.retries_left = 1;
    eng.schedule_at(SimTime::from_secs(5), Event::Arrive(s));
    eng.run_until(SimTime::from_secs(600));
    let w = eng.world();
    let sessions = w
        .sessions
        .iter()
        .filter(|r| r.class.is_user() && r.user == UserId(0))
        .count();
    assert_eq!(sessions, 2, "retry budget not respected");
    assert_eq!(w.stats.impatient_departs, 2);
}

/// Log-reported partner direction: the initiating side reports the
/// partnership as outgoing, the accepting side as incoming.
#[test]
fn partnership_direction_bookkeeping() {
    let mut eng = world_with(params(), 1, 7);
    eng.schedule_at(
        SimTime::from_secs(30),
        Event::Arrive(spec(0, NodeClass::DirectConnect, 3000, 10_000)),
    );
    // Second joiner may partner with the first (public) peer.
    eng.schedule_at(
        SimTime::from_secs(60),
        Event::Arrive(spec(1, NodeClass::Nat, 300, 10_000)),
    );
    eng.run_until(SimTime::from_secs(120));
    let w = eng.world();
    let first = w.peer(NodeId(2)).unwrap();
    let second = w.peer(NodeId(3)).unwrap();
    if let Some(outgoing) = second.partners().outgoing(NodeId(2)) {
        assert!(outgoing, "initiator must mark partnership outgoing");
        let back = first.partners().outgoing(NodeId(3)).expect("symmetric");
        assert!(!back, "acceptor must mark partnership incoming");
    } else {
        // The NAT peer must at least hold the server partnership.
        assert!(second.partners().contains(w.servers[0]));
    }
}

/// Give-up departures release every resource: after a mass give-up, no
/// parent anywhere references a departed node.
#[test]
fn giveup_cleanup_is_complete() {
    let mut p = params();
    p.giveup_ticks = 6;
    // Server far too small for the audience → give-ups guaranteed.
    let net = Network::new(ConnectivityPolicy::strict(), LatencyModel::default(), 8);
    let world = CsWorld::new(p, net, 1, Bandwidth::kbps(1200), 8);
    let mut eng = Engine::new(world);
    for (t, e) in eng.world().initial_events() {
        eng.schedule_at(t, e);
    }
    for u in 0..12 {
        let mut s = spec(u, NodeClass::Nat, 200, 10_000);
        s.retries_left = 2;
        eng.schedule_at(SimTime::from_secs(30), Event::Arrive(s));
    }
    eng.run_until(SimTime::from_secs(900));
    let w = eng.world();
    assert!(
        w.stats.giveup_departs > 0,
        "no give-ups in a starved overlay"
    );
    for info in w.net.iter_alive() {
        if let Some(peer) = w.peer(info.id) {
            for q in peer.partners().ids() {
                assert!(w.net.is_alive(*q), "dangling partner {q:?}");
            }
            for (c, _) in peer.children() {
                // Children lists may lag one push round; they must never
                // reference a *recycled* slot.
                if !w.net.is_alive(*c) {
                    assert!(w.peer(*c).is_none(), "child slot not cleared");
                }
            }
        }
    }
}
