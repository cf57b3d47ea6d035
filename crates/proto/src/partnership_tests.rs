//! Direct unit tests for the partnership manager (§IV.B): the adaptation
//! inequalities (1) and (2), the `T_a` cool-down, and partner
//! re-selection. These drive `Partnership` through its `pub(crate)`
//! surface against a minimal world (source + two servers), with state
//! planted via the managers' test injectors instead of field surgery: a
//! partner's buffer map is whatever its installed buffer advertises when
//! the exchange is gathered.

use cs_net::{Bandwidth, ConnectivityPolicy, LatencyModel, Network, NodeId};
use cs_sim::SimTime;

use crate::buffer::StreamBuffer;
use crate::membership::Membership;
use crate::params::Params;
use crate::partnership::Partnership;
use crate::stream::{Exchange, Stream};
use crate::world::CsWorld;

/// Source (node 0) plus two dedicated servers (nodes 1, 2).
fn tiny_world() -> CsWorld {
    let net = Network::new(ConnectivityPolicy::default(), LatencyModel::default(), 7);
    CsWorld::new(Params::default(), net, 2, Bandwidth::mbps(100), 7)
}

/// Install on `q` a buffer holding sub-stream 0 up to `latest0` (a
/// multiple of `K`) and nothing else: the row `q` advertises.
fn hold(world: &mut CsWorld, q: NodeId, latest0: u64) {
    let mut buf = StreamBuffer::new(world.params.substreams, latest0);
    assert_eq!(buf.advance(0, 1), Some(latest0), "not a sub-stream-0 seq");
    Stream::of(world).inject_buffer(q, buf);
}

/// One tick's adaptation of `id`, on the exchange gathered at `now`.
fn adapt(world: &mut CsWorld, id: NodeId, now: SimTime) {
    let mut rows = Vec::new();
    let bm = Exchange::gather(world, id, now, &mut rows);
    Partnership::of(world).adapt(id, now, &bm);
}

/// Partner re-selection of `id`, on the exchange gathered at `now`.
fn reselect(world: &mut CsWorld, id: NodeId, now: SimTime) {
    let mut rows = Vec::new();
    let bm = Exchange::gather(world, id, now, &mut rows);
    Partnership::of(world).reselect_partner(id, &bm);
}

/// A node with a buffer started at seq 300 and sub-stream 0 subscribed to
/// `parent`, partnered with `parent` holding sub-stream 0 up to
/// `latest0_parent` and `other` holding it up to `latest0_other`. With
/// defaults (K = 6), sub-stream 0's "nothing received yet" baseline is
/// `first_wanted − K = 294`.
fn plant_adaptation_state(
    world: &mut CsWorld,
    id: NodeId,
    parent: NodeId,
    latest0_parent: u64,
    other: NodeId,
    latest0_other: u64,
) {
    let k = world.params.substreams;
    Stream::of(world).inject_buffer(id, StreamBuffer::new(k, 300));
    hold(world, parent, latest0_parent);
    hold(world, other, latest0_other);
    Partnership::of(world).inject_partner(id, parent);
    Partnership::of(world).inject_partner(id, other);
    Stream::of(world).subscribe(id, 0, parent);
}

#[test]
fn inequality_one_triggers_adaptation() {
    // Inequality (1): the parent already holds blocks the node lacks by
    // ≥ T_s — the parent won't push fast enough. Baseline own = 294,
    // parent's head 390: 390 − 294 = 96 = T_s fires. The alternative
    // partner at 396 keeps inequality (2) silent (396 − 390 = 6 < T_p).
    let mut world = tiny_world();
    let (a, b, c) = (world.servers[0], world.servers[1], world.source);
    plant_adaptation_state(&mut world, a, b, 390, c, 396);
    let now = SimTime::from_secs(60);

    adapt(&mut world, a, now);

    assert_eq!(world.stats.adaptations, 1);
    let p = world.peer(a).unwrap();
    assert_eq!(p.parents()[0], Some(c), "switched to the fresher partner");
    assert_eq!(p.partnership.last_adapt(), Some(now));
    assert_eq!(world.sessions[a.index()].adaptations, 1);
    assert!(world.peer(c).unwrap().children().contains(&(a, 0)));
    assert!(world.peer(b).unwrap().children().is_empty());
}

#[test]
fn inequality_two_triggers_adaptation() {
    // Inequality (2): the parent lags the best partner by ≥ T_p. The
    // parent's head 300 keeps inequality (1) silent (300 − 294 = 6 <
    // T_s), but the other partner's 396 gives 396 − 300 = 96 = T_p.
    let mut world = tiny_world();
    let (a, b, c) = (world.servers[0], world.servers[1], world.source);
    plant_adaptation_state(&mut world, a, b, 300, c, 396);
    let now = SimTime::from_secs(60);

    adapt(&mut world, a, now);

    assert_eq!(world.stats.adaptations, 1);
    assert_eq!(world.peer(a).unwrap().parents()[0], Some(c));
}

#[test]
fn cooldown_holds_adaptations_to_one_per_ta() {
    let mut world = tiny_world();
    let (a, b, c) = (world.servers[0], world.servers[1], world.source);
    plant_adaptation_state(&mut world, a, b, 390, c, 396);
    let t0 = SimTime::from_secs(60);
    adapt(&mut world, a, t0);
    assert_eq!(world.stats.adaptations, 1);
    assert_eq!(world.peer(a).unwrap().parents()[0], Some(c));

    // Re-arm the trigger against the *new* parent c: inequality (1)
    // fires again (390 − 294 = 96 = T_s), and b is the fresh candidate.
    hold(&mut world, c, 390);
    hold(&mut world, b, 396);

    // Within T_a (= 10 s by default) of the last adaptation: held.
    adapt(&mut world, a, SimTime::from_secs(62));
    assert_eq!(world.stats.adaptations, 1, "cool-down must gate the switch");
    assert_eq!(world.peer(a).unwrap().parents()[0], Some(c));

    // Once T_a elapses the same trigger goes through.
    let t1 = SimTime::from_secs(75);
    adapt(&mut world, a, t1);
    assert_eq!(world.stats.adaptations, 2);
    assert_eq!(world.peer(a).unwrap().parents()[0], Some(b));
    assert_eq!(world.peer(a).unwrap().partnership.last_adapt(), Some(t1));
}

#[test]
fn reselect_drops_nonparent_victim_on_both_sides() {
    // a's partners: b (serving sub-stream 0, protected) and c (not a
    // parent, stalest buffer map → the victim). The teardown must be
    // mutual and clear every cross-reference, like a real partner
    // departure.
    let mut world = tiny_world();
    let (a, b, c) = (world.servers[0], world.servers[1], world.source);
    hold(&mut world, b, 402);
    hold(&mut world, c, 12);
    Partnership::of(&mut world).inject_partner(a, b);
    Partnership::of(&mut world).inject_partner(a, c);
    Partnership::of(&mut world).inject_partner(c, a);
    Stream::of(&mut world).subscribe(a, 0, b);
    Stream::of(&mut world).subscribe(c, 1, a); // victim also pulls from a

    reselect(&mut world, a, SimTime::from_secs(30));

    let pa = world.peer(a).unwrap();
    assert!(!pa.partners().contains(c), "victim dropped");
    assert!(pa.partners().contains(b), "serving parent kept");
    assert!(pa.children().is_empty(), "victim's subscription detached");
    let pc = world.peer(c).unwrap();
    assert!(!pc.partners().contains(a), "removal is mutual");
    assert_eq!(pc.parents()[1], None, "victim's parent slot cleared");
}

#[test]
fn reselect_recruits_deterministically_from_mcache() {
    // Candidate choice runs off the seeded membership stream over the
    // BTreeMap-ordered mCache: two identically built worlds must make
    // the same pick (and the same dead-entry cleanup).
    let build = || {
        let mut world = tiny_world();
        let (a, b, c) = (world.servers[0], world.servers[1], world.source);
        hold(&mut world, b, 402);
        Partnership::of(&mut world).inject_partner(a, b);
        Stream::of(&mut world).subscribe(a, 0, b); // only partner is a parent: no victim
        let mut rng = cs_sim::rng::Xoshiro256PlusPlus::new(11);
        for id in [c, NodeId(77)] {
            // NodeId(77) was never added to the network → dead candidate.
            Membership::of(&mut world).inject_cache_entry(a, id, &mut rng);
        }
        reselect(&mut world, a, SimTime::from_secs(30));
        let p = world.peer(a).unwrap();
        (
            p.partners().ids().to_vec(),
            p.mcache().contains(NodeId(77)),
            world.stats.partnerships,
        )
    };
    let first = build();
    let second = build();
    assert_eq!(first.0, second.0, "partner outcome must be deterministic");
    assert_eq!(first, second);
    // Whichever way the draw went, a dead pick is forgotten, a live pick
    // becomes a partnership; the serving parent is never touched.
    assert!(first.0.contains(&NodeId(2)), "parent b retained");
    if first.0.len() == 2 {
        assert!(first.0.contains(&NodeId(0)), "recruited the live candidate");
    } else {
        assert!(!first.1, "dead candidate must be forgotten");
    }
}

#[test]
fn dead_partner_is_pruned_on_view_refresh() {
    let mut world = tiny_world();
    let (a, b) = (world.servers[0], world.servers[1]);
    Partnership::of(&mut world).inject_partner(a, b);
    Stream::of(&mut world).subscribe(a, 0, b);
    let mut rng = cs_sim::rng::Xoshiro256PlusPlus::new(3);
    Membership::of(&mut world).inject_cache_entry(a, b, &mut rng);

    world.net.remove_node(b);
    world.remove_peer(b);
    Partnership::of(&mut world).refresh_views(a);

    let p = world.peer(a).unwrap();
    assert!(p.partners().is_empty(), "dead partner pruned");
    assert_eq!(p.parents()[0], None, "its parent slot cleared");
    assert!(!p.mcache().contains(b), "and its mCache entry dropped");
}
