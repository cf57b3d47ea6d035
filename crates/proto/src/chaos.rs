//! The chaos injector (scenario DSL `events` section, DESIGN.md §10).
//!
//! A fourth manager next to membership/partnership/stream: it owns the
//! timed chaos injections a scenario file can schedule — server
//! restarts, correlated regional outages, connectivity-policy shifts,
//! upload-capacity skew and free-rider conversion. (Server *crashes*
//! and boot-strap flaps predate the DSL and stay with the membership
//! manager: `Membership::crash_server` / `Membership::set_bootstrap`.)
//!
//! Every handler is deterministic integer/state manipulation — no
//! entropy, no ambient clocks — so injections preserve trace-hash
//! reproducibility: the same scenario file and seed replay the same
//! event sequence byte for byte.

use cs_logging::UserId;
use cs_net::{Bandwidth, ConnectivityPolicy, NodeClass, NodeId};
use cs_sim::{Ctx, SimTime};

use crate::partnership::Partnership;
use crate::peer::PeerCore;
use crate::session::DepartReason;
use crate::world::{CsWorld, Event};

/// Uplink assigned to converted free-riders: the capacity model's hard
/// floor ([`Bandwidth::FLOOR`]), i.e. effectively no useful contribution.
pub const FREE_RIDER_BPS: u64 = Bandwidth::FLOOR.0;

/// Spacing between staggered post-outage rejoins, so a healed partition
/// produces a ramp rather than a single thundering-herd timestamp.
const REJOIN_STAGGER: SimTime = SimTime(250_000); // 250 ms

/// The chaos manager: timed fault and population-shift injections over
/// the shared world.
pub(crate) struct Chaos<'w> {
    w: &'w mut CsWorld,
}

impl<'w> Chaos<'w> {
    /// Borrow the world as its chaos injector.
    pub(crate) fn of(w: &'w mut CsWorld) -> Self {
        Chaos { w }
    }
}

impl Chaos<'_> {
    /// Bring a crashed dedicated server back under its original node id:
    /// revive the network record, rebuild fresh peer state, reopen the
    /// session record, and restart its push rounds. The boot-strap
    /// tracker still lists the id (crash never deregisters servers), so
    /// joiners rediscover it as soon as it is alive again.
    pub(crate) fn restart_server(&mut self, ix: usize, now: SimTime, ctx: &mut Ctx<'_, Event>) {
        let Some(&id) = self.w.servers.get(ix) else {
            return;
        };
        if self.w.net.is_alive(id) {
            return;
        }
        self.w.net.revive_node(id, now);
        let bw = self.w.net.node(id).upload;
        self.w.push_peer(PeerCore {
            id,
            user: UserId(u32::MAX - id.0),
            class: NodeClass::Server,
            upload: bw,
            join_time: now,
            retry_index: 0,
            intended_leave: SimTime::MAX,
            retries_left: 0,
            patience: SimTime::MAX,
        });
        let rec = &mut self.w.sessions[id.index()];
        rec.leave = None;
        rec.reason = None;
        ctx.schedule_in(self.w.params.sched_interval, Event::SchedRound(id));
    }

    /// Correlated regional outage: every live user peer whose coordinate
    /// falls in `quadrant` crashes now. Users with retries and watch
    /// time left re-enter from `heal` onwards (staggered), modelling the
    /// partition healing; `heal = SimTime::MAX` never heals.
    pub(crate) fn regional_outage(
        &mut self,
        quadrant: u8,
        heal: SimTime,
        now: SimTime,
        ctx: &mut Ctx<'_, Event>,
    ) {
        // Collect first: teardown mutates the registry under iteration.
        // `iter_alive` yields ascending node ids, so the teardown and
        // rejoin order is deterministic.
        let victims: Vec<NodeId> = self
            .w
            .net
            .iter_alive()
            .filter(|n| n.class.is_user() && n.coord.quadrant() == quadrant)
            .map(|n| n.id)
            .collect();
        let mut rejoined = 0u64;
        for id in victims {
            let retry = Partnership::of(self.w).depart(id, now, DepartReason::Outage);
            if let Some(spec) = retry {
                if heal > now && heal != SimTime::MAX {
                    ctx.schedule_at(heal + REJOIN_STAGGER * (rejoined % 64), Event::Arrive(spec));
                    rejoined += 1;
                }
            }
        }
    }

    /// NAT-share shift: swap the connectivity policy governing future
    /// node creations and connection attempts. Existing nodes keep their
    /// sampled `permissive` flag (middlebox behaviour is a property of
    /// the deployed box, not of the policy of the day).
    pub(crate) fn set_policy(&mut self, policy: ConnectivityPolicy) {
        self.w.net.set_policy(policy);
    }

    /// Upload-capacity skew: rescale every live user peer's uplink by
    /// `num / den` (integer arithmetic, floor-clamped to the capacity
    /// model's 8 kbps minimum). Infrastructure (source, servers) is
    /// never rescaled. Future arrivals keep their workload-sampled
    /// capacities.
    pub(crate) fn scale_uploads(&mut self, num: u32, den: u32) {
        if den == 0 {
            return;
        }
        let ids: Vec<NodeId> = self
            .w
            .net
            .iter_alive()
            .filter(|n| n.class.is_user())
            .map(|n| n.id)
            .collect();
        for id in ids {
            let old = self.w.net.node(id).upload.as_bps();
            let scaled = u128::from(old) * u128::from(num) / u128::from(den);
            let new = Bandwidth(
                u64::try_from(scaled)
                    .unwrap_or(u64::MAX)
                    .max(FREE_RIDER_BPS),
            );
            self.w.net.set_upload(id, new);
            if let Some(p) = self.w.peer_mut(id) {
                p.core.upload = new;
            }
        }
    }

    /// Free-rider conversion: clamp the uplink of a deterministic
    /// `per_mille` share of the live user population to the capacity
    /// floor. Selection hashes the stable node id (Knuth multiplicative),
    /// so which users free-ride is independent of arrival order and
    /// reproducible across runs.
    pub(crate) fn free_riders(&mut self, per_mille: u16) {
        let share = u64::from(per_mille.min(1000));
        let ids: Vec<NodeId> = self
            .w
            .net
            .iter_alive()
            .filter(|n| n.class.is_user() && selected(n.id, share))
            .map(|n| n.id)
            .collect();
        for id in ids {
            let floor = Bandwidth(FREE_RIDER_BPS);
            self.w.net.set_upload(id, floor);
            if let Some(p) = self.w.peer_mut(id) {
                p.core.upload = floor;
            }
        }
    }
}

/// Deterministic per-node selection: Knuth multiplicative hash of the
/// node id, reduced mod 1000 against the per-mille threshold.
fn selected(id: NodeId, per_mille: u64) -> bool {
    (u64::from(id.0).wrapping_mul(2_654_435_761) >> 16) % 1000 < per_mille
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::membership::Membership;
    use crate::params::Params;
    use crate::world::UserSpec;
    use cs_net::{LatencyModel, Network};
    use cs_sim::Engine;

    /// Source (node 0) plus two dedicated servers (nodes 1, 2).
    fn tiny_world() -> CsWorld {
        let net = Network::new(ConnectivityPolicy::default(), LatencyModel::default(), 7);
        CsWorld::new(Params::default(), net, 2, Bandwidth::mbps(100), 7)
    }

    /// Drive a real engine so handlers get a live `Ctx`.
    fn run_events(world: CsWorld, events: Vec<(SimTime, Event)>, until: SimTime) -> CsWorld {
        let mut engine = Engine::new(world);
        for (t, e) in events {
            engine.schedule_at(t, e);
        }
        engine.run_until(until);
        engine.into_world()
    }

    fn spec(user: u32, class: NodeClass, upload: Bandwidth) -> UserSpec {
        UserSpec {
            user: UserId(user),
            class,
            upload,
            leave_at: SimTime::from_hours(2),
            patience: SimTime::from_secs(300),
            retries_left: 2,
            retry_index: 0,
        }
    }

    #[test]
    fn restart_revives_a_crashed_server() {
        let world = tiny_world();
        let server = world.servers[0];
        let world = run_events(
            world,
            vec![
                (SimTime::from_secs(10), Event::CrashServer(0)),
                (SimTime::from_secs(60), Event::RestartServer(0)),
            ],
            SimTime::from_secs(61),
        );
        assert!(world.net.is_alive(server), "server not revived");
        assert!(world.peer(server).is_some(), "peer state not rebuilt");
        assert_eq!(world.sessions[server.index()].leave, None);
        assert_eq!(world.net.node(server).joined_at, SimTime::from_secs(60));
    }

    #[test]
    fn restart_of_a_live_server_is_a_noop() {
        let world = tiny_world();
        let server = world.servers[1];
        let before_join = world.net.node(server).joined_at;
        let world = run_events(
            world,
            vec![(SimTime::from_secs(5), Event::RestartServer(1))],
            SimTime::from_secs(6),
        );
        assert!(world.net.is_alive(server));
        assert_eq!(world.net.node(server).joined_at, before_join);
    }

    #[test]
    fn restarted_server_resumes_push_rounds() {
        // The restart must reschedule SchedRound: run a full engine past
        // the restart and check the server keeps dispatching (its session
        // record stays open and its peer state persists).
        let world = tiny_world();
        let server = world.servers[0];
        let mut engine = Engine::new(world);
        for (t, e) in engine.world().initial_events() {
            engine.schedule_at(t, e);
        }
        engine.schedule_at(SimTime::from_secs(10), Event::CrashServer(0));
        engine.schedule_at(SimTime::from_secs(20), Event::RestartServer(0));
        engine.run_until(SimTime::from_secs(40));
        let world = engine.into_world();
        assert!(world.net.is_alive(server));
        assert!(world.peer(server).is_some());
    }

    /// Plant a user peer via the real arrival handler so teardown paths
    /// see fully consistent state.
    fn arrive_users(world: CsWorld, specs: Vec<UserSpec>, until: SimTime) -> CsWorld {
        let events = specs
            .into_iter()
            .enumerate()
            .map(|(i, s)| (SimTime::from_secs(i as u64), Event::Arrive(s)))
            .collect();
        run_events(world, events, until)
    }

    #[test]
    fn outage_removes_quadrant_and_heals_with_rejoins() {
        let world = arrive_users(
            tiny_world(),
            (0..12)
                .map(|i| spec(i, NodeClass::DirectConnect, Bandwidth::mbps(2)))
                .collect(),
            SimTime::from_secs(30),
        );
        // Pick the quadrant holding the most live users.
        let mut per_quadrant = [0usize; 4];
        for n in world.net.iter_alive().filter(|n| n.class.is_user()) {
            per_quadrant[n.coord.quadrant() as usize] += 1;
        }
        let (q, &hit) = per_quadrant
            .iter()
            .enumerate()
            .max_by_key(|(_, c)| **c)
            .unwrap();
        assert!(hit > 0, "no users in any quadrant");
        let users_before = world.net.iter_alive().filter(|n| n.class.is_user()).count();

        // One engine spans teardown AND heal: the rejoin arrivals live in
        // the same queue as the outage that scheduled them.
        let heal = SimTime::from_secs(120);
        let mut engine = Engine::new(world);
        engine.schedule_at(
            SimTime::from_secs(40),
            Event::RegionalOutage {
                quadrant: q as u8,
                heal,
            },
        );
        engine.run_until(SimTime::from_secs(41));
        {
            let w = engine.world();
            assert_eq!(w.stats.outage_departs, hit as u64, "wrong victim count");
            let users_mid = w.net.iter_alive().filter(|n| n.class.is_user()).count();
            assert_eq!(users_mid, users_before - hit, "victims not torn down");
            // No live user remains in the dead quadrant.
            assert!(w
                .net
                .iter_alive()
                .filter(|n| n.class.is_user())
                .all(|n| n.coord.quadrant() != q as u8));
        }

        // Heal: run past `heal` and the population recovers (every victim
        // had retries and hours of watch time left).
        engine.run_until(heal + SimTime::from_secs(60));
        let world = engine.into_world();
        let rejoined = world
            .sessions
            .iter()
            .filter(|s| s.class.is_user() && s.retry_index > 0 && s.join >= heal)
            .count();
        assert_eq!(rejoined, hit, "partition healed but users did not rejoin");
    }

    #[test]
    fn outage_without_heal_is_permanent() {
        let world = arrive_users(
            tiny_world(),
            (0..8)
                .map(|i| spec(i, NodeClass::Nat, Bandwidth::kbps(300)))
                .collect(),
            SimTime::from_secs(30),
        );
        let mut events = Vec::new();
        for q in 0..4 {
            events.push((
                SimTime::from_secs(40),
                Event::RegionalOutage {
                    quadrant: q,
                    heal: SimTime::MAX,
                },
            ));
        }
        let world = run_events(world, events, SimTime::from_hours(1));
        let live_users = world.net.iter_alive().filter(|n| n.class.is_user()).count();
        assert_eq!(live_users, 0, "unhealed outage must not rejoin anyone");
    }

    #[test]
    fn policy_shift_changes_future_sampling_deterministically() {
        let mut world = tiny_world();
        Chaos::of(&mut world).set_policy(ConnectivityPolicy::strict());
        assert_eq!(world.net.policy().nat_accept_prob, 0.0);
        // Nodes created after the shift can never be permissive.
        for i in 0..50 {
            let id = world
                .net
                .add_node(NodeClass::Nat, Bandwidth::kbps(300), SimTime::ZERO);
            assert!(!world.net.node(id).permissive, "node {i} permissive");
        }
        // And the shift is pure state: two identically-seeded worlds
        // agree on every subsequent sample.
        let mut a = tiny_world();
        let mut b = tiny_world();
        Chaos::of(&mut a).set_policy(ConnectivityPolicy::strict());
        Chaos::of(&mut b).set_policy(ConnectivityPolicy::strict());
        for _ in 0..20 {
            let na = a
                .net
                .add_node(NodeClass::Firewall, Bandwidth::kbps(300), SimTime::ZERO);
            let nb = b
                .net
                .add_node(NodeClass::Firewall, Bandwidth::kbps(300), SimTime::ZERO);
            assert_eq!(a.net.node(na).coord, b.net.node(nb).coord);
            assert_eq!(a.net.node(na).permissive, b.net.node(nb).permissive);
        }
    }

    #[test]
    fn scale_uploads_rescales_users_only() {
        let mut world = arrive_users(
            tiny_world(),
            vec![
                spec(0, NodeClass::DirectConnect, Bandwidth::mbps(4)),
                spec(1, NodeClass::Nat, Bandwidth::kbps(400)),
            ],
            SimTime::from_secs(30),
        );
        let server_bw = world.net.node(world.servers[0]).upload;
        Chaos::of(&mut world).scale_uploads(1, 4);
        let users: Vec<_> = world
            .net
            .iter_alive()
            .filter(|n| n.class.is_user())
            .collect();
        assert_eq!(users.len(), 2);
        for n in &users {
            let expect = match n.class {
                NodeClass::DirectConnect => Bandwidth::mbps(4).as_bps() / 4,
                _ => Bandwidth::kbps(400).as_bps() / 4,
            };
            assert_eq!(n.upload.as_bps(), expect);
            // Peer state mirrors the registry.
            assert_eq!(world.peer(n.id).unwrap().upload, n.upload);
        }
        assert_eq!(
            world.net.node(world.servers[0]).upload,
            server_bw,
            "infrastructure must not be rescaled"
        );
    }

    #[test]
    fn scale_uploads_clamps_to_floor_and_ignores_zero_den() {
        let mut world = arrive_users(
            tiny_world(),
            vec![spec(0, NodeClass::Nat, Bandwidth::kbps(16))],
            SimTime::from_secs(10),
        );
        let id = world
            .net
            .iter_alive()
            .find(|n| n.class.is_user())
            .unwrap()
            .id;
        Chaos::of(&mut world).scale_uploads(1, 1000);
        assert_eq!(world.net.node(id).upload.as_bps(), FREE_RIDER_BPS);
        let before = world.net.node(id).upload;
        Chaos::of(&mut world).scale_uploads(3, 0);
        assert_eq!(world.net.node(id).upload, before, "den=0 must be a no-op");
    }

    #[test]
    fn free_riders_clamp_a_deterministic_share() {
        let world = arrive_users(
            tiny_world(),
            (0..40)
                .map(|i| spec(i, NodeClass::Upnp, Bandwidth::mbps(2)))
                .collect(),
            SimTime::from_secs(60),
        );
        let run = |mut w: CsWorld, pm: u16| -> Vec<NodeId> {
            Chaos::of(&mut w).free_riders(pm);
            w.net
                .iter_alive()
                .filter(|n| n.class.is_user() && n.upload.as_bps() == FREE_RIDER_BPS)
                .map(|n| n.id)
                .collect()
        };
        // per_mille = 0 touches nobody; 1000 touches everybody.
        assert!(run(
            arrive_users(
                tiny_world(),
                (0..10)
                    .map(|i| spec(i, NodeClass::Upnp, Bandwidth::mbps(2)))
                    .collect(),
                SimTime::from_secs(20),
            ),
            0
        )
        .is_empty());
        let hit_half = run(world, 500);
        assert!(
            hit_half.len() > 8 && hit_half.len() < 32,
            "selection share off: {}/40",
            hit_half.len()
        );
        // Same population, same threshold → the same nodes, every time.
        let again = run(
            arrive_users(
                tiny_world(),
                (0..40)
                    .map(|i| spec(i, NodeClass::Upnp, Bandwidth::mbps(2)))
                    .collect(),
                SimTime::from_secs(60),
            ),
            500,
        );
        assert_eq!(hit_half, again, "free-rider selection must be reproducible");
    }

    #[test]
    fn crash_and_bootstrap_flap_still_route_through_membership() {
        // Guard the dispatch table: the pre-DSL injections stay wired.
        let mut world = tiny_world();
        Membership::of(&mut world).set_bootstrap(false);
        assert!(!world.bootstrap_up);
        Membership::of(&mut world).crash_server(0, SimTime::from_secs(1));
        assert!(!world.net.is_alive(world.servers[0]));
    }
}
