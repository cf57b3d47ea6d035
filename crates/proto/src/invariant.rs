//! Runtime protocol oracles.
//!
//! [`InvariantChecker`] re-validates the whole protocol state after every
//! dispatched event (or every `stride` events); the run's observer feeds
//! it through [`InvariantChecker::on_dispatch`] and
//! [`InvariantChecker::after_handle`]. It encodes the structural guarantees the implementation is
//! supposed to maintain at *all* times — not just at the horizon, where
//! the integration tests look. A violation does not abort the run;
//! it is recorded with the time and the event kind that exposed it, so a
//! failing run pinpoints the first bad transition.
//!
//! The oracles, all phrased over the public [`CsWorld`] API:
//!
//! 1. **Time monotonicity** — dispatch timestamps never regress.
//! 2. **Partner bound** — no node exceeds its class's `M`.
//! 3. **Partner symmetry** — every partnership is mutual, between live
//!    nodes, with complementary initiator directions.
//! 4. **Sub-stream coverage** — every peer has exactly `K` parent slots;
//!    filled slots reference live partners that list the peer as child.
//! 5. **Child backlinks** — every listed child subscription is a live peer
//!    whose matching parent slot points back.
//! 6. **Buffer heads bounded** — no sub-stream head passes the source's
//!    live edge: blocks cannot come from the future.
//! 7. **mCache referential integrity** — entries name once-seen nodes,
//!    never the holder itself.
//! 8. **Session accounting** — user arrivals = one session record each;
//!    records without a leave time are exactly the live user nodes.
//! 9. **Registry ⇔ arena** — over every id ever issued, the network
//!    registry calls a node alive exactly when the arena holds its state,
//!    with the same uplink: the tick path asks only the arena.
//! 10. **Child-list uniqueness** — no parent lists a `(child,
//!     sub-stream)` pair twice (`subscribe` pushes without scanning).
//! 11. **Kept maximum** — `PartnerTable::max_latest` equals a scan of the
//!     table's rows.

use cs_sim::SimTime;

use crate::world::CsWorld;

/// One invariant violation, attributed to the event that exposed it.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Simulated time of the offending check.
    pub time: SimTime,
    /// Kind of the event after which the check failed.
    pub event_kind: &'static str,
    /// Which oracle fired (stable short name).
    pub rule: &'static str,
    /// Human-readable specifics.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{} after {}] {}: {}",
            self.time, self.event_kind, self.rule, self.detail
        )
    }
}

/// How many violations are retained verbatim; beyond this only the total
/// is counted (a broken invariant usually fails on every later event).
const MAX_RECORDED: usize = 64;

/// Validates [`CsWorld`] invariants during a run.
#[derive(Clone, Debug)]
pub struct InvariantChecker {
    stride: u64,
    events_seen: u64,
    checks_run: u64,
    last_time: SimTime,
    current_kind: &'static str,
    violations: Vec<Violation>,
    total_violations: u64,
}

impl InvariantChecker {
    /// A checker that validates after every event.
    pub fn new() -> Self {
        Self::with_stride(1)
    }

    /// A checker that validates after every `stride`-th event (the time
    /// monotonicity oracle still runs on every event). `stride` 0 is
    /// treated as 1.
    pub fn with_stride(stride: u64) -> Self {
        InvariantChecker {
            stride: stride.max(1),
            events_seen: 0,
            checks_run: 0,
            last_time: SimTime::ZERO,
            current_kind: "(none)",
            violations: Vec::new(),
            total_violations: 0,
        }
    }

    /// Violations recorded so far (capped at an internal limit; see
    /// [`InvariantChecker::total_violations`] for the true count).
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Total violations observed, including ones past the recording cap.
    pub fn total_violations(&self) -> u64 {
        self.total_violations
    }

    /// Whether no oracle has ever fired.
    pub fn is_clean(&self) -> bool {
        self.total_violations == 0
    }

    /// Number of full-world validation passes performed.
    pub fn checks_run(&self) -> u64 {
        self.checks_run
    }

    /// Number of events observed.
    pub fn events_seen(&self) -> u64 {
        self.events_seen
    }

    /// One line per recorded violation, plus a truncation note.
    pub fn report(&self) -> String {
        let mut out = String::new();
        for v in &self.violations {
            out.push_str(&format!("{v}\n"));
        }
        let extra = self.total_violations - self.violations.len() as u64;
        if extra > 0 {
            out.push_str(&format!("… and {extra} more violations\n"));
        }
        out
    }

    fn record(&mut self, now: SimTime, rule: &'static str, detail: String) {
        self.total_violations += 1;
        if self.violations.len() < MAX_RECORDED {
            self.violations.push(Violation {
                time: now,
                event_kind: self.current_kind,
                rule,
                detail,
            });
        }
    }

    /// Note the dispatch of an event of `kind` at `now`, before its
    /// handler runs.
    pub fn on_dispatch(&mut self, now: SimTime, kind: &'static str) {
        self.current_kind = kind;
        // Oracle 1: time monotonicity, checked on every event.
        if now < self.last_time {
            self.record(
                now,
                "time-regression",
                format!("dispatch at {} after {}", now, self.last_time),
            );
        }
        self.last_time = now;
        self.events_seen += 1;
    }

    /// Validate the post-event world if this event is on the stride.
    pub fn after_handle(&mut self, now: SimTime, world: &CsWorld) {
        if self.events_seen % self.stride == 0 {
            self.check_world(now, world);
        }
    }

    /// Run every state oracle against `world` as of `now`. Called from
    /// [`Self::after_handle`]; public so horizon-state checks can reuse it.
    pub fn check_world(&mut self, now: SimTime, world: &CsWorld) {
        self.checks_run += 1;
        let k = world.params.substreams as usize;
        let live_edge = world.params.live_edge(now);
        let total_nodes = world.net.total_nodes();

        let mut pairs = Vec::new();
        for info in world.net.iter() {
            // Oracle 9: registry ⇔ arena, liveness and uplink.
            let peer = world.peer(info.id);
            if info.alive != peer.is_some() || peer.is_some_and(|p| p.upload != info.upload) {
                let arena = peer.map(|p| p.upload);
                self.record(
                    now,
                    "registry-arena",
                    format!("registry holds {info:?}, arena uplink {arena:?}"),
                );
            }
            let Some(peer) = peer.filter(|_| info.alive) else {
                continue;
            };

            // Oracle 2: partner bound.
            let max = world.params.max_partners_for(info.class);
            if peer.partners().len() > max {
                self.record(
                    now,
                    "partner-bound",
                    format!(
                        "{:?} has {} partners > M = {max}",
                        info.id,
                        peer.partners().len()
                    ),
                );
            }

            // Oracle 3: symmetry, liveness, complementary directions.
            for (q, view) in peer.partners().iter() {
                if !world.net.is_alive(q) {
                    self.record(
                        now,
                        "partner-liveness",
                        format!("{:?} partnered with dead {:?}", info.id, q),
                    );
                    continue;
                }
                match world.peer(q).and_then(|qp| qp.partners().get(info.id)) {
                    None => self.record(
                        now,
                        "partner-symmetry",
                        format!("partnership {:?}→{:?} not mutual", info.id, q),
                    ),
                    Some(back) => {
                        if back.outgoing == view.outgoing {
                            self.record(
                                now,
                                "partner-direction",
                                format!(
                                    "{:?}↔{:?}: both ends claim outgoing={}",
                                    info.id, q, view.outgoing
                                ),
                            );
                        }
                    }
                }
            }

            // Oracle 4: sub-stream coverage and parent validity.
            if peer.parents().len() != k {
                self.record(
                    now,
                    "substream-coverage",
                    format!(
                        "{:?} has {} parent slots, expected K = {k}",
                        info.id,
                        peer.parents().len()
                    ),
                );
            }
            for (j, parent) in peer.parents().iter().enumerate() {
                let Some(p) = parent else { continue };
                if !peer.partners().contains(*p) {
                    self.record(
                        now,
                        "parent-is-partner",
                        format!(
                            "{:?} sub-stream {j} parent {:?} is not a partner",
                            info.id, p
                        ),
                    );
                }
                let listed = world
                    .peer(*p)
                    .map(|pp| {
                        pp.children()
                            .iter()
                            .any(|&(c, cj)| c == info.id && cj as usize == j)
                    })
                    .unwrap_or(false);
                if !listed {
                    self.record(
                        now,
                        "parent-child-link",
                        format!(
                            "parent {:?} does not list child ({:?}, sub-stream {j})",
                            p, info.id
                        ),
                    );
                }
            }

            // Oracle 5: child backlinks, dead children included: the push
            // round serves the list as it stands.
            for &(c, j) in peer.children() {
                let backed = world.peer(c).is_some_and(|cp| {
                    cp.parents().get(j as usize).copied().flatten() == Some(info.id)
                });
                if !backed {
                    self.record(
                        now,
                        "child-backlink",
                        format!(
                            "stale subscription: ({:?}, {j}) not backed at {:?}",
                            c, info.id
                        ),
                    );
                }
            }

            // Oracle 10: no subscription is listed twice.
            pairs.clear();
            pairs.extend_from_slice(peer.children());
            pairs.sort_unstable();
            if pairs.windows(2).any(|w| w[0] == w[1]) {
                self.record(
                    now,
                    "child-duplicate",
                    format!("{:?} lists a subscription twice", info.id),
                );
            }

            // Oracle 11: the kept maximum equals a scan of the rows.
            let table = peer.partners();
            let kept = table.max_latest();
            let scanned = table.iter().filter_map(|(_, v)| v.max_latest()).max();
            if kept != scanned {
                self.record(
                    now,
                    "partner-best",
                    format!("{:?} keeps {kept:?}, its rows hold {scanned:?}", info.id),
                );
            }

            // Oracle 6: buffer heads never pass the source's live edge.
            if let Some(buf) = peer.buffer() {
                for i in 0..world.params.substreams {
                    if let Some(h) = buf.latest(i) {
                        if live_edge.is_none() || Some(h) > live_edge {
                            self.record(
                                now,
                                "buffer-head",
                                format!(
                                    "{:?} sub-stream {i} head {h} > live edge {:?}",
                                    info.id, live_edge
                                ),
                            );
                        }
                    }
                }
            }

            // Oracle 7: mCache referential integrity.
            for e in peer.mcache().iter() {
                if e.id == info.id {
                    self.record(now, "mcache-self", format!("{:?} caches itself", info.id));
                }
                if e.id.index() >= total_nodes {
                    self.record(
                        now,
                        "mcache-unknown-node",
                        format!("{:?} caches never-seen node {:?}", info.id, e.id),
                    );
                }
            }
        }

        // Oracle 8: session accounting. Every user arrival produced one
        // session record; open records are exactly the live user nodes.
        let user_records = world.sessions.iter().filter(|r| r.class.is_user()).count() as u64;
        if user_records != world.stats.arrivals {
            self.record(
                now,
                "session-count",
                format!(
                    "{} user session records != {} arrivals",
                    user_records, world.stats.arrivals
                ),
            );
        }
        let open_records = world
            .sessions
            .iter()
            .filter(|r| r.class.is_user() && r.leave.is_none())
            .count();
        let live_users = world.net.iter_alive().filter(|n| n.class.is_user()).count();
        if open_records != live_users {
            self.record(
                now,
                "session-balance",
                format!("{open_records} open session records != {live_users} live user nodes"),
            );
        }
    }
}

impl Default for InvariantChecker {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::membership::Membership;
    use crate::params::Params;
    use crate::partnership::Partnership;
    use crate::stream::Stream;
    use cs_net::{Bandwidth, ConnectivityPolicy, LatencyModel, Network, NodeId};

    /// Source (node 0) plus two dedicated servers (nodes 1, 2). Shared
    /// with the corruption tests that need a state module's private
    /// fields and so live there.
    pub(crate) fn tiny_world() -> CsWorld {
        let net = Network::new(ConnectivityPolicy::default(), LatencyModel::default(), 7);
        CsWorld::new(Params::default(), net, 2, Bandwidth::mbps(100), 7)
    }

    /// The rules one full check of `world` reports.
    pub(crate) fn violated(world: &CsWorld) -> Vec<&'static str> {
        let mut chk = InvariantChecker::new();
        chk.check_world(SimTime::from_secs(1), world);
        chk.violations().iter().map(|v| v.rule).collect()
    }

    #[test]
    fn pristine_world_is_clean() {
        let world = tiny_world();
        let mut chk = InvariantChecker::new();
        chk.check_world(SimTime::from_secs(1), &world);
        assert!(chk.is_clean(), "{}", chk.report());
        assert_eq!(chk.checks_run(), 1);
    }

    #[test]
    fn asymmetric_partnership_is_caught() {
        let mut world = tiny_world();
        let a = world.servers[0];
        let k = world.params.substreams as usize;
        // Corrupt through the partnership manager's test injector:
        // fabricate a one-sided partner view on server a pointing at
        // server b.
        let b = world.servers[1];
        Partnership::of(&mut world).inject_view(a, b, &vec![0; k]);
        let mut chk = InvariantChecker::new();
        chk.check_world(SimTime::from_secs(1), &world);
        assert!(!chk.is_clean());
        assert!(
            chk.violations()
                .iter()
                .any(|v| v.rule == "partner-symmetry"),
            "{}",
            chk.report()
        );
    }

    #[test]
    fn future_buffer_head_is_caught() {
        let mut world = tiny_world();
        let a = world.servers[0];
        let k = world.params.substreams;
        let mut buf = crate::buffer::StreamBuffer::new(k, 0);
        buf.advance(0, 1_000_000); // far past any early live edge
        Stream::of(&mut world).inject_buffer(a, buf);
        let mut chk = InvariantChecker::new();
        chk.check_world(SimTime::from_secs(1), &world);
        assert!(
            chk.violations().iter().any(|v| v.rule == "buffer-head"),
            "{}",
            chk.report()
        );
    }

    #[test]
    fn self_caching_is_caught() {
        let mut world = tiny_world();
        let a = world.servers[0];
        let entry = crate::mcache::McEntry {
            id: a,
            joined_at: SimTime::ZERO,
        };
        let mut rng = cs_sim::rng::Xoshiro256PlusPlus::new(1);
        Membership::of(&mut world).inject_cache_entry(a, entry, &mut rng);
        let mut chk = InvariantChecker::new();
        chk.check_world(SimTime::from_secs(1), &world);
        assert!(
            chk.violations().iter().any(|v| v.rule == "mcache-self"),
            "{}",
            chk.report()
        );
    }

    #[test]
    fn registry_and_arena_disagreeing_is_caught() {
        let fires = |world: &CsWorld| violated(world).contains(&"registry-arena");
        assert!(!fires(&tiny_world()));
        let mut world = tiny_world();
        let a = world.servers[0];
        world.remove_peer(a);
        assert!(fires(&world), "alive in the registry, gone from the arena");
        let mut world = tiny_world();
        world.net.remove_node(a);
        assert!(fires(&world), "gone from the registry, still in the arena");
        let mut world = tiny_world();
        world.net.set_upload(a, Bandwidth::kbps(1));
        assert!(fires(&world), "both hold the node, with different uplinks");
    }

    #[test]
    fn time_regression_is_caught() {
        let mut chk = InvariantChecker::new();
        chk.on_dispatch(SimTime::from_secs(10), "snapshot");
        chk.on_dispatch(SimTime::from_secs(5), "snapshot");
        assert!(
            chk.violations().iter().any(|v| v.rule == "time-regression"),
            "{}",
            chk.report()
        );
        assert_eq!(chk.events_seen(), 2);
    }

    #[test]
    fn report_caps_recorded_violations() {
        let mut world = tiny_world();
        let a = world.servers[0];
        // One violation per check; run enough checks to pass the cap.
        let entry = crate::mcache::McEntry {
            id: NodeId(9999),
            joined_at: SimTime::ZERO,
        };
        let mut rng = cs_sim::rng::Xoshiro256PlusPlus::new(2);
        Membership::of(&mut world).inject_cache_entry(a, entry, &mut rng);
        let mut chk = InvariantChecker::new();
        for _ in 0..(MAX_RECORDED as u64 + 10) {
            chk.check_world(SimTime::from_secs(1), &world);
        }
        assert_eq!(chk.violations().len(), MAX_RECORDED);
        assert!(chk.total_violations() > MAX_RECORDED as u64);
        assert!(chk.report().contains("more violations"));
    }
}
