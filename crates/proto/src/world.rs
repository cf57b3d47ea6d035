//! The Coolstreaming world: every peer, the source, the dedicated
//! servers, the boot-strap node and the log server, driven by `cs-sim`
//! events.
//!
//! This module owns only the *shared* state ([`CsWorld`]), the typed
//! event alphabet ([`Event`]) and the dispatch table that routes each
//! event variant to exactly one of the three managers of the paper's
//! Fig. 1 (see DESIGN.md §9):
//!
//! * [`Membership`](crate::membership::Membership) — `Arrive`,
//!   `BootstrapReply`, `GossipTick`, `SetBootstrap`, `CrashServer`;
//! * [`Partnership`](crate::partnership::Partnership) — `PartnersReady`,
//!   `PatienceCheck`, `Depart`;
//! * [`Stream`](crate::stream::Stream) — `BmTick`, `SchedRound`,
//!   `PlaybackTick`, `ReportTick`;
//! * [`Chaos`](crate::chaos::Chaos) — the scenario-DSL chaos injections
//!   `RestartServer`, `RegionalOutage`, `SetPolicy`, `ScaleUploads`,
//!   `FreeRiders` (see DESIGN.md §10).
//!
//! `Snapshot` is handled by the measurement layer
//! ([`snapshot::capture`](crate::snapshot)).
//!
//! Event cadence per peer (defaults in [`Params`]):
//!
//! * `SchedRound` — the parent push: a node's uplink is split equally
//!   across its out-going sub-stream degree `D_p` (Eq. 5 semantics) and
//!   each child sub-stream advances by the resulting block budget, capped
//!   by what the parent itself has;
//! * `BmTick` — buffer-map exchange with partners, partner repair,
//!   initial parent selection (§IV.A) and peer adaptation (§IV.B,
//!   inequalities (1) and (2) under the cool-down `T_a`);
//! * `PlaybackTick` — playout deadline accounting (continuity index) and
//!   the give-up/re-enter behaviour of hopeless laggards (§V.D);
//! * `GossipTick` — mCache dissemination (§III.B);
//! * `ReportTick` — the 5-minute status reports of §V.A.

use cs_logging::{LogServer, UserId};
use cs_net::{Bandwidth, Network, NodeClass, NodeId};
use cs_sim::rng::{streams, Xoshiro256PlusPlus};
use cs_sim::{Ctx, SimTime, World};
use rand::Rng;

use crate::arena::{PeerArena, PeerHandle};
use crate::bootstrap::Bootstrap;
use crate::chaos::Chaos;
use crate::mcache::McEntry;
use crate::membership::Membership;
use crate::params::Params;
use crate::partnership::Partnership;
use crate::peer::{PeerCore, PeerMut, PeerRef};
use crate::session::SessionRecord;
use crate::snapshot::TopologySnapshot;
use crate::stream::Stream;

/// A user arrival, produced by the workload generator.
#[derive(Clone, Copy, Debug)]
pub struct UserSpec {
    /// Stable user identity.
    pub user: UserId,
    /// Connection class.
    pub class: NodeClass,
    /// Uplink capacity.
    pub upload: Bandwidth,
    /// Absolute time at which the user intends to stop watching.
    pub leave_at: SimTime,
    /// How long the user waits for media-ready before abandoning.
    pub patience: SimTime,
    /// Retries the user will still attempt after this one fails.
    pub retries_left: u32,
    /// 0 for the first attempt.
    pub retry_index: u32,
}

/// The event alphabet of the Coolstreaming world.
#[derive(Clone, Copy, Debug)]
pub enum Event {
    /// A user joins the system.
    Arrive(UserSpec),
    /// The boot-strap server's peer list arrives.
    BootstrapReply(NodeId),
    /// The partnership handshake round completes.
    PartnersReady(NodeId),
    /// The user's patience for media-ready runs out.
    PatienceCheck(NodeId),
    /// Scheduled departure (intended leave).
    Depart(NodeId),
    /// Periodic mCache gossip.
    GossipTick(NodeId),
    /// Periodic buffer-map exchange + adaptation.
    BmTick(NodeId),
    /// Periodic parent push round.
    SchedRound(NodeId),
    /// Periodic playback bookkeeping.
    PlaybackTick(NodeId),
    /// Periodic 5-minute status report.
    ReportTick(NodeId),
    /// Periodic overlay snapshot.
    Snapshot,
    /// Failure injection: bring the boot-strap server down (`false`) or
    /// back up (`true`).
    SetBootstrap(bool),
    /// Failure injection: crash a dedicated server (by index into
    /// [`CsWorld::servers`]). Its children must repair via adaptation.
    CrashServer(usize),
    /// Chaos injection: bring a previously crashed dedicated server back
    /// into service under the same node id.
    RestartServer(usize),
    /// Chaos injection: a correlated regional outage — every live user
    /// peer in the given [`cs_net::Coord`] quadrant crashes at once.
    /// Survivable users (retries and watch time left) re-enter once the
    /// partition `heal`s.
    RegionalOutage {
        /// Coordinate quadrant (0–3) taken out.
        quadrant: u8,
        /// Absolute time at which the partition heals and affected users
        /// start rejoining; `SimTime::MAX` means it never heals.
        heal: SimTime,
    },
    /// Chaos injection: swap the connectivity policy (a NAT-share shift —
    /// e.g. the permissive-middlebox share collapsing at scale, §V.D).
    SetPolicy(cs_net::ConnectivityPolicy),
    /// Chaos injection: rescale every live user peer's uplink by the
    /// rational factor `num / den` (upload-capacity skew).
    ScaleUploads {
        /// Numerator of the scale factor.
        num: u32,
        /// Denominator of the scale factor (> 0).
        den: u32,
    },
    /// Chaos injection: turn a deterministic `per_mille` share of the
    /// live user population into free-riders (uplink clamped to the
    /// capacity-model floor).
    FreeRiders {
        /// Share of live users affected, in thousandths (0–1000).
        per_mille: u16,
    },
}

impl Event {
    /// Stable name of the event's kind, ignoring its payload. Used by
    /// instrumentation (per-kind counters, trace hashing); renaming a
    /// variant here invalidates golden trace hashes.
    pub fn kind(&self) -> &'static str {
        self.kind_class().1
    }

    /// [`Event::kind`] plus a dense per-variant index, for
    /// instrumentation that wants array-indexed per-kind counters
    /// without a name lookup on the dispatch path (cs-telemetry's
    /// per-kind table). Indices are contiguous from 0 and carry no
    /// meaning beyond identity within one build. Every instrument names
    /// events through this one table, so a renamed variant cannot
    /// desynchronize counters from golden trace hashes.
    #[inline]
    #[deny(clippy::wildcard_enum_match_arm)]
    pub fn kind_class(&self) -> (u8, &'static str) {
        match self {
            Event::Arrive(_) => (0, "arrive"),
            Event::BootstrapReply(_) => (1, "bootstrap_reply"),
            Event::PartnersReady(_) => (2, "partners_ready"),
            Event::PatienceCheck(_) => (3, "patience_check"),
            Event::Depart(_) => (4, "depart"),
            Event::GossipTick(_) => (5, "gossip_tick"),
            Event::BmTick(_) => (6, "bm_tick"),
            Event::SchedRound(_) => (7, "sched_round"),
            Event::PlaybackTick(_) => (8, "playback_tick"),
            Event::ReportTick(_) => (9, "report_tick"),
            Event::Snapshot => (10, "snapshot"),
            Event::SetBootstrap(_) => (11, "set_bootstrap"),
            Event::CrashServer(_) => (12, "crash_server"),
            Event::RestartServer(_) => (13, "restart_server"),
            Event::RegionalOutage { .. } => (14, "regional_outage"),
            Event::SetPolicy(_) => (15, "set_policy"),
            Event::ScaleUploads { .. } => (16, "scale_uploads"),
            Event::FreeRiders { .. } => (17, "free_riders"),
        }
    }

    /// The manager whose handler runs this event — the span-tracing axis.
    /// Mirrors the `World::handle` dispatch table below (`engine` covers
    /// the world-level housekeeping arms that no manager owns).
    #[inline]
    #[deny(clippy::wildcard_enum_match_arm)]
    pub fn manager(&self) -> &'static str {
        match self {
            Event::Arrive(_)
            | Event::BootstrapReply(_)
            | Event::GossipTick(_)
            | Event::SetBootstrap(_)
            | Event::CrashServer(_) => "membership",
            Event::PartnersReady(_) | Event::PatienceCheck(_) | Event::Depart(_) => "partnership",
            Event::BmTick(_)
            | Event::SchedRound(_)
            | Event::PlaybackTick(_)
            | Event::ReportTick(_) => "stream",
            Event::RestartServer(_)
            | Event::RegionalOutage { .. }
            | Event::SetPolicy(_)
            | Event::ScaleUploads { .. }
            | Event::FreeRiders { .. } => "chaos",
            Event::Snapshot => "engine",
        }
    }
}

/// Run-wide counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct WorldStats {
    /// User arrivals handled (including retries).
    pub arrivals: u64,
    /// Boot-strap re-contacts after an empty partner round.
    pub join_retries: u64,
    /// Sessions abandoned before media-ready.
    pub impatient_departs: u64,
    /// Sessions that gave up due to playback collapse and re-entered.
    pub giveup_departs: u64,
    /// Finished (intended) departures.
    pub finished_departs: u64,
    /// Sessions cut short by a correlated regional outage.
    pub outage_departs: u64,
    /// Quality-triggered peer adaptations.
    pub adaptations: u64,
    /// Parent reselections forced by parent departure.
    pub parent_repairs: u64,
    /// Partnership establishment successes.
    pub partnerships: u64,
    /// Partnership establishment failures (middlebox).
    pub partnership_failures: u64,
    /// Blocks delivered peer-to-peer.
    pub blocks_delivered: u64,
    /// Blocks skipped because they left every cache window.
    pub blocks_skipped: u64,
    /// Control-plane bytes: gossip, buffer-map exchanges, boot-strap
    /// requests, log reports (protocol overhead, cf. the PPLive
    /// measurement studies' overhead figures).
    pub control_bytes: u64,
    /// Join requests bounced off an unavailable boot-strap server.
    pub bootstrap_rejects: u64,
}

/// Buffers the periodic ticks reuse so that a steady-state `BmTick`,
/// `SchedRound`, `PlaybackTick` or `GossipTick` allocates nothing. A
/// handler `std::mem::take`s the buffer it needs, fills it, and puts it
/// back before returning; it may call into other handlers meanwhile only
/// if they use *different* buffers (the users are listed per field). The
/// contents mean nothing between handlers.
#[derive(Default)]
pub(crate) struct Scratch {
    /// Buffer-map rows in wire encoding: `advertised_bm` output for
    /// `refresh_views`, `try_add_partner` and `sched_round`.
    pub(crate) bm: Vec<u64>,
    /// `sched_round`: per-subscription budgets under `NeedAware`.
    pub(crate) budgets: Vec<f64>,
    /// `choose_parent`'s candidate pool; `refresh_views`' dead partners.
    pub(crate) ids: Vec<NodeId>,
    /// mCache samples: `gossip_tick`, `maintain`, `reselect_partner`.
    pub(crate) entries: Vec<McEntry>,
    /// `adapt`: the per-sub-stream verdict of the classification pass.
    pub(crate) verdicts: Vec<u8>,
}

/// The complete simulation state.
pub struct CsWorld {
    /// Protocol parameters (Table I).
    pub params: Params,
    /// The network substrate.
    pub net: Network,
    /// All per-peer state, in generational struct-of-arrays columns.
    arena: PeerArena,
    /// The broadcast source node.
    pub source: NodeId,
    /// The dedicated helper servers (§V.A: 24 × 100 Mbps in the event).
    pub servers: Vec<NodeId>,
    /// The boot-strap (tracker) node.
    pub bootstrap: Bootstrap,
    /// The measurement log server.
    pub log: LogServer<'static>,
    /// Ground-truth session records, indexed by node id.
    pub sessions: Vec<SessionRecord>,
    /// Topology snapshots (empty unless `snapshot_interval` is set).
    pub snapshots: Vec<TopologySnapshot>,
    /// Snapshot cadence; `None` disables snapshots.
    pub snapshot_interval: Option<SimTime>,
    /// Run-wide counters.
    pub stats: WorldStats,
    /// Whether the boot-strap server is reachable (failure injection via
    /// [`Event::SetBootstrap`]).
    pub bootstrap_up: bool,
    pub(crate) rng_sel: Xoshiro256PlusPlus,
    pub(crate) rng_mem: Xoshiro256PlusPlus,
    rng_retry: Xoshiro256PlusPlus,
    pub(crate) scratch: Scratch,
}

impl CsWorld {
    /// Build a world with `n_servers` dedicated servers (each with uplink
    /// `server_bw`) and the source. Call
    /// [`initial_events`](Self::initial_events) and feed those to the
    /// engine before running.
    pub fn new(
        params: Params,
        mut net: Network,
        n_servers: usize,
        server_bw: Bandwidth,
        master_seed: u64,
    ) -> Self {
        #[expect(
            clippy::expect_used,
            reason = "constructor-style precondition: invalid Params is a programming error, not a runtime state"
        )]
        params.validate().expect("invalid params");
        let mut bootstrap = Bootstrap::new();
        let mut arena = PeerArena::new();
        let mut sessions = Vec::new();
        let push_infra = |net: &mut Network,
                          arena: &mut PeerArena,
                          sessions: &mut Vec<SessionRecord>,
                          class: NodeClass,
                          bw: Bandwidth| {
            let id = net.add_node(class, bw, SimTime::ZERO);
            let core = PeerCore {
                id,
                user: UserId(u32::MAX - id.0),
                class,
                upload: bw,
                join_time: SimTime::ZERO,
                retry_index: 0,
                intended_leave: SimTime::MAX,
                retries_left: 0,
                patience: SimTime::MAX,
            };
            arena.insert(core, &params);
            sessions.push(SessionRecord {
                user: UserId(u32::MAX - id.0),
                node: id,
                class,
                upload: bw,
                retry_index: 0,
                join: SimTime::ZERO,
                start_sub: None,
                ready: None,
                leave: None,
                reason: None,
                up_bytes: 0,
                down_bytes: 0,
                due: 0,
                missed: 0,
                adaptations: 0,
            });
            id
        };

        let source_bw = Bandwidth::mbps(12);
        let source = push_infra(
            &mut net,
            &mut arena,
            &mut sessions,
            NodeClass::Source,
            source_bw,
        );
        let servers: Vec<NodeId> = (0..n_servers)
            .map(|_| {
                let id = push_infra(
                    &mut net,
                    &mut arena,
                    &mut sessions,
                    NodeClass::Server,
                    server_bw,
                );
                bootstrap.add_server(id, SimTime::ZERO);
                id
            })
            .collect();

        CsWorld {
            params,
            net,
            arena,
            source,
            servers,
            bootstrap,
            log: LogServer::new(),
            sessions,
            snapshots: Vec::new(),
            snapshot_interval: Some(SimTime::from_secs(60)),
            stats: WorldStats::default(),
            bootstrap_up: true,
            rng_sel: Xoshiro256PlusPlus::stream(master_seed, streams::SELECTION),
            rng_mem: Xoshiro256PlusPlus::stream(master_seed, streams::MEMBERSHIP),
            rng_retry: Xoshiro256PlusPlus::stream(master_seed, streams::RETRY),
            scratch: Scratch::default(),
        }
    }

    /// Events the driver must schedule before the run: server push rounds
    /// and the snapshot timer.
    pub fn initial_events(&self) -> Vec<(SimTime, Event)> {
        let mut evs: Vec<(SimTime, Event)> = self
            .servers
            .iter()
            .enumerate()
            .map(|(i, &s)| {
                // Stagger server rounds across the interval.
                let phase =
                    self.params.sched_interval * (i as u64 + 1) / (self.servers.len() as u64 + 1);
                (phase, Event::SchedRound(s))
            })
            .collect();
        if let Some(iv) = self.snapshot_interval {
            evs.push((iv, Event::Snapshot));
        }
        evs
    }

    /// Access a peer's state.
    pub fn peer(&self, id: NodeId) -> Option<PeerRef<'_>> {
        self.arena.get_by_node(id)
    }

    /// The arena handle for a live node, if present. Handles stay valid
    /// until the peer departs.
    pub fn peer_handle(&self, id: NodeId) -> Option<PeerHandle> {
        self.arena.handle_of(id)
    }

    /// Number of live peers (source, servers, and users).
    pub fn peer_count(&self) -> usize {
        self.arena.len()
    }

    /// Allocated arena slots (live peers plus vacated free-list slots).
    /// Under churn this tracks peak concurrency, not total arrivals —
    /// the memory-footprint witness for slot reuse.
    pub fn peer_slots(&self) -> usize {
        self.arena.slots()
    }

    /// Pre-size the peer arena for an expected population (scenario
    /// plumbing: one slot per expected concurrent peer).
    pub fn reserve_peers(&mut self, peers: usize) {
        self.arena.reserve(peers);
    }

    /// Iterate every live peer (source, servers, and users), in node-id
    /// order.
    pub fn peers(&self) -> impl Iterator<Item = PeerRef<'_>> {
        self.arena.iter()
    }

    /// Mutable peer access, for the manager modules.
    pub(crate) fn peer_mut(&mut self, id: NodeId) -> Option<PeerMut<'_>> {
        self.arena.get_mut_by_node(id)
    }

    /// Simultaneous mutable access to two distinct peers.
    pub(crate) fn two_mut(&mut self, a: NodeId, b: NodeId) -> Option<(PeerMut<'_>, PeerMut<'_>)> {
        self.arena.pair_mut(a, b)
    }

    /// Install a freshly arrived peer with empty manager state. Also
    /// re-installs a previously vacated node id (a server restart
    /// re-using its original identity).
    pub(crate) fn push_peer(&mut self, core: PeerCore) {
        self.arena.insert(core, &self.params);
    }

    /// Drop a departed or crashed peer's state — what it moved since its
    /// last status report goes into its session record first; its arena
    /// slot joins the free list and outstanding handles to it go stale.
    pub(crate) fn remove_peer(&mut self, id: NodeId) {
        if let Some(p) = self.arena.get_mut_by_node(id) {
            self.sessions[id.index()].absorb(p.stream.take_counters());
        }
        self.arena.remove(id);
    }

    /// Schedule a retry arrival with a short think time.
    fn schedule_retry(&mut self, spec: UserSpec, ctx: &mut Ctx<'_, Event>) {
        let think = SimTime::from_millis(self.rng_retry.gen_range(2_000..6_000));
        ctx.schedule_in(think, Event::Arrive(spec));
    }
}

impl World for CsWorld {
    type Event = Event;

    /// The single dispatch choke point: route one event to its manager
    /// (see the module docs for the variant → manager table), keeping
    /// periodic re-scheduling here so manager code never owns the clock.
    #[deny(clippy::wildcard_enum_match_arm)]
    fn handle(&mut self, ctx: &mut Ctx<'_, Event>, event: Event) {
        let now = ctx.now();
        match event {
            Event::Arrive(spec) => Membership::of(self).arrive(spec, now, ctx),
            Event::BootstrapReply(id) => Membership::of(self).bootstrap_reply(id, now, ctx),
            Event::PartnersReady(id) => Partnership::of(self).partners_ready(id, now, ctx),
            Event::PatienceCheck(id) => {
                if let Some(retry) = Partnership::of(self).patience_check(id, now) {
                    self.schedule_retry(retry, ctx);
                }
            }
            Event::Depart(id) => Partnership::of(self).scheduled_depart(id, now),
            Event::GossipTick(id) => {
                if self.peer_handle(id).is_some() {
                    Membership::of(self).gossip_tick(id);
                    ctx.schedule_in(self.params.gossip_interval, Event::GossipTick(id));
                }
            }
            Event::BmTick(id) => {
                if Stream::of(self).bm_tick(id, now) {
                    ctx.schedule_in(self.params.bm_interval, Event::BmTick(id));
                }
            }
            Event::SchedRound(id) => {
                if self.peer_handle(id).is_some() {
                    Stream::of(self).sched_round(id, now);
                    ctx.schedule_in(self.params.sched_interval, Event::SchedRound(id));
                }
            }
            Event::PlaybackTick(id) => {
                if let Some(spec) = Stream::of(self).playback_tick(id, now) {
                    self.schedule_retry(spec, ctx);
                } else if self.peer_handle(id).is_some() {
                    ctx.schedule_in(self.params.playback_interval, Event::PlaybackTick(id));
                }
            }
            Event::ReportTick(id) => {
                if self.peer_handle(id).is_some() {
                    Stream::of(self).report_tick(id, now);
                    ctx.schedule_in(self.params.report_interval, Event::ReportTick(id));
                }
            }
            Event::Snapshot => {
                let snap = crate::snapshot::capture(self, now);
                self.snapshots.push(snap);
                if let Some(iv) = self.snapshot_interval {
                    ctx.schedule_in(iv, Event::Snapshot);
                }
            }
            Event::SetBootstrap(up) => Membership::of(self).set_bootstrap(up),
            Event::CrashServer(ix) => Membership::of(self).crash_server(ix, now),
            Event::RestartServer(ix) => Chaos::of(self).restart_server(ix, now, ctx),
            Event::RegionalOutage { quadrant, heal } => {
                Chaos::of(self).regional_outage(quadrant, heal, now, ctx)
            }
            Event::SetPolicy(policy) => Chaos::of(self).set_policy(policy),
            Event::ScaleUploads { num, den } => Chaos::of(self).scale_uploads(num, den),
            Event::FreeRiders { per_mille } => Chaos::of(self).free_riders(per_mille),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One event of every kind. `next` has no wildcard arm, so adding a
    /// variant to [`Event`] without extending the chain does not compile.
    fn one_of_each_kind() -> Vec<Event> {
        fn next(e: &Event) -> Option<Event> {
            let id = NodeId(1);
            Some(match e {
                Event::Arrive(_) => Event::BootstrapReply(id),
                Event::BootstrapReply(_) => Event::PartnersReady(id),
                Event::PartnersReady(_) => Event::PatienceCheck(id),
                Event::PatienceCheck(_) => Event::Depart(id),
                Event::Depart(_) => Event::GossipTick(id),
                Event::GossipTick(_) => Event::BmTick(id),
                Event::BmTick(_) => Event::SchedRound(id),
                Event::SchedRound(_) => Event::PlaybackTick(id),
                Event::PlaybackTick(_) => Event::ReportTick(id),
                Event::ReportTick(_) => Event::Snapshot,
                Event::Snapshot => Event::SetBootstrap(false),
                Event::SetBootstrap(_) => Event::CrashServer(0),
                Event::CrashServer(_) => Event::RestartServer(0),
                Event::RestartServer(_) => Event::RegionalOutage {
                    quadrant: 0,
                    heal: SimTime::MAX,
                },
                Event::RegionalOutage { .. } => Event::SetPolicy(Default::default()),
                Event::SetPolicy(_) => Event::ScaleUploads { num: 1, den: 2 },
                Event::ScaleUploads { .. } => Event::FreeRiders { per_mille: 100 },
                Event::FreeRiders { .. } => return None,
            })
        }
        let mut all = vec![Event::Arrive(UserSpec {
            user: UserId(1),
            class: NodeClass::Nat,
            upload: Bandwidth::kbps(400),
            leave_at: SimTime::from_hours(1),
            patience: SimTime::from_secs(60),
            retries_left: 0,
            retry_index: 0,
        })];
        while let Some(e) = all.last().and_then(next) {
            all.push(e);
        }
        all
    }

    /// cs-telemetry indexes its per-kind table by `kind_class().0`, trace
    /// hashes and counters key on the name, and spans on `manager()`.
    #[test]
    fn kind_table_is_dense_named_uniquely_and_managed() {
        let all = one_of_each_kind();
        let mut indices: Vec<usize> = all.iter().map(|e| usize::from(e.kind_class().0)).collect();
        indices.sort_unstable();
        assert_eq!(indices, (0..all.len()).collect::<Vec<_>>());

        let mut names: Vec<&str> = all.iter().map(Event::kind).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "kind names must be unique");

        const MANAGERS: [&str; 5] = ["membership", "partnership", "stream", "chaos", "engine"];
        for e in &all {
            assert!(MANAGERS.contains(&e.manager()), "{e:?}: {}", e.manager());
        }
    }
}
