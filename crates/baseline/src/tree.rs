//! Tree-based overlay multicast — the design family the paper positions
//! Coolstreaming against (§II).
//!
//! Two variants behind one [`TreeParams`] knob:
//!
//! * **single tree** (`trees = 1`): the classic end-system-multicast
//!   shape \[11\]\[12\] — every departure of an interior node silences its
//!   whole subtree until the children rejoin;
//! * **multi-tree** (`trees = K`): SplitStream-style \[13\] — the stream is
//!   striped over `K` trees and each node is *interior in exactly one
//!   tree*, so one departure costs at most `1/K` of the stream for the
//!   affected subtree.
//!
//! The model is deliberately structural (explicit trees, slot-limited
//! interior nodes, reconnection latency after parent loss) because the
//! quantity under comparison with the mesh is *disruption under churn*,
//! not block scheduling detail.

use cs_net::{Network, NodeClass, NodeId};
use cs_proto::UserSpec;
use cs_sim::rng::{streams, Xoshiro256PlusPlus};
use cs_sim::{Ctx, SimTime, World};
use rand::seq::SliceRandom;
use serde::{Deserialize, Serialize};

/// Baseline protocol parameters.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct TreeParams {
    /// Number of stripes/trees (1 = single tree).
    pub trees: u32,
    /// Stream rate in blocks per second across all stripes.
    pub blocks_per_sec: f64,
    /// Per-stripe bandwidth a child costs its parent, in blocks/s.
    pub stripe_rate: f64,
    /// Mean time for an orphan to find a new parent (tracker round trip +
    /// join handshake).
    pub rejoin_delay: SimTime,
    /// Accounting tick.
    pub tick: SimTime,
    /// Root (source) uplink in bits per second — finite, so real tree
    /// depth forms instead of a root-centered star.
    pub root_upload_bps: u64,
}

impl TreeParams {
    /// Single-tree defaults matching the Coolstreaming stream (768 kbps,
    /// 10 kB blocks).
    pub fn single_tree() -> Self {
        TreeParams {
            trees: 1,
            blocks_per_sec: 9.6,
            stripe_rate: 9.6,
            rejoin_delay: SimTime::from_secs(4),
            tick: SimTime::from_secs(2),
            root_upload_bps: 12_000_000,
        }
    }

    /// Multi-tree defaults with the same striping factor as the mesh's
    /// sub-stream count.
    pub fn multi_tree(k: u32) -> Self {
        TreeParams {
            trees: k,
            blocks_per_sec: 9.6,
            stripe_rate: 9.6 / k as f64,
            rejoin_delay: SimTime::from_secs(4),
            tick: SimTime::from_secs(2),
            root_upload_bps: 12_000_000,
        }
    }

    /// How many children a node with uplink `bps` can serve per stripe it
    /// is interior in.
    pub fn slots(&self, upload_bps: u64) -> usize {
        // stripe_rate blocks/s × 80_000 bits/block.
        let per_child = self.stripe_rate * 80_000.0;
        (upload_bps as f64 / per_child) as usize
    }
}

/// Baseline events.
#[derive(Clone, Copy, Debug)]
pub enum TreeEvent {
    /// A user joins.
    Arrive(UserSpec),
    /// Scheduled departure.
    Depart(NodeId),
    /// An orphan retries attachment in one stripe.
    Rejoin(NodeId, u32),
    /// Global continuity accounting tick.
    Tick,
}

/// Per-node baseline state.
#[derive(Clone, Debug)]
struct TreeNode {
    parents: Vec<Option<NodeId>>,
    children: Vec<Vec<NodeId>>,
    /// The stripe this node may serve children in (multi-tree rule);
    /// `None` for nodes that cannot accept incoming connections at all.
    interior_stripe: Option<u32>,
    slots: usize,
    due: u64,
    missed: u64,
    ticks: u64,
    playable_ticks: u64,
}

/// Session outcome for analysis.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct TreeSession {
    /// Node id.
    pub node: NodeId,
    /// Ground-truth class.
    pub class: NodeClass,
    /// Join time.
    pub join: SimTime,
    /// Leave time if departed within the run.
    pub leave: Option<SimTime>,
    /// Stripe-blocks due at deadlines.
    pub due: u64,
    /// Stripe-blocks missed (disconnected from the root).
    pub missed: u64,
    /// Accounting ticks lived.
    pub ticks: u64,
    /// Ticks in which at least 80 % of stripes were connected — losing
    /// one stripe of several is maskable by the player; losing the whole
    /// tree is not. This is where multi-tree beats single-tree.
    pub playable_ticks: u64,
}

impl TreeSession {
    /// Continuity index of this session.
    pub fn continuity(&self) -> Option<f64> {
        (self.due > 0).then(|| 1.0 - self.missed as f64 / self.due as f64)
    }

    /// Fraction of ticks with playable quality (≥ 80 % of stripes up).
    pub fn playable(&self) -> Option<f64> {
        (self.ticks > 0).then(|| self.playable_ticks as f64 / self.ticks as f64)
    }
}

/// Run-wide baseline counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct TreeStats {
    /// Successful attachments.
    pub attaches: u64,
    /// Attachment attempts that found no parent with a free slot.
    pub attach_failures: u64,
    /// Orphanings caused by parent departures.
    pub orphanings: u64,
    /// Leaves pushed down to make room for interior nodes.
    pub displacements: u64,
}

/// Result of an attachment attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum AttachOutcome {
    /// Attached to a free slot.
    Attached,
    /// Attached by displacing this leaf, which must rejoin.
    Displaced(NodeId),
    /// No slot found; retry later.
    Failed,
}

/// The tree-multicast world.
pub struct TreeWorld {
    /// Parameters.
    pub params: TreeParams,
    /// The shared network substrate.
    pub net: Network,
    /// The root (source) node.
    pub root: NodeId,
    nodes: Vec<Option<TreeNode>>,
    /// Finished + live session records (indexed by node id).
    pub sessions: Vec<TreeSession>,
    /// Counters.
    pub stats: TreeStats,
    /// Aggregate interior slots currently assigned per stripe — used to
    /// balance interior assignment (SplitStream's spare-capacity role).
    stripe_slots: Vec<usize>,
    rng: Xoshiro256PlusPlus,
}

impl TreeWorld {
    /// Build a world; the root has effectively unbounded slots.
    pub fn new(params: TreeParams, mut net: Network, seed: u64) -> Self {
        let root = net.add_node(
            NodeClass::Source,
            cs_net::Bandwidth(params.root_upload_bps),
            SimTime::ZERO,
        );
        let k = params.trees as usize;
        // The root serves every stripe; its uplink divides across them.
        let root_slots = (params.slots(params.root_upload_bps) / k).max(1);
        let root_node = TreeNode {
            parents: vec![None; k],
            children: vec![Vec::new(); k],
            interior_stripe: None, // root serves every stripe; special-cased
            slots: root_slots,
            due: 0,
            missed: 0,
            ticks: 0,
            playable_ticks: 0,
        };
        TreeWorld {
            params,
            net,
            root,
            nodes: vec![Some(root_node)],
            sessions: vec![TreeSession {
                node: root,
                class: NodeClass::Source,
                join: SimTime::ZERO,
                leave: None,
                due: 0,
                missed: 0,
                ticks: 0,
                playable_ticks: 0,
            }],
            stats: TreeStats::default(),
            stripe_slots: vec![0; params.trees as usize],
            rng: Xoshiro256PlusPlus::stream(seed, streams::BASELINE),
        }
    }

    /// Events to schedule before running.
    pub fn initial_events(&self) -> Vec<(SimTime, TreeEvent)> {
        vec![(self.params.tick, TreeEvent::Tick)]
    }

    fn may_serve(&self, id: NodeId, stripe: u32) -> bool {
        let Some(n) = self.nodes[id.index()].as_ref() else {
            return false;
        };
        let interior = id == self.root || n.interior_stripe == Some(stripe);
        interior && n.children[stripe as usize].len() < n.slots
    }

    /// Find a parent with a free slot in `stripe`, preferring shallow
    /// attachment (BFS order from the root).
    fn find_parent(&mut self, stripe: u32, exclude: NodeId) -> Option<NodeId> {
        // BFS over the stripe tree from the root; collect the first
        // depth level that has any free slot, then pick randomly in it.
        let mut frontier = vec![self.root];
        let mut visited = vec![false; self.nodes.len()];
        visited[self.root.index()] = true;
        while !frontier.is_empty() {
            let mut free: Vec<NodeId> = frontier
                .iter()
                .copied()
                .filter(|&p| p != exclude && self.may_serve(p, stripe))
                .collect();
            if !free.is_empty() {
                free.shuffle(&mut self.rng);
                return free.first().copied();
            }
            let mut next = Vec::new();
            for &p in &frontier {
                if let Some(n) = self.nodes[p.index()].as_ref() {
                    for &c in &n.children[stripe as usize] {
                        if !visited[c.index()] && c != exclude {
                            visited[c.index()] = true;
                            next.push(c);
                        }
                    }
                }
            }
            frontier = next;
        }
        None
    }

    /// Attach `id` in `stripe`. If no free slot is reachable and `id` is
    /// interior in this stripe, displace a leaf (SplitStream push-down):
    /// the leaf is orphaned and must rejoin — returned so the caller can
    /// schedule it.
    fn attach(&mut self, id: NodeId, stripe: u32) -> AttachOutcome {
        if let Some(parent) = self.find_parent(stripe, id) {
            if let Some(p) = self.nodes[parent.index()].as_mut() {
                p.children[stripe as usize].push(id);
            }
            if let Some(n) = self.nodes[id.index()].as_mut() {
                n.parents[stripe as usize] = Some(parent);
            }
            self.stats.attaches += 1;
            return AttachOutcome::Attached;
        }
        // Interior nodes bring serving capacity with them: letting them
        // wait behind leaves deadlocks the stripe. Push a leaf down.
        let is_interior = self.nodes[id.index()]
            .as_ref()
            .map(|n| n.interior_stripe == Some(stripe) && n.slots > 0)
            .unwrap_or(false);
        if is_interior {
            if let Some((parent, victim)) = self.find_displaceable(stripe, id) {
                if let Some(p) = self.nodes[parent.index()].as_mut() {
                    let ch = &mut p.children[stripe as usize];
                    ch.retain(|&c| c != victim);
                    ch.push(id);
                }
                if let Some(v) = self.nodes[victim.index()].as_mut() {
                    v.parents[stripe as usize] = None;
                }
                if let Some(n) = self.nodes[id.index()].as_mut() {
                    n.parents[stripe as usize] = Some(parent);
                }
                self.stats.attaches += 1;
                self.stats.displacements += 1;
                return AttachOutcome::Displaced(victim);
            }
        }
        self.stats.attach_failures += 1;
        AttachOutcome::Failed
    }

    /// Find, at the shallowest reachable level, a parent with a
    /// non-interior leaf child that can be displaced in favour of an
    /// interior node.
    fn find_displaceable(&self, stripe: u32, exclude: NodeId) -> Option<(NodeId, NodeId)> {
        let mut frontier = vec![self.root];
        let mut visited = vec![false; self.nodes.len()];
        visited[self.root.index()] = true;
        while !frontier.is_empty() {
            for &p in &frontier {
                let Some(pn) = self.nodes[p.index()].as_ref() else {
                    continue;
                };
                for &c in &pn.children[stripe as usize] {
                    if c == exclude {
                        continue;
                    }
                    let leaf = self.nodes[c.index()]
                        .as_ref()
                        .map(|n| n.interior_stripe != Some(stripe) || n.slots == 0)
                        .unwrap_or(false);
                    if leaf {
                        return Some((p, c));
                    }
                }
            }
            let mut next = Vec::new();
            for &p in &frontier {
                if let Some(n) = self.nodes[p.index()].as_ref() {
                    for &c in &n.children[stripe as usize] {
                        if !visited[c.index()] && c != exclude {
                            visited[c.index()] = true;
                            next.push(c);
                        }
                    }
                }
            }
            frontier = next;
        }
        None
    }

    /// Whether `id` currently reaches the root in `stripe`.
    fn connected(&self, id: NodeId, stripe: u32) -> bool {
        let mut cur = id;
        let mut hops = 0;
        while cur != self.root {
            hops += 1;
            if hops > self.nodes.len() {
                return false; // cycle guard
            }
            match self.nodes[cur.index()]
                .as_ref()
                .and_then(|n| n.parents[stripe as usize])
            {
                Some(p) => cur = p,
                None => return false,
            }
        }
        true
    }

    fn arrive(&mut self, spec: UserSpec, now: SimTime, ctx: &mut Ctx<'_, TreeEvent>) {
        let id = self.net.add_node(spec.class, spec.upload, now);
        debug_assert_eq!(id.index(), self.nodes.len());
        let k = self.params.trees;
        // Interior assignment: only publicly reachable peers may serve.
        // The stripe is the one with the least aggregate interior
        // capacity — the balancing role SplitStream delegates to its
        // spare-capacity group; plain id-striping leaves stripes
        // capacity-starved at marginal supply.
        let reachable = self.net.node(id).class.accepts_incoming() || self.net.node(id).permissive;
        let slots = self.params.slots(spec.upload.as_bps());
        let interior = (reachable && slots > 0).then(|| {
            let stripe = (0..k as usize)
                .min_by_key(|&i| self.stripe_slots[i])
                .unwrap_or(0) as u32;
            self.stripe_slots[stripe as usize] += slots;
            stripe
        });
        self.nodes.push(Some(TreeNode {
            parents: vec![None; k as usize],
            children: vec![Vec::new(); k as usize],
            interior_stripe: interior,
            slots,
            due: 0,
            missed: 0,
            ticks: 0,
            playable_ticks: 0,
        }));
        self.sessions.push(TreeSession {
            node: id,
            class: spec.class,
            join: now,
            leave: None,
            due: 0,
            missed: 0,
            ticks: 0,
            playable_ticks: 0,
        });
        for stripe in 0..k {
            match self.attach(id, stripe) {
                AttachOutcome::Attached => {}
                AttachOutcome::Displaced(victim) => {
                    ctx.schedule_in(self.params.rejoin_delay, TreeEvent::Rejoin(victim, stripe));
                }
                AttachOutcome::Failed => {
                    ctx.schedule_in(self.params.rejoin_delay, TreeEvent::Rejoin(id, stripe));
                }
            }
        }
        ctx.schedule_at(spec.leave_at, TreeEvent::Depart(id));
    }

    fn depart(&mut self, id: NodeId, now: SimTime, ctx: &mut Ctx<'_, TreeEvent>) {
        if !self.net.is_alive(id) || id == self.root {
            return;
        }
        let Some(node) = self.nodes[id.index()].take() else {
            return;
        };
        if let Some(stripe) = node.interior_stripe {
            let total = &mut self.stripe_slots[stripe as usize];
            *total = total.saturating_sub(node.slots);
        }
        // Detach from parents.
        for (stripe, parent) in node.parents.iter().enumerate() {
            if let Some(p) = parent {
                if let Some(pn) = self.nodes[p.index()].as_mut() {
                    pn.children[stripe].retain(|&c| c != id);
                }
            }
        }
        // Orphan children: they rejoin after the reconnection delay.
        for (stripe, children) in node.children.iter().enumerate() {
            for &c in children {
                if let Some(cn) = self.nodes[c.index()].as_mut() {
                    cn.parents[stripe] = None;
                    self.stats.orphanings += 1;
                    ctx.schedule_in(
                        self.params.rejoin_delay,
                        TreeEvent::Rejoin(c, stripe as u32),
                    );
                }
            }
        }
        let rec = &mut self.sessions[id.index()];
        rec.leave = Some(now);
        rec.due = node.due;
        rec.missed = node.missed;
        rec.ticks = node.ticks;
        rec.playable_ticks = node.playable_ticks;
        self.net.remove_node(id);
    }

    fn tick(&mut self, _now: SimTime) {
        let k = self.params.trees;
        let per_tick_blocks = self.params.stripe_rate * self.params.tick.as_secs_f64();
        // Integerized via accumulation on due/missed in milli-blocks
        // would be overkill; we count whole ticks and scale at readout.
        let _ = per_tick_blocks;
        let ids: Vec<NodeId> = self
            .net
            .iter_alive()
            .filter(|n| n.id != self.root)
            .map(|n| n.id)
            .collect();
        let need_up = (k as f64 * 0.8).ceil() as u32;
        for id in ids {
            let mut up = 0u32;
            for stripe in 0..k {
                let ok = self.connected(id, stripe);
                if ok {
                    up += 1;
                }
                if let Some(n) = self.nodes[id.index()].as_mut() {
                    n.due += 1;
                    if !ok {
                        n.missed += 1;
                    }
                }
            }
            if let Some(n) = self.nodes[id.index()].as_mut() {
                n.ticks += 1;
                if up >= need_up {
                    n.playable_ticks += 1;
                }
            }
        }
    }

    /// Flush live nodes' counters into their session records (call after
    /// the run ends).
    pub fn finalize(&mut self) {
        for (ix, node) in self.nodes.iter().enumerate() {
            if let Some(n) = node {
                self.sessions[ix].due = n.due;
                self.sessions[ix].missed = n.missed;
                self.sessions[ix].ticks = n.ticks;
                self.sessions[ix].playable_ticks = n.playable_ticks;
            }
        }
    }

    /// Mean continuity over sessions that played at least `min_due`
    /// stripe-ticks.
    pub fn mean_continuity(&self, min_due: u64) -> Option<f64> {
        let cis: Vec<f64> = self
            .sessions
            .iter()
            .filter(|s| s.class.is_user() && s.due >= min_due)
            .filter_map(|s| s.continuity())
            .collect();
        (!cis.is_empty()).then(|| cis.iter().sum::<f64>() / cis.len() as f64)
    }

    /// Mean playable-tick fraction over sessions with at least
    /// `min_ticks` accounting ticks.
    pub fn mean_playable(&self, min_ticks: u64) -> Option<f64> {
        let ps: Vec<f64> = self
            .sessions
            .iter()
            .filter(|s| s.class.is_user() && s.ticks >= min_ticks)
            .filter_map(|s| s.playable())
            .collect();
        (!ps.is_empty()).then(|| ps.iter().sum::<f64>() / ps.len() as f64)
    }
}

impl World for TreeWorld {
    type Event = TreeEvent;

    fn handle(&mut self, ctx: &mut Ctx<'_, TreeEvent>, event: TreeEvent) {
        let now = ctx.now();
        match event {
            TreeEvent::Arrive(spec) => self.arrive(spec, now, ctx),
            TreeEvent::Depart(id) => self.depart(id, now, ctx),
            TreeEvent::Rejoin(id, stripe) => {
                let detached = self.net.is_alive(id)
                    && self.nodes[id.index()]
                        .as_ref()
                        .map(|n| n.parents[stripe as usize].is_none())
                        == Some(true);
                if detached {
                    match self.attach(id, stripe) {
                        AttachOutcome::Attached => {}
                        AttachOutcome::Displaced(victim) => {
                            ctx.schedule_in(
                                self.params.rejoin_delay,
                                TreeEvent::Rejoin(victim, stripe),
                            );
                        }
                        AttachOutcome::Failed => {
                            ctx.schedule_in(
                                self.params.rejoin_delay,
                                TreeEvent::Rejoin(id, stripe),
                            );
                        }
                    }
                }
            }
            TreeEvent::Tick => {
                self.tick(now);
                ctx.schedule_in(self.params.tick, TreeEvent::Tick);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs_logging::UserId;
    use cs_net::{Bandwidth, ConnectivityPolicy, LatencyModel};
    use cs_sim::Engine;

    fn world(params: TreeParams, seed: u64) -> Engine<TreeWorld> {
        let net = Network::new(ConnectivityPolicy::strict(), LatencyModel::default(), seed);
        let w = TreeWorld::new(params, net, seed);
        let mut eng = Engine::new(w);
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
            patience: SimTime::from_secs(60),
            retries_left: 0,
            retry_index: 0,
        }
    }

    #[test]
    fn static_tree_has_perfect_continuity() {
        let mut eng = world(TreeParams::single_tree(), 1);
        for u in 0..10 {
            eng.schedule_at(
                SimTime::from_secs(1),
                TreeEvent::Arrive(spec(u, NodeClass::DirectConnect, 2000, 10_000)),
            );
        }
        eng.run_until(SimTime::from_secs(600));
        eng.world_mut().finalize();
        let ci = eng.world().mean_continuity(10).unwrap();
        assert!(ci > 0.999, "static tree continuity {ci}");
        assert_eq!(eng.world().stats.orphanings, 0);
    }

    #[test]
    fn nat_peers_cannot_be_interior() {
        let mut eng = world(TreeParams::single_tree(), 2);
        eng.schedule_at(
            SimTime::from_secs(1),
            TreeEvent::Arrive(spec(0, NodeClass::Nat, 5000, 10_000)),
        );
        eng.schedule_at(
            SimTime::from_secs(2),
            TreeEvent::Arrive(spec(1, NodeClass::DirectConnect, 2000, 10_000)),
        );
        eng.run_until(SimTime::from_secs(60));
        let w = eng.world();
        // Both attach under the root (NAT can't serve), so the direct
        // peer's parent is the root, not the NAT peer.
        let direct_id = NodeId(2);
        let parent = w.nodes[direct_id.index()].as_ref().unwrap().parents[0];
        assert_eq!(parent, Some(w.root));
    }

    #[test]
    fn interior_departure_disrupts_single_tree() {
        // Tiny root (2 slots) so real depth forms: two strong peers sit
        // under the root, NAT leaves hang below them.
        let mut params = TreeParams::single_tree();
        params.root_upload_bps = 1_600_000;
        let mut eng = world(params, 3);
        eng.schedule_at(
            SimTime::from_secs(1),
            TreeEvent::Arrive(spec(0, NodeClass::DirectConnect, 10_000, 300)),
        );
        eng.schedule_at(
            SimTime::from_secs(2),
            TreeEvent::Arrive(spec(1, NodeClass::DirectConnect, 10_000, 10_000)),
        );
        for u in 2..10 {
            eng.schedule_at(
                SimTime::from_secs(5),
                TreeEvent::Arrive(spec(u, NodeClass::Nat, 300, 10_000)),
            );
        }
        eng.run_until(SimTime::from_secs(600));
        eng.world_mut().finalize();
        let w = eng.world();
        assert!(w.stats.orphanings > 0, "no orphans created");
        let ci = w.mean_continuity(10).unwrap();
        assert!(ci < 1.0, "churn must cost something");
        assert!(ci > 0.8, "rejoin should restore service, ci={ci}");
    }

    #[test]
    fn multi_tree_keeps_playback_playable_under_churn() {
        // The SplitStream claim: no single failure costs a child the
        // whole stream. Stripe-level continuity is similar between the
        // variants, but the fraction of *playable* ticks (≥ 80 % of
        // stripes up, maskable by the player) must favour multi-tree.
        let run = |params: TreeParams| {
            let mut eng = world(params, 4);
            // Rolling churn of strong interior peers, with replacement so
            // aggregate capacity stays sufficient: ~20 alive at any time,
            // one departing every ~10 s.
            for u in 0..60 {
                let arrive = 2 + u as u64 * 10;
                eng.schedule_at(
                    SimTime::from_secs(arrive),
                    TreeEvent::Arrive(spec(u, NodeClass::DirectConnect, 6000, arrive + 200)),
                );
            }
            for u in 60..110 {
                eng.schedule_at(
                    SimTime::from_secs(150 + u as u64),
                    TreeEvent::Arrive(spec(u, NodeClass::Nat, 300, 10_000)),
                );
            }
            eng.run_until(SimTime::from_secs(700));
            eng.world_mut().finalize();
            (
                eng.world().mean_continuity(20).unwrap(),
                eng.world().mean_playable(20).unwrap(),
            )
        };
        let (ci_single, play_single) = run(TreeParams::single_tree());
        let (ci_multi, play_multi) = run(TreeParams::multi_tree(6));
        // Both lose stripe-blocks under this churn.
        assert!(ci_single < 1.0 && ci_multi < 1.0);
        assert!(
            play_multi > play_single,
            "multi-tree playable {play_multi} should beat single tree {play_single}"
        );
    }

    #[test]
    fn root_departure_is_refused() {
        let mut eng = world(TreeParams::single_tree(), 5);
        let root = eng.world().root;
        eng.schedule_at(SimTime::from_secs(1), TreeEvent::Depart(root));
        eng.run_until(SimTime::from_secs(10));
        assert!(eng.world().net.is_alive(root));
    }
}
