//! The node registry.
//!
//! `Network` owns the ground truth about every node: class, synthetic
//! coordinate, uplink capacity, liveness. It answers the two questions the
//! protocol layer asks of "the Internet":
//!
//! 1. *Can A open a TCP connection to B?* — [`Network::try_connect`],
//!    combining class reachability with the [`ConnectivityPolicy`];
//! 2. *How long does a message from A take to reach B?* —
//!    [`Network::delay`].
//!
//! It is deliberately passive (no events of its own); the protocol world
//! drives all scheduling.

use cs_sim::rng::{streams, Xoshiro256PlusPlus};
use cs_sim::SimTime;

use crate::capacity::Bandwidth;
use crate::class::NodeClass;
use crate::connectivity::{ConnectError, ConnectivityPolicy};
use crate::id::NodeId;
use crate::latency::{Coord, LatencyModel};

/// Ground-truth record for one node.
#[derive(Clone, Debug)]
pub struct NodeInfo {
    /// The node's identity.
    pub id: NodeId,
    /// Connection class.
    pub class: NodeClass,
    /// Synthetic network coordinate.
    pub coord: Coord,
    /// Uplink capacity.
    pub upload: Bandwidth,
    /// When the node joined.
    pub joined_at: SimTime,
    /// Whether the node is currently in the system.
    pub alive: bool,
    /// Whether this node's middlebox accepts unsolicited inbound
    /// connections despite its class (full-cone NAT / lenient firewall).
    pub permissive: bool,
}

/// Counters for connection attempts, kept per target class.
#[derive(Clone, Copy, Debug, Default)]
pub struct ConnectStats {
    /// Attempts towards this class.
    pub attempts: u64,
    /// Attempts that succeeded.
    pub successes: u64,
}

/// The node registry and reachability oracle.
pub struct Network {
    nodes: Vec<NodeInfo>,
    policy: ConnectivityPolicy,
    latency: LatencyModel,
    rng: Xoshiro256PlusPlus,
    /// Index by a compact class ordinal; see `class_ix`.
    connect_stats: [ConnectStats; 6],
}

fn class_ix(c: NodeClass) -> usize {
    match c {
        NodeClass::DirectConnect => 0,
        NodeClass::Upnp => 1,
        NodeClass::Nat => 2,
        NodeClass::Firewall => 3,
        NodeClass::Server => 4,
        NodeClass::Source => 5,
    }
}

impl Network {
    /// Create an empty network.
    pub fn new(policy: ConnectivityPolicy, latency: LatencyModel, master_seed: u64) -> Self {
        Network {
            nodes: Vec::new(),
            policy,
            latency,
            rng: Xoshiro256PlusPlus::stream(master_seed, streams::NETWORK),
            connect_stats: Default::default(),
        }
    }

    /// Register a node with the given class and uplink capacity; assigns a
    /// fresh id and a random coordinate.
    pub fn add_node(&mut self, class: NodeClass, upload: Bandwidth, now: SimTime) -> NodeId {
        #[expect(
            clippy::expect_used,
            reason = "run precondition: `ScenarioSpec::validate` keeps the expected node ids under half the 32-bit range; a node past it is a programming error, not a runtime state"
        )]
        let id = NodeId(u32::try_from(self.nodes.len()).expect("node ids within 32 bits"));
        let permissive = self.policy.sample_permissive(class, &mut self.rng);
        self.nodes.push(NodeInfo {
            id,
            class,
            coord: Coord::random(&mut self.rng),
            upload,
            joined_at: now,
            alive: true,
            permissive,
        });
        id
    }

    /// Mark a node as departed. Ids are never reused, so departed nodes
    /// remain inspectable for analysis.
    pub fn remove_node(&mut self, id: NodeId) {
        self.nodes[id.index()].alive = false;
    }

    /// Re-activate a previously departed node id (a *re-entry*, §V.D).
    pub fn revive_node(&mut self, id: NodeId, now: SimTime) {
        let info = &mut self.nodes[id.index()];
        if !info.alive {
            info.alive = true;
            info.joined_at = now;
        }
    }

    /// Whether `id` is currently in the system.
    pub fn is_alive(&self, id: NodeId) -> bool {
        self.nodes.get(id.index()).map(|n| n.alive).unwrap_or(false)
    }

    /// Ground-truth record of a node (alive or departed).
    pub fn node(&self, id: NodeId) -> &NodeInfo {
        &self.nodes[id.index()]
    }

    /// Total nodes ever registered.
    pub fn total_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Size the registry for `nodes` registrations in all, exactly, so it
    /// never regrows below that count. A reservation the allocator
    /// refuses leaves the registry to grow as nodes arrive.
    pub fn reserve_total(&mut self, nodes: usize) {
        let _ = self
            .nodes
            .try_reserve_exact(nodes.saturating_sub(self.nodes.len()));
    }

    /// Heap bytes the registry has written: one record per node.
    pub fn heap_bytes(&self) -> usize {
        self.nodes.len() * std::mem::size_of::<NodeInfo>()
    }

    /// Capacity bytes of the registry's node table.
    pub fn reserved_bytes(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<NodeInfo>()
    }

    /// Iterate all records (alive and departed).
    pub fn iter(&self) -> impl Iterator<Item = &NodeInfo> {
        self.nodes.iter()
    }

    /// Iterate only live nodes.
    pub fn iter_alive(&self) -> impl Iterator<Item = &NodeInfo> {
        self.nodes.iter().filter(|n| n.alive)
    }

    /// Attempt to open a connection from `from` to `to`. Fails if either
    /// end is gone, if it is a self-connection, or if the target's
    /// middlebox drops it.
    pub fn try_connect(&mut self, from: NodeId, to: NodeId) -> Result<(), ConnectError> {
        if from == to {
            return Err(ConnectError::SelfConnection);
        }
        debug_assert!(self.is_alive(from) && self.is_alive(to));
        let target = &self.nodes[to.index()];
        let (target_class, permissive) = (target.class, target.permissive);
        let stats = &mut self.connect_stats[class_ix(target_class)];
        stats.attempts += 1;
        let res = self.policy.attempt(target_class, permissive);
        if res.is_ok() {
            stats.successes += 1;
        }
        res
    }

    /// Sample the one-way message delay from `a` to `b`.
    pub fn delay(&mut self, a: NodeId, b: NodeId) -> SimTime {
        let (ca, cb) = (self.nodes[a.index()].coord, self.nodes[b.index()].coord);
        self.latency.sample(ca, cb, &mut self.rng)
    }

    /// Connection-attempt statistics towards the given class.
    pub fn connect_stats(&self, class: NodeClass) -> ConnectStats {
        self.connect_stats[class_ix(class)]
    }

    /// The current reachability policy.
    pub fn policy(&self) -> ConnectivityPolicy {
        self.policy
    }

    /// Swap the reachability policy mid-run (chaos injection: a NAT-share
    /// shift). Existing nodes keep the `permissive` flag sampled at
    /// creation — middlebox behaviour is a property of the deployed box —
    /// so the new policy governs *future* node creations and the
    /// acceptance of attempts towards non-permissive targets.
    pub fn set_policy(&mut self, policy: ConnectivityPolicy) {
        self.policy = policy;
    }

    /// Overwrite a node's uplink capacity (chaos injection: upload skew /
    /// free-riding). Takes effect at the node's next scheduling round.
    pub fn set_upload(&mut self, id: NodeId, upload: Bandwidth) {
        self.nodes[id.index()].upload = upload;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> Network {
        Network::new(ConnectivityPolicy::default(), LatencyModel::default(), 42)
    }

    #[test]
    fn add_remove_tracks_alive_count() {
        let mut n = net();
        let a = n.add_node(NodeClass::DirectConnect, Bandwidth::mbps(2), SimTime::ZERO);
        let b = n.add_node(NodeClass::Nat, Bandwidth::kbps(300), SimTime::ZERO);
        assert_eq!(n.iter_alive().count(), 2);
        n.remove_node(a);
        assert_eq!(n.iter_alive().count(), 1);
        assert!(!n.is_alive(a));
        assert!(n.is_alive(b));
        // Double-remove is a no-op.
        n.remove_node(a);
        assert_eq!(n.iter_alive().count(), 1);
        assert_eq!(n.total_nodes(), 2);
    }

    #[test]
    fn revive_restores_membership_with_new_join_time() {
        let mut n = net();
        let a = n.add_node(NodeClass::Firewall, Bandwidth::kbps(300), SimTime::ZERO);
        n.remove_node(a);
        n.revive_node(a, SimTime::from_secs(30));
        assert!(n.is_alive(a));
        assert_eq!(n.node(a).joined_at, SimTime::from_secs(30));
        assert_eq!(n.iter_alive().count(), 1);
    }

    #[test]
    fn self_connection_rejected() {
        let mut n = net();
        let a = n.add_node(NodeClass::DirectConnect, Bandwidth::mbps(2), SimTime::ZERO);
        assert_eq!(n.try_connect(a, a), Err(ConnectError::SelfConnection));
    }

    #[test]
    fn public_targets_reachable_nat_mostly_not() {
        let mut n = net();
        let pubn = n.add_node(NodeClass::DirectConnect, Bandwidth::mbps(2), SimTime::ZERO);
        let initiator = n.add_node(NodeClass::Nat, Bandwidth::kbps(300), SimTime::ZERO);
        // NAT peers always reach public peers.
        for _ in 0..100 {
            assert!(n.try_connect(initiator, pubn).is_ok());
        }
        // Only the few permissive NAT peers accept inbound, and each one
        // behaves consistently across attempts.
        let targets: Vec<NodeId> = (0..500)
            .map(|_| n.add_node(NodeClass::Nat, Bandwidth::kbps(300), SimTime::ZERO))
            .collect();
        let mut nat_ok = 0;
        for &t in &targets {
            let first = n.try_connect(initiator, t).is_ok();
            let second = n.try_connect(initiator, t).is_ok();
            assert_eq!(first, second, "middlebox behaviour must be stable");
            if first {
                nat_ok += 1;
            }
        }
        assert!(nat_ok < 40, "nat accepted {nat_ok}/500");
        let stats = n.connect_stats(NodeClass::Nat);
        assert_eq!(stats.attempts, 1000);
        assert_eq!(stats.successes, nat_ok * 2);
    }

    #[test]
    fn delay_positive_and_varies() {
        let mut n = net();
        let a = n.add_node(NodeClass::DirectConnect, Bandwidth::mbps(2), SimTime::ZERO);
        let b = n.add_node(NodeClass::Nat, Bandwidth::kbps(300), SimTime::ZERO);
        let d1 = n.delay(a, b);
        let d2 = n.delay(a, b);
        assert!(d1 > SimTime::ZERO);
        // Jitter makes repeated samples differ (with overwhelming prob.).
        assert_ne!(d1, d2);
    }

    #[test]
    fn deterministic_given_seed() {
        let build = || {
            let mut n = Network::new(ConnectivityPolicy::default(), LatencyModel::default(), 7);
            let a = n.add_node(NodeClass::DirectConnect, Bandwidth::mbps(2), SimTime::ZERO);
            let b = n.add_node(NodeClass::Nat, Bandwidth::kbps(300), SimTime::ZERO);
            (n.delay(a, b), n.node(a).coord)
        };
        let (d1, c1) = build();
        let (d2, c2) = build();
        assert_eq!(d1, d2);
        assert_eq!(c1, c2);
    }
}
