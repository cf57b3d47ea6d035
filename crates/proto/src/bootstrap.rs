//! The boot-strap (tracker) server.
//!
//! §III.B: *"a newly joined node contacts a boot-strap node for a list of
//! peer nodes and stores that in its own mCache."* The boot-strap node
//! knows which peers are currently registered (peers register on join and
//! deregister on leave) and answers each request with a random sample,
//! always seeded with a couple of dedicated servers so a joining peer can
//! reach content even when the random peer sample is useless (all-NAT
//! flash crowd).

use cs_net::NodeId;
use cs_sim::{DetMap, SimTime};
use rand::seq::SliceRandom;
use rand::Rng;

use crate::mcache::McEntry;

/// The tracker's registry of live peers.
#[derive(Clone, Debug, Default)]
pub struct Bootstrap {
    /// Dense list for O(1) random sampling.
    roster: Vec<NodeId>,
    /// id → (index in `roster`, join time).
    index: DetMap<NodeId, (usize, SimTime)>,
    /// Dedicated helper servers, included in every reply.
    servers: Vec<(NodeId, SimTime)>,
    /// Requests served (for load accounting).
    pub requests: u64,
}

impl Bootstrap {
    /// Empty registry.
    pub fn new() -> Self {
        Bootstrap::default()
    }

    /// Register a dedicated server (never deregistered).
    pub fn add_server(&mut self, id: NodeId, now: SimTime) {
        self.servers.push((id, now));
    }

    /// Register a peer on join.
    pub fn register(&mut self, id: NodeId, now: SimTime) {
        if self.index.contains_key(&id) {
            return;
        }
        self.index.insert(id, (self.roster.len(), now));
        self.roster.push(id);
    }

    /// Deregister a peer on leave.
    pub fn deregister(&mut self, id: NodeId) {
        if let Some((ix, _)) = self.index.remove(&id) {
            let last = self.roster.len() - 1;
            self.roster.swap_remove(ix);
            if ix <= last && ix < self.roster.len() {
                let moved = self.roster[ix];
                if let Some(slot) = self.index.get_mut(&moved) {
                    slot.0 = ix;
                }
            }
        }
    }

    /// Registered peer count (servers excluded).
    pub fn len(&self) -> usize {
        self.roster.len()
    }

    /// Whether no peers are registered.
    pub fn is_empty(&self) -> bool {
        self.roster.is_empty()
    }

    /// Answer a join request: up to two random servers plus a random
    /// sample of peers, `fanout` entries in total, excluding the requester.
    pub fn sample<R: Rng + ?Sized>(
        &mut self,
        requester: NodeId,
        fanout: usize,
        rng: &mut R,
    ) -> Vec<McEntry> {
        self.requests += 1;
        let mut out = Vec::with_capacity(fanout);
        let mut servers: Vec<&(NodeId, SimTime)> = self.servers.iter().collect();
        servers.shuffle(rng);
        for &&(id, joined) in servers.iter().take(2.min(fanout)) {
            out.push(McEntry {
                id,
                joined_at: joined,
            });
        }
        let want_peers = fanout.saturating_sub(out.len());
        if want_peers > 0 && !self.roster.is_empty() {
            // Sample without replacement by index shuffle over a bounded
            // draw: for small fanout relative to population, rejection
            // sampling is cheaper than a full shuffle.
            let mut chosen = Vec::with_capacity(want_peers);
            let mut guard = 0;
            while chosen.len() < want_peers && guard < fanout * 20 {
                guard += 1;
                let pick = self.roster[rng.gen_range(0..self.roster.len())];
                if pick != requester && !chosen.contains(&pick) {
                    chosen.push(pick);
                }
            }
            for id in chosen {
                let joined = self.index[&id].1;
                out.push(McEntry {
                    id,
                    joined_at: joined,
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs_sim::rng::Xoshiro256PlusPlus;

    #[test]
    fn register_deregister_consistency() {
        let mut b = Bootstrap::new();
        for i in 0..10 {
            b.register(NodeId(i), SimTime::from_secs(i as u64));
        }
        assert_eq!(b.len(), 10);
        b.deregister(NodeId(3));
        b.deregister(NodeId(0));
        b.deregister(NodeId(9));
        assert_eq!(b.len(), 7);
        // Double-deregister is a no-op.
        b.deregister(NodeId(3));
        assert_eq!(b.len(), 7);
        // Re-register works.
        b.register(NodeId(3), SimTime::from_secs(99));
        assert_eq!(b.len(), 8);
    }

    #[test]
    fn sample_includes_servers_first() {
        let mut b = Bootstrap::new();
        b.add_server(NodeId(1000), SimTime::ZERO);
        b.add_server(NodeId(1001), SimTime::ZERO);
        b.add_server(NodeId(1002), SimTime::ZERO);
        for i in 0..50 {
            b.register(NodeId(i), SimTime::ZERO);
        }
        let mut rng = Xoshiro256PlusPlus::new(1);
        let s = b.sample(NodeId(0), 8, &mut rng);
        assert_eq!(s.len(), 8);
        let n_servers = s.iter().filter(|e| e.id.0 >= 1000).count();
        assert_eq!(n_servers, 2);
    }

    #[test]
    fn sample_excludes_requester_and_duplicates() {
        let mut b = Bootstrap::new();
        for i in 0..5 {
            b.register(NodeId(i), SimTime::ZERO);
        }
        let mut rng = Xoshiro256PlusPlus::new(2);
        for _ in 0..50 {
            let s = b.sample(NodeId(2), 10, &mut rng);
            let ids: Vec<u32> = s.iter().map(|e| e.id.0).collect();
            assert!(!ids.contains(&2));
            let mut dedup = ids.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(dedup.len(), ids.len());
        }
    }

    #[test]
    fn sample_from_empty_registry_returns_servers_only() {
        let mut b = Bootstrap::new();
        b.add_server(NodeId(7), SimTime::ZERO);
        let mut rng = Xoshiro256PlusPlus::new(3);
        let s = b.sample(NodeId(1), 6, &mut rng);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].id, NodeId(7));
    }

    #[test]
    fn request_counter_increments() {
        let mut b = Bootstrap::new();
        let mut rng = Xoshiro256PlusPlus::new(4);
        b.sample(NodeId(1), 4, &mut rng);
        b.sample(NodeId(2), 4, &mut rng);
        assert_eq!(b.requests, 2);
    }
}
