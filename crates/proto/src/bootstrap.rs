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
use cs_sim::rng::Xoshiro256PlusPlus;
use cs_sim::DetMap;

/// The tracker's registry of live peers.
#[derive(Clone, Debug, Default)]
pub struct Bootstrap {
    /// Dense list for O(1) random sampling.
    roster: Vec<NodeId>,
    /// id → index in `roster`.
    index: DetMap<NodeId, usize>,
    /// Dedicated helper servers, included in every reply.
    servers: Vec<NodeId>,
    /// Requests served (for load accounting).
    pub requests: u64,
}

impl Bootstrap {
    /// Empty registry.
    pub fn new() -> Self {
        Bootstrap::default()
    }

    /// Register a dedicated server (never deregistered).
    pub fn add_server(&mut self, id: NodeId) {
        self.servers.push(id);
    }

    /// Register a peer on join.
    pub fn register(&mut self, id: NodeId) {
        if self.index.contains_key(&id) {
            return;
        }
        self.index.insert(id, self.roster.len());
        self.roster.push(id);
    }

    /// Deregister a peer on leave.
    pub fn deregister(&mut self, id: NodeId) {
        if let Some(ix) = self.index.remove(&id) {
            let last = self.roster.len() - 1;
            self.roster.swap_remove(ix);
            if ix <= last && ix < self.roster.len() {
                let moved = self.roster[ix];
                if let Some(slot) = self.index.get_mut(&moved) {
                    *slot = ix;
                }
            }
        }
    }

    /// Heap bytes: the roster's and server list's capacities plus the
    /// index's entries (its tree nodes' slack is not counted).
    pub fn heap_bytes(&self) -> usize {
        self.roster.capacity() * std::mem::size_of::<NodeId>()
            + self.index.len() * std::mem::size_of::<(NodeId, usize)>()
            + self.servers.capacity() * std::mem::size_of::<NodeId>()
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
    pub fn sample(
        &mut self,
        requester: NodeId,
        fanout: usize,
        rng: &mut Xoshiro256PlusPlus,
    ) -> Vec<NodeId> {
        self.requests += 1;
        let mut out = Vec::with_capacity(fanout);
        let mut servers = self.servers.clone();
        rng.shuffle(&mut servers);
        out.extend(servers.iter().take(2.min(fanout)));
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
            out.extend(chosen);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_deregister_consistency() {
        let mut b = Bootstrap::new();
        for i in 0..10 {
            b.register(NodeId(i));
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
        b.register(NodeId(3));
        assert_eq!(b.len(), 8);
    }

    #[test]
    fn sample_includes_servers_first() {
        let mut b = Bootstrap::new();
        b.add_server(NodeId(1000));
        b.add_server(NodeId(1001));
        b.add_server(NodeId(1002));
        for i in 0..50 {
            b.register(NodeId(i));
        }
        let mut rng = Xoshiro256PlusPlus::new(1);
        let s = b.sample(NodeId(0), 8, &mut rng);
        assert_eq!(s.len(), 8);
        let n_servers = s.iter().filter(|e| e.0 >= 1000).count();
        assert_eq!(n_servers, 2);
    }

    #[test]
    fn sample_excludes_requester_and_duplicates() {
        let mut b = Bootstrap::new();
        for i in 0..5 {
            b.register(NodeId(i));
        }
        let mut rng = Xoshiro256PlusPlus::new(2);
        for _ in 0..50 {
            let s = b.sample(NodeId(2), 10, &mut rng);
            let ids: Vec<u32> = s.iter().map(|e| e.0).collect();
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
        b.add_server(NodeId(7));
        let mut rng = Xoshiro256PlusPlus::new(3);
        let s = b.sample(NodeId(1), 6, &mut rng);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0], NodeId(7));
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
