//! Overlay topology snapshots (Fig. 4 and §V.B.2).
//!
//! The paper conjectures a "conceptual overlay": most peers end up clogged
//! under direct-connect/UPnP parents; random links among NAT/firewall
//! peers are rare; the stable public peers form a backbone near the
//! source. Snapshots quantify exactly those properties so the FIG4
//! experiment can show convergence over time.

use std::collections::VecDeque;

use cs_net::NodeClass;
use cs_sim::SimTime;
use serde::{Deserialize, Serialize};

use crate::world::CsWorld;

/// Aggregate topology metrics at one instant.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct TopologySnapshot {
    /// Snapshot time.
    pub time: SimTime,
    /// Alive user peers.
    pub peers: usize,
    /// Peers with at least one parent (actually streaming).
    pub streaming: usize,
    /// Parent→child sub-stream edges, total.
    pub edges_total: usize,
    /// Edges whose parent is a direct-connect/UPnP user.
    pub edges_from_public: usize,
    /// Edges whose parent is a NAT/firewall user.
    pub edges_from_private: usize,
    /// Edges whose parent is a dedicated server (or the source).
    pub edges_from_server: usize,
    /// Partnerships whose both endpoints are NAT/firewall users — the
    /// paper's rare "random links".
    pub natfw_partner_links: usize,
    /// Partnerships total (unordered pairs).
    pub partner_links: usize,
    /// Streaming peers all of whose parents are public users or servers.
    pub fully_public_parents: usize,
    /// Mean depth of streaming peers (servers are depth 1).
    pub mean_depth: f64,
    /// Max depth observed.
    pub max_depth: u32,
    /// Streaming peers unreachable from the server/source roots through
    /// parent→child edges (stale parents).
    pub orphans: usize,
}

impl TopologySnapshot {
    /// Fraction of parent edges served by public user peers, among edges
    /// served by user peers (server edges excluded).
    pub fn public_parent_share(&self) -> f64 {
        let user_edges = self.edges_from_public + self.edges_from_private;
        if user_edges == 0 {
            0.0
        } else {
            self.edges_from_public as f64 / user_edges as f64
        }
    }

    /// Fraction of partnerships that are NAT/firewall↔NAT/firewall.
    pub fn natfw_link_share(&self) -> f64 {
        if self.partner_links == 0 {
            0.0
        } else {
            self.natfw_partner_links as f64 / self.partner_links as f64
        }
    }
}

/// Measure the overlay at one instant: walk every live user peer's
/// parents and partners (read-only, via the [`Peer`](crate::Peer)
/// accessors) and aggregate the Fig. 4 metrics. The dispatch in
/// `world.rs` pushes the result onto [`CsWorld::snapshots`].
pub(crate) fn capture(world: &CsWorld, now: SimTime) -> TopologySnapshot {
    let n = world.net.total_nodes();
    let mut snap = TopologySnapshot {
        time: now,
        ..Default::default()
    };
    let mut children_adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut streaming_nodes: Vec<usize> = Vec::new();
    for info in world.net.iter_alive() {
        let Some(peer) = world.peer(info.id) else {
            continue;
        };
        if !info.class.is_user() {
            continue;
        }
        snap.peers += 1;
        let mut any_parent = false;
        let mut all_public = true;
        for parent in peer.parents().iter().flatten() {
            any_parent = true;
            snap.edges_total += 1;
            children_adj[parent.index()].push(info.id.index());
            match edge_bucket(world.net.node(*parent).class) {
                EdgeBucket::Public => snap.edges_from_public += 1,
                EdgeBucket::Private => {
                    snap.edges_from_private += 1;
                    all_public = false;
                }
                EdgeBucket::Server => snap.edges_from_server += 1,
            }
        }
        if any_parent {
            snap.streaming += 1;
            streaming_nodes.push(info.id.index());
            if all_public {
                snap.fully_public_parents += 1;
            }
        }
        // Partnership links (count unordered pairs once).
        let my_private = matches!(info.class, NodeClass::Nat | NodeClass::Firewall);
        for &q in peer.partners().ids() {
            if q.index() > info.id.index() {
                let qc = world.net.node(q).class;
                if qc.is_user() {
                    snap.partner_links += 1;
                    let q_private = matches!(qc, NodeClass::Nat | NodeClass::Firewall);
                    if my_private && q_private {
                        snap.natfw_partner_links += 1;
                    }
                }
            }
        }
    }
    let mut roots: Vec<usize> = world.servers.iter().map(|s| s.index()).collect();
    roots.push(world.source.index());
    let depths = bfs_depths(n, &roots, &children_adj);
    let mut sum = 0u64;
    let mut count = 0u64;
    for &ix in &streaming_nodes {
        match depths[ix] {
            Some(d) => {
                sum += d as u64;
                count += 1;
                snap.max_depth = snap.max_depth.max(d);
            }
            None => snap.orphans += 1,
        }
    }
    snap.mean_depth = if count > 0 {
        sum as f64 / count as f64
    } else {
        0.0
    };
    snap
}

/// Compute depths with a BFS from the roots over parent→child edges.
///
/// `children[v]` lists the child node indices of `v`; `roots` are the
/// servers/source at depth 1. Returns per-node `Option<u32>` depth.
pub fn bfs_depths(n: usize, roots: &[usize], children: &[Vec<usize>]) -> Vec<Option<u32>> {
    let mut depth: Vec<Option<u32>> = vec![None; n];
    // Queue entries carry their depth, so dequeueing never has to re-read
    // (and trust) the `depth` table.
    let mut q = VecDeque::new();
    for &r in roots {
        if depth[r].is_none() {
            depth[r] = Some(1);
            q.push_back((r, 1));
        }
    }
    while let Some((v, d)) = q.pop_front() {
        for &c in &children[v] {
            if depth[c].is_none() {
                depth[c] = Some(d + 1);
                q.push_back((c, d + 1));
            }
        }
    }
    depth
}

/// Classify a parent class into the snapshot's three edge buckets.
pub fn edge_bucket(parent: NodeClass) -> EdgeBucket {
    match parent {
        NodeClass::DirectConnect | NodeClass::Upnp => EdgeBucket::Public,
        NodeClass::Nat | NodeClass::Firewall => EdgeBucket::Private,
        NodeClass::Server | NodeClass::Source => EdgeBucket::Server,
    }
}

/// Parent-edge provenance bucket.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EdgeBucket {
    /// Direct-connect / UPnP user parent.
    Public,
    /// NAT / firewall user parent.
    Private,
    /// Dedicated server or source parent.
    Server,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bfs_depths_simple_tree() {
        // 0 is root; 0→1, 0→2, 1→3; 4 is orphan.
        let children = vec![vec![1, 2], vec![3], vec![], vec![], vec![]];
        let d = bfs_depths(5, &[0], &children);
        assert_eq!(d, vec![Some(1), Some(2), Some(2), Some(3), None]);
    }

    #[test]
    fn bfs_handles_diamonds_and_cycles() {
        // 0→1, 0→2, 1→3, 2→3 (diamond), 3→1 (back edge).
        let children = vec![vec![1, 2], vec![3], vec![3], vec![1]];
        let d = bfs_depths(4, &[0], &children);
        assert_eq!(d[3], Some(3));
        assert_eq!(d[1], Some(2)); // not revisited via the back edge
    }

    #[test]
    fn multiple_roots() {
        let children = vec![vec![2], vec![2], vec![]];
        let d = bfs_depths(3, &[0, 1], &children);
        assert_eq!(d[2], Some(2));
    }

    #[test]
    fn shares_handle_zero_denominators() {
        let s = TopologySnapshot::default();
        assert_eq!(s.public_parent_share(), 0.0);
        assert_eq!(s.natfw_link_share(), 0.0);
    }

    #[test]
    fn edge_buckets() {
        assert_eq!(edge_bucket(NodeClass::DirectConnect), EdgeBucket::Public);
        assert_eq!(edge_bucket(NodeClass::Upnp), EdgeBucket::Public);
        assert_eq!(edge_bucket(NodeClass::Nat), EdgeBucket::Private);
        assert_eq!(edge_bucket(NodeClass::Firewall), EdgeBucket::Private);
        assert_eq!(edge_bucket(NodeClass::Server), EdgeBucket::Server);
        assert_eq!(edge_bucket(NodeClass::Source), EdgeBucket::Server);
    }

    #[test]
    fn share_computations() {
        let s = TopologySnapshot {
            edges_from_public: 80,
            edges_from_private: 20,
            edges_from_server: 50,
            natfw_partner_links: 5,
            partner_links: 100,
            ..Default::default()
        };
        assert!((s.public_parent_share() - 0.8).abs() < 1e-12);
        assert!((s.natfw_link_share() - 0.05).abs() < 1e-12);
    }
}
