//! Per-peer state: stable identity plus the three manager-owned state
//! blocks of Fig. 1 ([`MembershipState`], [`PartnershipState`],
//! [`StreamState`]).
//!
//! Call sites hand the arena a [`PeerCore`] identity row; the arena
//! builds the three manager states next to it in its struct-of-arrays
//! columns (see [`arena`](crate::arena)). Live peers are accessed through
//! the column views: [`PeerRef`] (read, `Copy`, identity fields reachable
//! by deref) and [`PeerMut`] (write, one `&mut` per column). Only the
//! owning manager mutates its column. The read-only delegators give
//! observers (invariant oracles, telemetry, snapshots, tests) one flat
//! view.

use cs_logging::UserId;
use cs_net::{Bandwidth, NodeClass, NodeId};
use cs_sim::SimTime;

use crate::buffer::StreamBuffer;
use crate::mcache::MCache;
use crate::membership::MembershipState;
use crate::partnership::{PartnerTable, PartnershipState};
use crate::stream::StreamState;

/// The identity column of the arena: stable identity and lifetime facts
/// of one peer incarnation. Owned by the world, mutated only through
/// [`PeerMut::core`] (chaos upload rescaling is the one writer).
#[derive(Clone, Copy, Debug)]
pub struct PeerCore {
    /// Network identity of this incarnation.
    pub id: NodeId,
    /// Stable user identity across retries.
    pub user: UserId,
    /// Connection class.
    pub class: NodeClass,
    /// Uplink capacity.
    pub upload: Bandwidth,
    /// Join time of this incarnation.
    pub join_time: SimTime,
    /// Which retry of the user this incarnation is (0 = first attempt).
    pub retry_index: u32,
    /// When this incarnation intends to leave.
    pub intended_leave: SimTime,
    /// Retries the user still has in them after this incarnation fails.
    pub retries_left: u32,
    /// How long the user waits for media-ready before giving up.
    pub patience: SimTime,
}

impl PeerCore {
    /// Whether the peer's local address is private (RFC1918).
    pub fn private_addr(&self) -> bool {
        matches!(self.class, NodeClass::Nat | NodeClass::Upnp)
    }
}

/// Read view of one live peer: four column references, nothing copied.
/// `Copy` and `Deref<Target = PeerCore>`, so identity reads (`p.id`,
/// `p.class`, …) look like field access while construction stays four
/// pointer moves — this view is built on every accessor hit, so its
/// cost is the arena's read overhead. Delegators take `self` and return
/// references that outlive the view itself (tied to the arena borrow
/// `'a`).
#[derive(Clone, Copy)]
pub struct PeerRef<'a> {
    /// Identity column (also the `Deref` target).
    pub core: &'a PeerCore,
    /// Membership manager column (mCache).
    pub membership: &'a MembershipState,
    /// Partnership manager column (partner views, adaptation cool-down).
    pub partnership: &'a PartnershipState,
    /// Stream manager column (parents, children, buffer, playback).
    pub stream: &'a StreamState,
}

impl std::ops::Deref for PeerRef<'_> {
    type Target = PeerCore;

    fn deref(&self) -> &PeerCore {
        self.core
    }
}

impl<'a> PeerRef<'a> {
    /// Read-only view of the mCache (membership manager state).
    pub fn mcache(self) -> &'a MCache {
        self.membership.cache()
    }

    /// Partner → last known buffer map (partnership manager state).
    pub fn partners(self) -> &'a PartnerTable {
        self.partnership.partners()
    }

    /// Current parent per sub-stream (stream manager state).
    pub fn parents(self) -> &'a [Option<NodeId>] {
        self.stream.parents()
    }

    /// Served sub-stream subscriptions: (child, sub-stream).
    pub fn children(self) -> &'a [(NodeId, u32)] {
        self.stream.children()
    }

    /// Buffer; `None` until the start position is chosen (§IV.A).
    pub fn buffer(self) -> Option<&'a StreamBuffer> {
        self.stream.buffer()
    }

    /// When the first sub-stream subscription was made.
    pub fn start_sub(self) -> Option<SimTime> {
        self.stream.start_sub()
    }

    /// When the media player started.
    pub fn media_ready(self) -> Option<SimTime> {
        self.stream.media_ready()
    }

    /// Global seq of the next block to play.
    pub fn next_play(self) -> u64 {
        self.stream.next_play()
    }

    /// Out-going sub-stream degree `D_p`.
    #[inline]
    pub fn out_degree(self) -> usize {
        self.stream.out_degree()
    }

    /// Number of incoming partners (they connected to us).
    pub fn incoming_partners(self) -> usize {
        self.partnership.incoming_partners()
    }

    /// Number of outgoing partners (we connected to them).
    pub fn outgoing_partners(self) -> usize {
        self.partnership.outgoing_partners()
    }

    /// Current number of distinct parents.
    pub fn parent_count(self) -> usize {
        self.stream.parent_count()
    }

    /// Whether the cool-down timer permits a quality-triggered adaptation
    /// now (§IV.B: once per `T_a`).
    pub fn adaptation_allowed(self, now: SimTime, ta: SimTime) -> bool {
        self.partnership.adaptation_allowed(now, ta)
    }
}

/// Write view of one live peer: one `&mut` per arena column. Managers
/// write only their own column; identity writes go through `core`.
pub struct PeerMut<'a> {
    /// Identity column.
    pub core: &'a mut PeerCore,
    /// Membership manager column (mCache).
    pub membership: &'a mut MembershipState,
    /// Partnership manager column (partner views, adaptation cool-down).
    pub partnership: &'a mut PartnershipState,
    /// Stream manager column (parents, children, buffer, playback).
    pub stream: &'a mut StreamState,
}

impl PeerMut<'_> {
    /// Whether the peer's local address is private (RFC1918).
    pub fn private_addr(&self) -> bool {
        self.core.private_addr()
    }

    /// Number of incoming partners (they connected to us).
    pub fn incoming_partners(&self) -> usize {
        self.partnership.incoming_partners()
    }

    /// Number of outgoing partners (we connected to them).
    pub fn outgoing_partners(&self) -> usize {
        self.partnership.outgoing_partners()
    }

    /// Current number of distinct parents.
    pub fn parent_count(&self) -> usize {
        self.stream.parent_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::PeerArena;
    use crate::params::Params;

    fn core(class: NodeClass) -> PeerCore {
        PeerCore {
            id: NodeId(1),
            user: UserId(1),
            class,
            upload: Bandwidth::kbps(500),
            join_time: SimTime::ZERO,
            retry_index: 0,
            intended_leave: SimTime::from_secs(600),
            retries_left: 2,
            patience: SimTime::from_secs(45),
        }
    }

    #[test]
    fn private_addr_follows_class() {
        assert!(core(NodeClass::Nat).private_addr());
        assert!(core(NodeClass::Upnp).private_addr());
        assert!(!core(NodeClass::DirectConnect).private_addr());
        assert!(!core(NodeClass::Firewall).private_addr());
    }

    #[test]
    fn fresh_peer_state_is_empty() {
        let mut arena = PeerArena::new();
        arena.insert(core(NodeClass::DirectConnect), &Params::default());
        let p = arena.get_by_node(NodeId(1)).expect("just inserted");
        assert!(p.partners().is_empty());
        assert!(p.mcache().is_empty());
        assert!(p.buffer().is_none());
        assert_eq!(p.out_degree(), 0);
        assert_eq!(
            p.parents().len(),
            Params::default().substreams as usize,
            "one parent slot per sub-stream"
        );
        assert_eq!(p.parent_count(), 0);
    }
}
