//! The peer arena: a slab of per-peer state keyed by node id.
//!
//! Per-peer state lives in parallel struct-of-arrays columns — one for
//! the identity core and one per manager of the paper's Fig. 1
//! ([`MembershipState`], [`PartnershipState`], [`StreamState`]) — so a
//! manager sweeping its own state touches only its column's cache
//! lines. Slots are recycled through a LIFO free list.
//!
//! Node ids are *not* slot indices: a `lookup` table maps the
//! monotonically growing [`NodeId`] space to live slots, which keeps
//! per-departed-node residue to one 4-byte `Option<NonZeroU32>` instead
//! of a full tombstoned peer record — the difference between a day-long
//! churn run fitting in cache-friendly columns or not. Iteration walks
//! `lookup`, i.e. node-id order, which golden trace hashes rely on.
//!
//! Nothing outside the arena holds a slot index: every access names the
//! node id and goes through `lookup`, so a reused slot cannot be reached
//! under its previous occupant's id. All access from outside `world.rs`
//! goes through [`CsWorld`] accessors: the arena is a private field of
//! `CsWorld`, and the type itself is crate-private.
//!
//! [`CsWorld`]: crate::world::CsWorld

use std::num::NonZeroU32;

use cs_net::NodeId;

use crate::membership::MembershipState;
use crate::params::Params;
use crate::partnership::PartnershipState;
use crate::peer::{PeerCore, PeerMut, PeerRef};
use crate::stream::StreamState;

/// Bytes one slot takes across the four columns.
const SLOT_BYTES: usize = std::mem::size_of::<PeerCore>()
    + std::mem::size_of::<MembershipState>()
    + std::mem::size_of::<PartnershipState>()
    + std::mem::size_of::<StreamState>();

/// Slab of per-peer state in manager-owned columns.
///
/// Columns hold plain values, not `Option`s: liveness is decided by
/// `lookup` alone, so building a [`PeerRef`]/[`PeerMut`] is pure pointer
/// arithmetic — no discriminant reads across four columns on every
/// accessor hit. Vacating a slot overwrites the three manager columns
/// with empty states (releasing their heap buffers) and leaves the
/// all-scalar core in place as inert residue.
#[derive(Default)]
pub(crate) struct PeerArena {
    cores: Vec<PeerCore>,
    membership: Vec<MembershipState>,
    partnership: Vec<PartnershipState>,
    stream: Vec<StreamState>,
    /// Vacated slots available for reuse (LIFO).
    free: Vec<u32>,
    /// `NodeId::index()` → live slot + 1. Spans the id space and is the
    /// node-id-order iteration spine.
    lookup: Vec<Option<NonZeroU32>>,
    live: usize,
}

impl PeerArena {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Pre-size every column for `peers` more slots. A reservation the
    /// allocator refuses leaves that column to grow as peers arrive.
    pub(crate) fn reserve_slots(&mut self, peers: usize) {
        let _ = self.cores.try_reserve_exact(peers);
        let _ = self.membership.try_reserve_exact(peers);
        let _ = self.partnership.try_reserve_exact(peers);
        let _ = self.stream.try_reserve_exact(peers);
    }

    /// Size the lookup spine for node ids below `ids`, exactly, so it
    /// never regrows while the ids stay below that bound.
    pub(crate) fn reserve_ids(&mut self, ids: usize) {
        let _ = self
            .lookup
            .try_reserve_exact(ids.saturating_sub(self.lookup.len()));
    }

    /// Heap bytes by owner: the columns (with any per-sub-stream rows
    /// spilled out of line), the lookup spine, and the per-peer buffers
    /// the manager columns own, each at capacity. The columns and the
    /// spine are reserved at a run bound and count only the part written
    /// so far: the pages of the reserved tail are never touched.
    /// Vacated slots own no buffers.
    pub(crate) fn heap_bytes(&self) -> [(&'static str, usize); 6] {
        let stream = |f: fn(&StreamState) -> usize| self.stream.iter().map(f).sum::<usize>();
        let columns = self.cores.len() * SLOT_BYTES
            + self.free.capacity() * std::mem::size_of::<u32>()
            + stream(StreamState::spilled_bytes);
        let spine = self.lookup.len() * std::mem::size_of::<Option<NonZeroU32>>();
        let mcaches = self.membership.iter().map(|m| m.cache().heap_bytes());
        let partners = self.partnership.iter().map(|p| p.partners().heap_bytes());
        [
            ("arena_columns", columns),
            ("lookup_spine", spine),
            ("mcaches", mcaches.sum()),
            ("partner_tables", partners.sum()),
            ("child_lists", stream(StreamState::children_bytes)),
            ("holes", stream(StreamState::holes_bytes)),
        ]
    }

    /// Capacity bytes of the run-sized reservations: the columns and the
    /// lookup spine.
    pub(crate) fn reserved_bytes(&self) -> [(&'static str, usize); 2] {
        fn cap<T>(v: &Vec<T>) -> usize {
            v.capacity() * std::mem::size_of::<T>()
        }
        let columns =
            cap(&self.cores) + cap(&self.membership) + cap(&self.partnership) + cap(&self.stream);
        [
            ("arena_columns", columns),
            ("lookup_spine", cap(&self.lookup)),
        ]
    }

    /// Number of live peers.
    pub(crate) fn len(&self) -> usize {
        self.live
    }

    /// Number of allocated slots (live + free). Under churn this tracks
    /// *peak* concurrency, not total arrivals — the free list recycles
    /// vacated slots before the columns grow.
    pub(crate) fn slots(&self) -> usize {
        self.cores.len()
    }

    /// Install a freshly arrived peer, reusing a vacated slot when one
    /// exists: `core` is its identity row, the three manager columns
    /// start empty at the widths `params` dictates (construction draws
    /// no randomness). The node id must not already be present.
    pub(crate) fn insert(&mut self, core: PeerCore, params: &Params) {
        let node = core.id;
        let membership = MembershipState::new(params.mcache_size);
        let partnership = PartnershipState::default();
        let stream = StreamState::new(params.substreams);
        let index = match self.free.pop() {
            Some(ix) => {
                let i = ix as usize;
                self.cores[i] = core;
                self.membership[i] = membership;
                self.partnership[i] = partnership;
                self.stream[i] = stream;
                ix
            }
            None => {
                let ix = u32::try_from(self.cores.len()).unwrap_or(u32::MAX);
                self.cores.push(core);
                self.membership.push(membership);
                self.partnership.push(partnership);
                self.stream.push(stream);
                ix
            }
        };
        let slot = node.index();
        if slot >= self.lookup.len() {
            self.lookup.resize(slot + 1, None);
        }
        debug_assert!(self.lookup[slot].is_none(), "node {slot} already present");
        self.lookup[slot] = Some(NonZeroU32::MIN.saturating_add(index));
        self.live += 1;
    }

    /// Vacate a peer's slot. Returns whether the node was present.
    pub(crate) fn remove(&mut self, id: NodeId) -> bool {
        let Some(key) = self.lookup.get_mut(id.index()).and_then(Option::take) else {
            return false;
        };
        let i = slot(key);
        // Release the vacated peer's heap buffers (mCache entries,
        // partner views, stream buffer); the scalar core stays as inert
        // residue until the slot is reused.
        self.membership[i] = MembershipState::new(0);
        self.partnership[i] = PartnershipState::default();
        self.stream[i] = StreamState::new(0);
        self.free.push(key.get() - 1);
        self.live -= 1;
        true
    }

    /// Whether a node id is present.
    pub(crate) fn contains(&self, id: NodeId) -> bool {
        self.slot_of(id).is_some()
    }

    /// The slot a present node id occupies.
    fn slot_of(&self, id: NodeId) -> Option<usize> {
        self.lookup.get(id.index()).copied().flatten().map(slot)
    }

    /// Read view by node id.
    pub(crate) fn get_by_node(&self, id: NodeId) -> Option<PeerRef<'_>> {
        self.ref_at(self.slot_of(id)?)
    }

    /// Write view by node id.
    pub(crate) fn get_mut_by_node(&mut self, id: NodeId) -> Option<PeerMut<'_>> {
        let i = self.slot_of(id)?;
        Some(PeerMut {
            core: self.cores.get_mut(i)?,
            membership: self.membership.get_mut(i)?,
            partnership: self.partnership.get_mut(i)?,
            stream: self.stream.get_mut(i)?,
        })
    }

    /// Simultaneous write views of two distinct peers, in argument
    /// order, via a disjoint split of every column.
    pub(crate) fn pair_mut(&mut self, a: NodeId, b: NodeId) -> Option<(PeerMut<'_>, PeerMut<'_>)> {
        let (i, j) = (self.slot_of(a)?, self.slot_of(b)?);
        assert_ne!(i, j, "pair_mut of one peer");
        let (ca, cb) = pair_of(&mut self.cores, i, j);
        let (ma, mb) = pair_of(&mut self.membership, i, j);
        let (pa, pb) = pair_of(&mut self.partnership, i, j);
        let (sa, sb) = pair_of(&mut self.stream, i, j);
        Some((
            PeerMut {
                core: ca,
                membership: ma,
                partnership: pa,
                stream: sa,
            },
            PeerMut {
                core: cb,
                membership: mb,
                partnership: pb,
                stream: sb,
            },
        ))
    }

    /// Iterate live peers in node-id order (the hash-stable order).
    pub(crate) fn iter(&self) -> impl Iterator<Item = PeerRef<'_>> {
        self.lookup
            .iter()
            .filter_map(|&key| self.ref_at(slot(key?)))
    }

    fn ref_at(&self, i: usize) -> Option<PeerRef<'_>> {
        Some(PeerRef {
            core: self.cores.get(i)?,
            membership: self.membership.get(i)?,
            partnership: self.partnership.get(i)?,
            stream: self.stream.get(i)?,
        })
    }
}

/// The slot a `lookup` entry names: entries hold slot + 1.
fn slot(key: NonZeroU32) -> usize {
    key.get() as usize - 1
}

/// Two disjoint `&mut` slots of one column, `(i, j)` in that order.
fn pair_of<T>(column: &mut [T], i: usize, j: usize) -> (&mut T, &mut T) {
    if i < j {
        let (lo, hi) = column.split_at_mut(j);
        (&mut lo[i], &mut hi[0])
    } else {
        let (lo, hi) = column.split_at_mut(i);
        (&mut hi[0], &mut lo[j])
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use cs_logging::UserId;
    use cs_net::{Bandwidth, NodeClass};
    use cs_sim::SimTime;
    use proptest::prelude::*;

    fn core(id: u32, user: u32) -> PeerCore {
        PeerCore {
            id: NodeId(id),
            user: UserId(user),
            class: NodeClass::DirectConnect,
            upload: Bandwidth::kbps(500),
            join_time: SimTime::ZERO,
            retry_index: 0,
            intended_leave: SimTime::MAX,
            retries_left: 0,
            patience: SimTime::MAX,
        }
    }

    fn put(a: &mut PeerArena, id: u32) {
        a.insert(core(id, id), &Params::default());
    }

    #[test]
    fn insert_then_lookup_roundtrips() {
        let mut a = PeerArena::new();
        put(&mut a, 0);
        assert_eq!(a.len(), 1);
        assert!(a.contains(NodeId(0)));
        assert!(!a.contains(NodeId(1)));
        assert_eq!(a.get_by_node(NodeId(0)).unwrap().user, UserId(0));
    }

    #[test]
    fn remove_recycles_slot() {
        let mut a = PeerArena::new();
        put(&mut a, 0);
        put(&mut a, 1);
        assert!(a.remove(NodeId(0)));
        assert!(!a.remove(NodeId(0)), "already vacated");
        assert_eq!(a.len(), 1);
        assert!(!a.contains(NodeId(0)));
        // The vacated slot is reused for the next arrival, which alone
        // answers for it.
        put(&mut a, 2);
        assert_eq!(a.slots(), 2, "free slot reused, not grown");
        assert!(a.get_by_node(NodeId(0)).is_none());
        assert_eq!(a.get_by_node(NodeId(2)).unwrap().id, NodeId(2));
    }

    #[test]
    fn churn_reuses_free_list_bounded() {
        let mut a = PeerArena::new();
        for round in 0u32..50 {
            let id = round; // fresh node id every round, same slot
            put(&mut a, id);
            assert!(a.remove(NodeId(id)));
        }
        assert_eq!(a.slots(), 1, "join→leave churn must not grow the slab");
        assert_eq!(a.len(), 0);
    }

    #[test]
    fn pair_mut_preserves_argument_order() {
        let mut a = PeerArena::new();
        put(&mut a, 0);
        put(&mut a, 1);
        let (x, y) = a.pair_mut(NodeId(1), NodeId(0)).unwrap();
        assert_eq!(x.core.id, NodeId(1));
        assert_eq!(y.core.id, NodeId(0));
    }

    #[test]
    fn iteration_is_node_id_order() {
        let mut a = PeerArena::new();
        put(&mut a, 0);
        put(&mut a, 1);
        put(&mut a, 2);
        a.remove(NodeId(1));
        put(&mut a, 3); // lands in slot 1 — must still iterate last
        let ids: Vec<_> = a.iter().map(|p| p.id.0).collect();
        assert_eq!(ids, vec![0, 2, 3]);
        // A revived id (server restart) re-enters through whatever slot
        // is free and must come back at its node-id position.
        a.remove(NodeId(0));
        put(&mut a, 4); // takes the slot node 0 vacated
        put(&mut a, 0); // fresh slot at the end of the slab
        let ids: Vec<_> = a.iter().map(|p| p.id.0).collect();
        assert_eq!(ids, vec![0, 2, 3, 4]);
    }

    #[derive(Clone, Debug)]
    enum Op {
        /// A fresh node id arrives.
        Arrive,
        /// The n-th live peer (mod the live count) departs.
        Depart(usize),
        /// The n-th vacated id (mod their count) comes back.
        Revive(usize),
    }

    fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
        proptest::collection::vec(
            prop_oneof![
                Just(Op::Arrive),
                (0usize..64).prop_map(Op::Depart),
                (0usize..64).prop_map(Op::Revive),
            ],
            0..80,
        )
    }

    proptest! {
        /// Under any arrive / depart / revive interleaving the slab
        /// answers like a `BTreeMap<NodeId, PeerCore>`: presence, count,
        /// the incarnation a node id reads, node-id iteration order — and
        /// it holds no more slots than peers were ever live at once.
        #[test]
        fn slab_matches_btreemap_model(ops in arb_ops()) {
            let mut a = PeerArena::new();
            let mut model: BTreeMap<NodeId, PeerCore> = BTreeMap::new();
            let mut vacated: Vec<NodeId> = Vec::new();
            let (mut next_id, mut incarnation, mut peak) = (0u32, 0u32, 0usize);
            for op in ops {
                let arriving = match op {
                    Op::Arrive => {
                        next_id += 1;
                        Some(NodeId(next_id - 1))
                    }
                    Op::Depart(n) if !model.is_empty() => {
                        let id = *model.keys().nth(n % model.len()).unwrap();
                        prop_assert!(a.remove(id));
                        model.remove(&id);
                        vacated.push(id);
                        None
                    }
                    Op::Revive(n) if !vacated.is_empty() => Some(vacated.remove(n % vacated.len())),
                    Op::Depart(_) | Op::Revive(_) => None,
                };
                if let Some(id) = arriving {
                    incarnation += 1;
                    let c = core(id.0, incarnation);
                    a.insert(c, &Params::default());
                    model.insert(id, c);
                    peak = peak.max(model.len());
                }
                prop_assert_eq!(a.len(), model.len());
                prop_assert_eq!(a.slots(), peak);
                for id in (0..=next_id).map(NodeId) {
                    prop_assert_eq!(a.contains(id), model.contains_key(&id));
                    let read = a.get_by_node(id).map(|p| (p.id, p.user));
                    prop_assert_eq!(read, model.get(&id).map(|c| (c.id, c.user)));
                }
                let order: Vec<NodeId> = a.iter().map(|p| p.id).collect();
                prop_assert_eq!(order, model.keys().copied().collect::<Vec<_>>());
            }
        }
    }
}
