//! The generational peer arena.
//!
//! Per-peer state lives in parallel struct-of-arrays columns — one for
//! the identity core and one per manager of the paper's Fig. 1
//! ([`MembershipState`], [`PartnershipState`], [`StreamState`]) — so a
//! manager sweeping its own state touches only its column's cache
//! lines. Slots are recycled through a LIFO free list; each slot
//! carries a generation counter that is bumped on removal, so a
//! [`PeerHandle`] held across a departure never equals a handle to the
//! slot's next occupant.
//!
//! Node ids are *not* slot indices: a `lookup` table maps the
//! monotonically growing [`NodeId`] space to live handles, which keeps
//! per-departed-node residue to one `Option<PeerHandle>` instead of a
//! full tombstoned peer record — the difference between a day-long
//! churn run fitting in cache-friendly columns or not. Iteration walks
//! `lookup`, i.e. node-id order, which golden trace hashes rely on.
//!
//! All access from outside `world.rs` goes through [`CsWorld`]
//! accessors: the arena is a private field of `CsWorld`, and the type
//! itself is crate-private.
//!
//! [`CsWorld`]: crate::world::CsWorld

use cs_net::NodeId;

use crate::membership::MembershipState;
use crate::params::Params;
use crate::partnership::PartnershipState;
use crate::peer::{PeerCore, PeerMut, PeerRef};
use crate::stream::StreamState;

/// Typed handle to one peer incarnation: a slot index plus the slot
/// generation at acquisition time.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PeerHandle {
    index: u32,
    generation: u32,
}

impl PeerHandle {
    /// The arena slot this handle points at.
    pub fn index(self) -> usize {
        self.index as usize
    }

    /// The slot generation this handle was issued for.
    pub fn generation(self) -> u32 {
        self.generation
    }
}

/// Bytes one slot takes across the five columns.
const SLOT_BYTES: usize = std::mem::size_of::<PeerCore>()
    + std::mem::size_of::<MembershipState>()
    + std::mem::size_of::<PartnershipState>()
    + std::mem::size_of::<StreamState>()
    + std::mem::size_of::<u32>();

/// Generational slab of per-peer state in manager-owned columns.
///
/// Columns hold plain values, not `Option`s: liveness is decided by
/// `lookup`/`generations` alone, so building a [`PeerRef`]/[`PeerMut`]
/// is pure pointer arithmetic — no discriminant reads across four
/// columns on every accessor hit. Vacating a slot overwrites the three
/// manager columns with empty states (releasing their heap buffers) and
/// leaves the all-scalar core in place as inert residue.
#[derive(Default)]
pub(crate) struct PeerArena {
    cores: Vec<PeerCore>,
    membership: Vec<MembershipState>,
    partnership: Vec<PartnershipState>,
    stream: Vec<StreamState>,
    /// Per-slot incarnation counter; bumped when the slot is vacated.
    generations: Vec<u32>,
    /// Vacated slots available for reuse (LIFO).
    free: Vec<u32>,
    /// `NodeId::index()` → live handle. Spans the id space and is the
    /// node-id-order iteration spine.
    lookup: Vec<Option<PeerHandle>>,
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
        let _ = self.generations.try_reserve_exact(peers);
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
        let spine = self.lookup.len() * std::mem::size_of::<Option<PeerHandle>>();
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
        let columns = cap(&self.cores)
            + cap(&self.membership)
            + cap(&self.partnership)
            + cap(&self.stream)
            + cap(&self.generations);
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
    pub(crate) fn insert(&mut self, core: PeerCore, params: &Params) -> PeerHandle {
        let node = core.id;
        let membership = MembershipState::new(params.mcache_size);
        let partnership = PartnershipState::new(params.substreams);
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
                self.generations.push(0);
                ix
            }
        };
        let handle = PeerHandle {
            index,
            generation: self.generations[index as usize],
        };
        let slot = node.index();
        if slot >= self.lookup.len() {
            self.lookup.resize(slot + 1, None);
        }
        debug_assert!(self.lookup[slot].is_none(), "node {slot} already present");
        self.lookup[slot] = Some(handle);
        self.live += 1;
        handle
    }

    /// Vacate a peer's slot, bumping its generation so outstanding
    /// handles go stale. Returns whether the node was present.
    pub(crate) fn remove(&mut self, id: NodeId) -> bool {
        let slot = id.index();
        let Some(Some(h)) = self.lookup.get(slot).copied() else {
            return false;
        };
        self.lookup[slot] = None;
        let i = h.index as usize;
        // Release the vacated peer's heap buffers (mCache entries,
        // partner views, stream buffer); the scalar core stays as inert
        // residue until the slot is reused.
        self.membership[i] = MembershipState::new(0);
        self.partnership[i] = PartnershipState::new(0);
        self.stream[i] = StreamState::new(0);
        self.generations[i] = self.generations[i].wrapping_add(1);
        self.free.push(h.index);
        self.live -= 1;
        true
    }

    /// The live handle for a node id, if present.
    pub(crate) fn handle_of(&self, id: NodeId) -> Option<PeerHandle> {
        self.lookup.get(id.index()).copied().flatten()
    }

    /// Read view through a handle, for the tests: the simulation reads
    /// peers by node id. A stale generation is a programming error: it
    /// trips a `debug_assert` in debug builds and yields `None` in
    /// release.
    #[cfg(test)]
    pub(crate) fn get(&self, h: PeerHandle) -> Option<PeerRef<'_>> {
        let i = h.index as usize;
        debug_assert_eq!(
            self.generations.get(i).copied(),
            Some(h.generation),
            "stale peer handle: slot {i} was reused by a later incarnation"
        );
        if self.generations.get(i).copied() != Some(h.generation) {
            return None;
        }
        self.ref_at(i)
    }

    /// Read view by node id.
    pub(crate) fn get_by_node(&self, id: NodeId) -> Option<PeerRef<'_>> {
        let h = self.handle_of(id)?;
        self.ref_at(h.index as usize)
    }

    /// Write view by node id.
    pub(crate) fn get_mut_by_node(&mut self, id: NodeId) -> Option<PeerMut<'_>> {
        let h = self.handle_of(id)?;
        let i = h.index as usize;
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
        let (ha, hb) = (self.handle_of(a)?, self.handle_of(b)?);
        let (i, j) = (ha.index as usize, hb.index as usize);
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
            .filter_map(|h| self.ref_at(h.as_ref()?.index as usize))
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
    use super::*;
    use cs_logging::UserId;
    use cs_net::{Bandwidth, NodeClass};
    use cs_sim::SimTime;

    fn put(a: &mut PeerArena, id: u32) -> PeerHandle {
        let core = PeerCore {
            id: NodeId(id),
            user: UserId(id),
            class: NodeClass::DirectConnect,
            upload: Bandwidth::kbps(500),
            join_time: SimTime::ZERO,
            retry_index: 0,
            intended_leave: SimTime::MAX,
            retries_left: 0,
            patience: SimTime::MAX,
        };
        a.insert(core, &Params::default())
    }

    #[test]
    fn insert_then_lookup_roundtrips() {
        let mut a = PeerArena::new();
        let h = put(&mut a, 0);
        assert_eq!(a.len(), 1);
        assert_eq!(a.handle_of(NodeId(0)), Some(h));
        assert_eq!(a.get(h).unwrap().id, NodeId(0));
        assert_eq!(a.get_by_node(NodeId(0)).unwrap().user, UserId(0));
    }

    #[test]
    fn remove_recycles_slot_with_new_generation() {
        let mut a = PeerArena::new();
        let h0 = put(&mut a, 0);
        let _h1 = put(&mut a, 1);
        assert!(a.remove(NodeId(0)));
        assert_eq!(a.len(), 1);
        assert!(a.handle_of(NodeId(0)).is_none());
        // The vacated slot is reused for the next arrival…
        let h2 = put(&mut a, 2);
        assert_eq!(a.slots(), 2, "free slot reused, not grown");
        assert_eq!(h2.index(), h0.index());
        // …under a fresh generation.
        assert_eq!(h2.generation(), h0.generation() + 1);
        assert_eq!(a.get(h2).unwrap().id, NodeId(2));
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

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "stale peer handle")]
    fn stale_handle_access_is_caught_in_debug() {
        let mut a = PeerArena::new();
        let h = put(&mut a, 0);
        a.remove(NodeId(0));
        put(&mut a, 1); // reuses the slot, new generation
        let _ = a.get(h); // stale: must trip the debug assertion
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
}
