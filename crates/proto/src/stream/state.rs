//! Stream-manager-owned per-peer state: sub-stream parents/children, the
//! buffer, and playback bookkeeping, mutated only from the
//! [`stream`](crate::stream) module (plus the explicit `pub(crate)`
//! mutators other managers use for teardown).

use cs_net::NodeId;
use cs_sim::SimTime;

use crate::buffer::StreamBuffer;
use crate::slots::Slots;

/// Counters reset at every 5-minute status report.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReportCounters {
    /// Bytes uploaded since the last report.
    pub up_bytes: u64,
    /// Bytes downloaded since the last report.
    pub down_bytes: u64,
    /// Blocks whose playback deadline passed since the last report.
    pub due: u64,
    /// Of those, blocks missing at deadline.
    pub missed: u64,
    /// Peer adaptations performed since the last report.
    pub adaptations: u32,
}

/// Stream-manager-owned slice of per-peer state. Only the stream module
/// (and the explicit `pub(crate)` mutators below) changes it.
#[derive(Debug)]
pub struct StreamState {
    /// Current parent per sub-stream.
    pub(super) parents: Slots<Option<NodeId>>,
    /// Sub-stream subscriptions this node serves: (child, sub-stream).
    /// Its length is the out-going sub-stream degree `D_p` of Eq. (5).
    /// No pair appears twice: `(c, j)` is listed exactly while `c`'s slot
    /// `j` names this node.
    pub(super) children: Vec<(NodeId, u32)>,
    /// Buffer; `None` until the start position is chosen (§IV.A).
    pub(super) buffer: Option<StreamBuffer>,
    /// When the first sub-stream subscription was made.
    pub(super) start_sub: Option<SimTime>,
    /// When the media player started.
    pub(super) media_ready: Option<SimTime>,
    /// Consecutive playback ticks above the give-up loss threshold.
    pub(super) lossy_ticks: u32,
    /// Global seq of the next block to play (fractional position is
    /// derived from `media_ready` time).
    pub(super) next_play: u64,
    /// Since-last-report counters.
    pub(super) counters: ReportCounters,
}

impl StreamState {
    pub(crate) fn new(substreams: u32) -> Self {
        StreamState {
            parents: Slots::new(substreams as usize),
            children: Vec::new(),
            buffer: None,
            start_sub: None,
            media_ready: None,
            lossy_ticks: 0,
            next_play: 0,
            counters: ReportCounters::default(),
        }
    }

    /// Current parent per sub-stream slot.
    pub fn parents(&self) -> &[Option<NodeId>] {
        &self.parents
    }

    /// Served sub-stream subscriptions: (child, sub-stream).
    pub fn children(&self) -> &[(NodeId, u32)] {
        &self.children
    }

    /// The synchronization + cache buffer, once the start position is
    /// chosen.
    pub fn buffer(&self) -> Option<&StreamBuffer> {
        self.buffer.as_ref()
    }

    /// When the first sub-stream subscription was made.
    pub fn start_sub(&self) -> Option<SimTime> {
        self.start_sub
    }

    /// When the media player started.
    pub fn media_ready(&self) -> Option<SimTime> {
        self.media_ready
    }

    /// Global seq of the next block to play.
    pub fn next_play(&self) -> u64 {
        self.next_play
    }

    /// Heap bytes of the child list's capacity.
    pub(crate) fn children_bytes(&self) -> usize {
        self.children.capacity() * std::mem::size_of::<(NodeId, u32)>()
    }

    /// Heap bytes of the buffer's skipped-block ranges.
    pub(crate) fn holes_bytes(&self) -> usize {
        self.buffer.as_ref().map_or(0, StreamBuffer::holes_bytes)
    }

    /// Heap bytes of the per-sub-stream rows spilled out of line (`K > 8`).
    pub(crate) fn spilled_bytes(&self) -> usize {
        self.parents.heap_bytes() + self.buffer.as_ref().map_or(0, StreamBuffer::spilled_bytes)
    }

    /// Out-going sub-stream degree `D_p`.
    #[inline]
    pub fn out_degree(&self) -> usize {
        self.children.len()
    }

    /// Current number of distinct parents.
    pub fn parent_count(&self) -> usize {
        let ps: &[Option<NodeId>] = &self.parents;
        (0..ps.len())
            .filter(|&j| ps[j].is_some() && !ps[..j].contains(&ps[j]))
            .count()
    }

    /// Register a served sub-stream subscription. The caller
    /// (`Stream::subscribe`) only adds a pair that is not listed yet.
    pub(super) fn add_child(&mut self, child: NodeId, substream: u32) {
        self.children.push((child, substream));
    }

    /// Remove a served sub-stream subscription, keeping the order of the
    /// rest (`NeedAware` sums deficits in list order).
    pub(super) fn remove_child(&mut self, child: NodeId, substream: u32) {
        if let Some(i) = self.children.iter().position(|&c| c == (child, substream)) {
            self.children.remove(i);
        }
    }

    /// Remove every subscription of `child`.
    pub(crate) fn remove_child_all(&mut self, child: NodeId) {
        self.children.retain(|&(c, _)| c != child);
    }

    /// Clear the parent slot for sub-stream `j` if it points at `q` (a
    /// departed or crashed node orphaning its children).
    pub(crate) fn unset_parent_if(&mut self, j: u32, q: NodeId) {
        if self.parents[j as usize] == Some(q) {
            self.parents[j as usize] = None;
        }
    }

    /// Clear every parent slot pointing at `q`.
    pub(crate) fn clear_parent_slots_of(&mut self, q: NodeId) {
        for slot in self.parents.iter_mut() {
            if *slot == Some(q) {
                *slot = None;
            }
        }
    }

    /// Count one peer adaptation in the report counters (the adaptation
    /// itself is the partnership manager's doing).
    pub(crate) fn count_adaptation(&mut self) {
        self.counters.adaptations += 1;
    }

    /// Hand over the since-last-report counters, leaving zeros: to a
    /// status report, or to the session record when the peer goes away.
    pub(crate) fn take_counters(&mut self) -> ReportCounters {
        std::mem::take(&mut self.counters)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The stream column of the peer arena, per slot: its inline buffer
    /// row holds 32-bit entries.
    #[test]
    fn state_fits_its_size_pin() {
        assert_eq!(std::mem::size_of::<StreamState>(), 352);
    }

    #[test]
    fn child_bookkeeping() {
        let mut s = StreamState::new(4);
        s.add_child(NodeId(2), 0);
        s.add_child(NodeId(2), 1);
        s.add_child(NodeId(3), 0);
        s.add_child(NodeId(4), 2);
        assert_eq!(s.out_degree(), 4);
        s.remove_child(NodeId(2), 1);
        s.remove_child(NodeId(9), 0); // not listed: no-op
        assert_eq!(
            s.children(),
            &[(NodeId(2), 0), (NodeId(3), 0), (NodeId(4), 2)],
            "removal keeps the order of the rest"
        );
        s.remove_child_all(NodeId(2));
        assert_eq!(s.children(), &[(NodeId(3), 0), (NodeId(4), 2)]);
    }

    /// `add_child` pushes without looking, so the uniqueness of the list
    /// rests on `Stream::subscribe` — and on the checker saying so when
    /// it is broken.
    #[test]
    fn duplicate_subscription_is_caught_by_the_checker() {
        use crate::invariant::tests::{tiny_world, violated};
        let mut world = tiny_world();
        let (a, b) = (world.servers[0], world.servers[1]);
        let list = world.peer_mut(a).expect("server").stream;
        list.add_child(b, 0);
        list.add_child(b, 1);
        assert!(!violated(&world).contains(&"child-duplicate"));
        world.peer_mut(a).expect("server").stream.add_child(b, 0);
        assert!(violated(&world).contains(&"child-duplicate"));
    }

    /// The push round serves the list as it stands, so a listed child that
    /// is gone is a violation, not a leftover for a later sweep.
    #[test]
    fn dead_child_is_caught_by_the_checker() {
        use crate::invariant::tests::{tiny_world, violated};
        let mut world = tiny_world();
        let a = world.servers[0];
        assert!(!violated(&world).contains(&"child-backlink"));
        world
            .peer_mut(a)
            .expect("server")
            .stream
            .add_child(NodeId(77), 0);
        assert!(violated(&world).contains(&"child-backlink"));
    }

    #[test]
    fn parent_count_dedups_substreams() {
        let mut s = StreamState::new(4);
        s.parents[0] = Some(NodeId(9));
        s.parents[1] = Some(NodeId(9));
        s.parents[2] = Some(NodeId(4));
        assert_eq!(s.parent_count(), 2);
    }

    #[test]
    fn parent_slot_clearing() {
        let mut s = StreamState::new(3);
        s.parents[0] = Some(NodeId(7));
        s.parents[2] = Some(NodeId(7));
        s.unset_parent_if(1, NodeId(7)); // empty slot: no-op
        s.unset_parent_if(0, NodeId(8)); // different parent: no-op
        assert_eq!(s.parent_count(), 1);
        s.clear_parent_slots_of(NodeId(7));
        assert_eq!(s.parent_count(), 0);
    }
}
