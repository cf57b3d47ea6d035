//! Partnership-manager-owned per-peer state: the partner set and the
//! adaptation cool-down, mutated only from the
//! [`partnership`](crate::partnership) module.

use cs_net::NodeId;
use cs_sim::SimTime;

/// The partner set of one peer as a flat table sorted by partner id, so
/// iteration order is ascending [`NodeId`]. Ids and directions sit in two
/// parallel arrays of one capacity, 5 B a slot. The table holds no buffer
/// map: a partner's row is read from the partner, once per exchange
/// (`stream::Exchange`).
#[derive(Debug, Default)]
pub struct PartnerTable {
    ids: Vec<NodeId>,
    /// `true` per partner we initiated (the partner is an *outgoing*
    /// partner in the paper's terms, §V.B).
    outgoing: Vec<bool>,
}

impl PartnerTable {
    /// Number of partners.
    #[inline]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the peer has no partners.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Partner slots allocated: the byte ledger charges 5 B each.
    pub fn capacity(&self) -> usize {
        self.ids.capacity()
    }

    /// Heap bytes of the two arrays' capacities.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.ids.capacity() * std::mem::size_of::<NodeId>() + self.outgoing.capacity()
    }

    /// Partner ids in ascending order.
    #[inline]
    pub fn ids(&self) -> &[NodeId] {
        &self.ids
    }

    /// Whether `q` is a partner.
    #[inline]
    pub fn contains(&self, q: NodeId) -> bool {
        self.ids.contains(&q)
    }

    /// Position of partner `q` in [`ids`](Self::ids).
    pub(crate) fn index_of(&self, q: NodeId) -> Option<usize> {
        self.ids.binary_search(&q).ok()
    }

    /// Whether we initiated the partnership with `q`; `None` if `q` is
    /// not a partner.
    pub fn outgoing(&self, q: NodeId) -> Option<bool> {
        self.index_of(q).map(|i| self.outgoing[i])
    }

    /// `(partner, outgoing)` pairs in ascending partner-id order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, bool)> + '_ {
        self.ids.iter().copied().zip(self.outgoing.iter().copied())
    }

    /// Insert partner `q`, or set its direction if it is one already.
    fn insert(&mut self, q: NodeId, outgoing: bool) {
        match self.ids.binary_search(&q) {
            Ok(i) => self.outgoing[i] = outgoing,
            Err(i) => {
                if self.ids.len() == self.ids.capacity() {
                    // Both arrays grow to one capacity, doubling from 4
                    // as the id array alone would.
                    let more = self.ids.capacity().max(4);
                    self.ids.reserve_exact(more);
                    self.outgoing.reserve_exact(more);
                }
                self.ids.insert(i, q);
                self.outgoing.insert(i, outgoing);
            }
        }
    }

    fn remove(&mut self, q: NodeId) {
        if let Some(i) = self.index_of(q) {
            self.ids.remove(i);
            self.outgoing.remove(i);
        }
    }
}

/// Partnership-manager-owned slice of per-peer state. Only the
/// partnership module mutates it; everyone else reads through the
/// accessors.
#[derive(Debug, Default)]
pub struct PartnershipState {
    partners: PartnerTable,
    /// Cool-down: time of the last quality-triggered peer adaptation.
    pub(super) last_adapt: Option<SimTime>,
    /// Playout lead observed at the previous adaptation check, for the
    /// insufficient-rate trend test.
    pub(super) last_lead: Option<u64>,
}

impl PartnershipState {
    /// The partner set.
    pub fn partners(&self) -> &PartnerTable {
        &self.partners
    }

    /// Number of incoming partners (they connected to us).
    pub fn incoming_partners(&self) -> usize {
        self.partners.outgoing.iter().filter(|&&o| !o).count()
    }

    /// Number of outgoing partners (we connected to them).
    pub fn outgoing_partners(&self) -> usize {
        self.partners.outgoing.iter().filter(|&&o| o).count()
    }

    /// Whether the cool-down timer permits a quality-triggered adaptation
    /// now (§IV.B: once per `T_a`).
    pub fn adaptation_allowed(&self, now: SimTime, ta: SimTime) -> bool {
        self.last_adapt.is_none_or(|t| now.saturating_sub(t) >= ta)
    }

    /// When the last quality-triggered adaptation happened, if any.
    pub fn last_adapt(&self) -> Option<SimTime> {
        self.last_adapt
    }

    /// Add partner `q`.
    pub(crate) fn insert(&mut self, q: NodeId, outgoing: bool) {
        self.partners.insert(q, outgoing);
    }

    pub(crate) fn remove(&mut self, q: NodeId) {
        self.partners.remove(q);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[test]
    fn partner_direction_counting() {
        let mut s = PartnershipState::default();
        s.insert(NodeId(2), true);
        s.insert(NodeId(3), false);
        assert_eq!(s.outgoing_partners(), 1);
        assert_eq!(s.incoming_partners(), 1);
        s.remove(NodeId(2));
        assert_eq!(s.outgoing_partners(), 0);
    }

    #[test]
    fn cooldown_gate() {
        let mut s = PartnershipState::default();
        let ta = SimTime::from_secs(20);
        assert!(s.adaptation_allowed(SimTime::from_secs(5), ta));
        s.last_adapt = Some(SimTime::from_secs(5));
        assert!(!s.adaptation_allowed(SimTime::from_secs(10), ta));
        assert!(s.adaptation_allowed(SimTime::from_secs(25), ta));
    }

    /// One step of the table-vs-`BTreeMap` differential run.
    #[derive(Clone, Debug)]
    enum Op {
        Insert(u32, bool),
        Remove(u32),
    }

    fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
        proptest::collection::vec(
            prop_oneof![
                (0u32..24, any::<bool>()).prop_map(|(q, o)| Op::Insert(q, o)),
                (0u32..24).prop_map(Op::Remove),
            ],
            0..80,
        )
    }

    proptest! {
        /// The flat table answers every read exactly like a
        /// `BTreeMap<NodeId, bool>` of partner → outgoing, under any
        /// insert / re-insert / remove interleaving: ids, directions and
        /// their order, with both arrays at one capacity.
        #[test]
        fn partner_table_matches_btreemap_model(ops in arb_ops()) {
            let mut table = PartnershipState::default();
            let mut model: BTreeMap<NodeId, bool> = BTreeMap::new();
            for op in ops {
                match op {
                    Op::Insert(q, outgoing) => {
                        table.insert(NodeId(q), outgoing);
                        model.insert(NodeId(q), outgoing);
                    }
                    Op::Remove(q) => {
                        table.remove(NodeId(q));
                        model.remove(&NodeId(q));
                    }
                }
                let t = table.partners();
                prop_assert_eq!(t.len(), model.len());
                prop_assert_eq!(t.is_empty(), model.is_empty());
                prop_assert_eq!(t.ids().to_vec(), model.keys().copied().collect::<Vec<_>>());
                prop_assert_eq!(
                    t.iter().collect::<Vec<_>>(),
                    model.iter().map(|(&q, &o)| (q, o)).collect::<Vec<_>>()
                );
                for q in 0..24 {
                    let q = NodeId(q);
                    prop_assert_eq!(t.contains(q), model.contains_key(&q));
                    prop_assert_eq!(t.outgoing(q), model.get(&q).copied());
                    prop_assert_eq!(t.index_of(q), model.keys().position(|&m| m == q));
                }
                prop_assert_eq!(table.outgoing_partners(), model.values().filter(|&&o| o).count());
                prop_assert_eq!(table.incoming_partners(), model.values().filter(|&&o| !o).count());
                prop_assert_eq!(t.heap_bytes(), 5 * t.capacity());
            }
        }
    }
}
