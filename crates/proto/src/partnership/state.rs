//! Partnership-manager-owned per-peer state: the partner set and the
//! adaptation cool-down, mutated only from the
//! [`partnership`](crate::partnership) module.

use cs_net::NodeId;
use cs_sim::SimTime;

use crate::buffer::seq_of;

/// What a peer knows about one partner: a borrowed row of its
/// [`PartnerTable`].
#[derive(Clone, Copy, Debug)]
pub struct PartnerView<'a> {
    /// The partner's buffer-map row from the last BM exchange, in the wire
    /// encoding (`seq + 1`, 0 = none).
    latest: &'a [u32],
    /// `true` if we initiated this partnership (the partner is an
    /// *outgoing* partner in the paper's terms, §V.B).
    pub outgoing: bool,
}

impl PartnerView<'_> {
    /// The partner's newest seq in sub-stream `j` as of the last BM
    /// exchange.
    #[inline]
    pub fn latest(&self, j: u32) -> Option<u64> {
        seq_of(self.latest[j as usize])
    }

    /// The newest seq the partner advertised in any sub-stream.
    pub fn max_latest(&self) -> Option<u64> {
        seq_of(*self.latest.iter().max()?)
    }
}

/// The partner set of one peer as a flat table sorted by partner id, so
/// iteration order is ascending [`NodeId`]. Ids, directions and the
/// `K`-wide buffer-map rows sit in three parallel arrays: membership
/// tests and random picks scan only the ids, and a BM exchange
/// overwrites one contiguous row.
#[derive(Debug)]
pub struct PartnerTable {
    k: usize,
    ids: Vec<NodeId>,
    /// `outgoing` per partner.
    outgoing: Vec<bool>,
    /// Row-major `ids.len() × k` buffer-map rows (`seq + 1`, 0 = none),
    /// copied as advertised, without conversion.
    latest: Vec<u32>,
    /// The largest entry of `latest`, 0 for none: every writer keeps it,
    /// so [`max_latest`](Self::max_latest) is a field read.
    best: u32,
}

impl PartnerTable {
    fn new(k: usize) -> Self {
        PartnerTable {
            k,
            ids: Vec::new(),
            outgoing: Vec::new(),
            latest: Vec::new(),
            best: 0,
        }
    }

    /// Number of partners.
    #[inline]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the peer has no partners.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Heap bytes of the three arrays' capacities.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.ids.capacity() * std::mem::size_of::<NodeId>()
            + self.outgoing.capacity()
            + self.latest.capacity() * std::mem::size_of::<u32>()
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

    /// The view held of partner `q`.
    pub fn get(&self, q: NodeId) -> Option<PartnerView<'_>> {
        self.ids.binary_search(&q).ok().map(|i| self.view_at(i))
    }

    /// `(partner, view)` pairs in ascending partner-id order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, PartnerView<'_>)> {
        self.ids
            .iter()
            .enumerate()
            .map(|(i, &q)| (q, self.view_at(i)))
    }

    /// Newest seq any partner advertised in any sub-stream.
    pub fn max_latest(&self) -> Option<u64> {
        seq_of(self.best)
    }

    fn view_at(&self, i: usize) -> PartnerView<'_> {
        PartnerView {
            latest: &self.latest[i * self.k..(i + 1) * self.k],
            outgoing: self.outgoing[i],
        }
    }

    /// Insert partner `q` with buffer-map row `latest`, replacing any
    /// view already held of it.
    fn insert(&mut self, q: NodeId, latest: &[u32], outgoing: bool) {
        debug_assert_eq!(latest.len(), self.k);
        let i = match self.ids.binary_search(&q) {
            Ok(i) => {
                self.remove(q);
                i
            }
            Err(i) => i,
        };
        self.ids.insert(i, q);
        self.outgoing.insert(i, outgoing);
        // Open a `k`-wide gap at row `i` and fill it.
        let (at, end) = (i * self.k, self.latest.len());
        self.latest.resize(end + self.k, 0);
        self.latest.copy_within(at..end, at + self.k);
        self.row_mut(i).copy_from_slice(latest);
        self.best = self.best.max(max_of(latest));
    }

    /// Remove partner `q`; the rows are rescanned only when its row held
    /// the maximum.
    fn remove(&mut self, q: NodeId) {
        if let Ok(i) = self.ids.binary_search(&q) {
            self.ids.remove(i);
            self.outgoing.remove(i);
            let row_best = self.latest.drain(i * self.k..(i + 1) * self.k).max();
            if row_best == Some(self.best) {
                self.best = max_of(&self.latest);
            }
        }
    }

    /// Overwrite every partner's row from `rows` (back to back in id
    /// order: one BM exchange), taking the maximum in the same pass.
    fn set_rows(&mut self, rows: &[u32]) {
        assert_eq!(rows.len(), self.latest.len(), "one row per partner");
        let mut best = 0;
        for (slot, &v) in self.latest.iter_mut().zip(rows) {
            *slot = v;
            best = best.max(v);
        }
        self.best = best;
    }

    fn row_mut(&mut self, i: usize) -> &mut [u32] {
        &mut self.latest[i * self.k..(i + 1) * self.k]
    }
}

/// The largest wire-encoded entry of `rows`, 0 for none.
fn max_of(rows: &[u32]) -> u32 {
    rows.iter().copied().max().unwrap_or(0)
}

/// Partnership-manager-owned slice of per-peer state. Only the
/// partnership module mutates it; everyone else reads through the
/// accessors.
#[derive(Debug)]
pub struct PartnershipState {
    partners: PartnerTable,
    /// Cool-down: time of the last quality-triggered peer adaptation.
    pub(super) last_adapt: Option<SimTime>,
    /// Playout lead observed at the previous adaptation check, for the
    /// insufficient-rate trend test.
    pub(super) last_lead: Option<u64>,
}

impl PartnershipState {
    /// Empty state for a peer exchanging `substreams`-wide buffer maps.
    pub(crate) fn new(substreams: u32) -> Self {
        PartnershipState {
            partners: PartnerTable::new(substreams as usize),
            last_adapt: None,
            last_lead: None,
        }
    }

    /// The partner set: partner → last exchanged buffer map.
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

    /// Add partner `q` holding buffer-map row `latest` (wire encoding).
    pub(crate) fn insert(&mut self, q: NodeId, latest: &[u32], outgoing: bool) {
        self.partners.insert(q, latest, outgoing);
    }

    pub(crate) fn remove(&mut self, q: NodeId) {
        self.partners.remove(q);
    }

    /// One BM exchange: overwrite every partner's buffer-map row from
    /// `rows`, back to back in id order.
    pub(super) fn set_rows(&mut self, rows: &[u32]) {
        self.partners.set_rows(rows);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[test]
    fn partner_direction_counting() {
        let mut s = PartnershipState::new(0);
        s.insert(NodeId(2), &[], true);
        s.insert(NodeId(3), &[], false);
        assert_eq!(s.outgoing_partners(), 1);
        assert_eq!(s.incoming_partners(), 1);
        s.remove(NodeId(2));
        assert_eq!(s.outgoing_partners(), 0);
    }

    #[test]
    fn cooldown_gate() {
        let mut s = PartnershipState::new(0);
        let ta = SimTime::from_secs(20);
        assert!(s.adaptation_allowed(SimTime::from_secs(5), ta));
        s.last_adapt = Some(SimTime::from_secs(5));
        assert!(!s.adaptation_allowed(SimTime::from_secs(10), ta));
        assert!(s.adaptation_allowed(SimTime::from_secs(25), ta));
    }

    /// Only this module can write `best`; should a writer forget it, the
    /// checker names the table whose kept maximum left its rows.
    #[test]
    fn stale_kept_maximum_is_caught_by_the_checker() {
        use crate::invariant::tests::{tiny_world, violated};
        let mut world = tiny_world();
        let a = world.servers[0];
        world.peer_mut(a).expect("server").partnership.partners.best = 41;
        assert_eq!(violated(&world), ["partner-best"]);
    }

    /// One step of the table-vs-`BTreeMap` differential run.
    #[derive(Clone, Debug)]
    enum Op {
        Insert(u32, Vec<Option<u64>>, bool),
        Remove(u32),
        /// Remove whichever partner's row holds the maximum.
        RemoveBest,
        /// One BM exchange through `set_rows`: row `i` for the `i`-th
        /// partner.
        Refresh(Vec<Vec<Option<u64>>>),
    }

    fn arb_row() -> impl Strategy<Value = Vec<Option<u64>>> {
        proptest::collection::vec(proptest::option::of(0u64..1_000_000), 20..21)
    }

    fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
        proptest::collection::vec(
            prop_oneof![
                (0u32..24, arb_row(), any::<bool>()).prop_map(|(q, r, o)| Op::Insert(q, r, o)),
                (0u32..24).prop_map(Op::Remove),
                Just(Op::RemoveBest),
                proptest::collection::vec(arb_row(), 24..25).prop_map(Op::Refresh),
            ],
            0..60,
        )
    }

    proptest! {
        /// The flat table answers every read exactly like the
        /// `BTreeMap<NodeId, (row, outgoing)>` it replaced, under any
        /// insert / overwrite / remove / whole-table-refresh interleaving
        /// and any `K` — the kept maximum included, also right after the
        /// row that held it went away.
        #[test]
        fn partner_table_matches_btreemap_model(k in 0usize..=20, ops in arb_ops()) {
            let encode = |row: &[Option<u64>]| -> Vec<u32> {
                row[..k].iter().map(|l| l.map_or(0, crate::buffer::entry)).collect()
            };
            let mut table = PartnershipState::new(k as u32);
            let mut model: BTreeMap<NodeId, (Vec<Option<u64>>, bool)> = BTreeMap::new();
            for op in ops {
                match op {
                    Op::Insert(q, row, outgoing) => {
                        table.insert(NodeId(q), &encode(&row), outgoing);
                        model.insert(NodeId(q), (row[..k].to_vec(), outgoing));
                    }
                    Op::Remove(q) => {
                        table.remove(NodeId(q));
                        model.remove(&NodeId(q));
                    }
                    Op::RemoveBest => {
                        let best = model.iter().max_by_key(|(_, m)| m.0.iter().flatten().max().copied());
                        if let Some(q) = best.map(|(&q, _)| q) {
                            table.remove(q);
                            model.remove(&q);
                        }
                    }
                    Op::Refresh(rows) => {
                        let wire: Vec<u32> = rows[..model.len()].iter().flat_map(|r| encode(r)).collect();
                        table.set_rows(&wire);
                        for (view, row) in model.values_mut().zip(&rows) {
                            view.0 = row[..k].to_vec();
                        }
                    }
                }
                let t = table.partners();
                prop_assert_eq!(t.len(), model.len());
                prop_assert_eq!(t.is_empty(), model.is_empty());
                prop_assert_eq!(t.ids().to_vec(), model.keys().copied().collect::<Vec<_>>());
                for ((q, view), (mq, (mrow, mout))) in t.iter().zip(&model) {
                    prop_assert_eq!(q, *mq);
                    prop_assert_eq!(view.outgoing, *mout);
                    let row: Vec<Option<u64>> = (0..k as u32).map(|j| view.latest(j)).collect();
                    prop_assert_eq!(&row, mrow);
                }
                for q in 0..24 {
                    let q = NodeId(q);
                    prop_assert_eq!(t.contains(q), model.contains_key(&q));
                    prop_assert_eq!(t.get(q).map(|v| v.outgoing), model.get(&q).map(|m| m.1));
                }
                prop_assert_eq!(
                    t.max_latest(),
                    model.values().flat_map(|m| m.0.iter().flatten().copied()).max()
                );
                prop_assert_eq!(table.outgoing_partners(), model.values().filter(|m| m.1).count());
                prop_assert_eq!(table.incoming_partners(), model.values().filter(|m| !m.1).count());
            }
        }
    }
}
