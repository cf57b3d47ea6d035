//! The membership cache (mCache) and gossip-style entry replacement.
//!
//! Each node keeps a *partial view* of the overlay (§III.B). Entries
//! arrive from the boot-strap server and from gossip; when the cache is
//! full, the deployed system replaced entries *randomly* — which §V.C
//! identifies as the reason flash crowds fill caches with useless
//! newly-joined peers. [`ReplacePolicy::StabilityBiased`] implements the
//! improvement the paper proposes (converge towards stable peers), used by
//! the `ABL-MCACHE` ablation.

use cs_net::NodeId;
use cs_sim::rng::Xoshiro256PlusPlus;
use cs_sim::SimTime;

use crate::params::ReplacePolicy;

/// A bounded partial view of the overlay: peer ids only, 4 bytes an
/// entry. A peer's age is a property of its id (ids are never reused), so
/// [`ReplacePolicy::StabilityBiased`] reads join times from the node
/// registry through a lookup the caller passes in instead of copying them
/// into every cache that lists the id.
#[derive(Clone, Debug)]
pub struct MCache {
    /// Entry ids in cache order; allocated once at capacity.
    ids: Vec<NodeId>,
}

impl MCache {
    /// Empty cache with room for `cap` entries.
    pub fn new(cap: usize) -> Self {
        MCache {
            ids: Vec::with_capacity(cap),
        }
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Heap bytes: the id column, allocated at capacity.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.ids.capacity() * std::mem::size_of::<NodeId>()
    }

    /// Whether `id` is in the cache.
    pub fn contains(&self, id: NodeId) -> bool {
        self.position(id).is_some()
    }

    /// Where `id` sits in the cache. Tests a fixed-width chunk of ids at
    /// a time with a branch-free OR of the compares, which LLVM
    /// vectorizes, and locates the id only within the chunk that holds
    /// it; a plain `contains` compared one id per iteration, each with an
    /// exit branch.
    fn position(&self, id: NodeId) -> Option<usize> {
        const LANES: usize = 8;
        let holds = |ids: &[NodeId]| ids.iter().fold(false, |hit, &e| hit | (e == id));
        let chunks = self.ids.chunks_exact(LANES);
        let tail = chunks.remainder();
        let start = match chunks.enumerate().find(|(_, chunk)| holds(chunk)) {
            Some((c, _)) => c * LANES,
            None if holds(tail) => self.ids.len() - tail.len(),
            None => return None,
        };
        let at = self.ids[start..].iter().position(|&e| e == id)?;
        Some(start + at)
    }

    /// The entries, in cache order.
    pub fn ids(&self) -> &[NodeId] {
        &self.ids
    }

    /// Insert `id` into a cache bounded at `cap` entries, applying the
    /// replacement policy when full; `joined_at` gives a peer's join time
    /// and is read only under [`ReplacePolicy::StabilityBiased`]. Returns
    /// `true` if the entry is now present (an id already present is left
    /// where it is).
    pub fn insert(
        &mut self,
        id: NodeId,
        cap: usize,
        policy: ReplacePolicy,
        joined_at: impl Fn(NodeId) -> SimTime,
        rng: &mut Xoshiro256PlusPlus,
    ) -> bool {
        let len = self.ids.len();
        if self.position(id).is_some() {
            return true;
        }
        if len < cap {
            self.ids.push(id);
            return true;
        }
        if len == 0 {
            return false;
        }
        let victim = match policy {
            ReplacePolicy::Random => rng.gen_range(0..len),
            ReplacePolicy::StabilityBiased => {
                // Evict the youngest peer (largest join time, the last of
                // equals) — but only if the candidate is older than it, so
                // the cache monotonically converges towards stable peers.
                let Some((victim, youngest)) = self
                    .ids
                    .iter()
                    .map(|&c| joined_at(c))
                    .enumerate()
                    .max_by_key(|&(_, t)| t)
                else {
                    return false;
                };
                if joined_at(id) >= youngest {
                    return false;
                }
                victim
            }
        };
        self.ids[victim] = id;
        true
    }

    /// Drop an entry (dead peer discovered).
    pub fn remove(&mut self, id: NodeId) {
        // `insert` never adds an id already present, so there is at most one.
        if let Some(i) = self.position(id) {
            self.ids.remove(i);
        }
    }

    /// Uniform sample of up to `n` entries, excluding ids for which
    /// `exclude` returns true, into a caller-owned buffer (cleared first),
    /// so periodic callers reuse one allocation.
    pub fn sample_into(
        &self,
        n: usize,
        rng: &mut Xoshiro256PlusPlus,
        mut exclude: impl FnMut(NodeId) -> bool,
        out: &mut Vec<NodeId>,
    ) {
        out.clear();
        out.extend(self.ids.iter().copied().filter(|&id| !exclude(id)));
        rng.shuffle(out);
        out.truncate(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Join-time lookup for these tests: peer `i` joined at second `i`.
    fn age(id: NodeId) -> SimTime {
        SimTime::from_secs(u64::from(id.0))
    }

    fn insert(
        c: &mut MCache,
        cap: usize,
        id: u32,
        policy: ReplacePolicy,
        rng: &mut Xoshiro256PlusPlus,
    ) -> bool {
        c.insert(NodeId(id), cap, policy, age, rng)
    }

    fn sample(
        c: &MCache,
        n: usize,
        rng: &mut Xoshiro256PlusPlus,
        exclude: impl FnMut(NodeId) -> bool,
    ) -> Vec<NodeId> {
        let mut out = Vec::new();
        c.sample_into(n, rng, exclude, &mut out);
        out
    }

    #[test]
    fn insert_until_capacity_then_replace() {
        let mut rng = Xoshiro256PlusPlus::new(1);
        let mut c = MCache::new(3);
        for i in 0..3 {
            assert!(insert(&mut c, 3, i, ReplacePolicy::Random, &mut rng));
        }
        assert_eq!(c.len(), 3);
        assert!(insert(&mut c, 3, 99, ReplacePolicy::Random, &mut rng));
        assert_eq!(c.len(), 3);
        assert!(c.contains(NodeId(99)));
    }

    #[test]
    fn duplicate_insert_is_a_noop() {
        let mut rng = Xoshiro256PlusPlus::new(2);
        let mut c = MCache::new(2);
        insert(&mut c, 2, 5, ReplacePolicy::Random, &mut rng);
        insert(&mut c, 2, 6, ReplacePolicy::Random, &mut rng);
        let before = rng.clone();
        assert!(insert(&mut c, 2, 5, ReplacePolicy::Random, &mut rng));
        assert_eq!(c.ids(), &[NodeId(5), NodeId(6)]);
        assert_eq!(rng.gen::<u64>(), before.clone().gen::<u64>(), "no draw");
    }

    #[test]
    fn a_duplicate_at_any_position_of_a_full_cache_is_a_noop() {
        let mut rng = Xoshiro256PlusPlus::new(9);
        let mut c = MCache::new(60);
        for i in 0..60 {
            insert(&mut c, 60, 1000 + i, ReplacePolicy::Random, &mut rng);
        }
        let full = c.ids().to_vec();
        for i in 0..60 {
            let before = rng.clone();
            assert!(insert(
                &mut c,
                60,
                1000 + i,
                ReplacePolicy::Random,
                &mut rng
            ));
            assert_eq!(c.ids(), full.as_slice(), "duplicate at {i}");
            assert_eq!(rng.gen::<u64>(), before.clone().gen::<u64>(), "draw at {i}");
        }
        for i in (0..60).rev() {
            c.remove(NodeId(1000 + i));
            assert_eq!(c.ids(), &full[..i as usize], "remove at {i}");
        }
    }

    #[test]
    fn stability_bias_keeps_old_peers() {
        let mut rng = Xoshiro256PlusPlus::new(3);
        let mut c = MCache::new(2);
        let biased = ReplacePolicy::StabilityBiased;
        insert(&mut c, 2, 100, biased, &mut rng);
        insert(&mut c, 2, 10, biased, &mut rng);
        // Candidate younger than everything in cache → rejected.
        assert!(!insert(&mut c, 2, 500, biased, &mut rng));
        assert!(!c.contains(NodeId(500)));
        // Candidate older than the youngest → evicts the youngest (id 100).
        assert!(insert(&mut c, 2, 50, biased, &mut rng));
        assert_eq!(c.ids(), &[NodeId(50), NodeId(10)]);
    }

    #[test]
    fn stability_bias_evicts_the_last_of_equally_young() {
        let mut rng = Xoshiro256PlusPlus::new(8);
        let mut c = MCache::new(3);
        // Ids 1 and 2 share the youngest join time, 40 s.
        let ages = |id: NodeId| SimTime::from_secs([10, 40, 40, 5][id.index()]);
        for id in 0..3 {
            c.insert(
                NodeId(id),
                3,
                ReplacePolicy::StabilityBiased,
                ages,
                &mut rng,
            );
        }
        assert!(c.insert(NodeId(3), 3, ReplacePolicy::StabilityBiased, ages, &mut rng));
        assert_eq!(c.ids(), &[NodeId(0), NodeId(1), NodeId(3)]);
    }

    #[test]
    fn random_policy_eventually_replaces_everyone() {
        let mut rng = Xoshiro256PlusPlus::new(4);
        let mut c = MCache::new(4);
        for i in 0..4 {
            insert(&mut c, 4, i, ReplacePolicy::Random, &mut rng);
        }
        for i in 100..200 {
            insert(&mut c, 4, i, ReplacePolicy::Random, &mut rng);
        }
        // With 100 random replacements into 4 slots, original entries are
        // gone with overwhelming probability.
        for i in 0..4 {
            assert!(!c.contains(NodeId(i)));
        }
    }

    #[test]
    fn sample_respects_exclusion_and_count() {
        let mut rng = Xoshiro256PlusPlus::new(5);
        let mut c = MCache::new(10);
        for i in 0..10 {
            insert(&mut c, 10, i, ReplacePolicy::Random, &mut rng);
        }
        let picks = sample(&c, 4, &mut rng, |id| id.0 % 2 == 0);
        assert_eq!(picks.len(), 4);
        for p in &picks {
            assert_eq!(p.0 % 2, 1, "excluded id sampled");
        }
        // Asking for more than available returns all non-excluded.
        let picks = sample(&c, 100, &mut rng, |id| id.0 % 2 == 0);
        assert_eq!(picks.len(), 5);
    }

    #[test]
    fn remove_deletes_entry() {
        let mut rng = Xoshiro256PlusPlus::new(6);
        let mut c = MCache::new(4);
        insert(&mut c, 4, 1, ReplacePolicy::Random, &mut rng);
        c.remove(NodeId(1));
        assert!(c.is_empty());
        // Removing a missing id is a no-op.
        c.remove(NodeId(1));
    }

    #[test]
    fn zero_capacity_cache_rejects() {
        let mut rng = Xoshiro256PlusPlus::new(7);
        let mut c = MCache::new(0);
        assert!(!insert(&mut c, 0, 1, ReplacePolicy::Random, &mut rng));
        assert!(c.is_empty());
    }
}
