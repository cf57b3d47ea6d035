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
use cs_sim::SimTime;
use rand::seq::SliceRandom;
use rand::Rng;

use crate::params::ReplacePolicy;

/// One mCache entry: a peer and what we know about its age.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct McEntry {
    /// The peer.
    pub id: NodeId,
    /// The peer's advertised join time (gossip metadata) — the stability
    /// signal used by [`ReplacePolicy::StabilityBiased`].
    pub joined_at: SimTime,
}

/// A bounded partial view of the overlay.
///
/// Stored as two columns, ids and join times, so the duplicate scan of
/// every insert and `contains` read 4-byte ids: 12 bytes an entry.
#[derive(Clone, Debug)]
pub struct MCache {
    /// Entry ids in cache order; allocated once at capacity.
    ids: Vec<NodeId>,
    /// `joined[i]` is the advertised join time of `ids[i]`; its length is
    /// the capacity, and slots past `ids.len()` mean nothing.
    joined: Box<[SimTime]>,
}

impl MCache {
    /// Empty cache with capacity `cap`.
    pub fn new(cap: usize) -> Self {
        MCache {
            ids: Vec::with_capacity(cap),
            joined: vec![SimTime::ZERO; cap].into_boxed_slice(),
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

    /// Whether `id` is in the cache.
    pub fn contains(&self, id: NodeId) -> bool {
        self.ids.contains(&id)
    }

    /// Iterate entries.
    pub fn iter(&self) -> impl Iterator<Item = McEntry> + '_ {
        let joined = &self.joined[..self.ids.len()];
        self.ids
            .iter()
            .zip(joined)
            .map(|(&id, &joined_at)| McEntry { id, joined_at })
    }

    /// Insert or refresh an entry, applying the replacement policy when
    /// full. Returns `true` if the entry is now present.
    pub fn insert<R: Rng + ?Sized>(
        &mut self,
        entry: McEntry,
        policy: ReplacePolicy,
        rng: &mut R,
    ) -> bool {
        let len = self.ids.len();
        if let Some(i) = self.ids.iter().position(|&id| id == entry.id) {
            self.joined[i] = entry.joined_at;
            return true;
        }
        if len < self.joined.len() {
            self.ids.push(entry.id);
            self.joined[len] = entry.joined_at;
            return true;
        }
        if len == 0 {
            return false;
        }
        let victim = match policy {
            ReplacePolicy::Random => rng.gen_range(0..len),
            ReplacePolicy::StabilityBiased => {
                // Evict the youngest peer (largest advertised join time,
                // the last of equals) — but only if the candidate is older
                // than it, so the cache monotonically converges towards
                // stable peers.
                let Some((victim, &youngest)) = self.joined[..len]
                    .iter()
                    .enumerate()
                    .max_by_key(|&(_, t)| t)
                else {
                    return false;
                };
                if entry.joined_at >= youngest {
                    return false;
                }
                victim
            }
        };
        self.ids[victim] = entry.id;
        self.joined[victim] = entry.joined_at;
        true
    }

    /// Drop an entry (dead peer discovered).
    pub fn remove(&mut self, id: NodeId) {
        // `insert` refreshes an id already present, so there is at most one.
        if let Some(i) = self.ids.iter().position(|&e| e == id) {
            self.ids.remove(i);
            self.joined.copy_within(i + 1..=self.ids.len(), i);
        }
    }

    /// Uniform sample of up to `n` entries, excluding ids for which
    /// `exclude` returns true.
    pub fn sample<R: Rng + ?Sized>(
        &self,
        n: usize,
        rng: &mut R,
        exclude: impl FnMut(NodeId) -> bool,
    ) -> Vec<McEntry> {
        let mut out = Vec::new();
        self.sample_into(n, rng, exclude, &mut out);
        out
    }

    /// [`sample`](Self::sample) into a caller-owned buffer (cleared
    /// first), so periodic callers reuse one allocation.
    pub fn sample_into<R: Rng + ?Sized>(
        &self,
        n: usize,
        rng: &mut R,
        mut exclude: impl FnMut(NodeId) -> bool,
        out: &mut Vec<McEntry>,
    ) {
        out.clear();
        out.extend(self.iter().filter(|e| !exclude(e.id)));
        out.shuffle(rng);
        out.truncate(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs_sim::rng::Xoshiro256PlusPlus;

    fn e(id: u32, joined: u64) -> McEntry {
        McEntry {
            id: NodeId(id),
            joined_at: SimTime::from_secs(joined),
        }
    }

    #[test]
    fn insert_until_capacity_then_replace() {
        let mut rng = Xoshiro256PlusPlus::new(1);
        let mut c = MCache::new(3);
        for i in 0..3 {
            assert!(c.insert(e(i, 0), ReplacePolicy::Random, &mut rng));
        }
        assert_eq!(c.len(), 3);
        assert!(c.insert(e(99, 0), ReplacePolicy::Random, &mut rng));
        assert_eq!(c.len(), 3);
        assert!(c.contains(NodeId(99)));
    }

    #[test]
    fn duplicate_insert_refreshes_metadata() {
        let mut rng = Xoshiro256PlusPlus::new(2);
        let mut c = MCache::new(4);
        c.insert(e(5, 10), ReplacePolicy::Random, &mut rng);
        c.insert(e(5, 20), ReplacePolicy::Random, &mut rng);
        assert_eq!(c.len(), 1);
        assert_eq!(c.iter().next().unwrap().joined_at, SimTime::from_secs(20));
    }

    #[test]
    fn stability_bias_keeps_old_peers() {
        let mut rng = Xoshiro256PlusPlus::new(3);
        let mut c = MCache::new(2);
        c.insert(e(1, 100), ReplacePolicy::StabilityBiased, &mut rng);
        c.insert(e(2, 10), ReplacePolicy::StabilityBiased, &mut rng);
        // Candidate younger than everything in cache → rejected.
        assert!(!c.insert(e(3, 500), ReplacePolicy::StabilityBiased, &mut rng));
        assert!(!c.contains(NodeId(3)));
        // Candidate older than the youngest → evicts the youngest (id 1).
        assert!(c.insert(e(4, 50), ReplacePolicy::StabilityBiased, &mut rng));
        assert!(c.contains(NodeId(4)));
        assert!(!c.contains(NodeId(1)));
        assert!(c.contains(NodeId(2)));
    }

    #[test]
    fn random_policy_eventually_replaces_everyone() {
        let mut rng = Xoshiro256PlusPlus::new(4);
        let mut c = MCache::new(4);
        for i in 0..4 {
            c.insert(e(i, 0), ReplacePolicy::Random, &mut rng);
        }
        for i in 100..200 {
            c.insert(e(i, 0), ReplacePolicy::Random, &mut rng);
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
            c.insert(e(i, 0), ReplacePolicy::Random, &mut rng);
        }
        let picks = c.sample(4, &mut rng, |id| id.0 % 2 == 0);
        assert_eq!(picks.len(), 4);
        for p in &picks {
            assert_eq!(p.id.0 % 2, 1, "excluded id sampled");
        }
        // Asking for more than available returns all non-excluded.
        let picks = c.sample(100, &mut rng, |id| id.0 % 2 == 0);
        assert_eq!(picks.len(), 5);
    }

    #[test]
    fn remove_deletes_entry() {
        let mut rng = Xoshiro256PlusPlus::new(6);
        let mut c = MCache::new(4);
        c.insert(e(1, 0), ReplacePolicy::Random, &mut rng);
        c.remove(NodeId(1));
        assert!(c.is_empty());
        // Removing a missing id is a no-op.
        c.remove(NodeId(1));
    }

    #[test]
    fn zero_capacity_cache_rejects() {
        let mut rng = Xoshiro256PlusPlus::new(7);
        let mut c = MCache::new(0);
        assert!(!c.insert(e(1, 0), ReplacePolicy::Random, &mut rng));
        assert!(c.is_empty());
    }
}
