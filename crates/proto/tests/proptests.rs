//! Property tests on the protocol data structures.

use cs_net::NodeId;
use cs_proto::{BufferMap, MCache, McEntry, Params, ReplacePolicy, StreamBuffer};
use cs_sim::rng::Xoshiro256PlusPlus;
use cs_sim::SimTime;
use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::Rng;

/// The mCache as a `Vec<McEntry>`, the layout before the id and join-time
/// columns: the oracle for `MCache`.
struct VecCache {
    cap: usize,
    entries: Vec<McEntry>,
}

impl VecCache {
    fn insert(&mut self, entry: McEntry, policy: ReplacePolicy, rng: &mut impl Rng) -> bool {
        if let Some(existing) = self.entries.iter_mut().find(|e| e.id == entry.id) {
            existing.joined_at = entry.joined_at;
            return true;
        }
        if self.entries.len() < self.cap {
            self.entries.push(entry);
            return true;
        }
        if self.cap == 0 {
            return false;
        }
        match policy {
            ReplacePolicy::Random => {
                let victim = rng.gen_range(0..self.entries.len());
                self.entries[victim] = entry;
                true
            }
            ReplacePolicy::StabilityBiased => {
                let (victim, youngest) = self
                    .entries
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, e)| e.joined_at)
                    .map(|(i, e)| (i, e.joined_at))
                    .expect("full and non-empty");
                if entry.joined_at < youngest {
                    self.entries[victim] = entry;
                    true
                } else {
                    false
                }
            }
        }
    }

    fn sample(&self, n: usize, rng: &mut impl Rng, excluded: NodeId) -> Vec<McEntry> {
        let mut refs: Vec<&McEntry> = self.entries.iter().filter(|e| e.id != excluded).collect();
        refs.shuffle(rng);
        refs.into_iter().take(n).copied().collect()
    }
}

/// Operations applicable to a stream buffer.
#[derive(Clone, Debug)]
enum BufOp {
    Advance(u32, u64),
    SkipTo(u32, u64),
    RetireHoles(u64),
}

fn arb_op(k: u32) -> impl Strategy<Value = BufOp> {
    prop_oneof![
        (0..k, 1u64..50).prop_map(|(i, n)| BufOp::Advance(i, n)),
        (0..k, 0u64..2000).prop_map(|(i, b)| BufOp::SkipTo(i, b)),
    ]
}

fn arb_ops(k: u32) -> impl Strategy<Value = Vec<BufOp>> {
    proptest::collection::vec(arb_op(k), 0..40)
}

/// [`arb_ops`] plus the playout point retiring holes behind it.
fn arb_history(k: u32) -> impl Strategy<Value = Vec<BufOp>> {
    let retire = (0u64..2500).prop_map(BufOp::RetireHoles);
    proptest::collection::vec(prop_oneof![arb_op(k), arb_op(k), retire], 0..40)
}

/// Why `push_round`, `playback_tick` and `live_edge` cast without calling
/// `floor()` first: `as u64` truncates toward zero and saturates, so the
/// two agree on every `f64`.
#[test]
fn float_to_u64_cast_needs_no_floor() {
    let two53 = 9_007_199_254_740_992.0_f64;
    let cases = [
        0.0,
        -0.0,
        0.999_999_999,
        1.0,
        9.6,
        -0.5,
        -1.0,
        -1e300,
        f64::MIN_POSITIVE / 2.0, // subnormal
        -f64::MIN_POSITIVE / 2.0,
        two53 - 1.0,
        two53,
        two53 + 2.0,
        u64::MAX as f64,
        1e300,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
    ];
    for x in cases.map(std::hint::black_box) {
        assert_eq!(x.floor() as u64, x as u64, "x = {x:e}");
    }
    let cast = |x: f64| std::hint::black_box(x) as u64;
    assert_eq!(cast(f64::NAN), 0);
    assert_eq!(cast(-3.7), 0);
    assert_eq!(cast(f64::INFINITY), u64::MAX);
}

proptest! {
    /// `received_between` is `has_block` counted over the range, after any
    /// history, for ranges before, across and past `start_seq`, the heads
    /// and the holes, and for an empty or inverted range.
    #[test]
    fn received_between_counts_has_block(
        k in 1u32..=20,
        start in 0u64..500,
        ops in arb_history(20),
        a in 0u64..2600,
        len in 0u64..300,
    ) {
        let mut buf = StreamBuffer::new(k, start);
        for op in ops {
            match op {
                BufOp::Advance(i, n) if i < k => { buf.advance(i, n); },
                BufOp::SkipTo(i, b) if i < k => { buf.skip_to(i, b); },
                BufOp::RetireHoles(n) => buf.retire_holes(n),
                _ => {}
            }
            let ranges = [
                (a, a + len),
                (start.saturating_sub(len), start + len),
                (a + len, a),
            ];
            for (from, to) in ranges {
                let want = (from..to).filter(|&n| buf.has_block(n)).count() as u64;
                prop_assert_eq!(buf.received_between(from, to), want, "{}..{}", from, to);
            }
        }
    }

    /// Whatever the op sequence, per-sub-stream alignment, contiguity and
    /// hole bookkeeping stay coherent.
    #[test]
    fn stream_buffer_invariants(
        k in 1u32..8,
        start in 0u64..500,
        ops in arb_ops(8),
    ) {
        let mut buf = StreamBuffer::new(k, start);
        for op in ops {
            match op {
                BufOp::Advance(i, n) if i < k => { buf.advance(i, n); },
                BufOp::SkipTo(i, b) if i < k => { buf.skip_to(i, b); },
                _ => {}
            }
        }
        for i in 0..k {
            if let Some(h) = buf.latest(i) {
                // Alignment: the newest seq belongs to its sub-stream.
                prop_assert_eq!(h % k as u64, i as u64);
                prop_assert!(h >= buf.first_wanted(i));
                // next_missing is exactly one block further.
                prop_assert_eq!(buf.next_missing(i), h + k as u64);
            } else {
                prop_assert_eq!(buf.next_missing(i), buf.first_wanted(i));
            }
        }
        // Contiguous edge never exceeds the max latest and never precedes
        // start − 1.
        if let Some(edge) = buf.contiguous_edge() {
            prop_assert!(edge >= start);
            prop_assert!(edge <= buf.max_latest().unwrap());
            prop_assert_eq!(buf.contiguous_len(), edge - start + 1);
            // Every block up to the edge is either present or a recorded
            // hole — sample a few points.
            for n in [start, start + (edge - start) / 2, edge] {
                let in_hole = buf
                    .holes()
                    .iter()
                    .any(|&(s, e)| n >= s && n <= e && (n - s) % k as u64 == 0);
                prop_assert!(buf.has_block(n) || in_hole, "block {n} unaccounted");
            }
        } else {
            prop_assert_eq!(buf.contiguous_len(), 0);
        }
        // Blocks before start are never present.
        if start > 0 {
            prop_assert!(!buf.has_block(start - 1));
        }
    }

    /// The inline (`seq + 1`, 0 = none) sub-stream slots answer every read
    /// like the `Vec<Option<u64>>` they replaced, on both sides of the
    /// inline/spill width.
    #[test]
    fn inline_latest_matches_vec_option_model(
        k in 1u32..=20,
        start in 0u64..500,
        ops in arb_ops(20),
    ) {
        let ku = k as u64;
        let mut buf = StreamBuffer::new(k, start);
        let mut model: Vec<Option<u64>> = vec![None; k as usize];
        for op in ops {
            match op {
                BufOp::Advance(i, n) if i < k => {
                    let first = buf.first_wanted(i);
                    let slot = &mut model[i as usize];
                    *slot = Some(slot.map_or(first + (n - 1) * ku, |h| h + n * ku));
                    prop_assert_eq!(buf.advance(i, n), *slot);
                }
                BufOp::SkipTo(i, bound) if i < k => {
                    // Largest seq ≤ bound in sub-stream i, if it is news.
                    let next = model[i as usize].map_or(buf.first_wanted(i), |h| h + ku);
                    let aligned = (bound >= i as u64).then(|| bound - (bound - i as u64) % ku);
                    let skipped = match aligned {
                        Some(a) if a >= next => {
                            model[i as usize] = Some(a);
                            (a - next) / ku + 1
                        }
                        _ => 0,
                    };
                    prop_assert_eq!(buf.skip_to(i, bound), skipped);
                }
                _ => {}
            }
            for i in 0..k {
                prop_assert_eq!(buf.latest(i), model[i as usize]);
                let next = model[i as usize].map_or(buf.first_wanted(i), |h| h + ku);
                prop_assert_eq!(buf.next_missing(i), next);
            }
            prop_assert_eq!(buf.max_latest(), model.iter().flatten().copied().max());
            let wire: Vec<u64> = model.iter().map(|l| l.map_or(0, |s| s + 1)).collect();
            prop_assert_eq!(buf.advertised(), &wire[..]);
            prop_assert_eq!(&buf.buffer_map(&vec![false; k as usize]).latest, &model);
        }
    }

    /// The column-stored `MCache` behaves as the `Vec<McEntry>` cache it
    /// replaced ([`VecCache`]) under any interleaving of insert, refresh,
    /// remove and `sample_into`, under both policies: same entries in the
    /// same order, same insert verdicts, same picks (`sample_into` against
    /// the allocating `sample` it replaced: filter, shuffle references, take
    /// the first `n`), and the same RNG position after every step.
    #[test]
    fn sample_into_matches_collecting_sample(
        seed in any::<u64>(),
        cap in 0usize..12,
        biased in any::<bool>(),
        ops in proptest::collection::vec((0u8..4, 0u32..24, 0u64..40, 0usize..12), 0..80),
    ) {
        let policy = if biased {
            ReplacePolicy::StabilityBiased
        } else {
            ReplacePolicy::Random
        };
        let mut cache = MCache::new(cap);
        let mut model = VecCache { cap, entries: Vec::new() };
        let mut rng = Xoshiro256PlusPlus::new(seed);
        let mut rng_model = rng.clone();
        // A dirty, reused buffer must come back holding only the sample.
        let mut got = vec![McEntry { id: NodeId(999), joined_at: SimTime::ZERO }; 3];
        for (op, id, joined, n) in ops {
            let entry = McEntry { id: NodeId(id), joined_at: SimTime::from_secs(joined) };
            match op {
                0 | 1 => prop_assert_eq!(
                    cache.insert(entry, policy, &mut rng),
                    model.insert(entry, policy, &mut rng_model)
                ),
                2 => {
                    cache.remove(entry.id);
                    model.entries.retain(|e| e.id != entry.id);
                }
                _ => {
                    cache.sample_into(n, &mut rng, |c| c == entry.id, &mut got);
                    prop_assert_eq!(&got, &model.sample(n, &mut rng_model, entry.id));
                }
            }
            prop_assert_eq!(cache.iter().collect::<Vec<_>>(), model.entries.clone());
            prop_assert_eq!(cache.len(), model.entries.len());
            prop_assert_eq!(rng.clone().gen::<u64>(), rng_model.clone().gen::<u64>());
        }
    }

    /// The BM wire codec round-trips any latest/subscription combination.
    #[test]
    fn buffer_map_codec_round_trips(
        k in 1u32..16,
        latests in proptest::collection::vec(proptest::option::of(0u64..u64::MAX / 2), 1..16),
        bits in any::<u16>(),
    ) {
        let k = k.min(latests.len() as u32);
        let latest: Vec<Option<u64>> = latests[..k as usize].to_vec();
        let subscribed: Vec<bool> = (0..k).map(|i| bits & (1 << i) != 0).collect();
        let bm = BufferMap { latest, subscribed };
        let decoded = BufferMap::decode(k, &bm.encode()).expect("decodes");
        prop_assert_eq!(decoded, bm);
    }

    /// mCache never exceeds capacity and never holds duplicates,
    /// whatever the insert/remove interleaving or policy.
    #[test]
    fn mcache_capacity_and_uniqueness(
        cap in 0usize..12,
        seed in any::<u64>(),
        ops in proptest::collection::vec((0u32..30, 0u64..1000, any::<bool>()), 0..80),
        biased in any::<bool>(),
    ) {
        let policy = if biased {
            ReplacePolicy::StabilityBiased
        } else {
            ReplacePolicy::Random
        };
        let mut rng = Xoshiro256PlusPlus::new(seed);
        let mut cache = MCache::new(cap);
        for (id, joined, remove) in ops {
            if remove {
                cache.remove(NodeId(id));
            } else {
                cache.insert(
                    McEntry {
                        id: NodeId(id),
                        joined_at: SimTime::from_secs(joined),
                    },
                    policy,
                    &mut rng,
                );
            }
            prop_assert!(cache.len() <= cap);
            let mut ids: Vec<u32> = cache.iter().map(|e| e.id.0).collect();
            ids.sort_unstable();
            let before = ids.len();
            ids.dedup();
            prop_assert_eq!(ids.len(), before, "duplicate entries");
        }
    }

    /// Parameter validation never panics and accepts the default under
    /// small perturbations of the timing knobs.
    #[test]
    fn params_validation_is_total(
        substreams in 0u32..20,
        block_bytes in 0u32..100_000,
        tp in 0u64..10_000,
        delay in 0u64..10_000,
        giveup in -1.0f64..2.0,
    ) {
        let p = Params {
            substreams,
            block_bytes,
            tp_blocks: tp,
            playback_delay_blocks: delay,
            giveup_loss: giveup,
            ..Params::default()
        };
        let _ = p.validate(); // must not panic
    }
}
