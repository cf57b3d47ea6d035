//! Deterministic, splittable random number generation.
//!
//! Reproducibility requirement: a run must be a pure function of
//! `(config, seed)`, and adding randomness to one subsystem must not perturb
//! the random sequence seen by another. We therefore never share one RNG
//! across subsystems; instead each subsystem derives its own *stream* from
//! the master seed with [`split_seed`], and each stream is an independent
//! [`Xoshiro256PlusPlus`] generator.
//!
//! We implement xoshiro256++ ourselves (public-domain algorithm by Blackman
//! and Vigna), and with it every sampler the workspace draws from: uniform
//! words and floats, bounded ranges, coins, shuffles, picks and the
//! lognormal. Their outputs are pinned here (`sampler_outputs_are_pinned`),
//! so a trace does not move with a toolchain or a dependency.
//!
//! The module defines no `thread_rng`, `from_entropy` or foreign RNG type:
//! the only way to a generator is a seed.

#![expect(
    clippy::disallowed_methods,
    reason = "this module implements the named-stream API; it is the one place raw construction and seed splitting belong"
)]

use core::ops::Range;

/// SplitMix64 step — used for seed expansion, as recommended by the xoshiro
/// authors.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derive an independent stream seed from `(master, stream)`.
///
/// Streams with distinct ids produce statistically independent generators;
/// the same `(master, stream)` pair always produces the same seed.
#[inline]
pub fn split_seed(master: u64, stream: u64) -> u64 {
    let mut s = master ^ stream.wrapping_mul(0xA076_1D64_78BD_642F);
    // Two rounds of splitmix decorrelate master/stream structure.
    let a = splitmix64(&mut s);
    splitmix64(&mut s) ^ a.rotate_left(17)
}

/// The id of a named RNG stream. The field is private, so the only values
/// are the [`streams`] constants: two subsystems cannot collide on an
/// ad-hoc id, and adding a stream means declaring it in that one table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StreamId(u64);

/// The xoshiro256++ generator.
///
/// Period 2^256 − 1; passes BigCrush; 4×64-bit state. The samplers are
/// inherent methods, so every draw in the workspace goes through this type.
#[derive(Clone, Debug)]
pub struct Xoshiro256PlusPlus {
    s: [u64; 4],
}

impl Xoshiro256PlusPlus {
    /// Seed from a single `u64`, expanding with SplitMix64.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = splitmix64(&mut sm);
        }
        // The all-zero state is invalid (fixed point); splitmix of any seed
        // cannot produce it for all four words, but guard anyway.
        if s == [0, 0, 0, 0] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        Xoshiro256PlusPlus { s }
    }

    /// Construct the RNG stream `stream` of master seed `master`.
    ///
    /// ```
    /// use cs_sim::rng::{streams, Xoshiro256PlusPlus};
    /// let _rng = Xoshiro256PlusPlus::stream(1, streams::ARRIVALS);
    /// ```
    ///
    /// A bare integer is not a stream id:
    ///
    /// ```compile_fail,E0308
    /// use cs_sim::rng::Xoshiro256PlusPlus;
    /// let _rng = Xoshiro256PlusPlus::stream(1, 7);
    /// ```
    ///
    /// and one cannot be minted outside this module, so every id in use is
    /// a declared [`streams`] constant:
    ///
    /// ```compile_fail,E0423
    /// use cs_sim::rng::{StreamId, Xoshiro256PlusPlus};
    /// let _rng = Xoshiro256PlusPlus::stream(1, StreamId(7));
    /// ```
    pub fn stream(master: u64, stream: StreamId) -> Self {
        Self::new(split_seed(master, stream.0))
    }

    /// The next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// A uniform value of `T`'s natural domain: a whole word for `u64` and
    /// `usize`, `[0, 1)` from the 53 high bits for `f64`.
    #[inline]
    pub fn gen<T: sealed::Uniform>(&mut self) -> T {
        T::standard(self)
    }

    /// A uniform value from `range` (`start` inclusive, `end` exclusive).
    /// Integers take one multiply-shift draw (Lemire; negligible bias, no
    /// rejection loop) and panic on an empty range.
    #[inline]
    pub fn gen_range<T: sealed::Uniform>(&mut self, range: Range<T>) -> T {
        T::between(self, range.start, range.end)
    }

    /// `true` with probability `p`.
    ///
    /// # Panics
    /// If `p` is outside `[0, 1]`.
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool p out of range: {p}");
        self.gen::<f64>() < p
    }

    /// Fisher–Yates shuffle of `v` in place.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.gen_range(0..i + 1);
            v.swap(i, j);
        }
    }

    /// A uniformly random element of `v`, or `None` (and no draw) if it is
    /// empty.
    pub fn choose<'a, T>(&mut self, v: &'a [T]) -> Option<&'a T> {
        if v.is_empty() {
            None
        } else {
            Some(&v[self.gen_range(0..v.len())])
        }
    }

    /// One sample of `exp(N(mu, sigma²))`, or `None` (and no draw) when
    /// `mu` or `sigma` is not finite or `sigma < 0`. The normal deviate is
    /// Box–Muller's cosine branch, so each sample takes two uniforms.
    #[inline]
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> Option<f64> {
        if !sigma.is_finite() || sigma < 0.0 || !mu.is_finite() {
            return None;
        }
        // u1 in (0, 1]: avoid ln(0).
        let u1 = 1.0 - self.gen::<f64>();
        let u2 = self.gen::<f64>();
        let z = (-2.0 * u1.ln()).sqrt() * (core::f64::consts::TAU * u2).cos();
        Some((mu + sigma * z).exp())
    }
}

mod sealed {
    use super::Xoshiro256PlusPlus;

    /// The types [`Xoshiro256PlusPlus::gen`] and
    /// [`Xoshiro256PlusPlus::gen_range`] draw. Sealed: the workspace draws
    /// `u64`, `usize` and `f64`, and no other type implements it.
    pub trait Uniform: Sized {
        /// A uniform value of the type's natural domain.
        fn standard(rng: &mut Xoshiro256PlusPlus) -> Self;
        /// A uniform value from `[lo, hi)`.
        fn between(rng: &mut Xoshiro256PlusPlus, lo: Self, hi: Self) -> Self;
    }

    impl Uniform for u64 {
        #[inline]
        fn standard(rng: &mut Xoshiro256PlusPlus) -> Self {
            rng.next_u64()
        }

        #[inline]
        fn between(rng: &mut Xoshiro256PlusPlus, lo: Self, hi: Self) -> Self {
            assert!(lo < hi, "empty range in gen_range");
            let x = rng.next_u64();
            lo + ((x as u128 * (hi - lo) as u128) >> 64) as u64
        }
    }

    impl Uniform for usize {
        #[inline]
        fn standard(rng: &mut Xoshiro256PlusPlus) -> Self {
            rng.next_u64() as usize
        }

        #[inline]
        fn between(rng: &mut Xoshiro256PlusPlus, lo: Self, hi: Self) -> Self {
            u64::between(rng, lo as u64, hi as u64) as usize
        }
    }

    impl Uniform for f64 {
        #[inline]
        fn standard(rng: &mut Xoshiro256PlusPlus) -> Self {
            (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }

        #[inline]
        fn between(rng: &mut Xoshiro256PlusPlus, lo: Self, hi: Self) -> Self {
            let v = lo + f64::standard(rng) * (hi - lo);
            // Rounding can carry `v` onto `hi`; return the largest value
            // below it instead.
            if v >= hi {
                return f64::from_bits(hi.to_bits() - 1).max(lo);
            }
            v
        }
    }
}

/// Well-known stream ids, so subsystems never collide by accident.
pub mod streams {
    use super::StreamId;

    /// Workload arrival process.
    pub const ARRIVALS: StreamId = StreamId(1);
    /// Session durations and user classes.
    pub const SESSIONS: StreamId = StreamId(2);
    /// Membership gossip and mCache replacement.
    pub const MEMBERSHIP: StreamId = StreamId(3);
    /// Partner and parent selection.
    pub const SELECTION: StreamId = StreamId(4);
    /// Network latency jitter.
    pub const NETWORK: StreamId = StreamId(5);
    /// Upload-capacity assignment.
    pub const CAPACITY: StreamId = StreamId(6);
    /// Baseline (tree) protocols.
    pub const BASELINE: StreamId = StreamId(7);
    /// Retry/impatience decisions.
    pub const RETRY: StreamId = StreamId(8);
    /// Free-rider selection (scenario DSL chaos modelling). Drawn only
    /// when a workload enables the free-rider model, so legacy runs
    /// consume exactly the streams they always did.
    pub const FREERIDER: StreamId = StreamId(9);
    /// Channel assignment and zapping in multi-channel scenarios. Id 101
    /// predates this table (it was a local constant in cs-core), so it
    /// keeps its historical value — changing it would re-seed every
    /// multi-channel golden trace.
    pub const CHANNEL: StreamId = StreamId(101);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = Xoshiro256PlusPlus::new(42);
        let mut b = Xoshiro256PlusPlus::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Xoshiro256PlusPlus::new(1);
        let mut b = Xoshiro256PlusPlus::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn streams_are_independent_and_reproducible() {
        let mut s1 = Xoshiro256PlusPlus::stream(7, streams::ARRIVALS);
        let mut s2 = Xoshiro256PlusPlus::stream(7, streams::SESSIONS);
        let mut s1b = Xoshiro256PlusPlus::stream(7, streams::ARRIVALS);
        assert_ne!(s1.next_u64(), s2.next_u64());
        let _ = s1b.next_u64();
        assert_eq!(s1.next_u64(), s1b.next_u64());
    }

    #[test]
    fn gen_range_is_within_bounds() {
        let mut rng = Xoshiro256PlusPlus::new(3);
        for _ in 0..10_000 {
            let v: u64 = rng.gen_range(10..20);
            assert!((10..20).contains(&v));
        }
    }

    #[test]
    fn uniform_f64_roughly_uniform() {
        let mut rng = Xoshiro256PlusPlus::new(5);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.gen::<f64>()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    /// The first outputs of every sampler the workspace calls, at one fixed
    /// seed. The golden hashes see only the samplers the scenarios happen
    /// to reach; this sees each one, edge cases included.
    #[test]
    fn sampler_outputs_are_pinned() {
        let mut rng = Xoshiro256PlusPlus::new(0x5EED);
        let unit: Vec<u64> = (0..3).map(|_| rng.gen::<f64>().to_bits()).collect();
        assert_eq!(
            unit,
            [
                4603195937050105281,
                4607105831642508318,
                4591215361929411632
            ],
            "gen::<f64>"
        );
        let words: Vec<u64> = (0..3).map(|_| rng.gen::<u64>()).collect();
        assert_eq!(
            words,
            [
                8068187894902567183,
                7974362285425930994,
                7209157427833052836
            ],
            "gen::<u64>"
        );
        let r_u64: Vec<u64> = (0..3).map(|_| rng.gen_range(2_000u64..6_000)).collect();
        assert_eq!(r_u64, [3102, 4956, 2432], "gen_range u64");
        let r_usize: Vec<usize> = (0..3).map(|_| rng.gen_range(0usize..60)).collect();
        assert_eq!(r_usize, [48, 59, 17], "gen_range usize");
        let r_f64: Vec<u64> = (0..3)
            .map(|_| rng.gen_range(0.25..0.75f64).to_bits())
            .collect();
        assert_eq!(
            r_f64,
            [
                4604718000344224706,
                4602999637717243215,
                4599079375039227770
            ],
            "gen_range f64"
        );

        // [1, 1 + 2ε): a unit draw ≥ 0.75 rounds `lo + u·(hi − lo)` onto
        // `hi`, and the guard returns the value just below it instead.
        let hi = 1.0 + 2.0 * f64::EPSILON;
        let mut probe = rng.clone();
        let rounded_onto_hi = (0..8)
            .filter(|_| 1.0 + probe.gen::<f64>() * (hi - 1.0) >= hi)
            .count();
        assert_eq!(rounded_onto_hi, 2, "draws that reach the guard");
        let guarded: Vec<u64> = (0..8).map(|_| rng.gen_range(1.0..hi).to_bits()).collect();
        let (one, next) = (1.0f64.to_bits(), (1.0 + f64::EPSILON).to_bits());
        assert_eq!(
            guarded,
            [one, one, next, one, next, one, next, next],
            "gen_range f64 at the guard"
        );

        let coins: Vec<bool> = (0..8).map(|_| rng.gen_bool(0.3)).collect();
        assert_eq!(
            coins,
            [true, false, false, true, false, false, false, false],
            "gen_bool(0.3)"
        );
        assert!(!rng.gen_bool(0.0) && rng.gen_bool(1.0), "gen_bool extremes");

        let mut deck: Vec<u32> = (0..10).collect();
        rng.shuffle(&mut deck);
        assert_eq!(deck, [6, 2, 8, 5, 9, 1, 3, 7, 4, 0], "shuffle");
        let picks: Vec<u32> = (0..3)
            .map(|_| *rng.choose(&[10, 20, 30, 40, 50]).unwrap())
            .collect();
        assert_eq!(picks, [40, 20, 10], "choose");
        let before = rng.clone();
        let empty: [u32; 0] = [];
        assert_eq!(rng.choose(&empty), None, "choose on an empty slice");
        assert_eq!(rng.next_u64(), before.clone().next_u64(), "no draw");

        let lognormal: Vec<u64> = (0..3)
            .map(|_| rng.lognormal(2.0, 0.8).unwrap().to_bits())
            .collect();
        assert_eq!(
            lognormal,
            [
                4625698168744832636,
                4615254399694542547,
                4626604765476453686
            ],
            "lognormal(2, 0.8)"
        );
        let mut two_later = rng.clone();
        let (_, _) = (two_later.next_u64(), two_later.next_u64());
        let flat = rng.lognormal(1.0, 0.0).unwrap();
        assert_eq!(flat.to_bits(), 1.0f64.exp().to_bits(), "lognormal at σ = 0");
        assert_eq!(
            rng.next_u64(),
            two_later.next_u64(),
            "two uniforms a sample"
        );
        assert_eq!(rng.lognormal(f64::NAN, 1.0), None);
        assert_eq!(rng.next_u64(), 3934993352373234942, "the stream after");
    }

    #[test]
    fn split_seed_distinct_for_nearby_inputs() {
        let mut seen = std::collections::HashSet::new();
        for master in 0..16u64 {
            for stream in 0..16u64 {
                assert!(seen.insert(split_seed(master, stream)));
            }
        }
    }
}
