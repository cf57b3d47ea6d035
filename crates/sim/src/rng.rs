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
//! and Vigna) rather than relying on `SmallRng`, whose algorithm is
//! explicitly unspecified and may change between `rand` releases; trace
//! reproducibility across toolchain updates matters for a measurement-style
//! codebase.

#![expect(
    clippy::disallowed_methods,
    reason = "this module implements the named-stream API; it is the one place raw construction and seed splitting belong"
)]

use rand::{Error, RngCore, SeedableRng};

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
/// Period 2^256 − 1; passes BigCrush; 4×64-bit state. Implements
/// [`rand::RngCore`] so it composes with `rand` / `rand_distr` samplers.
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

    #[inline]
    fn next(&mut self) -> u64 {
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
}

impl RngCore for Xoshiro256PlusPlus {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        (self.next() >> 32) as u32
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.next()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

impl SeedableRng for Xoshiro256PlusPlus {
    type Seed = [u8; 8];

    fn from_seed(seed: Self::Seed) -> Self {
        Self::new(u64::from_le_bytes(seed))
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
    use rand::Rng;

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
    fn fill_bytes_handles_unaligned_lengths() {
        let mut rng = Xoshiro256PlusPlus::new(9);
        for len in [0usize, 1, 7, 8, 9, 15, 16, 33] {
            let mut buf = vec![0u8; len];
            rng.fill_bytes(&mut buf);
            if len >= 8 {
                assert!(buf.iter().any(|&b| b != 0), "len {len} produced all zeros");
            }
        }
    }

    #[test]
    fn gen_range_is_within_bounds() {
        let mut rng = Xoshiro256PlusPlus::new(3);
        for _ in 0..10_000 {
            let v: u32 = rng.gen_range(10..20);
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
