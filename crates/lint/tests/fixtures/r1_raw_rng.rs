// R1 fixture: RNGs built around the named-stream API.
use rand::rngs::SmallRng;
fn draws(seed: u64) {
    let _a = Xoshiro256PlusPlus::new(seed);
    let _b = Xoshiro256PlusPlus::seed_from_u64(seed);
    let _c = Xoshiro256PlusPlus::from_entropy();
    let _d = split_seed(seed, 7);
    let _ok = Xoshiro256PlusPlus::stream(seed, streams::ARRIVALS);
    // cs-lint: allow(rng-stream) — fixture: a replay tool re-deriving a recorded seed
    let _waived = Xoshiro256PlusPlus::new(seed);
}

#[cfg(test)]
mod tests {
    #[test]
    fn fixed_seed() {
        let _rng = Xoshiro256PlusPlus::new(1);
    }
}
