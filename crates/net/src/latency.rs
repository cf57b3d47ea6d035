//! Propagation latency model.
//!
//! Every node gets a coordinate in the unit square when it joins; pairwise
//! latency is an affine function of Euclidean distance plus multiplicative
//! jitter. This is the classic "synthetic coordinates" substitute for real
//! Internet delay: it preserves the only properties the protocol is
//! sensitive to — heterogeneous, roughly metric delays in the tens-to-
//! hundreds of milliseconds.

use cs_sim::rng::Xoshiro256PlusPlus;
use cs_sim::SimTime;

/// A point in the synthetic coordinate space.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Coord {
    /// Horizontal coordinate in `[0, 1)`.
    pub x: f64,
    /// Vertical coordinate in `[0, 1)`.
    pub y: f64,
}

impl Coord {
    /// Sample a uniform coordinate.
    pub fn random(rng: &mut Xoshiro256PlusPlus) -> Coord {
        Coord {
            x: rng.gen::<f64>(),
            y: rng.gen::<f64>(),
        }
    }

    /// Euclidean distance to `other` (max √2).
    pub fn dist(self, other: Coord) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }

    /// The coordinate's quadrant of the unit square (0 = south-west,
    /// 1 = south-east, 2 = north-west, 3 = north-east). Chaos injections
    /// use quadrants as a stand-in for geographic regions, so a
    /// correlated regional outage takes out nodes that are also close in
    /// the latency model.
    pub fn quadrant(self) -> u8 {
        u8::from(self.x >= 0.5) | (u8::from(self.y >= 0.5) << 1)
    }
}

/// Affine distance → delay mapping with jitter.
#[derive(Clone, Copy, Debug)]
pub struct LatencyModel {
    /// Minimum one-way delay (local hop), applied at distance 0.
    pub base: SimTime,
    /// Delay added per unit of coordinate distance.
    pub per_unit: SimTime,
    /// Multiplicative jitter amplitude: each sample is scaled by a uniform
    /// factor in `[1 - jitter, 1 + jitter]`.
    pub jitter: f64,
}

impl Default for LatencyModel {
    fn default() -> Self {
        // 5 ms floor, up to ~5+170·√2 ≈ 245 ms across the space: spans LAN
        // to intercontinental RTT/2, matching the global audience of the
        // 2006 broadcast.
        LatencyModel {
            base: SimTime::from_millis(5),
            per_unit: SimTime::from_millis(170),
            jitter: 0.2,
        }
    }
}

impl LatencyModel {
    /// Sample the one-way delay between two coordinates.
    pub fn sample(&self, a: Coord, b: Coord, rng: &mut Xoshiro256PlusPlus) -> SimTime {
        let det = self.base.as_secs_f64() + self.per_unit.as_secs_f64() * a.dist(b);
        let factor = if self.jitter > 0.0 {
            1.0 + self.jitter * (rng.gen::<f64>() * 2.0 - 1.0)
        } else {
            1.0
        };
        SimTime::from_secs_f64(det * factor)
    }

    /// The deterministic (jitter-free) delay between two coordinates.
    pub fn expected(&self, a: Coord, b: Coord) -> SimTime {
        SimTime::from_secs_f64(self.base.as_secs_f64() + self.per_unit.as_secs_f64() * a.dist(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_distance_gives_base_delay() {
        let m = LatencyModel {
            jitter: 0.0,
            ..LatencyModel::default()
        };
        let c = Coord { x: 0.3, y: 0.7 };
        let mut rng = Xoshiro256PlusPlus::new(1);
        assert_eq!(m.sample(c, c, &mut rng), m.base);
    }

    #[test]
    fn delay_grows_with_distance() {
        let m = LatencyModel {
            jitter: 0.0,
            ..LatencyModel::default()
        };
        let a = Coord { x: 0.0, y: 0.0 };
        let near = Coord { x: 0.1, y: 0.0 };
        let far = Coord { x: 0.9, y: 0.9 };
        let mut rng = Xoshiro256PlusPlus::new(2);
        assert!(m.sample(a, near, &mut rng) < m.sample(a, far, &mut rng));
    }

    #[test]
    fn jitter_bounded() {
        let m = LatencyModel::default();
        let a = Coord { x: 0.0, y: 0.0 };
        let b = Coord { x: 1.0, y: 1.0 };
        let expected = m.expected(a, b).as_secs_f64();
        let mut rng = Xoshiro256PlusPlus::new(3);
        for _ in 0..1000 {
            let s = m.sample(a, b, &mut rng).as_secs_f64();
            assert!(s >= expected * (1.0 - m.jitter) - 1e-6);
            assert!(s <= expected * (1.0 + m.jitter) + 1e-6);
        }
    }

    #[test]
    fn latency_is_symmetric_in_expectation() {
        let m = LatencyModel::default();
        let a = Coord { x: 0.2, y: 0.4 };
        let b = Coord { x: 0.8, y: 0.1 };
        assert_eq!(m.expected(a, b), m.expected(b, a));
    }

    #[test]
    fn coords_sample_in_unit_square() {
        let mut rng = Xoshiro256PlusPlus::new(4);
        for _ in 0..1000 {
            let c = Coord::random(&mut rng);
            assert!((0.0..1.0).contains(&c.x));
            assert!((0.0..1.0).contains(&c.y));
        }
    }
}
