//! Upload-capacity model.
//!
//! Fig. 3b of the paper shows a heavily skewed upload-contribution
//! distribution: the ~30 % public (direct-connect/UPnP) peers contribute
//! more than 80 % of all uploaded bytes. The substrate reproduces the
//! *cause*: public peers sit on much fatter access links (campus Ethernet,
//! business DSL) while NAT/firewall peers are mostly consumer ADSL with
//! uplinks *below* the 768 kbps stream rate. Per-class capacities are
//! lognormal — the standard shape for access-link speed populations.

use cs_sim::rng::Xoshiro256PlusPlus;

use crate::class::NodeClass;

/// A link bandwidth in bits per second.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Bandwidth(pub u64);

impl Bandwidth {
    /// Zero bandwidth.
    pub const ZERO: Bandwidth = Bandwidth(0);

    /// The simulator-wide uplink floor (8 kbps): the capacity model never
    /// samples below it, and the free-rider chaos injections clamp
    /// converted users down to exactly this value.
    pub const FLOOR: Bandwidth = Bandwidth(8_000);

    /// From kilobits per second.
    #[inline]
    pub const fn kbps(k: u64) -> Bandwidth {
        Bandwidth(k * 1_000)
    }

    /// From megabits per second.
    #[inline]
    pub const fn mbps(m: u64) -> Bandwidth {
        Bandwidth(m * 1_000_000)
    }

    /// Raw bits per second.
    #[inline]
    pub const fn as_bps(self) -> u64 {
        self.0
    }

    /// Bytes per second as a float.
    #[inline]
    pub fn as_bytes_per_sec(self) -> f64 {
        self.0 as f64 / 8.0
    }
}

/// Lognormal capacity distribution for one user class.
#[derive(Clone, Copy, Debug)]
pub struct ClassCapacity {
    /// Median uplink bandwidth.
    pub median: Bandwidth,
    /// Lognormal shape parameter (σ of the underlying normal).
    pub sigma: f64,
    /// Hard cap (e.g. the physical uplink); samples are clamped.
    pub cap: Bandwidth,
}

impl ClassCapacity {
    /// Sample one uplink capacity.
    pub fn sample(&self, rng: &mut Xoshiro256PlusPlus) -> Bandwidth {
        if self.sigma <= 0.0 {
            return Bandwidth(self.median.0.min(self.cap.0));
        }
        let mu = (self.median.0 as f64).ln();
        // Degrade to the deterministic median rather than panic on a
        // malformed sigma (sigma > 0 was checked, but NaN slips through).
        let Some(raw) = rng.lognormal(mu, self.sigma) else {
            return Bandwidth(self.median.0.min(self.cap.0));
        };
        Bandwidth((raw as u64).min(self.cap.0).max(Bandwidth::FLOOR.0))
    }
}

/// Per-class capacity assignment for the whole overlay.
#[derive(Clone, Copy, Debug)]
pub struct CapacityModel {
    /// Direct-connect users (campus/business links).
    pub direct: ClassCapacity,
    /// UPnP users (good consumer links).
    pub upnp: ClassCapacity,
    /// NAT users (consumer ADSL uplinks, typically below stream rate).
    pub nat: ClassCapacity,
    /// Firewalled users.
    pub firewall: ClassCapacity,
    /// Dedicated helper servers (fixed).
    pub server: Bandwidth,
    /// The broadcast source (fixed).
    pub source: Bandwidth,
}

impl Default for CapacityModel {
    fn default() -> Self {
        CapacityModel {
            direct: ClassCapacity {
                median: Bandwidth::kbps(3_200),
                sigma: 0.8,
                cap: Bandwidth::mbps(25),
            },
            upnp: ClassCapacity {
                median: Bandwidth::kbps(2_000),
                sigma: 0.6,
                cap: Bandwidth::mbps(12),
            },
            nat: ClassCapacity {
                median: Bandwidth::kbps(280),
                sigma: 0.5,
                cap: Bandwidth::mbps(2),
            },
            firewall: ClassCapacity {
                median: Bandwidth::kbps(340),
                sigma: 0.5,
                cap: Bandwidth::mbps(2),
            },
            server: Bandwidth::mbps(100),
            source: Bandwidth::mbps(12),
        }
    }
}

impl CapacityModel {
    /// Sample an uplink capacity for a node of class `class`.
    pub fn sample(&self, class: NodeClass, rng: &mut Xoshiro256PlusPlus) -> Bandwidth {
        match class {
            NodeClass::DirectConnect => self.direct.sample(rng),
            NodeClass::Upnp => self.upnp.sample(rng),
            NodeClass::Nat => self.nat.sample(rng),
            NodeClass::Firewall => self.firewall.sample(rng),
            NodeClass::Server => self.server,
            NodeClass::Source => self.source,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_units() {
        assert_eq!(Bandwidth::kbps(768).as_bps(), 768_000);
        assert_eq!(Bandwidth::mbps(100).as_bps(), 100_000_000);
        assert_eq!(Bandwidth::kbps(8).as_bytes_per_sec(), 1_000.0);
    }

    #[test]
    fn infrastructure_capacity_is_fixed() {
        let m = CapacityModel::default();
        let mut rng = Xoshiro256PlusPlus::new(1);
        for _ in 0..10 {
            assert_eq!(m.sample(NodeClass::Server, &mut rng), Bandwidth::mbps(100));
            assert_eq!(m.sample(NodeClass::Source, &mut rng), Bandwidth::mbps(12));
        }
    }

    #[test]
    fn medians_are_roughly_respected() {
        let m = CapacityModel::default();
        let mut rng = Xoshiro256PlusPlus::new(2);
        let mut samples: Vec<u64> = (0..10_001)
            .map(|_| m.sample(NodeClass::DirectConnect, &mut rng).as_bps())
            .collect();
        samples.sort_unstable();
        let median = samples[samples.len() / 2] as f64;
        let target = m.direct.median.as_bps() as f64;
        assert!(
            (median - target).abs() / target < 0.1,
            "median {median} vs target {target}"
        );
    }

    #[test]
    fn samples_respect_cap_and_floor() {
        let m = CapacityModel::default();
        let mut rng = Xoshiro256PlusPlus::new(3);
        for _ in 0..10_000 {
            let s = m.sample(NodeClass::Nat, &mut rng);
            assert!(s.as_bps() <= m.nat.cap.as_bps());
            assert!(s.as_bps() >= 8_000);
        }
    }

    #[test]
    fn public_classes_are_much_faster_on_average() {
        let m = CapacityModel::default();
        let mut rng = Xoshiro256PlusPlus::new(4);
        let avg = |class: NodeClass, rng: &mut Xoshiro256PlusPlus| -> f64 {
            (0..5000)
                .map(|_| m.sample(class, rng).as_bps() as f64)
                .sum::<f64>()
                / 5000.0
        };
        let direct = avg(NodeClass::DirectConnect, &mut rng);
        let nat = avg(NodeClass::Nat, &mut rng);
        assert!(
            direct > 5.0 * nat,
            "direct {direct:.0} bps not ≫ nat {nat:.0} bps"
        );
    }

    #[test]
    fn zero_sigma_is_deterministic() {
        let c = ClassCapacity {
            median: Bandwidth::kbps(500),
            sigma: 0.0,
            cap: Bandwidth::mbps(1),
        };
        let mut rng = Xoshiro256PlusPlus::new(5);
        assert_eq!(c.sample(&mut rng), Bandwidth::kbps(500));
    }
}
