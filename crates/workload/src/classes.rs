//! User-class mix.
//!
//! Fig. 3a: roughly 30 % of users are "public" (direct-connect + UPnP)
//! and the rest sit behind NATs and firewalls. The default mix reproduces
//! that split; it is a plain parameter so ablations can sweep it (the
//! public-peer ratio is exactly the "critical value" lever discussed in
//! §V.E via the Kumar/Liu/Ross fluid model).

use cs_net::NodeClass;
use cs_sim::rng::Xoshiro256PlusPlus;

/// Probability of each user class at arrival.
#[derive(Clone, Copy, Debug)]
pub struct ClassMix {
    /// Direct-connect share.
    pub direct: f64,
    /// UPnP share.
    pub upnp: f64,
    /// NAT share.
    pub nat: f64,
    /// Firewall share.
    pub firewall: f64,
}

impl Default for ClassMix {
    fn default() -> Self {
        ClassMix {
            direct: 0.19,
            upnp: 0.11,
            nat: 0.46,
            firewall: 0.24,
        }
    }
}

impl ClassMix {
    /// A mix with only public peers (debug/ablation).
    pub fn all_public() -> Self {
        ClassMix {
            direct: 1.0,
            upnp: 0.0,
            nat: 0.0,
            firewall: 0.0,
        }
    }

    /// Shares must be non-negative and sum to 1.
    pub fn validate(&self) -> Result<(), String> {
        let parts = [self.direct, self.upnp, self.nat, self.firewall];
        if parts.iter().any(|p| *p < 0.0) {
            return Err("negative class share".into());
        }
        let sum: f64 = parts.iter().sum();
        if (sum - 1.0).abs() > 1e-9 {
            return Err(format!("class shares sum to {sum}, expected 1"));
        }
        Ok(())
    }

    /// Fraction of public (direct + UPnP) users.
    pub fn public_share(&self) -> f64 {
        self.direct + self.upnp
    }

    /// Sample one class.
    pub fn sample(&self, rng: &mut Xoshiro256PlusPlus) -> NodeClass {
        let x: f64 = rng.gen();
        if x < self.direct {
            NodeClass::DirectConnect
        } else if x < self.direct + self.upnp {
            NodeClass::Upnp
        } else if x < self.direct + self.upnp + self.nat {
            NodeClass::Nat
        } else {
            NodeClass::Firewall
        }
    }

    /// Scale the public share to `share`, renormalizing the private
    /// classes proportionally. Used by ablation sweeps.
    pub fn with_public_share(&self, share: f64) -> ClassMix {
        assert!((0.0..=1.0).contains(&share));
        let cur_pub = self.public_share();
        let cur_priv = 1.0 - cur_pub;
        let pub_scale = if cur_pub > 0.0 { share / cur_pub } else { 0.0 };
        let priv_scale = if cur_priv > 0.0 {
            (1.0 - share) / cur_priv
        } else {
            0.0
        };
        ClassMix {
            direct: self.direct * pub_scale,
            upnp: self.upnp * pub_scale,
            nat: self.nat * priv_scale,
            firewall: self.firewall * priv_scale,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_mix_is_valid_and_paper_shaped() {
        let m = ClassMix::default();
        m.validate().unwrap();
        assert!((m.public_share() - 0.30).abs() < 0.01);
    }

    #[test]
    fn sampling_matches_shares() {
        let m = ClassMix::default();
        let mut rng = Xoshiro256PlusPlus::new(1);
        let n = 100_000;
        let mut counts = [0usize; 4];
        for _ in 0..n {
            match m.sample(&mut rng) {
                NodeClass::DirectConnect => counts[0] += 1,
                NodeClass::Upnp => counts[1] += 1,
                NodeClass::Nat => counts[2] += 1,
                NodeClass::Firewall => counts[3] += 1,
                _ => unreachable!(),
            }
        }
        let shares = [m.direct, m.upnp, m.nat, m.firewall];
        for (c, s) in counts.iter().zip(shares) {
            let got = *c as f64 / n as f64;
            assert!((got - s).abs() < 0.01, "got {got}, want {s}");
        }
    }

    #[test]
    fn validate_rejects_bad_mixes() {
        let mut m = ClassMix::default();
        m.direct += 0.1;
        assert!(m.validate().is_err());
        let m2 = ClassMix {
            direct: -0.1,
            upnp: 0.4,
            nat: 0.4,
            firewall: 0.3,
        };
        assert!(m2.validate().is_err());
    }

    #[test]
    fn with_public_share_rescales() {
        let m = ClassMix::default().with_public_share(0.5);
        m.validate().unwrap();
        assert!((m.public_share() - 0.5).abs() < 1e-9);
        // Ratio within private classes preserved.
        let base = ClassMix::default();
        assert!(((m.nat / m.firewall) - (base.nat / base.firewall)).abs() < 1e-9);
    }

    #[test]
    fn all_public_is_valid() {
        ClassMix::all_public().validate().unwrap();
    }
}
