//! Reachability policy: which connection attempts succeed.
//!
//! The paper observes (§V.B) that "connections among NAT/Firewall peers
//! (random links) are relatively rare" — rare, not impossible, because some
//! middleboxes keep permissive state. We model that with small per-class
//! acceptance probabilities for otherwise-unreachable targets.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::class::NodeClass;

/// Why a connection attempt was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConnectError {
    /// The target's NAT dropped the unsolicited inbound SYN.
    NatUnreachable,
    /// The target's firewall dropped the unsolicited inbound SYN.
    FirewallBlocked,
    /// Self-connections are meaningless.
    SelfConnection,
}

/// Probabilistic reachability policy.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct ConnectivityPolicy {
    /// Probability an inbound attempt to a NAT peer succeeds anyway
    /// (permissive / full-cone NAT). Paper: random links rare.
    pub nat_accept_prob: f64,
    /// Probability an inbound attempt to a firewalled peer succeeds anyway.
    pub firewall_accept_prob: f64,
}

impl Default for ConnectivityPolicy {
    fn default() -> Self {
        ConnectivityPolicy {
            nat_accept_prob: 0.02,
            firewall_accept_prob: 0.05,
        }
    }
}

impl ConnectivityPolicy {
    /// A strict policy under which NAT/firewall peers never accept —
    /// useful for isolating the effect of random links in ablations.
    pub fn strict() -> Self {
        ConnectivityPolicy {
            nat_accept_prob: 0.0,
            firewall_accept_prob: 0.0,
        }
    }

    /// Sample, once at node creation, whether a node's middlebox is
    /// *permissive* (a full-cone NAT or stateful-but-lenient firewall that
    /// accepts unsolicited inbound connections). Middlebox behaviour is a
    /// fixed property of the node, not of the attempt — otherwise periodic
    /// partner-refill retries would accumulate NAT↔NAT links far beyond
    /// the "relatively rare" random links the paper observes.
    pub fn sample_permissive<R: Rng + ?Sized>(&self, class: NodeClass, rng: &mut R) -> bool {
        match class {
            NodeClass::Nat => rng.gen_bool(self.nat_accept_prob),
            NodeClass::Firewall => rng.gen_bool(self.firewall_accept_prob),
            _ => false,
        }
    }

    /// Decide whether an attempt towards a `target` of the given class and
    /// permissiveness succeeds. Initiator class never matters: any peer
    /// can open outgoing TCP connections.
    pub fn attempt(&self, target: NodeClass, permissive: bool) -> Result<(), ConnectError> {
        if target.accepts_incoming() || permissive {
            return Ok(());
        }
        match target {
            NodeClass::Nat => Err(ConnectError::NatUnreachable),
            NodeClass::Firewall => Err(ConnectError::FirewallBlocked),
            // accepts_incoming() covered the rest.
            #[expect(
                clippy::unreachable,
                reason = "the early return above handles every class with accepts_incoming(); only Nat/Firewall reach this match"
            )]
            _ => unreachable!("class {target:?} neither accepts nor refuses"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs_sim::rng::Xoshiro256PlusPlus;

    #[test]
    fn public_targets_always_accept() {
        let pol = ConnectivityPolicy::strict();
        for target in [
            NodeClass::DirectConnect,
            NodeClass::Upnp,
            NodeClass::Server,
            NodeClass::Source,
        ] {
            assert!(pol.attempt(target, false).is_ok());
        }
    }

    #[test]
    fn non_permissive_private_targets_refuse() {
        let pol = ConnectivityPolicy::default();
        assert_eq!(
            pol.attempt(NodeClass::Nat, false),
            Err(ConnectError::NatUnreachable)
        );
        assert_eq!(
            pol.attempt(NodeClass::Firewall, false),
            Err(ConnectError::FirewallBlocked)
        );
        assert!(pol.attempt(NodeClass::Nat, true).is_ok());
        assert!(pol.attempt(NodeClass::Firewall, true).is_ok());
    }

    #[test]
    fn strict_policy_never_samples_permissive() {
        let mut rng = Xoshiro256PlusPlus::new(2);
        let pol = ConnectivityPolicy::strict();
        for _ in 0..1000 {
            assert!(!pol.sample_permissive(NodeClass::Nat, &mut rng));
            assert!(!pol.sample_permissive(NodeClass::Firewall, &mut rng));
        }
    }

    #[test]
    fn permissive_rates_match_policy() {
        let mut rng = Xoshiro256PlusPlus::new(3);
        let pol = ConnectivityPolicy::default();
        let trials = 20_000;
        let nat = (0..trials)
            .filter(|_| pol.sample_permissive(NodeClass::Nat, &mut rng))
            .count() as f64
            / trials as f64;
        let fw = (0..trials)
            .filter(|_| pol.sample_permissive(NodeClass::Firewall, &mut rng))
            .count() as f64
            / trials as f64;
        assert!((nat - 0.02).abs() < 0.01, "nat rate {nat}");
        assert!((fw - 0.05).abs() < 0.01, "fw rate {fw}");
        // Public classes are never flagged permissive (flag is moot).
        assert!(!pol.sample_permissive(NodeClass::DirectConnect, &mut rng));
    }
}
