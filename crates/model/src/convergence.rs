//! Topology-convergence model (§V.B.2).
//!
//! The paper argues that because children of low-degree NAT/firewall
//! parents lose peer competitions often (Eq. 6) while children of
//! high-degree public parents rarely do, repeated random re-selection
//! drives peers to "clog" under direct-connect/UPnP parents: *"If the
//! system runs long enough, most of peers will likely become children of
//! direct-connect/UPnP peers."*
//!
//! We formalize that as a two-state Markov chain over a peer's parent
//! type, evaluated per adaptation round:
//!
//! * under a **private** parent, the peer adapts with probability
//!   `p_leave_private` and its re-selection lands on a public parent with
//!   probability `alpha` (the public share of serving capacity);
//! * under a **public** parent, it adapts with the much smaller
//!   `p_leave_public` (churn of the parent itself).
//!
//! The stationary public-parent share follows in closed form; FIG4
//! compares it against the simulated snapshot series.

/// Two-state parent-type Markov chain.
#[derive(Clone, Copy, Debug)]
pub struct ConvergenceModel {
    /// Probability per round that a peer under a private parent adapts
    /// away (driven by Eq. 6 at small `D_p`).
    pub p_leave_private: f64,
    /// Probability per round that a peer under a public parent must
    /// re-select (parent churn, rare competition loss).
    pub p_leave_public: f64,
    /// Probability that a re-selection lands on a public (or server)
    /// parent — the public share of advertised serving capacity.
    pub alpha: f64,
}

impl ConvergenceModel {
    /// Build the model from protocol quantities: plug Eq. (6) in for the
    /// private-parent loss probability at degree `d_private`, a reduced
    /// one for public parents at `d_public`, and the capacity share.
    pub fn from_competition(
        d_private: u32,
        d_public: u32,
        ts: f64,
        ta: f64,
        substream_rate: f64,
        alpha: f64,
        churn_per_round: f64,
    ) -> Self {
        let lose_priv = crate::dynamics::p_lose_within(d_private, ts, ta, substream_rate);
        let lose_pub = crate::dynamics::p_lose_within(d_public, ts, ta, substream_rate);
        ConvergenceModel {
            p_leave_private: (lose_priv + churn_per_round).min(1.0),
            p_leave_public: (lose_pub + churn_per_round).min(1.0),
            alpha: alpha.clamp(0.0, 1.0),
        }
    }

    /// One-round transition: given the current probability `f` of sitting
    /// under a public parent, return the next-round probability.
    pub fn step(&self, f: f64) -> f64 {
        let to_public_from_private = self.p_leave_private * self.alpha;
        let to_private_from_public = self.p_leave_public * (1.0 - self.alpha);
        (f * (1.0 - to_private_from_public) + (1.0 - f) * to_public_from_private).clamp(0.0, 1.0)
    }

    /// The public-parent share after `n` rounds starting from `f0`.
    pub fn share_after(&self, f0: f64, n: u32) -> f64 {
        (0..n).fold(f0.clamp(0.0, 1.0), |f, _| self.step(f))
    }

    /// The stationary public-parent share.
    pub fn stationary(&self) -> f64 {
        let up = self.p_leave_private * self.alpha;
        let down = self.p_leave_public * (1.0 - self.alpha);
        // Division guard as a threshold, not exact-zero equality: `up` and
        // `down` are products of probabilities in [0, 1], so non-positive
        // means "no flow either way".
        if up + down <= 0.0 {
            return 0.0;
        }
        up / (up + down)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> ConvergenceModel {
        ConvergenceModel {
            p_leave_private: 0.4,
            p_leave_public: 0.05,
            alpha: 0.7,
        }
    }

    #[test]
    fn share_converges_monotonically_from_below() {
        let m = model();
        let mut prev = 0.0;
        for n in 1..50 {
            let f = m.share_after(0.0, n);
            assert!(f >= prev - 1e-12, "non-monotone at {n}");
            prev = f;
        }
        let stat = m.stationary();
        assert!((m.share_after(0.0, 500) - stat).abs() < 1e-9);
    }

    #[test]
    fn stationary_is_a_fixed_point() {
        let m = model();
        let s = m.stationary();
        assert!((m.step(s) - s).abs() < 1e-12);
        // Dominated by the private→public flow: well above alpha·0.5.
        assert!(s > 0.9, "stationary {s}");
    }

    #[test]
    fn no_public_capacity_means_no_convergence() {
        let m = ConvergenceModel {
            p_leave_private: 0.5,
            p_leave_public: 0.1,
            alpha: 0.0,
        };
        assert_eq!(m.stationary(), 0.0);
        assert_eq!(m.share_after(0.0, 100), 0.0);
    }

    #[test]
    fn from_competition_orders_leave_probabilities() {
        // NAT parents (degree 1) shed children faster than public parents
        // (degree 12).
        let m = ConvergenceModel::from_competition(1, 12, 96.0, 20.0, 1.6, 0.6, 0.01);
        assert!(m.p_leave_private > m.p_leave_public);
        assert!(m.stationary() > 0.5);
    }
}
