//! Peer-wise performance analysis — the paper's first open issue (§VI):
//! *"the data set does not allow us to derive the peer-wise performance,
//! which we believe is of great relevance in understanding the
//! self-stabilizing property of the system."*
//!
//! Our log carries enough (per-session QoS reports and the adaptation
//! counts piggy-backed on partner reports) to derive it: the
//! distribution of per-session continuity, and the adaptation rate as a
//! function of session age — a *declining* rate is the self-stabilizing
//! signature: peers adapt aggressively until they find capable parents,
//! then settle.

use cs_sim::SimTime;

use crate::sessions::LogSession;
use crate::stats::Cdf;

/// Peer-wise summary of one run.
#[derive(Clone, Debug)]
pub struct Peerwise {
    /// Distribution of per-session continuity indices (sessions with at
    /// least one non-empty QoS report).
    pub session_ci: Cdf,
    /// `(age_bin_end_minutes, adaptations per peer per minute)` — the
    /// adaptation rate at a given session age, aggregated over sessions.
    pub adaptation_rate_by_age: Vec<(f64, f64)>,
    /// Fraction of reporting sessions with perfect continuity.
    pub perfect_fraction: f64,
    /// Fraction of reporting sessions below 90 % continuity (the
    /// persistent sufferers).
    pub poor_fraction: f64,
}

/// Compute peer-wise statistics from reconstructed log sessions.
///
/// `age_bin` controls the resolution of the adaptation-rate curve;
/// sessions contribute each of their partner reports to the age bin the
/// report falls in (age = report time − join time).
pub fn peerwise(sessions: &[LogSession], age_bin: SimTime, max_age: SimTime) -> Peerwise {
    let cis: Vec<f64> = sessions.iter().filter_map(|s| s.continuity()).collect();
    let n_report = cis.len().max(1);
    let perfect = cis.iter().filter(|&&ci| ci >= 0.9999).count();
    let poor = cis.iter().filter(|&&ci| ci < 0.90).count();

    // Adaptation-rate curve. Each session's QoS/partner reports are not
    // individually timestamped per adaptation; the partner report brings
    // "adaptations since last report". We approximate the age of those
    // adaptations by the report's age. Aggregate: sum adaptations per
    // bin / (sessions alive through that bin × bin length).
    let bins = (max_age.as_micros().div_ceil(age_bin.as_micros())) as usize;
    let mut adaptations = vec![0.0f64; bins];
    let mut exposure_mins = vec![0.0f64; bins];
    for s in sessions {
        let Some(join) = s.join else { continue };
        // Exposure: the session covers ages [0, leave-join).
        let age_end = s
            .leave
            .map(|l| l.saturating_sub(join))
            .unwrap_or(max_age)
            .min(max_age);
        let full_bins = (age_end.as_micros() / age_bin.as_micros()) as usize;
        let bin_mins = age_bin.as_secs_f64() / 60.0;
        for b in exposure_mins.iter_mut().take(full_bins.min(bins)) {
            *b += bin_mins;
        }
        if full_bins < bins {
            let rem = age_end.as_micros() % age_bin.as_micros();
            exposure_mins[full_bins] += rem as f64 / 60.0e6;
        }
        // Partner-report adaptation counts (stored aggregated on the
        // session; distribute over its QoS report ages as a proxy for
        // the report schedule).
        if s.adaptations > 0 && !s.qos.is_empty() {
            let per_report = s.adaptations as f64 / s.qos.len() as f64;
            for &(t, _, _) in &s.qos {
                let age = t.saturating_sub(join);
                if age < max_age {
                    let ix = (age.as_micros() / age_bin.as_micros()) as usize;
                    if ix < bins {
                        adaptations[ix] += per_report;
                    }
                }
            }
        }
    }
    let rate: Vec<(f64, f64)> = adaptations
        .iter()
        .zip(&exposure_mins)
        .enumerate()
        .filter(|(_, (_, &e))| e > 1.0)
        .map(|(i, (&a, &e))| {
            let bin_end_mins = (i + 1) as f64 * age_bin.as_secs_f64() / 60.0;
            (bin_end_mins, a / e)
        })
        .collect();

    Peerwise {
        session_ci: Cdf::new(cis),
        adaptation_rate_by_age: rate,
        perfect_fraction: perfect as f64 / n_report as f64,
        poor_fraction: poor as f64 / n_report as f64,
    }
}

impl Peerwise {
    /// Whether the adaptation rate declines with session age (compare
    /// the mean of the first `k` bins against the mean of the last `k`).
    pub fn stabilizes(&self, k: usize) -> Option<bool> {
        let n = self.adaptation_rate_by_age.len();
        if n < 2 * k || k == 0 {
            return None;
        }
        let head: f64 = self.adaptation_rate_by_age[..k]
            .iter()
            .map(|(_, r)| r)
            .sum::<f64>()
            / k as f64;
        let tail: f64 = self.adaptation_rate_by_age[n - k..]
            .iter()
            .map(|(_, r)| r)
            .sum::<f64>()
            / k as f64;
        Some(tail < head)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sessions::LogSession;
    use cs_logging::UserId;

    fn session(join_s: u64, leave_s: u64, adaptations: u64, qos_at: &[u64]) -> LogSession {
        LogSession {
            user: UserId(join_s as u32),
            node: join_s as u32,
            join: Some(SimTime::from_secs(join_s)),
            leave: Some(SimTime::from_secs(leave_s)),
            adaptations,
            qos: qos_at
                .iter()
                .map(|&t| (SimTime::from_secs(t), 100, 1))
                .collect(),
            ..Default::default()
        }
    }

    #[test]
    fn ci_distribution_and_fractions() {
        let sessions = vec![
            // CI = 0.99
            session(0, 600, 0, &[300]),
            // No QoS → excluded from CI stats
            LogSession {
                join: Some(SimTime::ZERO),
                ..Default::default()
            },
        ];
        let pw = peerwise(&sessions, SimTime::from_mins(5), SimTime::from_mins(30));
        assert_eq!(pw.session_ci.len(), 1);
        assert_eq!(pw.perfect_fraction, 0.0);
        assert_eq!(pw.poor_fraction, 0.0);
    }

    #[test]
    fn declining_adaptations_detected() {
        // Many sessions with adaptations reported early and none late.
        let mut sessions = Vec::new();
        for i in 0..50 {
            // Early report at age 60 s carries all adaptations; later
            // reports carry none — but our proxy spreads evenly, so use
            // two sessions: one short + adapted, one long + calm.
            sessions.push(session(i, i + 120, 6, &[i + 60]));
            sessions.push(session(i, i + 1800, 0, &[i + 900]));
        }
        let pw = peerwise(&sessions, SimTime::from_mins(2), SimTime::from_mins(30));
        assert_eq!(pw.stabilizes(2), Some(true));
    }

    #[test]
    fn stabilizes_needs_enough_bins() {
        let pw = peerwise(&[], SimTime::from_mins(5), SimTime::from_mins(10));
        assert_eq!(pw.stabilizes(3), None);
    }

    #[test]
    fn exposure_prevents_sparse_bin_noise() {
        // A single short session produces no rate bins beyond its life.
        let sessions = vec![session(0, 120, 3, &[60])];
        let pw = peerwise(&sessions, SimTime::from_mins(1), SimTime::from_mins(60));
        assert!(pw.adaptation_rate_by_age.len() <= 2);
    }
}
