//! Session behaviour: intended watch durations, patience, retries, and
//! program-end alignment.
//!
//! Fig. 10a shows session durations to be heavy-tailed with a large
//! sub-minute mass. The sub-minute mass is *not* drawn here — it emerges
//! from failed joins and impatience in the protocol world. What we model:
//!
//! * intended watch time — lognormal with a "zapping" mixture of short
//!   deliberate visits,
//! * program-end alignment — a fraction of viewers stay until the program
//!   ends, producing the 22:00 cliff of Fig. 5,
//! * patience before abandoning a join, and the retry budget behind
//!   Fig. 10b.

use cs_sim::rng::Xoshiro256PlusPlus;
use cs_sim::SimTime;

/// Session-behaviour parameters.
#[derive(Clone, Debug)]
pub struct SessionModel {
    /// Median intended watch time, seconds.
    pub watch_median_secs: f64,
    /// Lognormal σ of the watch time (heavy tail).
    pub watch_sigma: f64,
    /// Probability of a short "zapping" visit instead.
    pub zap_prob: f64,
    /// Zapping visit bounds, seconds.
    pub zap_range_secs: (f64, f64),
    /// Median patience before abandoning a join, seconds.
    pub patience_median_secs: f64,
    /// Lognormal σ of patience.
    pub patience_sigma: f64,
    /// Geometric parameter for the retry budget: P(give another try).
    pub retry_continue_prob: f64,
    /// Hard cap on retries.
    pub retry_cap: u32,
    /// Probability a viewer watches until the program ends (their leave
    /// time snaps to the next program boundary).
    pub end_aligned_prob: f64,
    /// Program end times (e.g. 20:30 and 22:00 in the event day).
    pub program_ends: Vec<SimTime>,
}

impl Default for SessionModel {
    fn default() -> Self {
        SessionModel {
            watch_median_secs: 1100.0,
            watch_sigma: 1.1,
            zap_prob: 0.22,
            zap_range_secs: (25.0, 180.0),
            patience_median_secs: 45.0,
            patience_sigma: 0.5,
            retry_continue_prob: 0.55,
            retry_cap: 5,
            end_aligned_prob: 0.45,
            program_ends: vec![
                SimTime::from_secs(20 * 3600 + 1800), // 20:30
                SimTime::from_hours(22),              // 22:00
            ],
        }
    }
}

impl SessionModel {
    /// Sample an intended watch duration.
    pub fn sample_watch(&self, rng: &mut Xoshiro256PlusPlus) -> SimTime {
        if rng.gen_bool(self.zap_prob) {
            let (lo, hi) = self.zap_range_secs;
            return SimTime::from_secs_f64(rng.gen_range(lo..hi));
        }
        // Degrade to the median rather than panic on malformed sigma.
        let Some(secs) = rng.lognormal(self.watch_median_secs.ln(), self.watch_sigma) else {
            return SimTime::from_secs_f64(self.watch_median_secs.clamp(10.0, 6.0 * 3600.0));
        };
        SimTime::from_secs_f64(secs.clamp(10.0, 6.0 * 3600.0))
    }

    /// Sample the absolute intended leave time for a viewer joining at
    /// `join`, applying program-end alignment.
    pub fn sample_leave_at(&self, join: SimTime, rng: &mut Xoshiro256PlusPlus) -> SimTime {
        let natural = join + self.sample_watch(rng);
        if !rng.gen_bool(self.end_aligned_prob) {
            return natural;
        }
        // Snap to the next program boundary — but only when the viewer
        // would plausibly reach it (their natural duration carries them at
        // least a quarter of the way there).
        match self.program_ends.iter().find(|&&e| e > join) {
            Some(&end) => {
                let to_end = end.saturating_sub(join);
                if natural.saturating_sub(join) * 4 >= to_end {
                    end
                } else {
                    natural
                }
            }
            None => natural,
        }
    }

    /// Sample join patience.
    pub fn sample_patience(&self, rng: &mut Xoshiro256PlusPlus) -> SimTime {
        // Degrade to the median rather than panic on malformed sigma.
        let Some(secs) = rng.lognormal(self.patience_median_secs.ln(), self.patience_sigma) else {
            return SimTime::from_secs_f64(self.patience_median_secs.clamp(10.0, 600.0));
        };
        SimTime::from_secs_f64(secs.clamp(10.0, 600.0))
    }

    /// Sample the retry budget (number of *additional* attempts the user
    /// will make after a failure).
    pub fn sample_retries(&self, rng: &mut Xoshiro256PlusPlus) -> u32 {
        let mut n = 0;
        while n < self.retry_cap && rng.gen_bool(self.retry_continue_prob) {
            n += 1;
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watch_durations_heavy_tailed() {
        let m = SessionModel::default();
        let mut rng = Xoshiro256PlusPlus::new(1);
        let mut d: Vec<f64> = (0..20_000)
            .map(|_| m.sample_watch(&mut rng).as_secs_f64())
            .collect();
        d.sort_by(|a, b| a.total_cmp(b));
        let q50 = d[d.len() / 2];
        let q95 = d[d.len() * 95 / 100];
        let mean = d.iter().sum::<f64>() / d.len() as f64;
        // Median pulled below the lognormal median by the zap mixture.
        assert!(q50 > 300.0 && q50 < 1500.0, "median {q50}");
        // Heavy tail: mean well above median, q95 ≫ median.
        assert!(mean > q50 * 1.3, "mean {mean} vs median {q50}");
        assert!(q95 > q50 * 4.0, "q95 {q95}");
    }

    #[test]
    fn zap_mass_exists() {
        let m = SessionModel::default();
        let mut rng = Xoshiro256PlusPlus::new(2);
        let short = (0..10_000)
            .filter(|_| m.sample_watch(&mut rng).as_secs() < 180)
            .count() as f64
            / 10_000.0;
        assert!(short > 0.15 && short < 0.40, "short fraction {short}");
    }

    #[test]
    fn leave_snaps_to_program_end_for_long_watchers() {
        let m = SessionModel::default();
        let mut rng = Xoshiro256PlusPlus::new(3);
        let join = SimTime::from_hours(21); // one hour before 22:00
        let n = 5_000;
        let aligned = (0..n)
            .filter(|_| m.sample_leave_at(join, &mut rng) == SimTime::from_hours(22))
            .count() as f64
            / n as f64;
        // Roughly end_aligned_prob × P(duration ≥ 15 min).
        assert!(aligned > 0.2 && aligned < 0.6, "aligned {aligned}");
    }

    #[test]
    fn no_program_after_join_means_natural_leave() {
        let mut m = SessionModel::default();
        m.program_ends.clear();
        let mut rng = Xoshiro256PlusPlus::new(4);
        let join = SimTime::from_hours(23);
        let leave = m.sample_leave_at(join, &mut rng);
        assert!(leave > join);
    }

    #[test]
    fn patience_is_tens_of_seconds() {
        let m = SessionModel::default();
        let mut rng = Xoshiro256PlusPlus::new(5);
        for _ in 0..1000 {
            let p = m.sample_patience(&mut rng).as_secs_f64();
            assert!((10.0..=600.0).contains(&p));
        }
    }

    #[test]
    fn retry_budget_distribution() {
        let m = SessionModel::default();
        let mut rng = Xoshiro256PlusPlus::new(6);
        let n = 20_000;
        let counts: Vec<u32> = (0..n).map(|_| m.sample_retries(&mut rng)).collect();
        let zero = counts.iter().filter(|&&c| c == 0).count() as f64 / n as f64;
        // P(no retry) = 1 - retry_continue_prob.
        assert!((zero - 0.45).abs() < 0.02, "zero-retry share {zero}");
        assert!(counts.iter().all(|&c| c <= m.retry_cap));
    }
}
