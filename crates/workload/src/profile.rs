//! Arrival-rate profiles.
//!
//! Fig. 5 of the paper shows the population over the broadcast day: a low
//! overnight floor, a daytime climb, a steep evening ramp to the ~40 k
//! peak between 19:00 and 22:00, and a cliff at 22:00 when programs end.
//! The drivers are the *arrival rate* (modeled here as a non-homogeneous
//! Poisson process) and the *departure alignment* with program endings
//! (modeled in [`crate::SessionModel`]).

use cs_sim::SimTime;

/// A short multiplicative arrival burst (program start, portal link, …).
#[derive(Clone, Copy, Debug)]
pub struct Spike {
    /// Burst start.
    pub start: SimTime,
    /// Burst duration.
    pub duration: SimTime,
    /// Rate multiplier while active (≥ 1).
    pub multiplier: f64,
}

/// Piecewise-hourly arrival-rate profile with optional flash-crowd spikes.
///
/// `hourly[h]` is the relative rate during hour `h` (the run is assumed to
/// start at midnight); the absolute rate is `base_rate × hourly[h] ×
/// spike multipliers`.
#[derive(Clone, Debug)]
pub struct RateProfile {
    /// Arrivals per second at multiplier 1.0.
    pub base_rate: f64,
    /// Relative rate per hour of day.
    pub hourly: [f64; 24],
    /// Flash-crowd bursts.
    pub spikes: Vec<Spike>,
}

impl RateProfile {
    /// A flat profile (useful for steady-state experiments).
    pub fn constant(rate: f64) -> Self {
        RateProfile {
            base_rate: rate,
            hourly: [1.0; 24],
            spikes: Vec::new(),
        }
    }

    /// The event-day profile shaped after Fig. 5a: overnight floor,
    /// daytime build-up, evening prime-time peak, post-22:00 decay.
    pub fn event_day(base_rate: f64) -> Self {
        let hourly = [
            0.10, 0.08, 0.06, 0.05, 0.05, 0.06, // 00–06
            0.10, 0.15, 0.22, 0.30, 0.36, 0.42, // 06–12
            0.50, 0.52, 0.46, 0.42, 0.48, 0.62, // 12–18
            0.90, 1.00, 1.00, 0.95, 0.40, 0.18, // 18–24
        ];
        RateProfile {
            base_rate,
            hourly,
            spikes: vec![
                // Program starts at 18:00 and 20:30 trigger flash crowds.
                Spike {
                    start: SimTime::from_hours(18),
                    duration: SimTime::from_mins(10),
                    multiplier: 3.0,
                },
                Spike {
                    start: SimTime::from_secs(20 * 3600 + 1800),
                    duration: SimTime::from_mins(10),
                    multiplier: 2.5,
                },
            ],
        }
    }

    /// Instantaneous arrival rate at `t` (arrivals per second).
    pub fn rate(&self, t: SimTime) -> f64 {
        let hour = (t.as_secs() / 3600) as usize % 24;
        let mut r = self.base_rate * self.hourly[hour];
        for s in &self.spikes {
            if t >= s.start && t < s.start + s.duration {
                r *= s.multiplier;
            }
        }
        r
    }

    /// An upper bound on the rate over the whole day (for thinning).
    pub fn max_rate(&self) -> f64 {
        let max_hour = self.hourly.iter().copied().fold(0.0f64, f64::max);
        let max_spike = self
            .spikes
            .iter()
            .map(|s| s.multiplier)
            .fold(1.0f64, f64::max);
        self.base_rate * max_hour * max_spike
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_profile_is_flat() {
        let p = RateProfile::constant(2.5);
        assert_eq!(p.rate(SimTime::ZERO), 2.5);
        assert_eq!(p.rate(SimTime::from_hours(13)), 2.5);
        assert_eq!(p.max_rate(), 2.5);
    }

    #[test]
    fn event_day_peaks_in_the_evening() {
        let p = RateProfile::event_day(1.0);
        let night = p.rate(SimTime::from_hours(3));
        let noon = p.rate(SimTime::from_hours(12) + SimTime::from_mins(30));
        let prime = p.rate(SimTime::from_hours(19) + SimTime::from_mins(30));
        let late = p.rate(SimTime::from_hours(23));
        assert!(night < noon && noon < prime, "{night} {noon} {prime}");
        assert!(late < noon, "post-program rate should collapse");
    }

    #[test]
    fn spikes_multiply_rate() {
        let p = RateProfile::event_day(1.0);
        let before = p.rate(SimTime::from_secs(18 * 3600 - 1));
        let during = p.rate(SimTime::from_secs(18 * 3600 + 60));
        let after = p.rate(SimTime::from_secs(18 * 3600 + 601));
        assert!(during > before * 2.0, "{during} vs {before}");
        assert!(after < during / 2.0);
    }

    #[test]
    fn max_rate_bounds_all_rates() {
        let p = RateProfile::event_day(2.0);
        let maxr = p.max_rate();
        for s in 0..24 * 60 {
            let t = SimTime::from_mins(s);
            assert!(p.rate(t) <= maxr + 1e-12, "at {t}");
        }
    }

    #[test]
    fn rate_wraps_past_midnight() {
        let p = RateProfile::event_day(1.0);
        assert_eq!(
            p.rate(SimTime::from_hours(25)),
            p.rate(SimTime::from_hours(1))
        );
    }
}
