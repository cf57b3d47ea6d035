//! The complete audience generator: NHPP arrivals (thinning) + per-user
//! class, capacity, session behaviour.

use cs_logging::UserId;
use cs_net::{Bandwidth, CapacityModel};
use cs_proto::UserSpec;
use cs_sim::rng::{streams, Xoshiro256PlusPlus};
use cs_sim::SimTime;

use crate::classes::ClassMix;
use crate::profile::RateProfile;
use crate::sessions::SessionModel;

/// Free-rider population model (scenario DSL chaos knob): each arriving
/// user independently contributes nothing with probability `share` — its
/// uplink is clamped to [`Bandwidth::FLOOR`] at generation time, before
/// the overlay ever sees the node.
#[derive(Clone, Copy, Debug)]
pub struct FreeRiderModel {
    /// Probability in `[0, 1]` that an arriving user free-rides.
    pub share: f64,
}

/// A full workload description.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Arrival-rate profile.
    pub profile: RateProfile,
    /// User-class mix.
    pub mix: ClassMix,
    /// Per-class upload capacities.
    pub capacities: CapacityModel,
    /// Session behaviour.
    pub sessions: SessionModel,
    /// Optional free-rider conversion applied to arrivals. `None` (the
    /// default) draws nothing from the free-rider RNG stream, so
    /// pre-existing runs keep their exact arrival sequences.
    pub free_riders: Option<FreeRiderModel>,
}

impl Workload {
    /// The default event-day workload at the given base arrival rate
    /// (arrivals per second at the evening peak).
    pub fn event_day(peak_rate: f64) -> Self {
        Workload {
            profile: RateProfile::event_day(peak_rate),
            mix: ClassMix::default(),
            capacities: CapacityModel::default(),
            sessions: SessionModel::default(),
            free_riders: None,
        }
    }

    /// A steady workload (constant rate, no program ends) for controlled
    /// experiments.
    pub fn steady(rate: f64) -> Self {
        let mut sessions = SessionModel::default();
        sessions.program_ends.clear();
        sessions.end_aligned_prob = 0.0;
        Workload {
            profile: RateProfile::constant(rate),
            mix: ClassMix::default(),
            capacities: CapacityModel::default(),
            sessions,
            free_riders: None,
        }
    }

    /// Generate all arrivals in `[start, horizon)`, deterministically in
    /// `seed`. Returns `(arrival_time, spec)` pairs in time order.
    pub fn generate(
        &self,
        seed: u64,
        start: SimTime,
        horizon: SimTime,
    ) -> Vec<(SimTime, UserSpec)> {
        #[expect(
            clippy::expect_used,
            reason = "constructor-style precondition: a malformed class mix is a programming error, not a runtime state"
        )]
        self.mix.validate().expect("invalid class mix");
        let mut arr_rng = Xoshiro256PlusPlus::stream(seed, streams::ARRIVALS);
        let mut sess_rng = Xoshiro256PlusPlus::stream(seed, streams::SESSIONS);
        let mut cap_rng = Xoshiro256PlusPlus::stream(seed, streams::CAPACITY);
        // Dedicated stream, drawn only when the model is enabled: legacy
        // workloads consume exactly the streams they always did.
        let mut fr_rng = Xoshiro256PlusPlus::stream(seed, streams::FREERIDER);

        let lambda_max = self.profile.max_rate();
        let mut out = Vec::new();
        if lambda_max <= 0.0 {
            return out;
        }
        let mut t = start.as_secs_f64();
        let end = horizon.as_secs_f64();
        // Thinning (Lewis–Shedler): candidate arrivals at rate λ_max,
        // accepted with probability λ(t)/λ_max.
        loop {
            let u: f64 = arr_rng.gen_range(f64::MIN_POSITIVE..1.0);
            t += -u.ln() / lambda_max;
            if t >= end {
                break;
            }
            let at = SimTime::from_secs_f64(t);
            if arr_rng.gen::<f64>() > self.profile.rate(at) / lambda_max {
                continue;
            }
            let class = self.mix.sample(&mut sess_rng);
            let mut upload = self.capacities.sample(class, &mut cap_rng);
            if let Some(fr) = &self.free_riders {
                if fr_rng.gen::<f64>() < fr.share {
                    upload = Bandwidth::FLOOR;
                }
            }
            let leave_at = self.sessions.sample_leave_at(at, &mut sess_rng);
            #[expect(
                clippy::expect_used,
                reason = "run precondition: `ScenarioSpec::validate` keeps the expected node ids, every arrival's included, under half the 32-bit range; an arrival past it is a programming error, not a runtime state"
            )]
            let user = u32::try_from(out.len()).expect("user ids within 32 bits");
            let spec = UserSpec {
                user: UserId(user),
                class,
                upload,
                leave_at,
                patience: self.sessions.sample_patience(&mut sess_rng),
                retries_left: self.sessions.sample_retries(&mut sess_rng),
                retry_index: 0,
            };
            out.push((at, spec));
        }
        out
    }

    /// Expected number of arrivals in `[start, horizon)`: the integral of
    /// the rate profile, which is constant between hour and spike
    /// boundaries, so a spike of any length or offset counts in full.
    pub fn expected_arrivals(&self, start: SimTime, horizon: SimTime) -> f64 {
        let (from, to) = (start.as_micros(), horizon.as_micros());
        let hour = SimTime::from_hours(1).as_micros();
        let mut cuts = vec![from, to];
        cuts.extend(
            (from / hour + 1..)
                .map(|h| h * hour)
                .take_while(|&t| t < to),
        );
        for s in &self.profile.spikes {
            cuts.extend([s.start, s.start + s.duration].map(SimTime::as_micros));
        }
        cuts.retain(|t| (from..=to).contains(t));
        cuts.sort_unstable();
        cuts.dedup();
        cuts.windows(2)
            .map(|w| {
                let span = SimTime::from_micros(w[1] - w[0]).as_secs_f64();
                self.profile.rate(SimTime::from_micros(w[0])) * span
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs_net::NodeClass;

    #[test]
    fn arrival_count_matches_expectation() {
        let w = Workload::steady(0.5);
        let arrivals = w.generate(1, SimTime::ZERO, SimTime::from_hours(2));
        let expected = 0.5 * 7200.0;
        let got = arrivals.len() as f64;
        assert!(
            (got - expected).abs() < expected * 0.1,
            "got {got}, expected ≈{expected}"
        );
    }

    #[test]
    fn arrivals_are_sorted_and_unique_users() {
        let w = Workload::event_day(1.0);
        let arrivals = w.generate(2, SimTime::ZERO, SimTime::from_hours(6));
        for pair in arrivals.windows(2) {
            assert!(pair[0].0 <= pair[1].0);
        }
        let mut users: Vec<u32> = arrivals.iter().map(|(_, s)| s.user.0).collect();
        users.dedup();
        assert_eq!(users.len(), arrivals.len());
    }

    #[test]
    fn diurnal_shape_visible_in_counts() {
        let w = Workload::event_day(1.0);
        let arrivals = w.generate(3, SimTime::ZERO, SimTime::from_hours(24));
        let count_in = |h0: u64, h1: u64| {
            arrivals
                .iter()
                .filter(|(t, _)| *t >= SimTime::from_hours(h0) && *t < SimTime::from_hours(h1))
                .count()
        };
        let night = count_in(2, 4);
        let prime = count_in(19, 21);
        assert!(
            prime > night * 8,
            "prime {prime} should dwarf night {night}"
        );
    }

    #[test]
    fn leave_times_are_after_arrivals() {
        let w = Workload::event_day(0.5);
        for (t, s) in w.generate(4, SimTime::ZERO, SimTime::from_hours(24)) {
            assert!(s.leave_at > t, "user {:?}", s.user);
        }
    }

    #[test]
    fn class_mix_respected_in_generated_specs() {
        let w = Workload::steady(2.0);
        let arrivals = w.generate(5, SimTime::ZERO, SimTime::from_hours(4));
        let public = arrivals
            .iter()
            .filter(|(_, s)| matches!(s.class, NodeClass::DirectConnect | NodeClass::Upnp))
            .count() as f64
            / arrivals.len() as f64;
        assert!((public - 0.30).abs() < 0.03, "public share {public}");
    }

    #[test]
    fn deterministic_in_seed() {
        let w = Workload::event_day(0.8);
        let a = w.generate(7, SimTime::ZERO, SimTime::from_hours(3));
        let b = w.generate(7, SimTime::ZERO, SimTime::from_hours(3));
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.0, y.0);
            assert_eq!(x.1.user, y.1.user);
            assert_eq!(x.1.class, y.1.class);
            assert_eq!(x.1.upload, y.1.upload);
            assert_eq!(x.1.leave_at, y.1.leave_at);
        }
        let c = w.generate(8, SimTime::ZERO, SimTime::from_hours(3));
        assert_ne!(a.len(), c.len());
    }

    #[test]
    fn expected_arrivals_close_to_realized() {
        let w = Workload::event_day(1.0);
        let expected = w.expected_arrivals(SimTime::ZERO, SimTime::from_hours(24));
        let realized = w.generate(9, SimTime::ZERO, SimTime::from_hours(24)).len() as f64;
        assert!(
            (realized - expected).abs() < expected * 0.05,
            "realized {realized} vs expected {expected}"
        );
    }

    /// The integral is exact for a spike between minute marks, which a
    /// once-a-minute sample misses.
    #[test]
    fn expected_arrivals_count_a_spike_between_minutes() {
        let mut w = Workload::steady(1.0);
        w.profile.spikes.push(crate::Spike {
            start: SimTime::from_secs(10),
            duration: SimTime::from_secs(30),
            multiplier: 1001.0,
        });
        let expected = w.expected_arrivals(SimTime::ZERO, SimTime::from_secs(120));
        assert!((expected - 30_120.0).abs() < 1e-6, "{expected}");
        let tail = w.expected_arrivals(SimTime::from_secs(25), SimTime::from_secs(3600 + 90));
        assert!((tail - (3_665.0 + 15_000.0)).abs() < 1e-6, "{tail}");
    }

    #[test]
    fn window_generation_supports_nonzero_start() {
        let w = Workload::steady(1.0);
        let arrivals = w.generate(10, SimTime::from_hours(5), SimTime::from_hours(6));
        assert!(!arrivals.is_empty());
        for (t, _) in &arrivals {
            assert!(*t >= SimTime::from_hours(5) && *t < SimTime::from_hours(6));
        }
    }

    #[test]
    fn free_rider_model_clamps_expected_share() {
        let mut w = Workload::steady(2.0);
        w.free_riders = Some(FreeRiderModel { share: 0.4 });
        let arrivals = w.generate(6, SimTime::ZERO, SimTime::from_hours(4));
        let riders = arrivals
            .iter()
            .filter(|(_, s)| s.upload == Bandwidth::FLOOR)
            .count() as f64
            / arrivals.len() as f64;
        assert!((riders - 0.4).abs() < 0.04, "free-rider share {riders}");
    }

    #[test]
    fn free_rider_model_leaves_other_streams_untouched() {
        // Enabling the model must not perturb arrival times, classes or
        // session behaviour — only uploads may change (clamp to floor).
        let base = Workload::steady(1.0);
        let mut with_fr = base.clone();
        with_fr.free_riders = Some(FreeRiderModel { share: 0.5 });
        let a = base.generate(12, SimTime::ZERO, SimTime::from_hours(2));
        let b = with_fr.generate(12, SimTime::ZERO, SimTime::from_hours(2));
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.0, y.0);
            assert_eq!(x.1.user, y.1.user);
            assert_eq!(x.1.class, y.1.class);
            assert_eq!(x.1.leave_at, y.1.leave_at);
            assert_eq!(x.1.patience, y.1.patience);
            assert!(y.1.upload == x.1.upload || y.1.upload == Bandwidth::FLOOR);
        }
        assert!(
            b.iter().any(|(_, s)| s.upload == Bandwidth::FLOOR),
            "share 0.5 converted nobody"
        );
    }

    #[test]
    fn zero_rate_produces_nothing() {
        let w = Workload::steady(0.0);
        assert!(w
            .generate(11, SimTime::ZERO, SimTime::from_hours(1))
            .is_empty());
    }
}
