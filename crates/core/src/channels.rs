//! Multi-channel broadcasting.
//!
//! §V.A: *"The users contact a web server to select the program that
//! they intend to watch"* — the deployment carried several programs at
//! once, and Fig. 5's 22:00 cliff is attributed to "the ending of some
//! programs". This module models a multi-program deployment: one
//! audience, split across `C` independent Coolstreaming overlays by a
//! Zipf popularity law, with a fraction of viewers zapping to a second
//! channel mid-session.
//!
//! Each channel is a full [`Scenario`] world (its own servers, scaled by
//! popularity); channels run on parallel threads. The well-known P2P-IPTV
//! finding should emerge: *unpopular channels stream worse* — small
//! swarms have fewer public peers to clog under, so startup is slower
//! and continuity lower (cf. the PPLive measurements of §II).

use cs_logging::UserId;
use cs_net::Bandwidth;
use cs_proto::UserSpec;
use cs_sim::rng::{streams, Xoshiro256PlusPlus};
use cs_sim::SimTime;
use rand::Rng;

use crate::scenario::{par_map, RunArtifacts, Scenario};

/// A multi-channel deployment description.
#[derive(Clone, Debug)]
pub struct ChannelScenario {
    /// The base scenario: its workload is the *aggregate* audience; its
    /// servers are the *total* fleet, divided across channels by
    /// popularity.
    pub base: Scenario,
    /// Number of channels (programs).
    pub channels: usize,
    /// Zipf exponent of channel popularity (1.0 ≈ classic).
    pub zipf_s: f64,
    /// Probability a viewer splits their session across two channels
    /// (zapping mid-watch).
    pub switch_prob: f64,
}

/// Per-channel outcome.
pub struct ChannelRun {
    /// Channel rank (0 = most popular).
    pub rank: usize,
    /// Popularity share assigned to this channel.
    pub share: f64,
    /// The run itself.
    pub artifacts: RunArtifacts,
}

impl ChannelScenario {
    /// Zipf popularity shares over `channels` ranks.
    pub fn shares(&self) -> Vec<f64> {
        let raw: Vec<f64> = (1..=self.channels)
            .map(|r| 1.0 / (r as f64).powf(self.zipf_s))
            .collect();
        let total: f64 = raw.iter().sum();
        raw.into_iter().map(|x| x / total).collect()
    }

    /// Split the aggregate audience into per-channel arrival schedules.
    /// Viewer identity is preserved across a zap (same `UserId` appears
    /// in two channels with disjoint time intervals).
    pub fn split_arrivals(&self) -> Vec<Vec<(SimTime, UserSpec)>> {
        let aggregate =
            self.base
                .workload
                .generate(self.base.seed, self.base.start, self.base.horizon);
        let shares = self.shares();
        let mut rng = Xoshiro256PlusPlus::stream(self.base.seed, streams::CHANNEL);
        let mut per_channel: Vec<Vec<(SimTime, UserSpec)>> = vec![Vec::new(); self.channels];
        for (t, spec) in aggregate {
            let first = sample_channel(&shares, &mut rng);
            let watch = spec.leave_at.saturating_sub(t);
            let zap = self.channels > 1
                && watch > SimTime::from_mins(4)
                && rng.gen_bool(self.switch_prob);
            if zap {
                // Split at a uniform point in the middle half of the
                // session; the second half goes to a different channel.
                let frac = rng.gen_range(0.25..0.75);
                let split = t + SimTime::from_secs_f64(watch.as_secs_f64() * frac);
                let mut second = sample_channel(&shares, &mut rng);
                if second == first {
                    second = (second + 1) % self.channels;
                }
                let mut a = spec;
                a.leave_at = split;
                per_channel[first].push((t, a));
                let mut b = spec;
                b.retry_index = 0;
                per_channel[second].push((split, b));
            } else {
                per_channel[first].push((t, spec));
            }
        }
        // Zap-split second halves are appended out of order; restore
        // time order per channel (stable, so same-time order is the
        // deterministic generation order).
        for ch in &mut per_channel {
            ch.sort_by_key(|(t, spec)| (*t, spec.user));
        }
        per_channel
    }

    /// Run every channel (on parallel threads) and return them by rank.
    pub fn run(&self) -> Vec<ChannelRun> {
        let shares = self.shares();
        let arrivals = self.split_arrivals();
        // Servers divide across channels proportionally to popularity,
        // at least one each — as an operator would provision.
        let total_server_bw = self.base.servers as u64 * self.base.server_bw.as_bps();
        par_map(arrivals, |rank, arrivals| {
            let share = shares[rank];
            let servers = ((self.base.servers as f64 * share).round() as usize).max(1);
            let bw = Bandwidth(((total_server_bw as f64 * share) / servers as f64).round() as u64);
            let mut scenario = self.base.clone();
            scenario.servers = servers;
            scenario.server_bw = bw;
            scenario.seed = self.base.seed.wrapping_add(rank as u64 * 7919);
            let artifacts = scenario.run_with_arrivals(arrivals);
            ChannelRun {
                rank,
                share,
                artifacts,
            }
        })
    }
}

fn sample_channel<R: Rng + ?Sized>(shares: &[f64], rng: &mut R) -> usize {
    let x: f64 = rng.gen();
    let mut acc = 0.0;
    for (i, s) in shares.iter().enumerate() {
        acc += s;
        if x < acc {
            return i;
        }
    }
    shares.len() - 1
}

/// Users who appear in more than one channel (the zappers), for
/// cross-channel analysis.
pub fn zappers(runs: &[ChannelRun]) -> Vec<UserId> {
    use std::collections::BTreeMap;
    let mut seen: BTreeMap<UserId, usize> = BTreeMap::new();
    for run in runs {
        let mut users: Vec<UserId> = run
            .artifacts
            .world
            .sessions
            .iter()
            .filter(|s| s.class.is_user())
            .map(|s| s.user)
            .collect();
        users.sort_unstable();
        users.dedup();
        for u in users {
            *seen.entry(u).or_default() += 1;
        }
    }
    seen.into_iter()
        .filter(|&(_, n)| n > 1)
        .map(|(u, _)| u)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ChannelScenario {
        ChannelScenario {
            base: Scenario::steady(0.8)
                .with_seed(11)
                .with_window(SimTime::ZERO, SimTime::from_mins(12)),
            channels: 3,
            zipf_s: 1.0,
            switch_prob: 0.2,
        }
    }

    #[test]
    fn shares_are_zipf_normalized() {
        let cs = tiny();
        let shares = cs.shares();
        assert_eq!(shares.len(), 3);
        assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(shares[0] > shares[1] && shares[1] > shares[2]);
        // s = 1 → shares ∝ 1, 1/2, 1/3.
        assert!((shares[0] / shares[2] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn split_preserves_population_and_splits_zappers() {
        let cs = tiny();
        let aggregate = cs
            .base
            .workload
            .generate(cs.base.seed, cs.base.start, cs.base.horizon)
            .len();
        let per_channel = cs.split_arrivals();
        let total: usize = per_channel.iter().map(Vec::len).sum();
        assert!(total >= aggregate, "splits only add sessions");
        // Popularity ordering holds for the assignment counts.
        assert!(per_channel[0].len() > per_channel[2].len());
        // Every channel's arrivals are time-sorted (within the channel).
        for ch in &per_channel {
            for w in ch.windows(2) {
                assert!(w[0].0 <= w[1].0);
            }
        }
    }

    #[test]
    fn split_is_deterministic() {
        let cs = tiny();
        let a = cs.split_arrivals();
        let b = cs.split_arrivals();
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.len(), y.len());
        }
    }

    #[test]
    fn multi_channel_run_produces_per_channel_worlds() {
        let cs = tiny();
        let runs = cs.run();
        assert_eq!(runs.len(), 3);
        // Populations ordered by popularity.
        let pops: Vec<u64> = runs
            .iter()
            .map(|r| r.artifacts.world.stats.arrivals)
            .collect();
        assert!(pops[0] > pops[2], "popularity ordering lost: {pops:?}");
        // Zappers exist and appear in two channels.
        let z = zappers(&runs);
        assert!(!z.is_empty(), "no zappers with switch_prob = 0.2");
    }
}
