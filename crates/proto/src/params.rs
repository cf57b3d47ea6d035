//! System parameters — Table I of the paper, plus the simulation knobs
//! that the paper leaves implicit (tick cadences, buffer-fill target).
//!
//! | paper | field | meaning |
//! |---|---|---|
//! | `R`   | [`Params::stream_rate`] | bit rate of the live stream |
//! | `K`   | [`Params::substreams`] | number of sub-streams |
//! | `B`   | [`Params::buffer_secs`] | peer buffer length (time units) |
//! | `T_s` | [`Params::ts_blocks`] | out-of-synchronization threshold |
//! | `T_p` | [`Params::tp_blocks`] | max allowable partner lag |
//! | `T_a` | [`Params::ta`] | adaptation cool-down period |
//! | `M`   | [`Params::max_partners`] | partner-count upper bound |
//! | `D_p` | — | out-going sub-stream degree (run-time state, not a knob) |
//!
//! All sequence-number thresholds are expressed in *global* block sequence
//! numbers (block `n` belongs to sub-stream `n mod K`), so a lag of one
//! second equals `blocks_per_sec()` sequence units regardless of `K`.

use cs_net::Bandwidth;
use cs_sim::SimTime;

/// mCache replacement policy (§V.C discusses improving the random one).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplacePolicy {
    /// Replace a uniformly random entry (deployed Coolstreaming behaviour).
    Random,
    /// Replace the youngest entry, biasing the cache towards long-lived,
    /// stable peers (the improvement §V.C proposes).
    StabilityBiased,
}

/// Where a joining node starts pulling — the §IV.A design choice. The
/// paper argues for [`StartPolicy::ShiftedFromLatest`] and explains why
/// the two extremes fail; the `ABL-START` bench demonstrates it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StartPolicy {
    /// `m − T_p`: shifted back from the newest advertised block (the
    /// deployed choice).
    ShiftedFromLatest,
    /// Start at the newest block `m` — risks continuity gaps because
    /// partners have no follow-up blocks buffered ahead of the child.
    Latest,
    /// Start at the oldest still-available block `n` — risks blocks
    /// being pushed out of partners' buffers mid-fetch and a long
    /// initial delay to catch up with the live stream.
    Oldest,
    /// Split the difference: `(n + m) / 2`.
    Midpoint,
}

/// How a parent divides its uplink across its child sub-stream
/// subscriptions each scheduling round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Allocation {
    /// Equal split (Eq. 5 of the paper: `r = U_p / D_p`); budget given
    /// to already-caught-up children is wasted.
    EqualSplit,
    /// Deficit-weighted split — the §VI "content delivery optimization":
    /// children with more blocks outstanding get proportionally more of
    /// the uplink, with a floor share so nobody starves outright.
    NeedAware,
}

/// Full parameter set for a Coolstreaming run.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// `R`: stream bit rate. The 2006 broadcast used 768 kbps (§V.A).
    pub stream_rate: Bandwidth,
    /// `K`: number of sub-streams.
    pub substreams: u32,
    /// Size of one block in bytes.
    pub block_bytes: u32,
    /// `B`: how much history a peer's cache buffer retains, in seconds.
    pub buffer_secs: u32,
    /// `T_s`: max tolerated deviation between the newest blocks of any two
    /// sub-streams at one node, in global sequence numbers.
    pub ts_blocks: u64,
    /// `T_p`: max tolerated lag of a parent behind the best partner, in
    /// global sequence numbers. Also the distance behind the live edge at
    /// which a joining node starts pulling (§IV.A).
    pub tp_blocks: u64,
    /// `T_a`: peer-adaptation cool-down period.
    pub ta: SimTime,
    /// `M`: maximum number of partners for a user peer.
    pub max_partners: usize,
    /// Maximum partners for a dedicated server (capacity-matched).
    pub max_partners_server: usize,
    /// Partnerships a peer tries to keep alive (re-fills from mCache below
    /// this).
    pub target_partners: usize,
    /// mCache capacity.
    pub mcache_size: usize,
    /// How many mCache entries the boot-strap server returns.
    pub bootstrap_fanout: usize,
    /// mCache entries piggy-backed per gossip message.
    pub gossip_fanout: usize,
    /// mCache replacement policy.
    pub replace_policy: ReplacePolicy,
    /// Join start-position policy (§IV.A).
    pub start_policy: StartPolicy,
    /// Parent uplink allocation policy.
    pub allocation: Allocation,
    /// Contiguous blocks buffered beyond the start position before the
    /// media player starts (the 10–20 s buffer-fill wait of Fig. 6).
    pub playback_delay_blocks: u64,
    /// §III.B insufficient-rate threshold: once playing, a contiguous
    /// playout lead below this many blocks marks the node as receiving
    /// insufficient bit rate and triggers parent re-selection for the
    /// sub-streams trailing the live edge.
    pub low_water_blocks: u64,
    /// Fraction of blocks missed (over a playback-tick window) above which
    /// a hopelessly-lagging peer gives up, departs, and re-enters (§V.D).
    pub giveup_loss: f64,
    /// Consecutive lossy playback ticks before giving up.
    pub giveup_ticks: u32,
    /// Gossip period.
    pub gossip_interval: SimTime,
    /// Buffer-map exchange + adaptation-check period.
    pub bm_interval: SimTime,
    /// Parent push scheduling round.
    pub sched_interval: SimTime,
    /// Playback bookkeeping period.
    pub playback_interval: SimTime,
    /// Status-report period (5 minutes in the paper).
    pub report_interval: SimTime,
    /// Delay before a client's first status report (clients report their
    /// initial state soon after streaming starts; subsequent reports
    /// follow `report_interval`).
    pub first_report_delay: SimTime,
    /// Processing delay added by the boot-strap server per request.
    pub bootstrap_delay: SimTime,
    /// Back-off before re-contacting the boot-strap server after an
    /// attempt round that yielded zero partners.
    pub join_retry_backoff: SimTime,
    /// How far dedicated servers lag the source live edge.
    pub server_lag: SimTime,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            stream_rate: Bandwidth::kbps(768),
            substreams: 6,
            block_bytes: 10_000,
            buffer_secs: 60,
            ts_blocks: 96, // ≈ 10 s of stream
            tp_blocks: 96, // ≈ 10 s of stream
            ta: SimTime::from_secs(10),
            max_partners: 16,
            max_partners_server: 128,
            target_partners: 5,
            mcache_size: 60,
            bootstrap_fanout: 8,
            gossip_fanout: 5,
            replace_policy: ReplacePolicy::Random,
            start_policy: StartPolicy::ShiftedFromLatest,
            allocation: Allocation::EqualSplit,
            playback_delay_blocks: 144, // ≈ 15 s of stream
            low_water_blocks: 96,       // ≈ 10 s of playout lead
            giveup_loss: 0.65,
            giveup_ticks: 20,
            gossip_interval: SimTime::from_secs(10),
            bm_interval: SimTime::from_secs(4),
            sched_interval: SimTime::from_secs(2),
            playback_interval: SimTime::from_secs(2),
            report_interval: SimTime::from_secs(300),
            first_report_delay: SimTime::from_secs(60),
            bootstrap_delay: SimTime::from_millis(50),
            join_retry_backoff: SimTime::from_secs(3),
            server_lag: SimTime::from_millis(500),
        }
    }
}

impl Params {
    /// Bits per block.
    #[inline]
    pub fn block_bits(&self) -> u64 {
        self.block_bytes as u64 * 8
    }

    /// Total blocks emitted per second across all sub-streams
    /// (`R / block size`).
    #[inline]
    pub fn blocks_per_sec(&self) -> f64 {
        self.stream_rate.as_bps() as f64 / self.block_bits() as f64
    }

    /// Blocks per second of one sub-stream (`R / K` in block units).
    #[inline]
    pub fn substream_block_rate(&self) -> f64 {
        self.blocks_per_sec() / self.substreams as f64
    }

    /// An uplink bandwidth expressed in blocks per second.
    #[inline]
    pub fn upload_blocks_per_sec(&self, bw: Bandwidth) -> f64 {
        bw.as_bps() as f64 / self.block_bits() as f64
    }

    /// The cache-buffer window in global sequence numbers.
    #[inline]
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "non-negative and bounded by buffer_secs × blocks/s, far below 2^53"
    )]
    pub fn window_blocks(&self) -> u64 {
        (self.buffer_secs as f64 * self.blocks_per_sec()).ceil() as u64
    }

    /// Global sequence number of the newest block fully emitted by the
    /// source at time `now` (`None` before the first block is complete).
    #[inline]
    pub fn live_edge(&self, now: SimTime) -> Option<u64> {
        #[expect(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            reason = "non-negative stream position; sim horizons keep it far below 2^53, and `as` truncates it (a negative or NaN would saturate to 0)"
        )]
        let emitted = (now.as_secs_f64() * self.blocks_per_sec()) as u64;
        emitted.checked_sub(1)
    }

    /// Partner-count bound for a node of the given class.
    #[inline]
    pub fn max_partners_for(&self, class: cs_net::NodeClass) -> usize {
        match class {
            cs_net::NodeClass::Server | cs_net::NodeClass::Source => self.max_partners_server,
            _ => self.max_partners,
        }
    }

    /// Sanity-check invariants between parameters; call after hand-editing.
    pub fn validate(&self) -> Result<(), String> {
        if self.substreams == 0 {
            return Err("substreams must be ≥ 1".into());
        }
        if self.block_bytes == 0 {
            return Err("block_bytes must be ≥ 1".into());
        }
        if self.blocks_per_sec() < self.substreams as f64 * 0.1 {
            return Err("stream rate too low for block size / substream count".into());
        }
        if self.tp_blocks >= self.window_blocks() {
            return Err("T_p must fit inside the buffer window".into());
        }
        if self.playback_delay_blocks + self.tp_blocks > self.window_blocks() {
            return Err("buffer-fill target + T_p exceed the buffer window".into());
        }
        if !(0.0..=1.0).contains(&self.giveup_loss) {
            return Err("giveup_loss must be a fraction".into());
        }
        // A zero period re-arms its timer at `now` for ever: the run spins
        // at one instant and never reaches its horizon.
        for (field, period) in [
            ("gossip_interval", self.gossip_interval),
            ("bm_interval", self.bm_interval),
            ("sched_interval", self.sched_interval),
            ("playback_interval", self.playback_interval),
            ("report_interval", self.report_interval),
            ("join_retry_backoff", self.join_retry_backoff),
        ] {
            if period == SimTime::ZERO {
                return Err(format!("{field} must be > 0"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_consistent() {
        let p = Params::default();
        p.validate().expect("default params must validate");
        assert!((p.blocks_per_sec() - 9.6).abs() < 1e-9);
        assert!((p.substream_block_rate() - 1.6).abs() < 1e-9);
        assert_eq!(p.block_bits(), 80_000);
        assert_eq!(p.window_blocks(), 576);
    }

    #[test]
    fn live_edge_progression() {
        let p = Params::default();
        assert_eq!(p.live_edge(SimTime::ZERO), None);
        // After 1 s, 9.6 → 9 blocks emitted, newest complete is #8.
        assert_eq!(p.live_edge(SimTime::from_secs(1)), Some(8));
        assert_eq!(p.live_edge(SimTime::from_secs(100)), Some(959));
    }

    #[test]
    fn upload_in_block_units() {
        let p = Params::default();
        // 768 kbps uplink carries exactly the stream block rate.
        assert!((p.upload_blocks_per_sec(Bandwidth::kbps(768)) - 9.6).abs() < 1e-9);
    }

    #[test]
    fn validate_catches_bad_configs() {
        let p = Params {
            substreams: 0,
            ..Params::default()
        };
        assert!(p.validate().is_err());

        let p = Params {
            tp_blocks: 100_000,
            ..Params::default()
        };
        assert!(p.validate().is_err());

        let p = Params {
            giveup_loss: 1.5,
            ..Params::default()
        };
        assert!(p.validate().is_err());
    }

    /// `validate` rejects a zero period, naming the field.
    fn assert_zero_period_rejected(field: &str, zero: impl FnOnce(&mut Params)) {
        let mut p = Params::default();
        zero(&mut p);
        assert_eq!(p.validate(), Err(format!("{field} must be > 0")));
    }

    #[test]
    fn zero_gossip_interval_is_rejected() {
        assert_zero_period_rejected("gossip_interval", |p| p.gossip_interval = SimTime::ZERO);
    }

    #[test]
    fn zero_bm_interval_is_rejected() {
        assert_zero_period_rejected("bm_interval", |p| p.bm_interval = SimTime::ZERO);
    }

    #[test]
    fn zero_sched_interval_is_rejected() {
        assert_zero_period_rejected("sched_interval", |p| p.sched_interval = SimTime::ZERO);
    }

    #[test]
    fn zero_playback_interval_is_rejected() {
        assert_zero_period_rejected("playback_interval", |p| {
            p.playback_interval = SimTime::ZERO;
        });
    }

    #[test]
    fn zero_report_interval_is_rejected() {
        assert_zero_period_rejected("report_interval", |p| p.report_interval = SimTime::ZERO);
    }

    #[test]
    fn zero_join_retry_backoff_is_rejected() {
        assert_zero_period_rejected("join_retry_backoff", |p| {
            p.join_retry_backoff = SimTime::ZERO;
        });
    }

    #[test]
    fn server_partner_bound_differs() {
        let p = Params::default();
        assert_eq!(
            p.max_partners_for(cs_net::NodeClass::Server),
            p.max_partners_server
        );
        assert_eq!(p.max_partners_for(cs_net::NodeClass::Nat), p.max_partners);
    }
}
