//! Protocol-level telemetry: windowed samples of simulator ground truth.
//!
//! [`ProtoTelemetry`] walks the live user population and records the
//! protocol series the paper's figures are built from — partners held,
//! buffer occupancy, per-sub-stream lag, mCache size, and join→ready
//! latency — into the run's [`MetricRegistry`]. Sampling is `O(peers)`,
//! so the run's instrument set calls [`ProtoTelemetry::sample`] once per
//! aggregation window (the paper's 5-minute status-report period by
//! default), immediately before it closes that window, and once more at
//! the horizon — not per event.
//!
//! Series (all prefixed `proto_`: simulator truth, which the §V.A log
//! stream, read by `cs-analysis`, can only estimate):
//!
//! | series | kind | meaning |
//! |---|---|---|
//! | `proto_peers_alive` | gauge | live user peers |
//! | `proto_peers_ready` | gauge | live users whose media player started |
//! | `proto_partners` | histogram | partners held, per live user per sample |
//! | `proto_mcache_size` | histogram | mCache entries, per live user per sample |
//! | `proto_buffer_occupancy_blocks` | histogram | contiguous blocks ahead of playback |
//! | `proto_substream_lag_blocks` | histogram | per-sub-stream lag vs the most advanced |
//! | `proto_join_ready_ms` | histogram | join→media-ready latency per session |

use cs_telemetry::{MetricId, MetricRegistry};

use crate::world::CsWorld;

/// Sampler of protocol state (see module docs).
pub struct ProtoTelemetry {
    /// Sessions whose join→ready latency has been recorded, by session
    /// index (sessions are append-only).
    ready_recorded: Vec<bool>,
    ids: Ids,
}

/// Pre-interned instrument ids (the sampler is cold-path, but interning
/// once keeps sample loops allocation-free).
struct Ids {
    peers_alive: MetricId,
    peers_ready: MetricId,
    partners: MetricId,
    mcache: MetricId,
    occupancy: MetricId,
    lag: MetricId,
    join_ready: MetricId,
}

impl ProtoTelemetry {
    /// A sampler writing into `reg` (the same registry must be passed to
    /// every [`Self::sample`]).
    pub fn new(reg: &mut MetricRegistry) -> Self {
        ProtoTelemetry {
            ready_recorded: Vec::new(),
            ids: Ids {
                peers_alive: reg.gauge("proto_peers_alive", &[]),
                peers_ready: reg.gauge("proto_peers_ready", &[]),
                partners: reg.histogram("proto_partners", &[]),
                mcache: reg.histogram("proto_mcache_size", &[]),
                occupancy: reg.histogram("proto_buffer_occupancy_blocks", &[]),
                lag: reg.histogram("proto_substream_lag_blocks", &[]),
                join_ready: reg.histogram("proto_join_ready_ms", &[]),
            },
        }
    }

    /// Walk the world and record one sample.
    pub fn sample(&mut self, world: &CsWorld, reg: &mut MetricRegistry) {
        let mut alive: i64 = 0;
        let mut ready: i64 = 0;
        for peer in world.peers().filter(|p| p.class.is_user()) {
            alive += 1;
            if peer.media_ready().is_some() {
                ready += 1;
            }
            reg.observe(self.ids.partners, peer.partners().len() as u64);
            reg.observe(self.ids.mcache, peer.mcache().len() as u64);
            if let Some(buf) = peer.buffer() {
                let occupancy = buf
                    .contiguous_edge()
                    .map(|e| (e + 1).saturating_sub(peer.next_play()))
                    .unwrap_or(0);
                reg.observe(self.ids.occupancy, occupancy);
                for i in 0..buf.substreams() {
                    reg.observe(self.ids.lag, buf.lag(i));
                }
            }
        }
        reg.set(self.ids.peers_alive, alive);
        reg.set(self.ids.peers_ready, ready);

        // Join→ready latency for sessions that became ready since the
        // last sample.
        if self.ready_recorded.len() < world.sessions.len() {
            self.ready_recorded.resize(world.sessions.len(), false);
        }
        for (i, s) in world.sessions.iter().enumerate() {
            let Some(flag) = self.ready_recorded.get_mut(i) else {
                continue;
            };
            if *flag {
                continue;
            }
            if let Some(ready_at) = s.ready {
                *flag = true;
                let ms = ready_at.saturating_sub(s.join).as_micros() / 1_000;
                reg.observe(self.ids.join_ready, ms);
            }
        }
    }
}
