//! Protocol-level telemetry: windowed samples of simulator ground truth.
//!
//! [`ProtoTelemetry`] walks the live user population and records the
//! protocol series the paper's figures are built from — partners held,
//! buffer occupancy, per-sub-stream lag, mCache size, and join→ready
//! latency — into the `proto_*` fields of the run's [`Metrics`] (simulator
//! truth, which the §V.A log stream, read by `cs-analysis`, can only
//! estimate). Sampling is `O(peers)`, so the run's instrument set calls
//! [`ProtoTelemetry::sample`] once per aggregation window (the paper's
//! 5-minute status-report period by default), immediately before it
//! closes that window, and once more at the horizon — not per event.

use cs_telemetry::Metrics;

use crate::world::CsWorld;

/// Sampler of protocol state (see module docs).
#[derive(Default)]
pub struct ProtoTelemetry {
    /// Sessions whose join→ready latency has been recorded, by session
    /// index (sessions are append-only).
    ready_recorded: Vec<bool>,
}

impl ProtoTelemetry {
    /// Walk the world and record one sample.
    pub fn sample(&mut self, world: &CsWorld, m: &mut Metrics) {
        let mut alive = 0;
        let mut ready = 0;
        for peer in world.peers().filter(|p| p.class.is_user()) {
            alive += 1;
            if peer.media_ready().is_some() {
                ready += 1;
            }
            m.proto_partners.observe(peer.partners().len() as u64);
            m.proto_mcache_size.observe(peer.mcache().len() as u64);
            if let Some(buf) = peer.buffer() {
                let occupancy = buf
                    .contiguous_edge()
                    .map(|e| (e + 1).saturating_sub(peer.next_play()))
                    .unwrap_or(0);
                m.proto_buffer_occupancy_blocks.observe(occupancy);
                for i in 0..buf.substreams() {
                    m.proto_substream_lag_blocks.observe(buf.lag(i));
                }
            }
        }
        m.proto_peers_alive = alive;
        m.proto_peers_ready = ready;

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
                m.proto_join_ready_ms.observe(ms);
            }
        }
    }
}
