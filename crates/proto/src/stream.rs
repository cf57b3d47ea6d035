//! The stream manager (§IV / Fig. 1).
//!
//! Owns sub-stream subscriptions and the synchronization + cache buffer:
//! parent choice under the §IV.B qualification rule
//! (`Stream::choose_parent`), the §IV.A initial position
//! (`Stream::select_initial`), the parent push round implementing
//! Eq. (5) (`Stream::sched_round`), the buffer-map tick orchestration
//! (`Stream::bm_tick`), playback deadline accounting
//! (`Stream::playback_tick`) and the §V.A status reports
//! (`Stream::report_tick`).
//!
//! Allowed inter-manager calls (see DESIGN.md §9): the stream manager
//! reads parent candidates from the partnership manager's partner set,
//! and delegates partner maintenance and adaptation within `bm_tick` to
//! `Partnership` in [`crate::partnership`]. `advertised_bm` is the
//! buffer-map read; `Exchange` is one tick's gather of the partners'
//! rows, the only view of them the partnership manager gets.

use cs_logging::{ActivityKind, Report};
use cs_net::{Bandwidth, NodeId};
use cs_sim::SimTime;

use crate::buffer::{entry, seq_of, StreamBuffer};
use crate::partnership::Partnership;
use crate::session::DepartReason;
use crate::world::{CsWorld, UserSpec};

mod state;

pub use state::{ReportCounters, StreamState};

/// Largest global seq `≤ edge` belonging to sub-stream `i`.
fn align_down(edge: u64, i: u32, k: u32) -> Option<u64> {
    let (i, k) = (i as u64, k as u64);
    if edge >= i {
        Some(edge - ((edge - i) % k))
    } else {
        None
    }
}

/// Append the buffer-map row node `q` advertises at `now` to `out`: one
/// 32-bit slot per sub-stream in the wire encoding (`seq + 1`, 0 = none).
/// Returns whether `q` is in the system; a node that is not advertises
/// zeros. Dedicated servers and the source track the live edge with a
/// fixed small lag instead of a simulated buffer (infrastructure never
/// owns one: only `select_initial` makes it, and only users get there).
pub(crate) fn advertised_bm(world: &CsWorld, q: NodeId, now: SimTime, out: &mut Vec<u32>) -> bool {
    let k = world.params.substreams;
    let peer = world.peer(q);
    if let Some(buf) = peer.and_then(|p| p.buffer()) {
        out.extend_from_slice(buf.advertised());
    } else {
        let lagged = now.saturating_sub(world.params.server_lag);
        let edge = peer
            .filter(|p| !p.class.is_user())
            .and_then(|_| world.params.live_edge(lagged));
        // A user without a buffer, or a stream not yet started: zeros.
        out.extend((0..k).map(|i| edge.and_then(|e| align_down(e, i, k)).map_or(0, entry)));
    }
    peer.is_some()
}

/// One buffer-map exchange of a peer with its partners: the row each
/// partner advertises, back to back in partner-id order, and their
/// largest entry. `bm_tick` gathers it once the partner set is settled
/// and hands it to every reader of that tick; nothing keeps it past the
/// tick, so no decision reads a row another exchange produced.
pub(crate) struct Exchange<'a> {
    k: usize,
    /// `partners × k` entries in the wire encoding (`seq + 1`, 0 = none).
    rows: &'a [u32],
    /// The largest entry of `rows`, 0 for none.
    best: u32,
}

impl<'a> Exchange<'a> {
    /// Gather into `buf` the rows `id`'s partners advertise at `now`.
    pub(crate) fn gather(world: &CsWorld, id: NodeId, now: SimTime, buf: &'a mut Vec<u32>) -> Self {
        buf.clear();
        if let Some(p) = world.peer(id) {
            for &q in p.partners().ids() {
                advertised_bm(world, q, now, buf);
            }
        }
        Exchange {
            k: world.params.substreams as usize,
            best: buf.iter().copied().max().unwrap_or(0),
            rows: buf,
        }
    }

    /// Number of partners the exchange holds a row of.
    pub(crate) fn partners(&self) -> usize {
        self.rows.len().checked_div(self.k).unwrap_or(0)
    }

    /// The newest seq the `i`-th partner (in id order) advertised in
    /// sub-stream `j`.
    #[inline]
    pub(crate) fn latest(&self, i: usize, j: u32) -> Option<u64> {
        seq_of(self.rows[i * self.k + j as usize])
    }

    /// The newest seq the `i`-th partner advertised in any sub-stream.
    pub(crate) fn row_max(&self, i: usize) -> Option<u64> {
        let row = &self.rows[i * self.k..(i + 1) * self.k];
        seq_of(row.iter().copied().max().unwrap_or(0))
    }

    /// The newest seq any partner advertised in any sub-stream.
    pub(crate) fn best(&self) -> Option<u64> {
        seq_of(self.best)
    }
}

/// The stream manager: sub-stream subscription, scheduling and playback
/// over the shared world.
pub(crate) struct Stream<'w> {
    w: &'w mut CsWorld,
}

impl<'w> Stream<'w> {
    /// Borrow the world as its stream manager.
    pub(crate) fn of(w: &'w mut CsWorld) -> Self {
        Stream { w }
    }
}

impl Stream<'_> {
    /// Pick a parent for sub-stream `j` of `id` among its partners,
    /// applying the paper's qualification rule (§IV.B): the candidate must
    /// have newer sub-stream-`j` blocks than we do, and must itself not
    /// lag the best partner by `T_p` or more. Random choice among the
    /// qualified; if none qualify, a random *temporary parent* that at
    /// least has something newer is taken (the paper's peer-competition
    /// transient).
    pub(crate) fn choose_parent(&mut self, id: NodeId, j: u32, bm: &Exchange) -> Option<NodeId> {
        let mut pool = std::mem::take(&mut self.w.scratch.ids);
        pool.clear();
        self.parent_pool(id, j, bm, &mut pool);
        let pick = self.w.rng_sel.choose(&pool).copied();
        self.w.scratch.ids = pool;
        pick
    }

    /// Fill `pool` with the partners [`choose_parent`](Self::choose_parent)
    /// draws from, in partner-id order: the qualified ones, or — when none
    /// qualifies — every partner that at least has something newer.
    fn parent_pool(&self, id: NodeId, j: u32, bm: &Exchange, pool: &mut Vec<NodeId>) {
        let Some(peer) = self.w.peer(id) else { return };
        let Some(buf) = peer.buffer() else { return };
        let (own_latest, first_wanted) = (buf.latest(j), buf.first_wanted(j));
        let Some(global_best) = bm.best() else {
            return;
        };
        debug_assert_eq!(bm.partners(), peer.partners().len(), "a stale exchange");
        let current = peer.parents()[j as usize];
        let mut any_qualified = false;
        for (i, &q) in peer.partners().ids().iter().enumerate() {
            if Some(q) == current {
                continue;
            }
            let Some(qj) = bm.latest(i, j) else {
                continue;
            };
            let newer = match own_latest {
                Some(h) => qj > h,
                None => qj + self.w.params.substreams as u64 > first_wanted,
            };
            if !newer {
                continue;
            }
            let qualified = global_best.saturating_sub(qj) < self.w.params.tp_blocks;
            if qualified && !any_qualified {
                // The first qualified partner retires the fallbacks.
                any_qualified = true;
                pool.clear();
            }
            if qualified == any_qualified {
                pool.push(q);
            }
        }
    }

    /// Subscribe `id`'s sub-stream `j` to `parent`, detaching any previous
    /// parent. A slot that already names `parent` is left alone: the
    /// parent lists `(id, j)` exactly while the slot names it.
    pub(crate) fn subscribe(&mut self, id: NodeId, j: u32, parent: NodeId) {
        let Some(p) = self.w.peer_mut(id) else { return };
        let old = p.stream.parents[j as usize].replace(parent);
        if old == Some(parent) {
            return;
        }
        if let Some(op) = old.and_then(|o| self.w.peer_mut(o)) {
            op.stream.remove_child(id, j);
        }
        if let Some(pp) = self.w.peer_mut(parent) {
            pp.stream.add_child(id, j);
        }
    }

    /// §IV.A initial position: pick the first block to pull according to
    /// the configured [`StartPolicy`](crate::params::StartPolicy) (the
    /// deployed system used `m − T_p`), then pick a parent per sub-stream.
    /// Returns `true` if at least one subscription was made.
    pub(crate) fn select_initial(&mut self, id: NodeId, now: SimTime, bm: &Exchange) -> bool {
        let Some(peer) = self.w.peer(id) else {
            return false;
        };
        if peer.buffer().is_none() {
            let Some(m) = bm.best() else {
                return false;
            };
            // The oldest block still available anywhere ≈ the newest
            // advertised block minus the cache window.
            let n = m.saturating_sub(self.w.params.window_blocks().saturating_sub(1));
            let start = match self.w.params.start_policy {
                crate::params::StartPolicy::ShiftedFromLatest => {
                    m.saturating_sub(self.w.params.tp_blocks)
                }
                crate::params::StartPolicy::Latest => m,
                crate::params::StartPolicy::Oldest => n,
                crate::params::StartPolicy::Midpoint => n + (m - n) / 2,
            };
            let k = self.w.params.substreams;
            if let Some(p) = self.w.peer_mut(id) {
                p.stream.buffer = Some(StreamBuffer::new(k, start));
            }
        }
        let k = self.w.params.substreams;
        let mut subscribed = false;
        for j in 0..k {
            if self.w.peer(id).map(|p| p.parents()[j as usize].is_none()) == Some(true) {
                if let Some(parent) = self.choose_parent(id, j, bm) {
                    self.subscribe(id, j, parent);
                    subscribed = true;
                }
            } else {
                subscribed = true;
            }
        }
        if !subscribed {
            return false;
        }
        // The first subscription of the session is reported, once.
        if let Some(p) = self.w.peer_mut(id).filter(|p| p.stream.start_sub.is_none()) {
            p.stream.start_sub = Some(now);
            let (user, private_addr) = (p.core.user, p.core.private_addr());
            self.w.sessions[id.index()].start_sub = Some(now);
            self.w.log.report(
                now,
                &Report::Activity {
                    user,
                    node: id.0,
                    kind: ActivityKind::StartSubscription,
                    private_addr,
                },
            );
        }
        true
    }

    /// Buffer-map exchange, partner repair and peer adaptation for `id`:
    /// the periodic tick that ties the three managers together. Returns
    /// `false` once the peer is gone (the tick chain stops).
    pub(crate) fn bm_tick(&mut self, id: NodeId, now: SimTime) -> bool {
        if !self.w.contains(id) {
            return false;
        }
        // 1. Partnership: prune dead partners, refill.
        Partnership::of(self.w).refresh_views(id);
        Partnership::of(self.w).maintain(id);
        // 2. The exchange over the settled partner set, read by the
        // initial selection and the adaptation below.
        let mut rows = std::mem::take(&mut self.w.scratch.bm);
        let bm = Exchange::gather(self.w, id, now, &mut rows);
        let streaming = self
            .w
            .peer(id)
            .is_some_and(|p| p.buffer().is_some() && p.parents().iter().any(Option::is_some));
        if !streaming {
            self.select_initial(id, now, &bm);
        }
        Partnership::of(self.w).adapt(id, now, &bm);
        self.w.scratch.bm = rows;
        true
    }

    /// The parent push round for node `p` (Eq. 5: uplink split equally
    /// across `D_p` sub-stream subscriptions, capped by the parent's own
    /// newest block and the child's cache-window reach).
    pub(crate) fn sched_round(&mut self, p: NodeId, now: SimTime) {
        let Some(pp) = self.w.peer_mut(p) else { return };
        let upload = pp.core.upload;
        // The list leaves the parent's state for the round, then goes back.
        // Every writer of a parent slot keeps it exact, so it holds only
        // live subscriptions (checker oracle 5).
        let children = std::mem::take(&mut pp.stream.children);
        let up_bytes = self.push_round(p, upload, now, &children);
        if let Some(pp) = self.w.peer_mut(p) {
            pp.stream.counters.up_bytes += up_bytes;
            pp.stream.children = children;
        }
    }

    /// Serve one round of `p`'s uplink to its `live` subscriptions.
    /// Returns the bytes uploaded.
    fn push_round(
        &mut self,
        p: NodeId,
        upload: Bandwidth,
        now: SimTime,
        live: &[(NodeId, u32)],
    ) -> u64 {
        if live.is_empty() {
            return 0;
        }
        let k = self.w.params.substreams;
        let round_secs = self.w.params.sched_interval.as_secs_f64();
        let d_p = live.len() as f64;
        let total_budget = self.w.params.upload_blocks_per_sec(upload) * round_secs;
        let equal_budget = total_budget / d_p;
        let mut parent_bm = std::mem::take(&mut self.w.scratch.bm);
        parent_bm.clear();
        advertised_bm(self.w, p, now, &mut parent_bm);
        let window = self.w.params.window_blocks();
        let block_bytes = self.w.params.block_bytes as u64;

        // Deficit-aware allocation (§VI optimization), two phases: first
        // guarantee every subscription its sustain rate (or the fair
        // share when capacity is short — degenerating to Eq. 5), then
        // hand the surplus to lagging children in proportion to their
        // outstanding blocks. `budgets` stays empty under `EqualSplit`.
        let mut budgets = std::mem::take(&mut self.w.scratch.budgets);
        budgets.clear();
        if self.w.params.allocation == crate::params::Allocation::NeedAware {
            let sustain = self.w.params.substream_block_rate() * round_secs;
            let base = sustain.min(equal_budget);
            let leftover = (total_budget - base * d_p).max(0.0);
            // Outstanding blocks per subscription, turned into budgets
            // in place below.
            budgets.extend(live.iter().map(|&(c, j)| {
                let buf = self.w.peer(c).and_then(|cp| cp.buffer());
                match (seq_of(parent_bm[j as usize]), buf) {
                    (Some(pl), Some(buf)) => {
                        let next = buf.next_missing(j);
                        if pl >= next {
                            (((pl - next) / k as u64 + 1) as f64).min(window as f64)
                        } else {
                            0.0
                        }
                    }
                    _ => 0.0,
                }
            }));
            let total_deficit: f64 = budgets.iter().sum();
            for d in budgets.iter_mut() {
                let extra = if total_deficit > 0.0 {
                    leftover * *d / total_deficit
                } else {
                    leftover / d_p
                };
                *d = base + extra;
            }
        }

        let (mut delivered, mut skipped) = (0, 0);
        for (ix, &(c, j)) in live.iter().enumerate() {
            let budget_blocks = budgets.get(ix).copied().unwrap_or(equal_budget);
            let Some(parent_latest) = seq_of(parent_bm[j as usize]) else {
                continue;
            };
            let Some(cp) = self.w.peer_mut(c) else {
                continue;
            };
            let Some(buf) = cp.stream.buffer.as_mut() else {
                continue;
            };
            // Blocks older than the parent's cache window are gone.
            if parent_latest >= window {
                let window_floor = parent_latest - window;
                if buf.next_missing(j) <= window_floor {
                    skipped += buf.skip_to(j, window_floor);
                }
            }
            let next = buf.next_missing(j);
            let avail = if parent_latest >= next {
                (parent_latest - next) / k as u64 + 1
            } else {
                0
            };
            let credit = buf.credit_mut(j);
            *credit += budget_blocks;
            #[expect(
                clippy::cast_possible_truncation,
                clippy::cast_sign_loss,
                reason = "credit is non-negative and capped at 2× the per-tick budget below; `as` truncates, and would saturate a negative or NaN to 0 exactly as `floor()` first did"
            )]
            let deliver = (*credit as u64).min(avail);
            *credit -= deliver as f64;
            // Unused credit cannot pile into an unbounded burst.
            let cap = (budget_blocks * 2.0).max(2.0);
            if *credit > cap {
                *credit = cap;
            }
            if deliver > 0 {
                buf.advance(j, deliver);
                cp.stream.counters.down_bytes += deliver * block_bytes;
                delivered += deliver;
            }
        }
        self.w.stats.blocks_skipped += skipped;
        self.w.stats.blocks_delivered += delivered;
        self.w.scratch.bm = parent_bm;
        self.w.scratch.budgets = budgets;
        delivered * block_bytes
    }

    /// Playback bookkeeping. Returns a retry spec if the peer gave up.
    pub(crate) fn playback_tick(&mut self, id: NodeId, now: SimTime) -> Option<UserSpec> {
        let bps = self.w.params.blocks_per_sec();
        let delay_blocks = self.w.params.playback_delay_blocks;
        let giveup_loss = self.w.params.giveup_loss;
        let giveup_ticks = self.w.params.giveup_ticks;
        // The identity the media-ready report needs, read only on the
        // one tick per session that writes it.
        let mut became_ready = None;
        let mut give_up = false;
        {
            let p = self.w.peer_mut(id)?;
            let s = p.stream;
            let buf = s.buffer.as_mut()?;
            match s.media_ready {
                None => {
                    if buf.contiguous_len() >= delay_blocks {
                        s.media_ready = Some(now);
                        s.next_play = buf.start_seq();
                        became_ready = Some((p.core.user, p.core.private_addr()));
                    }
                }
                Some(ready_at) => {
                    let start = buf.start_seq();
                    let elapsed = now.saturating_sub(ready_at).as_secs_f64();
                    #[expect(
                        clippy::cast_possible_truncation,
                        clippy::cast_sign_loss,
                        reason = "elapsed × blocks/s is non-negative and far below 2^53; `as` truncates, which is the intended playout floor (a negative or NaN would saturate to 0 with or without `floor()`)"
                    )]
                    let target = start + (elapsed * bps) as u64;
                    let from = s.next_play;
                    let due = target.saturating_sub(from);
                    let missed = due - buf.received_between(from, target);
                    s.next_play = target.max(from);
                    buf.retire_holes(s.next_play);
                    s.counters.due += due;
                    s.counters.missed += missed;
                    if due > 0 {
                        if missed as f64 / due as f64 >= giveup_loss {
                            s.lossy_ticks += 1;
                        } else {
                            s.lossy_ticks = 0;
                        }
                        if s.lossy_ticks >= giveup_ticks {
                            give_up = true;
                        }
                    }
                }
            }
        }
        if let Some((user, private_addr)) = became_ready {
            self.w.sessions[id.index()].ready = Some(now);
            self.w.log.report(
                now,
                &Report::Activity {
                    user,
                    node: id.0,
                    kind: ActivityKind::MediaReady,
                    private_addr,
                },
            );
        }
        if give_up {
            return Partnership::of(self.w).depart(id, now, DepartReason::GiveUp);
        }
        None
    }

    /// Emit the three 5-minute status reports (§V.A).
    pub(crate) fn report_tick(&mut self, id: NodeId, now: SimTime) {
        let Some(p) = self.w.peer_mut(id) else { return };
        if !p.core.class.is_user() {
            return;
        }
        let user = p.core.user;
        let node = id.0;
        let private = p.private_addr();
        let c = p.stream.take_counters();
        let incoming = u32::try_from(p.incoming_partners()).unwrap_or(u32::MAX);
        let outgoing = u32::try_from(p.outgoing_partners()).unwrap_or(u32::MAX);
        let parents = u32::try_from(p.parent_count()).unwrap_or(u32::MAX);
        // The session totals grow by what the report hands over.
        self.w.sessions[id.index()].absorb(c);
        // Three HTTP report requests to the log server.
        self.w.stats.control_bytes += 3 * 120;
        self.w.log.report(
            now,
            &Report::Qos {
                user,
                node,
                due: c.due,
                missed: c.missed,
            },
        );
        self.w.log.report(
            now,
            &Report::Traffic {
                user,
                node,
                up: c.up_bytes,
                down: c.down_bytes,
            },
        );
        self.w.log.report(
            now,
            &Report::Partner {
                user,
                node,
                private_addr: private,
                incoming,
                outgoing,
                parents,
                adaptations: c.adaptations,
            },
        );
    }

    /// Test support: install a buffer directly, bypassing the §IV.A
    /// start-position rule — for corrupting state in invariant-oracle
    /// tests.
    #[cfg(test)]
    pub(crate) fn inject_buffer(&mut self, id: NodeId, buf: StreamBuffer) {
        if let Some(p) = self.w.peer_mut(id) {
            p.stream.buffer = Some(buf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Params;
    use cs_net::{ConnectivityPolicy, LatencyModel, Network};

    /// The BM a server advertises tracks the live edge with the configured
    /// lag, for every sub-stream: each entry is its sub-stream's newest
    /// block at or below the lagged edge. A departed node advertises zeros.
    #[test]
    fn server_buffer_map_tracks_live_edge() {
        let net = Network::new(ConnectivityPolicy::default(), LatencyModel::default(), 6);
        let mut w = CsWorld::new(Params::default(), net, 1, Bandwidth::mbps(100), 6);
        let server = w.servers[0];
        let now = SimTime::from_secs(140);
        let k = u64::from(w.params.substreams);
        let edge = w
            .params
            .live_edge(now.saturating_sub(w.params.server_lag))
            .expect("the stream has started");
        let mut row = Vec::new();
        assert!(advertised_bm(&w, server, now, &mut row));
        assert_eq!(row.len() as u64, k);
        for (j, &e) in (0..k).zip(&row) {
            let adv = seq_of(e).expect("server advertises all substreams");
            assert_eq!(adv % k, j, "sub-stream {j} names a block of another");
            assert!(
                adv <= edge && edge - adv < k,
                "sub-stream {j}: {adv} vs lagged edge {edge}"
            );
        }
        w.net.remove_node(server);
        w.remove_peer(server);
        row.clear();
        assert!(!advertised_bm(&w, server, now, &mut row));
        assert!(row.iter().all(|&e| e == 0), "{row:?}");
    }
}
