//! The partnership manager (§III.B / Fig. 1).
//!
//! Owns the bounded partner set of every node: establishment
//! (`Partnership::try_add_partner`), the periodic pruning of dead
//! partners (`Partnership::refresh_views`), refill towards the target
//! partner count (`Partnership::maintain`), the §IV.B adaptation
//! inequalities (1)/(2) under the `T_a` cool-down
//! (`Partnership::adapt`), partner re-selection when no partner can
//! serve a starving sub-stream (`Partnership::reselect_partner`), and
//! all depart bookkeeping (`Partnership::depart`).
//!
//! Allowed inter-manager calls (see DESIGN.md §9): partnership asks the
//! membership manager for fresh candidates (`Membership::candidates` in
//! [`crate::membership`]) and asks the stream manager for parent choices
//! (`Stream::choose_parent` in [`crate::stream`]). It reads partners'
//! buffer maps only through the tick's `Exchange`.

use cs_logging::{ActivityKind, Report};
use cs_net::NodeId;
use cs_sim::rng::Xoshiro256PlusPlus;
use cs_sim::{Ctx, SimTime};

use crate::membership::Membership;
use crate::session::DepartReason;
use crate::stream::{Exchange, Stream};
use crate::world::{CsWorld, Event, UserSpec};

mod state;

pub use state::{PartnerTable, PartnershipState};

/// `adapt`'s per-sub-stream verdicts.
const KEEP: u8 = 0;
const REPAIR: u8 = 1;
const ADAPT: u8 = 2;

/// The partnership manager: partner maintenance and adaptation over the
/// shared world.
pub(crate) struct Partnership<'w> {
    w: &'w mut CsWorld,
}

impl<'w> Partnership<'w> {
    /// Borrow the world as its partnership manager.
    pub(crate) fn of(w: &'w mut CsWorld) -> Self {
        Partnership { w }
    }
}

impl Partnership<'_> {
    /// Attempt a partnership initiated by `a` towards `b`. Respects both
    /// sides' partner bounds and the middlebox policy.
    pub(crate) fn try_add_partner(&mut self, a: NodeId, b: NodeId) -> bool {
        if a == b || !self.w.contains(a) || !self.w.contains(b) {
            return false;
        }
        let (a_max, b_max) = (
            self.w.params.max_partners_for(self.w.net.node(a).class),
            self.w.params.max_partners_for(self.w.net.node(b).class),
        );
        let (Some(pa), Some(pb)) = (self.w.peer(a), self.w.peer(b)) else {
            return false;
        };
        let (ta, tb) = (pa.partners(), pb.partners());
        if ta.contains(b) || ta.len() >= a_max || tb.len() >= b_max {
            return false;
        }
        if self.w.net.try_connect(a, b).is_err() {
            self.w.stats.partnership_failures += 1;
            // The target's middlebox drops inbound SYNs; remembering it as
            // a candidate would only burn future attempts.
            if let Some(pa) = self.w.peer_mut(a) {
                pa.membership.forget(b);
            }
            return false;
        }
        #[expect(
            clippy::expect_used,
            reason = "the dead-peer early-return above guarantees both peers are alive here"
        )]
        let (pa, pb) = self.w.two_mut(a, b).expect("both alive");
        pa.partnership.insert(b, true);
        pb.partnership.insert(a, false);
        self.w.stats.partnerships += 1;
        true
    }

    /// The bookkeeping half of a BM exchange: charge one BM message per
    /// live partner of `id` and prune partners that died since the last
    /// exchange. The rows themselves are read by [`Exchange::gather`].
    pub(crate) fn refresh_views(&mut self, id: NodeId) {
        let mut ids = std::mem::take(&mut self.w.scratch.ids);
        ids.clear();
        if let Some(p) = self.w.peer(id) {
            ids.extend_from_slice(p.partners().ids());
        }
        let k = self.w.params.substreams;
        // The modelled size of one BM message of the deployed protocol
        // (40 B of headers, 8 B per entry, the subscription bitmask), not
        // of the 4-byte entries a row holds.
        let bm_wire = 40 + 8 * k as u64 + k.div_ceil(8) as u64;
        // Keep the partners found dead, compacted to the front of `ids`.
        let mut dead = 0;
        for i in 0..ids.len() {
            let q = ids[i];
            if self.w.contains(q) {
                self.w.stats.control_bytes += bm_wire;
            } else {
                ids[dead] = q;
                dead += 1;
            }
        }
        if let Some(p) = self.w.peer_mut(id) {
            for &q in &ids[..dead] {
                p.partnership.remove(q);
                p.membership.forget(q);
                p.stream.clear_parent_slots_of(q);
            }
        }
        self.w.scratch.ids = ids;
    }

    /// Partner maintenance: refill towards the target partner count with
    /// candidates obtained from the membership manager.
    pub(crate) fn maintain(&mut self, id: NodeId) {
        let Some(p) = self.w.peer(id) else { return };
        let (cur_partners, target) = (p.partners().len(), self.w.params.target_partners);
        if cur_partners >= target {
            return;
        }
        let want = (target - cur_partners) * 2;
        let mut picks = std::mem::take(&mut self.w.scratch.entries);
        Membership::of(self.w).candidates(id, want, &mut picks);
        let mut established = 0;
        for &cand in &picks {
            if established + cur_partners >= target {
                break;
            }
            if !self.w.contains(cand) {
                if let Some(p) = self.w.peer_mut(id) {
                    p.membership.forget(cand);
                }
                continue;
            }
            if self.try_add_partner(id, cand) {
                established += 1;
            }
        }
        self.w.scratch.entries = picks;
    }

    /// Peer adaptation: repair dead parent slots unconditionally; apply
    /// the adaptation conditions under the cool-down. Every buffer map it
    /// reads is a row of `bm`, the exchange of this tick.
    pub(crate) fn adapt(&mut self, id: NodeId, now: SimTime, bm: &Exchange) {
        // Classify every sub-stream before touching any: the repairs all
        // draw their parents before the first adaptation does.
        let mut verdicts = std::mem::take(&mut self.w.scratch.verdicts);
        verdicts.clear();
        if let Some(l) = self.classify(id, now, bm, &mut verdicts) {
            if let Some(p) = self.w.peer_mut(id) {
                p.partnership.last_lead = Some(l);
            }
        }
        let with = |verdict| {
            let marked = verdicts.iter().zip(0u32..);
            marked.filter_map(move |(&v, j)| (v == verdict).then_some(j))
        };
        for j in with(REPAIR) {
            if let Some(parent) = Stream::of(self.w).choose_parent(id, j, bm) {
                Stream::of(self.w).subscribe(id, j, parent);
                self.w.stats.parent_repairs += 1;
            }
        }
        let mut adapted = false;
        let mut starved = false;
        for j in with(ADAPT) {
            if let Some(parent) = Stream::of(self.w).choose_parent(id, j, bm) {
                Stream::of(self.w).subscribe(id, j, parent);
                adapted = true;
            } else {
                starved = true;
            }
        }
        self.w.scratch.verdicts = verdicts;
        if adapted {
            self.w.stats.adaptations += 1;
            if let Some(p) = self.w.peer_mut(id) {
                p.partnership.last_adapt = Some(now);
                p.stream.count_adaptation();
            }
            self.w.sessions[id.index()].adaptations += 1;
        }
        if starved {
            // §III.B partner re-selection: no partner can serve the
            // starving sub-stream(s), so drop the most useless partner
            // and recruit a fresh candidate from the mCache.
            self.reselect_partner(id, bm);
        }
    }

    /// The read-only half of [`adapt`](Self::adapt): one verdict per
    /// sub-stream into `verdicts` (left empty while `id` has no buffer),
    /// and the current playout lead.
    fn classify(
        &self,
        id: NodeId,
        now: SimTime,
        bm: &Exchange,
        verdicts: &mut Vec<u8>,
    ) -> Option<u64> {
        let k = self.w.params.substreams;
        let peer = self.w.peer(id)?;
        let buf = peer.buffer()?;
        let allowed = peer.adaptation_allowed(now, self.w.params.ta);
        debug_assert_eq!(bm.partners(), peer.partners().len(), "a stale exchange");
        let global_best = bm.best();
        // §III.B "insufficient bit rate" condition: once playing, a
        // shrinking playout lead means the aggregate receive rate is
        // below the stream rate even when no single sub-stream stands out
        // (uniform starvation under peer competition). In that state the
        // sub-streams trailing the live edge the most get re-selected.
        let live_edge = self.w.params.live_edge(now);
        let lead = buf
            .contiguous_edge()
            .map(|e| e.saturating_sub(peer.next_play()));
        // Low lead triggers re-selection only while the lead is still
        // shrinking; during recovery after a switch the node holds.
        let lead_low = peer.media_ready().is_some()
            && match lead {
                Some(l) => {
                    l < self.w.params.low_water_blocks
                        && peer.partnership.last_lead.is_none_or(|prev| l < prev)
                }
                None => true,
            };
        verdicts.resize(k as usize, KEEP);
        for j in 0..k {
            let Some(p) = peer.parents()[j as usize] else {
                verdicts[j as usize] = REPAIR;
                continue;
            };
            if !allowed {
                continue;
            }
            // A sub-stream with nothing received yet counts from just
            // before its first wanted block.
            let own = buf
                .latest(j)
                .unwrap_or_else(|| buf.first_wanted(j).saturating_sub(k as u64));
            // Inequality (1): this node's receipt of sub-stream j lags
            // what its parent already holds by T_s — the parent cannot (or
            // will not) push fast enough.
            let parent = peer.partners().index_of(p);
            let pj = parent.and_then(|i| bm.latest(i, j));
            let ineq1 = match pj {
                Some(pl) => pl.saturating_sub(own) >= self.w.params.ts_blocks,
                None => false,
            };
            // Inequality (2): parent lags the best partner by T_p.
            let ineq2 = match (global_best, parent) {
                (Some(best), Some(_)) => match pj {
                    Some(pj) => best.saturating_sub(pj) >= self.w.params.tp_blocks,
                    None => true,
                },
                _ => false,
            };
            // Insufficient-rate reselection for sub-streams trailing the
            // live edge well beyond the join offset.
            let starving = lead_low
                && match live_edge {
                    Some(edge) => edge.saturating_sub(own) >= 2 * self.w.params.tp_blocks,
                    None => false,
                };
            if ineq1 || ineq2 || starving {
                verdicts[j as usize] = ADAPT;
            }
        }
        lead
    }

    /// Drop the least useful partner (not currently a parent, oldest
    /// buffer map in `bm`) and try one fresh mCache candidate in its
    /// place.
    pub(crate) fn reselect_partner(&mut self, id: NodeId, bm: &Exchange) {
        let victim = {
            let Some(p) = self.w.peer(id) else { return };
            debug_assert_eq!(bm.partners(), p.partners().len(), "a stale exchange");
            p.partners()
                .ids()
                .iter()
                .enumerate()
                .filter(|&(_, q)| !p.parents().contains(&Some(*q)))
                .min_by_key(|&(i, _)| bm.row_max(i).unwrap_or(0))
                .map(|(_, &q)| q)
        };
        if let Some(victim) = victim {
            if let Some(p) = self.w.peer_mut(id) {
                p.partnership.remove(victim);
            }
            if let Some(vp) = self.w.peer_mut(victim) {
                vp.partnership.remove(id);
                vp.stream.clear_parent_slots_of(id);
                vp.stream.remove_child_all(id);
            }
            if let Some(pp) = self.w.peer_mut(id) {
                pp.stream.remove_child_all(victim);
            }
        }
        let mut picks = std::mem::take(&mut self.w.scratch.entries);
        Membership::of(self.w).candidates(id, 1, &mut picks);
        let pick = picks.first().copied();
        self.w.scratch.entries = picks;
        if let Some(cand) = pick {
            if self.w.contains(cand) {
                self.try_add_partner(id, cand);
            } else if let Some(p) = self.w.peer_mut(id) {
                p.membership.forget(cand);
            }
        }
    }

    /// Tear a peer out of the overlay and finalize its session record.
    pub(crate) fn depart(
        &mut self,
        id: NodeId,
        now: SimTime,
        reason: DepartReason,
    ) -> Option<UserSpec> {
        let p = self.w.peer(id)?;
        if !p.class.is_user() {
            return None;
        }
        let (core, private) = (*p.core, p.private_addr());
        let (partners, children) = (p.partners().ids().to_vec(), p.children().to_vec());
        // Detach from partners: their parent slots pointing at us, and our
        // subscriptions in their child lists (our parents are partners).
        for q in partners {
            if let Some(qp) = self.w.peer_mut(q) {
                qp.partnership.remove(id);
                qp.stream.clear_parent_slots_of(id);
                qp.stream.remove_child_all(id);
            }
        }
        // Orphan our children (they repair at their next BmTick).
        for (c, j) in children {
            if let Some(cp) = self.w.peer_mut(c) {
                cp.stream.unset_parent_if(j, id);
            }
        }
        self.w.bootstrap.deregister(id);
        self.w.net.remove_node(id);
        self.w.remove_peer(id);

        let rec = &mut self.w.sessions[id.index()];
        rec.leave = Some(now);
        rec.reason = Some(reason);
        self.w.log.report(
            now,
            &Report::Activity {
                user: core.user,
                node: id.0,
                kind: ActivityKind::Leave,
                private_addr: private,
            },
        );

        match reason {
            DepartReason::Finished => self.w.stats.finished_departs += 1,
            DepartReason::Impatient => self.w.stats.impatient_departs += 1,
            DepartReason::GiveUp => self.w.stats.giveup_departs += 1,
            DepartReason::Outage => self.w.stats.outage_departs += 1,
            DepartReason::StillActive => {}
        }

        // Retry decision: impatient and give-up sessions re-enter if the
        // user has retries and meaningful watch time left.
        let remaining = core.intended_leave.saturating_sub(now);
        if reason != DepartReason::Finished
            && core.retries_left > 0
            && remaining > SimTime::from_secs(30)
        {
            return Some(UserSpec {
                user: core.user,
                class: core.class,
                upload: core.upload,
                leave_at: core.intended_leave,
                patience: core.patience,
                retries_left: core.retries_left - 1,
                retry_index: core.retry_index + 1,
            });
        }
        None
    }

    /// The user's patience for media-ready ran out: depart impatiently if
    /// the player still hasn't started. Returns a retry spec if the user
    /// re-enters.
    pub(crate) fn patience_check(&mut self, id: NodeId, now: SimTime) -> Option<UserSpec> {
        let not_ready = self.w.peer(id).is_some_and(|p| p.media_ready().is_none());
        if not_ready {
            self.depart(id, now, DepartReason::Impatient)
        } else {
            None
        }
    }

    /// Scheduled (intended) departure.
    pub(crate) fn scheduled_depart(&mut self, id: NodeId, now: SimTime) {
        if self.w.contains(id) {
            self.depart(id, now, DepartReason::Finished);
        }
    }

    /// Partnerships are live: pick the start position and parents, then
    /// start the periodic machinery.
    pub(crate) fn partners_ready(&mut self, id: NodeId, now: SimTime, ctx: &mut Ctx<'_, Event>) {
        if !self.w.contains(id) {
            return;
        }
        // Exchange buffer maps, then select.
        Stream::of(self.w).bm_tick(id, now);
        let phase = |rng: &mut Xoshiro256PlusPlus, iv: SimTime| {
            SimTime::from_micros(rng.gen_range(0..iv.as_micros().max(1)))
        };
        let (bm, sched, play, gossip, _report) = (
            self.w.params.bm_interval,
            self.w.params.sched_interval,
            self.w.params.playback_interval,
            self.w.params.gossip_interval,
            self.w.params.report_interval,
        );
        ctx.schedule_in(bm + phase(&mut self.w.rng_mem, bm), Event::BmTick(id));
        ctx.schedule_in(phase(&mut self.w.rng_mem, sched), Event::SchedRound(id));
        ctx.schedule_in(
            play + phase(&mut self.w.rng_mem, play),
            Event::PlaybackTick(id),
        );
        ctx.schedule_in(
            gossip + phase(&mut self.w.rng_mem, gossip),
            Event::GossipTick(id),
        );
        let first_report = self.w.params.first_report_delay;
        ctx.schedule_in(
            first_report + phase(&mut self.w.rng_mem, first_report),
            Event::ReportTick(id),
        );
    }

    /// Test support: fabricate a (possibly one-sided) outgoing
    /// partnership on `id`, bypassing the establishment protocol — for
    /// corrupting state in invariant-oracle tests.
    #[cfg(test)]
    pub(crate) fn inject_partner(&mut self, id: NodeId, q: NodeId) {
        if let Some(p) = self.w.peer_mut(id) {
            p.partnership.insert(q, true);
        }
    }
}
