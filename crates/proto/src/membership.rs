//! The membership manager (§III.B / Fig. 1).
//!
//! Owns each node's mCache partial view: filling it from the boot-strap
//! tracker on arrival (`Membership::arrive`,
//! `Membership::bootstrap_reply`), SCAM-style gossip dissemination
//! (`Membership::gossip_tick`), and the failure-injection events that
//! change who is reachable (`Membership::set_bootstrap`,
//! `Membership::crash_server`).
//!
//! Allowed inter-manager calls (see DESIGN.md §9): membership hands
//! candidate peers to the partnership manager (`Membership::candidates`
//! is the service the partnership manager calls back into) and asks it to
//! establish handshakes during the join
//! (`Partnership::try_add_partner` in [`crate::partnership`]).

use cs_logging::{ActivityKind, Report};
use cs_net::NodeId;
use cs_sim::{Ctx, SimTime};
use rand::seq::SliceRandom;

use crate::mcache::{MCache, McEntry};
use crate::partnership::Partnership;
use crate::peer::PeerCore;
use crate::session::SessionRecord;
use crate::world::{CsWorld, Event, UserSpec};

/// Membership-manager-owned slice of per-peer state. Only this module
/// (and the explicit `pub(crate)` mutators below) changes it.
#[derive(Debug)]
pub struct MembershipState {
    /// The mCache partial view (§III.B).
    mcache: MCache,
}

impl MembershipState {
    pub(crate) fn new(cap: usize) -> Self {
        MembershipState {
            mcache: MCache::new(cap),
        }
    }

    /// Read-only view of the mCache.
    pub fn cache(&self) -> &MCache {
        &self.mcache
    }

    /// Insert or refresh an entry under the configured replacement policy.
    pub(crate) fn remember<R: rand::Rng + ?Sized>(
        &mut self,
        entry: McEntry,
        policy: crate::params::ReplacePolicy,
        rng: &mut R,
    ) -> bool {
        self.mcache.insert(entry, policy, rng)
    }

    /// Drop an entry (dead peer discovered).
    pub(crate) fn forget(&mut self, id: NodeId) {
        self.mcache.remove(id);
    }
}

/// The membership manager: arrivals, boot-strap contact, gossip, and
/// infrastructure failure injection over the shared world.
pub(crate) struct Membership<'w> {
    w: &'w mut CsWorld,
}

impl<'w> Membership<'w> {
    /// Borrow the world as its membership manager.
    pub(crate) fn of(w: &'w mut CsWorld) -> Self {
        Membership { w }
    }
}

impl Membership<'_> {
    /// Handle a user arrival: allocate the node, open its session record,
    /// and contact the boot-strap server.
    pub(crate) fn arrive(&mut self, spec: UserSpec, now: SimTime, ctx: &mut Ctx<'_, Event>) {
        self.w.stats.arrivals += 1;
        let id = self.w.net.add_node(spec.class, spec.upload, now);
        self.w.push_peer(PeerCore {
            id,
            user: spec.user,
            class: spec.class,
            upload: spec.upload,
            join_time: now,
            retry_index: spec.retry_index,
            intended_leave: spec.leave_at,
            retries_left: spec.retries_left,
            patience: spec.patience,
        });
        self.w.sessions.push(SessionRecord {
            user: spec.user,
            node: id,
            class: spec.class,
            upload: spec.upload,
            retry_index: spec.retry_index,
            join: now,
            start_sub: None,
            ready: None,
            leave: None,
            reason: None,
            up_bytes: 0,
            down_bytes: 0,
            due: 0,
            missed: 0,
            adaptations: 0,
        });
        self.w.bootstrap.register(id, now);
        #[expect(
            clippy::expect_used,
            reason = "the peer was pushed into the table a few lines up in this same join handler"
        )]
        let private = self.w.peer(id).expect("just added").private_addr();
        self.w.log.report(
            now,
            &Report::Activity {
                user: spec.user,
                node: id.0,
                kind: ActivityKind::Join,
                private_addr: private,
            },
        );
        // Contact the boot-strap server: one RTT to roughly the source's
        // location plus server processing time.
        let rtt = self.w.net.delay(id, self.w.source) * 2;
        ctx.schedule_in(
            rtt + self.w.params.bootstrap_delay,
            Event::BootstrapReply(id),
        );
        ctx.schedule_at(spec.patience + now, Event::PatienceCheck(id));
        ctx.schedule_at(spec.leave_at, Event::Depart(id));
    }

    /// Handle the boot-strap reply: fill the mCache, then ask the
    /// partnership manager to attempt handshakes.
    pub(crate) fn bootstrap_reply(&mut self, id: NodeId, now: SimTime, ctx: &mut Ctx<'_, Event>) {
        if !self.w.net.is_alive(id) {
            return;
        }
        if !self.w.bootstrap_up {
            // Request times out; the client backs off and retries.
            self.w.stats.bootstrap_rejects += 1;
            ctx.schedule_in(
                self.w.params.join_retry_backoff * 2,
                Event::BootstrapReply(id),
            );
            return;
        }
        let mut rng = self.w.rng_mem.clone();
        let entries = self
            .w
            .bootstrap
            .sample(id, self.w.params.bootstrap_fanout, &mut rng);
        let policy = self.w.params.replace_policy;
        let mut handshake = SimTime::ZERO;
        let mut candidates = Vec::new();
        // Request + reply: headers plus ~10 bytes per mCache entry.
        self.w.stats.control_bytes += 80 + 10 * entries.len() as u64;
        for e in entries {
            if let Some(p) = self.w.peer_mut(id) {
                p.membership.remember(e, policy, &mut rng);
            }
            candidates.push(e.id);
        }
        self.w.rng_mem = rng;
        let mut ok = 0usize;
        for cand in candidates {
            if ok >= self.w.params.target_partners {
                break;
            }
            if !self.w.net.is_alive(cand) {
                if let Some(p) = self.w.peer_mut(id) {
                    p.membership.forget(cand);
                }
                continue;
            }
            let rtt = self.w.net.delay(id, cand) * 2;
            if Partnership::of(self.w).try_add_partner(id, cand, now) {
                ok += 1;
                handshake = handshake.max(rtt);
            } else {
                // A failed SYN still costs a timeout-ish delay before the
                // joiner moves on; fold it into the handshake phase.
                handshake = handshake.max(rtt * 2);
            }
        }
        if ok == 0 {
            self.w.stats.join_retries += 1;
            ctx.schedule_in(self.w.params.join_retry_backoff, Event::BootstrapReply(id));
        } else {
            ctx.schedule_in(
                handshake + self.w.params.bootstrap_delay,
                Event::PartnersReady(id),
            );
        }
    }

    /// Gossip: push a sample of our mCache (plus ourselves) to one random
    /// partner.
    pub(crate) fn gossip_tick(&mut self, id: NodeId) {
        let mut rng = self.w.rng_mem.clone();
        let mut entries = std::mem::take(&mut self.w.scratch.entries);
        let target = self.w.peer(id).and_then(|p| {
            let &target = p.partners().ids().choose(&mut rng)?;
            let fanout = self.w.params.gossip_fanout;
            p.mcache()
                .sample_into(fanout, &mut rng, |c| c == target, &mut entries);
            entries.push(McEntry {
                id,
                joined_at: p.join_time,
            });
            Some(target)
        });
        if let Some(target) = target {
            let policy = self.w.params.replace_policy;
            if let Some(t) = self.w.peer_mut(target) {
                for &e in &entries {
                    if e.id != target {
                        t.membership.remember(e, policy, &mut rng);
                    }
                }
                self.w.stats.control_bytes += 40 + 10 * entries.len() as u64;
            }
        }
        self.w.scratch.entries = entries;
        self.w.rng_mem = rng;
    }

    /// Sample up to `want` partnership candidates for `id` from its
    /// mCache into `picks`, excluding itself and current partners. This
    /// is the membership→partnership service of Fig. 1: the partnership
    /// manager calls it during refill and re-selection.
    pub(crate) fn candidates(&mut self, id: NodeId, want: usize, picks: &mut Vec<McEntry>) {
        picks.clear();
        let mut rng = self.w.rng_mem.clone();
        let Some(p) = self.w.peer(id) else { return };
        let partners = p.partners();
        let exclude = |cand| cand == id || partners.contains(cand);
        p.mcache().sample_into(want, &mut rng, exclude, picks);
        self.w.rng_mem = rng;
    }

    /// Failure injection: bring the boot-strap server down or back up.
    pub(crate) fn set_bootstrap(&mut self, up: bool) {
        self.w.bootstrap_up = up;
    }

    /// Crash dedicated server `ix`: remove it from the overlay and the
    /// boot-strap candidate set; its partners and children discover the
    /// death lazily, exactly like peer churn.
    pub(crate) fn crash_server(&mut self, ix: usize, now: SimTime) {
        let Some(&id) = self.w.servers.get(ix) else {
            return;
        };
        if !self.w.net.is_alive(id) {
            return;
        }
        let (partners, children) = match self.w.peer(id) {
            Some(p) => (p.partners().ids().to_vec(), p.children().to_vec()),
            None => return,
        };
        for q in partners {
            if let Some(qp) = self.w.peer_mut(q) {
                qp.partnership.remove(id);
                qp.stream.clear_parent_slots_of(id);
            }
        }
        for (c, j) in children {
            if let Some(cp) = self.w.peer_mut(c) {
                cp.stream.unset_parent_if(j, id);
            }
        }
        self.w.net.remove_node(id);
        self.w.remove_peer(id);
        self.w.sessions[id.index()].leave = Some(now);
    }

    /// Test support: plant an mCache entry on `id` directly, bypassing
    /// boot-strap and gossip — for corrupting state in invariant-oracle
    /// tests.
    #[cfg(test)]
    pub(crate) fn inject_cache_entry(
        &mut self,
        id: NodeId,
        entry: McEntry,
        rng: &mut cs_sim::rng::Xoshiro256PlusPlus,
    ) {
        let policy = self.w.params.replace_policy;
        if let Some(p) = self.w.peer_mut(id) {
            p.membership.remember(entry, policy, rng);
        }
    }
}
