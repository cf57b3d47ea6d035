//! Ground-truth session records.
//!
//! One record per node incarnation (a user who retries produces several).
//! These are the simulator's *actual* values; the log-derived view in
//! `cs-analysis` may differ from them exactly where the paper's
//! measurement methodology loses information — several integration tests
//! assert both the agreements and the expected disagreements.

use cs_logging::UserId;
use cs_net::{Bandwidth, NodeClass, NodeId};
use cs_sim::SimTime;

use crate::stream::ReportCounters;
use crate::world::CsWorld;

/// Why a session ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DepartReason {
    /// The user watched as long as intended.
    Finished,
    /// The user gave up waiting for the media player to start.
    Impatient,
    /// Playback quality collapsed; the client departed to re-enter
    /// (§V.D: NAT/firewall users "simply depart and re-enter the overlay
    /// during peer churns").
    GiveUp,
    /// A correlated regional outage (chaos injection) cut the session
    /// short; the user may re-enter once the partition heals.
    Outage,
    /// The run's horizon ended while the session was live.
    StillActive,
}

/// Ground truth for one session (one node incarnation).
///
/// `up_bytes`, `down_bytes`, `due` and `missed` are final once `leave` is
/// set or [`finalize_sessions`] has run: while the peer lives, what it
/// moved since its last status report is still in its report counters.
#[derive(Clone, Copy, Debug)]
pub struct SessionRecord {
    /// Stable user identity.
    pub user: UserId,
    /// This incarnation's node id.
    pub node: NodeId,
    /// Ground-truth connection class (the log only sees the inferred one).
    pub class: NodeClass,
    /// Uplink capacity assigned to this node.
    pub upload: Bandwidth,
    /// 0 for a first attempt, n for the n-th retry.
    pub retry_index: u32,
    /// Join time.
    pub join: SimTime,
    /// Start-subscription time, if reached.
    pub start_sub: Option<SimTime>,
    /// Media-player-ready time, if reached.
    pub ready: Option<SimTime>,
    /// Leave time, if the session ended within the run.
    pub leave: Option<SimTime>,
    /// Why it ended.
    pub reason: Option<DepartReason>,
    /// Total bytes uploaded over the session.
    pub up_bytes: u64,
    /// Total bytes downloaded over the session.
    pub down_bytes: u64,
    /// Total blocks due at playback deadlines.
    pub due: u64,
    /// Total blocks missed at their deadline.
    pub missed: u64,
    /// Total peer adaptations performed.
    pub adaptations: u32,
}

impl SessionRecord {
    /// Add a peer's since-last-report traffic and playback counters to
    /// the session totals (`adaptations` is counted as it happens).
    pub(crate) fn absorb(&mut self, c: ReportCounters) {
        self.up_bytes += c.up_bytes;
        self.down_bytes += c.down_bytes;
        self.due += c.due;
        self.missed += c.missed;
    }

    /// Session duration (leave − join), if complete.
    pub fn duration(&self) -> Option<SimTime> {
        self.leave.map(|l| l.saturating_sub(self.join))
    }

    /// Start-subscription delay (start_sub − join).
    pub fn start_sub_delay(&self) -> Option<SimTime> {
        self.start_sub.map(|t| t.saturating_sub(self.join))
    }

    /// Media-ready delay (ready − join).
    pub fn ready_delay(&self) -> Option<SimTime> {
        self.ready.map(|t| t.saturating_sub(self.join))
    }

    /// Ground-truth continuity index over the whole session.
    pub fn continuity(&self) -> Option<f64> {
        if self.due == 0 {
            None
        } else {
            Some(1.0 - self.missed as f64 / self.due as f64)
        }
    }
}

/// Close the books at the end of a run: fold what every live peer
/// (infrastructure included) moved since its last status report into its
/// session record, and mark every still-live user session as
/// [`DepartReason::StillActive`] so analysis can distinguish truncation
/// from departure. A second call adds nothing.
pub fn finalize_sessions(world: &mut CsWorld) {
    let ids: Vec<NodeId> = world.peers().map(|p| p.id).collect();
    for id in ids {
        let c = world.peer_mut(id).map(|p| p.stream.take_counters());
        let rec = &mut world.sessions[id.index()];
        rec.absorb(c.unwrap_or_default());
        if rec.class.is_user() && rec.reason.is_none() {
            rec.reason = Some(DepartReason::StillActive);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec() -> SessionRecord {
        SessionRecord {
            user: UserId(1),
            node: NodeId(5),
            class: NodeClass::Nat,
            upload: Bandwidth::kbps(300),
            retry_index: 0,
            join: SimTime::from_secs(100),
            start_sub: Some(SimTime::from_secs(103)),
            ready: Some(SimTime::from_secs(115)),
            leave: Some(SimTime::from_secs(700)),
            reason: Some(DepartReason::Finished),
            up_bytes: 1000,
            down_bytes: 2000,
            due: 200,
            missed: 4,
            adaptations: 3,
        }
    }

    #[test]
    fn derived_times() {
        let r = rec();
        assert_eq!(r.duration(), Some(SimTime::from_secs(600)));
        assert_eq!(r.start_sub_delay(), Some(SimTime::from_secs(3)));
        assert_eq!(r.ready_delay(), Some(SimTime::from_secs(15)));
    }

    #[test]
    fn continuity_math() {
        let r = rec();
        assert!((r.continuity().unwrap() - 0.98).abs() < 1e-12);
        let mut empty = rec();
        empty.due = 0;
        assert_eq!(empty.continuity(), None);
    }

    #[test]
    fn incomplete_session_has_no_ready_delay() {
        let mut r = rec();
        r.ready = None;
        assert_eq!(r.ready_delay(), None);
    }
}
