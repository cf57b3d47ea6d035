//! Session reconstruction from the raw log — the paper's own methodology
//! (§V.A, §V.C): pair join/leave activity reports into sessions, attach
//! the periodic status reports, infer user types from partner reports
//! (§V.B), and group retries by user (Fig. 10b).
//!
//! Everything here consumes *parsed log strings only*. Information the log
//! does not carry (e.g. the playback quality between a peer's last status
//! report and its departure) is genuinely absent, reproducing the paper's
//! measurement artifacts.

use std::collections::BTreeMap;

use cs_logging::{ActivityKind, Report, UserId};
use cs_net::NodeClass;
use cs_sim::SimTime;
use serde::{Deserialize, Serialize};

/// One session (node incarnation) as visible in the log.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct LogSession {
    /// Stable user identity.
    pub user: UserId,
    /// Node id of this incarnation.
    pub node: u32,
    /// Whether the client reported a private local address.
    pub private_addr: Option<bool>,
    /// Join report time.
    pub join: Option<SimTime>,
    /// Start-subscription report time.
    pub start_sub: Option<SimTime>,
    /// Media-ready report time.
    pub ready: Option<SimTime>,
    /// Leave report time.
    pub leave: Option<SimTime>,
    /// QoS reports: `(time, due, missed)`.
    pub qos: Vec<(SimTime, u64, u64)>,
    /// Total uploaded bytes across traffic reports, saturating at
    /// `u64::MAX`.
    pub up_bytes: u64,
    /// Total downloaded bytes across traffic reports, saturating at
    /// `u64::MAX`.
    pub down_bytes: u64,
    /// Max incoming-partner count seen in partner reports.
    pub max_incoming: u32,
    /// Max outgoing-partner count seen in partner reports.
    pub max_outgoing: u32,
    /// Total adaptations across partner reports.
    pub adaptations: u64,
}

impl LogSession {
    /// Session duration, if both endpoints were logged.
    pub fn duration(&self) -> Option<SimTime> {
        Some(self.leave?.saturating_sub(self.join?))
    }

    /// Start-subscription delay.
    pub fn start_sub_delay(&self) -> Option<SimTime> {
        Some(self.start_sub?.saturating_sub(self.join?))
    }

    /// Media-ready delay.
    pub fn ready_delay(&self) -> Option<SimTime> {
        Some(self.ready?.saturating_sub(self.join?))
    }

    /// Buffer-fill wait: media-ready − start-subscription (the 10–20 s
    /// difference curve of Fig. 6).
    pub fn buffer_fill_delay(&self) -> Option<SimTime> {
        Some(self.ready?.saturating_sub(self.start_sub?))
    }

    /// Log-visible continuity index: aggregate over QoS reports.
    pub fn continuity(&self) -> Option<f64> {
        let (due, missed) = qos_totals(&self.qos);
        (due > 0).then(|| 1.0 - missed as f64 / due as f64)
    }

    /// A *normal session* in the paper's sense: the full
    /// join → start-subscription → media-ready → leave sequence.
    pub fn is_normal(&self) -> bool {
        self.join.is_some()
            && self.start_sub.is_some()
            && self.ready.is_some()
            && self.leave.is_some()
    }

    /// §V.B user-type inference from local address + partner directions.
    /// Exactly the paper's rules — including their failure modes (e.g. a
    /// permissive NAT user with an incoming partner classifies as UPnP).
    pub fn infer_class(&self) -> Option<NodeClass> {
        let private = self.private_addr?;
        let has_incoming = self.max_incoming > 0;
        Some(match (private, has_incoming) {
            (true, true) => NodeClass::Upnp,
            (true, false) => NodeClass::Nat,
            (false, true) => NodeClass::DirectConnect,
            (false, false) => NodeClass::Firewall,
        })
    }
}

/// `(Σ due, Σ missed)` over QoS reports, in `u128` so that no log can
/// overflow them (each addend is below 2⁶⁴; a log holds far fewer than
/// 2⁶⁴ reports). Below 2⁶⁴ a `u128` converts to the same `f64` as the
/// `u64` it equals.
pub fn qos_totals<'a>(qos: impl IntoIterator<Item = &'a (SimTime, u64, u64)>) -> (u128, u128) {
    qos.into_iter().fold((0, 0), |(due, missed), &(_, d, m)| {
        (due + u128::from(d), missed + u128::from(m))
    })
}

/// Rebuild per-node sessions from parsed reports (any order), returned
/// sorted by join time (unjoined fragments last), then node.
pub fn reconstruct(reports: &[(SimTime, Report)]) -> Vec<LogSession> {
    // Sessions are built where they are returned; the index only finds a
    // node's session again. Node ids are dense and never reused within a
    // run (`cs_net::NodeId`), so a log's ids fill a short span: a table
    // over at most `reports.len()` ids from the smallest holds them, and a
    // map any beyond it (logs of several runs, hostile ones).
    let (lo, hi) = reports.iter().fold((u32::MAX, 0), |(lo, hi), (_, r)| {
        (lo.min(r.node()), hi.max(r.node()))
    });
    let span = (hi.saturating_sub(lo) as usize).saturating_add(1);
    let mut table = vec![usize::MAX; span.min(reports.len())];
    let mut spill: BTreeMap<u32, usize> = BTreeMap::new();
    let mut sessions: Vec<LogSession> = Vec::new();
    for (t, r) in reports {
        let node = r.node();
        let slot = match table.get_mut((node - lo) as usize) {
            Some(slot) => slot,
            None => spill.entry(node).or_insert(usize::MAX),
        };
        if *slot == usize::MAX {
            *slot = sessions.len();
            sessions.push(LogSession {
                user: r.user(),
                node,
                ..Default::default()
            });
        }
        let s = &mut sessions[*slot];
        match r {
            Report::Activity {
                kind, private_addr, ..
            } => {
                s.private_addr = Some(*private_addr);
                match kind {
                    ActivityKind::Join => s.join = Some(*t),
                    ActivityKind::StartSubscription => s.start_sub = Some(*t),
                    ActivityKind::MediaReady => s.ready = Some(*t),
                    ActivityKind::Leave => s.leave = Some(*t),
                }
            }
            Report::Qos { due, missed, .. } => s.qos.push((*t, *due, *missed)),
            Report::Traffic { up, down, .. } => {
                s.up_bytes = s.up_bytes.saturating_add(*up);
                s.down_bytes = s.down_bytes.saturating_add(*down);
            }
            Report::Partner {
                private_addr,
                incoming,
                outgoing,
                adaptations,
                ..
            } => {
                s.private_addr = Some(*private_addr);
                s.max_incoming = s.max_incoming.max(*incoming);
                s.max_outgoing = s.max_outgoing.max(*outgoing);
                s.adaptations += *adaptations as u64;
            }
        }
    }
    // Nodes are unique, so the key is a total order and the result does
    // not depend on the order sessions were opened in.
    sessions.sort_unstable_by_key(|s| (s.join.unwrap_or(SimTime::MAX), s.node));
    sessions
}

/// Per-user retry grouping (Fig. 10b): how many attempts each user logged
/// before (and including) its first media-ready session; `succeeded`
/// records whether that ever happened.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct UserAttempts {
    /// The user.
    pub user: UserId,
    /// Attempts up to and including the first successful one (or all
    /// attempts when none succeeded).
    pub attempts: u32,
    /// Whether any attempt reached media-ready.
    pub succeeded: bool,
}

/// Group sessions by user and count join attempts until first success.
pub fn retries_per_user(sessions: &[LogSession]) -> Vec<UserAttempts> {
    // Sorted, a user's attempts are adjacent and in join order, ties in
    // slice order.
    let mut joined: Vec<(UserId, SimTime, usize)> = sessions
        .iter()
        .enumerate()
        .filter_map(|(ix, s)| Some((s.user, s.join?, ix)))
        .collect();
    joined.sort_unstable();
    let mut users: Vec<UserAttempts> = Vec::new();
    for (user, _, ix) in joined {
        let ready = sessions[ix].ready.is_some();
        match users.last_mut() {
            Some(last) if last.user == user => {
                if !last.succeeded {
                    last.attempts += 1;
                    last.succeeded = ready;
                }
            }
            _ => users.push(UserAttempts {
                user,
                attempts: 1,
                succeeded: ready,
            }),
        }
    }
    users
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    fn act(t: u64, user: u32, node: u32, kind: ActivityKind, private: bool) -> (SimTime, Report) {
        (
            SimTime::from_secs(t),
            Report::Activity {
                user: UserId(user),
                node,
                kind,
                private_addr: private,
            },
        )
    }

    #[test]
    fn reconstruct_full_session() {
        let reports = vec![
            act(10, 1, 7, ActivityKind::Join, true),
            act(13, 1, 7, ActivityKind::StartSubscription, true),
            act(25, 1, 7, ActivityKind::MediaReady, true),
            (
                SimTime::from_secs(300),
                Report::Qos {
                    user: UserId(1),
                    node: 7,
                    due: 1000,
                    missed: 10,
                },
            ),
            (
                SimTime::from_secs(300),
                Report::Traffic {
                    user: UserId(1),
                    node: 7,
                    up: 500,
                    down: 900,
                },
            ),
            (
                SimTime::from_secs(300),
                Report::Partner {
                    user: UserId(1),
                    node: 7,
                    private_addr: true,
                    incoming: 2,
                    outgoing: 3,
                    parents: 4,
                    adaptations: 1,
                },
            ),
            act(600, 1, 7, ActivityKind::Leave, true),
        ];
        let sessions = reconstruct(&reports);
        assert_eq!(sessions.len(), 1);
        let s = &sessions[0];
        assert!(s.is_normal());
        assert_eq!(s.duration(), Some(SimTime::from_secs(590)));
        assert_eq!(s.start_sub_delay(), Some(SimTime::from_secs(3)));
        assert_eq!(s.ready_delay(), Some(SimTime::from_secs(15)));
        assert_eq!(s.buffer_fill_delay(), Some(SimTime::from_secs(12)));
        assert!((s.continuity().unwrap() - 0.99).abs() < 1e-12);
        assert_eq!(s.up_bytes, 500);
        assert_eq!(s.infer_class(), Some(NodeClass::Upnp));
    }

    #[test]
    fn classification_rules_match_paper() {
        let mk = |private, incoming| LogSession {
            private_addr: Some(private),
            max_incoming: incoming,
            ..Default::default()
        };
        assert_eq!(mk(true, 1).infer_class(), Some(NodeClass::Upnp));
        assert_eq!(mk(true, 0).infer_class(), Some(NodeClass::Nat));
        assert_eq!(mk(false, 2).infer_class(), Some(NodeClass::DirectConnect));
        assert_eq!(mk(false, 0).infer_class(), Some(NodeClass::Firewall));
        assert_eq!(LogSession::default().infer_class(), None);
    }

    #[test]
    fn sessions_sorted_by_join() {
        let reports = vec![
            act(50, 2, 9, ActivityKind::Join, false),
            act(10, 1, 8, ActivityKind::Join, false),
        ];
        let sessions = reconstruct(&reports);
        assert_eq!(sessions[0].node, 8);
        assert_eq!(sessions[1].node, 9);
    }

    #[test]
    fn retry_grouping_counts_until_success() {
        let reports = vec![
            // User 1: two failed attempts, then success, then another
            // session that must NOT count.
            act(10, 1, 100, ActivityKind::Join, true),
            act(20, 1, 100, ActivityKind::Leave, true),
            act(25, 1, 101, ActivityKind::Join, true),
            act(40, 1, 101, ActivityKind::Leave, true),
            act(45, 1, 102, ActivityKind::Join, true),
            act(60, 1, 102, ActivityKind::MediaReady, true),
            act(500, 1, 103, ActivityKind::Join, true),
            // User 2: never succeeds.
            act(10, 2, 200, ActivityKind::Join, true),
            act(30, 2, 201, ActivityKind::Join, true),
        ];
        let sessions = reconstruct(&reports);
        let retries = retries_per_user(&sessions);
        assert_eq!(retries.len(), 2);
        let u1 = retries.iter().find(|r| r.user == UserId(1)).unwrap();
        assert_eq!(u1.attempts, 3);
        assert!(u1.succeeded);
        let u2 = retries.iter().find(|r| r.user == UserId(2)).unwrap();
        assert_eq!(u2.attempts, 2);
        assert!(!u2.succeeded);
    }

    #[test]
    fn continuity_none_without_qos() {
        let s = LogSession::default();
        assert_eq!(s.continuity(), None);
    }

    #[test]
    fn log_derived_sums_do_not_overflow() {
        let traffic = |t| {
            (
                SimTime::from_secs(t),
                Report::Traffic {
                    user: UserId(1),
                    node: 7,
                    up: u64::MAX,
                    down: u64::MAX - 1,
                },
            )
        };
        let qos = |t, due, missed| {
            (
                SimTime::from_secs(t),
                Report::Qos {
                    user: UserId(1),
                    node: 7,
                    due,
                    missed,
                },
            )
        };
        let reports = vec![
            act(10, 1, 7, ActivityKind::Join, false),
            traffic(300),
            traffic(600),
            qos(300, u64::MAX, u64::MAX / 2),
            qos(600, u64::MAX, u64::MAX / 2),
            act(700, 1, 7, ActivityKind::Leave, false),
        ];
        let s = &reconstruct(&reports)[0];
        assert_eq!((s.up_bytes, s.down_bytes), (u64::MAX, u64::MAX));
        assert!((s.continuity().unwrap() - 0.5).abs() < 1e-12);
    }

    /// What one report adds to its session.
    fn apply(s: &mut LogSession, t: SimTime, r: &Report) {
        match r {
            Report::Activity {
                kind, private_addr, ..
            } => {
                s.private_addr = Some(*private_addr);
                match kind {
                    ActivityKind::Join => s.join = Some(t),
                    ActivityKind::StartSubscription => s.start_sub = Some(t),
                    ActivityKind::MediaReady => s.ready = Some(t),
                    ActivityKind::Leave => s.leave = Some(t),
                }
            }
            Report::Qos { due, missed, .. } => s.qos.push((t, *due, *missed)),
            Report::Traffic { up, down, .. } => {
                s.up_bytes = s.up_bytes.saturating_add(*up);
                s.down_bytes = s.down_bytes.saturating_add(*down);
            }
            Report::Partner {
                private_addr,
                incoming,
                outgoing,
                adaptations,
                ..
            } => {
                s.private_addr = Some(*private_addr);
                s.max_incoming = s.max_incoming.max(*incoming);
                s.max_outgoing = s.max_outgoing.max(*outgoing);
                s.adaptations += *adaptations as u64;
            }
        }
    }

    fn opened(r: &Report) -> LogSession {
        LogSession {
            user: r.user(),
            node: r.node(),
            ..Default::default()
        }
    }

    fn sorted(mut sessions: Vec<LogSession>) -> Vec<LogSession> {
        sessions.sort_by_key(|s| (s.join.unwrap_or(SimTime::MAX), s.node));
        sessions
    }

    /// The `BTreeMap` version `reconstruct` replaced (with the byte totals
    /// saturating), kept as its oracle.
    fn reference(reports: &[(SimTime, Report)]) -> Vec<LogSession> {
        let mut by_node: BTreeMap<u32, LogSession> = BTreeMap::new();
        for (t, r) in reports {
            apply(by_node.entry(r.node()).or_insert_with(|| opened(r)), *t, r);
        }
        sorted(by_node.into_values().collect())
    }

    /// The naive oracle: a linear scan of the sessions per report.
    fn linear_scan(reports: &[(SimTime, Report)]) -> Vec<LogSession> {
        let mut sessions: Vec<LogSession> = Vec::new();
        for (t, r) in reports {
            let ix = match sessions.iter().position(|s| s.node == r.node()) {
                Some(ix) => ix,
                None => {
                    sessions.push(opened(r));
                    sessions.len() - 1
                }
            };
            apply(&mut sessions[ix], *t, r);
        }
        sorted(sessions)
    }

    /// The `BTreeMap` grouping `retries_per_user` replaced, kept as its
    /// oracle.
    fn retries_reference(sessions: &[LogSession]) -> Vec<UserAttempts> {
        let mut by_user: BTreeMap<UserId, Vec<&LogSession>> = BTreeMap::new();
        for s in sessions.iter().filter(|s| s.join.is_some()) {
            by_user.entry(s.user).or_default().push(s);
        }
        by_user
            .into_iter()
            .map(|(user, mut ss)| {
                ss.sort_by_key(|s| s.join);
                let tried = ss.iter().position(|s| s.ready.is_some());
                UserAttempts {
                    user,
                    attempts: tried.map_or(ss.len(), |at| at + 1) as u32,
                    succeeded: tried.is_some(),
                }
            })
            .collect()
    }

    fn set_node(r: &mut Report, to: u32) {
        match r {
            Report::Activity { node, .. }
            | Report::Qos { node, .. }
            | Report::Traffic { node, .. }
            | Report::Partner { node, .. } => *node = to,
        }
    }

    /// A report about one of a dozen nodes at one of ten minutes, so that
    /// sessions collide, repeat a stamp, and often never join.
    fn arb_report() -> impl Strategy<Value = (SimTime, Report)> {
        let kinds = [
            ActivityKind::Join,
            ActivityKind::StartSubscription,
            ActivityKind::MediaReady,
            ActivityKind::Leave,
        ];
        (
            0u64..600,
            0u32..3,
            0u32..12,
            0usize..7,
            any::<u64>(),
            any::<u64>(),
        )
            .prop_map(move |(t, user, node, class, a, b)| {
                let user = UserId(user);
                let report = match class {
                    0..=3 => Report::Activity {
                        user,
                        node,
                        kind: kinds[class],
                        private_addr: a % 2 == 0,
                    },
                    4 => Report::Qos {
                        user,
                        node,
                        due: a,
                        missed: b.min(a),
                    },
                    5 => Report::Traffic {
                        user,
                        node,
                        up: a >> (b % 64),
                        down: b >> (a % 64),
                    },
                    _ => Report::Partner {
                        user,
                        node,
                        private_addr: b % 2 == 0,
                        incoming: (a % 5) as u32,
                        outgoing: (b % 5) as u32,
                        parents: 0,
                        adaptations: (a % 3) as u32,
                    },
                };
                (SimTime::from_secs(t), report)
            })
    }

    proptest! {
        #[test]
        fn reconstruct_matches_btreemap_reference(
            mut reports in proptest::collection::vec(arb_report(), 0..60),
            repeats in proptest::collection::vec(any::<usize>(), 0..10),
        ) {
            for i in repeats {
                if !reports.is_empty() {
                    let copy = reports[i % reports.len()].clone();
                    reports.push(copy);
                }
            }
            let got = format!("{:?}", reconstruct(&reports));
            prop_assert_eq!(got, format!("{:?}", reference(&reports)));
        }

        /// Runs of one node's reports, the node picked again and again from
        /// ids near zero, near `u32::MAX` and anywhere, so that runs repeat,
        /// nodes interleave, reports precede a join or follow a leave, and
        /// ids fall both inside and outside `reconstruct`'s table.
        #[test]
        fn reconstruct_matches_a_linear_scan(
            ids in proptest::collection::vec(
                prop_oneof![0u32..8, (u32::MAX - 8)..=u32::MAX, any::<u32>()],
                1..6,
            ),
            runs in proptest::collection::vec(
                (any::<usize>(), proptest::collection::vec(arb_report(), 1..5)),
                0..16,
            ),
        ) {
            let mut reports = Vec::new();
            for (pick, run) in runs {
                for (t, mut r) in run {
                    set_node(&mut r, ids[pick % ids.len()]);
                    reports.push((t, r));
                }
            }
            let got = format!("{:?}", reconstruct(&reports));
            prop_assert_eq!(got, format!("{:?}", linear_scan(&reports)));
        }

        #[test]
        fn retries_match_btreemap_reference(
            sessions in proptest::collection::vec(
                (0u32..4, proptest::option::of(0u64..5), any::<bool>()),
                0..24,
            ),
        ) {
            let sessions: Vec<LogSession> = sessions
                .into_iter()
                .map(|(user, join, ready)| LogSession {
                    user: UserId(user),
                    join: join.map(SimTime::from_secs),
                    ready: ready.then_some(SimTime::ZERO),
                    ..Default::default()
                })
                .collect();
            prop_assert_eq!(retries_per_user(&sessions), retries_reference(&sessions));
        }
    }
}
