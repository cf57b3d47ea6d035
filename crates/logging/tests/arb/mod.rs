//! Report strategies shared by the integration proptests and the
//! crate's differential unit tests (`src/codec/tests.rs` includes this
//! file by path, so the report types come from whoever includes it).

use proptest::prelude::*;

use super::{ActivityKind, Report, UserId};

/// Any of the four activity kinds.
pub fn arb_activity_kind() -> impl Strategy<Value = ActivityKind> {
    prop_oneof![
        Just(ActivityKind::Join),
        Just(ActivityKind::StartSubscription),
        Just(ActivityKind::MediaReady),
        Just(ActivityKind::Leave),
    ]
}

/// Any representable report, every class.
pub fn arb_report() -> impl Strategy<Value = Report> {
    prop_oneof![
        (
            any::<u32>(),
            any::<u32>(),
            arb_activity_kind(),
            any::<bool>()
        )
            .prop_map(|(u, n, kind, private_addr)| Report::Activity {
                user: UserId(u),
                node: n,
                kind,
                private_addr,
            }),
        (any::<u32>(), any::<u32>(), any::<u64>(), any::<u64>()).prop_map(|(u, n, due, m)| {
            Report::Qos {
                user: UserId(u),
                node: n,
                due,
                missed: m.min(due),
            }
        }),
        (any::<u32>(), any::<u32>(), any::<u64>(), any::<u64>()).prop_map(|(u, n, up, down)| {
            Report::Traffic {
                user: UserId(u),
                node: n,
                up,
                down,
            }
        }),
        (
            any::<u32>(),
            any::<u32>(),
            any::<bool>(),
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
            any::<u32>()
        )
            .prop_map(|(u, n, p, incoming, outgoing, parents, adaptations)| {
                Report::Partner {
                    user: UserId(u),
                    node: n,
                    private_addr: p,
                    incoming,
                    outgoing,
                    parents,
                    adaptations,
                }
            }),
    ]
}
