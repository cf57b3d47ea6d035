//! Adversarial parsing: the log pipeline must never panic on arbitrary
//! bytes — a real log server ingests whatever the network hands it.

use cs_logging::{ActivityKind, LogServer, Report, UserId};
use proptest::prelude::*;

proptest! {
    /// Decoding arbitrary ASCII never panics; it either parses or
    /// returns an error.
    #[test]
    fn report_decode_is_total(s in "[ -~]{0,200}") {
        let _ = Report::decode(&s);
    }

    /// And for arbitrary (possibly non-ASCII) strings.
    #[test]
    fn report_decode_handles_unicode(s in ".{0,100}") {
        let _ = Report::decode(&s);
    }

    /// Log-file parsing is total as well.
    #[test]
    fn log_file_parse_is_total(s in "[ -~\\n]{0,500}") {
        if let Ok(server) = LogServer::from_text(&s) {
            let (_ok, _bad) = server.parse_all();
        }
    }

    /// A report with one corrupted byte either fails to parse or parses
    /// into *some* report — never into a panic, and never into a report
    /// claiming a different class discriminator syntax.
    #[test]
    fn single_byte_corruption_is_contained(
        user in any::<u32>(),
        node in any::<u32>(),
        pos in 0usize..40,
        byte in 0u8..127,
    ) {
        let original = Report::Qos {
            user: UserId(user),
            node,
            due: 100,
            missed: 7,
        };
        let mut encoded = original.encode().into_bytes();
        if pos < encoded.len() {
            encoded[pos] = byte;
        }
        if let Ok(s) = String::from_utf8(encoded) {
            let _ = Report::decode(&s);
        }
    }
}

/// Every strict prefix of a report's line is an error: a cut inside a
/// pair leaves a key without its `=` or a value short of its count, a
/// cut between pairs leaves a key missing. Each line ends in a one-digit
/// value, so no cut leaves a shorter count behind that still reads.
#[test]
fn truncated_reports_fail_cleanly() {
    let user = UserId(7);
    for report in [
        Report::Activity {
            user,
            node: 25,
            kind: ActivityKind::StartSubscription,
            private_addr: true,
        },
        Report::Qos {
            user,
            node: 25,
            due: 40,
            missed: 3,
        },
        Report::Traffic {
            user,
            node: 25,
            up: 5,
            down: 61_440,
        },
        Report::Partner {
            user,
            node: 25,
            private_addr: false,
            incoming: 12,
            outgoing: 4,
            parents: 3,
            adaptations: 10,
        },
    ] {
        let full = report.encode();
        assert_eq!(Report::decode(&full), Ok(report));
        for cut in 0..full.len() {
            let truncated = &full[..cut];
            assert!(Report::decode(truncated).is_err(), "{truncated:?}");
        }
    }
}
