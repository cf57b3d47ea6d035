//! Adversarial parsing: the log pipeline must never panic on arbitrary
//! bytes — a real log server ingests whatever the network hands it.

use cs_logging::{LogServer, Report};
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
            user: cs_logging::UserId(user),
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

#[test]
fn truncated_reports_fail_cleanly() {
    let full = Report::Traffic {
        user: cs_logging::UserId(1),
        node: 2,
        up: 3,
        down: 4,
    }
    .encode();
    for cut in 0..full.len() {
        let truncated = &full[..cut];
        // Must not panic; truncations that cut mid-pair must error.
        let _ = Report::decode(truncated);
    }
}
