//! Property tests: every representable report survives the log-string
//! round trip, including through the text log-file format, and the strict
//! decoder rejects duplicate keys and unknown activity codes.

use cs_logging::{ActivityKind, CodecError, LogServer, Report, ReportError, UserId};
use cs_sim::SimTime;
use proptest::prelude::*;

mod arb;
use arb::arb_report;

proptest! {
    #[test]
    fn report_round_trips(r in arb_report()) {
        let encoded = r.encode();
        prop_assert_eq!(Report::decode(&encoded).unwrap(), r);
    }

    #[test]
    fn duplicated_key_is_rejected(r in arb_report(), dup_idx in 0usize..8) {
        // Splice a repeat of one existing key onto a valid line: the
        // decoder must refuse it, not pick one of the two values.
        let encoded = r.encode();
        let keys: Vec<&str> = encoded
            .split('&')
            .filter_map(|p| p.split_once('=').map(|(k, _)| k))
            .collect();
        let key = keys[dup_idx % keys.len()];
        let spliced = format!("{encoded}&{key}=0");
        prop_assert_eq!(
            Report::decode(&spliced),
            Err(ReportError::Codec(CodecError::DuplicateKey(key.to_string())))
        );
    }

    #[test]
    fn unknown_activity_code_is_rejected(
        uid in any::<u32>(),
        nid in any::<u32>(),
        code in "[a-z]{1,12}",
    ) {
        prop_assume!(ActivityKind::from_code(&code).is_none());
        let line = format!("cls=act&uid={uid}&nid={nid}&ev={code}&priv=0");
        prop_assert_eq!(
            Report::decode(&line),
            Err(ReportError::UnknownActivity(code))
        );
    }

    #[test]
    fn log_file_round_trips(reports in proptest::collection::vec((any::<u32>(), arb_report()), 0..50)) {
        let mut server = LogServer::new();
        for (t, r) in &reports {
            server.report(SimTime::from_micros(*t as u64), r);
        }
        let text = server.to_text();
        let back = LogServer::from_text(&text).unwrap();
        prop_assert!(back.lines().eq(server.lines()));
        let (ok, bad) = back.parse_all();
        prop_assert!(bad.is_empty());
        prop_assert_eq!(ok.len(), reports.len());
        for ((t, r), (pt, pr)) in reports.iter().zip(ok.iter()) {
            prop_assert_eq!(SimTime::from_micros(*t as u64), *pt);
            prop_assert_eq!(r, pr);
        }
    }
}
