//! Fixture mini-workspaces for the cross-file rule families. Each
//! `tests/fixtures/ws_*` directory is a tiny `crates/`-shaped tree that
//! goes through the same [`lint_workspace`] walk CI uses (`ws_r1` also
//! carries an escaped negative).
//!
//! These are also the acceptance-criteria probes for the issue: a
//! deleted `world.rs` dispatch arm (`ws_x1`) and a raw RNG construction
//! in `crates/proto` (`ws_r1`) must be hard findings.

use std::path::PathBuf;

use cs_lint::{lint_workspace, Config, Finding};

fn hits(ws: &str) -> Vec<Finding> {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(ws);
    lint_workspace(&root, &Config::default()).expect("fixture workspace lints")
}

fn keyed(findings: &[Finding]) -> Vec<(&str, &str, u32)> {
    findings
        .iter()
        .map(|f| (f.rule.id(), f.file.as_str(), f.line))
        .collect()
}

#[test]
fn r1_fixture_flags_raw_rng_in_proto_and_honors_escape() {
    let found = hits("ws_r1");
    assert_eq!(
        keyed(&found),
        vec![
            ("R1", "crates/proto/src/gen.rs", 4),
            ("R1", "crates/proto/src/gen.rs", 5),
            ("R1", "crates/proto/src/gen.rs", 6),
        ],
        "{found:?}"
    );
    assert!(found[0].message.contains("named-stream API"));
    assert!(found[1].message.contains("LOCAL_STREAM"));
    assert!(found[2].message.contains("streams::MISSING"));
    assert!(
        found[2].message.contains("ARRIVALS") && found[2].message.contains("FREERIDER"),
        "unknown-stream message lists the known table: {}",
        found[2].message
    );
}

#[test]
fn x1_fixture_flags_deleted_dispatch_arm() {
    let found = hits("ws_x1");
    assert_eq!(
        keyed(&found),
        vec![("X1", "crates/proto/src/world.rs", 20)],
        "{found:?}"
    );
    assert!(
        found[0].message.contains("no arm for `Event::Tick`"),
        "{}",
        found[0].message
    );
}
