//! The workspace itself must lint clean: every finding in `crates/` is
//! either fixed or carries a reasoned allow-escape. This is the same check
//! CI runs via `cargo run -p cs-lint -- --deny`.

use std::path::Path;

use cs_lint::{lexer, lint_workspace, workspace_sources, Config};

/// The chaos-injection modules added for the scenario DSL live inside
/// det-scope: `proto` (chaos.rs) and `core` (spec.rs) are det-crates, the
/// module paths are not test-exempt, and determinism rules actually fire
/// on offending source placed at those paths.
#[test]
fn injection_modules_are_in_det_scope() {
    let cfg = Config::default();
    for krate in ["proto", "core"] {
        assert!(
            cfg.det_crates.iter().any(|c| c == krate),
            "det_crates must cover the {krate} injection module"
        );
    }
    let bad = "use std::collections::HashMap;\nfn f() { let _ = std::time::Instant::now(); }\n";
    for (krate, rel) in [
        ("proto", "crates/proto/src/chaos.rs"),
        ("core", "crates/core/src/spec.rs"),
    ] {
        let findings = cs_lint::lint_source_with(krate, rel, false, bad, &cfg);
        assert!(
            findings.iter().any(|f| f.rule.slug() == "det-collections"),
            "{rel}: D1 must fire in det-scope"
        );
        assert!(
            findings.iter().any(|f| f.rule.slug() == "ambient-entropy"),
            "{rel}: D2 must fire in det-scope"
        );
    }
}

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint sits two levels below the workspace root")
}

/// The wall-clock quarantine is closed: `ambient-entropy` (D2) escapes —
/// the only sanctioned way to read `Instant::now` & co. outside the RNG
/// module — appear in exactly the documented wall-clock modules (the
/// run's instrument set, which times handlers for `profile.json` and
/// `spans.jsonl`; the bench harness; and the CLI's manifest timing), and
/// every one carries a written reason. A new
/// escape anywhere else means wall-clock use leaked into det-scope and
/// must either be removed or argued into this list.
#[test]
fn ambient_entropy_escapes_stay_in_the_wall_clock_quarantine() {
    const QUARANTINE: [&str; 3] = [
        "crates/bench/src/harness.rs",
        "crates/cli/src/main.rs",
        "crates/core/src/instruments.rs",
    ];
    let files = workspace_sources(workspace_root()).expect("workspace walk");
    let mut escaped_files: Vec<&str> = Vec::new();
    for file in &files {
        let escapes = lexer::lex(&file.src).escapes;
        let d2: Vec<_> = escapes
            .iter()
            .filter(|e| e.slug == "ambient-entropy")
            .collect();
        if d2.is_empty() {
            continue;
        }
        escaped_files.push(&file.rel_path);
        for e in &d2 {
            assert!(
                e.has_reason,
                "{}:{}: ambient-entropy escape without a reason",
                file.rel_path, e.line
            );
        }
    }
    escaped_files.sort_unstable();
    assert_eq!(
        escaped_files, QUARANTINE,
        "wall-clock (D2) escapes moved: update the quarantine list only \
         for modules whose measurements stay out of sim state"
    );
    // And the quarantine is real: D2 still fires on unescaped wall-clock
    // reads in each quarantined file's crate.
    let cfg = Config::default();
    let bad = "fn f() { let _ = std::time::Instant::now(); }\n";
    for rel in QUARANTINE {
        let krate = rel.split('/').nth(1).unwrap();
        let findings = cs_lint::lint_source_with(krate, rel, false, bad, &cfg);
        assert!(
            findings.iter().any(|f| f.rule.slug() == "ambient-entropy"),
            "{rel}: D2 must fire on undocumented wall-clock use"
        );
    }
}

#[test]
fn workspace_has_zero_findings() {
    let findings =
        lint_workspace(workspace_root(), &Config::default()).expect("workspace walk succeeds");
    assert!(
        findings.is_empty(),
        "workspace must be lint-clean; run `cargo run -p cs-lint` to see:\n{}",
        findings
            .iter()
            .map(|f| format!("  {}:{}: {}: {}", f.file, f.line, f.rule.id(), f.message))
            .collect::<Vec<_>>()
            .join("\n")
    );
}
