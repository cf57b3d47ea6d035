//! Fixture-based self-tests: each known-bad snippet under `tests/fixtures/`
//! must produce exactly the expected `(rule, line)` hits — no more, no less.

use cs_lint::{lint_source, RuleId};

/// Lint a fixture and reduce the findings to a sorted `(rule-id, line)` list.
fn hits(crate_name: &str, is_crate_root: bool, src: &str) -> Vec<(&'static str, u32)> {
    let mut v: Vec<(&'static str, u32)> = lint_source(crate_name, "fixture.rs", is_crate_root, src)
        .into_iter()
        .map(|f| (f.rule.id(), f.line))
        .collect();
    v.sort();
    v
}

#[test]
fn d1_hash_collections_fires() {
    let src = include_str!("fixtures/d1_hash_collections.rs");
    assert_eq!(
        hits("proto", false, src),
        vec![("D1", 2), ("D1", 6), ("D1", 10), ("D1", 13)]
    );
}

#[test]
fn d1_is_scoped_to_deterministic_crates() {
    let src = include_str!("fixtures/d1_hash_collections.rs");
    // `analysis` is not in the deterministic-crate set, so D1 stays silent.
    assert_eq!(hits("analysis", false, src), vec![]);
}

#[test]
fn d2_ambient_entropy_fires() {
    let src = include_str!("fixtures/d2_ambient_entropy.rs");
    assert_eq!(
        hits("proto", false, src),
        vec![("D2", 5), ("D2", 9), ("D2", 10), ("D2", 14), ("D2", 15)]
    );
}

#[test]
fn d2_exempts_the_designated_rng_module() {
    let src = include_str!("fixtures/d2_ambient_entropy.rs");
    let findings = lint_source("sim", "crates/sim/src/rng.rs", false, src);
    assert!(
        findings.iter().all(|f| f.rule != RuleId::D2),
        "rng.rs is the sanctioned entropy boundary: {findings:?}"
    );
}

#[test]
fn r1_raw_rng_fires_in_det_crates_only() {
    let src = include_str!("fixtures/r1_raw_rng.rs");
    // `::stream(..)`, the escaped ctor and the `#[cfg(test)]` ctor are clean.
    assert_eq!(
        hits("proto", false, src),
        vec![("R1", 2), ("R1", 4), ("R1", 5), ("R1", 6), ("R1", 7)]
    );
    // The CLI is outside the deterministic scope.
    assert_eq!(hits("cli", false, src), vec![]);
    // rng.rs implements the named-stream API out of exactly these calls.
    let findings = lint_source("sim", "crates/sim/src/rng.rs", false, src);
    assert!(
        findings.iter().all(|f| f.rule != RuleId::R1),
        "{findings:?}"
    );
}

#[test]
fn c1_float_eq_fires() {
    let src = include_str!("fixtures/c1_float_eq.rs");
    assert_eq!(
        hits("proto", false, src),
        vec![("C1", 3), ("C1", 4), ("C1", 5), ("C1", 6)]
    );
}

#[test]
fn c2_lossy_cast_fires() {
    let src = include_str!("fixtures/c2_lossy_cast.rs");
    assert_eq!(
        hits("proto", false, src),
        vec![("C2", 3), ("C2", 4), ("C2", 5), ("C2", 6)]
    );
}

#[test]
fn c2_is_scoped_to_cast_audited_crates() {
    let src = include_str!("fixtures/c2_lossy_cast.rs");
    // `sim` is not cast-audited; the same snippet lints clean there.
    assert_eq!(hits("sim", false, src), vec![]);
}

#[test]
fn c3_panic_in_lib_fires() {
    let src = include_str!("fixtures/c3_panic_in_lib.rs");
    assert_eq!(
        hits("proto", false, src),
        vec![("C3", 3), ("C3", 4), ("C3", 6), ("C3", 9)]
    );
}

#[test]
fn c3_exempts_panic_tolerant_crates() {
    let src = include_str!("fixtures/c3_panic_in_lib.rs");
    // The CLI is allowed to panic on unrecoverable errors.
    assert_eq!(hits("cli", false, src), vec![]);
}

#[test]
fn s1_missing_forbid_fires_on_crate_roots_only() {
    let src = include_str!("fixtures/s1_missing_forbid.rs");
    assert_eq!(hits("proto", true, src), vec![("S1", 1)]);
    // Non-root modules are not required to carry the attribute.
    assert_eq!(hits("proto", false, src), vec![]);
}

#[test]
fn s1_present_forbid_is_clean() {
    let src = include_str!("fixtures/s1_has_forbid.rs");
    assert_eq!(hits("proto", true, src), vec![]);
}

/// A synthetic file of `lines` no-op lines (fixture files would need to
/// be >800 lines on disk, so M1 sources are generated instead).
fn long_source(lines: usize, first_line: &str) -> String {
    let mut s = String::from(first_line);
    s.push('\n');
    for _ in 1..lines {
        s.push_str("// filler\n");
    }
    s
}

#[test]
fn m1_file_size_fires_in_det_scope_only() {
    let src = long_source(801, "// big module");
    assert_eq!(hits("proto", false, &src), vec![("M1", 1)]);
    // At the limit exactly: clean.
    assert_eq!(hits("proto", false, &long_source(800, "// ok")), vec![]);
    // `analysis` is outside the deterministic scope.
    assert_eq!(hits("analysis", false, &src), vec![]);
}

#[test]
fn m1_is_escapable_on_line_one() {
    let src = long_source(
        801,
        "// cs-lint: allow(file-size) — generated table, one logical unit",
    );
    assert_eq!(hits("proto", false, &src), vec![]);
}

#[test]
fn escapes_suppress_and_misuse_is_flagged() {
    let src = include_str!("fixtures/escapes.rs");
    // Lines 3 (trailing escape) and 5 (escape on the line above) are
    // suppressed; an escape with no reason leaves the finding live and adds
    // E1; an unknown slug leaves the finding live and adds E2.
    assert_eq!(
        hits("proto", false, src),
        vec![("C2", 6), ("C2", 7), ("E1", 6), ("E2", 7)]
    );
}

#[test]
fn cfg_test_regions_are_exempt() {
    let src = include_str!("fixtures/cfg_test_exempt.rs");
    // Only the two library functions outside test regions fire; everything
    // inside `#[cfg(test)] mod tests` and `#[test] fn` is exempt.
    assert_eq!(hits("proto", false, src), vec![("C3", 5), ("C3", 29)]);
}

#[test]
fn json_output_is_well_formed() {
    let src = include_str!("fixtures/s1_missing_forbid.rs");
    let findings = lint_source("proto", "fixture.rs", true, src);
    let json = cs_lint::to_json(&findings);
    assert!(json.contains("\"rule\": \"S1\""));
    assert!(json.contains("\"slug\": \"forbid-unsafe\""));
    assert!(json.contains("\"count\": 1"));
}
