//! Everything user-visible about a rule is declared once, in the
//! `rule_table!` of `rules.rs`. `--list-rules`, `--help` and `--explain`
//! are *derived* from it; DESIGN.md §7 is prose and cannot be, so its
//! table is compared against it here. A new or retired rule cannot ship
//! without showing up everywhere.

use cs_lint::{explain_text, help_text, list_rules_text, RuleId};

#[test]
fn list_rules_covers_every_rule() {
    let text = list_rules_text();
    for r in RuleId::ALL {
        let line = text
            .lines()
            .find(|l| l.starts_with(r.id()))
            .unwrap_or_else(|| panic!("--list-rules has no line for {}", r.id()));
        assert!(
            line.contains(r.slug()),
            "{} line is missing its slug",
            r.id()
        );
        assert!(
            line.contains(r.scope()),
            "{} line is missing its scope",
            r.id()
        );
    }
    // And nothing extra: one header plus one line per rule.
    assert_eq!(text.lines().count(), 1 + RuleId::ALL.len());
}

#[test]
fn help_covers_every_rule() {
    let text = help_text();
    for r in RuleId::ALL {
        assert!(text.contains(r.id()), "--help is missing {}", r.id());
        assert!(
            text.contains(r.slug()),
            "--help is missing slug {}",
            r.slug()
        );
        assert!(
            text.contains(r.summary()),
            "--help is missing the summary of {}",
            r.id()
        );
    }
}

#[test]
fn every_rule_has_an_explanation() {
    for r in RuleId::ALL {
        assert!(
            r.explain().len() >= 80,
            "{} needs a substantive --explain rationale",
            r.id()
        );
        for probe in [r.id(), r.slug()] {
            let text =
                explain_text(probe).unwrap_or_else(|| panic!("--explain {probe} resolved nothing"));
            assert!(text.contains(r.explain()));
            assert!(text.contains(r.slug()));
        }
        // Ids resolve case-insensitively (`cs-lint --explain r1`).
        assert!(explain_text(&r.id().to_lowercase()).is_some());
    }
    assert!(explain_text("no-such-rule").is_none());
}

#[test]
fn metadata_table_is_consistent() {
    for (i, r) in RuleId::ALL.iter().enumerate() {
        // ids and slugs are unique.
        for other in &RuleId::ALL[i + 1..] {
            assert_ne!(r.id(), other.id());
            assert_ne!(r.slug(), other.slug());
        }
        // Escapability matches the meta-rule convention.
        let is_meta = r.id().starts_with('E');
        assert_eq!(r.is_escapable(), !is_meta, "{} escapability", r.id());
    }
}

#[test]
fn design_doc_rule_table_lists_exactly_the_rule_set() {
    let design = include_str!("../../../DESIGN.md");
    let section = design
        .split("\n## ")
        .find(|s| s.starts_with("7. Static analysis"))
        .expect("DESIGN.md §7 present");
    // Table rows look like `| D1   | `det-collections`| scope | … |`.
    let rows: Vec<(&str, &str)> = section
        .lines()
        .filter_map(|l| {
            let mut cells = l.strip_prefix('|')?.split('|').map(str::trim);
            let id = cells.next()?;
            let slug = cells.next()?.trim_matches('`');
            let is_id = id.len() == 2 && id.ends_with(|c: char| c.is_ascii_digit());
            is_id.then_some((id, slug))
        })
        .collect();
    let rules: Vec<(&str, &str)> = RuleId::ALL.iter().map(|r| (r.id(), r.slug())).collect();
    assert_eq!(rows, rules, "DESIGN.md §7 table vs rule_table!");
}
