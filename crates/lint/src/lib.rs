//! # cs-lint — workspace-wide determinism & protocol-safety static analyzer
//!
//! The paper reproduction in this workspace is only trustworthy if a run
//! is a pure function of `(configuration, seed)`: golden trace hashes
//! catch nondeterminism *after* it ships, `cs-lint` stops it at the
//! source level. It walks every `.rs` file under `crates/` with a small
//! comment/string-aware lexer (no `syn`; the shim set is offline-only)
//! and enforces project-specific rules with per-crate scoping. The rule
//! set is [`RuleId`]: one variant per rule, generated with its id, slug,
//! scope, summary and rationale from the single `rule_table!` in
//! `rules.rs` — the table `--help`, `--list-rules`, `--explain <RULE>`
//! and the SARIF rule descriptors print, and the one DESIGN.md §7 is
//! tested against.
//!
//! Every rule is a scan over one file's token stream. Two invariants
//! that used to be cross-file rules are enforced by the compiler
//! instead: a stream id is a `cs_sim::rng::StreamId`, which only the
//! `streams` table can mint, and the event alphabet's `kind_class`,
//! `manager` and `World::handle` are wildcard-free `match`es (DESIGN.md
//! §11).
//!
//! Test code (`#[cfg(test)]` items, `tests/`, `benches/`, `examples/`,
//! and test-only modules named `tests.rs` / `*_tests.rs`) is exempt.
//! Individual sites are waived with an inline escape that *must* carry a
//! reason:
//!
//! ```text
//! let i = (n % k) as u32; // cs-lint: allow(lossy-cast) — n % k < k which is u32
//! ```
//!
//! See DESIGN.md §7 for the rule table with rationale.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lexer;
pub mod rules;
pub mod sarif;

use std::fs;
use std::path::{Path, PathBuf};

pub use rules::{Config, FileCtx, Finding, RuleId};

/// Lint a single source string as if it were `rel_path` inside
/// `crate_name`. This is the entry point fixture tests use.
pub fn lint_source(
    crate_name: &str,
    rel_path: &str,
    is_crate_root: bool,
    src: &str,
) -> Vec<Finding> {
    lint_source_with(crate_name, rel_path, is_crate_root, src, &Config::default())
}

/// [`lint_source`] with an explicit [`Config`].
pub fn lint_source_with(
    crate_name: &str,
    rel_path: &str,
    is_crate_root: bool,
    src: &str,
    cfg: &Config,
) -> Vec<Finding> {
    let lexed = lexer::lex(src);
    let mask = lexer::test_mask(&lexed.tokens);
    let ctx = FileCtx {
        crate_name,
        rel_path,
        is_crate_root,
        line_count: u32::try_from(src.lines().count()).unwrap_or(u32::MAX),
    };
    rules::lint_tokens(&ctx, &lexed, &mask, cfg)
}

/// One non-test source file found by [`workspace_sources`].
pub struct SourceFile {
    /// Crate directory name under `crates/` (e.g. `proto`).
    pub crate_name: String,
    /// Workspace-relative path with forward slashes.
    pub rel_path: String,
    /// True for `src/lib.rs` / `src/main.rs`.
    pub is_crate_root: bool,
    /// File contents.
    pub src: String,
}

/// Walk `<root>/crates/**` and read every non-test `.rs` file, sorted by
/// path so everything derived from the walk is deterministic.
pub fn workspace_sources(root: &Path) -> Result<Vec<SourceFile>, String> {
    let crates_dir = root.join("crates");
    if !crates_dir.is_dir() {
        return Err(format!(
            "{} has no crates/ directory; pass the workspace root",
            root.display()
        ));
    }
    let mut out: Vec<SourceFile> = Vec::new();
    for crate_dir in sorted_dirs(&crates_dir)? {
        let mut files: Vec<PathBuf> = Vec::new();
        collect_rs_files(&crate_dir, &mut files)?;
        files.sort();
        for f in files {
            if is_test_context(&f, &crate_dir) {
                continue;
            }
            let crate_rel = rel_display(&f, &crate_dir);
            out.push(SourceFile {
                crate_name: file_name_of(&crate_dir),
                rel_path: rel_display(&f, root),
                is_crate_root: crate_rel == "src/lib.rs" || crate_rel == "src/main.rs",
                src: fs::read_to_string(&f)
                    .map_err(|e| format!("failed to read {}: {e}", f.display()))?,
            });
        }
    }
    Ok(out)
}

/// Lint every file [`workspace_sources`] finds. Findings come back sorted
/// by `(file, line, rule)` so output is deterministic.
pub fn lint_workspace(root: &Path, cfg: &Config) -> Result<Vec<Finding>, String> {
    let mut findings: Vec<Finding> = Vec::new();
    for f in workspace_sources(root)? {
        findings.extend(lint_source_with(
            &f.crate_name,
            &f.rel_path,
            f.is_crate_root,
            &f.src,
            cfg,
        ));
    }
    findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    Ok(findings)
}

/// Subdirectories of `dir`, sorted by name for deterministic traversal.
fn sorted_dirs(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let rd = fs::read_dir(dir).map_err(|e| format!("failed to list {}: {e}", dir.display()))?;
    let mut out: Vec<PathBuf> = Vec::new();
    for entry in rd {
        let entry = entry.map_err(|e| format!("failed to list {}: {e}", dir.display()))?;
        let p = entry.path();
        if p.is_dir() {
            out.push(p);
        }
    }
    out.sort();
    Ok(out)
}

/// Recursively collect `.rs` files under `dir`.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let rd = fs::read_dir(dir).map_err(|e| format!("failed to list {}: {e}", dir.display()))?;
    for entry in rd {
        let entry = entry.map_err(|e| format!("failed to list {}: {e}", dir.display()))?;
        let p = entry.path();
        if p.is_dir() {
            // `target/` never nests under crates/, but be safe.
            if file_name_of(&p) != "target" {
                collect_rs_files(&p, out)?;
            }
        } else if p.extension().map(|e| e == "rs").unwrap_or(false) {
            out.push(p);
        }
    }
    Ok(())
}

/// Is this file test-context (exempt from all content rules)?
///
/// Covers the cargo test/bench/example roots plus test-only source
/// modules included via `#[cfg(test)] mod foo_tests;` — the token mask
/// only sees `#[cfg(test)]` *inside* a file, so whole-file test modules
/// are recognized by the `tests.rs` / `*_tests.rs` naming convention.
fn is_test_context(file: &Path, crate_dir: &Path) -> bool {
    let rel = rel_display(file, crate_dir);
    if rel.starts_with("tests/") || rel.starts_with("benches/") || rel.starts_with("examples/") {
        return true;
    }
    let stem = file
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_default();
    stem == "tests" || stem.ends_with("_tests")
}

fn file_name_of(p: &Path) -> String {
    p.file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default()
}

fn rel_display(p: &Path, root: &Path) -> String {
    p.strip_prefix(root)
        .unwrap_or(p)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Render findings as JSON (stable field order, findings pre-sorted).
pub fn to_json(findings: &[Finding]) -> String {
    let mut s = String::from("{\n  \"findings\": [");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n    {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"slug\": \"{}\", \"message\": \"{}\"}}",
            json_escape(&f.file),
            f.line,
            f.rule.id(),
            f.rule.slug(),
            json_escape(&f.message)
        ));
    }
    if !findings.is_empty() {
        s.push_str("\n  ");
    }
    s.push_str(&format!("],\n  \"count\": {}\n}}\n", findings.len()));
    s
}

/// The `--list-rules` table. Derived from the rule-metadata table in
/// `rules.rs`, so it cannot drift from the rule set.
pub fn list_rules_text() -> String {
    let mut s = String::from("id  slug                    escapable  scope\n");
    for r in RuleId::ALL {
        s.push_str(&format!(
            "{:<3} {:<23} {:<10} {}\n",
            r.id(),
            r.slug(),
            if r.is_escapable() { "yes" } else { "no" },
            r.scope()
        ));
    }
    s
}

/// The CLI `--help` text. The per-rule lines are derived from the same
/// rule-metadata table as `--list-rules` and `--explain`.
pub fn help_text() -> String {
    let mut s = String::from(
        "cs-lint [ROOT] [options] — workspace determinism & protocol-safety lints\n\
         \n\
         options:\n\
         \x20 --format text|json|sarif   output format (default text)\n\
         \x20 --deny                     exit nonzero when findings remain\n\
         \x20 --list-rules               print the rule table\n\
         \x20 --explain RULE             print a rule's rationale (id or slug)\n\
         \n\
         rules (see DESIGN.md §7 and §11):\n",
    );
    for r in RuleId::ALL {
        s.push_str(&format!(
            "  {:<3} {:<23} {}\n",
            r.id(),
            r.slug(),
            r.summary()
        ));
    }
    s
}

/// The `--explain <RULE>` text for a rule id or slug.
pub fn explain_text(name: &str) -> Option<String> {
    let r = RuleId::lookup(name)?;
    Some(format!(
        "{} ({})\nscope: {}\nescapable: {}\n\n{}\n{}\n",
        r.id(),
        r.slug(),
        r.scope(),
        if r.is_escapable() {
            "yes — `// cs-lint: allow(<slug>) — <why safe>`"
        } else {
            "no"
        },
        r.summary(),
        r.explain()
    ))
}

pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_context_recognizes_test_module_filenames() {
        let crate_dir = Path::new("crates/proto");
        let t = |p: &str| is_test_context(&crate_dir.join(p), crate_dir);
        assert!(t("tests/world_smoke.rs"));
        assert!(t("src/partnership_tests.rs"));
        assert!(t("src/foo/tests.rs"));
        assert!(!t("src/partnership.rs"));
        assert!(!t("src/attests.rs"), "suffix match must respect `_`");
    }

    #[test]
    fn json_escaping() {
        let f = vec![Finding {
            file: "a\"b.rs".to_string(),
            line: 3,
            rule: RuleId::D1,
            message: "x\ny".to_string(),
        }];
        let j = to_json(&f);
        assert!(j.contains("a\\\"b.rs"));
        assert!(j.contains("x\\ny"));
        assert!(j.contains("\"count\": 1"));
    }
}
