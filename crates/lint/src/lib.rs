//! # cs-lint — workspace-wide determinism & protocol-safety static analyzer
//!
//! The paper reproduction in this workspace is only trustworthy if a run
//! is a pure function of `(configuration, seed)`: golden trace hashes
//! catch nondeterminism *after* it ships, `cs-lint` stops it at the
//! source level. It walks every `.rs` file under `crates/` with a small
//! comment/string-aware lexer (no `syn`; the shim set is offline-only)
//! and enforces project-specific rules with per-crate scoping:
//!
//! | id | slug                | what it rejects |
//! |----|---------------------|-----------------|
//! | D1 | `det-collections`   | `HashMap`/`HashSet` in deterministic crates |
//! | D2 | `ambient-entropy`   | `Instant::now`, `SystemTime`, `thread_rng`, `rand::random` |
//! | C1 | `float-eq`          | float `==` / `!=` comparisons |
//! | C2 | `lossy-cast`        | lossy `as` numeric casts in `cs-proto`/`cs-model` |
//! | C3 | `panic-in-lib`      | `unwrap`/`expect`/`panic!`-family in library code |
//! | S1 | `forbid-unsafe`     | crate roots missing `#![forbid(unsafe_code)]` |
//! | M1 | `file-size`         | det-scope source files over 800 lines (god-object backstop) |
//! | R1 | `rng-stream`        | RNGs constructed outside the named-stream API |
//! | X1 | `dispatch-exhaustive` | Event kinds / `kind_class` table / dispatch match out of sync |
//!
//! D1–M1 are token-local. R1/X1 are *structural and cross-file*: a
//! brace-tree item parser ([`parse`]) recovers modules, impls, fns, and
//! fields from the token stream, and a per-crate symbol table
//! ([`symbols`]) is built over the whole workspace before [`cross`]
//! checks run. Run `cs-lint --explain <RULE>` for any rule's rationale.
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
//! See DESIGN.md §7 for the full rule rationale.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod cross;
pub mod lexer;
pub mod parse;
pub mod rules;
pub mod sarif;
pub mod symbols;

use std::fs;
use std::path::{Path, PathBuf};

pub use rules::{Config, FileCtx, Finding, RuleId};
pub use symbols::WorkspaceIndex;

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

/// Walk `<root>/crates/**` and build a [`symbols::FileIndex`] for every
/// non-test `.rs` file (lexed, test-masked, item-parsed, sorted by path).
fn index_files(root: &Path) -> Result<Vec<symbols::FileIndex>, String> {
    let crates_dir = root.join("crates");
    if !crates_dir.is_dir() {
        return Err(format!(
            "{} has no crates/ directory; pass the workspace root",
            root.display()
        ));
    }
    let mut out: Vec<symbols::FileIndex> = Vec::new();
    for crate_dir in sorted_dirs(&crates_dir)? {
        let crate_name = file_name_of(&crate_dir);
        let mut files: Vec<PathBuf> = Vec::new();
        collect_rs_files(&crate_dir, &mut files)?;
        files.sort();
        for f in files {
            if is_test_context(&f, &crate_dir) {
                continue;
            }
            let rel = rel_display(&f, root);
            let crate_rel = f
                .strip_prefix(&crate_dir)
                .map(|p| p.to_string_lossy().replace('\\', "/"))
                .unwrap_or_default();
            let src = fs::read_to_string(&f)
                .map_err(|e| format!("failed to read {}: {e}", f.display()))?;
            let is_root = crate_rel == "src/lib.rs" || crate_rel == "src/main.rs";
            out.push(symbols::FileIndex::build(
                &crate_name,
                &rel,
                &crate_rel,
                is_root,
                &src,
            ));
        }
    }
    Ok(out)
}

/// Build the workspace-wide symbol table (exposed for self-tests: the
/// workspace-clean suite asserts the index sees the facts the cross-file
/// rules depend on).
pub fn build_index(root: &Path, cfg: &Config) -> Result<WorkspaceIndex, String> {
    Ok(WorkspaceIndex::build(index_files(root)?, cfg))
}

/// Walk `<root>/crates/**` and lint every non-test `.rs` file: the
/// per-file token rules, then the cross-file R1/X1 rules over the
/// workspace symbol table. Findings come back sorted by
/// `(file, line, rule)` so output is deterministic.
pub fn lint_workspace(root: &Path, cfg: &Config) -> Result<Vec<Finding>, String> {
    let files = index_files(root)?;
    let mut findings: Vec<Finding> = Vec::new();
    for f in &files {
        let ctx = FileCtx {
            crate_name: &f.crate_name,
            rel_path: &f.rel_path,
            is_crate_root: f.is_crate_root,
            line_count: f.line_count,
        };
        findings.extend(rules::lint_tokens(&ctx, &f.lexed, &f.mask, cfg));
    }

    let index = WorkspaceIndex::build(files, cfg);
    let cross_raw = cross::check_workspace(&index, cfg);
    // Cross-file findings honor the same inline escapes as token rules;
    // E1/E2 meta-findings were already emitted by the per-file pass.
    for f in cross_raw {
        let escapes = index
            .crates
            .iter()
            .flat_map(|c| c.files.iter())
            .find(|fi| fi.rel_path == f.file)
            .map(|fi| fi.lexed.escapes.as_slice())
            .unwrap_or(&[]);
        findings.extend(rules::filter_escapes(vec![f], escapes));
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
    let rel = file
        .strip_prefix(crate_dir)
        .map(|p| p.to_string_lossy().replace('\\', "/"))
        .unwrap_or_default();
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
         \x20 --baseline PATH            suppress findings recorded in PATH\n\
         \x20                            (default: <ROOT>/lint-baseline.json if present)\n\
         \x20 --no-baseline              ignore any baseline file\n\
         \x20 --write-baseline PATH      record the current findings to PATH and exit\n\
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
