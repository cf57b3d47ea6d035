//! The source policy clippy cannot state by itself (DESIGN.md §7).
//!
//! `cargo clippy --all-targets -- -D warnings` enforces the determinism
//! and panic rules, but only where a crate turns them on, and it has no
//! rule for a missing `#![forbid(unsafe_code)]` or a file that regrew
//! past the size the manager split left it at. These are plain text scans
//! of the tree.

use std::fs;
use std::path::{Path, PathBuf};

/// Crates whose behaviour must be a pure function of `(config, seed)`.
const DETERMINISTIC: [&str; 6] = ["core", "net", "proto", "sim", "telemetry", "workload"];

/// The rule sets a `crates/*` root turns on, as its policy attribute
/// spells them: D1, D2, R1 (`clippy.toml`) and C1 everywhere, C2 in the
/// crates whose arithmetic is audited for lossy casts, C3 everywhere but
/// `cli`, which may panic on an unrecoverable error.
const BASE: &str = "clippy::disallowed_methods,clippy::disallowed_types,clippy::float_cmp";
const LOSSY_CASTS: &str = "clippy::cast_possible_truncation,clippy::cast_sign_loss";
const PANICS: &str = "clippy::unwrap_used,clippy::expect_used,clippy::panic,clippy::unreachable,clippy::todo,clippy::unimplemented";

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("tests/ sits one level below the workspace root")
}

/// The package directories under `dir` (`crates` or `shims`), sorted.
fn packages(dir: &str) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = fs::read_dir(root().join(dir))
        .expect("list packages")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.join("Cargo.toml").is_file())
        .collect();
    out.sort();
    out
}

/// `src/lib.rs` and/or `src/main.rs` of a package.
fn crate_roots(package: &Path) -> Vec<PathBuf> {
    ["src/lib.rs", "src/main.rs"]
        .map(|f| package.join(f))
        .into_iter()
        .filter(|p| p.is_file())
        .collect()
}

/// Every `.rs` file below `dir`.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("list sources") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The file's text with all whitespace removed, so a match does not
/// depend on how rustfmt wrapped an attribute.
fn squeezed(path: &Path) -> String {
    read(path).split_whitespace().collect()
}

fn rel(path: &Path) -> String {
    let rel = path.strip_prefix(root()).expect("inside the workspace");
    rel.to_string_lossy().replace('\\', "/")
}

/// S1: the workspace is safe Rust by policy, and every crate root says so.
#[test]
fn crate_roots_forbid_unsafe_code() {
    let packages = [packages("crates"), packages("shims")].concat();
    assert!(packages.len() > 10, "found only {packages:?}");
    for package in &packages {
        let roots = crate_roots(package);
        assert!(!roots.is_empty(), "{}: no crate root", package.display());
        for root in roots {
            assert!(
                read(&root).contains("#![forbid(unsafe_code)]"),
                "{}: missing #![forbid(unsafe_code)]",
                rel(&root)
            );
        }
    }
}

/// A new crate cannot silently opt out: every member inherits the
/// workspace lints, and every `crates/*` root turns on its rule set for
/// non-test code, in the order above.
#[test]
fn every_crate_inherits_the_lint_policy() {
    let members = [
        packages("crates"),
        packages("shims"),
        vec![root().join("tests")],
    ]
    .concat();
    for member in &members {
        assert!(
            read(&member.join("Cargo.toml")).contains("\n[lints]\nworkspace = true\n"),
            "{}: Cargo.toml must inherit `[lints] workspace = true`",
            rel(member)
        );
    }
    for package in packages("crates") {
        let krate = package.file_name().and_then(|n| n.to_str());
        let mut want = vec![BASE];
        if matches!(krate, Some("model" | "proto")) {
            want.push(LOSSY_CASTS);
        }
        if krate != Some("cli") {
            want.push(PANICS);
        }
        let attr = format!("#![cfg_attr(not(test),warn({}))]", want.join(","));
        for root in crate_roots(&package) {
            assert!(
                squeezed(&root).contains(&attr),
                "{}: want {attr}",
                rel(&root)
            );
        }
    }
}

/// M1: the manager split (DESIGN.md §9) stays split. No non-test source
/// file of a deterministic crate grows past 800 lines.
#[test]
fn deterministic_files_stay_under_800_lines() {
    for krate in DETERMINISTIC {
        let mut files = Vec::new();
        rust_files(&root().join("crates").join(krate).join("src"), &mut files);
        for file in files {
            let stem = file.file_stem().and_then(|s| s.to_str()).unwrap_or("");
            if stem == "tests" || stem.ends_with("_tests") {
                continue;
            }
            let lines = read(&file).lines().count();
            assert!(lines <= 800, "{}: {lines} lines > 800", rel(&file));
        }
    }
}

/// The wall-clock quarantine is closed: the only escapes from
/// `disallowed_*` are the two modules whose wall-clock measurements stay
/// out of simulation state (the run's instrument set, the CLI's manifest
/// timing) and the RNG module that implements the named-stream API. A
/// new one anywhere else must be argued into this list.
#[test]
fn disallowed_escapes_stay_in_the_wall_clock_quarantine() {
    const QUARANTINE: [&str; 3] = [
        "crates/cli/src/main.rs",
        "crates/core/src/instruments.rs",
        "crates/sim/src/rng.rs",
    ];
    let mut files = Vec::new();
    rust_files(&root().join("crates"), &mut files);
    let mut escaped: Vec<String> = files
        .iter()
        .filter(|f| squeezed(f).contains("expect(clippy::disallowed_"))
        .map(|f| rel(f))
        .collect();
    escaped.sort();
    assert_eq!(escaped, QUARANTINE);
}

/// The crates that model the system and the paper's own measurement:
/// the simulator, network, log server, protocol, workload, baseline,
/// log analysis and closed-form model. The operator's view (telemetry)
/// and the JSON files are attached from outside, by `coolstreaming` and
/// `cs-cli` (DESIGN.md §8).
const UNINSTRUMENTED: [&str; 8] = [
    "analysis", "baseline", "logging", "model", "net", "proto", "sim", "workload",
];

/// The package names in a manifest's `[dependencies]` table.
fn dependencies(manifest: &str) -> Vec<String> {
    manifest
        .lines()
        .map(str::trim)
        .skip_while(|l| *l != "[dependencies]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| l.split(['=', '.']).next().unwrap_or(l).trim().to_string())
        .collect()
}

/// Those crates build with no telemetry or JSON crate: each depends only
/// on others of the set, so none of `cs-telemetry`, `serde`,
/// `serde_derive` and `serde_json` reaches them, not even transitively.
#[test]
fn model_crates_build_without_telemetry_or_json() {
    let allowed: Vec<String> = UNINSTRUMENTED.map(|k| format!("cs-{k}")).to_vec();
    let mut edges = 0;
    for krate in UNINSTRUMENTED {
        let manifest = read(&root().join("crates").join(krate).join("Cargo.toml"));
        for dep in dependencies(&manifest) {
            assert!(
                allowed.contains(&dep),
                "crates/{krate} depends on `{dep}`, outside {allowed:?}"
            );
            edges += 1;
        }
    }
    // The parser found the tables: cs-proto alone has three entries.
    assert!(edges >= 10, "read only {edges} dependencies");
}
