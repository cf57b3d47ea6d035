//! `cs-lint` CLI: lint the workspace, print findings, gate CI.
//!
//! ```text
//! cs-lint [ROOT] [--format text|json|sarif] [--deny]
//!         [--list-rules] [--explain RULE]
//! ```
//!
//! Exit status is 0 unless `--deny` is given and findings exist (or the
//! workspace cannot be read). `ROOT` defaults to the nearest ancestor of
//! the current directory containing `crates/` (so both `cargo run -p
//! cs-lint` from the root and invocations from a crate dir work).

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use cs_lint::sarif::to_sarif;
use cs_lint::{explain_text, help_text, lint_workspace, list_rules_text, to_json, Config, RuleId};

enum Format {
    Text,
    Json,
    Sarif,
}

struct Args {
    root: Option<PathBuf>,
    format: Format,
    deny: bool,
    list_rules: bool,
    explain: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: None,
        format: Format::Text,
        deny: false,
        list_rules: false,
        explain: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--deny" => args.deny = true,
            "--list-rules" => args.list_rules = true,
            "--explain" => match it.next() {
                Some(r) => args.explain = Some(r),
                None => return Err("--explain expects a rule id or slug".to_string()),
            },
            "--format" => match it.next().as_deref() {
                Some("json") => args.format = Format::Json,
                Some("text") => args.format = Format::Text,
                Some("sarif") => args.format = Format::Sarif,
                other => {
                    return Err(format!(
                        "--format expects `text`, `json`, or `sarif`, got {}",
                        other.unwrap_or("nothing")
                    ))
                }
            },
            "--help" | "-h" => {
                print!("{}", help_text());
                std::process::exit(0);
            }
            _ if a.starts_with('-') => return Err(format!("unknown flag {a}")),
            _ => args.root = Some(PathBuf::from(a)),
        }
    }
    Ok(args)
}

/// Find the workspace root: walk up from cwd until a `crates/` dir shows up.
fn discover_root() -> Result<PathBuf, String> {
    let mut dir = std::env::current_dir().map_err(|e| format!("cannot read cwd: {e}"))?;
    loop {
        if dir.join("crates").is_dir() {
            return Ok(dir);
        }
        if !dir.pop() {
            return Err("no ancestor directory contains crates/; pass ROOT explicitly".to_string());
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cs-lint: {e}");
            return ExitCode::from(2);
        }
    };

    if args.list_rules {
        print!("{}", list_rules_text());
        return ExitCode::SUCCESS;
    }

    if let Some(name) = &args.explain {
        return match explain_text(name) {
            Some(text) => {
                print!("{text}");
                ExitCode::SUCCESS
            }
            None => {
                eprintln!(
                    "cs-lint: unknown rule `{name}`; known: {}",
                    RuleId::ALL
                        .iter()
                        .map(|r| format!("{} ({})", r.id(), r.slug()))
                        .collect::<Vec<_>>()
                        .join(", ")
                );
                ExitCode::from(2)
            }
        };
    }

    let root = match args.root.map(Ok).unwrap_or_else(discover_root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cs-lint: {e}");
            return ExitCode::from(2);
        }
    };

    let findings = match lint_workspace(&root, &Config::default()) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("cs-lint: {e}");
            return ExitCode::from(2);
        }
    };

    match args.format {
        Format::Json => print!("{}", to_json(&findings)),
        Format::Sarif => print!("{}", to_sarif(&findings, args.deny)),
        Format::Text => {
            let severity = if args.deny { "error" } else { "warning" };
            for f in &findings {
                println!(
                    "{}:{}: {severity}[{}]: {} ({})",
                    f.file,
                    f.line,
                    f.rule.id(),
                    f.message,
                    f.rule.slug()
                );
            }
        }
    }
    // On stderr for every format, so a CI log names the count even when
    // stdout is a JSON/SARIF document redirected to a file.
    let escapable = findings
        .iter()
        .filter(|f| !matches!(f.rule, RuleId::E1 | RuleId::E2))
        .count();
    eprintln!(
        "cs-lint: {} finding(s) ({} rule, {} escape-syntax) in {}",
        findings.len(),
        escapable,
        findings.len() - escapable,
        root.display()
    );
    if args.deny && !findings.is_empty() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
