//! Cross-file rule families: R1 RNG-stream discipline, X1 dispatch
//! exhaustiveness.
//!
//! These run over the [`WorkspaceIndex`] after the per-file pass. Raw
//! findings come back *unfiltered*; the driver in `lib.rs` applies each
//! file's allow-escapes so `// cs-lint: allow(rng-stream) — …` works
//! exactly like it does for token rules.

use crate::lexer::{Tok, TokKind};
use crate::rules::{Config, Finding, RuleId};
use crate::symbols::{EventAlphabet, FileIndex, WorkspaceIndex};

/// Run all cross-file rules.
pub fn check_workspace(index: &WorkspaceIndex, cfg: &Config) -> Vec<Finding> {
    let mut out = Vec::new();
    check_rng_streams(index, cfg, &mut out);
    check_dispatch(index, &mut out);
    out
}

/// Index just past the group opened at `open_ix` (`(`/`[`/`{`), tracking
/// all three delimiter kinds together. `None` if unbalanced.
fn skip_balanced(toks: &[Tok], open_ix: usize) -> Option<usize> {
    let mut depth = 0i32;
    let mut i = open_ix;
    while i < toks.len() {
        let t = &toks[i];
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    depth -= 1;
                    if depth == 0 {
                        return Some(i + 1);
                    }
                }
                _ => {}
            }
        }
        i += 1;
    }
    None
}

// ---------------------------------------------------------------- R1 --

/// R1 — det-scope RNGs must be constructed through
/// `Xoshiro256PlusPlus::stream(master, streams::<NAME>)`, with `<NAME>`
/// declared in the sanctioned stream module.
fn check_rng_streams(index: &WorkspaceIndex, cfg: &Config, out: &mut Vec<Finding>) {
    for c in &index.crates {
        if !cfg.det_crates.iter().any(|d| d == &c.name) {
            continue;
        }
        for f in &c.files {
            if f.rel_path == cfg.stream_module {
                continue;
            }
            let toks = &f.lexed.tokens;
            for i in 0..toks.len() {
                if f.masked(i) || toks[i].kind != TokKind::Ident {
                    continue;
                }
                let t = &toks[i];
                let prev_is = |p: &str| i >= 1 && toks[i - 1].is_punct(p);
                let next_is = |p: &str| toks.get(i + 1).is_some_and(|n| n.is_punct(p));

                let raw_ctor = match t.text.as_str() {
                    "new" => {
                        prev_is("::")
                            && i >= 2
                            && toks[i - 2].is_ident("Xoshiro256PlusPlus")
                            && next_is("(")
                    }
                    "seed_from_u64" | "from_entropy" => prev_is("::") && next_is("("),
                    "split_seed" => next_is("("),
                    _ => false,
                };
                if raw_ctor {
                    out.push(Finding {
                        file: f.rel_path.clone(),
                        line: t.line,
                        rule: RuleId::R1,
                        message: format!(
                            "`{}` constructs/seeds an RNG outside the named-stream API; use \
                             `Xoshiro256PlusPlus::stream(master_seed, streams::<NAME>)` with a \
                             stream id declared in {}",
                            t.text, cfg.stream_module
                        ),
                    });
                    continue;
                }

                if matches!(
                    t.text.as_str(),
                    "SmallRng" | "StdRng" | "OsRng" | "ThreadRng"
                ) {
                    out.push(Finding {
                        file: f.rel_path.clone(),
                        line: t.line,
                        rule: RuleId::R1,
                        message: format!(
                            "`{}` is not the workspace RNG; det-scope randomness flows through \
                             Xoshiro256PlusPlus named streams only",
                            t.text
                        ),
                    });
                    continue;
                }

                if t.text == "stream" && prev_is("::") && next_is("(") {
                    check_stream_call(index, cfg, f, i, out);
                }
            }
        }
    }
}

/// Validate one `::stream(…)` call: two args, second a `streams::<NAME>`
/// path with `<NAME>` declared in the stream module.
fn check_stream_call(
    index: &WorkspaceIndex,
    cfg: &Config,
    f: &FileIndex,
    stream_ix: usize,
    out: &mut Vec<Finding>,
) {
    let toks = &f.lexed.tokens;
    let open = stream_ix + 1;
    let Some(close) = skip_balanced(toks, open) else {
        return;
    };
    // Split the argument tokens (open+1 .. close-1) on depth-0 commas.
    let mut args: Vec<(usize, usize)> = Vec::new();
    let mut depth = 0i32;
    let mut start = open + 1;
    for (i, t) in toks.iter().enumerate().take(close - 1).skip(open + 1) {
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                "," if depth == 0 => {
                    args.push((start, i));
                    start = i + 1;
                }
                _ => {}
            }
        }
    }
    if start < close - 1 {
        args.push((start, close - 1));
    }
    let line = toks[stream_ix].line;
    let Some(&(a2s, a2e)) = args.get(1) else {
        return; // not the two-arg stream constructor — some other ::stream
    };
    // The stream id must *end* in `streams :: NAME` (leading path ok).
    let id_ok = a2e - a2s >= 3
        && toks[a2e - 3].is_ident("streams")
        && toks[a2e - 2].is_punct("::")
        && toks[a2e - 1].kind == TokKind::Ident;
    if !id_ok {
        let got: Vec<&str> = toks[a2s..a2e].iter().map(|t| t.text.as_str()).collect();
        out.push(Finding {
            file: f.rel_path.clone(),
            line,
            rule: RuleId::R1,
            message: format!(
                "stream id `{}` is not a named `streams::<NAME>` constant from {}; ad-hoc ids \
                 risk stream collisions",
                got.join(""),
                cfg.stream_module
            ),
        });
        return;
    }
    let name = toks[a2e - 1].text.as_str();
    if index.has_stream_module && !index.stream_consts.iter().any(|s| s == name) {
        out.push(Finding {
            file: f.rel_path.clone(),
            line,
            rule: RuleId::R1,
            message: format!(
                "stream id `streams::{name}` is not declared in {}'s `streams` module \
                 (known: {})",
                cfg.stream_module,
                index.stream_consts.join(", ")
            ),
        });
    }
}

// ---------------------------------------------------------------- X1 --

/// X1 — the Event enum, the `kind_class` dense table and the
/// `World::handle` dispatch match must agree in arity, indices, and
/// names.
fn check_dispatch(index: &WorkspaceIndex, out: &mut Vec<Finding>) {
    for al in &index.alphabets {
        check_kind_table(al, out);
        check_dispatch_match(al, out);
    }
}

fn check_kind_table(al: &EventAlphabet, out: &mut Vec<Finding>) {
    let push = |out: &mut Vec<Finding>, line: u32, message: String| {
        out.push(Finding {
            file: al.file.clone(),
            line,
            rule: RuleId::X1,
            message,
        });
    };

    for v in &al.variants {
        if !al.kind_table.iter().any(|a| &a.variant == v) {
            push(
                out,
                al.kind_fn_line,
                format!(
                    "`kind_class` has no arm for `{}::{v}`; every event kind needs a dense \
                     (index, name) entry",
                    al.enum_name
                ),
            );
        }
    }
    for a in &al.kind_table {
        if !al.variants.iter().any(|v| v == &a.variant) {
            push(
                out,
                a.line,
                format!(
                    "`kind_class` arm `{}::{}` matches no variant of `{}`",
                    al.enum_name, a.variant, al.enum_name
                ),
            );
        }
        match a.index {
            None => push(
                out,
                a.line,
                format!(
                    "`kind_class` arm `{}::{}` does not return a literal `(index, \"name\")` \
                     pair; telemetry's per-kind table needs literal indices",
                    al.enum_name, a.variant
                ),
            ),
            Some(ix) => {
                if al
                    .kind_table
                    .iter()
                    .any(|b| b.line < a.line && b.index == Some(ix))
                {
                    push(
                        out,
                        a.line,
                        format!(
                            "`kind_class` index {ix} for `{}::{}` is already used; indices must \
                             be unique",
                            al.enum_name, a.variant
                        ),
                    );
                }
            }
        }
        match a.name.as_deref() {
            None | Some("") => {}
            Some(n) => {
                if al
                    .kind_table
                    .iter()
                    .any(|b| b.line < a.line && b.name.as_deref() == Some(n))
                {
                    push(
                        out,
                        a.line,
                        format!("`kind_class` name \"{n}\" is already used; names must be unique"),
                    );
                }
            }
        }
    }
    // Dense contiguity: the set of indices must be exactly 0..N-1.
    let n = al.variants.len();
    let mut have: Vec<u32> = al.kind_table.iter().filter_map(|a| a.index).collect();
    have.sort_unstable();
    have.dedup();
    let want: Vec<u32> = (0..u32::try_from(n).unwrap_or(u32::MAX)).collect();
    if !have.is_empty() && have != want && al.kind_table.len() == n {
        push(
            out,
            al.kind_fn_line,
            format!(
                "`kind_class` indices are not the dense range 0..{n}; cs-telemetry indexes \
                 its per-kind table by them (got {have:?})"
            ),
        );
    }
}

fn check_dispatch_match(al: &EventAlphabet, out: &mut Vec<Finding>) {
    if al.dispatch_fn_line == 0 || al.dispatch_has_wildcard {
        return;
    }
    for v in &al.variants {
        if !al.dispatch_arms.iter().any(|a| &a.variant == v) {
            out.push(Finding {
                file: al.file.clone(),
                line: al.dispatch_fn_line,
                rule: RuleId::X1,
                message: format!(
                    "dispatch `handle` has no arm for `{}::{v}`; the event would be dropped \
                     on the floor",
                    al.enum_name
                ),
            });
        }
    }
    for a in &al.dispatch_arms {
        if !al.variants.iter().any(|v| v == &a.variant) {
            out.push(Finding {
                file: al.file.clone(),
                line: a.line,
                rule: RuleId::X1,
                message: format!(
                    "dispatch arm `{}::{}` matches no variant of `{}`",
                    al.enum_name, a.variant, al.enum_name
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbols::FileIndex;

    fn ws(files: Vec<(&str, &str, &str)>) -> WorkspaceIndex {
        let built = files
            .into_iter()
            .map(|(krate, crate_rel, src)| {
                FileIndex::build(
                    krate,
                    &format!("crates/{krate}/{crate_rel}"),
                    crate_rel,
                    crate_rel == "src/lib.rs",
                    src,
                )
            })
            .collect();
        WorkspaceIndex::build(built, &Config::default())
    }

    fn slugs(out: &[Finding]) -> Vec<(&str, u32)> {
        out.iter().map(|f| (f.rule.id(), f.line)).collect()
    }

    #[test]
    fn r1_flags_raw_ctor_adhoc_stream_and_unknown_stream() {
        let index = ws(vec![
            (
                "sim",
                "src/rng.rs",
                "pub mod streams {\n    pub const ARRIVALS: u64 = 1;\n}\n",
            ),
            (
                "proto",
                "src/a.rs",
                "fn f() {\n    let a = Xoshiro256PlusPlus::new(1);\n    let b = Xoshiro256PlusPlus::stream(seed, CHANNEL_STREAM);\n    let c = Xoshiro256PlusPlus::stream(seed, streams::NOPE);\n    let d = Xoshiro256PlusPlus::stream(seed, streams::ARRIVALS);\n}\n",
            ),
        ]);
        let out = check_workspace(&index, &Config::default());
        assert_eq!(slugs(&out), vec![("R1", 2), ("R1", 3), ("R1", 4)]);
        assert!(out[1].message.contains("CHANNEL_STREAM"));
        assert!(out[2].message.contains("NOPE"));
    }

    #[test]
    fn r1_ignores_non_det_crates_and_the_stream_module() {
        let index = ws(vec![
            (
                "sim",
                "src/rng.rs",
                "pub mod streams { pub const A: u64 = 1; }\nimpl X { fn stream(m: u64, s: u64) -> Self { Self::new(split_seed(m, s)) } }\n",
            ),
            ("cli", "src/run.rs", "fn f() { let r = Xoshiro256PlusPlus::new(1); }\n"),
        ]);
        let out = check_workspace(&index, &Config::default());
        assert!(out.is_empty(), "{out:?}");
    }

    const GOOD_WORLD: &str = r#"
pub enum Event { A(u32), B, C }
impl Event {
    pub fn kind_class(&self) -> (u8, &'static str) {
        match self {
            Event::A(_) => (0, "a"),
            Event::B => (1, "b"),
            Event::C => (2, "c"),
        }
    }
}
impl World for W {
    fn handle(&mut self, event: Event) {
        match event {
            Event::A(x) => self.a(x),
            Event::B => {}
            Event::C => self.c(),
        }
    }
}
"#;

    #[test]
    fn x1_clean_alphabet_has_no_findings() {
        let index = ws(vec![("proto", "src/world.rs", GOOD_WORLD)]);
        assert!(check_workspace(&index, &Config::default()).is_empty());
    }

    #[test]
    fn x1_flags_missing_dispatch_arm() {
        let src = GOOD_WORLD.replace("            Event::C => self.c(),\n", "");
        let index = ws(vec![("proto", "src/world.rs", &src)]);
        let out = check_workspace(&index, &Config::default());
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("no arm for `Event::C`"));
    }

    #[test]
    fn x1_flags_missing_kind_and_nondense_indices() {
        let src = GOOD_WORLD.replace("Event::C => (2, \"c\"),\n", "");
        let index = ws(vec![("proto", "src/world.rs", &src)]);
        let out = check_workspace(&index, &Config::default());
        assert!(out
            .iter()
            .any(|f| f.message.contains("`kind_class` has no arm for `Event::C`")));

        let src2 = GOOD_WORLD.replace("(2, \"c\")", "(7, \"c\")");
        let index2 = ws(vec![("proto", "src/world.rs", &src2)]);
        let out2 = check_workspace(&index2, &Config::default());
        assert!(
            out2.iter().any(|f| f.message.contains("dense range")),
            "{out2:?}"
        );
    }

    #[test]
    fn x1_wildcard_dispatch_skips_exhaustiveness() {
        let src = GOOD_WORLD.replace(
            "            Event::C => self.c(),\n",
            "            _ => {}\n",
        );
        let index = ws(vec![("proto", "src/world.rs", &src)]);
        assert!(check_workspace(&index, &Config::default()).is_empty());
    }
}
