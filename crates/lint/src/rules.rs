//! The cs-lint rule set.
//!
//! Every rule is a pure function over a [`FileCtx`] — the lexed token
//! stream of one file plus crate/path metadata — pushing [`Finding`]s.
//! Scoping (which crates a rule applies to) lives in [`Config`], and the
//! `#[cfg(test)]` exemption plus allow-escape filtering are applied
//! centrally in [`lint_tokens`].

use crate::lexer::{AllowEscape, Lexed, Tok, TokKind};

/// The single rule-metadata table.
///
/// Everything user-visible about a rule — its short id, escape slug,
/// scope line (shown by `--list-rules`), one-line summary (shown in
/// `--help`), and long-form rationale (shown by `--explain`) — is
/// declared *once* here; the enum, the accessor methods, and
/// [`RuleId::ALL`] are generated from the same invocation so CLI text
/// cannot drift from the rule set (the sync is also asserted by tests).
macro_rules! rule_table {
    ($( $variant:ident {
        id: $id:literal,
        slug: $slug:literal,
        escapable: $esc:literal,
        scope: $scope:literal,
        summary: $summary:literal,
        explain: $explain:literal $(,)?
    } ),+ $(,)?) => {
        /// Rule identifiers. `E1`/`E2` are meta-rules about the escape
        /// syntax itself (missing reason, unknown rule slug).
        #[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
        pub enum RuleId {
            $( #[doc = $summary] $variant, )+
        }

        impl RuleId {
            /// Every rule, in severity-sort order.
            pub const ALL: &'static [RuleId] = &[ $( RuleId::$variant, )+ ];

            /// Short id (`D1`).
            pub fn id(self) -> &'static str {
                match self { $( RuleId::$variant => $id, )+ }
            }

            /// Human slug, also the rule name used inside an
            /// `allow(...)` escape.
            pub fn slug(self) -> &'static str {
                match self { $( RuleId::$variant => $slug, )+ }
            }

            /// May an inline allow-escape comment waive this rule?
            pub fn is_escapable(self) -> bool {
                match self { $( RuleId::$variant => $esc, )+ }
            }

            /// Where the rule applies (one line, for `--list-rules`).
            pub fn scope(self) -> &'static str {
                match self { $( RuleId::$variant => $scope, )+ }
            }

            /// One-line summary (for `--help` / `--list-rules`).
            pub fn summary(self) -> &'static str {
                match self { $( RuleId::$variant => $summary, )+ }
            }

            /// Long-form rationale (for `--explain`), mirroring DESIGN.md.
            pub fn explain(self) -> &'static str {
                match self { $( RuleId::$variant => $explain, )+ }
            }
        }
    };
}

rule_table! {
    D1 {
        id: "D1",
        slug: "det-collections",
        escapable: true,
        scope: "deterministic crates (proto, sim, core, net, workload, telemetry)",
        summary: "Nondeterministic hash collections in deterministic crates.",
        explain: "Golden trace hashes require every run to be a pure function of \
(configuration, seed). std's HashMap/HashSet iterate in randomized order (SipHash keys \
are seeded from the OS), so any iteration that feeds protocol decisions or metric \
output perturbs the trace. Use BTreeMap/BTreeSet, or cs-sim's DetMap/DetSet wrappers.",
    },
    D2 {
        id: "D2",
        slug: "ambient-entropy",
        escapable: true,
        scope: "all crates except crates/sim/src/rng.rs",
        summary: "Wall-clock time or ambient randomness.",
        explain: "Instant::now, SystemTime, thread_rng and rand::random read state the \
seed does not control, so two runs with identical configuration diverge. All time must \
come from SimTime and all randomness from the seeded workspace RNG; the only sanctioned \
entropy source is crates/sim/src/rng.rs.",
    },
    C1 {
        id: "C1",
        slug: "float-eq",
        escapable: true,
        scope: "all crates",
        summary: "Float `==` / `!=` comparison.",
        explain: "Exact float equality is brittle under re-association and optimization \
level, and the paper's rate/continuity metrics are all f64. Compare against an explicit \
tolerance, or restructure so the comparison is on integers (block counts, tick indices).",
    },
    C2 {
        id: "C2",
        slug: "lossy-cast",
        escapable: true,
        scope: "proto, model",
        summary: "Potentially lossy `as` numeric cast.",
        explain: "`as` silently truncates and wraps. In the protocol and analytical-model \
crates a lossy cast corrupts block indices or rates without any error path. Use \
From/TryFrom, or escape with the range argument written down next to the cast.",
    },
    C3 {
        id: "C3",
        slug: "panic-in-lib",
        escapable: true,
        scope: "library crates (all but cli, bench)",
        summary: "`unwrap`/`expect`/`panic!` in library code.",
        explain: "A panic aborts a whole simulation campaign at some seed found hours in. \
Library crates must return errors or defaults; unwrap/expect/panic!/unreachable!/todo! \
are only acceptable with an escape carrying a proof of unreachability.",
    },
    S1 {
        id: "S1",
        slug: "forbid-unsafe",
        escapable: true,
        scope: "every crate root (src/lib.rs, src/main.rs)",
        summary: "Crate root missing `#![forbid(unsafe_code)]`.",
        explain: "The workspace is pure safe Rust by policy — there is no FFI and no \
performance case that justifies unsafe in a discrete-event simulator at this scale. \
Forbidding it at every crate root makes the policy load-bearing rather than aspirational.",
    },
    M1 {
        id: "M1",
        slug: "file-size",
        escapable: true,
        scope: "deterministic crates, files > 800 lines",
        summary: "Deterministic-scope source file grown past the size limit.",
        explain: "The CsWorld god-object was deliberately split along the paper's manager \
seams (membership/partnership/stream; DESIGN.md §9). This backstop keeps det-scope files \
from silently regrowing past 800 lines; split along module seams or escape on line 1 \
with the reason the file is one unit.",
    },
    R1 {
        id: "R1",
        slug: "rng-stream",
        escapable: true,
        scope: "deterministic crates, outside crates/sim/src/rng.rs",
        summary: "RNG constructed outside the named-stream API.",
        explain: "Every random draw in det-scope must flow through \
Xoshiro256PlusPlus::stream(master_seed, streams::<NAME>). The stream id is a \
cs_sim::rng::StreamId, which only the `streams` table in crates/sim/src/rng.rs can \
mint, so the compiler already rejects ad-hoc and undeclared ids. What it cannot reject \
is going around that API: raw ::new/seed_from_u64/from_entropy/split_seed calls and \
foreign RNG types (SmallRng, StdRng, OsRng, ThreadRng) silently re-seed or collide \
streams, which desynchronizes golden traces in ways that only surface at scale.",
    },
    E1 {
        id: "E1",
        slug: "escape-missing-reason",
        escapable: false,
        scope: "escape comments themselves",
        summary: "Allow-escape comment without a reason.",
        explain: "An escape is a reviewed exception; the reason is the review. \
`// cs-lint: allow(<rule>) — <why safe>` with no reason text is rejected so waivers \
stay auditable.",
    },
    E2 {
        id: "E2",
        slug: "escape-unknown-rule",
        escapable: false,
        scope: "escape comments themselves",
        summary: "Allow-escape comment naming an unknown rule.",
        explain: "An escape naming a slug that is not an escapable rule is a typo that \
would otherwise silently waive nothing; it is rejected so the escape either works or \
is removed.",
    },
}

impl RuleId {
    /// All escapable rules (meta-rules cannot be escaped).
    pub fn escapable() -> impl Iterator<Item = RuleId> {
        RuleId::ALL.iter().copied().filter(|r| r.is_escapable())
    }

    /// Look a rule up by short id (`R1`) or slug (`rng-stream`),
    /// case-insensitively on the id.
    pub fn lookup(name: &str) -> Option<RuleId> {
        RuleId::ALL
            .iter()
            .copied()
            .find(|r| r.id().eq_ignore_ascii_case(name) || r.slug() == name)
    }
}

/// One lint finding.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Which rule fired.
    pub rule: RuleId,
    /// Human-readable message.
    pub message: String,
}

/// Per-workspace rule scoping.
#[derive(Clone, Debug)]
pub struct Config {
    /// Crate *directory names* (under `crates/`) whose behaviour must be a
    /// pure function of `(configuration, seed)`: D1 applies here.
    pub det_crates: Vec<String>,
    /// Crates whose arithmetic is audited for lossy casts (C2).
    pub cast_crates: Vec<String>,
    /// Crates exempt from C3 (binary / harness crates, not library code).
    pub panic_exempt_crates: Vec<String>,
    /// Files exempt from D2 and R1 (the one sanctioned entropy source,
    /// which implements the named-stream API).
    pub entropy_files: Vec<String>,
    /// M1: deterministic-scope source files may not exceed this many
    /// lines (the god-object backstop; see DESIGN.md §9).
    pub max_file_lines: u32,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            // `telemetry` is deterministic by design (metric keys and
            // windowing must not perturb trace hashes). The one sanctioned
            // wall-clock read in det-scope — cs-core's instrument set
            // timing handlers for profile.json and spans.jsonl — carries an
            // explicit allow(ambient-entropy) escape rather than a
            // file-level exemption.
            det_crates: ["proto", "sim", "core", "net", "workload", "telemetry"]
                .map(String::from)
                .to_vec(),
            cast_crates: ["proto", "model"].map(String::from).to_vec(),
            panic_exempt_crates: ["cli", "bench"].map(String::from).to_vec(),
            entropy_files: vec!["crates/sim/src/rng.rs".to_string()],
            max_file_lines: 800,
        }
    }
}

/// Metadata for one file being linted.
pub struct FileCtx<'a> {
    /// Crate directory name under `crates/` (e.g. `proto`).
    pub crate_name: &'a str,
    /// Workspace-relative path with forward slashes.
    pub rel_path: &'a str,
    /// True for crate root files (`src/lib.rs`, `src/main.rs`).
    pub is_crate_root: bool,
    /// Total number of source lines (for the M1 size rule).
    pub line_count: u32,
}

/// Integer-ish cast targets whose range is narrower than the workspace's
/// canonical working widths (`u64` block counts, 64-bit `usize` lengths,
/// `f64` rates) — a cast *into* these from an unknown source is flagged.
const NARROW_TARGETS: [&str; 7] = ["u8", "u16", "u32", "i8", "i16", "i32", "f32"];

/// All numeric cast targets C2 inspects.
const NUMERIC_TARGETS: [&str; 14] = [
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize", "f32",
    "f64",
];

const INT_TARGETS: [&str; 12] = [
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
];

/// Lint one file's token stream. Applies all content rules in scope for
/// the crate, the `#[cfg(test)]` mask, and allow-escape filtering.
pub fn lint_tokens(ctx: &FileCtx<'_>, lexed: &Lexed, mask: &[bool], cfg: &Config) -> Vec<Finding> {
    let toks = &lexed.tokens;
    let mut raw: Vec<Finding> = Vec::new();
    let push = |raw: &mut Vec<Finding>, line: u32, rule: RuleId, message: String| {
        raw.push(Finding {
            file: ctx.rel_path.to_string(),
            line,
            rule,
            message,
        });
    };

    let det = cfg.det_crates.iter().any(|c| c == ctx.crate_name);
    let cast = cfg.cast_crates.iter().any(|c| c == ctx.crate_name);
    let panic_ok = cfg.panic_exempt_crates.iter().any(|c| c == ctx.crate_name);
    let entropy_ok = cfg.entropy_files.iter().any(|f| f == ctx.rel_path);

    for i in 0..toks.len() {
        if mask.get(i).copied().unwrap_or(false) {
            continue;
        }
        let t = &toks[i];

        // D1 — nondeterministic collections in deterministic crates.
        if det && t.kind == TokKind::Ident && (t.text == "HashMap" || t.text == "HashSet") {
            let alt = if t.text == "HashMap" {
                "BTreeMap (or cs-sim's DetMap)"
            } else {
                "BTreeSet (or cs-sim's DetSet)"
            };
            push(
                &mut raw,
                t.line,
                RuleId::D1,
                format!(
                    "`{}` iteration order is nondeterministic; use {} in deterministic crates",
                    t.text, alt
                ),
            );
        }

        // D2 — wall-clock time / ambient randomness.
        if !entropy_ok && t.kind == TokKind::Ident {
            let hit = match t.text.as_str() {
                "SystemTime" => Some("`SystemTime` reads the wall clock"),
                "thread_rng" => Some("`thread_rng` is ambient, unseeded randomness"),
                "Instant"
                    if matches!(toks.get(i + 1), Some(n) if n.is_punct("::"))
                        && matches!(toks.get(i + 2), Some(n) if n.is_ident("now")) =>
                {
                    Some("`Instant::now` reads the wall clock")
                }
                "random"
                    if i >= 2 && toks[i - 1].is_punct("::") && toks[i - 2].is_ident("rand") =>
                {
                    Some("`rand::random` is ambient, unseeded randomness")
                }
                _ => None,
            };
            if let Some(what) = hit {
                push(
                    &mut raw,
                    t.line,
                    RuleId::D2,
                    format!("{what}; derive all time/randomness from SimTime and the seeded RNG"),
                );
            }
        }

        // R1 — RNGs built around the named-stream API.
        if det && !entropy_ok && t.kind == TokKind::Ident {
            let prev_path = i >= 1 && toks[i - 1].is_punct("::");
            let called = matches!(toks.get(i + 1), Some(n) if n.is_punct("("));
            let hit = match t.text.as_str() {
                "new"
                    if prev_path
                        && called
                        && i >= 2
                        && toks[i - 2].is_ident("Xoshiro256PlusPlus") =>
                {
                    Some("constructs an RNG outside the named-stream API")
                }
                "seed_from_u64" | "from_entropy" if prev_path && called => {
                    Some("seeds an RNG outside the named-stream API")
                }
                "split_seed" if called => Some("derives a stream seed by hand"),
                "SmallRng" | "StdRng" | "OsRng" | "ThreadRng" => Some("is not the workspace RNG"),
                _ => None,
            };
            if let Some(what) = hit {
                push(
                    &mut raw,
                    t.line,
                    RuleId::R1,
                    format!(
                        "`{}` {what}; use `Xoshiro256PlusPlus::stream(master_seed, \
                         streams::<NAME>)`",
                        t.text
                    ),
                );
            }
        }

        // C1 — float equality.
        if t.is_punct("==") || t.is_punct("!=") {
            let float_ish = |tok: &Tok| -> bool {
                tok.kind == TokKind::Float
                    || (tok.kind == TokKind::Ident
                        && matches!(
                            tok.text.as_str(),
                            "f32" | "f64" | "NAN" | "INFINITY" | "NEG_INFINITY"
                        ))
            };
            // Look one token back, and forward skipping `(` and unary `-`.
            let prev_hit = i >= 1 && float_ish(&toks[i - 1]);
            let mut j = i + 1;
            while j < toks.len() && (toks[j].is_punct("(") || toks[j].is_punct("-")) {
                j += 1;
            }
            let next_hit = j < toks.len() && float_ish(&toks[j]);
            if prev_hit || next_hit {
                push(
                    &mut raw,
                    t.line,
                    RuleId::C1,
                    format!(
                        "float `{}` comparison; compare with an explicit tolerance or restructure",
                        t.text
                    ),
                );
            }
        }

        // C2 — lossy numeric `as` casts.
        if cast && t.is_ident("as") {
            if let Some(target) = toks
                .get(i + 1)
                .filter(|n| n.kind == TokKind::Ident && NUMERIC_TARGETS.contains(&n.text.as_str()))
            {
                let tgt = target.text.as_str();
                let verdict = cast_verdict(toks, i, tgt);
                if let Some(why) = verdict {
                    push(
                        &mut raw,
                        t.line,
                        RuleId::C2,
                        format!(
                            "{why} in `as {tgt}` cast; use `From`/`TryFrom` or escape with \
                             `// cs-lint: allow(lossy-cast) — <why safe>`"
                        ),
                    );
                }
            }
        }

        // C3 — panics in library code.
        if !panic_ok && t.kind == TokKind::Ident {
            let method_call = |name: &str| -> bool {
                t.text == name
                    && i >= 1
                    && toks[i - 1].is_punct(".")
                    && matches!(toks.get(i + 1), Some(n) if n.is_punct("("))
            };
            let bang_macro = |name: &str| -> bool {
                t.text == name && matches!(toks.get(i + 1), Some(n) if n.is_punct("!"))
            };
            let hit = if method_call("unwrap") || method_call("expect") {
                Some(format!("`.{}()` can panic", t.text))
            } else if bang_macro("panic")
                || bang_macro("unreachable")
                || bang_macro("todo")
                || bang_macro("unimplemented")
            {
                Some(format!("`{}!` aborts the simulation", t.text))
            } else {
                None
            };
            if let Some(what) = hit {
                push(
                    &mut raw,
                    t.line,
                    RuleId::C3,
                    format!(
                        "{what}; return an error/default, or escape with a proof of unreachability"
                    ),
                );
            }
        }
    }

    // S1 — crate roots must forbid unsafe code.
    if ctx.is_crate_root && !has_forbid_unsafe(toks) {
        push(
            &mut raw,
            1,
            RuleId::S1,
            "crate root is missing `#![forbid(unsafe_code)]`".to_string(),
        );
    }

    // M1 — deterministic-scope files must stay decomposable. The CsWorld
    // god-object was split along the paper's manager seams (DESIGN.md §9);
    // this backstop keeps any det-scope file from silently regrowing.
    if det && ctx.line_count > cfg.max_file_lines {
        push(
            &mut raw,
            1,
            RuleId::M1,
            format!(
                "file is {} lines (limit {}); split it along module seams or escape \
                 on line 1 with `// cs-lint: allow(file-size) — <why one unit>`",
                ctx.line_count, cfg.max_file_lines
            ),
        );
    }

    apply_escapes(raw, &lexed.escapes, ctx.rel_path)
}

/// Decide whether the cast ending at `toks[as_ix]` (`as` keyword) into
/// `tgt` is potentially lossy. Returns `Some(reason)` to flag.
///
/// Judgement is token-local (no type inference):
/// * integer literal sources are value-checked against the target range;
/// * float literal sources are lossy into integer targets;
/// * `.floor()/.ceil()/.round()/.trunc()` sources into integers are
///   explicit truncations — flagged so the range argument gets written
///   down in an escape;
/// * any other source is flagged only for *narrow* targets
///   (`u8..=u32`, `i8..=i32`, `f32`); the workspace's canonical working
///   types (`u32`/`u64`/64-bit `usize`) widen losslessly into the rest.
fn cast_verdict(toks: &[Tok], as_ix: usize, tgt: &str) -> Option<String> {
    if as_ix == 0 {
        return None;
    }
    let src = &toks[as_ix - 1];
    match src.kind {
        TokKind::Int => {
            let neg = as_ix >= 2 && toks[as_ix - 2].is_punct("-");
            match int_literal_fits(&src.text, neg, tgt) {
                Some(true) => None,
                Some(false) => Some(format!("literal `{}` does not fit", src.text)),
                None => Some(format!("unparseable literal `{}`", src.text)),
            }
        }
        TokKind::Float => {
            if INT_TARGETS.contains(&tgt) {
                Some("float literal truncated".to_string())
            } else {
                None
            }
        }
        TokKind::Punct if src.text == ")" => {
            // `.floor() as u64` style explicit-rounding chain?
            let rounding = as_ix >= 4
                && toks[as_ix - 2].is_punct("(")
                && toks[as_ix - 4].is_punct(".")
                && matches!(
                    toks[as_ix - 3].text.as_str(),
                    "floor" | "ceil" | "round" | "trunc"
                )
                && toks[as_ix - 3].kind == TokKind::Ident;
            if rounding && INT_TARGETS.contains(&tgt) {
                Some(format!(
                    "float→`{tgt}` truncation after `.{}()`",
                    toks[as_ix - 3].text
                ))
            } else if NARROW_TARGETS.contains(&tgt) {
                Some("possible narrowing".to_string())
            } else {
                None
            }
        }
        _ => {
            if NARROW_TARGETS.contains(&tgt) {
                Some("possible narrowing".to_string())
            } else {
                None
            }
        }
    }
}

/// Does `lit` (Rust integer literal text, optional suffix/underscores,
/// optionally negated) fit in the numeric type `tgt`? 64-bit `usize`
/// assumed (declared workspace-wide in DESIGN.md §7).
fn int_literal_fits(lit: &str, neg: bool, tgt: &str) -> Option<bool> {
    let cleaned: String = lit.chars().filter(|&c| c != '_').collect();
    // Take the leading digit run; anything after is a type suffix. (A
    // suffix like `u64` contains digits, so trimming from the end would
    // eat into it — scan from the front instead.)
    let (rest, radix): (&str, u32) = if let Some(r) = cleaned.strip_prefix("0x") {
        (r, 16)
    } else if let Some(r) = cleaned.strip_prefix("0o") {
        (r, 8)
    } else if let Some(r) = cleaned.strip_prefix("0b") {
        (r, 2)
    } else {
        (cleaned.as_str(), 10)
    };
    let end = rest
        .char_indices()
        .find(|(_, c)| !c.is_digit(radix))
        .map(|(i, _)| i)
        .unwrap_or(rest.len());
    let v = u128::from_str_radix(&rest[..end], radix).ok()?;
    let fits = if neg {
        let min_abs: u128 = match tgt {
            "i8" => 128,
            "i16" => 32768,
            "i32" => 1 << 31,
            "i64" | "isize" => 1 << 63,
            "i128" => 1 << 127,
            "f32" => 1 << 24,
            "f64" => 1 << 53,
            _ => 0, // negative into unsigned never fits
        };
        v <= min_abs
    } else {
        let max: u128 = match tgt {
            "u8" => u8::MAX as u128,
            "u16" => u16::MAX as u128,
            "u32" => u32::MAX as u128,
            "u64" | "usize" => u64::MAX as u128,
            "u128" => u128::MAX,
            "i8" => i8::MAX as u128,
            "i16" => i16::MAX as u128,
            "i32" => i32::MAX as u128,
            "i64" | "isize" => i64::MAX as u128,
            "i128" => i128::MAX as u128,
            "f32" => 1 << 24,
            "f64" => 1 << 53,
            _ => return None,
        };
        v <= max
    };
    Some(fits)
}

/// Token-level check for `#![forbid(unsafe_code)]` anywhere in the file.
fn has_forbid_unsafe(toks: &[Tok]) -> bool {
    toks.iter().enumerate().any(|(i, t)| {
        t.is_ident("forbid")
            && matches!(toks.get(i + 1), Some(n) if n.is_punct("("))
            && toks[i + 1..]
                .iter()
                .take_while(|n| !n.is_punct(")"))
                .any(|n| n.is_ident("unsafe_code"))
    })
}

/// Filter findings through the allow-escapes and emit E1/E2 meta-findings
/// for malformed escapes. An escape on line `L` covers findings of its rule
/// on lines `L` (trailing comment) and `L + 1` (comment-above style).
fn apply_escapes(raw: Vec<Finding>, escapes: &[AllowEscape], rel_path: &str) -> Vec<Finding> {
    let mut out: Vec<Finding> = Vec::new();
    let known = |slug: &str| RuleId::escapable().any(|r| r.slug() == slug);

    for e in escapes {
        if !known(&e.slug) {
            out.push(Finding {
                file: rel_path.to_string(),
                line: e.line,
                rule: RuleId::E2,
                message: format!(
                    "escape names unknown rule `{}`; one of: {}",
                    e.slug,
                    RuleId::escapable()
                        .map(|r| r.slug())
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
            });
        } else if !e.has_reason {
            out.push(Finding {
                file: rel_path.to_string(),
                line: e.line,
                rule: RuleId::E1,
                message: format!(
                    "escape for `{}` has no reason; write `// cs-lint: allow({}) — <why safe>`",
                    e.slug, e.slug
                ),
            });
        }
    }
    out.extend(raw.into_iter().filter(|f| {
        !escapes.iter().any(|e| {
            e.has_reason && e.slug == f.rule.slug() && (e.line == f.line || e.line + 1 == f.line)
        })
    }));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_fit_checks() {
        assert_eq!(int_literal_fits("255", false, "u8"), Some(true));
        assert_eq!(int_literal_fits("256", false, "u8"), Some(false));
        assert_eq!(int_literal_fits("0xff", false, "u8"), Some(true));
        assert_eq!(int_literal_fits("1_000", false, "u16"), Some(true));
        assert_eq!(int_literal_fits("40", false, "i8"), Some(true));
        assert_eq!(int_literal_fits("200", false, "i8"), Some(false));
        assert_eq!(int_literal_fits("1", true, "u32"), Some(false));
        assert_eq!(int_literal_fits("128", true, "i8"), Some(true));
        assert_eq!(int_literal_fits("300u64", false, "u64"), Some(true));
    }
}
