//! A forgiving brace-tree / item parser over the [`lexer`](crate::lexer)
//! token stream.
//!
//! This is deliberately *not* a Rust grammar: the cross-file rules only
//! need to recover the **item skeleton** of a file — modules, `struct`
//! fields with their visibility, `enum` variants, `fn` items with body
//! spans, `impl` blocks with trait/type names — plus a helper that splits
//! a `match` expression into arms. Everything else is skipped by brace
//! balancing. Unparseable input degrades to fewer recovered items, never
//! to a panic: a linter must stay forgiving on code it does not fully
//! understand.
//!
//! Token spans are `(start, end)` index pairs into the token slice the
//! items were parsed from; `end` is inclusive and points at the closing
//! delimiter.

use crate::lexer::{Tok, TokKind};

/// Item visibility, as far as the rules care.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Vis {
    /// No `pub` modifier.
    Private,
    /// Plain `pub`.
    Pub,
    /// `pub(crate)`.
    PubCrate,
    /// `pub(super)`.
    PubSuper,
    /// `pub(in path)` or other restricted forms.
    PubOther,
}

/// A named struct field or enum variant.
#[derive(Clone, Debug)]
pub struct Field {
    /// Field or variant name.
    pub name: String,
    /// Declared visibility (always `Private` for enum variants).
    pub vis: Vis,
    /// 1-based source line of the name token.
    pub line: u32,
}

/// What kind of item was recovered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ItemKind {
    /// `mod name { … }` or `mod name;`.
    Mod,
    /// `struct Name { fields }` (tuple/unit structs carry no fields).
    Struct,
    /// `enum Name { variants }`.
    Enum,
    /// `fn name(…) { … }`.
    Fn,
    /// `impl [Trait for] Type { … }`.
    Impl,
    /// `const NAME: T = …;` or `static NAME: T = …;`.
    Const,
    /// `trait Name { … }`.
    Trait,
}

/// One recovered item.
#[derive(Clone, Debug)]
pub struct Item {
    /// Item kind.
    pub kind: ItemKind,
    /// Item name. For `impl` blocks this is the *type* name (first path
    /// identifier after `for`, or after `impl` when inherent).
    pub name: String,
    /// For `impl Trait for Type`: the trait's first path identifier.
    pub trait_name: Option<String>,
    /// Declared visibility.
    pub vis: Vis,
    /// 1-based line of the introducing keyword.
    pub line: u32,
    /// Token span of the `{ … }` body (braces inclusive), if any.
    pub body: Option<(usize, usize)>,
    /// Struct fields or enum variants.
    pub fields: Vec<Field>,
    /// Nested items (module bodies, impl/trait members).
    pub children: Vec<Item>,
}

impl Item {
    /// Depth-first search over this item and its children.
    pub fn walk<'a>(&'a self, out: &mut Vec<&'a Item>) {
        out.push(self);
        for c in &self.children {
            c.walk(out);
        }
    }
}

/// Flatten an item forest depth-first.
pub fn all_items(items: &[Item]) -> Vec<&Item> {
    let mut out = Vec::new();
    for it in items {
        it.walk(&mut out);
    }
    out
}

/// Parse the item skeleton of a whole file.
pub fn parse_items(toks: &[Tok]) -> Vec<Item> {
    parse_range(toks, 0, toks.len())
}

/// Index just past the matching closer for the opener at `open`
/// (`{`/`}`, `[`/`]`, `(`/`)` all tracked together so mixed nesting
/// stays balanced).
fn skip_balanced(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0i32;
    let mut i = open;
    while i < toks.len() {
        if toks[i].is_punct("{") || toks[i].is_punct("[") || toks[i].is_punct("(") {
            depth += 1;
        } else if toks[i].is_punct("}") || toks[i].is_punct("]") || toks[i].is_punct(")") {
            depth -= 1;
            if depth <= 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    toks.len()
}

/// Index just past a balanced `<…>` group starting at `open` (`<`).
/// Paren/bracket/brace groups inside are skipped whole, so a `Fn(A) -> B`
/// bound cannot desynchronize the angle count.
fn skip_angles(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0i32;
    let mut i = open;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct("<") {
            depth += 1;
        } else if t.is_punct(">") {
            depth -= 1;
            if depth <= 0 {
                return i + 1;
            }
        } else if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
            i = skip_balanced(toks, i);
            continue;
        }
        i += 1;
    }
    toks.len()
}

/// Parse a visibility modifier at `i`; returns `(vis, next_index)`.
fn parse_vis(toks: &[Tok], i: usize) -> (Vis, usize) {
    if !toks.get(i).map(|t| t.is_ident("pub")).unwrap_or(false) {
        return (Vis::Private, i);
    }
    if toks.get(i + 1).map(|t| t.is_punct("(")).unwrap_or(false) {
        let end = skip_balanced(toks, i + 1);
        let vis = match toks.get(i + 2) {
            Some(t) if t.is_ident("crate") => Vis::PubCrate,
            Some(t) if t.is_ident("super") => Vis::PubSuper,
            _ => Vis::PubOther,
        };
        (vis, end)
    } else {
        (Vis::Pub, i + 1)
    }
}

/// Skip any `#[…]` / `#![…]` attributes at `i`.
fn skip_attrs(toks: &[Tok], mut i: usize) -> usize {
    while toks.get(i).map(|t| t.is_punct("#")).unwrap_or(false) {
        let mut j = i + 1;
        if toks.get(j).map(|t| t.is_punct("!")).unwrap_or(false) {
            j += 1;
        }
        if toks.get(j).map(|t| t.is_punct("[")).unwrap_or(false) {
            i = skip_balanced(toks, j);
        } else {
            return i;
        }
    }
    i
}

/// Parse items in `toks[start..end]` (an item-level region: file top
/// level, a `mod` body, or an `impl`/`trait` body).
fn parse_range(toks: &[Tok], start: usize, end: usize) -> Vec<Item> {
    let mut out = Vec::new();
    let mut i = start;
    while i < end {
        i = skip_attrs(toks, i);
        if i >= end {
            break;
        }
        let (vis, after_vis) = parse_vis(toks, i);
        let mut j = after_vis;
        // Skim qualifier keywords that may precede the item keyword.
        while toks
            .get(j)
            .map(|t| {
                t.is_ident("unsafe")
                    || t.is_ident("async")
                    || t.is_ident("extern")
                    || t.is_ident("default")
            })
            .unwrap_or(false)
        {
            j += 1;
            // `extern "C"` carries a string literal.
            if toks.get(j).map(|t| t.kind == TokKind::Str).unwrap_or(false) {
                j += 1;
            }
        }
        let Some(kw) = toks.get(j).filter(|t| t.kind == TokKind::Ident) else {
            i = skip_past_token(toks, i.max(j), end);
            continue;
        };
        let line = kw.line;
        match kw.text.as_str() {
            "mod" => {
                let name = ident_at(toks, j + 1);
                match toks.get(j + 2) {
                    Some(t) if t.is_punct("{") => {
                        let close = skip_balanced(toks, j + 2) - 1;
                        let children = parse_range(toks, j + 3, close.min(end));
                        out.push(Item {
                            kind: ItemKind::Mod,
                            name,
                            trait_name: None,
                            vis,
                            line,
                            body: Some((j + 2, close)),
                            fields: Vec::new(),
                            children,
                        });
                        i = close + 1;
                    }
                    _ => {
                        out.push(Item {
                            kind: ItemKind::Mod,
                            name,
                            trait_name: None,
                            vis,
                            line,
                            body: None,
                            fields: Vec::new(),
                            children: Vec::new(),
                        });
                        i = j + 3;
                    }
                }
            }
            "struct" | "enum" => {
                let is_enum = kw.text == "enum";
                let name = ident_at(toks, j + 1);
                let mut k = j + 2;
                if toks.get(k).map(|t| t.is_punct("<")).unwrap_or(false) {
                    k = skip_angles(toks, k);
                }
                match toks.get(k) {
                    Some(t) if t.is_punct("{") => {
                        let close = skip_balanced(toks, k) - 1;
                        let fields = if is_enum {
                            parse_variants(toks, k + 1, close)
                        } else {
                            parse_fields(toks, k + 1, close)
                        };
                        out.push(Item {
                            kind: if is_enum {
                                ItemKind::Enum
                            } else {
                                ItemKind::Struct
                            },
                            name,
                            trait_name: None,
                            vis,
                            line,
                            body: Some((k, close)),
                            fields,
                            children: Vec::new(),
                        });
                        i = close + 1;
                    }
                    Some(t) if t.is_punct("(") => {
                        // Tuple struct: skip to terminating `;`.
                        let after = skip_balanced(toks, k);
                        out.push(Item {
                            kind: ItemKind::Struct,
                            name,
                            trait_name: None,
                            vis,
                            line,
                            body: None,
                            fields: Vec::new(),
                            children: Vec::new(),
                        });
                        i = skip_past_token(toks, after, end);
                    }
                    _ => {
                        // Unit struct or unparseable: resync at `;`.
                        out.push(Item {
                            kind: ItemKind::Struct,
                            name,
                            trait_name: None,
                            vis,
                            line,
                            body: None,
                            fields: Vec::new(),
                            children: Vec::new(),
                        });
                        i = skip_past_token(toks, k, end);
                    }
                }
            }
            "fn" => {
                let name = ident_at(toks, j + 1);
                let mut k = j + 2;
                if toks.get(k).map(|t| t.is_punct("<")).unwrap_or(false) {
                    k = skip_angles(toks, k);
                }
                // Parameter list.
                let params = if toks.get(k).map(|t| t.is_punct("(")).unwrap_or(false) {
                    let close = skip_balanced(toks, k) - 1;
                    let span = (k, close);
                    k = close + 1;
                    Some(span)
                } else {
                    None
                };
                // Scan to the body `{` or a trait-decl `;` at depth 0.
                let mut body = None;
                while k < end {
                    let t = &toks[k];
                    if t.is_punct("{") {
                        let close = skip_balanced(toks, k) - 1;
                        body = Some((k, close));
                        k = close + 1;
                        break;
                    }
                    if t.is_punct(";") {
                        k += 1;
                        break;
                    }
                    if t.is_punct("(") || t.is_punct("[") {
                        k = skip_balanced(toks, k);
                        continue;
                    }
                    if t.is_punct("<") {
                        k = skip_angles(toks, k);
                        continue;
                    }
                    k += 1;
                }
                let mut fields = Vec::new();
                if let Some((ps, pe)) = params {
                    fields = parse_params(toks, ps + 1, pe);
                }
                out.push(Item {
                    kind: ItemKind::Fn,
                    name,
                    trait_name: None,
                    vis,
                    line,
                    body,
                    fields,
                    children: Vec::new(),
                });
                i = k;
            }
            "impl" | "trait" => {
                let is_impl = kw.text == "impl";
                let mut k = j + 1;
                if toks.get(k).map(|t| t.is_punct("<")).unwrap_or(false) {
                    k = skip_angles(toks, k);
                }
                // Collect header tokens until the body `{` (or `;`).
                let header_start = k;
                let mut for_ix = None;
                while k < end {
                    let t = &toks[k];
                    if t.is_punct("{") || t.is_punct(";") {
                        break;
                    }
                    if t.is_ident("for") && for_ix.is_none() {
                        for_ix = Some(k);
                    }
                    if t.is_punct("<") {
                        k = skip_angles(toks, k);
                        continue;
                    }
                    if t.is_punct("(") || t.is_punct("[") {
                        k = skip_balanced(toks, k);
                        continue;
                    }
                    k += 1;
                }
                // `for` inside a `where` clause is not the impl's `for`.
                let where_ix = (header_start..k).find(|&ix| toks[ix].is_ident("where"));
                let for_ix = for_ix.filter(|&f| where_ix.map(|w| f < w).unwrap_or(true));
                let (trait_name, name) = if is_impl {
                    match for_ix {
                        Some(f) => {
                            let tn = first_ident_in(toks, header_start, f);
                            let ty = first_ident_in(toks, f + 1, where_ix.unwrap_or(k));
                            (Some(tn), ty)
                        }
                        None => (
                            None,
                            first_ident_in(toks, header_start, where_ix.unwrap_or(k)),
                        ),
                    }
                } else {
                    (None, first_ident_in(toks, header_start, k))
                };
                if toks.get(k).map(|t| t.is_punct("{")).unwrap_or(false) {
                    let close = skip_balanced(toks, k) - 1;
                    let children = parse_range(toks, k + 1, close.min(end));
                    out.push(Item {
                        kind: if is_impl {
                            ItemKind::Impl
                        } else {
                            ItemKind::Trait
                        },
                        name,
                        trait_name,
                        vis,
                        line,
                        body: Some((k, close)),
                        fields: Vec::new(),
                        children,
                    });
                    i = close + 1;
                } else {
                    i = k + 1;
                }
            }
            "const" | "static" => {
                // `const NAME: T = …;` — `const fn` is handled by the `fn`
                // arm on the next pass because we only advance past `const`.
                if toks.get(j + 1).map(|t| t.is_ident("fn")).unwrap_or(false) {
                    i = j + 1;
                    continue;
                }
                let name = ident_at(toks, j + 1);
                out.push(Item {
                    kind: ItemKind::Const,
                    name,
                    trait_name: None,
                    vis,
                    line,
                    body: None,
                    fields: Vec::new(),
                    children: Vec::new(),
                });
                i = skip_past_token(toks, j + 1, end);
            }
            "use" | "type" => {
                i = skip_past_token(toks, j + 1, end);
            }
            "macro_rules" => {
                // `macro_rules! name { … }`.
                let mut k = j + 1;
                while k < end && !toks[k].is_punct("{") {
                    k += 1;
                }
                i = if k < end { skip_balanced(toks, k) } else { end };
            }
            _ => {
                i = j + 1;
            }
        }
    }
    out
}

/// Advance past the next `;` at delimiter depth 0 (for statements whose
/// initializer may contain braces, e.g. `const X: [u64; 2] = { … };`).
fn skip_past_token(toks: &[Tok], from: usize, end: usize) -> usize {
    let mut i = from;
    while i < end {
        let t = &toks[i];
        if t.is_punct(";") {
            return i + 1;
        }
        if t.is_punct("{") || t.is_punct("[") || t.is_punct("(") {
            i = skip_balanced(toks, i);
            continue;
        }
        i += 1;
    }
    end
}

fn ident_at(toks: &[Tok], i: usize) -> String {
    toks.get(i)
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| t.text.clone())
        .unwrap_or_default()
}

fn first_ident_in(toks: &[Tok], start: usize, end: usize) -> String {
    toks[start..end.min(toks.len())]
        .iter()
        .find(|t| t.kind == TokKind::Ident && t.text != "dyn")
        .map(|t| t.text.clone())
        .unwrap_or_default()
}

/// Split `toks[start..end]` (the inside of a struct body) into fields.
fn parse_fields(toks: &[Tok], start: usize, end: usize) -> Vec<Field> {
    let mut out = Vec::new();
    for (cs, ce) in split_commas(toks, start, end) {
        let i = skip_attrs(toks, cs);
        let (vis, after_vis) = parse_vis(toks, i);
        if let Some(t) = toks.get(after_vis).filter(|t| t.kind == TokKind::Ident) {
            if toks
                .get(after_vis + 1)
                .map(|n| n.is_punct(":"))
                .unwrap_or(false)
                && after_vis < ce
            {
                out.push(Field {
                    name: t.text.clone(),
                    vis,
                    line: t.line,
                });
            }
        }
    }
    out
}

/// Split `toks[start..end]` (the inside of an enum body) into variants.
fn parse_variants(toks: &[Tok], start: usize, end: usize) -> Vec<Field> {
    let mut out = Vec::new();
    for (cs, _ce) in split_commas(toks, start, end) {
        let i = skip_attrs(toks, cs);
        if let Some(t) = toks.get(i).filter(|t| t.kind == TokKind::Ident) {
            out.push(Field {
                name: t.text.clone(),
                vis: Vis::Private,
                line: t.line,
            });
        }
    }
    out
}

/// Parameters of a fn item: each typed `name: Type` pair (receivers like
/// `&mut self` produce a `self` entry). The field's `name` is the
/// parameter name; the *type* tokens are not retained, but
/// [`params_mention`] answers the one question rules ask.
fn parse_params(toks: &[Tok], start: usize, end: usize) -> Vec<Field> {
    let mut out = Vec::new();
    for (cs, ce) in split_commas(toks, start, end) {
        let i = skip_attrs(toks, cs);
        // Find the param name: the identifier directly before the first
        // `:` at depth 0, or a bare `self` receiver.
        let colon = (i..ce).find(|&ix| toks[ix].is_punct(":"));
        match colon {
            Some(c) if c > i => {
                if let Some(t) = toks.get(c - 1).filter(|t| t.kind == TokKind::Ident) {
                    out.push(Field {
                        name: t.text.clone(),
                        vis: Vis::Private,
                        line: t.line,
                    });
                }
            }
            _ => {
                if let Some(t) = toks[i..ce].iter().find(|t| t.is_ident("self")) {
                    out.push(Field {
                        name: "self".to_string(),
                        vis: Vis::Private,
                        line: t.line,
                    });
                }
            }
        }
    }
    out
}

/// Does the parameter list of fn item `f` (token span over the original
/// slice) mention identifier `what` anywhere (name or type position)?
pub fn params_mention(toks: &[Tok], f: &Item, what: &str) -> bool {
    // Re-derive the param span from the body/name: the params were parsed
    // from the `(`..`)` directly after the name; simplest faithful check
    // is to scan from the item's line… instead, rules pass the span they
    // know. This helper takes the item's recorded body span start as the
    // right boundary.
    let hi = f.body.map(|(s, _)| s).unwrap_or(toks.len());
    // Scan backwards is fragile; scan the whole header region of the fn.
    let lo = toks[..hi]
        .iter()
        .rposition(|t| t.is_ident("fn"))
        .unwrap_or(0);
    toks[lo..hi].iter().any(|t| t.is_ident(what))
}

/// Split an item-body region into comma-separated chunks at delimiter
/// depth 0. Returns `(start, end)` half-open spans; empty chunks are
/// dropped.
fn split_commas(toks: &[Tok], start: usize, end: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut chunk_start = start;
    let mut i = start;
    while i < end {
        let t = &toks[i];
        if t.is_punct("{") || t.is_punct("[") || t.is_punct("(") {
            i = skip_balanced(toks, i);
            continue;
        }
        if t.is_punct("<") {
            // Angle groups inside types (`BTreeMap<K, V>`) hide commas.
            i = skip_angles(toks, i);
            continue;
        }
        if t.is_punct(",") {
            if i > chunk_start {
                out.push((chunk_start, i));
            }
            chunk_start = i + 1;
        }
        i += 1;
    }
    if end > chunk_start {
        out.push((chunk_start, end));
    }
    out
}

/// One arm of a `match` expression.
#[derive(Clone, Debug)]
pub struct MatchArm {
    /// Token span of the pattern (half-open).
    pub pat: (usize, usize),
    /// 1-based line of the pattern's first token.
    pub line: u32,
    /// Token span of the arm body (half-open).
    pub body: (usize, usize),
}

/// Find the first `match` expression inside `span` (half-open token
/// range) and split it into arms. Returns `None` when no match is found.
pub fn first_match_arms(toks: &[Tok], span: (usize, usize)) -> Option<Vec<MatchArm>> {
    let (start, end) = (span.0, span.1.min(toks.len()));
    let m = (start..end).find(|&ix| toks[ix].is_ident("match"))?;
    // The match body is the first `{` after the head expression at
    // delimiter depth 0 (head parens/brackets are skipped whole).
    let mut i = m + 1;
    let open = loop {
        if i >= end {
            return None;
        }
        let t = &toks[i];
        if t.is_punct("{") {
            break i;
        }
        if t.is_punct("(") || t.is_punct("[") {
            i = skip_balanced(toks, i);
            continue;
        }
        i += 1;
    };
    let close = skip_balanced(toks, open) - 1;
    let mut arms = Vec::new();
    let mut i = open + 1;
    while i < close {
        i = skip_attrs(toks, i);
        if i >= close {
            break;
        }
        let pat_start = i;
        // Pattern runs to `=>` at depth 0.
        let mut depth = 0i32;
        let mut arrow = None;
        let mut j = i;
        while j < close {
            let t = &toks[j];
            if t.is_punct("{") || t.is_punct("[") || t.is_punct("(") {
                depth += 1;
            } else if t.is_punct("}") || t.is_punct("]") || t.is_punct(")") {
                depth -= 1;
            } else if t.is_punct("=>") && depth == 0 {
                arrow = Some(j);
                break;
            }
            j += 1;
        }
        let Some(arrow) = arrow else { break };
        let line = toks[pat_start].line;
        // Body: a balanced block, or an expression up to `,` at depth 0.
        let body_start = arrow + 1;
        let body_end;
        let mut next;
        if toks
            .get(body_start)
            .map(|t| t.is_punct("{"))
            .unwrap_or(false)
        {
            let bclose = skip_balanced(toks, body_start).min(close + 1);
            body_end = bclose;
            next = bclose;
            if toks.get(next).map(|t| t.is_punct(",")).unwrap_or(false) {
                next += 1;
            }
        } else {
            let mut depth = 0i32;
            let mut j = body_start;
            while j < close {
                let t = &toks[j];
                if t.is_punct("{") || t.is_punct("[") || t.is_punct("(") {
                    depth += 1;
                } else if t.is_punct("}") || t.is_punct("]") || t.is_punct(")") {
                    depth -= 1;
                } else if t.is_punct(",") && depth == 0 {
                    break;
                }
                j += 1;
            }
            body_end = j;
            next = (j + 1).min(close);
        }
        arms.push(MatchArm {
            pat: (pat_start, arrow),
            line,
            body: (body_start, body_end),
        });
        i = next.max(body_end).max(pat_start + 1);
    }
    Some(arms)
}

/// Interpret an arm pattern as `Path::Variant…`: returns
/// `(enum_path_head, variant)` — e.g. `Event::Arrive(_)` →
/// `("Event", "Arrive")`. `None` for wildcards, bindings, literals.
pub fn pat_variant(toks: &[Tok], pat: (usize, usize)) -> Option<(String, String)> {
    let s = &toks[pat.0..pat.1.min(toks.len())];
    // Walk the leading path: Ident (:: Ident)+ — the last two segments
    // are `Enum::Variant` even when the path is `crate::ev::Event::V`.
    let mut segs: Vec<&str> = Vec::new();
    let mut i = 0;
    while i < s.len() {
        match s.get(i) {
            Some(t) if t.kind == TokKind::Ident => segs.push(&t.text),
            _ => break,
        }
        if s.get(i + 1).map(|t| t.is_punct("::")).unwrap_or(false) {
            i += 2;
        } else {
            break;
        }
    }
    if segs.len() >= 2 {
        let variant = segs[segs.len() - 1].to_string();
        let head = segs[segs.len() - 2].to_string();
        Some((head, variant))
    } else {
        None
    }
}

/// Is the arm pattern a catch-all (`_` or a bare binding)?
pub fn pat_is_wildcard(toks: &[Tok], pat: (usize, usize)) -> bool {
    let s = &toks[pat.0..pat.1.min(toks.len())];
    match s {
        [t] => t.kind == TokKind::Ident && pat_variant(toks, pat).is_none(),
        _ => false,
    }
}

/// Interpret an arm body as the tuple `(INT, "str")`: the dense-index /
/// kind-name pair of a `kind_class`-style table.
pub fn body_index_name(toks: &[Tok], body: (usize, usize)) -> Option<(u32, String)> {
    let s = &toks[body.0..body.1.min(toks.len())];
    match s {
        [open, ix, comma, name, close]
            if open.is_punct("(")
                && ix.kind == TokKind::Int
                && comma.is_punct(",")
                && name.kind == TokKind::Str
                && close.is_punct(")") =>
        {
            let digits: String = ix.text.chars().take_while(|c| c.is_ascii_digit()).collect();
            digits.parse::<u32>().ok().map(|v| (v, name.text.clone()))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn items(src: &str) -> Vec<Item> {
        parse_items(&lex(src).tokens)
    }

    #[test]
    fn recovers_struct_fields_with_visibility() {
        let src = r#"
            pub struct S {
                pub a: u32,
                pub(super) b: Vec<Option<u64>>,
                pub(crate) c: BTreeMap<K, V>,
                d: [u64; 4],
            }
        "#;
        let it = items(src);
        assert_eq!(it.len(), 1);
        assert_eq!(it[0].kind, ItemKind::Struct);
        assert_eq!(it[0].name, "S");
        let f: Vec<(&str, Vis)> = it[0]
            .fields
            .iter()
            .map(|f| (f.name.as_str(), f.vis))
            .collect();
        assert_eq!(
            f,
            vec![
                ("a", Vis::Pub),
                ("b", Vis::PubSuper),
                ("c", Vis::PubCrate),
                ("d", Vis::Private),
            ]
        );
    }

    #[test]
    fn recovers_enum_variants_with_payloads() {
        let src = r#"
            pub enum Event {
                Arrive(UserSpec),
                Snapshot,
                RegionalOutage { quadrant: u8, heal: SimTime },
            }
        "#;
        let it = items(src);
        assert_eq!(it[0].kind, ItemKind::Enum);
        let v: Vec<&str> = it[0].fields.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(v, vec!["Arrive", "Snapshot", "RegionalOutage"]);
    }

    #[test]
    fn recovers_impl_trait_for_type() {
        let src = r#"
            impl Observer<CsWorld> for Instruments {
                fn on_dispatch(&mut self, event: &Event) { event.kind_class(); }
            }
            impl<W: World, T: Observer<W>> Observer<W> for Rc<RefCell<T>> {
                fn on(&mut self) {}
            }
            impl Peer {
                fn id(&self) -> u32 { 0 }
            }
        "#;
        let it = items(src);
        assert_eq!(it.len(), 3);
        assert_eq!(it[0].trait_name.as_deref(), Some("Observer"));
        assert_eq!(it[0].name, "Instruments");
        assert_eq!(it[0].children.len(), 1);
        assert_eq!(it[0].children[0].name, "on_dispatch");
        assert_eq!(it[1].trait_name.as_deref(), Some("Observer"));
        assert_eq!(it[1].name, "Rc");
        assert_eq!(it[2].trait_name, None);
        assert_eq!(it[2].name, "Peer");
    }

    #[test]
    fn nested_modules_and_consts() {
        let src = r#"
            pub mod streams {
                pub const ARRIVALS: u64 = 1;
                pub const SESSIONS: u64 = 2;
            }
            mod helper;
        "#;
        let it = items(src);
        assert_eq!(it.len(), 2);
        assert_eq!(it[0].kind, ItemKind::Mod);
        assert_eq!(it[0].name, "streams");
        let consts: Vec<&str> = it[0]
            .children
            .iter()
            .filter(|c| c.kind == ItemKind::Const)
            .map(|c| c.name.as_str())
            .collect();
        assert_eq!(consts, vec!["ARRIVALS", "SESSIONS"]);
        assert_eq!(it[1].name, "helper");
        assert!(it[1].body.is_none());
    }

    #[test]
    fn match_arms_tuple_and_block_bodies() {
        let src = r#"
            fn kind_class(e: &Event) -> (u8, &'static str) {
                match e {
                    Event::Arrive(_) => (0, "arrive"),
                    Event::RegionalOutage { .. } => (1, "regional_outage"),
                    Event::Snapshot => (2, "snapshot"),
                }
            }
        "#;
        let toks = lex(src).tokens;
        let it = parse_items(&toks);
        let body = it[0].body.expect("fn body");
        let arms = first_match_arms(&toks, (body.0, body.1 + 1)).expect("match");
        assert_eq!(arms.len(), 3);
        type ArmFacts = (String, String, Option<(u32, String)>);
        let got: Vec<ArmFacts> = arms
            .iter()
            .map(|a| {
                let (h, v) = pat_variant(&toks, a.pat).expect("variant");
                (h, v, body_index_name(&toks, a.body))
            })
            .collect();
        assert_eq!(got[0].1, "Arrive");
        assert_eq!(got[0].2, Some((0, "arrive".to_string())));
        assert_eq!(got[1].1, "RegionalOutage");
        assert_eq!(got[1].2, Some((1, "regional_outage".to_string())));
        assert_eq!(got[2].2, Some((2, "snapshot".to_string())));
    }

    #[test]
    fn match_arms_with_blocks_and_no_trailing_comma() {
        let src = r#"
            fn handle(&mut self, event: Event) {
                let now = 0;
                match event {
                    Event::Arrive(spec) => m(self).arrive(spec),
                    Event::GossipTick(id) => {
                        if alive(id) { g(self).tick(id); }
                    }
                    Event::Snapshot => {
                        let s = cap(self);
                    }
                    _ => {}
                }
            }
        "#;
        let toks = lex(src).tokens;
        let it = parse_items(&toks);
        let body = it[0].body.expect("fn body");
        let arms = first_match_arms(&toks, (body.0, body.1 + 1)).expect("match");
        assert_eq!(arms.len(), 4);
        assert!(pat_is_wildcard(&toks, arms[3].pat));
        assert_eq!(
            pat_variant(&toks, arms[1].pat),
            Some(("Event".to_string(), "GossipTick".to_string()))
        );
    }

    #[test]
    fn qualified_path_patterns_resolve_to_last_two_segments() {
        let src = "fn f(e: E) { match e { crate::ev::Event::Join(x) => 1, _ => 0 }; }";
        let toks = lex(src).tokens;
        let it = parse_items(&toks);
        let body = it[0].body.expect("fn body");
        let arms = first_match_arms(&toks, (body.0, body.1 + 1)).expect("match");
        assert_eq!(
            pat_variant(&toks, arms[0].pat),
            Some(("Event".to_string(), "Join".to_string()))
        );
    }
}
