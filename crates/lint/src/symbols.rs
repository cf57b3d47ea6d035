//! Cross-file symbol tables.
//!
//! [`WorkspaceIndex`] is built once per lint run from every non-test
//! `.rs` file under `crates/`: each file is lexed, test-masked, and
//! item-parsed ([`parse`]), then crate-level facts the
//! cross-file rules need are extracted:
//!
//! * **named RNG streams** — the `const` ids declared in the `streams`
//!   module of the sanctioned entropy source, `crates/sim/src/rng.rs`
//!   (R1);
//! * **event alphabets** — an `enum Event`-style item co-located with a
//!   `kind_class` dense-index table and the `World::handle` dispatch
//!   match (X1).

use crate::lexer::{self, Lexed};
use crate::parse::{self, Item, ItemKind};
use crate::rules::Config;

/// One parsed, masked, indexed source file.
pub struct FileIndex {
    /// Crate directory name under `crates/`.
    pub crate_name: String,
    /// Workspace-relative path with forward slashes.
    pub rel_path: String,
    /// Path relative to the crate directory (`src/stream/state.rs`).
    pub crate_rel: String,
    /// True for `src/lib.rs` / `src/main.rs`.
    pub is_crate_root: bool,
    /// Lexer output (tokens + allow-escapes).
    pub lexed: Lexed,
    /// Test-region bitmap parallel to `lexed.tokens`.
    pub mask: Vec<bool>,
    /// Recovered item forest.
    pub items: Vec<Item>,
    /// Total source lines.
    pub line_count: u32,
}

impl FileIndex {
    /// Lex, mask, and item-parse one source file.
    pub fn build(
        crate_name: &str,
        rel_path: &str,
        crate_rel: &str,
        is_crate_root: bool,
        src: &str,
    ) -> Self {
        let lexed = lexer::lex(src);
        let mask = lexer::test_mask(&lexed.tokens);
        let items = parse::parse_items(&lexed.tokens);
        FileIndex {
            crate_name: crate_name.to_string(),
            rel_path: rel_path.to_string(),
            crate_rel: crate_rel.to_string(),
            is_crate_root,
            line_count: u32::try_from(src.lines().count()).unwrap_or(u32::MAX),
            lexed,
            mask,
            items,
        }
    }

    /// Is the token at `ix` inside a test region?
    pub fn masked(&self, ix: usize) -> bool {
        self.mask.get(ix).copied().unwrap_or(false)
    }

    /// Is the item (by its first body token, or declaration line fallback)
    /// inside a test region? Items recovered from `#[cfg(test)]` modules
    /// are invisible to cross-file rules.
    pub fn item_masked(&self, item: &Item) -> bool {
        match item.body {
            Some((s, _)) => self.masked(s),
            None => false,
        }
    }
}

/// One arm of a dense-index kind table: `Variant => (index, "name")`.
#[derive(Clone, Debug)]
pub struct KindArm {
    /// Enum variant the arm matches.
    pub variant: String,
    /// Dense index.
    pub index: Option<u32>,
    /// Kind name string.
    pub name: Option<String>,
    /// Source line of the arm.
    pub line: u32,
}

/// An event alphabet: the enum, its kind table, and its dispatch match.
#[derive(Clone, Debug)]
pub struct EventAlphabet {
    /// Crate that declares the alphabet.
    pub crate_name: String,
    /// Declaring file (workspace-relative).
    pub file: String,
    /// Enum name (`Event`).
    pub enum_name: String,
    /// Enum declaration line.
    pub enum_line: u32,
    /// Variant names in declaration order.
    pub variants: Vec<String>,
    /// The `kind_class` dense-index table, if a fn of that name with a
    /// match over the enum exists in the same file.
    pub kind_table: Vec<KindArm>,
    /// Line of the `kind_class` fn (0 when absent).
    pub kind_fn_line: u32,
    /// Variants matched by the `World::handle` dispatch in the same file.
    pub dispatch_arms: Vec<KindArm>,
    /// Line of the `handle` fn (0 when absent).
    pub dispatch_fn_line: u32,
    /// True when the dispatch match carries a catch-all arm.
    pub dispatch_has_wildcard: bool,
}

/// All files of one crate plus the crate-level facts extracted from them.
pub struct CrateIndex {
    /// Crate directory name.
    pub name: String,
    /// Indexed files, sorted by path.
    pub files: Vec<FileIndex>,
}

/// The workspace-wide symbol table.
pub struct WorkspaceIndex {
    /// Per-crate indices, sorted by crate name.
    pub crates: Vec<CrateIndex>,
    /// Stream ids declared in the sanctioned RNG module's `streams` mod.
    pub stream_consts: Vec<String>,
    /// Whether the sanctioned RNG module was seen at all (fixture
    /// workspaces without one skip the unknown-stream check).
    pub has_stream_module: bool,
    /// Event alphabets (X1 anchors) across all crates.
    pub alphabets: Vec<EventAlphabet>,
}

impl WorkspaceIndex {
    /// Assemble the workspace index from per-file indices.
    pub fn build(mut files: Vec<FileIndex>, cfg: &Config) -> Self {
        files.sort_by(|a, b| (&a.crate_name, &a.rel_path).cmp(&(&b.crate_name, &b.rel_path)));
        let mut stream_consts = Vec::new();
        let mut has_stream_module = false;
        let mut alphabets = Vec::new();

        for f in &files {
            if f.rel_path == cfg.stream_module {
                has_stream_module = true;
                stream_consts = extract_stream_consts(f);
            }
            alphabets.extend(extract_alphabet(f));
        }

        let mut crates: Vec<CrateIndex> = Vec::new();
        for f in files {
            match crates.last_mut() {
                Some(c) if c.name == f.crate_name => c.files.push(f),
                _ => crates.push(CrateIndex {
                    name: f.crate_name.clone(),
                    files: vec![f],
                }),
            }
        }

        WorkspaceIndex {
            crates,
            stream_consts,
            has_stream_module,
            alphabets,
        }
    }
}

/// `pub const NAME: u64 = …;` items inside `mod streams { … }`.
fn extract_stream_consts(f: &FileIndex) -> Vec<String> {
    let mut out = Vec::new();
    for item in parse::all_items(&f.items) {
        if item.kind == ItemKind::Mod && item.name == "streams" {
            for c in &item.children {
                if c.kind == ItemKind::Const && !c.name.is_empty() {
                    out.push(c.name.clone());
                }
            }
        }
    }
    out.sort();
    out.dedup();
    out
}

/// Arms of the first match inside fn `item`, interpreted against
/// `enum_name`.
fn match_arms_of(f: &FileIndex, item: &Item, enum_name: &str) -> (Vec<KindArm>, bool) {
    let toks = &f.lexed.tokens;
    let Some((bs, be)) = item.body else {
        return (Vec::new(), false);
    };
    let Some(arms) = parse::first_match_arms(toks, (bs, be + 1)) else {
        return (Vec::new(), false);
    };
    let mut out = Vec::new();
    let mut wildcard = false;
    for a in arms {
        if parse::pat_is_wildcard(toks, a.pat) {
            wildcard = true;
            continue;
        }
        let Some((head, variant)) = parse::pat_variant(toks, a.pat) else {
            continue;
        };
        if head != enum_name && head != "Self" {
            continue;
        }
        let (index, name) = match parse::body_index_name(toks, a.body) {
            Some((i, n)) => (Some(i), Some(n)),
            None => (None, None),
        };
        out.push(KindArm {
            variant,
            index,
            name,
            line: a.line,
        });
    }
    (out, wildcard)
}

/// Recognize an event alphabet in `f`: an enum named `Event` (non-test)
/// plus, in the same file, a `kind_class` fn and the dispatch fn,
/// `handle` in an `impl World for …` block.
fn extract_alphabet(f: &FileIndex) -> Option<EventAlphabet> {
    let items = parse::all_items(&f.items);
    let en = items.iter().find(|i| {
        i.kind == ItemKind::Enum && i.name == "Event" && !i.fields.is_empty() && !f.item_masked(i)
    })?;
    let kind_fn = items
        .iter()
        .find(|i| i.kind == ItemKind::Fn && i.name == "kind_class" && !f.item_masked(i));
    // Only anchor when a kind table exists: a plain `enum Event` in some
    // unrelated crate is not an alphabet.
    let kind_fn = kind_fn?;
    let (kind_table, _) = match_arms_of(f, kind_fn, &en.name);
    let handle_fn = items
        .iter()
        .find(|i| i.kind == ItemKind::Fn && i.name == "handle" && !f.item_masked(i));
    let (dispatch_arms, dispatch_has_wildcard) = match handle_fn {
        Some(h) => match_arms_of(f, h, &en.name),
        None => (Vec::new(), false),
    };
    Some(EventAlphabet {
        crate_name: f.crate_name.clone(),
        file: f.rel_path.clone(),
        enum_name: en.name.clone(),
        enum_line: en.line,
        variants: en.fields.iter().map(|v| v.name.clone()).collect(),
        kind_table,
        kind_fn_line: kind_fn.line,
        dispatch_arms,
        dispatch_fn_line: handle_fn.map(|h| h.line).unwrap_or(0),
        dispatch_has_wildcard,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(crate_name: &str, crate_rel: &str, src: &str) -> FileIndex {
        FileIndex::build(
            crate_name,
            &format!("crates/{crate_name}/{crate_rel}"),
            crate_rel,
            false,
            src,
        )
    }

    #[test]
    fn stream_consts_from_streams_module() {
        let f = file(
            "sim",
            "src/rng.rs",
            r#"
            pub mod streams {
                pub const ARRIVALS: u64 = 1;
                pub const FREERIDER: u64 = 9;
            }
            "#,
        );
        assert_eq!(extract_stream_consts(&f), vec!["ARRIVALS", "FREERIDER"]);
    }

    #[test]
    fn alphabet_extraction_reads_kind_table_and_dispatch() {
        let f = file(
            "proto",
            "src/world.rs",
            r#"
            pub enum Event { A(u32), B, C { x: u8 } }
            impl Event {
                pub fn kind_class(&self) -> (u8, &'static str) {
                    match self {
                        Event::A(_) => (0, "a"),
                        Event::B => (1, "b"),
                        Event::C { .. } => (2, "c"),
                    }
                }
            }
            impl World for W {
                fn handle(&mut self, ctx: &mut Ctx<'_, Event>, event: Event) {
                    match event {
                        Event::A(x) => f(x),
                        Event::B => {}
                        Event::C { .. } => g(),
                    }
                }
            }
            "#,
        );
        let al = extract_alphabet(&f).expect("alphabet");
        assert_eq!(al.variants, vec!["A", "B", "C"]);
        assert_eq!(al.kind_table.len(), 3);
        assert_eq!(al.kind_table[1].index, Some(1));
        assert_eq!(al.kind_table[1].name.as_deref(), Some("b"));
        assert_eq!(al.dispatch_arms.len(), 3);
        assert!(!al.dispatch_has_wildcard);
    }

    #[test]
    fn test_masked_alphabets_are_ignored() {
        let f = file(
            "telemetry",
            "src/obs.rs",
            r#"
            #[cfg(test)]
            mod tests {
                enum Event { Tick }
                impl Event {
                    fn kind_class(&self) -> (u8, &'static str) {
                        match self { Event::Tick => (0, "tick") }
                    }
                }
            }
            "#,
        );
        assert!(extract_alphabet(&f).is_none());
    }
}
