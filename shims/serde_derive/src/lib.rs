//! Offline stand-in for `serde_derive`.
//!
//! Generates `serde::Serialize` / `serde::Deserialize` impls for the
//! shim serde's value-tree model. Parsing is done directly over
//! `proc_macro::TokenStream` (no `syn`/`quote` — the build environment
//! has no registry access), which is sufficient because the workspace
//! derives only on plain non-generic structs with named fields and no
//! `#[serde(...)]` attributes. Such a struct encodes as a map of field
//! name → value (real serde's default); any other shape is rejected.

#![forbid(unsafe_code)]

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// A struct with named fields: its name and its field names.
struct Item {
    name: String,
    fields: Vec<String>,
}

#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_serialize(&item)
        .parse()
        .expect("generated Serialize impl parses")
}

#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_deserialize(&item)
        .parse()
        .expect("generated Deserialize impl parses")
}

// ---------------------------------------------------------------------
// Parsing

type Toks = std::iter::Peekable<proc_macro::token_stream::IntoIter>;

/// Consume leading `#[…]` attributes and a `pub` / `pub(...)`
/// visibility, if present.
fn skip_attrs_and_vis(toks: &mut Toks) {
    loop {
        match toks.peek() {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                toks.next();
                match toks.next() {
                    Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Bracket => {}
                    other => panic!("expected attribute body after `#`, got {other:?}"),
                }
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                toks.next();
                if let Some(TokenTree::Group(g)) = toks.peek() {
                    if g.delimiter() == Delimiter::Parenthesis {
                        toks.next();
                    }
                }
            }
            _ => return,
        }
    }
}

fn expect_ident(toks: &mut Toks, what: &str) -> String {
    match toks.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("expected {what}, got {other:?}"),
    }
}

fn parse_item(input: TokenStream) -> Item {
    let mut toks = input.into_iter().peekable();
    skip_attrs_and_vis(&mut toks);
    let kw = expect_ident(&mut toks, "`struct`");
    let name = expect_ident(&mut toks, "item name");
    if kw != "struct" {
        panic!("serde shim derive supports structs with named fields only, got {kw} `{name}`");
    }
    match toks.next() {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => Item {
            name,
            fields: parse_named_fields(g.stream()),
        },
        Some(TokenTree::Punct(p)) if p.as_char() == '<' => {
            panic!("serde shim derive does not support generic type `{name}`")
        }
        _ => panic!("serde shim derive supports structs with named fields only, got `{name}`"),
    }
}

/// Field names of a `{ … }` body, skipping types (angle-bracket depth
/// tracked so `Vec<Option<u64>>` commas don't split fields).
fn parse_named_fields(body: TokenStream) -> Vec<String> {
    let mut toks = body.into_iter().peekable();
    let mut fields = Vec::new();
    loop {
        skip_attrs_and_vis(&mut toks);
        if toks.peek().is_none() {
            return fields;
        }
        fields.push(expect_ident(&mut toks, "field name"));
        match toks.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            other => panic!("expected `:` after field name, got {other:?}"),
        }
        // Skip the type up to the next top-level comma.
        let mut angle_depth = 0i32;
        for tok in toks.by_ref() {
            match tok {
                TokenTree::Punct(p) if p.as_char() == '<' => angle_depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => angle_depth -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && angle_depth == 0 => break,
                _ => {}
            }
        }
    }
}

// ---------------------------------------------------------------------
// Code generation

/// `Value::Map(vec![("f", to_value(&self.f)), …])`.
fn gen_serialize(item: &Item) -> String {
    let Item { name, fields } = item;
    let entries: Vec<String> = fields
        .iter()
        .map(|f| format!("(\"{f}\".to_string(), ::serde::Serialize::to_value(&self.{f}))"))
        .collect();
    format!(
        "impl ::serde::Serialize for {name} {{\n  fn to_value(&self) -> ::serde::Value {{\n    ::serde::Value::Map(vec![{}])\n  }}\n}}",
        entries.join(", ")
    )
}

fn gen_deserialize(item: &Item) -> String {
    let Item { name, fields } = item;
    let inits: Vec<String> = fields
        .iter()
        .map(|f| format!("{f}: ::serde::field_from_map(m, \"{f}\")?,"))
        .collect();
    format!(
        "impl ::serde::Deserialize for {name} {{\n  fn from_value(v: &::serde::Value) -> ::core::result::Result<Self, ::serde::Error> {{\n    \
         let m = v.as_map().ok_or_else(|| ::serde::Error::custom(\"{name}: expected map\"))?;\n    \
         ::core::result::Result::Ok({name} {{ {} }})\n  }}\n}}",
        inits.join(" ")
    )
}
