//! Offline stand-in for `serde_derive`.
//!
//! Generates `serde::Serialize` / `serde::Deserialize` impls for the
//! shim serde's value-tree model. Parsing is done directly over
//! `proc_macro::TokenStream` (no `syn`/`quote` — the build environment
//! has no registry access). Two shapes are supported, as real serde
//! encodes them: a non-generic struct with named fields is a map of
//! field name → value, and an enum whose variants all have named fields
//! is, under `#[serde(tag = "…")]`, internally tagged (the variant's
//! map with the tag key first). A map's unknown keys are ignored unless
//! the container says `deny_unknown_fields`.
//!
//! The `#[serde(…)]` attributes read are a subset of real serde's, with
//! its meaning, so a deriving crate builds unchanged against the real
//! crates:
//! - container: `deny_unknown_fields`; `tag = "k"` (required on an
//!   enum); `rename_all = "snake_case"` (variant names); `rename = "n"`
//!   (the type's name, which here only error messages show); and
//!   `remote = "Self"`, which emits inherent `to_value` / `from_value`
//!   functions instead of the trait impls, for a hand-written impl to
//!   wrap;
//! - field: `skip` (never written, read as `Default`), `default` (an
//!   absent key reads as `Default`) and `skip_serializing_if = "path"`.
//!
//! Any other attribute or shape is a compile error.

#![forbid(unsafe_code)]

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[derive(Default)]
struct Container {
    deny_unknown_fields: bool,
    tag: Option<String>,
    snake_case: bool,
    rename: Option<String>,
    remote: bool,
}

#[derive(Default)]
struct Field {
    name: String,
    skip: bool,
    default: bool,
    skip_if: Option<String>,
}

/// A struct (one shape, at path `Name`) or an enum's variants (at
/// `Name::Variant`, tagged with `json_name`).
struct Shape {
    path: String,
    json_name: String,
    fields: Vec<Field>,
}

struct Item {
    name: String,
    attrs: Container,
    shapes: Vec<Shape>,
}

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    gen_serialize(&parse_item(input))
        .parse()
        .expect("generated Serialize impl parses")
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    gen_deserialize(&parse_item(input))
        .parse()
        .expect("generated Deserialize impl parses")
}

// ---------------------------------------------------------------------
// Parsing

type Toks = std::iter::Peekable<proc_macro::token_stream::IntoIter>;

/// Consume leading `#[…]` attributes and a `pub` / `pub(...)`
/// visibility, if present, returning the `key` / `key = "value"` items
/// of the `#[serde(…)]` ones.
fn attrs_and_vis(toks: &mut Toks) -> Vec<(String, Option<String>)> {
    let mut serde = Vec::new();
    loop {
        match toks.peek() {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                toks.next();
                let body = match toks.next() {
                    Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Bracket => g.stream(),
                    other => panic!("expected attribute body after `#`, got {other:?}"),
                };
                let mut body = body.into_iter();
                if let (Some(TokenTree::Ident(id)), Some(TokenTree::Group(args))) =
                    (body.next(), body.next())
                {
                    if id.to_string() == "serde" {
                        serde.extend(serde_args(args.stream()));
                    }
                }
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                toks.next();
                toks.next_if(
                    |t| matches!(t, TokenTree::Group(g) if g.delimiter() == Delimiter::Parenthesis),
                );
            }
            _ => return serde,
        }
    }
}

/// `a, b = "c"` → `[("a", None), ("b", Some("c"))]`.
fn serde_args(args: TokenStream) -> Vec<(String, Option<String>)> {
    let mut toks = args.into_iter().peekable();
    let mut out = Vec::new();
    while toks.peek().is_some() {
        let key = expect_ident(&mut toks, "serde attribute");
        let value = match toks.peek() {
            Some(TokenTree::Punct(p)) if p.as_char() == '=' => {
                toks.next();
                match toks.next() {
                    Some(TokenTree::Literal(lit)) => {
                        Some(lit.to_string().trim_matches('"').to_string())
                    }
                    other => panic!("expected a string after `{key} =`, got {other:?}"),
                }
            }
            _ => None,
        };
        out.push((key, value));
        toks.next_if(|t| matches!(t, TokenTree::Punct(p) if p.as_char() == ','));
    }
    out
}

fn expect_ident(toks: &mut Toks, what: &str) -> String {
    match toks.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("expected {what}, got {other:?}"),
    }
}

fn parse_item(input: TokenStream) -> Item {
    let mut toks = input.into_iter().peekable();
    let mut attrs = Container::default();
    for (key, value) in attrs_and_vis(&mut toks) {
        match (key.as_str(), value) {
            ("deny_unknown_fields", None) => attrs.deny_unknown_fields = true,
            ("tag", Some(v)) => attrs.tag = Some(v),
            ("rename_all", Some(v)) if v == "snake_case" => attrs.snake_case = true,
            ("rename", Some(v)) => attrs.rename = Some(v),
            ("remote", Some(v)) if v == "Self" => attrs.remote = true,
            _ => panic!("serde shim derive does not support container attribute `{key}`"),
        }
    }
    let kw = expect_ident(&mut toks, "`struct` or `enum`");
    let name = expect_ident(&mut toks, "item name");
    let body = match toks.next() {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g.stream(),
        Some(TokenTree::Punct(p)) if p.as_char() == '<' => {
            panic!("serde shim derive does not support generic type `{name}`")
        }
        _ => panic!("serde shim derive supports named fields only, got `{name}`"),
    };
    let shapes = match (kw.as_str(), &attrs.tag) {
        ("struct", None) => vec![Shape {
            path: name.clone(),
            json_name: String::new(),
            fields: parse_named_fields(body),
        }],
        ("enum", Some(_)) => parse_variants(body, &name, attrs.snake_case),
        _ => panic!(
            "serde shim derive supports untagged structs and `#[serde(tag)]` enums, got {kw} `{name}`"
        ),
    };
    Item {
        name,
        attrs,
        shapes,
    }
}

/// Variants of an enum body, each with named fields.
fn parse_variants(body: TokenStream, name: &str, snake_case: bool) -> Vec<Shape> {
    let mut toks = body.into_iter().peekable();
    let mut shapes = Vec::new();
    loop {
        attrs_and_vis(&mut toks);
        if toks.peek().is_none() {
            return shapes;
        }
        let variant = expect_ident(&mut toks, "variant name");
        let fields = match toks.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                parse_named_fields(g.stream())
            }
            _ => panic!("serde shim derive needs named fields on `{name}::{variant}`"),
        };
        toks.next_if(|t| matches!(t, TokenTree::Punct(p) if p.as_char() == ','));
        shapes.push(Shape {
            path: format!("{name}::{variant}"),
            json_name: json_name(&variant, snake_case),
            fields,
        });
    }
}

/// `ServerCrash`, or under `rename_all = "snake_case"` `server_crash`.
fn json_name(variant: &str, snake_case: bool) -> String {
    if !snake_case {
        return variant.to_string();
    }
    let mut out = String::new();
    for (i, c) in variant.chars().enumerate() {
        if c.is_uppercase() && i > 0 {
            out.push('_');
        }
        out.extend(c.to_lowercase());
    }
    out
}

/// Fields of a `{ … }` body, skipping types (angle-bracket depth
/// tracked so `Vec<Option<u64>>` commas don't split fields).
fn parse_named_fields(body: TokenStream) -> Vec<Field> {
    let mut toks = body.into_iter().peekable();
    let mut fields = Vec::new();
    loop {
        let mut field = Field::default();
        for (key, value) in attrs_and_vis(&mut toks) {
            match (key.as_str(), value) {
                ("skip", None) => field.skip = true,
                ("default", None) => field.default = true,
                ("skip_serializing_if", Some(path)) => field.skip_if = Some(path),
                _ => panic!("serde shim derive does not support field attribute `{key}`"),
            }
        }
        if toks.peek().is_none() {
            return fields;
        }
        field.name = expect_ident(&mut toks, "field name");
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
        fields.push(field);
    }
}

// ---------------------------------------------------------------------
// Code generation

/// `body` as the trait impl, or as inherent functions under `remote`.
fn wrap(item: &Item, trait_name: &str, body: &str) -> String {
    let name = &item.name;
    if item.attrs.remote {
        format!("impl {name} {{ {body} }}")
    } else {
        format!("impl ::serde::{trait_name} for {name} {{ {body} }}")
    }
}

/// `match self { Path { f, .. } => { m.push(("f", to_value(f))); … } }`,
/// the tag first on an enum.
fn gen_serialize(item: &Item) -> String {
    let mut arms = String::new();
    for shape in &item.shapes {
        let mut binds = String::new();
        let mut pushes = match &item.attrs.tag {
            Some(tag) => format!(
                "m.push(({tag:?}.to_string(), ::serde::Value::Str({:?}.to_string())));",
                shape.json_name
            ),
            None => String::new(),
        };
        for f in shape.fields.iter().filter(|f| !f.skip) {
            let n = &f.name;
            binds += &format!("{n}, ");
            let push = format!("m.push(({n:?}.to_string(), ::serde::Serialize::to_value({n})));");
            pushes += &match &f.skip_if {
                Some(path) => format!("if !{path}({n}) {{ {push} }}"),
                None => push,
            };
        }
        arms += &format!("{} {{ {binds}.. }} => {{ {pushes} }}", shape.path);
    }
    let body = format!("fn to_value(&self) -> ::serde::Value {{ let mut m = ::std::vec::Vec::new(); match self {{ {arms} }} ::serde::Value::Map(m) }}");
    wrap(item, "Serialize", &body)
}

fn gen_deserialize(item: &Item) -> String {
    let Container {
        deny_unknown_fields,
        tag,
        rename,
        ..
    } = &item.attrs;
    let name = rename.as_ref().unwrap_or(&item.name);
    let build = |shape: &Shape| {
        let mut inits = String::new();
        let mut allowed: Vec<&str> = tag.iter().map(String::as_str).collect();
        for f in &shape.fields {
            let n = &f.name;
            if f.skip {
                inits += &format!("{n}: ::core::default::Default::default(),");
                continue;
            }
            allowed.push(n);
            let read = if f.default {
                "field_or_default"
            } else {
                "field_from_map"
            };
            inits += &format!("{n}: ::serde::{read}(m, {n:?})?,");
        }
        let check = match deny_unknown_fields {
            true => format!("::serde::deny_unknown_fields(m, &{allowed:?})?;"),
            false => String::new(),
        };
        format!(
            "{{ {check} ::core::result::Result::Ok({} {{ {inits} }}) }}",
            shape.path
        )
    };
    let body = match tag {
        None => build(&item.shapes[0]),
        Some(tag) => {
            let mut arms = String::new();
            let mut names = Vec::new();
            for shape in &item.shapes {
                arms += &format!("{:?} => {}", shape.json_name, build(shape));
                names.push(&shape.json_name);
            }
            format!(
                "match ::serde::variant_tag(m, {tag:?})? {{ {arms} \
                 other => ::core::result::Result::Err(::serde::variant_unknown({name:?}, {tag:?}, other, &{names:?})), }}"
            )
        }
    };
    let body = format!(
        "fn from_value(v: &::serde::Value) -> ::core::result::Result<Self, ::serde::Error> {{ \
         let m = v.as_map().ok_or_else(|| ::serde::Error::custom(\"{name}: expected map\"))?; {body} }}"
    );
    wrap(item, "Deserialize", &body)
}
