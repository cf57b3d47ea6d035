//! A small comment- and string-aware Rust lexer.
//!
//! This is deliberately *not* a full Rust grammar: `cs-lint` only needs a
//! token stream that is faithful about what is code versus what is a
//! comment, string, char literal, or lifetime, with accurate line numbers.
//! Everything rule-relevant (identifiers, numeric literals, a handful of
//! two-character operators) is tokenized; the rest degrades to
//! single-character punctuation tokens.
//!
//! The lexer also extracts `cs-lint` *allow-escape* comments so the rule
//! engine can suppress findings, and records which token ranges live under
//! a `#[cfg(test)]` / `#[test]` item so test-only code is exempt from the
//! runtime-determinism rules.

/// What kind of token this is.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`HashMap`, `as`, `fn`, ...).
    Ident,
    /// Integer literal (`42`, `0xff_u32`).
    Int,
    /// Float literal (`0.0`, `1e-9`, `3f64`).
    Float,
    /// String, byte-string, or raw-string literal. `text` holds the raw
    /// contents between the quotes (escape sequences unprocessed); the
    /// rules ignore `Str` tokens entirely.
    Str,
    /// Char literal (`'x'`, `'\n'`).
    Char,
    /// Lifetime or loop label (`'a`, `'static`).
    Lifetime,
    /// Punctuation. Multi-character operators that matter to rules
    /// (`==`, `!=`, `<=`, `>=`, `::`, `->`, `=>`) are kept whole;
    /// everything else is a single character.
    Punct,
}

/// One token with its 1-based source line.
#[derive(Clone, Debug)]
pub struct Tok {
    /// Token kind.
    pub kind: TokKind,
    /// Token text as it appeared in the source.
    pub text: String,
    /// 1-based line the token starts on.
    pub line: u32,
}

impl Tok {
    /// True if this token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// True if this token is the punctuation `s`.
    pub fn is_punct(&self, s: &str) -> bool {
        self.kind == TokKind::Punct && self.text == s
    }
}

/// An allow-escape extracted from a comment, e.g.
/// `// cs-lint: allow(lossy-cast) — <reason>`.
#[derive(Clone, Debug)]
pub struct AllowEscape {
    /// 1-based line the escape comment appears on. The escape covers
    /// findings on this line and the next (trailing- and above-style).
    pub line: u32,
    /// The rule slug inside `allow(...)`.
    pub slug: String,
    /// Whether a non-empty reason follows the `allow(...)`.
    pub has_reason: bool,
}

/// Lexer output: tokens plus side-channel comment data.
#[derive(Debug, Default)]
pub struct Lexed {
    /// The token stream (comments and whitespace removed).
    pub tokens: Vec<Tok>,
    /// All allow-escapes found in comments, in source order.
    pub escapes: Vec<AllowEscape>,
}

/// Scan a comment body for a `cs-lint` allow-escape.
fn scan_escape(body: &str, line: u32, out: &mut Vec<AllowEscape>) {
    let Some(at) = body.find("cs-lint:") else {
        return;
    };
    let rest = body[at + "cs-lint:".len()..].trim_start();
    let Some(rest) = rest.strip_prefix("allow(") else {
        return;
    };
    let Some(close) = rest.find(')') else {
        return;
    };
    let slug = rest[..close].trim().to_string();
    // A reason must follow the closing paren: any text beyond separator
    // punctuation (dashes, colons) counts.
    let reason = rest[close + 1..]
        .trim_matches(|c: char| c.is_whitespace() || c == '-' || c == ':' || c == '—' || c == '–');
    out.push(AllowEscape {
        line,
        slug,
        has_reason: !reason.is_empty(),
    });
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Tokenize `src`. Never fails: unterminated constructs simply consume the
/// rest of the input, which is the forgiving behaviour a linter wants.
pub fn lex(src: &str) -> Lexed {
    let b: Vec<char> = src.chars().collect();
    let n = b.len();
    let mut i = 0usize;
    let mut line: u32 = 1;
    let mut out = Lexed::default();

    // Two-char operators we keep whole (rule-relevant or ambiguity-prone).
    const TWO: [&str; 7] = ["==", "!=", "<=", ">=", "::", "->", "=>"];

    while i < n {
        let c = b[i];
        // Whitespace.
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        // Line comment (also doc comments).
        if c == '/' && i + 1 < n && b[i + 1] == '/' {
            let start = i;
            while i < n && b[i] != '\n' {
                i += 1;
            }
            let body: String = b[start..i].iter().collect();
            scan_escape(&body, line, &mut out.escapes);
            continue;
        }
        // Block comment, possibly nested.
        if c == '/' && i + 1 < n && b[i + 1] == '*' {
            let mut depth = 1;
            let mut body_line = line;
            let start = i;
            i += 2;
            let mut seg_start = start;
            while i < n && depth > 0 {
                if b[i] == '\n' {
                    let seg: String = b[seg_start..i].iter().collect();
                    scan_escape(&seg, body_line, &mut out.escapes);
                    line += 1;
                    body_line = line;
                    seg_start = i + 1;
                } else if b[i] == '/' && i + 1 < n && b[i + 1] == '*' {
                    depth += 1;
                    i += 1;
                } else if b[i] == '*' && i + 1 < n && b[i + 1] == '/' {
                    depth -= 1;
                    i += 1;
                }
                i += 1;
            }
            let seg: String = b[seg_start..i.min(n)].iter().collect();
            scan_escape(&seg, body_line, &mut out.escapes);
            continue;
        }
        // Raw strings / raw identifiers: r"...", r#"..."#, br#"..."#, r#ident.
        if (c == 'r' || c == 'b') && i + 1 < n {
            // Figure out the prefix shape.
            let (p, is_raw) = match (c, b[i + 1]) {
                ('r', '"') | ('r', '#') => (1usize, true),
                ('b', 'r') if i + 2 < n && (b[i + 2] == '"' || b[i + 2] == '#') => (2, true),
                _ => (0, false),
            };
            if is_raw {
                let mut j = i + p;
                let mut hashes = 0usize;
                while j < n && b[j] == '#' {
                    hashes += 1;
                    j += 1;
                }
                if j < n && b[j] == '"' {
                    // Raw string: scan to closing quote + same number of '#'.
                    let tok_line = line;
                    j += 1;
                    let content_start = j;
                    let content_end;
                    loop {
                        if j >= n {
                            content_end = j;
                            break;
                        }
                        if b[j] == '\n' {
                            line += 1;
                            j += 1;
                            continue;
                        }
                        if b[j] == '"' {
                            let mut k = 0usize;
                            while k < hashes && j + 1 + k < n && b[j + 1 + k] == '#' {
                                k += 1;
                            }
                            if k == hashes {
                                content_end = j;
                                j += 1 + hashes;
                                break;
                            }
                        }
                        j += 1;
                    }
                    out.tokens.push(Tok {
                        kind: TokKind::Str,
                        text: b[content_start..content_end.min(n)].iter().collect(),
                        line: tok_line,
                    });
                    i = j;
                    continue;
                } else if hashes > 0 && j < n && is_ident_start(b[j]) && c == 'r' {
                    // Raw identifier r#ident.
                    let start = j;
                    while j < n && is_ident_continue(b[j]) {
                        j += 1;
                    }
                    out.tokens.push(Tok {
                        kind: TokKind::Ident,
                        text: b[start..j].iter().collect(),
                        line,
                    });
                    i = j;
                    continue;
                }
                // Fall through: plain ident starting with r/b.
            }
        }
        // String literal (including b"...").
        if c == '"' || (c == 'b' && i + 1 < n && b[i + 1] == '"') {
            let tok_line = line;
            i += if c == 'b' { 2 } else { 1 };
            let content_start = i;
            let mut content_end = n;
            while i < n {
                match b[i] {
                    '\\' => i += 2,
                    '"' => {
                        content_end = i;
                        i += 1;
                        break;
                    }
                    '\n' => {
                        line += 1;
                        i += 1;
                    }
                    _ => i += 1,
                }
            }
            out.tokens.push(Tok {
                kind: TokKind::Str,
                text: b[content_start..content_end.min(n)].iter().collect(),
                line: tok_line,
            });
            continue;
        }
        // Char literal vs lifetime/label.
        if c == '\'' {
            // `'\...'` or `'x'` is a char; `'ident` (not followed by a
            // closing quote) is a lifetime or loop label.
            if i + 1 < n && b[i + 1] == '\\' {
                // Escaped char literal: scan to closing quote.
                let tok_line = line;
                i += 2;
                while i < n && b[i] != '\'' {
                    i += 1;
                }
                i += 1;
                out.tokens.push(Tok {
                    kind: TokKind::Char,
                    text: String::new(),
                    line: tok_line,
                });
                continue;
            }
            if i + 2 < n && b[i + 2] == '\'' && b[i + 1] != '\'' {
                out.tokens.push(Tok {
                    kind: TokKind::Char,
                    text: String::new(),
                    line,
                });
                i += 3;
                continue;
            }
            // Lifetime / label.
            let start = i;
            i += 1;
            while i < n && is_ident_continue(b[i]) {
                i += 1;
            }
            out.tokens.push(Tok {
                kind: TokKind::Lifetime,
                text: b[start..i].iter().collect(),
                line,
            });
            continue;
        }
        // Numeric literal.
        if c.is_ascii_digit() {
            let start = i;
            let mut is_float = false;
            if c == '0' && i + 1 < n && matches!(b[i + 1], 'x' | 'o' | 'b') {
                i += 2;
                while i < n && (b[i].is_ascii_alphanumeric() || b[i] == '_') {
                    i += 1;
                }
            } else {
                while i < n && (b[i].is_ascii_digit() || b[i] == '_') {
                    i += 1;
                }
                // Fractional part: a '.' NOT followed by another '.' (range)
                // or an identifier start (method call like `1.max(2)`).
                if i < n
                    && b[i] == '.'
                    && (i + 1 >= n || (!is_ident_start(b[i + 1]) && b[i + 1] != '.'))
                {
                    is_float = true;
                    i += 1;
                    while i < n && (b[i].is_ascii_digit() || b[i] == '_') {
                        i += 1;
                    }
                }
                // Exponent.
                if i < n
                    && (b[i] == 'e' || b[i] == 'E')
                    && i + 1 < n
                    && (b[i + 1].is_ascii_digit()
                        || ((b[i + 1] == '+' || b[i + 1] == '-')
                            && i + 2 < n
                            && b[i + 2].is_ascii_digit()))
                {
                    is_float = true;
                    i += 1;
                    if b[i] == '+' || b[i] == '-' {
                        i += 1;
                    }
                    while i < n && (b[i].is_ascii_digit() || b[i] == '_') {
                        i += 1;
                    }
                }
                // Type suffix (u32, f64, ...).
                let suf_start = i;
                while i < n && is_ident_continue(b[i]) {
                    i += 1;
                }
                let suf: String = b[suf_start..i].iter().collect();
                if suf == "f32" || suf == "f64" {
                    is_float = true;
                }
            }
            out.tokens.push(Tok {
                kind: if is_float {
                    TokKind::Float
                } else {
                    TokKind::Int
                },
                text: b[start..i].iter().collect(),
                line,
            });
            continue;
        }
        // Identifier / keyword.
        if is_ident_start(c) {
            let start = i;
            while i < n && is_ident_continue(b[i]) {
                i += 1;
            }
            out.tokens.push(Tok {
                kind: TokKind::Ident,
                text: b[start..i].iter().collect(),
                line,
            });
            continue;
        }
        // Two-char operators, else single-char punct.
        if i + 1 < n {
            let pair: String = [b[i], b[i + 1]].iter().collect();
            if TWO.contains(&pair.as_str()) {
                out.tokens.push(Tok {
                    kind: TokKind::Punct,
                    text: pair,
                    line,
                });
                i += 2;
                continue;
            }
        }
        out.tokens.push(Tok {
            kind: TokKind::Punct,
            text: c.to_string(),
            line,
        });
        i += 1;
    }
    out
}

/// Compute, for each token, whether it lives inside a `#[cfg(test)]` or
/// `#[test]` item (including the attribute itself). Returns a bitmap
/// parallel to `tokens`.
///
/// Recognition is token-shaped, not grammar-shaped: a `#[...]` attribute
/// whose *first* identifier is `cfg` or `test` and which mentions `test`
/// marks the next item. The item extends to the matching `}` of the first
/// `{` encountered, or to the first `;` if one comes first (e.g.
/// `#[cfg(test)] mod tests;`).
pub fn test_mask(tokens: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        if !(tokens[i].is_punct("#")
            && i + 1 < tokens.len()
            && tokens[i + 1].is_punct("[")
            && attr_is_test(tokens, i + 1))
        {
            i += 1;
            continue;
        }
        let attr_start = i;
        // Skip this attribute and any further attributes on the same item.
        let mut j = skip_attr(tokens, i + 1);
        loop {
            if j + 1 < tokens.len() && tokens[j].is_punct("#") && tokens[j + 1].is_punct("[") {
                j = skip_attr(tokens, j + 1);
            } else {
                break;
            }
        }
        // Find the end of the item: matching `}` of the first `{`, or the
        // first `;` at depth 0 if it comes before any `{`.
        let mut depth = 0i32;
        let mut end = j;
        while end < tokens.len() {
            let t = &tokens[end];
            if t.is_punct("{") {
                depth += 1;
            } else if t.is_punct("}") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if t.is_punct(";") && depth == 0 {
                break;
            }
            end += 1;
        }
        let end = end.min(tokens.len().saturating_sub(1));
        for m in mask.iter_mut().take(end + 1).skip(attr_start) {
            *m = true;
        }
        i = end + 1;
    }
    mask
}

/// Given `tokens[open]` == `[` of an attribute, return the index just past
/// the matching `]`.
fn skip_attr(tokens: &[Tok], open: usize) -> usize {
    let mut depth = 0i32;
    let mut i = open;
    while i < tokens.len() {
        if tokens[i].is_punct("[") {
            depth += 1;
        } else if tokens[i].is_punct("]") {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    tokens.len()
}

/// Does the attribute starting at `tokens[open]` (== `[`) mark test code?
fn attr_is_test(tokens: &[Tok], open: usize) -> bool {
    let close = skip_attr(tokens, open);
    let inner = &tokens[open + 1..close.saturating_sub(1).max(open + 1)];
    let Some(first) = inner.iter().find(|t| t.kind == TokKind::Ident) else {
        return false;
    };
    // `#[test]` or `#[cfg(test)]` / `#[cfg(all(test, ...))]`; deliberately
    // NOT `#[cfg_attr(test, ...)]`, whose item still exists in non-test
    // builds.
    if first.text == "test" {
        return true;
    }
    first.text == "cfg" && inner.iter().any(|t| t.is_ident("test"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_comments_are_opaque() {
        let l = lex(r#"let x = "HashMap"; // HashMap in comment"#);
        assert!(!l.tokens.iter().any(|t| t.is_ident("HashMap")));
    }

    #[test]
    fn idents_and_floats() {
        let l = lex("let y = 0.5 + x.max(1) as f64;");
        assert!(l.tokens.iter().any(|t| t.kind == TokKind::Float));
        assert!(l.tokens.iter().any(|t| t.is_ident("as")));
        let one = l
            .tokens
            .iter()
            .find(|t| t.text == "1")
            .map(|t| t.kind.clone());
        assert_eq!(one, Some(TokKind::Int));
    }

    #[test]
    fn range_is_not_float() {
        let l = lex("for i in 0..10 {}");
        assert!(l.tokens.iter().all(|t| t.kind != TokKind::Float));
    }

    #[test]
    fn lifetimes_vs_chars() {
        let l = lex("fn f<'a>(x: &'a str) { let c = 'x'; let esc = '\\n'; }");
        let lifetimes = l
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .count();
        let chars = l.tokens.iter().filter(|t| t.kind == TokKind::Char).count();
        assert_eq!(lifetimes, 2);
        assert_eq!(chars, 2);
    }

    #[test]
    fn escape_parsing() {
        let l = lex("let x = 1; // cs-lint: allow(lossy-cast) — value bounded by k\nlet y = 2; // cs-lint: allow(float-eq)");
        assert_eq!(l.escapes.len(), 2);
        assert_eq!(l.escapes[0].slug, "lossy-cast");
        assert!(l.escapes[0].has_reason);
        assert_eq!(l.escapes[1].line, 2);
        assert!(!l.escapes[1].has_reason);
    }

    #[test]
    fn cfg_test_region() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n fn b() { x.unwrap(); }\n}\nfn c() {}\n";
        let l = lex(src);
        let mask = test_mask(&l.tokens);
        let unwrap_ix = l
            .tokens
            .iter()
            .position(|t| t.is_ident("unwrap"))
            .expect("unwrap token");
        assert!(mask[unwrap_ix]);
        let c_ix = l
            .tokens
            .iter()
            .position(|t| t.is_ident("c"))
            .expect("c token");
        assert!(!mask[c_ix]);
    }

    #[test]
    fn raw_strings() {
        let l = lex(r##"let s = r#"HashMap "quoted" inside"#; let t = 5;"##);
        assert!(!l.tokens.iter().any(|t| t.is_ident("HashMap")));
        assert!(l.tokens.iter().any(|t| t.text == "5"));
    }

    #[test]
    fn nested_block_comment() {
        let l = lex("/* outer /* inner */ still comment */ let z = 3;");
        assert!(l.tokens.iter().any(|t| t.text == "3"));
        assert!(!l.tokens.iter().any(|t| t.is_ident("inner")));
    }
}
