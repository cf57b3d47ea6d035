//! Offline stand-in for `serde_json`: renders and parses the shim
//! serde's [`Value`] tree as JSON. Covers the workspace's usage —
//! [`to_string`], [`to_string_pretty`], [`from_str`] — with full
//! string escaping, `\uXXXX` (including surrogate pairs), and integer
//! fidelity up to the full `u64`/`i64` ranges via `i128`.

#![forbid(unsafe_code)]

use serde::{Deserialize, Serialize, Value};
use std::fmt;

/// JSON serialization/parse failure.
#[derive(Debug)]
pub struct Error(String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

impl From<serde::Error> for Error {
    fn from(e: serde::Error) -> Self {
        Error(e.0)
    }
}

/// Render compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None, 0);
    Ok(out)
}

/// Render pretty-printed JSON (two-space indent, serde_json style).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some(2), 0);
    Ok(out)
}

/// Parse JSON text into any `Deserialize` type.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error(format!("trailing characters at byte {}", p.pos)));
    }
    Ok(T::from_value(&v)?)
}

// ---------------------------------------------------------------------
// Writer

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::Float(f) => write_float(out, *f),
        Value::Str(s) => write_string(out, s),
        Value::Seq(items) => write_block(out, indent, depth, '[', ']', items.len(), |out, i| {
            write_value(out, &items[i], indent, depth + 1);
        }),
        Value::Map(entries) => {
            write_block(out, indent, depth, '{', '}', entries.len(), |out, i| {
                let (k, val) = &entries[i];
                write_string(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, val, indent, depth + 1);
            })
        }
    }
}

fn write_block(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(w) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', w * (depth + 1)));
        }
        item(out, i);
    }
    if let Some(w) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', w * depth));
    }
    out.push(close);
}

/// serde_json renders non-finite floats as `null` and keeps a `.0` on
/// integral values so the type survives a round trip.
fn write_float(out: &mut String, f: f64) {
    if !f.is_finite() {
        out.push_str("null");
        return;
    }
    let s = format!("{f}");
    out.push_str(&s);
    if !s.contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------
// Parser

/// Deepest array/object nesting [`from_str`] accepts. The parser recurses
/// once per level, so without a bound a hostile input of a few hundred
/// thousand `[` overflows the stack; the workspace's documents nest < 10.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.parse_string()?)),
            Some(b'[') => self.nested(Self::parse_seq),
            Some(b'{') => self.nested(Self::parse_map),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            other => Err(Error(format!(
                "unexpected {:?} at byte {}",
                other.map(|b| b as char),
                self.pos
            ))),
        }
    }

    /// Run a container parser one nesting level down, refusing to go
    /// deeper than [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        if self.depth == MAX_DEPTH {
            return Err(Error(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            )));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(Error(format!("invalid literal at byte {}", self.pos)))
        }
    }

    fn parse_seq(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Seq(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Seq(items));
                }
                _ => return Err(Error(format!("expected `,` or `]` at byte {}", self.pos))),
            }
        }
    }

    fn parse_map(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Map(entries));
        }
        // A spec that says one thing twice must not run as either: real
        // serde rejects a repeated field too. A set, not a scan of
        // `entries`, so a hostile many-key object still fails fast.
        let mut seen = std::collections::BTreeSet::new();
        loop {
            self.skip_ws();
            let at = self.pos;
            let key = self.parse_string()?;
            if !seen.insert(key.clone()) {
                return Err(Error(format!("duplicate key `{key}` at byte {at}")));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.parse_value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Map(entries));
                }
                _ => return Err(Error(format!("expected `,` or `}}` at byte {}", self.pos))),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| Error("invalid utf-8 in string".into()))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.parse_escape(&mut out)?;
                }
                _ => return Err(Error(format!("unterminated string at byte {}", self.pos))),
            }
        }
    }

    fn parse_escape(&mut self, out: &mut String) -> Result<(), Error> {
        let esc = self
            .peek()
            .ok_or_else(|| Error("truncated escape".into()))?;
        self.pos += 1;
        match esc {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'b' => out.push('\u{08}'),
            b'f' => out.push('\u{0C}'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'u' => {
                let hi = self.parse_hex4()?;
                let code = if (0xD800..0xDC00).contains(&hi) {
                    // Surrogate pair: expect `\uXXXX` low half.
                    if self.peek() == Some(b'\\') {
                        self.pos += 1;
                        self.expect(b'u')?;
                        let lo = self.parse_hex4()?;
                        if !(0xDC00..0xE000).contains(&lo) {
                            return Err(Error("invalid low surrogate".into()));
                        }
                        0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                    } else {
                        return Err(Error("lone high surrogate".into()));
                    }
                } else {
                    hi
                };
                out.push(char::from_u32(code).ok_or_else(|| Error("invalid codepoint".into()))?);
            }
            other => return Err(Error(format!("bad escape `\\{}`", other as char))),
        }
        Ok(())
    }

    fn parse_hex4(&mut self) -> Result<u32, Error> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self
                .peek()
                .ok_or_else(|| Error("truncated \\u escape".into()))?;
            let d = (b as char)
                .to_digit(16)
                .ok_or_else(|| Error("non-hex in \\u escape".into()))?;
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error("invalid number bytes".into()))?;
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|e| Error(format!("bad float `{text}`: {e}")))
        } else {
            text.parse::<i128>()
                .map(Value::Int)
                .map_err(|e| Error(format!("bad integer `{text}`: {e}")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        assert_eq!(to_string(&42u64).unwrap(), "42");
        assert_eq!(to_string(&-3i32).unwrap(), "-3");
        assert_eq!(to_string(&1.5f64).unwrap(), "1.5");
        assert_eq!(to_string(&4.0f64).unwrap(), "4.0");
        assert_eq!(to_string(&true).unwrap(), "true");
        let x: u64 = from_str("42").unwrap();
        assert_eq!(x, 42);
        let f: f64 = from_str("4.0").unwrap();
        assert_eq!(f, 4.0);
        let big: u64 = from_str(&u64::MAX.to_string()).unwrap();
        assert_eq!(big, u64::MAX);
    }

    #[test]
    fn strings_escape_and_round_trip() {
        let s = "line\nquote\"back\\slash\ttab λ 中 🦀".to_string();
        let json = to_string(&s).unwrap();
        let back: String = from_str(&json).unwrap();
        assert_eq!(back, s);
        let controls = "a\"b\\c\nd\u{1}\u{8}";
        let json = to_string(controls).unwrap();
        assert_eq!(json, r#""a\"b\\c\nd\u0001\b""#);
        assert_eq!(from_str::<String>(&json).unwrap(), controls);
        let surrogate: String = from_str(r#""🦀""#).unwrap();
        assert_eq!(surrogate, "🦀");
    }

    #[test]
    fn seq_and_option_round_trip() {
        let v = vec![Some(1u32), None, Some(3)];
        let json = to_string(&v).unwrap();
        assert_eq!(json, "[1,null,3]");
        let back: Vec<Option<u32>> = from_str(&json).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn pretty_formatting_shape() {
        let v = vec![1u32, 2];
        assert_eq!(to_string_pretty(&v).unwrap(), "[\n  1,\n  2\n]");
        let empty: Vec<u32> = vec![];
        assert_eq!(to_string_pretty(&empty).unwrap(), "[]");
    }

    #[test]
    fn parse_errors_are_errors_not_panics() {
        assert!(from_str::<u32>("").is_err());
        assert!(from_str::<u32>("12 34").is_err());
        assert!(from_str::<String>("\"unterminated").is_err());
        assert!(from_str::<Vec<u32>>("[1,]").is_err());
        assert!(from_str::<bool>("tru").is_err());
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(from_str::<Value>(&nested(MAX_DEPTH)).is_ok());
        let err = from_str::<Value>(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.to_string().contains("nesting deeper than"), "{err}");
        // Unclosed, and far past what the stack would survive.
        for open in ["[", "{\"a\":"] {
            let err = from_str::<Value>(&open.repeat(200_000)).unwrap_err();
            assert!(err.to_string().contains("nesting deeper than"), "{err}");
        }
    }

    #[test]
    fn duplicate_keys_are_rejected() {
        let err = from_str::<Value>(r#"{"seed": 1, "rate": 2, "seed": 3}"#).unwrap_err();
        assert_eq!(err.to_string(), "duplicate key `seed` at byte 23");
        // In a nested object, and with the repeat spelled through an escape.
        let err = from_str::<Value>(r#"[{"a": {"k": 1, "\u006b": 2}}]"#).unwrap_err();
        assert_eq!(err.to_string(), "duplicate key `k` at byte 16");
        // The same key in two different objects is fine.
        assert!(from_str::<Value>(r#"{"a": {"k": 1}, "b": {"k": 2}}"#).is_ok());
        // 10^5 distinct keys and then a repeat of the first: no quadratic scan.
        let mut hostile = String::from("{");
        for i in 0..100_000 {
            hostile.push_str(&format!("\"k{i}\": 0, "));
        }
        hostile.push_str("\"k0\": 0}");
        let started = std::time::Instant::now();
        let err = from_str::<Value>(&hostile).unwrap_err();
        assert!(
            err.to_string().starts_with("duplicate key `k0` at byte "),
            "{err}"
        );
        assert!(started.elapsed().as_secs() < 5, "{:?}", started.elapsed());
    }

    #[test]
    fn whitespace_tolerant() {
        let v: Vec<u32> = from_str(" [ 1 , 2 ,\n 3 ] ").unwrap();
        assert_eq!(v, vec![1, 2, 3]);
    }
}
