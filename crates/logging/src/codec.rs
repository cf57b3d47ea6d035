//! The log-string wire format.
//!
//! §V.A: *"Each log entry in the log file is a normal HTTP request URL
//! string referred as a log string. … The URL string contains various
//! number of data blocks, which are formed in `name=value` pairs and
//! separated by `&`."*
//!
//! We reproduce that format byte-for-byte in spirit: ordered
//! `name=value&name=value` pairs with percent-escaping of the three
//! delimiter characters. The codec is deliberately permissive on decode
//! (unknown keys are preserved, duplicate keys keep the last value) because
//! real log pipelines must tolerate client-version skew.

use std::borrow::Cow;
use std::fmt::Write as _;

/// Decode error for a log string.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// A pair had no `=` separator.
    MissingEquals(String),
    /// A percent escape was malformed.
    BadEscape(String),
    /// A key appeared more than once (strict decode only).
    DuplicateKey(String),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::MissingEquals(p) => write!(f, "pair without '=': {p:?}"),
            CodecError::BadEscape(p) => write!(f, "bad percent escape in {p:?}"),
            CodecError::DuplicateKey(k) => write!(f, "duplicate key {k:?}"),
        }
    }
}

impl std::error::Error for CodecError {}

fn escape_into(out: &mut String, s: &str) {
    for b in s.bytes() {
        match b {
            b'&' | b'=' | b'%' => {
                let _ = write!(out, "%{b:02X}");
            }
            _ => out.push(b as char),
        }
    }
}

/// Undo percent-escaping. The decoded string is the Latin-1 reading of
/// the line's bytes, so ASCII without a `%` is returned as the slice it
/// is and anything else is rebuilt one byte, one `char`.
fn unescape(s: &str) -> Result<Cow<'_, str>, CodecError> {
    if s.bytes().all(|b| b != b'%' && b.is_ascii()) {
        return Ok(Cow::Borrowed(s));
    }
    let bad = || CodecError::BadEscape(s.to_string());
    let bytes = s.as_bytes();
    let mut out = String::with_capacity(s.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = s.get(i + 1..i + 3).ok_or_else(bad)?;
            out.push(u8::from_str_radix(hex, 16).map_err(|_| bad())? as char);
            i += 3;
        } else {
            out.push(bytes[i] as char);
            i += 1;
        }
    }
    Ok(Cow::Owned(out))
}

type Pair<'a> = (Cow<'a, str>, Cow<'a, str>);

/// Push the pairs of `s` left to right as far as the syntax holds. A key
/// goes in before its value is looked at: repeating one is an error first.
fn scan<'a>(s: &'a str, list: &mut Vec<Pair<'a>>) -> Result<(), CodecError> {
    if s.is_empty() {
        return Ok(());
    }
    for pair in s.split('&') {
        let (k, v) = pair
            .split_once('=')
            .ok_or_else(|| CodecError::MissingEquals(pair.to_string()))?;
        list.push((unescape(k)?, Cow::default()));
        if let Some(pushed) = list.last_mut() {
            pushed.1 = unescape(v)?;
        }
    }
    Ok(())
}

/// A map of `name=value` pairs, the in-memory form of a log string.
/// Decoded pairs borrow from the line, so a well-formed report costs one
/// allocation: the pair list.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Pairs<'a> {
    // Ascending by key, each key once: the deterministic encode order that
    // keeps logs byte-identical across runs.
    list: Vec<Pair<'a>>,
}

impl<'a> Pairs<'a> {
    /// Empty pair set.
    pub fn new() -> Self {
        Pairs::default()
    }

    /// Insert (or overwrite) a pair.
    pub fn set(&mut self, key: &str, value: impl ToString) -> &mut Self {
        let value = Cow::Owned(value.to_string());
        match self.list.binary_search_by(|(k, _)| (**k).cmp(key)) {
            Ok(i) => self.list[i].1 = value,
            Err(i) => self.list.insert(i, (Cow::Owned(key.to_string()), value)),
        }
        self
    }

    /// Raw string value of `key`.
    pub fn get(&self, key: &str) -> Option<&str> {
        // A report has at most eight pairs: scanning them beats bisecting.
        self.list.iter().find(|(k, _)| k == key).map(|(_, v)| &**v)
    }

    /// Parse the value of `key` as an integer-like type.
    pub fn get_parsed<T: std::str::FromStr>(&self, key: &str) -> Option<T> {
        self.get(key)?.parse().ok()
    }

    /// Number of pairs.
    pub fn len(&self) -> usize {
        self.list.len()
    }

    /// Whether there are no pairs.
    pub fn is_empty(&self) -> bool {
        self.list.is_empty()
    }

    /// Encode as a log string.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        for (i, (k, v)) in self.list.iter().enumerate() {
            if i > 0 {
                out.push('&');
            }
            escape_into(&mut out, k);
            out.push('=');
            escape_into(&mut out, v);
        }
        out
    }

    /// Decode a log string permissively: duplicate keys keep the last
    /// value, matching how real log pipelines tolerate version skew.
    pub fn decode(s: &'a str) -> Result<Pairs<'a>, CodecError> {
        Pairs::parse(s, false)
    }

    /// Decode a log string strictly: a repeated key is rejected with
    /// [`CodecError::DuplicateKey`] instead of keeping the last value.
    /// Typed schemas ([`Report::decode`](crate::Report::decode)) use this
    /// so a corrupted or spliced line cannot silently shadow a field.
    pub fn decode_strict(s: &'a str) -> Result<Pairs<'a>, CodecError> {
        Pairs::parse(s, true)
    }

    fn parse(s: &'a str, strict: bool) -> Result<Pairs<'a>, CodecError> {
        // Every report class fits; a longer line grows the list.
        let mut list = Vec::with_capacity(8);
        let syntax = scan(s, &mut list);
        // Rare: a report's own encoding is ascending already. The sort is
        // stable, so the pairs of one key stay in line order: the second is
        // the key's first repeat, the last the one to keep.
        if list.windows(2).any(|w| w[0].0 >= w[1].0) {
            let mut order: Vec<usize> = (0..list.len()).collect();
            order.sort_by(|&a, &b| list[a].0.cmp(&list[b].0));
            let runs = || order.chunk_by(|&a, &b| list[a].0 == list[b].0);
            if let Some(&i) = runs().filter_map(|run| run.get(1)).min().filter(|_| strict) {
                return Err(CodecError::DuplicateKey(list[i].0.to_string()));
            }
            let kept: Vec<usize> = runs().filter_map(|run| run.last().copied()).collect();
            list = kept.iter().map(|&i| std::mem::take(&mut list[i])).collect();
        }
        syntax.map(|()| Pairs { list })
    }
}

#[cfg(test)]
mod tests;
