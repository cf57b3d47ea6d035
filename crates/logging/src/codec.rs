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
use std::cmp::Ordering;
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

/// A key or value of a line: the slice itself when `plain` (no `%`, no
/// non-ASCII byte), else [`unescape`]d.
#[inline]
fn token(s: &str, plain: bool) -> Result<Cow<'_, str>, CodecError> {
    if plain {
        Ok(Cow::Borrowed(s))
    } else {
        unescape(s).map(Cow::Owned)
    }
}

/// Undo percent-escaping. The result is the Latin-1 reading of the
/// token's bytes: one byte, escaped or not, one `char`.
#[cold]
fn unescape(s: &str) -> Result<String, CodecError> {
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
    Ok(out)
}

type Pair<'a> = (Cow<'a, str>, Cow<'a, str>);

/// `a < b`, settled by the first bytes where those differ: a report's
/// keys mostly do, and the line is spared a `memcmp` call per key.
fn below(a: &str, b: &str) -> bool {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    match a.first().cmp(&b.first()) {
        Ordering::Equal => a < b,
        first => first.is_lt(),
    }
}

/// Push the pairs of `s` left to right as far as the syntax holds, in one
/// walk over its bytes, and clear `ascending` at a key not above the one
/// before it. A pair goes in when its `&` closes it, its key first: a
/// repeated key is an error before a bad escape in its value.
fn scan<'a>(s: &'a str, list: &mut List<'a>, ascending: &mut bool) -> Result<(), CodecError> {
    if s.is_empty() {
        return Ok(());
    }
    let bytes = s.as_bytes();
    // The pair being read starts at `start`, and `eq` is its first `=`.
    // `plain`: the key or value being read holds no `%` and no non-ASCII
    // byte; `key_plain` keeps the key's verdict past its `=`.
    let (mut start, mut eq) = (0, None);
    let (mut plain, mut key_plain) = (true, true);
    let mut i = 0;
    loop {
        let rest = &bytes[i..];
        i += rest
            .iter()
            .position(|&b| matches!(b, b'=' | b'&' | b'%' | 0x80..))
            .unwrap_or(rest.len());
        // The line's end reads as the `&` that closes the last pair.
        match bytes.get(i).map_or(b'&', |&b| b) {
            b'=' if eq.is_none() => (eq, key_plain, plain) = (Some(i), plain, true),
            b'&' => {
                let Some(eq) = eq.take() else {
                    return Err(CodecError::MissingEquals(s[start..i].to_string()));
                };
                let key = token(&s[start..eq], key_plain)?;
                if let Some((last, _)) = list.last() {
                    *ascending &= below(last, &key);
                }
                match token(&s[eq + 1..i], plain) {
                    Ok(value) => list.push((key, value)),
                    Err(e) => {
                        list.push((key, Cow::default()));
                        return Err(e);
                    }
                }
                if i == bytes.len() {
                    return Ok(());
                }
                (start, plain) = (i + 1, true);
            }
            b'%' | 0x80.. => plain = false,
            // An `=` inside a value.
            _ => {}
        }
        i += 1;
    }
}

/// Pairs held in place: every report class has at most this many.
const INLINE: usize = 8;

/// The pair list: up to [`INLINE`] pairs in place and a `Vec` beyond, so
/// decoding a report's line makes no allocator call. Reads and writes go
/// through the slice deref.
#[derive(Clone)]
#[expect(
    clippy::large_enum_variant,
    reason = "the inline array is the point: boxing it is the per-line allocation this type removes"
)]
enum List<'a> {
    /// `len ≤ INLINE` pairs at the front of the array.
    Inline(usize, [Pair<'a>; INLINE]),
    /// More than [`INLINE`] pairs.
    Spill(Vec<Pair<'a>>),
}

impl<'a> List<'a> {
    #[inline]
    fn push(&mut self, pair: Pair<'a>) {
        match self {
            List::Inline(len, a) if *len < INLINE => {
                a[*len] = pair;
                *len += 1;
            }
            List::Inline(_, a) => {
                let mut spill: Vec<Pair<'a>> = a.iter_mut().map(std::mem::take).collect();
                spill.push(pair);
                *self = List::Spill(spill);
            }
            List::Spill(v) => v.push(pair),
        }
    }

    /// Insert `pair` at index `i ≤ len`.
    fn insert(&mut self, i: usize, pair: Pair<'a>) {
        self.push(pair);
        self[i..].rotate_right(1);
    }
}

impl Default for List<'_> {
    fn default() -> Self {
        List::Inline(0, Default::default())
    }
}

impl<'a> std::ops::Deref for List<'a> {
    type Target = [Pair<'a>];

    #[inline]
    fn deref(&self) -> &[Pair<'a>] {
        match self {
            List::Inline(len, a) => &a[..*len],
            List::Spill(v) => v,
        }
    }
}

impl<'a> std::ops::DerefMut for List<'a> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [Pair<'a>] {
        match self {
            List::Inline(len, a) => &mut a[..*len],
            List::Spill(v) => v,
        }
    }
}

impl<'a> FromIterator<Pair<'a>> for List<'a> {
    fn from_iter<I: IntoIterator<Item = Pair<'a>>>(iter: I) -> Self {
        let mut list = List::default();
        iter.into_iter().for_each(|pair| list.push(pair));
        list
    }
}

impl PartialEq for List<'_> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for List<'_> {}

impl std::fmt::Debug for List<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

/// A map of `name=value` pairs, the in-memory form of a log string.
/// Decoded pairs borrow from the line and a report's fit in place, so a
/// well-formed report decodes without an allocator call.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Pairs<'a> {
    // Ascending by key, each key once: the deterministic encode order that
    // keeps logs byte-identical across runs.
    list: List<'a>,
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

    /// The pairs in ascending key order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.list.iter().map(|(k, v)| (&**k, &**v))
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
    #[inline]
    pub fn decode_strict(s: &'a str) -> Result<Pairs<'a>, CodecError> {
        Pairs::parse(s, true)
    }

    #[inline]
    fn parse(s: &'a str, strict: bool) -> Result<Pairs<'a>, CodecError> {
        // Built where it is returned from: the inline list is ~400 bytes.
        let mut pairs = Pairs::default();
        let list = &mut pairs.list;
        let mut ascending = true;
        let syntax = scan(s, list, &mut ascending);
        // Rare: a report's own encoding is ascending already. The sort is
        // stable, so the pairs of one key stay in line order: the second is
        // the key's first repeat, the last the one to keep.
        if !ascending {
            let mut order: Vec<usize> = (0..list.len()).collect();
            order.sort_by(|&a, &b| list[a].0.cmp(&list[b].0));
            let runs = || order.chunk_by(|&a, &b| list[a].0 == list[b].0);
            if let Some(&i) = runs().filter_map(|run| run.get(1)).min().filter(|_| strict) {
                return Err(CodecError::DuplicateKey(list[i].0.to_string()));
            }
            let kept: Vec<usize> = runs().filter_map(|run| run.last().copied()).collect();
            *list = kept.iter().map(|&i| std::mem::take(&mut list[i])).collect();
        }
        syntax.map(|()| pairs)
    }
}

#[cfg(test)]
mod tests;
