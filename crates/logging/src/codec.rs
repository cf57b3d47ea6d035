//! The log-string wire format.
//!
//! §V.A: *"Each log entry in the log file is a normal HTTP request URL
//! string referred as a log string. … The URL string contains various
//! number of data blocks, which are formed in `name=value` pairs and
//! separated by `&`."*
//!
//! We reproduce that format byte-for-byte in spirit: ordered
//! `name=value&name=value` pairs with percent-escaping of the three
//! delimiter characters. This module reads a line's syntax and nothing
//! else: [`scan`] hands each pair to [`Report::decode`](crate::Report::decode),
//! the one decoder, which rejects a repeated key instead of choosing
//! between its values.

use std::borrow::Cow;

/// Decode error for a log string.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// A pair had no `=` separator.
    MissingEquals(String),
    /// A percent escape was malformed.
    BadEscape(String),
    /// A key appeared more than once.
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

/// A pair's value as [`scan`] hands it over: still escaped, so a
/// repeated key can be refused before a bad escape in its value is read.
#[derive(Clone, Copy)]
pub(crate) struct RawValue<'a> {
    text: &'a str,
    plain: bool,
}

impl<'a> RawValue<'a> {
    /// The value unescaped, borrowed from the line when it needs no
    /// unescaping.
    #[inline]
    pub(crate) fn decode(self) -> Result<Cow<'a, str>, CodecError> {
        token(self.text, self.plain)
    }

    /// Whether the value's escapes are well formed: [`decode`](Self::decode)
    /// without keeping what it builds.
    #[inline]
    pub(crate) fn check(self) -> Result<(), CodecError> {
        match self.plain {
            true => Ok(()),
            false => unescape(self.text).map(drop),
        }
    }
}

/// Whether `scan` stops at `b`: a delimiter, an escape or a byte that
/// is not ASCII.
#[inline]
fn special(b: u8) -> bool {
    matches!(b, b'=' | b'&' | b'%' | 0x80..)
}

/// Bit `k` set where byte `k` of `block` (at most 64 bytes) is
/// [`special`]. Reads 8 bytes at a time, then finishes byte by byte.
#[inline]
fn special_mask(block: &[u8]) -> u64 {
    const ONES: u64 = u64::from_le_bytes([0x01; 8]);
    const LOW: u64 = ONES * 0x7f;
    const HIGH: u64 = ONES * 0x80;
    // The high bit of each zero byte of `w`. No carry crosses a byte, so
    // every bit is exact.
    let zero = |w: u64| !(((w & LOW) + LOW) | w) & HIGH;
    let mut words = block.chunks_exact(8);
    let mut mask = 0;
    for (k, word) in (&mut words).enumerate() {
        let w = u64::from_le_bytes(word.try_into().unwrap_or_default());
        let hits = zero(w ^ (ONES * u64::from(b'=')))
            | zero(w ^ (ONES * u64::from(b'&')))
            | zero(w ^ (ONES * u64::from(b'%')))
            | (w & HIGH);
        // Gather the eight high bits into the top byte, byte `j` to bit `56 + j`.
        mask |= ((hits >> 7).wrapping_mul(0x0102_0408_1020_4080) >> 56) << (8 * k);
    }
    let tail = words.remainder();
    let done = block.len() - tail.len();
    for (k, &b) in tail.iter().enumerate() {
        mask |= u64::from(special(b)) << (done + k);
    }
    mask
}

/// The offsets of the [`special`] bytes of a line, in order, found one
/// 64-byte block at a time.
struct Specials<'a> {
    bytes: &'a [u8],
    /// Offset of the block `mask` covers.
    block: usize,
    /// The block's special bytes not yet handed out.
    mask: u64,
}

impl<'a> Specials<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Specials {
            bytes,
            block: 0,
            mask: special_mask(&bytes[..bytes.len().min(64)]),
        }
    }
}

impl Iterator for Specials<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.mask == 0 {
            self.block += 64;
            let rest = self.bytes.get(self.block..).filter(|r| !r.is_empty())?;
            self.mask = special_mask(&rest[..rest.len().min(64)]);
        }
        let at = self.block + self.mask.trailing_zeros() as usize;
        self.mask &= self.mask - 1;
        Some(at)
    }
}

/// Hand the pairs of `s` to `each` left to right, in one walk over its
/// bytes, until the syntax breaks or `each` refuses one. A pair goes out
/// when its `&` (or the line's end) closes it, with its key unescaped and
/// its value raw.
#[inline]
pub(crate) fn scan<'a>(
    s: &'a str,
    mut each: impl FnMut(Cow<'a, str>, RawValue<'a>) -> Result<(), CodecError>,
) -> Result<(), CodecError> {
    if s.is_empty() {
        return Ok(());
    }
    let bytes = s.as_bytes();
    // The pair being read starts at `start`, and `eq` is its first `=`.
    // `plain`: the key or value being read holds no `%` and no non-ASCII
    // byte; `key_plain` keeps the key's verdict past its `=`.
    let (mut start, mut eq) = (0, None);
    let (mut plain, mut key_plain) = (true, true);
    for i in Specials::new(bytes).chain([bytes.len()]) {
        // The line's end reads as the `&` that closes the last pair.
        match bytes.get(i).map_or(b'&', |&b| b) {
            b'=' if eq.is_none() => (eq, key_plain, plain) = (Some(i), plain, true),
            b'&' => {
                let Some(eq) = eq.take() else {
                    return Err(CodecError::MissingEquals(s[start..i].to_string()));
                };
                let key = token(&s[start..eq], key_plain)?;
                each(
                    key,
                    RawValue {
                        text: &s[eq + 1..i],
                        plain,
                    },
                )?;
                (start, plain) = (i + 1, true);
            }
            b'%' | 0x80.. => plain = false,
            // An `=` inside a value.
            _ => {}
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests;
