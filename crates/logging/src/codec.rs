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
//! else: [`scan`] hands each pair to the general decoder behind
//! [`Report::decode`](crate::Report::decode), which reads every line not
//! in the encoder's own layout and rejects a repeated key instead of
//! choosing between its values. Keys and values stay byte slices of the
//! line; text is built only for an error or an escaped token.

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

/// The text of a slice `scan` cut from a line. It starts and ends at a
/// delimiter, an ASCII byte, so it is whole UTF-8.
#[cold]
pub(crate) fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

/// The Latin-1 reading of an unescaped token: one byte, one `char`.
#[cold]
pub(crate) fn latin1(bytes: &[u8]) -> String {
    bytes.iter().map(|&b| char::from(b)).collect()
}

/// Undo percent-escaping: a `%` and the two bytes after it, read as
/// `u8::from_str_radix` reads them, become one byte.
#[cold]
fn unescape(token: &[u8]) -> Result<Vec<u8>, CodecError> {
    let bad = || CodecError::BadEscape(text(token));
    let mut out = Vec::with_capacity(token.len());
    let mut rest = token;
    while let Some((&b, tail)) = rest.split_first() {
        rest = tail;
        if b != b'%' {
            out.push(b);
            continue;
        }
        let hex = (tail.get(..2))
            .and_then(|hex| std::str::from_utf8(hex).ok())
            .ok_or_else(bad)?;
        out.push(u8::from_str_radix(hex, 16).map_err(|_| bad())?);
        rest = &tail[2..];
    }
    Ok(out)
}

/// A key or value as the line spells it: `plain` when it holds no `%`
/// and no non-ASCII byte, so that it reads as it stands.
#[derive(Clone, Copy)]
pub(crate) struct Token<'a> {
    pub(crate) bytes: &'a [u8],
    pub(crate) plain: bool,
}

impl<'a> Token<'a> {
    /// The token's bytes unescaped, borrowed from the line when it needs
    /// no unescaping.
    #[inline]
    pub(crate) fn decode(self) -> Result<Cow<'a, [u8]>, CodecError> {
        match self.plain {
            true => Ok(Cow::Borrowed(self.bytes)),
            false => unescape(self.bytes).map(Cow::Owned),
        }
    }

    /// Whether the token's escapes are well formed: [`decode`](Self::decode)
    /// without keeping what it builds.
    #[inline]
    pub(crate) fn check(self) -> Result<(), CodecError> {
        self.decode().map(drop)
    }
}

/// A pair's value as [`scan`] hands it over: still escaped, so a repeated
/// key can be refused before a bad escape in its value is read, and read
/// as a count on the way when it is one to nineteen decimal digits, which
/// always fit a `u64`.
#[derive(Clone, Copy)]
pub(crate) struct RawValue<'a> {
    pub(crate) token: Token<'a>,
    pub(crate) count: Option<u64>,
}

/// Whether `b` keeps a token from reading as it stands: a `%` escape or a
/// byte that is not ASCII.
#[inline]
fn escaped(b: u8) -> bool {
    matches!(b, b'%' | 0x80..)
}

/// Hand the pairs of `s` to `each` left to right, in one walk over its
/// bytes, until the syntax breaks or `each` refuses one. A pair goes out
/// when its `&` (or the line's end) closes it, with its key and value
/// raw. `known` names the keys the caller reads: given the line from a
/// pair's start, the key it opens with, closed by its `=`, and that key's
/// length. Such a key goes out as `Some` of it, without a walk over it.
#[inline]
pub(crate) fn scan<'a, K>(
    s: &'a str,
    known: impl Fn(&[u8]) -> Option<(K, usize)>,
    mut each: impl FnMut(Token<'a>, Option<K>, RawValue<'a>) -> Result<(), CodecError>,
) -> Result<(), CodecError> {
    let bytes = s.as_bytes();
    if bytes.is_empty() {
        return Ok(());
    }
    let mut start = 0;
    loop {
        // The key: a known one at the pair's start, or the bytes up to the
        // pair's first `=`.
        let (mut eq, mut plain) = (start, true);
        let known_key = match known(&bytes[start..]) {
            Some((key, len)) => {
                eq += len;
                Some(key)
            }
            None => loop {
                match bytes.get(eq) {
                    Some(b'=') => break None,
                    Some(b'&') | None => {
                        return Err(CodecError::MissingEquals(text(&bytes[start..eq])))
                    }
                    Some(&b) => plain &= !escaped(b),
                }
                eq += 1;
            },
        };
        let key = Token {
            bytes: &bytes[start..eq],
            plain,
        };
        // The value: up to the next `&` (an `=` in it is its own), its
        // digits read as a count on the way.
        let rest = &bytes[eq + 1..];
        let (mut len, mut count, mut digits) = (rest.len(), 0u64, true);
        plain = true;
        for (k, &b) in rest.iter().enumerate() {
            let digit = b.wrapping_sub(b'0');
            if digit < 10 {
                count = count.wrapping_mul(10).wrapping_add(u64::from(digit));
            } else if b == b'&' {
                len = k;
                break;
            } else {
                (digits, plain) = (false, plain && !escaped(b));
            }
        }
        let count = (digits && (1..20).contains(&len)).then_some(count);
        each(
            key,
            known_key,
            RawValue {
                token: Token {
                    bytes: &rest[..len],
                    plain,
                },
                count,
            },
        )?;
        if len == rest.len() {
            return Ok(());
        }
        start = eq + len + 2;
    }
}

#[cfg(test)]
mod tests;
