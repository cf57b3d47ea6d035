//! Minimal JSON string rendering shared by the snapshot/profile/manifest
//! writers. Output is deterministic: callers control key order and all
//! numbers are integers (wall-clock values included — nanoseconds, not
//! fractional seconds).

/// Append `s` as a JSON string literal (with quotes) to `out`.
pub(crate) fn push_str_lit(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Append `"key":` to `out`.
pub(crate) fn push_key(out: &mut String, key: &str) {
    push_str_lit(out, key);
    out.push(':');
}

/// Append histogram buckets as `{"<inclusive upper edge>":count,…}`.
pub(crate) fn push_buckets(out: &mut String, buckets: impl Iterator<Item = (u64, u64)>) {
    out.push('{');
    for (i, (le, n)) in buckets.enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{le}\":{n}"));
    }
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_controls_and_quotes() {
        let mut s = String::new();
        push_str_lit(&mut s, "a\"b\\c\nd\u{1}");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }
}
