//! The log server.
//!
//! §V.A: *"We placed a dedicated log server in the system. Each user
//! reports its activities to the log server including events and internal
//! status periodically. … The log server stores the reports received from
//! peers into a log file."*
//!
//! The server stores each report as a time-stamped raw *log string* — not
//! as a typed value — so the analysis pipeline is forced through the same
//! parse step a real measurement study performs, and inherits the same
//! information loss (e.g. nothing is recorded for a peer between its last
//! status report and its departure).

use std::borrow::Cow;
use std::fmt::Write as _;

use cs_sim::SimTime;

use crate::report::{Report, ReportError};

/// Successfully parsed reports, each with its log timestamp.
pub type ParsedReports = Vec<(SimTime, Report)>;
/// Log-line indexes that failed to parse, with the parse error.
pub type ParseFailures = Vec<(usize, ReportError)>;

/// Split a `<usecs> <logstring>` line, reading the timestamp leniently
/// (a `+` sign and leading zeros pass): `from_text`'s rewrite path.
fn stamped(line: &str) -> Result<(SimTime, &str), String> {
    let (ts, rest) = line.split_once(' ').ok_or("no timestamp separator")?;
    let us = ts.parse().map_err(|_| format!("bad timestamp {ts:?}"))?;
    Ok((SimTime::from_micros(us), rest))
}

/// Read the timestamp that opens `line` exactly as [`LogServer::report`]
/// writes it: a `u64` in canonical decimal (digits only, no sign, no
/// leading zero) closed by a space. Returns it with the offset of the
/// log string after the space; `None` for anything else.
fn stamp(line: &[u8]) -> Option<(u64, usize)> {
    let mut us: u64 = 0;
    for (k, &b) in line.iter().enumerate() {
        let digit = b.wrapping_sub(b'0');
        if digit > 9 {
            let canonical = b == b' ' && (k == 1 || (k > 1 && line[0] != b'0'));
            return canonical.then_some((us, k + 1));
        }
        // Nineteen digits always fit a `u64`; only a twentieth can overflow.
        us = match k {
            0..19 => us * 10 + u64::from(digit),
            _ => us.checked_mul(10)?.checked_add(u64::from(digit))?,
        };
    }
    None
}

/// The offset of the first `\n` in `bytes` at or after `at`: 8 bytes at a
/// time, then byte by byte.
fn newline(bytes: &[u8], mut at: usize) -> Option<usize> {
    const ONES: u64 = u64::from_le_bytes([0x01; 8]);
    const HIGH: u64 = u64::from_le_bytes([0x80; 8]);
    while let Some(word) = bytes.get(at..).and_then(<[u8]>::first_chunk::<8>) {
        let w = u64::from_le_bytes(*word) ^ (ONES * u64::from(b'\n'));
        // The high bit of each zero byte of `w`. A borrow can also set it
        // in a byte above a zero one, never below, so the lowest is exact.
        let zero = w.wrapping_sub(ONES) & !w & HIGH;
        if zero != 0 {
            return Some(at + zero.trailing_zeros() as usize / 8);
        }
        at += 8;
    }
    let rest = bytes.get(at..)?;
    rest.iter().position(|&b| b == b'\n').map(|k| at + k)
}

/// Byte length and line count of the longest run of whole canonical
/// lines at the start of `text`: each a [`stamp`], then a log string
/// that does not end in `\r`, then `\n`.
fn canonical_prefix(text: &str) -> (usize, usize) {
    let bytes = text.as_bytes();
    let (mut len, mut lines) = (0, 0);
    while let Some((_, body)) = stamp(&bytes[len..]) {
        let Some(end) = newline(bytes, len + body) else {
            break;
        };
        if bytes[end - 1] == b'\r' {
            break;
        }
        len = end + 1;
        lines += 1;
    }
    (len, lines)
}

/// In-memory log file.
#[derive(Default)]
pub struct LogServer<'a> {
    // The file itself, `<usecs> <logstring>\n` per report with the timestamp
    // in canonical decimal: appended to in place, read back by `lines`.
    // Borrowed only when `from_text` was handed a file already in this form.
    text: Cow<'a, str>,
    lines: usize,
}

impl<'a> LogServer<'a> {
    /// An empty log.
    pub fn new() -> Self {
        LogServer::default()
    }

    /// Ingest one report at server time `now`.
    pub fn report(&mut self, now: SimTime, report: &Report) {
        self.line(now, |text| report.encode_into(text));
    }

    /// Append one line; `body` writes its log string, with no `\n` in it.
    fn line(&mut self, now: SimTime, body: impl FnOnce(&mut String)) {
        let text = self.text.to_mut();
        let _ = write!(text, "{} ", now.as_micros());
        body(text);
        text.push('\n');
        self.lines += 1;
    }

    /// Number of log lines.
    pub fn len(&self) -> usize {
        self.lines
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.lines == 0
    }

    /// The log lines in arrival order: receive timestamp, raw log string.
    pub fn lines(&self) -> impl Iterator<Item = (SimTime, &str)> {
        let (text, mut at) = (&*self.text, 0);
        std::iter::from_fn(move || {
            let line = text.get(at..).filter(|rest| !rest.is_empty())?;
            #[expect(
                clippy::expect_used,
                reason = "`line` and `from_text` end every line of `text` with `\\n` and open it with `<canonical u64> `; nothing else writes to it"
            )]
            let (us, body, end) = stamp(line.as_bytes())
                .and_then(|(us, body)| Some((us, body, newline(line.as_bytes(), body)?)))
                .expect("a stored line is stamped and ends in a newline");
            at += end + 1;
            Some((SimTime::from_micros(us), &line[body..end]))
        })
    }

    /// Parse every line; malformed lines are returned as errors alongside
    /// their index rather than aborting the whole pass.
    pub fn parse_all(&self) -> (ParsedReports, ParseFailures) {
        let mut ok = Vec::with_capacity(self.lines);
        let mut bad = Vec::new();
        for (i, (time, line)) in self.lines().enumerate() {
            match Report::decode(line) {
                Ok(r) => ok.push((time, r)),
                Err(err) => bad.push((i, err)),
            }
        }
        (ok, bad)
    }

    /// The whole log file: one `<usecs> <logstring>` line per entry.
    pub fn as_text(&self) -> &str {
        &self.text
    }

    /// An owned copy of [`as_text`](Self::as_text).
    pub fn to_text(&self) -> String {
        self.as_text().to_owned()
    }

    /// Read back a log file produced by [`to_text`](Self::to_text).
    ///
    /// A file that is already exactly what `report` writes is borrowed, not
    /// copied. Otherwise the lines before the first one that differs are
    /// copied as they are and the rest re-written: every `\r` before a
    /// line's end and blank lines dropped, timestamps in canonical decimal,
    /// a missing final `\n` added. Errors name the 1-based line, blank
    /// lines counted.
    pub fn from_text(text: &'a str) -> Result<LogServer<'a>, String> {
        let (len, lines) = canonical_prefix(text);
        if len == text.len() {
            return Ok(LogServer {
                text: Cow::Borrowed(text),
                lines,
            });
        }
        let (head, tail) = text.split_at(len);
        // One copy: no line grows but an unterminated last one, by its `\n`.
        let mut copy = String::with_capacity(text.len() + 1);
        copy.push_str(head);
        let mut server = LogServer {
            text: Cow::Owned(copy),
            lines,
        };
        let tail_lines = tail.split('\n').map(|l| l.trim_end_matches('\r'));
        for (ix, line) in tail_lines.enumerate().filter(|(_, l)| !l.is_empty()) {
            let (time, rest) =
                stamped(line).map_err(|e| format!("line {}: {e}", lines + ix + 1))?;
            server.line(time, |text| text.push_str(rest));
        }
        Ok(server)
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::report::{ActivityKind, UserId};

    fn sample() -> Report {
        Report::Activity {
            user: UserId(1),
            node: 2,
            kind: ActivityKind::Join,
            private_addr: false,
        }
    }

    #[test]
    fn ingest_and_parse_round_trip() {
        let mut s = LogServer::new();
        s.report(SimTime::from_secs(10), &sample());
        s.report(
            SimTime::from_secs(20),
            &Report::Qos {
                user: UserId(1),
                node: 2,
                due: 100,
                missed: 1,
            },
        );
        let (ok, bad) = s.parse_all();
        assert_eq!(ok.len(), 2);
        assert!(bad.is_empty());
        assert_eq!(ok[0].0, SimTime::from_secs(10));
        assert_eq!(ok[0].1, sample());
    }

    #[test]
    fn malformed_lines_are_isolated() {
        let line = sample().encode();
        let text = format!("0 {line}\n1000000 garbage-without-equals\n2000000 {line}\n");
        let s = LogServer::from_text(&text).unwrap();
        let (ok, bad) = s.parse_all();
        assert_eq!(ok.len(), 2);
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].0, 1);
    }

    #[test]
    fn text_serialization_round_trips() {
        let mut s = LogServer::new();
        s.report(SimTime::from_millis(1500), &sample());
        s.report(
            SimTime::from_secs(300),
            &Report::Traffic {
                user: UserId(9),
                node: 9,
                up: 1,
                down: 2,
            },
        );
        let text = s.to_text();
        assert_eq!(text, s.as_text());
        let back = LogServer::from_text(&text).unwrap();
        assert_eq!(
            back.as_text().as_ptr(),
            text.as_ptr(),
            "borrowed, not copied"
        );
        assert!(back.lines().eq(s.lines()));
        assert_eq!(back.to_text(), text);
        assert_eq!(back.len(), 2);
    }

    #[test]
    fn from_text_normalises_what_it_accepts() {
        // `\r\n` endings, blank lines, a non-canonical timestamp and a
        // missing final newline all re-serialise to the canonical form,
        // which then round-trips unchanged.
        let s = LogServer::from_text("5 a=1\r\n\n\r\n007 x\n+9 y z").unwrap();
        let lines: Vec<_> = s.lines().collect();
        assert_eq!(
            lines,
            [
                (SimTime::from_micros(5), "a=1"),
                (SimTime::from_micros(7), "x"),
                (SimTime::from_micros(9), "y z"),
            ]
        );
        assert_eq!(s.len(), 3);
        assert_eq!(s.to_text(), "5 a=1\n7 x\n9 y z\n");
        let again = LogServer::from_text(s.as_text()).unwrap();
        assert_eq!(again.as_text(), s.as_text());
        // An empty log string is a line too.
        let s = LogServer::from_text("12 \n").unwrap();
        assert_eq!(
            s.lines().collect::<Vec<_>>(),
            [(SimTime::from_micros(12), "")]
        );
        assert_eq!(s.parse_all().1.len(), 1);
    }

    #[test]
    fn from_text_rejects_garbage() {
        let err = |text| LogServer::from_text(text).map(|_| ()).unwrap_err();
        assert_eq!(
            err("notatimestamp cls=act"),
            "line 1: bad timestamp \"notatimestamp\""
        );
        assert_eq!(err("12345nospace"), "line 1: no timestamp separator");
        // Line numbers are 1-based and count the skipped empty lines.
        assert_eq!(err("5 cls=act\n\nx"), "line 3: no timestamp separator");
    }

    #[test]
    fn empty_lines_are_skipped() {
        let s = LogServer::from_text("\n\n").unwrap();
        assert!(s.is_empty());
    }

    /// The `from_text` that re-serialised every line, with every trailing
    /// `\r` trimmed: the oracle for the borrowing one. Returns the text and
    /// line count it built.
    fn reference(text: &str) -> Result<(String, usize), String> {
        let mut server = LogServer::new();
        let lines = text.split('\n').map(|l| l.trim_end_matches('\r'));
        for (ix, line) in lines.enumerate().filter(|(_, l)| !l.is_empty()) {
            let (time, rest) = stamped(line).map_err(|e| format!("line {}: {e}", ix + 1))?;
            server.line(time, |text| text.push_str(rest));
        }
        Ok((server.to_text(), server.len()))
    }

    /// `from_text(text)` equals [`reference`] in text, line count, lines
    /// and error, and borrows exactly when the reference reproduces `text`.
    fn agrees(text: &str) -> Result<(), TestCaseError> {
        match (LogServer::from_text(text), reference(text)) {
            (Ok(got), Ok((want, lines))) => {
                prop_assert_eq!(got.as_text(), want.as_str());
                prop_assert_eq!(got.len(), lines);
                let want_lines = want.split_terminator('\n').map(|l| stamped(l).unwrap());
                prop_assert!(got.lines().eq(want_lines));
                prop_assert_eq!(got.as_text().as_ptr() == text.as_ptr(), want == text);
            }
            (Err(got), Err(want)) => prop_assert_eq!(got, want),
            (got, want) => prop_assert!(
                false,
                "{text:?}: from_text {:?}, reference {want:?}",
                got.map(|s| s.to_text())
            ),
        }
        Ok(())
    }

    #[test]
    fn from_text_matches_reference_on_corners() {
        let corners = [
            "",
            "\n",
            "5 a=1\n",
            "5 a=1\r\n6 b\n",
            "5 a=1\n\n6 b\n",
            "5 a=1\n\r\n6 b\n",
            "007 x\n",
            "0 x\n",
            "00 x\n",
            "+9 y z\n",
            "5 a=1\n6 b",
            "5 a=1\r",
            "5 x\r",
            "5 a=1\r\r\n6 b\r\r",
            "\r\r\n5 a\n",
            "12 \n",
            "12 \n13 ",
            "5  two spaces\n",
            "5 a\rb\n",
            "18446744073709551615 max\n",
            "18446744073709551616 over\n",
            "99999999999999999999 over\n",
            "5 a=1\n6\n",
            "5 a=1\nx y\n",
            "-1 x\n",
            " x\n",
        ];
        for text in corners {
            agrees(text).unwrap();
        }
        for canonical in ["", "0 x\n", "12 \n", "18446744073709551615 max\n"] {
            let s = LogServer::from_text(canonical).unwrap();
            assert_eq!(s.as_text().as_ptr(), canonical.as_ptr(), "{canonical:?}");
        }
    }

    /// The canonical-stamp check as it was before [`stamp`]: `is_canonical`
    /// on the line, then `stamped` to split it.
    fn reference_stamp(line: &str) -> Option<(u64, usize)> {
        let (ts, _) = line.split_once(' ')?;
        let decimal = match ts.as_bytes() {
            [b'0'] => true,
            [b'1'..=b'9', rest @ ..] => rest.iter().all(u8::is_ascii_digit),
            _ => false,
        };
        let (time, rest) = stamped(line).ok()?;
        decimal.then(|| (time.as_micros(), line.len() - rest.len()))
    }

    #[test]
    fn stamp_matches_reference() {
        let corners = [
            "0 x",
            "00 x",
            "+9 x",
            "-9 x",
            "",
            " x",
            "5x",
            "5",
            "5 ",
            "12 a b",
            "007 x",
            "0",
            "x 5",
            "123456789012345678901 x",
            "18446744073709551615 max",
            "18446744073709551616 over",
            "99999999999999999999 over",
            "10000000000000000000 x",
            "1844674407370955161 x",
            "١ x",
        ];
        for line in corners {
            assert_eq!(stamp(line.as_bytes()), reference_stamp(line), "{line:?}");
        }
        assert_eq!(stamp(b"18446744073709551615 m"), Some((u64::MAX, 21)));
        assert_eq!(stamp(b"18446744073709551616 m"), None);
    }

    /// Apply one edit to a log held as its lines, terminators included.
    fn mutate(lines: &mut Vec<String>, at: usize, edit: u8) {
        if lines.is_empty() {
            return;
        }
        let k = at % lines.len();
        let line = &mut lines[k];
        match edit {
            0 => *line = line.replacen('\n', "\r\n", 1),
            1 => lines.insert(k, "\n".into()),
            2 => line.insert(0, '0'),
            3 => line.insert(0, '+'),
            4 => {
                if let Some(last) = lines.last_mut() {
                    last.pop();
                }
            }
            5 => {
                let (_, rest) = line.split_once(' ').unwrap_or(("", line.as_str()));
                *line = format!("18446744073709551616 {rest}");
            }
            6 => *line = line.replacen(' ', "", 1),
            7 => lines.insert(k, "12 \n".into()),
            _ => line.insert(line.len().min(1), 'x'),
        }
    }

    proptest! {
        #[test]
        fn from_text_matches_reference_on_noise(text in "[0-9 +a=\r\n]{0,40}") {
            agrees(&text)?;
        }

        #[test]
        fn stamp_matches_reference_on_noise(line in "[0-9 +x-]{0,24}") {
            prop_assert_eq!(stamp(line.as_bytes()), reference_stamp(&line));
        }

        /// What `from_text` accepts, it stores canonically: reading its
        /// own text back borrows it and gives the same lines.
        #[test]
        fn from_text_output_is_canonical(
            lines in proptest::collection::vec(
                ("[0-9+]{0,3}", "[ a-c+\r]{0,6}", "\r{0,3}\n?"),
                0..6,
            ),
        ) {
            let text: String = lines.iter().map(|(t, body, end)| format!("{t} {body}{end}")).collect();
            if let Ok(server) = LogServer::from_text(&text) {
                let again = LogServer::from_text(server.as_text()).unwrap();
                prop_assert_eq!(again.as_text().as_ptr(), server.as_text().as_ptr());
                prop_assert!(again.lines().eq(server.lines()));
            }
        }

        #[test]
        fn from_text_matches_reference_on_any_text(text in ".{0,60}") {
            agrees(&text)?;
        }

        #[test]
        fn from_text_matches_reference_on_mutated_logs(
            lines in proptest::collection::vec(
                (prop_oneof![any::<u64>(), 0u64..100, Just(u64::MAX)], "[ -~]{0,12}"),
                0..8,
            ),
            edits in proptest::collection::vec((any::<usize>(), 0u8..9), 0..4),
        ) {
            let mut server = LogServer::new();
            for (t, body) in &lines {
                server.line(SimTime::from_micros(*t), |text| text.push_str(body));
            }
            let mut lines: Vec<String> =
                server.as_text().split_inclusive('\n').map(str::to_owned).collect();
            for (at, edit) in edits {
                mutate(&mut lines, at, edit);
            }
            agrees(&lines.concat())?;
        }
    }
}
