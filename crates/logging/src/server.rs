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

use std::fmt::Write as _;

use cs_sim::SimTime;

use crate::report::{Report, ReportError};

/// Successfully parsed reports, each with its log timestamp.
pub type ParsedReports = Vec<(SimTime, Report)>;
/// Log-line indexes that failed to parse, with the parse error.
pub type ParseFailures = Vec<(usize, ReportError)>;

/// Split a `<usecs> <logstring>` line.
fn stamped(line: &str) -> Result<(SimTime, &str), String> {
    let (ts, rest) = line.split_once(' ').ok_or("no timestamp separator")?;
    let us = ts.parse().map_err(|_| format!("bad timestamp {ts:?}"))?;
    Ok((SimTime::from_micros(us), rest))
}

/// In-memory log file.
#[derive(Default)]
pub struct LogServer {
    // The file itself, `<usecs> <logstring>\n` per report with the timestamp
    // in canonical decimal: appended to in place, read back by `lines`.
    text: String,
    lines: usize,
}

impl LogServer {
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
        let _ = write!(self.text, "{} ", now.as_micros());
        body(&mut self.text);
        self.text.push('\n');
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
        #[expect(
            clippy::expect_used,
            reason = "`line` opens every line of `text` with `<decimal u64> ` and nothing else writes a line start"
        )]
        let stored = |line| stamped(line).expect("stored line opens with its timestamp");
        self.text.split_terminator('\n').map(stored)
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
        self.text.clone()
    }

    /// Parse a log file produced by [`to_text`](Self::to_text).
    pub fn from_text(text: &str) -> Result<LogServer, String> {
        let mut server = LogServer::new();
        // One copy: no line grows but an unterminated last one, by its `\n`.
        server.text.reserve(text.len() + 1);
        for (ix, line) in text.lines().enumerate().filter(|(_, l)| !l.is_empty()) {
            let (time, rest) = stamped(line).map_err(|e| format!("line {}: {e}", ix + 1))?;
            server.line(time, |text| text.push_str(rest));
        }
        Ok(server)
    }
}

#[cfg(test)]
mod tests {
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
}
