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

use cs_sim::SimTime;

use crate::report::{Report, ReportError};

/// Successfully parsed reports, each with its log timestamp.
pub type ParsedReports = Vec<(SimTime, Report)>;
/// Log-line indexes that failed to parse, with the parse error.
pub type ParseFailures = Vec<(usize, ReportError)>;

/// One line of the log file.
#[derive(Clone, Debug, PartialEq)]
pub struct LogEntry {
    /// Server receive timestamp.
    pub time: SimTime,
    /// The raw log string.
    pub line: String,
}

/// In-memory log file plus ingest counters.
#[derive(Default)]
pub struct LogServer {
    entries: Vec<LogEntry>,
}

impl LogServer {
    /// An empty log.
    pub fn new() -> Self {
        LogServer::default()
    }

    /// Ingest one report at server time `now`.
    pub fn report(&mut self, now: SimTime, report: &Report) {
        self.entries.push(LogEntry {
            time: now,
            line: report.encode(),
        });
    }

    /// Ingest a pre-encoded log string (used by replay tooling and tests).
    pub fn ingest_raw(&mut self, now: SimTime, line: String) {
        self.entries.push(LogEntry { time: now, line });
    }

    /// Number of log lines.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The raw entries, in arrival order.
    pub fn entries(&self) -> &[LogEntry] {
        &self.entries
    }

    /// Parse every line; malformed lines are returned as errors alongside
    /// their index rather than aborting the whole pass.
    pub fn parse_all(&self) -> (ParsedReports, ParseFailures) {
        let mut ok = Vec::with_capacity(self.entries.len());
        let mut bad = Vec::new();
        for (i, e) in self.entries.iter().enumerate() {
            match Report::decode(&e.line) {
                Ok(r) => ok.push((e.time, r)),
                Err(err) => bad.push((i, err)),
            }
        }
        (ok, bad)
    }

    /// Serialize the whole log file to one string, one entry per line, in
    /// `<usecs> <logstring>` format.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for e in &self.entries {
            out.push_str(&e.time.as_micros().to_string());
            out.push(' ');
            out.push_str(&e.line);
            out.push('\n');
        }
        out
    }

    /// Parse a log file produced by [`to_text`](Self::to_text).
    pub fn from_text(text: &str) -> Result<LogServer, String> {
        let mut server = LogServer::new();
        for (ix, line) in text.lines().enumerate() {
            if line.is_empty() {
                continue;
            }
            let lineno = ix + 1;
            let (ts, rest) = line
                .split_once(' ')
                .ok_or_else(|| format!("line {lineno}: no timestamp separator"))?;
            let us: u64 = ts
                .parse()
                .map_err(|_| format!("line {lineno}: bad timestamp {ts:?}"))?;
            server.ingest_raw(SimTime::from_micros(us), rest.to_string());
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
        let mut s = LogServer::new();
        s.report(SimTime::ZERO, &sample());
        s.ingest_raw(SimTime::from_secs(1), "garbage-without-equals".into());
        s.report(SimTime::from_secs(2), &sample());
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
        let back = LogServer::from_text(&text).unwrap();
        assert_eq!(back.entries(), s.entries());
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
