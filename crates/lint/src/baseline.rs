//! The committed finding baseline (`lint-baseline.json`).
//!
//! New rule families land deny-by-default without a big-bang cleanup:
//! known findings are recorded in a committed baseline and suppressed,
//! anything *not* in the baseline fails `--deny`. Entries are keyed by
//! `(file, rule, message)` with a count, so the baseline is stable under
//! unrelated line churn but still catches a second occurrence of a
//! recorded smell. Stale entries (recorded but no longer firing) are
//! reported so the file shrinks monotonically; CI diffs a regenerated
//! baseline against the committed one to block silent growth.
//!
//! The format is a small fixed-schema JSON document, parsed by a
//! hand-rolled reader below — the lint crate stays dependency-free.

use crate::rules::{Finding, RuleId};

/// Schema tag written into and required from every baseline file.
pub const SCHEMA: &str = "cs-lint-baseline/1";

/// One suppressed finding class.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Entry {
    /// Workspace-relative path.
    pub file: String,
    /// Short rule id (`R1`).
    pub rule: String,
    /// Exact finding message.
    pub message: String,
    /// How many identical findings this entry suppresses.
    pub count: u32,
}

/// A parsed baseline.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Baseline {
    /// Suppressed finding classes, sorted by `(file, rule, message)`.
    pub entries: Vec<Entry>,
}

impl Baseline {
    /// Build a baseline that records exactly `findings`.
    pub fn from_findings(findings: &[Finding]) -> Baseline {
        let mut entries: Vec<Entry> = Vec::new();
        for f in findings {
            let key = (f.file.clone(), f.rule.id().to_string(), f.message.clone());
            match entries
                .iter_mut()
                .find(|e| (e.file == key.0) && (e.rule == key.1) && (e.message == key.2))
            {
                Some(e) => e.count += 1,
                None => entries.push(Entry {
                    file: key.0,
                    rule: key.1,
                    message: key.2,
                    count: 1,
                }),
            }
        }
        entries.sort_by(|a, b| {
            (a.file.as_str(), a.rule.as_str(), a.message.as_str()).cmp(&(
                b.file.as_str(),
                b.rule.as_str(),
                b.message.as_str(),
            ))
        });
        Baseline { entries }
    }

    /// Split `findings` into (not-suppressed, stale-entry warnings).
    ///
    /// Each entry suppresses up to `count` findings with identical
    /// `(file, rule, message)`. Entries that match nothing (or fewer
    /// findings than recorded) produce a warning naming the surplus, so
    /// fixed findings get removed from the committed file.
    pub fn apply(&self, findings: Vec<Finding>) -> (Vec<Finding>, Vec<String>) {
        let mut budget: Vec<(usize, u32)> = self
            .entries
            .iter()
            .enumerate()
            .map(|(i, e)| (i, e.count))
            .collect();
        let mut kept: Vec<Finding> = Vec::new();
        for f in findings {
            let slot = budget.iter_mut().find(|(i, left)| {
                *left > 0 && {
                    let e = &self.entries[*i];
                    e.file == f.file && e.rule == f.rule.id() && e.message == f.message
                }
            });
            match slot {
                Some((_, left)) => *left -= 1,
                None => kept.push(f),
            }
        }
        let mut warnings: Vec<String> = Vec::new();
        for (i, left) in budget {
            if left > 0 {
                let e = &self.entries[i];
                warnings.push(format!(
                    "baseline entry no longer fires ({} of {} stale): {} {} \"{}\" — remove it",
                    left, e.count, e.file, e.rule, e.message
                ));
            }
        }
        (kept, warnings)
    }

    /// Serialize (stable order, trailing newline).
    pub fn to_json(&self) -> String {
        let mut s = format!("{{\n  \"schema\": \"{SCHEMA}\",\n  \"entries\": [");
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    {{\"file\": \"{}\", \"rule\": \"{}\", \"count\": {}, \"message\": \"{}\"}}",
                crate::json_escape(&e.file),
                crate::json_escape(&e.rule),
                e.count,
                crate::json_escape(&e.message)
            ));
        }
        if !self.entries.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("]\n}\n");
        s
    }

    /// Parse a baseline document, validating the schema tag and that
    /// every entry names a known rule.
    pub fn parse(src: &str) -> Result<Baseline, String> {
        let v = Json::parse(src)?;
        let obj = v.as_object().ok_or("baseline root must be an object")?;
        match get(obj, "schema").and_then(Json::as_str) {
            Some(s) if s == SCHEMA => {}
            Some(s) => return Err(format!("unsupported baseline schema `{s}` (want {SCHEMA})")),
            None => return Err("baseline is missing the \"schema\" tag".to_string()),
        }
        let raw_entries = get(obj, "entries")
            .and_then(Json::as_array)
            .ok_or("baseline is missing the \"entries\" array")?;
        let mut entries = Vec::new();
        for (i, ev) in raw_entries.iter().enumerate() {
            let eo = ev
                .as_object()
                .ok_or_else(|| format!("entries[{i}] is not an object"))?;
            let field = |k: &str| -> Result<String, String> {
                get(eo, k)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("entries[{i}] is missing string field \"{k}\""))
            };
            let rule = field("rule")?;
            if RuleId::lookup(&rule).is_none() {
                return Err(format!("entries[{i}] names unknown rule `{rule}`"));
            }
            let count = match get(eo, "count") {
                None => 1,
                Some(Json::Int(n)) if *n >= 1 => u32::try_from(*n).unwrap_or(u32::MAX),
                Some(_) => return Err(format!("entries[{i}].count must be a positive integer")),
            };
            entries.push(Entry {
                file: field("file")?,
                rule,
                message: field("message")?,
                count,
            });
        }
        Ok(Baseline { entries })
    }
}

fn get<'a>(obj: &'a [(String, Json)], key: &str) -> Option<&'a Json> {
    obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// A minimal JSON value — just enough for the baseline schema.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Integer number (baselines have no floats).
    Int(i64),
    /// String.
    Str(String),
    /// Array.
    Array(Vec<Json>),
    /// Object as an ordered key/value list.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Parse a complete JSON document (trailing whitespace allowed).
    pub fn parse(src: &str) -> Result<Json, String> {
        let b: Vec<char> = src.chars().collect();
        let mut p = Parser { b, i: 0 };
        p.ws();
        let v = p.value()?;
        p.ws();
        if p.i != p.b.len() {
            return Err(format!("trailing garbage at offset {}", p.i));
        }
        Ok(v)
    }

    /// As object fields, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(o) => Some(o),
            _ => None,
        }
    }

    /// As array elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(a) => Some(a),
            _ => None,
        }
    }

    /// As a string slice, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct Parser {
    b: Vec<char>,
    i: usize,
}

impl Parser {
    fn ws(&mut self) {
        while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<char> {
        self.b.get(self.i).copied()
    }

    fn eat(&mut self, c: char) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected `{c}` at offset {}", self.i))
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        for c in word.chars() {
            self.eat(c)?;
        }
        Ok(v)
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some('{') => self.object(),
            Some('[') => self.array(),
            Some('"') => Ok(Json::Str(self.string()?)),
            Some('t') => self.lit("true", Json::Bool(true)),
            Some('f') => self.lit("false", Json::Bool(false)),
            Some('n') => self.lit("null", Json::Null),
            Some(c) if c == '-' || c.is_ascii_digit() => self.number(),
            other => Err(format!("unexpected {other:?} at offset {}", self.i)),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat('{')?;
        let mut out: Vec<(String, Json)> = Vec::new();
        self.ws();
        if self.peek() == Some('}') {
            self.i += 1;
            return Ok(Json::Object(out));
        }
        loop {
            self.ws();
            let k = self.string()?;
            self.ws();
            self.eat(':')?;
            self.ws();
            let v = self.value()?;
            out.push((k, v));
            self.ws();
            match self.peek() {
                Some(',') => self.i += 1,
                Some('}') => {
                    self.i += 1;
                    return Ok(Json::Object(out));
                }
                other => return Err(format!("expected `,` or `}}`, got {other:?}")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat('[')?;
        let mut out: Vec<Json> = Vec::new();
        self.ws();
        if self.peek() == Some(']') {
            self.i += 1;
            return Ok(Json::Array(out));
        }
        loop {
            self.ws();
            out.push(self.value()?);
            self.ws();
            match self.peek() {
                Some(',') => self.i += 1,
                Some(']') => {
                    self.i += 1;
                    return Ok(Json::Array(out));
                }
                other => return Err(format!("expected `,` or `]`, got {other:?}")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat('"')?;
        let mut out = String::new();
        loop {
            let Some(c) = self.peek() else {
                return Err("unterminated string".to_string());
            };
            self.i += 1;
            match c {
                '"' => return Ok(out),
                '\\' => {
                    let Some(e) = self.peek() else {
                        return Err("dangling escape".to_string());
                    };
                    self.i += 1;
                    match e {
                        '"' => out.push('"'),
                        '\\' => out.push('\\'),
                        '/' => out.push('/'),
                        'n' => out.push('\n'),
                        't' => out.push('\t'),
                        'r' => out.push('\r'),
                        'b' => out.push('\u{0008}'),
                        'f' => out.push('\u{000c}'),
                        'u' => {
                            let mut code: u32 = 0;
                            for _ in 0..4 {
                                let Some(h) = self.peek().and_then(|c| c.to_digit(16)) else {
                                    return Err("bad \\u escape".to_string());
                                };
                                code = code * 16 + h;
                                self.i += 1;
                            }
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("bad escape \\{other}")),
                    }
                }
                c => out.push(c),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        if self.peek() == Some('-') {
            self.i += 1;
        }
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.i += 1;
        }
        let text: String = self.b[start..self.i].iter().collect();
        text.parse::<i64>()
            .map(Json::Int)
            .map_err(|_| format!("bad number `{text}` at offset {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(file: &str, line: u32, rule: RuleId, msg: &str) -> Finding {
        Finding {
            file: file.to_string(),
            line,
            rule,
            message: msg.to_string(),
        }
    }

    #[test]
    fn round_trip_and_suppression() {
        let fs = vec![
            finding("a.rs", 3, RuleId::R1, "bad rng"),
            finding("a.rs", 9, RuleId::R1, "bad rng"),
            finding("b.rs", 1, RuleId::X1, "missing arm"),
        ];
        let bl = Baseline::from_findings(&fs);
        assert_eq!(bl.entries.len(), 2);
        assert_eq!(bl.entries[0].count, 2);

        let parsed = Baseline::parse(&bl.to_json()).unwrap();
        assert_eq!(parsed, bl);

        // Exactly its recorded findings are suppressed; a new one passes.
        let mut more = fs.clone();
        more.push(finding("a.rs", 20, RuleId::R1, "bad rng"));
        let (kept, warn) = parsed.apply(more);
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].line, 20);
        assert!(warn.is_empty());
    }

    #[test]
    fn stale_entries_warn() {
        let bl = Baseline::from_findings(&[finding("a.rs", 1, RuleId::C3, "x")]);
        let (kept, warn) = bl.apply(Vec::new());
        assert!(kept.is_empty());
        assert_eq!(warn.len(), 1);
        assert!(warn[0].contains("no longer fires"));
    }

    #[test]
    fn parse_rejects_bad_schema_and_unknown_rules() {
        assert!(Baseline::parse("{\"schema\": \"nope/9\", \"entries\": []}").is_err());
        assert!(Baseline::parse(
            "{\"schema\": \"cs-lint-baseline/1\", \"entries\": [{\"file\": \"a\", \"rule\": \"Z9\", \"message\": \"m\"}]}"
        )
        .is_err());
        assert!(
            Baseline::parse("{\"schema\": \"cs-lint-baseline/1\", \"entries\": []}")
                .unwrap()
                .entries
                .is_empty()
        );
    }

    #[test]
    fn string_escapes_survive() {
        let bl = Baseline {
            entries: vec![Entry {
                file: "weird \"name\"\n.rs".to_string(),
                rule: "C1".to_string(),
                message: "tab\there \\ done \u{0007}".to_string(),
                count: 1,
            }],
        };
        assert_eq!(Baseline::parse(&bl.to_json()).unwrap(), bl);
    }
}
