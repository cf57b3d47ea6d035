use super::*;

/// An empty line holds no pairs, so the first key a report asks for is
/// missing.
#[test]
fn empty_string_decodes_to_empty() {
    assert_eq!(Report::decode(""), Err(ReportError::Missing("cls")));
}

#[test]
fn missing_equals_is_an_error() {
    assert_eq!(
        Report::decode("novalue"),
        Err(CodecError::MissingEquals("novalue".into()).into())
    );
}

#[test]
fn bad_escape_is_an_error() {
    for line in ["k=%G1", "k=%2"] {
        assert!(matches!(
            Report::decode(line),
            Err(ReportError::Codec(CodecError::BadEscape(_)))
        ));
    }
}

/// The offsets a byte-at-a-time walk stops at: the oracle for
/// [`Specials`].
fn bytewise_specials(bytes: &[u8]) -> Vec<usize> {
    (0..bytes.len()).filter(|&i| special(bytes[i])).collect()
}

/// Every special byte, alone or beside another, at every offset mod 8 of
/// lines of 0 to 24 bytes and of lines that cross a 64-byte block, among
/// fillers one off each delimiter.
#[test]
fn specials_match_a_bytewise_walk() {
    let specials: [&[u8]; 5] = [b"=", b"&", b"%", "é".as_bytes(), "\u{80}".as_bytes()];
    for len in (0..=24).chain(60..=70).chain([127, 128, 129]) {
        for filler in [b'a', b'<', b'>', b'$', b'\'', 0x7f] {
            let line = vec![filler; len];
            assert_eq!(
                Specials::new(&line).collect::<Vec<_>>(),
                bytewise_specials(&line)
            );
            for at in 0..len {
                for (x, y) in specials
                    .iter()
                    .flat_map(|x| specials.iter().map(move |y| (x, y)))
                {
                    let mut line = line.clone();
                    line.splice(at..(at + x.len()).min(len), x.iter().copied());
                    let next = (at + x.len() + at % 3).min(line.len());
                    line.splice(next..next, y.iter().copied());
                    let want = bytewise_specials(&line);
                    assert_eq!(Specials::new(&line).collect::<Vec<_>>(), want, "{line:?}");
                }
            }
        }
    }
}

mod reference {
    //! The codec as it was before the borrowing one — `BTreeMap<String,
    //! String>` pairs, `Report` encode and decode through them — kept as
    //! the oracle for the differential tests below.

    use std::collections::BTreeMap;
    use std::fmt::Write as _;

    use super::super::CodecError;
    use crate::report::{ActivityKind, Report, ReportError, UserId};

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

    fn unescape(s: &str) -> Result<String, CodecError> {
        let bytes = s.as_bytes();
        let mut out = String::with_capacity(s.len());
        let mut i = 0;
        while i < bytes.len() {
            if bytes[i] == b'%' {
                if i + 2 > bytes.len() {
                    return Err(CodecError::BadEscape(s.to_string()));
                }
                let hex = s
                    .get(i + 1..i + 3)
                    .ok_or_else(|| CodecError::BadEscape(s.to_string()))?;
                let v = u8::from_str_radix(hex, 16)
                    .map_err(|_| CodecError::BadEscape(s.to_string()))?;
                out.push(v as char);
                i += 3;
            } else {
                out.push(bytes[i] as char);
                i += 1;
            }
        }
        Ok(out)
    }

    #[derive(Debug, Default)]
    struct Pairs {
        map: BTreeMap<String, String>,
    }

    impl Pairs {
        fn set(&mut self, key: &str, value: impl ToString) -> &mut Self {
            self.map.insert(key.to_string(), value.to_string());
            self
        }

        fn get(&self, key: &str) -> Option<&str> {
            self.map.get(key).map(String::as_str)
        }

        fn get_parsed<T: std::str::FromStr>(&self, key: &str) -> Option<T> {
            self.get(key)?.parse().ok()
        }

        fn encode(&self) -> String {
            let mut out = String::new();
            for (i, (k, v)) in self.map.iter().enumerate() {
                if i > 0 {
                    out.push('&');
                }
                escape_into(&mut out, k);
                out.push('=');
                escape_into(&mut out, v);
            }
            out
        }

        fn decode_strict(s: &str) -> Result<Pairs, CodecError> {
            let mut map = BTreeMap::new();
            if s.is_empty() {
                return Ok(Pairs { map });
            }
            for pair in s.split('&') {
                let (k, v) = pair
                    .split_once('=')
                    .ok_or_else(|| CodecError::MissingEquals(pair.to_string()))?;
                let k = unescape(k)?;
                if map.contains_key(&k) {
                    return Err(CodecError::DuplicateKey(k));
                }
                map.insert(k, unescape(v)?);
            }
            Ok(Pairs { map })
        }
    }

    pub fn encode(report: &Report) -> String {
        let mut p = Pairs::default();
        match report {
            Report::Activity {
                user,
                node,
                kind,
                private_addr,
            } => {
                p.set("cls", "act")
                    .set("uid", user.0)
                    .set("nid", *node)
                    .set("ev", kind.code())
                    .set("priv", u8::from(*private_addr));
            }
            Report::Qos {
                user,
                node,
                due,
                missed,
            } => {
                p.set("cls", "qos")
                    .set("uid", user.0)
                    .set("nid", *node)
                    .set("due", *due)
                    .set("miss", *missed);
            }
            Report::Traffic {
                user,
                node,
                up,
                down,
            } => {
                p.set("cls", "traf")
                    .set("uid", user.0)
                    .set("nid", *node)
                    .set("up", *up)
                    .set("down", *down);
            }
            Report::Partner {
                user,
                node,
                private_addr,
                incoming,
                outgoing,
                parents,
                adaptations,
            } => {
                p.set("cls", "part")
                    .set("uid", user.0)
                    .set("nid", *node)
                    .set("priv", u8::from(*private_addr))
                    .set("in", *incoming)
                    .set("out", *outgoing)
                    .set("par", *parents)
                    .set("adapt", *adaptations);
            }
        }
        p.encode()
    }

    pub fn decode(s: &str) -> Result<Report, ReportError> {
        let p = Pairs::decode_strict(s)?;
        let cls = p.get("cls").ok_or(ReportError::Missing("cls"))?;
        let user = UserId(p.get_parsed("uid").ok_or(ReportError::Missing("uid"))?);
        let node: u32 = p.get_parsed("nid").ok_or(ReportError::Missing("nid"))?;
        let get = |key: &'static str| -> Result<u64, ReportError> {
            p.get_parsed(key).ok_or(ReportError::Missing(key))
        };
        let count = |key: &'static str| -> Result<u32, ReportError> {
            p.get_parsed(key).ok_or(ReportError::Missing(key))
        };
        let flag = |key: &'static str| match p.get(key) {
            Some("0") => Ok(false),
            Some("1") => Ok(true),
            _ => Err(ReportError::Missing(key)),
        };
        Ok(match cls {
            "act" => {
                let code = p.get("ev").ok_or(ReportError::Missing("ev"))?;
                Report::Activity {
                    user,
                    node,
                    kind: ActivityKind::from_code(code)
                        .ok_or_else(|| ReportError::UnknownActivity(code.to_string()))?,
                    private_addr: flag("priv")?,
                }
            }
            "qos" => {
                // A QoS report cannot miss more blocks than fell due.
                let due = get("due")?;
                let missed = get("miss")?;
                if missed > due {
                    return Err(ReportError::Missing("miss"));
                }
                Report::Qos {
                    user,
                    node,
                    due,
                    missed,
                }
            }
            "traf" => Report::Traffic {
                user,
                node,
                up: get("up")?,
                down: get("down")?,
            },
            "part" => Report::Partner {
                user,
                node,
                private_addr: flag("priv")?,
                incoming: count("in")?,
                outgoing: count("out")?,
                parents: count("par")?,
                adaptations: count("adapt")?,
            },
            other => return Err(ReportError::UnknownClass(other.to_string())),
        })
    }
}

#[path = "../../tests/arb/mod.rs"]
mod arb;

use proptest::prelude::*;

use crate::report::{ActivityKind, Report, ReportError, UserId};

/// The decoder against its reference on one string: the typed result,
/// the error value included.
fn assert_matches_reference(s: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        Report::decode(s),
        reference::decode(s),
        "Report::decode({:?})",
        s
    );
    Ok(())
}

/// Error precedence is positional — the first offending pair decides, and
/// within a pair the key's escape, then its repeat, then the value's
/// escape — decoded bytes read as Latin-1, and out-of-range values are
/// `Missing`: the corners random lines rarely reach.
#[test]
fn decoders_match_reference_on_precedence_corners() {
    for s in [
        "a=1&a=%zz",
        "a=1&%zz=2",
        "a=%zz&a=2",
        "a=1&a=2&novalue",
        "a=1&novalue&a=2",
        "b=1&a=2&a=3&b=4",
        "b=1&a=2&b=3&a=4",
        "c=1&b=2&a=3",
        "a=1&%61=2",
        "é=1&%C3%A9=2",
        "é=1&é=2",
        "cls=é&uid=1&nid=2",
        "a=%+1",
        "k=%2",
        "k=%aé",
        "%",
        "&",
        "a=1&",
        "=",
        "=&=",
        "a==b=&c",
        "adapt=0&cls=part&in=4294967297&nid=1&out=0&par=0&priv=0&uid=1",
        "adapt=0&cls=part&in=1&nid=1&out=0&par=0&priv=2&uid=1",
        "cls=act&ev=join&nid=1&priv=00&uid=1",
        "cls=qos&due=x&miss=0&nid=1&uid=1",
        "cls=qos&due=1&miss=0&nid=1&uid=-1",
        "cls=qos&due=10&miss=30&nid=5&uid=1",
        "cls=qos&due=10&miss=10&nid=5&uid=1",
        "cls=qos&due=1&miss=0&nid=1&uid=+1",
        "cls=qos&due=1&miss=0&nid=1&uid=01",
        "cls=qos&due=1&miss=0&nid=1&uid=+",
        "cls=qos&due=1&miss=0&nid=1&uid=-0",
        "cls=%71os&due=1&miss=0&nid=1&uid=1",
    ] {
        assert_matches_reference(s).unwrap_or_else(|e| panic!("{e}"));
    }
}

/// Counts keep today's reading: a `+` sign and leading zeros pass.
#[test]
fn signed_and_zero_padded_counts_decode() {
    let qos = |uid: &str| Report::decode(&format!("cls=qos&due=1&miss=0&nid=1&uid={uid}"));
    for uid in ["+1", "01", "001"] {
        assert_eq!(qos(uid).map(|r| r.user()), Ok(UserId(1)), "{uid}");
    }
}

/// Lines of twelve pairs and more, longer than any report, sorted or not,
/// decode as the reference does: a repeat past the twelfth pair is found.
#[test]
fn lines_longer_than_the_inline_list_spill() {
    let sorted: String = (0..12)
        .map(|k| format!("k{k:02}={k}"))
        .collect::<Vec<_>>()
        .join("&");
    let unordered = "l=1&k=2&j=3&i=4&h=5&g=6&f=7&e=8&d=9&c=10&b=11&a=12";
    let repeated = "l=1&k=2&j=3&i=4&h=5&g=6&f=7&e=8&d=9&c=10&b=11&a=12&k=13";
    for s in [sorted.as_str(), unordered, repeated] {
        assert_matches_reference(s).unwrap_or_else(|e| panic!("{e}"));
    }
    assert_eq!(Report::decode(unordered), Err(ReportError::Missing("cls")));
    assert_eq!(
        Report::decode(repeated),
        Err(CodecError::DuplicateKey("k".into()).into())
    );
}

/// A hostile line of 10⁵ distinct unknown keys still has its repeat
/// found, in O(n log n).
#[test]
fn repeat_after_many_unknown_keys_is_a_duplicate() {
    let mut line: String = (0..100_000).map(|i| format!("k{i}=1&")).collect();
    line.push_str("k77777=2");
    assert_eq!(
        Report::decode(&line),
        Err(CodecError::DuplicateKey("k77777".into()).into())
    );
}

/// The ways a valid line goes wrong in transit.
#[derive(Clone, Debug)]
enum Mutation {
    Splice(String),
    Truncate,
    DuplicateKey { escaped: bool },
    EscapeByte,
    BreakEscape(&'static str),
    UnknownKey(String),
    TrailingAmp,
}

fn arb_mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        "[ -~]{0,12}".prop_map(Mutation::Splice),
        Just(Mutation::Truncate),
        any::<bool>().prop_map(|escaped| Mutation::DuplicateKey { escaped }),
        Just(Mutation::EscapeByte),
        prop_oneof![Just("%"), Just("%4"), Just("%G1"), Just("%+1"), Just("%é")]
            .prop_map(Mutation::BreakEscape),
        "[a-z%&=]{1,6}".prop_map(Mutation::UnknownKey),
        Just(Mutation::TrailingAmp),
    ]
}

/// Apply `m` to `line` at (about) byte `at`. Mutations stack, so `line`
/// is any string by the second one.
fn mutate(line: &str, m: &Mutation, at: usize) -> String {
    let mut at = at % (line.len() + 1);
    while !line.is_char_boundary(at) {
        at -= 1;
    }
    let (head, tail) = line.split_at(at);
    match m {
        Mutation::Splice(junk) => format!("{head}{junk}{tail}"),
        Mutation::Truncate => head.to_string(),
        Mutation::DuplicateKey { escaped } => {
            let keys: Vec<&str> = line
                .split('&')
                .filter_map(|p| p.split('=').next())
                .filter(|k| k.as_bytes().first().is_some_and(u8::is_ascii))
                .collect();
            match keys.get(at % keys.len().max(1)) {
                Some(key) if *escaped => {
                    format!("{line}&%{:02x}{}=0", key.as_bytes()[0], &key[1..])
                }
                Some(key) => format!("{line}&{key}=0"),
                None => line.to_string(),
            }
        }
        Mutation::EscapeByte => match tail.as_bytes().first() {
            Some(b) if b.is_ascii() => format!("{head}%{b:02X}{}", &tail[1..]),
            _ => line.to_string(),
        },
        Mutation::BreakEscape(esc) => format!("{head}{esc}{tail}"),
        Mutation::UnknownKey(key) => match at % 2 {
            0 => format!("{key}=1&{line}"),
            _ => format!("{line}&{key}=1"),
        },
        Mutation::TrailingAmp => format!("{line}&"),
    }
}

proptest! {
    #[test]
    fn specials_match_a_bytewise_walk_on_noise(s in "[a<>$'=&%é\u{7f}\u{80}]{0,150}") {
        let bytes = s.as_bytes();
        prop_assert_eq!(Specials::new(bytes).collect::<Vec<_>>(), bytewise_specials(bytes));
    }

    #[test]
    fn decoders_match_reference_on_arbitrary_ascii(s in "[ -~]{0,120}") {
        assert_matches_reference(&s)?;
    }

    #[test]
    fn decoders_match_reference_on_pair_shaped_noise(s in "[ab%&=+0-9Aé]{0,40}") {
        assert_matches_reference(&s)?;
    }

    #[test]
    fn decoders_match_reference_on_mutated_lines(
        r in arb::arb_report(),
        mutations in proptest::collection::vec((arb_mutation(), any::<usize>()), 1..4),
    ) {
        let mut line = r.encode();
        for (m, at) in &mutations {
            line = mutate(&line, m, *at);
        }
        assert_matches_reference(&line)?;
    }

    #[test]
    fn encode_matches_reference(r in arb::arb_report()) {
        prop_assert_eq!(r.encode(), reference::encode(&r));
        let mut appended = String::from("7 ");
        r.encode_into(&mut appended);
        prop_assert_eq!(appended, format!("7 {}", reference::encode(&r)));
    }
}
