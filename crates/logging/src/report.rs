//! Typed report schema.
//!
//! §V.A divides client reports into two classes:
//!
//! * **Activity reports** — join / start-subscription / media-player-ready
//!   / leave, sent immediately when the event occurs;
//! * **Status reports** — sent every 5 minutes: a *QoS report* (video data
//!   missing at the playback deadline), a *traffic report* (bytes
//!   downloaded/uploaded), and a *partner report* (a compact record of
//!   partner activity).
//!
//! Each variant round-trips through its log string: [`Report::encode`]
//! writes it and [`Report::decode`] reads it, straight from its bytes when
//! the line is in the encoder's layout and through the general decoder,
//! the one that reads any key order and escape, otherwise.

use std::borrow::Cow;
use std::collections::BTreeSet;
use std::fmt::Write as _;

use crate::codec::{self, CodecError, RawValue, Token};

/// Stable user identity across retries and re-entries (a "cookie").
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct UserId(pub u32);

/// The four session-level activity events of §V.C.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ActivityKind {
    /// Client joined and contacted the boot-strap server.
    Join,
    /// Client established partnerships and started receiving data.
    StartSubscription,
    /// Client buffered enough data for the media player to start.
    MediaReady,
    /// Client left the system.
    Leave,
}

impl ActivityKind {
    /// The wire code used in the `ev` field of activity log strings.
    pub fn code(self) -> &'static str {
        match self {
            ActivityKind::Join => "join",
            ActivityKind::StartSubscription => "startsub",
            ActivityKind::MediaReady => "ready",
            ActivityKind::Leave => "leave",
        }
    }

    /// Inverse of [`ActivityKind::code`]; `None` for unknown codes.
    pub fn from_code(s: &str) -> Option<Self> {
        Self::of_code(s.as_bytes())
    }

    /// [`from_code`](Self::from_code) on the code's bytes.
    fn of_code(code: &[u8]) -> Option<Self> {
        Some(match code {
            b"join" => ActivityKind::Join,
            b"startsub" => ActivityKind::StartSubscription,
            b"ready" => ActivityKind::MediaReady,
            b"leave" => ActivityKind::Leave,
            _ => return None,
        })
    }
}

/// One report, as sent by a client to the log server.
#[derive(Clone, Debug, PartialEq)]
pub enum Report {
    /// Immediate activity report.
    Activity {
        /// Stable user identity.
        user: UserId,
        /// The node id of this session incarnation.
        node: u32,
        /// Which event.
        kind: ActivityKind,
        /// Whether the client sees a private local address (RFC1918) —
        /// an input to the paper's user-type classification.
        private_addr: bool,
    },
    /// Periodic QoS report: playback continuity since the last report.
    Qos {
        /// Stable user identity.
        user: UserId,
        /// Node id.
        node: u32,
        /// Blocks whose playback deadline passed since the last report.
        due: u64,
        /// Of those, blocks missing at their deadline.
        missed: u64,
    },
    /// Periodic traffic report: bytes moved since the last report.
    Traffic {
        /// Stable user identity.
        user: UserId,
        /// Node id.
        node: u32,
        /// Bytes uploaded to other peers since the last report.
        up: u64,
        /// Bytes downloaded since the last report.
        down: u64,
    },
    /// Periodic partner report (compact partner-activity record).
    Partner {
        /// Stable user identity.
        user: UserId,
        /// Node id.
        node: u32,
        /// Whether the client sees a private local address.
        private_addr: bool,
        /// Current number of incoming partners (they connected to us).
        incoming: u32,
        /// Current number of outgoing partners (we connected to them).
        outgoing: u32,
        /// Current number of parents actively serving us.
        parents: u32,
        /// Peer adaptations performed since the last report.
        adaptations: u32,
    },
}

impl Report {
    /// The `user` field, common to all variants.
    pub fn user(&self) -> UserId {
        match *self {
            Report::Activity { user, .. }
            | Report::Qos { user, .. }
            | Report::Traffic { user, .. }
            | Report::Partner { user, .. } => user,
        }
    }

    /// The `node` field, common to all variants.
    pub fn node(&self) -> u32 {
        match *self {
            Report::Activity { node, .. }
            | Report::Qos { node, .. }
            | Report::Traffic { node, .. }
            | Report::Partner { node, .. } => node,
        }
    }

    /// Encode into a log string (the URL query part).
    pub fn encode(&self) -> String {
        let mut out = String::with_capacity(64);
        self.encode_into(&mut out);
        out
    }

    /// Append the log string to `out`: the keys in ascending order, with
    /// nothing in need of an escape.
    pub fn encode_into(&self, out: &mut String) {
        let (uid, nid) = (self.user().0, self.node());
        let _ = match *self {
            Report::Activity {
                kind, private_addr, ..
            } => {
                let (ev, private) = (kind.code(), u8::from(private_addr));
                write!(out, "cls=act&ev={ev}&nid={nid}&priv={private}&uid={uid}")
            }
            Report::Qos { due, missed, .. } => {
                write!(out, "cls=qos&due={due}&miss={missed}&nid={nid}&uid={uid}")
            }
            Report::Traffic { up, down, .. } => {
                write!(out, "cls=traf&down={down}&nid={nid}&uid={uid}&up={up}")
            }
            Report::Partner {
                private_addr,
                incoming,
                outgoing,
                parents,
                adaptations,
                ..
            } => {
                let private = u8::from(private_addr);
                write!(
                    out,
                    "adapt={adaptations}&cls=part&in={incoming}&nid={nid}&out={outgoing}\
                     &par={parents}&priv={private}&uid={uid}"
                )
            }
        };
    }

    /// Decode a log string back into a typed report. Decoding is strict:
    /// a duplicated key, an unrecognized activity code or a count that
    /// does not fit its field (a `miss` above its `due` included) is
    /// rejected rather than silently resolved.
    ///
    /// A line in the layout [`encode_into`](Self::encode_into) writes is
    /// read straight from its bytes; any other line, and so every error,
    /// goes through the general decoder.
    pub fn decode(s: &str) -> Result<Report, ReportError> {
        match Layout::read(s.as_bytes()) {
            Some(report) => Ok(report),
            None => Self::decode_fields(s),
        }
    }

    /// The general decoder: one walk of the line's pairs into [`Fields`],
    /// in any key order and with any escapes, then the report class reads
    /// the slots.
    fn decode_fields(s: &str) -> Result<Report, ReportError> {
        let mut f = Fields::default();
        f.fill(s)?;
        let cls = f.raw(Key::Cls)?;
        let user = UserId(f.count(Key::Uid)?);
        let node = f.count(Key::Nid)?;
        Ok(match &*cls {
            b"act" => {
                let code = f.raw(Key::Ev)?;
                Report::Activity {
                    user,
                    node,
                    kind: ActivityKind::of_code(&code)
                        .ok_or_else(|| ReportError::UnknownActivity(codec::latin1(&code)))?,
                    private_addr: f.flag(Key::Priv)?,
                }
            }
            b"qos" => {
                let due = f.count(Key::Due)?;
                let missed: u64 = f.count(Key::Miss)?;
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
            b"traf" => Report::Traffic {
                user,
                node,
                up: f.count(Key::Up)?,
                down: f.count(Key::Down)?,
            },
            b"part" => Report::Partner {
                user,
                node,
                private_addr: f.flag(Key::Priv)?,
                incoming: f.count(Key::In)?,
                outgoing: f.count(Key::Out)?,
                parents: f.count(Key::Par)?,
                adaptations: f.count(Key::Adapt)?,
            },
            _ => return Err(ReportError::UnknownClass(codec::latin1(&cls))),
        })
    }
}

/// The rest of a line read in the layout [`Report::encode_into`] writes:
/// each class's keys in the encoder's order, with no escape, each count
/// in canonical decimal (`0`, or a non-zero digit first) within its
/// field's type, and nothing after the last value.
pub(crate) struct Layout<'a>(&'a [u8]);

impl Layout<'_> {
    /// The report `line` holds if it is in the encoder's layout, and the
    /// general decoder would read the same report from it; `None` for
    /// anything else.
    #[inline]
    pub(crate) fn read(line: &[u8]) -> Option<Report> {
        let mut at = Layout(line);
        let report = if line.first() == Some(&b'a') {
            let adaptations = at.count(b"adapt=")?;
            let incoming = at.count(b"&cls=part&in=")?;
            let node = at.count(b"&nid=")?;
            Report::Partner {
                outgoing: at.count(b"&out=")?,
                parents: at.count(b"&par=")?,
                private_addr: at.flag(b"&priv=")?,
                user: UserId(at.count(b"&uid=")?),
                node,
                incoming,
                adaptations,
            }
        } else {
            match at.0.get(4)? {
                b'a' => {
                    at.key(b"cls=act&ev=")?;
                    let end = at.0.iter().position(|&b| b == b'&')?;
                    let kind = ActivityKind::of_code(&at.0[..end])?;
                    at.0 = &at.0[end..];
                    Report::Activity {
                        kind,
                        node: at.count(b"&nid=")?,
                        private_addr: at.flag(b"&priv=")?,
                        user: UserId(at.count(b"&uid=")?),
                    }
                }
                b'q' => {
                    let due = at.count(b"cls=qos&due=")?;
                    let missed = at.count(b"&miss=")?;
                    Report::Qos {
                        node: at.count(b"&nid=")?,
                        user: UserId(at.count(b"&uid=")?),
                        due,
                        missed: Some(missed).filter(|&m| m <= due)?,
                    }
                }
                b't' => {
                    let down = at.count(b"cls=traf&down=")?;
                    Report::Traffic {
                        node: at.count(b"&nid=")?,
                        user: UserId(at.count(b"&uid=")?),
                        up: at.count(b"&up=")?,
                        down,
                    }
                }
                _ => return None,
            }
        };
        at.0.is_empty().then_some(report)
    }

    /// Step past `key`, which must come next.
    #[inline]
    fn key(&mut self, key: &[u8]) -> Option<()> {
        self.0 = self.0.strip_prefix(key)?;
        Some(())
    }

    /// `key`, then a count of type `T` in canonical decimal, ended by the
    /// first byte that is not a digit. Inlined at every call: out of
    /// line, it made the whole read ≈ 10 % slower.
    #[inline(always)]
    fn count<T: TryFrom<u64>>(&mut self, key: &[u8]) -> Option<T> {
        self.key(key)?;
        let mut n: u64 = 0;
        let mut len = 0;
        for &b in self.0 {
            let digit = b.wrapping_sub(b'0');
            if digit > 9 {
                break;
            }
            // Nineteen digits always fit a `u64`; only a twentieth can overflow.
            n = match len {
                0..19 => n * 10 + u64::from(digit),
                _ => n.checked_mul(10)?.checked_add(u64::from(digit))?,
            };
            len += 1;
        }
        let canonical = len == 1 || (len > 1 && self.0[0] != b'0');
        self.0 = &self.0[len..];
        canonical.then(|| T::try_from(n).ok())?
    }

    /// `key`, then a `0`/`1` flag.
    #[inline]
    fn flag(&mut self, key: &[u8]) -> Option<bool> {
        match self.count::<u8>(key)? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
}

/// A count as `u64::from_str` reads it: an optional `+`, then at least
/// one decimal digit, leading zeros allowed; `None` past `u64::MAX`.
fn number(v: &[u8]) -> Option<u64> {
    let digits = v.strip_prefix(b"+").unwrap_or(v);
    let read = |n: u64, &b: &u8| {
        let digit = Some(b.wrapping_sub(b'0')).filter(|&d| d < 10)?;
        n.checked_mul(10)?.checked_add(u64::from(digit))
    };
    (!digits.is_empty()).then(|| digits.iter().try_fold(0, read))?
}

/// Every key a report class reads; [`Key`] names each by its index.
const KEYS: [&str; 13] = [
    "adapt", "cls", "down", "due", "ev", "in", "miss", "nid", "out", "par", "priv", "uid", "up",
];

/// A report key: its index in [`KEYS`] and in [`Fields`].
#[derive(Clone, Copy)]
enum Key {
    Adapt,
    Cls,
    Down,
    Due,
    Ev,
    In,
    Miss,
    Nid,
    Out,
    Par,
    Priv,
    Uid,
    Up,
}

impl Key {
    /// The key `text` opens with, closed by its `=`, if a report class
    /// reads it, and the key's length: a jump on the first byte, then a
    /// compare of a few bytes.
    #[inline]
    fn opening(text: &[u8]) -> Option<(Key, usize)> {
        let key = match text.first()? {
            b'a' if text.starts_with(b"adapt=") => Key::Adapt,
            b'c' if text.starts_with(b"cls=") => Key::Cls,
            b'd' if text.starts_with(b"down=") => Key::Down,
            b'd' if text.starts_with(b"due=") => Key::Due,
            b'e' if text.starts_with(b"ev=") => Key::Ev,
            b'i' if text.starts_with(b"in=") => Key::In,
            b'm' if text.starts_with(b"miss=") => Key::Miss,
            b'n' if text.starts_with(b"nid=") => Key::Nid,
            b'o' if text.starts_with(b"out=") => Key::Out,
            b'p' if text.starts_with(b"par=") => Key::Par,
            b'p' if text.starts_with(b"priv=") => Key::Priv,
            b'u' if text.starts_with(b"uid=") => Key::Uid,
            b'u' if text.starts_with(b"up=") => Key::Up,
            _ => return None,
        };
        Some((key, KEYS[key as usize].len()))
    }

    /// The key named `name`, if a report class reads it.
    fn of(name: impl AsRef<[u8]>) -> Option<Key> {
        let text = [name.as_ref(), b"="].concat();
        let (key, len) = Key::opening(&text)?;
        (len + 1 == text.len()).then_some(key)
    }
}

/// A decoded line's raw value per [`KEYS`] entry, with the count `scan`
/// read from it if it read one: one walk of its pairs, read back in
/// whatever order the report class asks.
#[derive(Default)]
struct Fields<'a> {
    values: [Option<Token<'a>>; KEYS.len()],
    counts: [Option<u64>; KEYS.len()],
}

impl<'a> Fields<'a> {
    /// One walk of the line's pairs into the slots. A key seen twice,
    /// known or not, is [`CodecError::DuplicateKey`]; the first offending
    /// pair decides, and within it a repeated key before a bad escape in
    /// its value.
    fn fill(&mut self, line: &'a str) -> Result<(), CodecError> {
        // Keys outside `KEYS` are kept only to find a repeat. No line a
        // client writes has one, so the set is never built, and a hostile
        // line of n of them costs O(n log n), not a scan per key.
        let mut unknown = None;
        // `scan` recognizes every key in `KEYS` as the line spells it, so
        // only a key that is escaped or unknown takes the cold path.
        codec::scan(line, Key::opening, |name, key, value| match key {
            Some(at) => self.put(at, name.bytes, value),
            None => self.put_unescaped(&mut unknown, name, value),
        })
    }

    /// Store `value` in `at`'s slot, unless the key `name` came before.
    #[inline]
    fn put(&mut self, at: Key, name: &[u8], value: RawValue<'a>) -> Result<(), CodecError> {
        if self.values[at as usize].is_some() {
            return Err(CodecError::DuplicateKey(codec::latin1(name)));
        }
        value.token.check()?;
        self.values[at as usize] = Some(value.token);
        self.counts[at as usize] = value.count;
        Ok(())
    }

    /// [`put`](Self::put) for a key that is escaped or not in [`KEYS`]:
    /// the second kind goes into `unknown`, built when the first comes.
    #[cold]
    fn put_unescaped(
        &mut self,
        unknown: &mut Option<BTreeSet<Cow<'a, [u8]>>>,
        key: Token<'a>,
        value: RawValue<'a>,
    ) -> Result<(), CodecError> {
        let name = key.decode()?;
        if let Some(at) = Key::of(&name) {
            return self.put(at, &name, value);
        }
        match unknown.get_or_insert_with(BTreeSet::new).replace(name) {
            Some(name) => Err(CodecError::DuplicateKey(codec::latin1(&name))),
            None => value.token.check(),
        }
    }

    /// The value of `key`, unescaped: absent, it is `Missing(key)`.
    fn raw(&self, key: Key) -> Result<Cow<'a, [u8]>, ReportError> {
        self.values[key as usize]
            .and_then(|v| v.decode().ok())
            .ok_or(ReportError::Missing(KEYS[key as usize]))
    }

    /// A count of type `T`: absent, unparsable or out of its range, it is
    /// `Missing(key)`.
    fn count<T: TryFrom<u64>>(&self, key: Key) -> Result<T, ReportError> {
        let count = match self.counts[key as usize] {
            None => self.raw(key).ok().and_then(|v| number(&v)),
            read => read,
        };
        count
            .and_then(|n| T::try_from(n).ok())
            .ok_or(ReportError::Missing(KEYS[key as usize]))
    }

    /// A `0`/`1` flag.
    fn flag(&self, key: Key) -> Result<bool, ReportError> {
        match self.raw(key)?.as_ref() {
            b"0" => Ok(false),
            b"1" => Ok(true),
            _ => Err(ReportError::Missing(KEYS[key as usize])),
        }
    }
}

/// Decode failure for a report.
#[derive(Clone, Debug, PartialEq)]
pub enum ReportError {
    /// Log-string syntax error.
    Codec(CodecError),
    /// A required key was absent or unparsable.
    Missing(&'static str),
    /// The `cls` discriminator was unrecognized.
    UnknownClass(String),
    /// The `ev` activity code was unrecognized.
    UnknownActivity(String),
}

impl From<CodecError> for ReportError {
    fn from(e: CodecError) -> Self {
        ReportError::Codec(e)
    }
}

impl std::fmt::Display for ReportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReportError::Codec(e) => write!(f, "codec: {e}"),
            ReportError::Missing(k) => write!(f, "missing key {k}"),
            ReportError::UnknownClass(c) => write!(f, "unknown report class {c:?}"),
            ReportError::UnknownActivity(c) => write!(f, "unknown activity code {c:?}"),
        }
    }
}

impl std::error::Error for ReportError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(r: Report) {
        let s = r.encode();
        assert_eq!(Report::decode(&s).unwrap(), r, "via {s}");
    }

    #[test]
    fn all_variants_round_trip() {
        round_trip(Report::Activity {
            user: UserId(7),
            node: 9,
            kind: ActivityKind::Join,
            private_addr: true,
        });
        round_trip(Report::Activity {
            user: UserId(7),
            node: 9,
            kind: ActivityKind::MediaReady,
            private_addr: false,
        });
        round_trip(Report::Qos {
            user: UserId(1),
            node: 2,
            due: 1000,
            missed: 13,
        });
        round_trip(Report::Traffic {
            user: UserId(3),
            node: 4,
            up: 123_456_789,
            down: 987_654_321,
        });
        round_trip(Report::Partner {
            user: UserId(5),
            node: 6,
            private_addr: true,
            incoming: 3,
            outgoing: 4,
            parents: 5,
            adaptations: 2,
        });
    }

    #[test]
    fn unknown_class_rejected() {
        assert!(matches!(
            Report::decode("cls=wat&uid=1&nid=2"),
            Err(ReportError::UnknownClass(_))
        ));
    }

    #[test]
    fn missing_key_rejected() {
        assert!(matches!(
            Report::decode("cls=qos&uid=1&nid=2&due=5"),
            Err(ReportError::Missing("miss"))
        ));
    }

    #[test]
    fn unknown_activity_code_rejected() {
        assert_eq!(
            Report::decode("cls=act&uid=1&nid=2&ev=dance&priv=0"),
            Err(ReportError::UnknownActivity("dance".into()))
        );
    }

    #[test]
    fn duplicate_key_rejected() {
        assert!(matches!(
            Report::decode("cls=qos&uid=1&uid=2&nid=3&due=10&miss=1"),
            Err(ReportError::Codec(CodecError::DuplicateKey(_)))
        ));
    }

    #[test]
    fn counts_and_flags_outside_their_field_are_rejected() {
        let part = |field: &str| {
            Report::decode(&format!("adapt=0&cls=part&{field}&nid=1&out=0&par=0&uid=1"))
        };
        assert_eq!(
            part("in=4294967297&priv=0"),
            Err(ReportError::Missing("in"))
        );
        assert_eq!(part("in=1&priv=2"), Err(ReportError::Missing("priv")));
        assert!(part("in=4294967295&priv=1").is_ok());
        let qos = |miss: u64| Report::decode(&format!("cls=qos&due=10&miss={miss}&nid=5&uid=1"));
        assert_eq!(qos(11), Err(ReportError::Missing("miss")));
        assert!(qos(10).is_ok());
    }

    #[test]
    fn keys_dispatch_to_their_slot() {
        for (at, name) in KEYS.iter().enumerate() {
            assert_eq!(Key::of(name).map(|k| k as usize), Some(at), "{name}");
        }
        assert!(Key::of("uid2").is_none());
    }

    #[test]
    fn activity_kind_codes_round_trip() {
        for k in [
            ActivityKind::Join,
            ActivityKind::StartSubscription,
            ActivityKind::MediaReady,
            ActivityKind::Leave,
        ] {
            assert_eq!(ActivityKind::from_code(k.code()), Some(k));
        }
        assert_eq!(ActivityKind::from_code("nope"), None);
    }
}
