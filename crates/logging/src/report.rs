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
//! writes it and [`Report::decode`], the crate's one decoder, reads it.

use std::borrow::Cow;
use std::collections::BTreeSet;
use std::fmt::Write as _;

use serde::{Deserialize, Serialize};

use crate::codec::{self, CodecError, RawValue};

/// Stable user identity across retries and re-entries (a "cookie").
#[derive(
    Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct UserId(pub u32);

/// The four session-level activity events of §V.C.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
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
        Some(match s {
            "join" => ActivityKind::Join,
            "startsub" => ActivityKind::StartSubscription,
            "ready" => ActivityKind::MediaReady,
            "leave" => ActivityKind::Leave,
            _ => return None,
        })
    }
}

/// One report, as sent by a client to the log server.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
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
    pub fn decode(s: &str) -> Result<Report, ReportError> {
        let mut f = Fields::default();
        f.fill(s)?;
        let cls = f.raw(Key::Cls)?;
        let user = UserId(f.parsed(Key::Uid)?);
        let node = f.parsed(Key::Nid)?;
        Ok(match &*cls {
            "act" => {
                let code = f.raw(Key::Ev)?;
                Report::Activity {
                    user,
                    node,
                    kind: ActivityKind::from_code(&code)
                        .ok_or_else(|| ReportError::UnknownActivity(code.into_owned()))?,
                    private_addr: f.flag(Key::Priv)?,
                }
            }
            "qos" => {
                let due = f.parsed(Key::Due)?;
                Report::Qos {
                    user,
                    node,
                    due,
                    missed: f.read(Key::Miss, |v| v.parse().ok().filter(|&m| m <= due))?,
                }
            }
            "traf" => Report::Traffic {
                user,
                node,
                up: f.parsed(Key::Up)?,
                down: f.parsed(Key::Down)?,
            },
            "part" => Report::Partner {
                user,
                node,
                private_addr: f.flag(Key::Priv)?,
                incoming: f.parsed(Key::In)?,
                outgoing: f.parsed(Key::Out)?,
                parents: f.parsed(Key::Par)?,
                adaptations: f.parsed(Key::Adapt)?,
            },
            _ => return Err(ReportError::UnknownClass(cls.into_owned())),
        })
    }
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
    /// The key named `name`, if a report class reads it.
    #[inline]
    fn of(name: &str) -> Option<Key> {
        Some(match name {
            "adapt" => Key::Adapt,
            "cls" => Key::Cls,
            "down" => Key::Down,
            "due" => Key::Due,
            "ev" => Key::Ev,
            "in" => Key::In,
            "miss" => Key::Miss,
            "nid" => Key::Nid,
            "out" => Key::Out,
            "par" => Key::Par,
            "priv" => Key::Priv,
            "uid" => Key::Uid,
            "up" => Key::Up,
            _ => return None,
        })
    }
}

/// A decoded line's raw value per [`KEYS`] entry: one walk of its pairs,
/// read back in whatever order the report class asks.
#[derive(Default)]
struct Fields<'a>([Option<RawValue<'a>>; KEYS.len()]);

impl<'a> Fields<'a> {
    /// One walk of the line's pairs into the slots. A key seen twice,
    /// known or not, is [`CodecError::DuplicateKey`]; the first offending
    /// pair decides, and within it a repeated key before a bad escape in
    /// its value.
    fn fill(&mut self, line: &'a str) -> Result<(), CodecError> {
        // Keys outside `KEYS` are kept only to find a repeat. No line a
        // client writes has one, so the set stays empty, and a hostile
        // line of n of them costs O(n log n), not a scan per key.
        let mut unknown = BTreeSet::new();
        codec::scan(line, |key, value| match Key::of(&key) {
            Some(at) => match &mut self.0[at as usize] {
                Some(_) => Err(CodecError::DuplicateKey(key.into_owned())),
                slot => {
                    value.check()?;
                    *slot = Some(value);
                    Ok(())
                }
            },
            None => match unknown.replace(key) {
                Some(key) => Err(CodecError::DuplicateKey(key.into_owned())),
                None => value.check(),
            },
        })
    }

    /// The value of `key`, unescaped: absent, it is `Missing(key)`.
    fn raw(&self, key: Key) -> Result<Cow<'a, str>, ReportError> {
        self.0[key as usize]
            .and_then(|v| v.decode().ok())
            .ok_or(ReportError::Missing(KEYS[key as usize]))
    }

    fn parsed<T: std::str::FromStr>(&self, key: Key) -> Result<T, ReportError> {
        self.read(key, |v| v.parse().ok())
    }

    /// A `0`/`1` flag.
    fn flag(&self, key: Key) -> Result<bool, ReportError> {
        self.read(key, |v| match v {
            "0" => Some(false),
            "1" => Some(true),
            _ => None,
        })
    }

    /// The value of `key` through `read`: absent, or refused by `read`
    /// (unparsable, out of range), it is `Missing(key)`.
    fn read<T>(&self, key: Key, read: impl FnOnce(&str) -> Option<T>) -> Result<T, ReportError> {
        let missing = ReportError::Missing(KEYS[key as usize]);
        self.0[key as usize]
            .and_then(|v| read(&v.decode().ok()?))
            .ok_or(missing)
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
