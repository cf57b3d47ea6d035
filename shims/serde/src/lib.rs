//! Offline stand-in for `serde`.
//!
//! Instead of the real serde's visitor architecture, this shim uses a
//! simple value-tree contract: `Serialize` lowers a type to a [`Value`]
//! and `Deserialize` rebuilds it from one. The companion `serde_derive`
//! shim generates those impls, with the `#[serde(…)]` attributes its
//! crate doc lists, through the `field_*`, [`deny_unknown_fields`] and
//! `variant_*` helpers below; the `serde_json` shim renders and parses
//! the tree.

#![forbid(unsafe_code)]

pub use serde_derive::{Deserialize, Serialize};

use std::collections::BTreeMap;
use std::fmt;

/// A dynamically-typed serialization tree (what `serde_json::Value`
/// would hold, minus the JSON specifics).
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// A boolean.
    Bool(bool),
    /// Any integer; `i128` covers the full `u64`/`i64` ranges.
    Int(i128),
    /// A floating-point number.
    Float(f64),
    /// A string.
    Str(String),
    /// An ordered sequence.
    Seq(Vec<Value>),
    /// An ordered map (insertion order preserved for stable output).
    Map(Vec<(String, Value)>),
}

impl Value {
    /// The map entries, if this is a map.
    pub fn as_map(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Map(m) => Some(m),
            _ => None,
        }
    }

    /// The sequence elements, if this is a sequence.
    pub fn as_seq(&self) -> Option<&[Value]> {
        match self {
            Value::Seq(s) => Some(s),
            _ => None,
        }
    }

    /// The string, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Serialization/deserialization failure.
#[derive(Debug, Clone)]
pub struct Error(pub String);

impl Error {
    /// Build an error from any displayable message.
    pub fn custom(msg: impl fmt::Display) -> Self {
        Error(msg.to_string())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// Lower `self` into a [`Value`] tree.
pub trait Serialize {
    /// Convert to the serialization tree.
    fn to_value(&self) -> Value;
}

/// Rebuild `Self` from a [`Value`] tree.
pub trait Deserialize: Sized {
    /// Convert from the serialization tree.
    fn from_value(v: &Value) -> Result<Self, Error>;
}

/// Look up a struct field in a map value; absent keys deserialize from
/// `Null` so `Option` fields default to `None` (matching serde).
pub fn field_from_map<T: Deserialize>(m: &[(String, Value)], key: &str) -> Result<T, Error> {
    match m.iter().find(|(k, _)| k == key) {
        Some((_, v)) => T::from_value(v).map_err(|e| Error(format!("field `{key}`: {e}"))),
        None => T::from_value(&Value::Null).map_err(|_| Error(format!("missing field `{key}`"))),
    }
}

/// A `#[serde(default)]` field: an absent key reads as `T::default()`.
pub fn field_or_default<T: Deserialize + Default>(
    m: &[(String, Value)],
    key: &str,
) -> Result<T, Error> {
    if m.iter().any(|(k, _)| k == key) {
        field_from_map(m, key)
    } else {
        Ok(T::default())
    }
}

/// `#[serde(deny_unknown_fields)]`: reject the first key of `m` outside
/// `allowed`, naming it and listing `allowed`.
pub fn deny_unknown_fields(m: &[(String, Value)], allowed: &[&str]) -> Result<(), Error> {
    match m.iter().find(|(k, _)| !allowed.contains(&k.as_str())) {
        Some((k, _)) => Err(Error(format!(
            "unknown field `{k}` (allowed: {})",
            allowed.join(", ")
        ))),
        None => Ok(()),
    }
}

/// The string under an internally tagged enum's `tag` key.
pub fn variant_tag<'m>(m: &'m [(String, Value)], tag: &str) -> Result<&'m str, Error> {
    match m.iter().find(|(k, _)| k == tag) {
        Some((_, v)) => v
            .as_str()
            .ok_or_else(|| Error(format!("field `{tag}`: expected string, got {v:?}"))),
        None => Err(Error(format!("missing field `{tag}`"))),
    }
}

/// The error for a tag no variant of `what` carries.
pub fn variant_unknown(what: &str, tag: &str, got: &str, expected: &[&str]) -> Error {
    Error(format!(
        "unknown {what} {tag} `{got}` (expected one of: {})",
        expected.join(", ")
    ))
}

// ---------------------------------------------------------------------
// Primitive impls

macro_rules! impl_serde_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Int(*self as i128)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                // An integral float converts exactly or not at all: `as`
                // would saturate `-1.0` to 0 and `1e30` to the maximum.
                let i = match v {
                    Value::Int(i) => *i,
                    Value::Float(f) if f.fract() == 0.0 && f.abs() < 1e38 => *f as i128,
                    _ => return Err(Error(format!("expected integer, got {v:?}"))),
                };
                <$t>::try_from(i)
                    .map_err(|_| Error(format!("{i} out of range for {}", stringify!($t))))
            }
        }
    )*};
}
impl_serde_int!(u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, i128, isize);

macro_rules! impl_serde_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Float(*self as f64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::Float(f) => Ok(*f as $t),
                    Value::Int(i) => Ok(*i as $t),
                    _ => Err(Error(format!("expected number, got {v:?}"))),
                }
            }
        }
    )*};
}
impl_serde_float!(f32, f64);

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}
impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            _ => Err(Error(format!("expected bool, got {v:?}"))),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}
impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            _ => Err(Error(format!("expected string, got {v:?}"))),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(x) => x.to_value(),
            None => Value::Null,
        }
    }
}
impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}
impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let s = v
            .as_seq()
            .ok_or_else(|| Error(format!("expected sequence, got {v:?}")))?;
        s.iter()
            .enumerate()
            .map(|(i, x)| T::from_value(x).map_err(|e| Error(format!("element {i}: {e}"))))
            .collect()
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

macro_rules! impl_serde_tuple {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_value(&self) -> Value {
                Value::Seq(vec![$(self.$idx.to_value()),+])
            }
        }
    )*};
}
impl_serde_tuple! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
}

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn to_value(&self) -> Value {
        Value::Map(
            self.iter()
                .map(|(k, v)| (key_to_string(&k.to_value()), v.to_value()))
                .collect(),
        )
    }
}

// Map keys come back as the JSON key strings; only string-keyed maps
// round-trip (matching how this workspace uses maps).
impl<V: Deserialize> Deserialize for BTreeMap<String, V> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Map(m) => m
                .iter()
                .map(|(k, val)| Ok((k.clone(), V::from_value(val)?)))
                .collect(),
            _ => Err(Error("expected map".into())),
        }
    }
}

// Identity impls: `Value` serializes to (a clone of) itself, matching
// real serde_json where `Value: Serialize + Deserialize`. Lets callers
// parse arbitrary JSON into the tree (`serde_json::from_str::<Value>`).
impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}
impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}

/// JSON object keys must be strings; numbers and strings stringify the
/// way serde_json does.
fn key_to_string(v: &Value) -> String {
    match v {
        Value::Str(s) => s.clone(),
        Value::Int(i) => i.to_string(),
        Value::Bool(b) => b.to_string(),
        other => format!("{other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn option_round_trip_and_missing_field() {
        assert_eq!(Some(3u32).to_value(), Value::Int(3));
        assert_eq!(Option::<u32>::from_value(&Value::Null).unwrap(), None);
        let m = [("a".to_string(), Value::Int(1))];
        let a: u32 = field_from_map(&m, "a").unwrap();
        assert_eq!(a, 1);
        let missing: Option<u32> = field_from_map(&m, "b").unwrap();
        assert_eq!(missing, None);
        assert!(field_from_map::<u32>(&m, "b").is_err());
    }

    #[test]
    fn integer_range_checks() {
        assert!(u8::from_value(&Value::Int(300)).is_err());
        assert_eq!(
            u64::from_value(&Value::Int(u64::MAX as i128)).unwrap(),
            u64::MAX
        );
        assert_eq!(i64::from_value(&Value::Int(-5)).unwrap(), -5);
        assert_eq!(u8::from_value(&Value::Float(255.0)).unwrap(), 255);
        for f in [-1.0, 1e30, f64::INFINITY, 2.5] {
            assert!(u64::from_value(&Value::Float(f)).is_err(), "{f}");
        }
    }
}
