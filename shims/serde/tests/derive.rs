//! The derive's `#[serde(…)]` attributes, one case each.

use serde::{Deserialize, Serialize, Value};

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Loose {
    a: u32,
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
struct Strict {
    a: u32,
    #[serde(skip_serializing_if = "Option::is_none")]
    b: Option<u32>,
    #[serde(skip)]
    hidden: Option<u32>,
    #[serde(default)]
    list: Vec<u32>,
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
#[serde(
    tag = "kind",
    rename_all = "snake_case",
    rename = "shape",
    deny_unknown_fields
)]
enum Shape {
    Circle { r: f64 },
    RightAngle { a: u32, b: u32 },
}

fn map(entries: &[(&str, Value)]) -> Value {
    Value::Map(
        entries
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect(),
    )
}

fn err<T: Deserialize + std::fmt::Debug>(v: &Value) -> String {
    T::from_value(v).unwrap_err().to_string()
}

#[test]
fn deny_unknown_fields_names_the_field_and_lists_the_allowed() {
    let v = map(&[("a", Value::Int(1)), ("c", Value::Int(2))]);
    assert_eq!(err::<Strict>(&v), "unknown field `c` (allowed: a, b, list)");
}

#[test]
fn a_derive_without_attributes_ignores_unknown_fields() {
    let v = map(&[("a", Value::Int(1)), ("c", Value::Int(2))]);
    assert_eq!(Loose::from_value(&v).unwrap(), Loose { a: 1 });
}

#[test]
fn unknown_and_missing_tags_are_rejected() {
    let v = map(&[("kind", Value::Str("square".into()))]);
    assert_eq!(
        err::<Shape>(&v),
        "unknown shape kind `square` (expected one of: circle, right_angle)"
    );
    assert_eq!(
        err::<Shape>(&map(&[("r", Value::Float(1.0))])),
        "missing field `kind`"
    );
    let v = map(&[("kind", Value::Int(3)), ("r", Value::Float(1.0))]);
    assert!(err::<Shape>(&v).starts_with("field `kind`: expected string"));
}

#[test]
fn none_is_omitted_when_serialized() {
    let s = Strict {
        a: 1,
        b: None,
        hidden: None,
        list: vec![2],
    };
    let want = map(&[
        ("a", Value::Int(1)),
        ("list", Value::Seq(vec![Value::Int(2)])),
    ]);
    assert_eq!(s.to_value(), want);
    let s = Strict { b: Some(3), ..s };
    let Value::Map(m) = s.to_value() else {
        panic!("a struct serializes to a map")
    };
    assert_eq!(m[1], ("b".to_string(), Value::Int(3)));
}

#[test]
fn skip_is_never_written_and_reads_back_as_default() {
    let s = Strict {
        a: 1,
        b: Some(2),
        hidden: Some(9),
        list: Vec::new(),
    };
    let back = Strict::from_value(&s.to_value()).unwrap();
    assert_eq!(back, Strict { hidden: None, ..s });
    // `default` fills an absent key; a present `null` is still an error.
    let v = map(&[("a", Value::Int(1))]);
    assert_eq!(Strict::from_value(&v).unwrap().list, Vec::<u32>::new());
    let v = map(&[("a", Value::Int(1)), ("list", Value::Null)]);
    assert!(err::<Strict>(&v).starts_with("field `list`: expected sequence"));
}

#[test]
fn a_tagged_enum_round_trips_tag_first() {
    for shape in [Shape::Circle { r: 0.5 }, Shape::RightAngle { a: 3, b: 4 }] {
        let v = shape.to_value();
        assert!(matches!(&v, Value::Map(m) if m[0].0 == "kind"), "{v:?}");
        assert_eq!(Shape::from_value(&v).unwrap(), shape);
    }
    assert_eq!(
        Shape::RightAngle { a: 3, b: 4 }.to_value(),
        map(&[
            ("kind", Value::Str("right_angle".into())),
            ("a", Value::Int(3)),
            ("b", Value::Int(4)),
        ])
    );
    let v = map(&[("kind", Value::Str("circle".into())), ("a", Value::Int(1))]);
    assert_eq!(err::<Shape>(&v), "unknown field `a` (allowed: kind, r)");
}

/// `remote = "Self"` emits inherent functions, which a hand-written
/// trait impl wraps.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
#[serde(remote = "Self")]
struct Wrapped {
    a: u32,
}

impl Serialize for Wrapped {
    fn to_value(&self) -> Value {
        Value::Seq(vec![Wrapped::to_value(self)])
    }
}

impl Deserialize for Wrapped {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        match v.as_seq() {
            Some([inner]) => Wrapped::from_value(inner),
            _ => Err(serde::Error::custom("expected one element")),
        }
    }
}

#[test]
fn remote_self_lets_a_hand_written_impl_wrap_the_derive() {
    let v = Serialize::to_value(&Wrapped { a: 7 });
    assert_eq!(v, Value::Seq(vec![map(&[("a", Value::Int(7))])]));
    assert_eq!(
        <Wrapped as Deserialize>::from_value(&v).unwrap(),
        Wrapped { a: 7 }
    );
}

#[test]
fn a_sequence_error_names_the_element() {
    let v = Value::Seq(vec![Value::Int(1), Value::Str("x".into())]);
    assert!(Vec::<u32>::from_value(&v)
        .unwrap_err()
        .to_string()
        .starts_with("element 1: expected integer"));
}
