//! Unit tests of the scenario spec: round-trip, rejection, compilation.

use super::*;

#[test]
fn example_round_trips_through_json() {
    let spec = ScenarioSpec::example();
    let json = spec.to_json();
    let back = ScenarioSpec::from_json(&json).unwrap();
    assert_eq!(spec, back);
    // And the rendered form is a fixed point: serialize(parse(text))
    // reproduces the text exactly.
    assert_eq!(back.to_json(), json);
}

#[test]
fn unknown_top_level_field_is_rejected() {
    let mut json = ScenarioSpec::example().to_json();
    json = json.replacen("\"name\"", "\"nmae\"", 1);
    let e = ScenarioSpec::from_json(&json).unwrap_err();
    assert!(e.0.contains("unknown field `nmae`"), "{e}");
}

#[test]
fn removed_shards_field_is_rejected_by_name() {
    let minimal = r#"{"version": 1, "name": "x", "base": {"kind": "steady", "rate": 0.5}}"#;
    let spec = ScenarioSpec::from_json(minimal).unwrap();
    assert_eq!(spec.shards, None);
    assert!(!spec.to_json().contains("shards"));

    let with_field = minimal.replacen('{', r#"{"shards": 4, "#, 1);
    let e = ScenarioSpec::from_json(&with_field).unwrap_err();
    assert_eq!(e.0, SHARDS_REMOVED);

    // Built in code rather than parsed: validation is the gate.
    let built = ScenarioSpec {
        shards: Some(1),
        ..spec
    };
    assert_eq!(built.validate().unwrap_err().0, SHARDS_REMOVED);
    assert!(!built.to_json().contains("shards"));
}

#[test]
fn unknown_event_field_is_rejected() {
    let json = r#"{
        "version": 1, "name": "x", "base": {"kind": "steady", "rate": 0.5},
        "events": [{"kind": "server_crash", "at_s": 10, "server": 0, "extra": 1}]
    }"#;
    let e = ScenarioSpec::from_json(json).unwrap_err();
    assert!(e.0.contains("unknown field `extra`"), "{e}");
}

#[test]
fn wrong_version_is_rejected_with_clear_error() {
    let json = r#"{"version": 2, "name": "x", "base": {"kind": "steady", "rate": 0.5}}"#;
    let e = ScenarioSpec::from_json(json).unwrap_err();
    assert!(e.0.contains("unsupported schema version 2"), "{e}");
    let missing = r#"{"name": "x", "base": {"kind": "steady", "rate": 0.5}}"#;
    let e = ScenarioSpec::from_json(missing).unwrap_err();
    assert!(e.0.contains("missing required field `version`"), "{e}");
}

#[test]
fn malformed_json_is_an_error_not_a_panic() {
    let e = ScenarioSpec::from_json("{ not json").unwrap_err();
    assert!(e.0.contains("malformed JSON"), "{e}");
}

#[test]
fn unknown_event_kind_is_rejected() {
    let json = r#"{
        "version": 1, "name": "x", "base": {"kind": "steady", "rate": 0.5},
        "events": [{"kind": "meteor_strike", "at_s": 10}]
    }"#;
    let e = ScenarioSpec::from_json(json).unwrap_err();
    assert!(e.0.contains("unknown event kind `meteor_strike`"), "{e}");
}

#[test]
fn range_checks_catch_bad_knobs() {
    let mut bad_share = ScenarioSpec::example();
    bad_share.public_share = Some(1.5);
    assert!(bad_share.validate().unwrap_err().0.contains("public_share"));

    let mut bad_quadrant = ScenarioSpec::example();
    bad_quadrant.events = vec![ChaosSpec::RegionalOutage {
        at_s: 100,
        quadrant: 7,
        heal_s: None,
    }];
    assert!(bad_quadrant.validate().unwrap_err().0.contains("quadrant"));

    let mut bad_time = ScenarioSpec::example();
    bad_time.events = vec![ChaosSpec::BootstrapDown { at_s: 999_999 }];
    assert!(bad_time
        .validate()
        .unwrap_err()
        .0
        .contains("outside the run window"));

    let mut bad_server = ScenarioSpec::example();
    bad_server.events = vec![ChaosSpec::ServerCrash {
        at_s: 100,
        server: 9,
    }];
    assert!(bad_server
        .validate()
        .unwrap_err()
        .0
        .contains("out of range"));

    let mut bad_heal = ScenarioSpec::example();
    bad_heal.events = vec![ChaosSpec::RegionalOutage {
        at_s: 100,
        quadrant: 0,
        heal_s: Some(50),
    }];
    assert!(bad_heal.validate().unwrap_err().0.contains("heal_s"));
}

/// Seconds whose microsecond value wraps a `u64` to 60.4 s.
const WRAPS: u64 = 18_446_744_073_770;

fn assert_rejected_naming(spec: &ScenarioSpec, field: &str) {
    let e = spec.validate().unwrap_err();
    assert!(
        e.0.contains(field) && e.0.contains("does not fit the simulation clock"),
        "{field}: {e}"
    );
}

#[test]
fn window_times_beyond_the_clock_are_rejected() {
    let mut spec = ScenarioSpec::example();
    spec.end_s = Some(WRAPS);
    assert_rejected_naming(&spec, "end_s");
    spec.start_s = Some(WRAPS);
    assert_rejected_naming(&spec, "start_s");
    // The largest value that fits is not an overflow (the example's
    // events then sit inside the window, so the spec stays valid).
    let mut spec = ScenarioSpec::example();
    spec.end_s = Some(u64::MAX / SimTime::USEC_PER_SEC);
    assert_eq!(spec.validate(), Ok(()));
}

#[test]
fn snapshot_period_beyond_the_clock_is_rejected() {
    let mut spec = ScenarioSpec::example();
    spec.snapshot_s = Some(WRAPS);
    assert_rejected_naming(&spec, "snapshot_s");
}

#[test]
fn event_times_beyond_the_clock_are_rejected() {
    let cases = [
        ("at_s", ChaosSpec::BootstrapDown { at_s: WRAPS }),
        (
            "heal_s",
            ChaosSpec::RegionalOutage {
                at_s: 100,
                quadrant: 0,
                heal_s: Some(WRAPS),
            },
        ),
        (
            "duration_s",
            ChaosSpec::ArrivalStorm {
                at_s: 100,
                duration_s: WRAPS,
                multiplier: 2.0,
            },
        ),
    ];
    for (field, event) in cases {
        let mut spec = ScenarioSpec::example();
        spec.events = vec![event];
        assert_rejected_naming(&spec, field);
    }
}

#[test]
fn compile_applies_overrides_and_splits_event_kinds() {
    let compiled = ScenarioSpec::example().compile().unwrap();
    let s = &compiled.scenario;
    assert_eq!(s.seed, 7);
    assert_eq!(s.servers, 2);
    assert_eq!(s.server_bw, Bandwidth::mbps(100));
    assert_eq!(s.horizon, SimTime::from_secs(1800));
    assert_eq!(s.policy.nat_accept_prob, 0.3);
    assert_eq!(s.snapshot_interval, Some(SimTime::from_secs(60)));
    // The storm became a profile spike, the other 8 engine events.
    assert_eq!(compiled.injections.len(), 8);
    let storm = compiled
        .scenario
        .workload
        .profile
        .spikes
        .iter()
        .find(|sp| sp.start == SimTime::from_secs(1400))
        .expect("storm spike missing");
    assert_eq!(storm.duration, SimTime::from_secs(120));
    assert_eq!(storm.multiplier, 3.0);
    // Free-rider share 0.0 still threads the model through.
    assert!(compiled.scenario.workload.free_riders.is_some());
}

#[test]
fn minimal_spec_uses_base_defaults() {
    let json = r#"{"version": 1, "name": "mini", "base": {"kind": "event_day", "scale": 0.01}}"#;
    let spec = ScenarioSpec::from_json(json).unwrap();
    let compiled = spec.compile().unwrap();
    assert_eq!(compiled.scenario.horizon, SimTime::from_hours(24));
    assert!(compiled.injections.is_empty());
    assert!(compiled.scenario.workload.free_riders.is_none());
}
