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
fn unknown_top_level_field_lists_version_among_the_allowed() {
    let json = ScenarioSpec::example()
        .to_json()
        .replacen("\"name\"", "\"nmae\"", 1);
    let e = ScenarioSpec::from_json(&json).unwrap_err();
    assert_eq!(
        e.0,
        "unknown field `nmae` (allowed: version, name, description, base, seed, start_s, \
         end_s, servers, public_share, free_rider_share, policy, snapshot_s, events)"
    );
    // A nested object's list is its own.
    let json = r#"{"version": 1, "name": "x", "base": {"kind": "steady", "rte": 0.5}}"#;
    let e = ScenarioSpec::from_json(json).unwrap_err();
    assert!(e.0.contains("(allowed: kind, rate)"), "{e}");
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
    // The largest value that fits is not a clock overflow; its live edge
    // is past the buffer-map range, a rejection of its own.
    let mut spec = ScenarioSpec::example();
    spec.end_s = Some(u64::MAX / SimTime::USEC_PER_SEC);
    let e = spec.validate().unwrap_err();
    assert!(!e.0.contains("does not fit the simulation clock"), "{e}");
}

#[test]
fn window_beyond_the_buffer_map_range_is_rejected() {
    // The first whole second whose live edge passes `u32::MAX − 1`, the
    // newest seq a 32-bit buffer-map entry (`seq + 1`) holds: ≈ 4.47 × 10⁸ s.
    let params = Params::default();
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "a positive value near 4.5e8, far inside u64"
    )]
    let past = (f64::from(u32::MAX) / params.blocks_per_sec()).ceil() as u64;
    let edge = |s: u64| params.live_edge(SimTime::from_secs(s)).unwrap();
    assert!(edge(past) >= u64::from(u32::MAX) && edge(past - 1) < u64::from(u32::MAX));
    // A rate low enough that 14 years of arrivals fit the reservation
    // bound, so the buffer-map range is the bound under test.
    let mut spec = ScenarioSpec {
        base: BaseSpec::Steady { rate: 0.001 },
        ..ScenarioSpec::example()
    };
    spec.end_s = Some(past);
    let e = spec.validate().unwrap_err();
    assert!(e.0.contains("`end_s`") && e.0.contains("buffer-map"), "{e}");
    // The example's events sit inside the window, so the last second
    // that fits leaves the spec valid.
    spec.end_s = Some(past - 1);
    assert_eq!(spec.validate(), Ok(()));
}

/// Expected node ids — the expected arrivals, storms included, × (1 +
/// `retry_cap`), plus the source and the servers — must fit the run's
/// reservation bound, and the error names the base's rate knob.
#[test]
fn window_beyond_the_node_id_space_is_rejected() {
    let steady = |rate: f64, events: Vec<ChaosSpec>| ScenarioSpec {
        base: BaseSpec::Steady { rate },
        end_s: Some(3600),
        events,
        ..ScenarioSpec::example()
    };
    let named = |spec: &ScenarioSpec, field: &str| {
        let e = spec.validate().unwrap_err();
        assert!(e.0.contains(field) && e.0.contains("node ids"), "{e}");
    };
    // 1000/s over an hour: 3.6 × 10⁶ arrivals, 2.2 × 10⁷ ids.
    assert_eq!(steady(1000.0, Vec::new()).validate(), Ok(()));
    named(&steady(1e6, Vec::new()), "`rate`");
    named(&steady(1e308, Vec::new()), "`rate`");
    // A ×1000 storm over ten minutes adds 6 × 10⁸ arrivals.
    let storm = ChaosSpec::ArrivalStorm {
        at_s: 600,
        duration_s: 600,
        multiplier: 1000.0,
    };
    named(&steady(1000.0, vec![storm]), "`rate`");
    // A storm between minute marks counts in full.
    let short = ChaosSpec::ArrivalStorm {
        at_s: 10,
        duration_s: 30,
        multiplier: 1e9,
    };
    named(&steady(1.0, vec![short]), "`rate`");
    let day = ScenarioSpec {
        base: BaseSpec::EventDay { scale: 1e4 },
        end_s: None,
        ..ScenarioSpec::example()
    };
    named(&day, "`scale`");
}

/// The reservation bound sits between a steady hour at 0.999 and at
/// 1.001 times the rate that reserves exactly [`MAX_RUN_RESERVATION`];
/// the paper-scale day and the 10⁵-peer rung validate at 4× and 10×.
#[test]
fn reservation_beyond_the_bound_is_rejected() {
    assert_eq!(RESERVED_BYTES_PER_ID, 120 + 40 + 4 + 8 * 56);
    let steady = |rate: f64, end_s: u64, events: Vec<ChaosSpec>| ScenarioSpec {
        base: BaseSpec::Steady { rate },
        end_s: Some(end_s),
        events,
        ..ScenarioSpec::example()
    };
    let ids_per_rate = 3600.0 * 6.0; // an hour × (1 + 5 retries)
    let edge = MAX_RUN_RESERVATION as f64 / RESERVED_BYTES_PER_ID as f64 / ids_per_rate;
    assert_eq!(steady(edge * 0.999, 3600, Vec::new()).validate(), Ok(()));
    let e = steady(edge * 1.001, 3600, Vec::new())
        .validate()
        .unwrap_err();
    assert!(e.0.contains("`rate`") && e.0.contains("B each"), "{e}");
    // `run --preset steady --rate 3e6 --minutes 1`: 1.1 × 10⁹ ids, inside
    // the 32-bit id space, but a 661 GB reservation.
    let e = steady(3e6, 60, Vec::new()).validate().unwrap_err();
    assert!(
        e.0.contains("`rate`") && e.0.contains("1.080e9 node ids"),
        "{e}"
    );
    let day = |scale: f64| ScenarioSpec {
        base: BaseSpec::EventDay { scale },
        end_s: None,
        events: Vec::new(),
        ..ScenarioSpec::example()
    };
    assert_eq!(day(4.0).validate(), Ok(()));
    let storm = ChaosSpec::ArrivalStorm {
        at_s: 0,
        duration_s: 120,
        multiplier: 7.5,
    };
    assert_eq!(steady(1400.0, 520, vec![storm]).validate(), Ok(()));
}

/// `u64::MAX / 10⁶` Mbps is the largest uplink whose bps fit a `u64`;
/// one more used to wrap to a 448 384 bps server (and panic where
/// overflow checks are on).
#[test]
fn server_uplink_beyond_u64_bps_is_rejected() {
    let with_bw = |bw_mbps: u64| ScenarioSpec {
        servers: Some(ServerSpec { count: 1, bw_mbps }),
        events: Vec::new(),
        ..ScenarioSpec::example()
    };
    let max = with_bw(18_446_744_073_709);
    assert_eq!(max.validate(), Ok(()));
    assert_eq!(
        max.compile().unwrap().scenario.server_bw.as_bps(),
        18_446_744_073_709_000_000
    );
    let e = with_bw(18_446_744_073_710).validate().unwrap_err();
    assert!(
        e.0.contains("`bw_mbps` 18446744073710") && e.0.contains("at most 18446744073709"),
        "{e}"
    );
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
