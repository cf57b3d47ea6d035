//! Property tests for the scenario DSL: serde round-trip stability and
//! strict rejection of malformed documents, across randomly generated
//! specs rather than the one hand-written example.

use coolstreaming::{BaseSpec, ChaosSpec, PolicySpec, ScenarioSpec, ServerSpec};
use proptest::prelude::*;
use serde::{Deserialize, Serialize, Value};

/// Deterministically build a valid spec from random draws. Events are
/// placed inside the window and all knobs inside their legal ranges, so
/// `validate()` must accept every generated spec.
fn build_spec(
    base_pick: u8,
    magnitude: f64,
    seed: u64,
    end_s: u64,
    knobs: u8,
    event_picks: Vec<u8>,
) -> ScenarioSpec {
    let base = if base_pick % 2 == 0 {
        BaseSpec::Steady {
            rate: 0.05 + magnitude,
        }
    } else {
        BaseSpec::EventDay {
            scale: 0.001 + magnitude / 10.0,
        }
    };
    let mut spec = ScenarioSpec {
        name: format!("gen_{seed}"),
        description: (knobs & 1 != 0).then(|| "generated".to_string()),
        base,
        seed: Some(seed),
        start_s: None,
        end_s: Some(end_s),
        servers: (knobs & 2 != 0).then_some(ServerSpec {
            count: 1 + (seed as usize % 7),
            bw_mbps: 10 + seed % 200,
        }),
        public_share: (knobs & 4 != 0).then_some(magnitude.min(1.0)),
        free_rider_share: (knobs & 8 != 0).then_some((magnitude / 2.0).min(1.0)),
        policy: (knobs & 16 != 0).then_some(PolicySpec {
            nat_accept_prob: (magnitude / 3.0).min(1.0),
            firewall_accept_prob: (magnitude / 4.0).min(1.0),
        }),
        snapshot_s: (knobs & 32 != 0).then_some(30 + seed % 120),
        shards: None,
        events: Vec::new(),
    };
    let server_count = spec.servers.map_or(1, |s| s.count);
    for (i, pick) in event_picks.iter().enumerate() {
        // Strictly increasing times inside [0, end_s).
        let at_s = 1 + (i as u64 * (end_s - 1)) / (event_picks.len() as u64 + 1);
        let server = seed as usize % server_count;
        spec.events.push(match pick % 9 {
            0 => ChaosSpec::ServerCrash { at_s, server },
            1 => ChaosSpec::ServerRestart { at_s, server },
            2 => ChaosSpec::BootstrapDown { at_s },
            3 => ChaosSpec::BootstrapUp { at_s },
            4 => ChaosSpec::RegionalOutage {
                at_s,
                quadrant: (seed % 4) as u8,
                heal_s: (seed % 2 == 0).then_some(at_s + 1 + seed % 100),
            },
            5 => ChaosSpec::PolicyShift {
                at_s,
                nat_accept_prob: (magnitude / 5.0).min(1.0),
                firewall_accept_prob: 0.0,
            },
            6 => ChaosSpec::UploadSkew {
                at_s,
                num: 1 + (seed % 8) as u32,
                den: 1 + (seed % 4) as u32,
            },
            7 => ChaosSpec::FreeRider {
                at_s,
                per_mille: (seed % 1001) as u16,
            },
            _ => ChaosSpec::ArrivalStorm {
                at_s,
                duration_s: 1 + seed % 300,
                multiplier: 1.0 + magnitude,
            },
        });
    }
    spec
}

proptest! {
    /// Every generated spec validates, and JSON → struct → JSON is a
    /// fixed point: parsing the rendered text reproduces both the struct
    /// and the exact text.
    #[test]
    fn round_trip_is_stable(
        base_pick in any::<u8>(),
        magnitude in 0.0f64..1.0,
        seed in any::<u64>(),
        end_s in 60u64..3600,
        knobs in any::<u8>(),
        event_picks in proptest::collection::vec(any::<u8>(), 0..9),
    ) {
        let spec = build_spec(base_pick, magnitude, seed, end_s, knobs, event_picks);
        prop_assert!(spec.validate().is_ok(), "{:?}", spec.validate());
        let json = spec.to_json();
        prop_assert!(!json.contains("shards"), "removed knob must never be emitted: {json}");
        let back = ScenarioSpec::from_json(&json);
        prop_assert!(back.is_ok(), "{json}\n{:?}", back.err());
        let back = back.unwrap();
        prop_assert_eq!(&back, &spec);
        prop_assert_eq!(back.to_json(), json, "serialize(parse(text)) must be a fixed point");
    }

    /// Injecting an unknown field at the top level of any generated
    /// spec's JSON is rejected with an error naming the field — never a
    /// panic, never silently ignored.
    #[test]
    fn unknown_fields_always_rejected(
        seed in any::<u64>(),
        end_s in 60u64..3600,
        knobs in any::<u8>(),
    ) {
        let spec = build_spec(0, 0.4, seed, end_s, knobs, vec![4, 7]);
        let Value::Map(mut m) = spec.to_value() else {
            return Err(proptest::TestCaseError::fail("spec must serialize to a map"));
        };
        m.push(("bogus_knob".to_string(), Value::Int(1)));
        let json = serde_json::to_string(&Value::Map(m)).unwrap();
        let err = ScenarioSpec::from_json(&json).unwrap_err();
        prop_assert!(err.0.contains("unknown field `bogus_knob`"), "{err}");
    }

    /// Any version other than 1 is rejected with a clear error.
    #[test]
    fn bad_versions_always_rejected(version in 2u64..1000, seed in any::<u64>()) {
        let spec = build_spec(1, 0.3, seed, 600, 0, Vec::new());
        let Value::Map(mut m) = spec.to_value() else {
            return Err(proptest::TestCaseError::fail("spec must serialize to a map"));
        };
        for (k, v) in &mut m {
            if k == "version" {
                *v = Value::Int(i128::from(version));
            }
        }
        let json = serde_json::to_string(&Value::Map(m)).unwrap();
        let err = ScenarioSpec::from_json(&json).unwrap_err();
        prop_assert!(
            err.0.contains(&format!("unsupported schema version {version}")),
            "{err}"
        );
    }

    /// Compiling a valid generated spec always succeeds, and its engine
    /// injections are exactly the non-storm events, in file order.
    #[test]
    fn compile_matches_event_section(
        seed in any::<u64>(),
        end_s in 120u64..3600,
        event_picks in proptest::collection::vec(any::<u8>(), 0..9),
    ) {
        let spec = build_spec(0, 0.2, seed, end_s, 2, event_picks);
        let compiled = spec.compile();
        prop_assert!(compiled.is_ok(), "{:?}", compiled.err());
        let compiled = compiled.unwrap();
        let engine_events = spec
            .events
            .iter()
            .filter(|e| !matches!(e, ChaosSpec::ArrivalStorm { .. }))
            .count();
        prop_assert_eq!(compiled.injections.len(), engine_events);
        let storms = spec.events.len() - engine_events;
        let base_spikes = match spec.base {
            BaseSpec::Steady { .. } => 0,
            BaseSpec::EventDay { .. } => 2, // the built-in program-start spikes
        };
        prop_assert_eq!(
            compiled.scenario.workload.profile.spikes.len(),
            base_spikes + storms
        );
    }
}

/// The shim's `Deserialize for ScenarioSpec` (used by generic callers)
/// reports the same strict errors as `from_json`.
#[test]
fn generic_deserialize_is_strict_too() {
    let tree: Value = serde_json::from_str(
        r#"{"version": 1, "name": "x", "base": {"kind": "steady", "rate": 0.5}, "oops": true}"#,
    )
    .unwrap();
    let err = <ScenarioSpec as Deserialize>::from_value(&tree).unwrap_err();
    assert!(err.to_string().contains("unknown field `oops`"), "{err}");
}

/// Every shipped spec (the `scenarios/` library and the benchmark's
/// workloads, read only) parses, and `to_json` of it is a fixed point.
#[test]
fn shipped_specs_render_to_a_fixed_point() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let mut checked = 0;
    for dir in ["scenarios", "benchmark/workloads"] {
        for entry in std::fs::read_dir(format!("{root}/{dir}")).expect("spec directory") {
            let path = entry.expect("directory entry").path();
            if path.extension().is_none_or(|x| x != "json") {
                continue;
            }
            let text = std::fs::read_to_string(&path).expect("readable spec");
            let spec = ScenarioSpec::from_json(&text)
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            let json = spec.to_json();
            let back = ScenarioSpec::from_json(&json).expect("rendered spec parses");
            assert_eq!(back, spec, "{}", path.display());
            assert_eq!(back.to_json(), json, "{}", path.display());
            checked += 1;
        }
    }
    assert!(checked >= 13, "only {checked} shipped specs found");
}
