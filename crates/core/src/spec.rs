//! The declarative scenario DSL (DESIGN.md §10).
//!
//! A [`ScenarioSpec`] is the versioned, schema-validated JSON form of a
//! run: a base scenario (`steady` or `event_day`), overrides for the
//! knobs experiments actually turn (seed, window, servers, class mix,
//! policy, free-riders), and an `events` section of timed chaos
//! injections. `coolstream run --scenario FILE` loads one; the files in
//! `scenarios/` are the library the conformance matrix pins down.
//!
//! Parsing is deliberately *strict* — unknown fields, a wrong `version`,
//! malformed values and out-of-range knobs are all hard errors with the
//! offending key in the message, never silently ignored. A scenario file
//! that loads is a scenario file that means what it says, which is what
//! makes per-file golden trace hashes trustworthy.
//!
//! All chaos injections except `arrival_storm` compile to engine events
//! dispatched through the same deterministic queue as everything else;
//! `arrival_storm` changes the *arrival process* and therefore compiles
//! to a [`Spike`] on the workload's rate profile before generation.

use cs_net::{Bandwidth, ConnectivityPolicy, NodeInfo};
use cs_proto::{Event, Params, SessionRecord, MAX_PENDING_PER_NODE};
use cs_sim::SimTime;
use cs_workload::{FreeRiderModel, Spike};
use serde::{Deserialize, Error as SerdeError, Serialize, Value};

use crate::Scenario;

mod events;

pub use events::ChaosSpec;

/// The schema version this crate reads and writes.
pub const SPEC_VERSION: u64 = 1;

/// Bytes a run reserves per expected node id before its first event
/// (`CsWorld::reserve_run` and the engine's queue pool): a session record,
/// a `cs-net` registry entry, a lookup-spine slot and
/// [`MAX_PENDING_PER_NODE`] queue entries (an event plus 16 B) — 612 B
/// in all.
const RESERVED_BYTES_PER_ID: usize = size_of::<SessionRecord>()
    + size_of::<NodeInfo>()
    + size_of::<u32>()
    + MAX_PENDING_PER_NODE * (size_of::<Event>() + 16);

/// The largest reservation [`ScenarioSpec::validate`] lets a run ask for:
/// 16 GiB. The paper-scale day (`event_day(1.0)` over 24 h, 5.4 × 10⁶
/// expected ids) reserves 3.3 GB and the 10⁵-peer rung 0.7 GB.
const MAX_RUN_RESERVATION: usize = 16 << 30;

// The bound keeps the expected node ids under half the 32-bit id space,
// the precondition of the id-narrowing `expect`s in cs-net and
// cs-workload.
const _: () = assert!(MAX_RUN_RESERVATION / RESERVED_BYTES_PER_ID < (u32::MAX / 2) as usize);

/// A scenario-file validation or parse failure.
#[derive(Clone, Debug, PartialEq)]
pub struct SpecError(pub String);

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "scenario spec: {}", self.0)
    }
}

impl std::error::Error for SpecError {}

fn err<T>(msg: impl std::fmt::Display) -> Result<T, SpecError> {
    Err(SpecError(msg.to_string()))
}

/// Reject a whole-second field whose microsecond value does not fit the
/// simulation clock: [`SimTime`] saturates, which would silently turn
/// the value into "never".
fn fits_clock(field: impl std::fmt::Display, secs: u64) -> Result<(), SpecError> {
    const MAX_S: u64 = u64::MAX / SimTime::USEC_PER_SEC;
    if secs > MAX_S {
        return err(format!(
            "{field} {secs} does not fit the simulation clock (at most {MAX_S} s)"
        ));
    }
    Ok(())
}

/// The versioned scenario document. Its `version` key is no field: the
/// derive (`remote = "Self"`) writes and reads the fields, and this
/// type's `Serialize` / `Deserialize` impls wrap it with the version.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(remote = "Self", deny_unknown_fields)]
pub struct ScenarioSpec {
    /// Scenario name (used for golden-hash lookup; required, non-empty).
    pub name: String,
    /// Free-form human description.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub description: Option<String>,
    /// The base scenario the overrides start from.
    pub base: BaseSpec,
    /// Master seed (default: the base scenario's).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub seed: Option<u64>,
    /// Window start in seconds (default: the base scenario's).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub start_s: Option<u64>,
    /// Window end in seconds (default: the base scenario's horizon).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub end_s: Option<u64>,
    /// Dedicated server fleet override.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub servers: Option<ServerSpec>,
    /// Public (direct-connect + UPnP) share of the class mix, `[0, 1]`.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub public_share: Option<f64>,
    /// Workload-level free-rider probability, `[0, 1]` (see
    /// [`FreeRiderModel`]; distinct from the `free_rider` *event*, which
    /// converts the live population mid-run).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub free_rider_share: Option<f64>,
    /// Connectivity-policy override.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub policy: Option<PolicySpec>,
    /// Topology snapshot cadence in seconds (`None` = base default).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub snapshot_s: Option<u64>,
    /// Residue of the removed sharded engine: always `None` in an
    /// accepted spec. The field survives only because `benchmark/`
    /// reads `spec.shards.is_none()` and could not be edited in the PR
    /// that removed sharding; it dies in the next benchmark PR.
    #[serde(skip)]
    pub shards: Option<u64>,
    /// Timed chaos injections.
    #[serde(default)]
    pub events: Vec<ChaosSpec>,
}

/// The rejection for a spec that still names the removed `shards` knob.
const SHARDS_REMOVED: &str =
    "`shards` was removed: runs were byte-identical at every shard count; delete the field";

/// The base scenario a spec starts from.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
#[serde(
    tag = "kind",
    rename_all = "snake_case",
    rename = "base",
    deny_unknown_fields
)]
pub enum BaseSpec {
    /// Constant arrival rate (arrivals/s), no program ends, 1 h horizon.
    Steady {
        /// Arrivals per second.
        rate: f64,
    },
    /// The 2006-09-27 broadcast day at population scale `scale`.
    EventDay {
        /// Population scale (1.0 ≈ 40 k peak concurrent users).
        scale: f64,
    },
}

/// Dedicated-server fleet override.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ServerSpec {
    /// Number of dedicated servers (≥ 1).
    pub count: usize,
    /// Per-server uplink in Mbps (≥ 1).
    pub bw_mbps: u64,
}

/// Connectivity-policy override (both probabilities in `[0, 1]`).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct PolicySpec {
    /// Probability a NAT-NAT pairing is traversable.
    pub nat_accept_prob: f64,
    /// Probability a firewall accepts an inbound stranger.
    pub firewall_accept_prob: f64,
}

impl Serialize for ScenarioSpec {
    fn to_value(&self) -> Value {
        let mut doc = vec![("version".to_string(), SPEC_VERSION.to_value())];
        if let Value::Map(fields) = ScenarioSpec::to_value(self) {
            doc.extend(fields);
        }
        Value::Map(doc)
    }
}

impl Deserialize for ScenarioSpec {
    fn from_value(v: &Value) -> Result<Self, SerdeError> {
        let m = v
            .as_map()
            .ok_or_else(|| SerdeError::custom("expected a JSON object"))?;
        if m.iter().any(|(k, _)| k == "shards") {
            return Err(SerdeError::custom(SHARDS_REMOVED));
        }
        let (version, fields): (Vec<_>, Vec<_>) =
            m.iter().cloned().partition(|(k, _)| k == "version");
        let Some((_, version)) = version.first() else {
            return Err(SerdeError::custom("missing required field `version`"));
        };
        let version =
            u64::from_value(version).map_err(|e| SerdeError(format!("field `version`: {e}")))?;
        if version != SPEC_VERSION {
            return Err(SerdeError(format!(
                "unsupported schema version {version} (this build reads version {SPEC_VERSION})"
            )));
        }
        // The derive lists the keys it reads; `version` is read here, so a
        // misspelt top-level key is told it too. A nested field's error
        // starts with ``field `name`:`` and keeps its own list.
        ScenarioSpec::from_value(&Value::Map(fields)).map_err(|SerdeError(e)| {
            if e.starts_with("unknown field ") {
                SerdeError(e.replacen("(allowed: ", "(allowed: version, ", 1))
            } else {
                SerdeError(e)
            }
        })
    }
}

impl ScenarioSpec {
    /// Parse and validate a scenario file's text.
    pub fn from_json(text: &str) -> Result<Self, SpecError> {
        let tree: Value =
            serde_json::from_str(text).map_err(|e| SpecError(format!("malformed JSON: {e}")))?;
        let spec = <ScenarioSpec as Deserialize>::from_value(&tree).map_err(|e| SpecError(e.0))?;
        spec.validate()?;
        Ok(spec)
    }

    /// Render as pretty JSON (the `coolstream config` output format).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_default()
    }

    /// Check every knob's range and cross-field consistency.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.name.is_empty() {
            return err("`name` must be non-empty");
        }
        match self.base {
            BaseSpec::Steady { rate } => {
                if !(rate.is_finite() && rate > 0.0) {
                    return err(format!("base: `rate` must be finite and > 0, got {rate}"));
                }
            }
            BaseSpec::EventDay { scale } => {
                if !(scale.is_finite() && scale > 0.0) {
                    return err(format!("base: `scale` must be finite and > 0, got {scale}"));
                }
            }
        }
        for (key, secs) in [
            ("`start_s`", self.start_s),
            ("`end_s`", self.end_s),
            ("`snapshot_s`", self.snapshot_s),
        ] {
            fits_clock(key, secs.unwrap_or(0))?;
        }
        let (start, end) = self.window();
        if start >= end {
            return err(format!(
                "window is empty: start_s {} >= end_s {}",
                start.as_secs(),
                end.as_secs()
            ));
        }
        // A buffer-map entry holds `seq + 1` in 32 bits; the spec
        // overrides no `Params`, so the run streams at the defaults.
        if let Some(edge) = Params::default()
            .live_edge(end)
            .filter(|&e| e >= u64::from(u32::MAX))
        {
            return err(format!(
                "`end_s` {}: the live edge there, block {edge}, does not fit a 32-bit buffer-map entry (at most block {})",
                end.as_secs(),
                u32::MAX - 1
            ));
        }
        if let Some(s) = &self.servers {
            if s.count == 0 {
                return err("servers: `count` must be >= 1");
            }
            if s.bw_mbps == 0 {
                return err("servers: `bw_mbps` must be >= 1");
            }
            // `Bandwidth::mbps` multiplies unchecked.
            const MAX_MBPS: u64 = u64::MAX / 1_000_000;
            if s.bw_mbps > MAX_MBPS {
                return err(format!(
                    "servers: `bw_mbps` {} does not fit a 64-bit bits-per-second count (at most {MAX_MBPS})",
                    s.bw_mbps
                ));
            }
        }
        for (key, v) in [
            ("public_share", self.public_share),
            ("free_rider_share", self.free_rider_share),
        ] {
            if let Some(x) = v {
                if !(x.is_finite() && (0.0..=1.0).contains(&x)) {
                    return err(format!("`{key}` must be in [0, 1], got {x}"));
                }
            }
        }
        if let Some(p) = &self.policy {
            p.validate("policy")?;
        }
        if self.snapshot_s == Some(0) {
            return err("`snapshot_s` must be >= 1");
        }
        if self.shards.is_some() {
            return err(SHARDS_REMOVED);
        }
        let server_count = self.servers.map(|s| s.count);
        for (i, e) in self.events.iter().enumerate() {
            e.validate(i, start, end, server_count)?;
        }
        // The source, each server and each session (an arrival or one of
        // its re-entries) take a fresh node id, and the run reserves its
        // node-indexed tables and queue pool at the expected count.
        let sc = self.scenario();
        let retry_cap = sc.workload.sessions.retry_cap;
        let sessions = sc.workload.expected_arrivals(start, end) * f64::from(retry_cap + 1);
        let ids = sessions + 1.0 + sc.servers as f64;
        let bytes = ids * RESERVED_BYTES_PER_ID as f64;
        if bytes.is_nan() || bytes > MAX_RUN_RESERVATION as f64 {
            let (field, value) = match self.base {
                BaseSpec::Steady { rate } => ("rate", rate),
                BaseSpec::EventDay { scale } => ("scale", scale),
            };
            return err(format!(
                "base: `{field}` {value:?} expects {ids:.3e} node ids over the window (arrivals, storms included, × (1 + {retry_cap} retries), plus source and servers), a {bytes:.3e}-byte reservation at {RESERVED_BYTES_PER_ID} B each; at most {MAX_RUN_RESERVATION} B"
            ));
        }
        Ok(())
    }

    /// The effective `[start, end)` window after overrides.
    fn window(&self) -> (SimTime, SimTime) {
        let default_end = match self.base {
            BaseSpec::Steady { .. } => SimTime::from_hours(1),
            BaseSpec::EventDay { .. } => SimTime::from_hours(24),
        };
        (
            SimTime::from_secs(self.start_s.unwrap_or(0)),
            self.end_s.map_or(default_end, SimTime::from_secs),
        )
    }

    /// Compile the spec into a runnable [`Scenario`] plus the engine
    /// injections to schedule with
    /// [`Scenario::run_injected_observed`]. Validates first, so a
    /// compiled scenario is always a valid one.
    pub fn compile(&self) -> Result<CompiledSpec, SpecError> {
        self.validate()?;
        let injections = self
            .events
            .iter()
            .filter_map(|e| {
                let at = SimTime::from_secs(e.at_s());
                let event = match *e {
                    ChaosSpec::ServerCrash { server, .. } => Event::CrashServer(server),
                    ChaosSpec::ServerRestart { server, .. } => Event::RestartServer(server),
                    ChaosSpec::BootstrapDown { .. } => Event::SetBootstrap(false),
                    ChaosSpec::BootstrapUp { .. } => Event::SetBootstrap(true),
                    ChaosSpec::RegionalOutage {
                        quadrant, heal_s, ..
                    } => {
                        let heal = heal_s.map_or(SimTime::MAX, SimTime::from_secs);
                        Event::RegionalOutage { quadrant, heal }
                    }
                    ChaosSpec::PolicyShift {
                        nat_accept_prob,
                        firewall_accept_prob,
                        ..
                    } => Event::SetPolicy(ConnectivityPolicy {
                        nat_accept_prob,
                        firewall_accept_prob,
                    }),
                    ChaosSpec::UploadSkew { num, den, .. } => Event::ScaleUploads { num, den },
                    ChaosSpec::FreeRider { per_mille, .. } => Event::FreeRiders { per_mille },
                    // Part of the arrival process: see `scenario`.
                    ChaosSpec::ArrivalStorm { .. } => return None,
                };
                Some((at, event))
            })
            .collect();
        Ok(CompiledSpec {
            scenario: self.scenario(),
            injections,
        })
    }

    /// The scenario this spec describes, without its engine injections.
    /// Meaningful once `validate`'s field checks have passed.
    fn scenario(&self) -> Scenario {
        let mut scenario = match self.base {
            BaseSpec::Steady { rate } => Scenario::steady(rate),
            BaseSpec::EventDay { scale } => Scenario::event_day(scale),
        };
        if let Some(seed) = self.seed {
            scenario.seed = seed;
        }
        let (start, end) = self.window();
        scenario.start = start;
        scenario.horizon = end;
        if let Some(s) = self.servers {
            scenario.servers = s.count;
            scenario.server_bw = Bandwidth::mbps(s.bw_mbps);
        }
        if let Some(share) = self.public_share {
            scenario.workload.mix = scenario.workload.mix.with_public_share(share);
        }
        if let Some(share) = self.free_rider_share {
            scenario.workload.free_riders = Some(FreeRiderModel { share });
        }
        if let Some(p) = self.policy {
            scenario.policy = ConnectivityPolicy {
                nat_accept_prob: p.nat_accept_prob,
                firewall_accept_prob: p.firewall_accept_prob,
            };
        }
        if let Some(s) = self.snapshot_s {
            scenario.snapshot_interval = Some(SimTime::from_secs(s));
        }
        for e in &self.events {
            if let ChaosSpec::ArrivalStorm {
                at_s,
                duration_s,
                multiplier,
            } = *e
            {
                // An arrival storm perturbs the arrival *process*, so it
                // must exist before arrivals are generated — it becomes a
                // rate-profile spike, not an engine event.
                scenario.workload.profile.spikes.push(Spike {
                    start: SimTime::from_secs(at_s),
                    duration: SimTime::from_secs(duration_s),
                    multiplier,
                });
            }
        }
        scenario
    }

    /// The annotated example spec `coolstream config` emits: every field
    /// populated, one event of each engine-injected kind.
    pub fn example() -> Self {
        ScenarioSpec {
            name: "example".to_string(),
            description: Some(
                "Annotated example: a steady 0.5/s audience with one of each chaos event"
                    .to_string(),
            ),
            base: BaseSpec::Steady { rate: 0.5 },
            seed: Some(7),
            start_s: Some(0),
            end_s: Some(1800),
            servers: Some(ServerSpec {
                count: 2,
                bw_mbps: 100,
            }),
            public_share: Some(0.3),
            free_rider_share: Some(0.0),
            policy: Some(PolicySpec {
                nat_accept_prob: 0.3,
                firewall_accept_prob: 0.1,
            }),
            snapshot_s: Some(60),
            shards: None,
            events: vec![
                ChaosSpec::ServerCrash {
                    at_s: 300,
                    server: 0,
                },
                ChaosSpec::ServerRestart {
                    at_s: 600,
                    server: 0,
                },
                ChaosSpec::BootstrapDown { at_s: 700 },
                ChaosSpec::BootstrapUp { at_s: 760 },
                ChaosSpec::RegionalOutage {
                    at_s: 900,
                    quadrant: 2,
                    heal_s: Some(1020),
                },
                ChaosSpec::PolicyShift {
                    at_s: 1100,
                    nat_accept_prob: 0.05,
                    firewall_accept_prob: 0.0,
                },
                ChaosSpec::UploadSkew {
                    at_s: 1200,
                    num: 1,
                    den: 2,
                },
                ChaosSpec::FreeRider {
                    at_s: 1300,
                    per_mille: 200,
                },
                ChaosSpec::ArrivalStorm {
                    at_s: 1400,
                    duration_s: 120,
                    multiplier: 3.0,
                },
            ],
        }
    }
}

/// The output of [`ScenarioSpec::compile`].
#[derive(Clone, Debug)]
pub struct CompiledSpec {
    /// The runnable scenario (base + overrides + storm spikes).
    pub scenario: Scenario,
    /// Engine chaos injections, in file order.
    pub injections: Vec<(SimTime, Event)>,
}

impl PolicySpec {
    fn validate(&self, what: &str) -> Result<(), SpecError> {
        for (key, x) in [
            ("nat_accept_prob", self.nat_accept_prob),
            ("firewall_accept_prob", self.firewall_accept_prob),
        ] {
            if !(x.is_finite() && (0.0..=1.0).contains(&x)) {
                return err(format!("{what}: `{key}` must be in [0, 1], got {x}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests;
