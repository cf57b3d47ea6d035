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

use cs_net::{Bandwidth, ConnectivityPolicy};
use cs_proto::Event;
use cs_sim::SimTime;
use cs_workload::{FreeRiderModel, Spike};
use serde::{Deserialize, Error as SerdeError, Serialize, Value};

use crate::Scenario;

mod events;

pub use events::ChaosSpec;

/// The schema version this crate reads and writes.
pub const SPEC_VERSION: u64 = 1;

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

/// The versioned scenario document.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario name (used for golden-hash lookup; required, non-empty).
    pub name: String,
    /// Free-form human description.
    pub description: Option<String>,
    /// The base scenario the overrides start from.
    pub base: BaseSpec,
    /// Master seed (default: the base scenario's).
    pub seed: Option<u64>,
    /// Window start in seconds (default: the base scenario's).
    pub start_s: Option<u64>,
    /// Window end in seconds (default: the base scenario's horizon).
    pub end_s: Option<u64>,
    /// Dedicated server fleet override.
    pub servers: Option<ServerSpec>,
    /// Public (direct-connect + UPnP) share of the class mix, `[0, 1]`.
    pub public_share: Option<f64>,
    /// Workload-level free-rider probability, `[0, 1]` (see
    /// [`FreeRiderModel`]; distinct from the `free_rider` *event*, which
    /// converts the live population mid-run).
    pub free_rider_share: Option<f64>,
    /// Connectivity-policy override.
    pub policy: Option<PolicySpec>,
    /// Topology snapshot cadence in seconds (`None` = base default).
    pub snapshot_s: Option<u64>,
    /// Residue of the removed sharded engine: always `None` in an
    /// accepted spec. The field survives only because `benchmark/`
    /// reads `spec.shards.is_none()` and could not be edited in the PR
    /// that removed sharding; it dies in the next benchmark PR.
    pub shards: Option<u64>,
    /// Timed chaos injections.
    pub events: Vec<ChaosSpec>,
}

/// The rejection for a spec that still names the removed `shards` knob.
const SHARDS_REMOVED: &str =
    "`shards` was removed: runs were byte-identical at every shard count; delete the field";

/// The base scenario a spec starts from.
#[derive(Clone, Copy, Debug, PartialEq)]
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
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ServerSpec {
    /// Number of dedicated servers (≥ 1).
    pub count: usize,
    /// Per-server uplink in Mbps (≥ 1).
    pub bw_mbps: u64,
}

/// Connectivity-policy override (both probabilities in `[0, 1]`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PolicySpec {
    /// Probability a NAT-NAT pairing is traversable.
    pub nat_accept_prob: f64,
    /// Probability a firewall accepts an inbound stranger.
    pub firewall_accept_prob: f64,
}

// ---------------------------------------------------------------------
// Strict Value-tree helpers
//
// The serde shim's derive ignores unknown fields (matching real serde's
// default); the DSL wants the opposite, so all (de)serialization here is
// hand-written over `serde::Value` with explicit key checks.

fn as_map<'v>(v: &'v Value, what: &str) -> Result<&'v [(String, Value)], SpecError> {
    v.as_map()
        .ok_or_else(|| SpecError(format!("{what}: expected a JSON object")))
}

fn check_keys(m: &[(String, Value)], allowed: &[&str], what: &str) -> Result<(), SpecError> {
    for (k, _) in m {
        if !allowed.contains(&k.as_str()) {
            return err(format!(
                "{what}: unknown field `{k}` (allowed: {})",
                allowed.join(", ")
            ));
        }
    }
    Ok(())
}

fn get<'m>(m: &'m [(String, Value)], key: &str) -> Option<&'m Value> {
    m.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn req<T: Deserialize>(m: &[(String, Value)], key: &str, what: &str) -> Result<T, SpecError> {
    match get(m, key) {
        Some(v) => T::from_value(v).map_err(|e| SpecError(format!("{what}: field `{key}`: {e}"))),
        None => err(format!("{what}: missing required field `{key}`")),
    }
}

fn opt<T: Deserialize>(
    m: &[(String, Value)],
    key: &str,
    what: &str,
) -> Result<Option<T>, SpecError> {
    match get(m, key) {
        None | Some(Value::Null) => Ok(None),
        Some(v) => T::from_value(v)
            .map(Some)
            .map_err(|e| SpecError(format!("{what}: field `{key}`: {e}"))),
    }
}

fn push<T: Serialize>(m: &mut Vec<(String, Value)>, key: &str, v: &T) {
    m.push((key.to_string(), v.to_value()));
}

fn push_opt<T: Serialize>(m: &mut Vec<(String, Value)>, key: &str, v: &Option<T>) {
    if let Some(x) = v {
        m.push((key.to_string(), x.to_value()));
    }
}

impl Serialize for ScenarioSpec {
    fn to_value(&self) -> Value {
        let mut m = Vec::new();
        push(&mut m, "version", &SPEC_VERSION);
        push(&mut m, "name", &self.name);
        push_opt(&mut m, "description", &self.description);
        push(&mut m, "base", &self.base);
        push_opt(&mut m, "seed", &self.seed);
        push_opt(&mut m, "start_s", &self.start_s);
        push_opt(&mut m, "end_s", &self.end_s);
        push_opt(&mut m, "servers", &self.servers);
        push_opt(&mut m, "public_share", &self.public_share);
        push_opt(&mut m, "free_rider_share", &self.free_rider_share);
        push_opt(&mut m, "policy", &self.policy);
        push_opt(&mut m, "snapshot_s", &self.snapshot_s);
        push(&mut m, "events", &self.events);
        Value::Map(m)
    }
}

impl Deserialize for ScenarioSpec {
    fn from_value(v: &Value) -> Result<Self, SerdeError> {
        ScenarioSpec::from_tree(v).map_err(|e| SerdeError::custom(e.0))
    }
}

impl ScenarioSpec {
    /// Strictly parse a spec from a [`Value`] tree.
    fn from_tree(v: &Value) -> Result<Self, SpecError> {
        let m = as_map(v, "scenario")?;
        if get(m, "shards").is_some() {
            return err(SHARDS_REMOVED);
        }
        check_keys(
            m,
            &[
                "version",
                "name",
                "description",
                "base",
                "seed",
                "start_s",
                "end_s",
                "servers",
                "public_share",
                "free_rider_share",
                "policy",
                "snapshot_s",
                "events",
            ],
            "scenario",
        )?;
        let version: u64 = req(m, "version", "scenario")?;
        if version != SPEC_VERSION {
            return err(format!(
                "unsupported schema version {version} (this build reads version {SPEC_VERSION})"
            ));
        }
        let base_v = get(m, "base")
            .ok_or_else(|| SpecError("scenario: missing required field `base`".to_string()))?;
        Ok(ScenarioSpec {
            name: req(m, "name", "scenario")?,
            description: opt(m, "description", "scenario")?,
            base: BaseSpec::from_tree(base_v)?,
            seed: opt(m, "seed", "scenario")?,
            start_s: opt(m, "start_s", "scenario")?,
            end_s: opt(m, "end_s", "scenario")?,
            servers: match get(m, "servers") {
                None | Some(Value::Null) => None,
                Some(v) => Some(ServerSpec::from_tree(v)?),
            },
            public_share: opt(m, "public_share", "scenario")?,
            free_rider_share: opt(m, "free_rider_share", "scenario")?,
            policy: match get(m, "policy") {
                None | Some(Value::Null) => None,
                Some(v) => Some(PolicySpec::from_tree(v)?),
            },
            snapshot_s: opt(m, "snapshot_s", "scenario")?,
            shards: None,
            events: match get(m, "events") {
                None | Some(Value::Null) => Vec::new(),
                Some(v) => {
                    let seq = v
                        .as_seq()
                        .ok_or_else(|| SpecError("`events`: expected an array".to_string()))?;
                    seq.iter()
                        .enumerate()
                        .map(|(i, e)| ChaosSpec::from_tree(e, i))
                        .collect::<Result<Vec<_>, _>>()?
                }
            },
        })
    }

    /// Parse and validate a scenario file's text.
    pub fn from_json(text: &str) -> Result<Self, SpecError> {
        let tree: Value =
            serde_json::from_str(text).map_err(|e| SpecError(format!("malformed JSON: {e}")))?;
        let spec = ScenarioSpec::from_tree(&tree)?;
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
        if let Some(s) = &self.servers {
            if s.count == 0 {
                return err("servers: `count` must be >= 1");
            }
            if s.bw_mbps == 0 {
                return err("servers: `bw_mbps` must be >= 1");
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
        let mut injections = Vec::new();
        for e in &self.events {
            let at = SimTime::from_secs(e.at_s());
            match *e {
                ChaosSpec::ServerCrash { server, .. } => {
                    injections.push((at, Event::CrashServer(server)));
                }
                ChaosSpec::ServerRestart { server, .. } => {
                    injections.push((at, Event::RestartServer(server)));
                }
                ChaosSpec::BootstrapDown { .. } => {
                    injections.push((at, Event::SetBootstrap(false)));
                }
                ChaosSpec::BootstrapUp { .. } => {
                    injections.push((at, Event::SetBootstrap(true)));
                }
                ChaosSpec::RegionalOutage {
                    quadrant, heal_s, ..
                } => {
                    let heal = heal_s.map_or(SimTime::MAX, SimTime::from_secs);
                    injections.push((at, Event::RegionalOutage { quadrant, heal }));
                }
                ChaosSpec::PolicyShift {
                    nat_accept_prob,
                    firewall_accept_prob,
                    ..
                } => {
                    injections.push((
                        at,
                        Event::SetPolicy(ConnectivityPolicy {
                            nat_accept_prob,
                            firewall_accept_prob,
                        }),
                    ));
                }
                ChaosSpec::UploadSkew { num, den, .. } => {
                    injections.push((at, Event::ScaleUploads { num, den }));
                }
                ChaosSpec::FreeRider { per_mille, .. } => {
                    injections.push((at, Event::FreeRiders { per_mille }));
                }
                ChaosSpec::ArrivalStorm {
                    duration_s,
                    multiplier,
                    ..
                } => {
                    // An arrival storm perturbs the arrival *process*, so
                    // it must exist before arrivals are generated — it
                    // becomes a rate-profile spike, not an engine event.
                    scenario.workload.profile.spikes.push(Spike {
                        start: at,
                        duration: SimTime::from_secs(duration_s),
                        multiplier,
                    });
                }
            }
        }
        Ok(CompiledSpec {
            scenario,
            injections,
        })
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

impl Serialize for BaseSpec {
    fn to_value(&self) -> Value {
        let mut m = Vec::new();
        match *self {
            BaseSpec::Steady { rate } => {
                push(&mut m, "kind", &"steady");
                push(&mut m, "rate", &rate);
            }
            BaseSpec::EventDay { scale } => {
                push(&mut m, "kind", &"event_day");
                push(&mut m, "scale", &scale);
            }
        }
        Value::Map(m)
    }
}

impl BaseSpec {
    fn from_tree(v: &Value) -> Result<Self, SpecError> {
        let m = as_map(v, "base")?;
        let kind: String = req(m, "kind", "base")?;
        match kind.as_str() {
            "steady" => {
                check_keys(m, &["kind", "rate"], "base (steady)")?;
                Ok(BaseSpec::Steady {
                    rate: req(m, "rate", "base (steady)")?,
                })
            }
            "event_day" => {
                check_keys(m, &["kind", "scale"], "base (event_day)")?;
                Ok(BaseSpec::EventDay {
                    scale: req(m, "scale", "base (event_day)")?,
                })
            }
            other => err(format!(
                "base: unknown kind `{other}` (expected `steady` or `event_day`)"
            )),
        }
    }
}

impl Serialize for ServerSpec {
    fn to_value(&self) -> Value {
        let mut m = Vec::new();
        push(&mut m, "count", &self.count);
        push(&mut m, "bw_mbps", &self.bw_mbps);
        Value::Map(m)
    }
}

impl ServerSpec {
    fn from_tree(v: &Value) -> Result<Self, SpecError> {
        let m = as_map(v, "servers")?;
        check_keys(m, &["count", "bw_mbps"], "servers")?;
        Ok(ServerSpec {
            count: req(m, "count", "servers")?,
            bw_mbps: req(m, "bw_mbps", "servers")?,
        })
    }
}

impl Serialize for PolicySpec {
    fn to_value(&self) -> Value {
        let mut m = Vec::new();
        push(&mut m, "nat_accept_prob", &self.nat_accept_prob);
        push(&mut m, "firewall_accept_prob", &self.firewall_accept_prob);
        Value::Map(m)
    }
}

impl PolicySpec {
    fn from_tree(v: &Value) -> Result<Self, SpecError> {
        let m = as_map(v, "policy")?;
        check_keys(m, &["nat_accept_prob", "firewall_accept_prob"], "policy")?;
        Ok(PolicySpec {
            nat_accept_prob: req(m, "nat_accept_prob", "policy")?,
            firewall_accept_prob: req(m, "firewall_accept_prob", "policy")?,
        })
    }

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
