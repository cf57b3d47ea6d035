//! The `events` section of the scenario DSL: [`ChaosSpec`] and
//! per-event range validation. Compilation to engine events lives with
//! the rest of the spec in the parent module; semantics of each
//! injection live in `cs-proto`'s `Chaos` manager.

use cs_sim::SimTime;
use serde::{Deserialize, Serialize};

use super::{err, fits_clock, PolicySpec, SpecError};

/// One timed chaos injection from a spec's `events` array.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
#[serde(
    tag = "kind",
    rename_all = "snake_case",
    rename = "event",
    deny_unknown_fields
)]
pub enum ChaosSpec {
    /// Crash dedicated server `server` at `at_s`.
    ServerCrash {
        /// Injection time, seconds.
        at_s: u64,
        /// Index into the server fleet.
        server: usize,
    },
    /// Restart a previously crashed dedicated server.
    ServerRestart {
        /// Injection time, seconds.
        at_s: u64,
        /// Index into the server fleet.
        server: usize,
    },
    /// Take the boot-strap server down.
    BootstrapDown {
        /// Injection time, seconds.
        at_s: u64,
    },
    /// Bring the boot-strap server back up.
    BootstrapUp {
        /// Injection time, seconds.
        at_s: u64,
    },
    /// Correlated regional outage of one coordinate quadrant.
    RegionalOutage {
        /// Injection time, seconds.
        at_s: u64,
        /// Quadrant (0–3) taken out.
        quadrant: u8,
        /// Heal time, seconds (`None` = the partition never heals).
        #[serde(skip_serializing_if = "Option::is_none")]
        heal_s: Option<u64>,
    },
    /// NAT-share shift: swap the connectivity policy.
    PolicyShift {
        /// Injection time, seconds.
        at_s: u64,
        /// New NAT-NAT traversal probability.
        nat_accept_prob: f64,
        /// New firewall inbound-accept probability.
        firewall_accept_prob: f64,
    },
    /// Upload-capacity skew: rescale live user uplinks by `num / den`.
    UploadSkew {
        /// Injection time, seconds.
        at_s: u64,
        /// Scale numerator.
        num: u32,
        /// Scale denominator (> 0).
        den: u32,
    },
    /// Convert `per_mille`/1000 of the live users into free-riders.
    FreeRider {
        /// Injection time, seconds.
        at_s: u64,
        /// Affected share in thousandths (0–1000).
        per_mille: u16,
    },
    /// Arrival-rate storm: multiply the arrival rate for a while.
    /// Compiled into the workload's rate profile, not an engine event.
    ArrivalStorm {
        /// Storm start, seconds.
        at_s: u64,
        /// Storm duration, seconds (≥ 1).
        duration_s: u64,
        /// Rate multiplier while active (≥ 1).
        multiplier: f64,
    },
}

impl ChaosSpec {
    /// The injection time in seconds.
    pub fn at_s(&self) -> u64 {
        match *self {
            ChaosSpec::ServerCrash { at_s, .. }
            | ChaosSpec::ServerRestart { at_s, .. }
            | ChaosSpec::BootstrapDown { at_s }
            | ChaosSpec::BootstrapUp { at_s }
            | ChaosSpec::RegionalOutage { at_s, .. }
            | ChaosSpec::PolicyShift { at_s, .. }
            | ChaosSpec::UploadSkew { at_s, .. }
            | ChaosSpec::FreeRider { at_s, .. }
            | ChaosSpec::ArrivalStorm { at_s, .. } => at_s,
        }
    }

    /// The `kind` tag used in JSON.
    pub fn kind(&self) -> &'static str {
        match self {
            ChaosSpec::ServerCrash { .. } => "server_crash",
            ChaosSpec::ServerRestart { .. } => "server_restart",
            ChaosSpec::BootstrapDown { .. } => "bootstrap_down",
            ChaosSpec::BootstrapUp { .. } => "bootstrap_up",
            ChaosSpec::RegionalOutage { .. } => "regional_outage",
            ChaosSpec::PolicyShift { .. } => "policy_shift",
            ChaosSpec::UploadSkew { .. } => "upload_skew",
            ChaosSpec::FreeRider { .. } => "free_rider",
            ChaosSpec::ArrivalStorm { .. } => "arrival_storm",
        }
    }

    pub(super) fn validate(
        &self,
        index: usize,
        start: SimTime,
        end: SimTime,
        server_count: Option<usize>,
    ) -> Result<(), SpecError> {
        let what = format!("events[{index}] ({})", self.kind());
        fits_clock(format_args!("{what}: at_s"), self.at_s())?;
        let at = SimTime::from_secs(self.at_s());
        if at < start || at >= end {
            return err(format!(
                "{what}: at_s {} outside the run window [{}, {})",
                self.at_s(),
                start.as_secs(),
                end.as_secs()
            ));
        }
        match *self {
            ChaosSpec::ServerCrash { server, .. } | ChaosSpec::ServerRestart { server, .. } => {
                if let Some(count) = server_count {
                    if server >= count {
                        return err(format!(
                            "{what}: server index {server} out of range (fleet has {count})"
                        ));
                    }
                }
            }
            ChaosSpec::RegionalOutage {
                quadrant, heal_s, ..
            } => {
                if quadrant > 3 {
                    return err(format!("{what}: quadrant must be 0-3, got {quadrant}"));
                }
                if let Some(h) = heal_s {
                    fits_clock(format_args!("{what}: heal_s"), h)?;
                    if h <= self.at_s() {
                        return err(format!(
                            "{what}: heal_s {h} must be after at_s {}",
                            self.at_s()
                        ));
                    }
                }
            }
            ChaosSpec::PolicyShift {
                nat_accept_prob,
                firewall_accept_prob,
                ..
            } => {
                PolicySpec {
                    nat_accept_prob,
                    firewall_accept_prob,
                }
                .validate(&what)?;
            }
            ChaosSpec::UploadSkew { den, .. } => {
                if den == 0 {
                    return err(format!("{what}: den must be > 0"));
                }
            }
            ChaosSpec::FreeRider { per_mille, .. } => {
                if per_mille > 1000 {
                    return err(format!("{what}: per_mille must be 0-1000, got {per_mille}"));
                }
            }
            ChaosSpec::ArrivalStorm {
                duration_s,
                multiplier,
                ..
            } => {
                if duration_s == 0 {
                    return err(format!("{what}: duration_s must be >= 1"));
                }
                fits_clock(format_args!("{what}: duration_s"), duration_s)?;
                if !(multiplier.is_finite() && multiplier >= 1.0) {
                    return err(format!(
                        "{what}: multiplier must be finite and >= 1, got {multiplier}"
                    ));
                }
            }
            ChaosSpec::BootstrapDown { .. } | ChaosSpec::BootstrapUp { .. } => {}
        }
        Ok(())
    }
}
