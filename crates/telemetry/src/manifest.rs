//! The environment-dependent facts of a run's `manifest.json`: the host
//! it executed on, the memory it peaked at and, under telemetry, the
//! byte ledger. `coolstream run` (cs-cli) writes the manifest; the bench
//! harness stamps the host and the peak into `BENCH_*.json`.

use std::collections::BTreeMap;

use serde::Serialize;

/// Fingerprint of the machine a run executed on, for interpreting
/// wall-clock numbers (`wall_ms`, `profile.json`, `BENCH_*.json`) across
/// hosts. Purely descriptive — it never influences the simulation.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize)]
pub struct HostFingerprint {
    /// Logical CPU count (`std::thread::available_parallelism`), 0 if unknown.
    pub cores: u64,
    /// Target architecture (`std::env::consts::ARCH`).
    pub arch: String,
    /// Target OS (`std::env::consts::OS`).
    pub os: String,
}

impl HostFingerprint {
    /// The current host.
    pub fn detect() -> Self {
        HostFingerprint {
            cores: std::thread::available_parallelism()
                .map(|n| n.get() as u64)
                .unwrap_or(0),
            arch: std::env::consts::ARCH.to_string(),
            os: std::env::consts::OS.to_string(),
        }
    }
}

/// Peak resident set size of the current process in bytes, read from
/// `/proc/self/status` (`VmHWM`). `None` off Linux or if the read fails.
pub fn peak_rss_bytes() -> Option<u64> {
    status_bytes("VmHWM:")
}

/// A `kB` field of `/proc/self/status`, in bytes.
fn status_bytes(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// The byte ledger (ROADMAP item 4(a)): each owner's heap bytes at one
/// instant, held against the resident set read at the same instant. An
/// owner counts its buffers at capacity, except that a table reserved
/// at a run bound counts the part written so far; `reserved` lists those
/// tables' capacities.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct HeapLedger {
    /// Heap bytes per owner, by owner name.
    pub owners: BTreeMap<&'static str, u64>,
    /// Capacity bytes of each table reserved at a run bound.
    pub reserved: BTreeMap<&'static str, u64>,
    /// `VmRSS` when the owners were counted; `None` where unreadable.
    pub vm_rss_bytes: Option<u64>,
    /// `vm_rss_bytes` minus the owners' sum: what no owner accounts for.
    pub unexplained_bytes: Option<i64>,
}

impl HeapLedger {
    /// Count `owners` and the `reserved` capacities against the resident
    /// set read now.
    pub fn now(
        owners: impl IntoIterator<Item = (&'static str, usize)>,
        reserved: impl IntoIterator<Item = (&'static str, usize)>,
    ) -> Self {
        let owners = by_name(owners);
        let vm_rss_bytes = status_bytes("VmRSS:");
        let total: u64 = owners.values().sum();
        HeapLedger {
            unexplained_bytes: vm_rss_bytes.map(|rss| rss as i64 - total as i64),
            owners,
            reserved: by_name(reserved),
            vm_rss_bytes,
        }
    }
}

fn by_name(pairs: impl IntoIterator<Item = (&'static str, usize)>) -> BTreeMap<&'static str, u64> {
    pairs.into_iter().map(|(k, v)| (k, v as u64)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_fingerprint_detects_something() {
        let h = HostFingerprint::detect();
        assert!(!h.arch.is_empty());
        assert!(!h.os.is_empty());
        // cores may legitimately be 0 only if detection failed; on any
        // test host it should be at least 1.
        assert!(h.cores >= 1);
    }

    #[test]
    fn ledger_remainder_is_rss_minus_the_owners() {
        let ledger = HeapLedger::now([("a", 1000), ("b", 24)], [("a", 4096)]);
        assert_eq!(ledger.reserved[&"a"], 4096);
        assert_eq!(ledger.owners.values().sum::<u64>(), 1024);
        if let Some(rss) = ledger.vm_rss_bytes {
            assert_eq!(ledger.unexplained_bytes, Some(rss as i64 - 1024));
        }
    }
}
