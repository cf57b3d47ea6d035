//! The environment-dependent facts of a run's `manifest.json`: the host
//! it executed on and the memory it peaked at. `coolstream run` (cs-cli)
//! writes the manifest; the bench harness stamps the same two facts into
//! `BENCH_*.json`.

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
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
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
}
