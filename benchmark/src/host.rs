//! The host the benchmark runs on: its record for the result document,
//! the clock's own cost, and the reference kernel that takes host-speed
//! drift out of the timing metrics.
//!
//! The review host is a shared 2-vCPU VM whose speed moves by up to 30 %
//! within minutes, and by ~25 % from second to second (a register-only
//! loop flips between two timings). Every repetition therefore brackets
//! its measured section with [`reference_kernel_s`], fixed work that
//! shares no code with the product, and reports its times scaled by
//! `reference time ÷ REF_NOMINAL_S`. The raw wall times travel alongside.

use std::hint::black_box;
use std::time::Instant;

/// Wall seconds of [`reference_kernel_s`] on the review host while it is
/// quiet. Only a scale: with it, a normalised time reads as seconds on
/// that host. Changing it rescales every timing metric alike.
pub const REF_NOMINAL_S: f64 = 0.050;

/// Time the host reference kernel: a register-only integer loop, then a
/// churn of small formatted strings (the allocator and `core::fmt`, the
/// two things every layer of the product leans on). ~50 ms.
pub fn reference_kernel_s() -> f64 {
    let t0 = Instant::now();
    let (mut x, mut h) = (0x9e37_79b9_7f4a_7c15u64, 0xcbf2_9ce4_8422_2325u64);
    for _ in 0..16_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        h = (h ^ x).wrapping_mul(0x0000_0100_0000_01b3);
    }
    black_box(h);
    let mut keep: Vec<String> = Vec::new();
    for i in 0..400_000u32 {
        let s = format!("k{i}=v{}&", i.wrapping_mul(7));
        if i % 3 == 0 {
            keep.push(s);
        }
        if keep.len() > 1000 {
            keep.clear();
        }
    }
    black_box(keep.len());
    t0.elapsed().as_secs_f64()
}

/// Cost of one `Instant::now()` pair as the tracer uses it, in ns: the
/// median over batches of back-to-back reads.
pub fn calibrate_clock_ns() -> f64 {
    const BATCH: u32 = 10_000;
    let mut per_pair: Vec<f64> = (0..21)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..BATCH {
                let t0 = Instant::now();
                std::hint::black_box(t0.elapsed());
            }
            start.elapsed().as_nanos() as f64 / f64::from(BATCH)
        })
        .collect();
    per_pair.sort_by(f64::total_cmp);
    per_pair[per_pair.len() / 2]
}

/// Where and when a result set was measured.
pub struct Host {
    pub nproc: usize,
    pub load_1m: f64,
    pub rustc: String,
    pub git_describe: String,
}

impl Host {
    pub fn detect() -> Self {
        let run = |program: &str, args: &[&str]| {
            std::process::Command::new(program)
                .args(args)
                .output()
                .ok()
                .filter(|o| o.status.success())
                .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
                .filter(|s| !s.is_empty())
                .unwrap_or_else(|| "unknown".to_string())
        };
        Host {
            nproc: std::thread::available_parallelism().map_or(0, |n| n.get()),
            load_1m: load_1m(),
            rustc: run("rustc", &["--version"]),
            git_describe: run("git", &["describe", "--always", "--dirty"]),
        }
    }
}

/// The 1-minute load average; 0 where `/proc/loadavg` is unreadable.
pub fn load_1m() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

/// Warn when something else is using the host: a 30 % wall drift between
/// otherwise identical runs was seen on a shared 2-core host.
pub fn warn_if_loaded() {
    let load = load_1m();
    if load > 0.5 {
        eprintln!("warning: 1-minute load average is {load:.2} (> 0.5); timings will drift");
    }
}
