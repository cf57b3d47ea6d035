//! Small deterministic helpers: order statistics over repetition
//! samples, the FNV-1a log fingerprint, and the work counts derived from
//! ground-truth sessions.

use cs_proto::SessionRecord;
use cs_sim::SimTime;

/// Median of `xs` (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller has at least one repetition.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `(min, max)` of `xs`.
pub fn min_max(xs: &[f64]) -> (f64, f64) {
    xs.iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
            (lo.min(x), hi.max(x))
        })
}

/// Nearest-rank quantile of unsorted samples (`q` in `[0, 1]`); 0 for no
/// samples.
pub fn quantile(xs: &mut [u32], q: f64) -> u32 {
    if xs.is_empty() {
        return 0;
    }
    xs.sort_unstable();
    let rank = ((xs.len() as f64 * q).ceil() as usize).clamp(1, xs.len());
    xs[rank - 1]
}

/// Incremental 64-bit FNV-1a.
#[derive(Clone, Copy)]
pub struct Fnv(pub u64);

impl Fnv {
    pub const fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The top 52 bits: exact as a JSON number (an `f64` mantissa), which
    /// is how fingerprints travel in result files.
    pub fn fingerprint(self) -> u64 {
        self.0 >> 12
    }
}

/// Fingerprint of a whole text (the run's `log.txt` contents).
pub fn fnv_text(text: &str) -> u64 {
    let mut h = Fnv::new();
    h.write(text.as_bytes());
    h.fingerprint()
}

/// ROADMAP's granularity-proof unit of simulated work: the seconds of
/// viewer lifetime a run covered — Σ over ground-truth *user* sessions
/// of `min(leave, horizon) − join`. Sessions still open at the horizon
/// clamp to it; the source and the dedicated servers are excluded.
pub fn peer_sim_seconds(sessions: &[SessionRecord], horizon: SimTime) -> f64 {
    sessions
        .iter()
        .filter(|s| s.class.is_user())
        .map(|s| {
            let end = s.leave.map_or(horizon, |l| l.min(horizon));
            end.saturating_sub(s.join).as_secs_f64()
        })
        .sum()
}

/// Peak number of concurrently live user sessions (ground truth).
pub fn peak_concurrent(sessions: &[SessionRecord]) -> usize {
    let mut edges: Vec<(SimTime, i32)> = Vec::new();
    for s in sessions.iter().filter(|s| s.class.is_user()) {
        edges.push((s.join, 1));
        if let Some(l) = s.leave {
            edges.push((l, -1));
        }
    }
    // Leaves sort before joins at equal times, so a node replaced at one
    // instant is not counted twice.
    edges.sort();
    let (mut live, mut peak) = (0i32, 0i32);
    for (_, d) in edges {
        live += d;
        peak = peak.max(live);
    }
    peak.max(0) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs_logging::UserId;
    use cs_net::{Bandwidth, NodeClass, NodeId};

    fn session(class: NodeClass, join: u64, leave: Option<u64>) -> SessionRecord {
        SessionRecord {
            user: UserId(0),
            node: NodeId(0),
            class,
            upload: Bandwidth::mbps(1),
            retry_index: 0,
            join: SimTime::from_secs(join),
            start_sub: None,
            ready: None,
            leave: leave.map(SimTime::from_secs),
            reason: None,
            up_bytes: 0,
            down_bytes: 0,
            due: 0,
            missed: 0,
            adaptations: 0,
        }
    }

    #[test]
    fn peer_sim_seconds_clamps_open_sessions_and_skips_infrastructure() {
        let sessions = [
            session(NodeClass::Source, 0, None),
            session(NodeClass::Server, 0, None),
            session(NodeClass::Nat, 10, Some(40)),       // 30 s
            session(NodeClass::DirectConnect, 50, None), // open: 100 − 50
            session(NodeClass::Upnp, 90, Some(250)),     // leaves past the horizon: 10 s
        ];
        let horizon = SimTime::from_secs(100);
        assert_eq!(peer_sim_seconds(&sessions, horizon), 30.0 + 50.0 + 10.0);
        assert_eq!(peak_concurrent(&sessions), 2);
    }

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
        assert_eq!(min_max(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        let mut ns: Vec<u32> = (1..=100).rev().collect();
        assert_eq!(quantile(&mut ns, 0.99), 99);
        assert_eq!(quantile(&mut ns, 0.5), 50);
        assert_eq!(quantile(&mut [], 0.99), 0);
    }

    #[test]
    fn fnv_matches_reference_vectors_and_fits_a_double() {
        // Published FNV-1a 64 test vectors.
        let mut h = Fnv::new();
        assert_eq!(h.0, 0xcbf29ce484222325);
        h.write(b"a");
        assert_eq!(h.0, 0xaf63dc4c8601ec8c);
        let mut h = Fnv::new();
        h.write(b"foobar");
        assert_eq!(h.0, 0x85944171f73967e8);
        let fp = fnv_text("foobar");
        assert_eq!(fp, 0x85944171f73967e8 >> 12);
        assert_eq!(fp as f64 as u64, fp);
        assert_ne!(fnv_text("1 a=b\n"), fnv_text("1 a=c\n"));
    }
}
