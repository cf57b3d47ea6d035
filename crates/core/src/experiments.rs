//! Per-figure experiment extractors and the paper-shape oracle.
//!
//! Each `figN_*` function turns a run's *log* (plus, where the paper
//! itself used operator knowledge, the world's ground truth) into exactly
//! the rows/series the corresponding figure plots, with a `render()`
//! method producing the human-readable table. The oracle ([`rows`],
//! [`reproduce`]; `coolstream reproduce`) runs them at
//! [`REPLICATIONS`] seeds and checks the shapes the paper reports. The
//! experiment ids match DESIGN.md §4 and EXPERIMENTS.md.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use cs_analysis::{
    concurrency_curve, qos_totals, reconstruct, retries_per_user, Cdf, LogSession, Lorenz,
};
use cs_logging::Report;
use cs_net::NodeClass;
use cs_sim::SimTime;

use crate::scenario::RunArtifacts;

mod ablations;
mod paper;
mod registry;

pub use registry::{
    reproduce, rows, Check, Op, Reproduction, Row, RowResult, Verdict, REPLICATIONS,
};

/// The parsed-log view of a run, computed once and shared by the
/// extractors.
pub struct LogView {
    /// Parsed reports in arrival order.
    pub reports: Vec<(SimTime, Report)>,
    /// Reconstructed sessions.
    pub sessions: Vec<LogSession>,
}

impl LogView {
    /// Parse and reconstruct. Panics on malformed log lines — our own
    /// pipeline must never produce them (proptests enforce the codec).
    pub fn build(artifacts: &RunArtifacts) -> LogView {
        let (reports, bad) = artifacts.world.log.parse_all();
        assert!(bad.is_empty(), "malformed log lines: {bad:?}");
        let sessions = reconstruct(&reports);
        LogView { reports, sessions }
    }
}

// ---------------------------------------------------------------- FIG3 --

/// Fig. 3: user-type distribution and upload-contribution skew.
pub struct Fig3 {
    /// Inferred (log-view) user counts per class.
    pub inferred: BTreeMap<&'static str, usize>,
    /// Ground-truth counts (operator view), for the error comparison.
    pub truth: BTreeMap<&'static str, usize>,
    /// Share of all uploaded bytes contributed by the top 30 % of peers.
    pub top30_upload_share: f64,
    /// Share contributed by inferred-public (direct+UPnP) users.
    pub public_upload_share: f64,
    /// Gini coefficient of upload contributions.
    pub gini: f64,
    /// Lorenz curve points `(population_frac, upload_frac)`.
    pub lorenz: Vec<(f64, f64)>,
}

/// Compute Fig. 3 from the log (classification exactly as §V.B) plus
/// ground truth for the error column.
pub fn fig3_user_types(artifacts: &RunArtifacts, view: &LogView) -> Fig3 {
    let mut inferred: BTreeMap<&'static str, usize> = BTreeMap::new();
    let mut truth: BTreeMap<&'static str, usize> = BTreeMap::new();
    let mut uploads: Vec<f64> = Vec::new();
    let mut public_up = 0u64;
    let mut total_up = 0u64;
    // Classify *users*, merging the evidence of all their sessions —
    // retries share the user's middlebox, so one reporting session
    // classifies the lot.
    struct UserAgg {
        private: Option<bool>,
        incoming: u32,
        up: u64,
    }
    let mut users: BTreeMap<cs_logging::UserId, UserAgg> = BTreeMap::new();
    for s in &view.sessions {
        let agg = users.entry(s.user).or_insert(UserAgg {
            private: None,
            incoming: 0,
            up: 0,
        });
        if s.private_addr.is_some() {
            agg.private = s.private_addr;
        }
        agg.incoming = agg.incoming.max(s.max_incoming);
        agg.up += s.up_bytes;
    }
    for agg in users.values() {
        let Some(private) = agg.private else { continue };
        let cls = match (private, agg.incoming > 0) {
            (true, true) => NodeClass::Upnp,
            (true, false) => NodeClass::Nat,
            (false, true) => NodeClass::DirectConnect,
            (false, false) => NodeClass::Firewall,
        };
        *inferred.entry(cls.label()).or_default() += 1;
        uploads.push(agg.up as f64);
        total_up += agg.up;
        if cls.is_public_user() {
            public_up += agg.up;
        }
    }
    for rec in artifacts
        .world
        .sessions
        .iter()
        .filter(|r| r.class.is_user())
    {
        *truth.entry(rec.class.label()).or_default() += 1;
    }
    let lorenz = Lorenz::new(uploads);
    Fig3 {
        inferred,
        truth,
        top30_upload_share: lorenz.top_share(0.30),
        public_upload_share: if total_up > 0 {
            public_up as f64 / total_up as f64
        } else {
            0.0
        },
        gini: lorenz.gini(),
        lorenz: lorenz.curve(10),
    }
}

impl Fig3 {
    /// Paper-shaped table.
    pub fn render(&self) -> String {
        let mut out = String::from("FIG3a user types (inferred from log | ground truth)\n");
        let total_i: usize = self.inferred.values().sum();
        let total_t: usize = self.truth.values().sum();
        for class in ["direct", "upnp", "nat", "firewall"] {
            let i = *self.inferred.get(class).unwrap_or(&0);
            let t = *self.truth.get(class).unwrap_or(&0);
            let _ = writeln!(
                out,
                "  {class:<9} {:>6.1}% | {:>6.1}%",
                100.0 * i as f64 / total_i.max(1) as f64,
                100.0 * t as f64 / total_t.max(1) as f64,
            );
        }
        let _ = writeln!(
            out,
            "FIG3b upload skew: top-30% share {:.1}%  public-class share {:.1}%  gini {:.3}",
            100.0 * self.top30_upload_share,
            100.0 * self.public_upload_share,
            self.gini
        );
        out
    }
}

// ---------------------------------------------------------------- FIG4 --

/// Fig. 4 / §V.B.2: overlay-convergence series from snapshots.
pub struct Fig4 {
    /// `(time, public-parent share among user-served edges,
    /// NAT↔NAT partnership-link share, mean depth)` per snapshot.
    pub series: Vec<(SimTime, f64, f64, f64)>,
}

/// Extract the convergence series (operator view — snapshots need global
/// knowledge, which is why the paper could only *conjecture* Fig. 4).
pub fn fig4_convergence(artifacts: &RunArtifacts) -> Fig4 {
    Fig4 {
        series: artifacts
            .world
            .snapshots
            .iter()
            .map(|s| {
                (
                    s.time,
                    s.public_parent_share(),
                    s.natfw_link_share(),
                    s.mean_depth,
                )
            })
            .collect(),
    }
}

impl Fig4 {
    /// Mean public-parent share over the last quarter of the run.
    pub fn final_public_share(&self) -> f64 {
        let n = self.series.len();
        if n == 0 {
            return 0.0;
        }
        let tail = &self.series[n - n.div_ceil(4)..];
        tail.iter().map(|(_, p, _, _)| p).sum::<f64>() / tail.len() as f64
    }

    /// Table renderer.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "FIG4 overlay convergence (time, public-parent share, natfw links, depth)\n",
        );
        let step = (self.series.len() / 12).max(1);
        for (t, pub_share, natfw, depth) in self.series.iter().step_by(step) {
            let _ = writeln!(
                out,
                "  {t}  public {:>5.1}%  natfw-links {:>4.1}%  depth {depth:.2}",
                100.0 * pub_share,
                100.0 * natfw
            );
        }
        out
    }
}

// ---------------------------------------------------------------- FIG5 --

/// Fig. 5: concurrent users over time, from logged join/leave events.
pub fn fig5_population(
    view: &LogView,
    start: SimTime,
    end: SimTime,
    bin: SimTime,
) -> Vec<(SimTime, i64)> {
    let intervals: Vec<(SimTime, Option<SimTime>)> = view
        .sessions
        .iter()
        .filter_map(|s| s.join.map(|j| (j, s.leave)))
        .collect();
    concurrency_curve(&intervals, start, end, bin)
}

/// Render a population curve as a sparkline-ish table.
pub fn render_population(curve: &[(SimTime, i64)]) -> String {
    let mut out = String::from("FIG5 concurrent users\n");
    let step = (curve.len() / 24).max(1);
    let peak = curve.iter().map(|(_, c)| *c).max().unwrap_or(0).max(1);
    for (t, c) in curve.iter().step_by(step) {
        let bar = "#".repeat((*c * 40 / peak).max(0) as usize);
        let _ = writeln!(out, "  {t}  {c:>7}  {bar}");
    }
    out
}

// ---------------------------------------------------------------- FIG6 --

/// Fig. 6: startup-latency CDFs.
pub struct Fig6 {
    /// Start-subscription time (join → first subscription).
    pub start_sub: Cdf,
    /// Media-player-ready time (join → playback start).
    pub ready: Cdf,
    /// Their difference (buffer-fill wait).
    pub buffer_fill: Cdf,
}

/// Extract Fig. 6 from sessions joining within `[from, to)`.
pub fn fig6_startup(view: &LogView, from: SimTime, to: SimTime) -> Fig6 {
    let in_window = |s: &&LogSession| matches!(s.join, Some(j) if j >= from && j < to);
    let sessions: Vec<&LogSession> = view.sessions.iter().filter(in_window).collect();
    Fig6 {
        start_sub: Cdf::new(
            sessions
                .iter()
                .filter_map(|s| s.start_sub_delay())
                .map(|d| d.as_secs_f64())
                .collect(),
        ),
        ready: Cdf::new(
            sessions
                .iter()
                .filter_map(|s| s.ready_delay())
                .map(|d| d.as_secs_f64())
                .collect(),
        ),
        buffer_fill: Cdf::new(
            sessions
                .iter()
                .filter_map(|s| s.buffer_fill_delay())
                .map(|d| d.as_secs_f64())
                .collect(),
        ),
    }
}

impl Fig6 {
    /// Table renderer: CDF values at the paper's interesting abscissae.
    pub fn render(&self) -> String {
        let xs = [2.0, 5.0, 10.0, 15.0, 20.0, 30.0, 60.0, 120.0];
        let mut out = String::from(
            "FIG6 startup CDFs (seconds → fraction): start-sub | media-ready | buffer-fill\n",
        );
        for x in xs {
            let _ = writeln!(
                out,
                "  ≤{x:>5.0}s   {:>5.2}    {:>5.2}    {:>5.2}",
                self.start_sub.fraction_at_or_below(x),
                self.ready.fraction_at_or_below(x),
                self.buffer_fill.fraction_at_or_below(x)
            );
        }
        let _ = writeln!(
            out,
            "  medians: start-sub {:.1}s  ready {:.1}s  fill {:.1}s  (n={})",
            self.start_sub.median().unwrap_or(f64::NAN),
            self.ready.median().unwrap_or(f64::NAN),
            self.buffer_fill.median().unwrap_or(f64::NAN),
            self.ready.len()
        );
        out
    }
}

// ---------------------------------------------------------------- FIG7 --

/// Fig. 7's four reporting windows as half-open minute-of-day ranges
/// `[start, end)`: every join from 01:00 on counts in exactly one of them.
pub const FIG7_PERIODS: [(&str, u64, u64); 4] = [
    ("01:00-13:29", 60, 810),
    ("13:30-17:29", 810, 1050),
    ("17:30-20:29", 1050, 1230),
    ("20:30-23:59", 1230, 1440),
];

/// Fig. 7: media-ready CDF per day period.
pub fn fig7_ready_by_period(view: &LogView) -> Vec<(&'static str, Cdf)> {
    let minute_of_day = |t: SimTime| t.as_secs() / 60 % (24 * 60);
    FIG7_PERIODS
        .iter()
        .map(|&(label, m0, m1)| {
            let cdf = Cdf::new(
                view.sessions
                    .iter()
                    .filter(|s| matches!(s.join, Some(j) if (m0..m1).contains(&minute_of_day(j))))
                    .filter_map(|s| s.ready_delay())
                    .map(|d| d.as_secs_f64())
                    .collect(),
            );
            (label, cdf)
        })
        .collect()
}

/// Render the per-period media-ready comparison.
pub fn render_fig7(periods: &[(&'static str, Cdf)]) -> String {
    let mut out = String::from("FIG7 media-ready time by day period (median / p90 seconds, n)\n");
    for (label, cdf) in periods {
        let _ = writeln!(
            out,
            "  {label}  median {:>6.1}s  p90 {:>6.1}s  (n={})",
            cdf.median().unwrap_or(f64::NAN),
            cdf.quantile(0.9).unwrap_or(f64::NAN),
            cdf.len()
        );
    }
    out
}

// ---------------------------------------------------------------- FIG8 --

/// Fig. 8: continuity index over time per inferred user class.
pub struct Fig8 {
    /// class label → `(bin_center, mean continuity)` series.
    pub series: BTreeMap<&'static str, Vec<(SimTime, f64)>>,
}

/// Extract Fig. 8: QoS reports only (the §V.D artifact source), classes
/// inferred from the log.
pub fn fig8_continuity(view: &LogView, start: SimTime, end: SimTime, bin: SimTime) -> Fig8 {
    let mut acc: BTreeMap<&'static str, cs_analysis::TimeBins> = BTreeMap::new();
    for s in &view.sessions {
        let Some(class) = s.infer_class() else {
            continue;
        };
        let bins = acc
            .entry(class.label())
            .or_insert_with(|| cs_analysis::TimeBins::new(start, end, bin));
        for &(t, due, missed) in &s.qos {
            if due > 0 {
                bins.add(t, 1.0 - missed as f64 / due as f64);
            }
        }
    }
    Fig8 {
        series: acc.into_iter().map(|(k, b)| (k, b.means())).collect(),
    }
}

impl Fig8 {
    /// Overall mean continuity for one class.
    pub fn mean_of(&self, class: &str) -> Option<f64> {
        let series = self.series.get(class)?;
        (!series.is_empty())
            .then(|| series.iter().map(|(_, ci)| ci).sum::<f64>() / series.len() as f64)
    }

    /// Table renderer.
    pub fn render(&self) -> String {
        let mut out = String::from("FIG8 mean continuity index by inferred class\n");
        for (class, series) in &self.series {
            if series.is_empty() {
                continue;
            }
            let mean = series.iter().map(|(_, ci)| ci).sum::<f64>() / series.len() as f64;
            let _ = writeln!(
                out,
                "  {class:<9} {:>6.2}%  ({} bins)",
                100.0 * mean,
                series.len()
            );
        }
        out
    }
}

// ---------------------------------------------------------------- FIG9 --

/// One point of the Fig. 9 scalability sweeps.
pub struct Fig9Point {
    /// Mean concurrent population over the window.
    pub mean_population: f64,
    /// Mean log-view continuity across QoS reports.
    pub mean_continuity: f64,
    /// Fraction of joiners that reached media-ready.
    pub ready_fraction: f64,
}

/// Summarize one run into a scalability point. Only `mean_population`
/// is windowed to `[start, end)`; continuity and the ready fraction
/// cover every session in the log.
pub fn fig9_point(view: &LogView, start: SimTime, end: SimTime) -> Fig9Point {
    let curve = fig5_population(view, start, end, SimTime::from_secs(60));
    let mean_population = if curve.is_empty() {
        0.0
    } else {
        curve.iter().map(|(_, c)| *c as f64).sum::<f64>() / curve.len() as f64
    };
    let joins = view.sessions.iter().filter(|s| s.join.is_some()).count();
    let ready = view.sessions.iter().filter(|s| s.ready.is_some()).count();
    let (due, missed) = qos_totals(view.sessions.iter().flat_map(|s| &s.qos));
    Fig9Point {
        mean_population,
        mean_continuity: if due > 0 {
            1.0 - missed as f64 / due as f64
        } else {
            0.0
        },
        ready_fraction: if joins > 0 {
            ready as f64 / joins as f64
        } else {
            0.0
        },
    }
}

// --------------------------------------------------------------- FIG10 --

/// Fig. 10: session durations and retry counts.
pub struct Fig10 {
    /// Session-duration CDF (seconds).
    pub durations: Cdf,
    /// Fraction of sessions shorter than one minute.
    pub sub_minute_fraction: f64,
    /// attempts → user count (1 = succeeded first try).
    pub retry_histogram: BTreeMap<u32, usize>,
    /// Fraction of users needing more than one attempt.
    pub retried_fraction: f64,
}

/// Extract Fig. 10 from the log sessions.
pub fn fig10_sessions(view: &LogView) -> Fig10 {
    let durations: Vec<f64> = view
        .sessions
        .iter()
        .filter_map(|s| s.duration())
        .map(|d| d.as_secs_f64())
        .collect();
    let sub_minute = durations.iter().filter(|&&d| d < 60.0).count();
    let n = durations.len().max(1);
    let cdf = Cdf::new(durations);
    let retries = retries_per_user(&view.sessions);
    let mut hist: BTreeMap<u32, usize> = BTreeMap::new();
    for r in &retries {
        *hist.entry(r.attempts).or_default() += 1;
    }
    let retried = retries.iter().filter(|r| r.attempts > 1).count();
    Fig10 {
        durations: cdf,
        sub_minute_fraction: sub_minute as f64 / n as f64,
        retry_histogram: hist,
        retried_fraction: retried as f64 / retries.len().max(1) as f64,
    }
}

impl Fig10 {
    /// Table renderer.
    pub fn render(&self) -> String {
        let mut out = String::from("FIG10a session duration CDF\n");
        for x in [30.0, 60.0, 300.0, 900.0, 1800.0, 3600.0] {
            let _ = writeln!(
                out,
                "  ≤{x:>6.0}s  {:>5.2}",
                self.durations.fraction_at_or_below(x)
            );
        }
        let _ = writeln!(
            out,
            "  sub-minute sessions {:.1}%  tail ratio {:.1}",
            100.0 * self.sub_minute_fraction,
            self.durations.tail_ratio().unwrap_or(f64::NAN)
        );
        let _ = writeln!(out, "FIG10b attempts per user");
        let total: usize = self.retry_histogram.values().sum();
        for (attempts, count) in &self.retry_histogram {
            let _ = writeln!(
                out,
                "  {attempts} attempt(s): {:>5.1}%",
                100.0 * *count as f64 / total.max(1) as f64
            );
        }
        let _ = writeln!(out, "  retried ≥1×: {:.1}%", 100.0 * self.retried_fraction);
        out
    }
}

// ----------------------------------------------------------- EXTENSIONS --

/// EXT-RESOURCES (§VI open issue 2): supply/demand/bottleneck accounting
/// per class. Requires operator (ground-truth) knowledge — exactly why
/// the paper lists it as future work.
pub struct ResourceReport {
    /// class label → (peer-seconds, capacity bytes·s, uploaded bytes).
    pub by_class: BTreeMap<&'static str, (f64, f64, f64)>,
    /// Aggregate supply ÷ demand over the run (1.0 = break-even).
    pub supply_ratio: f64,
    /// Servers' share of all uploaded bytes.
    pub server_share: f64,
}

/// Compute the resource report from ground-truth sessions.
pub fn resources(artifacts: &RunArtifacts, horizon: SimTime) -> ResourceReport {
    let mut by_class: BTreeMap<&'static str, (f64, f64, f64)> = BTreeMap::new();
    let mut demand_bytes = 0.0;
    let mut supply_bytes = 0.0;
    let mut server_up = 0u64;
    let mut total_up = 0u64;
    let stream_bps = artifacts.world.params.stream_rate.as_bytes_per_sec();
    for rec in &artifacts.world.sessions {
        let start = rec.start_sub.unwrap_or(rec.join);
        let end = rec.leave.unwrap_or(horizon).min(horizon);
        let secs = end.saturating_sub(start).as_secs_f64();
        let cap = rec.upload.as_bytes_per_sec() * secs;
        total_up += rec.up_bytes;
        if rec.class.is_user() {
            let e = by_class.entry(rec.class.label()).or_insert((0.0, 0.0, 0.0));
            e.0 += secs;
            e.1 += cap;
            e.2 += rec.up_bytes as f64;
            demand_bytes += stream_bps * secs;
            supply_bytes += cap;
        } else {
            supply_bytes += cap;
            server_up += rec.up_bytes;
        }
    }
    ResourceReport {
        by_class,
        supply_ratio: if demand_bytes > 0.0 {
            supply_bytes / demand_bytes
        } else {
            0.0
        },
        server_share: if total_up > 0 {
            server_up as f64 / total_up as f64
        } else {
            0.0
        },
    }
}

impl ResourceReport {
    /// Utilization of a class's uplink capacity (uploaded ÷ capacity).
    pub fn utilization(&self, class: &str) -> Option<f64> {
        let &(_, cap, up) = self.by_class.get(class)?;
        (cap > 0.0).then(|| up / cap)
    }

    /// Table renderer.
    pub fn render(&self) -> String {
        let mut out =
            String::from("EXT-RESOURCES class: capacity-utilization (uploaded / uplink·time)\n");
        for (class, &(secs, cap, up)) in &self.by_class {
            let util = if cap > 0.0 { up / cap } else { 0.0 };
            let _ = writeln!(
                out,
                "  {class:<9} util {:>5.1}%  (peer-hours {:>7.1})",
                100.0 * util,
                secs / 3600.0
            );
        }
        let _ = writeln!(
            out,
            "  supply/demand ratio {:.2}   server share of upload {:.1}%",
            self.supply_ratio,
            100.0 * self.server_share
        );
        out
    }
}

/// EXT-OVERHEAD: control-plane cost relative to video bytes (the
/// download-cost concern of the PPLive/SopCast measurement studies §II).
pub struct OverheadReport {
    /// Control bytes (gossip, BM exchange, boot-strap, reports).
    pub control_bytes: u64,
    /// Video payload bytes delivered.
    pub video_bytes: u64,
}

/// Compute the overhead report.
pub fn overhead(artifacts: &RunArtifacts) -> OverheadReport {
    OverheadReport {
        control_bytes: artifacts.world.stats.control_bytes,
        video_bytes: artifacts.world.stats.blocks_delivered
            * artifacts.world.params.block_bytes as u64,
    }
}

impl OverheadReport {
    /// Control bytes as a fraction of video bytes.
    pub fn ratio(&self) -> f64 {
        if self.video_bytes == 0 {
            return f64::INFINITY;
        }
        self.control_bytes as f64 / self.video_bytes as f64
    }

    /// Table renderer.
    pub fn render(&self) -> String {
        format!(
            "EXT-OVERHEAD control {:.1} MB vs video {:.1} MB → {:.2}% overhead\n",
            self.control_bytes as f64 / 1e6,
            self.video_bytes as f64 / 1e6,
            100.0 * self.ratio()
        )
    }
}

/// EXT-PEERWISE (§VI open issue 1): per-peer continuity distribution and
/// the self-stabilization signature, straight from the log.
pub fn peerwise(view: &LogView, age_bin: SimTime, max_age: SimTime) -> cs_analysis::Peerwise {
    cs_analysis::peerwise(&view.sessions, age_bin, max_age)
}

#[cfg(test)]
mod tests {
    use cs_analysis::LogSession;

    use super::*;

    /// A join in the last seconds of a period counts in that period, and a
    /// join before 01:00 in none.
    #[test]
    fn fig7_periods_tile_the_day_from_one_oclock() {
        let at = |h: u64, m: u64, s: u64| SimTime::from_secs(h * 3600 + m * 60 + s);
        for (join, want) in [
            (at(13, 29, 30), Some(0)),
            (at(17, 29, 59), Some(1)),
            (at(20, 29, 30), Some(2)),
            (at(23, 59, 30), Some(3)),
            (at(0, 30, 0), None),
        ] {
            let view = LogView {
                reports: Vec::new(),
                sessions: vec![LogSession {
                    join: Some(join),
                    ready: Some(join + SimTime::from_secs(5)),
                    ..LogSession::default()
                }],
            };
            let counted: Vec<usize> = fig7_ready_by_period(&view)
                .iter()
                .enumerate()
                .filter(|(_, (_, cdf))| cdf.len() == 1)
                .map(|(i, _)| i)
                .collect();
            assert_eq!(counted, Vec::from_iter(want), "join at {join:?}");
        }
    }
}
