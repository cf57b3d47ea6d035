//! Run artifacts → files: summary JSON, raw log, session CSV, figures.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

use coolstreaming::experiments::{
    self, fig10_sessions, fig3_user_types, fig5_population, fig6_startup, fig7_ready_by_period,
    fig8_continuity, LogView,
};
use coolstreaming::{RunArtifacts, TelemetryRun};
use cs_sim::SimTime;
use cs_telemetry::RunManifest;
use serde::Serialize;

/// Machine-readable run summary (written as `summary.json`).
#[derive(Debug, Serialize)]
pub struct Summary {
    /// Workload arrivals scheduled.
    pub scheduled_arrivals: usize,
    /// Total arrivals including retries.
    pub arrivals: u64,
    /// Events the engine dispatched.
    pub events: u64,
    /// Log lines collected.
    pub log_lines: usize,
    /// Blocks delivered peer-to-peer.
    pub blocks_delivered: u64,
    /// Control-plane bytes.
    pub control_bytes: u64,
    /// Impatient / give-up / finished departures.
    pub departs: (u64, u64, u64),
    /// Log-view mean continuity across all QoS reports.
    pub mean_continuity: f64,
    /// Median media-ready seconds.
    pub ready_median_s: f64,
    /// Fraction of users that retried at least once.
    pub retried_fraction: f64,
}

/// Build the summary from artifacts.
pub fn summarize(artifacts: &RunArtifacts, view: &LogView) -> Summary {
    let w = &artifacts.world;
    let fig6 = fig6_startup(view, SimTime::ZERO, SimTime::MAX);
    let fig10 = fig10_sessions(view);
    let mut due = 0u64;
    let mut missed = 0u64;
    for s in &view.sessions {
        for &(_, d, m) in &s.qos {
            due += d;
            missed += m;
        }
    }
    Summary {
        scheduled_arrivals: artifacts.scheduled_arrivals,
        arrivals: w.stats.arrivals,
        events: artifacts.run_stats.events,
        log_lines: w.log.len(),
        blocks_delivered: w.stats.blocks_delivered,
        control_bytes: w.stats.control_bytes,
        departs: (
            w.stats.impatient_departs,
            w.stats.giveup_departs,
            w.stats.finished_departs,
        ),
        mean_continuity: if due > 0 {
            1.0 - missed as f64 / due as f64
        } else {
            0.0
        },
        ready_median_s: fig6.ready.median().unwrap_or(f64::NAN),
        retried_fraction: fig10.retried_fraction,
    }
}

/// Render every figure into one text report.
pub fn figures_text(artifacts: &RunArtifacts, view: &LogView, horizon: SimTime) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{}", fig3_user_types(artifacts, view).render());
    let _ = writeln!(out, "{}", experiments::fig4_convergence(artifacts).render());
    let pop = fig5_population(view, SimTime::ZERO, horizon, horizon / 96);
    let _ = writeln!(out, "{}", experiments::render_population(&pop));
    let _ = writeln!(
        out,
        "{}",
        fig6_startup(view, SimTime::ZERO, SimTime::MAX).render()
    );
    let _ = writeln!(
        out,
        "{}",
        experiments::render_fig7(&fig7_ready_by_period(view))
    );
    let _ = writeln!(
        out,
        "{}",
        fig8_continuity(view, SimTime::ZERO, horizon, horizon / 24).render()
    );
    let _ = writeln!(out, "{}", fig10_sessions(view).render());
    let _ = writeln!(out, "{}", experiments::overhead(artifacts).render());
    let _ = writeln!(
        out,
        "{}",
        experiments::resources(artifacts, horizon).render()
    );
    out
}

/// Session-level CSV (one row per log session).
pub fn sessions_csv(view: &LogView) -> String {
    let mut out = String::from(
        "user,node,private_addr,join_s,start_sub_s,ready_s,leave_s,duration_s,continuity,up_bytes,down_bytes,max_incoming,max_outgoing,adaptations,inferred_class\n",
    );
    let fmt_t = |t: Option<SimTime>| t.map(|v| v.as_secs_f64().to_string()).unwrap_or_default();
    for s in &view.sessions {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
            s.user.0,
            s.node,
            s.private_addr.map(|p| p.to_string()).unwrap_or_default(),
            fmt_t(s.join),
            fmt_t(s.start_sub),
            fmt_t(s.ready),
            fmt_t(s.leave),
            fmt_t(s.duration()),
            s.continuity()
                .map(|c| format!("{c:.5}"))
                .unwrap_or_default(),
            s.up_bytes,
            s.down_bytes,
            s.max_incoming,
            s.max_outgoing,
            s.adaptations,
            s.infer_class().map(|c| c.label()).unwrap_or("unknown"),
        );
    }
    out
}

/// Write `metrics.jsonl`, `profile.json` and `manifest.json` under `dir`.
pub fn write_telemetry(dir: &Path, tel: &TelemetryRun, manifest: &RunManifest) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    let mut jsonl = String::new();
    for snap in &tel.snapshots {
        jsonl.push_str(&snap.to_json());
        jsonl.push('\n');
    }
    fs::write(dir.join("metrics.jsonl"), jsonl)?;
    fs::write(dir.join("profile.json"), tel.profile.to_json())?;
    fs::write(dir.join("manifest.json"), manifest.to_json())?;
    Ok(())
}

/// Write all run outputs under `dir`.
pub fn write_outputs(
    dir: &Path,
    artifacts: &RunArtifacts,
    view: &LogView,
    horizon: SimTime,
) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    fs::write(dir.join("log.txt"), artifacts.world.log.to_text())?;
    let summary = summarize(artifacts, view);
    fs::write(
        dir.join("summary.json"),
        serde_json::to_string_pretty(&summary).expect("serializable"),
    )?;
    fs::write(
        dir.join("figures.txt"),
        figures_text(artifacts, view, horizon),
    )?;
    fs::write(dir.join("sessions.csv"), sessions_csv(view))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use coolstreaming::Scenario;

    fn tiny() -> (RunArtifacts, LogView) {
        let artifacts = Scenario::steady(0.3)
            .with_seed(5)
            .with_window(SimTime::ZERO, SimTime::from_mins(8))
            .run();
        let view = LogView::build(&artifacts);
        (artifacts, view)
    }

    #[test]
    fn summary_is_serializable_and_sane() {
        let (artifacts, view) = tiny();
        let s = summarize(&artifacts, &view);
        assert!(s.arrivals > 0);
        assert!(s.mean_continuity > 0.0 && s.mean_continuity <= 1.0);
        let json = serde_json::to_string(&s).unwrap();
        assert!(json.contains("mean_continuity"));
    }

    #[test]
    fn csv_has_one_row_per_session_plus_header() {
        let (_artifacts, view) = tiny();
        let csv = sessions_csv(&view);
        assert_eq!(csv.lines().count(), view.sessions.len() + 1);
        assert!(csv.starts_with("user,node"));
    }

    #[test]
    fn figures_text_contains_every_figure() {
        let (artifacts, view) = tiny();
        let text = figures_text(&artifacts, &view, SimTime::from_mins(8));
        for marker in [
            "FIG3a",
            "FIG4",
            "FIG5",
            "FIG6",
            "FIG7",
            "FIG8",
            "FIG10a",
            "EXT-OVERHEAD",
            "EXT-RESOURCES",
        ] {
            assert!(text.contains(marker), "missing {marker}");
        }
    }

    #[test]
    fn write_outputs_creates_all_files() {
        let (artifacts, view) = tiny();
        let dir = std::env::temp_dir().join(format!("cs_cli_test_{}", std::process::id()));
        write_outputs(&dir, &artifacts, &view, SimTime::from_mins(8)).unwrap();
        for f in ["log.txt", "summary.json", "figures.txt", "sessions.csv"] {
            assert!(dir.join(f).exists(), "missing {f}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
