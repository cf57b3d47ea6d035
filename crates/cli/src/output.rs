//! The run directory: every artifact `coolstream run` writes, in one
//! place, indexed by `manifest.json` (DESIGN.md §8).

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

use coolstreaming::experiments::{
    self, fig10_sessions, fig3_user_types, fig5_population, fig6_startup, fig7_ready_by_period,
    fig8_continuity, LogView,
};
use coolstreaming::{ObservedRun, RunArtifacts, ScenarioSpec, TelemetryRun};
use cs_sim::SimTime;
use cs_telemetry::{peak_rss_bytes, spans_to_jsonl, HeapLedger, HostFingerprint};
use serde::Serialize;

/// Schema identifier of `manifest.json`.
pub const MANIFEST_SCHEMA: &str = "cs-run/1";

/// `manifest.json`: the index of a run directory and the one record of
/// every run-level fact. Everything down to `retried_fraction` is a pure
/// function of `spec`; the rest describes the environment. Per-kind event
/// totals and the window grid are not here: they are `metrics.jsonl`.
#[derive(Debug, Serialize)]
pub struct Manifest {
    /// [`MANIFEST_SCHEMA`].
    pub schema: &'static str,
    /// The run's description, seed included: `run --scenario` on this
    /// object alone reproduces the run.
    pub spec: ScenarioSpec,
    /// FNV-1a digest of the dispatch sequence, 16 hex digits (`run`
    /// always asks for it).
    pub trace_hash: Option<String>,
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
    /// Log-view mean continuity across all QoS reports; `null` when no
    /// report was due yet.
    pub mean_continuity: Option<f64>,
    /// Median media-ready seconds; `null` when no session got ready.
    pub ready_median_s: Option<f64>,
    /// Fraction of users that retried at least once.
    pub retried_fraction: f64,
    /// `git describe --always --dirty` of the working tree, if available.
    pub git_describe: Option<String>,
    /// Wall-clock run duration in milliseconds.
    pub wall_ms: u64,
    /// Peak resident set size in bytes, if known.
    pub peak_rss_bytes: Option<u64>,
    /// With `--telemetry`, the byte ledger at the horizon: heap bytes per
    /// owner, `VmRSS` and the remainder no owner explains; `null`
    /// otherwise.
    pub heap: Option<HeapLedger>,
    /// The executing host.
    pub host: HostFingerprint,
    /// Every other file in the directory.
    pub files: Vec<&'static str>,
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

/// Write the run directory: `log.txt`, `figures.txt`, `sessions.csv`,
/// then `metrics.jsonl` + `profile.json` if the run recorded telemetry
/// and `spans.jsonl` if it recorded spans, and last the `manifest.json`
/// that indexes them. An optional artifact an earlier run left in `dir`
/// is removed, so the directory never mixes two runs.
pub fn write_run_dir(
    dir: &Path,
    spec: ScenarioSpec,
    horizon: SimTime,
    run: &ObservedRun,
    git_describe: Option<String>,
    wall_ms: u64,
) -> io::Result<Manifest> {
    fs::create_dir_all(dir)?;
    let artifacts = &run.artifacts;
    let view = LogView::build(artifacts);
    let mut files = Vec::new();
    let mut put = |name: &'static str, text: Option<&str>| match text {
        Some(text) => {
            files.push(name);
            fs::write(dir.join(name), text)
        }
        None => match fs::remove_file(dir.join(name)) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
            _ => Ok(()),
        },
    };
    put("log.txt", Some(artifacts.world.log.as_text()))?;
    put(
        "figures.txt",
        Some(&figures_text(artifacts, &view, horizon)),
    )?;
    put("sessions.csv", Some(&sessions_csv(&view)))?;
    let tel = run.telemetry.as_ref();
    put("metrics.jsonl", tel.map(TelemetryRun::metrics_jsonl))?;
    put(
        "profile.json",
        tel.map(TelemetryRun::profile_json).as_deref(),
    )?;
    put(
        "spans.jsonl",
        run.spans.as_deref().map(spans_to_jsonl).as_deref(),
    )?;

    let w = &artifacts.world;
    let (due, missed) = view
        .sessions
        .iter()
        .flat_map(|s| &s.qos)
        .fold((0u64, 0u64), |(due, missed), &(_, d, m)| {
            (due + d, missed + m)
        });
    let manifest = Manifest {
        schema: MANIFEST_SCHEMA,
        spec,
        trace_hash: run.trace_hash.map(|h| format!("{h:016x}")),
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
        mean_continuity: (due > 0).then(|| 1.0 - missed as f64 / due as f64),
        ready_median_s: fig6_startup(&view, SimTime::ZERO, SimTime::MAX)
            .ready
            .median(),
        retried_fraction: fig10_sessions(&view).retried_fraction,
        git_describe,
        wall_ms,
        peak_rss_bytes: peak_rss_bytes(),
        heap: run.heap.clone(),
        host: HostFingerprint::detect(),
        files,
    };
    fs::write(
        dir.join("manifest.json"),
        serde_json::to_string_pretty(&manifest).expect("manifest serializes") + "\n",
    )?;
    Ok(manifest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use coolstreaming::{RunOptions, Scenario};
    use cs_telemetry::TelemetryConfig;

    fn run_with(options: RunOptions) -> (ObservedRun, LogView) {
        let run = Scenario::steady(0.3)
            .with_seed(5)
            .with_window(SimTime::ZERO, SimTime::from_mins(8))
            .run_observed(options);
        let view = LogView::build(&run.artifacts);
        (run, view)
    }

    fn tiny() -> (ObservedRun, LogView) {
        run_with(RunOptions::default())
    }

    fn write(dir: &Path, run: &ObservedRun) -> Manifest {
        let spec = ScenarioSpec::example();
        write_run_dir(dir, spec, SimTime::from_mins(8), run, None, 1).unwrap()
    }

    fn temp_dir(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("cs_cli_{name}_{}", std::process::id()))
    }

    #[test]
    fn summary_is_serializable_and_sane() {
        let dir = temp_dir("summary");
        let m = write(&dir, &tiny().0);
        assert!(m.arrivals > 0 && m.events > 0);
        assert!(m.mean_continuity.is_some_and(|c| c > 0.0 && c <= 1.0));
        assert!(m.ready_median_s.is_some_and(|s| s > 0.0));
        let json = fs::read_to_string(dir.join("manifest.json")).unwrap();
        assert!(json.contains("\"schema\": \"cs-run/1\""), "{json}");
        assert!(!json.contains("\"mean_continuity\": null"), "{json}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn csv_has_one_row_per_session_plus_header() {
        let (_run, view) = tiny();
        let csv = sessions_csv(&view);
        assert_eq!(csv.lines().count(), view.sessions.len() + 1);
        assert!(csv.starts_with("user,node"));
    }

    #[test]
    fn figures_text_contains_every_figure() {
        let (run, view) = tiny();
        let text = figures_text(&run.artifacts, &view, SimTime::from_mins(8));
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
        let listing = |dir: &Path| {
            let mut names: Vec<String> = fs::read_dir(dir)
                .unwrap()
                .map(|e| e.unwrap().file_name().into_string().unwrap())
                .collect();
            names.sort();
            names
        };
        let dir = temp_dir("files");
        let (full, _) = run_with(RunOptions {
            record_spans: true,
            telemetry: Some(TelemetryConfig::default()),
            ..RunOptions::default()
        });
        assert_eq!(write(&dir, &full).files.len(), 6);
        assert_eq!(listing(&dir).len(), 7);
        // A plain run into the same directory leaves no stale telemetry.
        let m = write(&dir, &tiny().0);
        assert_eq!(m.files, ["log.txt", "figures.txt", "sessions.csv"]);
        assert_eq!(
            listing(&dir),
            ["figures.txt", "log.txt", "manifest.json", "sessions.csv"]
        );
        fs::remove_dir_all(&dir).ok();
    }
}
