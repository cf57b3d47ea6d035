//! End-to-end pipeline tests: scenario → protocol → log server →
//! analysis, exactly the chain the paper's measurement went through.

use coolstreaming::experiments::{
    fig10_sessions, fig3_user_types, fig5_population, fig6_startup, fig8_continuity, LogView,
};
use coolstreaming::Scenario;
use cs_logging::LogServer;
use cs_sim::SimTime;

fn small_run(seed: u64) -> coolstreaming::RunArtifacts {
    Scenario::steady(0.4)
        .with_seed(seed)
        .with_window(SimTime::ZERO, SimTime::from_mins(20))
        .run()
}

#[test]
fn whole_pipeline_produces_every_figure() {
    let artifacts = small_run(1);
    let view = LogView::build(&artifacts);

    let fig3 = fig3_user_types(&artifacts, &view);
    assert!(fig3.inferred.values().sum::<usize>() > 100);
    assert!(fig3.top30_upload_share > 0.5);

    let pop = fig5_population(
        &view,
        SimTime::ZERO,
        SimTime::from_mins(20),
        SimTime::from_mins(1),
    );
    assert!(pop.iter().map(|(_, c)| *c).max().unwrap() > 50);

    let fig6 = fig6_startup(&view, SimTime::ZERO, SimTime::MAX);
    assert!(fig6.ready.len() > 100);
    assert!(fig6.ready.median().unwrap() > 5.0);

    let fig8 = fig8_continuity(
        &view,
        SimTime::ZERO,
        SimTime::from_mins(20),
        SimTime::from_mins(4),
    );
    assert!(!fig8.series.is_empty());

    let fig10 = fig10_sessions(&view);
    assert!(fig10.durations.len() > 50);
}

#[test]
fn log_round_trips_through_text_serialization() {
    let artifacts = small_run(2);
    let text = artifacts.world.log.to_text();
    let back = LogServer::from_text(&text).expect("parseable");
    assert!(back.lines().eq(artifacts.world.log.lines()));
    // And the re-parsed log produces identical session reconstruction.
    let (reports, bad) = back.parse_all();
    assert!(bad.is_empty());
    let sessions = cs_analysis::reconstruct(&reports);
    let view = LogView::build(&artifacts);
    assert_eq!(sessions.len(), view.sessions.len());
}

#[test]
fn end_to_end_determinism_across_full_pipeline() {
    let a = small_run(3);
    let b = small_run(3);
    assert_eq!(a.world.log.to_text(), b.world.log.to_text());
    assert_eq!(a.world.stats.arrivals, b.world.stats.arrivals);
    assert_eq!(
        a.world.stats.blocks_delivered,
        b.world.stats.blocks_delivered
    );
    assert_eq!(a.world.snapshots.len(), b.world.snapshots.len());
    let c = small_run(4);
    assert_ne!(a.world.log.to_text(), c.world.log.to_text());
}

#[test]
fn log_view_matches_ground_truth_where_no_artifact_applies() {
    let artifacts = small_run(5);
    let view = LogView::build(&artifacts);

    // Activity timestamps: every logged session maps to a ground-truth
    // record with identical join/ready times (activity reports are
    // immediate, so no sampling loss applies).
    let mut checked = 0;
    for s in &view.sessions {
        let rec = &artifacts.world.sessions[s.node as usize];
        assert_eq!(rec.node.0, s.node);
        if let (Some(lj), Some(gj)) = (s.join, Some(rec.join)) {
            assert_eq!(lj, gj, "join time mismatch for node {}", s.node);
        }
        if let Some(lr) = s.ready {
            assert_eq!(Some(lr), rec.ready, "ready mismatch for node {}", s.node);
            checked += 1;
        }
    }
    assert!(checked > 50, "too few sessions to be meaningful");

    // Aggregate traffic: bytes in traffic reports never exceed ground
    // truth (reports lag by up to one period) and capture most of it.
    let logged_up: u64 = view.sessions.iter().map(|s| s.up_bytes).sum();
    let true_up: u64 = artifacts
        .world
        .sessions
        .iter()
        .filter(|r| r.class.is_user())
        .map(|r| r.up_bytes)
        .sum();
    assert!(logged_up <= true_up);
    assert!(
        logged_up as f64 > 0.5 * true_up as f64,
        "reports captured only {logged_up} of {true_up} bytes"
    );
}

#[test]
fn population_curve_matches_world_alive_count_at_horizon() {
    let artifacts = small_run(6);
    let view = LogView::build(&artifacts);
    let horizon = SimTime::from_mins(20);
    let curve = fig5_population(&view, SimTime::ZERO, horizon, SimTime::from_secs(30));
    let final_bin = curve.last().unwrap().1;
    let alive = artifacts
        .world
        .net
        .iter_alive()
        .filter(|n| n.class.is_user())
        .count() as i64;
    // The last bin counts sessions alive during it; allow the joins and
    // leaves within that bin as slack.
    assert!(
        (final_bin - alive).abs() <= 15,
        "curve says {final_bin}, world says {alive}"
    );
}
