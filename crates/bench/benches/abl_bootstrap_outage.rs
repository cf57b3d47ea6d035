//! ABL-BOOT — failure injection: the boot-strap node is the one
//! centralized dependency of the data-driven design (§III.B). An outage
//! must stall *new joins* while leaving *established peers* streaming —
//! the overlay itself has no central dependency.

use coolstreaming::experiments::{fig8_continuity, LogView};
use coolstreaming::Scenario;
use criterion::{black_box, Criterion};
use cs_bench::{banner, criterion_quick, shape_check};
use cs_proto::Event;
use cs_sim::SimTime;

fn run_with_outage(outage: bool) -> coolstreaming::RunArtifacts {
    let scenario = Scenario::steady(0.5)
        .with_seed(2626)
        .with_window(SimTime::ZERO, SimTime::from_mins(30));
    // Rebuild the run manually so we can inject the outage events.
    let net = cs_net::Network::new(scenario.policy, scenario.latency, scenario.seed);
    let mut world = cs_proto::CsWorld::new(
        scenario.params,
        net,
        scenario.servers,
        scenario.server_bw,
        scenario.seed,
    );
    world.snapshot_interval = scenario.snapshot_interval;
    let arrivals = scenario
        .workload
        .generate(scenario.seed, scenario.start, scenario.horizon);
    let n = arrivals.len();
    let mut engine = cs_sim::Engine::new(world);
    for (t, e) in engine.world().initial_events() {
        engine.schedule_at(t, e);
    }
    for (t, spec) in arrivals {
        engine.schedule_at(t, Event::Arrive(spec));
    }
    if outage {
        engine.schedule_at(SimTime::from_mins(12), Event::SetBootstrap(false));
        engine.schedule_at(SimTime::from_mins(18), Event::SetBootstrap(true));
    }
    let run_stats = engine.run_until(scenario.horizon);
    let mut world = engine.into_world();
    cs_proto::finalize_sessions(&mut world);
    coolstreaming::RunArtifacts {
        world,
        scheduled_arrivals: n,
        run_stats,
    }
}

fn main() {
    banner(
        "ABL-BOOT",
        "boot-strap outage stalls new joins but not established streaming",
    );
    let base = run_with_outage(false);
    let hit = run_with_outage(true);

    let ready_in = |a: &coolstreaming::RunArtifacts, m0: u64, m1: u64| {
        let view = LogView::build(a);
        view.sessions
            .iter()
            .filter(|s| {
                matches!(s.ready, Some(r) if r >= SimTime::from_mins(m0) && r < SimTime::from_mins(m1))
            })
            .count()
    };
    // Media-ready events during the outage window collapse.
    let base_ready = ready_in(&base, 13, 18);
    let hit_ready = ready_in(&hit, 13, 18);
    println!("  media-ready events 13–18 min: baseline {base_ready} vs outage {hit_ready}");
    shape_check!(
        (hit_ready as f64) < 0.35 * base_ready as f64,
        "outage chokes new joins ({hit_ready} vs {base_ready})"
    );
    shape_check!(
        hit.world.stats.bootstrap_rejects > 50,
        "rejects were counted"
    );

    // Established peers keep streaming: continuity during the outage
    // stays within a point of baseline.
    let ci_during = |a: &coolstreaming::RunArtifacts| {
        let view = LogView::build(a);
        let fig8 = fig8_continuity(
            &view,
            SimTime::from_mins(12),
            SimTime::from_mins(18),
            SimTime::from_mins(6),
        );
        ["direct", "upnp", "nat", "firewall"]
            .iter()
            .filter_map(|c| fig8.mean_of(c))
            .sum::<f64>()
            / 4.0
    };
    let (ci_base, ci_hit) = (ci_during(&base), ci_during(&hit));
    println!(
        "  continuity during window: baseline {:.2}% vs outage {:.2}%",
        100.0 * ci_base,
        100.0 * ci_hit
    );
    shape_check!(
        ci_hit > ci_base - 0.02,
        "established peers unaffected ({:.2}% vs {:.2}%)",
        100.0 * ci_hit,
        100.0 * ci_base
    );

    // Joins recover after the outage ends.
    let recovered = ready_in(&hit, 19, 25);
    let base_late = ready_in(&base, 19, 25);
    println!("  media-ready events 19–25 min: baseline {base_late} vs outage-run {recovered}");
    shape_check!(
        recovered as f64 > 0.8 * base_late as f64,
        "joins recover after the outage ({recovered} vs {base_late})"
    );

    let mut c: Criterion = criterion_quick();
    c.bench_function("abl_boot/outage_run_extract", |b| {
        b.iter(|| black_box(LogView::build(&hit).sessions.len()))
    });
    c.final_summary();
}
