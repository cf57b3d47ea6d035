//! ABL-CRASH — failure injection: a dedicated server crashes mid-run.
//! The data-driven design's resilience claim (§III.A: "robust and
//! resilient, as both the peer partnership and data availability are
//! dynamically and periodically updated"): children repair onto other
//! parents within a few adaptation rounds, with only a transient dip.

use coolstreaming::experiments::{fig8_continuity, LogView};
use coolstreaming::Scenario;
use criterion::{black_box, Criterion};
use cs_bench::{banner, criterion_quick, shape_check};
use cs_net::Bandwidth;
use cs_proto::Event;
use cs_sim::SimTime;

fn run(crash: bool) -> coolstreaming::RunArtifacts {
    let scenario = Scenario::steady(0.5)
        .with_seed(2828)
        .with_window(SimTime::ZERO, SimTime::from_mins(30))
        .with_servers(2, Bandwidth::mbps(24));
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
    if crash {
        engine.schedule_at(SimTime::from_mins(15), Event::CrashServer(0));
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

fn mean_ci(a: &coolstreaming::RunArtifacts, m0: u64, m1: u64) -> f64 {
    let view = LogView::build(a);
    let fig8 = fig8_continuity(
        &view,
        SimTime::from_mins(m0),
        SimTime::from_mins(m1),
        SimTime::from_mins(m1 - m0),
    );
    let vals: Vec<f64> = ["direct", "upnp", "nat", "firewall"]
        .iter()
        .filter_map(|c| fig8.mean_of(c))
        .collect();
    vals.iter().sum::<f64>() / vals.len().max(1) as f64
}

fn main() {
    banner(
        "ABL-CRASH",
        "a server crash causes only a transient dip; the mesh repairs itself",
    );
    let base = run(false);
    let hit = run(true);
    assert!(!hit.world.net.is_alive(hit.world.servers[0]));

    let before = mean_ci(&hit, 8, 14);
    let during = mean_ci(&hit, 15, 20);
    let after = mean_ci(&hit, 22, 30);
    let base_during = mean_ci(&base, 15, 20);
    println!(
        "  continuity: before {:.2}%  crash-window {:.2}%  after {:.2}%  (baseline {:.2}%)",
        100.0 * before,
        100.0 * during,
        100.0 * after,
        100.0 * base_during
    );

    shape_check!(
        during > 0.85,
        "crash window continuity {:.2}% is a dip, not an outage",
        100.0 * during
    );
    shape_check!(
        after > base_during - 0.03,
        "overlay recovers to baseline ({:.2}% vs {:.2}%)",
        100.0 * after,
        100.0 * base_during
    );
    // Everyone still streaming at the horizon.
    let streaming = hit
        .world
        .net
        .iter_alive()
        .filter(|n| n.class.is_user())
        .filter(|n| {
            hit.world
                .peer(n.id)
                .map(|p| p.parents().iter().any(Option::is_some))
                .unwrap_or(false)
        })
        .count();
    let alive = hit
        .world
        .net
        .iter_alive()
        .filter(|n| n.class.is_user())
        .count();
    shape_check!(
        streaming as f64 > 0.9 * alive as f64,
        "{streaming}/{alive} live peers streaming after the crash"
    );

    let mut c: Criterion = criterion_quick();
    c.bench_function("abl_crash/extract_ci", |b| {
        b.iter(|| black_box(mean_ci(&hit, 15, 20)))
    });
    c.final_summary();
}
