//! Oracle rows for what the paper argues but does not measure: the
//! design-space ablations (ABL-*) and the §VI open issues (EXT-*). Each
//! row's reference seed is the constant in its `run`; replication `r`
//! adds `r` to it.

use std::fmt::Write as _;

use cs_baseline::{TreeEvent, TreeParams, TreeWorld};
use cs_net::{Bandwidth, ConnectivityPolicy, LatencyModel, Network};
use cs_proto::{Allocation, Event, ReplacePolicy, StartPolicy, UserSpec};
use cs_sim::{Engine, SimTime};
use cs_workload::{Spike, Workload};

use super::registry::{pct, steady, steady_scenario, sweep, Check, Measured, Op, Probe, Row};
use super::{
    fig10_sessions, fig6_startup, fig8_continuity, overhead, peerwise, resources, LogView,
};
use crate::channels::{zappers, ChannelScenario};
use crate::scenario::{RunArtifacts, RunOptions, Scenario};

use Op::{Ge, Gt, Le, Lt};

/// One predicate per line: the table reads as the claims it checks.
#[rustfmt::skip]
pub(super) fn rows() -> Vec<Row> {
    vec![
        Row { name: "ABL-TREE", ids: &["ABL-TREE"], run: abl_tree, checks: vec![
            Check::new("ABL-TREE", "mesh_minus_single_ci", Gt, 0.0, "mesh beats a single tree under churn"),
            Check::new("ABL-TREE", "multi_minus_single_playable", Ge, 0.0, "multi-tree playability at least matches a single tree"),
            Check::new("ABL-TREE", "mesh_minus_multi_ci", Ge, -0.02, "mesh at least matches multi-tree"),
        ] },
        Row { name: "ABL-MCACHE", ids: &["ABL-MCACHE"], run: abl_mcache, checks: vec![
            Check::new("ABL-MCACHE", "biased_over_random_ready_median", Le, 1.15, "biased replacement does not worsen the crowd-time median"),
            Check::new("ABL-MCACHE", "biased_over_random_ready_p90", Le, 1.15, "biased replacement does not worsen the crowd-time tail"),
            Check::new("ABL-MCACHE", "both_serve_the_crowd", Ge, 1.0, "both policies keep serving joins during the crowd (1 = yes)"),
        ] },
        Row { name: "ABL-K", ids: &["ABL-K"], run: abl_k, checks: vec![
            Check::new("ABL-K", "k6_minus_k1_ci", Ge, 0.0, "K = 6 continuity at least matches K = 1"),
            Check::new("ABL-K", "min_ci", Gt, 0.85, "every K remains functional"),
            Check::new("ABL-K", "k8_k6_ci_gap", Lt, 0.05, "K = 8 ≈ K = 6 (diminishing returns)"),
        ] },
        Row { name: "ABL-SERVERS", ids: &["ABL-SERVERS"], run: abl_servers, checks: vec![
            Check::new("ABL-SERVERS", "ready_0_servers", Lt, 0.05, "without servers nobody gets content"),
            Check::new("ABL-SERVERS", "ready_1_server", Gt, 0.5, "one server bootstraps the swarm"),
            Check::new("ABL-SERVERS", "ready_4_minus_1_servers", Ge, -0.03, "more servers never hurt"),
        ] },
        Row { name: "ABL-START", ids: &["ABL-START"], run: abl_start, checks: vec![
            Check::new("ABL-START", "shifted_minus_latest_ci", Ge, -0.005, "m − T_p continuity at least matches starting at m"),
            Check::new("ABL-START", "shifted_minus_oldest_ci", Ge, -0.005, "m − T_p continuity at least matches starting at n"),
            Check::new("ABL-START", "oldest_over_shifted_skipped", Gt, 2.0, "starting at n loses blocks from cache windows"),
            Check::new("ABL-START", "oldest_over_shifted_live_lag", Gt, 2.0, "starting at n watches far behind live"),
        ] },
        Row { name: "ABL-ALLOC", ids: &["ABL-ALLOC"], run: abl_alloc, checks: vec![
            Check::new("ABL-ALLOC", "need_minus_equal_ci", Ge, -0.01, "need-aware continuity does not regress equal split"),
            Check::new("ABL-ALLOC", "need_over_equal_ready_median", Le, 1.05, "need-aware ready median at least matches equal split"),
            Check::new("ABL-ALLOC", "need_over_equal_ready_p90", Le, 1.10, "need-aware ready tail does not blow up"),
        ] },
        Row { name: "ABL-BOOT", ids: &["ABL-BOOT"], run: abl_boot, checks: vec![
            Check::new("ABL-BOOT", "outage_over_base_ready", Lt, 0.35, "the outage chokes new joins"),
            Check::new("ABL-BOOT", "bootstrap_rejects", Gt, 50.0, "rejects were counted"),
            Check::new("ABL-BOOT", "outage_minus_base_ci", Gt, -0.02, "established peers are unaffected"),
            Check::new("ABL-BOOT", "recovered_over_base_ready", Gt, 0.8, "joins recover after the outage"),
        ] },
        Row { name: "ABL-CRASH", ids: &["ABL-CRASH"], run: abl_crash, checks: vec![
            Check::new("ABL-CRASH", "crash_window_ci", Gt, 0.85, "the crash is a dip, not an outage"),
            Check::new("ABL-CRASH", "after_minus_baseline_ci", Gt, -0.03, "the overlay recovers to baseline"),
            Check::new("ABL-CRASH", "after_minus_baseline_same_window_ci", Gt, -0.03, "the crash costs little against the same window"),
            Check::new("ABL-CRASH", "restart_minus_baseline_same_window_ci", Gt, -0.03, "a crash restarted at 20 min costs little against the same window"),
            Check::new("ABL-CRASH", "streaming_share", Gt, 0.9, "live peers are streaming after the crash"),
        ] },
        Row { name: "EXT-CHANNELS", ids: &["EXT-CHANNELS"], run: ext_channels, checks: vec![
            Check::new("EXT-CHANNELS", "top_over_niche_population", Gt, 3.0, "the popularity split is real"),
            Check::new("EXT-CHANNELS", "top_minus_niche_ci", Ge, 0.0, "the popular channel streams at least as well"),
            Check::new("EXT-CHANNELS", "niche_over_top_ready_median", Ge, 0.95, "the niche channel starts no faster"),
            Check::new("EXT-CHANNELS", "zappers", Gt, 20.0, "zapping viewers exist across channels"),
        ] },
        Row { name: "EXT", ids: &["EXT-PEERWISE", "EXT-RESOURCES", "EXT-OVERHEAD"], run: ext, checks: vec![
            Check::new("EXT-PEERWISE", "median_session_ci", Gt, 0.95, "median per-session continuity is high"),
            Check::new("EXT-PEERWISE", "stabilizes", Ge, 1.0, "adaptation rate declines with session age (1 = yes)"),
            Check::new("EXT-RESOURCES", "public_over_nat_util", Gt, 2.0, "public uplinks run far hotter than NAT uplinks"),
            Check::new("EXT-RESOURCES", "supply_ratio", Gt, 1.0, "aggregate supply exceeds demand"),
            Check::new("EXT-OVERHEAD", "control_over_video", Lt, 0.10, "control overhead stays in the few-percent regime"),
            Check::new("EXT-OVERHEAD", "control_bytes", Gt, 0.0, "control traffic was accounted"),
        ] },
    ]
}

/// 1 if `cond`, else 0: a yes/no claim as a value.
fn indicator(cond: bool) -> f64 {
    f64::from(u8::from(cond))
}

/// Continuity and playable-tick fraction of a tree overlay fed the
/// mesh's arrival schedule.
fn run_tree(
    params: TreeParams,
    arrivals: &[(SimTime, UserSpec)],
    horizon: SimTime,
    seed: u64,
) -> (f64, f64) {
    let net = Network::new(ConnectivityPolicy::default(), LatencyModel::default(), seed);
    let mut eng = Engine::new(TreeWorld::new(params, net, seed));
    for (t, e) in eng.world().initial_events() {
        eng.schedule_at(t, e);
    }
    for (t, spec) in arrivals {
        eng.schedule_at(*t, TreeEvent::Arrive(*spec));
    }
    eng.run_until(horizon);
    eng.world_mut().finalize();
    let w = eng.world();
    (
        w.mean_continuity(30).unwrap_or(0.0),
        w.mean_playable(30).unwrap_or(0.0),
    )
}

/// ABL-TREE: mesh-pull vs tree multicast under identical churn.
fn abl_tree(r: u64) -> Measured {
    let horizon = SimTime::from_mins(30);
    let (rate, seed) = (0.6, 2121 + r);
    let arrivals = Workload::steady(rate).generate(seed, SimTime::ZERO, horizon);
    let mesh = [("mesh".to_string(), || steady(rate, 30, seed))];
    let mesh_ci = sweep("system", mesh, horizon, &[]).1[0].continuity;
    let (single_ci, single_play) = run_tree(TreeParams::single_tree(), &arrivals, horizon, seed);
    let (multi_ci, multi_play) = run_tree(TreeParams::multi_tree(6), &arrivals, horizon, seed);
    let table = format!(
        "  system        continuity   playable\n  mesh (CS)     {:>9.2}%        —\n  multi tree    {:>9.2}%   {:>7.2}%\n  single tree   {:>9.2}%   {:>7.2}%\n",
        100.0 * mesh_ci,
        100.0 * multi_ci,
        100.0 * multi_play,
        100.0 * single_ci,
        100.0 * single_play
    );
    let mut m = Measured::new(table);
    m.set("mesh_minus_single_ci", mesh_ci - single_ci);
    m.set("multi_minus_single_playable", multi_play - single_play);
    m.set("mesh_minus_multi_ci", mesh_ci - multi_ci);
    m
}

/// Crowd-time ready median and p90, and the retried share, of a 10×
/// flash crowd under mCache replacement `policy`.
fn crowd_run(policy: ReplacePolicy, seed: u64) -> (f64, f64, f64) {
    let mut wl = Workload::steady(0.4);
    wl.profile.spikes.push(Spike {
        start: SimTime::from_mins(10),
        duration: SimTime::from_mins(4),
        multiplier: 10.0,
    });
    let mut scenario = steady_scenario(0.4, 25, seed).with_workload(wl);
    scenario.params.replace_policy = policy;
    let view = LogView::build(&scenario.run());
    let during = fig6_startup(&view, SimTime::from_mins(10), SimTime::from_mins(14));
    (
        during.ready.median().unwrap_or(f64::NAN),
        during.ready.quantile(0.9).unwrap_or(f64::NAN),
        fig10_sessions(&view).retried_fraction,
    )
}

/// ABL-MCACHE: stability-biased mCache replacement under a flash crowd,
/// averaged over three seeds (single crowd runs are noisy).
fn abl_mcache(r: u64) -> Measured {
    let seeds = [1 + r, 2 + r, 3 + r];
    let mut rnd = (0.0, 0.0, 0.0);
    let mut sta = (0.0, 0.0, 0.0);
    for &s in &seeds {
        let a = crowd_run(ReplacePolicy::Random, s);
        let b = crowd_run(ReplacePolicy::StabilityBiased, s);
        rnd = (rnd.0 + a.0, rnd.1 + a.1, rnd.2 + a.2);
        sta = (sta.0 + b.0, sta.1 + b.1, sta.2 + b.2);
    }
    let n = seeds.len() as f64;
    let (rnd_med, rnd_p90, rnd_retry) = (rnd.0 / n, rnd.1 / n, rnd.2 / n);
    let (sta_med, sta_p90, sta_retry) = (sta.0 / n, sta.1 / n, sta.2 / n);
    let mut m = Measured::default();
    let _ = writeln!(
        m.table,
        "  policy             ready-median   ready-p90   retried"
    );
    let _ = writeln!(
        m.table,
        "  random             {rnd_med:>10.1}s   {rnd_p90:>8.1}s   {:>6.1}%",
        100.0 * rnd_retry
    );
    let _ = writeln!(
        m.table,
        "  stability-biased   {sta_med:>10.1}s   {sta_p90:>8.1}s   {:>6.1}%",
        100.0 * sta_retry
    );
    m.set("biased_over_random_ready_median", sta_med / rnd_med);
    m.set("biased_over_random_ready_p90", sta_p90 / rnd_p90);
    m.set(
        "both_serve_the_crowd",
        indicator(rnd_med.is_finite() && sta_med.is_finite()),
    );
    m
}

/// ABL-K: continuity against the sub-stream count K.
fn abl_k(r: u64) -> Measured {
    let points = [1u32, 2, 4, 6, 8].map(|k| {
        let mut s = steady_scenario(0.5, 30, 2222 + r);
        s.params.substreams = k;
        (k.to_string(), move || s.run())
    });
    let (mut m, p) = sweep("K", points, SimTime::from_mins(30), &[]);
    let ci: Vec<f64> = p.iter().map(|point| point.continuity).collect();
    m.set("k6_minus_k1_ci", ci[3] - ci[0]);
    m.set("min_ci", ci.iter().copied().fold(f64::INFINITY, f64::min));
    m.set("k8_k6_ci_gap", (ci[4] - ci[3]).abs());
    m
}

/// ABL-SERVERS: the dedicated-server fleet, 0 to 4 servers.
fn abl_servers(r: u64) -> Measured {
    let points = [0usize, 1, 2, 4].map(|n| {
        let s = steady_scenario(0.5, 25, 2323 + r).with_servers(n, Bandwidth::mbps(24));
        (n.to_string(), move || s.run())
    });
    let (mut m, p) = sweep("servers", points, SimTime::from_mins(25), &[]);
    let ready: Vec<f64> = p.iter().map(|point| point.ready_fraction).collect();
    m.set("ready_0_servers", ready[0]);
    m.set("ready_1_server", ready[1]);
    m.set("ready_4_minus_1_servers", ready[3] - ready[1]);
    m
}

/// Playback latency behind the live stream at `horizon`: how far the
/// playhead of live, playing users trails the newest emitted block (s).
fn live_lag(a: &RunArtifacts, horizon: SimTime) -> f64 {
    let world = &a.world;
    let bps = world.params.blocks_per_sec();
    let edge = world.params.live_edge(horizon).unwrap_or(0);
    let lags: Vec<f64> = world
        .net
        .iter_alive()
        .filter(|n| n.class.is_user())
        .filter_map(|n| world.peer(n.id))
        .filter(|peer| peer.media_ready().is_some())
        .map(|peer| edge.saturating_sub(peer.next_play()) as f64 / bps)
        .collect();
    lags.iter().sum::<f64>() / lags.len().max(1) as f64
}

/// ABL-START: the §IV.A start-position argument — `m − T_p` against the
/// newest, a midpoint and the oldest available block.
fn abl_start(r: u64) -> Measured {
    let points = [
        ("shifted (m−T_p)", StartPolicy::ShiftedFromLatest),
        ("latest (m)", StartPolicy::Latest),
        ("midpoint", StartPolicy::Midpoint),
        ("oldest (n)", StartPolicy::Oldest),
    ]
    .map(|(label, policy)| {
        let mut s = steady_scenario(0.5, 30, 2424 + r);
        s.params.start_policy = policy;
        (label.to_string(), move || s.run())
    });
    let probes: [Probe; 2] = [
        ("live-lag", live_lag),
        ("skipped", |a, _| a.world.stats.blocks_skipped as f64),
    ];
    let (mut m, p) = sweep("policy", points, SimTime::from_mins(30), &probes);
    let ci = |i: usize| p[i].continuity;
    let (lag, skipped) = (|i: usize| p[i].probed[0], |i: usize| p[i].probed[1]);
    m.set("shifted_minus_latest_ci", ci(0) - ci(1));
    m.set("shifted_minus_oldest_ci", ci(0) - ci(3));
    // The paper's problem (1) with the oldest start: blocks leave the
    // partners' buffers — visible as skipped blocks.
    m.set("oldest_over_shifted_skipped", skipped(3) / skipped(0));
    // Problem (2): "it might take considerable amount of time for the
    // newly joined node to catch up with the current video stream".
    m.set("oldest_over_shifted_live_lag", lag(3) / lag(0));
    m
}

/// ABL-ALLOC: need-aware upload allocation against the equal split of
/// Eq. 5.
fn abl_alloc(r: u64) -> Measured {
    let points = [
        ("equal split (Eq.5)", Allocation::EqualSplit),
        ("need-aware", Allocation::NeedAware),
    ]
    .map(|(label, allocation)| {
        let mut s = steady_scenario(0.6, 30, 2525 + r);
        s.params.allocation = allocation;
        (label.to_string(), move || s.run())
    });
    let probes: [Probe; 1] = [("giveups", |a, _| a.world.stats.giveup_departs as f64)];
    let (mut m, p) = sweep("allocation", points, SimTime::from_mins(30), &probes);
    let (equal, need) = (&p[0], &p[1]);
    m.set("need_minus_equal_ci", need.continuity - equal.continuity);
    m.set(
        "need_over_equal_ready_median",
        need.ready_median / equal.ready_median,
    );
    m.set(
        "need_over_equal_ready_p90",
        need.ready_p90 / equal.ready_p90,
    );
    m
}

/// A steady run with timed chaos injections.
fn injected(scenario: &Scenario, injections: Vec<(SimTime, Event)>) -> RunArtifacts {
    scenario
        .run_injected_observed(injections, RunOptions::default())
        .artifacts
}

/// Mean over the four user classes of the reported continuity in
/// `[m0, m1)` minutes, one bin.
fn class_ci(a: &RunArtifacts, m0: u64, m1: u64) -> Vec<f64> {
    let view = LogView::build(a);
    let fig8 = fig8_continuity(
        &view,
        SimTime::from_mins(m0),
        SimTime::from_mins(m1),
        SimTime::from_mins(m1 - m0),
    );
    ["direct", "upnp", "nat", "firewall"]
        .iter()
        .filter_map(|c| fig8.mean_of(c))
        .collect()
}

/// ABL-BOOT: a six-minute boot-strap outage must stall new joins while
/// established peers keep streaming.
fn abl_boot(r: u64) -> Measured {
    let scenario = steady_scenario(0.5, 30, 2626 + r);
    let base = injected(&scenario, Vec::new());
    let hit = injected(
        &scenario,
        vec![
            (SimTime::from_mins(12), Event::SetBootstrap(false)),
            (SimTime::from_mins(18), Event::SetBootstrap(true)),
        ],
    );
    let ready_in = |a: &RunArtifacts, m0: u64, m1: u64| {
        let (from, to) = (SimTime::from_mins(m0), SimTime::from_mins(m1));
        LogView::build(a)
            .sessions
            .iter()
            .filter(|s| matches!(s.ready, Some(t) if t >= from && t < to))
            .count()
    };
    let (base_ready, hit_ready) = (ready_in(&base, 13, 18), ready_in(&hit, 13, 18));
    // Continuity of established peers during the outage; a missing class
    // counts as 0.
    let ci_during = |a: &RunArtifacts| class_ci(a, 12, 18).iter().sum::<f64>() / 4.0;
    let (ci_base, ci_hit) = (ci_during(&base), ci_during(&hit));
    let (base_late, recovered) = (ready_in(&base, 19, 25), ready_in(&hit, 19, 25));
    let mut m = Measured::default();
    let _ = writeln!(
        m.table,
        "  media-ready events 13–18 min: baseline {base_ready} vs outage {hit_ready}"
    );
    let _ = writeln!(
        m.table,
        "  continuity during window: baseline {} vs outage {}",
        pct(ci_base),
        pct(ci_hit)
    );
    let _ = writeln!(
        m.table,
        "  media-ready events 19–25 min: baseline {base_late} vs outage-run {recovered}"
    );
    m.set(
        "outage_over_base_ready",
        hit_ready as f64 / base_ready as f64,
    );
    m.set(
        "bootstrap_rejects",
        hit.world.stats.bootstrap_rejects as f64,
    );
    m.set("outage_minus_base_ci", ci_hit - ci_base);
    m.set(
        "recovered_over_base_ready",
        recovered as f64 / base_late as f64,
    );
    m
}

/// ABL-CRASH: a dedicated server crashes mid-run; children must repair
/// onto other parents with only a transient dip. A third run restarts
/// the crashed server at 20 min.
fn abl_crash(r: u64) -> Measured {
    let scenario = steady_scenario(0.5, 30, 2828 + r).with_servers(2, Bandwidth::mbps(24));
    let base = injected(&scenario, Vec::new());
    let crash = (SimTime::from_mins(15), Event::CrashServer(0));
    let hit = injected(&scenario, vec![crash]);
    let restarted = injected(
        &scenario,
        vec![crash, (SimTime::from_mins(20), Event::RestartServer(0))],
    );
    let mean_ci = |a: &RunArtifacts, m0: u64, m1: u64| {
        let v = class_ci(a, m0, m1);
        v.iter().sum::<f64>() / v.len().max(1) as f64
    };
    let before = mean_ci(&hit, 8, 14);
    let during = mean_ci(&hit, 15, 20);
    let after = mean_ci(&hit, 22, 30);
    let base_during = mean_ci(&base, 15, 20);
    let base_after = mean_ci(&base, 22, 30);
    let restart_after = mean_ci(&restarted, 22, 30);
    // Everyone still streaming at the horizon.
    let world = &hit.world;
    let users = || world.net.iter_alive().filter(|n| n.class.is_user());
    let alive = users().count();
    let streaming = users()
        .filter(|n| {
            world
                .peer(n.id)
                .is_some_and(|p| p.parents().iter().any(Option::is_some))
        })
        .count();
    let mut m = Measured::default();
    let _ = writeln!(
        m.table,
        "  continuity: before {}  crash-window {}  after {}  (baseline {} then {}; restarted {})",
        pct(before),
        pct(during),
        pct(after),
        pct(base_during),
        pct(base_after),
        pct(restart_after)
    );
    let _ = writeln!(
        m.table,
        "  {streaming}/{alive} live peers streaming after the crash"
    );
    m.set("crash_window_ci", during);
    m.set("after_minus_baseline_ci", after - base_during);
    // The control: both runs over minutes 22–30, so the uncrashed run's
    // own fall between the windows cancels.
    m.set("after_minus_baseline_same_window_ci", after - base_after);
    m.set(
        "restart_minus_baseline_same_window_ci",
        restart_after - base_after,
    );
    m.set("streaming_share", streaming as f64 / alive as f64);
    m
}

/// EXT-CHANNELS: one audience split over four channels by Zipf
/// popularity.
fn ext_channels(r: u64) -> Measured {
    let cs = ChannelScenario {
        base: steady_scenario(2.4, 25, 2929 + r),
        channels: 4,
        zipf_s: 1.1,
        switch_prob: 0.15,
    };
    let runs = cs.run();
    let zappers = zappers(&runs).len() as f64;
    let points = runs.into_iter().map(|run| {
        let label = format!("{} ({:.0}%)", run.rank, 100.0 * run.share);
        (label, move || run.artifacts)
    });
    let (mut m, p) = sweep("rank (share)", points, SimTime::from_mins(25), &[]);
    let (top, niche) = (&p[0], &p[p.len() - 1]);
    m.set(
        "top_over_niche_population",
        top.population / niche.population,
    );
    m.set("top_minus_niche_ci", top.continuity - niche.continuity);
    m.set(
        "niche_over_top_ready_median",
        niche.ready_median / top.ready_median,
    );
    m.set("zappers", zappers);
    m
}

/// EXT: the paper's §VI open issues — peer-wise performance, resource
/// bottlenecks, control overhead.
fn ext(r: u64) -> Measured {
    let artifacts = steady(0.6, 40, 2727 + r);
    let view = LogView::build(&artifacts);
    let mut m = Measured::default();

    let pw = peerwise(&view, SimTime::from_mins(2), SimTime::from_mins(30));
    let t = &mut m.table;
    let _ = writeln!(t, "EXT-PEERWISE per-session continuity:");
    let _ = writeln!(
        t,
        "  median {:.3}  p10 {:.3}  perfect {:.1}%  poor(<90%) {:.1}%",
        pw.session_ci.median().unwrap_or(f64::NAN),
        pw.session_ci.quantile(0.10).unwrap_or(f64::NAN),
        100.0 * pw.perfect_fraction,
        100.0 * pw.poor_fraction
    );
    let _ = writeln!(t, "  adaptation rate by session age (per peer per minute):");
    for (age, rate) in pw.adaptation_rate_by_age.iter().take(8) {
        let _ = writeln!(t, "    ≤{age:>4.0} min: {rate:.2}");
    }

    let res = resources(&artifacts, SimTime::from_mins(40));
    t.push_str(&res.render());
    let util = |class| res.utilization(class).unwrap_or(0.0);
    let public_util = util("direct").max(util("upnp"));

    let ov = overhead(&artifacts);
    t.push_str(&ov.render());

    m.set("median_session_ci", pw.session_ci.median().unwrap_or(0.0));
    m.set("stabilizes", indicator(pw.stabilizes(2) == Some(true)));
    m.set("public_over_nat_util", public_util / util("nat"));
    m.set("supply_ratio", res.supply_ratio);
    m.set("control_over_video", ov.ratio());
    m.set("control_bytes", ov.control_bytes as f64);
    m
}
