//! Oracle rows for the paper's own results: the §V figures and the §IV.C
//! closed forms. Each row's reference seed is the constant in its `run`;
//! replication `r` adds `r` to it.

use std::fmt::Write as _;

use cs_logging::UserId;
use cs_model::ConvergenceModel;
use cs_net::{Bandwidth, ConnectivityPolicy, LatencyModel, Network, NodeClass, NodeId};
use cs_proto::{CsWorld, Event, Params, UserSpec};
use cs_sim::{Engine, SimTime};
use cs_workload::{Spike, Workload};

use super::registry::{pct, steady, steady_scenario, Check, Measured, Op, Row};
use super::{
    fig10_sessions, fig3_user_types, fig4_convergence, fig5_population, fig6_startup,
    fig7_ready_by_period, fig8_continuity, fig9_point, render_fig7, render_population, LogView,
};
use crate::scenario::Scenario;

use Op::{Ge, Gt, Le, Lt};

/// One predicate per line: the table reads as the claims it checks.
#[rustfmt::skip]
pub(super) fn rows() -> Vec<Row> {
    vec![
        Row {
            name: "FIG3",
            ids: &["FIG3A", "FIG3B"],
            run: fig3,
            checks: vec![
                Check::new("FIG3A", "truth_public_share", Gt, 0.25, "ground-truth public share within 5 pp of 30 %").paper(0.30),
                Check::new("FIG3A", "truth_public_share", Lt, 0.35, "ground-truth public share within 5 pp of 30 %").paper(0.30),
                Check::new("FIG3A", "inferred_public_share", Gt, 0.10, "the log-inferred public share is positive"),
                Check::new("FIG3A", "inferred_minus_truth", Le, 0.02, "the log undercounts public users (§V.B: errors can occur)"),
                Check::new("FIG3B", "top30_upload_share", Gt, 0.80, "the top 30 % of peers upload more than 80 %").paper(0.80),
                Check::new("FIG3B", "public_upload_share", Gt, 0.70, "public classes carry most of the upload"),
                Check::new("FIG3B", "upload_gini", Gt, 0.6, "upload contributions are heavily skewed"),
            ],
        },
        Row {
            name: "FIG4",
            ids: &["FIG4"],
            run: fig4,
            checks: vec![
                Check::new("FIG4", "final_public_share", Gt, 0.6, "converged public+server parent share dominates"),
                Check::new("FIG4", "natfw_link_share", Lt, 0.20, "NAT↔NAT partnership links are rare"),
                Check::new("FIG4", "mean_depth", Gt, 1.0, "the overlay is more than a star"),
                Check::new("FIG4", "mean_depth", Lt, 10.0, "the overlay is shallow"),
                Check::new("FIG4", "model_gap", Lt, 0.35, "Markov model and simulation agree on the regime"),
            ],
        },
        Row {
            name: "FIG5",
            ids: &["FIG5A", "FIG5B"],
            run: fig5,
            checks: vec![
                Check::new("FIG5A", "noon_minus_night", Gt, 0.0, "more viewers at noon than at night"),
                Check::new("FIG5A", "peak_minus_noon", Gt, 0.0, "more viewers at the peak than at noon"),
                Check::new("FIG5A", "peak_hour", Ge, 18.0, "the peak falls in prime time"),
                Check::new("FIG5A", "peak_hour", Lt, 22.5, "the peak falls in prime time"),
                Check::new("FIG5A", "peak", Ge, 100.0, "the peak population is large enough to be meaningful"),
                Check::new("FIG5B", "after_end_over_peak", Lt, 0.6, "the 22:00 program end is a cliff"),
            ],
        },
        Row {
            name: "FIG6",
            ids: &["FIG6"],
            run: fig6,
            checks: vec![
                Check::new("FIG6", "start_sub_median_s", Lt, 5.0, "start-subscription is seconds-fast"),
                Check::new("FIG6", "ready_median_s", Ge, 8.0, "media-ready median in the paper's regime"),
                Check::new("FIG6", "ready_median_s", Lt, 45.0, "media-ready median in the paper's regime"),
                Check::new("FIG6", "fill_median_s", Ge, 8.0, "buffer fill near the paper's 10–20 s"),
                Check::new("FIG6", "fill_median_s", Lt, 30.0, "buffer fill near the paper's 10–20 s"),
                Check::new("FIG6", "ready_tail_ratio", Gt, 1.8, "media-ready time is heavy-tailed"),
                Check::new("FIG6", "ready_minus_start_sub_s", Gt, 0.0, "media-ready comes after start-subscription"),
            ],
        },
        Row {
            name: "FIG7",
            ids: &["FIG7"],
            run: fig7,
            checks: vec![
                Check::new("FIG7", "iii_minus_i_s", Gt, 0.0, "period iii is slower than period i"),
                Check::new("FIG7", "iii_minus_ii_s", Gt, 0.0, "period iii is slower than period ii"),
                Check::new("FIG7", "iii_over_iv", Ge, 0.95, "period iii at least matches period iv"),
                Check::new("FIG7", "joins_i", Gt, 50.0, "period i has enough joins"),
                Check::new("FIG7", "joins_ii", Gt, 50.0, "period ii has enough joins"),
                Check::new("FIG7", "joins_iii", Gt, 50.0, "period iii has enough joins"),
                Check::new("FIG7", "joins_iv", Gt, 50.0, "period iv has enough joins"),
            ],
        },
        Row {
            name: "FIG8",
            ids: &["FIG8"],
            run: fig8,
            checks: vec![
                Check::new("FIG8", "direct_ci", Gt, 0.93, "direct reported continuity stays high").paper(0.98),
                Check::new("FIG8", "upnp_ci", Gt, 0.93, "UPnP reported continuity stays high").paper(0.98),
                Check::new("FIG8", "nat_ci", Gt, 0.93, "NAT reported continuity stays high").paper(0.98),
                Check::new("FIG8", "firewall_ci", Gt, 0.93, "firewall reported continuity stays high").paper(0.98),
                Check::new("FIG8", "direct_minus_nat", Le, 0.01, "reported direct CI does not exceed NAT's (§V.D artifact)"),
                Check::new("FIG8", "nat_truth_minus_logged", Le, 0.005, "reporting censors NAT's bad tail"),
            ],
        },
        Row {
            name: "FIG9",
            ids: &["FIG9A", "FIG9B"],
            run: fig9,
            checks: vec![
                Check::new("FIG9B", "ci_rate_0_6", Gt, 0.93, "continuity stays high at 0.6 joins/s").paper(0.97),
                Check::new("FIG9B", "ci_rate_1_2", Gt, 0.93, "continuity stays high at 1.2 joins/s").paper(0.97),
                Check::new("FIG9B", "ci_rate_2_4", Gt, 0.93, "continuity stays high at 2.4 joins/s").paper(0.97),
                Check::new("FIG9B", "ci_rate_3_6", Gt, 0.93, "continuity stays high at 3.6 joins/s").paper(0.97),
                Check::new("FIG9A", "ci_spread", Lt, 0.06, "continuity is flat across a 6× size range"),
                Check::new("FIG9A", "population_ratio", Gt, 8.0, "the sweep spans an order of magnitude in size"),
            ],
        },
        Row {
            name: "FIG10",
            ids: &["FIG10A", "FIG10B"],
            run: fig10,
            checks: vec![
                Check::new("FIG10A", "sub_minute_fraction", Ge, 0.05, "the sub-minute session mass is significant"),
                Check::new("FIG10A", "sub_minute_fraction", Lt, 0.6, "the sub-minute session mass is significant"),
                Check::new("FIG10A", "duration_tail_ratio", Gt, 5.0, "session durations are heavy-tailed"),
                Check::new("FIG10B", "retried_fraction", Ge, 0.03, "a noticeable share of users retries").paper(0.20),
                Check::new("FIG10B", "retried_fraction", Lt, 0.6, "a noticeable share of users retries").paper(0.20),
                Check::new("FIG10B", "crowd_minus_calm_retried", Gt, 0.0, "a flash crowd raises retries"),
            ],
        },
        eq_row(),
    ]
}

fn fig3(r: u64) -> Measured {
    let artifacts = steady(0.5, 30, 303 + r);
    let view = LogView::build(&artifacts);
    let fig3 = fig3_user_types(&artifacts, &view);
    let share = |counts: &std::collections::BTreeMap<&str, usize>| {
        let total: usize = counts.values().sum();
        let public = counts.get("direct").unwrap_or(&0) + counts.get("upnp").unwrap_or(&0);
        public as f64 / total.max(1) as f64
    };
    let (truth, inferred) = (share(&fig3.truth), share(&fig3.inferred));
    let mut m = Measured::new(fig3.render());
    m.set("truth_public_share", truth);
    m.set("inferred_public_share", inferred);
    m.set("inferred_minus_truth", inferred - truth);
    m.set("top30_upload_share", fig3.top30_upload_share);
    m.set("public_upload_share", fig3.public_upload_share);
    m.set("upload_gini", fig3.gini);
    m
}

fn fig4(r: u64) -> Measured {
    let artifacts = steady(0.8, 40, 404 + r);
    let fig4 = fig4_convergence(&artifacts);
    let final_share = fig4.final_public_share();
    let p = artifacts.world.params;
    let model = ConvergenceModel::from_competition(
        2,
        24,
        p.ts_blocks as f64,
        p.ta.as_secs_f64(),
        p.substream_block_rate(),
        0.8,
        0.02,
    );
    let mut table = fig4.render();
    let _ = writeln!(
        table,
        "  model stationary {:.1}% vs simulated {:.1}%",
        100.0 * model.stationary(),
        100.0 * final_share
    );
    let last = fig4.series.last();
    let mut m = Measured::new(table);
    m.set("final_public_share", final_share);
    m.set("natfw_link_share", last.map_or(1.0, |&(_, _, n, _)| n));
    m.set("mean_depth", last.map_or(f64::NAN, |&(_, _, _, d)| d));
    m.set("model_gap", (model.stationary() - final_share).abs());
    m
}

fn fig5(r: u64) -> Measured {
    let artifacts = Scenario::event_day(0.01).with_seed(505 + r).run();
    let view = LogView::build(&artifacts);
    let day = fig5_population(
        &view,
        SimTime::ZERO,
        SimTime::from_hours(24),
        SimTime::from_mins(15),
    );
    let evening = fig5_population(
        &view,
        SimTime::from_hours(18),
        SimTime::from_hours(24),
        SimTime::from_mins(5),
    );
    let table = format!(
        "{}FIG5b evening zoom:\n{}",
        render_population(&day),
        render_population(&evening)
    );
    // The population of the bin nearest `h` hours.
    let pop_at = |h: f64| -> f64 {
        let t = SimTime::from_secs_f64(h * 3600.0);
        day.iter()
            .min_by_key(|(bt, _)| {
                bt.saturating_sub(t)
                    .as_micros()
                    .max(t.saturating_sub(*bt).as_micros())
            })
            .map_or(0.0, |(_, c)| *c as f64)
    };
    let (night, noon, after_end) = (pop_at(3.0), pop_at(12.5), pop_at(22.6));
    let (peak_t, peak) = day
        .iter()
        .max_by_key(|(_, c)| *c)
        .map_or((f64::NAN, f64::NAN), |(t, c)| (t.hour_of_day(), *c as f64));
    let mut m = Measured::new(table);
    m.set("noon_minus_night", noon - night);
    m.set("peak_minus_noon", peak - noon);
    m.set("peak_hour", peak_t);
    m.set("peak", peak);
    m.set("after_end_over_peak", after_end / peak);
    m
}

fn fig6(r: u64) -> Measured {
    let artifacts = steady(0.5, 30, 606 + r);
    let view = LogView::build(&artifacts);
    let fig6 = fig6_startup(&view, SimTime::ZERO, SimTime::MAX);
    let start_sub = fig6.start_sub.median().unwrap_or(f64::NAN);
    let ready = fig6.ready.median().unwrap_or(f64::NAN);
    let mut m = Measured::new(fig6.render());
    m.set("start_sub_median_s", start_sub);
    m.set("ready_median_s", ready);
    m.set(
        "fill_median_s",
        fig6.buffer_fill.median().unwrap_or(f64::NAN),
    );
    m.set(
        "ready_tail_ratio",
        fig6.ready.tail_ratio().unwrap_or(f64::NAN),
    );
    m.set("ready_minus_start_sub_s", ready - start_sub);
    m
}

fn fig7(r: u64) -> Measured {
    let artifacts = Scenario::event_day(0.01).with_seed(707 + r).run();
    let view = LogView::build(&artifacts);
    let periods = fig7_ready_by_period(&view);
    let median = |ix: usize| periods[ix].1.median().unwrap_or(f64::NAN);
    let (m_i, m_ii, m_iii, m_iv) = (median(0), median(1), median(2), median(3));
    let mut m = Measured::new(render_fig7(&periods));
    m.set("iii_minus_i_s", m_iii - m_i);
    m.set("iii_minus_ii_s", m_iii - m_ii);
    m.set("iii_over_iv", m_iii / m_iv);
    for (name, (_, cdf)) in ["joins_i", "joins_ii", "joins_iii", "joins_iv"]
        .into_iter()
        .zip(&periods)
    {
        m.set(name, cdf.len() as f64);
    }
    m
}

fn fig8(r: u64) -> Measured {
    let artifacts = steady(0.6, 45, 808 + r);
    let view = LogView::build(&artifacts);
    let fig8 = fig8_continuity(
        &view,
        SimTime::from_mins(5),
        SimTime::from_mins(45),
        SimTime::from_mins(5),
    );
    // Ground truth counterpoint: per-session true continuity of NAT peers
    // (including sessions that died before reporting) against what the
    // log reports for them.
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let nat_true: Vec<f64> = artifacts
        .world
        .sessions
        .iter()
        .filter(|s| s.class == NodeClass::Nat)
        .filter_map(|s| s.continuity())
        .collect();
    let nat_logged: Vec<f64> = view
        .sessions
        .iter()
        .filter(|s| s.infer_class() == Some(NodeClass::Nat))
        .filter_map(|s| s.continuity())
        .collect();
    let (t, l) = (mean(&nat_true), mean(&nat_logged));
    let mut table = fig8.render();
    let _ = writeln!(
        table,
        "  NAT ground-truth CI {:.2}% vs log-reported {:.2}%",
        100.0 * t,
        100.0 * l
    );
    let ci = |class: &str| fig8.mean_of(class).unwrap_or(f64::NAN);
    let mut m = Measured::new(table);
    // A class without QoS reports reads 0 %, as low as continuity goes.
    m.set("direct_ci", fig8.mean_of("direct").unwrap_or(0.0));
    m.set("upnp_ci", fig8.mean_of("upnp").unwrap_or(0.0));
    m.set("nat_ci", fig8.mean_of("nat").unwrap_or(0.0));
    m.set("firewall_ci", fig8.mean_of("firewall").unwrap_or(0.0));
    m.set("direct_minus_nat", ci("direct") - ci("nat"));
    m.set("nat_truth_minus_logged", t - l);
    m
}

fn fig9(r: u64) -> Measured {
    let horizon = SimTime::from_mins(30);
    // Below ~300 concurrent users the overlay is too sparse for the
    // paper's regime (finite-size effect); those rows are informational.
    let rates = [0.15, 0.3, 0.6, 1.2, 2.4, 3.6];
    let names = [
        None,
        None,
        Some("ci_rate_0_6"),
        Some("ci_rate_1_2"),
        Some("ci_rate_2_4"),
        Some("ci_rate_3_6"),
    ];
    let mut m = Measured::new("  join-rate   mean-pop   continuity   ready-frac\n".into());
    let mut points = Vec::new();
    for &rate in &rates {
        let view = LogView::build(&steady(rate, 30, 909 + r));
        let p = fig9_point(&view, SimTime::from_mins(5), horizon);
        let _ = writeln!(
            m.table,
            "  {rate:>8.2}   {:>8.0}   {:>9.2}%   {:>9.2}%",
            p.mean_population,
            100.0 * p.mean_continuity,
            100.0 * p.ready_fraction
        );
        points.push(p);
    }
    let mut asserted = Vec::new();
    for ((rate, p), name) in rates.iter().zip(&points).zip(names) {
        match name {
            Some(name) => {
                m.set(name, p.mean_continuity);
                asserted.push(p.mean_continuity);
            }
            None => {
                let _ = writeln!(
                    m.table,
                    "  (info) rate {rate}: CI {} — below the paper's size regime",
                    pct(p.mean_continuity)
                );
            }
        }
    }
    let spread = asserted.iter().copied().fold(f64::MIN, f64::max)
        - asserted.iter().copied().fold(f64::MAX, f64::min);
    m.set("ci_spread", spread);
    if let (Some(small), Some(large)) = (points.first(), points.last()) {
        m.set(
            "population_ratio",
            large.mean_population / small.mean_population,
        );
    }
    m
}

fn fig10(r: u64) -> Measured {
    // Evening window of the event day — joins, program end, churn.
    let artifacts = Scenario::event_day(0.02)
        .with_seed(1010 + r)
        .with_window(SimTime::from_hours(18), SimTime::from_hours(23))
        .run();
    let fig10 = fig10_sessions(&LogView::build(&artifacts));
    // A flash crowd raises the retry rate (the paper's closing point).
    let calm = steady_scenario(0.4, 25, 11 + r);
    let mut wl = Workload::steady(0.4);
    wl.profile.spikes.push(Spike {
        start: SimTime::from_mins(8),
        duration: SimTime::from_mins(4),
        multiplier: 12.0,
    });
    let crowded = calm.clone().with_workload(wl);
    let retried = |s: &Scenario| fig10_sessions(&LogView::build(&s.run())).retried_fraction;
    let (calm_retry, crowd_retry) = (retried(&calm), retried(&crowded));
    let mut table = fig10.render();
    let _ = writeln!(
        table,
        "  retried fraction: calm {:.1}% vs flash crowd {:.1}%",
        100.0 * calm_retry,
        100.0 * crowd_retry
    );
    let mut m = Measured::new(table);
    m.set("sub_minute_fraction", fig10.sub_minute_fraction);
    m.set(
        "duration_tail_ratio",
        fig10.durations.tail_ratio().unwrap_or(0.0),
    );
    m.set("retried_fraction", fig10.retried_fraction);
    m.set("crowd_minus_calm_retried", crowd_retry - calm_retry);
    m
}

// ------------------------------------------------------------- EQ3–EQ6 --

/// Params that disable every feedback loop: one sub-stream, no
/// adaptation, no give-up, no impatience, so that the protocol's fluid
/// push matches the §IV.C closed forms.
fn micro_params() -> Params {
    Params {
        substreams: 1,
        ts_blocks: u64::MAX / 4,
        tp_blocks: 96,
        low_water_blocks: 0,
        giveup_loss: 1.0, // effectively never trips (giveup_ticks is huge)
        giveup_ticks: u32::MAX,
        playback_delay_blocks: 10,
        ..Params::default()
    }
}

/// Blocks the child must fall behind in the Eq. 4 run.
const EQ4_FALL: f64 = 48.0;
/// Children of the Eq. 5 server: one more than its capacity `D`.
const EQ5_D: u32 = 4;
/// Parent degrees of the Eq. 6 sweep.
const EQ6_DEGREES: [u32; 4] = [1, 2, 4, 8];

/// The closed forms the EQ row is checked against: Eq. 3 catch-up at
/// 2× and 3× the sub-stream rate, Eq. 4 starvation at 0.5×, Eq. 5's lag
/// growth with `D + 1` children on a `D`-capacity server.
fn eq_predictions() -> [f64; 4] {
    let p = micro_params();
    let rate = p.blocks_per_sec();
    let catch_up = |mult: f64| {
        cs_model::catch_up_time(p.tp_blocks as f64, rate * mult, rate).unwrap_or(f64::NAN)
    };
    [
        catch_up(2.0),
        catch_up(3.0),
        cs_model::starvation_time(EQ4_FALL, rate * 0.5, rate).unwrap_or(f64::NAN),
        rate - cs_model::diluted_rate(EQ5_D, rate),
    ]
}

fn eq_row() -> Row {
    let [up2, up3, starve, dilute] = eq_predictions();
    // Each measured value must land within `pred · 0.5 + slack` of its
    // closed form.
    let band = |id, value, pred: f64, slack: f64, text| {
        let tol = pred * 0.5 + slack;
        [
            Check::new(id, value, Ge, pred - tol, text).paper(pred),
            Check::new(id, value, Le, pred + tol, text).paper(pred),
        ]
    };
    let mut checks = Vec::new();
    checks.extend(band(
        "EQ3",
        "catch_up_2x_s",
        up2,
        3.0,
        "catch-up at 2× follows Eq. 3",
    ));
    checks.extend(band(
        "EQ3",
        "catch_up_3x_s",
        up3,
        3.0,
        "catch-up at 3× follows Eq. 3",
    ));
    checks.extend(band(
        "EQ4",
        "starvation_s",
        starve,
        4.0,
        "starvation follows Eq. 4",
    ));
    checks.extend(band(
        "EQ5",
        "lag_growth_blocks_per_s",
        dilute,
        0.3,
        "dilution follows Eq. 5",
    ));
    // Eq. 6: P(lose) falls with parent degree; the first degree has no
    // predecessor, so its bound is infinite.
    checks.extend([
        Check::new(
            "EQ6",
            "p_lose_d1",
            Le,
            f64::INFINITY,
            "P(lose) at D_p = 1 is defined",
        ),
        Check::new(
            "EQ6",
            "p_lose_d2_minus_d1",
            Le,
            0.0,
            "P(lose) falls from D_p = 1 to 2",
        ),
        Check::new(
            "EQ6",
            "p_lose_d4_minus_d2",
            Le,
            0.0,
            "P(lose) falls from D_p = 2 to 4",
        ),
        Check::new(
            "EQ6",
            "p_lose_d8_minus_d4",
            Le,
            0.0,
            "P(lose) falls from D_p = 4 to 8",
        ),
    ]);
    Row {
        name: "EQ3-6",
        ids: &["EQ3", "EQ4", "EQ5", "EQ6"],
        run: eq,
        checks,
    }
}

/// A world with one server of the given uplink and `children` peers that
/// join at t = 60 s and never leave.
fn micro_world(server_bw: Bandwidth, children: u32, seed: u64) -> Engine<CsWorld> {
    let net = Network::new(ConnectivityPolicy::strict(), LatencyModel::default(), seed);
    let world = CsWorld::new(micro_params(), net, 1, server_bw, seed);
    let mut eng = Engine::new(world);
    for (t, e) in eng.world().initial_events() {
        eng.schedule_at(t, e);
    }
    for u in 0..children {
        eng.schedule_at(
            SimTime::from_secs(60),
            Event::Arrive(UserSpec {
                user: UserId(u),
                class: NodeClass::Nat,
                upload: Bandwidth::kbps(64),
                leave_at: SimTime::from_hours(2),
                patience: SimTime::from_hours(1),
                retries_left: 0,
                retry_index: 0,
            }),
        );
    }
    eng
}

/// Sub-stream-0 lag of node `id` behind the live edge at `t`, in blocks.
fn lag_of(eng: &Engine<CsWorld>, id: NodeId, t: SimTime) -> Option<f64> {
    let world = eng.world();
    let own = world
        .peer(id)?
        .buffer()
        .and_then(|b| b.latest(0))
        .unwrap_or(0);
    Some(world.params.live_edge(t).unwrap_or(0) as f64 - own as f64)
}

/// Step in 0.5 s until the first child's lag satisfies `pred`; seconds
/// since its start-subscription, or NaN if `deadline` comes first.
fn time_until(eng: &mut Engine<CsWorld>, deadline: SimTime, pred: impl Fn(i64) -> bool) -> f64 {
    let child = NodeId(2);
    let mut t = eng.now();
    loop {
        t += SimTime::from_millis(500);
        if t > deadline {
            return f64::NAN;
        }
        eng.run_until(t);
        let world = eng.world();
        let Some(peer) = world.peer(child) else {
            continue;
        };
        let Some(own) = peer.buffer().and_then(|b| b.latest(0)) else {
            continue;
        };
        let edge = world.params.live_edge(t).unwrap_or(0);
        if pred(edge as i64 - own as i64) {
            return peer
                .start_sub()
                .map_or(f64::NAN, |start| t.saturating_sub(start).as_secs_f64());
        }
    }
}

fn eq(r: u64) -> Measured {
    let params = micro_params();
    let rate = params.blocks_per_sec(); // R/K with K = 1: 9.6 blocks/s
    let block_bits = params.block_bits() as f64;
    let [up2, up3, starve, dilute] = eq_predictions();
    let mut m = Measured::default();
    let t = &mut m.table;

    // Eq. 3: catch-up at r↑ = 2×, 3× stream rate.
    let _ = writeln!(
        t,
        "  Eq.3 catch-up (l = T_p = {} blocks):",
        params.tp_blocks
    );
    // Server lag means "caught up" ≈ within server_lag of the edge.
    let slack = (params.server_lag.as_secs_f64() * rate).ceil() as i64 + 2;
    let mut catch_up = Vec::new();
    for (mult, predicted) in [(2.0f64, up2), (3.0, up3)] {
        let bw = Bandwidth((rate * mult * block_bits) as u64);
        let mut eng = micro_world(bw, 1, 31 + r);
        let measured = time_until(&mut eng, SimTime::from_secs(300), |lag| lag <= slack);
        let _ = writeln!(
            t,
            "    r↑ = {mult:.0}×R/K: measured {measured:.1}s vs Eq.3 {predicted:.1}s"
        );
        catch_up.push(measured);
    }

    // Eq. 4: starvation at r↓ = 0.5× stream rate. The initial lag after
    // subscription is ≈ T_p; wait until it grows by EQ4_FALL.
    let bw = Bandwidth((rate * 0.5 * block_bits) as u64);
    let mut eng = micro_world(bw, 1, 32 + r);
    let start_lag = params.tp_blocks as i64;
    let fall = EQ4_FALL as i64;
    let starvation = time_until(&mut eng, SimTime::from_secs(400), |lag| {
        lag >= start_lag + fall
    });
    let _ = writeln!(
        t,
        "  Eq.4 starvation: measured {starvation:.1}s to fall {fall} more blocks vs {starve:.1}s"
    );

    // Eq. 5: with D+1 children on a D-capacity server each is served at
    // D/(D+1)·R/K, so lag grows at R/K/(D+1) blocks/s. Measure the growth
    // over 60 s.
    let bw = Bandwidth((rate * EQ5_D as f64 * block_bits) as u64);
    let mut eng = micro_world(bw, EQ5_D + 1, 33 + r);
    let mean_lag = |eng: &Engine<CsWorld>, at: SimTime| {
        (0..=EQ5_D)
            .map(|i| lag_of(eng, NodeId(2 + i), at).unwrap_or(f64::NAN))
            .sum::<f64>()
            / (EQ5_D + 1) as f64
    };
    let (t0, t1) = (SimTime::from_secs(120), SimTime::from_secs(180));
    eng.run_until(t0);
    let lag0 = mean_lag(&eng, t0);
    eng.run_until(t1);
    let growth = (mean_lag(&eng, t1) - lag0) / 60.0;
    let _ = writeln!(
        t,
        "  Eq.5 dilution (D={EQ5_D}): mean lag growth {growth:.2} blocks/s vs R/K/(D+1) = {dilute:.2}"
    );

    // Eq. 6: loss probability against parent degree.
    let _ = writeln!(t, "  Eq.6 competition-loss probability (uniform slack):");
    let p_lose: Vec<f64> = EQ6_DEGREES
        .iter()
        .map(|&d| cs_model::p_lose_within(d, 96.0, 10.0, 1.6))
        .collect();
    for (d, p) in EQ6_DEGREES.iter().zip(&p_lose) {
        let _ = writeln!(t, "    D_p={d}: P(lose within T_a) = {p:.3}");
    }

    m.set("catch_up_2x_s", catch_up[0]);
    m.set("catch_up_3x_s", catch_up[1]);
    m.set("starvation_s", starvation);
    m.set("lag_growth_blocks_per_s", growth);
    m.set("p_lose_d1", p_lose[0]);
    m.set("p_lose_d2_minus_d1", p_lose[1] - p_lose[0]);
    m.set("p_lose_d4_minus_d2", p_lose[2] - p_lose[1]);
    m.set("p_lose_d8_minus_d4", p_lose[3] - p_lose[2]);
    m
}
