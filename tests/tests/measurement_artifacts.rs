//! The paper's measurement artifacts must *emerge* from our log pipeline:
//! the 5-minute status granularity censors the bad tail of churning
//! peers (§V.D), and the §V.B classification misfiles permissive-NAT
//! users as UPnP ("errors can occur").

use coolstreaming::experiments::LogView;
use coolstreaming::{RunOptions, Scenario, ScenarioSpec};
use cs_integration::session_table_text;
use cs_net::{ConnectivityPolicy, NodeClass};
use cs_proto::DepartReason;
use cs_sim::SimTime;

#[test]
fn giveup_sessions_leave_no_final_qos_report() {
    // Force a hostile overlay so give-ups occur: starve it of servers.
    let mut scenario = Scenario::steady(0.6)
        .with_seed(7)
        .with_window(SimTime::ZERO, SimTime::from_mins(25))
        .with_servers(1, cs_net::Bandwidth::mbps(6));
    scenario.params.giveup_ticks = 8;
    let artifacts = scenario.run();
    let view = LogView::build(&artifacts);

    let giveups: Vec<_> = artifacts
        .world
        .sessions
        .iter()
        .filter(|r| r.reason == Some(DepartReason::GiveUp))
        .collect();
    assert!(
        !giveups.is_empty(),
        "scenario failed to produce any give-up departures"
    );

    // §V.D: the low-continuity terminal period of these sessions is not
    // reported, because reporting is periodic and they leave first. So
    // the aggregate log-reported loss must undercount ground truth.
    let mut true_due = 0u64;
    let mut true_missed = 0u64;
    let mut logged_due = 0u64;
    let mut logged_missed = 0u64;
    for rec in &giveups {
        true_due += rec.due;
        true_missed += rec.missed;
        if let Some(s) = view.sessions.iter().find(|s| s.node == rec.node.0) {
            for &(_, d, m) in &s.qos {
                logged_due += d;
                logged_missed += m;
            }
        }
    }
    let true_loss = true_missed as f64 / true_due.max(1) as f64;
    let logged_loss = logged_missed as f64 / logged_due.max(1) as f64;
    assert!(
        logged_loss < true_loss,
        "reporting should censor the bad tail: logged {logged_loss:.3} vs true {true_loss:.3}"
    );
}

#[test]
fn permissive_nat_users_classify_as_upnp() {
    // Make permissive NATs common so the artifact is statistically
    // visible.
    let mut scenario = Scenario::steady(0.5)
        .with_seed(8)
        .with_window(SimTime::ZERO, SimTime::from_mins(25));
    scenario.policy = ConnectivityPolicy {
        nat_accept_prob: 0.5,
        firewall_accept_prob: 0.0,
    };
    let artifacts = scenario.run();
    let view = LogView::build(&artifacts);

    // Ground truth: NAT sessions that the log classifies as UPnP exist.
    let mut nat_as_upnp = 0;
    let mut nat_total = 0;
    for s in &view.sessions {
        let rec = &artifacts.world.sessions[s.node as usize];
        if rec.class == NodeClass::Nat {
            nat_total += 1;
            if s.infer_class() == Some(NodeClass::Upnp) {
                nat_as_upnp += 1;
            }
        }
    }
    assert!(nat_total > 100);
    let rate = nat_as_upnp as f64 / nat_total as f64;
    assert!(
        rate > 0.1,
        "expected a visible misclassification rate, got {rate:.3} ({nat_as_upnp}/{nat_total})"
    );
}

#[test]
fn classification_is_faithful_for_strict_middleboxes() {
    // With strict NAT/firewall policy there is no inference ambiguity
    // for *reporting* users: private+incoming cannot happen.
    let mut scenario = Scenario::steady(0.5)
        .with_seed(9)
        .with_window(SimTime::ZERO, SimTime::from_mins(25));
    scenario.policy = ConnectivityPolicy::strict();
    let artifacts = scenario.run();
    let view = LogView::build(&artifacts);
    for s in &view.sessions {
        let rec = &artifacts.world.sessions[s.node as usize];
        if rec.class == NodeClass::Nat {
            assert_ne!(
                s.infer_class(),
                Some(NodeClass::Upnp),
                "strict NAT misclassified as UPnP: node {}",
                s.node
            );
        }
        // Public users that had an incoming partner and reported it are
        // correctly recovered.
        if rec.class == NodeClass::DirectConnect && s.max_incoming > 0 {
            assert_eq!(s.infer_class(), Some(NodeClass::DirectConnect));
        }
    }
}

#[test]
fn reported_continuity_is_not_pessimistic() {
    // The complementary direction of the §V.D artifact: reported CI can
    // only overstate (never understate) the true experience, because the
    // unreported intervals are the bad ones.
    let artifacts = Scenario::steady(0.5)
        .with_seed(10)
        .with_window(SimTime::ZERO, SimTime::from_mins(30))
        .run();
    let view = LogView::build(&artifacts);
    let mut logged_due = 0u64;
    let mut logged_missed = 0u64;
    for s in &view.sessions {
        for &(_, d, m) in &s.qos {
            logged_due += d;
            logged_missed += m;
        }
    }
    let mut true_due = 0u64;
    let mut true_missed = 0u64;
    for r in artifacts
        .world
        .sessions
        .iter()
        .filter(|r| r.class.is_user())
    {
        true_due += r.due;
        true_missed += r.missed;
    }
    let logged_ci = 1.0 - logged_missed as f64 / logged_due.max(1) as f64;
    let true_ci = 1.0 - true_missed as f64 / true_due.max(1) as f64;
    assert!(
        logged_ci >= true_ci - 0.001,
        "logged CI {logged_ci:.4} should not be below true CI {true_ci:.4}"
    );
}

/// Status reports draw no randomness and change no protocol state, so
/// the report period cannot move ground truth: `scenarios/steady_state.json`'s
/// audience over 15 minutes, reporting every minute or every five (the
/// first report at 60 s in both), must leave the finalised session table
/// byte-identical, at two seeds.
#[test]
fn the_report_period_leaves_ground_truth_unchanged() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../scenarios/steady_state.json"
    );
    let text = std::fs::read_to_string(path).expect("readable scenario file");
    for seed in [401, 402] {
        let table = |period: SimTime| {
            let mut spec = ScenarioSpec::from_json(&text).expect("steady_state.json parses");
            spec.seed = Some(seed);
            spec.end_s = Some(15 * 60);
            let compiled = spec.compile().expect("the window compiles");
            let mut scenario = compiled.scenario;
            scenario.params.report_interval = period;
            assert_eq!(scenario.params.first_report_delay, SimTime::from_secs(60));
            let run = scenario.run_injected_observed(compiled.injections, RunOptions::default());
            let table = session_table_text(&run.artifacts.world.sessions);
            (table, run.artifacts.run_stats.events)
        };
        let (minutely, events_1) = table(SimTime::from_secs(60));
        let (five_minutely, events_5) = table(SimTime::from_secs(300));
        assert!(
            events_1 > events_5,
            "seed {seed}: the period changed nothing"
        );
        assert!(
            minutely.lines().count() > 200,
            "seed {seed}: too few sessions"
        );
        assert_eq!(minutely, five_minutely, "seed {seed}");
    }
}
