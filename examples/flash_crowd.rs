//! Flash-crowd stress (Figs. 7, 9b, 10b): sweep the arrival rate and
//! watch what it does to startup latency, continuity and retries.
//!
//! ```sh
//! cargo run --release --example flash_crowd -- [--minutes 25]
//! ```

use coolstreaming::{experiments, Scenario};
use cs_sim::SimTime;

fn main() {
    let minutes: u64 = std::env::args()
        .skip_while(|a| a != "--minutes")
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(25);
    let horizon = SimTime::from_mins(minutes);
    let rates = [0.1, 0.3, 0.6, 1.2, 2.4];

    println!("sweeping steady join rates over {minutes} simulated minutes…\n");
    println!("FIG9b continuity & startup vs join rate");
    println!("  rate(j/s)   mean-pop   continuity   ready-frac   median-ready   retried");
    for rate in rates {
        let artifacts = Scenario::steady(rate)
            .with_seed(99)
            .with_window(SimTime::ZERO, horizon)
            .run();
        let view = experiments::LogView::build(&artifacts);
        let p = experiments::fig9_point(&view, SimTime::ZERO, horizon);
        let fig6 = experiments::fig6_startup(&view, SimTime::ZERO, SimTime::MAX);
        let fig10 = experiments::fig10_sessions(&view);
        println!(
            "  {rate:>8.2}   {:>8.0}   {:>9.2}%   {:>9.2}%   {:>11.1}s   {:>6.1}%",
            p.mean_population,
            100.0 * p.mean_continuity,
            100.0 * p.ready_fraction,
            fig6.ready.median().unwrap_or(f64::NAN),
            100.0 * fig10.retried_fraction,
        );
    }

    println!("\nnow a genuine flash crowd: 10× arrival spike for 3 minutes mid-run");
    let mut wl = cs_workload::Workload::steady(0.4);
    wl.profile.spikes.push(cs_workload::Spike {
        start: SimTime::from_mins(10),
        duration: SimTime::from_mins(3),
        multiplier: 10.0,
    });
    let artifacts = Scenario::steady(0.4)
        .with_workload(wl)
        .with_seed(7)
        .with_window(SimTime::ZERO, horizon)
        .run();
    let view = experiments::LogView::build(&artifacts);

    // Media-ready latency before vs during the crowd.
    let before = experiments::fig6_startup(&view, SimTime::from_mins(4), SimTime::from_mins(10));
    let during = experiments::fig6_startup(&view, SimTime::from_mins(10), SimTime::from_mins(13));
    println!(
        "  median media-ready before: {:.1}s (n={})   during crowd: {:.1}s (n={})",
        before.ready.median().unwrap_or(f64::NAN),
        before.ready.len(),
        during.ready.median().unwrap_or(f64::NAN),
        during.ready.len()
    );
    let fig10 = experiments::fig10_sessions(&view);
    println!(
        "  users retrying ≥1×: {:.1}%   sub-minute sessions: {:.1}%",
        100.0 * fig10.retried_fraction,
        100.0 * fig10.sub_minute_fraction
    );
}
