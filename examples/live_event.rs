//! Reproduce the 2006-09-27 broadcast day end to end and print every
//! figure of the paper's evaluation section, as `figures.txt` holds them.
//!
//! ```sh
//! cargo run --release --example live_event -- [--scale 0.02] [--seed N]
//! ```
//!
//! `--scale 1.0` is the real event (~40 k peak concurrent users) — run it
//! on a big machine; `0.02` (peak ≈ 800) takes about a minute.

use coolstreaming::{experiments, Scenario};

fn arg<T: std::str::FromStr>(name: &str, default: T) -> T {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let scale: f64 = arg("--scale", 0.02);
    let seed: u64 = arg("--seed", 20060927);

    println!("simulating the full broadcast day at scale {scale} (seed {seed})…");
    let scenario = Scenario::event_day(scale).with_seed(seed);
    let artifacts = scenario.run();
    let w = &artifacts.world;
    println!(
        "done: {} arrivals ({} scheduled + retries), {} events, {} log lines\n",
        w.stats.arrivals,
        artifacts.scheduled_arrivals,
        artifacts.run_stats.events,
        w.log.len()
    );
    let view = experiments::LogView::build(&artifacts);
    let (start, horizon) = (scenario.start, scenario.horizon);
    print!(
        "{}",
        experiments::figures_text(&artifacts, &view, start, horizon)
    );
    println!("protocol counters: {:#?}", w.stats);
}
