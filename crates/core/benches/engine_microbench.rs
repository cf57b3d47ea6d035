//! Engine micro-benchmarks: the hot primitives under everything else —
//! event queue, RNG, stream buffer, buffer-map codec, log codec,
//! Lorenz/Gini, CDF — and the read side's stages, one at a time.
//!
//! A plain `harness = false` loop: each row prints
//! `bench <name> median <µs> (<n> iters)`, the median over `SAMPLES`
//! timing samples. Good enough to compare before/after on one machine.

use std::hint::black_box;
use std::time::{Duration, Instant};

use coolstreaming::experiments::{
    fig10_sessions, fig5_population, fig6_startup, fig7_ready_by_period, fig8_continuity,
    render_fig7, render_population, LogView,
};
use coolstreaming::Scenario;
use cs_analysis::{reconstruct, Cdf, Lorenz};
use cs_logging::{ActivityKind, LogServer, Report, UserId};
use cs_proto::StreamBuffer;
use cs_sim::rng::Xoshiro256PlusPlus;
use cs_sim::{EventQueue, SimTime};

/// Timing samples per row.
const SAMPLES: u32 = 20;
/// Warm-up per row; it also sizes a sample.
const WARM_UP: Duration = Duration::from_millis(300);
/// Measurement budget per row, shared by its samples.
const MEASURE: Duration = Duration::from_secs(2);

fn report(name: &str, mut samples: Vec<Duration>, iters: u64) {
    samples.sort_unstable();
    let median = samples[samples.len() / 2];
    eprintln!(
        "bench {name:<40} median {:>12.3} µs ({iters} iters)",
        median.as_secs_f64() * 1e6
    );
}

/// Time `routine` called back to back: the warm-up's rate sizes each
/// sample so that the samples fill `MEASURE` together.
fn bench<O>(name: &str, mut routine: impl FnMut() -> O) {
    let warm = Instant::now();
    let mut warm_iters = 0u64;
    while warm.elapsed() < WARM_UP {
        black_box(routine());
        warm_iters += 1;
    }
    let per_iter = warm.elapsed().as_secs_f64() / warm_iters.max(1) as f64;
    let budget = MEASURE.as_secs_f64() / f64::from(SAMPLES);
    let per_sample = ((budget / per_iter.max(1e-9)) as u32).clamp(1, 1_000_000);
    let samples = (0..SAMPLES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..per_sample {
                black_box(routine());
            }
            start.elapsed() / per_sample
        })
        .collect();
    report(name, samples, u64::from(per_sample) * u64::from(SAMPLES));
}

/// Time one `routine` call per sample on a fresh `setup()` input; the
/// setup is outside the timed part.
fn bench_batched<I, O>(name: &str, mut setup: impl FnMut() -> I, mut routine: impl FnMut(I) -> O) {
    let deadline = Instant::now() + WARM_UP + MEASURE;
    let mut samples = Vec::new();
    for _ in 0..SAMPLES {
        let input = setup();
        let start = Instant::now();
        black_box(routine(input));
        samples.push(start.elapsed());
        if Instant::now() > deadline {
            break;
        }
    }
    let iters = samples.len() as u64;
    report(name, samples, iters);
}

fn main() {
    let mut rng = Xoshiro256PlusPlus::new(1);
    let times: Vec<u64> = (0..10_000).map(|_| rng.gen_range(0..1_000_000)).collect();
    bench("queue/push_pop_10k", || {
        let mut q = EventQueue::with_capacity(10_000);
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_micros(t), i);
        }
        let mut sum = 0usize;
        while let Some((_, v)) = q.pop() {
            sum += v;
        }
        sum
    });

    // 10⁵ timers with the protocol's periods (2, 2, 4, 10 and 300 s),
    // each re-armed one period after it fires. One iteration is one
    // level-1 rotation (64² ticks of 2¹⁴ µs ≈ 67 s, ≈ 1.8 M pops): every
    // tick drains ≈ 440 entries and the level-1 slots cascade, which
    // `queue/push_pop_10k` never does.
    const TIMERS: usize = 100_000;
    const PERIODS: [SimTime; 5] = [
        SimTime::from_secs(2),
        SimTime::from_secs(2),
        SimTime::from_secs(4),
        SimTime::from_secs(10),
        SimTime::from_secs(300),
    ];
    const ROTATION: SimTime = SimTime::from_micros((64 * 64) << 14);
    let mut rng = Xoshiro256PlusPlus::new(5);
    let mut q = EventQueue::with_capacity(TIMERS);
    for timer in 0..TIMERS {
        let phase = rng.gen_range(0..PERIODS[timer % 5].as_micros());
        q.push(SimTime::from_micros(phase), timer);
    }
    let mut end = SimTime::ZERO;
    bench("queue/rearm_100k", || {
        end += ROTATION;
        let mut fired = 0u32;
        while q.peek_time().is_some_and(|at| at <= end) {
            let Some((at, timer)) = q.pop() else { break };
            q.push(at + PERIODS[timer % 5], timer);
            fired += 1;
        }
        fired
    });

    let mut rng = Xoshiro256PlusPlus::new(2);
    bench("rng/next_u64_1k", || {
        let mut acc = 0u64;
        for _ in 0..1000 {
            acc = acc.wrapping_add(rng.next_u64());
        }
        acc
    });

    bench_batched(
        "buffer/advance_and_edge",
        || StreamBuffer::new(6, 0),
        |mut buf| {
            for i in 0..6 {
                buf.advance(i, 200);
            }
            buf.contiguous_edge()
        },
    );

    let r = Report::Activity {
        user: UserId(123_456),
        node: 789,
        kind: ActivityKind::MediaReady,
        private_addr: true,
    };
    bench("logging/report_roundtrip", || {
        let s = r.encode();
        Report::decode(&s).unwrap()
    });

    let mut rng = Xoshiro256PlusPlus::new(3);
    let values: Vec<f64> = (0..100_000).map(|_| rng.gen::<f64>().powi(4)).collect();
    bench("analysis/gini_100k", || Lorenz::new(values.clone()).gini());

    let mut rng = Xoshiro256PlusPlus::new(4);
    let values: Vec<f64> = (0..100_000).map(|_| rng.gen()).collect();
    bench("analysis/cdf_quantiles_100k", || {
        let cdf = Cdf::new(values.clone());
        (cdf.median(), cdf.quantile(0.99))
    });

    read_side();
}

/// The read side's four stages, each timed on its own over one fixed
/// simulated log (a steady 3/s audience for 15 minutes, ≈ 20 k lines):
/// log text → `LogServer` → parsed reports → sessions → the log-derived
/// figures `coolstream analyze` renders. `read/lines` is the line walk
/// alone, so `parse_all`'s decode is the difference of the two rows.
fn read_side() {
    let (start, end) = (SimTime::ZERO, SimTime::from_secs(900));
    let text = Scenario::steady(3.0)
        .with_seed(20060931)
        .with_window(start, end)
        .run()
        .world
        .log
        .to_text();
    let server = LogServer::from_text(&text).expect("the simulator writes a canonical log");
    let (reports, _) = server.parse_all();
    let view = LogView {
        sessions: reconstruct(&reports),
        reports: reports.clone(),
    };

    bench("read/from_text", || {
        LogServer::from_text(black_box(&text)).map(|s| s.len())
    });
    bench("read/lines", || {
        server
            .lines()
            .map(|(t, l)| t.as_micros() as usize + l.len())
            .sum::<usize>()
    });
    bench("read/parse_all", || server.parse_all());
    bench("read/reconstruct", || reconstruct(black_box(&reports)));
    bench("read/figures", || {
        let window = end.saturating_sub(start);
        let mut out = render_population(&fig5_population(&view, start, end, window / 96));
        out.push_str(&fig6_startup(&view, SimTime::ZERO, SimTime::MAX).render());
        out.push_str(&render_fig7(&fig7_ready_by_period(&view)));
        out.push_str(&fig8_continuity(&view, start, end, window / 24).render());
        out.push_str(&fig10_sessions(&view).render());
        out
    });
}
