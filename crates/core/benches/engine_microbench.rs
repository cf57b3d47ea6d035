//! Engine micro-benchmarks: the hot primitives under everything else —
//! event queue, RNG, stream buffer, buffer-map codec, log codec,
//! Lorenz/Gini, CDF — and the read side's stages, one at a time.

use coolstreaming::experiments::{
    fig10_sessions, fig5_population, fig6_startup, fig7_ready_by_period, fig8_continuity,
    render_fig7, render_population, LogView,
};
use coolstreaming::Scenario;
use criterion::{black_box, BatchSize, Criterion};
use cs_analysis::{reconstruct, Cdf, Lorenz};
use cs_logging::{ActivityKind, LogServer, Report, UserId};
use cs_proto::StreamBuffer;
use cs_sim::rng::Xoshiro256PlusPlus;
use cs_sim::{EventQueue, SimTime};
use rand::{Rng, RngCore};

fn main() {
    let mut c = Criterion::default().configure_from_args();

    c.bench_function("queue/push_pop_10k", |b| {
        let mut rng = Xoshiro256PlusPlus::new(1);
        let times: Vec<u64> = (0..10_000).map(|_| rng.gen_range(0..1_000_000)).collect();
        b.iter(|| {
            let mut q = EventQueue::with_capacity(10_000);
            for (i, &t) in times.iter().enumerate() {
                q.push(SimTime::from_micros(t), i);
            }
            let mut sum = 0usize;
            while let Some((_, v)) = q.pop() {
                sum += v;
            }
            black_box(sum)
        })
    });

    // 10⁵ timers with the protocol's periods (2, 2, 4, 10 and 300 s),
    // each re-armed one period after it fires. One iteration is one
    // level-1 rotation (64² ticks of 2¹⁴ µs ≈ 67 s, ≈ 1.8 M pops): every
    // tick drains ≈ 440 entries and the level-1 slots cascade, which
    // `queue/push_pop_10k` never does.
    c.bench_function("queue/rearm_100k", |b| {
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
        b.iter(|| {
            end += ROTATION;
            let mut fired = 0u32;
            while q.peek_time().is_some_and(|at| at <= end) {
                let Some((at, timer)) = q.pop() else { break };
                q.push(at + PERIODS[timer % 5], timer);
                fired += 1;
            }
            black_box(fired)
        })
    });

    c.bench_function("rng/next_u64_1k", |b| {
        let mut rng = Xoshiro256PlusPlus::new(2);
        b.iter(|| {
            let mut acc = 0u64;
            for _ in 0..1000 {
                acc = acc.wrapping_add(rng.next_u64());
            }
            black_box(acc)
        })
    });

    c.bench_function("buffer/advance_and_edge", |b| {
        b.iter_batched(
            || StreamBuffer::new(6, 0),
            |mut buf| {
                for i in 0..6 {
                    buf.advance(i, 200);
                }
                black_box(buf.contiguous_edge())
            },
            BatchSize::SmallInput,
        )
    });

    c.bench_function("buffer/bm_codec_roundtrip", |b| {
        let mut buf = StreamBuffer::new(6, 100);
        for i in 0..6 {
            buf.advance(i, 50);
        }
        let bm = buf.buffer_map(&[true; 6]);
        b.iter(|| {
            let bytes = bm.encode();
            black_box(cs_proto::BufferMap::decode(6, &bytes))
        })
    });

    c.bench_function("logging/report_roundtrip", |b| {
        let r = Report::Activity {
            user: UserId(123_456),
            node: 789,
            kind: ActivityKind::MediaReady,
            private_addr: true,
        };
        b.iter(|| {
            let s = r.encode();
            black_box(Report::decode(&s).unwrap())
        })
    });

    c.bench_function("analysis/gini_100k", |b| {
        let mut rng = Xoshiro256PlusPlus::new(3);
        let values: Vec<f64> = (0..100_000).map(|_| rng.gen::<f64>().powi(4)).collect();
        b.iter(|| black_box(Lorenz::new(values.clone()).gini()))
    });

    c.bench_function("analysis/cdf_quantiles_100k", |b| {
        let mut rng = Xoshiro256PlusPlus::new(4);
        let values: Vec<f64> = (0..100_000).map(|_| rng.gen()).collect();
        b.iter(|| {
            let cdf = Cdf::new(values.clone());
            black_box((cdf.median(), cdf.quantile(0.99)))
        })
    });

    read_side(&mut c);

    c.final_summary();
}

/// The read side's four stages, each timed on its own over one fixed
/// simulated log (a steady 3/s audience for 15 minutes, ≈ 20 k lines):
/// log text → `LogServer` → parsed reports → sessions → the log-derived
/// figures `coolstream analyze` renders.
fn read_side(c: &mut Criterion) {
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

    c.bench_function("read/from_text", |b| {
        b.iter(|| black_box(LogServer::from_text(black_box(&text))).map(|s| s.len()))
    });
    c.bench_function("read/parse_all", |b| {
        b.iter(|| black_box(server.parse_all()))
    });
    c.bench_function("read/reconstruct", |b| {
        b.iter(|| black_box(reconstruct(black_box(&reports))))
    });
    c.bench_function("read/figures", |b| {
        b.iter(|| {
            let window = end.saturating_sub(start);
            let mut out = render_population(&fig5_population(&view, start, end, window / 96));
            out.push_str(&fig6_startup(&view, SimTime::ZERO, SimTime::MAX).render());
            out.push_str(&render_fig7(&fig7_ready_by_period(&view)));
            out.push_str(&fig8_continuity(&view, start, end, window / 24).render());
            out.push_str(&fig10_sessions(&view).render());
            black_box(out)
        })
    });
}
