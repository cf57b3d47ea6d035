//! The five workloads and the code that measures one repetition of each.
//!
//! A repetition runs in a fresh child process (see `main.rs`), so
//! `peak_rss_mb` is that repetition's own `VmHWM`. Timed repetitions go
//! through the product's default path only — `ScenarioSpec::from_json →
//! compile → Scenario::run_injected_observed(.., RunOptions::default())` —
//! with no observer and no knob set; the traced repetition assembles the
//! same run from public constructors so the benchmark's own
//! [`Tracer`](crate::trace::Tracer) can sit on the engine.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use coolstreaming::experiments::{
    fig10_sessions, fig5_population, fig6_startup, fig7_ready_by_period, fig8_continuity,
    render_fig7, render_population, LogView,
};
use coolstreaming::{BaseSpec, ChaosSpec, RunOptions, ScenarioSpec};
use cs_logging::{ActivityKind, LogServer, Report};
use cs_net::{Network, NodeClass, NodeId};
use cs_proto::{finalize_sessions, CsWorld, SessionRecord};
use cs_sim::{Ctx, Engine, EventQueue, SimTime, World};
use serde::{Deserialize, Serialize};

use crate::host::{calibrate_clock_ns, reference_kernel_s, REF_NOMINAL_S};
use crate::stats::{fnv_text, median, peak_concurrent, peer_sim_seconds, Fnv};
use crate::trace::{Spans, Traced, Tracer, SAMPLE_STRIDE};

/// One benchmark workload.
pub struct Workload {
    pub name: &'static str,
    /// Unit of the deterministic work count behind `work_per_s`.
    pub work_unit: &'static str,
    kind: Kind,
}

enum Kind {
    /// A scenario-DSL spec run through the whole pipeline.
    Simulate(&'static str),
    /// `cs-sim` alone: periodic timers over a trivial world.
    TimerWheel,
    /// The read side alone: parse and analyse a pre-rendered log.
    AnalyzeReplay,
}

/// The workloads, in the order that fixes their seed offsets.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "steady_10k",
        work_unit: "peer_sim_s",
        kind: Kind::Simulate(include_str!("../workloads/steady_10k.json")),
    },
    Workload {
        name: "flash_crowd",
        work_unit: "peer_sim_s",
        kind: Kind::Simulate(include_str!("../workloads/flash_crowd.json")),
    },
    Workload {
        name: "event_evening",
        work_unit: "peer_sim_s",
        kind: Kind::Simulate(include_str!("../workloads/event_evening.json")),
    },
    Workload {
        name: "timer_wheel_100k",
        work_unit: "timer_event",
        kind: Kind::TimerWheel,
    },
    Workload {
        name: "analyze_replay",
        work_unit: "log_line",
        kind: Kind::AnalyzeReplay,
    },
];

const ANALYZE_SOURCE: &str = include_str!("../workloads/analyze_source.json");
/// Closed-loop analysis passes per `analyze_replay` repetition.
const ANALYZE_PASSES: u32 = 150;
/// Virtual peers and horizon of `timer_wheel_100k`.
const TIMER_PEERS: u32 = 100_000;
const TIMER_HORIZON: SimTime = SimTime::from_secs(200);
/// The protocol's period mix: gossip/BM exchange (2 s, 2 s), playback
/// bookkeeping (4 s), push rounds (10 s) and the 5-minute status report.
const TIMER_PERIODS: [SimTime; 5] = [
    SimTime::from_secs(2),
    SimTime::from_secs(2),
    SimTime::from_secs(4),
    SimTime::from_secs(10),
    SimTime::from_secs(300),
];
const TIMER_NAMES: [&str; 5] = ["t2s_a", "t2s_b", "t4s", "t10s", "t300s"];

/// Set-up rounds per simulation or timer-wheel repetition.
const SETUP_ROUNDS: usize = 5;

/// `--smoke` shrinks every workload by this factor.
pub const SMOKE_DIVISOR: u32 = 50;

pub fn find(name: &str) -> Option<(usize, &'static Workload)> {
    WORKLOADS.iter().enumerate().find(|(_, w)| w.name == name)
}

/// What one child process reports on its last stdout line.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Rep {
    /// Broken output checks; empty on a good repetition.
    pub failures: Vec<String>,
    /// `setup_s`, `pipeline_s`, `work_per_s` — scaled to the host's
    /// nominal speed by `raw["speed_factor"]` — and `peak_rss_mb`.
    pub e2e: BTreeMap<String, f64>,
    /// The same timings as the clock read them, plus `main_s` (wall of
    /// the main stage, `work_per_s`' denominator), `ref_kernel_s` and the
    /// `speed_factor` derived from it (> 1 on a slow host).
    pub raw: BTreeMap<String, f64>,
    /// Values that must repeat bit-identically for one (workload, seed):
    /// event and log counts, the log fingerprint, the fidelity figures.
    pub exact: BTreeMap<String, f64>,
    /// Per-layer values (traced repetitions only).
    pub layers: BTreeMap<String, f64>,
}

impl Rep {
    /// Start a repetition: the first half of the reference-kernel bracket.
    fn begin() -> Self {
        let mut rep = Rep::default();
        rep.raw.insert("ref_kernel_s".into(), reference_kernel_s());
        rep
    }

    fn fail(&mut self, what: impl Into<String>) {
        self.failures.push(what.into());
    }

    /// Close the bracket and record the end-to-end values. Call as soon
    /// as the pipeline has ended: the reference kernel must run next to
    /// it, and `peak_rss_mb` must be the pipeline's.
    fn finish(&mut self, pipeline_s: f64, main_s: f64, work: f64) {
        let peak_rss_mb = peak_rss_bytes() as f64 / 1e6;
        let before = self
            .raw
            .get("ref_kernel_s")
            .copied()
            .unwrap_or(REF_NOMINAL_S);
        let ref_kernel_s = (before + reference_kernel_s()) / 2.0;
        let factor = ref_kernel_s / REF_NOMINAL_S;
        self.exact.insert("work".into(), work);
        for (key, value) in [
            ("ref_kernel_s", ref_kernel_s),
            ("speed_factor", factor),
            ("pipeline_s", pipeline_s),
            ("main_s", main_s),
            ("work_per_s", work / main_s),
        ] {
            self.raw.insert(key.into(), value);
        }
        self.e2e.insert("pipeline_s".into(), pipeline_s / factor);
        self.e2e.insert("work_per_s".into(), work / main_s * factor);
        self.e2e.insert("peak_rss_mb".into(), peak_rss_mb);
    }

    /// Record `setup_s`, measured outside the bracket, with its factor.
    fn set_setup(&mut self, setup_s: f64) {
        let factor = self.raw.get("speed_factor").copied().unwrap_or(1.0);
        self.raw.insert("setup_s".into(), setup_s);
        self.e2e.insert("setup_s".into(), setup_s / factor);
    }

    /// Main-stage seconds at nominal host speed.
    pub fn main_s(&self) -> f64 {
        let raw = |key: &str| self.raw.get(key).copied().unwrap_or(0.0);
        raw("main_s") / raw("speed_factor").max(f64::MIN_POSITIVE)
    }
}

/// Run one repetition of `workload`; `divisor` > 1 shrinks it (smoke mode).
pub fn run_rep(
    index: usize,
    workload: &Workload,
    seed: u64,
    divisor: u32,
    traced: bool,
) -> Result<(Rep, Spans), String> {
    let seed = seed + index as u64;
    let mut spans = Spans::new();
    let mut rep = Rep::begin();
    match workload.kind {
        Kind::Simulate(spec) => {
            let spec = reseed(spec, seed, divisor)?;
            simulate(&spec, divisor == 1, traced, &mut rep, &mut spans)?;
        }
        Kind::TimerWheel => timer_wheel(seed, divisor, traced, &mut rep, &mut spans),
        Kind::AnalyzeReplay => {
            let spec = reseed(ANALYZE_SOURCE, seed, divisor)?;
            analyze_replay(&spec, divisor, traced, &mut rep, &mut spans)?;
        }
    }
    Ok((rep, spans))
}

/// The workload's spec text with the run's seed (and, in smoke mode, the
/// audience divided by `divisor`). This is harness work: the program
/// under test only ever sees the returned text.
fn reseed(spec: &str, seed: u64, divisor: u32) -> Result<String, String> {
    let mut spec = ScenarioSpec::from_json(spec).map_err(|e| e.to_string())?;
    spec.seed = Some(seed);
    let shrink = f64::from(divisor);
    spec.base = match spec.base {
        BaseSpec::Steady { rate } => BaseSpec::Steady {
            rate: rate / shrink,
        },
        BaseSpec::EventDay { scale } => BaseSpec::EventDay {
            scale: scale / shrink,
        },
    };
    debug_assert!(spec.shards.is_none(), "workload specs never set `shards`");
    debug_assert!(spec
        .events
        .iter()
        .all(|e| matches!(e, ChaosSpec::ArrivalStorm { .. })));
    Ok(spec.to_json())
}

/// `setup_s`: the median over [`SETUP_ROUNDS`] set-ups — the one the
/// repetition ran from (`first_s`, cold) and `again` timed for the rest
/// — so that one cold start does not decide it. The extra rounds run
/// after the repetition's peak RSS was read: the measured run itself
/// happens in a fresh process.
fn median_setup_s(first_s: f64, mut again: impl FnMut()) -> f64 {
    let mut seconds = vec![first_s];
    for _ in 1..SETUP_ROUNDS {
        let t0 = Instant::now();
        again();
        seconds.push(t0.elapsed().as_secs_f64());
    }
    median(&seconds)
}

fn peak_rss_bytes() -> u64 {
    cs_telemetry::peak_rss_bytes().unwrap_or(0)
}

/// Reset the kernel's `VmHWM` bookkeeping, so that the next
/// [`peak_rss_bytes`] covers only what runs from here on — the pipeline,
/// not the set-up before it (for `analyze_replay`, a whole simulation).
/// Where the reset is refused, the high-water mark simply keeps set-up in.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Current resident set (`VmRSS`) in bytes; 0 off Linux.
fn rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmRSS:"))?;
            line.split_whitespace().nth(1)?.parse::<u64>().ok()
        })
        .map_or(0, |kb| kb * 1024)
}

// ------------------------------------------------------------ simulate --

/// A run assembled up to its first dispatchable event.
struct Assembled {
    engine: Engine<CsWorld>,
    start: SimTime,
    horizon: SimTime,
    arrivals: usize,
    /// `VmRSS` just before the world was built.
    rss_before: u64,
}

/// Spec text → engine with every arrival scheduled, through the same
/// public constructors, in the same order, as `Scenario::run_inner`.
/// Times `setup_s` on every repetition and carries the traced run.
fn assemble(spec: &str, spans: &mut Spans) -> Result<Assembled, String> {
    spans.stage("setup", |spans| {
        let compiled = spans.stage("spec_compile", |_| {
            ScenarioSpec::from_json(spec)
                .and_then(|s| s.compile())
                .map_err(|e| e.to_string())
        })?;
        let sc = compiled.scenario;
        let arrivals = spans.stage("generate", |_| {
            sc.workload.generate(sc.seed, sc.start, sc.horizon)
        });
        let rss_before = rss_bytes();
        let n_arrivals = arrivals.len();
        let engine = spans.stage("world_setup", |_| {
            let net = Network::new(sc.policy, sc.latency, sc.seed);
            let mut world = CsWorld::new(sc.params, net, sc.servers, sc.server_bw, sc.seed);
            world.snapshot_interval = sc.snapshot_interval;
            world.reserve_peers(n_arrivals + sc.servers);
            let queue_cap = n_arrivals + compiled.injections.len() + 16;
            let mut engine = Engine::with_queue_capacity(world, queue_cap);
            engine.event_budget = 4_000_000_000;
            for (t, e) in engine.world().initial_events() {
                engine.schedule_at(t.max(sc.start), e);
            }
            for (t, user) in arrivals {
                engine.schedule_at(t, cs_proto::Event::Arrive(user));
            }
            for (t, e) in compiled.injections {
                engine.schedule_at(t, e);
            }
            engine
        });
        Ok(Assembled {
            engine,
            start: sc.start,
            horizon: sc.horizon,
            arrivals: n_arrivals,
            rss_before,
        })
    })
}

fn simulate(
    spec: &str,
    full_size: bool,
    traced: bool,
    rep: &mut Rep,
    spans: &mut Spans,
) -> Result<(), String> {
    let assembled = assemble(spec, spans)?;
    let first_setup_s = spans.total_s("setup");
    let (start, horizon) = (assembled.start, assembled.horizon);

    // Only the traced run continues from the assembly; a timed run goes
    // through the default path from the spec text again.
    let assembled = traced.then_some(assembled);
    let clock_ns = if traced { calibrate_clock_ns() } else { 0.0 };
    reset_peak_rss();
    let pipeline0 = Instant::now();
    let (world, events, main_s) = if let Some(assembled) = assembled {
        let (world, events) = simulate_traced(assembled, clock_ns, rep, spans);
        // The traced main stage is the assembled set-up plus the run and
        // its close-out: like for like with `run_injected_observed`.
        let main_s = spans.total_s("setup") + spans.total_s("simulate") + spans.total_s("finalize");
        (world, events, main_s)
    } else {
        let run = spans.stage("simulate", |_| {
            let compiled = ScenarioSpec::from_json(spec)
                .and_then(|s| s.compile())
                .map_err(|e| e.to_string())?;
            Ok::<_, String>(
                compiled
                    .scenario
                    .run_injected_observed(compiled.injections, RunOptions::default()),
            )
        })?;
        let main_s = spans.total_s("simulate");
        (run.artifacts.world, run.artifacts.run_stats.events, main_s)
    };

    let text = spans.stage("to_text", |_| world.log.to_text());
    let analysis = analyze(&text, start, horizon, spans);
    let pipeline_s = pipeline0.elapsed().as_secs_f64();

    let work = peer_sim_seconds(&world.sessions, horizon);
    rep.finish(pipeline_s, main_s, work);
    rep.exact.insert("events".into(), events as f64);
    rep.exact.insert(
        "peak_concurrent".into(),
        peak_concurrent(&world.sessions) as f64,
    );
    check_sessions(&world.sessions, rep);
    analysis.record(&text, full_size, rep);
    if traced {
        rep.layers
            .insert("logging.to_text_s".into(), spans.total_s("to_text"));
        analysis.record_layers(spans, rep);
        probe_net(world, rep);
    }
    rep.set_setup(median_setup_s(first_setup_s, || {
        black_box(assemble(spec, &mut Spans::new()).is_ok());
    }));
    Ok(())
}

/// Run the assembled engine under the [`Tracer`] and record the `sim.*`,
/// `workload.*`, `core.*` and `proto.*` layer values.
fn simulate_traced(
    assembled: Assembled,
    clock_ns: f64,
    rep: &mut Rep,
    spans: &mut Spans,
) -> (CsWorld, u64) {
    let Assembled {
        mut engine,
        horizon,
        arrivals,
        rss_before,
        ..
    } = assembled;
    let tracer = Rc::new(RefCell::new(Tracer::new()));
    engine.set_observer(Box::new(Rc::clone(&tracer)));
    tracer.borrow_mut().start();
    let stats = spans.stage("simulate", |_| engine.run_until(horizon));
    let hwm_after_run = peak_rss_bytes();
    drop(engine.take_observer());
    let world = spans.stage("finalize", |_| {
        let mut world = engine.into_world();
        finalize_sessions(&mut world);
        world
    });
    let tracer = tracer.borrow();
    if let Some(id) = spans.find("simulate") {
        spans.adopt(id, &tracer.raw);
    }

    let run_s = spans.total_s("simulate");
    let l = &mut rep.layers;
    record_sim_layers(l, &tracer, run_s, clock_ns);
    l.insert("workload.generate_s".into(), spans.total_s("generate"));
    l.insert("workload.arrivals".into(), arrivals as f64);
    l.insert("core.spec_compile_s".into(), spans.total_s("spec_compile"));
    l.insert("core.world_setup_s".into(), spans.total_s("world_setup"));
    l.insert("core.finalize_s".into(), spans.total_s("finalize"));
    for manager in ["membership", "partnership", "stream", "engine"] {
        let (n, busy) = tracer.manager(manager, clock_ns);
        l.insert(format!("proto.{manager}.events"), n as f64);
        l.insert(format!("proto.{manager}.busy_s"), busy);
    }
    for kind in crate::report::TRACED_KINDS {
        let (n, busy, p99) = tracer.kind(kind).map_or((0, 0.0, 0.0), |k| {
            (k.events, k.busy_s(clock_ns), k.p99_ns(clock_ns))
        });
        l.insert(format!("proto.kind.{kind}.events"), n as f64);
        l.insert(format!("proto.kind.{kind}.busy_s"), busy);
        l.insert(format!("proto.kind.{kind}.p99_ns"), p99);
    }
    let s = &world.stats;
    let share = |part: u64, whole: u64| part as f64 / whole.max(1) as f64;
    l.insert(
        "proto.partnership.established".into(),
        s.partnerships as f64,
    );
    l.insert(
        "proto.partnership.establish_fail_share".into(),
        share(
            s.partnership_failures,
            s.partnerships + s.partnership_failures,
        ),
    );
    l.insert("proto.partnership.adaptations".into(), s.adaptations as f64);
    l.insert(
        "proto.stream.parent_repairs".into(),
        s.parent_repairs as f64,
    );
    l.insert(
        "proto.stream.blocks_delivered".into(),
        s.blocks_delivered as f64,
    );
    l.insert(
        "proto.stream.blocks_skipped_share".into(),
        share(s.blocks_skipped, s.blocks_delivered + s.blocks_skipped),
    );
    l.insert(
        "proto.membership.join_retries".into(),
        s.join_retries as f64,
    );
    l.insert(
        "proto.membership.bootstrap_rejects".into(),
        s.bootstrap_rejects as f64,
    );
    l.insert(
        "proto.arena.peers_live_max".into(),
        tracer.peers_live_max as f64,
    );
    l.insert("proto.arena.slots_max".into(), tracer.slots_max as f64);
    l.insert(
        "proto.arena.rss_bytes_per_live_peer".into(),
        hwm_after_run.saturating_sub(rss_before) as f64 / tracer.peers_live_max.max(1) as f64,
    );
    (world, stats.events)
}

/// The `sim.*` and `trace.*` values any traced engine run yields.
fn record_sim_layers(l: &mut BTreeMap<String, f64>, tracer: &Tracer, run_s: f64, clock_ns: f64) {
    let events = tracer.events();
    l.insert("sim.events".into(), events as f64);
    l.insert(
        "sim.ns_per_event".into(),
        run_s * 1e9 / events.max(1) as f64,
    );
    l.insert("sim.queue_depth_max".into(), tracer.queue_depth_max as f64);
    l.insert(
        "sim.engine_overhead_s".into(),
        run_s - tracer.busy_s(clock_ns),
    );
    l.insert(
        "sim.queue_push_pop_ns".into(),
        probe_queue(tracer.queue_depth_max),
    );
    l.insert("trace.sample_stride".into(), SAMPLE_STRIDE as f64);
    l.insert("trace.clock_ns".into(), clock_ns);
}

/// Every user session must have been closed out or marked still-active.
fn check_sessions(sessions: &[SessionRecord], rep: &mut Rep) {
    let open = sessions
        .iter()
        .filter(|s| s.class.is_user() && s.reason.is_none())
        .count();
    if open > 0 {
        rep.fail(format!("{open} user sessions left without a reason"));
    }
}

// ------------------------------------------------------------- analyze --

/// What one pass over a log text produced.
struct Analysis {
    bytes: usize,
    lines: usize,
    parse_failures: usize,
    join_records: usize,
    view: LogView,
    figures_fnv: u64,
}

/// The read side, exactly as `coolstream analyze` drives it: text →
/// `LogServer` → parsed reports → sessions → every log-derived figure
/// rendered in memory.
fn analyze(text: &str, start: SimTime, end: SimTime, spans: &mut Spans) -> Analysis {
    // Hostile-input handling is the product's business; the benchmark's
    // own log always parses, and a failure is reported as zero lines.
    let server = spans.stage("from_text", |_| {
        LogServer::from_text(text).unwrap_or_default()
    });
    let (reports, bad) = spans.stage("parse", |_| server.parse_all());
    let sessions = spans.stage("reconstruct", |_| cs_analysis::reconstruct(&reports));
    let view = LogView { reports, sessions };
    let figures = spans.stage("figures", |_| {
        let window = end.saturating_sub(start);
        let mut out = render_population(&fig5_population(&view, start, end, window / 96));
        out.push_str(&fig6_startup(&view, SimTime::ZERO, SimTime::MAX).render());
        out.push_str(&render_fig7(&fig7_ready_by_period(&view)));
        out.push_str(&fig8_continuity(&view, start, end, window / 24).render());
        out.push_str(&fig10_sessions(&view).render());
        out
    });
    let join_records = view
        .reports
        .iter()
        .filter(|(_, r)| {
            matches!(
                r,
                Report::Activity {
                    kind: ActivityKind::Join,
                    ..
                }
            )
        })
        .count();
    Analysis {
        bytes: text.len(),
        lines: server.len(),
        parse_failures: bad.len(),
        join_records,
        view,
        figures_fnv: fnv_text(black_box(&figures)),
    }
}

impl Analysis {
    /// Record the exact values and apply the output checks. The shape
    /// floors only hold for a full-size audience.
    fn record(&self, text: &str, full_size: bool, rep: &mut Rep) {
        let (mut due, mut missed) = (0u64, 0u64);
        for s in &self.view.sessions {
            for &(_, d, m) in &s.qos {
                due += d;
                missed += m;
            }
        }
        let continuity = 1.0 - missed as f64 / due.max(1) as f64;
        let ready_median = fig6_startup(&self.view, SimTime::ZERO, SimTime::MAX)
            .ready
            .median()
            .unwrap_or(0.0);
        let retried = fig10_sessions(&self.view).retried_fraction;
        let sessions = self.view.sessions.len();
        for (key, value) in [
            ("log_lines", self.lines as f64),
            ("log_bytes", self.bytes as f64),
            ("log_fnv", fnv_text(text) as f64),
            ("figures_fnv", self.figures_fnv as f64),
            ("sessions", sessions as f64),
            ("mean_continuity", continuity),
            ("ready_median_s", ready_median),
            ("retried_share", retried),
        ] {
            rep.exact.insert(key.into(), value);
        }
        if self.lines == 0 {
            rep.fail("the log is empty or unreadable");
        }
        if self.parse_failures > 0 {
            rep.fail(format!("{} log lines failed to parse", self.parse_failures));
        }
        if !full_size {
            return;
        }
        if sessions != self.join_records {
            rep.fail(format!(
                "{sessions} reconstructed sessions != {} join records",
                self.join_records
            ));
        }
        if continuity < 0.85 {
            rep.fail(format!("log-view mean continuity {continuity:.4} < 0.85"));
        }
        if !(5.0..=60.0).contains(&ready_median) {
            rep.fail(format!(
                "media-ready median {ready_median:.2} s outside [5, 60]"
            ));
        }
    }

    /// The `logging.*`, `analysis.*` and `core.figures_s` layer values.
    fn record_layers(&self, spans: &Spans, rep: &mut Rep) {
        let encode0 = Instant::now();
        for (_, report) in &self.view.reports {
            black_box(report.encode());
        }
        let encode_ns = encode0.elapsed().as_nanos() as f64 / self.view.reports.len().max(1) as f64;
        for (key, value) in [
            ("logging.lines", self.lines as f64),
            ("logging.bytes", self.bytes as f64),
            ("logging.from_text_s", spans.total_s("from_text")),
            ("logging.parse_s", spans.total_s("parse")),
            ("logging.parse_failures", self.parse_failures as f64),
            ("logging.encode_ns_per_report", encode_ns),
            ("analysis.reconstruct_s", spans.total_s("reconstruct")),
            ("analysis.sessions", self.view.sessions.len() as f64),
            ("core.figures_s", spans.total_s("figures")),
        ] {
            rep.layers.insert(key.into(), value);
        }
    }
}

fn analyze_replay(
    source_spec: &str,
    divisor: u32,
    traced: bool,
    rep: &mut Rep,
    spans: &mut Spans,
) -> Result<(), String> {
    // Set-up: produce the source log through the default path. Once per
    // repetition — it is a whole simulation, steady on its own.
    let (text, start, end) = spans.stage("setup", |_| {
        let compiled = ScenarioSpec::from_json(source_spec)
            .and_then(|s| s.compile())
            .map_err(|e| e.to_string())?;
        let (start, end) = (compiled.scenario.start, compiled.scenario.horizon);
        let run = compiled
            .scenario
            .run_injected_observed(compiled.injections, RunOptions::default());
        check_sessions(&run.artifacts.world.sessions, rep);
        Ok::<_, String>((run.artifacts.world.log.to_text(), start, end))
    })?;
    let setup_s = spans.total_s("setup");

    let passes = (ANALYZE_PASSES / divisor).max(2);
    reset_peak_rss();
    let pipeline0 = Instant::now();
    let mut last = analyze(&text, start, end, spans);
    for pass in 1..passes {
        let next = analyze(&text, start, end, spans);
        if next.figures_fnv != last.figures_fnv {
            rep.fail(format!("pass {pass} rendered different figures"));
        }
        last = next;
    }
    let pipeline_s = pipeline0.elapsed().as_secs_f64();

    rep.finish(
        pipeline_s,
        pipeline_s,
        last.lines as f64 * f64::from(passes),
    );
    rep.set_setup(setup_s);
    last.record(&text, divisor == 1, rep);
    if traced {
        last.record_layers(spans, rep);
    }
    Ok(())
}

// --------------------------------------------------------- timer wheel --

/// A world that does nothing but re-arm the timer that fired, folding
/// the dispatch order into a fingerprint so a mis-ordering queue fails
/// the output check.
struct TimerWorld {
    fired: u64,
    order: Fnv,
}

/// `(virtual peer, timer index)`.
type TimerEvent = (u32, u8);

impl World for TimerWorld {
    type Event = TimerEvent;

    #[inline]
    fn handle(&mut self, ctx: &mut Ctx<'_, TimerEvent>, (peer, timer): TimerEvent) {
        self.fired += 1;
        let stamp = ctx.now().as_micros() ^ (u64::from(peer) << 40) ^ (u64::from(timer) << 36);
        self.order.0 = (self.order.0 ^ stamp).wrapping_mul(0x0000_0100_0000_01b3);
        ctx.schedule_in(TIMER_PERIODS[usize::from(timer)], (peer, timer));
    }
}

impl Traced for TimerWorld {
    fn classify(&(_, timer): &TimerEvent) -> (u8, &'static str, &'static str) {
        (timer, TIMER_NAMES[usize::from(timer)], "timer")
    }
}

/// First firing of `timer` on `peer`: a seed-dependent phase inside the
/// timer's period (splitmix64 of the triple).
fn timer_phase(seed: u64, peer: u32, timer: u8) -> SimTime {
    let mut z = seed
        .wrapping_add(u64::from(peer) << 8 | u64::from(timer))
        .wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    SimTime::from_micros(z % TIMER_PERIODS[usize::from(timer)].as_micros())
}

fn timer_wheel(seed: u64, divisor: u32, traced: bool, rep: &mut Rep, spans: &mut Spans) {
    let peers = TIMER_PEERS / divisor;
    // Set-up is input generation only: the arming schedule and the exact
    // number of firings it implies. Arming the engine — 5·10⁵ queue
    // pushes — is queue work and belongs to the timed section.
    let plan = || {
        let mut schedule = Vec::with_capacity(peers as usize * TIMER_PERIODS.len());
        let mut expected = 0u64;
        for peer in 0..peers {
            for (timer, period) in TIMER_PERIODS.iter().enumerate() {
                let phase = timer_phase(seed, peer, timer as u8);
                schedule.push((phase, (peer, timer as u8)));
                // Fires at phase, phase + period, … up to and including
                // the horizon; a 300 s timer may not fire at all.
                if phase <= TIMER_HORIZON {
                    expected += 1 + (TIMER_HORIZON - phase).as_micros() / period.as_micros();
                }
            }
        }
        (schedule, expected)
    };
    let (schedule, expected) = spans.stage("setup", |_| plan());
    let first_setup_s = spans.total_s("setup");

    let clock_ns = if traced { calibrate_clock_ns() } else { 0.0 };
    let tracer = traced.then(|| Rc::new(RefCell::new(Tracer::new())));
    reset_peak_rss();
    let (stats, mut engine) = spans.stage("simulate", |spans| {
        let mut engine = spans.stage("arm", |_| {
            let world = TimerWorld {
                fired: 0,
                order: Fnv::new(),
            };
            let mut engine = Engine::with_queue_capacity(world, schedule.len());
            for &(at, event) in &schedule {
                engine.schedule_at(at, event);
            }
            engine
        });
        if let Some(tracer) = &tracer {
            engine.set_observer(Box::new(Rc::clone(tracer)));
            tracer.borrow_mut().start();
        }
        let stats = spans.stage("run", |_| engine.run_until(TIMER_HORIZON));
        (stats, engine)
    });
    let pipeline_s = spans.total_s("simulate");
    drop(engine.take_observer());

    let world = engine.into_world();
    rep.finish(pipeline_s, pipeline_s, stats.events as f64);
    rep.exact.insert("events".into(), stats.events as f64);
    rep.exact
        .insert("log_fnv".into(), world.order.fingerprint() as f64);
    if stats.events != expected || world.fired != expected {
        rep.fail(format!(
            "dispatched {} timer events (world saw {}), expected {expected}",
            stats.events, world.fired
        ));
    }
    if let Some(tracer) = tracer {
        let tracer = tracer.borrow();
        if let Some(id) = spans.find("run") {
            spans.adopt(id, &tracer.raw);
        }
        record_sim_layers(&mut rep.layers, &tracer, spans.total_s("run"), clock_ns);
    }
    rep.set_setup(median_setup_s(first_setup_s, || {
        black_box(plan().1);
    }));
}

// -------------------------------------------------------------- probes --

/// ns per `EventQueue` pop + re-push at a standing depth of `depth`
/// entries armed with the protocol's period mix.
fn probe_queue(depth: usize) -> f64 {
    const ROUNDS: u32 = 2_000_000;
    let depth = depth.max(TIMER_PERIODS.len());
    let mut queue: EventQueue<u8> = EventQueue::with_capacity(depth);
    for i in 0..depth {
        let timer = (i % TIMER_PERIODS.len()) as u8;
        queue.push(timer_phase(depth as u64, (i / 5) as u32, timer), timer);
    }
    let t0 = Instant::now();
    for _ in 0..ROUNDS {
        if let Some((at, timer)) = queue.pop() {
            queue.push(at + TIMER_PERIODS[usize::from(timer)], timer);
        }
    }
    black_box(queue.len());
    t0.elapsed().as_nanos() as f64 / f64::from(ROUNDS)
}

/// `cs-net` counters from the finished run, then `try_connect` / `delay`
/// timed on that run's own node registry (its class mix is the workload's).
fn probe_net(mut world: CsWorld, rep: &mut Rep) {
    const ROUNDS: u32 = 1_000_000;
    let net = &mut world.net;
    let (attempts, successes) = [
        NodeClass::DirectConnect,
        NodeClass::Upnp,
        NodeClass::Nat,
        NodeClass::Firewall,
        NodeClass::Server,
        NodeClass::Source,
    ]
    .iter()
    .map(|&c| net.connect_stats(c))
    .fold((0, 0), |(a, s), c| (a + c.attempts, s + c.successes));
    let alive: Vec<NodeId> = net.iter_alive().map(|n| n.id).collect();
    let pair = |i: u32| {
        let a = alive[i as usize % alive.len()];
        let b = alive[(i as usize * 7919 + 1) % alive.len()];
        (a, b)
    };
    let time = |f: &mut dyn FnMut(NodeId, NodeId)| {
        if alive.len() < 2 {
            return 0.0;
        }
        let t0 = Instant::now();
        for i in 0..ROUNDS {
            let (a, b) = pair(i);
            f(a, b);
        }
        t0.elapsed().as_nanos() as f64 / f64::from(ROUNDS)
    };
    let connect_ns = time(&mut |a, b| {
        black_box(net.try_connect(a, b).is_ok());
    });
    let delay_ns = time(&mut |a, b| {
        black_box(net.delay(a, b));
    });
    let l = &mut rep.layers;
    l.insert("net.try_connect_ns".into(), connect_ns);
    l.insert("net.delay_ns".into(), delay_ns);
    l.insert("net.connect_attempts".into(), attempts as f64);
    l.insert(
        "net.connect_fail_share".into(),
        (attempts - successes) as f64 / attempts.max(1) as f64,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reseed_sets_the_seed_and_shrinks_the_audience() {
        let Kind::Simulate(spec) = WORKLOADS[0].kind else {
            panic!("steady_10k is a simulation");
        };
        let text = reseed(spec, 77, 50).unwrap();
        let spec = ScenarioSpec::from_json(&text).unwrap();
        assert_eq!(spec.seed, Some(77));
        assert_eq!(spec.base, BaseSpec::Steady { rate: 14.0 / 50.0 });
        assert!(spec.shards.is_none());
    }

    #[test]
    fn timer_phases_fall_inside_their_period_and_depend_on_the_seed() {
        for timer in 0..TIMER_PERIODS.len() as u8 {
            for peer in 0..100 {
                assert!(timer_phase(1, peer, timer) < TIMER_PERIODS[usize::from(timer)]);
            }
        }
        assert_ne!(timer_phase(1, 5, 2), timer_phase(2, 5, 2));
    }

    #[test]
    fn queue_probe_keeps_its_depth() {
        assert!(probe_queue(1000) > 0.0);
    }
}
