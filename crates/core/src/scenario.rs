//! Scenario assembly and execution: the one-stop entry point.
//!
//! ```
//! use coolstreaming::Scenario;
//! use cs_sim::SimTime;
//!
//! let artifacts = Scenario::event_day(0.002)  // tiny doc-test scale
//!     .with_seed(7)
//!     .with_window(SimTime::from_hours(19), SimTime::from_hours(19) + SimTime::from_mins(10))
//!     .run();
//! assert!(artifacts.world.stats.arrivals > 0);
//! ```

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::{Mutex, PoisonError};

use cs_net::{Bandwidth, ConnectivityPolicy, LatencyModel, Network};
use cs_proto::{finalize_sessions, CsWorld, Event, InvariantChecker, Params, MAX_PENDING_PER_NODE};
use cs_sim::{Engine, RunStats, SimTime};
use cs_telemetry::{HeapLedger, SpanRecord, TelemetryRun};
use cs_workload::Workload;

use crate::instruments::Instruments;

/// Everything that defines a run. Construct via [`Scenario::event_day`] /
/// [`Scenario::steady`] and the `with_*` modifiers, or compile one from
/// its JSON description, a [`crate::ScenarioSpec`].
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Protocol parameters (Table I).
    pub params: Params,
    /// The audience.
    pub workload: Workload,
    /// Middlebox reachability policy.
    pub policy: ConnectivityPolicy,
    /// Wide-area latency model.
    pub latency: LatencyModel,
    /// Dedicated server count (24 in the real event; scaled down with the
    /// population).
    pub servers: usize,
    /// Per-server uplink.
    pub server_bw: Bandwidth,
    /// Master seed.
    pub seed: u64,
    /// Window start (arrivals begin here; the system starts empty).
    pub start: SimTime,
    /// Window end.
    pub horizon: SimTime,
    /// Topology snapshot cadence (`None` = off).
    pub snapshot_interval: Option<SimTime>,
}

/// The real event's scale constants: ~40 k peak concurrent users were
/// served by 24 × 100 Mbps servers. `scale` multiplies the audience; the
/// aggregate server capacity scales along so capacity *ratios* (and hence
/// every ratio-driven figure) are preserved.
const FULL_SCALE_PEAK_RATE: f64 = 25.0; // arrivals/s at the evening peak
const FULL_SCALE_SERVERS: f64 = 24.0;

impl Scenario {
    /// The 2006-09-27 broadcast day at population scale `scale`
    /// (1.0 ≈ 40 k peak concurrent users; 0.1 ≈ 4 k).
    pub fn event_day(scale: f64) -> Scenario {
        assert!(scale > 0.0);
        let servers = (FULL_SCALE_SERVERS * scale).ceil().max(1.0);
        // Preserve aggregate server bandwidth: `servers × bw` equals the
        // scaled 24 × 100 Mbps.
        let server_bw = Bandwidth((FULL_SCALE_SERVERS * scale * 100e6 / servers).round() as u64);
        Scenario {
            params: Params::default(),
            workload: Workload::event_day(FULL_SCALE_PEAK_RATE * scale),
            policy: ConnectivityPolicy::default(),
            latency: LatencyModel::default(),
            servers: servers as usize,
            server_bw,
            seed: 20060927,
            start: SimTime::ZERO,
            horizon: SimTime::from_hours(24),
            snapshot_interval: Some(SimTime::from_secs(60)),
        }
    }

    /// A steady-state scenario: constant arrival rate, no program ends.
    /// `rate` is in arrivals per second.
    pub fn steady(rate: f64) -> Scenario {
        let scale = rate / FULL_SCALE_PEAK_RATE;
        let mut s = Scenario::event_day(scale.max(1e-6));
        s.workload = Workload::steady(rate);
        s.horizon = SimTime::from_hours(1);
        s
    }

    /// Set the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Restrict the run to `[start, horizon)`.
    pub fn with_window(mut self, start: SimTime, horizon: SimTime) -> Self {
        assert!(horizon > start);
        self.start = start;
        self.horizon = horizon;
        self
    }

    /// Replace the workload.
    pub fn with_workload(mut self, workload: Workload) -> Self {
        self.workload = workload;
        self
    }

    /// Set the server fleet explicitly.
    pub fn with_servers(mut self, count: usize, bw: Bandwidth) -> Self {
        self.servers = count;
        self.server_bw = bw;
        self
    }

    /// Execute the scenario to completion.
    pub fn run(&self) -> RunArtifacts {
        let arrivals = self.workload.generate(self.seed, self.start, self.horizon);
        self.run_with_arrivals(arrivals)
    }

    /// Execute with an explicit arrival schedule instead of generating
    /// one from the workload — the entry point for multi-channel runs
    /// and replay tooling.
    pub fn run_with_arrivals(&self, arrivals: Vec<(SimTime, cs_proto::UserSpec)>) -> RunArtifacts {
        self.run_inner(arrivals, Vec::new(), RunOptions::default())
            .artifacts
    }

    /// Execute under instrumentation: optionally validate protocol
    /// invariants after every event, fold the dispatch sequence into a
    /// trace hash, record spans and telemetry. The sinks are passive, so
    /// the artifacts are bit-identical to an unobserved run of the same
    /// scenario and seed; with `RunOptions::default()` no observer is
    /// attached at all.
    pub fn run_observed(&self, options: RunOptions) -> ObservedRun {
        let arrivals = self.workload.generate(self.seed, self.start, self.horizon);
        self.run_inner(arrivals, Vec::new(), options)
    }

    /// Execute with timed chaos injections (a scenario file's `events`
    /// section, compiled by [`crate::ScenarioSpec`]) scheduled into the
    /// same deterministic queue as the workload arrivals. Injections are
    /// scheduled after the arrivals, so the stable FIFO tie-break gives
    /// an injection at time `t` effect *after* any arrival at `t` —
    /// reproducibly, every run.
    pub fn run_injected_observed(
        &self,
        injections: Vec<(SimTime, Event)>,
        options: RunOptions,
    ) -> ObservedRun {
        let arrivals = self.workload.generate(self.seed, self.start, self.horizon);
        self.run_inner(arrivals, injections, options)
    }

    fn run_inner(
        &self,
        arrivals: Vec<(SimTime, cs_proto::UserSpec)>,
        injections: Vec<(SimTime, Event)>,
        options: RunOptions,
    ) -> ObservedRun {
        let net = Network::new(self.policy, self.latency, self.seed);
        let mut world = CsWorld::new(self.params, net, self.servers, self.server_bw, self.seed);
        world.snapshot_interval = self.snapshot_interval;
        let n_arrivals = arrivals.len();
        // Allocate the run-sized tables once, at bounds read off the
        // schedule: the node-indexed tables at the node-id bound, and the
        // queue's pool at that bound times the most events one node can
        // have pending, plus the injections and the snapshot timer.
        let ids = world.reserve_run(&arrivals);
        let pending = ids.saturating_mul(MAX_PENDING_PER_NODE) + injections.len() + 1;
        let mut engine = Engine::with_queue_capacity(world, pending);
        // Guard against protocol bugs that self-schedule forever.
        engine.event_budget = 4_000_000_000;

        let instruments = Instruments::new(&options, self.start).map(|i| Rc::new(RefCell::new(i)));
        if let Some(handle) = &instruments {
            engine.set_observer(Box::new(Rc::clone(handle)));
        }

        for (t, e) in engine.world().initial_events() {
            engine.schedule_at(t.max(self.start), e);
        }
        for (t, spec) in arrivals {
            engine.schedule_at(t, Event::Arrive(spec));
        }
        for (t, e) in injections {
            engine.schedule_at(t, e);
        }
        let run_stats = engine.run_until(self.horizon);
        let end = engine.now();
        // The byte ledger is telemetry: counted at the horizon, while the
        // engine still holds its queue.
        let heap = instruments
            .as_ref()
            .is_some_and(|i| i.borrow().telemetry.is_some())
            .then(|| {
                let (mut owners, mut reserved) =
                    (engine.world().heap_bytes(), engine.world().reserved_bytes());
                let (queue, pool) = engine.queue_heap_bytes();
                owners.push(("queue_pool", queue));
                reserved.push(("queue_pool", pool));
                HeapLedger::now(owners, reserved)
            });
        let mut world = engine.into_world();
        let mut instruments = instruments.map(|handle| handle.take()).unwrap_or_default();
        // Validate the horizon state too: runs ending between events
        // (or with a stride) would otherwise leave the tail unchecked.
        if let Some(checker) = &mut instruments.checker {
            checker.check_world(end, &world);
        }
        finalize_sessions(&mut world);
        let telemetry = instruments
            .telemetry
            .map(|t| t.finish(&world, end.max(self.horizon)));
        ObservedRun {
            artifacts: RunArtifacts {
                world,
                scheduled_arrivals: n_arrivals,
                run_stats,
            },
            trace_hash: instruments.hasher.map(|h| h.hash()),
            spans: instruments.spans,
            invariants: instruments.checker,
            telemetry,
            heap,
        }
    }
}

/// Instrumentation options for [`Scenario::run_observed`].
#[derive(Clone, Copy, Debug, Default)]
pub struct RunOptions {
    /// Validate the protocol state with an [`InvariantChecker`] after
    /// every `n`-th event (`Some(0)` and `Some(1)` both mean every
    /// event); `None` runs no checker. Full-state validation is
    /// `O(peers)`, so large runs may want a stride.
    pub invariant_stride: Option<u64>,
    /// Fold the dispatch sequence into a trace hash and report it.
    pub trace_hash: bool,
    /// Report one causal span per dispatched event (seq, cause,
    /// sim-time, kind, manager, wall-clock handler duration). Passive
    /// like the other sinks.
    pub record_spans: bool,
    /// Record telemetry (engine counters, the protocol sample, the
    /// dispatch profile) and report one metric snapshot per
    /// window of this length (`SimTime::ZERO` means
    /// [`cs_telemetry::DEFAULT_WINDOW`], the 5-minute report cadence).
    /// Like the other sinks this is passive: artifacts and trace hashes
    /// are identical with telemetry on or off.
    pub telemetry: Option<SimTime>,
}

/// The output of an instrumented run.
pub struct ObservedRun {
    /// The regular run output (identical to an unobserved run).
    pub artifacts: RunArtifacts,
    /// FNV-1a digest of the `(time, event kind)` dispatch sequence, if
    /// requested.
    pub trace_hash: Option<u64>,
    /// One causal span per dispatched event, if requested.
    pub spans: Option<Vec<SpanRecord>>,
    /// The invariant checker with its verdict, if requested.
    pub invariants: Option<InvariantChecker>,
    /// Windowed metrics and dispatch profile, if requested.
    pub telemetry: Option<TelemetryRun>,
    /// The byte ledger at the horizon: every owner's heap bytes, the
    /// engine's queue among them, against `VmRSS`. Recorded with
    /// telemetry.
    pub heap: Option<HeapLedger>,
}

/// The output of one run.
pub struct RunArtifacts {
    /// The final world: log server, ground-truth sessions, snapshots,
    /// counters, the network registry.
    pub world: CsWorld,
    /// Arrivals the workload scheduled (excluding protocol-driven
    /// retries).
    pub scheduled_arrivals: usize,
    /// Engine statistics.
    pub run_stats: RunStats,
}

/// Map `f(index, item)` over `items` on up to `available_parallelism`
/// scoped threads, results in input order: workers pull the next
/// `(item, result slot)` pair from a shared queue. The items share nothing
/// (each run owns its world and RNG streams), so the output is the
/// sequential one by construction. A panic in `f` resurfaces when the
/// scope joins.
pub(crate) fn par_map<T: Send, R: Send>(items: Vec<T>, f: impl Fn(usize, T) -> R + Sync) -> Vec<R> {
    let workers = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(items.len());
    let mut slots: Vec<Option<R>> = items.iter().map(|_| None).collect();
    {
        let queue = Mutex::new(items.into_iter().zip(&mut slots).enumerate());
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    // Held across `next()` only, never across `f`.
                    let next = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
                    let Some((i, (item, slot))) = next else { break };
                    *slot = Some(f(i, item));
                });
            }
        });
    }
    slots.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs_proto::DepartReason;

    #[test]
    fn tiny_event_day_window_runs() {
        let a = Scenario::event_day(0.005)
            .with_seed(1)
            .with_window(
                SimTime::from_hours(19),
                SimTime::from_hours(19) + SimTime::from_mins(20),
            )
            .run();
        assert!(a.scheduled_arrivals > 20, "{}", a.scheduled_arrivals);
        assert!(a.world.stats.arrivals as usize >= a.scheduled_arrivals);
        // Sessions got closed out or marked still-active.
        for s in a.world.sessions.iter().filter(|s| s.class.is_user()) {
            assert!(s.reason.is_some(), "unfinalized session {:?}", s.node);
        }
        // Some users reached media-ready and reported it.
        let ready = a
            .world
            .sessions
            .iter()
            .filter(|s| s.class.is_user() && s.ready.is_some())
            .count();
        assert!(ready > 0, "nobody reached media-ready");
    }

    #[test]
    fn steady_scenario_reaches_equilibrium() {
        let a = Scenario::steady(0.25)
            .with_seed(2)
            .with_window(SimTime::ZERO, SimTime::from_mins(40))
            .run();
        let still = a
            .world
            .sessions
            .iter()
            .filter(|s| s.reason == Some(DepartReason::StillActive))
            .count();
        assert!(still > 0, "population should be non-empty at the horizon");
    }

    #[test]
    fn parallel_sweep_matches_sequential() {
        let mk = |seed| {
            Scenario::steady(0.2)
                .with_seed(seed)
                .with_window(SimTime::ZERO, SimTime::from_mins(10))
        };
        let seq: Vec<String> = (1..4).map(|s| mk(s).run().world.log.to_text()).collect();
        let par = par_map((1..4).map(mk).collect(), |_, s| s.run());
        for (s, p) in seq.iter().zip(par.iter()) {
            assert_eq!(*s, p.world.log.to_text(), "threads must not change results");
        }
    }

    #[test]
    fn par_map_keeps_input_order_past_the_worker_count() {
        let squares = par_map((0..97usize).collect(), |i, x| {
            assert_eq!(i, x);
            x * x
        });
        assert_eq!(squares, (0..97).map(|x| x * x).collect::<Vec<_>>());
        assert!(par_map(Vec::<u8>::new(), |_, x| x).is_empty());
    }

    #[test]
    fn server_capacity_scales_with_population() {
        let small = Scenario::event_day(0.01);
        let large = Scenario::event_day(0.5);
        let total_small = small.servers as u64 * small.server_bw.as_bps();
        let total_large = large.servers as u64 * large.server_bw.as_bps();
        let ratio = total_large as f64 / total_small as f64;
        assert!((ratio - 50.0).abs() < 1.0, "aggregate ratio {ratio}");
    }
}
