//! The event loop.
//!
//! A simulation is a [`World`] (all mutable state) plus an [`EventQueue`].
//! The [`Engine`] pops events in timestamp order and hands them to the
//! world together with a [`Ctx`] through which the handler schedules
//! follow-up events, reads the clock, or requests a stop.
//!
//! Queue entries carry no causal parent. While the attached observer asks
//! for causes ([`Observer::wants_causes`]) the engine keeps a table of
//! each pushed event's cause instead and hands each dispatch's
//! [`DispatchMeta`] to [`Observer::on_dispatch_meta`]; otherwise it
//! records nothing and makes no such call.

use crate::observer::{DispatchMeta, Observer};
use crate::queue::EventQueue;
use crate::time::SimTime;

/// The mutable state of a simulation and its event handler.
pub trait World {
    /// The event alphabet of this simulation.
    type Event;

    /// Handle one event. `ctx.now()` is the event's timestamp.
    fn handle(&mut self, ctx: &mut Ctx<'_, Self::Event>, event: Self::Event);
}

/// Handler-side view of the engine: the clock and the scheduler.
pub struct Ctx<'a, E> {
    now: SimTime,
    queue: &'a mut EventQueue<E>,
    stop: bool,
}

impl<E> Ctx<'_, E> {
    /// The current simulated time (timestamp of the event being handled).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `event` at absolute time `at`.
    ///
    /// Scheduling in the past is a logic error; the event is clamped to
    /// `now` so simulated time can never run backwards.
    #[inline]
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        self.queue.push(at.max(self.now), event);
    }

    /// Schedule `event` after delay `delay`.
    #[inline]
    pub fn schedule_in(&mut self, delay: SimTime, event: E) {
        self.queue.push(self.now + delay, event);
    }

    /// Ask the engine to stop after this handler returns.
    #[inline]
    pub fn stop(&mut self) {
        self.stop = true;
    }

    /// Number of events currently pending.
    #[inline]
    pub fn pending(&self) -> usize {
        self.queue.len()
    }
}

/// Why [`Engine::run_until`] returned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// The event queue drained.
    QueueEmpty,
    /// The next event lies beyond the horizon.
    HorizonReached,
    /// A handler called [`Ctx::stop`].
    Stopped,
    /// The configured event budget was exhausted (runaway guard).
    EventBudget,
}

/// Summary statistics for a completed run segment.
#[derive(Clone, Copy, Debug)]
pub struct RunStats {
    /// Number of events dispatched during this segment.
    pub events: u64,
    /// Simulated time when the segment ended.
    pub end_time: SimTime,
    /// Why the segment ended.
    pub reason: StopReason,
}

/// The cause recorded for an event scheduled from outside any handler.
/// Never a seq: that would take 2^64 pushes.
const EXTERNAL: u64 = u64::MAX;

/// The causal parent of every event pushed since the table was started,
/// indexed by seq.
///
/// The engine is single-threaded, so the pushes of one handler take
/// consecutive seqs: after each handler the engine fills the seqs it
/// pushed with the handler's own seq, and after each
/// [`Engine::schedule_at`] with [`EXTERNAL`]. A seq below `first` was
/// pushed before the table started, and its cause is unknown.
struct CauseTable {
    /// The first seq pushed after the table started.
    first: u64,
    /// `causes[i]` is the cause of seq `first + i`.
    causes: Vec<u64>,
}

impl CauseTable {
    /// An empty table whose first push takes seq `next`.
    fn new(next: u64) -> Self {
        CauseTable {
            first: next,
            causes: Vec::new(),
        }
    }

    /// Every seq pushed since the last fill, up to `next` (exclusive),
    /// was pushed by `cause`.
    fn fill(&mut self, cause: u64, next: u64) {
        // A length beyond `usize` cannot be allocated: `resize` fails loudly.
        let len = usize::try_from(next - self.first).unwrap_or(usize::MAX);
        self.causes.resize(len, cause);
    }

    /// The seq of the event whose handler pushed `seq`, if any.
    fn cause_of(&self, seq: u64) -> Option<u64> {
        let i = usize::try_from(seq.checked_sub(self.first)?).ok()?;
        self.causes.get(i).copied().filter(|&c| c != EXTERNAL)
    }
}

/// The simulation driver.
pub struct Engine<W: World> {
    world: W,
    queue: EventQueue<W::Event>,
    now: SimTime,
    observer: Option<Box<dyn Observer<W>>>,
    /// Kept while the observer [wants causes](Observer::wants_causes).
    causes: Option<CauseTable>,
    /// Hard cap on dispatched events per `run_until` call, to convert
    /// accidental infinite self-scheduling into a visible error condition.
    pub event_budget: u64,
}

impl<W: World> Engine<W> {
    /// Wrap a world with an empty queue at time zero.
    pub fn new(world: W) -> Self {
        Engine::with_queue_capacity(world, 0)
    }

    /// [`Engine::new`] with the event queue's chunk pool reserved for
    /// `events` concurrently pending events (e.g. a scenario's node-id
    /// bound times the most events one node can have pending), so the
    /// pool is not re-allocated during the run. A reservation costs
    /// address space only; memory is touched as events arrive.
    pub fn with_queue_capacity(world: W, events: usize) -> Self {
        Engine {
            world,
            queue: EventQueue::with_capacity(events),
            now: SimTime::ZERO,
            observer: None,
            causes: None,
            event_budget: u64::MAX,
        }
    }

    /// Attach an observer; replaces any previous one. See the
    /// [`observer`](crate::observer) module for keeping a readable handle.
    /// Causes are recorded from here on if the observer wants them.
    pub fn set_observer(&mut self, observer: Box<dyn Observer<W>>) {
        self.causes = observer
            .wants_causes()
            .then(|| CauseTable::new(self.queue.total_pushed()));
        self.observer = Some(observer);
    }

    /// Detach and return the current observer, if any.
    pub fn take_observer(&mut self) -> Option<Box<dyn Observer<W>>> {
        self.causes = None;
        self.observer.take()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Shared access to the world.
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Mutable access to the world (for setup and post-run inspection).
    pub fn world_mut(&mut self) -> &mut W {
        &mut self.world
    }

    /// The event queue's heap bytes held and its pool's reserved
    /// capacity ([`EventQueue::heap_bytes`], [`EventQueue::reserved_bytes`]).
    pub fn queue_heap_bytes(&self) -> (usize, usize) {
        (self.queue.heap_bytes(), self.queue.reserved_bytes())
    }

    /// Consume the engine, returning the world.
    pub fn into_world(self) -> W {
        self.world
    }

    /// Schedule an event before or between runs.
    pub fn schedule_at(&mut self, at: SimTime, event: W::Event) {
        self.queue.push(at.max(self.now), event);
        if let Some(causes) = &mut self.causes {
            causes.fill(EXTERNAL, self.queue.total_pushed());
        }
    }

    /// Run until the queue drains, a handler stops the run, or the next
    /// event would be strictly later than `horizon`.
    ///
    /// Events *at* the horizon are processed. On return, `now` is the
    /// horizon (if reached) or the time of the last processed event.
    pub fn run_until(&mut self, horizon: SimTime) -> RunStats {
        let mut events = 0u64;
        let reason = loop {
            if events >= self.event_budget {
                break StopReason::EventBudget;
            }
            match self.queue.peek_time() {
                None => break StopReason::QueueEmpty,
                Some(t) if t > horizon => {
                    self.now = horizon;
                    break StopReason::HorizonReached;
                }
                Some(_) => {}
            }
            let Some(popped) = self.queue.pop_entry() else {
                break StopReason::QueueEmpty;
            };
            let (t, seq, event) = (popped.time, popped.seq, popped.event);
            self.now = t;
            if let Some(obs) = &mut self.observer {
                if let Some(causes) = &self.causes {
                    let cause = causes.cause_of(seq);
                    obs.on_dispatch_meta(DispatchMeta { seq, cause });
                }
                obs.on_dispatch(t, &event, self.queue.len());
            }
            let mut ctx = Ctx {
                now: t,
                queue: &mut self.queue,
                stop: false,
            };
            self.world.handle(&mut ctx, event);
            let stop = ctx.stop;
            if let Some(obs) = &mut self.observer {
                obs.after_handle(t, &self.world);
            }
            // Recorded after `after_handle`, so an observer timing the
            // handler does not time this.
            if let Some(causes) = &mut self.causes {
                causes.fill(seq, self.queue.total_pushed());
            }
            events += 1;
            if stop {
                break StopReason::Stopped;
            }
        };
        RunStats {
            events,
            end_time: self.now,
            reason,
        }
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::rc::Rc;

    use super::*;

    /// A world that counts ticks and reschedules itself.
    struct Ticker {
        ticks: u32,
        period: SimTime,
        stop_after: u32,
    }

    enum Ev {
        Tick,
    }

    impl World for Ticker {
        type Event = Ev;
        fn handle(&mut self, ctx: &mut Ctx<'_, Ev>, _: Ev) {
            self.ticks += 1;
            if self.ticks >= self.stop_after {
                ctx.stop();
            } else {
                ctx.schedule_in(self.period, Ev::Tick);
            }
        }
    }

    #[test]
    fn periodic_self_scheduling_advances_clock() {
        let mut eng = Engine::new(Ticker {
            ticks: 0,
            period: SimTime::from_secs(10),
            stop_after: u32::MAX,
        });
        eng.schedule_at(SimTime::ZERO, Ev::Tick);
        let stats = eng.run_until(SimTime::from_secs(95));
        assert_eq!(stats.reason, StopReason::HorizonReached);
        // Ticks at 0,10,...,90 → 10 events.
        assert_eq!(eng.world().ticks, 10);
        assert_eq!(eng.now(), SimTime::from_secs(95));
    }

    #[test]
    fn handler_stop_halts_immediately() {
        let mut eng = Engine::new(Ticker {
            ticks: 0,
            period: SimTime::from_secs(1),
            stop_after: 3,
        });
        eng.schedule_at(SimTime::ZERO, Ev::Tick);
        let stats = eng.run_until(SimTime::MAX);
        assert_eq!(stats.reason, StopReason::Stopped);
        assert_eq!(eng.world().ticks, 3);
    }

    #[test]
    fn queue_drain_ends_run() {
        let mut eng = Engine::new(Ticker {
            ticks: 0,
            period: SimTime::from_secs(1),
            stop_after: u32::MAX,
        });
        // Nothing scheduled.
        let stats = eng.run_until(SimTime::from_secs(100));
        assert_eq!(stats.reason, StopReason::QueueEmpty);
        assert_eq!(stats.events, 0);
    }

    #[test]
    fn event_budget_catches_runaway() {
        struct Runaway;
        impl World for Runaway {
            type Event = ();
            fn handle(&mut self, ctx: &mut Ctx<'_, ()>, _: ()) {
                ctx.schedule_in(SimTime::ZERO, ());
            }
        }
        let mut eng = Engine::new(Runaway);
        eng.event_budget = 1000;
        eng.schedule_at(SimTime::ZERO, ());
        let stats = eng.run_until(SimTime::MAX);
        assert_eq!(stats.reason, StopReason::EventBudget);
        assert_eq!(stats.events, 1000);
    }

    #[test]
    fn events_at_horizon_are_processed() {
        let mut eng = Engine::new(Ticker {
            ticks: 0,
            period: SimTime::from_secs(5),
            stop_after: u32::MAX,
        });
        eng.schedule_at(SimTime::from_secs(5), Ev::Tick);
        eng.run_until(SimTime::from_secs(5));
        assert_eq!(eng.world().ticks, 1);
    }

    #[test]
    fn scheduling_in_past_clamps_to_now() {
        struct PastScheduler {
            saw_backwards: bool,
            last: SimTime,
        }
        enum E2 {
            First,
            Second,
        }
        impl World for PastScheduler {
            type Event = E2;
            fn handle(&mut self, ctx: &mut Ctx<'_, E2>, ev: E2) {
                if ctx.now() < self.last {
                    self.saw_backwards = true;
                }
                self.last = ctx.now();
                if matches!(ev, E2::First) {
                    // Deliberately try to schedule before now.
                    ctx.schedule_at(SimTime::ZERO, E2::Second);
                }
            }
        }
        let mut eng = Engine::new(PastScheduler {
            saw_backwards: false,
            last: SimTime::ZERO,
        });
        eng.schedule_at(SimTime::from_secs(10), E2::First);
        eng.run_until(SimTime::MAX);
        assert!(!eng.world().saw_backwards);
        assert_eq!(eng.world().last, SimTime::from_secs(10));
    }

    #[test]
    fn schedule_in_max_is_never_behind_now() {
        // `now + SimTime::MAX` used to wrap to 1 µs before `now` in
        // release builds, and `schedule_in` does not clamp.
        struct Far(Vec<SimTime>);
        impl World for Far {
            type Event = bool;
            fn handle(&mut self, ctx: &mut Ctx<'_, bool>, first: bool) {
                self.0.push(ctx.now());
                if first {
                    ctx.schedule_in(SimTime::MAX, false);
                }
            }
        }
        let mut eng = Engine::new(Far(Vec::new()));
        eng.schedule_at(SimTime::from_secs(10), true);
        let stats = eng.run_until(SimTime::from_hours(1));
        assert_eq!(stats.reason, StopReason::HorizonReached);
        assert_eq!(eng.world().0, [SimTime::from_secs(10)]);
        eng.run_until(SimTime::MAX);
        assert_eq!(eng.world().0, [SimTime::from_secs(10), SimTime::MAX]);
    }

    /// Event `n` schedules `n - 1` one second later, down to 0.
    struct Countdown;

    impl World for Countdown {
        type Event = u32;
        fn handle(&mut self, ctx: &mut Ctx<'_, u32>, n: u32) {
            if n > 0 {
                ctx.schedule_in(SimTime::from_secs(1), n - 1);
            }
        }
    }

    /// Records `(seq, cause)` of every dispatch.
    struct Causes {
        wants: bool,
        metas: Vec<(u64, Option<u64>)>,
    }

    impl Observer<Countdown> for Causes {
        fn wants_causes(&self) -> bool {
            self.wants
        }
        fn on_dispatch_meta(&mut self, meta: DispatchMeta) {
            self.metas.push((meta.seq, meta.cause));
        }
    }

    fn causes(wants: bool) -> Rc<RefCell<Causes>> {
        Rc::new(RefCell::new(Causes {
            wants,
            metas: Vec::new(),
        }))
    }

    #[test]
    fn causes_follow_push_ranges_across_run_segments() {
        let log = causes(true);
        let mut eng = Engine::new(Countdown);
        eng.set_observer(Box::new(Rc::clone(&log)));
        eng.schedule_at(SimTime::ZERO, 2);
        eng.run_until(SimTime::from_secs(10));
        // Seq 2's handler pushes nothing; seq 3 arrives from outside.
        eng.schedule_at(SimTime::from_secs(20), 1);
        eng.run_until(SimTime::from_secs(30));
        assert_eq!(
            log.borrow().metas,
            [
                (0, None),
                (1, Some(0)),
                (2, Some(1)),
                (3, None),
                (4, Some(3))
            ]
        );
    }

    #[test]
    fn observer_attached_mid_run_reads_no_cause_for_earlier_pushes() {
        let log = causes(true);
        let mut eng = Engine::new(Countdown);
        eng.schedule_at(SimTime::ZERO, 3);
        // Dispatches seqs 0 and 1; seq 1's handler pushes seq 2.
        eng.run_until(SimTime::from_secs(1));
        eng.set_observer(Box::new(Rc::clone(&log)));
        eng.run_until(SimTime::MAX);
        assert_eq!(log.borrow().metas, [(2, None), (3, Some(2))]);
    }

    #[test]
    fn an_observer_that_wants_no_causes_records_none() {
        let log = causes(false);
        let mut eng = Engine::new(Countdown);
        eng.set_observer(Box::new(Rc::clone(&log)));
        eng.schedule_at(SimTime::ZERO, 2);
        eng.run_until(SimTime::MAX);
        assert!(eng.causes.is_none());
        assert!(log.borrow().metas.is_empty(), "no metadata without causes");
    }

    #[test]
    fn run_can_be_resumed_across_horizons() {
        let mut eng = Engine::new(Ticker {
            ticks: 0,
            period: SimTime::from_secs(1),
            stop_after: u32::MAX,
        });
        eng.schedule_at(SimTime::ZERO, Ev::Tick);
        eng.run_until(SimTime::from_secs(4));
        let first = eng.world().ticks;
        eng.run_until(SimTime::from_secs(9));
        assert!(eng.world().ticks > first);
        assert_eq!(eng.world().ticks, 10); // ticks at 0..=9
    }
}
