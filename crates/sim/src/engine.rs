//! The event loop.
//!
//! A simulation is a [`World`] (all mutable state) plus an [`EventQueue`].
//! The [`Engine`] pops events in timestamp order and hands them to the
//! world together with a [`Ctx`] through which the handler schedules
//! follow-up events, reads the clock, or requests a stop.

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

/// The simulation driver.
pub struct Engine<W: World> {
    world: W,
    queue: EventQueue<W::Event>,
    now: SimTime,
    observer: Option<Box<dyn Observer<W>>>,
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
    /// roughly `events` concurrently pending events (e.g. a scenario's
    /// expected peer count times its per-peer periodic timers), so the
    /// pool is not re-allocated during the arrival ramp. A reservation
    /// costs address space only; memory is touched as events arrive.
    pub fn with_queue_capacity(world: W, events: usize) -> Self {
        Engine {
            world,
            queue: EventQueue::with_capacity(events),
            now: SimTime::ZERO,
            observer: None,
            event_budget: u64::MAX,
        }
    }

    /// Attach an observer; replaces any previous one. See the
    /// [`observer`](crate::observer) module for keeping a readable handle.
    pub fn set_observer(&mut self, observer: Box<dyn Observer<W>>) {
        self.observer = Some(observer);
    }

    /// Detach and return the current observer, if any.
    pub fn take_observer(&mut self) -> Option<Box<dyn Observer<W>>> {
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

    /// Consume the engine, returning the world.
    pub fn into_world(self) -> W {
        self.world
    }

    /// Schedule an event before or between runs.
    pub fn schedule_at(&mut self, at: SimTime, event: W::Event) {
        self.queue.push(at.max(self.now), event);
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
            let (t, event) = (popped.time, popped.event);
            self.now = t;
            if let Some(obs) = &mut self.observer {
                obs.on_dispatch_meta(DispatchMeta {
                    seq: popped.seq,
                    cause: popped.cause,
                });
                obs.on_dispatch(t, &event, self.queue.len());
            }
            // Events scheduled by this handler are caused by this event.
            self.queue.set_cause(Some(popped.seq));
            let mut ctx = Ctx {
                now: t,
                queue: &mut self.queue,
                stop: false,
            };
            self.world.handle(&mut ctx, event);
            let stop = ctx.stop;
            self.queue.set_cause(None);
            if let Some(obs) = &mut self.observer {
                obs.after_handle(t, &self.world);
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
