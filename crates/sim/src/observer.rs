//! Engine instrumentation.
//!
//! An [`Observer`] is attached to an [`Engine`](crate::Engine) and sees
//! every dispatched event twice: once *before* the world's handler runs
//! ([`Observer::on_dispatch`], with the event itself) and once *after*
//! ([`Observer::after_handle`], with the post-event world). This is the
//! hook through which correctness tooling — invariant checkers, trace
//! hashing, event accounting — watches a run without the world knowing
//! it is being watched.
//!
//! The crate ships the trait and one event-alphabet-agnostic sink,
//! [`TraceHasher`], which folds `(time, event kind)` of every dispatch
//! into one `u64` (FNV-1a), so two runs can be compared for behavioural
//! identity by comparing a single number. An observer classifies the
//! event itself and hands the sink plain values.
//!
//! Observers are attached as `Box<dyn Observer<W>>`, which would normally
//! mean losing access to the concrete value's results. To keep a handle,
//! wrap the observer in `Rc<RefCell<_>>` — the blanket impl forwards the
//! hooks — attach a clone, and read the original after the run:
//!
//! ```
//! use cs_sim::{Ctx, Engine, Observer, SimTime, TraceHasher, World};
//! use std::cell::RefCell;
//! use std::rc::Rc;
//!
//! struct Nop;
//! impl World for Nop {
//!     type Event = ();
//!     fn handle(&mut self, _: &mut Ctx<'_, ()>, _: ()) {}
//! }
//!
//! #[derive(Default)]
//! struct Hashing(TraceHasher);
//! impl Observer<Nop> for Hashing {
//!     fn on_dispatch(&mut self, now: SimTime, _: &(), _queue_depth: usize) {
//!         self.0.record(now, "tick");
//!     }
//! }
//!
//! let hashing = Rc::new(RefCell::new(Hashing::default()));
//! let mut eng = Engine::new(Nop);
//! eng.set_observer(Box::new(Rc::clone(&hashing)));
//! eng.schedule_at(SimTime::from_secs(1), ());
//! eng.run_until(SimTime::from_secs(10));
//! assert_eq!(hashing.take().0.events(), 1);
//! ```

use std::cell::RefCell;
use std::rc::Rc;

use crate::engine::World;
use crate::time::SimTime;

/// Scheduling metadata for one dispatched event, delivered through
/// [`Observer::on_dispatch_meta`] immediately before
/// [`Observer::on_dispatch`].
///
/// `seq` is the event's queue insertion sequence — unique per engine and
/// monotone in scheduling order, so it doubles as a span id. `cause` is
/// the seq of the event whose handler scheduled this one (`None` for
/// events scheduled from outside any handler: initial events, workload
/// arrivals, chaos injections). Following `cause` links recovers the
/// causal tree of a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DispatchMeta {
    /// Queue insertion seq of the event being dispatched.
    pub seq: u64,
    /// Insertion seq of the scheduling event, if any.
    pub cause: Option<u64>,
}

/// A passive watcher of the engine's dispatch loop.
///
/// Both hooks default to no-ops so an observer implements only what it
/// needs. Observers must not assume they see *all* events of a run: one
/// can be attached or detached between `run_until` segments.
pub trait Observer<W: World> {
    /// Called for every event immediately before [`Observer::on_dispatch`]
    /// with the event's scheduling metadata (queue seq and causal
    /// parent). Separate from `on_dispatch` so existing observers that
    /// ignore causality pay nothing and change nothing.
    fn on_dispatch_meta(&mut self, meta: DispatchMeta) {
        let _ = meta;
    }

    /// Called for every event immediately before the world handles it.
    ///
    /// `queue_depth` is the number of events still pending *after* this
    /// one was popped.
    fn on_dispatch(&mut self, now: SimTime, event: &W::Event, queue_depth: usize) {
        let _ = (now, event, queue_depth);
    }

    /// Called immediately after the world's handler returns, with the
    /// post-event world state. The event itself was consumed by the
    /// handler; stash anything needed from it in [`Observer::on_dispatch`].
    fn after_handle(&mut self, now: SimTime, world: &W) {
        let _ = (now, world);
    }
}

/// Forward hooks through a shared handle, so callers can keep reading
/// an observer they have attached to an engine (see module docs).
impl<W: World, T: Observer<W>> Observer<W> for Rc<RefCell<T>> {
    fn on_dispatch_meta(&mut self, meta: DispatchMeta) {
        self.borrow_mut().on_dispatch_meta(meta);
    }
    fn on_dispatch(&mut self, now: SimTime, event: &W::Event, queue_depth: usize) {
        self.borrow_mut().on_dispatch(now, event, queue_depth);
    }
    fn after_handle(&mut self, now: SimTime, world: &W) {
        self.borrow_mut().after_handle(now, world);
    }
}

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Fold bytes into an FNV-1a accumulator.
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Deterministic trace digest: folds `(timestamp, event kind)` of every
/// dispatched event into a single `u64`.
///
/// Two runs with the same configuration and seed must produce the same
/// digest; a digest difference means the runs diverged at *some* event,
/// which is exactly the property determinism tests need — without
/// retaining the (potentially hundreds of millions of events) trace.
#[derive(Clone, Debug)]
pub struct TraceHasher {
    hash: u64,
    events: u64,
}

impl TraceHasher {
    /// An empty digest.
    pub fn new() -> Self {
        TraceHasher {
            hash: FNV_OFFSET,
            events: 0,
        }
    }

    /// Fold one dispatch into the digest.
    #[inline]
    pub fn record(&mut self, now: SimTime, kind: &str) {
        self.hash = fnv1a(self.hash, &now.as_micros().to_le_bytes());
        self.hash = fnv1a(self.hash, kind.as_bytes());
        self.events += 1;
    }

    /// The digest so far.
    pub fn hash(&self) -> u64 {
        self.hash
    }

    /// Number of events folded in.
    pub fn events(&self) -> u64 {
        self.events
    }
}

impl Default for TraceHasher {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Ctx, Engine};

    /// Fans out `n` one-shot events per tick until `depth` generations.
    struct Fanout {
        handled: u64,
    }

    #[derive(Clone, Copy)]
    enum Ev {
        Spawn(u32),
        Leaf,
    }

    impl Ev {
        fn kind(&self) -> &'static str {
            match self {
                Ev::Spawn(_) => "spawn",
                Ev::Leaf => "leaf",
            }
        }
    }

    impl World for Fanout {
        type Event = Ev;
        fn handle(&mut self, ctx: &mut Ctx<'_, Ev>, event: Ev) {
            self.handled += 1;
            if let Ev::Spawn(gen) = event {
                if gen > 0 {
                    ctx.schedule_in(SimTime::from_secs(1), Ev::Spawn(gen - 1));
                }
                ctx.schedule_in(SimTime::from_secs(1), Ev::Leaf);
                ctx.schedule_in(SimTime::from_secs(1), Ev::Leaf);
            }
        }
    }

    /// The hasher sink behind the observer hook.
    #[derive(Default)]
    struct Hashing(TraceHasher);

    impl Observer<Fanout> for Hashing {
        fn on_dispatch(&mut self, now: SimTime, event: &Ev, _queue_depth: usize) {
            self.0.record(now, event.kind());
        }
    }

    fn run_hashed(seed_gen: u32) -> TraceHasher {
        let hashing = Rc::new(RefCell::new(Hashing::default()));
        let mut eng = Engine::new(Fanout { handled: 0 });
        eng.set_observer(Box::new(Rc::clone(&hashing)));
        eng.schedule_at(SimTime::ZERO, Ev::Spawn(seed_gen));
        eng.run_until(SimTime::MAX);
        assert_eq!(hashing.borrow().0.events(), eng.world().handled);
        hashing.take().0
    }

    #[test]
    fn trace_hash_is_reproducible_and_discriminates() {
        let h1 = run_hashed(3);
        let h2 = run_hashed(3);
        let h3 = run_hashed(4);
        // Spawn(3..=0) → 4 spawn events, each emitting 2 leaves.
        assert_eq!(h1.events(), 12);
        assert_eq!(h1.hash(), h2.hash(), "same run must hash identically");
        assert_ne!(
            h1.hash(),
            h3.hash(),
            "different runs must (overwhelmingly) differ"
        );
    }

    #[test]
    fn observer_can_be_detached_and_read() {
        let hashing = Rc::new(RefCell::new(Hashing::default()));
        let mut eng = Engine::new(Fanout { handled: 0 });
        eng.set_observer(Box::new(Rc::clone(&hashing)));
        eng.schedule_at(SimTime::ZERO, Ev::Spawn(0));
        eng.run_until(SimTime::MAX);
        assert!(eng.take_observer().is_some());
        assert!(eng.take_observer().is_none());
        // Detached runs see nothing new.
        let before = hashing.borrow().0.events();
        assert_eq!(before, 3);
        eng.schedule_at(eng.now(), Ev::Leaf);
        eng.run_until(SimTime::MAX);
        assert_eq!(hashing.borrow().0.events(), before);
    }

    #[test]
    fn dispatch_meta_links_causes() {
        // Record (seq, cause) for every dispatch and check the causal
        // tree: the root has no cause, every other event is caused by a
        // previously dispatched seq.
        #[derive(Default)]
        struct MetaLog {
            metas: Vec<DispatchMeta>,
        }
        impl Observer<Fanout> for MetaLog {
            fn on_dispatch_meta(&mut self, meta: DispatchMeta) {
                self.metas.push(meta);
            }
        }
        let log = Rc::new(RefCell::new(MetaLog::default()));
        let mut eng = Engine::new(Fanout { handled: 0 });
        eng.set_observer(Box::new(Rc::clone(&log)));
        eng.schedule_at(SimTime::ZERO, Ev::Spawn(2));
        eng.run_until(SimTime::MAX);
        let metas = log.borrow().metas.clone();
        // Spawn(2..=0) → 3 spawns + 6 leaves.
        assert_eq!(metas.len(), 9);
        assert_eq!(metas[0].cause, None, "external schedule has no cause");
        let mut seen = vec![metas[0].seq];
        for m in &metas[1..] {
            let c = m.cause.expect("handler-scheduled events carry a cause");
            assert!(seen.contains(&c), "cause {c} must already be dispatched");
            seen.push(m.seq);
        }
        // Each Spawn causes 2 leaves (+1 follow-up spawn while gen > 0):
        // the root seq must appear as a cause exactly 3 times.
        let root = metas[0].seq;
        let root_children = metas.iter().filter(|m| m.cause == Some(root)).count();
        assert_eq!(root_children, 3);
    }

    #[test]
    fn after_handle_sees_post_event_world() {
        struct Snoop {
            last_handled: u64,
        }
        impl Observer<Fanout> for Snoop {
            fn after_handle(&mut self, _now: SimTime, world: &Fanout) {
                self.last_handled = world.handled;
            }
        }
        let snoop = Rc::new(RefCell::new(Snoop { last_handled: 0 }));
        let mut eng = Engine::new(Fanout { handled: 0 });
        eng.set_observer(Box::new(Rc::clone(&snoop)));
        eng.schedule_at(SimTime::ZERO, Ev::Spawn(1));
        eng.run_until(SimTime::MAX);
        assert_eq!(snoop.borrow().last_handled, eng.world().handled);
    }
}
