//! Property tests for the event queue, scheduling context, and RNG.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use cs_sim::rng::split_seed;
use cs_sim::{Ctx, Engine, EventQueue, RunStats, SimTime, StopReason, World};
use proptest::prelude::*;

/// A world whose every event tries to schedule its successor *in the
/// past* (`back` µs before now). [`Ctx::schedule_at`] must clamp these
/// to `now`, so dispatch times can never regress.
struct ClampWorld {
    dispatched: Vec<SimTime>,
}

#[derive(Clone, Copy)]
struct Hop {
    back: u64,
    hops_left: u32,
}

impl World for ClampWorld {
    type Event = Hop;

    fn handle(&mut self, ctx: &mut Ctx<'_, Hop>, ev: Hop) {
        self.dispatched.push(ctx.now());
        if ev.hops_left > 0 {
            let target = ctx.now().saturating_sub(SimTime::from_micros(ev.back));
            ctx.schedule_at(
                target,
                Hop {
                    back: ev.back,
                    hops_left: ev.hops_left - 1,
                },
            );
        }
    }
}

/// A self-rescheduling event: chain `chain` with `hops` successors left.
type Link = (u8, u32);

/// The handler logic of [`ChainWorld`], shared with the reference loop:
/// every dispatch takes the next delay of a fixed list (cycling), an
/// event with hops left schedules its successor after it, and every
/// fourth one also forks a one-hop chain at the same delay. Dispatch
/// number `stop_at` asks the run to stop.
struct Script {
    delays: Vec<SimTime>,
    stop_at: usize,
    dispatched: Vec<(SimTime, Link)>,
}

impl Script {
    /// Record a dispatch at `now`; returns the follow-ups (delay, event)
    /// and whether to stop.
    fn step(&mut self, now: SimTime, (chain, hops): Link) -> (Vec<(SimTime, Link)>, bool) {
        let k = self.dispatched.len();
        self.dispatched.push((now, (chain, hops)));
        let delay = self.delays[k % self.delays.len()];
        let mut next = Vec::new();
        if hops > 0 {
            next.push((delay, (chain, hops - 1)));
            if k % 4 == 0 {
                next.push((delay, (chain.wrapping_add(100), 0)));
            }
        }
        (next, k == self.stop_at)
    }
}

struct ChainWorld(Script);

impl World for ChainWorld {
    type Event = Link;

    fn handle(&mut self, ctx: &mut Ctx<'_, Link>, ev: Link) {
        let (next, stop) = self.0.step(ctx.now(), ev);
        for (delay, ev) in next {
            ctx.schedule_in(delay, ev);
        }
        if stop {
            ctx.stop();
        }
    }
}

/// The `run_until` contract over one `BinaryHeap` ordered by
/// `(time, push index)`: one `(events, end_time, reason)` per segment.
fn reference_run(
    script: &mut Script,
    starts: &[(SimTime, Link)],
    segments: &[(SimTime, u64)],
) -> Vec<(u64, SimTime, StopReason)> {
    let mut heap = BinaryHeap::new();
    let mut pushed = 0u64;
    for &(at, ev) in starts {
        heap.push(Reverse((at, pushed, ev)));
        pushed += 1;
    }
    let mut now = SimTime::ZERO;
    let mut stats = Vec::new();
    for &(horizon, budget) in segments {
        let mut events = 0;
        let reason = loop {
            if events >= budget {
                break StopReason::EventBudget;
            }
            let Some(&Reverse((at, _, _))) = heap.peek() else {
                break StopReason::QueueEmpty;
            };
            if at > horizon {
                now = horizon;
                break StopReason::HorizonReached;
            }
            let Some(Reverse((at, _, ev))) = heap.pop() else {
                unreachable!("peeked");
            };
            now = at;
            let (next, stop) = script.step(now, ev);
            for (delay, ev) in next {
                heap.push(Reverse((now + delay, pushed, ev)));
                pushed += 1;
            }
            events += 1;
            if stop {
                break StopReason::Stopped;
            }
        };
        stats.push((events, now, reason));
    }
    stats
}

/// A delay of kind `kind`: zero, sub-tick, or one of the protocol's
/// 2 s, 4 s, 10 s and 300 s periods.
fn delay_of((kind, sub_us): (u8, u64)) -> SimTime {
    match kind {
        0 => SimTime::ZERO,
        1 => SimTime::from_micros(sub_us),
        2 => SimTime::from_secs(2),
        3 => SimTime::from_secs(4),
        4 => SimTime::from_secs(10),
        _ => SimTime::from_secs(300),
    }
}

proptest! {
    /// Self-rescheduling chains run through several `run_until`
    /// segments — random horizons, event budgets and a handler stop —
    /// dispatch the same `(time, event)` sequence and return the same
    /// `RunStats` and clock as the reference loop.
    #[test]
    fn run_until_segments_match_a_reference_heap(
        delays in proptest::collection::vec((0u8..6, 1u64..16_384), 1..12),
        starts in proptest::collection::vec((0u64..5_000_000, 0u32..40), 1..8),
        segments in proptest::collection::vec((0u64..400_000_000, 0u8..4, 1u64..60), 1..8),
        stop_at in 0usize..400,
    ) {
        let script = || Script {
            delays: delays.iter().copied().map(delay_of).collect(),
            stop_at,
            dispatched: Vec::new(),
        };
        let starts: Vec<_> = (0u8..)
            .zip(&starts)
            .map(|(chain, &(at, hops))| (SimTime::from_micros(at), (chain, hops)))
            .collect();
        // Horizons grow by a random step; one budget in four is finite.
        let mut horizon = SimTime::ZERO;
        let segments: Vec<_> = segments
            .iter()
            .map(|&(step, budget_kind, budget)| {
                horizon += SimTime::from_micros(step);
                (horizon, if budget_kind == 0 { budget } else { u64::MAX })
            })
            .chain([(SimTime::MAX, u64::MAX)])
            .collect();
        let mut reference = script();
        let expected = reference_run(&mut reference, &starts, &segments);
        let mut engine = Engine::new(ChainWorld(script()));
        for &(at, ev) in &starts {
            engine.schedule_at(at, ev);
        }
        for (&(horizon, budget), &(events, end_time, reason)) in segments.iter().zip(&expected) {
            engine.event_budget = budget;
            let RunStats { events: e, end_time: t, reason: r } = engine.run_until(horizon);
            prop_assert_eq!((e, t, r), (events, end_time, reason));
            prop_assert_eq!(engine.now(), end_time);
        }
        prop_assert_eq!(&engine.world().0.dispatched, &reference.dispatched);
    }

    /// Popping always yields a sequence sorted by time, and FIFO within
    /// equal timestamps.
    #[test]
    fn queue_total_order(times in proptest::collection::vec(0u64..1000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_micros(t), i);
        }
        let mut last_time = SimTime::ZERO;
        let mut last_seq_at_time: Option<usize> = None;
        while let Some((t, idx)) = q.pop() {
            prop_assert!(t >= last_time);
            if t == last_time {
                if let Some(prev) = last_seq_at_time {
                    prop_assert!(idx > prev, "FIFO violated at t={t:?}");
                }
            } else {
                last_time = t;
            }
            last_seq_at_time = Some(idx);
        }
    }

    /// Every pushed element comes back exactly once.
    #[test]
    fn queue_conserves_events(times in proptest::collection::vec(0u64..50, 0..100)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_micros(t), i);
        }
        let mut seen = vec![false; times.len()];
        while let Some((_, idx)) = q.pop() {
            prop_assert!(!seen[idx], "duplicate pop of {idx}");
            seen[idx] = true;
        }
        prop_assert!(seen.iter().all(|&s| s));
    }

    /// Seed splitting is injective over a decent range of inputs.
    #[test]
    fn split_seed_no_collisions(master in 0u64..10_000, a in 0u64..64, b in 0u64..64) {
        if a != b {
            prop_assert_ne!(split_seed(master, a), split_seed(master, b));
        }
    }

    /// SimTime arithmetic: (a + b) - b == a, and subtraction saturates.
    #[test]
    fn simtime_add_sub(a in 0u64..u32::MAX as u64, b in 0u64..u32::MAX as u64) {
        let (ta, tb) = (SimTime::from_micros(a), SimTime::from_micros(b));
        prop_assert_eq!((ta + tb) - tb, ta);
        if a < b {
            prop_assert_eq!(ta - tb, SimTime::ZERO);
        }
    }

    /// Interleaved pushes and pops checked against a brute-force
    /// reference model: each pop returns the earliest pending entry,
    /// FIFO-stable among equal timestamps.
    #[test]
    fn queue_interleaved_matches_reference(
        ops in proptest::collection::vec((any::<bool>(), 0u64..64), 1..200),
    ) {
        let mut q = EventQueue::new();
        // Pending entries in push order: (time, id). The reference pop is
        // the *first* entry holding the minimum time.
        let mut model: Vec<(u64, usize)> = Vec::new();
        let mut next_id = 0usize;
        let pop_reference =
            |q: &mut EventQueue<usize>, model: &mut Vec<(u64, usize)>| -> Result<(), TestCaseError> {
                let min_t = model.iter().map(|&(t, _)| t).min().expect("non-empty");
                let pos = model.iter().position(|&(t, _)| t == min_t).unwrap();
                let (mt, mid) = model.remove(pos);
                let (qt, qid) = q.pop().expect("model says non-empty");
                prop_assert_eq!(qt, SimTime::from_micros(mt));
                prop_assert_eq!(qid, mid, "FIFO order among t={mt}");
                Ok(())
            };
        for &(push, t) in &ops {
            if push || model.is_empty() {
                q.push(SimTime::from_micros(t), next_id);
                model.push((t, next_id));
                next_id += 1;
            } else {
                pop_reference(&mut q, &mut model)?;
            }
        }
        while !model.is_empty() {
            pop_reference(&mut q, &mut model)?;
        }
        prop_assert!(q.pop().is_none());
    }

    /// A handler chain that keeps scheduling into the past: the clamp in
    /// `Ctx::schedule_at` must keep dispatch times non-decreasing and
    /// never below the first event's timestamp.
    #[test]
    fn schedule_at_past_is_clamped_to_now(
        start in 0u64..10_000,
        back in 0u64..20_000,
        hops in 1u32..50,
    ) {
        let mut engine = Engine::new(ClampWorld { dispatched: Vec::new() });
        engine.schedule_at(
            SimTime::from_micros(start),
            Hop { back, hops_left: hops },
        );
        engine.run_until(SimTime::MAX);
        let times = &engine.world().dispatched;
        prop_assert_eq!(times.len(), hops as usize + 1);
        prop_assert_eq!(times[0], SimTime::from_micros(start));
        for w in times.windows(2) {
            prop_assert!(w[1] >= w[0], "time regressed: {:?} -> {:?}", w[0], w[1]);
        }
        // A past target is clamped to *now* exactly, never to something
        // later, so the whole chain dispatches at the start time.
        prop_assert_eq!(*times.last().unwrap(), SimTime::from_micros(start));
    }
}
