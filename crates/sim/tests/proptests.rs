//! Property tests for the event queue, scheduling context, and RNG.

use cs_sim::rng::{split_seed, Xoshiro256PlusPlus};
use cs_sim::{Ctx, Engine, EventQueue, SimTime, World};
use proptest::prelude::*;
use rand::RngCore;

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

proptest! {
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

    /// fill_bytes agrees with next_u64 word for word.
    #[test]
    fn fill_bytes_consistent_with_words(seed in any::<u64>()) {
        let mut a = Xoshiro256PlusPlus::new(seed);
        let mut b = Xoshiro256PlusPlus::new(seed);
        let mut buf = [0u8; 32];
        a.fill_bytes(&mut buf);
        for chunk in buf.chunks_exact(8) {
            prop_assert_eq!(u64::from_le_bytes(chunk.try_into().unwrap()), b.next_u64());
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
