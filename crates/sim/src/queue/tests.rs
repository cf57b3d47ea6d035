//! Unit, differential and memory tests of the timing wheel.

use proptest::prelude::*;

use self::reference::ReferenceQueue;
use super::*;

mod reference {
    //! The pre-wheel `BinaryHeap` queue, kept as the ordering oracle for
    //! the timing wheel's differential tests.

    use std::collections::BinaryHeap;

    use super::super::{stored, Entry};
    use crate::time::SimTime;

    /// A time-ordered event queue backed by one global binary heap —
    /// the reference implementation of the `(time, seq)` total order.
    pub struct ReferenceQueue<E> {
        heap: BinaryHeap<Entry<E>>,
        next_seq: u64,
    }

    impl<E> ReferenceQueue<E> {
        /// An empty queue.
        pub fn new() -> Self {
            ReferenceQueue {
                heap: BinaryHeap::new(),
                next_seq: 0,
            }
        }

        /// Schedule `event` at absolute time `time`.
        pub fn push(&mut self, time: SimTime, event: E) {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(Entry {
                time,
                seq: stored(seq),
                event,
            });
        }

        /// Remove and return the earliest entry (FIFO among equal
        /// timestamps) as `(time, seq, event)`.
        pub fn pop_entry(&mut self) -> Option<(SimTime, u64, E)> {
            let e = self.heap.pop()?;
            Some((e.time, e.seq.get() - 1, e.event))
        }
    }
}

/// `2^36` ticks (≈ 36 years): where level 6 begins for a cursor at zero,
/// and where a six-level wheel ends. The far cases below sit there,
/// beside `u64::MAX − 1` and `SimTime::MAX`.
const FAR_BITS: u32 = 36;

/// The wheel's earliest entry as `(time, seq, event)`, taken through the
/// engine's entry point.
fn pop_entry<E>(q: &mut EventQueue<E>) -> Option<(SimTime, u64, E)> {
    let due = q.pop_due(SimTime::MAX)?;
    Some((due.time, due.seq.get() - 1, due.event.into_inner()))
}

#[test]
fn pops_in_time_order() {
    let mut q = EventQueue::new();
    q.push(SimTime::from_secs(3), "c");
    q.push(SimTime::from_secs(1), "a");
    q.push(SimTime::from_secs(2), "b");
    let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
    assert_eq!(order, vec!["a", "b", "c"]);
}

#[test]
fn equal_timestamps_are_fifo() {
    let mut q = EventQueue::new();
    let t = SimTime::from_secs(5);
    for i in 0..100 {
        q.push(t, i);
    }
    let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
    assert_eq!(order, (0..100).collect::<Vec<_>>());
}

#[test]
fn interleaved_push_pop_keeps_fifo_within_time() {
    let mut q = EventQueue::new();
    let t = SimTime::from_secs(1);
    q.push(t, 0);
    q.push(t, 1);
    assert_eq!(q.pop().unwrap().1, 0);
    q.push(t, 2);
    assert_eq!(q.pop().unwrap().1, 1);
    assert_eq!(q.pop().unwrap().1, 2);
}

#[test]
fn counters_track_traffic() {
    let mut q = EventQueue::new();
    q.push(SimTime::ZERO, ());
    q.push(SimTime::ZERO, ());
    q.pop();
    assert_eq!(q.total_pushed(), 2);
    assert_eq!(q.len(), 1);
    assert!(!q.is_empty());
}

#[test]
fn a_head_beyond_the_horizon_stays_pending() {
    let mut q = EventQueue::new();
    q.push(SimTime::from_secs(9), 1);
    assert!(q.pop_due(SimTime::from_micros(8_999_999)).is_none());
    assert_eq!(q.len(), 1);
    let due = q.pop_due(SimTime::from_secs(9)).expect("due at its time");
    assert_eq!(
        (due.time, due.event.into_inner()),
        (SimTime::from_secs(9), 1)
    );
    assert!(q.is_empty());
}

/// Timestamps chosen to land on every wheel level relative to a cursor at
/// zero, up to `SimTime::MAX`. 400 pushes over these 26 values repeat
/// each about 15 times, so every slot's chain holds runs of equal
/// timestamps that must cascade and drain in push (`seq`) order.
fn level_spanning_times() -> Vec<SimTime> {
    let tick = 1u64 << TICK_SHIFT;
    let mut v = vec![
        SimTime::ZERO,
        SimTime::from_micros(1),
        SimTime::from_micros(tick - 1),
        SimTime::from_micros(tick),
    ];
    for level in 0..LEVELS as u32 {
        // Level 8's 17 spans pass `u64::MAX`: they saturate to it.
        let span = tick << (SLOT_BITS * level);
        v.push(SimTime::from_micros(span + 3));
        v.push(SimTime::from_micros(
            span.saturating_mul(17).saturating_add(1),
        ));
    }
    v.push(SimTime::from_micros(tick << FAR_BITS));
    v.push(SimTime::from_micros((tick << FAR_BITS) * 9 + 5));
    v.push(SimTime(u64::MAX - 1));
    v.push(SimTime::MAX);
    v
}

#[test]
fn wheel_matches_reference_across_levels() {
    let times = level_spanning_times();
    let mut wheel = EventQueue::new();
    let mut oracle = ReferenceQueue::new();
    // A fixed LCG shuffles pushes deterministically over the spans.
    let mut state = 0x9e3779b97f4a7c15u64;
    for i in 0..400u32 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let t = times[(state >> 33) as usize % times.len()];
        wheel.push(t, i);
        oracle.push(t, i);
    }
    loop {
        let (a, b) = (pop_entry(&mut wheel), oracle.pop_entry());
        match (a, b) {
            (None, None) => break,
            (Some(x), Some(y)) => assert_eq!(x, y),
            _ => panic!("wheel and reference disagree on length"),
        }
    }
}

#[test]
fn slot_63_carry_keeps_order() {
    // Draining level-0 slot 63 carries the cursor digit into level 1;
    // an entry parked on that exact level-1 slot must still come out
    // in time order (the in-place cascade case).
    let tick = 1u64 << TICK_SHIFT;
    let mut q = EventQueue::new();
    q.push(SimTime::from_micros(63 * tick), "slot63");
    q.push(SimTime::from_micros(64 * tick), "level1");
    q.push(SimTime::from_micros(64 * tick + 1), "level1-later");
    assert_eq!(q.pop().unwrap().1, "slot63");
    assert_eq!(q.pop().unwrap().1, "level1");
    assert_eq!(q.pop().unwrap().1, "level1-later");
    assert!(q.pop().is_none());
}

#[test]
fn carry_cascades_before_later_pushes() {
    // Regression: pop tick 63 (carrying the cursor to tick 64) while
    // tick 66 is parked on the level-1 slot the carry lands on, then
    // push tick 74. The parked entry must cascade at carry time, or
    // the tick-74 drain would advance the cursor straight past it.
    let tick = 1u64 << TICK_SHIFT;
    let mut q = EventQueue::new();
    q.push(SimTime::from_micros(63 * tick), "a63");
    q.push(SimTime::from_micros(66 * tick), "b66");
    assert_eq!(q.pop().unwrap().1, "a63");
    q.push(SimTime::from_micros(74 * tick), "c74");
    assert_eq!(q.pop().unwrap().1, "b66");
    assert_eq!(q.pop().unwrap().1, "c74");
    assert!(q.is_empty());
}

#[test]
fn carry_into_level_6_keeps_order() {
    // Regression: the last tick below `2^36` carries the cursor into
    // level 6's next digit, where an earlier entry waits. A push made
    // after the carry must not drain ahead of it.
    let tick = 1u64 << TICK_SHIFT;
    let rotation = tick << FAR_BITS;
    let mut q = EventQueue::new();
    q.push(SimTime::from_micros(rotation - tick), "last-tick");
    q.push(SimTime::from_micros(rotation + 5 * tick), "waiting");
    assert_eq!(q.pop().unwrap().1, "last-tick");
    q.push(
        SimTime::from_micros(rotation + 10 * tick),
        "pushed-after-carry",
    );
    assert_eq!(q.pop().unwrap().1, "waiting");
    assert_eq!(q.pop().unwrap().1, "pushed-after-carry");
    assert!(q.is_empty());
}

/// The lemma the drain relies on: entries of one timestamp share one
/// slot, in push order, wherever the cursor stood when each was pushed.
/// The target's first pushes sit on level 6; each stage then pops a
/// stepping-stone entry that carries the cursor (the last tick before the
/// target's block) or jumps it (the block's first tick) one level closer,
/// and pushes more at the target and at its in-tick neighbours. Small and
/// large batches take the insertion-sort and the radix path of the drain.
#[test]
fn equal_times_across_levels_pop_in_seq_order() {
    let tick = 1u64 << TICK_SHIFT;
    // Digit 5 at each of the six digit levels below `FAR_BITS`, and a 1
    // above them, mid-tick: from a cursor at zero the target is on
    // level 6.
    let levels = FAR_BITS / SLOT_BITS;
    let digits: u64 = (0..levels).map(|l| 5u64 << (SLOT_BITS * l)).sum();
    let target = SimTime::from_micros(((1u64 << FAR_BITS) + digits) * tick + tick / 2);
    for per_stage in [1, 12] {
        let mut wheel = EventQueue::new();
        let mut oracle = ReferenceQueue::new();
        let stage = |wheel: &mut EventQueue<u32>, oracle: &mut ReferenceQueue<u32>| {
            for i in 0..per_stage {
                let off = SimTime::from_micros(1 + i % 3);
                push_both(wheel, oracle, target);
                push_both(wheel, oracle, target - off);
                push_both(wheel, oracle, target + off);
            }
        };
        stage(&mut wheel, &mut oracle);
        // The target's block at each level, from level 6 down to its tick
        // (0): an even level's stone is the tick before the block, whose
        // drain carries into it; an odd level's is the block's first
        // tick, which the cursor jumps to.
        for level in (0..=levels).rev() {
            let block = tick_of(target) >> (SLOT_BITS * level) << (SLOT_BITS * level);
            let stone = if level % 2 == 0 { block - 1 } else { block };
            let stone = SimTime::from_micros(stone << TICK_SHIFT);
            push_both(&mut wheel, &mut oracle, stone);
            let (w, r) = pop_both(&mut wheel, &mut oracle);
            assert_eq!(w, r, "stone below level {level}");
            assert_eq!(w.map(|(at, ..)| at), Some(stone));
            stage(&mut wheel, &mut oracle);
        }
        loop {
            let (w, r) = pop_both(&mut wheel, &mut oracle);
            assert_eq!(w, r);
            if w.is_none() {
                break;
            }
        }
    }
}

/// The compact entry: the event plus its time and `seq`, which is
/// non-zero, so `Option<Entry>` costs no tag: 24 bytes for the timer
/// world's `(u32, u8)`, 56 for a 40-byte event — the protocol's.
#[test]
fn entries_fit_their_size_pins() {
    assert_eq!(std::mem::size_of::<Option<Entry<(u32, u8)>>>(), 24);
    assert_eq!(std::mem::size_of::<Option<Entry<[u64; 5]>>>(), 56);
}

#[test]
fn far_then_near_events_interleave_correctly() {
    let far = SimTime::from_micros(1u64 << (TICK_SHIFT + FAR_BITS + 2));
    let mut q = EventQueue::new();
    q.push(far, "far");
    q.push(SimTime::from_secs(1), "near");
    assert_eq!(q.pop().unwrap().1, "near");
    // After the cursor jumps to the far entry's block, late near-cursor
    // pushes still order correctly.
    assert!(q.pop_due(far - SimTime::from_micros(1)).is_none());
    q.push(far, "far-fifo");
    assert_eq!(q.pop().unwrap().1, "far");
    assert_eq!(q.pop().unwrap().1, "far-fifo");
}

#[test]
fn push_behind_cursor_goes_ready() {
    let mut q = EventQueue::new();
    q.push(SimTime::from_secs(10), "late");
    assert!(q.pop_due(SimTime::from_secs(9)).is_none());
    // The cursor now sits past earlier ticks; an "old" timestamp must
    // still pop first (the engine clamps to now, but the queue itself
    // stays totally ordered either way).
    q.push(SimTime::from_secs(1), "early");
    assert_eq!(q.pop().unwrap().1, "early");
    assert_eq!(q.pop().unwrap().1, "late");
}

#[test]
fn max_time_is_representable() {
    let mut q = EventQueue::new();
    q.push(SimTime::MAX, "end");
    q.push(SimTime::ZERO, "start");
    assert_eq!(q.pop().unwrap().1, "start");
    assert_eq!(q.pop().unwrap().1, "end");
    assert!(q.is_empty());
}

proptest! {
    /// Differential oracle for the timing wheel: identical random
    /// schedule/pop sequences through the wheel and the pre-wheel
    /// `BinaryHeap` reference must pop in identical `(time, seq)`
    /// order. Shifting a small mantissa by 0..=50 bits lands pushes
    /// in the sub-tick window and every wheel level (tick width 2^14 µs,
    /// nine levels of 64 slots) up to `u64::MAX`; interleaved pops
    /// drive the cursor so late pushes also hit the behind-cursor
    /// path.
    #[test]
    fn queue_wheel_matches_reference_oracle(
        ops in proptest::collection::vec((0u32..8, 0u32..=50, 0u64..1024), 1..300),
    ) {
        let mut wheel = EventQueue::new();
        let mut oracle = ReferenceQueue::new();
        let mut pending = 0usize;
        let mut next_id = 0u64;
        for &(kind, shift, mantissa) in &ops {
            // kinds 0..6 push, 6..8 pop: push-heavy keeps both deep.
            if kind < 6 || pending == 0 {
                let t = SimTime::from_micros(mantissa.checked_shl(shift).unwrap_or(u64::MAX));
                wheel.push(t, next_id);
                oracle.push(t, next_id);
                next_id += 1;
                pending += 1;
            } else {
                let w = pop_entry(&mut wheel).expect("wheel non-empty");
                let r = oracle.pop_entry().expect("oracle non-empty");
                prop_assert_eq!(w, r);
                pending -= 1;
            }
        }
        while let Some(r) = oracle.pop_entry() {
            let w = pop_entry(&mut wheel).expect("wheel drains with oracle");
            prop_assert_eq!(w, r);
        }
        prop_assert!(pop_entry(&mut wheel).is_none());
    }
}

// ------------------------------------------------- at the pool's scale --

/// The protocol's periodic timers: gossip and BM exchange (2 s, 2 s),
/// playback bookkeeping (4 s), push rounds (10 s), the status report.
const PERIODS: [SimTime; 5] = [
    SimTime::from_secs(2),
    SimTime::from_secs(2),
    SimTime::from_secs(4),
    SimTime::from_secs(10),
    SimTime::from_secs(300),
];

/// One level-1 rotation: 64² ticks.
const ROTATION: SimTime = SimTime::from_micros((64 * 64) << TICK_SHIFT);

fn period_of(timer: u32) -> SimTime {
    PERIODS[timer as usize % PERIODS.len()]
}

/// First firing of each of `n` timers: a seed-derived phase inside the
/// timer's period.
fn timer_phases(
    n: u32,
    seed: u64,
    period: impl Fn(u32) -> SimTime,
) -> impl Iterator<Item = (SimTime, u32)> {
    let mut rng = crate::rng::Xoshiro256PlusPlus::new(seed);
    (0..n).map(move |timer| {
        let phase = rng.next_u64() % period(timer).as_micros();
        (SimTime::from_micros(phase), timer)
    })
}

/// `(time, seq, event)` of the next pop of both queues.
type Key = (SimTime, u64, u32);

fn pop_both(
    wheel: &mut EventQueue<u32>,
    oracle: &mut ReferenceQueue<u32>,
) -> (Option<Key>, Option<Key>) {
    (pop_entry(wheel), oracle.pop_entry())
}

/// Push at `at` into both queues, tagged with the push's index.
fn push_both(wheel: &mut EventQueue<u32>, oracle: &mut ReferenceQueue<u32>, at: SimTime) {
    let id = wheel.total_pushed() as u32;
    wheel.push(at, id);
    oracle.push(at, id);
}

/// The existing oracles stop at 300 operations: they never fill a chunk,
/// recycle one or finish a level-1 rotation. This one keeps 20 000
/// self-re-arming timers going for 150 s — two rotations, ≈ 0.8 M pops.
#[test]
fn long_timer_run_matches_reference() {
    const TIMERS: u32 = 20_000;
    let horizon = SimTime::from_secs(150);
    let mut wheel = EventQueue::with_capacity(TIMERS as usize);
    let mut oracle = ReferenceQueue::new();
    for (at, timer) in timer_phases(TIMERS, 0x5eed, period_of) {
        wheel.push(at, timer);
        oracle.push(at, timer);
    }
    let mut fired = 0u32;
    loop {
        let (w, r) = pop_both(&mut wheel, &mut oracle);
        assert_eq!(w, r, "after {fired} firings");
        let (at, _, timer) = w.expect("timers re-arm for ever");
        if at > horizon {
            break;
        }
        fired += 1;
        wheel.push(at + period_of(timer), timer);
        oracle.push(at + period_of(timer), timer);
    }
    assert!(fired > 700_000, "only {fired} firings");
    // Chunks were recycled, not appended: the pool never outgrew the
    // standing population. One partial tail per chain, and the ring's
    // `RING` chains are chains too: the bound follows the geometry.
    let bound = (TIMERS as usize).div_ceil(CHUNK) + RING + LEVELS * SLOTS + 1;
    assert!(wheel.chunks.len() <= bound, "{} chunks", wheel.chunks.len());
}

/// The memory property behind the RSS figures, as a test: the pool holds
/// the pending set plus one partial chunk per slot (and one chunk in
/// flight during a cascade), and no slot keeps the room of its fullest
/// rotation. The periods here are whole ticks and divide one level-1
/// rotation, so the pending pattern repeats exactly every rotation and
/// the pool must stop growing after the first complete one.
#[test]
fn pool_size_follows_the_pending_set() {
    const TIMERS: u32 = 10_000;
    // ≈ 2.1, 2.1, 4.2, 8.4 and 67 s: the protocol's mix, rounded to ticks.
    let period = |timer: u32| {
        SimTime::from_micros([128u64, 128, 256, 512, 4096][timer as usize % 5] << TICK_SHIFT)
    };
    let mut q = EventQueue::new();
    for (at, timer) in timer_phases(TIMERS, 0xfeed, period) {
        q.push(at, timer);
    }
    let mut chunks_after = [0usize; 5];
    for (rotation, chunks) in chunks_after.iter_mut().enumerate() {
        let end = ROTATION * (rotation as u64 + 1);
        while let Some(due) = q.pop_due(end) {
            let timer = due.event.into_inner();
            q.push(due.time + period(timer), timer);
        }
        *chunks = q.chunks.len();
    }
    assert_eq!(q.len(), TIMERS as usize);
    assert_eq!(q.pool.len(), q.chunks.len() * CHUNK);
    // One partial tail per chain, the ring's `RING` included.
    let bound = (TIMERS as usize).div_ceil(CHUNK) + RING + LEVELS * SLOTS + 1;
    assert!(chunks_after[4] <= bound, "{chunks_after:?} > {bound}");
    assert_eq!(chunks_after[1], chunks_after[4], "{chunks_after:?}");
}

/// One handler schedules 10⁵ events at `now`: they all land behind the
/// cursor. They must pop FIFO, ahead of the next tick, and must not be
/// inserted one by one into the sorted batch (quadratic: each insertion
/// would shift every earlier one).
#[test]
fn storm_at_now_pops_fifo_from_the_late_heap() {
    const STORM: u32 = 100_000;
    let now = SimTime::from_secs(10);
    let mut q = EventQueue::new();
    q.push(now, u32::MAX);
    q.push(now + SimTime::from_micros(1), u32::MAX - 1);
    q.push(now + SimTime::from_secs(1), u32::MAX - 2);
    assert_eq!(q.pop(), Some((now, u32::MAX)));
    for i in 0..STORM {
        q.push(now, i);
    }
    assert_eq!((q.ready.len(), q.late.len()), (1, STORM as usize));
    for i in 0..STORM {
        assert_eq!(q.pop(), Some((now, i)));
    }
    assert_eq!(q.pop().map(|(_, e)| e), Some(u32::MAX - 1));
    assert_eq!(q.pop().map(|(_, e)| e), Some(u32::MAX - 2));
    assert!(q.is_empty());
}

proptest! {
    /// Chunk boundaries under load: every step pushes a same-tick burst
    /// of `CHUNK − 1`, `CHUNK`, `CHUNK + 1` or `3·CHUNK` entries up to
    /// two level-1 slots ahead (sub-tick offsets shuffle the order inside
    /// the tick), sometimes one more entry behind the cursor, then pops a
    /// few dozen — so chains grow past one chunk, drain, and their chunks
    /// are re-linked under other slots. ≥ 120 steps of ≥ 31 pushes, all
    /// popped again: ≥ 7 000 operations per case.
    #[test]
    fn queue_chunk_bursts_match_reference(
        steps in proptest::collection::vec((0usize..4, 0u64..128, 0u64..(1 << TICK_SHIFT), 0u32..80), 120..160),
    ) {
        const BURSTS: [usize; 4] = [CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK];
        let mut wheel = EventQueue::new();
        let mut oracle = ReferenceQueue::new();
        let mut now = SimTime::ZERO;
        for &(burst, ticks_ahead, offset, pops) in &steps {
            let tick_start = (tick_of(now) + ticks_ahead) << TICK_SHIFT;
            for i in 0..BURSTS[burst] as u64 {
                let in_tick = (offset + i * 4_099) & ((1 << TICK_SHIFT) - 1);
                push_both(&mut wheel, &mut oracle, SimTime::from_micros(tick_start + in_tick));
            }
            if pops % 3 == 0 {
                // At or before the last pop: behind the cursor.
                push_both(&mut wheel, &mut oracle, now - SimTime::from_micros(offset));
            }
            for _ in 0..pops {
                let (w, r) = pop_both(&mut wheel, &mut oracle);
                prop_assert_eq!(w, r);
                if let Some((at, ..)) = w {
                    now = at;
                }
            }
        }
        loop {
            let (w, r) = pop_both(&mut wheel, &mut oracle);
            prop_assert_eq!(w, r);
            if w.is_none() {
                break;
            }
        }
        prop_assert!(wheel.is_empty());
    }
}

// ------------------------------------------------------ at the ring's edges --

/// Pop both queues to the end, asserting that they agree at every step.
fn drain_both(wheel: &mut EventQueue<u32>, oracle: &mut ReferenceQueue<u32>) {
    loop {
        let (w, r) = pop_both(wheel, oracle);
        assert_eq!(w, r);
        if w.is_none() {
            break;
        }
    }
}

/// Push at `at`, pop it from both queues: the cursor ends just past it.
fn step_past(wheel: &mut EventQueue<u32>, oracle: &mut ReferenceQueue<u32>, at: SimTime) {
    push_both(wheel, oracle, at);
    let (w, r) = pop_both(wheel, oracle);
    assert_eq!(w, r);
    assert_eq!(w.map(|(t, ..)| t), Some(at));
}

/// Pushes at `edge − 1` (the ring's last tick), `edge` and `edge + 63`
/// (upper level 0), at both ends of each tick, from cursors at four
/// in-block phases. The cursor then crosses a block, which relinks the
/// upper block into the ring, and the same timestamps are pushed again:
/// they must pop after the first pushes, in push order.
#[test]
fn pushes_around_the_ring_edge_match_reference() {
    let tick = 1u64 << TICK_SHIFT;
    for phase in [0u64, 1, 62, 63] {
        let mut wheel = EventQueue::new();
        let mut oracle = ReferenceQueue::new();
        let block = 3 * SLOTS as u64;
        step_past(
            &mut wheel,
            &mut oracle,
            SimTime::from_micros((block + phase) * tick),
        );
        let edge = wheel.edge;
        assert_eq!(edge, ring_edge(wheel.cur_tick));
        let times: Vec<SimTime> = [edge - 1, edge, edge + 63]
            .into_iter()
            .flat_map(|t| [t * tick, t * tick + tick - 1])
            .map(SimTime::from_micros)
            .collect();
        for &at in &times {
            push_both(&mut wheel, &mut oracle, at);
        }
        let next_block = (wheel.cur_tick & !(SLOTS as u64 - 1)) + SLOTS as u64;
        let next_block = SimTime::from_micros(next_block * tick);
        step_past(&mut wheel, &mut oracle, next_block);
        assert_eq!(wheel.edge, edge + SLOTS as u64);
        for &at in times.iter().rev() {
            push_both(&mut wheel, &mut oracle, at);
        }
        drain_both(&mut wheel, &mut oracle);
        assert_eq!(wheel.cascaded, 0, "phase {phase}");
    }
}

/// A 4 s timer (244 ticks) and a 2 s one armed at each of the 64
/// in-block cursor phases go straight to their ring chain: nothing
/// cascades, whatever the phase.
#[test]
fn protocol_periods_enter_the_ring_at_every_phase() {
    let tick = 1u64 << TICK_SHIFT;
    for phase in 0..SLOTS as u64 {
        let mut wheel = EventQueue::new();
        let mut oracle = ReferenceQueue::new();
        let now = SimTime::from_micros((5 * SLOTS as u64 + phase) * tick + 77);
        step_past(&mut wheel, &mut oracle, now);
        for period in [SimTime::from_secs(4), SimTime::from_secs(2)] {
            assert!(tick_of(now + period) < wheel.edge, "phase {phase}");
            push_both(&mut wheel, &mut oracle, now + period);
        }
        drain_both(&mut wheel, &mut oracle);
        assert_eq!(wheel.cascaded, 0, "phase {phase}");
    }
}

/// Only entries beyond 300 s, some beyond `2^36` ticks: the ring is
/// empty, and the cursor jumps to an upper slot, then to level 6 and
/// above. Each pop re-arms its entry at a 2 s, 301 s or `2^36`-tick
/// delay, so pushes land in the ring and on low and high upper levels
/// after every jump.
#[test]
fn far_entries_jump_the_empty_ring() {
    let rotation = SimTime::from_micros(1u64 << (TICK_SHIFT + FAR_BITS));
    let far = [
        SimTime::from_secs(301),
        SimTime::from_secs(301),
        SimTime::from_secs(4_000) + SimTime::from_micros(3),
        rotation + SimTime::from_secs(7),
        rotation * 3 + SimTime::from_micros(1),
    ];
    let delays = [SimTime::from_secs(2), SimTime::from_secs(301), rotation];
    let mut wheel = EventQueue::new();
    let mut oracle = ReferenceQueue::new();
    for &at in &far {
        push_both(&mut wheel, &mut oracle, at);
    }
    for i in 0.. {
        let (w, r) = pop_both(&mut wheel, &mut oracle);
        assert_eq!(w, r, "pop {i}");
        let Some((at, ..)) = w else { break };
        if i < 120 && i % 4 != 3 {
            push_both(&mut wheel, &mut oracle, at + delays[i % 3]);
        }
    }
}

/// Timers with 2 s and 10 s periods run across tick `2^36`, where
/// level 6's digit changes, while entries of the next digit wait on
/// level 6: the block pull that carries `edge` across must cascade them
/// before any push beyond the boundary lands.
#[test]
fn block_pull_across_a_level_6_carry_keeps_order() {
    let tick = 1u64 << TICK_SHIFT;
    let rotation = tick << FAR_BITS;
    let mut wheel = EventQueue::new();
    let mut oracle = ReferenceQueue::new();
    for i in 0..3 {
        let at = SimTime::from_micros(rotation - 12_000_000 + i * 333_333);
        push_both(&mut wheel, &mut oracle, at);
    }
    for k in [0u64, 1, 63, 64, 700] {
        push_both(
            &mut wheel,
            &mut oracle,
            SimTime::from_micros(rotation + k * tick + 9),
        );
    }
    let end = SimTime::from_micros(rotation + 30_000_000);
    let mut crossed = false;
    loop {
        let (w, r) = pop_both(&mut wheel, &mut oracle);
        assert_eq!(w, r);
        let Some((at, _, id)) = w else { break };
        crossed |= wheel.edge > 1 << FAR_BITS;
        if at < end && id < 3 {
            let period = SimTime::from_secs([2, 2, 10][id as usize]);
            // The re-armed entry keeps its id: push outside `push_both`.
            wheel.push(at + period, id);
            oracle.push(at + period, id);
        }
    }
    assert!(crossed, "the cursor never crossed tick 2^36");
}

/// Pushes behind the cursor (the `late` heap), 30 µs before each popped
/// time, beside re-arms 0 µs to 10 s after it, interleaved with pops that
/// drain ring chains and pull upper blocks into the ring.
#[test]
fn late_pushes_interleave_with_block_pulls() {
    let mut wheel = EventQueue::new();
    let mut oracle = ReferenceQueue::new();
    for i in 0..40u64 {
        push_both(&mut wheel, &mut oracle, SimTime::from_micros(i * 900_001));
    }
    let delays = [0u64, 1, 5_000, 2_000_000, 10_000_000];
    for i in 0..4_000usize {
        let (w, r) = pop_both(&mut wheel, &mut oracle);
        assert_eq!(w, r, "pop {i}");
        let (at, ..) = w.expect("re-armed");
        if at > SimTime::from_micros(30) {
            // Behind the cursor: the popped tick is already drained.
            push_both(&mut wheel, &mut oracle, at - SimTime::from_micros(30));
        }
        push_both(
            &mut wheel,
            &mut oracle,
            at + SimTime::from_micros(delays[i % 5]),
        );
        if i % 2 == 0 {
            let (w, r) = pop_both(&mut wheel, &mut oracle);
            assert_eq!(w, r, "pop {i}b");
        }
    }
    drain_both(&mut wheel, &mut oracle);
}

/// On the protocol's period mix, armed as `long_timer_run_matches_reference`
/// arms it, the 2 s and 4 s timers — 92 % of pops — never cascade; the
/// 10 s timers cascade about once and the 300 s reports a few times.
#[test]
fn protocol_timers_rarely_cascade() {
    const TIMERS: u32 = 10_000;
    let horizon = SimTime::from_secs(150);
    let mut q = EventQueue::with_capacity(TIMERS as usize);
    for (at, timer) in timer_phases(TIMERS, 0x5eed, period_of) {
        q.push(at, timer);
    }
    let mut pops = 0u64;
    while let Some((at, timer)) = q.pop() {
        if at > horizon {
            break;
        }
        pops += 1;
        q.push(at + period_of(timer), timer);
    }
    let per_pop = q.cascaded as f64 / pops as f64;
    assert!(
        per_pop < 0.1,
        "{} cascaded over {pops} pops: {per_pop:.3}",
        q.cascaded
    );
}
