//! Unit, differential and memory tests of the timing wheel.

use proptest::prelude::*;

use self::reference::ReferenceQueue;
use super::*;

mod reference {
    //! The pre-wheel `BinaryHeap` queue, kept as the ordering oracle for
    //! the timing wheel's differential tests.

    use std::collections::BinaryHeap;

    use super::super::{stored, Entry, Popped};
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
        /// timestamps) with its seq metadata.
        pub fn pop_entry(&mut self) -> Option<Popped<E>> {
            let e = self.heap.pop()?;
            Some(Popped {
                time: e.time,
                seq: e.seq.get() - 1,
                event: e.event,
            })
        }
    }
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
fn peek_does_not_remove() {
    let mut q = EventQueue::new();
    q.push(SimTime::from_secs(9), 1);
    assert_eq!(q.peek_time(), Some(SimTime::from_secs(9)));
    assert_eq!(q.len(), 1);
}

/// Timestamps chosen to land on every wheel level and in the overflow
/// heap relative to a cursor at zero. 400 pushes over these 22 values
/// repeat each about 18 times, so every slot's chain holds runs of equal
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
        let span = tick << (SLOT_BITS * level);
        v.push(SimTime::from_micros(span + 3));
        v.push(SimTime::from_micros(span * 17 + 1));
    }
    v.push(SimTime::from_micros(tick << WHEEL_BITS)); // overflow
    v.push(SimTime::from_micros((tick << WHEEL_BITS) * 9 + 5));
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
        let (a, b) = (wheel.pop_entry(), oracle.pop_entry());
        match (a, b) {
            (None, None) => break,
            (Some(x), Some(y)) => {
                assert_eq!((x.time, x.seq, x.event), (y.time, y.seq, y.event));
            }
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
fn carry_into_the_next_rotation_pulls_in_the_overflow() {
    // Regression: the last tick of a level-5 rotation carries the cursor
    // into the next rotation, whose entries wait in the overflow heap. A
    // push into that rotation lands in the wheel, and must not drain
    // ahead of an earlier overflow entry.
    let tick = 1u64 << TICK_SHIFT;
    let rotation = tick << WHEEL_BITS;
    let mut q = EventQueue::new();
    q.push(SimTime::from_micros(rotation - tick), "last-tick");
    q.push(SimTime::from_micros(rotation + 5 * tick), "overflow");
    assert_eq!(q.pop().unwrap().1, "last-tick");
    q.push(
        SimTime::from_micros(rotation + 10 * tick),
        "pushed-after-carry",
    );
    assert_eq!(q.pop().unwrap().1, "overflow");
    assert_eq!(q.pop().unwrap().1, "pushed-after-carry");
    assert!(q.is_empty());
}

/// The lemma the drain relies on: entries of one timestamp share one
/// slot, in push order, wherever the cursor stood when each was pushed.
/// The target's first pushes sit in the overflow heap; each stage then
/// pops a stepping-stone entry that carries the cursor (the last tick
/// before the target's block) or jumps it (the block's first tick) one
/// level closer, and pushes more at the target and at its in-tick
/// neighbours. Small and large batches take the insertion-sort and the
/// radix path of the drain.
#[test]
fn equal_times_across_levels_pop_in_seq_order() {
    let tick = 1u64 << TICK_SHIFT;
    // Digit 5 at every level, one rotation up, mid-tick: the target lies
    // in the overflow heap from a cursor at zero.
    let digits: u64 = (0..LEVELS as u32).map(|l| 5u64 << (SLOT_BITS * l)).sum();
    let target = SimTime::from_micros(((1u64 << WHEEL_BITS) + digits) * tick + tick / 2);
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
        // The target's block at each level, from its rotation (6) down to
        // its tick (0): an even level's stone is the tick before the
        // block, whose drain carries into it; an odd level's is the
        // block's first tick, which the cursor jumps to.
        for level in (0..=LEVELS as u32).rev() {
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
fn overflow_then_near_events_interleave_correctly() {
    let far = SimTime::from_micros(1u64 << (TICK_SHIFT + WHEEL_BITS + 2));
    let mut q = EventQueue::new();
    q.push(far, "far");
    q.push(SimTime::from_secs(1), "near");
    assert_eq!(q.pop().unwrap().1, "near");
    // After the cursor jumps to the overflow head, late near-cursor
    // pushes still order correctly.
    assert_eq!(q.peek_time(), Some(far));
    q.push(far, "far-fifo");
    assert_eq!(q.pop().unwrap().1, "far");
    assert_eq!(q.pop().unwrap().1, "far-fifo");
}

#[test]
fn push_behind_cursor_goes_ready() {
    let mut q = EventQueue::new();
    q.push(SimTime::from_secs(10), "late");
    assert_eq!(q.peek_time(), Some(SimTime::from_secs(10)));
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
    /// in the sub-tick window, every wheel level (tick width 2^14 µs,
    /// six levels of 64 slots), and the overflow heap; interleaved
    /// pops drive the cursor so late pushes also hit the
    /// behind-cursor path.
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
                let w = wheel.pop_entry().expect("wheel non-empty");
                let r = oracle.pop_entry().expect("oracle non-empty");
                prop_assert_eq!((w.time, w.seq, w.event), (r.time, r.seq, r.event));
                pending -= 1;
            }
        }
        while let Some(r) = oracle.pop_entry() {
            let w = wheel.pop_entry().expect("wheel drains with oracle");
            prop_assert_eq!((w.time, w.seq, w.event), (r.time, r.seq, r.event));
        }
        prop_assert!(wheel.pop_entry().is_none());
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
    let key = |p: Popped<u32>| (p.time, p.seq, p.event);
    (wheel.pop_entry().map(key), oracle.pop_entry().map(key))
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
    // standing population.
    let bound = (TIMERS as usize).div_ceil(CHUNK) + LEVELS * SLOTS + 1;
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
        while q.peek_time().is_some_and(|at| at <= end) {
            let (at, timer) = q.pop().expect("peeked");
            q.push(at + period(timer), timer);
        }
        *chunks = q.chunks.len();
    }
    assert_eq!(q.len(), TIMERS as usize);
    assert_eq!(q.pool.len(), q.chunks.len() * CHUNK);
    let bound = (TIMERS as usize).div_ceil(CHUNK) + LEVELS * SLOTS + 1;
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
