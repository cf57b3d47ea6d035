//! The pending-event set.
//!
//! A hierarchical timing wheel keyed on `(time, sequence)` where `sequence`
//! is a monotonically increasing insertion counter. The counter makes the
//! order of same-timestamp events *stable FIFO*: ties are broken by
//! insertion order, never by container internals, which is a precondition
//! for run-to-run determinism.
//!
//! # Geometry
//!
//! Timestamps are bucketed into *ticks* of `2^TICK_SHIFT` µs (≈16.4 ms).
//! The wheel has [`LEVELS`] levels of [`SLOTS`] slots each; level `l` slot
//! `s` covers the ticks whose bits above `SLOT_BITS·(l+1)` match the
//! current wheel position and whose level-`l` digit is `s`. One level-0
//! slot therefore holds exactly one tick; level 5 rotates every
//! `2^36` ticks (≈36 years of simulated time). Anything beyond the
//! level-5 rotation sits in a plain binary-heap *overflow* until the
//! wheel position jumps close enough. Per-level `u64` occupancy bitmaps
//! make "earliest non-empty slot at or after the cursor" a mask and a
//! `trailing_zeros`.
//!
//! # Exact (time, seq) order
//!
//! The wheel only *coarsens* placement; the total order is enforced by a
//! small *ready* binary heap with the same `(time, seq)` comparator the
//! pre-wheel implementation used. The structural invariant is a strict
//! window split around the wheel cursor `cur_tick`:
//!
//! * every pending entry with `tick <  cur_tick` is in `ready`;
//! * every pending entry with `tick >= cur_tick` is in the wheel or the
//!   overflow heap.
//!
//! `pop`/`peek` only ever read `ready`, and the cursor only advances when
//! `ready` is empty, by draining the earliest occupied level-0 slot
//! (one whole tick — *all* equal-tick entries together) into `ready`.
//! Hence the minimum pending `(time, seq)` is always in `ready` at read
//! time, and pop order is byte-identical to the old global heap. A
//! golden-oracle proptest (`queue_wheel_matches_reference_oracle`, in
//! this file's test module) checks the equivalence against the test-only
//! `reference::ReferenceQueue` across every level and the overflow heap.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// log2 of the tick width in microseconds (2^14 µs ≈ 16.4 ms).
const TICK_SHIFT: u32 = 14;
/// log2 of the slot count per level.
const SLOT_BITS: u32 = 6;
/// Slots per wheel level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Number of wheel levels; ticks differing above `SLOT_BITS * LEVELS`
/// bits from the cursor overflow to a heap.
const LEVELS: usize = 6;
/// Tick bits addressable by the wheel proper.
const WHEEL_BITS: u32 = SLOT_BITS * LEVELS as u32;

/// Tick index of a timestamp.
#[inline]
const fn tick_of(time: SimTime) -> u64 {
    time.as_micros() >> TICK_SHIFT
}

/// An entry in the queue. Private ordering wrapper.
struct Entry<E> {
    time: SimTime,
    seq: u64,
    /// Insertion seq of the event whose handler scheduled this one
    /// (`None` for externally scheduled events). Pure metadata: never
    /// consulted by the ordering, only surfaced to observers for causal
    /// span tracing.
    cause: Option<u64>,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// One wheel level: 64 slots plus an occupancy bitmap.
struct Level<E> {
    occupied: u64,
    slots: [Vec<Entry<E>>; SLOTS],
}

impl<E> Level<E> {
    fn new() -> Self {
        Level {
            occupied: 0,
            slots: std::array::from_fn(|_| Vec::new()),
        }
    }
}

/// A time-ordered event queue with stable FIFO tie-breaking.
pub struct EventQueue<E> {
    /// All pending entries with `tick < cur_tick`, in exact
    /// `(time, seq)` order. The only structure pops read from.
    ready: BinaryHeap<Entry<E>>,
    /// Hierarchical wheel for entries with `tick >= cur_tick` within
    /// the level-5 rotation.
    levels: Box<[Level<E>; LEVELS]>,
    /// Entries beyond the level-5 rotation of `cur_tick`.
    overflow: BinaryHeap<Entry<E>>,
    /// Wheel cursor, in ticks. Entries strictly below it live in `ready`.
    cur_tick: u64,
    /// Pending-entry count across ready + wheel + overflow.
    len: usize,
    next_seq: u64,
    pushed: u64,
    popped: u64,
    /// Cause stamped on every push: the engine sets this to the popped
    /// event's seq for the duration of its handler, so follow-up events
    /// carry a causal parent without the handlers knowing.
    current_cause: Option<u64>,
}

/// A popped queue entry with its scheduling metadata.
pub struct Popped<E> {
    /// The event's timestamp.
    pub time: SimTime,
    /// The event's insertion sequence number (unique per queue).
    pub seq: u64,
    /// Insertion seq of the event whose handler scheduled this one
    /// (`None` when scheduled from outside any handler).
    pub cause: Option<u64>,
    /// The event itself.
    pub event: E,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty queue with pre-reserved capacity in the ready heap (the
    /// structure same-window event storms land in).
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            ready: BinaryHeap::with_capacity(cap),
            levels: Box::new(std::array::from_fn(|_| Level::new())),
            overflow: BinaryHeap::new(),
            cur_tick: 0,
            len: 0,
            next_seq: 0,
            pushed: 0,
            popped: 0,
            current_cause: None,
        }
    }

    /// Set the cause stamped on subsequent pushes (the engine brackets
    /// each handler invocation with the dispatched event's seq).
    pub fn set_cause(&mut self, cause: Option<u64>) {
        self.current_cause = cause;
    }

    /// Schedule `event` at absolute time `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pushed += 1;
        self.len += 1;
        let entry = Entry {
            time,
            seq,
            cause: self.current_cause,
            event,
        };
        if tick_of(time) < self.cur_tick {
            self.ready.push(entry);
        } else {
            self.insert_wheel(entry);
        }
    }

    /// Place an entry with `tick >= cur_tick` into its wheel level (or
    /// the overflow heap when it lies beyond the level-5 rotation).
    fn insert_wheel(&mut self, entry: Entry<E>) {
        let t = tick_of(entry.time);
        debug_assert!(t >= self.cur_tick, "wheel entry behind cursor");
        let diff = t ^ self.cur_tick;
        if diff >> WHEEL_BITS != 0 {
            self.overflow.push(entry);
            return;
        }
        let level = if diff == 0 {
            0
        } else {
            ((63 - diff.leading_zeros()) / SLOT_BITS) as usize
        };
        let slot = ((t >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
        let lv = &mut self.levels[level];
        lv.occupied |= 1 << slot;
        lv.slots[slot].push(entry);
    }

    /// Advance the cursor until `ready` holds the global minimum (or the
    /// queue is provably empty). Drains at most one level-0 slot into
    /// `ready` per pass; higher-level hits cascade their slot downward.
    fn ensure_ready(&mut self) {
        loop {
            if !self.ready.is_empty() {
                return;
            }
            let cur = self.cur_tick;
            // Level 0: one tick per slot; the earliest occupied slot at or
            // after the cursor digit *is* the minimum pending tick.
            let occ0 = self.levels[0].occupied & (!0u64 << (cur & 63) as u32);
            if occ0 != 0 {
                let s = occ0.trailing_zeros() as u64;
                self.cur_tick = (cur & !63) + s + 1;
                let lv = &mut self.levels[0];
                lv.occupied &= !(1 << s);
                // Disjoint field borrows: drain the slot into the ready heap.
                for e in lv.slots[s as usize].drain(..) {
                    self.ready.push(e);
                }
                if s == 63 {
                    // The cursor wrapped into the next level-0 block,
                    // carrying one or more higher digits. Any slot those
                    // digits now rest on must cascade down *now*: a later
                    // level-0 drain could otherwise advance the cursor
                    // past the entries parked there.
                    self.cascade_cursor_slots();
                }
                debug_assert!(!self.ready.is_empty());
                return;
            }
            // Levels 1..: jump the cursor to the earliest occupied slot and
            // cascade its entries down (they re-insert strictly lower).
            let mut cascaded = false;
            for l in 1..LEVELS {
                let shift = SLOT_BITS * l as u32;
                let digit = (cur >> shift) & 63;
                let occ = self.levels[l].occupied & (!0u64 << digit as u32);
                if occ == 0 {
                    continue;
                }
                let s = occ.trailing_zeros() as u64;
                self.levels[l].occupied &= !(1 << s);
                if s != digit {
                    // Move the cursor to the start of that slot's range;
                    // everything below this level is empty, so zeroing the
                    // low digits cannot skip a pending entry.
                    let block = (1u64 << (shift + SLOT_BITS)) - 1;
                    self.cur_tick = (cur & !block) | (s << shift);
                }
                // else: a level-0 carry rolled the cursor digit onto an
                // occupied slot; redistribute in place, cursor unchanged.
                let mut moved = std::mem::take(&mut self.levels[l].slots[s as usize]);
                for e in moved.drain(..) {
                    self.insert_wheel(e);
                }
                // Hand the buffer back; the cascade can never re-fill
                // this slot (entries land strictly below level `l`).
                self.levels[l].slots[s as usize] = moved;
                cascaded = true;
                break;
            }
            if cascaded {
                continue;
            }
            // Wheel empty: jump to the overflow head and pull in every
            // entry that now fits the level-5 rotation.
            let Some(head) = self.overflow.peek() else {
                return; // Queue fully drained.
            };
            self.cur_tick = tick_of(head.time);
            while let Some(h) = self.overflow.peek() {
                if (tick_of(h.time) ^ self.cur_tick) >> WHEEL_BITS != 0 {
                    break;
                }
                let Some(e) = self.overflow.pop() else { break };
                self.insert_wheel(e);
            }
        }
    }

    /// Re-bucket every entry parked on a slot the cursor's digit now
    /// rests on (levels ≥ 1). Called after a carry; restores the
    /// invariant that the cursor-digit slot is empty at every level
    /// above 0, which the slot scans rely on. At call time the cursor's
    /// bits below each carried digit are zero, so every re-inserted
    /// entry still satisfies `tick >= cur_tick` and lands strictly
    /// lower in the wheel.
    fn cascade_cursor_slots(&mut self) {
        for l in 1..LEVELS {
            let shift = SLOT_BITS * l as u32;
            let digit = ((self.cur_tick >> shift) & 63) as usize;
            if self.levels[l].occupied & (1 << digit) == 0 {
                continue;
            }
            self.levels[l].occupied &= !(1 << digit);
            let mut moved = std::mem::take(&mut self.levels[l].slots[digit]);
            for e in moved.drain(..) {
                self.insert_wheel(e);
            }
            self.levels[l].slots[digit] = moved;
        }
    }

    /// Remove and return the earliest event (FIFO among equal timestamps).
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let e = self.pop_entry()?;
        Some((e.time, e.event))
    }

    /// [`EventQueue::pop`] carrying the entry's seq and cause metadata.
    pub fn pop_entry(&mut self) -> Option<Popped<E>> {
        self.ensure_ready();
        let e = self.ready.pop()?;
        self.popped += 1;
        self.len -= 1;
        Some(Popped {
            time: e.time,
            seq: e.seq,
            cause: e.cause,
            event: e.event,
        })
    }

    /// Timestamp of the next event without removing it.
    ///
    /// Takes `&mut self` because peeking may advance the wheel cursor
    /// (a pure re-bucketing: the pending set is unchanged).
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.ensure_ready();
        self.ready.peek().map(|e| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total events ever pushed.
    pub fn total_pushed(&self) -> u64 {
        self.pushed
    }

    /// Total events ever popped.
    pub fn total_popped(&self) -> u64 {
        self.popped
    }
}

#[cfg(test)]
mod reference {
    //! The pre-wheel `BinaryHeap` queue, kept as the ordering oracle for
    //! the timing wheel's differential tests.

    use std::collections::BinaryHeap;

    use super::{Entry, Popped};
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
                seq,
                cause: None,
                event,
            });
        }

        /// Remove and return the earliest entry (FIFO among equal
        /// timestamps) with its seq metadata.
        pub fn pop_entry(&mut self) -> Option<Popped<E>> {
            let e = self.heap.pop()?;
            Some(Popped {
                time: e.time,
                seq: e.seq,
                cause: e.cause,
                event: e.event,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::ReferenceQueue;
    use super::*;
    use proptest::prelude::*;

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
        assert_eq!(q.total_popped(), 1);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn cause_is_stamped_while_set() {
        let mut q = EventQueue::new();
        q.push(SimTime::ZERO, "external");
        q.set_cause(Some(0));
        q.push(SimTime::from_secs(1), "caused");
        q.set_cause(None);
        q.push(SimTime::from_secs(2), "external2");
        let a = q.pop_entry().unwrap();
        assert_eq!((a.seq, a.cause), (0, None));
        let b = q.pop_entry().unwrap();
        assert_eq!((b.seq, b.cause), (1, Some(0)));
        let c = q.pop_entry().unwrap();
        assert_eq!((c.seq, c.cause), (2, None));
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(9), 1);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(9)));
        assert_eq!(q.len(), 1);
    }

    /// Timestamps chosen to land on every wheel level and in the overflow
    /// heap relative to a cursor at zero.
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
}
