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
//! # Storage: one chunk pool
//!
//! Slots own no buffers. Every wheel entry lives in one `Vec`, the
//! *pool*, carved into chunks of [`CHUNK`] entries; a slot is the `u32`
//! index of the head of a chain of chunks (`heads`), a parallel table
//! holds each chunk's fill level and chain link, and emptied chunks go on
//! a LIFO free list threaded through the same links. A push appends to
//! the slot's head chunk or links a chunk from the free list in front of
//! it, so only the head of a chain is ever partly filled. Drains and
//! cascades walk a chain once, front to back, move every entry out and
//! release each chunk as they leave it: the chunk freed last — still in
//! cache — is the next one written. The pool therefore holds
//! `pending ÷ CHUNK` full chunks plus at most one partial chunk per slot,
//! whatever each slot's fullest rotation once was, and the order of
//! entries inside a slot carries no meaning.
//!
//! # Exact (time, seq) order
//!
//! The wheel only *coarsens* placement; the total order is restored one
//! tick at a time with the `(time, seq)` comparator the pre-wheel
//! implementation used. The structural invariant is a strict window
//! split around the wheel cursor `cur_tick`:
//!
//! * every pending entry with `tick <  cur_tick` is in `ready` or `late`;
//! * every pending entry with `tick >= cur_tick` is in the wheel or the
//!   overflow heap.
//!
//! The cursor only advances when `ready` and `late` are both empty, by
//! draining the earliest occupied level-0 slot (one whole tick — *all*
//! equal-tick entries together) into the `ready` batch and sorting it
//! once, earliest last, so a pop is a `Vec::pop`. A push that lands
//! behind the cursor (a sub-tick delay; rare) cannot join the sorted
//! batch cheaply and goes to the small `late` heap instead. `pop`/`peek`
//! take the earlier of `ready`'s back and `late`'s top, hence always the
//! minimum pending `(time, seq)`, and pop order is byte-identical to the
//! old global heap. The differential tests in `queue/tests.rs` check the
//! equivalence against the test-only `ReferenceQueue` across every level,
//! the overflow heap, chunk boundaries and full level-1 rotations.

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
/// Entries per pool chunk: large enough that a drain reads memory
/// sequentially, small enough that 384 partly filled heads cost little.
const CHUNK: usize = 32;
/// "No chunk": an empty slot, the end of a chain, an empty free list.
const NIL: u32 = u32::MAX;

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
        // Reversed: the earliest entry is the greatest, so it sits on top
        // of a max-heap and at the back of an ascending sort.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Fill level and chain link of one pool chunk.
#[derive(Clone, Copy)]
struct ChunkMeta {
    /// Entries stored, filled from the chunk's first cell.
    len: u32,
    /// Next chunk of the slot's chain, or of the free list.
    next: u32,
}

/// A time-ordered event queue with stable FIFO tie-breaking.
pub struct EventQueue<E> {
    /// The tick drained last, sorted earliest-last. Together with `late`
    /// it holds all pending entries with `tick < cur_tick`.
    ready: Vec<Entry<E>>,
    /// Entries pushed behind the cursor after their tick was drained.
    late: BinaryHeap<Entry<E>>,
    /// Storage of every wheel entry (`tick >= cur_tick` within the
    /// level-5 rotation): chunk `c` is cells `c·CHUNK .. (c+1)·CHUNK`.
    pool: Vec<Option<Entry<E>>>,
    /// Per-chunk metadata, parallel to `pool`.
    chunks: Vec<ChunkMeta>,
    /// Head of the LIFO list of empty chunks.
    free: u32,
    /// Head chunk of each slot's chain.
    heads: [[u32; SLOTS]; LEVELS],
    /// Per-level bitmap of the slots whose chain is non-empty.
    occupied: [u64; LEVELS],
    /// Entries beyond the level-5 rotation of `cur_tick`.
    overflow: BinaryHeap<Entry<E>>,
    /// Wheel cursor, in ticks.
    cur_tick: u64,
    /// Pending-entry count across ready + late + wheel + overflow.
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

    /// An empty queue whose chunk pool is reserved, once and untouched,
    /// for `cap` concurrently pending events: `cap ÷ CHUNK` full chunks
    /// plus one partly filled head per wheel slot.
    pub fn with_capacity(cap: usize) -> Self {
        let chunks = cap.div_ceil(CHUNK) + LEVELS * SLOTS;
        EventQueue {
            ready: Vec::new(),
            late: BinaryHeap::new(),
            pool: Vec::with_capacity(chunks * CHUNK),
            chunks: Vec::with_capacity(chunks),
            free: NIL,
            heads: [[NIL; SLOTS]; LEVELS],
            occupied: [0; LEVELS],
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
            self.late.push(entry);
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
        self.occupied[level] |= 1 << slot;
        let head = self.heads[level][slot];
        let chunk = if head != NIL && (self.chunks[head as usize].len as usize) < CHUNK {
            head
        } else {
            let fresh = self.take_chunk(head);
            self.heads[level][slot] = fresh;
            fresh
        };
        let meta = &mut self.chunks[chunk as usize];
        self.pool[chunk as usize * CHUNK + meta.len as usize] = Some(entry);
        meta.len += 1;
    }

    /// An empty chunk linked in front of `next`: the one freed last, or a
    /// new one at the end of the pool when none is free.
    fn take_chunk(&mut self, next: u32) -> u32 {
        let meta = ChunkMeta { len: 0, next };
        let chunk = self.free;
        if chunk != NIL {
            self.free = self.chunks[chunk as usize].next;
            self.chunks[chunk as usize] = meta;
            return chunk;
        }
        debug_assert!(self.chunks.len() < NIL as usize, "chunk index overflow");
        let chunk = self.chunks.len() as u32;
        self.chunks.push(meta);
        self.pool.resize_with(self.pool.len() + CHUNK, || None);
        chunk
    }

    /// Advance the cursor until `ready ∪ late` holds the global minimum
    /// (or the queue is provably empty). Drains at most one level-0 slot
    /// into `ready` per pass; higher-level hits cascade their slot
    /// downward.
    fn ensure_ready(&mut self) {
        loop {
            if !self.ready.is_empty() || !self.late.is_empty() {
                return;
            }
            let cur = self.cur_tick;
            // Level 0: one tick per slot; the earliest occupied slot at or
            // after the cursor digit *is* the minimum pending tick.
            let occ0 = self.occupied[0] & (!0u64 << (cur & 63) as u32);
            if occ0 != 0 {
                let s = occ0.trailing_zeros() as u64;
                self.cur_tick = (cur & !63) + s + 1;
                // One whole tick into the (empty) batch, earliest last.
                self.empty_slot(0, s as usize, |q, e| q.ready.push(e));
                self.ready.sort_unstable();
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
                let occ = self.occupied[l] & (!0u64 << digit as u32);
                if occ == 0 {
                    continue;
                }
                let s = occ.trailing_zeros() as u64;
                if s != digit {
                    // Move the cursor to the start of that slot's range;
                    // everything below this level is empty, so zeroing the
                    // low digits cannot skip a pending entry.
                    let block = (1u64 << (shift + SLOT_BITS)) - 1;
                    self.cur_tick = (cur & !block) | (s << shift);
                }
                // else: a level-0 carry rolled the cursor digit onto an
                // occupied slot; redistribute in place, cursor unchanged.
                self.empty_slot(l, s as usize, Self::insert_wheel);
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

    /// Empty the slot: detach its chain, walk it once front to back,
    /// hand every entry to `sink` and put each chunk on top of the free
    /// list as the walk leaves it. `sink` must not push to this slot
    /// (a cascade re-inserts strictly below `level`).
    fn empty_slot(&mut self, level: usize, slot: usize, mut sink: impl FnMut(&mut Self, Entry<E>)) {
        self.occupied[level] &= !(1 << slot);
        let mut chunk = std::mem::replace(&mut self.heads[level][slot], NIL);
        while chunk != NIL {
            let ChunkMeta { len, next } = self.chunks[chunk as usize];
            let base = chunk as usize * CHUNK;
            for cell in base..base + len as usize {
                if let Some(e) = self.pool[cell].take() {
                    sink(self, e);
                }
            }
            self.chunks[chunk as usize].next = self.free;
            self.free = chunk;
            chunk = next;
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
            let digit = ((self.cur_tick >> (SLOT_BITS * l as u32)) & 63) as usize;
            if self.occupied[l] & (1 << digit) != 0 {
                self.empty_slot(l, digit, Self::insert_wheel);
            }
        }
    }

    /// Whether the earliest entry behind the cursor is in `late` rather
    /// than at the back of `ready`.
    fn next_is_late(&self) -> bool {
        match (self.late.peek(), self.ready.last()) {
            (Some(late), Some(ready)) => late > ready,
            (late, _) => late.is_some(),
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
        let e = if self.next_is_late() {
            self.late.pop()
        } else {
            self.ready.pop()
        }?;
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
        let next = if self.next_is_late() {
            self.late.peek()
        } else {
            self.ready.last()
        };
        next.map(|e| e.time)
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
mod tests;
