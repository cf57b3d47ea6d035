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
//! wheel position reaches its rotation. Per-level `u64` occupancy bitmaps
//! make "earliest non-empty slot at or after the cursor" a mask and a
//! `trailing_zeros`.
//!
//! # Storage: one chunk pool of FIFO chains
//!
//! Slots own no buffers. Every wheel entry lives in one `Vec`, the
//! *pool*, carved into chunks of [`CHUNK`] entries. A slot is a chain of
//! chunks named by the `u32` indices of its head and tail chunk; a
//! parallel table holds each chunk's fill level and chain link, and
//! emptied chunks go on a LIFO free list threaded through the same links.
//! A push appends to the slot's tail chunk, or links a chunk from the
//! free list behind it, so only the tail of a chain is ever partly filled
//! and a chain read front to back is the slot's push order. Drains and
//! cascades walk a chain once, front to back, and release each chunk as
//! they leave it: the chunk freed last — still in cache — is the next one
//! written. The pool therefore holds `pending ÷ CHUNK` full chunks plus
//! at most one partial chunk per slot, whatever each slot's fullest
//! rotation once was. An entry is 64 bytes for a 40-byte event: `seq` is
//! stored plus one as a `NonZeroU64`, so `Option<Entry>` needs no tag.
//!
//! # Exact (time, seq) order
//!
//! The wheel only *coarsens* placement; the total order is restored one
//! tick at a time. The structural invariant is a strict window split
//! around the wheel cursor `cur_tick`:
//!
//! * every pending entry with `tick <  cur_tick` is in `ready` or `late`;
//! * every pending entry with `tick >= cur_tick` is in the wheel or the
//!   overflow heap.
//!
//! The cursor only advances when `ready` and `late` are both empty, by
//! draining the earliest occupied level-0 slot (one whole tick — *all*
//! equal-tick entries together) into the `ready` batch, earliest last, so
//! a pop is a `Vec::pop`. The drain sorts no entries. Entries with equal
//! timestamps always share one slot, in push order: a timestamp's slot
//! only changes when the cursor enters that slot's block, and the slot is
//! cascaded — front to back, onto the tails of lower slots — before any
//! later push can land. So the chain of a level-0 slot lists each
//! timestamp's entries in `seq` order, and a *stable* sort of the chain
//! by the offset within the tick is the exact `(time, seq)` order. The
//! drain sorts one 64-bit key per entry (offset above, pool cell below)
//! with an insertion sort for small ticks and a two-digit LSD radix for
//! large ones, then moves each entry into `ready` once.
//!
//! A push that lands behind the cursor (a sub-tick delay; rare) cannot
//! join the drained batch cheaply and goes to the small `late` heap
//! instead. `pop`/`peek` take the earlier of `ready`'s back and `late`'s
//! top, hence always the minimum pending `(time, seq)`, and pop order is
//! byte-identical to the old global heap. The differential tests in
//! `queue/tests.rs` check the equivalence against the test-only
//! `ReferenceQueue` across every level, the overflow heap, equal
//! timestamps pushed from every level, chunk boundaries and full level-1
//! rotations.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::num::NonZeroU64;

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
/// sequentially, small enough that 384 partly filled tails cost little.
const CHUNK: usize = 32;
/// "No chunk": an empty slot, the end of a chain, an empty free list.
const NIL: u32 = u32::MAX;

/// A drain key holds the entry's offset within its tick in the top
/// `TICK_SHIFT` bits and its pool cell (below `2^32 · CHUNK = 2^37`) in
/// the bits below.
const OFFSET_SHIFT: u32 = u64::BITS - TICK_SHIFT;
/// Bits of one radix digit: the in-tick offset is two digits.
const DIGIT_BITS: u32 = TICK_SHIFT / 2;
const _: () = assert!(2 * DIGIT_BITS == TICK_SHIFT);
/// Ticks of at most this many entries are insertion-sorted: below it the
/// radix's two passes over `2^DIGIT_BITS` buckets cost more.
const INSERTION_MAX: usize = 32;

/// Tick index of a timestamp.
#[inline]
const fn tick_of(time: SimTime) -> u64 {
    time.as_micros() >> TICK_SHIFT
}

/// A sequence number as stored in an entry: plus one, so that it is never
/// zero. `seq` never reaches `u64::MAX` (that would take 2^64 pushes).
#[inline]
const fn stored(seq: u64) -> NonZeroU64 {
    NonZeroU64::MIN.saturating_add(seq)
}

/// An entry in the queue. Private ordering wrapper.
struct Entry<E> {
    time: SimTime,
    /// Insertion sequence number, [`stored`].
    seq: NonZeroU64,
    /// Insertion seq of the event whose handler scheduled this one,
    /// [`stored`] (`None` for externally scheduled events). Pure
    /// metadata: never consulted by the ordering, only surfaced to
    /// observers for causal span tracing.
    cause: Option<NonZeroU64>,
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
        // of a max-heap and at the back of the `ready` batch.
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

/// A slot's chain of chunks, oldest push in `head`, newest in `tail`.
#[derive(Clone, Copy)]
struct Chain {
    head: u32,
    tail: u32,
}

impl Chain {
    const EMPTY: Chain = Chain {
        head: NIL,
        tail: NIL,
    };
}

/// A time-ordered event queue with stable FIFO tie-breaking.
pub struct EventQueue<E> {
    /// The tick drained last, earliest last. Together with `late` it
    /// holds all pending entries with `tick < cur_tick`.
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
    /// Each slot's chain.
    slots: [[Chain; SLOTS]; LEVELS],
    /// Per-level bitmap of the slots whose chain is non-empty.
    occupied: [u64; LEVELS],
    /// Entries beyond the level-5 rotation of `cur_tick`.
    overflow: BinaryHeap<Entry<E>>,
    /// Drain scratch: one key per entry of the tick being drained.
    keys: Vec<u64>,
    /// Drain scratch: the radix sort's second buffer.
    radix: Vec<u64>,
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
    current_cause: Option<NonZeroU64>,
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
    /// plus one partly filled tail per wheel slot.
    pub fn with_capacity(cap: usize) -> Self {
        let chunks = cap.div_ceil(CHUNK) + LEVELS * SLOTS;
        EventQueue {
            ready: Vec::new(),
            late: BinaryHeap::new(),
            pool: Vec::with_capacity(chunks * CHUNK),
            chunks: Vec::with_capacity(chunks),
            free: NIL,
            slots: [[Chain::EMPTY; SLOTS]; LEVELS],
            occupied: [0; LEVELS],
            overflow: BinaryHeap::new(),
            keys: Vec::new(),
            radix: Vec::new(),
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
        self.current_cause = cause.map(stored);
    }

    /// Schedule `event` at absolute time `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = stored(self.next_seq);
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

    /// Append an entry with `tick >= cur_tick` to the tail of its wheel
    /// slot (or push it on the overflow heap when it lies beyond the
    /// level-5 rotation).
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
        let tail = self.slots[level][slot].tail;
        let chunk = if tail != NIL && (self.chunks[tail as usize].len as usize) < CHUNK {
            tail
        } else {
            let fresh = self.take_chunk();
            let chain = &mut self.slots[level][slot];
            if tail == NIL {
                chain.head = fresh;
            } else {
                self.chunks[tail as usize].next = fresh;
            }
            chain.tail = fresh;
            fresh
        };
        let meta = &mut self.chunks[chunk as usize];
        self.pool[chunk as usize * CHUNK + meta.len as usize] = Some(entry);
        meta.len += 1;
    }

    /// An empty, unlinked chunk: the one freed last, or a new one at the
    /// end of the pool when none is free.
    fn take_chunk(&mut self) -> u32 {
        let meta = ChunkMeta { len: 0, next: NIL };
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
                self.drain_tick(s as usize);
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
                self.cascade_slot(l, s as usize);
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
            self.pull_overflow();
        }
    }

    /// Move every overflow entry that lies in the cursor's level-5
    /// rotation into the wheel, in `(time, seq)` order.
    fn pull_overflow(&mut self) {
        while let Some(h) = self.overflow.peek() {
            if (tick_of(h.time) ^ self.cur_tick) >> WHEEL_BITS != 0 {
                break;
            }
            let Some(e) = self.overflow.pop() else { break };
            self.insert_wheel(e);
        }
    }

    /// Detach the slot's chain, walk it once front to back, hand every
    /// filled cell to `visit` and put each chunk on top of the free list
    /// as the walk leaves it. A freed chunk is written again only by a
    /// later `take_chunk`, so an entry `visit` leaves in its cell stays
    /// there until then.
    fn release_slot(&mut self, level: usize, slot: usize, mut visit: impl FnMut(&mut Self, usize)) {
        self.occupied[level] &= !(1 << slot);
        let mut chunk = std::mem::replace(&mut self.slots[level][slot], Chain::EMPTY).head;
        while chunk != NIL {
            let ChunkMeta { len, next } = self.chunks[chunk as usize];
            let base = chunk as usize * CHUNK;
            for cell in base..base + len as usize {
                visit(self, cell);
            }
            self.chunks[chunk as usize].next = self.free;
            self.free = chunk;
            chunk = next;
        }
    }

    /// Re-insert every entry of a level ≥ 1 slot, in push order; each
    /// lands strictly lower (the cursor has entered the slot's block).
    fn cascade_slot(&mut self, level: usize, slot: usize) {
        self.release_slot(level, slot, |q, cell| {
            if let Some(e) = q.pool[cell].take() {
                q.insert_wheel(e);
            }
        });
    }

    /// Move one level-0 slot — one whole tick — into the (empty) `ready`
    /// batch, earliest last. The chain lists each timestamp's entries in
    /// `seq` order, so sorting it stably by the offset within the tick
    /// yields the `(time, seq)` order: the keys are sorted, not the
    /// entries, and each entry is moved once.
    fn drain_tick(&mut self, slot: usize) {
        let mut keys = std::mem::take(&mut self.keys);
        keys.clear();
        self.release_slot(0, slot, |q, cell| {
            if let Some(e) = &q.pool[cell] {
                let offset = e.time.as_micros() & ((1 << TICK_SHIFT) - 1);
                keys.push(offset << OFFSET_SHIFT | cell as u64);
            }
        });
        sort_by_offset(&mut keys, &mut self.radix);
        self.ready.reserve(keys.len());
        for &key in keys.iter().rev() {
            let cell = (key & ((1 << OFFSET_SHIFT) - 1)) as usize;
            if let Some(e) = self.pool[cell].take() {
                self.ready.push(e);
            }
        }
        self.keys = keys;
    }

    /// Re-bucket every entry parked on a slot the cursor's digit now
    /// rests on (levels ≥ 1). Called after a carry; restores the
    /// invariant that the cursor-digit slot is empty at every level
    /// above 0, which the slot scans rely on. At call time the cursor's
    /// bits below each carried digit are zero, so every re-inserted
    /// entry still satisfies `tick >= cur_tick` and lands strictly
    /// lower in the wheel. A carry out of level 5 starts a new rotation,
    /// whose entries wait in the overflow heap: they join the wheel now,
    /// before a later push of the same rotation can drain ahead of them.
    fn cascade_cursor_slots(&mut self) {
        for l in 1..LEVELS {
            let digit = ((self.cur_tick >> (SLOT_BITS * l as u32)) & 63) as usize;
            if self.occupied[l] & (1 << digit) != 0 {
                self.cascade_slot(l, digit);
            }
        }
        if self.cur_tick & ((1 << WHEEL_BITS) - 1) == 0 {
            self.pull_overflow();
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
            seq: e.seq.get() - 1,
            cause: e.cause.map(|c| c.get() - 1),
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

/// Sort drain keys stably by their offset (the top `TICK_SHIFT` bits):
/// an insertion sort for small ticks, else an LSD radix over two
/// `DIGIT_BITS` digits through `scratch`. Keys of equal offset keep their
/// chain order.
fn sort_by_offset(keys: &mut Vec<u64>, scratch: &mut Vec<u64>) {
    let offset = |key: u64| key >> OFFSET_SHIFT;
    if keys.len() <= INSERTION_MAX {
        for i in 1..keys.len() {
            let key = keys[i];
            let mut j = i;
            while j > 0 && offset(keys[j - 1]) > offset(key) {
                keys[j] = keys[j - 1];
                j -= 1;
            }
            keys[j] = key;
        }
        return;
    }
    const BUCKETS: usize = 1 << DIGIT_BITS;
    let digit = |key: u64, pass: u32| (offset(key) >> (DIGIT_BITS * pass)) as usize & (BUCKETS - 1);
    let mut counts = [[0usize; BUCKETS]; 2];
    for &key in keys.iter() {
        counts[0][digit(key, 0)] += 1;
        counts[1][digit(key, 1)] += 1;
    }
    scratch.clear();
    scratch.resize(keys.len(), 0);
    for (pass, count) in (0u32..).zip(&mut counts) {
        let mut start = 0;
        for c in count.iter_mut() {
            let n = *c;
            *c = start;
            start += n;
        }
        for &key in keys.iter() {
            let d = digit(key, pass);
            scratch[count[d]] = key;
            count[d] += 1;
        }
        std::mem::swap(keys, scratch);
    }
}

#[cfg(test)]
mod tests;
