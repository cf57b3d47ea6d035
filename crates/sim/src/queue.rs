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
//! The near future is a *ring* of [`RING`] one-tick chains addressed by
//! distance (tick `t` in chain `t % RING`). It holds exactly the ticks
//! `[cur_tick, edge)` with `edge = (cur_tick & !63) + RING`, so every
//! push less than 449 ticks (7.4 s) ahead — each 2 s and 4 s protocol
//! timer, at any cursor phase — goes straight to the chain of its tick.
//!
//! Later ticks go to the *upper wheel*, whose cursor is `edge`: [`LEVELS`]
//! levels of [`SLOTS`] slots each; level `l` slot `s` covers the ticks
//! whose bits above `SLOT_BITS·(l+1)` match `edge` and whose level-`l`
//! digit is `s`. Its level 0 is the block `[edge, edge + 64)`. The nine
//! levels' digits are 54 bits, more than the 51 in which a tick a
//! `SimTime` can name may differ from `edge`, so every pending tick has a
//! slot and no level ever completes a rotation. When the cursor crosses a
//! 64-tick block, `edge` advances one block and the upper level-0 chains
//! are relinked into the ring — a head/tail move per tick, no entry
//! copied — and a carry cascades the upper slots `edge`'s digits now rest
//! on. One `u64` occupancy bitmap per 64 slots makes "earliest non-empty
//! slot" a `trailing_zeros`.
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
//! at most one partial chunk per chain (`RING + LEVELS · SLOTS` = 1 088),
//! whatever each slot's fullest rotation once was. An entry is the event
//! plus 16 bytes (56 for a 40-byte event): `seq` is stored plus one as a
//! `NonZeroU64`, so `Option<Entry>` needs no tag. An entry carries no
//! causal parent: the engine records which handler pushed which seqs,
//! and only while an observer asks for causes.
//!
//! # Exact (time, seq) order
//!
//! The wheel only *coarsens* placement; the total order is restored one
//! tick at a time. The structural invariant is a strict window split
//! around the wheel cursor `cur_tick`:
//!
//! * every pending entry with `tick <  cur_tick` is in `ready` or `late`;
//! * every pending entry with `tick >= cur_tick` is in the wheel.
//!
//! The cursor only advances when `ready` and `late` are both empty, by
//! draining the earliest occupied ring chain (one whole tick — *all*
//! equal-tick entries together) into the `ready` batch, earliest last, so
//! a pop is a `Vec::pop`. The drain sorts no entries. Entries with equal
//! timestamps always share one chain, in push order: a timestamp's place
//! only changes when `edge` moves, and every move carries its entries
//! along — front to back, onto the tails of lower slots, or as a whole
//! chain into the ring — before any later push can land. A ring chain
//! for tick `t` thus lists every push of `t` made before its relink,
//! then every push made after it. A *stable* sort of the chain by the
//! offset within the tick is therefore the exact `(time, seq)` order. The
//! drain sorts one 64-bit key per entry (offset above, pool cell below)
//! with an insertion sort for small ticks and a two-digit LSD radix for
//! large ones, then moves each entry into `ready` once.
//!
//! A push that lands behind the cursor (a sub-tick delay; rare) cannot
//! join the drained batch cheaply and goes to the small `late` heap
//! instead. A pop takes the earlier of `ready`'s back and `late`'s
//! top, hence always the minimum pending `(time, seq)`, and pop order is
//! byte-identical to the old global heap. The differential tests in
//! `queue/tests.rs` check the equivalence against the test-only
//! `ReferenceQueue` across every level up to `SimTime::MAX`, equal
//! timestamps pushed from every level, chunk boundaries, full level-1
//! rotations and the ring's edges.

use std::cell::Cell;
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
/// Number of upper wheel levels: their digits address every bit in
/// which a tick (`64 − TICK_SHIFT` bits) can differ from `edge`, which
/// runs up to a ring past the last tick and so has one bit more.
const LEVELS: usize = 9;
const _: () = assert!(SLOT_BITS * LEVELS as u32 > u64::BITS - TICK_SHIFT);
/// One-tick chains of the ring: a 4 s period (244 ticks) plus a block
/// and change, so every 2 s and 4 s timer is pushed straight to its tick.
const RING: usize = 512;
/// Occupancy words of the ring; the upper wheel's level `l` is word
/// `RING_WORDS + l`.
const RING_WORDS: usize = RING / SLOTS;
const _: () = assert!(RING % SLOTS == 0 && RING.is_power_of_two());
/// Entries per pool chunk: large enough that a drain reads memory
/// sequentially, small enough that 1 088 partly filled tails cost little.
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

/// An empty `Vec` with room for exactly `n` elements, or with none when
/// the allocator refuses them. Out of line: inlined into
/// `EventQueue::with_capacity`, the fallible reservation read
/// `timer_wheel_100k` ≈ 5 % slower (6 of 6 benchmark pairs); out of
/// line it reads level with an infallible `Vec::with_capacity`.
#[inline(never)]
fn reserved<T>(n: usize) -> Vec<T> {
    let mut v = Vec::new();
    let _ = v.try_reserve_exact(n);
    v
}

/// Tick index of a timestamp.
#[inline]
const fn tick_of(time: SimTime) -> u64 {
    time.as_micros() >> TICK_SHIFT
}

/// End of the ring for a cursor at tick `cur`: the ring holds the ticks
/// `[cur, ring_edge(cur))`, at least `RING − SLOTS + 1` of them.
#[inline]
const fn ring_edge(cur: u64) -> u64 {
    (cur & !(SLOTS as u64 - 1)) + RING as u64
}

/// Slot index of level `level`'s slot `slot` of the upper wheel.
#[inline]
const fn upper(level: usize, slot: usize) -> usize {
    RING + level * SLOTS + slot
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
    /// Storage of every wheel entry (`tick >= cur_tick`): chunk `c` is
    /// cells `c·CHUNK .. (c+1)·CHUNK`.
    pool: Vec<Option<Entry<E>>>,
    /// Per-chunk metadata, parallel to `pool`.
    chunks: Vec<ChunkMeta>,
    /// Head of the LIFO list of empty chunks.
    free: u32,
    /// Each slot's chain: the ring's `RING` one-tick chains (tick `t` at
    /// `t % RING`), then the upper wheel's `SLOTS` per level.
    slots: [Chain; RING + LEVELS * SLOTS],
    /// Bitmap of the slots whose chain is non-empty, 64 slots a word.
    occupied: [u64; RING_WORDS + LEVELS],
    /// Drain scratch: one key per entry of the tick being drained.
    keys: Vec<u64>,
    /// Drain scratch: the radix sort's second buffer.
    radix: Vec<u64>,
    /// Wheel cursor, in ticks.
    cur_tick: u64,
    /// End of the ring, `ring_edge(cur_tick)`; the upper wheel's cursor.
    edge: u64,
    /// The seq the next push takes; also the count of pushes so far.
    next_seq: u64,
    /// Pops so far. Not a pending count that push and pop both update:
    /// LLVM merges push's two increments into one 16-byte load, which
    /// then spans pop's fresh 8-byte store and cannot be forwarded.
    popped: u64,
    /// Entries moved by cascades so far.
    #[cfg(test)]
    cascaded: u64,
}

/// An entry taken by [`EventQueue::pop_due`]; `seq` is [`stored`]. The
/// `Cell` hides the event's niche, so `Option<Due<E>>`'s `None` is a zero
/// `seq`: kept in a spare event tag, it made the engine read the event's
/// last word with one load over narrower fresh stores, which cannot be
/// forwarded.
pub(crate) struct Due<E> {
    pub(crate) time: SimTime,
    pub(crate) seq: NonZeroU64,
    pub(crate) event: Cell<E>,
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
    /// plus one partly filled tail per chain, the ring's included. A
    /// reservation the allocator refuses leaves the pool to grow as
    /// events arrive.
    pub fn with_capacity(cap: usize) -> Self {
        let chunks = cap.div_ceil(CHUNK).saturating_add(RING + LEVELS * SLOTS);
        EventQueue {
            ready: Vec::new(),
            late: BinaryHeap::new(),
            pool: reserved(chunks.saturating_mul(CHUNK)),
            chunks: reserved(chunks),
            free: NIL,
            slots: [Chain::EMPTY; RING + LEVELS * SLOTS],
            occupied: [0; RING_WORDS + LEVELS],
            keys: Vec::new(),
            radix: Vec::new(),
            cur_tick: 0,
            edge: ring_edge(0),
            next_seq: 0,
            popped: 0,
            #[cfg(test)]
            cascaded: 0,
        }
    }

    /// Heap bytes the queue holds: the chunks carved from the pool so
    /// far with their metadata (a reserved pool's tail is never touched),
    /// and at capacity the ready batch, the late heap and the drain
    /// scratch.
    pub fn heap_bytes(&self) -> usize {
        fn cap<T>(v: &Vec<T>) -> usize {
            v.capacity() * std::mem::size_of::<T>()
        }
        self.pool.len() * std::mem::size_of::<Option<Entry<E>>>()
            + self.chunks.len() * std::mem::size_of::<ChunkMeta>()
            + cap(&self.ready)
            + self.late.capacity() * std::mem::size_of::<Entry<E>>()
            + cap(&self.keys)
            + cap(&self.radix)
    }

    /// Capacity bytes of the chunk pool and its metadata.
    pub fn reserved_bytes(&self) -> usize {
        self.pool.capacity() * std::mem::size_of::<Option<Entry<E>>>()
            + self.chunks.capacity() * std::mem::size_of::<ChunkMeta>()
    }

    /// Schedule `event` at absolute time `time`. The entry is written
    /// once, into its cell: handed by value to an out-of-line insert, it
    /// was copied with loads spanning narrower fresh stores.
    #[inline]
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = stored(self.next_seq);
        self.next_seq += 1;
        let t = tick_of(time);
        if t < self.cur_tick {
            self.late.push(Entry { time, seq, event });
        } else {
            let cell = self.append_cell(t);
            self.pool[cell] = Some(Entry { time, seq, event });
        }
    }

    /// The pool cell that appends tick `t` (`>= cur_tick`) to the tail of
    /// its ring chain when it lies before `edge`, else to its upper-wheel
    /// slot.
    fn append_cell(&mut self, t: u64) -> usize {
        debug_assert!(t >= self.cur_tick, "wheel entry behind cursor");
        let slot = if t < self.edge {
            t as usize & (RING - 1)
        } else {
            let diff = t ^ self.edge;
            let level = ((diff | 1).ilog2() / SLOT_BITS) as usize;
            upper(
                level,
                (t >> (SLOT_BITS * level as u32)) as usize & (SLOTS - 1),
            )
        };
        self.occupied[slot / SLOTS] |= 1 << (slot % SLOTS);
        let tail = self.slots[slot].tail;
        let chunk = if tail != NIL && (self.chunks[tail as usize].len as usize) < CHUNK {
            tail
        } else {
            let fresh = self.take_chunk();
            let chain = &mut self.slots[slot];
            if tail == NIL {
                chain.head = fresh;
            } else {
                self.chunks[tail as usize].next = fresh;
            }
            chain.tail = fresh;
            fresh
        };
        let meta = &mut self.chunks[chunk as usize];
        let cell = chunk as usize * CHUNK + meta.len as usize;
        meta.len += 1;
        cell
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
    /// (or the queue is provably empty). Drains at most one ring chain
    /// into `ready` per call. Out of line: `pop_due`'s fast path is not.
    #[inline(never)]
    fn ensure_ready(&mut self) {
        while self.ready.is_empty() && self.late.is_empty() {
            let Some(t) = self.ring_min() else {
                if !self.jump() {
                    return; // Queue fully drained.
                }
                continue;
            };
            self.cur_tick = t + 1;
            self.drain_tick(t as usize & (RING - 1));
            while self.edge < ring_edge(self.cur_tick) {
                self.advance_edge();
            }
            return;
        }
    }

    /// The earliest tick with a non-empty ring chain. The ring's ticks
    /// `[cur_tick, edge)` are its words in order from the cursor's block;
    /// the cursor word's bits below the cursor are drained ticks.
    fn ring_min(&self) -> Option<u64> {
        let block = self.cur_tick & !(SLOTS as u64 - 1);
        (0..RING_WORDS as u64).find_map(|k| {
            let start = block + k * SLOTS as u64;
            let occ = self.occupied[(start as usize & (RING - 1)) / SLOTS];
            (occ != 0).then(|| start + u64::from(occ.trailing_zeros()))
        })
    }

    /// Relink the upper wheel's level-0 chains — the ticks
    /// `[edge, edge + SLOTS)` — into the ring, where they take the slots
    /// of the block before the cursor's (all drained), then advance
    /// `edge` one block. No entry moves. A later push of those ticks
    /// appends behind the relinked chain, so it keeps push order.
    fn advance_edge(&mut self) {
        let dst = self.edge as usize & (RING - 1);
        debug_assert!(self.cur_tick >= self.edge + SLOTS as u64 - RING as u64);
        debug_assert_eq!(self.occupied[dst / SLOTS], 0, "ring block not drained");
        let mut occ = std::mem::take(&mut self.occupied[RING_WORDS]);
        self.occupied[dst / SLOTS] = occ;
        while occ != 0 {
            let s = occ.trailing_zeros() as usize;
            occ &= occ - 1;
            self.slots[dst + s] = std::mem::replace(&mut self.slots[upper(0, s)], Chain::EMPTY);
        }
        self.edge += SLOTS as u64;
        self.cascade_cursor_slots();
    }

    /// Set the upper cursor to `edge` (a block start) with an empty ring.
    fn jump_to(&mut self, edge: u64) {
        debug_assert!(edge >= self.edge && edge % SLOTS as u64 == 0);
        self.edge = edge;
        self.cur_tick = edge - RING as u64;
    }

    /// With the ring empty, move toward the next pending entry: when
    /// upper level 0 is occupied, step the cursor to the block whose ring
    /// takes it in; else jump `edge` to the start of the earliest occupied
    /// upper slot and cascade that slot down. False when the queue is
    /// empty.
    fn jump(&mut self) -> bool {
        if self.occupied[RING_WORDS] != 0 {
            self.cur_tick = self.edge + SLOTS as u64 - RING as u64;
            self.advance_edge();
            return true;
        }
        for l in 1..LEVELS {
            let occ = self.occupied[RING_WORDS + l];
            if occ == 0 {
                continue;
            }
            // The slot under the cursor's digit is empty (a carry
            // cascades it at once), and the lower levels are empty, so
            // zeroing the low digits cannot skip a pending entry.
            let shift = SLOT_BITS * l as u32;
            let s = u64::from(occ.trailing_zeros());
            debug_assert!(s > (self.edge >> shift) & (SLOTS as u64 - 1));
            let block = (1u64 << (shift + SLOT_BITS)) - 1;
            self.jump_to((self.edge & !block) | (s << shift));
            self.cascade_slot(upper(l, s as usize));
            return true;
        }
        false
    }

    /// Detach the slot's chain, walk it once front to back, hand every
    /// filled cell to `visit` and put each chunk on top of the free list
    /// as the walk leaves it. A freed chunk is written again only by a
    /// later `take_chunk`, so an entry `visit` leaves in its cell stays
    /// there until then.
    fn release_slot(&mut self, slot: usize, mut visit: impl FnMut(&mut Self, usize)) {
        self.occupied[slot / SLOTS] &= !(1 << (slot % SLOTS));
        let mut chunk = std::mem::replace(&mut self.slots[slot], Chain::EMPTY).head;
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

    /// Re-insert every entry of an upper level ≥ 1 slot, in push order;
    /// each lands strictly lower (the cursor has entered the slot's block).
    fn cascade_slot(&mut self, slot: usize) {
        self.release_slot(slot, |q, cell| {
            if let Some(e) = q.pool[cell].take() {
                #[cfg(test)]
                {
                    q.cascaded += 1;
                }
                let cell = q.append_cell(tick_of(e.time));
                q.pool[cell] = Some(e);
            }
        });
    }

    /// Move one ring chain — one whole tick — into the (empty) `ready`
    /// batch, earliest last. The chain lists each timestamp's entries in
    /// `seq` order, so sorting it stably by the offset within the tick
    /// yields the `(time, seq)` order: the keys are sorted, not the
    /// entries, and each entry is moved once.
    fn drain_tick(&mut self, slot: usize) {
        let mut keys = std::mem::take(&mut self.keys);
        keys.clear();
        self.release_slot(slot, |q, cell| {
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

    /// Re-bucket every entry parked on an upper slot that `edge`'s digit
    /// now rests on (levels ≥ 1). Called after `edge` advanced a block;
    /// restores the invariant that the cursor-digit slot is empty at
    /// every level above 0, which `jump` relies on. The carried digits'
    /// lower bits are zero, so every re-inserted entry still satisfies
    /// `tick >= edge` and lands strictly lower in the upper wheel.
    fn cascade_cursor_slots(&mut self) {
        for l in 1..LEVELS {
            let digit = (self.edge >> (SLOT_BITS * l as u32)) as usize & (SLOTS - 1);
            if self.occupied[RING_WORDS + l] & (1 << digit) != 0 {
                self.cascade_slot(upper(l, digit));
            }
        }
    }

    /// Remove and return the earliest event (FIFO among equal timestamps).
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let due = self.pop_due(SimTime::MAX)?;
        Some((due.time, due.event.into_inner()))
    }

    /// Remove and return the earliest entry if it is due by `horizon`
    /// (the earlier of `ready`'s back and `late`'s top). One call per
    /// dispatch, inlined but for the refill: a peek and a pop made two
    /// out-of-line calls. A `None` may have advanced the cursor.
    #[inline]
    pub(crate) fn pop_due(&mut self, horizon: SimTime) -> Option<Due<E>> {
        if self.ready.is_empty() && self.late.is_empty() {
            self.ensure_ready();
        }
        let (late, time) = match (self.late.peek(), self.ready.last()) {
            (Some(late), Some(ready)) if late > ready => (true, late.time),
            (_, Some(ready)) => (false, ready.time),
            (late, None) => (true, late?.time),
        };
        if time > horizon {
            return None;
        }
        let Entry { time, seq, event } = if late {
            self.late.pop()
        } else {
            self.ready.pop()
        }?;
        self.popped += 1;
        let event = Cell::new(event);
        Some(Due { time, seq, event })
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        (self.next_seq - self.popped) as usize
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.next_seq == self.popped
    }

    /// Total events ever pushed. Seqs are issued consecutively from 0,
    /// so this is also the seq the next push takes.
    pub fn total_pushed(&self) -> u64 {
        self.next_seq
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
