//! Per-node stream buffering — Fig. 2 of the paper.
//!
//! The video stream is split into `K` sub-streams; block `n` (global
//! sequence number) belongs to sub-stream `n mod K`. Each node keeps one
//! *synchronization buffer* per sub-stream; blocks become playable when the
//! *combination process* finds contiguous sequence numbers across all
//! sub-streams (Fig. 2b: combination stops at the sub-stream still awaiting
//! block 8).
//!
//! Within one sub-stream, delivery is in order (a sub-stream is a TCP push
//! from a single parent), so the sync buffer per sub-stream reduces to the
//! *newest received sequence number* `H_{S_i}` — exactly the quantity the
//! paper's inequalities (1) and (2) are written over. Holes only exist
//! *across* sub-streams, which is what `T_s` monitors.

use serde::{Deserialize, Serialize};

use crate::slots::Slots;

/// A node's buffer state across all sub-streams.
#[derive(Clone, Debug, PartialEq)]
pub struct StreamBuffer {
    k: u32,
    /// First global sequence number this node wants (chosen at join,
    /// §IV.A: `m − T_p`).
    start_seq: u64,
    /// Newest received global seq per sub-stream in the buffer map's wire
    /// encoding (`seq + 1`, 0 until the first block of that sub-stream
    /// arrives): the row partners copy at every BM exchange.
    latest: Slots<u64>,
    /// Fractional block credit per sub-stream (fluid-model remainder of
    /// the parent push schedule).
    credit: Slots<f64>,
    /// Skipped-block ranges: blocks that were pushed out of every parent's
    /// cache window before this node could fetch them (§IV.A problem 1).
    /// Each entry `(s, e)` covers blocks `s, s+K, …, e` of sub-stream
    /// `s mod K`. These blocks count as *missed* at playback; a range the
    /// playout point has passed is dropped by
    /// [`retire_holes`](Self::retire_holes).
    holes: Vec<(u64, u64)>,
}

impl StreamBuffer {
    /// Fresh buffer wanting blocks from `start_seq` onwards.
    pub fn new(k: u32, start_seq: u64) -> Self {
        assert!(k >= 1);
        StreamBuffer {
            k,
            start_seq,
            latest: Slots::new(k as usize),
            credit: Slots::new(k as usize),
            holes: Vec::new(),
        }
    }

    /// Number of sub-streams.
    #[inline]
    pub fn substreams(&self) -> u32 {
        self.k
    }

    /// The join-time start position.
    #[inline]
    pub fn start_seq(&self) -> u64 {
        self.start_seq
    }

    /// Smallest wanted global seq belonging to sub-stream `i`.
    #[inline]
    pub fn first_wanted(&self, i: u32) -> u64 {
        let k = self.k as u64;
        let r = self.start_seq % k;
        let i = i as u64;
        if i >= r {
            self.start_seq + (i - r)
        } else {
            self.start_seq + (k - r) + i
        }
    }

    /// Newest received global seq in sub-stream `i`.
    #[inline]
    pub fn latest(&self, i: u32) -> Option<u64> {
        self.latest[i as usize].checked_sub(1)
    }

    /// Newest received seq across all sub-streams (`max_i H_{S_i}`).
    pub fn max_latest(&self) -> Option<u64> {
        self.latest.iter().max()?.checked_sub(1)
    }

    /// The advertised buffer-map row: one slot per sub-stream in the wire
    /// encoding of [`BufferMap::encode`] (`seq + 1`, 0 = none).
    #[inline]
    pub fn advertised(&self) -> &[u64] {
        &self.latest
    }

    /// The next block this node still needs from sub-stream `i`.
    #[inline]
    pub fn next_missing(&self, i: u32) -> u64 {
        match self.latest(i) {
            Some(h) => h + self.k as u64,
            None => self.first_wanted(i),
        }
    }

    /// Blocks received in sub-stream `i` so far.
    pub fn received_in(&self, i: u32) -> u64 {
        match self.latest(i) {
            Some(h) => (h - self.first_wanted(i)) / self.k as u64 + 1,
            None => 0,
        }
    }

    /// How far sub-stream `i` lags the most advanced sub-stream, in global
    /// sequence numbers. This is the node-local deviation that inequality
    /// (1) compares against `T_s`.
    pub fn lag(&self, i: u32) -> u64 {
        match self.max_latest() {
            None => 0,
            Some(maxh) => {
                // An empty sub-stream lags from one block before its first
                // wanted seq.
                let h = self
                    .latest(i)
                    .unwrap_or_else(|| self.first_wanted(i).saturating_sub(self.k as u64));
                maxh.saturating_sub(h)
            }
        }
    }

    /// Worst lag across sub-streams.
    pub fn max_lag(&self) -> u64 {
        (0..self.k).map(|i| self.lag(i)).max().unwrap_or(0)
    }

    /// Whether block `n` is in the buffer. Only meaningful from the
    /// playout point onwards once [`retire_holes`](Self::retire_holes)
    /// has run: a retired hole reads as received.
    pub fn has_block(&self, n: u64) -> bool {
        if n < self.start_seq {
            return false;
        }
        let k = self.k as u64;
        #[expect(
            clippy::cast_possible_truncation,
            reason = "n % k < k, and k is self.k widened from u32"
        )]
        let i = (n % k) as u32;
        matches!(self.latest(i), Some(h) if n <= h) && !self.in_hole(n)
    }

    /// Whether `n` lies in a skipped range: such a block was never
    /// actually received.
    fn in_hole(&self, n: u64) -> bool {
        let k = self.k as u64;
        self.holes
            .iter()
            .any(|&(s, e)| n >= s && n <= e && (n - s) % k == 0)
    }

    /// How many blocks of `from..to` are in the buffer:
    /// [`has_block`](Self::has_block) counted over the range, with the
    /// sub-stream index stepped instead of divided out per block.
    pub fn received_between(&self, from: u64, to: u64) -> u64 {
        let from = from.max(self.start_seq);
        let latest: &[u64] = &self.latest;
        #[expect(
            clippy::cast_possible_truncation,
            reason = "from % k < k, and k is self.k widened from u32"
        )]
        let mut i = (from % self.k as u64) as usize;
        let mut received = 0;
        for n in from..to {
            // Wire encoding: `latest[i]` is the newest seq + 1, 0 = none.
            if n < latest[i] && !self.in_hole(n) {
                received += 1;
            }
            i = if i + 1 == latest.len() { 0 } else { i + 1 };
        }
        received
    }

    /// Skipped-block ranges recorded by [`skip_to`](Self::skip_to) and
    /// not yet retired.
    pub fn holes(&self) -> &[(u64, u64)] {
        &self.holes
    }

    /// Forget every hole that ends before `next_play`: playback has
    /// already charged those blocks as missed and never looks back.
    pub fn retire_holes(&mut self, next_play: u64) {
        self.holes.retain(|&(_, end)| end >= next_play);
    }

    /// Deliver `count` in-order blocks on sub-stream `i` (the parent push).
    /// Returns the new newest seq.
    pub fn advance(&mut self, i: u32, count: u64) -> Option<u64> {
        if count == 0 {
            return self.latest(i);
        }
        let k = self.k as u64;
        let new = match self.latest(i) {
            Some(h) => h + count * k,
            None => self.first_wanted(i) + (count - 1) * k,
        };
        self.latest[i as usize] = new + 1;
        Some(new)
    }

    /// Fast-forward sub-stream `i` past blocks that no parent can serve
    /// any more (they fell out of every cache window, §IV.A problem 1).
    /// The skipped blocks are recorded as a hole — they count as missed at
    /// playback — and delivery resumes from the first block after `bound`.
    /// Returns the number of blocks skipped.
    pub fn skip_to(&mut self, i: u32, bound: u64) -> u64 {
        let k = self.k as u64;
        let i64 = i as u64;
        if bound < self.first_wanted(i) {
            return 0;
        }
        // Largest seq ≤ bound with seq % k == i.
        let aligned = bound - ((bound % k + k - i64) % k);
        let from = self.next_missing(i);
        if aligned < from {
            return 0;
        }
        let skipped = (aligned - from) / k + 1;
        self.holes.push((from, aligned));
        self.latest[i as usize] = aligned + 1;
        skipped
    }

    /// The newest global seq `n` such that *every* block in
    /// `[start_seq, n]` has been received — the output edge of the
    /// combination process. `None` until every sub-stream has produced its
    /// first wanted block.
    pub fn contiguous_edge(&self) -> Option<u64> {
        let min_next = (0..self.k).map(|i| self.next_missing(i)).min()?;
        min_next.checked_sub(1).filter(|&e| e >= self.start_seq)
    }

    /// Contiguously buffered blocks past the start position (the media
    /// player's fill level).
    pub fn contiguous_len(&self) -> u64 {
        match self.contiguous_edge() {
            Some(e) => e - self.start_seq + 1,
            None => 0,
        }
    }

    /// Mutable fractional credit for sub-stream `i`.
    pub fn credit_mut(&mut self, i: u32) -> &mut f64 {
        &mut self.credit[i as usize]
    }

    /// Produce the buffer map advertised to partners.
    pub fn buffer_map(&self, subscribed: &[bool]) -> BufferMap {
        debug_assert_eq!(subscribed.len(), self.k as usize);
        BufferMap {
            latest: self.latest.iter().map(|v| v.checked_sub(1)).collect(),
            subscribed: subscribed.to_vec(),
        }
    }
}

/// The buffer map (BM) of §III.C: a `2K`-tuple with the newest received
/// sequence number of each sub-stream and the sub-stream subscription
/// flags.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct BufferMap {
    /// Newest received global seq per sub-stream.
    pub latest: Vec<Option<u64>>,
    /// Which sub-streams the node currently subscribes to from a partner.
    pub subscribed: Vec<bool>,
}

impl BufferMap {
    /// Number of sub-streams described.
    pub fn substreams(&self) -> u32 {
        u32::try_from(self.latest.len()).unwrap_or(u32::MAX)
    }

    /// Newest seq across sub-streams.
    pub fn max_latest(&self) -> Option<u64> {
        self.latest.iter().flatten().copied().max()
    }

    /// Wire encoding: `K` little-endian `u64`s (`seq + 1`, 0 = none)
    /// followed by a subscription bitmask, one byte per 8 sub-streams.
    pub fn encode(&self) -> Vec<u8> {
        let k = self.latest.len();
        let mut out = Vec::with_capacity(k * 8 + k.div_ceil(8));
        for l in &self.latest {
            let v = l.map(|s| s + 1).unwrap_or(0);
            out.extend_from_slice(&v.to_le_bytes());
        }
        let mut mask = vec![0u8; k.div_ceil(8)];
        for (i, &s) in self.subscribed.iter().enumerate() {
            if s {
                mask[i / 8] |= 1 << (i % 8);
            }
        }
        out.extend_from_slice(&mask);
        out
    }

    /// Decode [`encode`](Self::encode) output for `k` sub-streams.
    pub fn decode(k: u32, bytes: &[u8]) -> Option<BufferMap> {
        let ku = k as usize;
        let need = ku * 8 + ku.div_ceil(8);
        if bytes.len() != need {
            return None;
        }
        let mut latest = Vec::with_capacity(ku);
        for i in 0..ku {
            let v = u64::from_le_bytes(bytes[i * 8..(i + 1) * 8].try_into().ok()?);
            latest.push(v.checked_sub(1));
        }
        let mask = &bytes[ku * 8..];
        let subscribed = (0..ku).map(|i| mask[i / 8] & (1 << (i % 8)) != 0).collect();
        Some(BufferMap { latest, subscribed })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_wanted_is_aligned_and_minimal() {
        let b = StreamBuffer::new(4, 10);
        // start 10: substream 2 gets 10, 3→11, 0→12, 1→13.
        assert_eq!(b.first_wanted(2), 10);
        assert_eq!(b.first_wanted(3), 11);
        assert_eq!(b.first_wanted(0), 12);
        assert_eq!(b.first_wanted(1), 13);
        for i in 0..4 {
            assert_eq!(b.first_wanted(i) % 4, i as u64);
            assert!(b.first_wanted(i) >= 10 && b.first_wanted(i) < 14);
        }
    }

    #[test]
    fn advance_and_contiguity() {
        let mut b = StreamBuffer::new(4, 0);
        assert_eq!(b.contiguous_edge(), None);
        b.advance(0, 3); // blocks 0,4,8
        b.advance(1, 2); // blocks 1,5
        b.advance(2, 2); // blocks 2,6
                         // Substream 3 still empty: 0..=2 are contiguous, 3 is missing.
        assert_eq!(b.contiguous_edge(), Some(2));
        b.advance(3, 1); // block 3
                         // Now 0..=6 present except 7; edge = 6.
        assert_eq!(b.contiguous_edge(), Some(6));
        assert_eq!(b.contiguous_len(), 7);
        b.advance(3, 1); // block 7
        assert_eq!(b.contiguous_edge(), Some(8));
    }

    #[test]
    fn fig2b_combination_stops_at_awaited_block() {
        // Fig. 2b: 4 sub-streams, combination stops awaiting block 8 on
        // sub-stream 4 (index 3 with 1-based→0-based shift). Model: blocks
        // 0..=7 received plus extras on other sub-streams; edge stays 7
        // until block 8 arrives.
        let mut b = StreamBuffer::new(4, 0);
        for i in 0..4 {
            b.advance(i, 2); // 0..=7 all received
        }
        b.advance(1, 1); // block 9
        b.advance(2, 1); // block 10
        assert_eq!(b.contiguous_edge(), Some(7)); // awaiting 8
        b.advance(0, 1); // block 8 arrives
        assert_eq!(b.contiguous_edge(), Some(10));
    }

    #[test]
    fn lag_tracks_worst_substream() {
        let mut b = StreamBuffer::new(2, 0);
        b.advance(0, 10); // newest seq 18
        b.advance(1, 1); // newest seq 1
        assert_eq!(b.max_latest(), Some(18));
        assert_eq!(b.lag(1), 17);
        assert_eq!(b.lag(0), 0);
        assert_eq!(b.max_lag(), 17);
    }

    #[test]
    fn lag_counts_empty_substream_from_start() {
        let mut b = StreamBuffer::new(2, 0);
        b.advance(0, 5); // newest 8
                         // Substream 1 empty: treated as at first_wanted - k = -1 → 0-ish.
        assert!(b.lag(1) >= 8);
    }

    #[test]
    fn has_block_respects_start_and_latest() {
        let mut b = StreamBuffer::new(3, 7);
        b.advance(1, 2); // substream 1: first wanted 7, blocks 7,10
        assert!(b.has_block(7));
        assert!(b.has_block(10));
        assert!(!b.has_block(13));
        assert!(!b.has_block(4)); // before start
        assert!(!b.has_block(8)); // substream 2 empty
    }

    #[test]
    fn skip_to_fast_forwards_and_records_holes() {
        let mut b = StreamBuffer::new(4, 0);
        b.advance(2, 1); // block 2 received
                         // Skip past blocks 6, 10, 14 (largest ≡2 mod 4 ≤ 17 is 14).
        assert_eq!(b.skip_to(2, 17), 3);
        assert_eq!(b.latest(2), Some(14));
        // The skipped blocks are holes, the received one is not.
        assert!(b.has_block(2));
        for n in [6, 10, 14] {
            assert!(!b.has_block(n), "skipped block {n} reported present");
        }
        // Skipping backwards is a no-op.
        assert_eq!(b.skip_to(2, 9), 0);
        assert_eq!(b.latest(2), Some(14));
        // Below first wanted is a no-op.
        assert_eq!(b.skip_to(3, 1), 0);
        assert_eq!(b.latest(3), None);
        assert_eq!(b.holes().len(), 1);
    }

    #[test]
    fn holes_do_not_break_contiguity_tracking() {
        let mut b = StreamBuffer::new(2, 0);
        b.skip_to(0, 4); // holes at 0,2,4
        b.advance(0, 1); // block 6
        b.advance(1, 4); // blocks 1,3,5,7
                         // Edge advances past holes (they are "resolved" as lost).
        assert_eq!(b.contiguous_edge(), Some(7));
        assert!(!b.has_block(4));
        assert!(b.has_block(6));
    }

    #[test]
    fn received_in_counts_blocks() {
        let mut b = StreamBuffer::new(4, 8);
        assert_eq!(b.received_in(0), 0);
        b.advance(0, 3);
        assert_eq!(b.received_in(0), 3);
    }

    #[test]
    fn buffer_map_encode_decode_round_trip() {
        let mut b = StreamBuffer::new(5, 3);
        b.advance(0, 2);
        b.advance(3, 7);
        let bm = b.buffer_map(&[true, false, false, true, false]);
        let bytes = bm.encode();
        let back = BufferMap::decode(5, &bytes).unwrap();
        assert_eq!(back, bm);
        assert_eq!(back.max_latest(), bm.max_latest());
        // Wrong length rejected.
        assert!(BufferMap::decode(4, &bytes).is_none());
    }

    #[test]
    fn credit_accumulates() {
        let mut b = StreamBuffer::new(2, 0);
        *b.credit_mut(0) += 1.5;
        *b.credit_mut(0) += 0.7;
        assert!((*b.credit_mut(0) - 2.2).abs() < 1e-12);
    }
}
