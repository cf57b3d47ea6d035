//! `StreamBuffer` edge cases: sub-stream alignment wrap-around at the
//! head position, playout across starved (skipped) regions, and the
//! fluid-credit delivery bookkeeping checked against the closed-form
//! catch-up/starvation times of `cs-model` (Eq. 3 / Eq. 4).

use cs_proto::StreamBuffer;

// ---------------------------------------------------------------- head wrap

/// The start position rarely lands on sub-stream 0; the first wanted
/// block of each sub-stream wraps around the head (`start_seq % K`).
#[test]
fn first_wanted_wraps_around_head_for_every_residue() {
    for k in [1u32, 2, 3, 4, 6, 8] {
        for start in 0..(3 * k as u64) {
            let b = StreamBuffer::new(k, start);
            let mut firsts: Vec<u64> = (0..k).map(|i| b.first_wanted(i)).collect();
            for (i, &f) in firsts.iter().enumerate() {
                assert_eq!(f % k as u64, i as u64, "k={k} start={start} sub={i}");
                assert!(f >= start, "first wanted before the head");
                assert!(f < start + k as u64, "gap at the head");
            }
            // Together the K first-wanted blocks tile [start, start+K).
            firsts.sort_unstable();
            let expect: Vec<u64> = (start..start + k as u64).collect();
            assert_eq!(firsts, expect, "k={k} start={start}");
        }
    }
}

/// Immediately at the head, contiguity needs *every* sub-stream; the
/// sub-stream owning `start_seq` itself is the first gate.
#[test]
fn contiguity_at_head_requires_the_wrapping_substream() {
    let mut b = StreamBuffer::new(4, 10); // head block 10 is sub-stream 2
    b.advance(3, 1); // 11
    b.advance(0, 1); // 12
    b.advance(1, 1); // 13
    assert_eq!(b.contiguous_edge(), None, "head block 10 still missing");
    assert_eq!(b.contiguous_len(), 0);
    b.advance(2, 1); // 10 arrives
    assert_eq!(b.contiguous_edge(), Some(13));
    assert_eq!(b.contiguous_len(), 4);
}

/// `has_block` refuses blocks before the head even when the sub-stream's
/// newest seq technically covers them.
#[test]
fn blocks_before_head_are_never_present() {
    let mut b = StreamBuffer::new(3, 7); // sub-stream 1 first wants 7
    b.advance(1, 3); // 7, 10, 13
    assert!(b.has_block(7) && b.has_block(13));
    assert!(!b.has_block(4), "block before start_seq");
    assert!(!b.has_block(1), "block before start_seq");
}

// --------------------------------------------------------- starved playout

/// A playout pass walking over a skipped (starved) region counts the
/// skipped blocks as missed and everything after the region as present —
/// the §IV.A "blocks left every cache window" accounting.
#[test]
fn playout_past_starved_region_counts_holes_missed() {
    let k = 4u32;
    let mut b = StreamBuffer::new(k, 0);
    // Deliver the first 3 blocks of each sub-stream: 0..=11 all present.
    for i in 0..k {
        b.advance(i, 3);
    }
    // Sub-stream 1 starves: its parent's window moved past blocks 13, 17,
    // 21; delivery resumes at 25.
    let skipped = b.skip_to(1, 22);
    assert_eq!(skipped, 3);
    assert_eq!(b.latest(1), Some(21));
    b.advance(1, 1); // 25
                     // Fill the other sub-streams far enough to cover the same range.
    for i in [0u32, 2, 3] {
        b.advance(i, 4);
    }
    // The combination edge moved past the starved region…
    assert!(b.contiguous_edge().unwrap() >= 21);
    // …but a playout scan over [0, 24] misses exactly the 3 holes.
    let (mut due, mut missed) = (0u64, 0u64);
    for n in 0..25 {
        due += 1;
        if !b.has_block(n) {
            missed += 1;
        }
    }
    assert_eq!(due, 25);
    assert_eq!(missed, 3, "exactly the skipped blocks are missed");
    for n in [13u64, 17, 21] {
        assert!(!b.has_block(n), "hole {n} reported playable");
    }
    assert!(b.has_block(25), "delivery after the region is real");
}

/// Two disjoint starvation episodes on the same sub-stream leave two
/// independent holes; blocks delivered between them stay playable.
#[test]
fn repeated_starvation_leaves_disjoint_holes() {
    let mut b = StreamBuffer::new(2, 0);
    b.advance(0, 1); // block 0
    assert_eq!(b.skip_to(0, 4), 2); // holes 2, 4
    b.advance(0, 2); // blocks 6, 8
    assert_eq!(b.skip_to(0, 12), 2); // holes 10, 12
    b.advance(0, 1); // block 14
    assert_eq!(b.holes().len(), 2);
    for present in [0u64, 6, 8, 14] {
        assert!(b.has_block(present), "{present} should be present");
    }
    for hole in [2u64, 4, 10, 12] {
        assert!(!b.has_block(hole), "{hole} should be a hole");
    }
}

/// A long session starves far more often than any fixed cap: every
/// episode stays a hole until playback has passed it, and retiring the
/// played ones never turns a pending hole into a received block.
#[test]
fn hundreds_of_starvation_episodes_all_count_as_missed() {
    const EPISODES: u64 = 300;
    let mut b = StreamBuffer::new(1, 0);
    // Episode e: blocks 3e and 3e + 1 are skipped, block 3e + 2 arrives.
    for e in 0..EPISODES {
        assert_eq!(b.skip_to(0, 3 * e + 1), 2);
        b.advance(0, 1);
    }
    assert_eq!(b.holes().len() as u64, EPISODES);
    let missed = |b: &StreamBuffer, from: u64| -> Vec<u64> {
        (from..3 * EPISODES).filter(|&n| !b.has_block(n)).collect()
    };
    assert_eq!(missed(&b, 0).len() as u64, 2 * EPISODES);
    assert!(
        missed(&b, 0).iter().all(|n| n % 3 != 2),
        "a delivered block is missed"
    );

    // Playback reaches block 601, mid-way through episode 200's hole
    // (600, 601): the 200 holes before it retire, that one stays.
    let next_play = 601;
    b.retire_holes(next_play);
    assert_eq!(b.holes().len() as u64, EPISODES - 200);
    assert_eq!(b.holes()[0], (600, 601));
    assert_eq!(
        missed(&b, next_play).len() as u64,
        2 * (EPISODES - 200) - 1,
        "every skipped block from the playout point on is still missed"
    );
}

// ------------------------------------------------- Eq. (3)/(4) bookkeeping

/// Fluid-credit delivery at a parent rate `r_up` above the sub-stream
/// rate closes an `l`-block gap in exactly the Eq. (3) catch-up time.
#[test]
fn credit_delivery_matches_eq3_catch_up_time() {
    let k = 4u32;
    let substream_rate = 1.6f64; // blocks/s per sub-stream
    let r_up = 3.2f64; // parent pushes at 2× the sub-stream rate
    let gap_blocks = 16u64; // l, in this sub-stream's blocks
    let expect_secs = cs_model::catch_up_time(gap_blocks as f64, r_up, substream_rate)
        .expect("parent outruns the stream");
    assert_eq!(expect_secs, 10.0, "hand-computed Eq. (3) value");

    // The child starts `gap_blocks` behind the live edge of its
    // sub-stream; both advance in 1 s rounds.
    let mut b = StreamBuffer::new(k, 0);
    let mut edge_blocks = gap_blocks as f64; // parent's lead, in blocks
    let dt = 1.0f64;
    let mut elapsed = 0.0f64;
    loop {
        // The stream (and hence the parent's head) advances…
        edge_blocks += substream_rate * dt;
        // …and the parent pushes at r_up, capped by what exists.
        let have = b.received_in(0) as f64;
        let credit = b.credit_mut(0);
        *credit += r_up * dt;
        let deliver = (credit.floor()).min(edge_blocks.floor() - have).max(0.0) as u64;
        *credit -= deliver as f64;
        b.advance(0, deliver);
        elapsed += dt;
        let lag = edge_blocks.floor() as u64 - b.received_in(0);
        if lag == 0 {
            break;
        }
        assert!(elapsed < 100.0, "never caught up; lag {lag}");
    }
    // Continuous model: 10 s. The discrete loop rounds to whole blocks
    // per 1 s round, so allow one round of slack.
    assert!(
        (elapsed - expect_secs).abs() <= 1.0 + 1e-9,
        "caught up in {elapsed} s, Eq. (3) predicts {expect_secs} s"
    );
}

/// A parent serving below the sub-stream rate exhausts an `l`-block lag
/// budget in exactly the Eq. (4) starvation time.
#[test]
fn lag_growth_matches_eq4_starvation_time() {
    let substream_rate = 1.6f64;
    let r_down = 0.8f64; // half rate
    let budget_blocks = 16u64; // lag budget l
    let expect_secs = cs_model::starvation_time(budget_blocks as f64, r_down, substream_rate)
        .expect("rate below stream rate");
    assert_eq!(expect_secs, 20.0, "hand-computed Eq. (4) value");

    // The child starts synchronized (zero lag) and receives at r_down
    // while the stream advances at the sub-stream rate.
    let mut b = StreamBuffer::new(1, 0);
    let mut edge_blocks = 0.0f64;
    let dt = 1.0f64;
    let mut elapsed = 0.0f64;
    loop {
        edge_blocks += substream_rate * dt;
        let have = b.received_in(0) as f64;
        let credit = b.credit_mut(0);
        *credit += r_down * dt;
        let deliver = (credit.floor()).min(edge_blocks.floor() - have).max(0.0) as u64;
        *credit -= deliver as f64;
        b.advance(0, deliver);
        elapsed += dt;
        let lag = edge_blocks.floor() as u64 - b.received_in(0);
        if lag >= budget_blocks {
            break;
        }
        assert!(elapsed < 200.0, "never starved; lag {lag}");
    }
    assert!(
        (elapsed - expect_secs).abs() <= 2.0 + 1e-9,
        "starved in {elapsed} s, Eq. (4) predicts {expect_secs} s"
    );
}

/// Eq. (5) sanity on the same bookkeeping: a diluted rate is strictly
/// starving, and its Eq. (4) time agrees with the dilution formula.
#[test]
fn diluted_rate_plugs_into_eq4() {
    let substream_rate = 1.6f64;
    let d_p = 1u32;
    let r_down = cs_model::diluted_rate(d_p, substream_rate);
    assert!((r_down - 0.8).abs() < 1e-12);
    let t = cs_model::starvation_time(16.0, r_down, substream_rate).unwrap();
    // l / (R/K − D_p/(D_p+1)·R/K) = l·(D_p+1)/(R/K)
    let closed = 16.0 * (d_p as f64 + 1.0) / substream_rate;
    assert!((t - closed).abs() < 1e-9);
}
