//! The four short-period ticks — `BmTick`, `SchedRound`, `PlaybackTick`,
//! `GossipTick`, ≈ 90 % of all dispatched events — allocate nothing in
//! steady state: per-peer state is inline in the arena columns and every
//! temporary lives in a world-owned scratch buffer (DESIGN.md §13).
//!
//! A counting `#[global_allocator]` tallies allocator calls per thread; an
//! engine observer brackets each handler with the tally and charges the
//! difference to the event's kind. A tick that establishes a new
//! partnership is the one exception: it grows that peer's partner table,
//! which then keeps its capacity.
//!
//! The same tally covers the log path (§13): the log server appends each
//! report to one text buffer, so `ReportTick` costs at most that buffer's
//! next doubling, reading a line back costs nothing, the log text is one
//! copy, and reading that copy back into a server borrows it.

// The one `unsafe impl` in the workspace. It is confined to this test
// binary and forwards every call unchanged to `System`.
#![allow(
    unsafe_code,
    reason = "`GlobalAlloc` is an unsafe trait and counting allocator calls needs a global allocator"
)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

use cs_logging::{ActivityKind, LogServer, Report, UserId};
use cs_net::{Bandwidth, ConnectivityPolicy, LatencyModel, Network, NodeClass};
use cs_proto::{CsWorld, Event, Params, UserSpec};
use cs_sim::{Engine, EventQueue, Observer, SimTime};

thread_local! {
    /// `alloc` + `realloc` calls made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

struct Counting;

impl Counting {
    fn count() {
        // `try_with`: the allocator also runs while a thread tears its
        // thread-locals down.
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract the caller already upholds; the tally is a `const`-initialised
// thread-local `Cell<u64>`, so counting neither allocates nor re-enters
// the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count();
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this wrapper with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count();
        // SAFETY: `ptr` came from `System` through this wrapper with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The tick kinds under test, by `Event::kind()`.
const TICKS: [&str; 5] = [
    "bm_tick",
    "sched_round",
    "playback_tick",
    "gossip_tick",
    "report_tick",
];

/// Charges every allocator call made between `on_dispatch` and
/// `after_handle` to the dispatched event's kind.
#[derive(Default)]
struct AllocProbe {
    armed: bool,
    current: Option<usize>,
    before: u64,
    /// `WorldStats::partnerships` after the previous event.
    partnerships: u64,
    dispatched: [u64; 5],
    allocated: [u64; 5],
    /// Ticks set aside because they established a partnership.
    grew_partner_table: u64,
}

impl Observer<CsWorld> for AllocProbe {
    fn on_dispatch(&mut self, _now: SimTime, event: &Event, _queue_depth: usize) {
        self.current = TICKS.iter().position(|&k| k == event.kind());
        self.before = allocs();
    }

    fn after_handle(&mut self, _now: SimTime, world: &CsWorld) {
        let established = world.stats.partnerships - self.partnerships;
        self.partnerships = world.stats.partnerships;
        if let (true, Some(kind)) = (self.armed, self.current) {
            if established > 0 {
                self.grew_partner_table += 1;
            } else {
                self.dispatched[kind] += 1;
                self.allocated[kind] += allocs() - self.before;
            }
        }
    }
}

/// One level-1 rotation of the `cs-sim` timing wheel: 64² ticks of 2¹⁴ µs.
const WHEEL_BLOCK_US: u64 = 64 * 64 * (1 << 14);

#[test]
fn steady_state_ticks_do_not_allocate() {
    const PEERS: u32 = 500;
    let net = Network::new(ConnectivityPolicy::default(), LatencyModel::default(), 17);
    let world = CsWorld::new(Params::default(), net, 4, Bandwidth::mbps(100), 17);
    let mut eng = Engine::new(world);
    for (t, e) in eng.world().initial_events() {
        eng.schedule_at(t, e);
    }
    // A mixed-class audience with uplink to spare that arrives within a
    // minute and then stays: the overlay settles, nobody churns.
    let classes = [
        NodeClass::DirectConnect,
        NodeClass::Upnp,
        NodeClass::Nat,
        NodeClass::Firewall,
    ];
    for u in 0..PEERS {
        let spec = UserSpec {
            user: UserId(u),
            class: classes[u as usize % classes.len()],
            upload: Bandwidth::kbps(1_000 + 500 * (u as u64 % 5)),
            leave_at: SimTime::from_secs(100_000),
            patience: SimTime::from_secs(120),
            retries_left: 0,
            retry_index: 0,
        };
        let at = SimTime::from_micros(u as u64 * 60_000_000 / PEERS as u64);
        eng.schedule_at(at, Event::Arrive(spec));
    }
    let probe = Rc::new(RefCell::new(AllocProbe::default()));
    eng.set_observer(Box::new(probe.clone()));

    // Warm up for five wheel rotations (≈ 5.6 min): buffers fill, parent
    // choices settle, and every container that keeps its capacity —
    // children lists, partner tables, the world's scratch buffers, the
    // event queue's ready batch — reaches its working size. The handlers'
    // `schedule_in` calls are inside the bracket, so a queue that grew on
    // a push would be charged to the tick that made it.
    let start = SimTime::from_micros(5 * WHEEL_BLOCK_US) + SimTime::from_secs(5);
    eng.run_until(start);
    let departed = |w: &CsWorld| {
        let s = &w.stats;
        s.finished_departs + s.impatient_departs + s.giveup_departs + s.outage_departs
    };
    let departed_before = departed(eng.world());
    assert_eq!(
        eng.world().peer_count(),
        PEERS as usize + 5 - departed_before as usize
    );
    probe.borrow_mut().armed = true;
    // Long enough to reach the second round of status reports, which the
    // first arrivals send from ≈ 365 s.
    eng.run_until(start + SimTime::from_secs(40));

    let p = probe.borrow();
    assert_eq!(
        departed(eng.world()),
        departed_before,
        "churn in the window"
    );
    assert!(
        p.dispatched.iter().sum::<u64>() >= 1_000,
        "window too short: {:?} dispatches",
        p.dispatched
    );
    assert!(
        p.grew_partner_table * 50 < p.dispatched.iter().sum::<u64>(),
        "{} ticks still establish partnerships: the overlay has not settled",
        p.grew_partner_table
    );
    for (kind, name) in TICKS.iter().enumerate() {
        assert!(p.dispatched[kind] > 0, "no {name} in the window");
        // A report tick appends three lines to the log text; the window
        // is too short for that buffer to double twice.
        let allowed = u64::from(*name == "report_tick");
        assert!(
            p.allocated[kind] <= allowed,
            "{name}: {} allocator calls over {} dispatches",
            p.allocated[kind],
            p.dispatched[kind]
        );
    }
}

/// The log path allocates per buffer, never per line: appending a report
/// of any class is free but for the text's amortised doubling, decoding a
/// line is free, `to_text` is one copy and `from_text` of that copy
/// borrows it.
#[test]
fn log_path_does_not_allocate_per_line() {
    let (user, node) = (UserId(u32::MAX), u32::MAX);
    let reports = [
        Report::Activity {
            user,
            node,
            kind: ActivityKind::StartSubscription,
            private_addr: true,
        },
        Report::Qos {
            user,
            node,
            due: u64::MAX,
            missed: u64::MAX,
        },
        Report::Traffic {
            user,
            node,
            up: u64::MAX,
            down: u64::MAX,
        },
        Report::Partner {
            user,
            node,
            private_addr: true,
            incoming: u32::MAX,
            outgoing: u32::MAX,
            parents: u32::MAX,
            adaptations: u32::MAX,
        },
    ];
    const LINES: usize = 40_000;
    let mut log = LogServer::new();
    // The first lines take the buffer from nothing to several lines' worth;
    // from there a line can cross at most one doubling.
    const WARM_UP: usize = 16;
    for report in reports.iter().cycle().take(WARM_UP) {
        log.report(SimTime::MAX, report);
    }
    let mut doublings = 0;
    for i in WARM_UP..LINES {
        let before = allocs();
        log.report(SimTime::MAX, &reports[i % reports.len()]);
        match allocs() - before {
            0 => {}
            1 => doublings += 1,
            n => panic!("line {i}: {n} allocator calls in one `report`"),
        }
    }
    assert_eq!(log.len(), LINES);
    // ≈ 4 MB of text from an empty buffer.
    assert!(doublings <= 24, "{doublings} buffer growths");

    let before = allocs();
    let text = log.to_text();
    assert_eq!(allocs() - before, 1, "`to_text` is one copy");
    assert_eq!(text, log.as_text());

    let before = allocs();
    let back = LogServer::from_text(&text);
    assert_eq!(allocs() - before, 0, "`from_text` of a canonical log");
    let back = back.expect("a written log reads back");
    assert_eq!(
        back.as_text().as_ptr(),
        text.as_ptr(),
        "borrowed, not copied"
    );
    assert_eq!(back.len(), LINES);

    for (line, report) in log.lines().map(|(_, line)| line).zip(&reports) {
        let before = allocs();
        let decoded = Report::decode(line);
        let calls = allocs() - before;
        assert_eq!(decoded.as_ref(), Ok(report));
        assert_eq!(calls, 0, "allocator calls to decode {line}");
    }
}

/// The event queue on its own: built `with_capacity(N)` and armed with N
/// periodic timers, its chunk pool never grows (the reservation covers
/// `N ÷ CHUNK` full chunks plus a partial one per slot), and once the
/// ready batch has held its largest tick a whole rotation of pops and
/// re-arms — cascades included — makes no allocator call at all.
#[test]
fn warmed_timing_wheel_does_not_allocate() {
    const TIMERS: u64 = 20_000;
    // Whole ticks, the longest one rotation: every rotation repeats the
    // last one exactly, so the warm-up has seen the largest tick.
    let period = |timer: u64| [128u64, 128, 256, 512, 4096][timer as usize % 5] << 14;
    let mut queue = EventQueue::with_capacity(TIMERS as usize);
    let before_arming = allocs();
    for timer in 0..TIMERS {
        let phase = timer.wrapping_mul(0x9e37_79b9_7f4a_7c15) % period(timer);
        queue.push(SimTime::from_micros(phase), timer);
    }
    assert_eq!(
        allocs() - before_arming,
        0,
        "arming outgrew the reservation"
    );
    // Pop and re-arm up to the end of level-1 rotation `rotation`.
    let run_through = |queue: &mut EventQueue<u64>, rotation: u64| {
        let end = SimTime::from_micros(rotation * WHEEL_BLOCK_US);
        let mut fired = 0u64;
        while queue.peek_time().is_some_and(|at| at <= end) {
            let (at, timer) = queue.pop().expect("peeked");
            queue.push(at + SimTime::from_micros(period(timer)), timer);
            fired += 1;
        }
        fired
    };
    run_through(&mut queue, 3);
    let before = allocs();
    let fired = run_through(&mut queue, 4);
    assert!(
        fired > 300_000,
        "only {fired} firings in the measured rotation"
    );
    assert_eq!(allocs() - before, 0, "allocator calls over {fired} firings");
}
