//! The scenario conformance matrix: every file in `scenarios/` must
//! (a) parse strictly under the DSL schema, (b) run to completion under
//! the full-stride [`InvariantChecker`] with zero violations, and
//! (c) reproduce its per-scenario golden trace hash, the FNV-1a of its
//! log text and the FNV-1a of its ground-truth session table exactly.
//!
//! Regenerate the hashes after an intentional protocol change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p cs-integration --test scenario_matrix
//! ```

use std::path::{Path, PathBuf};

use coolstreaming::{RunOptions, ScenarioSpec};
use cs_integration::{check_golden_in, fnv1a_text, session_table_text};
use cs_net::Network;
use cs_proto::CsWorld;

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/scenario_hashes.txt");
const GOLDEN_HEADER: &str = "Golden per-scenario trace hashes for scenarios/*.json. Regenerate: UPDATE_GOLDEN=1 cargo test -p cs-integration --test scenario_matrix";
const LOG_GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/log_hashes.txt");
const LOG_GOLDEN_HEADER: &str = "Golden FNV-1a of log.to_text() for scenarios/*.json. Regenerate: UPDATE_GOLDEN=1 cargo test -p cs-integration --test scenario_matrix";

const SESSION_GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/session_hashes.txt");
const SESSION_GOLDEN_HEADER: &str = "Golden FNV-1a of session_table_text(world.sessions) after finalize_sessions for scenarios/*.json. Regenerate: UPDATE_GOLDEN=1 cargo test -p cs-integration --test scenario_matrix";

const FULL_CHECK: RunOptions = RunOptions {
    invariant_stride: Some(1),
    trace_hash: true,
    record_spans: false,
    telemetry: None,
};

/// The library every checkout must ship (ISSUE: >= 8 named scenarios).
const EXPECTED: [&str; 9] = [
    "bootstrap_flap",
    "congestion_storm",
    "flash_crowd",
    "free_rider",
    "nat_dominant",
    "regional_outage",
    "server_crash",
    "steady_state",
    "upload_skew",
];

fn scenarios_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../scenarios")
}

fn scenario_files() -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(scenarios_dir())
        .expect("scenarios/ directory missing")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    files
}

fn load(path: &Path) -> ScenarioSpec {
    let text = std::fs::read_to_string(path).expect("readable scenario file");
    ScenarioSpec::from_json(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The library is complete: at least the expected named scenarios exist,
/// and each file's `name` matches its file stem (the golden-hash key).
#[test]
fn library_covers_the_expected_scenarios() {
    let files = scenario_files();
    assert!(
        files.len() >= 8,
        "scenario library shrank: {} files",
        files.len()
    );
    let names: Vec<String> = files.iter().map(|p| load(p).name).collect();
    for expected in EXPECTED {
        assert!(
            names.iter().any(|n| n == expected),
            "scenario {expected:?} missing from scenarios/ (have: {names:?})"
        );
    }
    for (file, name) in files.iter().zip(&names) {
        let stem = file.file_stem().unwrap().to_string_lossy();
        assert_eq!(*name, stem, "{}: name/file mismatch", file.display());
    }
}

/// Run every scenario under the invariant checker and diff its trace
/// hash, log text and session table against the committed golden values.
#[test]
fn matrix_is_invariant_clean_with_golden_hashes() {
    for path in scenario_files() {
        let spec = load(&path);
        let compiled = spec
            .compile()
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let run = compiled
            .scenario
            .run_injected_observed(compiled.injections, FULL_CHECK);
        let chk = run.invariants.expect("checker requested");
        assert!(chk.is_clean(), "{}: {}", spec.name, chk.report());
        assert!(
            run.artifacts.world.stats.arrivals > 0,
            "{}: nobody arrived",
            spec.name
        );
        check_golden_in(
            GOLDEN_PATH,
            GOLDEN_HEADER,
            &spec.name,
            run.trace_hash.expect("hash requested"),
        );
        check_golden_in(
            LOG_GOLDEN_PATH,
            LOG_GOLDEN_HEADER,
            &spec.name,
            fnv1a_text(&run.artifacts.world.log.to_text()),
        );
        assert_log_decodes_to_itself(&spec.name, &run.artifacts.world.log);
        // The trace hash folds (time, kind) and the log sees only what
        // reporting users sent: the per-session totals are pinned here.
        check_golden_in(
            SESSION_GOLDEN_PATH,
            SESSION_GOLDEN_HEADER,
            &spec.name,
            fnv1a_text(&session_table_text(&run.artifacts.world.sessions)),
        );
    }
}

/// The decoder on a real log: every line parses, and each parsed report
/// re-encodes, behind its timestamp, to exactly the line it came from.
fn assert_log_decodes_to_itself(name: &str, log: &cs_logging::LogServer) {
    let (reports, failures) = log.parse_all();
    assert!(failures.is_empty(), "{name}: {failures:?}");
    assert_eq!(reports.len(), log.len(), "{name}");
    for ((time, report), line) in reports.iter().zip(log.as_text().lines()) {
        let encoded = format!("{} {}", time.as_micros(), report.encode());
        assert_eq!(encoded, line, "{name}");
    }
}

/// The tables `CsWorld::reserve_run` sizes are allocated once: each one's
/// capacity right after the reservation is its capacity at the horizon,
/// retries and chaos included. The reservation is the exact node-id
/// bound the schedule implies (the source, the servers, and
/// `1 + retries_left` per arrival), not a looser one that would pass the
/// first check for free.
#[test]
fn run_sized_tables_never_regrow() {
    for path in scenario_files() {
        let spec = load(&path);
        let compiled = spec.compile().unwrap();
        let sc = &compiled.scenario;
        let arrivals = sc.workload.generate(sc.seed, sc.start, sc.horizon);
        let net = Network::new(sc.policy, sc.latency, sc.seed);
        let mut world = CsWorld::new(sc.params, net, sc.servers, sc.server_bw, sc.seed);
        let ids = world.reserve_run(&arrivals);
        let retries: usize = arrivals.iter().map(|(_, u)| u.retries_left as usize).sum();
        assert_eq!(
            ids,
            1 + sc.servers + arrivals.len() + retries,
            "{}",
            spec.name
        );
        assert_eq!(world.sessions.capacity(), ids, "{}", spec.name);
        let reserved = world.reserved_bytes();

        let run = sc.run_injected_observed(compiled.injections, RunOptions::default());
        let world = &run.artifacts.world;
        assert!(world.net.total_nodes() <= ids, "{}", spec.name);
        assert_eq!(world.reserved_bytes(), reserved, "{}", spec.name);
    }
}

/// The byte ledger charges the mCache 4 B a slot: every live arena slot
/// (the source and the servers included) holds one id column allocated
/// at `mcache_size`, and a vacated slot holds none. A per-entry column
/// kept beside the ids would fail this.
#[test]
fn mcache_ledger_is_one_id_per_slot() {
    let compiled = load(&scenarios_dir().join("steady_state.json"))
        .compile()
        .unwrap();
    let sc = &compiled.scenario;
    let run = sc.run_injected_observed(compiled.injections, RunOptions::default());
    let world = &run.artifacts.world;
    assert!(world.peer_count() > 1 + sc.servers, "no user is live");
    let mcaches = world
        .heap_bytes()
        .into_iter()
        .find_map(|(owner, bytes)| (owner == "mcaches").then_some(bytes))
        .expect("the ledger has an mcaches owner");
    assert_eq!(
        mcaches,
        world.peer_count() * sc.params.mcache_size * std::mem::size_of::<cs_net::NodeId>()
    );
}

/// The byte ledger charges a partner table 5 B a slot: a 4-byte id and
/// a direction flag, in two arrays of one capacity. A buffer-map row, a
/// kept maximum or any other per-partner column would fail this.
#[test]
fn partner_table_ledger_is_ids_and_directions() {
    let compiled = load(&scenarios_dir().join("steady_state.json"))
        .compile()
        .unwrap();
    let sc = &compiled.scenario;
    let run = sc.run_injected_observed(compiled.injections, RunOptions::default());
    let world = &run.artifacts.world;
    let capacity: usize = world.peers().map(|p| p.partners().capacity()).sum();
    assert!(capacity > 0, "no partner table was allocated");
    let tables = world
        .heap_bytes()
        .into_iter()
        .find_map(|(owner, bytes)| (owner == "partner_tables").then_some(bytes))
        .expect("the ledger has a partner_tables owner");
    assert_eq!(tables, 5 * capacity);
}

/// The byte ledger charges the lookup spine 4 B a node id: one
/// `Option<NonZeroU32>` slot key per id issued, reserved at exactly the
/// node-id bound `CsWorld::reserve_run` also sizes the session table to.
/// A generation counter or a wider slot index beside the key would fail
/// this.
#[test]
fn lookup_spine_ledger_is_four_bytes_per_node_id() {
    let compiled = load(&scenarios_dir().join("steady_state.json"))
        .compile()
        .unwrap();
    let run = compiled
        .scenario
        .run_injected_observed(compiled.injections, RunOptions::default());
    let world = &run.artifacts.world;
    let owner = |table: Vec<(&'static str, usize)>, name: &str| {
        table
            .into_iter()
            .find_map(|(owner, bytes)| (owner == name).then_some(bytes))
            .unwrap_or_else(|| panic!("the ledger has a {name} owner"))
    };
    let id_bound = owner(world.reserved_bytes(), "session_table")
        / std::mem::size_of::<cs_proto::SessionRecord>();
    assert!(
        id_bound >= world.net.total_nodes(),
        "the run outgrew its id bound"
    );
    assert_eq!(owner(world.reserved_bytes(), "lookup_spine"), 4 * id_bound);
    assert_eq!(
        owner(world.heap_bytes(), "lookup_spine"),
        4 * world.net.total_nodes()
    );
}

/// Chaos injections visibly happen: spot-check observable effects of a
/// few scenarios so the matrix can't silently degenerate into nine
/// steady-state runs.
#[test]
fn injections_have_observable_effects() {
    // server_crash: the restart leaves server 0 alive at the horizon,
    // and its network join timestamp equals the restart time — which can
    // only happen if the crash took it down first.
    let compiled = load(&scenarios_dir().join("server_crash.json"))
        .compile()
        .unwrap();
    let run = compiled
        .scenario
        .run_injected_observed(compiled.injections, RunOptions::default());
    let world = &run.artifacts.world;
    assert!(
        world.net.is_alive(world.servers[0]),
        "server 0 was not restarted"
    );
    assert_eq!(
        world.net.node(world.servers[0]).joined_at,
        cs_sim::SimTime::from_secs(420),
        "server 0 was never crashed + revived"
    );

    // regional_outage: outage departures recorded, and some rejoined.
    let compiled = load(&scenarios_dir().join("regional_outage.json"))
        .compile()
        .unwrap();
    let run = compiled
        .scenario
        .run_injected_observed(compiled.injections, RunOptions::default());
    let world = &run.artifacts.world;
    assert!(world.stats.outage_departs > 0, "outage hit nobody");
    let rejoined = world
        .sessions
        .iter()
        .filter(|s| s.class.is_user() && s.retry_index > 0)
        .count();
    assert!(rejoined > 0, "partition healed but nobody rejoined");

    // free_rider: floor-clamped uploads exist among the sessions.
    let compiled = load(&scenarios_dir().join("free_rider.json"))
        .compile()
        .unwrap();
    let run = compiled
        .scenario
        .run_injected_observed(compiled.injections, RunOptions::default());
    let floored = run
        .artifacts
        .world
        .sessions
        .iter()
        .filter(|s| s.class.is_user() && s.upload == cs_net::Bandwidth::FLOOR)
        .count();
    assert!(floored > 0, "no free-riders materialized");

    // congestion_storm: the storm window sees a much higher arrival rate
    // than the preceding calm window of equal width.
    let compiled = load(&scenarios_dir().join("congestion_storm.json"))
        .compile()
        .unwrap();
    let arrivals = compiled.scenario.workload.generate(
        compiled.scenario.seed,
        compiled.scenario.start,
        compiled.scenario.horizon,
    );
    let in_window = |a: u64, b: u64| {
        arrivals
            .iter()
            .filter(|(t, _)| {
                *t >= cs_sim::SimTime::from_secs(a) && *t < cs_sim::SimTime::from_secs(b)
            })
            .count()
    };
    let calm = in_window(60, 180);
    let storm = in_window(180, 300);
    assert!(
        storm > calm * 2,
        "storm window {storm} not ≫ calm window {calm}"
    );
}

/// Determinism (ISSUE satellite): the same scenario file and seed give a
/// byte-identical trace hash on repeated runs; a different seed gives a
/// different hash.
#[test]
fn scenario_files_are_deterministic_in_seed() {
    let hash_with = |seed: Option<u64>| {
        let spec = load(&scenarios_dir().join("server_crash.json"));
        let mut compiled = spec.compile().unwrap();
        if let Some(s) = seed {
            compiled.scenario.seed = s;
        }
        let options = RunOptions {
            invariant_stride: None,
            trace_hash: true,
            record_spans: false,
            telemetry: None,
        };
        compiled
            .scenario
            .run_injected_observed(compiled.injections, options)
            .trace_hash
            .expect("hash requested")
    };
    let a = hash_with(None);
    let b = hash_with(None);
    assert_eq!(a, b, "same file + seed must replay byte-identically");
    let c = hash_with(Some(777));
    assert_ne!(a, c, "different seed should perturb the event sequence");
}
