//! The run directory is the contract: `coolstream run --out DIR` writes
//! every artifact into `DIR` and nowhere else, `manifest.json` indexes
//! them, each run-level fact is recorded once, and the manifest's
//! embedded spec reproduces the run.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::Command;

use serde::Value;

const SCENARIO: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../scenarios/server_crash.json"
);

/// A fresh, empty directory under the system temp dir.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("coolstream-run-dir-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// `coolstream run <args> --out <out>` from `cwd`; returns (stdout, stderr).
fn run(cwd: &Path, out: &Path, args: &[&str]) -> (String, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_coolstream"))
        .current_dir(cwd)
        .arg("run")
        .args(args)
        .arg("--out")
        .arg(out)
        .output()
        .expect("spawn coolstream");
    let text = |bytes: &[u8]| String::from_utf8_lossy(bytes).into_owned();
    let (stdout, stderr) = (text(&output.stdout), text(&output.stderr));
    assert!(output.status.success(), "{args:?} failed: {stderr}");
    (stdout, stderr)
}

fn listing(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("read dir")
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    names
}

fn read(path: PathBuf) -> String {
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn manifest_of(dir: &Path) -> Value {
    serde_json::from_str(&read(dir.join("manifest.json"))).expect("manifest parses")
}

fn field<'v>(v: &'v Value, key: &str) -> &'v Value {
    let entry = v.as_map().and_then(|m| m.iter().find(|(k, _)| k == key));
    &entry.unwrap_or_else(|| panic!("no `{key}` in {v:?}")).1
}

fn int(v: &Value) -> u64 {
    match v {
        Value::Int(i) => u64::try_from(*i).expect("non-negative"),
        other => panic!("expected an integer, got {other:?}"),
    }
}

/// An integer, or `None` for `null`.
fn opt_int(v: &Value) -> Option<u64> {
    (v != &Value::Null).then(|| int(v))
}

/// The per-kind `engine_events_total{kind=…}` totals of the last line of
/// `metrics.jsonl`, by kind.
fn totals_in_last_window(dir: &Path) -> BTreeMap<String, u64> {
    let metrics = read(dir.join("metrics.jsonl"));
    let last: Value = serde_json::from_str(metrics.lines().last().expect("a window")).unwrap();
    field(&last, "counters")
        .as_map()
        .expect("counters")
        .iter()
        .filter_map(|(series, v)| {
            let kind = series.strip_prefix("engine_events_total{kind=")?;
            Some((
                kind.trim_end_matches('}').to_string(),
                int(field(v, "total")),
            ))
        })
        .collect()
}

fn events_in_last_window(dir: &Path) -> u64 {
    totals_in_last_window(dir).values().sum()
}

#[test]
fn run_directory_is_indexed_complete_and_says_each_fact_once() {
    let cwd = scratch("cwd");
    let out = cwd.join("nested/run");
    let (stdout, _) = run(
        &cwd,
        &out,
        &[
            "--scenario",
            SCENARIO,
            "--seed",
            "404",
            "--telemetry",
            "--spans",
            "--trace-hash",
        ],
    );

    // One directory out: nothing beside it, exactly the indexed files in it.
    assert_eq!(listing(&cwd), ["nested"]);
    assert_eq!(listing(&cwd.join("nested")), ["run"]);
    let manifest = manifest_of(&out);
    assert_eq!(field(&manifest, "schema").as_str(), Some("cs-run/2"));
    let mut indexed: Vec<String> = field(&manifest, "files")
        .as_seq()
        .expect("files table")
        .iter()
        .map(|name| name.as_str().expect("file name").to_string())
        .collect();
    assert_eq!(indexed.len(), 6, "{indexed:?}");
    indexed.push("manifest.json".into());
    indexed.sort();
    assert_eq!(listing(&out), indexed, "seven files, all indexed");

    // Each fact once: what the manifest records appears in no other file.
    let hash = field(&manifest, "trace_hash").as_str().expect("hash");
    assert_eq!(stdout.trim(), format!("trace-hash {hash}"));
    let events = int(field(&manifest, "events"));
    let spec = field(&manifest, "spec");
    assert_eq!(
        int(field(spec, "seed")),
        404,
        "--seed is folded into the spec"
    );
    assert!(int(field(field(&manifest, "host"), "cores")) >= 1);
    let events_field = format!("\"events\":{events}");
    for name in indexed.iter().filter(|n| *n != "manifest.json") {
        let text = read(out.join(name));
        for needle in [hash, &events_field, "\"seed\"", "\"cores\"", "\"arch\""] {
            assert!(!text.contains(needle), "{name} repeats {needle}");
        }
    }

    // The event total three ways: the manifest, the per-kind counters of
    // the last metrics window, and one span per dispatch.
    assert_eq!(events_in_last_window(&out), events);
    let spans = read(out.join("spans.jsonl")).lines().count() as u64;
    assert_eq!(spans - 1, events, "header + one span each");

    // The embedded spec alone — no --seed — reproduces the run; without
    // the two flags the directory holds four files.
    let spec_path = cwd.join("nested/spec.json");
    std::fs::write(&spec_path, serde_json::to_string(spec).unwrap()).expect("write spec");
    let again = cwd.join("nested/again");
    let spec_arg = spec_path.to_string_lossy().into_owned();
    let (stdout, _) = run(&cwd, &again, &["--scenario", &spec_arg, "--trace-hash"]);
    assert_eq!(stdout.trim(), format!("trace-hash {hash}"));
    assert_eq!(
        listing(&again),
        ["figures.txt", "log.txt", "manifest.json", "sessions.csv"]
    );
    assert_eq!(read(again.join("log.txt")), read(out.join("log.txt")));
}

/// The files of one run agree with each other: the run totals, the
/// per-kind profile against the per-kind counts, the heap ledger against
/// the resident set and `log.txt`, and the span header.
#[test]
fn run_directory_files_agree_with_each_other() {
    let cwd = scratch("agree");
    let out = cwd.join("run");
    let flags = [
        "--preset",
        "steady",
        "--rate",
        "0.4",
        "--minutes",
        "6",
        "--seed",
        "301",
        "--telemetry",
        "--spans",
    ];
    run(&cwd, &out, &flags);
    let manifest = manifest_of(&out);
    let events = int(field(&manifest, "events"));
    assert!(events > 0);
    // The golden steady-state hash (`tests/golden/trace_hashes.txt`).
    assert_eq!(
        field(&manifest, "trace_hash").as_str(),
        Some("fd00912eb62e19b3")
    );
    let host_arch = field(field(&manifest, "host"), "arch").as_str();
    assert!(host_arch.is_some_and(|arch| !arch.is_empty()));
    let share = |key| match field(&manifest, key) {
        Value::Float(x) => *x,
        other => panic!("`{key}`: expected a number, got {other:?}"),
    };
    let continuity = share("mean_continuity");
    assert!(0.0 < continuity && continuity <= 1.0, "{continuity}");
    assert!(share("ready_median_s") > 0.0);

    // profile.json scales each kind's timed nanoseconds by the exact count
    // in metrics.jsonl's last window; each manager sums its kinds.
    let totals = totals_in_last_window(&out);
    let profile: Value = serde_json::from_str(&read(out.join("profile.json"))).unwrap();
    let kinds = field(&profile, "kinds").as_map().expect("kinds");
    assert_eq!(kinds.len(), totals.len(), "one row per dispatched kind");
    let mut managers: BTreeMap<&str, Option<u64>> = BTreeMap::new();
    let mut timed_sum = 0;
    for (kind, row) in kinds {
        let total = totals[kind];
        let (timed, timed_ns) = (int(field(row, "timed")), int(field(row, "timed_ns")));
        timed_sum += timed;
        let busy = (timed > 0).then(|| timed_ns * total / timed);
        let want = busy.map_or(Value::Null, |b| Value::Int(b.into()));
        assert_eq!(field(row, "busy_ns"), &want, "{kind}");
        let manager = field(row, "manager").as_str().expect("manager");
        let sum = managers.entry(manager).or_default();
        if let Some(b) = busy {
            *sum = Some(sum.unwrap_or(0) + b);
        }
    }
    assert_eq!(timed_sum, events.div_ceil(128));
    let profiled: BTreeMap<&str, Option<u64>> = field(&profile, "managers")
        .as_map()
        .expect("managers")
        .iter()
        .map(|(m, v)| (m.as_str(), opt_int(field(v, "busy_ns"))))
        .collect();
    assert_eq!(profiled, managers);

    // The byte ledger: every owner is counted, the owners fit in the
    // resident set, and the remainder is what none of them explains.
    let heap = field(&manifest, "heap");
    let owners = field(heap, "owners").as_map().expect("owners");
    let names: BTreeSet<&str> = owners.iter().map(|(k, _)| k.as_str()).collect();
    let want = BTreeSet::from([
        "arena_columns",
        "lookup_spine",
        "mcaches",
        "partner_tables",
        "child_lists",
        "holes",
        "session_table",
        "cs_net_registry",
        "bootstrap_roster",
        "log_text",
        "snapshots",
        "queue_pool",
    ]);
    assert_eq!(names, want);
    let reserved = field(heap, "reserved").as_map().expect("reserved");
    assert!(
        reserved.iter().all(|(k, _)| want.contains(k.as_str())),
        "{reserved:?}"
    );
    // `run --out` writes the log text verbatim: `log_text` is its size.
    let log_size = std::fs::metadata(out.join("log.txt"))
        .expect("log.txt")
        .len();
    assert_eq!(int(field(field(heap, "owners"), "log_text")), log_size);
    let held: u64 = owners.iter().map(|(_, v)| int(v)).sum();
    let rss = int(field(heap, "vm_rss_bytes"));
    assert!(0 < held && held <= rss, "{held} B held, {rss} B resident");
    assert_eq!(
        field(heap, "unexplained_bytes"),
        &Value::Int((rss - held).into())
    );

    // One span per dispatch, under a header that says how many. Every
    // line is JSON, and each kind has as many spans as its counter says.
    let spans = read(out.join("spans.jsonl"));
    let mut lines = spans.lines();
    let header: Value = serde_json::from_str(lines.next().expect("header")).unwrap();
    assert_eq!(field(&header, "schema").as_str(), Some("cs-spans/1"));
    assert_eq!(int(field(&header, "spans")), events);
    let mut per_kind: BTreeMap<String, u64> = BTreeMap::new();
    for line in lines {
        let span: Value = serde_json::from_str(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        let kind = field(&span, "kind").as_str().expect("kind");
        *per_kind.entry(kind.to_string()).or_default() += 1;
    }
    assert_eq!(per_kind, totals);
    assert_eq!(per_kind.values().sum::<u64>(), events);
}

/// Every library scenario ends on the default 300 s window grid, where
/// the events dispatched at exactly the horizon after the one that closed
/// the last full window used to be in no line at all.
#[test]
fn the_last_metrics_window_counts_every_event_of_every_scenario() {
    let cwd = scratch("tail");
    let scenarios = Path::new(SCENARIO).parent().expect("scenarios/");
    let mut seen = 0;
    for entry in std::fs::read_dir(scenarios).expect("scenarios/ directory") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_none_or(|x| x != "json") {
            continue;
        }
        let out = cwd.join(path.file_stem().expect("stem"));
        let file = path.to_string_lossy().into_owned();
        run(&cwd, &out, &["--scenario", &file, "--telemetry"]);
        let events = int(field(&manifest_of(&out), "events"));
        assert_eq!(events_in_last_window(&out), events, "{file}");
        seen += 1;
    }
    assert!(seen >= 9, "scenario library shrank: {seen} files");
}

#[test]
fn a_run_too_short_to_measure_says_so() {
    let cwd = scratch("short");
    let out = cwd.join("run");
    // 0.001 h rounds to four seconds: nobody is ready, no QoS report is due.
    let flags = ["--preset", "steady", "--rate", "0.4", "--end-h", "0.001"];
    let (_, stderr) = run(&cwd, &out, &flags);
    assert!(
        stderr.contains("continuity n/a") && stderr.contains("ready median n/a"),
        "{stderr}"
    );
    let manifest = manifest_of(&out);
    assert_eq!(field(&manifest, "mean_continuity"), &Value::Null);
    assert_eq!(field(&manifest, "ready_median_s"), &Value::Null);
}

/// The lines of `figures.txt`'s section headed `title`, up to the blank
/// line that ends it.
fn section(figures: &str, title: &str) -> Vec<String> {
    let mut lines = figures.lines().skip_while(|l| !l.starts_with(title));
    assert!(lines.next().is_some(), "no {title} in figures.txt");
    lines
        .take_while(|l| !l.is_empty())
        .map(str::to_string)
        .collect()
}

/// FIG5 and FIG8 bin the run's window, not `[0, horizon)`: a 15-minute
/// run a day in has a population curve, and its continuity falls into as
/// many bins per class as the same run at the start of the day.
#[test]
fn figures_bin_the_run_window_not_the_day() {
    let cwd = scratch("shifted");
    let figures = |start_h: &str, end_h: &str| {
        let out = cwd.join(start_h);
        let flags = ["--preset", "steady", "--rate", "0.4", "--seed", "7"];
        let window = ["--start-h", start_h, "--end-h", end_h];
        run(&cwd, &out, &[&flags[..], &window[..]].concat());
        read(out.join("figures.txt"))
    };
    let (at_zero, a_day_on) = (figures("0", "0.25"), figures("24", "24.25"));

    // A row is `  <time>  <count>  <bar>`; the counts are the window's.
    let counts = |figures: &str| -> Vec<u64> {
        section(figures, "FIG5")
            .iter()
            .map(|row| {
                row.split_whitespace()
                    .nth(1)
                    .expect("count")
                    .parse()
                    .unwrap()
            })
            .collect()
    };
    let shifted = counts(&a_day_on);
    assert!(shifted.iter().any(|&c| c > 0), "empty FIG5: {a_day_on}");
    assert_eq!(shifted.len(), counts(&at_zero).len());

    // A row is `  <class>  <mean>%  (<n> bins)`.
    let bins = |figures: &str| -> Vec<(String, String)> {
        section(figures, "FIG8")
            .iter()
            .map(|row| {
                let words: Vec<&str> = row.split_whitespace().collect();
                (words[0].to_string(), words[2].to_string())
            })
            .collect()
    };
    assert!(!bins(&at_zero).is_empty());
    assert_eq!(bins(&a_day_on), bins(&at_zero));
}

/// `departs` counts every way a session ends. The outage count used to be
/// missing, so a regional outage's victims were in no count at all.
#[test]
fn manifest_counts_outage_departures() {
    let cwd = scratch("outage");
    let out = cwd.join("run");
    let scenario = Path::new(SCENARIO).with_file_name("regional_outage.json");
    run(&cwd, &out, &["--scenario", &scenario.to_string_lossy()]);
    let manifest = manifest_of(&out);
    let departs = field(&manifest, "departs");
    let count = |reason| int(field(departs, reason));
    assert!(count("outage") > 0, "{departs:?}");
    assert!(count("finished") > 0, "{departs:?}");
    assert_eq!(departs.as_map().map(<[_]>::len), Some(4), "{departs:?}");
}

/// The six-minute steady run of `run_directory_files_agree_with_each_other`
/// without its instruments, plus `extra`.
fn steady_run(cwd: &Path, name: &str, extra: &[&str]) -> (PathBuf, String) {
    let out = cwd.join(name);
    let flags = [
        "--preset",
        "steady",
        "--rate",
        "0.4",
        "--minutes",
        "6",
        "--seed",
        "301",
    ];
    let (_, stderr) = run(cwd, &out, &[&flags[..], extra].concat());
    (out, stderr)
}

/// `--check-invariants` alone checks after every event, and
/// `--check-invariants N` after every N-th; both check the horizon state
/// once more.
#[test]
fn check_invariants_takes_an_optional_stride() {
    let cwd = scratch("stride");
    for (extra, stride) in [
        (&["--check-invariants"][..], 1),
        (&["--check-invariants", "16"], 16),
    ] {
        let (out, stderr) = steady_run(&cwd, &stride.to_string(), extra);
        let events = int(field(&manifest_of(&out), "events"));
        let want = format!(
            "invariants: {} checks over {events} events, 0 violations",
            events / stride + 1
        );
        assert!(
            stderr.contains(&want),
            "{extra:?}: want {want:?} in {stderr}"
        );
    }
}

/// `--telemetry` alone writes one `metrics.jsonl` line per 300 s of sim
/// time, and `--telemetry SECS` one per SECS.
#[test]
fn telemetry_takes_an_optional_window() {
    let cwd = scratch("window");
    for (extra, secs) in [(&["--telemetry"][..], 300), (&["--telemetry", "120"], 120)] {
        let (out, _) = steady_run(&cwd, &secs.to_string(), extra);
        let metrics = read(out.join("metrics.jsonl"));
        let lines: Vec<Value> = metrics
            .lines()
            .map(|l| serde_json::from_str(l).expect("a JSON line"))
            .collect();
        // The full windows, then the rest up to the 360 s horizon (a
        // zero-length window when the horizon lies on the grid).
        assert_eq!(lines.len() as u64, 360 / secs + 1, "{extra:?}");
        let first = &lines[0];
        let width = int(field(first, "end_us")) - int(field(first, "start_us"));
        assert_eq!(width, secs * 1_000_000, "{extra:?}");
    }
}
