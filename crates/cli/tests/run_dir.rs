//! The run directory is the contract: `coolstream run --out DIR` writes
//! every artifact into `DIR` and nowhere else, `manifest.json` indexes
//! them, each run-level fact is recorded once, and the manifest's
//! embedded spec reproduces the run.

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

/// The per-kind `engine_events_total` counters of the last line of
/// `metrics.jsonl`, summed.
fn events_in_last_window(dir: &Path) -> u64 {
    let metrics = read(dir.join("metrics.jsonl"));
    let last: Value = serde_json::from_str(metrics.lines().last().expect("a window")).unwrap();
    field(&last, "counters")
        .as_map()
        .expect("counters")
        .iter()
        .filter(|(series, _)| series.starts_with("engine_events_total"))
        .map(|(_, v)| int(field(v, "total")))
        .sum()
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
    assert_eq!(field(&manifest, "schema").as_str(), Some("cs-run/1"));
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
