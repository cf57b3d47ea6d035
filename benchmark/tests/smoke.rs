//! Drives the built binary end to end in `--smoke` mode (every workload
//! at ~1/50 size): the `BENCHMARK.json` command form, `run` and `compare`.

use std::process::Command;
use std::time::Instant;

use serde::Value;

const BIN: &str = env!("CARGO_BIN_EXE_cs-benchmark");
const WORKLOADS: [&str; 5] = [
    "steady_10k",
    "flash_crowd",
    "event_evening",
    "timer_wheel_100k",
    "analyze_replay",
];

fn field<'v>(v: &'v Value, key: &str) -> &'v Value {
    v.as_map()
        .and_then(|m| m.iter().find(|(k, _)| k == key))
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("no `{key}` in {v:?}"))
}

fn run(args: &[&str]) -> (bool, String) {
    let out = Command::new(BIN).args(args).output().expect("spawn");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn driver_form_prints_one_result_line_per_mode() {
    for (trace, expected) in [("0", 4), ("1", 86)] {
        let (ok, stdout) = run(&[
            "--workload",
            "flash_crowd",
            "--seed",
            "5",
            "--seconds",
            "0",
            "--trace",
            trace,
            "--smoke",
        ]);
        assert!(ok, "{stdout}");
        let line: Value = serde_json::from_str(stdout.lines().last().unwrap()).unwrap();
        assert_eq!(field(&line, "correct"), &Value::Bool(true), "{stdout}");
        assert_eq!(field(&line, "failed"), &Value::Int(0));
        let metrics = field(&line, "metrics").as_map().unwrap();
        assert_eq!(metrics.len(), expected);
        for (name, m) in metrics {
            assert!(matches!(field(m, "value"), Value::Float(_)), "{name}");
            assert!(field(m, "unit").as_str().is_some(), "{name}");
        }
    }
}

#[test]
fn smoke_run_covers_every_workload_and_agrees_with_itself() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (a, b) = (dir.join("a.json"), dir.join("b.json"));
    let started = Instant::now();
    for out in [&a, &b] {
        let (ok, stdout) = run(&[
            "run",
            "--smoke",
            "--reps",
            "1",
            "--out",
            out.to_str().unwrap(),
        ]);
        assert!(ok, "{stdout}");
        for name in WORKLOADS {
            assert!(stdout.contains(&format!("== {name} (0 of 1")), "{stdout}");
        }
        for metric in [
            "setup_s",
            "pipeline_s",
            "work_per_s",
            "peak_rss_mb",
            "failed_share",
        ] {
            assert_eq!(
                stdout.matches(&format!("\n  {metric} ")).count(),
                5,
                "{metric}"
            );
        }
        assert!(stdout.contains("trace.log_matches"));
    }
    let elapsed = started.elapsed().as_secs_f64() / 2.0;

    let text = std::fs::read_to_string(&a).unwrap();
    assert!(text.trim_end().ends_with("\"claim\": null\n}"), "{text}");
    let doc: Value = serde_json::from_str(&text).unwrap();
    for name in WORKLOADS {
        let w = field(field(&doc, "workloads"), name);
        assert_eq!(field(w, "failed_share"), &Value::Float(0.0), "{name}");
        assert_eq!(
            field(field(w, "per_layer"), "trace.log_matches"),
            &Value::Int(1),
            "{name}"
        );
    }

    // Same commit, same seed: every exact value identical. Timings of
    // runs this small are noise, so the verdicts are not asserted.
    let (_, table) = run(&["compare", a.to_str().unwrap(), b.to_str().unwrap()]);
    assert_eq!(table.matches("identical").count(), 5, "{table}");
    assert!(!table.contains("DIFFERS"), "{table}");

    std::fs::remove_dir_all(&dir).unwrap();
    // A debug build is ~10x slower than the release build the < 10 s
    // target is stated for.
    let budget = if cfg!(debug_assertions) { 100.0 } else { 10.0 };
    assert!(elapsed < budget, "one smoke run took {elapsed:.1} s");
}
