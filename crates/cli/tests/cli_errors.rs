//! Hostile command lines fail loudly: the binary exits non-zero, names
//! the offending flag on stderr, and prints nothing a script could
//! mistake for a result (no `trace-hash` line on stdout).

use std::process::Command;

const SCENARIO: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../scenarios/bootstrap_flap.json"
);

/// Run `coolstream <args>`, assert it failed, and return its stderr.
fn stderr_of_failure(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_coolstream"))
        .args(args)
        .output()
        .expect("spawn coolstream");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    // Exit code 1, not merely "unsuccessful": a process killed by a signal
    // (stack overflow, abort) has no exit code at all.
    assert_eq!(
        out.status.code(),
        Some(1),
        "{args:?} must fail cleanly; stderr: {stderr}"
    );
    assert!(
        out.stdout.is_empty(),
        "{args:?} printed a result before failing: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    stderr
}

/// `coolstream run --scenario <bootstrap_flap> --trace-hash <extra…>`.
fn run_scenario_with(extra: &[&str]) -> String {
    let mut args = vec!["run", "--scenario", SCENARIO, "--trace-hash"];
    args.extend_from_slice(extra);
    stderr_of_failure(&args)
}

#[test]
fn removed_shards_flag_is_rejected_by_name() {
    let e = run_scenario_with(&["--shards", "4"]);
    assert!(e.contains("unknown flag --shards"), "{e}");
    let e = stderr_of_failure(&["config", "--shards=70000"]);
    assert!(e.contains("unknown flag --shards"), "{e}");
}

#[test]
fn flags_removed_with_the_run_directory_are_rejected_by_name() {
    for flag in ["--config", "--telemetry-dir"] {
        let e = run_scenario_with(&[flag, "x"]);
        assert!(e.contains(&format!("unknown flag {flag}")), "{e}");
    }
    let e = stderr_of_failure(&["analyze", "--no-spans"]);
    assert!(e.contains("unknown flag --no-spans"), "{e}");
}

/// `reproduce` has one flag, `--out`, and it needs a directory; both
/// errors come before any experiment runs.
#[test]
fn reproduce_takes_only_an_out_directory() {
    for flag in ["--seeds", "--ids"] {
        let e = stderr_of_failure(&["reproduce", flag, "3"]);
        assert!(e.contains(&format!("unknown flag {flag}")), "{e}");
    }
    let e = stderr_of_failure(&["reproduce", "--out"]);
    assert!(e.contains("--out needs a directory"), "{e}");
}

/// An `--out` without a value used to write the run directory, or
/// `sessions.csv`, into the working directory after all the work was
/// done. `run` and `analyze` now refuse it first, as `reproduce` does.
#[test]
fn empty_out_is_rejected_before_any_work() {
    let cwd = std::env::temp_dir().join("coolstream-cli-errors-empty-out-cwd");
    let _ = std::fs::remove_dir_all(&cwd);
    std::fs::create_dir_all(&cwd).expect("create working directory");
    // No session in this log: an `analyze` that got past `--out` would
    // fail with `no sessions in log` instead.
    let log = temp_file("coolstream-cli-errors-empty-out-log.txt", "");
    for args in [
        &["run", "--scenario", SCENARIO, "--out"][..],
        &["run", "--scenario", SCENARIO, "--out="],
        &["analyze", "--log", log.as_str(), "--out"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_coolstream"))
            .args(args)
            .current_dir(&cwd)
            .output()
            .expect("spawn coolstream");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.contains("--out needs a directory"),
            "{args:?}: {stderr}"
        );
        let written: Vec<_> = std::fs::read_dir(&cwd).expect("list").collect();
        assert!(written.is_empty(), "{args:?} wrote {written:?}");
    }
}

/// The `bench` subcommand is gone; the repo benchmark (`benchmark/`) times
/// the pipeline.
#[test]
fn removed_bench_subcommand_is_an_unknown_command() {
    let e = stderr_of_failure(&["bench", "--quick"]);
    assert!(e.contains(r#"unknown command "bench""#), "{e}");
}

#[test]
fn typoed_flag_is_rejected_by_name() {
    let e = run_scenario_with(&["--sede", "7"]);
    assert!(e.contains("unknown flag --sede"), "{e}");
}

#[test]
fn unparsable_value_is_rejected_not_defaulted() {
    let e = run_scenario_with(&["--seed", "abc"]);
    assert!(e.contains("--seed") && e.contains("abc"), "{e}");
}

#[test]
fn invariant_stride_without_the_checker_is_rejected() {
    let e = run_scenario_with(&["--invariant-stride", "64"]);
    assert!(
        e.contains("--invariant-stride") && e.contains("--check-invariants"),
        "{e}"
    );
}

/// The preset flags go through `ScenarioSpec::validate` like a scenario
/// file does. These used to panic in a library `assert!` (`--scale 0`),
/// simulate nobody and exit 0 (`--rate -1`), allocate without bound
/// (`--rate nan`), or run at 300 s and record 0 (`--telemetry-window 0`).
#[test]
fn out_of_range_flag_values_are_rejected_by_name() {
    for (args, field) in [
        (&["--preset", "event_day", "--scale", "0"][..], "`scale`"),
        (&["--rate", "-1"], "`rate`"),
        (&["--rate", "nan"], "`rate`"),
        (&["--rate", "inf"], "`rate`"),
        (&["--start-h", "-1"], "--start-h"),
        (&["--end-h", "nan"], "--end-h"),
        (
            &["--telemetry", "--telemetry-window", "0"],
            "--telemetry-window",
        ),
    ] {
        // `--rate nan` used to hang: a slow rejection is a failure too.
        let t0 = std::time::Instant::now();
        let e = stderr_of_failure(&[&["run"], args].concat());
        assert!(e.contains(field), "{args:?}: {e}");
        assert!(
            t0.elapsed().as_secs() < 1,
            "{args:?} took {:?}",
            t0.elapsed()
        );
    }
}

#[test]
fn scenario_file_naming_shards_gets_the_removal_message() {
    let text = std::fs::read_to_string(SCENARIO)
        .expect("scenario library present")
        .replacen('{', "{\"shards\": 4,", 1);
    let path = temp_file("coolstream-cli-errors-shards.json", &text);
    let e = stderr_of_failure(&["run", "--scenario", &path, "--trace-hash"]);
    assert!(e.contains("`shards` was removed"), "{e}");
}

/// Write `text` to a fresh temp file and return its path.
fn temp_file(name: &str, text: &str) -> String {
    let path = std::env::temp_dir().join(name);
    std::fs::write(&path, text).expect("write temp file");
    path.to_string_lossy().into_owned()
}

#[test]
fn horizon_beyond_the_clock_is_rejected_not_wrapped() {
    // 18 446 744 073 770 s × 10⁶ wraps a u64 to 60.4 s: the run used to
    // exit 0 with the summary of a one-minute run.
    let path = temp_file(
        "coolstream-cli-errors-huge-end.json",
        r#"{"version": 1, "name": "huge", "base": {"kind": "steady", "rate": 0.4},
            "seed": 409, "end_s": 18446744073770}"#,
    );
    let out = std::env::temp_dir().join("coolstream-cli-errors-huge-end-out");
    let _ = std::fs::remove_dir_all(&out);
    let e = stderr_of_failure(&["run", "--scenario", &path, "--out", &out.to_string_lossy()]);
    assert!(e.contains("`end_s`") && e.contains("18446744073770"), "{e}");
    assert!(!out.exists(), "a run directory was written");
}

/// `, "seed": 1, "seed": 2` appended to a scenario used to run with the
/// file's first seed and exit 0: a spec that says one thing and runs
/// another.
#[test]
fn scenario_file_repeating_a_key_is_rejected_by_name() {
    let text = std::fs::read_to_string(SCENARIO).expect("scenario library present");
    let (body, _) = text.trim_end().rsplit_once('}').expect("a JSON object");
    let path = temp_file(
        "coolstream-cli-errors-duplicate-seed.json",
        &format!("{body}, \"seed\": 1, \"seed\": 2}}"),
    );
    let out = std::env::temp_dir().join("coolstream-cli-errors-duplicate-seed-out");
    let _ = std::fs::remove_dir_all(&out);
    let e = stderr_of_failure(&["run", "--scenario", &path, "--out", &out.to_string_lossy()]);
    assert!(e.contains("duplicate key `seed` at byte"), "{e}");
    assert!(!out.exists(), "a run directory was written");
}

#[test]
fn deeply_nested_scenario_json_is_an_error_not_a_stack_overflow() {
    for (name, open) in [("seq", "["), ("map", "{\"a\":")] {
        let path = temp_file(
            &format!("coolstream-cli-errors-deep-{name}.json"),
            &open.repeat(200_000),
        );
        let e = stderr_of_failure(&["run", "--scenario", &path]);
        assert!(e.contains("nesting deeper than"), "{e}");
    }
}

#[test]
fn analyze_of_a_log_without_sessions_fails_before_any_figure() {
    for (name, text) in [("empty", ""), ("garbage", "10 not-a-report\n20 cls=nope\n")] {
        let path = temp_file(&format!("coolstream-cli-errors-{name}-log.txt"), text);
        let e = stderr_of_failure(&["analyze", "--log", &path]);
        assert!(e.contains(&format!("{path}: no sessions in log")), "{e}");
    }
    let path = temp_file("coolstream-cli-errors-bad-first-line.txt", "nospace\n");
    let e = stderr_of_failure(&["analyze", "--log", &path]);
    assert!(e.contains("line 1: no timestamp separator"), "{e}");
}

/// Two traffic reports of `u64::MAX` bytes used to wrap `up_bytes` to
/// `u64::MAX - 1` in a release build and panic a debug one; the total
/// saturates.
#[test]
fn analyze_saturates_log_derived_byte_totals() {
    let max = u64::MAX;
    let log = format!(
        "10000000 cls=act&ev=join&nid=1&priv=0&uid=1\n\
         300000000 cls=traf&down=0&nid=1&uid=1&up={max}\n\
         600000000 cls=traf&down=0&nid=1&uid=1&up={max}\n\
         700000000 cls=act&ev=leave&nid=1&priv=0&uid=1\n"
    );
    let path = temp_file("coolstream-cli-errors-traffic-overflow-log.txt", &log);
    let dir = std::env::temp_dir().join("coolstream-cli-errors-traffic-overflow-out");
    let _ = std::fs::remove_dir_all(&dir);
    let out = Command::new(env!("CARGO_BIN_EXE_coolstream"))
        .args(["analyze", "--log", &path, "--out", &dir.to_string_lossy()])
        .output()
        .expect("spawn coolstream");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    let csv = std::fs::read_to_string(dir.join("sessions.csv")).expect("sessions.csv written");
    let row = csv.lines().nth(1).expect("one session row");
    let up_bytes = row.split(',').nth(9).expect("an up_bytes column");
    assert_eq!(up_bytes, max.to_string(), "{csv}");
}

/// A QoS report missing more blocks than fell due used to reach the
/// session as a continuity of −2; the decoder rejects the line, and
/// `analyze` counts it as malformed.
#[test]
fn analyze_rejects_a_qos_report_missing_more_than_due() {
    let log = "10000000 cls=act&ev=join&nid=5&priv=0&uid=1\n\
               300000000 cls=qos&due=10&miss=30&nid=5&uid=1\n\
               600000000 cls=qos&due=10&miss=2&nid=5&uid=1\n\
               700000000 cls=act&ev=leave&nid=5&priv=0&uid=1\n";
    let path = temp_file("coolstream-cli-errors-qos-miss-over-due-log.txt", log);
    let dir = std::env::temp_dir().join("coolstream-cli-errors-qos-miss-over-due-out");
    let _ = std::fs::remove_dir_all(&dir);
    let out = Command::new(env!("CARGO_BIN_EXE_coolstream"))
        .args(["analyze", "--log", &path, "--out", &dir.to_string_lossy()])
        .output()
        .expect("spawn coolstream");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    assert!(stderr.contains("1 malformed log lines skipped"), "{stderr}");
    let csv = std::fs::read_to_string(dir.join("sessions.csv")).expect("sessions.csv written");
    for row in csv.lines().skip(1) {
        let continuity = row.split(',').nth(8).expect("a continuity column");
        let c: f64 = continuity.parse().expect("one QoS report is left");
        assert!((0.0..=1.0).contains(&c), "{csv}");
    }
}
