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
    assert!(
        !out.status.success(),
        "{args:?} must fail; stderr: {stderr}"
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
    let e = stderr_of_failure(&["bench", "--quick", "--shards=70000"]);
    assert!(e.contains("unknown flag --shards"), "{e}");
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

#[test]
fn scenario_file_naming_shards_gets_the_removal_message() {
    let text = std::fs::read_to_string(SCENARIO)
        .expect("scenario library present")
        .replacen('{', "{\"shards\": 4,", 1);
    let path = std::env::temp_dir().join("coolstream-cli-errors-shards.json");
    std::fs::write(&path, text).expect("write temp scenario");
    let e = stderr_of_failure(&["run", "--scenario", &path.to_string_lossy(), "--trace-hash"]);
    assert!(e.contains("`shards` was removed"), "{e}");
}
