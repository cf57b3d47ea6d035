//! `cs-benchmark` — the repo benchmark (see `README.md`).
//!
//! ```text
//! cs-benchmark --workload W --seed N --seconds S --trace 0|1 [--smoke]
//! cs-benchmark run [--seed N] [--reps K] [--workloads a,b] [--out FILE] [--smoke]
//! cs-benchmark compare A.json B.json
//! ```
//!
//! The first form is what `BENCHMARK.json` names: one workload, measured
//! for `S` seconds, one JSON line out. `run` measures every workload
//! round-robin and writes a result document for `compare`. Either way
//! each repetition is a fresh child process of this binary (`rep`, not
//! for direct use), one at a time: single-threaded, closed loop, one
//! client.

mod compare;
mod host;
mod report;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use host::Host;
use report::WorkloadResult;
use workloads::{Rep, Workload, SMOKE_DIVISOR, WORKLOADS};

/// The seed used when none is given: the broadcast day, 2006-09-27.
const DEFAULT_SEED: u64 = 20060927;
/// Timed repetitions a driver-mode run makes at least, so that every
/// reported value is a median.
const MIN_REPS: usize = 3;

/// `--flag value` pairs, bare `--flag`s and positional arguments.
struct Args {
    flags: Vec<(String, Option<String>)>,
    positional: Vec<String>,
}

impl Args {
    fn parse(args: &[String]) -> Args {
        let mut parsed = Args {
            flags: Vec::new(),
            positional: Vec::new(),
        };
        let mut it = args.iter().peekable();
        while let Some(arg) = it.next() {
            match arg.strip_prefix("--") {
                Some(flag) => {
                    let value = it.next_if(|v| !v.starts_with("--")).cloned();
                    parsed.flags.push((flag.to_string(), value));
                }
                None => parsed.positional.push(arg.clone()),
            }
        }
        parsed
    }

    fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| f == flag)
    }

    fn text(&self, flag: &str) -> Option<&str> {
        let (_, value) = self.flags.iter().find(|(f, _)| f == flag)?;
        value.as_deref()
    }

    /// A numeric flag; absent means `default`, unparsable is an error.
    fn number<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.flags.iter().find(|(f, _)| f == flag) {
            None => Ok(default),
            Some((_, value)) => value
                .as_deref()
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("--{flag} needs a number")),
        }
    }
}

fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

fn workload_named(name: &str) -> Result<(usize, &'static Workload), String> {
    workloads::find(name).ok_or_else(|| {
        format!(
            "unknown workload `{name}` (known: {})",
            WORKLOADS.map(|w| w.name).join(", ")
        )
    })
}

/// One repetition in a fresh child process of this binary. The parent
/// only waits, so at most one thread is ever busy.
fn spawn_rep(workload: &Workload, seed: u64, traced: bool, smoke: bool) -> Result<Rep, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("rep")
        .args(["--workload", workload.name])
        .args(["--seed", &seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    if !output.status.success() {
        return Err(format!("child exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    serde_json::from_str(last).map_err(|e| format!("child printed no result: {e}"))
}

/// The child side of [`spawn_rep`].
fn cmd_rep(args: &Args) -> Result<(), String> {
    let (index, workload) = workload_named(args.text("workload").unwrap_or_default())?;
    let seed = args.number("seed", DEFAULT_SEED)?;
    let traced = args.number("trace", 0u8)? != 0;
    let divisor = if args.has("smoke") { SMOKE_DIVISOR } else { 1 };
    let (rep, spans) = workloads::run_rep(index, workload, seed, divisor, traced)?;
    if traced {
        let dir = out_dir();
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join(format!("trace_{}.jsonl", workload.name));
        std::fs::write(&path, spans.to_jsonl(workload.name))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!(
        "{}",
        serde_json::to_string(&rep).map_err(|e| e.to_string())?
    );
    Ok(())
}

/// `--workload W --seed N --seconds S --trace T`: the `BENCHMARK.json` command.
fn cmd_driver(args: &Args) -> Result<ExitCode, String> {
    let (_, workload) = workload_named(args.text("workload").unwrap_or_default())?;
    let seed = args.number("seed", DEFAULT_SEED)?;
    let seconds = args.number("seconds", 15.0f64)?;
    let traced = args.number("trace", 0u8)? != 0;
    let smoke = args.has("smoke");
    host::warn_if_loaded();

    let mut result = WorkloadResult::new(workload);
    if traced {
        // Untraced references on both sides of the traced repetition, so
        // host drift cancels out of `trace.overhead_pct`.
        result.push_timed(spawn_rep(workload, seed, false, smoke));
        let traced_rep = spawn_rep(workload, seed, true, smoke);
        result.push_timed(spawn_rep(workload, seed, false, smoke));
        result.push_traced(traced_rep);
    } else {
        let started = Instant::now();
        while result.attempted < MIN_REPS || started.elapsed().as_secs_f64() < seconds {
            result.push_timed(spawn_rep(workload, seed, false, smoke));
        }
    }
    for failure in &result.failures {
        eprintln!("{}: repetition failed: {failure}", workload.name);
    }
    match report::driver_line(&result, traced) {
        Some(line) => {
            println!("{line}");
            Ok(ExitCode::SUCCESS)
        }
        None => Err(format!("{}: no repetition succeeded", workload.name)),
    }
}

/// `run`: every workload, interleaved, into one result document.
fn cmd_run(args: &Args) -> Result<ExitCode, String> {
    let seed = args.number("seed", DEFAULT_SEED)?;
    let reps = args.number("reps", 5usize)?.max(1);
    let smoke = args.has("smoke");
    let selected: Vec<&Workload> = match args.text("workloads") {
        None => WORKLOADS.iter().collect(),
        Some(list) => list
            .split(',')
            .map(|name| workload_named(name).map(|(_, w)| w))
            .collect::<Result<_, _>>()?,
    };
    let host = Host::detect();
    host::warn_if_loaded();

    let mut results: Vec<WorkloadResult> =
        selected.iter().map(|w| WorkloadResult::new(w)).collect();
    // Round-robin across workloads, so host drift hits all of them alike.
    // Round 0 is the discarded warm-up.
    for round in 0..=reps {
        for (workload, result) in selected.iter().zip(results.iter_mut()) {
            eprintln!("{}: repetition {round} of {reps}", workload.name);
            let rep = spawn_rep(workload, seed, false, smoke);
            if round > 0 {
                result.push_timed(rep);
            }
        }
    }
    for (workload, result) in selected.iter().zip(results.iter_mut()) {
        eprintln!("{}: traced repetition", workload.name);
        result.push_traced(spawn_rep(workload, seed, true, smoke));
    }

    print!("{}", report::render(&results));
    let doc = report::result_document(&results, &host, seed, reps, smoke);
    let path = match args.text("out") {
        Some(path) => PathBuf::from(path),
        None => out_dir().join(format!("result_{}.json", host.git_describe)),
    };
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&path, doc + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    println!("\nwrote {} (\"claim\": null)", path.display());
    let failed = results.iter().any(|r| r.failed > 0);
    Ok(if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn cmd_compare(args: &Args) -> Result<ExitCode, String> {
    let [_, a, b] = args.positional.as_slice() else {
        return Err("usage: cs-benchmark compare A.json B.json".to_string());
    };
    let load = |path: &String| -> Result<serde::Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (table, regressed) = compare::compare(&load(a)?, &load(b)?)?;
    print!("{table}");
    Ok(if regressed {
        println!("REGRESSION: B is worse than A beyond a bound");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = Args::parse(&raw);
    let outcome = match args.positional.first().map(String::as_str) {
        Some("rep") => cmd_rep(&args).map(|()| ExitCode::SUCCESS),
        Some("run") => cmd_run(&args),
        Some("compare") => cmd_compare(&args),
        None if args.has("workload") => cmd_driver(&args),
        _ => Err(
            "usage: cs-benchmark --workload W --seed N --seconds S --trace 0|1 | run | compare A B"
                .to_string(),
        ),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("cs-benchmark: {e}");
        ExitCode::FAILURE
    })
}
