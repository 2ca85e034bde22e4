//! `reopt-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable summary, then, as the last line of standard
//! output, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics` (end-to-end metrics with `--trace 0`, per-layer metrics
//! with `--trace 1`). Exits non-zero on bad arguments.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{SystemTime, UNIX_EPOCH};

use reopt_perfbench::{run, Settings, WORKLOADS};

/// A fresh per-run directory under the working directory, removed when
/// dropped (also while unwinding from a panic).
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: reopt-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace are all required");
    };
    if !WORKLOADS.contains(&workload.as_str()) {
        return usage(&format!("unknown workload {workload}"));
    }
    // The declarative optimizer's constructor reads its audit policy
    // from the environment; the benchmark measures it as users get it,
    // with audits off, whatever the caller's environment says.
    std::env::remove_var("REOPT_AUDIT");

    let nanos = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.subsec_nanos());
    let scratch =
        Scratch(PathBuf::from(".bench_tmp").join(format!("run-{}-{nanos}", std::process::id())));
    if let Err(e) = std::fs::create_dir_all(&scratch.0) {
        eprintln!("error: cannot create {}: {e}", scratch.0.display());
        return ExitCode::from(1);
    }
    let settings = Settings {
        seed,
        seconds,
        trace,
        ops: None,
        scratch: scratch.0.clone(),
    };
    let report = run(&workload, &settings).expect("workload name was validated");

    println!("workload {workload}, seed {seed}, trace {}", trace as u8);
    for (name, text) in &report.notes {
        println!("  {name} = {text}");
    }
    for m in &report.metrics {
        println!("  {} = {} {}", m.name, m.value, m.unit);
    }
    println!(
        "  attempted = {}, failed = {}",
        report.checks.attempted, report.checks.failed
    );
    for f in &report.checks.first_failures {
        eprintln!("FAILED: {f}");
    }
    println!("{}", report.json());
    ExitCode::SUCCESS
}
