//! Counts back later claims only if they repeat: two runs of a workload
//! at one seed must agree on every count, plan fingerprint, `out_rows`
//! and failure, and another seed must feed a different input sequence.

use std::path::PathBuf;

use reopt_perfbench::{run, Report, Settings, WORKLOADS};

fn run_at(workload: &str, seed: u64, tag: &str) -> Report {
    let scratch = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{workload}-{tag}"));
    std::fs::create_dir_all(&scratch).unwrap();
    let settings = Settings {
        seed,
        seconds: 0.0,
        trace: false,
        ops: Some(match workload {
            "lr-stream" => 16,
            "durable-lifecycle" => 6,
            _ => 60,
        }),
        scratch: scratch.clone(),
    };
    let report = run(workload, &settings).expect("known workload");
    std::fs::remove_dir_all(&scratch).unwrap();
    report
}

#[test]
fn same_seed_repeats_and_another_seed_differs() {
    for w in WORKLOADS {
        let a = run_at(w, 7, "a");
        let b = run_at(w, 7, "b");
        assert!(a.checks.attempted > 0, "{w}: nothing attempted");
        assert_eq!(a.checks.failed, 0, "{w}: {:?}", a.checks.first_failures);
        assert_eq!(
            a.fingerprint, b.fingerprint,
            "{w}: same seed, different run"
        );
        assert_eq!(a.checks.attempted, b.checks.attempted, "{w}");
        assert_eq!(a.checks.failed, b.checks.failed, "{w}");
        let c = run_at(w, 8, "c");
        assert_ne!(
            a.fingerprint.inputs, c.fingerprint.inputs,
            "{w}: seed ignored"
        );
    }
}

#[test]
fn traced_run_reports_every_per_layer_metric() {
    let scratch = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("traced");
    std::fs::create_dir_all(&scratch).unwrap();
    let settings = Settings {
        seed: 3,
        seconds: 0.0,
        trace: true,
        ops: Some(40),
        scratch: scratch.clone(),
    };
    let report = run("tpch-churn-decl", &settings).unwrap();
    let names: Vec<_> = report.metrics.iter().map(|m| m.name.clone()).collect();
    let expected: Vec<_> = reopt_perfbench::per_layer_metrics()
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    assert_eq!(names, expected);
    let value = |n: &str| report.metrics.iter().find(|m| m.name == n).unwrap().value;
    assert!(value("bridge.reopt_us") > 0.0);
    assert!(value("datalog.deltas_processed") > 0.0);
    std::fs::remove_dir_all(&scratch).unwrap();
}
