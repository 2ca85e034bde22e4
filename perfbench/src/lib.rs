//! End-to-end and per-layer benchmark of the incremental re-optimizer.
//!
//! One process runs one workload from a seed (see `README.md` for why
//! each workload exists and what is left out):
//!
//! - [`stream`] — `lr-stream`: the adaptive Linear Road stream driver;
//! - [`tpch`] — `tpch-churn-decl` / `tpch-churn-hand`: seeded cost churn
//!   on long-lived optimizers over TPC-H Q10, Q5 and Q8JoinS;
//! - [`durable`] — `durable-lifecycle`: register, churn, checkpoint,
//!   crash and recover sessions of the durable declarative optimizer.
//!
//! Every loop is closed: one caller issues an operation, blocks until
//! it returns, checks it against an untimed oracle, then issues the
//! next. The untraced run yields the end-to-end metrics; the traced run
//! records spans around each layer's public calls and yields the
//! per-layer metrics.

mod churn;
mod durable;
mod stats;
mod stream;
mod tpch;
mod trace;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use stats::{peak_rss_mb, Ops, Samples};

/// Workload names, as `--workload` takes them.
pub const WORKLOADS: [&str; 4] = [
    "lr-stream",
    "tpch-churn-decl",
    "tpch-churn-hand",
    "durable-lifecycle",
];

/// How one run is driven.
///
/// A run's length is set in seconds but fixed as a count of operations:
/// each workload converts `seconds` at a nominal rate (operations per
/// second of a run on a 2-vCPU x86-64 container, oracle included), so
/// every run of a workload does identical work whatever the speed of the
/// code. That keeps the tail percentile and the peak RSS comparable
/// between versions: the declarative engine's memory grows with the
/// batches it has applied, so a time-bounded loop would make a faster
/// version look heavier.
#[derive(Clone, Debug)]
pub struct Settings {
    pub seed: u64,
    /// Nominal run length.
    pub seconds: f64,
    pub trace: bool,
    /// Overrides the operation count and runs one set-up (tests).
    pub ops: Option<u64>,
    /// Fresh per-run directory for durable state; the caller removes it.
    pub scratch: PathBuf,
}

impl Settings {
    /// Operations this run performs at `nominal_per_s` operations per
    /// nominal second.
    pub(crate) fn op_count(&self, nominal_per_s: f64) -> u64 {
        self.ops
            .unwrap_or_else(|| (self.seconds * nominal_per_s).ceil().max(1.0) as u64)
    }
}

/// Repeats a workload's complete set-up `reps` times (once when the
/// run is bounded by operations), dropping each result before the next
/// set-up so every run allocates alike. Returns each rep's wall time and
/// the last rep's result.
pub(crate) fn repeat_setup<R>(
    s: &Settings,
    reps: usize,
    mut setup: impl FnMut() -> R,
) -> (Samples, R) {
    let reps = if s.ops.is_some() { 1 } else { reps.max(1) };
    let mut times = Samples::default();
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let (r, dt) = timed(&mut setup);
        times.push(dt);
        last = Some(r);
    }
    (times, last.expect("at least one set-up"))
}

/// Whether the traced run records operation `n`: a fixed pseudo-random
/// half. `trace.overhead_pct` compares the traced operations with the
/// untraced ones of the same stratum (comparable operations), taking
/// the median over strata of the ratio of their median latencies.
pub(crate) fn traced_op(n: u64) -> bool {
    sub_seed(n, 0x7ace) & 1 == 0
}

/// Derives an independent sub-seed.
pub(crate) fn sub_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Order-sensitive running hash.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Digest(pub(crate) u64);

impl Digest {
    pub(crate) fn mix(&mut self, v: u64) {
        self.0 = sub_seed(self.0 ^ v, 0x5eed);
    }
}

/// What a determinism check compares between two runs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Fingerprint {
    /// The input sequence (delta batches or stream slices).
    pub inputs: u64,
    /// Plans, costs, `out_rows` and per-operation counts, in order.
    pub outputs: u64,
}

/// Oracle verdicts, counted against operations attempted.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub first_failures: Vec<String>,
}

impl Checks {
    pub(crate) fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.first_failures.len() < 5 {
                self.first_failures.push(what());
            }
        }
    }
}

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    pub checks: Checks,
    /// End-to-end (untraced run) or per-layer (traced run) metrics.
    pub metrics: Vec<Metric>,
    /// Workload-specific figures for the human-readable summary.
    pub notes: Vec<(String, String)>,
    pub fingerprint: Fingerprint,
}

impl Report {
    pub(crate) fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub(crate) fn note(&mut self, name: impl Into<String>, text: impl Into<String>) {
        self.notes.push((name.into(), text.into()));
    }

    /// Notes a latency sample set as `<name>.p50` and `<name>.tail`.
    pub(crate) fn note_latency(
        &mut self,
        name: &str,
        samples: &mut Samples,
        scale: f64,
        unit: &str,
    ) {
        let (p, tail) = samples.tail();
        self.note(
            format!("{name}.p50"),
            format!("{:.3} {unit}", samples.median() * scale),
        );
        self.note(
            format!("{name}.tail"),
            format!("{:.3} {unit} (p{p}, n={})", tail * scale, samples.len()),
        );
    }

    /// Notes the workload's operations as `<name>.p50` and `<name>.tail`.
    pub(crate) fn note_ops(&mut self, name: &str, ops: &Ops, scale: f64, unit: &str) {
        let (p, tail) = ops.tail();
        self.note(
            format!("{name}.p50"),
            format!("{:.3} {unit}", ops.median() * scale),
        );
        self.note(
            format!("{name}.tail"),
            format!("{:.3} {unit} (p{p}, n={})", tail * scale, ops.len()),
        );
    }

    /// The end-to-end metrics every workload reports.
    pub(crate) fn end_to_end(&mut self, e: EndToEnd) {
        let EndToEnd {
            mut setup,
            ops,
            blocks,
            mut cold,
        } = e;
        let cold_ms =
            cold.iter_mut().map(|c| c.median()).sum::<f64>() / cold.len().max(1) as f64 * 1e3;
        self.metric("setup_s", setup.median(), "s");
        self.metric("peak_rss_mb", peak_rss_mb(), "MB");
        self.metric("op_ms.p50", ops.median() * 1e3, "ms");
        self.metric("op_ms.tail", ops.tail().1 * 1e3, "ms");
        self.metric("ops_per_s", ops.per_second(blocks), "1/s");
        self.metric("cold_ms.p50", cold_ms, "ms");
    }

    /// Puts the metrics in the declared order, filling layers the
    /// workload did not call with 0.
    fn complete_per_layer(&mut self) {
        let mut out = Vec::new();
        for (name, unit) in per_layer_metrics() {
            let value = self
                .metrics
                .iter()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.value);
            out.push(Metric { name, value, unit });
        }
        self.metrics = out;
    }

    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.checks.failed == 0,
            self.checks.attempted,
            self.checks.failed,
            metrics.join(", ")
        )
    }
}

/// Inputs of the shared end-to-end metrics.
pub(crate) struct EndToEnd {
    /// Wall time of each complete set-up.
    pub(crate) setup: Samples,
    /// Each closed-loop operation's latency, in order.
    pub(crate) ops: Ops,
    /// Blocks `ops_per_s` takes its median over.
    pub(crate) blocks: usize,
    /// Cold starts (construction plus first optimization), one sample
    /// set per query; `cold_ms.p50` is the mean of their medians.
    pub(crate) cold: Vec<Samples>,
}

/// Runs one workload; `None` for an unknown name.
pub fn run(workload: &str, s: &Settings) -> Option<Report> {
    let mut report = match workload {
        "lr-stream" => stream::run(s),
        "tpch-churn-decl" => tpch::run(s, tpch::Engine::Declarative),
        "tpch-churn-hand" => tpch::run(s, tpch::Engine::HandRolled),
        "durable-lifecycle" => durable::run(s),
        _ => return None,
    };
    if s.trace {
        report.complete_per_layer();
    }
    Some(report)
}

/// Times `f`.
pub(crate) fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed())
}

/// Every per-layer metric a traced run reports, with its unit. A layer
/// a workload does not call reports 0.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("aqp.plan_changes", "count"),
        ("aqp.migrated_rows", "count"),
        ("exec.execute_ms.p50", "ms"),
        ("exec.execute_share", "share"),
        ("exec.window_rows", "count"),
        ("cost.apply_us", "us"),
        ("cost.affected_alts", "count"),
        ("core.reopt_us", "us"),
        ("core.touched_alts", "count"),
        ("core.touched_groups", "count"),
        ("core.queue_pops", "count"),
        ("core.alt_update_ratio", "share"),
        ("core.work_ratio", "share"),
        ("core.pruned_alt_ratio", "share"),
        ("core.stale_frac", "share"),
        ("bridge.reopt_us", "us"),
        ("bridge.extract_us", "us"),
        ("bridge.pruned_alts", "count"),
        ("bridge.new_ms", "ms"),
        ("bridge.optimize_ms", "ms"),
        ("bridge.wal_append_us", "us"),
        ("bridge.checkpoint_ms", "ms"),
        ("bridge.recover_ms", "ms"),
        ("bridge.wal_bytes", "bytes"),
        ("bridge.checkpoint_bytes", "bytes"),
        ("bridge.replayed_batches", "count"),
        ("datalog.deltas_processed", "count"),
        ("datalog.batches", "count"),
        ("datalog.deltas_emitted", "count"),
        ("datalog.join_probes", "count"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect();
    v.extend(
        tpch::RULES
            .iter()
            .map(|r| (format!("datalog.rule.{r}.deltas"), "count")),
    );
    v.push(("baselines.volcano_us.p50".to_string(), "us"));
    v.extend(
        tpch::QUERIES
            .iter()
            .map(|q| (format!("baselines.volcano_us.{}", q.name()), "us")),
    );
    v.push(("trace.overhead_pct".to_string(), "%"));
    v
}
