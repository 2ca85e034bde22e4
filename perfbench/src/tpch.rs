//! `tpch-churn-decl` and `tpch-churn-hand`: seeded cost churn on
//! long-lived optimizers (paper §5.2–5.3, Figs 5/6/8).
//!
//! One optimizer per query — Q10, Q5 and Q8JoinS, 82 to 515 plan
//! alternatives — over the `TpchGen::default()` catalog, fed one
//! identical seeded sequence of [`ParamDelta`] batches (see
//! [`crate::churn`]); the batches rotate over the queries. The two
//! workloads differ only in the engine, each as users get it:
//!
//! - declarative: `DataflowOptimizer::new` (pruned), audits off;
//! - hand-rolled: `IncrementalOptimizer` at `AqpConfig::default().pruning`,
//!   so a later change of that default is measured, not bypassed.
//!
//! The optimizer layers do all the work; the executor and durability do
//! none. Oracle: `optimize_volcano` from scratch on a benchmark-held
//! `CostContext` that received the same batches. A declarative batch
//! fails unless its cost equals Volcano's, its plan costs what it
//! claims, and its recovery report is clean. The hand-rolled default
//! pruning does not promise optimality after cost decreases (its
//! `strict_revalidation` option does), so a hand-rolled batch fails only
//! if its plan does not cost what it claims or beats the optimum; a
//! costlier-than-optimal ("stale") plan is counted and reported as the
//! stale share.

use reopt_aqp::AqpConfig;
use reopt_baselines::optimize_volcano;
use reopt_bridge::{AuditMode, DataflowOptimizer, DataflowOutcome};
use reopt_catalog::Catalog;
use reopt_common::Cost;
use reopt_core::{IncrementalOptimizer, Memo, Outcome};
use reopt_cost::{AffectedSet, CostContext, ParamDelta};
use reopt_expr::{JoinGraph, PlanNode, QuerySpec};
use reopt_workloads::{QueryId, TpchGen};

use crate::churn::{self, ChurnGen};
use crate::stats::{Mean, Ops, Overhead, Samples};
use crate::trace::Tracer;
use crate::{repeat_setup, sub_seed, timed, traced_op, Digest, EndToEnd, Report, Settings};

/// The churned queries, in rotation order.
pub const QUERIES: [QueryId; 3] = [QueryId::Q10, QueryId::Q5, QueryId::Q8JoinS];

/// Per-query latency limit of `good_frac`: the median of Volcano from
/// scratch on this workload's batches (µs), measured on a 2-vCPU x86-64
/// container with the traced run's `baselines.volcano_us.<query>`. A
/// re-optimization is good if it returns the optimal cost within it.
pub const VOLCANO_LIMIT_US: [f64; 3] = [21.0, 101.0, 63.0];

/// Batches per nominal second of a run.
const DECL_BATCHES_PER_S: f64 = 900.0;
const HAND_BATCHES_PER_S: f64 = 8000.0;
/// Set-ups per run (each builds and optimizes all three queries).
const SETUP_REPS: usize = 9;
/// Cold starts per query per run (`cold_ms` samples), spread evenly
/// over the batches.
const COLD_REPS: usize = 20;
/// Blocks `ops_per_s` takes its median over.
const BLOCKS: usize = 20;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    Declarative,
    HandRolled,
}

impl Engine {
    fn suffix(self) -> &'static str {
        match self {
            Engine::Declarative => "decl",
            Engine::HandRolled => "hand",
        }
    }
}

/// One engine instance, as users get it.
pub enum Optimizer {
    Declarative(Box<DataflowOptimizer>),
    HandRolled(Box<IncrementalOptimizer>),
}

/// What one engine call returned.
pub enum Answer {
    Declarative(DataflowOutcome),
    HandRolled(Outcome),
}

impl Answer {
    pub fn cost(&self) -> Cost {
        match self {
            Answer::Declarative(o) => o.cost,
            Answer::HandRolled(o) => o.cost,
        }
    }

    pub fn plan(&self) -> &PlanNode {
        match self {
            Answer::Declarative(o) => &o.plan,
            Answer::HandRolled(o) => &o.plan,
        }
    }

    /// Whether the epoch committed without recovery (always, for the
    /// hand-rolled engine, which has no recovery ladder).
    pub fn clean(&self) -> bool {
        match self {
            Answer::Declarative(o) => o.recovery.is_clean(),
            Answer::HandRolled(_) => true,
        }
    }
}

impl Optimizer {
    /// Constructs and runs the initial optimization.
    pub fn cold(engine: Engine, catalog: &Catalog, q: &QuerySpec) -> (Optimizer, Answer) {
        match engine {
            Engine::Declarative => {
                let mut d = DataflowOptimizer::new(catalog, q.clone());
                d.set_audit_mode(AuditMode::Off);
                let a = Answer::Declarative(d.optimize());
                (Optimizer::Declarative(Box::new(d)), a)
            }
            Engine::HandRolled => {
                let mut h =
                    IncrementalOptimizer::new(catalog, q.clone(), AqpConfig::default().pruning);
                let a = Answer::HandRolled(h.optimize());
                (Optimizer::HandRolled(Box::new(h)), a)
            }
        }
    }

    pub fn reoptimize(&mut self, batch: &[ParamDelta]) -> Answer {
        match self {
            Optimizer::Declarative(d) => Answer::Declarative(d.reoptimize(batch)),
            Optimizer::HandRolled(h) => Answer::HandRolled(h.reoptimize(batch)),
        }
    }

    pub fn memo(&self) -> &Memo {
        match self {
            Optimizer::Declarative(d) => d.memo(),
            Optimizer::HandRolled(h) => h.memo(),
        }
    }
}

/// The from-scratch oracle for one query.
pub struct Oracle {
    pub q: QuerySpec,
    graph: JoinGraph,
    pub ctx: CostContext,
}

impl Oracle {
    pub fn new(catalog: &Catalog, q: &QuerySpec) -> Oracle {
        Oracle {
            q: q.clone(),
            graph: JoinGraph::new(q),
            ctx: CostContext::new(catalog, q),
        }
    }

    pub fn apply(&mut self, batch: &[ParamDelta]) -> AffectedSet {
        self.ctx.apply(batch)
    }

    pub fn optimum(&mut self) -> Cost {
        optimize_volcano(&self.q, &self.graph, &mut self.ctx).cost
    }

    pub fn plan_cost(&mut self, plan: &PlanNode) -> Cost {
        self.ctx.plan_cost(&self.q, plan)
    }
}

/// Alternatives whose local cost the batch may have changed.
pub fn affected_alts(memo: &Memo, ctx: &CostContext, affected: &AffectedSet) -> u64 {
    memo.alts
        .iter()
        .filter(|a| ctx.alt_affected(memo.group(a.group).expr, &a.spec, affected))
        .count() as u64
}

/// Per-epoch counters of the dataflow substrate, from `RunStats` and
/// from differences of the per-node service counters.
#[derive(Default)]
pub struct DatalogLayer {
    deltas_processed: Mean,
    batches: Mean,
    deltas_emitted: Mean,
    join_probes: Mean,
    /// Rule label → per-epoch deltas (`dedup` for the unlabelled
    /// union and distinct nodes).
    rules: Vec<(String, Mean)>,
    last: Vec<u64>,
}

/// The rule labels reported per rule.
pub const RULES: [&str; 16] = [
    "D1", "D2", "D3", "D4", "D5", "D6", "D7", "D8", "D9", "D10", "B1", "B2", "B3", "B4", "B5",
    "dedup",
];

fn rule_of(label: &str) -> Option<&str> {
    if label == "union" || label == "distinct" {
        return Some("dedup");
    }
    let open = label.rfind('[')?;
    label[open + 1..].strip_suffix(']')
}

impl DatalogLayer {
    /// Baseline of the per-node counters before the next epoch.
    pub fn mark(&mut self, d: &DataflowOptimizer) {
        self.last = d.node_stats().iter().map(|(_, _, n)| *n).collect();
    }

    /// Records the epoch that ran since [`DatalogLayer::mark`].
    pub fn epoch(&mut self, d: &DataflowOptimizer, o: &DataflowOutcome) {
        self.deltas_processed.add(o.stats.deltas_processed as f64);
        self.batches.add(o.stats.batches_processed as f64);
        self.deltas_emitted.add(o.stats.deltas_emitted as f64);
        self.join_probes.add(o.stats.join_probes as f64);
        let mut per_rule = [0u64; RULES.len()];
        for (i, (label, _, n)) in d.node_stats().iter().enumerate() {
            let before = self.last.get(i).copied().unwrap_or(0);
            if let Some(k) = rule_of(label).and_then(|r| RULES.iter().position(|&x| x == r)) {
                per_rule[k] += n - before;
            }
        }
        if self.rules.is_empty() {
            self.rules = RULES
                .iter()
                .map(|r| (r.to_string(), Mean::default()))
                .collect();
        }
        for (k, n) in per_rule.into_iter().enumerate() {
            self.rules[k].1.add(n as f64);
        }
    }

    pub fn report(&self, r: &mut Report) {
        r.metric(
            "datalog.deltas_processed",
            self.deltas_processed.get(),
            "count",
        );
        r.metric("datalog.batches", self.batches.get(), "count");
        r.metric("datalog.deltas_emitted", self.deltas_emitted.get(), "count");
        r.metric("datalog.join_probes", self.join_probes.get(), "count");
        for (rule, m) in &self.rules {
            r.metric(format!("datalog.rule.{rule}.deltas"), m.get(), "count");
        }
    }
}

struct QueryRun {
    opt: Optimizer,
    oracle: Oracle,
    gen: ChurnGen,
}

fn setup(engine: Engine, seed: u64) -> (Catalog, Vec<QueryRun>) {
    let (catalog, _) = TpchGen::default().generate();
    let runs = QUERIES
        .iter()
        .enumerate()
        .map(|(i, qid)| {
            let q = qid.build(&catalog);
            QueryRun {
                opt: Optimizer::cold(engine, &catalog, &q).0,
                oracle: Oracle::new(&catalog, &q),
                gen: ChurnGen::new(&q, sub_seed(seed, i as u64)),
            }
        })
        .collect();
    (catalog, runs)
}

pub fn run(s: &Settings, engine: Engine) -> Report {
    let mut report = Report::default();
    let mut tr = Tracer::new(false);
    let sfx = engine.suffix();

    let (setup_t, (catalog, mut runs)) = repeat_setup(s, SETUP_REPS, || setup(engine, s.seed));
    for (qid, r) in QUERIES.iter().zip(runs.iter_mut()) {
        let optimum = r.oracle.optimum();
        let cost = match &r.opt {
            Optimizer::Declarative(d) => d.best_cost(),
            Optimizer::HandRolled(h) => h.best_cost(),
        };
        report.checks.record(cost.approx_eq(optimum), || {
            format!(
                "{}: initial cost {cost:?} != Volcano {optimum:?}",
                qid.name()
            )
        });
    }

    let mut ops = Ops::default();
    let mut traced = Samples::default();
    let mut overhead = Overhead::default();
    let mut good = 0u64;
    let mut stale = 0u64;
    let mut excess = Mean::default();
    let mut inputs = Digest::default();
    let mut outputs = Digest::default();
    // Traced-run layers.
    let mut volcano: Vec<Samples> = vec![Samples::default(); QUERIES.len()];
    let mut volcano_all = Samples::default();
    let (mut affected_m, mut touched_alts, mut touched_groups, mut pops) = (
        Mean::default(),
        Mean::default(),
        Mean::default(),
        Mean::default(),
    );
    let (mut update_ratio, mut work_ratio, mut pruned_ratio) =
        (Mean::default(), Mean::default(), Mean::default());
    let mut extract = Samples::default();
    let mut pruned_alts = Mean::default();
    let mut datalog = DatalogLayer::default();

    let total = s.op_count(match engine {
        Engine::Declarative => DECL_BATCHES_PER_S,
        Engine::HandRolled => HAND_BATCHES_PER_S,
    });
    // Cold starts are spread over the run rather than taken in one burst,
    // so they sample the same machine conditions as the batches.
    let mut cold = vec![Samples::default(); QUERIES.len()];
    let cold_every = if s.ops.is_some() {
        total
    } else {
        (total / COLD_REPS as u64).max(1)
    };
    let mut n = 0u64;
    while n < total {
        if n.is_multiple_of(cold_every) {
            for (r, c) in runs.iter().zip(cold.iter_mut()) {
                let (_, dt) = timed(|| Optimizer::cold(engine, &catalog, &r.oracle.q));
                c.push(dt);
            }
        }
        let qi = (n % QUERIES.len() as u64) as usize;
        let r = &mut runs[qi];
        let batch = r.gen.batch();
        churn::digest(&mut inputs.0, &batch);
        if s.trace {
            tr.set_on(traced_op(n));
        }
        if tr.is_on() {
            if let Optimizer::Declarative(d) = &r.opt {
                datalog.mark(d);
            }
        }
        let open = tr.enter(match engine {
            Engine::Declarative => "bridge.reoptimize",
            Engine::HandRolled => "core.reoptimize",
        });
        let (ans, dt) = timed(|| r.opt.reoptimize(&batch));
        tr.exit(open);
        n += 1;
        ops.push(dt);
        if tr.is_on() {
            traced.push(dt);
        }
        let size_class = match batch.len() {
            1 => 0,
            n if n < r.gen.n_params() => 1,
            _ => 2,
        };
        overhead.add(qi as u64 * 3 + size_class, tr.is_on(), dt);

        // Untimed oracle.
        let affected = tr.span("cost.apply", || r.oracle.apply(&batch));
        let (optimum, vdt) = timed(|| r.oracle.optimum());
        let claimed = r.oracle.plan_cost(ans.plan());
        let cost = ans.cost();
        let qname = QUERIES[qi].name();
        let optimal = cost.approx_eq(optimum);
        let honest = claimed.approx_eq(cost);
        match engine {
            Engine::Declarative => report.checks.record(optimal && honest && ans.clean(), || {
                format!(
                    "batch {n} ({qname}): cost {cost:?}, plan costs {claimed:?}, Volcano {optimum:?}, clean {}",
                    ans.clean()
                )
            }),
            Engine::HandRolled => {
                let beats = cost.value() < optimum.value() && !optimal;
                report.checks.record(honest && !beats, || {
                    format!(
                        "batch {n} ({qname}): cost {cost:?}, plan costs {claimed:?}, Volcano {optimum:?}"
                    )
                })
            }
        }
        if !optimal {
            stale += 1;
            excess.add(cost.value() / optimum.value());
        }
        if optimal && dt.as_secs_f64() * 1e6 <= VOLCANO_LIMIT_US[qi] {
            good += 1;
        }
        outputs.mix(ans.plan().fingerprint());
        outputs.mix(cost.value().to_bits());
        outputs.mix(match &ans {
            Answer::Declarative(o) => o.stats.deltas_processed,
            Answer::HandRolled(o) => o.run.touched_alts ^ o.run.queue_pops << 32,
        });

        if tr.is_on() {
            volcano[qi].push(vdt);
            volcano_all.push(vdt);
            let memo = r.opt.memo();
            let affected_n = affected_alts(memo, &r.oracle.ctx, &affected) as f64;
            affected_m.add(affected_n);
            match (&r.opt, &ans) {
                (Optimizer::HandRolled(_), Answer::HandRolled(o)) => {
                    touched_alts.add(o.run.touched_alts as f64);
                    touched_groups.add(o.run.touched_groups as f64);
                    pops.add(o.run.queue_pops as f64);
                    update_ratio.add(o.run.alt_update_ratio(o.state.total_alts));
                    if affected_n > 0.0 {
                        work_ratio.add(o.run.touched_alts as f64 / affected_n);
                    }
                    pruned_ratio.add(o.state.alt_pruning_ratio());
                }
                (Optimizer::Declarative(d), Answer::Declarative(o)) => {
                    let open = tr.enter("bridge.extract");
                    let (_, edt) = timed(|| (d.best_cost(), d.best_plan()));
                    tr.exit(open);
                    extract.push(edt);
                    pruned_alts.add(d.pruned_alternatives() as f64);
                    datalog.epoch(d, o);
                }
                _ => unreachable!("answer kind follows the engine"),
            }
        }
    }

    let attempted = n.max(1) as f64;
    report.note_ops(&format!("reopt_us.{sfx}"), &ops, 1e6, "us");
    report.note(
        format!("updates_per_s.{sfx}"),
        format!("{:.1}", n as f64 / ops.total().max(1e-12)),
    );
    report.note(
        format!("good_frac.{sfx}"),
        format!(
            "{:.4} (optimal within the Volcano median, {good}/{n})",
            good as f64 / attempted
        ),
    );
    report.note(
        format!("stale_frac.{sfx}"),
        format!(
            "{:.4} ({stale}/{n} batches costlier than optimal, mean {:.3}x)",
            stale as f64 / attempted,
            excess.get()
        ),
    );
    if s.trace {
        report.metric(
            "cost.apply_us",
            tr.self_times("cost.apply").median() * 1e6,
            "us",
        );
        report.metric("cost.affected_alts", affected_m.get(), "count");
        report.metric("baselines.volcano_us.p50", volcano_all.median() * 1e6, "us");
        for (qid, v) in QUERIES.iter().zip(volcano.iter_mut()) {
            report.metric(
                format!("baselines.volcano_us.{}", qid.name()),
                v.median() * 1e6,
                "us",
            );
        }
        match engine {
            Engine::HandRolled => {
                report.metric("core.reopt_us", traced.median() * 1e6, "us");
                report.metric("core.touched_alts", touched_alts.get(), "count");
                report.metric("core.touched_groups", touched_groups.get(), "count");
                report.metric("core.queue_pops", pops.get(), "count");
                report.metric("core.alt_update_ratio", update_ratio.get(), "share");
                report.metric("core.work_ratio", work_ratio.get(), "share");
                report.metric("core.pruned_alt_ratio", pruned_ratio.get(), "share");
                report.metric("core.stale_frac", stale as f64 / attempted, "share");
            }
            Engine::Declarative => {
                report.metric("bridge.reopt_us", traced.median() * 1e6, "us");
                report.metric("bridge.extract_us", extract.median() * 1e6, "us");
                report.metric("bridge.pruned_alts", pruned_alts.get(), "count");
                datalog.report(&mut report);
            }
        }
        report.metric("trace.overhead_pct", overhead.pct(), "%");
    } else {
        report.end_to_end(EndToEnd {
            setup: setup_t,
            ops,
            blocks: BLOCKS,
            cold,
        });
    }
    report.fingerprint.inputs = inputs.0;
    report.fingerprint.outputs = outputs.0;
    report
}
