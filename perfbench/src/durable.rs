//! `durable-lifecycle`: the declarative optimizer's whole life with a
//! durable directory.
//!
//! The operation is one session. Sessions rotate over Q10, Q5 and
//! Q8JoinS; each
//!
//! 1. registers cold: `DataflowOptimizer::new` + `set_durable_dir` +
//!    `optimize`;
//! 2. applies seeded churn batches (as in `tpch-churn-*`), each
//!    `reoptimize` appending and fsyncing one WAL record first;
//! 3. cuts `checkpoint_durable` every [`CHECKPOINT_EVERY`] batches;
//! 4. crashes at a seeded point — the instance is dropped without a
//!    final checkpoint — and restarts with `DataflowOptimizer::recover`.
//!
//! The engine is the one `tpch-churn-decl` measures, but here the WAL
//! write path, the rule compiler (every register and recover builds a
//! network) and restore are in play, so durability and compile changes
//! show here and not there.
//!
//! A session's end-to-end figures are the CPU time its four steps took
//! (kernel time of the writes and fsync calls included). Its wall time,
//! printed as `session_ms`, also holds the waits for the disk: about a
//! dozen fsyncs per session, whose latency on a shared host drifts by a
//! third over minutes and would swamp any change to the code. The
//! per-layer `bridge.wal_append_us` measures that fsync latency.
//! Crash points run through a seeded permutation of 1..=24 batches every
//! 24 sessions, so every run sees the same mix of session lengths.
//!
//! Flush policy of the code under test: one fsync per WAL append, and
//! tmp file + fsync + rename (+ directory fsync) per checkpoint. All
//! durable directories live in the run's fresh scratch directory, which
//! the caller removes on exit.
//!
//! Oracles: every register and `reoptimize` cost must equal Volcano's
//! from scratch, with a clean recovery report; every recover must report
//! no errors, take the path the crash point implies, and return the
//! pre-crash instance's best cost and plan.

use std::path::Path;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;
use reopt_bridge::durable::{wal_append, wal_init, CHECKPOINT_FILE, WAL_FILE};
use reopt_bridge::{AuditMode, DataflowOptimizer, RecoveryPath};
use reopt_workloads::TpchGen;

use crate::churn::{self, shuffle, ChurnGen};
use crate::stats::{thread_cpu, Mean, Ops, Overhead, Samples};
use crate::tpch::{DatalogLayer, Oracle, QUERIES};
use crate::trace::Tracer;
use crate::{repeat_setup, sub_seed, timed, traced_op, Digest, EndToEnd, Report, Settings};

/// Sessions per nominal second of a run.
const SESSIONS_PER_S: f64 = 24.0;
/// Set-ups per run (catalog generation).
const SETUP_REPS: usize = 15;
/// Blocks `ops_per_s` takes its median over.
const BLOCKS: usize = 20;
/// Batches between checkpoints.
pub const CHECKPOINT_EVERY: u64 = 8;
/// Crash points range over 1..=this many batches.
pub const MAX_SESSION_BATCHES: u64 = 24;

fn file_len(p: &Path) -> f64 {
    std::fs::metadata(p).map_or(0.0, |m| m.len() as f64)
}

pub fn run(s: &Settings) -> Report {
    let mut report = Report::default();
    let mut tr = Tracer::new(false);

    let (setup, (catalog, _)) = repeat_setup(s, SETUP_REPS, || TpchGen::default().generate());
    let queries: Vec<_> = QUERIES.iter().map(|q| q.build(&catalog)).collect();

    let mut ops = Ops::default();
    let mut wall = Samples::default();
    let mut cold = vec![Samples::default(); QUERIES.len()];
    let mut reopt = Samples::default();
    let mut checkpoint = Samples::default();
    let mut recover = Samples::default();
    let mut overhead = Overhead::default();
    let mut inputs = Digest::default();
    let mut outputs = Digest::default();
    // Traced-run layers.
    let mut wal_t = Samples::default();
    let (mut wal_bytes, mut ckpt_bytes, mut replayed) =
        (Mean::default(), Mean::default(), Mean::default());
    let mut datalog = DatalogLayer::default();
    // `durable::wal_append` of the same batches to a file of the
    // benchmark's own isolates the WAL write from the engine.
    let side_wal = s.scratch.join("side-wal.bin");

    let mut crash_rng = StdRng::seed_from_u64(sub_seed(s.seed, 0xc2a5));
    let mut crash_points: Vec<u64> = (1..=MAX_SESSION_BATCHES).collect();
    let total = s.op_count(SESSIONS_PER_S);
    for session in 0..total {
        let qi = (session % QUERIES.len() as u64) as usize;
        let q = &queries[qi];
        let qname = QUERIES[qi].name();
        let dir = s.scratch.join(format!("session-{session}"));
        let mut gen = ChurnGen::new(q, sub_seed(s.seed, session));
        if session.is_multiple_of(MAX_SESSION_BATCHES) {
            shuffle(&mut crash_points, &mut crash_rng);
        }
        let crash_at = crash_points[(session % MAX_SESSION_BATCHES) as usize];
        inputs.mix(crash_at);
        if s.trace {
            tr.set_on(traced_op(session));
        }
        let mut blocked = Duration::ZERO;
        // The session's steps run back to back; the oracle checks them
        // afterwards, so the session's CPU time is the system's alone.
        let cpu0 = thread_cpu();

        // 1. Cold register.
        let ((mut d, first), dt) = timed(|| {
            let open = tr.enter("bridge.new");
            let mut d = DataflowOptimizer::new(&catalog, q.clone());
            tr.exit(open);
            d.set_audit_mode(AuditMode::Off);
            d.set_durable_dir(&dir).expect("arm the durable directory");
            let open = tr.enter("bridge.optimize");
            let first = d.optimize();
            tr.exit(open);
            (d, first)
        });
        cold[qi].push(thread_cpu() - cpu0);
        blocked += dt;
        if tr.is_on() {
            wal_init(&side_wal).expect("create the side WAL");
        }

        // 2–3. Churn with periodic checkpoints.
        let mut updates = Vec::new();
        let mut checkpoints_ok = true;
        for k in 1..=crash_at {
            let batch = gen.batch();
            churn::digest(&mut inputs.0, &batch);
            if tr.is_on() {
                datalog.mark(&d);
            }
            let open = tr.enter("bridge.reoptimize");
            let (out, dt) = timed(|| d.reoptimize(&batch));
            tr.exit(open);
            reopt.push(dt);
            blocked += dt;
            if tr.is_on() {
                datalog.epoch(&d, &out);
                let (r, dt) = timed(|| wal_append(&side_wal, k - 1, &batch));
                r.expect("append to the side WAL");
                wal_t.push(dt);
            }
            updates.push((batch, out.cost, out.recovery));
            if k % CHECKPOINT_EVERY == 0 {
                let open = tr.enter("bridge.checkpoint");
                let (r, dt) = timed(|| d.checkpoint_durable());
                tr.exit(open);
                checkpoint.push(dt);
                blocked += dt;
                checkpoints_ok &= r.is_ok();
            }
        }

        // 4. Crash and recover.
        let pre_cost = d.best_cost();
        let pre_plan = d.best_plan().fingerprint();
        drop(d);
        let restored = crash_at >= CHECKPOINT_EVERY;
        if tr.is_on() {
            wal_bytes.add(file_len(&dir.join(WAL_FILE)));
            ckpt_bytes.add(file_len(&dir.join(CHECKPOINT_FILE)));
            let tail = if restored {
                crash_at % CHECKPOINT_EVERY
            } else {
                crash_at
            };
            replayed.add(tail as f64);
        }
        let open = tr.enter("bridge.recover");
        let (r, dt) = timed(|| DataflowOptimizer::recover(&catalog, q.clone(), &dir));
        tr.exit(open);
        recover.push(dt);
        blocked += dt;
        let cpu = thread_cpu() - cpu0;

        // Untimed oracle.
        let mut oracle = Oracle::new(&catalog, q);
        let optimum = oracle.optimum();
        report.checks.record(
            first.cost.approx_eq(optimum) && first.recovery.is_clean(),
            || {
                format!(
                    "session {session} ({qname}): register cost {:?} != Volcano {optimum:?}",
                    first.cost
                )
            },
        );
        for (k, (batch, cost, recovery)) in updates.iter().enumerate() {
            oracle.apply(batch);
            let optimum = oracle.optimum();
            report.checks.record(cost.approx_eq(optimum) && recovery.is_clean(), || {
                format!(
                    "session {session} ({qname}) batch {}: cost {cost:?}, Volcano {optimum:?}, recovery {recovery:?}",
                    k + 1
                )
            });
            outputs.mix(cost.value().to_bits());
        }
        report.checks.record(checkpoints_ok, || {
            format!("session {session} ({qname}): a checkpoint failed")
        });
        match r {
            Ok((mut back, out)) => {
                back.set_audit_mode(AuditMode::Off);
                let expected_path = if restored {
                    RecoveryPath::RestoredFromCheckpoint
                } else {
                    RecoveryPath::RebuiltFromScratch
                };
                let ok = out.recovery.errors.is_empty()
                    && out.recovery.path == expected_path
                    && back.best_cost().approx_eq(pre_cost)
                    && back.best_plan().fingerprint() == pre_plan;
                report.checks.record(ok, || {
                    format!(
                        "session {session} ({qname}) recover after {crash_at}: {:?}, cost {:?} vs {pre_cost:?}",
                        out.recovery,
                        back.best_cost()
                    )
                });
                outputs.mix(pre_plan);
            }
            Err(e) => report.checks.record(false, || {
                format!("session {session} ({qname}): recover failed: {e}")
            }),
        }
        // Keep the scratch directory small; a failure to remove it only
        // costs disk.
        let _ = std::fs::remove_dir_all(&dir);

        ops.push(cpu);
        wall.push(blocked);
        overhead.add(qi as u64 * 100 + crash_at, tr.is_on(), cpu);
    }

    report.note_ops("session_cpu_ms", &ops, 1e3, "ms");
    report.note_latency("session_ms", &mut wall, 1e3, "ms");
    report.note(
        "updates_per_s.decl",
        format!(
            "{:.1} (checkpoints included)",
            reopt.len() as f64 / (reopt.sum() + checkpoint.sum()).max(1e-12)
        ),
    );
    report.note_latency("reopt_us.decl", &mut reopt, 1e6, "us");
    for (qid, c) in QUERIES.iter().zip(cold.iter_mut()) {
        report.note_latency(&format!("initial_ms.{}", qid.name()), c, 1e3, "ms");
    }
    report.note_latency("recover_ms", &mut recover, 1e3, "ms");
    report.note_latency("checkpoint_ms", &mut checkpoint, 1e3, "ms");
    if s.trace {
        report.metric(
            "bridge.new_ms",
            tr.self_times("bridge.new").median() * 1e3,
            "ms",
        );
        report.metric(
            "bridge.optimize_ms",
            tr.self_times("bridge.optimize").median() * 1e3,
            "ms",
        );
        report.metric(
            "bridge.reopt_us",
            tr.self_times("bridge.reoptimize").median() * 1e6,
            "us",
        );
        report.metric("bridge.wal_append_us", wal_t.median() * 1e6, "us");
        report.metric(
            "bridge.checkpoint_ms",
            tr.self_times("bridge.checkpoint").median() * 1e3,
            "ms",
        );
        report.metric(
            "bridge.recover_ms",
            tr.self_times("bridge.recover").median() * 1e3,
            "ms",
        );
        report.metric("bridge.wal_bytes", wal_bytes.get(), "bytes");
        report.metric("bridge.checkpoint_bytes", ckpt_bytes.get(), "bytes");
        report.metric("bridge.replayed_batches", replayed.get(), "count");
        datalog.report(&mut report);
        report.metric("trace.overhead_pct", overhead.pct(), "%");
    } else {
        report.end_to_end(EndToEnd {
            setup,
            ops,
            blocks: BLOCKS,
            cold,
        });
    }
    report.fingerprint.inputs = inputs.0;
    report.fingerprint.outputs = outputs.0;
    report
}
