//! `lr-stream`: the paper's application path (§5.4, Figs 9/10).
//!
//! `AqpDriver::run_slice` over seeded Linear Road slices of `SegTollS`
//! at the Fig 9/10 harness scale (`harness::default_stream`), with the
//! driver's default configuration. Each slice executes the current plan
//! over the windows, then blocks on an incremental re-optimization at
//! the split point. The executor does nearly all the work here, so this
//! workload shows executor changes; for an optimizer-only change it
//! predicts no change.
//!
//! The run is a sequence of episodes of 60 two-second slices (the Fig 9
//! harness length), each on a fresh driver and a freshly seeded stream.
//! Every episode has the same shape — windows fill, the report rate
//! swells and ebbs — so runs that fit a different number of episodes
//! still sample the same distribution. Oracle: a reference executor
//! pinned to the episode's initial plan sees the same slices; every
//! slice's `out_rows` must match it.

use std::hash::{Hash, Hasher};

use reopt_aqp::{AqpConfig, AqpDriver};
use reopt_bench::harness::default_stream;
use reopt_catalog::Datum;
use reopt_common::FxHasher;
use reopt_core::IncrementalOptimizer;
use reopt_exec::StreamExecutor;
use reopt_workloads::LinearRoadGen;

use crate::stats::{Mean, Ops, Overhead, Samples};
use crate::trace::Tracer;
use crate::{repeat_setup, sub_seed, timed, traced_op, Digest, EndToEnd, Report, Settings};

pub const SLICES_PER_EPISODE: u64 = 60;
pub const SLICE_SECONDS: f64 = 2.0;
/// Slices per nominal second of a run (reference executor included);
/// runs take whole episodes, at least [`MIN_EPISODES`], so the median
/// and the peak RSS rest on several independently seeded streams.
const SLICES_PER_S: f64 = 8.0;
const MIN_EPISODES: u64 = 5;
/// Set-ups per run: one takes well under a millisecond, so many are
/// needed for a steady median.
const SETUP_REPS: usize = 201;

fn row_hash(row: &[Datum]) -> u64 {
    let mut h = FxHasher::default();
    row.hash(&mut h);
    h.finish()
}

/// The harness stream configuration, re-seeded.
fn stream_gen(seed: u64) -> LinearRoadGen {
    let (_, _, base) = default_stream();
    let mut gen = LinearRoadGen::new(seed);
    gen.n_expressways = base.n_expressways;
    gen.n_segments = base.n_segments;
    gen.n_cars = base.n_cars;
    gen.rate = base.rate;
    gen.hotspot_speed = base.hotspot_speed;
    gen.burstiness = base.burstiness;
    gen
}

pub fn run(s: &Settings) -> Report {
    let mut report = Report::default();
    let mut tr = Tracer::new(false);

    let (setup, _) = repeat_setup(s, SETUP_REPS, || {
        let (c, q, _) = default_stream();
        let gen = stream_gen(s.seed);
        let driver = AqpDriver::new(&c, q.clone(), AqpConfig::default());
        let reference = StreamExecutor::new(&q);
        (driver, reference, gen)
    });
    let (catalog, q, _) = default_stream();
    let total_alts = IncrementalOptimizer::new(&catalog, q.clone(), AqpConfig::default().pruning)
        .memo()
        .n_alts() as f64;

    let mut ops = Ops::default();
    let mut cold = Samples::default();
    let mut overhead = Overhead::default();
    let mut exec = Samples::default();
    let mut reopt = Samples::default();
    let mut exec_total = 0.0;
    let (mut plan_changes, mut migrated) = (0u64, 0u64);
    let (mut window_rows, mut touched_alts, mut touched_groups, mut pops, mut ratio) = (
        Mean::default(),
        Mean::default(),
        Mean::default(),
        Mean::default(),
        Mean::default(),
    );
    let mut inputs = Digest::default();
    let mut outputs = Digest::default();

    let total = match s.ops {
        Some(n) => n,
        None => {
            let episodes = s.op_count(SLICES_PER_S).div_ceil(SLICES_PER_EPISODE);
            episodes.max(MIN_EPISODES) * SLICES_PER_EPISODE
        }
    };
    let mut slices = 0u64;
    let mut episodes = 0u64;
    'run: while slices < total {
        let mut gen = stream_gen(sub_seed(s.seed, episodes));
        let mut driver = AqpDriver::new(&catalog, q.clone(), AqpConfig::default());
        let pinned = driver.current_plan().clone();
        let mut reference = StreamExecutor::new(&q);
        for i in 0..SLICES_PER_EPISODE {
            if slices == total {
                break 'run;
            }
            // One cold start per slice (`cold_ms`), spread over the run
            // so it samples the same machine conditions as the slices.
            let (_, dt) = timed(|| AqpDriver::new(&catalog, q.clone(), AqpConfig::default()));
            cold.push(dt);
            let tuples = gen.slice(i as f64 * SLICE_SECONDS, SLICE_SECONDS);
            for t in &tuples {
                inputs.mix(row_hash(&t.row));
            }
            if s.trace {
                tr.set_on(traced_op(slices));
            }
            let open = tr.enter("aqp.run_slice");
            let (r, dt) = timed(|| driver.run_slice(&tuples));
            tr.exit(open);
            slices += 1;
            ops.push(dt);
            overhead.add(i, tr.is_on(), dt);

            reference.ingest(&tuples);
            let expected = reference.execute(&pinned).out_rows;
            report.checks.record(r.out_rows == expected, || {
                format!(
                    "episode {episodes} slice {i}: out_rows {} != pinned-plan reference {expected}",
                    r.out_rows
                )
            });
            outputs.mix(r.out_rows as u64);
            outputs.mix(driver.current_plan().fingerprint());
            outputs.mix(r.run.touched_alts);

            exec.push(r.exec_time);
            reopt.push(r.reopt_time);
            exec_total += r.exec_time.as_secs_f64();
            plan_changes += r.plan_changed as u64;
            migrated += r.migrated_rows as u64;
            window_rows.add(r.window_rows as f64);
            touched_alts.add(r.run.touched_alts as f64);
            touched_groups.add(r.run.touched_groups as f64);
            pops.add(r.run.queue_pops as f64);
            ratio.add(r.run.touched_alts as f64 / total_alts);
        }
        episodes += 1;
    }

    let full_episodes = slices as f64 / SLICES_PER_EPISODE as f64;
    report.note_ops("slice_ms", &ops, 1e3, "ms");
    report.note(
        "stream_x_realtime",
        format!(
            "{:.3}",
            slices as f64 * SLICE_SECONDS / ops.total().max(1e-12)
        ),
    );
    report.note("slices", format!("{slices} in {episodes} episodes"));
    if s.trace {
        report.metric(
            "aqp.plan_changes",
            plan_changes as f64 / full_episodes,
            "count",
        );
        report.metric(
            "aqp.migrated_rows",
            migrated as f64 / full_episodes,
            "count",
        );
        report.metric("exec.execute_ms.p50", exec.median() * 1e3, "ms");
        report.metric(
            "exec.execute_share",
            exec_total / ops.total().max(1e-12),
            "share",
        );
        report.metric("exec.window_rows", window_rows.get(), "count");
        report.metric("core.reopt_us", reopt.median() * 1e6, "us");
        report.metric("core.touched_alts", touched_alts.get(), "count");
        report.metric("core.touched_groups", touched_groups.get(), "count");
        report.metric("core.queue_pops", pops.get(), "count");
        report.metric("core.alt_update_ratio", ratio.get(), "share");
        report.metric("trace.overhead_pct", overhead.pct(), "%");
    } else {
        report.end_to_end(EndToEnd {
            setup,
            ops,
            blocks: episodes as usize,
            cold: vec![cold],
        });
    }
    report.fingerprint.inputs = inputs.0;
    report.fingerprint.outputs = outputs.0;
    report
}
