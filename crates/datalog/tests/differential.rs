//! Differential harness for the scheduler-mode matrix: random operator
//! networks (joins over arrangements, maps, unions, distinct, grouped
//! aggregation) are executed under all of {`Batched`,
//! `Batched`+fusion, `PerDelta`}, and every mode's sink multisets —
//! counts included — must equal a from-scratch evaluation of the same
//! network over the final inputs (`common::naive`), with zero residual
//! negative counts at every fixpoint.
//!
//! This pins the tentpole invariant of the batched/fused substrate: the
//! scheduler's service order, batch grouping, probe sharing,
//! arrangements, chain fusion and coalescing are *performance* choices;
//! the from-scratch evaluator is the semantic reference.

use proptest::prelude::*;

use reopt_datalog::value::{ints, Tuple, Val};
use reopt_datalog::{Dataflow, Distinct, HashJoin, Map, NodeId, SchedulerMode, SinkId, Union};

mod common;
use common::{build, events, naive, net_gen, sink_counted};

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// The full matrix: {Batched, Batched+fusion, PerDelta} on random
    /// DAGs of all operator kinds match the from-scratch evaluator on
    /// every materialized sink and leave no residual negative counts,
    /// under random set-like insert/delete streams with interleaved
    /// fixpoints.
    #[test]
    fn scheduler_modes_agree_on_random_networks(
        gen in net_gen(5),
        evts in events(24),
        run_every in 1usize..6,
    ) {
        let matrix = [
            (SchedulerMode::Batched, false),
            (SchedulerMode::Batched, true),
            (SchedulerMode::PerDelta, false),
        ];
        let mut nets: Vec<(Dataflow, [NodeId; 2], Vec<SinkId>)> =
            matrix.iter().map(|&(m, f)| build(&gen, m, f)).collect();
        // Set-like inputs (delete only present tuples) keep every
        // operator's fixpoint state non-negative.
        let mut live: [Vec<(i64, i64)>; 2] = [Vec::new(), Vec::new()];
        for (step, (which, key, val, insert)) in evts.iter().enumerate() {
            let side = *which as usize;
            let row = (*key as i64, *val as i64);
            let present = live[side].contains(&row);
            if *insert == present {
                continue;
            }
            if *insert {
                live[side].push(row);
            } else {
                let at = live[side].iter().position(|r| *r == row).unwrap();
                live[side].swap_remove(at);
            }
            let tup = ints(&[row.0, row.1]);
            for (df, inputs, _) in nets.iter_mut() {
                if *insert {
                    df.insert(inputs[side], tup.clone());
                } else {
                    df.delete(inputs[side], tup.clone());
                }
            }
            if step % run_every == 0 {
                for (df, _, _) in nets.iter_mut() {
                    df.run().unwrap();
                }
            }
        }
        for (df, _, _) in nets.iter_mut() {
            df.run().unwrap();
        }
        let want = naive(&gen, &live);
        for (what, (df, _, sinks)) in matrix.iter().zip(&nets) {
            prop_assert_eq!(sinks.len(), want.len());
            for (s, expected) in sinks.iter().zip(&want) {
                prop_assert!(!df.sink(*s).has_negative_counts(), "negative counts in {:?}", what);
                prop_assert_eq!(
                    &sink_counted(df, *s),
                    expected,
                    "{:?} diverged from the from-scratch evaluation", what
                );
            }
        }
    }

    /// Counters that describe the same work reconcile: every delivered
    /// batch — popped from the queue, fanned out synchronously by a
    /// shared arrangement, or chained into a stateless consumer — is
    /// charged to its target node as well as to the run, so on clean
    /// runs the lifetime `node_stats()` sums equal the summed
    /// `RunStats`, in every scheduler mode.
    #[test]
    fn node_counters_reconcile_with_run_totals(
        gen in net_gen(5),
        evts in events(24),
        run_every in 1usize..6,
    ) {
        for (mode, fusion) in [
            (SchedulerMode::Batched, false),
            (SchedulerMode::Batched, true),
            (SchedulerMode::PerDelta, false),
        ] {
            let (mut df, inputs, _) = build(&gen, mode, fusion);
            let (mut batches, mut deltas) = (0u64, 0u64);
            for (step, (which, key, val, insert)) in evts.iter().enumerate() {
                let tup = ints(&[*key as i64, *val as i64]);
                if *insert {
                    df.insert(inputs[*which as usize], tup);
                } else {
                    df.delete(inputs[*which as usize], tup);
                }
                if step % run_every == 0 || step + 1 == evts.len() {
                    let stats = df.run().unwrap();
                    batches += stats.batches_processed;
                    deltas += stats.deltas_processed;
                }
            }
            let nodes = df.node_stats();
            let what = (mode, fusion);
            prop_assert_eq!(nodes.iter().map(|n| n.1).sum::<u64>(), batches, "batches {:?}", what);
            prop_assert_eq!(nodes.iter().map(|n| n.2).sum::<u64>(), deltas, "deltas {:?}", what);
        }
    }

    /// Fusion-focused slice of the matrix: single-consumer stateless
    /// chains (the shape fusion rewrites) produce identical sinks, the
    /// rewrite provably fires, and the run reports the dispatches it
    /// absorbed.
    #[test]
    fn fused_chains_match_unfused_and_collapse_dispatch(
        shifts in proptest::collection::vec(any::<i8>(), 2..6),
        keys in proptest::collection::vec((0u8..8, 0u8..8), 1..12),
    ) {
        let build_chain = |fusion: bool| {
            let mut df = Dataflow::new();
            df.set_fusion(fusion);
            let input = df.add_input("r");
            let mut node = input;
            for k in &shifts {
                let k = *k as i64;
                node = df.add_op(
                    Map::new(move |t| {
                        Some(Tuple::new(vec![t.get(0), Val::Int(t.get(1).as_int() + k)]))
                    }),
                    &[node],
                );
            }
            let sink = df.add_sink(node);
            (df, input, sink)
        };
        let (mut fused, f_in, f_sink) = build_chain(true);
        let (mut plain, p_in, p_sink) = build_chain(false);
        for (k, v) in &keys {
            fused.insert(f_in, ints(&[*k as i64, *v as i64]));
            plain.insert(p_in, ints(&[*k as i64, *v as i64]));
        }
        let f_stats = fused.run().unwrap();
        let p_stats = plain.run().unwrap();
        prop_assert_eq!(sink_counted(&fused, f_sink), sink_counted(&plain, p_sink));
        // The whole chain collapsed into one operator…
        prop_assert_eq!(fused.fused_node_count(), shifts.len() - 1);
        prop_assert_eq!(plain.fused_node_count(), 0);
        // …and the run visibly skipped the per-stage dispatches.
        prop_assert!(
            f_stats.fused_stages_saved >= (shifts.len() - 1) as u64,
            "no dispatch savings reported: {f_stats:?}"
        );
        prop_assert!(f_stats.batches_processed < p_stats.batches_processed
            || f_stats.deltas_processed < p_stats.deltas_processed,
            "fusion did not shrink scheduling: {f_stats:?} vs {p_stats:?}");
    }
}

/// The recursive transitive-closure network — cyclic, so it exercises
/// fusion + rank scheduling + counting deletions together — run under
/// the full mode matrix on a fixed churn script.
#[test]
fn scheduler_modes_agree_on_recursive_closure() {
    let tc = |mode: SchedulerMode, fusion: bool| {
        let mut df = Dataflow::with_mode(mode);
        df.set_fusion(fusion);
        let edge = df.add_input("edge");
        let union = df.add_op_unwired(Union::new(2));
        df.connect(edge, union, 0);
        let path = df.add_op(Distinct::new(), &[union]);
        let (pa, ph) = df.add_arrange(path, vec![1]);
        let (ea, eh) = df.add_arrange(edge, vec![0]);
        let join = df.add_op(HashJoin::new(ph, eh), &[pa, ea]);
        let proj = df.add_op(Map::project(vec![0, 3]), &[join]);
        df.connect(proj, union, 1);
        let sink = df.add_sink(path);
        (df, edge, sink)
    };
    let script: &[(i64, i64, bool)] = &[
        (1, 2, true),
        (2, 3, true),
        (3, 4, true),
        (1, 3, true),
        (2, 3, false),
        (2, 4, true),
        (1, 3, false),
    ];
    let mut nets = [
        tc(SchedulerMode::Batched, false),
        tc(SchedulerMode::Batched, true),
        tc(SchedulerMode::PerDelta, false),
    ];
    for &(a, b, insert) in script {
        for (df, edge, _) in nets.iter_mut() {
            if insert {
                df.insert(*edge, ints(&[a, b]));
            } else {
                df.delete(*edge, ints(&[a, b]));
            }
            df.run().unwrap();
        }
    }
    let reference = sink_counted(&nets[0].0, nets[0].2);
    for (df, _, sink) in &nets[1..] {
        assert!(!df.sink(*sink).has_negative_counts());
        assert_eq!(reference, sink_counted(df, *sink));
    }
}
