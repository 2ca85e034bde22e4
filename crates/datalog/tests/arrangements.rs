//! Shared-arrangement fixtures: one `Arrange` node maintains a keyed
//! index once per epoch and several `HashJoin`s probe it. These
//! hand-built nets pin the observational contract — sinks equal to a
//! from-scratch join of the final inputs in every scheduler mode — plus
//! rollback of shared state on a failed epoch, shared state surviving
//! checkpoint/restore, and the wiring bans (same arrangement on both
//! ports, key-arity mismatch).

use reopt_datalog::value::ints;
use reopt_datalog::{
    Arrange, Dataflow, DataflowError, FaultPlan, HashJoin, NodeId, SchedulerMode, SinkId, Tuple,
};

const MODES: [SchedulerMode; 2] = [SchedulerMode::Batched, SchedulerMode::PerDelta];

/// Three inputs, each arranged once on column 0. The arrangement over
/// `a` is probed by three joins — twice on the left port, once on the
/// right — and the one over `b` by two.
fn fixture(mode: SchedulerMode) -> (Dataflow, [NodeId; 3], [SinkId; 3]) {
    let mut df = Dataflow::with_mode(mode);
    let a = df.add_input("a");
    let b = df.add_input("b");
    let c = df.add_input("c");
    let (an, ah) = df.add_arrange(a, vec![0]);
    let (bn, bh) = df.add_arrange(b, vec![0]);
    let (cn, ch) = df.add_arrange(c, vec![0]);
    let join = |l, r| HashJoin::with_projection(l, r, vec![1, 3]);
    let j1 = df.add_op(join(ah.clone(), bh.clone()), &[an, bn]);
    let j2 = df.add_op(join(ah.clone(), ch), &[an, cn]);
    let j3 = df.add_op(join(bh, ah), &[bn, an]);
    let sinks = [df.add_sink(j1), df.add_sink(j2), df.add_sink(j3)];
    (df, [a, b, c], sinks)
}

/// (input index, key, payload, insert?) — exercises inserts, updates
/// landing in the same batch, and deletions of previously joined rows.
const SCRIPT: [(usize, i64, i64, bool); 12] = [
    (0, 1, 10, true),
    (1, 1, 20, true),
    (2, 1, 30, true),
    (0, 2, 11, true),
    (1, 2, 21, true),
    (0, 1, 12, true),
    (1, 1, 20, false),
    (2, 2, 31, true),
    (0, 1, 10, false),
    (1, 1, 22, true),
    (0, 3, 13, true),
    (2, 1, 30, false),
];

fn drive(df: &mut Dataflow, inputs: &[NodeId; 3], upto: usize, run_every: usize) {
    for (step, &(side, k, v, insert)) in SCRIPT[..upto].iter().enumerate() {
        let t = ints(&[k, v]);
        if insert {
            df.insert(inputs[side], t);
        } else {
            df.delete(inputs[side], t);
        }
        if step % run_every == 0 {
            df.run().unwrap();
        }
    }
    df.run().unwrap();
}

fn sink_counted(df: &Dataflow, sink: SinkId) -> Vec<(Tuple, i64)> {
    let mut v: Vec<_> = df.sink(sink).iter().map(|(t, c)| (t.clone(), c)).collect();
    v.sort();
    v
}

/// The fixture's sinks computed from scratch: the final input sets
/// after `SCRIPT[..upto]`, joined on column 0 with counts multiplied,
/// each output projected to (left payload, right payload).
fn expected(upto: usize) -> [Vec<(Tuple, i64)>; 3] {
    let mut sets: [Vec<(i64, i64)>; 3] = Default::default();
    for &(side, k, v, insert) in &SCRIPT[..upto] {
        if insert {
            sets[side].push((k, v));
        } else {
            sets[side].retain(|&row| row != (k, v));
        }
    }
    let join = |l: &[(i64, i64)], r: &[(i64, i64)]| {
        let mut out: Vec<(Tuple, i64)> = Vec::new();
        for &(lk, lv) in l {
            for &(rk, rv) in r {
                if lk == rk {
                    match out.iter_mut().find(|(t, _)| *t == ints(&[lv, rv])) {
                        Some((_, c)) => *c += 1,
                        None => out.push((ints(&[lv, rv]), 1)),
                    }
                }
            }
        }
        out.sort();
        out
    };
    [
        join(&sets[0], &sets[1]),
        join(&sets[0], &sets[2]),
        join(&sets[1], &sets[0]),
    ]
}

#[test]
fn shared_joins_match_the_naive_oracle() {
    for mode in MODES {
        for run_every in [1, 3, SCRIPT.len()] {
            let (mut df, inputs, sinks) = fixture(mode);
            drive(&mut df, &inputs, SCRIPT.len(), run_every);
            for (s, want) in sinks.iter().zip(expected(SCRIPT.len())) {
                assert!(!df.sink(*s).has_negative_counts());
                assert_eq!(
                    sink_counted(&df, *s),
                    want,
                    "divergence from the naive join under {mode:?}, run_every={run_every}"
                );
            }
        }
    }
}

/// A failed epoch must roll the shared index back with everything else:
/// after the injected fault the disarmed replay and all later probes of
/// the arrangement land on the fault-free twin's fixpoint exactly.
#[test]
fn shared_state_rolls_back_with_the_epoch() {
    for mode in MODES {
        for fault_step in [1u64, 2, 4, 7] {
            let (mut victim, v_in, v_sinks) = fixture(mode);
            let (mut oracle, o_in, o_sinks) = fixture(mode);
            victim.set_fault_plan(Some(FaultPlan::one_shot(fault_step)));
            let mut faults = 0;
            for (step, &(side, k, v, insert)) in SCRIPT.iter().enumerate() {
                let t = ints(&[k, v]);
                if insert {
                    victim.insert(v_in[side], t.clone());
                    oracle.insert(o_in[side], t);
                } else {
                    victim.delete(v_in[side], t.clone());
                    oracle.delete(o_in[side], t);
                }
                if step % 2 == 0 {
                    oracle.run().unwrap();
                    match victim.run() {
                        Ok(_) => {}
                        Err(DataflowError::InjectedFault { .. }) => {
                            faults += 1;
                            victim.set_fault_plan(None);
                            victim.run().unwrap();
                        }
                        Err(e) => panic!("unexpected error: {e}"),
                    }
                }
            }
            oracle.run().unwrap();
            victim.run().unwrap();
            assert_eq!(faults, 1, "fault never fired under {mode:?}@{fault_step}");
            assert_eq!(victim.rollbacks(), 1);
            for (v, o) in v_sinks.iter().zip(&o_sinks) {
                assert_eq!(
                    sink_counted(&victim, *v),
                    sink_counted(&oracle, *o),
                    "rolled-back shared state diverged under {mode:?}@{fault_step}"
                );
            }
        }
    }
}

/// The arrangement's index is checkpointed once (by its `Arrange` node)
/// and restored into a freshly built graph whose joins re-attach to the
/// new handle; replaying the scripted tail must land on the oracle.
#[test]
fn shared_state_survives_checkpoint_restore() {
    for mode in MODES {
        for split in [0, 5, SCRIPT.len()] {
            let (mut oracle, o_in, o_sinks) = fixture(mode);
            drive(&mut oracle, &o_in, SCRIPT.len(), 2);

            let (mut victim, v_in, _) = fixture(mode);
            drive(&mut victim, &v_in, split, 2);
            let bytes = victim.checkpoint();
            drop(victim);

            let (mut survivor, s_in, s_sinks) = fixture(mode);
            survivor.restore(&bytes).unwrap();
            for &(side, k, v, insert) in &SCRIPT[split..] {
                let t = ints(&[k, v]);
                if insert {
                    survivor.insert(s_in[side], t);
                } else {
                    survivor.delete(s_in[side], t);
                }
                survivor.run().unwrap();
            }
            // The oracle drove every step through fixpoints too; only
            // the run grouping differs, which sinks are insensitive to.
            for (s, o) in s_sinks.iter().zip(&o_sinks) {
                assert_eq!(
                    sink_counted(&survivor, *s),
                    sink_counted(&oracle, *o),
                    "restored shared state diverged under {mode:?}, split={split}"
                );
            }
        }
    }
}

/// The same arrangement on both ports of one join would count the
/// current batch's delta×delta contribution twice — banned at
/// construction.
#[test]
#[should_panic(expected = "both ports")]
fn same_arrangement_on_both_ports_is_rejected() {
    let arr = Arrange::new(vec![0]);
    let h = arr.handle();
    let _ = HashJoin::new(h.clone(), h);
}

/// Arrangements keyed on different numbers of columns cannot be
/// equi-joined — banned at construction.
#[test]
#[should_panic(expected = "key")]
fn key_signature_mismatch_is_rejected() {
    let _ = HashJoin::new(
        Arrange::new(vec![0]).handle(),
        Arrange::new(vec![0, 1]).handle(),
    );
}
