//! Property tests for the delta engine: random delta sequences through
//! incremental operators must match naive recomputation from the final
//! multiset state — whatever the interleaving and multiplicities.

use proptest::prelude::*;

use reopt_datalog::value::{ints, Tuple};
use reopt_datalog::{
    AggKind, Dataflow, Distinct, GroupAgg, HashJoin, Map, NodeId, SchedulerMode, SinkId, Union,
};

/// A raw event: (side, key, payload, insert?).
type Event = (bool, u8, u8, bool);

fn events(max: usize) -> impl Strategy<Value = Vec<Event>> {
    proptest::collection::vec((any::<bool>(), 0u8..4, 0u8..6, any::<bool>()), 1..max)
}

/// Maintains the naive multiset view of one side.
fn apply_naive(state: &mut Vec<(i64, i64)>, key: u8, val: u8, insert: bool) {
    let row = (key as i64, val as i64);
    if insert {
        state.push(row);
    } else if let Some(pos) = state.iter().position(|r| *r == row) {
        state.swap_remove(pos);
    }
}

/// Builds the transitive-closure network under the given scheduler.
fn tc_network(mode: SchedulerMode) -> (Dataflow, NodeId, SinkId) {
    let mut df = Dataflow::with_mode(mode);
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
}

/// Builds the min-view network under the given scheduler.
fn min_network(mode: SchedulerMode) -> (Dataflow, NodeId, SinkId) {
    let mut df = Dataflow::with_mode(mode);
    let costs = df.add_input("costs");
    let agg = df.add_op(GroupAgg::new(vec![0], 1, AggKind::Min), &[costs]);
    let sink = df.add_sink(agg);
    (df, costs, sink)
}

/// Sink contents with multiplicities, sorted — the observational state
/// two schedulers must agree on.
fn sink_counted(df: &Dataflow, sink: SinkId) -> Vec<(Tuple, i64)> {
    let mut v: Vec<(Tuple, i64)> = df
        .sink(sink)
        .iter()
        .map(|(t, c)| (t.clone(), c))
        .collect();
    v.sort();
    v
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// Incremental join == naive join of the final states.
    #[test]
    fn incremental_join_matches_naive(evts in events(40)) {
        let mut df = Dataflow::new();
        let l = df.add_input("l");
        let r = df.add_input("r");
        let (la, lh) = df.add_arrange(l, vec![0]);
        let (ra, rh) = df.add_arrange(r, vec![0]);
        let j = df.add_op(HashJoin::new(lh, rh), &[la, ra]);
        let sink = df.add_sink(j);
        type Tuples = Vec<(i64, i64)>;
        let (mut nl, mut nr): (Tuples, Tuples) = (vec![], vec![]);
        for (side, key, val, insert) in evts {
            // Skip deletions of absent tuples on the naive side, and
            // mirror exactly what we skipped (the engine tolerates
            // negative counts, but matching the oracle needs the same
            // event stream).
            let present = if side { &nl } else { &nr }.contains(&(key as i64, val as i64));
            if !insert && !present {
                continue;
            }
            let target = if side { l } else { r };
            let tup = ints(&[key as i64, val as i64]);
            if insert {
                df.insert(target, tup);
            } else {
                df.delete(target, tup);
            }
            apply_naive(if side { &mut nl } else { &mut nr }, key, val, insert);
        }
        df.run().unwrap();
        // Naive join with multiplicities.
        let mut expected: Vec<Tuple> = Vec::new();
        for &(lk, lv) in &nl {
            for &(rk, rv) in &nr {
                if lk == rk {
                    expected.push(ints(&[lk, lv, rk, rv]));
                }
            }
        }
        expected.sort();
        // The sink is a multiset; expand counts.
        let mut got: Vec<Tuple> = Vec::new();
        for (t, c) in df.sink(sink).iter() {
            prop_assert!(c > 0, "negative count at fixpoint");
            for _ in 0..c {
                got.push(t.clone());
            }
        }
        got.sort();
        prop_assert_eq!(got, expected);
    }

    /// Incremental grouped MIN == recomputed MIN over final state.
    #[test]
    fn incremental_min_matches_naive(evts in events(40)) {
        let mut df = Dataflow::new();
        let input = df.add_input("r");
        let agg = df.add_op(GroupAgg::new(vec![0], 1, AggKind::Min), &[input]);
        let sink = df.add_sink(agg);
        let mut naive: Vec<(i64, i64)> = vec![];
        for (_, key, val, insert) in evts {
            let present = naive.contains(&(key as i64, val as i64));
            if !insert && !present {
                continue;
            }
            let tup = ints(&[key as i64, val as i64]);
            if insert {
                df.insert(input, tup);
            } else {
                df.delete(input, tup);
            }
            apply_naive(&mut naive, key, val, insert);
        }
        df.run().unwrap();
        let mut expected: Vec<Tuple> = Vec::new();
        for key in 0..4i64 {
            if let Some(min) = naive.iter().filter(|t| t.0 == key).map(|t| t.1).min() {
                expected.push(ints(&[key, min]));
            }
        }
        expected.sort();
        prop_assert_eq!(df.sink(sink).sorted(), expected);
    }

    /// Batched + coalesced execution is observationally identical to the
    /// per-delta FIFO scheduler (the seed's semantics) on the recursive
    /// transitive-closure network: same sink contents *with counts* and
    /// no residual negative counts, over random insert/delete sequences.
    /// (Deletions of absent edges and duplicate edge insertions are
    /// filtered here — recursion over them need not converge; the
    /// min-view test below covers that regime on an acyclic network.)
    #[test]
    fn batched_scheduler_equivalent_on_tc(evts in events(30), step_runs in any::<bool>()) {
        let (mut batched, b_edge, b_sink) = tc_network(SchedulerMode::Batched);
        let (mut per_delta, p_edge, p_sink) = tc_network(SchedulerMode::PerDelta);
        let mut live: Vec<(i64, i64)> = vec![];
        for (_, a, b, insert) in evts {
            let (a, b) = (a.min(b), a.max(b));
            if a == b {
                continue; // keep the graph acyclic so counting terminates
            }
            // Only delete present edges (a deletion with no matching
            // insertion never converges on a recursive rule).
            let present = live.contains(&(a as i64, b as i64));
            if insert == present {
                continue;
            }
            apply_naive(&mut live, a, b, insert);
            let tup = ints(&[a as i64, b as i64]);
            for (df, input) in [(&mut batched, b_edge), (&mut per_delta, p_edge)] {
                if insert {
                    df.insert(input, tup.clone());
                } else {
                    df.delete(input, tup.clone());
                }
            }
            // Exercise both per-event fixpoints and one big final run.
            if step_runs {
                batched.run().unwrap();
                per_delta.run().unwrap();
            }
        }
        batched.run().unwrap();
        per_delta.run().unwrap();
        prop_assert!(!batched.sink(b_sink).has_negative_counts());
        prop_assert!(!per_delta.sink(p_sink).has_negative_counts());
        prop_assert_eq!(
            sink_counted(&batched, b_sink),
            sink_counted(&per_delta, p_sink)
        );
    }

    /// Same equivalence on the min-view network, where deltas carry
    /// aggregate updates (delete-old/insert-new pairs) — here deletions
    /// of absent tuples are fair game (negative counts just sit in the
    /// aggregate state).
    #[test]
    fn batched_scheduler_equivalent_on_min_view(evts in events(40), step_runs in any::<bool>()) {
        let (mut batched, b_in, b_sink) = min_network(SchedulerMode::Batched);
        let (mut per_delta, p_in, p_sink) = min_network(SchedulerMode::PerDelta);
        for (_, key, val, insert) in evts {
            let tup = ints(&[key as i64, val as i64]);
            for (df, input) in [(&mut batched, b_in), (&mut per_delta, p_in)] {
                if insert {
                    df.insert(input, tup.clone());
                } else {
                    df.delete(input, tup.clone());
                }
            }
            if step_runs {
                batched.run().unwrap();
                per_delta.run().unwrap();
            }
        }
        batched.run().unwrap();
        per_delta.run().unwrap();
        prop_assert!(!batched.sink(b_sink).has_negative_counts());
        prop_assert!(!per_delta.sink(p_sink).has_negative_counts());
        prop_assert_eq!(
            sink_counted(&batched, b_sink),
            sink_counted(&per_delta, p_sink)
        );
    }

    /// Incremental transitive closure == recomputed closure of the final
    /// edge set (acyclic edges: a < b keeps derivation counts finite for
    /// the counting algorithm, as in [14]).
    #[test]
    fn incremental_tc_matches_naive(evts in events(25)) {
        let mut df = Dataflow::new();
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
        let mut naive: Vec<(i64, i64)> = vec![];
        for (_, a, b, insert) in evts {
            let (a, b) = (a.min(b), a.max(b));
            if a == b {
                continue; // no self loops (keeps the graph acyclic)
            }
            let present = naive.contains(&(a as i64, b as i64));
            if insert == present {
                continue; // keep edge multiset a set
            }
            let tup = ints(&[a as i64, b as i64]);
            if insert {
                df.insert(edge, tup);
            } else {
                df.delete(edge, tup);
            }
            apply_naive(&mut naive, a, b, insert);
            df.run().unwrap();
            // Floyd-Warshall style closure over the final edges.
            let mut reach = [[false; 8]; 8];
            for &(x, y) in &naive {
                reach[x as usize][y as usize] = true;
            }
            for k in 0..8 {
                for i in 0..8 {
                    for j in 0..8 {
                        if reach[i][k] && reach[k][j] {
                            reach[i][j] = true;
                        }
                    }
                }
            }
            let mut expected: Vec<Tuple> = Vec::new();
            for (i, row) in reach.iter().enumerate() {
                for (j, &r) in row.iter().enumerate() {
                    if r {
                        expected.push(ints(&[i as i64, j as i64]));
                    }
                }
            }
            expected.sort();
            prop_assert_eq!(df.sink(sink).sorted(), expected, "edges: {:?}", naive);
        }
    }
}
