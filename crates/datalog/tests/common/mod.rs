//! Shared generators for the differential and chaos harnesses: random
//! operator networks over all operator kinds, instantiated under any
//! scheduler/fusion mode, a from-scratch evaluator that computes what
//! their sinks must hold, plus set-like input event streams.
#![allow(dead_code)]

use std::collections::{BTreeMap, HashMap};

use proptest::prelude::*;

use reopt_datalog::value::{Tuple, Val};
use reopt_datalog::{
    AggKind, ArrangementHandle, Dataflow, Distinct, GroupAgg, HashJoin, Map, NodeId, SchedulerMode,
    SinkId, Union,
};

/// One randomly generated operator stage. Input indices select from the
/// pool `[input0, input1, stage0, stage1, ...]` (mod pool size), so
/// every generated graph is a well-formed DAG over binary tuples.
#[derive(Clone, Debug)]
pub enum StageGen {
    /// Column swap — a pure projection.
    Swap(u8),
    /// Parity filter on column 0.
    Filter(u8, bool),
    /// Arithmetic map: `(c0, c1 + k)`.
    Shift(u8, i8),
    /// Equi-join on column 0 with a fused output projection back to a
    /// binary tuple.
    Join(u8, u8),
    Union(u8, u8),
    Distinct(u8),
    Agg(u8, u8),
}

/// A full network description: stages plus which stage outputs get
/// materialized (the last stage always does).
#[derive(Clone, Debug)]
pub struct NetGen {
    pub stages: Vec<StageGen>,
    pub sink_flags: Vec<bool>,
}

pub fn stage_gen() -> impl Strategy<Value = StageGen> {
    (0u8..7, any::<u8>(), any::<u8>(), any::<bool>(), any::<i8>()).prop_map(
        |(kind, a, b, flag, k)| match kind {
            0 => StageGen::Swap(a),
            1 => StageGen::Filter(a, flag),
            2 => StageGen::Shift(a, k),
            3 => StageGen::Join(a, b),
            4 => StageGen::Union(a, b),
            5 => StageGen::Distinct(a),
            _ => StageGen::Agg(a, b),
        },
    )
}

pub fn net_gen(max_stages: usize) -> impl Strategy<Value = NetGen> {
    (1..=max_stages).prop_flat_map(move |n| {
        (
            proptest::collection::vec(stage_gen(), n),
            proptest::collection::vec(any::<bool>(), n),
        )
            .prop_map(|(stages, sink_flags)| NetGen { stages, sink_flags })
    })
}

/// Instantiates the described network under one scheduler/fusion
/// mode. Every join input gets an `Arrange` node keyed on column 0,
/// deduplicated per source node, except a self-join's right side,
/// which is arranged a second time (one arrangement must never feed
/// both ports of a join).
pub fn build(
    gen: &NetGen,
    mode: SchedulerMode,
    fusion: bool,
) -> (Dataflow, [NodeId; 2], Vec<SinkId>) {
    let mut df = Dataflow::with_mode(mode);
    df.set_fusion(fusion);
    let inputs = [df.add_input("r"), df.add_input("s")];
    let mut pool: Vec<NodeId> = inputs.to_vec();
    let mut sinks = Vec::new();
    let mut arrangements: HashMap<NodeId, (NodeId, ArrangementHandle)> = HashMap::new();
    let last = gen.stages.len() - 1;
    for (i, stage) in gen.stages.iter().enumerate() {
        let pick = |sel: u8| pool[sel as usize % pool.len()];
        let node = match stage {
            StageGen::Swap(a) => df.add_op(Map::project(vec![1, 0]), &[pick(*a)]),
            StageGen::Filter(a, parity) => {
                let want = i64::from(*parity);
                df.add_op(
                    Map::filter(move |t| t.get(0).as_int().rem_euclid(2) == want),
                    &[pick(*a)],
                )
            }
            StageGen::Shift(a, k) => {
                let k = *k as i64;
                df.add_op(
                    Map::new(move |t| {
                        Some(Tuple::new(vec![t.get(0), Val::Int(t.get(1).as_int() + k)]))
                    }),
                    &[pick(*a)],
                )
            }
            StageGen::Join(a, b) => {
                let (l, r) = (pick(*a), pick(*b));
                // Key on column 0; project the virtual concat back to a
                // binary tuple (left payload, right payload).
                let (l_node, l_handle) = arrangements
                    .entry(l)
                    .or_insert_with(|| df.add_arrange(l, vec![0]))
                    .clone();
                let (r_node, r_handle) = if r == l {
                    df.add_arrange(r, vec![0])
                } else {
                    arrangements
                        .entry(r)
                        .or_insert_with(|| df.add_arrange(r, vec![0]))
                        .clone()
                };
                let join = HashJoin::with_projection(l_handle, r_handle, vec![1, 3]);
                df.add_op(join, &[l_node, r_node])
            }
            StageGen::Union(a, b) => df.add_op(Union::new(2), &[pick(*a), pick(*b)]),
            StageGen::Distinct(a) => df.add_op(Distinct::new(), &[pick(*a)]),
            StageGen::Agg(a, kind) => {
                let kind = match kind % 4 {
                    0 => AggKind::Min,
                    1 => AggKind::Max,
                    2 => AggKind::Sum,
                    _ => AggKind::Count,
                };
                df.add_op(GroupAgg::new(vec![0], 1, kind), &[pick(*a)])
            }
        };
        if gen.sink_flags[i] || i == last {
            sinks.push(df.add_sink(node));
        }
        pool.push(node);
    }
    (df, inputs, sinks)
}

/// A bag of binary tuples: tuple → count.
type Bag = BTreeMap<(i64, i64), i64>;

/// Evaluates `gen` from scratch over the final input sets `inputs[0]`
/// (`r`) and `inputs[1]` (`s`) — the semantic reference every scheduler
/// mode must reach at its fixpoint. Bag semantics: maps and filters
/// keep counts, a join multiplies them (projecting `[1,3]`), a union
/// adds them, `Distinct` keeps each positive tuple once, and the
/// aggregate emits `(key, aggregate)` once per non-empty group (the
/// documented `GroupAgg` semantics). Returns the counted, sorted
/// contents of every sink, in [`build`]'s sink order.
pub fn naive(gen: &NetGen, inputs: &[Vec<(i64, i64)>; 2]) -> Vec<Vec<(Tuple, i64)>> {
    let map = |bag: &Bag, f: &dyn Fn(i64, i64) -> Option<(i64, i64)>| {
        let mut out = Bag::new();
        for (&(a, b), &c) in bag {
            if let Some(t) = f(a, b) {
                *out.entry(t).or_default() += c;
            }
        }
        out
    };
    let mut pool: Vec<Bag> = inputs
        .iter()
        .map(|rows| rows.iter().map(|&row| (row, 1)).collect())
        .collect();
    let mut sinks = Vec::new();
    let last = gen.stages.len() - 1;
    for (i, stage) in gen.stages.iter().enumerate() {
        let pick = |sel: u8| &pool[sel as usize % pool.len()];
        let mut bag = match stage {
            StageGen::Swap(a) => map(pick(*a), &|x, y| Some((y, x))),
            StageGen::Filter(a, parity) => {
                let want = i64::from(*parity);
                map(pick(*a), &|x, y| {
                    (x.rem_euclid(2) == want).then_some((x, y))
                })
            }
            StageGen::Shift(a, k) => map(pick(*a), &|x, y| Some((x, y + *k as i64))),
            StageGen::Join(a, b) => {
                let mut out = Bag::new();
                for (&(lk, lv), &lc) in pick(*a) {
                    for (&(rk, rv), &rc) in pick(*b) {
                        if lk == rk {
                            *out.entry((lv, rv)).or_default() += lc * rc;
                        }
                    }
                }
                out
            }
            StageGen::Union(a, b) => {
                let mut out = pick(*a).clone();
                for (&t, &c) in pick(*b) {
                    *out.entry(t).or_default() += c;
                }
                out
            }
            StageGen::Distinct(a) => pick(*a)
                .iter()
                .filter(|(_, &c)| c > 0)
                .map(|(&t, _)| (t, 1))
                .collect(),
            StageGen::Agg(a, kind) => {
                let mut groups: BTreeMap<i64, Vec<(i64, i64)>> = BTreeMap::new();
                for (&(k, v), &c) in pick(*a) {
                    if c > 0 {
                        groups.entry(k).or_default().push((v, c));
                    }
                }
                groups
                    .into_iter()
                    .map(|(k, vals)| {
                        let agg = match kind % 4 {
                            0 => vals.iter().map(|&(v, _)| v).min().unwrap(),
                            1 => vals.iter().map(|&(v, _)| v).max().unwrap(),
                            2 => vals.iter().map(|&(v, c)| v * c).sum(),
                            _ => vals.iter().map(|&(_, c)| c).sum(),
                        };
                        ((k, agg), 1)
                    })
                    .collect()
            }
        };
        bag.retain(|_, c| *c != 0);
        if gen.sink_flags[i] || i == last {
            let mut rows: Vec<(Tuple, i64)> = bag
                .iter()
                .filter(|(_, &c)| c > 0)
                .map(|(&(a, b), &c)| (Tuple::new(vec![Val::Int(a), Val::Int(b)]), c))
                .collect();
            rows.sort();
            sinks.push(rows);
        }
        pool.push(bag);
    }
    sinks
}

/// Sink contents with multiplicities, sorted — the observational state
/// all modes must agree on.
pub fn sink_counted(df: &Dataflow, sink: SinkId) -> Vec<(Tuple, i64)> {
    let mut v: Vec<(Tuple, i64)> = df.sink(sink).iter().map(|(t, c)| (t.clone(), c)).collect();
    v.sort();
    v
}

/// A raw event: (input selector, key, payload, insert?).
pub type Event = (bool, u8, u8, bool);

pub fn events(max: usize) -> impl Strategy<Value = Vec<Event>> {
    proptest::collection::vec((any::<bool>(), 0u8..4, 0u8..6, any::<bool>()), 1..max)
}
