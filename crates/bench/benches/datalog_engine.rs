//! Criterion micro-benchmarks for the delta-processing dataflow
//! substrate: transitive-closure maintenance and min-view maintenance,
//! the primitive operations the declarative optimizer's rules reduce to.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use reopt_datalog::{
    AggKind, Dataflow, Distinct, GroupAgg, HashJoin, Map, NodeId, SinkId, Union,
};
use reopt_datalog::value::ints;

fn tc_dataflow() -> (Dataflow, NodeId, SinkId) {
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
    (df, edge, sink)
}

fn datalog_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("datalog_engine");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));
    group.bench_function("transitive_closure_chain_64", |b| {
        b.iter(|| {
            let (mut df, edge, sink) = tc_dataflow();
            for i in 0..64i64 {
                df.insert(edge, ints(&[i, i + 1]));
            }
            df.run().unwrap();
            df.sink(sink).len()
        })
    });
    group.bench_function("tc_incremental_bridge_edge", |b| {
        // Pre-build two chains, then repeatedly insert/delete a bridge.
        let (mut df, edge, sink) = tc_dataflow();
        for i in 0..20i64 {
            df.insert(edge, ints(&[i, i + 1]));
            df.insert(edge, ints(&[100 + i, 101 + i]));
        }
        df.run().unwrap();
        let mut present = false;
        b.iter(|| {
            if present {
                df.delete(edge, ints(&[20, 100]));
            } else {
                df.insert(edge, ints(&[20, 100]));
            }
            present = !present;
            df.run().unwrap();
            df.sink(sink).len()
        })
    });
    group.bench_function("tc_batch_churn_32", |b| {
        // A churn slice queued as one batch: delete 32 edges and
        // re-insert them shifted, all before a single `run`. The batched
        // scheduler coalesces the overlap in the queue; the per-delta
        // seed replayed every retraction cascade.
        let (mut df, edge, sink) = tc_dataflow();
        for i in 0..64i64 {
            df.insert(edge, ints(&[i, i + 1]));
        }
        df.run().unwrap();
        let mut phase = 0i64;
        b.iter(|| {
            let (del, ins) = if phase == 0 { (0, 1) } else { (1, 0) };
            phase ^= 1;
            for i in (0..64i64).step_by(2) {
                df.delete(edge, ints(&[i + del, i + del + 1]));
                df.insert(edge, ints(&[i + ins, i + ins + 1]));
            }
            df.run().unwrap();
            df.sink(sink).len()
        })
    });
    group.bench_function("min_view_maintenance_1k", |b| {
        let mut df = Dataflow::new();
        let costs = df.add_input("costs");
        let agg = df.add_op(GroupAgg::new(vec![0], 1, AggKind::Min), &[costs]);
        let sink = df.add_sink(agg);
        for i in 0..1000i64 {
            df.insert(costs, ints(&[i % 50, 1000 - i]));
        }
        df.run().unwrap();
        let mut i = 0i64;
        b.iter(|| {
            i += 1;
            df.insert(costs, ints(&[i % 50, -i]));
            df.delete(costs, ints(&[(i - 1) % 50, -(i - 1)]));
            df.run().unwrap();
            df.sink(sink).len()
        })
    });
    group.finish();
}

criterion_group!(benches, datalog_engine);
criterion_main!(benches);
