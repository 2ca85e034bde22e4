//! The substrate on its own: incremental maintenance of a recursive
//! view (transitive closure) and of a min-aggregate with next-best
//! recovery — the two mechanics §4 of the paper builds the incremental
//! optimizer from.
//!
//! ```sh
//! cargo run --release --example datalog_view_maintenance
//! ```

use reopt::datalog::value::ints;
use reopt::datalog::{AggKind, Dataflow, Distinct, GroupAgg, HashJoin, Map, Union};

fn main() {
    // path(x,y) :- edge(x,y).
    // path(x,z) :- path(x,y), edge(y,z).
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
    let paths = df.add_sink(path);

    println!("== recursive view maintenance: transitive closure ==");
    for (a, b) in [(1, 2), (2, 3), (3, 4), (1, 3)] {
        df.insert(edge, ints(&[a, b]));
    }
    let stats = df.run().unwrap();
    println!(
        "base edges inserted: {} paths derived ({} deltas processed)",
        df.sink(paths).len(),
        stats.deltas_processed
    );
    // Delete edge 2->3: derivations through it retract, but 1->3 and
    // 1->4 survive via the 1->3 edge (counting semantics of [14]).
    df.delete(edge, ints(&[2, 3]));
    let stats = df.run().unwrap();
    println!(
        "after deleting edge (2,3): {} paths remain ({} deltas)",
        df.sink(paths).len(),
        stats.deltas_processed
    );
    for t in df.sink(paths).sorted() {
        println!("  path{t:?}");
    }

    // Min-aggregate with next-best recovery — §4.1's BestCost semantics.
    println!("\n== min view maintenance with next-best recovery ==");
    let mut df = Dataflow::new();
    let plan_cost = df.add_input("PlanCost");
    let best = df.add_op(GroupAgg::new(vec![0], 1, AggKind::Min), &[plan_cost]);
    let best_sink = df.add_sink(best);
    for (expr, cost) in [(1, 30), (1, 10), (1, 20)] {
        df.insert(plan_cost, ints(&[expr, cost]));
    }
    df.run().unwrap();
    println!("BestCost after inserts: {:?}", df.sink(best_sink).sorted());
    // Deleting the minimum: the aggregate recovers the second-best from
    // its retained queue and emits an update delta.
    df.delete(plan_cost, ints(&[1, 10]));
    df.run().unwrap();
    println!(
        "BestCost after deleting the minimum: {:?}",
        df.sink(best_sink).sorted()
    );
}
