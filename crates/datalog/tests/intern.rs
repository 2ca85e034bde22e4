//! Dedicated edge-case coverage for the process-wide string interner
//! (`reopt_datalog::intern`): symbol reuse across independent
//! dataflows and threads, guard behaviour at the `u32` id boundary, and
//! the interned-string tuple-packing round trip.

use reopt_datalog::value::{ints, tup, Val};
use reopt_datalog::{Dataflow, Distinct, HashJoin, Sym};

/// Symbols are process-wide: two independently built dataflows intern
/// the same strings to the same ids, so tuples flow between them (and
/// join against each other) by value.
#[test]
fn symbols_are_shared_across_dataflows() {
    let scan = Val::str("intern-test-scan");
    let build = || {
        let mut df = Dataflow::new();
        let input = df.add_input("ops");
        let distinct = df.add_op(Distinct::new(), &[input]);
        let sink = df.add_sink(distinct);
        (df, input, sink)
    };
    let (mut a, a_in, a_sink) = build();
    let (mut b, b_in, b_sink) = build();
    a.insert(a_in, tup([scan, Val::Int(1)]));
    // The second dataflow re-interns the same text independently.
    b.insert(b_in, tup([Val::str("intern-test-scan"), Val::Int(1)]));
    a.run().unwrap();
    b.run().unwrap();
    assert_eq!(a.sink(a_sink).sorted(), b.sink(b_sink).sorted());
    // And the sink tuples carry the *same* symbol id.
    let from_a = a.sink(a_sink).sorted()[0].get(0).as_sym();
    let from_b = b.sink(b_sink).sorted()[0].get(0).as_sym();
    assert_eq!(from_a.id(), from_b.id());
}

/// Interning the same string from several threads yields one id — the
/// table is a single process-wide map behind a lock.
#[test]
fn concurrent_interning_is_idempotent() {
    let ids: Vec<u32> = std::thread::scope(|s| {
        (0..4)
            .map(|_| s.spawn(|| Sym::intern("intern-test-threaded").id()))
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect()
    });
    assert!(ids.windows(2).all(|w| w[0] == w[1]), "ids diverged: {ids:?}");
}

/// Round trip near the top of the id space: a symbol fabricated at
/// `u32::MAX` packs into a tuple word and unpacks to the same id (the
/// `u32 → i64 → u32` cast chain loses nothing), without ever resolving
/// the (nonexistent) table entry.
#[test]
fn id_boundary_packs_round_trip() {
    for id in [u32::MAX, u32::MAX - 1, 1 << 31] {
        let sym = Sym::from_id(id);
        assert_eq!(sym.id(), id);
        let t = tup([Val::Str(sym), Val::Int(7)]);
        assert_eq!(t.get(0), Val::Str(sym));
        assert_eq!(t.get(0).as_sym().id(), id);
        // Equality and hashing work on the packed id alone.
        assert_eq!(t, tup([Val::Str(Sym::from_id(id)), Val::Int(7)]));
        assert_ne!(t, tup([Val::Str(Sym::from_id(id ^ 1)), Val::Int(7)]));
    }
}

/// Resolving a fabricated id that was never interned panics (the guard
/// against aliasing a real symbol) instead of returning garbage.
#[test]
fn fabricated_id_resolution_panics() {
    let result = std::panic::catch_unwind(|| Sym::from_id(u32::MAX).resolve());
    assert!(result.is_err(), "resolve of a fabricated id must panic");
}

/// Interned strings pack inline and survive the projection/concat
/// round trip taken by join outputs, across the inline/spilled
/// representation boundary.
#[test]
fn interned_tuple_packing_round_trip() {
    let op = Val::str("intern-test-hash-join");
    let wide = tup([op, Val::Int(1), Val::Int(2), Val::Int(3)])
        .concat(&tup([Val::str("intern-test-tail")]));
    assert_eq!(wide.len(), 5); // spilled
    let narrow = wide.project(&[0, 4]); // re-packed inline
    assert_eq!(narrow.get(0), op);
    assert_eq!(narrow.get(1), Val::str("intern-test-tail"));
    assert_eq!(&*narrow.get(0).as_sym().resolve(), "intern-test-hash-join");
    // Key hashing agrees across representations, so a string-keyed
    // join matches spilled build tuples against inline probes.
    assert_eq!(wide.hash_cols(&[0]), narrow.hash_cols(&[0]));
    let mut df = Dataflow::new();
    let l = df.add_input("l");
    let r = df.add_input("r");
    let (la, lh) = df.add_arrange(l, vec![0]);
    let (ra, rh) = df.add_arrange(r, vec![0]);
    let join = df.add_op(HashJoin::new(lh, rh), &[la, ra]);
    let sink = df.add_sink(join);
    df.insert(l, wide.clone());
    df.insert(r, narrow.clone());
    df.run().unwrap();
    assert_eq!(df.sink(sink).sorted(), vec![wide.concat(&narrow)]);
}

/// Symbol ordering stays lexicographic through tuple comparisons even
/// when interning order disagrees with it (ids ascend, strings do not).
#[test]
fn tuple_ordering_follows_strings_not_ids() {
    let late = Val::str("intern-test-0b-late");
    let early = Val::str("intern-test-0z-early");
    assert!(late.as_sym().id() < early.as_sym().id() || late < early);
    assert!(tup([late]) < tup([early]));
    assert!(ints(&[5]) < tup([late])); // Int < Str in the Val order
}
