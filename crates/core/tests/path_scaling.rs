//! A property path with a constant endpoint derives rows in proportion
//! to the edges it can reach, not to the square of the nodes: T_Q grows
//! the closure from the bound end. Each graph is a ring plus one
//! pseudo-random chord per node, so every node is reachable from every
//! other; the budget caps staged rows at the same multiple of the edges
//! the derived rows are held to, so a quadratic closure aborts instead of
//! running long. The test counts rows; it never measures time.

use sparqlog::{Budget, Store};

/// `n` ring edges `p{i} knows p{i+1 mod n}` plus one xorshift chord per
/// node, as N-Triples; returns the text and its distinct edge count.
fn ring_with_chords(n: usize) -> (String, usize) {
    let mut state: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut edges = std::collections::BTreeSet::new();
    for i in 0..n {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        edges.insert((i, (i + 1) % n));
        edges.insert((i, (state % n as u64) as usize));
    }
    let mut text = String::new();
    for (s, o) in &edges {
        text.push_str(&format!(
            "<http://ex.org/p{s}> <http://ex.org/knows> <http://ex.org/p{o}> .\n"
        ));
    }
    (text, edges.len())
}

#[test]
fn bound_closure_rows_grow_with_the_edges() {
    for n in [250, 1_000, 4_000, 16_000] {
        let (text, edges) = ring_with_chords(n);
        let store = Store::new();
        store.load_ntriples(&text).unwrap();
        let cap = 4 * edges;
        for q in [
            "SELECT ?y WHERE { <http://ex.org/p0> <http://ex.org/knows>+ ?y }",
            "SELECT ?x WHERE { ?x <http://ex.org/knows>* <http://ex.org/p0> }",
        ] {
            let (results, profile) = store
                .snapshot()
                .with_budget(Budget::new().with_max_rows(cap))
                .execute_profiled(q)
                .unwrap_or_else(|e| panic!("{n} nodes, {q}: {e}"));
            assert_eq!(results.len(), n, "{n} nodes, {q}: every node is reachable");
            let derived: u64 = profile.rules.iter().map(|r| r.derived).sum();
            assert!(
                derived <= cap as u64,
                "{n} nodes, {q}: {derived} rows derived over {edges} edges"
            );
        }
    }
}
