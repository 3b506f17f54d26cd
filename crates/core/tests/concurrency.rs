//! Concurrency correctness of the frozen-snapshot query-serving path.
//!
//! Two properties are pinned down here:
//!
//! * **Differential**: `execute_batch` over a store snapshot, at any
//!   fan-out width, returns *byte-identical* results to a store
//!   executing the same queries one by one on the deterministic
//!   single-threaded evaluator. (Decoded solutions are deterministic
//!   even though raw Skolem `TermId`s are interned in scheduling order —
//!   extraction renders them structurally.)
//! * **Hammer**: one `Snapshot` serving 8 OS threads that all
//!   translate, evaluate and extract concurrently (mixing cache hits,
//!   cache misses and batches) never produces a result that differs
//!   from the sequential reference.

use sparqlog::{QueryResults, Store};

/// A dataset with enough shape to exercise joins, recursion, OPTIONAL
/// and filters: a chain with shortcuts, typed people, and labels.
fn turtle() -> String {
    let mut src = String::from("@prefix ex: <http://ex.org/> .\n");
    for i in 0..60 {
        src.push_str(&format!("ex:n{i} ex:next ex:n{} .\n", (i + 1) % 60));
        if i % 5 == 0 {
            src.push_str(&format!("ex:n{i} ex:next ex:n{} .\n", (i * 2 + 3) % 60));
        }
        if i % 3 == 0 {
            src.push_str(&format!("ex:n{i} ex:label \"node {i}\" .\n"));
        }
        if i % 4 == 0 {
            src.push_str(&format!("ex:n{i} ex:type ex:Hub .\n"));
        }
    }
    src
}

fn queries() -> Vec<String> {
    let mut qs = vec![
        // Plain join.
        "PREFIX ex: <http://ex.org/>
         SELECT ?a ?b WHERE { ?a ex:next ?b . ?b ex:type ex:Hub }"
            .to_string(),
        // Recursion (set semantics) from a fixed start.
        "PREFIX ex: <http://ex.org/>
         SELECT ?z WHERE { ex:n0 ex:next+ ?z }"
            .to_string(),
        // OPTIONAL with unbound cells.
        "PREFIX ex: <http://ex.org/>
         SELECT ?a ?l WHERE { ?a ex:type ex:Hub . OPTIONAL { ?a ex:label ?l } }"
            .to_string(),
        // FILTER + DISTINCT.
        "PREFIX ex: <http://ex.org/>
         SELECT DISTINCT ?b WHERE { ?a ex:next ?b . FILTER (?a != ?b) }"
            .to_string(),
        // ASK.
        "PREFIX ex: <http://ex.org/> ASK { ex:n5 ex:next ?x }".to_string(),
        // UNION.
        "PREFIX ex: <http://ex.org/>
         SELECT ?x WHERE { { ?x ex:type ex:Hub } UNION { ?x ex:label ?l } }"
            .to_string(),
    ];
    // Repeat some shapes so the batch exercises translation-cache hits.
    qs.push(qs[1].clone());
    qs.push(qs[0].clone());
    qs
}

/// A store over [`turtle`] evaluating at `threads` workers.
fn store(threads: usize) -> Store {
    let store = Store::new();
    store.set_threads(Some(threads));
    store.load_turtle(&turtle()).unwrap();
    store
}

/// The sequential reference: one query at a time, pinned
/// single-threaded.
fn sequential_results(qs: &[String]) -> Vec<QueryResults> {
    let store = store(1);
    qs.iter().map(|q| store.execute(q).unwrap()).collect()
}

#[test]
fn batch_is_byte_identical_to_sequential_at_every_width() {
    let qs = queries();
    let expected = sequential_results(&qs);
    for threads in [1usize, 2, 4, 8] {
        let frozen = store(threads).snapshot();
        let refs: Vec<&str> = qs.iter().map(String::as_str).collect();
        let got = frozen.execute_batch(&refs);
        for (i, (g, e)) in got.iter().zip(&expected).enumerate() {
            assert_eq!(
                g.as_ref().unwrap(),
                e,
                "threads={threads}, query #{i}: batch differs from sequential"
            );
        }
    }
}

#[test]
fn repeated_batches_are_stable_under_cache_reuse() {
    let qs = queries();
    let refs: Vec<&str> = qs.iter().map(String::as_str).collect();
    let frozen = store(4).snapshot();
    let first = frozen.execute_batch(&refs);
    for round in 0..3 {
        let again = frozen.execute_batch(&refs);
        for (i, (a, b)) in again.iter().zip(&first).enumerate() {
            assert_eq!(
                a.as_ref().unwrap(),
                b.as_ref().unwrap(),
                "round {round}, query #{i}: cached translation changed the result"
            );
        }
    }
    // 6 distinct texts were translated once each; 2 were repeats.
    assert_eq!(frozen.cached_translations(), 6);
}

#[test]
fn hammer_one_frozen_database_from_eight_threads() {
    let qs = queries();
    let expected = sequential_results(&qs);
    let frozen = store(1).snapshot();

    std::thread::scope(|s| {
        for k in 0..8usize {
            let (frozen, qs, expected) = (&frozen, &qs, &expected);
            s.spawn(move || {
                for round in 0..6 {
                    // Each thread walks the query list at its own offset,
                    // so cache misses, hits and concurrent first-sightings
                    // of the same text all happen.
                    let i = (k + round) % qs.len();
                    let got = frozen.execute(&qs[i]).unwrap();
                    assert_eq!(got, expected[i], "thread {k}, query #{i}");
                    if round == 3 {
                        // And a nested batch mid-hammer.
                        let pair = [qs[i].as_str(), qs[(i + 1) % qs.len()].as_str()];
                        let batch = frozen.execute_batch(&pair);
                        assert_eq!(batch[0].as_ref().unwrap(), &expected[i]);
                        assert_eq!(batch[1].as_ref().unwrap(), &expected[(i + 1) % qs.len()]);
                    }
                }
            });
        }
    });
}
