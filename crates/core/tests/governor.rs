//! The execution governor at the serving layer (PR 7): budgets and
//! cancellation through `Store` / `Snapshot::with_budget`, batch
//! sibling cancellation, panic containment, and — the critical property —
//! that a storm of aborted queries leaves no shared-state corruption
//! behind: the same snapshot then answers every query byte-identically
//! to an uncancelled run.

use std::time::{Duration, Instant};

use sparqlog::{
    AbortReason, Axiom, Budget, CancelToken, Ontology, QueryResults, SparqLogError, Store,
};

/// A ring with shortcuts: recursive property paths over it derive the
/// full closure, expensive enough that a 1 ms deadline always interrupts.
fn ring_store(n: usize) -> Store {
    let mut src = String::from("@prefix ex: <http://ex.org/> .\n");
    for i in 0..n {
        src.push_str(&format!("ex:n{i} ex:next ex:n{} .\n", (i + 1) % n));
        if i % 7 == 0 {
            src.push_str(&format!("ex:n{i} ex:next ex:n{} .\n", (i * 3 + 1) % n));
        }
    }
    let store = Store::new();
    store.load_turtle(&src).unwrap();
    store
}

/// Query shapes of varying weight; the recursive ones are the heavy
/// hitters a tight deadline is guaranteed to catch.
fn queries(n: usize) -> Vec<String> {
    (0..n)
        .map(|i| match i % 4 {
            0 => "PREFIX ex: <http://ex.org/> SELECT ?a ?b WHERE { ?a ex:next+ ?b }".to_string(),
            1 => format!(
                "PREFIX ex: <http://ex.org/> SELECT ?z WHERE {{ ex:n{} ex:next+ ?z }}",
                i % 20
            ),
            2 => "PREFIX ex: <http://ex.org/> SELECT ?a ?b ?c WHERE { ?a ex:next ?b . ?b ex:next ?c }"
                .to_string(),
            _ => format!(
                "PREFIX ex: <http://ex.org/> ASK {{ ex:n0 ex:next+ ex:n{} }}",
                i % 20
            ),
        })
        .collect()
}

/// The acceptance stress test: 100 concurrent queries under 1 ms
/// deadlines against a live snapshot — at one worker and at the default
/// width — then the differential check: the very same snapshot re-answers
/// every query (uncapped) identically to a reference computed before the
/// storm. Aborts must be invisible to later queries.
#[test]
fn deadline_storm_leaves_no_corruption() {
    let store = ring_store(150);
    let qs = queries(100);
    let refs: Vec<&str> = qs.iter().map(String::as_str).collect();
    let snapshot = store.snapshot();

    // Reference results from before any abort ever happened — one per
    // distinct text (the storm repeats shapes; re-proving identical
    // results once per text is the same differential at a fraction of
    // the cost).
    let mut distinct: Vec<&str> = Vec::new();
    for q in &refs {
        if !distinct.contains(q) {
            distinct.push(q);
        }
    }
    let expected: Vec<QueryResults> = distinct
        .iter()
        .map(|q| snapshot.execute(q).unwrap())
        .collect();

    let deadline = Budget::new().with_timeout(Duration::from_millis(1));
    for threads in [Some(1), None] {
        store.set_threads(threads);
        let stormed = store.snapshot();
        let results = stormed.with_budget(deadline.clone()).execute_batch(&refs);
        assert_eq!(results.len(), refs.len());
        let mut aborted = 0usize;
        for (i, r) in results.iter().enumerate() {
            match r {
                Ok(_) => {}
                Err(e @ SparqLogError::Aborted { .. }) => {
                    assert!(e.is_aborted());
                    aborted += 1;
                }
                Err(other) => panic!("query #{i}: unexpected error {other:?}"),
            }
        }
        // The full-closure queries cannot finish in 1 ms.
        assert!(aborted > 0, "storm at threads {threads:?} aborted nothing");

        // Differential re-run on the stormed snapshot: byte-identical.
        for (i, (q, e)) in distinct.iter().zip(&expected).enumerate() {
            assert_eq!(
                &stormed.execute(q).unwrap(),
                e,
                "query #{i} differs after the storm at threads {threads:?}"
            );
        }
    }
}

/// Deterministic sibling cancellation: at fan-out width 1 the batch runs
/// in input order, so when query 0 trips its row cap the group token is
/// already cancelled by the time the (expensive) siblings start — they
/// abort at their entry check instead of burning their own budgets.
#[test]
fn first_abort_cancels_batch_siblings() {
    let store = ring_store(150);
    store.set_threads(Some(1));
    let heavy = "PREFIX ex: <http://ex.org/> SELECT ?a ?b WHERE { ?a ex:next+ ?b }";
    let refs = [heavy; 6];
    let budget = Budget::new().with_max_rows(2_000);
    let start = Instant::now();
    let results = store.snapshot().with_budget(budget).execute_batch(&refs);
    let elapsed = start.elapsed();
    match &results[0] {
        Err(SparqLogError::Aborted {
            reason: AbortReason::RowLimit,
            rows_derived,
            ..
        }) => assert!(*rows_derived > 2_000),
        other => panic!("query 0 should trip its own row cap, got {other:?}"),
    }
    for (i, r) in results.iter().enumerate().skip(1) {
        match r {
            Err(SparqLogError::Aborted {
                reason: AbortReason::Cancelled,
                ..
            }) => {}
            other => panic!("sibling #{i} should be group-cancelled, got {other:?}"),
        }
    }
    // Siblings died at their entry checks — the batch cost ~one abort,
    // not six row-cap runs.
    assert!(elapsed < Duration::from_secs(5), "batch took {elapsed:?}");
}

/// Ordinary per-query failures must NOT cancel siblings: a parse error
/// in one slot leaves the others' results intact, budget or not.
#[test]
fn parse_error_does_not_cancel_siblings() {
    let store = ring_store(30);
    let ok = "PREFIX ex: <http://ex.org/> SELECT ?z WHERE { ex:n0 ex:next ?z }";
    let results = store
        .snapshot()
        .with_budget(Budget::new().with_timeout(Duration::from_secs(30)))
        .execute_batch(&["this is not sparql", ok]);
    assert!(matches!(results[0], Err(SparqLogError::Parse(_))));
    assert!(!results[1].as_ref().unwrap().is_empty());
}

/// External cancellation reaches every query of a batch through the
/// budget's token (the group token is chained under it).
#[test]
fn external_token_cancels_whole_batch() {
    let store = ring_store(30);
    let cancel = CancelToken::new();
    cancel.cancel(); // already fired: every job aborts at entry
    let q = "PREFIX ex: <http://ex.org/> SELECT ?a ?b WHERE { ?a ex:next+ ?b }";
    let results = store
        .snapshot()
        .with_budget(Budget::new().with_cancel(cancel))
        .execute_batch(&[q, q, q]);
    for r in &results {
        assert!(
            matches!(
                r,
                Err(SparqLogError::Aborted {
                    reason: AbortReason::Cancelled,
                    ..
                })
            ),
            "got {r:?}"
        );
    }
}

/// One poisoned query in a batch (injected panic) comes back as an
/// internal error in its own slot; every sibling's result is intact and
/// correct, and the store keeps serving afterwards. The panic comes from
/// `serving.rs`'s `panic_marker_hook`, which only debug builds compile.
#[test]
#[cfg(debug_assertions)]
fn poisoned_query_in_batch_leaves_siblings_intact() {
    let store = ring_store(30);
    let ok = "PREFIX ex: <http://ex.org/> SELECT ?z WHERE { ex:n0 ex:next ?z }";
    let poisoned = "PREFIX ex: <http://ex.org/> # XPOISONX
                    SELECT ?z WHERE { ex:n0 ex:next ?z }";
    let expected = store.execute(ok).unwrap();
    std::env::set_var("SPARQLOG_PANIC_MARKER", "XPOISONX");
    let results = store.snapshot().execute_batch(&[ok, poisoned, ok, ok]);
    std::env::remove_var("SPARQLOG_PANIC_MARKER");
    match &results[1] {
        Err(SparqLogError::Eval(e)) => {
            let msg = e.to_string();
            assert!(msg.contains("panicked"), "unexpected message: {msg}");
        }
        other => panic!("poisoned slot should be an internal error, got {other:?}"),
    }
    for i in [0usize, 2, 3] {
        assert_eq!(results[i].as_ref().unwrap(), &expected, "sibling #{i}");
    }
    // The pool survived the panic; the store still answers.
    assert_eq!(store.execute(ok).unwrap(), expected);
}

/// The store-wide default budget governs plain `execute`; a per-call
/// budget overrides it in both directions.
#[test]
fn store_default_budget_governs_and_is_overridable() {
    let store = ring_store(150);
    let heavy = "PREFIX ex: <http://ex.org/> SELECT ?a ?b WHERE { ?a ex:next+ ?b }";
    store.set_default_budget(Budget::new().with_max_rows(1_000));
    let err = store.execute(heavy).unwrap_err();
    assert!(
        matches!(
            err,
            SparqLogError::Aborted {
                reason: AbortReason::RowLimit,
                ..
            }
        ),
        "got {err:?}"
    );
    // Per-call override lifts the default cap...
    let full = store
        .snapshot()
        .with_budget(Budget::new())
        .execute(heavy)
        .unwrap();
    assert!(!full.is_empty());
    // ...and a per-call cap tightens an unlimited default.
    store.set_default_budget(Budget::new());
    assert!(store
        .snapshot()
        .with_budget(Budget::new().with_max_rows(1_000))
        .execute(heavy)
        .unwrap_err()
        .is_aborted());
    assert_eq!(store.execute(heavy).unwrap(), full);
}

/// Prepared queries honour per-call budgets too, and the handle stays
/// valid after an abort.
#[test]
fn prepared_query_with_budget() {
    let store = ring_store(150);
    let text = "PREFIX ex: <http://ex.org/> SELECT ?a ?b WHERE { ?a ex:next+ ?b }";
    let q = store.prepare(text).unwrap();
    let snapshot = store.snapshot();
    let err = snapshot
        .with_budget(Budget::new().with_max_rows(500))
        .execute_prepared(&q)
        .unwrap_err();
    assert!(err.is_aborted());
    let batch = snapshot
        .with_budget(Budget::new().with_max_rows(500))
        .execute_batch(&[text, text]);
    assert!(batch.iter().all(|r| r.as_ref().is_err()));
    // Unbudgeted execution of the same handle still completes.
    assert!(!snapshot.execute_prepared(&q).unwrap().is_empty());
}

/// The deadline also governs the magic-sets path: the query's budget is
/// armed once, so the demand measurement its first execution runs and
/// the main fixpoint share one clock instead of each starting its own.
#[test]
fn deadline_governs_magic_sets_path() {
    // A 1 000-node chain from ex:n0 beside a 3 000-node chain it never
    // reaches: demand from ex:n0 is a minority of the graph, so planning
    // keeps the rewrite, and the restricted closure takes ~0.1 s even in
    // a release build.
    let mut src = String::from("@prefix ex: <http://ex.org/> .\n");
    for (name, n) in [("n", 1_000), ("m", 3_000)] {
        for i in 0..n {
            src.push_str(&format!("ex:{name}{i} ex:next ex:{name}{} .\n", i + 1));
        }
    }
    let store = Store::new();
    store.load_turtle(&src).unwrap();
    // The filter binds the closure only after translation, so T_Q emits
    // the binary closure and the magic pass restricts it.
    let q = store
        .prepare(
            "PREFIX ex: <http://ex.org/> SELECT ?y WHERE { ?x ex:next+ ?y FILTER (?x = ex:n0) }",
        )
        .unwrap();
    let snapshot = store.snapshot();
    let start = Instant::now();
    match snapshot
        .with_budget(Budget::new().with_timeout(Duration::from_millis(1)))
        .execute_prepared(&q)
        .unwrap_err()
    {
        SparqLogError::Aborted {
            reason: AbortReason::Deadline,
            ..
        } => assert!(start.elapsed() < Duration::from_millis(50)),
        other => panic!("expected deadline abort, got {other:?}"),
    }
    assert!(
        snapshot.explain(&q).unwrap().contains("__magic"),
        "the query runs the magic-sets rewrite"
    );
}

/// `SparqLogError`'s std::error integration: `Display` names the tripped
/// limit and how far execution got, `source()` exposes inner errors, and
/// `is_timeout()` covers governor deadline aborts.
#[test]
fn abort_error_is_actionable() {
    use std::error::Error;
    let store = ring_store(150);
    let heavy = "PREFIX ex: <http://ex.org/> SELECT ?a ?b WHERE { ?a ex:next+ ?b }";

    let err = store
        .snapshot()
        .with_budget(Budget::new().with_max_rows(1_000))
        .execute(heavy)
        .unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("derived-row limit"), "message: {msg}");
    assert!(msg.contains("rows"), "message: {msg}");
    assert!(err.source().is_none(), "Aborted is a root cause");
    assert!(!err.is_timeout());

    let err = store
        .snapshot()
        .with_budget(Budget::new().with_timeout(Duration::from_millis(1)))
        .execute(heavy)
        .unwrap_err();
    assert!(
        err.is_timeout(),
        "deadline aborts count as timeouts: {err:?}"
    );

    let parse = store.execute("nonsense").unwrap_err();
    assert!(parse.source().is_some(), "parse errors chain their cause");
}

/// The store's default budget is a query policy, not a commit limit: a
/// load whose maintenance derives far more rows than the default row cap
/// commits, the store stays usable, and only queries are capped.
#[test]
fn default_budget_never_governs_commit_maintenance() {
    let store = Store::new();
    store
        .add_ontology(&Ontology::new().with(Axiom::SubClassOf(
            "http://ex.org/Student".into(),
            "http://ex.org/Person".into(),
        )))
        .unwrap();
    store.set_default_budget(Budget::new().with_max_rows(100));
    let mut src = String::from("@prefix ex: <http://ex.org/> .\n");
    for i in 0..1_000 {
        src.push_str(&format!("ex:s{i} a ex:Student .\n"));
    }
    assert_eq!(store.load_turtle(&src).unwrap().added, 1_000);

    let q = "PREFIX ex: <http://ex.org/> SELECT ?x WHERE { ?x a ex:Person }";
    let all = store
        .snapshot()
        .with_budget(Budget::new())
        .execute(q)
        .unwrap();
    assert_eq!(all.len(), 1_000);
    assert!(
        matches!(
            store.execute(q).unwrap_err(),
            SparqLogError::Aborted {
                reason: AbortReason::RowLimit,
                ..
            }
        ),
        "the default budget still caps queries"
    );
}
