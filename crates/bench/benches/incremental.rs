//! Incremental-maintenance microbench (PR 9): what a small *removal*
//! commit costs on a large store, against the whole-store re-run it
//! replaces, plus the end-to-end latency of standing-query delivery.
//!
//! The fixture is the ring-with-shortcuts graph at 100k triples. The
//! headline ratio is `full_reload_100k` vs `commit_remove10_restore`:
//! the latter times a remove-10 commit *plus* the commit that restores
//! the edges (so the store stays at steady state across iterations) —
//! an upper bound on the single removal commit the acceptance gate
//! cares about. DRed maintenance touches the deleted rows and their
//! consequences; the reload rebuilds and re-indexes everything.

use std::time::Duration;

use sparqlog::{Store, SubscriptionEvent, Term};
use sparqlog_bench::microbench::Bench;
use sparqlog_datalog::EvalOptions;

/// ~1.24 triples per node: 80k nodes ≈ 100k triples.
const N: usize = 80_000;

fn turtle(n: usize) -> String {
    let mut src = String::from("@prefix ex: <http://ex.org/> .\n");
    for i in 0..n {
        src.push_str(&format!("ex:p{i} ex:knows ex:p{} .\n", (i + 1) % n));
        if i % 7 == 0 {
            src.push_str(&format!("ex:p{i} ex:knows ex:p{} .\n", (i * 3 + 2) % n));
        }
        if i % 10 == 0 {
            src.push_str(&format!("ex:p{i} ex:name \"person {i}\" .\n"));
        }
    }
    src
}

fn ex(l: &str) -> Term {
    Term::iri(format!("http://ex.org/{l}"))
}

fn single_threaded() -> EvalOptions {
    EvalOptions {
        threads: Some(1),
        ..Default::default()
    }
}

fn main() {
    let mut b = Bench::new("incremental");
    let src = turtle(N);

    // Baseline: the whole-store re-run a deletion used to cost — parse,
    // load and freeze the complete 100k-triple dataset from scratch.
    b.bench("full_reload_100k", || {
        let store = Store::with_options(single_threaded());
        store.load_turtle(&src).unwrap();
        store
    });

    // Maintained: a 10-remove commit, then a commit restoring the same
    // 10 edges (steady state). Each iteration rotates to fresh ring
    // positions so retraction never sees an already-deleted row. Run on
    // a store nobody has queried (the floor: no statistics to carry) and
    // on one that has served a query — the case a served store is in.
    for (name, queried) in [
        ("commit_remove10_restore", false),
        ("commit_remove10_restore_after_query", true),
    ] {
        let store = Store::with_options(single_threaded());
        store.load_turtle(&src).unwrap();
        if queried {
            store
                .execute("PREFIX ex: <http://ex.org/> SELECT ?b WHERE { ex:p0 ex:knows ?b }")
                .unwrap();
        }
        let mut epoch = 0usize;
        b.bench(name, || {
            let base = (epoch * 10) % (N - 10);
            epoch += 1;
            let mut w = store.writer();
            for k in 0..10 {
                let i = base + k;
                w.remove(
                    ex(&format!("p{i}")),
                    ex("knows"),
                    ex(&format!("p{}", i + 1)),
                );
            }
            let removed = w.commit().unwrap().removed;
            let mut w = store.writer();
            for k in 0..10 {
                let i = base + k;
                w.insert(
                    ex(&format!("p{i}")),
                    ex("knows"),
                    ex(&format!("p{}", i + 1)),
                );
            }
            w.commit().unwrap();
            removed
        });
    }

    // Standing-query delivery, end to end: commit a triple that changes
    // the subscribed result, then block until the delta arrives.
    let store_sub = Store::with_options(single_threaded());
    store_sub.load_turtle(&src).unwrap();
    let watched = store_sub
        .prepare("PREFIX ex: <http://ex.org/> SELECT ?w WHERE { ?w ex:watched ex:p0 }")
        .unwrap();
    let sub = store_sub.subscribe(&watched).unwrap();
    let mut round = 0usize;
    b.bench("notify_latency_affected", || {
        let mut w = store_sub.writer();
        w.insert(ex(&format!("viewer{round}")), ex("watched"), ex("p0"));
        round += 1;
        w.commit().unwrap();
        match sub.recv_timeout(Duration::from_secs(5)) {
            Some(SubscriptionEvent::Delta(d)) => d.commit_seq,
            other => panic!("expected a delta, got {other:?}"),
        }
    });

    // The prefilter at work: a commit on a predicate the subscription
    // cannot match skips re-evaluation entirely — this prices the
    // per-commit overhead a registered-but-unaffected subscriber adds.
    let mut tick = 0usize;
    b.bench("notify_skip_unaffected", || {
        let mut w = store_sub.writer();
        w.insert(ex(&format!("extra{tick}")), ex("follows"), ex("p1"));
        tick += 1;
        w.commit().unwrap();
        assert!(sub.try_recv().is_none(), "prefilter must skip this commit");
        tick
    });

    b.finish();
}
