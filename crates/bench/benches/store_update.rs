//! The snapshot-refresh microbench: committing a small delta through
//! `Store::writer()` (thaw → mutate → incremental re-freeze) against the
//! from-scratch alternative the pre-Store API forced (reload the whole
//! post-update dataset into a fresh engine and `freeze()` it).
//!
//! The fixture is a ring-with-shortcuts graph of `N` people (the
//! recurring shape of the PR 2/3 benches). The incremental cases stage
//! a 10-triple add/remove delta; the baseline rebuilds everything. The
//! interesting ratio is `commit_delta_10_*` vs `full_refreeze`: commit
//! cost should track the *delta*, not the store size — the thawed
//! snapshot keeps its per-mask indexes, so untouched predicates never
//! pay the `2^arity - 1` rebuild — and not the number of cached
//! translations either. `commit_delta_10` runs on a store nobody has
//! queried (no statistics to carry, no plans, no index needs): the floor,
//! not a served store. The cases to quote are the warmed ones — after one
//! executed query, and behind 1 000 and 4 000 cached translations.

use sparqlog::{Store, Term};
use sparqlog_bench::microbench::Bench;
use sparqlog_datalog::EvalOptions;

const N: usize = 2_000;

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
    let mut b = Bench::new("store_update");
    let src = turtle(N);

    // Baseline: what a 10-triple change costs without incremental
    // commits — reload the full dataset into a fresh store.
    b.bench("full_refreeze", || {
        let store = Store::with_options(single_threaded());
        store.load_turtle(&src).unwrap();
        store
    });

    // Incremental: one established store absorbs a 10-triple delta per
    // iteration (5 adds + 5 removes of the previous iteration's adds,
    // so the store size stays constant across iterations) — first on a
    // store nobody has queried, then behind `cached` distinct executed
    // texts (one template, made distinct by a LIMIT above its result).
    for (name, cached) in [
        ("commit_delta_10", 0),
        ("commit_delta_10_after_query", 1),
        ("commit_delta_10_cached_1000", 1_000),
        ("commit_delta_10_cached_4000", 4_000),
    ] {
        let store = Store::with_options(single_threaded());
        store.load_turtle(&src).unwrap();
        for n in 0..cached {
            let text = format!(
                "PREFIX ex: <http://ex.org/>
                 SELECT ?b ?c WHERE {{ ex:p{} ex:knows ?b . ?b ex:knows ?c }} LIMIT {}",
                n % N,
                1_000_000 + n
            );
            store.execute(&text).unwrap();
        }
        let mut epoch = 0usize;
        b.bench(name, || {
            let mut w = store.writer();
            for k in 0..5 {
                w.insert(
                    ex(&format!("fresh{epoch}_{k}")),
                    ex("knows"),
                    ex(&format!("p{}", (epoch * 5 + k) % N)),
                );
                if epoch > 0 {
                    w.remove(
                        ex(&format!("fresh{}_{k}", epoch - 1)),
                        ex("knows"),
                        ex(&format!("p{}", ((epoch - 1) * 5 + k) % N)),
                    );
                }
            }
            epoch += 1;
            w.commit().unwrap()
        });
    }

    // Pure additions commit on the O(delta) fast path (no removal, no
    // fixpoint): the cheapest write the store serves.
    let store_add = Store::with_options(single_threaded());
    store_add.load_turtle(&src).unwrap();
    let mut i = 0usize;
    b.bench("commit_add_10", || {
        let mut w = store_add.writer();
        for k in 0..10 {
            w.insert(
                ex(&format!("add{i}_{k}")),
                ex("follows"),
                ex(&format!("p{}", (i * 10 + k) % N)),
            );
        }
        i += 1;
        w.commit().unwrap()
    });

    // A SPARQL Update with a WHERE clause: pattern evaluation on the
    // snapshot + template instantiation + commit, end to end.
    let store_upd = Store::with_options(single_threaded());
    store_upd.load_turtle(&src).unwrap();
    let mut j = 0usize;
    b.bench("update_delete_insert_where", || {
        let text = format!(
            "PREFIX ex: <http://ex.org/>
             DELETE {{ ?x ex:name ?n }} INSERT {{ ?x ex:label{j} ?n }}
             WHERE {{ ?x ex:name ?n . FILTER (?x = ex:p0) }}"
        );
        j += 1;
        store_upd.update(&text).unwrap()
    });

    b.finish();
}
