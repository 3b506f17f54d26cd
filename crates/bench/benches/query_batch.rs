//! Throughput of the concurrent query-serving path: a fixed "query log"
//! batch evaluated against one store snapshot at fan-out widths 1, 2, 4
//! and 8, against the sequential `execute` loop as the baseline.
//!
//! The snapshot is taken once per configuration *outside* the timed
//! closure, and the first (untimed) warm-up iteration populates the
//! translation cache — so the numbers measure steady-state query
//! evaluation, the regime a server lives in. On a multi-core host
//! `batch_t4`/`batch_t8` should scale; on a 1-CPU container the
//! interesting number is the batch *overhead* vs `sequential` (slot +
//! pool bookkeeping), which stays within a few percent.

use sparqlog::{Snapshot, Store};
use sparqlog_bench::microbench::Bench;

/// A ring-with-shortcuts social graph, the recurring fixture shape of
/// the PR 2 benches.
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

/// Four query shapes repeated into a 32-query log: joins, bounded
/// recursion, ASK and DISTINCT — each repetition a translation-cache hit.
fn query_log() -> Vec<&'static str> {
    let shapes = [
        "PREFIX ex: <http://ex.org/>
         SELECT ?b WHERE { ?a ex:knows ?b . ?a ex:name ?n }",
        "PREFIX ex: <http://ex.org/>
         SELECT ?z WHERE { ex:p0 ex:knows+ ?z }",
        "PREFIX ex: <http://ex.org/> ASK { ex:p7 ex:knows ex:p8 }",
        "PREFIX ex: <http://ex.org/>
         SELECT DISTINCT ?n WHERE { ?a ex:name ?n }",
    ];
    (0..32).map(|i| shapes[i % shapes.len()]).collect()
}

fn freeze_with_threads(src: &str, threads: usize) -> Snapshot {
    let store = Store::new();
    store.set_threads(Some(threads));
    store.load_turtle(src).expect("fixture loads");
    store.snapshot()
}

fn main() {
    let mut b = Bench::new("query_batch");
    let src = turtle(120);
    let log = query_log();

    // Baseline: the same log executed one by one (single-threaded
    // evaluator, translation cache warm after the first pass).
    let frozen = freeze_with_threads(&src, 1);
    b.bench("sequential_32q", || {
        log.iter()
            .map(|q| frozen.execute(q).expect("query runs").len())
            .sum::<usize>()
    });

    for threads in [1usize, 2, 4, 8] {
        let frozen = freeze_with_threads(&src, threads);
        b.bench(&format!("batch_32q_t{threads}"), || {
            frozen
                .execute_batch(&log)
                .into_iter()
                .map(|r| r.expect("query runs").len())
                .sum::<usize>()
        });
    }

    b.finish();
}
