//! Overhead of the observability subsystem (PR 10): the PR's acceptance
//! gate is that instrumentation-*armed* evaluation costs ≤3% vs the
//! disarmed registry on the `datalog_core` / `query_batch` workloads.
//!
//! Two configurations per workload, A/B'd in the same process (same
//! store, same translation cache — only the registry's armed flag
//! differs, which is exactly the branch every recording site takes):
//!
//! * `armed` — the default: every completed query records its counters
//!   and duration-histogram sample, every fixpoint its rounds / rows /
//!   probes, every commit its latency;
//! * `disarmed` — [`MetricsRegistry::disarm`] flipped: recording sites
//!   see `armed() == false` and skip the atomics, the pre-PR cost model.
//!
//! The opt-in profiler is benchmarked separately (`profiled` vs
//! `plain`): per-job timing is *expected* to cost more — the number
//! documents how much, it is not under the 3% gate.

use sparqlog::Store;
use sparqlog_bench::microbench::Bench;

/// The `datalog_core` recursive-closure shape, expressed through the
/// SPARQL path so evaluation crosses the instrumented `run_collect`.
fn ring(n: usize) -> String {
    let mut src = String::from("@prefix ex: <http://ex.org/> .\n");
    for i in 0..n {
        src.push_str(&format!("ex:n{i} ex:next ex:n{} .\n", (i + 1) % n));
        if i % 7 == 0 {
            src.push_str(&format!("ex:n{i} ex:next ex:n{} .\n", (i * 3 + 1) % n));
        }
    }
    src
}

/// The `query_batch` fixture and 32-query log.
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

fn single_threaded_store(src: &str) -> Store {
    let store = Store::new();
    store.set_threads(Some(1));
    store.load_turtle(src).expect("fixture loads");
    store
}

fn main() {
    let mut b = Bench::new("obs_overhead");

    // --- datalog_core's closure shape, armed vs disarmed.
    let ring_store = single_threaded_store(&ring(300));
    let closure = "PREFIX ex: <http://ex.org/> SELECT ?a ?b WHERE { ?a ex:next+ ?b }";
    let ring_snapshot = ring_store.snapshot();
    for mode in ["armed", "disarmed"] {
        if mode == "disarmed" {
            ring_store.metrics().disarm();
        }
        b.bench(&format!("tc_300_{mode}"), || {
            ring_snapshot.execute(closure).expect("query runs").len()
        });
    }
    ring_store.metrics().arm();

    // --- query_batch's batch_32q_t1, armed vs disarmed (the serving
    // regime: many small queries, so per-query recording dominates any
    // per-row cost).
    let store = single_threaded_store(&turtle(120));
    let log = query_log();
    let snapshot = store.snapshot();
    for mode in ["armed", "disarmed"] {
        if mode == "disarmed" {
            store.metrics().disarm();
        }
        b.bench(&format!("batch_32q_t1_{mode}"), || {
            snapshot
                .execute_batch(&log)
                .into_iter()
                .map(|r| r.expect("query runs").len())
                .sum::<usize>()
        });
    }
    store.metrics().arm();

    // --- The opt-in profiler's cost (informational, not gated): the
    // same closure with and without per-job timing.
    b.bench("tc_300_plain", || {
        ring_snapshot.execute(closure).expect("query runs").len()
    });
    b.bench("tc_300_profiled", || {
        let (results, profile) = ring_snapshot.execute_profiled(closure).expect("query runs");
        (results.len(), profile.elapsed)
    });

    b.finish();
}
