//! Cost of the query front-end under the PR 5 prepared-query API: the
//! same query log executed (a) re-parsed + re-translated every call,
//! (b) through the text-keyed translation cache, and (c) through
//! [`PreparedQuery`] handles.
//!
//! The spread between `retranslate_32q` and `prepared_32q` is the
//! front-end work a server saves per request once a shape is prepared;
//! `text_cache_32q` sits between them (it still pays the text hash and
//! cache lock per call).

use sparqlog::{PreparedQuery, Store};
use sparqlog_bench::microbench::Bench;
use sparqlog_sparql::parse_query;

/// The ring-with-shortcuts fixture shape shared with `query_batch`.
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

/// Four query shapes — including a CONSTRUCT — repeated into a
/// 32-query log.
fn query_log() -> Vec<&'static str> {
    let shapes = [
        "PREFIX ex: <http://ex.org/>
         SELECT ?b WHERE { ?a ex:knows ?b . ?a ex:name ?n }",
        "PREFIX ex: <http://ex.org/>
         SELECT ?z WHERE { ex:p0 ex:knows+ ?z }",
        "PREFIX ex: <http://ex.org/> ASK { ex:p7 ex:knows ex:p8 }",
        "PREFIX ex: <http://ex.org/>
         CONSTRUCT { ?a ex:linked ?b } WHERE { ?a ex:knows ?b }",
    ];
    (0..32).map(|i| shapes[i % shapes.len()]).collect()
}

fn main() {
    let mut b = Bench::new("query_prepare");
    let store = Store::new();
    store.set_threads(Some(1));
    store.load_turtle(&turtle(120)).expect("fixture loads");
    let log = query_log();
    let snapshot = store.snapshot();

    // (a) Full front-end per call: parse + translate, no cache (the
    // parsed-query entry point translates fresh each time).
    let parsed: Vec<_> = log.iter().map(|q| parse_query(q).unwrap()).collect();
    b.bench("retranslate_32q", || {
        parsed
            .iter()
            .map(|q| snapshot.execute_query(q).expect("query runs").len())
            .sum::<usize>()
    });

    // (b) Text-keyed translation cache (warm after the first pass).
    b.bench("text_cache_32q", || {
        log.iter()
            .map(|q| snapshot.execute(q).expect("query runs").len())
            .sum::<usize>()
    });

    // (c) Prepared handles: zero front-end work per call.
    let prepared: Vec<PreparedQuery> = log.iter().map(|q| store.prepare(q).unwrap()).collect();
    b.bench("prepared_32q", || {
        prepared
            .iter()
            .map(|p| snapshot.execute_prepared(p).expect("query runs").len())
            .sum::<usize>()
    });

    b.finish();
}
