//! Concurrent load against a live server: a Bonifati-shaped traffic mix
//! (many small star joins, a tail of expensive recursive paths under
//! tight budgets) from several keep-alive client threads while a writer
//! thread commits — asserting that no connection hangs, every response
//! is snapshot-consistent, and requests sharing the server with aborted
//! ones are unaffected. Each request evaluates on its server worker's
//! thread, so the concurrency under test is across requests.

mod common;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use common::{boot, boot_shared, request, Client};
use sparqlog::{MetricsRegistry, Store};
use sparqlog_http::{percent_encode, ServerConfig};

const PREFIX: &str = "PREFIX ex: <http://ex.org/> ";

/// Clients × requests-per-client; writer commits run concurrently.
const CLIENTS: usize = 6;
const REQUESTS_PER_CLIENT: usize = 12;
const WRITER_COMMITS: usize = 15;

fn storm_store() -> Store {
    let mut src = String::from("@prefix ex: <http://ex.org/> .\n");
    // Star-shaped entities: the "many small joins" bulk of real logs.
    for i in 0..40 {
        src.push_str(&format!(
            "ex:e{i} ex:name \"entity {i}\" ; ex:kind ex:Widget ; ex:rank ex:r{} .\n",
            i % 5
        ));
    }
    // Shortcut ring: the expensive recursive tail.
    for i in 0..150 {
        src.push_str(&format!("ex:n{i} ex:next ex:n{} .\n", (i + 1) % 150));
        if i % 7 == 0 {
            src.push_str(&format!("ex:n{i} ex:next ex:n{} .\n", (i * 3 + 1) % 150));
        }
    }
    let store = Store::new();
    store.load_turtle(&src).unwrap();
    store
}

/// Every data row of a TSV consistency response must have both columns
/// bound: the writer commits `ex:m ex:left ?k` and `?k ex:tag ?w`
/// atomically, so a half-visible pair means a request crossed two store
/// versions.
fn assert_pairs_consistent(tsv: &str) {
    let mut lines = tsv.lines();
    let header = lines.next().expect("TSV header");
    assert_eq!(header, "?k\t?w");
    for line in lines {
        let (k, w) = line.split_once('\t').expect("two columns");
        assert!(
            !k.is_empty() && !w.is_empty(),
            "torn snapshot: pair row {line:?} has an unbound half"
        );
    }
}

#[test]
fn storm_mixed_load_with_concurrent_writer() {
    let server = boot(
        storm_store(),
        ServerConfig {
            // Every keep-alive client (plus the writer and the final
            // checks) gets a worker of its own.
            workers: CLIENTS + 2,
            keep_alive_timeout: Duration::from_secs(30),
            ..ServerConfig::default()
        },
    );
    let addr = server.addr;

    let star = format!(
        "{PREFIX}SELECT ?e ?n WHERE {{ ?e ex:kind ex:Widget . ?e ex:name ?n . ?e ex:rank ex:r1 }}"
    );
    let ask = format!("{PREFIX}ASK {{ ex:e3 ex:kind ex:Widget }}");
    let consistency =
        format!("{PREFIX}SELECT ?k ?w WHERE {{ ex:m ex:left ?k OPTIONAL {{ ?k ex:tag ?w }} }}");
    let closure = format!("{PREFIX}SELECT ?a ?b WHERE {{ ?a ex:next+ ?b }}");

    let aborted = AtomicUsize::new(0);
    let completed = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        // Writer: commits pair k atomically through POST /update while
        // the read storm runs.
        scope.spawn(|| {
            for k in 0..WRITER_COMMITS {
                let update = format!(
                    "{PREFIX}INSERT DATA {{ ex:m ex:left ex:k{k} . ex:k{k} ex:tag ex:w{k} }}"
                );
                let r = request(
                    addr,
                    "POST",
                    "/update",
                    &[("Content-Type", "application/x-www-form-urlencoded")],
                    Some(format!("update={}", percent_encode(&update)).as_bytes()),
                );
                assert_eq!(r.status, 204, "writer commit {k}: {}", r.text());
                std::thread::sleep(Duration::from_millis(3));
            }
        });

        // Readers: keep-alive connections firing the mixed workload.
        for client_id in 0..CLIENTS {
            let (star, ask, consistency, closure) = (&star, &ask, &consistency, &closure);
            let (aborted, completed) = (&aborted, &completed);
            scope.spawn(move || {
                let mut client = Client::connect(addr);
                for i in 0..REQUESTS_PER_CLIENT {
                    match (client_id + i) % 5 {
                        // The expensive tail, under a 1 ms budget: must
                        // come back 408 (NOT hang, NOT kill siblings).
                        4 => {
                            let target =
                                format!("/query?query={}&timeout=1", percent_encode(closure));
                            let r = client.request("GET", &target, &[], None);
                            assert_eq!(r.status, 408, "client {client_id} req {i}: {}", r.text());
                            aborted.fetch_add(1, Ordering::Relaxed);
                        }
                        // Snapshot-consistency probe.
                        3 => {
                            let target = format!("/query?query={}", percent_encode(consistency));
                            let r = client.request(
                                "GET",
                                &target,
                                &[("Accept", "text/tab-separated-values")],
                                None,
                            );
                            assert_eq!(r.status, 200, "client {client_id} req {i}: {}", r.text());
                            assert_pairs_consistent(r.text());
                            completed.fetch_add(1, Ordering::Relaxed);
                        }
                        // The small-query bulk.
                        n => {
                            let (q, expect_contains) = if n == 0 {
                                (ask, "\"boolean\":true")
                            } else {
                                (star, "entity 1")
                            };
                            let target = format!("/query?query={}", percent_encode(q));
                            let r = client.request("GET", &target, &[], None);
                            assert_eq!(r.status, 200, "client {client_id} req {i}: {}", r.text());
                            assert!(
                                r.text().contains(expect_contains),
                                "client {client_id} req {i}: {}",
                                r.text()
                            );
                            completed.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });

    // Every request came back (scope join = no hung connections; the
    // 60 s client read timeout turns a hang into a loud failure).
    let total = CLIENTS * REQUESTS_PER_CLIENT;
    let aborts = aborted.load(Ordering::Relaxed);
    let successes = completed.load(Ordering::Relaxed);
    assert_eq!(aborts + successes, total);
    assert!(aborts > 0, "the storm must include aborted requests");
    // Sibling isolation: every non-budgeted request succeeded (asserted
    // per-request above); and the writer's commits all landed.
    let final_check = format!("{PREFIX}SELECT ?k ?w WHERE {{ ex:m ex:left ?k . ?k ex:tag ?w }}");
    let r = request(
        addr,
        "GET",
        &format!("/query?query={}", percent_encode(&final_check)),
        &[("Accept", "text/csv")],
        None,
    );
    assert_eq!(r.status, 200);
    let rows = r.text().lines().count() - 1;
    assert_eq!(rows, WRITER_COMMITS, "all commits visible: {}", r.text());
}

/// PR 10 satellite: under a concurrent storm, the registry is an exact
/// ledger — request, abort and commit counters sum to precisely the
/// work the clients performed, nothing dropped, nothing double-counted.
#[test]
fn metrics_ledger_matches_work_exactly() {
    const LEDGER_CLIENTS: usize = 4;
    const OK_PER_CLIENT: usize = 3;
    const ABORTS_PER_CLIENT: usize = 1;
    const UPDATES: usize = 3;

    let store = Arc::new(storm_store());
    let reg = store.metrics();
    let server = boot_shared(
        Arc::clone(&store),
        ServerConfig {
            workers: LEDGER_CLIENTS + 2,
            keep_alive_timeout: Duration::from_secs(30),
            ..ServerConfig::default()
        },
    );
    let addr = server.addr;

    // Baselines: loading the fixture already committed once, and no
    // query/abort/HTTP traffic has happened yet.
    let base_commits = reg.counter_value("sparqlog_store_commits_total").unwrap();
    let base_queries = reg.counter_value("sparqlog_queries_total").unwrap();
    let base_rows_added = reg
        .counter_value("sparqlog_store_rows_added_total")
        .unwrap();
    assert_eq!(reg.counter_vec_sum("sparqlog_query_aborts_total"), Some(0));

    let ask = format!("{PREFIX}ASK {{ ex:e3 ex:kind ex:Widget }}");
    let closure = format!("{PREFIX}SELECT ?a ?b WHERE {{ ?a ex:next+ ?b }}");

    std::thread::scope(|scope| {
        for _ in 0..LEDGER_CLIENTS {
            let (ask, closure) = (&ask, &closure);
            scope.spawn(move || {
                let mut client = Client::connect(addr);
                for _ in 0..OK_PER_CLIENT {
                    let target = format!("/query?query={}", percent_encode(ask));
                    let r = client.request("GET", &target, &[], None);
                    assert_eq!(r.status, 200, "{}", r.text());
                }
                for _ in 0..ABORTS_PER_CLIENT {
                    let target = format!("/query?query={}&timeout=1", percent_encode(closure));
                    let r = client.request("GET", &target, &[], None);
                    assert_eq!(r.status, 408, "{}", r.text());
                }
            });
        }
        scope.spawn(|| {
            for k in 0..UPDATES {
                let update = format!("{PREFIX}INSERT DATA {{ ex:ledger ex:entry ex:l{k} }}");
                let r = request(
                    addr,
                    "POST",
                    "/update",
                    &[("Content-Type", "application/sparql-update")],
                    Some(update.as_bytes()),
                );
                assert_eq!(r.status, 204, "{}", r.text());
            }
            // One guaranteed 400 in the mix.
            let r = request(addr, "GET", "/query?query=not+sparql", &[], None);
            assert_eq!(r.status, 400);
        });
    });

    // Exact ledger, read straight off the store's registry (registering
    // again returns the same families the server records into).
    let requests = reg.counter_vec("sparqlog_http_requests_total", "", &["method", "status"]);
    let ok_queries = (LEDGER_CLIENTS * OK_PER_CLIENT) as u64;
    let aborts = (LEDGER_CLIENTS * ABORTS_PER_CLIENT) as u64;
    assert_eq!(requests.value(&["GET", "200"]), ok_queries);
    assert_eq!(requests.value(&["GET", "408"]), aborts);
    assert_eq!(requests.value(&["GET", "400"]), 1);
    assert_eq!(requests.value(&["POST", "204"]), UPDATES as u64);
    assert_eq!(requests.sum(), ok_queries + aborts + 1 + UPDATES as u64);

    assert_eq!(
        reg.counter_value("sparqlog_queries_total"),
        Some(base_queries + ok_queries)
    );
    assert_eq!(
        reg.counter_vec_sum("sparqlog_query_aborts_total"),
        Some(aborts)
    );
    assert_eq!(
        reg.counter_value("sparqlog_store_commits_total"),
        Some(base_commits + UPDATES as u64)
    );
    // Each update inserted exactly one fresh triple.
    assert_eq!(
        reg.counter_value("sparqlog_store_rows_added_total"),
        Some(base_rows_added + UPDATES as u64)
    );

    // And the ledger scrapes cleanly over HTTP: the exposition parses,
    // carries the exact GET/200 count, and the scrape itself is not in
    // the exposition it returned.
    let r = request(addr, "GET", "/metrics", &[], None);
    assert_eq!(r.status, 200);
    let samples = MetricsRegistry::parse_exposition(r.text()).expect("valid exposition");
    let got = samples
        .iter()
        .find(|(n, l, _)| {
            n == "sparqlog_http_requests_total" && l == "method=\"GET\",status=\"200\""
        })
        .map(|(_, _, v)| *v);
    assert_eq!(got, Some(ok_queries as f64));
    assert_eq!(requests.value(&["GET", "200"]), ok_queries + 1);
}
