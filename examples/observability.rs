//! Observability tour (PR 10): the metrics registry every store carries,
//! the Prometheus text exposition that `GET /metrics` serves, and the
//! per-query `EXPLAIN ANALYZE`-style profiler.
//!
//! ```sh
//! cargo run --example observability
//! ```

use sparqlog::{Budget, MetricsRegistry, SparqLogError, Store};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A ring with shortcuts: recursive closure over it is expensive
    // enough to show up in the histograms and to trip a row cap.
    let mut turtle = String::from("@prefix ex: <http://ex.org/> .\n");
    for i in 0..200 {
        turtle.push_str(&format!("ex:n{i} ex:next ex:n{} .\n", (i + 1) % 200));
        if i % 5 == 0 {
            turtle.push_str(&format!("ex:n{i} ex:next ex:n{} .\n", (i * 7 + 3) % 200));
        }
    }
    let store = Store::new();
    store.load_turtle(&turtle)?;
    println!("loaded: {} facts", store.fact_count());

    // Every store owns a MetricsRegistry; each layer (eval, planner,
    // store, governor, subscriptions, HTTP) records into it. The same
    // registry backs `GET /metrics` when the store is served.
    let reg = store.metrics();

    // 1. Normal queries move the query counters and histograms.
    let hop = "PREFIX ex: <http://ex.org/> SELECT ?b WHERE { ex:n0 ex:next ?b }";
    let closure = "PREFIX ex: <http://ex.org/> SELECT ?a ?b WHERE { ?a ex:next+ ?b }";
    let snapshot = store.snapshot();
    for _ in 0..3 {
        snapshot.execute(hop)?;
    }
    println!(
        "queries completed: {}",
        reg.counter_value("sparqlog_queries_total").unwrap()
    );
    println!(
        "rows derived by fixpoints: {}",
        reg.counter_value("sparqlog_eval_rows_derived_total")
            .unwrap()
    );

    // 2. Governor aborts are counted by reason.
    let capped = snapshot.with_budget(Budget::new().with_max_rows(1_000));
    match capped.execute(closure) {
        Err(SparqLogError::Aborted { reason, .. }) => println!("aborted: {reason}"),
        other => println!("unexpectedly {other:?}"),
    }
    println!(
        "aborts recorded: {}",
        reg.counter_vec_sum("sparqlog_query_aborts_total").unwrap()
    );

    // 3. Commits record latency and row deltas.
    store.update("PREFIX ex: <http://ex.org/> INSERT DATA { ex:n0 ex:label \"origin\" }")?;
    println!(
        "commits: {}, rows added: {}",
        reg.counter_value("sparqlog_store_commits_total").unwrap(),
        reg.counter_value("sparqlog_store_rows_added_total")
            .unwrap()
    );

    // 4. The scrape: Prometheus text exposition, exactly what
    //    `GET /metrics` streams. Render it and spot-check a few lines.
    let exposition = reg.render_to_string();
    let samples = MetricsRegistry::parse_exposition(&exposition).expect("valid exposition");
    println!("\nexposition: {} samples; a few of them:", samples.len());
    for line in exposition.lines().filter(|l| {
        l.starts_with("sparqlog_queries_total") || l.starts_with("sparqlog_query_aborts")
    }) {
        println!("  {line}");
    }

    // 5. The per-query profiler: per-stratum rounds, per-round delta
    //    sizes, per-rule timings — the paper's timing breakdowns, live.
    let (results, profile) = store.snapshot().execute_profiled(closure)?;
    println!("\nclosure: {} rows; profile:", results.len());
    println!("{}", profile.render());

    // The closure rule is the recursive one: its head predicate recurs
    // in its body. Its join probes are the work its jobs did.
    let (recursive, _) = (profile.rules.iter())
        .zip(&profile.rule_texts)
        .find(|(_, text)| {
            let (head, body) = text.split_once(" :- ").unwrap_or_default();
            let pred = head.split('(').next().unwrap_or_default();
            body.contains(&format!("{pred}("))
        })
        .expect("the closure rule is profiled");
    assert!(recursive.probes > 0, "the closure rule probed nothing");
    println!("closure rule: {} join probes", recursive.probes);
    Ok(())
}
