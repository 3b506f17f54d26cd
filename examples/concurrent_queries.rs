//! Concurrent query serving over a store snapshot: load once, take a
//! snapshot, then answer a flood of read-only queries from many threads
//! — the query-log-shaped workload.
//!
//! ```sh
//! cargo run --example concurrent_queries
//! ```

use std::time::Instant;

use sparqlog::Store;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Load a synthetic social graph (one commit materialises T_D).
    let mut turtle = String::from("@prefix ex: <http://ex.org/> .\n");
    for i in 0..200 {
        turtle.push_str(&format!("ex:p{i} ex:knows ex:p{} .\n", (i + 1) % 200));
        if i % 7 == 0 {
            turtle.push_str(&format!("ex:p{i} ex:knows ex:p{} .\n", (i * 3 + 2) % 200));
        }
        if i % 10 == 0 {
            turtle.push_str(&format!("ex:p{i} ex:name \"person {i}\" .\n"));
        }
    }
    let store = Store::new();
    store.load_turtle(&turtle)?;
    println!("loaded + materialised: {} facts", store.fact_count());

    // Query phase: one snapshot, shared by reference from here on.
    let frozen = store.snapshot();

    // A "query log": a few shapes, many repetitions — the repetitions hit
    // the translation cache and skip the SPARQL→Datalog pipeline.
    let shapes = [
        "PREFIX ex: <http://ex.org/>
         SELECT ?b WHERE { ?a ex:knows ?b . ?a ex:name ?n }",
        "PREFIX ex: <http://ex.org/>
         SELECT ?z WHERE { ex:p0 ex:knows+ ?z }",
        "PREFIX ex: <http://ex.org/> ASK { ex:p7 ex:knows ex:p8 }",
        "PREFIX ex: <http://ex.org/>
         SELECT DISTINCT ?n WHERE { ?a ex:name ?n }",
    ];
    let log: Vec<&str> = (0..40).map(|i| shapes[i % shapes.len()]).collect();

    // Serve the whole log as one batch across scoped threads; results
    // come back in input order.
    let t0 = Instant::now();
    let results = frozen.execute_batch(&log);
    let batch_time = t0.elapsed();
    let answered = results.iter().filter(|r| r.is_ok()).count();
    println!(
        "batch: {answered}/{} queries in {batch_time:?} \
         ({} distinct translations cached)",
        log.len(),
        frozen.cached_translations(),
    );

    // Or serve ad hoc from plain threads — `&frozen` is all they need.
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..4)
            .map(|k| {
                let frozen = &frozen;
                s.spawn(move || {
                    let mine = shapes[k % shapes.len()];
                    frozen.execute(mine).map(|r| r.len())
                })
            })
            .collect();
        for (k, w) in workers.into_iter().enumerate() {
            println!("thread {k}: {} solutions", w.join().unwrap()?);
        }
        Ok::<(), sparqlog::SparqLogError>(())
    })?;

    // Sanity: the batch answers equal fresh sequential answers.
    let check = frozen.execute(shapes[1])?;
    assert_eq!(results[1].as_ref().unwrap(), &check);
    println!("sequential re-check: identical results");
    Ok(())
}
