//! The execution governor: deadlines, row caps and external cancellation
//! for runaway queries.
//!
//! A production endpoint cannot let one pathological query wedge a worker
//! forever. SparqLog's [`Budget`] bounds an evaluation by wall-clock
//! time, derived rows, or dictionary growth, and/or hooks it to a
//! [`CancelToken`]; a query that crosses a limit returns a structured
//! `Aborted` error telling you which limit tripped and how far execution
//! got — and the store keeps serving as if nothing happened.
//!
//! ```sh
//! cargo run --example timeouts
//! ```

use std::time::{Duration, Instant};

use sparqlog::{Budget, CancelToken, SparqLogError, Store};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A ring with shortcuts: the full transitive closure over it is big
    // enough to play the "runaway query" here.
    let mut turtle = String::from("@prefix ex: <http://ex.org/> .\n");
    for i in 0..400 {
        turtle.push_str(&format!("ex:n{i} ex:next ex:n{} .\n", (i + 1) % 400));
        if i % 5 == 0 {
            turtle.push_str(&format!("ex:n{i} ex:next ex:n{} .\n", (i * 7 + 3) % 400));
        }
    }
    let store = Store::new();
    store.load_turtle(&turtle)?;
    println!("loaded: {} facts", store.fact_count());

    let runaway = "PREFIX ex: <http://ex.org/> SELECT ?a ?b WHERE { ?a ex:next+ ?b }";

    // 1. Deadline: give the query 2 ms of wall-clock time.
    let budget = Budget::new().with_timeout(Duration::from_millis(2));
    let start = Instant::now();
    match store.snapshot().with_budget(budget).execute(runaway) {
        Err(e @ SparqLogError::Aborted { .. }) => {
            println!("deadline: {e}");
            println!("          (observed after {:?})", start.elapsed());
        }
        other => println!("deadline: unexpectedly {other:?}"),
    }

    // 2. Row cap: bound the work (and intermediate-result memory) instead
    //    of the clock — deterministic across machines.
    let capped = store
        .snapshot()
        .with_budget(Budget::new().with_max_rows(10_000));
    match capped.execute(runaway) {
        Err(SparqLogError::Aborted {
            reason,
            rows_derived,
            ..
        }) => println!("row cap:  {reason} at {rows_derived} rows"),
        other => println!("row cap:  unexpectedly {other:?}"),
    }

    // 3. External cancellation: a token shared with another thread — the
    //    shape of a client disconnect handler.
    let cancel = CancelToken::new();
    let killer = {
        let cancel = cancel.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(2));
            cancel.cancel(); // "client went away"
        })
    };
    let cancellable = store
        .snapshot()
        .with_budget(Budget::new().with_cancel(cancel));
    match cancellable.execute(runaway) {
        Err(SparqLogError::Aborted { reason, .. }) => println!("cancel:   {reason}"),
        other => println!("cancel:   unexpectedly {other:?}"),
    }
    killer.join().unwrap();

    // 4. A store-wide default policy: every query (and every query of a
    //    batch) runs under it unless a `with_budget` handle overrides it.
    store.set_default_budget(
        Budget::new()
            .with_timeout(Duration::from_secs(30))
            .with_max_rows(5_000),
    );
    let results = store.snapshot().execute_batch(&[runaway, runaway, runaway]);
    let aborted = results.iter().filter(|r| r.is_err()).count();
    println!("batch under default budget: {aborted}/3 aborted");

    // Nothing is poisoned: lift the default and the same query completes.
    store.set_default_budget(Budget::new());
    let full = store.execute(runaway)?;
    println!("without limits: {} result rows", full.len());
    Ok(())
}
