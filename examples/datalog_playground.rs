//! Direct use of the Warded Datalog± substrate: textual rules, recursion,
//! Skolem tuple IDs and stratified negation — the Vadalog-style engine
//! the SPARQL translation runs on.
//!
//! ```sh
//! cargo run --example datalog_playground
//! ```

use sparqlog_datalog::{evaluate, parser::parse_program, Database, EvalOptions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut db = Database::new();
    let program = parse_program(
        r#"
        % A little supply-chain reachability problem.
        supplies("mill", "bakery").
        supplies("farm", "mill").
        supplies("bakery", "cafe").
        supplies("roaster", "cafe").
        certified("farm").
        certified("roaster").

        upstream(X, Y) :- supplies(X, Y).
        upstream(X, Z) :- supplies(X, Y), upstream(Y, Z).

        % Who serves the cafe through an entirely certified chain root?
        uncertified_root(X) :- upstream(X, "cafe"), not certified(X).

        @output("upstream").
        @output("uncertified_root").
        "#,
        db.symbols(),
    )?;

    let stats = evaluate(&program, &mut db, &EvalOptions::default())?;
    println!(
        "fixpoint: {} facts derived in {} rounds across {} strata",
        stats.derived,
        stats.rounds,
        stats.strata.len()
    );

    for name in ["upstream", "uncertified_root"] {
        let pred = db.symbols().get(name).unwrap();
        println!("\n{name}:");
        // A relation iterates in insertion order; sort for a stable listing.
        let mut rows: Vec<String> = (db.relation(pred).into_iter())
            .flat_map(|r| r.iter())
            .map(|t| {
                let cells: Vec<String> = (db.decode_tuple(t).iter())
                    .map(|c| c.display(db.symbols()))
                    .collect();
                cells.join(", ")
            })
            .collect();
        rows.sort();
        for row in rows {
            println!("  ({row})");
        }
    }
    Ok(())
}
