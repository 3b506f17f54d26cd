//! Direct use of the Warded Datalog± substrate: textual rules, recursion,
//! Skolem tuple IDs and stratified negation — the Vadalog-style engine
//! the SPARQL translation runs on.
//!
//! ```sh
//! cargo run --example datalog_playground
//! ```

use sparqlog_datalog::{collect_output, evaluate, parser::parse_program, Database, EvalOptions};

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
        @post("upstream", "orderby(0)").
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
        for t in collect_output(&program, &db, pred) {
            let row: Vec<String> = t.iter().map(|c| c.display(db.symbols())).collect();
            println!("  ({})", row.join(", "));
        }
    }
    Ok(())
}
