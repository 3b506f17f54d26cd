//! Quickstart: load a Turtle graph, run a SPARQL query through the
//! SPARQL → Warded Datalog± translation, print the solutions.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use sparqlog::{QueryResults, Store};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let store = Store::new();
    store.load_turtle(
        r#"
        @prefix ex: <http://ex.org/> .
        ex:tolkien ex:wrote ex:lotr ;
                   ex:name  "J. R. R. Tolkien" .
        ex:herbert ex:wrote ex:dune ;
                   ex:name  "Frank Herbert" .
        ex:lotr ex:title "The Lord of the Rings" ; ex:year 1954 .
        ex:dune ex:title "Dune" ; ex:year 1965 .
        "#,
    )?;

    let result = store.execute(
        r#"
        PREFIX ex: <http://ex.org/>
        SELECT ?author ?title WHERE {
            ?a ex:wrote ?book ; ex:name ?author .
            ?book ex:title ?title ; ex:year ?y
            FILTER (?y > 1960)
        }
        ORDER BY ?author
        "#,
    )?;

    if let QueryResults::Solutions(s) = &result {
        println!("{} solution(s):", s.len());
    }
    // `QueryResults` renders as a tab-separated table (header + rows).
    println!("{result}");
    Ok(())
}
