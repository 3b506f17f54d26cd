//! The paper's running example (§3.1, Figures 1 & 2): film directors with
//! an OPTIONAL last name, plus a look at the generated Datalog± program.
//!
//! ```sh
//! cargo run --example film_directors
//! ```

use sparqlog::{translate_query, Store};
use sparqlog_sparql::parse_query;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let store = Store::new();
    store.load_turtle(
        r#"
        @prefix ex: <http://ex.org/> .
        ex:glucas ex:name "George" ;
                  ex:lastname "Lucas" .
        _:b1 ex:name "Steven" .
        "#,
    )?;

    let query_text = r#"
        PREFIX ex: <http://ex.org/>
        SELECT ?N ?L
        WHERE { ?X ex:name ?N . OPTIONAL { ?X ex:lastname ?L } }
        ORDER BY ?N
    "#;

    // Show the translated Datalog± rules — the analogue of Figure 2.
    let query = parse_query(query_text)?;
    let symbols = store.symbols();
    let translated = translate_query(&query, &symbols, "q1_")?;
    println!("--- generated Datalog± program (cf. paper Figure 2) ---");
    println!("{}", translated.program.display(&symbols));

    let result = store.execute(query_text)?;
    let s = result.solutions().expect("SELECT query");
    println!("--- solutions ---");
    println!("{s}");
    assert_eq!(s.len(), 2);
    Ok(())
}
