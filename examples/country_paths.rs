//! The paper's property-path example (§4.2, Figures 3 & 4): countries
//! reachable from Spain via one or more `borders` edges — recursive
//! Datalog in action.
//!
//! ```sh
//! cargo run --example country_paths
//! ```

use sparqlog::Store;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let store = Store::new();
    store.load_turtle(
        r#"
        @prefix ex: <http://ex.org/> .
        ex:spain ex:borders ex:france .
        ex:france ex:borders ex:belgium .
        ex:france ex:borders ex:germany .
        ex:belgium ex:borders ex:germany .
        ex:germany ex:borders ex:austria .
        "#,
    )?;

    // Figure 3: one-or-more path.
    let result = store.execute(
        r#"PREFIX ex: <http://ex.org/>
           SELECT ?B WHERE { ?A ex:borders+ ?B . FILTER (?A = ex:spain) }"#,
    )?;
    println!("Reachable from Spain via borders+ ({}):", result.len());
    for solution in result.solutions().unwrap().iter() {
        println!("  {}", solution.get("B").unwrap());
    }
    assert_eq!(result.len(), 4);

    // Zero-or-more includes Spain itself; zero-or-one covers the
    // zero-length edge case the paper fixes over earlier translations.
    let star = store.execute(
        r#"PREFIX ex: <http://ex.org/>
           SELECT ?B WHERE { ex:spain ex:borders* ?B }"#,
    )?;
    println!("borders*: {} results (includes Spain itself)", star.len());

    let ghost = store.execute(
        r#"PREFIX ex: <http://ex.org/>
           SELECT ?B WHERE { ex:atlantis ex:borders? ?B }"#,
    )?;
    println!(
        "borders? from a term not in the graph: {} result (the zero-length path)",
        ghost.len()
    );
    assert_eq!(ghost.len(), 1);
    Ok(())
}
