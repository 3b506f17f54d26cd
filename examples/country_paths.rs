//! The paper's property-path example (§4.2, Figures 3 & 4): countries
//! reachable from Spain via one or more `borders` edges — recursive
//! Datalog in action. A path with a constant endpoint is grown from that
//! endpoint, straight over `triple`; the printed plan shows it.
//!
//! ```sh
//! cargo run --example country_paths
//! ```

use std::collections::BTreeSet;

use sparqlog::{QueryResults, Store};

/// The `?B` column of `result`, as local names (`ex:france` → `france`).
fn reached(result: &QueryResults) -> BTreeSet<String> {
    let solutions = result.solutions().expect("a SELECT result");
    let names: BTreeSet<String> = solutions
        .iter()
        .map(|s| {
            let b = s.get("B").expect("?B is bound").to_string();
            b.trim_start_matches("<http://ex.org/")
                .trim_end_matches('>')
                .to_string()
        })
        .collect();
    assert_eq!(names.len(), result.len(), "each country once");
    names
}

fn set(names: &[&str]) -> BTreeSet<String> {
    names.iter().map(|n| n.to_string()).collect()
}

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
    let plus = reached(&result);
    println!("Reachable from Spain via borders+: {plus:?}");
    assert_eq!(plus, set(&["austria", "belgium", "france", "germany"]));

    // The same path with Spain as its constant subject: T_Q grows the
    // closure from Spain, reading `triple` in its recursive rule.
    let text = r#"PREFIX ex: <http://ex.org/>
           SELECT ?B WHERE { ex:spain ex:borders+ ?B }"#;
    let snapshot = store.snapshot();
    let prepared = snapshot.prepare(text)?;
    println!(
        "Plan of ex:spain ex:borders+ ?B:\n{}",
        snapshot.explain(&prepared)?
    );
    assert_eq!(reached(&snapshot.execute_prepared(&prepared)?), plus);

    // Zero-or-more includes Spain itself; zero-or-one covers the
    // zero-length edge case the paper fixes over earlier translations.
    let star = store.execute(
        r#"PREFIX ex: <http://ex.org/>
           SELECT ?B WHERE { ex:spain ex:borders* ?B }"#,
    )?;
    let star = reached(&star);
    println!("borders* (includes Spain itself): {star:?}");
    assert_eq!(
        star,
        set(&["austria", "belgium", "france", "germany", "spain"])
    );

    // The mirror image: every country from which Germany is reachable.
    let into = store.execute(
        r#"PREFIX ex: <http://ex.org/>
           SELECT ?B WHERE { ?B ex:borders+ ex:germany }"#,
    )?;
    let into = reached(&into);
    println!("borders+ into Germany: {into:?}");
    assert_eq!(into, set(&["belgium", "france", "spain"]));

    let ghost = store.execute(
        r#"PREFIX ex: <http://ex.org/>
           SELECT ?B WHERE { ex:atlantis ex:borders? ?B }"#,
    )?;
    let ghost = reached(&ghost);
    println!("borders? from a term not in the graph (the zero-length path): {ghost:?}");
    assert_eq!(ghost, set(&["atlantis"]));
    Ok(())
}
