//! Explain: inspect the physical plan the cost-based planner chooses for
//! a query, and the statistics it chose it from — including a basic graph
//! pattern, which the translation hands the planner as one rule, and a
//! query whose only join is a filter equality, which the translation
//! rewrites into a join key before planning.
//!
//! ```sh
//! cargo run --example explain_plan
//! ```
//!
//! The planner sits between the SPARQL → Datalog translation and the
//! evaluator: per-relation row counts and per-column distinct estimates
//! drive a greedy join order, and each probe records the exact
//! `(predicate, mask)` hash index it will use. `Snapshot::explain`
//! renders that plan; `Snapshot::stats` exposes the statistics.

use sparqlog::Store;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let store = Store::new();
    // A skewed graph: many `borders` edges, few `capital` facts — the
    // planner should start from the selective atom regardless of where
    // it sits in the query text.
    let mut turtle = String::from("@prefix ex: <http://ex.org/> .\n");
    for i in 0..200 {
        turtle.push_str(&format!("ex:c{i} ex:borders ex:c{} .\n", (i + 1) % 200));
        turtle.push_str(&format!("ex:c{i} ex:borders ex:c{} .\n", (i + 7) % 200));
    }
    turtle.push_str("ex:c0 ex:capital ex:k0 .\n");
    store.load_turtle(&turtle)?;

    let query = "PREFIX ex: <http://ex.org/>
                 SELECT ?n ?k WHERE { ?c ex:borders ?n . ?c ex:capital ?k }";
    let prepared = store.prepare(query)?;
    let snapshot = store.snapshot();

    // The statistics the plan is based on.
    let stats = snapshot.stats();
    let triple = snapshot.symbols().get("triple").expect("triple relation");
    let triple_stats = stats.relation(triple).expect("triple has statistics");
    println!(
        "triple relation: {} rows, per-column distinct estimates {:?}\n",
        triple_stats.rows, triple_stats.distinct
    );

    // The chosen physical plan: atom order, and per atom step its kind,
    // probe mask and estimate.
    let plan = snapshot.explain(&prepared)?;
    println!("plan for:\n  {query}\n");
    println!("{plan}");
    assert!(plan.contains("probe item"), "the plan probes no atom");

    // Executing the prepared query reuses the cached plan — zero
    // planning work per execution until statistics drift.
    let before = snapshot.plans_computed();
    let result = snapshot.execute_prepared(&prepared)?;
    println!(
        "{} solution(s), plans computed during execution: {}",
        result.len(),
        snapshot.plans_computed() - before
    );

    explain_bgp_as_one_rule()?;
    explain_filter_equality()
}

/// A three-pattern BGP with a filter: the translation unfolds each
/// pattern's rule and the joins between them into the one rule that
/// reads them, and the patterns share `?p` and `?c` as columns (both are
/// bound in every solution), so the planner orders all three atoms
/// itself and the filter runs as soon as `?a` is bound.
fn explain_bgp_as_one_rule() -> Result<(), Box<dyn std::error::Error>> {
    let store = Store::new();
    let mut turtle = String::from("@prefix ex: <http://ex.org/> .\n");
    for i in 0..100 {
        turtle.push_str(&format!(
            "ex:p{i} ex:livesIn ex:c{} ; ex:age {} .\n",
            i % 10,
            20 + i % 50
        ));
    }
    turtle.push_str("ex:c3 ex:name \"Graz\" .\n");
    store.load_turtle(&turtle)?;

    let query = "PREFIX ex: <http://ex.org/>
                 SELECT ?p ?a WHERE {
                   ?p ex:livesIn ?c . ?p ex:age ?a . ?c ex:name \"Graz\"
                   FILTER (?a > 40) }";
    let prepared = store.prepare(query)?;
    let snapshot = store.snapshot();
    let plan = snapshot.explain(&prepared)?;
    println!("\nplan for:\n  {query}\n");
    println!("{plan}");
    let rules = plan.lines().filter(|l| l.starts_with("rule ")).count();
    assert_eq!(rules, 1, "the BGP is not one rule");
    println!(
        "{} solution(s)",
        snapshot.execute_prepared(&prepared)?.len()
    );
    Ok(())
}

/// SP²Bench Q5a's shape: two patterns connected only by `FILTER (?n =
/// ?m)`. Before planning, the translation's equality rewrite unfolds the
/// join under the filter into one rule and unifies `?m` with `?n`, so the
/// plan probes the label atom on the name already bound (a keyed join, not
/// a filtered product); a second rule keeps the numerically-equal,
/// non-identical matches `=` also admits.
fn explain_filter_equality() -> Result<(), Box<dyn std::error::Error>> {
    let store = Store::new();
    let mut turtle = String::from("@prefix ex: <http://ex.org/> .\n");
    for i in 0..200 {
        turtle.push_str(&format!("ex:c{i} ex:name \"country {i}\" .\n"));
        turtle.push_str(&format!("ex:k{i} ex:label \"country {}\" .\n", i * 7 % 200));
    }
    store.load_turtle(&turtle)?;

    let query = "PREFIX ex: <http://ex.org/>
                 SELECT ?c ?k WHERE { ?c ex:name ?n . ?k ex:label ?m FILTER (?n = ?m) }";
    let prepared = store.prepare(query)?;
    let snapshot = store.snapshot();
    let plan = snapshot.explain(&prepared)?;
    println!("\nplan for:\n  {query}\n");
    println!("{plan}");
    assert!(
        plan.contains("<http://ex.org/label>, v_n,"),
        "the filter equality was not turned into a join key"
    );
    println!(
        "{} solution(s)",
        snapshot.execute_prepared(&prepared)?.len()
    );
    Ok(())
}
