//! Mini compliance harness: runs the same queries on SparqLog, FusekiSim
//! and VirtuosoSim and reports agreement — the paper's majority-voting
//! methodology (Appendix D.2.2) in miniature.
//!
//! ```sh
//! cargo run --example compliance_check
//! ```

use sparqlog::{QueryResults, Store};
use sparqlog_rdf::Dataset;
use sparqlog_refengine::{FusekiSim, VirtuosoSim};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let graph = sparqlog_rdf::turtle::parse(
        r#"
        @prefix ex: <http://ex.org/> .
        ex:a ex:p ex:b . ex:b ex:p ex:c . ex:c ex:p ex:a .
        ex:a ex:q ex:c .
        "#,
    )?;
    let dataset = Dataset::from_default_graph(graph);

    let queries = [
        (
            "one-or-more over a cycle",
            "PREFIX ex: <http://ex.org/> SELECT ?y WHERE { ex:a ex:p+ ?y }",
        ),
        (
            "two-variable closure",
            "PREFIX ex: <http://ex.org/> SELECT ?x ?y WHERE { ?x ex:p+ ?y }",
        ),
        (
            "alternative duplicates",
            "PREFIX ex: <http://ex.org/> SELECT ?y WHERE { ex:a (ex:p|ex:q) ?y . ex:a ex:q ?y }",
        ),
    ];

    let sl = Store::new();
    sl.load_dataset(&dataset)?;
    let fu = FusekiSim::new(dataset.clone());
    let vi = VirtuosoSim::new(dataset);

    for (name, q) in queries {
        println!("--- {name}");
        let a = sl.execute(q)?;
        let b = fu.execute(q).map_err(|e| e.to_string());
        let c = vi.execute(q).map_err(|e| e.to_string());
        println!("  SparqLog: {} solutions", a.len());
        match &b {
            Ok(r) => println!(
                "  Fuseki:   {} solutions ({})",
                r.len(),
                if eq(&a, r) { "agrees" } else { "DISAGREES" }
            ),
            Err(e) => println!("  Fuseki:   error: {e}"),
        }
        match &c {
            Ok(r) => println!(
                "  Virtuoso: {} solutions ({})",
                r.len(),
                if eq(&a, r) { "agrees" } else { "DISAGREES" }
            ),
            Err(e) => println!("  Virtuoso: error: {e}"),
        }
    }
    Ok(())
}

fn eq(a: &QueryResults, b: &QueryResults) -> bool {
    match (a, b) {
        (QueryResults::Solutions(x), QueryResults::Solutions(y)) => x.multiset_eq(y),
        (QueryResults::Boolean(x), QueryResults::Boolean(y)) => x == y,
        _ => false,
    }
}
