//! Bench behind Figures 8/9: recursive path queries on gMark instances —
//! the workload class where the Datalog translation shines.

use sparqlog::Store;
use sparqlog_bench::microbench::Bench;
use sparqlog_benchdata::gmark::{generate, GmarkConfig, Scenario};
use sparqlog_rdf::Dataset;
use sparqlog_refengine::FusekiSim;

fn main() {
    let dataset = Dataset::from_default_graph(generate(GmarkConfig {
        scenario: Scenario::Social,
        nodes: 400,
        seed: 7,
    }));
    let mut b = Bench::new("gmark");

    let cases = [
        ("bound_plus", "PREFIX g: <http://example.org/gMark/> SELECT * WHERE { g:person3 g:knows+ ?y }"),
        ("two_var_plus", "PREFIX g: <http://example.org/gMark/> SELECT * WHERE { ?x g:follows+ ?y }"),
        ("alt_closure", "PREFIX g: <http://example.org/gMark/> SELECT * WHERE { g:person3 (g:knows|g:follows)+ ?y }"),
    ];
    for (name, q) in cases {
        b.bench(&format!("sparqlog/{name}"), || {
            let engine = Store::new();
            engine.load_dataset(&dataset).unwrap();
            engine.execute(q).unwrap()
        });
        b.bench(&format!("fuseki/{name}"), || {
            FusekiSim::new(dataset.clone()).execute(q).unwrap()
        });
    }

    b.finish();
}
