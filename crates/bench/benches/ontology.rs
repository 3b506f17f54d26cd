//! Bench behind Figure 10: query answering under an ontology, SparqLog
//! (rules, materialised at load) vs. StardogSim (forward chaining then
//! direct evaluation).

use sparqlog::Store;
use sparqlog_bench::microbench::Bench;
use sparqlog_benchdata::ontology::{build, queries};
use sparqlog_benchdata::sp2bench::Sp2bConfig;
use sparqlog_rdf::Dataset;
use sparqlog_refengine::StardogSim;

fn main() {
    let (graph, onto) = build(Sp2bConfig {
        target_triples: 2_000,
        seed: 3,
    });
    let dataset = Dataset::from_default_graph(graph);
    let qs = queries();
    let mut b = Bench::new("ontology");

    for id in ["oq1", "oq3", "oq4"] {
        let (_, q) = qs.iter().find(|(i, _)| *i == id).unwrap();
        b.bench(&format!("sparqlog/{id}"), || {
            let engine = Store::new();
            engine.load_dataset(&dataset).unwrap();
            engine.add_ontology(&onto).unwrap();
            engine.execute(q).unwrap()
        });
        b.bench(&format!("stardog/{id}"), || {
            StardogSim::new(dataset.clone(), &onto).execute(q).unwrap()
        });
    }

    b.finish();
}
