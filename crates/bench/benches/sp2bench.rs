//! Bench behind Figure 7: SP²Bench query execution on the SparqLog
//! engine and the FusekiSim baseline (small instance — the full sweep
//! lives in the `fig7_sp2bench` binary).

use sparqlog::Store;
use sparqlog_bench::microbench::Bench;
use sparqlog_benchdata::sp2bench::{self, Sp2bConfig};
use sparqlog_rdf::Dataset;
use sparqlog_refengine::FusekiSim;

fn main() {
    let dataset = Dataset::from_default_graph(sp2bench::generate(Sp2bConfig {
        target_triples: 2_000,
        seed: 1,
    }));
    let queries = sp2bench::queries();
    let mut b = Bench::new("sp2bench");

    // Representative queries (cheap, join-heavy, negation, union, ask).
    for id in ["q1", "q3a", "q6", "q8", "q15"] {
        let (_, q) = queries.iter().find(|(i, _)| *i == id).unwrap();
        b.bench(&format!("sparqlog/{id}"), || {
            let engine = Store::new();
            engine.load_dataset(&dataset).unwrap();
            engine.execute(q).unwrap()
        });
        b.bench(&format!("fuseki/{id}"), || {
            FusekiSim::new(dataset.clone()).execute(q).unwrap()
        });
    }

    b.finish();
}
