//! Differential testing of the graph-producing query forms: SparqLog's
//! Datalog-backed CONSTRUCT/DESCRIBE against FusekiSim's independent
//! direct implementation, run as one query batch at fan-out widths 1 and
//! 4 — plus
//! CONSTRUCT-vs-SELECT consistency (the graph a CONSTRUCT builds must
//! be exactly the template instantiated over the corresponding SELECT's
//! solutions).

use sparqlog::{canonical_triples as canonical, QueryResults, Store};
use sparqlog_rdf::{Dataset, Graph, Term, Triple};
use sparqlog_refengine::FusekiSim;

const DATA: &str = r#"
@prefix ex: <http://e/> .
ex:a ex:p ex:b . ex:b ex:p ex:c . ex:c ex:p ex:a .
ex:a ex:q ex:c . ex:c ex:q ex:d .
ex:a ex:name "Anna" . ex:b ex:name "Ben" ; ex:age 30 .
ex:c ex:name "Cem"@tr ; ex:age 25 .
ex:d ex:name "Dee" ; ex:age 30 .
ex:d ex:addr _:adr . _:adr ex:city "Utrecht" .
ex:a a ex:Person . ex:b a ex:Person . ex:d a ex:Robot .
"#;

fn dataset() -> Dataset {
    Dataset::from_default_graph(sparqlog_rdf::turtle::parse(DATA).unwrap())
}

/// Runs every [`GRAPH_QUERIES`] entry in one `execute_batch` at fan-out
/// width `threads` and compares each graph with FusekiSim's.
fn compare_graphs(threads: usize) {
    let sl = Store::new();
    sl.set_threads(Some(threads));
    sl.load_dataset(&dataset()).unwrap();
    let fu = FusekiSim::new(dataset());

    let batch = sl.snapshot().execute_batch(GRAPH_QUERIES);
    for (query, a) in GRAPH_QUERIES.iter().zip(batch) {
        let a = a.unwrap_or_else(|e| panic!("SparqLog {query}: {e}"));
        let b = fu
            .execute(query)
            .unwrap_or_else(|e| panic!("FusekiSim {query}: {e}"));
        let (QueryResults::Graph(ga), QueryResults::Graph(gb)) = (&a, &b) else {
            panic!("{query}: expected graph results");
        };
        assert_eq!(canonical(ga), canonical(gb), "{query} (threads {threads})");
    }
}

const GRAPH_QUERIES: &[&str] = &[
    // Plain template over a join.
    "PREFIX ex: <http://e/> CONSTRUCT { ?s ex:reached ?o } WHERE { ?s ex:p ?m . ?m ex:p ?o }",
    // Shorthand.
    "PREFIX ex: <http://e/> CONSTRUCT WHERE { ?s ex:name ?n }",
    // OPTIONAL leaves template variables unbound → dropped triples.
    "PREFIX ex: <http://e/> CONSTRUCT { ?s ex:aged ?a } WHERE { ?s ex:name ?n OPTIONAL { ?s ex:age ?a } }",
    // Blank nodes in the template, fresh per solution.
    "PREFIX ex: <http://e/> CONSTRUCT { ?s ex:card _:c . _:c ex:label ?n } WHERE { ?s ex:name ?n }",
    // UNION + FILTER under a graph-producing form.
    "PREFIX ex: <http://e/> CONSTRUCT { ?x ex:hit ex:marker } WHERE { { ?x ex:p ex:b } UNION { ?x ex:age ?a FILTER (?a > 27) } }",
    // Property path in the WHERE clause.
    "PREFIX ex: <http://e/> CONSTRUCT { ex:a ex:closure ?z } WHERE { ex:a ex:p+ ?z }",
    // Literal-subject instantiations must be dropped by both engines.
    "PREFIX ex: <http://e/> CONSTRUCT { ?n ex:nameOf ?s } WHERE { ?s ex:name ?n }",
    // ORDER BY on a variable outside the template + LIMIT: the smallest
    // ?n (ex:c, age 25) must be the surviving solution in both engines.
    "PREFIX ex: <http://e/> CONSTRUCT { ?s ex:tag ex:t } WHERE { ?s ex:age ?n } ORDER BY ?n LIMIT 1",
    // DESCRIBE: explicit IRI (with bnode closure), variable, star.
    "DESCRIBE <http://e/d>",
    "PREFIX ex: <http://e/> DESCRIBE ?s WHERE { ?s ex:age 30 }",
    "PREFIX ex: <http://e/> DESCRIBE * WHERE { ex:a ex:p ?x }",
];

#[test]
fn construct_describe_differential_threads_1() {
    compare_graphs(1);
}

#[test]
fn construct_describe_differential_threads_4() {
    compare_graphs(4);
}

/// CONSTRUCT-vs-SELECT: instantiating the template by hand over the
/// SELECT solutions (evaluated by the *reference* engine) must equal
/// SparqLog's CONSTRUCT output.
#[test]
fn construct_agrees_with_template_over_select() {
    let cases: &[(&str, &str, [&str; 3])] = &[
        (
            "PREFIX ex: <http://e/> CONSTRUCT { ?s ex:knows ?o } WHERE { ?s ex:p ?o }",
            "PREFIX ex: <http://e/> SELECT ?s ?o WHERE { ?s ex:p ?o }",
            ["?s", "http://e/knows", "?o"],
        ),
        (
            "PREFIX ex: <http://e/> CONSTRUCT { ?s ex:named ?n } WHERE { ?s ex:name ?n . ?s ex:age ?a }",
            "PREFIX ex: <http://e/> SELECT ?s ?n WHERE { ?s ex:name ?n . ?s ex:age ?a }",
            ["?s", "http://e/named", "?n"],
        ),
    ];
    for (construct, select, template) in cases {
        let sl = Store::new();
        sl.load_dataset(&dataset()).unwrap();
        let constructed = match sl.execute(construct).unwrap() {
            QueryResults::Graph(g) => g,
            other => panic!("{construct}: expected graph, got {other:?}"),
        };

        // Reference solutions → hand instantiation.
        let fu = FusekiSim::new(dataset());
        let sols = match fu.execute(select).unwrap() {
            QueryResults::Solutions(s) => s,
            other => panic!("{select}: expected solutions, got {other:?}"),
        };
        let mut expected = Graph::new();
        for sol in sols.iter() {
            let resolve = |slot: &str| -> Option<Term> {
                match slot.strip_prefix('?') {
                    Some(var) => sol.get(var).cloned(),
                    None => Some(Term::iri(slot.to_string())),
                }
            };
            let (Some(s), Some(p), Some(o)) = (
                resolve(template[0]),
                resolve(template[1]),
                resolve(template[2]),
            ) else {
                continue;
            };
            if s.is_literal() || !p.is_iri() {
                continue;
            }
            expected.insert(Triple::new(s, p, o));
        }
        assert_eq!(canonical(&constructed), canonical(&expected), "{construct}");
    }
}
