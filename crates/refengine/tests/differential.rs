//! Differential testing: the SparqLog Datalog route vs. the direct
//! FusekiSim evaluator must produce identical result multisets — the
//! executable analogue of the paper's two-way correctness strategy (§5.3:
//! empirical evaluation + formal analysis; §6.2: "each time when both
//! Fuseki and SparqLog returned a result, the results were equal").

use sparqlog::{QueryResults, Store};
use sparqlog_rdf::{Dataset, Graph, Term, Triple};
use sparqlog_refengine::FusekiSim;

const DATA: &str = r#"
@prefix ex: <http://e/> .
ex:a ex:p ex:b . ex:b ex:p ex:c . ex:c ex:p ex:a .
ex:a ex:q ex:c . ex:c ex:q ex:d .
ex:a ex:name "Anna" . ex:b ex:name "Ben" ; ex:age 30 .
ex:c ex:name "Cem"@tr ; ex:age 25 .
ex:d ex:name "Dee" ; ex:age 30 .
ex:a a ex:Person . ex:b a ex:Person . ex:d a ex:Robot .
"#;

fn dataset() -> Dataset {
    Dataset::from_default_graph(sparqlog_rdf::turtle::parse(DATA).unwrap())
}

fn compare(query: &str) {
    compare_on(&dataset(), query)
}

fn compare_on(ds: &Dataset, query: &str) {
    let sl = Store::new();
    sl.load_dataset(ds).unwrap();
    let fu = FusekiSim::new(ds.clone());

    let a = sl
        .execute(query)
        .unwrap_or_else(|e| panic!("SparqLog {query}: {e}"));
    let b = fu
        .execute(query)
        .unwrap_or_else(|e| panic!("FusekiSim {query}: {e}"));
    match (&a, &b) {
        (QueryResults::Boolean(x), QueryResults::Boolean(y)) => {
            assert_eq!(x, y, "{query}")
        }
        (QueryResults::Solutions(x), QueryResults::Solutions(y)) => {
            assert!(
                x.multiset_eq(y),
                "{query}\nSparqLog: {:?}\nFusekiSim: {:?}",
                x.canonical(true),
                y.canonical(true)
            );
        }
        _ => panic!("{query}: result kinds differ"),
    }
}

#[test]
fn fixed_query_battery() {
    for q in [
        // Basic patterns & joins.
        "SELECT ?s ?o WHERE { ?s <http://e/p> ?o }",
        "SELECT ?s WHERE { ?s <http://e/p> ?m . ?m <http://e/p> ?o }",
        "SELECT * WHERE { ?s ?p ?o }",
        // OPTIONAL / UNION / MINUS / FILTER.
        "PREFIX ex: <http://e/> SELECT ?s ?a WHERE { ?s ex:name ?n OPTIONAL { ?s ex:age ?a } }",
        "PREFIX ex: <http://e/> SELECT ?s WHERE { { ?s ex:p ex:b } UNION { ?s ex:q ex:c } }",
        "PREFIX ex: <http://e/> SELECT ?s WHERE { ?s ex:name ?n MINUS { ?s ex:age 30 } }",
        "PREFIX ex: <http://e/> SELECT ?s WHERE { ?s ex:age ?a FILTER (?a > 26) }",
        "PREFIX ex: <http://e/> SELECT ?s WHERE { ?s ex:name ?n FILTER REGEX(STR(?n), \"^[ab]\", \"i\") }",
        "PREFIX ex: <http://e/> SELECT ?s ?a WHERE { ?s a ex:Person OPTIONAL { ?s ex:age ?a FILTER (?a > 28) } }",
        // DISTINCT & duplicates.
        "PREFIX ex: <http://e/> SELECT ?t WHERE { ?x a ?t }",
        "PREFIX ex: <http://e/> SELECT DISTINCT ?t WHERE { ?x a ?t }",
        // Property paths, incl. cyclic closure.
        "PREFIX ex: <http://e/> SELECT ?y WHERE { ex:a ex:p+ ?y }",
        "PREFIX ex: <http://e/> SELECT ?y WHERE { ex:a ex:p* ?y }",
        "PREFIX ex: <http://e/> SELECT ?y WHERE { ex:a ex:p? ?y }",
        "PREFIX ex: <http://e/> SELECT ?y WHERE { ex:a (ex:p|ex:q) ?y }",
        "PREFIX ex: <http://e/> SELECT ?y WHERE { ex:a ex:p/ex:q ?y }",
        "PREFIX ex: <http://e/> SELECT ?y WHERE { ex:a ^ex:p ?y }",
        "PREFIX ex: <http://e/> SELECT ?y WHERE { ex:a !(ex:p|ex:name) ?y }",
        "PREFIX ex: <http://e/> SELECT ?x ?y WHERE { ?x ex:p+ ?y }",
        "PREFIX ex: <http://e/> SELECT ?x ?y WHERE { ?x (ex:p/ex:p)+ ?y }",
        "PREFIX ex: <http://e/> SELECT ?y WHERE { ex:a ex:p{2} ?y }",
        "PREFIX ex: <http://e/> SELECT ?y WHERE { ex:a ex:p{2,} ?y }",
        "PREFIX ex: <http://e/> SELECT ?y WHERE { ex:a ex:p{0,2} ?y }",
        "PREFIX ex: <http://e/> SELECT ?y WHERE { ex:zzz ex:p? ?y }",
        // ASK.
        "PREFIX ex: <http://e/> ASK { ex:a ex:p ex:b }",
        "PREFIX ex: <http://e/> ASK { ex:a ex:p ex:zzz }",
        // Aggregates.
        "PREFIX ex: <http://e/> SELECT ?s (COUNT(?o) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?s",
        "PREFIX ex: <http://e/> SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }",
        // Modifiers (compare as multisets — LIMIT needs ORDER to be fair,
        // so use total orders without ties).
        "PREFIX ex: <http://e/> SELECT ?n WHERE { ?s ex:name ?n } ORDER BY ?n",
        "PREFIX ex: <http://e/> SELECT ?n WHERE { ?s ex:name ?n } ORDER BY DESC(?n) LIMIT 2",
        // Filters with unbound vars and BOUND.
        "PREFIX ex: <http://e/> SELECT ?s WHERE { ?s ex:name ?n OPTIONAL { ?s ex:age ?a } FILTER (!BOUND(?a)) }",
        // Shared variables that may be null: compatibility, not equality.
        // AND with the shared ?a null on the left, on the right, on both.
        "PREFIX ex: <http://e/> SELECT * WHERE { { ?s ex:name ?n OPTIONAL { ?s ex:age ?a } } { ?x ex:age ?a } }",
        "PREFIX ex: <http://e/> SELECT * WHERE { { ?x ex:age ?a } { ?s ex:name ?n OPTIONAL { ?s ex:age ?a } } }",
        "PREFIX ex: <http://e/> SELECT * WHERE { { ?s ex:name ?n OPTIONAL { ?s ex:age ?a } } { ?t a ?k OPTIONAL { ?t ex:age ?a } } }",
        // OPTIONAL on a possibly-null variable.
        "PREFIX ex: <http://e/> SELECT * WHERE { { ?s ex:name ?n OPTIONAL { ?s ex:age ?a } } OPTIONAL { ?x ex:age ?a } }",
        // MINUS over a possibly-null variable, on either side.
        "PREFIX ex: <http://e/> SELECT * WHERE { { ?s ex:name ?n OPTIONAL { ?s ex:age ?a } } MINUS { ?x ex:age ?a } }",
        "PREFIX ex: <http://e/> SELECT * WHERE { ?s ex:name ?n MINUS { ?s a ?k OPTIONAL { ?s ex:age ?a } } }",
        // UNION padding, then a join on the padded variable.
        "PREFIX ex: <http://e/> SELECT * WHERE { { { ?s ex:age ?a } UNION { ?t a ?k } } ?s ex:name ?n }",
        "PREFIX ex: <http://e/> SELECT * WHERE { { { ?s ex:p ?o } UNION { ?o ex:q ?z } } { ?s ex:name ?n } }",
    ] {
        compare(q);
    }
    // Pattern trees deeper than 63 levels: a 70-branch UNION, a COUNT over
    // a 70-pattern BGP, and a 70-step path sequence. Their tuple IDs nest
    // 70 Skolem terms deep.
    let union = vec!["{ ?s ex:p ?o }"; 70].join(" UNION ");
    let bgp = "?s ex:p ?o . ".repeat(70);
    for q in [
        format!("PREFIX ex: <http://e/> SELECT * WHERE {{ {union} }}"),
        format!("PREFIX ex: <http://e/> SELECT (COUNT(*) AS ?c) WHERE {{ {bgp}}}"),
        "PREFIX ex: <http://e/> SELECT ?y WHERE { ex:a ex:p{70} ?y }".to_string(),
    ] {
        compare(&q);
    }
}

/// A default graph and two named graphs that share subjects and
/// predicates, so `GRAPH ?g` has to keep the graphs apart: `<http://g/1>`
/// holds a `p`-cycle, `<http://g/2>` a `p`-chain, and `ex:a ex:p ex:b`
/// sits in the default graph and in `<http://g/1>`.
const QUADS: &str = r#"
<http://e/a> <http://e/p> <http://e/b> .
<http://e/x> <http://e/name> "Xan" .
<http://e/a> <http://e/p> <http://e/b> <http://g/1> .
<http://e/b> <http://e/p> <http://e/c> <http://g/1> .
<http://e/c> <http://e/p> <http://e/a> <http://g/1> .
<http://e/a> <http://e/q> <http://e/c> <http://g/1> .
<http://e/b> <http://e/name> "Ben" <http://g/1> .
<http://e/a> <http://e/age> "30"^^<http://www.w3.org/2001/XMLSchema#integer> <http://g/1> .
<http://e/a> <http://e/p> <http://e/c> <http://g/2> .
<http://e/c> <http://e/p> <http://e/d> <http://g/2> .
<http://e/d> <http://e/q> <http://e/a> <http://g/2> .
<http://e/a> <http://e/name> "Anna" <http://g/2> .
<http://e/c> <http://e/name> "Cem" <http://g/2> .
<http://e/c> <http://e/age> "25"^^<http://www.w3.org/2001/XMLSchema#integer> <http://g/2> .
"#;

/// Every operator under a graph variable: the translation threads `?g`
/// through each rule as the graph column, ranges it over `named` where
/// nothing else binds it, and adds it to every bag-semantics tuple ID.
#[test]
fn graph_variable_battery() {
    let ds = sparqlog_rdf::nquads::parse(QUADS).unwrap();
    for q in [
        "PREFIX ex: <http://e/> SELECT ?g ?s ?o WHERE { GRAPH ?g { ?s ex:p ?o } }",
        "SELECT ?g WHERE { GRAPH ?g { } }",
        // Zero-length paths: a constant subject, a constant object, both free.
        "PREFIX ex: <http://e/> SELECT ?g ?y WHERE { GRAPH ?g { ex:a ex:p* ?y } }",
        "PREFIX ex: <http://e/> SELECT ?g ?x WHERE { GRAPH ?g { ?x ex:p* ex:a } }",
        "PREFIX ex: <http://e/> SELECT ?g ?x ?y WHERE { GRAPH ?g { ?x ex:p* ?y } }",
        "PREFIX ex: <http://e/> SELECT ?g ?y WHERE { GRAPH ?g { ex:a ex:p+ ?y } }",
        "PREFIX ex: <http://e/> SELECT ?g ?y WHERE { GRAPH ?g { ex:a ex:p? ?y } }",
        "PREFIX ex: <http://e/> SELECT ?g ?x ?y WHERE { GRAPH ?g { ?x ex:p/ex:q ?y } }",
        "PREFIX ex: <http://e/> SELECT ?g ?y WHERE { GRAPH ?g { ex:a (ex:p|ex:q) ?y } }",
        "PREFIX ex: <http://e/> SELECT ?g ?x ?y WHERE { GRAPH ?g { ?x ^ex:p ?y } }",
        "PREFIX ex: <http://e/> SELECT ?g ?x ?y WHERE { GRAPH ?g { ?x !(ex:p) ?y } }",
        "PREFIX ex: <http://e/> SELECT ?g ?x ?y WHERE { GRAPH ?g { ?x !(^ex:p) ?y } }",
        "PREFIX ex: <http://e/> SELECT ?g ?y WHERE { GRAPH ?g { ex:a ex:p{0,2} ?y } }",
        // The binary operators.
        "PREFIX ex: <http://e/> SELECT * WHERE { GRAPH ?g { ?s ex:name ?n OPTIONAL { ?s ex:age ?a } } }",
        "PREFIX ex: <http://e/> SELECT * WHERE { GRAPH ?g { ?s ex:p ?o OPTIONAL { ?o ex:p ?z FILTER (?z != ex:a) } } }",
        "PREFIX ex: <http://e/> SELECT * WHERE { GRAPH ?g { ?s ex:p ?o MINUS { ?s ex:q ?z } } }",
        "PREFIX ex: <http://e/> SELECT * WHERE { GRAPH ?g { { ?s ex:p ex:c } UNION { ?s ex:q ?o } } }",
        "PREFIX ex: <http://e/> SELECT * WHERE { GRAPH ?g { ?s ex:age ?a FILTER (?a > 26) } }",
        // Joins across graph blocks: two graph variables, then one shared.
        "PREFIX ex: <http://e/> SELECT * WHERE { GRAPH ?g { ?s ex:p ?o } GRAPH ?h { ?o ex:name ?n } }",
        "PREFIX ex: <http://e/> SELECT * WHERE { GRAPH ?g { ?s ex:p ?o } GRAPH ?g { ?o ex:name ?n } }",
        // The default graph joined with a named one.
        "PREFIX ex: <http://e/> SELECT ?g ?o WHERE { ex:a ex:p ?o GRAPH ?g { ex:a ex:p ?o } }",
        // ASK and GROUP BY over a graph variable.
        "PREFIX ex: <http://e/> ASK { GRAPH ?g { ex:c ex:p ex:d } }",
        "PREFIX ex: <http://e/> ASK { GRAPH ?g { ex:d ex:p ex:a } }",
        "SELECT ?g (COUNT(*) AS ?c) WHERE { GRAPH ?g { ?s ?p ?o } } GROUP BY ?g",
    ] {
        compare_on(&ds, q);
    }
}

/// Self-loops, subjects with several objects per predicate, and a second
/// predicate between the same nodes: a BGP unfolded into one rule must
/// keep every duplicate a projection exposes.
const BAG: &str = r#"
@prefix ex: <http://e/> .
ex:a ex:p ex:a , ex:b , ex:c ; ex:q ex:d , ex:e , ex:f .
ex:b ex:p ex:c ; ex:q ex:d , ex:e .
ex:c ex:p ex:c ; ex:q ex:a .
ex:a ex:name "Anna" ; ex:age 30 ; a ex:T .
ex:b ex:name "Ben" ; ex:age 25 .
ex:c ex:name "Cem" .
ex:d ex:age 30 ; a ex:T .
"#;

/// A basic graph pattern is one rule after translation: its leaves and
/// joins are unfolded into their only reader, and a variable certain on
/// both sides of a join is one column instead of a `compat` item. Each
/// query compares bag-exact with the reference engine. The refusal
/// inputs join on a variable only an OPTIONAL or one UNION branch binds:
/// that variable may be unbound, so the join must keep `compat`, and
/// each gives a wrong answer if `certain` counts that side as certain.
#[test]
fn unfolded_bgp_battery() {
    let bag = Dataset::from_default_graph(sparqlog_rdf::turtle::parse(BAG).unwrap());
    for q in [
        // Projections that keep duplicates.
        "SELECT ?s WHERE { ?s ex:p ?o . ?s ex:q ?z }",
        "SELECT ?o WHERE { ?s ex:p ?o . ?o ex:p ?z }",
        "SELECT ?s WHERE { ?s ex:p ?o . ?s ex:p ?o2 . ?s ex:q ?z }",
        "SELECT DISTINCT ?s WHERE { ?s ex:p ?o . ?s ex:q ?z }",
        "SELECT (COUNT(*) AS ?c) WHERE { ?s ex:p ?o . ?s ex:q ?z }",
        // One variable twice in a pattern.
        "SELECT ?x WHERE { ?x ex:p ?x }",
        "SELECT ?x ?y WHERE { ?x ex:p ?x . ?x ex:p ?y }",
        "SELECT ?x WHERE { ?x ex:p ?y . ?y ex:p ?y }",
        // A variable predicate.
        "SELECT ?s ?p WHERE { ?s ?p ex:c . ?s ex:q ?z }",
        "SELECT ?p WHERE { ex:a ?p ?o . ?o ?p ex:c }",
        "SELECT ?s ?p ?o WHERE { ?s ?p ?o . ?o ?p ?s }",
        // Constants in every position.
        "SELECT * WHERE { ex:a ex:p ?o . ?o ex:p ex:c }",
        "SELECT ?o WHERE { ex:a ex:p ?o . ex:b ex:p ex:c }",
        "SELECT * WHERE { ex:a ex:p ex:b . ex:b ex:p ex:c }",
        "SELECT * WHERE { ex:a ex:p ex:b . ex:b ex:p ex:zzz }",
        "ASK { ex:a ex:p ex:b . ex:b ex:p ex:c }",
        "ASK { ?s ex:p ex:b . ?s ex:q ex:zzz }",
        "SELECT ?s WHERE { ?s ex:age 30 . ?s a ex:T }",
        // Paths whose endpoints join triples.
        "SELECT * WHERE { ?x ex:p+ ?y . ?y ex:q ?z }",
        "SELECT ?x ?z WHERE { ?x ex:p/ex:q ?y . ?y ex:age ?z }",
        "SELECT ?y ?n WHERE { ex:a ex:p* ?y . ?y ex:name ?n }",
        "SELECT ?x WHERE { ?x ex:name ?n . ?x ^ex:q ?y . ?y ex:p+ ?x }",
        // FILTER over joined variables.
        "SELECT ?s ?n WHERE { ?s ex:p ?o . ?o ex:name ?n FILTER (?s != ?o) }",
        "SELECT * WHERE { ?s ex:age ?a . ?t ex:age ?b FILTER (?a < ?b) }",
        "SELECT ?s ?t WHERE { ?s ex:age ?a . ?t ex:age ?b FILTER (?a = ?b && ?s != ?t) }",
        "SELECT ?s WHERE { ?s ex:p ?o . ?o ex:q ?z FILTER (?z != ex:a) }",
        // Refusal inputs: a join on a variable bound only inside an
        // earlier OPTIONAL, and on one only one UNION branch binds.
        "SELECT * WHERE { { ?s ex:name ?n OPTIONAL { ?s ex:age ?a } } ?x ex:age ?a }",
        "SELECT ?s ?a WHERE { { ?s ex:name ?n OPTIONAL { ?s ex:age ?a } } ?t ex:age ?a }",
        "SELECT * WHERE { { { ?s ex:age ?a } UNION { ?t a ?k } } ?s ex:name ?n }",
        "SELECT ?s ?t WHERE { { { ?s ex:q ?a } UNION { ?t a ex:T } } ?s ex:p ?o }",
    ] {
        compare_on(&bag, &format!("PREFIX ex: <http://e/> {q}"));
    }
    // Joins on a graph variable.
    let quads = sparqlog_rdf::nquads::parse(QUADS).unwrap();
    for q in [
        "SELECT * WHERE { GRAPH ?g { ?s ex:p ?o . ?o ex:p ?z } }",
        "SELECT ?g ?s WHERE { GRAPH ?g { ?s ex:p ?o . ?o ex:name ?n } }",
        "SELECT * WHERE { GRAPH ?g { ?s ex:p ?o } GRAPH ?g { ?o ex:p ?z } }",
        "SELECT * WHERE { ?s ex:p ?o GRAPH ?g { ?o ex:p ?z } }",
        "SELECT ?g ?h WHERE { GRAPH ?g { ?s ex:p ?o } GRAPH ?h { ?s ex:name ?n } }",
        "SELECT ?g ?y WHERE { GRAPH ?g { ex:a ex:p+ ?y . ?y ex:name ?n } }",
    ] {
        compare_on(&quads, &format!("PREFIX ex: <http://e/> {q}"));
    }
}

/// `p`/`q` edges over `ex:a`…`ex:f` as N-Quads: each edge in the default
/// graph and in `<http://g/1>`, and reversed in `<http://g/2>`.
fn closure_dataset(edges: &[(&str, &str, &str)]) -> Dataset {
    let mut doc = String::new();
    for (s, p, o) in edges {
        let [s, p, o] = [s, p, o].map(|t| format!("<http://e/{t}>"));
        doc.push_str(&format!("{s} {p} {o} .\n{s} {p} {o} <http://g/1> .\n"));
        doc.push_str(&format!("{o} {p} {s} <http://g/2> .\n"));
    }
    sparqlog_rdf::nquads::parse(&doc).unwrap()
}

/// Closures with a constant endpoint, which T_Q grows from that end, and
/// the shapes beside them that keep the binary closure: a closure inside
/// a sequence or alternative sees the top-level endpoints only through
/// Def. A.15's S/O propagation. Each runs on a cyclic graph, an acyclic
/// one and one where `ex:c` is absent.
#[test]
fn bound_closure_battery() {
    let cyclic = [
        ("a", "p", "b"),
        ("b", "p", "c"),
        ("c", "p", "a"),
        ("c", "p", "d"),
        ("d", "q", "c"),
        ("c", "q", "e"),
        ("e", "p", "e"),
        ("e", "q", "f"),
        ("b", "q", "d"),
    ];
    let acyclic = [
        ("a", "p", "c"),
        ("c", "p", "d"),
        ("d", "p", "e"),
        ("c", "q", "b"),
        ("b", "p", "f"),
        ("d", "q", "f"),
        ("a", "q", "c"),
    ];
    let absent = [
        ("a", "p", "b"),
        ("b", "p", "d"),
        ("d", "q", "a"),
        ("b", "q", "e"),
    ];
    let queries = [
        "SELECT ?y WHERE { ex:c ex:p+ ?y }",
        "SELECT ?x WHERE { ?x ex:p+ ex:c }",
        "SELECT ?y WHERE { ex:c ex:p* ?y }",
        "SELECT ?x WHERE { ?x ex:p* ex:c }",
        "ASK { ex:c ex:p+ ex:c }",
        "SELECT * WHERE { ex:c ex:p+ ex:c }",
        "SELECT * WHERE { ex:c ex:p* ex:d }",
        "SELECT * WHERE { ex:c ex:p* ex:c }",
        "SELECT * WHERE { ex:c ex:p+ ex:d }",
        "SELECT ?y WHERE { ex:c ^ex:p+ ?y }",
        "SELECT ?y WHERE { ex:c (^ex:p)+ ?y }",
        "SELECT ?x WHERE { ?x (^ex:p)* ex:c }",
        "SELECT ?y WHERE { ex:c (ex:p|^ex:q)* ?y }",
        "SELECT ?x WHERE { ?x (ex:p|^ex:q)+ ex:c }",
        "SELECT ?y WHERE { ex:c (ex:p/ex:q)+ ?y }",
        "SELECT ?g ?y WHERE { GRAPH ?g { ex:c ex:p* ?y } }",
        "SELECT ?g ?x WHERE { GRAPH ?g { ?x ex:p+ ex:c } }",
        "SELECT ?y WHERE { GRAPH <http://g/2> { ex:c ex:p+ ?y } }",
        // The S/O-propagation traps.
        "SELECT ?y WHERE { ex:c ex:p/ex:q+ ?y }",
        "SELECT ?y WHERE { ex:c ex:q+/ex:p ?y }",
        "SELECT ?y WHERE { ex:c (ex:p+|ex:q) ?y }",
        "SELECT ?y WHERE { ex:c ex:p/ex:q* ?y }",
        // A bound closure joined with another pattern.
        "SELECT ?y ?z WHERE { ex:c ex:p* ?y . ?y ex:q ?z }",
    ];
    for edges in [&cyclic[..], &acyclic, &absent] {
        let ds = closure_dataset(edges);
        for q in queries {
            compare_on(&ds, &format!("PREFIX ex: <http://e/> {q}"));
        }
    }
}

/// Keys for [`ordered_results_agree_in_order`]: every key value is
/// distinct where it decides an order, so the sequences are total.
const ORDERED: &str = r#"
@prefix ex: <http://e/> .
ex:a ex:v 3 ; ex:g 1 ; ex:n "x" ; ex:h ex:ha ; a ex:T1 .
ex:b ex:v 1 ; ex:g 2 ; ex:n "y" ; a ex:T2 .
ex:c ex:v 2 ; ex:g 1 ; ex:n "z" ; ex:h ex:hc ; a ex:T1 .
ex:d ex:n "w" .
"#;

#[test]
fn ordered_results_agree_in_order() {
    // With a total order, the *sequences* must match.
    let ordered = Dataset::from_default_graph(sparqlog_rdf::turtle::parse(ORDERED).unwrap());
    for (ds, body) in [
        (dataset(), "SELECT ?n WHERE { ?s ex:name ?n } ORDER BY ?n"),
        // Keys the SELECT does not project, ascending and descending.
        (
            ordered.clone(),
            "SELECT ?s WHERE { ?s ex:v ?o } ORDER BY ?o",
        ),
        (
            ordered.clone(),
            "SELECT ?s WHERE { ?s ex:v ?o } ORDER BY DESC(?o)",
        ),
        (
            ordered.clone(),
            "SELECT ?s WHERE { ?s ex:v ?o } ORDER BY ?o LIMIT 1",
        ),
        (
            ordered.clone(),
            "SELECT ?s WHERE { ?s ex:v ?o } ORDER BY DESC(?o) LIMIT 2 OFFSET 1",
        ),
        // DISTINCT after the hidden key orders the rows: T2 (1) before T1 (2, 3).
        (
            ordered.clone(),
            "SELECT DISTINCT ?t WHERE { ?s ex:v ?o ; a ?t } ORDER BY ?o",
        ),
        // An expression over an unprojected OPTIONAL variable (FEASIBLE's shape).
        (
            ordered.clone(),
            "SELECT ?n WHERE { ?s ex:n ?n OPTIONAL { ?s ex:h ?h } } ORDER BY (!BOUND(?h)) ?n",
        ),
        // Two hidden keys.
        (
            ordered.clone(),
            "SELECT ?s WHERE { ?s ex:g ?g ; ex:v ?o } ORDER BY ?g DESC(?o)",
        ),
    ] {
        let q = format!("PREFIX ex: <http://e/> {body}");
        let sl = Store::new();
        sl.load_dataset(&ds).unwrap();
        let a = sl.execute(&q).unwrap();
        let b = FusekiSim::new(ds).execute(&q).unwrap();
        let (QueryResults::Solutions(x), QueryResults::Solutions(y)) = (&a, &b) else {
            panic!("expected solutions");
        };
        assert_eq!(x, y, "{body}: ordered sequences must be identical");
    }
}

// ------------------------------------------------- randomised differential

/// Deterministic SplitMix64 case generator (in-tree — the workspace
/// builds offline, without proptest).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo)
    }
}

/// A small pool of IRIs for random graphs.
fn node(i: u8) -> Term {
    Term::iri(format!("http://n/{}", i % 8))
}

fn pred(i: u8) -> Term {
    Term::iri(format!("http://p/{}", i % 3))
}

fn random_graph(rng: &mut Rng) -> Graph {
    let mut g = Graph::new();
    for _ in 0..rng.range(1, 40) {
        let (s, p, o) = (
            rng.range(0, 8) as u8,
            rng.range(0, 3) as u8,
            rng.range(0, 8) as u8,
        );
        g.insert(Triple::new(node(s), pred(p), node(o)));
    }
    g
}

/// Random queries drawn from templates covering joins, optional, union,
/// filters and paths over the random graph's vocabulary.
fn query_template(i: usize) -> String {
    let templates = [
        "SELECT ?s ?o WHERE { ?s <http://p/0> ?o }",
        "SELECT ?s ?o WHERE { ?s <http://p/0> ?m . ?m <http://p/1> ?o }",
        "SELECT ?s ?o WHERE { ?s <http://p/0> ?o OPTIONAL { ?o <http://p/1> ?z } }",
        "SELECT ?s WHERE { { ?s <http://p/0> ?o } UNION { ?s <http://p/1> ?o } }",
        "SELECT ?s WHERE { ?s <http://p/0> ?o MINUS { ?s <http://p/1> ?z } }",
        "SELECT ?s ?o WHERE { ?s <http://p/0>+ ?o }",
        "SELECT ?o WHERE { <http://n/0> <http://p/0>* ?o }",
        "SELECT ?o WHERE { <http://n/1> (<http://p/0>|<http://p/1>) ?o }",
        "SELECT ?o WHERE { <http://n/2> (<http://p/0>/<http://p/1>?) ?o }",
        "SELECT ?s WHERE { ?s !(<http://p/2>) ?o }",
        "SELECT DISTINCT ?s ?o WHERE { ?s (<http://p/1>/<http://p/0>)+ ?o }",
        "SELECT ?s (COUNT(?o) AS ?c) WHERE { ?s <http://p/0> ?o } GROUP BY ?s",
        "ASK { ?s <http://p/2> ?o }",
        "SELECT ?s WHERE { ?s ?p ?o FILTER (ISIRI(?o) && ?p != <http://p/2>) }",
        "SELECT ?o WHERE { <http://n/3> <http://p/0>{0,2} ?o }",
        "SELECT ?s ?o WHERE { ?s ^<http://p/1> ?o . ?s <http://p/0> ?z }",
    ];
    templates[i % templates.len()].to_string()
}

/// The Datalog route and the direct route agree on random graphs and
/// queries (the paper's majority-vote correctness check, mechanised).
#[test]
fn datalog_and_direct_routes_agree() {
    let mut rng = Rng(0xd1ff);
    for case in 0..48u64 {
        let g = random_graph(&mut rng);
        let qi = rng.range(0, 16) as usize;
        let query = query_template(qi);
        let ds = Dataset::from_default_graph(g);
        let sl = Store::new();
        sl.load_dataset(&ds).unwrap();
        let fu = FusekiSim::new(ds);
        let a = sl.execute(&query).unwrap();
        let b = fu.execute(&query).unwrap();
        match (&a, &b) {
            (QueryResults::Boolean(x), QueryResults::Boolean(y)) => {
                assert_eq!(x, y, "case {case}: {query}")
            }
            (QueryResults::Solutions(x), QueryResults::Solutions(y)) => {
                assert!(
                    x.multiset_eq(y),
                    "case {case}: query {}\nSparqLog: {:?}\nFusekiSim: {:?}",
                    query,
                    x.canonical(true),
                    y.canonical(true)
                );
            }
            _ => panic!("case {case}: result kinds differ"),
        }
    }
}

/// Parallel evaluation must be observably identical to sequential
/// evaluation: on every random graph, all query templates run as one
/// `execute_batch` at fan-out widths 2, 4 and 8 give multiset-identical
/// results, in input order, to running them one by one.
#[test]
fn parallel_evaluation_matches_sequential_on_random_battery() {
    let mut rng = Rng(0x9a11e1);
    let queries: Vec<String> = (0..16).map(query_template).collect();
    let texts: Vec<&str> = queries.iter().map(String::as_str).collect();
    for case in 0..24u64 {
        let ds = Dataset::from_default_graph(random_graph(&mut rng));
        let store = Store::new();
        store.load_dataset(&ds).unwrap();
        let reference: Vec<QueryResults> =
            texts.iter().map(|q| store.execute(q).unwrap()).collect();
        for threads in [2usize, 4, 8] {
            store.set_threads(Some(threads));
            let batch = store.snapshot().execute_batch(&texts);
            for ((query, expected), got) in texts.iter().zip(&reference).zip(batch) {
                match (expected, &got.unwrap()) {
                    (QueryResults::Boolean(x), QueryResults::Boolean(y)) => {
                        assert_eq!(x, y, "case {case} threads {threads}: {query}")
                    }
                    (QueryResults::Solutions(x), QueryResults::Solutions(y)) => {
                        assert!(
                            x.multiset_eq(y),
                            "case {case} threads {threads}: query {}\nseq: {:?}\npar: {:?}",
                            query,
                            x.canonical(true),
                            y.canonical(true)
                        );
                    }
                    _ => panic!("case {case} threads {threads}: result kinds differ"),
                }
            }
        }
    }
}

#[test]
fn virtuoso_quirks_visible() {
    use sparqlog_refengine::VirtuosoSim;
    let vi = VirtuosoSim::new(dataset());
    // Two-variable recursive path → error.
    let err = vi
        .execute("PREFIX ex: <http://e/> SELECT ?x ?y WHERE { ?x ex:p+ ?y }")
        .unwrap_err();
    assert!(matches!(
        err,
        sparqlog_refengine::EngineError::NotSupported(_)
    ));
    // Cycle a→b→c→a: Virtuoso misses (a, a).
    let fu = FusekiSim::new(dataset());
    let q = "PREFIX ex: <http://e/> SELECT ?y WHERE { ex:a ex:p+ ?y }";
    let correct = fu.execute(q).unwrap();
    let wrong = vi.execute(q).unwrap();
    assert_eq!(correct.len(), 3, "a reaches b, c and itself");
    assert_eq!(wrong.len(), 2, "Virtuoso loses the cycle");
}

#[test]
fn stardog_sim_reasons() {
    use sparqlog::{Axiom, Ontology};
    use sparqlog_refengine::StardogSim;
    let onto = Ontology::new().with(Axiom::SubClassOf(
        "http://e/Person".into(),
        "http://e/Agent".into(),
    ));
    let st = StardogSim::new(dataset(), &onto);
    let r = st
        .execute("PREFIX ex: <http://e/> SELECT ?x WHERE { ?x a ex:Agent }")
        .unwrap();
    assert_eq!(r.len(), 2, "a and b are inferred Agents");

    // SparqLog with the same ontology agrees.
    let sl = Store::new();
    sl.load_dataset(&dataset()).unwrap();
    sl.add_ontology(&onto).unwrap();
    let r2 = sl
        .execute("PREFIX ex: <http://e/> SELECT ?x WHERE { ?x a ex:Agent }")
        .unwrap();
    assert!(r.solutions().unwrap().multiset_eq(r2.solutions().unwrap()));
}
