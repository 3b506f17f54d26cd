//! Differential testing of the physical planner: every query runs
//! through the store under all four optimiser configurations —
//! cost-based planning on/off × magic-sets rewrite on/off — at evaluator
//! thread counts 1 and 4, and each result is checked against both the
//! unoptimised evaluation *and* FusekiSim's independent direct
//! implementation.
//!
//! The planner's contract is that plans are advice: a reordered body or
//! a demand-restricted fixpoint may change the work performed but never
//! the answer. This suite is that contract, executed — and the same
//! contract for the filter-equality rewrite every translated program
//! passes through, on a fixture built from the terms its `=` tells apart.

use sparqlog::{QueryResults, Store};
use sparqlog_datalog::EvalOptions;
use sparqlog_rdf::Dataset;
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

/// Joins with selective atoms in unhelpful text positions, property
/// paths with bound and unbound endpoints (the magic-sets target and
/// its complement), and the non-monotone forms (OPTIONAL, MINUS,
/// aggregates) whose stratification the planner must preserve.
const QUERIES: &[&str] = &[
    // Multi-atom joins: the planner reorders these.
    "PREFIX ex: <http://e/> SELECT ?s ?o WHERE { ?s ex:p ?m . ?m ex:p ?o }",
    "PREFIX ex: <http://e/> SELECT ?s ?n WHERE { ?s ex:p ?m . ?m ex:q ?o . ?s ex:name ?n }",
    "PREFIX ex: <http://e/> SELECT ?s WHERE { ?s ex:age 30 . ?s ex:name ?n . ?s a ex:Person }",
    // Bound-endpoint recursive paths: the magic-sets target.
    "PREFIX ex: <http://e/> SELECT ?y WHERE { ex:a ex:p+ ?y }",
    "PREFIX ex: <http://e/> SELECT ?y WHERE { ex:a ex:p* ?y }",
    "PREFIX ex: <http://e/> SELECT ?x WHERE { ?x ex:p+ ex:c }",
    "PREFIX ex: <http://e/> SELECT ?y WHERE { ex:a (ex:p/ex:q)+ ?y }",
    "PREFIX ex: <http://e/> ASK { ex:b ex:p+ ex:a }",
    // Unbound-endpoint paths: the rewrite must leave these whole.
    "PREFIX ex: <http://e/> SELECT ?x ?y WHERE { ?x ex:p+ ?y }",
    "PREFIX ex: <http://e/> SELECT ?x ?y WHERE { ?x (ex:p|ex:q)+ ?y }",
    // Path feeding a join (the path predicate gains a consumer).
    "PREFIX ex: <http://e/> SELECT ?n WHERE { ex:a ex:p+ ?y . ?y ex:name ?n }",
    // Non-monotone forms around the reordered joins.
    "PREFIX ex: <http://e/> SELECT ?s ?a WHERE { ?s ex:name ?n OPTIONAL { ?s ex:age ?a } }",
    "PREFIX ex: <http://e/> SELECT ?s WHERE { ?s ex:name ?n MINUS { ?s ex:age 30 } }",
    "PREFIX ex: <http://e/> SELECT ?s WHERE { { ?s ex:p ex:b } UNION { ?s ex:q ex:c } }",
    "PREFIX ex: <http://e/> SELECT ?s (COUNT(?o) AS ?c) WHERE { ?s ?p ?o } GROUP BY ?s",
    "PREFIX ex: <http://e/> SELECT ?s WHERE { ?s ex:age ?a FILTER (?a > 26) }",
];

/// The filter-equality rewrite's fixture: one subject per kind of term
/// the engine's `=` distinguishes — identical numerals, numerically equal
/// numerals in four lexical forms and datatypes, `NaN`, a plain string and
/// its language-tagged twin, an IRI — each carried by `ex:v` and `ex:w` so
/// an equality between the two properties joins two otherwise
/// disconnected patterns (SP²Bench Q5a's shape). `ex:k` gives some
/// subjects two kinds, so projections without DISTINCT carry duplicates.
const EQ_DATA: &str = r#"
@prefix ex: <http://e/> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
ex:i1 ex:v "1"^^xsd:integer ; ex:w "1"^^xsd:integer ; ex:k ex:K1 , ex:K2 .
ex:i2 ex:v "01"^^xsd:integer ; ex:w "1.0"^^xsd:decimal ; ex:k ex:K1 .
ex:i3 ex:v "1.0"^^xsd:decimal ; ex:w "1"^^xsd:double ; ex:k ex:K2 .
ex:i4 ex:v "1"^^xsd:double ; ex:w "2"^^xsd:integer .
ex:n ex:v "NaN"^^xsd:double ; ex:w "NaN"^^xsd:double ; ex:k ex:K1 .
ex:s ex:v "a" ; ex:w "a"@en ; ex:k ex:K1 , ex:K2 .
ex:l ex:v "a"@en ; ex:w "a" .
ex:r ex:v ex:i1 ; ex:w ex:i1 ; ex:k ex:K2 .
ex:x ex:v "x" ; ex:w "x" .
"#;

/// Equalities the rewrite turns into join keys, and the places it must
/// leave alone. The first two differ exactly where `=` is wider than
/// `sameTerm`: dropping the numeric side rule (`=` treated as
/// `sameTerm`) loses the `1`/`01`/`1.0`/`1e0` pairs of the first, and
/// giving `sameTerm` a side rule adds them to the second.
const EQ_QUERIES: &[&str] = &[
    // `=` and `sameTerm` between variables of disconnected components.
    "PREFIX ex: <http://e/> SELECT ?s ?o ?x ?y WHERE { ?s ex:v ?x . ?o ex:w ?y FILTER (?x = ?y) }",
    "PREFIX ex: <http://e/> SELECT ?s ?o ?x WHERE { ?s ex:v ?x . ?o ex:w ?y FILTER (sameTerm(?x, ?y)) }",
    // Against an IRI, a plain string, a lang-tagged string, numerals, NaN.
    "PREFIX ex: <http://e/> SELECT ?s WHERE { ?s ex:v ?x FILTER (?x = ex:i1) }",
    "PREFIX ex: <http://e/> SELECT ?s WHERE { ?s ex:v ?x FILTER (?x = \"a\") }",
    "PREFIX ex: <http://e/> SELECT ?s WHERE { ?s ex:v ?x FILTER (?x = \"a\"@en) }",
    "PREFIX ex: <http://e/> SELECT ?s ?x WHERE { ?s ex:v ?x FILTER (?x = 1) }",
    "PREFIX ex: <http://e/> SELECT ?s ?x WHERE { ?s ex:v ?x FILTER (1.0 = ?x) }",
    "PREFIX ex: <http://e/> PREFIX xsd: <http://www.w3.org/2001/XMLSchema#> \
     SELECT ?s ?x WHERE { ?s ex:v ?x FILTER (?x = \"1\"^^xsd:double) }",
    "PREFIX ex: <http://e/> PREFIX xsd: <http://www.w3.org/2001/XMLSchema#> \
     SELECT ?s WHERE { ?s ex:v ?x FILTER (?x = \"NaN\"^^xsd:double) }",
    "PREFIX ex: <http://e/> SELECT ?s WHERE { ?s ex:v ?x FILTER (sameTerm(?x, 1)) }",
    // A conjunction with a conjunct that errors on most rows, before and
    // after the equality; a disjunction (not split, not rewritten).
    "PREFIX ex: <http://e/> SELECT ?s ?o WHERE { ?s ex:v ?x . ?o ex:w ?y FILTER (?x = ?y && ?x + 1 > 1) }",
    "PREFIX ex: <http://e/> SELECT ?s ?o WHERE { ?s ex:v ?x . ?o ex:w ?y FILTER (?x / 0 > 1 && ?x = ?y) }",
    "PREFIX ex: <http://e/> SELECT ?s ?o WHERE { ?s ex:v ?x . ?o ex:w ?y FILTER (?x = ?y || ?x = \"x\") }",
    // Several equalities in one filter: one unified rule plus one side
    // rule per equality that value equality widens.
    "PREFIX ex: <http://e/> SELECT ?s ?o ?p WHERE { ?s ex:v ?x . ?o ex:w ?y . ?p ex:w ?z FILTER (?x = ?y && ?y = ?z) }",
    "PREFIX ex: <http://e/> SELECT ?s ?o WHERE { ?s ex:v ?x . ?o ex:w ?y FILTER (?x = ?y && ?s = ?o) }",
    // Bag semantics: no DISTINCT, duplicate-producing joins on both sides.
    "PREFIX ex: <http://e/> SELECT ?x WHERE { ?s ex:k ?k . ?s ex:v ?x . ?o ex:w ?y . ?o ex:k ?j FILTER (?x = ?y) }",
    "PREFIX ex: <http://e/> SELECT DISTINCT ?x WHERE { ?s ex:k ?k . ?s ex:v ?x . ?o ex:w ?y FILTER (?x = ?y) }",
    // Inside OPTIONAL { … FILTER }, and across UNION branches.
    "PREFIX ex: <http://e/> SELECT ?s ?o WHERE { ?s ex:v ?x OPTIONAL { ?o ex:w ?y FILTER (?x = ?y) } }",
    "PREFIX ex: <http://e/> SELECT ?s ?o ?x ?y WHERE { { ?s ex:v ?x } UNION { ?o ex:w ?y } FILTER (?x = ?y) }",
    "PREFIX ex: <http://e/> SELECT ?s ?o WHERE { { ?s ex:v ?x } UNION { ?s ex:w ?x } ?o ex:w ?y FILTER (?x = ?y) }",
    // MINUS: T_Q's own `v_x = r2_x` condition is rewritten too.
    "PREFIX ex: <http://e/> SELECT ?s ?x WHERE { ?s ex:v ?x MINUS { ?o ex:w ?x } }",
    "PREFIX ex: <http://e/> SELECT ?s ?k WHERE { ?s ex:k ?k MINUS { ?s ex:v ?x . ?o ex:w ?y FILTER (?x = ?y) } }",
    // Unfolding pulls a negation (MINUS) or an OPTIONAL's rules under the
    // filter; the result feeds an aggregate; an ASK.
    "PREFIX ex: <http://e/> SELECT ?s ?o WHERE { { ?s ex:v ?x MINUS { ?s ex:k ex:K1 } } ?o ex:w ?y FILTER (?x = ?y) }",
    "PREFIX ex: <http://e/> SELECT ?s ?o ?k WHERE { { ?s ex:v ?x OPTIONAL { ?s ex:k ?k } } ?o ex:w ?y FILTER (?x = ?y) }",
    "PREFIX ex: <http://e/> SELECT ?x (COUNT(?o) AS ?c) WHERE { ?s ex:v ?x . ?o ex:w ?y FILTER (?x = ?y) } GROUP BY ?x",
    "PREFIX ex: <http://e/> ASK { ?s ex:v ?x . ?o ex:w ?y FILTER (?x = ?y && ?x = \"x\") }",
];

fn dataset(data: &str) -> Dataset {
    Dataset::from_default_graph(sparqlog_rdf::turtle::parse(data).unwrap())
}

fn engine(data: &str, plan: bool, magic_sets: bool) -> Store {
    let store = Store::with_options(EvalOptions {
        plan,
        magic_sets,
        ..Default::default()
    });
    store.load_dataset(&dataset(data)).unwrap();
    store
}

fn assert_same(a: &QueryResults, b: &QueryResults, ctx: &str) {
    match (a, b) {
        (QueryResults::Solutions(x), QueryResults::Solutions(y)) => {
            assert!(
                x.multiset_eq(y),
                "{ctx}\nreference: {:?}\noptimised: {:?}",
                x.canonical(true),
                y.canonical(true)
            );
        }
        _ => assert_eq!(a, b, "{ctx}"),
    }
}

/// Runs every query under all four optimiser configurations, checking
/// each against the unoptimised run and that against FusekiSim — and
/// that the optimised configurations really computed plans (the
/// unoptimised one none).
fn check_configurations(data: &str, queries: &[&str]) {
    let fuseki = FusekiSim::new(dataset(data));
    let baseline = engine(data, false, false);
    let configs = [
        ("plan", engine(data, true, false)),
        ("magic", engine(data, false, true)),
        ("plan+magic", engine(data, true, true)),
    ];
    for q in queries {
        let expected = baseline.execute(q).unwrap_or_else(|e| panic!("{q}: {e}"));
        let reference = fuseki.execute(q).unwrap_or_else(|e| panic!("{q}: {e}"));
        assert_same(
            &reference,
            &expected,
            &format!("baseline vs FusekiSim: {q}"),
        );
        for (name, store) in &configs {
            let got = store
                .execute(q)
                .unwrap_or_else(|e| panic!("{name} {q}: {e}"));
            assert_same(&expected, &got, &format!("{name}: {q}"));
        }
    }
    assert_eq!(baseline.snapshot().plans_computed(), 0, "baseline planned");
    for (name, store) in &configs {
        assert!(
            store.snapshot().plans_computed() > 0,
            "{name} computed no plan"
        );
    }
}

#[test]
fn every_optimiser_configuration_agrees_with_baseline_and_refengine() {
    check_configurations(DATA, QUERIES);
}

#[test]
fn filter_equalities_agree_in_every_optimiser_configuration() {
    check_configurations(EQ_DATA, EQ_QUERIES);
}

#[test]
fn store_level_toggle_is_differential_too() {
    // Plans are cached on the translation: flipping the options on a
    // live store must not change any answer.
    let planned = Store::new();
    let unplanned = Store::with_options(EvalOptions {
        plan: false,
        magic_sets: false,
        ..Default::default()
    });
    for store in [&planned, &unplanned] {
        store
            .load_dataset(&dataset(DATA))
            .expect("fixture loads into the store");
    }
    for q in QUERIES {
        assert_same(
            &unplanned.execute(q).unwrap(),
            &planned.execute(q).unwrap(),
            &format!("store serving path: {q}"),
        );
    }
    // Flipping options replans without changing answers.
    planned.set_options(EvalOptions {
        plan: false,
        magic_sets: false,
        ..Default::default()
    });
    for q in QUERIES {
        assert_same(
            &unplanned.execute(q).unwrap(),
            &planned.execute(q).unwrap(),
            &format!("after set_options: {q}"),
        );
    }
}

#[test]
fn filter_equalities_agree_on_the_store_serving_path() {
    // The serving path always plans (no row-count floor), so this is
    // where the unfolded rules meet the cost-based planner on a small
    // fixture: planned and unplanned stores against FusekiSim.
    let fuseki = FusekiSim::new(dataset(EQ_DATA));
    for (plan, magic_sets) in [(true, true), (true, false), (false, false)] {
        let store = Store::with_options(EvalOptions {
            plan,
            magic_sets,
            ..Default::default()
        });
        store.load_dataset(&dataset(EQ_DATA)).unwrap();
        for q in EQ_QUERIES {
            assert_same(
                &fuseki.execute(q).unwrap(),
                &store.execute(q).unwrap(),
                &format!("store plan={plan} magic={magic_sets}: {q}"),
            );
        }
    }
}
