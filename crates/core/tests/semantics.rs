//! End-to-end semantics tests of the SparqLog pipeline against the
//! paper's running examples and the SPARQL 1.1 semantics of Tables 4/5.

use sparqlog::{translate_query, QueryResults, Store};
use sparqlog_rdf::Term;

/// The film-directors graph of §3.1.
const FILMS: &str = r#"
@prefix ex: <http://ex.org/> .
ex:glucas ex:name "George" ;
          ex:lastname "Lucas" .
_:b1 ex:name "Steven" .
"#;

/// The bordering-countries graph of §4.2.
const COUNTRIES: &str = r#"
@prefix ex: <http://ex.org/> .
ex:spain ex:borders ex:france .
ex:france ex:borders ex:belgium .
ex:france ex:borders ex:germany .
ex:belgium ex:borders ex:germany .
ex:germany ex:borders ex:austria .
"#;

fn engine(turtle: &str) -> Store {
    let e = Store::new();
    e.load_turtle(turtle).unwrap();
    e
}

fn rows(r: &QueryResults) -> Vec<Vec<String>> {
    r.solutions().expect("SELECT result").canonical(false)
}

#[test]
fn paper_figure1_optional_query() {
    let e = engine(FILMS);
    let r = e
        .execute(
            r#"PREFIX ex: <http://ex.org/>
               SELECT ?N ?L WHERE { ?X ex:name ?N . OPTIONAL { ?X ex:lastname ?L } }
               ORDER BY ?N"#,
        )
        .unwrap();
    let s = r.solutions().unwrap();
    assert_eq!(s.vars, vec!["N", "L"]);
    assert_eq!(s.len(), 2);
    // μ1(?N)="George", μ1(?L)="Lucas"; μ2(?N)="Steven", ?L unbound.
    assert_eq!(s.rows[0][0], Some(Term::literal("George")));
    assert_eq!(s.rows[0][1], Some(Term::literal("Lucas")));
    assert_eq!(s.rows[1][0], Some(Term::literal("Steven")));
    assert_eq!(s.rows[1][1], None);
}

#[test]
fn paper_figure3_one_or_more_path() {
    let e = engine(COUNTRIES);
    let r = e
        .execute(
            r#"PREFIX ex: <http://ex.org/>
               SELECT ?B WHERE { ?A ex:borders+ ?B . FILTER (?A = ex:spain) }"#,
        )
        .unwrap();
    let mut got: Vec<String> = rows(&r).into_iter().map(|r| r[0].clone()).collect();
    got.sort();
    assert_eq!(
        got,
        vec![
            "<http://ex.org/austria>",
            "<http://ex.org/belgium>",
            "<http://ex.org/france>",
            "<http://ex.org/germany>"
        ]
    );
}

#[test]
fn bag_semantics_preserves_duplicates() {
    // Two distinct matches project onto the same ?typ value — bag
    // semantics must keep both.
    let e = engine(
        r#"@prefix ex: <http://e/> .
           ex:a ex:type ex:T . ex:b ex:type ex:T ."#,
    );
    let r = e
        .execute("PREFIX ex: <http://e/> SELECT ?t WHERE { ?x ex:type ?t }")
        .unwrap();
    assert_eq!(r.len(), 2, "duplicates preserved");
    let rd = e
        .execute("PREFIX ex: <http://e/> SELECT DISTINCT ?t WHERE { ?x ex:type ?t }")
        .unwrap();
    assert_eq!(rd.len(), 1, "DISTINCT collapses");
}

#[test]
fn union_duplicates_add_up() {
    let e = engine(r#"@prefix ex: <http://e/> . ex:a ex:p ex:b ."#);
    let r = e
        .execute(
            "PREFIX ex: <http://e/>
             SELECT ?x WHERE { { ?x ex:p ex:b } UNION { ?x ex:p ex:b } }",
        )
        .unwrap();
    assert_eq!(r.len(), 2, "UNION is multiset union (paper §5.1)");
}

#[test]
fn join_multiplicities_multiply() {
    // ?x has two p-edges and two q-edges: join on ?x gives 4 solutions.
    let e = engine(
        r#"@prefix ex: <http://e/> .
           ex:x ex:p ex:a , ex:b ; ex:q ex:c , ex:d ."#,
    );
    let r = e
        .execute("PREFIX ex: <http://e/> SELECT ?x WHERE { ?x ex:p ?y . ?x ex:q ?z }")
        .unwrap();
    assert_eq!(r.len(), 4);
}

#[test]
fn optional_unmatched_leaves_unbound() {
    let e = engine(
        r#"@prefix ex: <http://e/> .
           ex:a ex:p ex:v . ex:b ex:p ex:v . ex:a ex:q ex:w ."#,
    );
    let r = e
        .execute(
            "PREFIX ex: <http://e/>
             SELECT ?x ?w WHERE { ?x ex:p ex:v OPTIONAL { ?x ex:q ?w } }",
        )
        .unwrap();
    let s = r.solutions().unwrap();
    assert_eq!(s.len(), 2);
    let mut bound = 0;
    let mut unbound = 0;
    for row in &s.rows {
        match &row[1] {
            Some(_) => bound += 1,
            None => unbound += 1,
        }
    }
    assert_eq!((bound, unbound), (1, 1));
}

#[test]
fn optional_filter_def_a9() {
    // (P1 OPT (P2 FILTER C)): the filter restricts the extension, not P1.
    let e = engine(
        r#"@prefix ex: <http://e/> .
           ex:a ex:p 1 . ex:b ex:p 5 .
           ex:a ex:q 10 . ex:b ex:q 20 ."#,
    );
    let r = e
        .execute(
            "PREFIX ex: <http://e/>
             SELECT ?x ?v WHERE { ?x ex:p ?n OPTIONAL { ?x ex:q ?v FILTER (?v < 15) } }",
        )
        .unwrap();
    let s = r.solutions().unwrap();
    assert_eq!(s.len(), 2);
    for row in &s.rows {
        match row[0].as_ref().unwrap().str_value() {
            "http://e/a" => assert_eq!(row[1], Some(Term::integer(10))),
            "http://e/b" => assert_eq!(row[1], None, "filtered out → unbound"),
            other => panic!("unexpected subject {other}"),
        }
    }
}

#[test]
fn minus_removes_compatible_with_shared_var() {
    let e = engine(
        r#"@prefix ex: <http://e/> .
           ex:a ex:p ex:x . ex:b ex:p ex:x .
           ex:a ex:q ex:y ."#,
    );
    let r = e
        .execute(
            "PREFIX ex: <http://e/>
             SELECT ?s WHERE { ?s ex:p ex:x MINUS { ?s ex:q ex:y } }",
        )
        .unwrap();
    let got = rows(&r);
    assert_eq!(got, vec![vec!["<http://e/b>".to_string()]]);
}

#[test]
fn minus_with_disjoint_domains_keeps_everything() {
    // SPARQL §8.3.3: MINUS with no shared variables removes nothing.
    let e = engine(r#"@prefix ex: <http://e/> . ex:a ex:p ex:x . ex:c ex:q ex:y ."#);
    let r = e
        .execute(
            "PREFIX ex: <http://e/>
             SELECT ?s WHERE { ?s ex:p ex:x MINUS { ?t ex:q ex:y } }",
        )
        .unwrap();
    assert_eq!(r.len(), 1);
}

#[test]
fn filter_arithmetic_and_regex() {
    let e = engine(
        r#"@prefix ex: <http://e/> .
           ex:a ex:price 10 ; ex:label "Journal of Rust" .
           ex:b ex:price 99 ; ex:label "Proceedings" ."#,
    );
    let r = e
        .execute(
            r#"PREFIX ex: <http://e/>
               SELECT ?x WHERE { ?x ex:price ?p . ?x ex:label ?l
                                 FILTER (?p * 2 < 50 && REGEX(?l, "^journal", "i")) }"#,
        )
        .unwrap();
    assert_eq!(rows(&r), vec![vec!["<http://e/a>".to_string()]]);
}

#[test]
fn ask_queries() {
    let e = engine(COUNTRIES);
    assert_eq!(
        e.execute("PREFIX ex: <http://ex.org/> ASK { ex:spain ex:borders ex:france }")
            .unwrap(),
        QueryResults::Boolean(true)
    );
    assert_eq!(
        e.execute("PREFIX ex: <http://ex.org/> ASK { ex:spain ex:borders ex:austria }")
            .unwrap(),
        QueryResults::Boolean(false)
    );
}

#[test]
fn zero_or_one_path_includes_zero_length() {
    let e = engine(COUNTRIES);
    // ex:austria has no outgoing borders edge, but the zero-length path
    // (austria, austria) must exist (the fix the paper makes over [29]).
    let r = e
        .execute(
            "PREFIX ex: <http://ex.org/>
             SELECT ?B WHERE { ex:austria ex:borders? ?B }",
        )
        .unwrap();
    assert_eq!(rows(&r), vec![vec!["<http://ex.org/austria>".to_string()]]);
}

#[test]
fn zero_or_more_includes_start_node() {
    let e = engine(COUNTRIES);
    let r = e
        .execute(
            "PREFIX ex: <http://ex.org/>
             SELECT ?B WHERE { ex:spain ex:borders* ?B }",
        )
        .unwrap();
    // spain itself + 4 reachable countries.
    assert_eq!(r.len(), 5);
}

#[test]
fn zero_length_path_for_constant_not_in_graph() {
    // "the case that a path of zero length from t to t also exists for
    // those terms t which occur in the query but not in the current
    // graph" (§5.2) — the bug the paper fixes in earlier translations.
    let e = engine(COUNTRIES);
    let r = e
        .execute(
            "PREFIX ex: <http://ex.org/>
             SELECT ?B WHERE { ex:atlantis ex:borders? ?B }",
        )
        .unwrap();
    assert_eq!(
        rows(&r),
        vec![vec!["<http://ex.org/atlantis>".to_string()]],
        "zero-length path for query-only term"
    );
}

#[test]
fn recursive_path_set_semantics() {
    // Two routes from spain to germany (via france direct, via belgium):
    // `+` paths have set semantics, so germany appears once.
    let e = engine(COUNTRIES);
    let r = e
        .execute(
            "PREFIX ex: <http://ex.org/>
             SELECT ?B WHERE { ex:spain ex:borders+ ?B }",
        )
        .unwrap();
    let got = rows(&r);
    assert_eq!(got.len(), 4, "no duplicates from multiple routes: {got:?}");
}

#[test]
fn inverse_and_sequence_paths() {
    let e = engine(COUNTRIES);
    // ^borders: (s ^p o) ≡ (o p s) — who does france border / who borders
    // france.
    let r = e
        .execute(
            "PREFIX ex: <http://ex.org/>
             SELECT ?A WHERE { ex:france ^ex:borders ?A }",
        )
        .unwrap();
    assert_eq!(rows(&r), vec![vec!["<http://ex.org/spain>".to_string()]]);

    let r = e
        .execute(
            "PREFIX ex: <http://ex.org/>
             SELECT ?C WHERE { ex:spain ex:borders/ex:borders ?C }",
        )
        .unwrap();
    let mut got: Vec<String> = rows(&r).into_iter().map(|r| r[0].clone()).collect();
    got.sort();
    // spain → france → {belgium, germany}; bag semantics, one route each.
    assert_eq!(
        got,
        vec!["<http://ex.org/belgium>", "<http://ex.org/germany>"]
    );
}

#[test]
fn alternative_path_is_multiset_union() {
    let e = engine(r#"@prefix ex: <http://e/> . ex:a ex:p ex:b . ex:a ex:q ex:b ."#);
    let r = e
        .execute("PREFIX ex: <http://e/> SELECT ?y WHERE { ex:a (ex:p|ex:q) ?y }")
        .unwrap();
    assert_eq!(r.len(), 2, "both alternatives contribute");
}

#[test]
fn negated_property_set() {
    let e = engine(r#"@prefix ex: <http://e/> . ex:a ex:p ex:b . ex:a ex:q ex:c ."#);
    let r = e
        .execute("PREFIX ex: <http://e/> SELECT ?y WHERE { ex:a !(ex:p) ?y }")
        .unwrap();
    assert_eq!(rows(&r), vec![vec!["<http://e/c>".to_string()]]);
    // Negated set with inverse member.
    let r = e
        .execute("PREFIX ex: <http://e/> SELECT ?y WHERE { ex:b !(ex:q|^ex:p) ?y }")
        .unwrap();
    assert_eq!(r.len(), 0, "only ^p leads out of b, and it is negated");
}

#[test]
fn path_range_quantifiers() {
    // chain: n0 → n1 → n2 → n3 → n4
    let e = engine(
        r#"@prefix ex: <http://e/> .
           ex:n0 ex:p ex:n1 . ex:n1 ex:p ex:n2 .
           ex:n2 ex:p ex:n3 . ex:n3 ex:p ex:n4 ."#,
    );
    let q = |path: &str| format!("PREFIX ex: <http://e/> SELECT ?y WHERE {{ ex:n0 {path} ?y }}");
    let run = |path: &str| -> Vec<String> {
        let r = e.execute(&q(path)).unwrap();
        let mut got: Vec<String> = rows(&r).into_iter().map(|r| r[0].clone()).collect();
        got.sort();
        got
    };
    assert_eq!(run("ex:p{2}"), vec!["<http://e/n2>"]);
    assert_eq!(run("ex:p{3,}"), vec!["<http://e/n3>", "<http://e/n4>"]);
    assert_eq!(
        run("ex:p{0,2}"),
        vec!["<http://e/n0>", "<http://e/n1>", "<http://e/n2>"]
    );
}

#[test]
fn named_graphs_and_graph_pattern() {
    let e = Store::new();
    let mut ds = sparqlog_rdf::Dataset::new();
    ds.default_graph_mut().insert(sparqlog_rdf::Triple::new(
        Term::iri("http://e/a"),
        Term::iri("http://e/p"),
        Term::iri("http://e/default"),
    ));
    ds.named_graph_mut("http://g1")
        .insert(sparqlog_rdf::Triple::new(
            Term::iri("http://e/a"),
            Term::iri("http://e/p"),
            Term::iri("http://e/in-g1"),
        ));
    ds.named_graph_mut("http://g2")
        .insert(sparqlog_rdf::Triple::new(
            Term::iri("http://e/b"),
            Term::iri("http://e/p"),
            Term::iri("http://e/in-g2"),
        ));
    e.load_dataset(&ds).unwrap();

    // Plain pattern sees only the default graph.
    let r = e.execute("SELECT ?o WHERE { ?s <http://e/p> ?o }").unwrap();
    assert_eq!(rows(&r), vec![vec!["<http://e/default>".to_string()]]);

    // GRAPH <iri> selects one named graph.
    let r = e
        .execute("SELECT ?o WHERE { GRAPH <http://g1> { ?s <http://e/p> ?o } }")
        .unwrap();
    assert_eq!(rows(&r), vec![vec!["<http://e/in-g1>".to_string()]]);

    // GRAPH ?g ranges over named graphs and binds ?g.
    let r = e
        .execute("SELECT ?g ?o WHERE { GRAPH ?g { ?s <http://e/p> ?o } }")
        .unwrap();
    let got = rows(&r);
    assert_eq!(got.len(), 2);
    assert!(got.iter().any(|r| r[0] == "<http://g1>"));
    assert!(got.iter().any(|r| r[0] == "<http://g2>"));
}

#[test]
fn blank_node_graph_label_is_queryable_through_graph_var() {
    let e = Store::new();
    let ds = sparqlog_rdf::nquads::parse(concat!(
        "<http://s> <http://p> <http://o> _:g .\n",
        "<http://s> <http://p> <http://o2> _:g .\n",
        "<http://s> <http://p> <http://o3> <http://g1> .\n",
    ))
    .unwrap();
    e.load_dataset(&ds).unwrap();
    let r = e
        .execute("SELECT ?g ?o WHERE { GRAPH ?g { <http://s> <http://p> ?o } }")
        .unwrap();
    let g = format!("<{}g>", sparqlog_rdf::nquads::GENID);
    assert_eq!(
        rows(&r),
        vec![
            vec!["<http://g1>".to_string(), "<http://o3>".to_string()],
            vec![g.clone(), "<http://o2>".to_string()],
            vec![g, "<http://o>".to_string()],
        ]
    );
}

#[test]
fn order_limit_offset() {
    let e = engine(
        r#"@prefix ex: <http://e/> .
           ex:a ex:v 3 . ex:b ex:v 1 . ex:c ex:v 2 . ex:d ex:v 5 ."#,
    );
    let r = e
        .execute(
            "PREFIX ex: <http://e/>
             SELECT ?n WHERE { ?x ex:v ?n } ORDER BY ?n LIMIT 2 OFFSET 1",
        )
        .unwrap();
    let s = r.solutions().unwrap();
    assert_eq!(s.rows.len(), 2);
    assert_eq!(s.rows[0][0], Some(Term::integer(2)));
    assert_eq!(s.rows[1][0], Some(Term::integer(3)));
}

#[test]
fn order_by_desc_and_complex() {
    let e = engine(
        r#"@prefix ex: <http://e/> .
           ex:a ex:v 3 . ex:b ex:v 1 . ex:a ex:w 9 ."#,
    );
    let r = e
        .execute("PREFIX ex: <http://e/> SELECT ?n WHERE { ?x ex:v ?n } ORDER BY DESC(?n)")
        .unwrap();
    let s = r.solutions().unwrap();
    assert_eq!(s.rows[0][0], Some(Term::integer(3)));

    // Complex condition (FEASIBLE-style): unmatched OPTIONAL rows last.
    let r = e
        .execute(
            "PREFIX ex: <http://e/>
             SELECT ?n ?w WHERE { ?x ex:v ?n OPTIONAL { ?x ex:w ?w } }
             ORDER BY (!BOUND(?w)) ?n",
        )
        .unwrap();
    let s = r.solutions().unwrap();
    assert_eq!(s.rows[0][1], Some(Term::integer(9)), "bound row first");
    assert_eq!(s.rows[1][1], None);
}

#[test]
fn group_by_count() {
    let e = engine(
        r#"@prefix ex: <http://e/> .
           ex:p1 ex:author ex:alice . ex:p1 ex:author ex:bob .
           ex:p2 ex:author ex:carol ."#,
    );
    let r = e
        .execute(
            "PREFIX ex: <http://e/>
             SELECT ?p (COUNT(?a) AS ?n) WHERE { ?p ex:author ?a } GROUP BY ?p",
        )
        .unwrap();
    let got = rows(&r);
    assert_eq!(got.len(), 2);
    assert!(got
        .iter()
        .any(|r| r[0] == "<http://e/p1>" && r[1].contains('2')));
    assert!(got
        .iter()
        .any(|r| r[0] == "<http://e/p2>" && r[1].contains('1')));
}

#[test]
fn count_distinct_and_star() {
    let e = engine(
        r#"@prefix ex: <http://e/> .
           ex:p1 ex:t ex:a . ex:p1 ex:t ex:a2 . ex:p2 ex:t ex:a ."#,
    );
    let r = e
        .execute("SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }")
        .unwrap();
    assert!(rows(&r)[0][0].contains('3'));
    let r = e
        .execute("PREFIX ex: <http://e/> SELECT (COUNT(DISTINCT ?o) AS ?n) WHERE { ?s ex:t ?o }")
        .unwrap();
    assert!(rows(&r)[0][0].contains('2'));
}

#[test]
fn ontology_subclass_subproperty() {
    use sparqlog::{Axiom, Ontology};
    let e = engine(
        r#"@prefix ex: <http://e/> .
           @prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .
           ex:art1 rdf:type ex:Article .
           ex:j1 ex:journalEditor ex:ed1 ."#,
    );
    let onto = Ontology::new()
        .with(Axiom::SubClassOf(
            "http://e/Article".into(),
            "http://e/Document".into(),
        ))
        .with(Axiom::SubPropertyOf(
            "http://e/journalEditor".into(),
            "http://e/editor".into(),
        ));
    e.add_ontology(&onto).unwrap();
    let r = e
        .execute("PREFIX ex: <http://e/> SELECT ?x WHERE { ?x a ex:Document }")
        .unwrap();
    assert_eq!(rows(&r), vec![vec!["<http://e/art1>".to_string()]]);
    let r = e
        .execute("PREFIX ex: <http://e/> SELECT ?e WHERE { ?j ex:editor ?e }")
        .unwrap();
    assert_eq!(rows(&r), vec![vec!["<http://e/ed1>".to_string()]]);
}

#[test]
fn ontology_existential_axiom_generates_labelled_null() {
    use sparqlog::{Axiom, Ontology};
    let e = engine(
        r#"@prefix ex: <http://e/> .
           @prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .
           ex:alice rdf:type ex:Person ."#,
    );
    let onto = Ontology::new().with(Axiom::SomeValuesFrom {
        class: "http://e/Person".into(),
        property: "http://e/hasParent".into(),
        filler: "http://e/Person".into(),
    });
    e.add_ontology(&onto).unwrap();
    let r = e
        .execute("PREFIX ex: <http://e/> SELECT ?p WHERE { ex:alice ex:hasParent ?p }")
        .unwrap();
    let s = r.solutions().unwrap();
    assert_eq!(s.len(), 1);
    assert!(
        s.rows[0][0].as_ref().unwrap().is_bnode(),
        "object invention yields a blank node (labelled null)"
    );
}

#[test]
fn retraction_under_a_cyclic_existential_axiom_terminates() {
    use sparqlog::{Axiom, Ontology};
    // Person ⊑ ∃hasParent.Person invents a parent for every Person, and
    // the parent is a Person again: the Skolem-depth bound must cut the
    // chain in the retraction's overdelete and re-derive runs, as it
    // does in the initial chase.
    let onto = Ontology::new().with(Axiom::SomeValuesFrom {
        class: "http://e/Person".into(),
        property: "http://e/hasParent".into(),
        filler: "http://e/Person".into(),
    });
    let store = |people: &[&str]| {
        let e = engine("");
        e.add_ontology(&onto).unwrap();
        for p in people {
            e.update(&format!(
                "INSERT DATA {{ <http://e/{p}> a <http://e/Person> }}"
            ))
            .unwrap();
        }
        e
    };
    let count = |e: &Store, q: &str| e.execute(q).unwrap().len();
    let parents = "SELECT ?x ?p WHERE { ?x <http://e/hasParent> ?p }";
    let persons = "SELECT ?x WHERE { ?x a <http://e/Person> }";
    let e = store(&["alice", "bob"]);
    let bob = store(&["bob"]);
    assert!(count(&bob, parents) > 1, "the chain is cut, not absent");
    e.update("DELETE DATA { <http://e/alice> a <http://e/Person> }")
        .unwrap();
    assert_eq!(count(&e, parents), count(&bob, parents));
    assert_eq!(count(&e, persons), count(&bob, persons));
    e.update("DELETE DATA { <http://e/bob> a <http://e/Person> }")
        .unwrap();
    assert_eq!(count(&e, parents), 0);
    assert_eq!(count(&e, persons), 0);
}

#[test]
fn filters_on_unbound_variables_fail() {
    let e = engine(r#"@prefix ex: <http://e/> . ex:a ex:p 1 ."#);
    // ?z is never bound: comparison errors → empty result; BOUND(?z) false.
    let r = e
        .execute("PREFIX ex: <http://e/> SELECT ?x WHERE { ?x ex:p ?n FILTER (?z > 0) }")
        .unwrap();
    assert!(r.is_empty());
    let r = e
        .execute("PREFIX ex: <http://e/> SELECT ?x WHERE { ?x ex:p ?n FILTER (!BOUND(?z)) }")
        .unwrap();
    assert_eq!(r.len(), 1);
}

#[test]
fn projection_of_never_bound_variable() {
    let e = engine(r#"@prefix ex: <http://e/> . ex:a ex:p 1 ."#);
    let r = e
        .execute("PREFIX ex: <http://e/> SELECT ?x ?ghost WHERE { ?x ex:p ?n }")
        .unwrap();
    let s = r.solutions().unwrap();
    assert_eq!(s.len(), 1);
    assert_eq!(s.rows[0][1], None);
}

#[test]
fn select_star_projection() {
    let e = engine(r#"@prefix ex: <http://e/> . ex:a ex:p ex:b ."#);
    let r = e.execute("SELECT * WHERE { ?s ?p ?o }").unwrap();
    let s = r.solutions().unwrap();
    assert_eq!(s.vars.len(), 3);
    assert_eq!(s.len(), 1);
}

#[test]
fn translated_programs_are_warded() {
    use sparqlog_datalog::check_wardedness;
    let e = engine(COUNTRIES);
    for q in [
        "SELECT ?s WHERE { ?s ?p ?o . ?o ?q ?z }",
        "PREFIX ex: <http://ex.org/> SELECT ?B WHERE { ?A ex:borders+ ?B }",
        "PREFIX ex: <http://ex.org/> SELECT ?N ?L WHERE
           { ?X ex:name ?N OPTIONAL { ?X ex:lastname ?L } }",
        "SELECT ?s WHERE { ?s ?p ?o MINUS { ?s ?q ?z } }",
        "SELECT DISTINCT ?s WHERE { { ?s ?p ?o } UNION { ?o ?p ?s } }",
    ] {
        let query = sparqlog_sparql::parse_query(q).unwrap();
        let tq = translate_query(&query, &e.symbols(), "q_").unwrap();
        let report = check_wardedness(&tq.program, &e.symbols());
        assert!(report.warded, "{q}: {:?}", report.violations);
    }
}

#[test]
fn repeated_queries_are_isolated() {
    let e = engine(COUNTRIES);
    let q = "PREFIX ex: <http://ex.org/> SELECT ?B WHERE { ex:spain ex:borders* ?B }";
    let a = e.execute(q).unwrap();
    let b = e.execute(q).unwrap();
    assert_eq!(rows(&a), rows(&b), "query predicates are namespaced");
}

#[test]
fn triple_pattern_with_repeated_variable() {
    let e = engine(r#"@prefix ex: <http://e/> . ex:a ex:p ex:a . ex:a ex:p ex:b ."#);
    let r = e
        .execute("PREFIX ex: <http://e/> SELECT ?x WHERE { ?x ex:p ?x }")
        .unwrap();
    assert_eq!(rows(&r), vec![vec!["<http://e/a>".to_string()]]);
}

#[test]
fn empty_group_pattern() {
    let e = engine(r#"@prefix ex: <http://e/> . ex:a ex:p ex:b ."#);
    let r = e.execute("SELECT ?x WHERE { }").unwrap();
    let s = r.solutions().unwrap();
    assert_eq!(s.len(), 1, "empty pattern yields the empty mapping");
    assert_eq!(s.rows[0][0], None);
    assert_eq!(e.execute("ASK { }").unwrap(), QueryResults::Boolean(true));
}

#[test]
fn string_builtins_in_filters() {
    let e = engine(
        r#"@prefix ex: <http://e/> .
           ex:a ex:name "Alice" . ex:b ex:name "bob" ."#,
    );
    let r = e
        .execute(
            r#"PREFIX ex: <http://e/>
               SELECT ?x WHERE { ?x ex:name ?n
                 FILTER (UCASE(?n) = "ALICE" && STRLEN(?n) = 5 && CONTAINS(?n, "lic")) }"#,
        )
        .unwrap();
    assert_eq!(rows(&r), vec![vec!["<http://e/a>".to_string()]]);
    let r = e
        .execute(
            r#"PREFIX ex: <http://e/>
               SELECT ?x WHERE { ?x ex:name ?n FILTER (DATATYPE(?n) = <http://www.w3.org/2001/XMLSchema#string>) }"#,
        )
        .unwrap();
    assert_eq!(r.len(), 2);
}

#[test]
fn lang_tags_and_langmatches() {
    let e = engine(
        r#"@prefix ex: <http://e/> .
           ex:a ex:label "chat"@fr . ex:a ex:label "cat"@en-US . ex:a ex:label "plain" ."#,
    );
    let r = e
        .execute(
            r#"PREFIX ex: <http://e/>
               SELECT ?l WHERE { ex:a ex:label ?l FILTER (LANG(?l) = "fr") }"#,
        )
        .unwrap();
    assert_eq!(r.len(), 1);
    let r = e
        .execute(
            r#"PREFIX ex: <http://e/>
               SELECT ?l WHERE { ex:a ex:label ?l FILTER LANGMATCHES(LANG(?l), "en") }"#,
        )
        .unwrap();
    assert_eq!(r.len(), 1);
    // Language-tagged and plain literals are distinct terms.
    let r = e
        .execute(r#"PREFIX ex: <http://e/> SELECT ?x WHERE { ?x ex:label "chat" }"#)
        .unwrap();
    assert_eq!(r.len(), 0);
}

#[test]
fn facade_thread_plumbing_reaches_the_engine() {
    // The same query through the store at fan-out widths 1 and 4:
    // multiset-identical solutions, and the option survives on the store.
    let data = r#"@prefix ex: <http://e/> .
        ex:a ex:p ex:b . ex:b ex:p ex:c . ex:c ex:p ex:a ."#;
    let run = |threads: Option<usize>| {
        let e = Store::new();
        e.set_threads(threads);
        e.load_turtle(data).unwrap();
        e.execute("PREFIX ex: <http://e/> SELECT ?x ?y WHERE { ?x ex:p+ ?y }")
            .unwrap()
    };
    let seq = run(Some(1));
    let par = run(Some(4));
    let (QueryResults::Solutions(a), QueryResults::Solutions(b)) = (&seq, &par) else {
        panic!("expected solutions");
    };
    assert_eq!(a.len(), 9, "3-cycle closure is all 9 pairs");
    assert!(a.multiset_eq(b));

    let e = Store::new();
    e.set_threads(Some(3));
    assert_eq!(e.options().resolved_threads(), 3);
    e.set_threads(None);
    // Default resolution consults the machine — just ensure it is sane.
    assert!(e.options().resolved_threads() >= 1);
}
