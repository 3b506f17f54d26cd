//! End-to-end coverage of the four query forms and the prepared-query
//! lifecycle: CONSTRUCT/DESCRIBE through `Store::execute`, snapshots
//! and `PreparedQuery`; the store-lifetime translation cache surviving
//! commits; foreign-handle rejection.

use sparqlog::{SparqLogError, Store};

const DATA: &str = r#"@prefix ex: <http://ex.org/> .
    ex:spain ex:borders ex:france .
    ex:france ex:borders ex:belgium .
    ex:belgium ex:borders ex:germany .
    ex:spain ex:name "Spain" .
    ex:spain ex:capital _:madrid .
    _:madrid ex:name "Madrid" ."#;

fn store() -> Store {
    let store = Store::new();
    store.load_turtle(DATA).unwrap();
    store
}

#[test]
fn construct_instantiates_template_per_solution() {
    let store = store();
    let result = store
        .execute(
            r#"PREFIX ex: <http://ex.org/>
               CONSTRUCT { ?b ex:borderedBy ?a } WHERE { ?a ex:borders ?b }"#,
        )
        .unwrap();
    let g = result.graph().expect("CONSTRUCT yields a graph");
    assert_eq!(g.len(), 3);
    let nt = result.to_ntriples().unwrap();
    assert!(
        nt.contains("<http://ex.org/france> <http://ex.org/borderedBy> <http://ex.org/spain>"),
        "{nt}"
    );
}

#[test]
fn construct_drops_invalid_and_unbound_instantiations() {
    let store = store();
    // ?n is only bound for ex:spain; literal subjects are invalid.
    let result = store
        .execute(
            r#"PREFIX ex: <http://ex.org/>
               CONSTRUCT { ?a ex:label ?n . ?n ex:labelOf ?a }
               WHERE { ?a ex:borders ?b OPTIONAL { ?a ex:name ?n } }"#,
        )
        .unwrap();
    let g = result.graph().unwrap();
    // Only spain binds ?n: one valid label triple; the literal-subject
    // template instantiation is dropped.
    assert_eq!(g.len(), 1, "{result}");
}

#[test]
fn construct_mints_fresh_bnodes_per_solution() {
    let store = store();
    let result = store
        .execute(
            r#"PREFIX ex: <http://ex.org/>
               CONSTRUCT { ?a ex:note _:n . _:n ex:about ?b }
               WHERE { ?a ex:borders ?b }"#,
        )
        .unwrap();
    let g = result.graph().unwrap();
    // 3 solutions × 2 templates, all distinct because each solution's
    // _:n is fresh — but shared *within* a solution.
    assert_eq!(g.len(), 6);
    let mut subjects_of_about: Vec<String> = g
        .iter()
        .filter(|(_, p, _)| p.as_iri() == Some("http://ex.org/about"))
        .map(|(s, _, _)| s.to_string())
        .collect();
    subjects_of_about.sort();
    subjects_of_about.dedup();
    assert_eq!(subjects_of_about.len(), 3, "one fresh bnode per solution");
}

#[test]
fn construct_shorthand_and_modifiers() {
    let store = store();
    let result = store
        .execute("PREFIX ex: <http://ex.org/> CONSTRUCT WHERE { ?a ex:borders ?b }")
        .unwrap();
    assert_eq!(result.graph().unwrap().len(), 3);

    // LIMIT applies to the solution sequence before instantiation.
    let result = store
        .execute(
            r#"PREFIX ex: <http://ex.org/>
               CONSTRUCT { ?a ex:seen ?b } WHERE { ?a ex:borders ?b } LIMIT 2"#,
        )
        .unwrap();
    assert_eq!(result.graph().unwrap().len(), 2);
}

#[test]
fn construct_orders_by_non_template_variable() {
    let store = store();
    // ?b is not in the template, but ORDER BY ?b + LIMIT 1 must still
    // pick the solution with the smallest ?b (belgium → ?a = france),
    // not an arbitrary one: the translator carries ?b as a hidden
    // column so the deferred sort sees its key.
    let result = store
        .execute(
            r#"PREFIX ex: <http://ex.org/>
               CONSTRUCT { ?a ex:first ex:marker }
               WHERE { ?a ex:borders ?b } ORDER BY ?b LIMIT 1"#,
        )
        .unwrap();
    let nt = result.to_ntriples().unwrap();
    assert_eq!(result.len(), 1);
    assert!(nt.contains("<http://ex.org/france>"), "{nt}");

    // Same for DESCRIBE — and the hidden ?b column must not leak into
    // the described resources (only ?a's binding is described).
    let result = store
        .execute(
            r#"PREFIX ex: <http://ex.org/>
               DESCRIBE ?a WHERE { ?a ex:borders ?b } ORDER BY DESC(?b) LIMIT 1"#,
        )
        .unwrap();
    // max ?b = germany → ?a = belgium, whose CBD is its 1 triple.
    let nt = result.to_ntriples().unwrap();
    assert!(
        nt.contains("<http://ex.org/belgium> <http://ex.org/borders>"),
        "{nt}"
    );
    assert_eq!(result.len(), 1, "hidden sort column not described: {nt}");
}

#[test]
fn describe_computes_concise_bounded_description() {
    let store = store();
    // Explicit IRI target, no WHERE clause: ex:spain's three triples
    // plus the bnode closure through _:madrid.
    let result = store.execute("DESCRIBE <http://ex.org/spain>").unwrap();
    let g = result.graph().expect("DESCRIBE yields a graph");
    assert_eq!(g.len(), 4, "{result}");
    assert!(result.to_ntriples().unwrap().contains("\"Madrid\""));

    // Variable targets range over the WHERE solutions.
    let result = store
        .execute(
            r#"PREFIX ex: <http://ex.org/>
               DESCRIBE ?x WHERE { ?x ex:borders ex:belgium }"#,
        )
        .unwrap();
    // france's single outgoing triple.
    assert_eq!(result.graph().unwrap().len(), 1);

    // DESCRIBE * describes every in-scope variable binding: ?y binds
    // france (1 outgoing triple) and ?o belgium (1 outgoing triple).
    let result = store
        .execute(
            r#"PREFIX ex: <http://ex.org/>
               DESCRIBE * WHERE { ex:spain ex:borders ?y . ?y ex:borders ?o }"#,
        )
        .unwrap();
    assert_eq!(result.graph().unwrap().len(), 2, "{result}");

    // Unknown resources describe to the empty graph.
    let result = store.execute("DESCRIBE <http://ex.org/narnia>").unwrap();
    assert!(result.is_empty());
}

#[test]
fn describe_ignores_named_graph_triples() {
    let store = store();
    store
        .update(
            r#"PREFIX ex: <http://ex.org/>
               INSERT DATA { GRAPH <http://g> { ex:spain ex:secret ex:x } }"#,
        )
        .unwrap();
    let result = store.execute("DESCRIBE <http://ex.org/spain>").unwrap();
    assert!(
        !result.to_ntriples().unwrap().contains("secret"),
        "CBD ranges over the default graph only"
    );
}

#[test]
fn all_four_forms_via_store_and_prepared_handles() {
    let store = store();
    let queries = [
        (
            "PREFIX ex: <http://ex.org/> SELECT ?b WHERE { ex:spain ex:borders ?b }",
            1,
        ),
        (
            "PREFIX ex: <http://ex.org/> ASK { ex:spain ex:borders ex:france }",
            1,
        ),
        (
            "PREFIX ex: <http://ex.org/> CONSTRUCT { ?a ex:linked ?b } WHERE { ?a ex:borders ?b }",
            3,
        ),
        ("DESCRIBE <http://ex.org/france>", 1),
    ];
    for (text, expected) in queries {
        let direct = store.execute(text).unwrap();
        assert_eq!(direct.len(), expected, "{text}");
        let prepared = store.prepare(text).unwrap();
        let via_handle = store.snapshot().execute_prepared(&prepared).unwrap();
        assert_eq!(via_handle, direct, "prepared differs: {text}");
    }
    // The typed accessors agree with the forms.
    assert!(store.execute(queries[0].0).unwrap().solutions().is_some());
    assert_eq!(store.execute(queries[1].0).unwrap().boolean(), Some(true));
    assert!(store.execute(queries[2].0).unwrap().graph().is_some());
    assert!(store.execute(queries[3].0).unwrap().graph().is_some());
}

#[test]
fn prepared_query_and_cache_survive_commits() {
    let store = store();
    let q = "PREFIX ex: <http://ex.org/> SELECT ?b WHERE { ex:spain ex:borders+ ?b }";

    let prepared = store.prepare(q).unwrap();
    let snapshot = store.snapshot();
    assert_eq!(snapshot.execute_prepared(&prepared).unwrap().len(), 3);
    // prepare() went through the text cache: one translation so far.
    assert_eq!(snapshot.cached_translations(), 1);
    let translations =
        |s: &sparqlog::Snapshot| s.metrics().counter_value("sparqlog_translations_total");
    let translations_before = translations(&snapshot);

    // A commit through the writer...
    let mut w = store.writer();
    w.insert(
        sparqlog::Term::iri("http://ex.org/germany"),
        sparqlog::Term::iri("http://ex.org/borders"),
        sparqlog::Term::iri("http://ex.org/austria"),
    );
    w.commit().unwrap();

    // ... the new snapshot sees the new data through the *same* prepared
    // handle, with no re-translation:
    let after = store.snapshot();
    assert_eq!(after.execute_prepared(&prepared).unwrap().len(), 4);
    assert_eq!(
        after.cached_translations(),
        1,
        "translation cache carried across the commit"
    );
    // Executing the same text again is a cache hit, not a fresh pass.
    assert_eq!(after.execute(q).unwrap().len(), 4);
    assert_eq!(
        translations(&after),
        translations_before,
        "hot query shape stayed warm through writer().commit()"
    );

    // An update-request commit carries it too.
    store
        .update("PREFIX ex: <http://ex.org/> DELETE DATA { ex:germany ex:borders ex:austria }")
        .unwrap();
    let last = store.snapshot();
    assert_eq!(last.execute_prepared(&prepared).unwrap().len(), 3);
    assert!(last.cached_translations() >= 1);
}

#[test]
fn foreign_prepared_handles_are_rejected() {
    let store = store();
    let other = Store::new();
    let prepared = other.prepare("SELECT ?s WHERE { ?s ?p ?o }").unwrap();
    let err = store.snapshot().execute_prepared(&prepared).unwrap_err();
    assert_eq!(err, SparqLogError::ForeignPrepared);
}

#[test]
fn frozen_database_serves_graph_forms_too() {
    // A snapshot's own entry points serve the graph forms too.
    let frozen = store().snapshot();
    let r = frozen
        .execute("PREFIX ex: <http://ex.org/> CONSTRUCT WHERE { ?a ex:borders ?b }")
        .unwrap();
    assert_eq!(r.graph().unwrap().len(), 3);
    let prepared = frozen.prepare("DESCRIBE <http://ex.org/spain>").unwrap();
    assert_eq!(frozen.execute_prepared(&prepared).unwrap().len(), 4);
}

#[test]
fn unsupported_features_carry_their_name_structurally() {
    let engine = Store::new();
    // Parser-level unsupported.
    let err = engine
        .execute("SELECT * WHERE { VALUES ?x { 1 } }")
        .unwrap_err();
    assert!(err.is_unsupported());
    assert_eq!(err.unsupported_feature(), Some("VALUES"));
    // Translation-level unsupported (parses fine, translator refuses).
    let err = engine
        .execute("SELECT (COUNT(?x) AS ?a) (SUM(?x) AS ?b) WHERE { ?s ?p ?x }")
        .unwrap_err();
    assert!(err.is_unsupported());
    assert_eq!(
        err.unsupported_feature(),
        Some("multiple aggregates in one SELECT")
    );
    // Other error classes expose no feature.
    let err = engine.execute("not sparql at all ***").unwrap_err();
    assert_eq!(err.unsupported_feature(), None);
    let err = engine.execute("CLEAR ALL").unwrap_err();
    assert_eq!(err, SparqLogError::ReadOnly("CLEAR"));
    assert_eq!(err.unsupported_feature(), None);
}
