//! Differential update suite: proves the [`Store`]'s incremental write
//! path against the one reference that cannot drift — the post-update
//! dataset loaded from scratch.
//!
//! Two properties:
//!
//! * **update-vs-reload**: after a script of SPARQL Update operations,
//!   every probe query, run as one batch at fan-out widths 1/2/4/8,
//!   answers multiset-equal to a fresh store loaded with the store's
//!   final quads;
//! * **refreeze-vs-fresh-freeze**: the incrementally committed snapshot
//!   holds exactly the same facts (via `FrozenDb::content_signature`)
//!   as a from-scratch T_D materialisation and `freeze()` of the same
//!   data (shared with no commit path), and every eager
//!   index either snapshot carries is complete and current — the
//!   thaw/re-freeze path neither loses rows nor leaves an index stale.
//!   (Index *sets* are compared for integrity, not identity: freezing
//!   is profile-guided, so which masks are eager depends on probe
//!   history, which legitimately differs between an incrementally
//!   updated store and a freshly loaded database.)

use std::sync::Arc;

use sparqlog::data_translation::{base_program, load_dataset};
use sparqlog::{QueryResults, Store};
use sparqlog_datalog::{evaluate, Database, EvalOptions, FrozenDb};
use sparqlog_rdf::{Dataset, Term, Triple};

/// Asserts two snapshot signatures are equivalent under profile-guided
/// indexing: identical fact lines, and every `@index` line on either
/// side records a complete, current index (`rows=n/n`).
fn assert_signatures_equivalent(a: &[String], b: &[String], ctx: &str) {
    fn facts(sig: &[String]) -> Vec<&String> {
        sig.iter().filter(|l| !l.starts_with("@index")).collect()
    }
    assert_eq!(facts(a), facts(b), "{ctx}: facts diverge");
    for line in a.iter().chain(b).filter(|l| l.starts_with("@index")) {
        let counts = line.rsplit_once("rows=").expect("@index line shape").1;
        let (indexed, len) = counts.split_once('/').expect("@index line shape");
        assert_eq!(indexed, len, "{ctx}: stale or partial index: {line}");
    }
}

const FIXTURE: &str = r#"@prefix ex: <http://ex.org/> .
    ex:spain ex:borders ex:france .
    ex:france ex:borders ex:belgium .
    ex:belgium ex:borders ex:germany .
    ex:germany ex:borders ex:austria .
    ex:spain ex:name "Spain" .
    ex:france ex:name "France" .
    _:b1 ex:name "Anonymous" .
    ex:spain ex:population 47 .
    ex:france ex:population 68 ."#;

/// The update script: exercises every supported operation, including
/// removal paths (DELETE DATA, DELETE/INSERT WHERE, CLEAR GRAPH) and
/// named graphs.
const SCRIPT: &[&str] = &[
    // Pure additions, default and named graph.
    r#"PREFIX ex: <http://ex.org/>
       INSERT DATA { ex:austria ex:borders ex:italy .
                     ex:austria ex:name "Austria" .
                     GRAPH <http://meta> { ex:spain ex:source ex:census .
                                           ex:france ex:source ex:census } }"#,
    // Pattern-driven rewrite: derive a symmetric relation, drop one name.
    r#"PREFIX ex: <http://ex.org/>
       DELETE { ?x ex:name "France" }
       INSERT { ?y ex:neighbour ?x . ?x ex:neighbour ?y }
       WHERE { ?x ex:borders ?y }"#,
    // Ground removal + shorthand removal.
    r#"PREFIX ex: <http://ex.org/>
       DELETE DATA { ex:spain ex:population 47 } ;
       DELETE WHERE { ex:belgium ex:borders ?y }"#,
    // Clear one named graph (removes the census facts).
    "CLEAR GRAPH <http://meta>",
    // Re-add into the named graph so it is non-empty at the end.
    r#"PREFIX ex: <http://ex.org/>
       INSERT DATA { GRAPH <http://meta> { ex:austria ex:source ex:survey } }"#,
];

const PROBES: &[&str] = &[
    "PREFIX ex: <http://ex.org/> SELECT ?b WHERE { ex:spain ex:borders+ ?b }",
    "PREFIX ex: <http://ex.org/> SELECT ?x ?n WHERE { ?x ex:neighbour ?y . ?x ex:name ?n }",
    "PREFIX ex: <http://ex.org/> SELECT DISTINCT ?n WHERE { ?x ex:name ?n }",
    "PREFIX ex: <http://ex.org/>
     SELECT ?x ?p WHERE { ?x ex:name ?n OPTIONAL { ?x ex:population ?p } }",
    "PREFIX ex: <http://ex.org/> SELECT ?s ?o WHERE { GRAPH <http://meta> { ?s ex:source ?o } }",
    "PREFIX ex: <http://ex.org/> ASK { ex:belgium ex:borders ?y }",
    "PREFIX ex: <http://ex.org/> ASK { ex:austria ex:borders ex:italy }",
    "SELECT ?g WHERE { GRAPH ?g { ?s ?p ?o } }",
];

fn scripted_store() -> Store {
    let store = Store::new();
    store.load_turtle(FIXTURE).expect("fixture loads");
    for step in SCRIPT {
        store.update(step).expect("update step applies");
    }
    store
}

/// Reads the store's final quads back out through plain queries — the
/// "post-update dataset" the references reload.
fn dump(store: &Store) -> Dataset {
    let mut ds = Dataset::new();
    let triple = |sol: &sparqlog::Solution<'_>| -> Triple {
        Triple::new(
            sol.get("s").expect("subject bound").clone(),
            sol.get("p").expect("predicate bound").clone(),
            sol.get("o").expect("object bound").clone(),
        )
    };
    let result = store.execute("SELECT ?s ?p ?o WHERE { ?s ?p ?o }").unwrap();
    for sol in result.solutions().expect("SELECT result").iter() {
        ds.default_graph_mut().insert(triple(&sol));
    }
    let result = store
        .execute("SELECT ?g ?s ?p ?o WHERE { GRAPH ?g { ?s ?p ?o } }")
        .unwrap();
    for sol in result.solutions().expect("SELECT result").iter() {
        let g = match sol.get("g").expect("graph bound") {
            Term::Iri(i) => i.to_string(),
            other => panic!("graph names are IRIs, got {other}"),
        };
        ds.named_graph_mut(&g).insert(triple(&sol));
    }
    ds
}

fn fresh_store(ds: &Dataset) -> Store {
    let store = Store::new();
    store.load_dataset(ds).expect("reload succeeds");
    store
}

/// `ds` loaded into an empty database, the T_D auxiliary rules run to
/// fixpoint, frozen.
fn fresh_freeze(ds: &Dataset) -> Arc<FrozenDb> {
    let mut db = Database::new();
    load_dataset(ds, &mut db);
    evaluate(
        &base_program(db.symbols()),
        &mut db,
        &EvalOptions::default(),
    )
    .expect("materialises");
    db.freeze()
}

#[test]
fn update_then_query_matches_fresh_reload_across_widths() {
    // The probes run as one batch at every fan-out width.
    let store = scripted_store();
    let fresh = fresh_store(&dump(&store));
    for threads in [1, 2, 4, 8] {
        store.set_threads(Some(threads));
        let batch = store.snapshot().execute_batch(PROBES);
        for (probe, a) in PROBES.iter().zip(batch) {
            let a = a.expect("store probe");
            let b = fresh.execute(probe).expect("fresh probe");
            match (&a, &b) {
                (QueryResults::Solutions(sa), QueryResults::Solutions(sb)) => {
                    assert!(
                        sa.multiset_eq(sb),
                        "threads={threads} probe={probe}\nstore:\n{sa}\nfresh:\n{sb}"
                    );
                }
                _ => assert_eq!(a, b, "threads={threads} probe={probe}"),
            }
        }
    }
}

#[test]
fn incremental_refreeze_matches_fresh_freeze() {
    let store = scripted_store();
    let ds = dump(&store);
    let incremental = store.snapshot().database().content_signature();
    let scratch = fresh_freeze(&ds).content_signature();
    assert_signatures_equivalent(&incremental, &scratch, "scripted updates");
}

#[test]
fn every_commit_along_the_script_stays_fresh_equivalent() {
    // Not just the end state: after *each* script step the snapshot must
    // match a from-scratch freeze (catches errors that later steps would
    // mask, e.g. a stale index repaired by the next full recompute).
    let store = Store::new();
    store.load_turtle(FIXTURE).unwrap();
    for (i, step) in SCRIPT.iter().enumerate() {
        store.update(step).unwrap();
        let ds = dump(&store);
        assert_signatures_equivalent(
            &store.snapshot().database().content_signature(),
            &fresh_freeze(&ds).content_signature(),
            &format!("after script step {i}"),
        );
    }
}

#[test]
fn commit_under_live_snapshots_is_equivalent_to_unique_commit() {
    // The thaw path forks: unique handles are moved, shared ones are
    // copied. Both must produce identical snapshots.
    let unique = scripted_store();

    let shared = Store::new();
    shared.load_turtle(FIXTURE).unwrap();
    let mut pins = Vec::new();
    for step in SCRIPT {
        pins.push(shared.snapshot()); // force the clone path on every commit
        shared.update(step).unwrap();
    }
    assert_signatures_equivalent(
        &unique.snapshot().database().content_signature(),
        &shared.snapshot().database().content_signature(),
        "unique vs shared commit path",
    );
    // The pinned snapshots still answer from their own versions.
    assert_eq!(
        pins[0]
            .execute("PREFIX ex: <http://ex.org/> ASK { ex:belgium ex:borders ex:germany }")
            .unwrap(),
        QueryResults::Boolean(true)
    );
}
