//! Incremental-maintenance differential suite (PR 9).
//!
//! Property: after *every* commit of a random add/remove interleaving,
//! the maintained store is multiset-equal (via
//! `FrozenDb::content_signature`) to a from-scratch reload+freeze of
//! the same asserted quads — with and without ontology materialisation
//! (installed before or after the data), over three random histories,
//! and under pinned live snapshots (which force the copy commit path). Plus the subscription contract:
//! every delivered [`ResultDelta`](sparqlog::ResultDelta) equals the
//! multiset difference of full re-executions around the commit. And the
//! carried-state contract: the planner statistics a commit patches
//! forward agree with a from-scratch collection on every row count and,
//! within the churn since their collection, on every distinct estimate.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use sparqlog::data_translation::{base_program, load_dataset};
use sparqlog::{Axiom, Ontology, Store, SubscriptionEvent};
use sparqlog_datalog::stats::RECOLLECT_DIVISOR;
use sparqlog_datalog::{evaluate, Database, DbStats, EvalOptions, FrozenDb, TermId};
use sparqlog_rdf::{Dataset, Term, Triple};

const EX: &str = "http://ex.org/";
const RDF_TYPE: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";

/// Deterministic xorshift64* — the suite must not depend on ambient
/// randomness.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// One asserted quad of the test universe.
#[derive(Clone, PartialEq, Eq, Debug)]
struct Quad {
    s: Term,
    p: Term,
    o: Term,
    g: Option<&'static str>,
}

/// A small closed universe of quads: plain edges, names, `rdf:type`
/// facts (ontology fodder) and one named graph.
fn universe() -> Vec<Quad> {
    let iri = |l: &str| Term::iri(format!("{EX}{l}"));
    let mut out = Vec::new();
    for si in 0..4 {
        for oi in 0..3 {
            out.push(Quad {
                s: iri(&format!("s{si}")),
                p: iri("knows"),
                o: iri(&format!("s{oi}")),
                g: None,
            });
        }
        out.push(Quad {
            s: iri(&format!("s{si}")),
            p: Term::iri(RDF_TYPE),
            o: iri("Student"),
            g: None,
        });
        out.push(Quad {
            s: iri(&format!("s{si}")),
            p: iri("name"),
            o: Term::literal(format!("node {si}")),
            g: None,
        });
        out.push(Quad {
            s: iri(&format!("s{si}")),
            p: iri("source"),
            o: iri("census"),
            g: Some("http://meta"),
        });
    }
    out
}

/// Applies one random commit (1–4 staged operations, biased toward
/// hitting present quads on removal) to `store`, mirroring it in the
/// shadow `model`. A commit applies all removals before all additions
/// (SPARQL DELETE/INSERT order), so the shadow model does the same.
/// Returns the staged ops for error context.
fn random_commit(rng: &mut Rng, store: &Store, model: &mut Vec<Quad>, pool: &[Quad]) -> String {
    let mut w = store.writer();
    let mut log = String::new();
    let mut adds: Vec<Quad> = Vec::new();
    let mut removes: Vec<Quad> = Vec::new();
    for _ in 0..1 + rng.below(4) {
        let add = rng.below(2) == 0 || model.is_empty();
        if add {
            let q = pool[rng.below(pool.len())].clone();
            log.push_str(&format!("+{q:?} "));
            match q.g {
                None => w.insert(q.s.clone(), q.p.clone(), q.o.clone()),
                Some(g) => w.insert_in(g, q.s.clone(), q.p.clone(), q.o.clone()),
            }
            adds.push(q);
        } else {
            // 3:1 bias toward removing a quad that is actually present.
            let q = if rng.below(4) < 3 {
                model[rng.below(model.len())].clone()
            } else {
                pool[rng.below(pool.len())].clone()
            };
            log.push_str(&format!("-{q:?} "));
            match q.g {
                None => w.remove(q.s.clone(), q.p.clone(), q.o.clone()),
                Some(g) => w.remove_in(g, q.s.clone(), q.p.clone(), q.o.clone()),
            }
            removes.push(q);
        }
    }
    w.commit().expect("commit applies");
    model.retain(|m| !removes.contains(m));
    for q in adds {
        if !model.contains(&q) {
            model.push(q);
        }
    }
    log
}

fn dataset_of(model: &[Quad]) -> Dataset {
    let mut ds = Dataset::new();
    for q in model {
        let t = Triple::new(q.s.clone(), q.p.clone(), q.o.clone());
        match q.g {
            None => ds.default_graph_mut().insert(t),
            Some(g) => ds.named_graph_mut(g).insert(t),
        };
    }
    ds
}

/// See `store_updates.rs`: identical fact lines; every eager index
/// complete and current (index *sets* legitimately differ under
/// profile-guided freezing).
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

fn ontology() -> Ontology {
    Ontology::new()
        .with(Axiom::SubClassOf(
            format!("{EX}Student"),
            format!("{EX}Person"),
        ))
        .with(Axiom::SomeValuesFrom {
            class: format!("{EX}Student"),
            property: format!("{EX}enrolledIn"),
            filler: format!("{EX}Course"),
        })
}

/// The reference every differential here compares against, sharing no
/// code with the commit path: the surviving quads loaded into an empty
/// database and the T_D auxiliary rules — followed by `ontology()`'s, in
/// the order the store installs them, so Skolem identities agree — run
/// to fixpoint.
fn rebuild(model: &[Quad], with_ontology: bool) -> Arc<FrozenDb> {
    let mut fresh = Database::new();
    load_dataset(&dataset_of(model), &mut fresh);
    let mut program = base_program(fresh.symbols());
    if with_ontology {
        program
            .rules
            .extend(ontology().to_program(fresh.symbols()).rules);
    }
    evaluate(&program, &mut fresh, &EvalOptions::default()).expect("rebuild");
    fresh.freeze()
}

#[test]
fn random_interleavings_match_fresh_reload() {
    let pool = universe();
    for seed in [1u64, 2, 4] {
        let mut rng = Rng::new(0x5EED_0000 + seed);
        let store = Store::new();
        let mut model: Vec<Quad> = Vec::new();
        let mut history = Vec::new();
        for step in 0..30 {
            history.push(random_commit(&mut rng, &store, &mut model, &pool));
            assert_signatures_equivalent(
                &store.snapshot().database().content_signature(),
                &rebuild(&model, false).content_signature(),
                &format!("seed={seed} step={step} ops={}", history[step]),
            );
        }
    }
}

#[test]
fn random_interleavings_with_ontology_match_fresh_rebuild() {
    // Same property with materialised entailments in play — including
    // existential (labelled-null) consequences — in both install orders:
    // the ontology first (every commit extends under it), or after eight
    // commits of data (the install materialises them, later commits
    // extend). Any leaked or lost entailment shows up as a signature diff.
    let pool = universe();
    for seed in [1u64, 2, 4] {
        for install_at in [0, 8] {
            let mut rng = Rng::new(0xABCD_0000 + seed + install_at as u64);
            let store = Store::new();
            let mut model: Vec<Quad> = Vec::new();
            for step in 0..20 {
                if step == install_at {
                    store.add_ontology(&ontology()).expect("ontology installs");
                }
                let ops = random_commit(&mut rng, &store, &mut model, &pool);
                assert_signatures_equivalent(
                    &store.snapshot().database().content_signature(),
                    &rebuild(&model, step >= install_at).content_signature(),
                    &format!("seed={seed} install_at={install_at} step={step} ops={ops}"),
                );
            }
        }
    }
}

#[test]
fn ontology_materialisation_is_deterministic_down_to_skolem_ids() {
    // Two fresh stores at default options, the same commits and the same
    // ontology with existential rules: every relation holds the same
    // encoded rows in the same order — invented nulls' TermIds included.
    let pool = universe();
    let encoded = || {
        let store = Store::new();
        let mut rng = Rng::new(0xD5EE_D000);
        let mut model: Vec<Quad> = Vec::new();
        for step in 0..12 {
            if step == 6 {
                store.add_ontology(&ontology()).expect("ontology installs");
            }
            random_commit(&mut rng, &store, &mut model, &pool);
        }
        let snapshot = store.snapshot();
        let db = snapshot.database();
        let mut relations: Vec<(String, Vec<Vec<TermId>>)> = (db.relations())
            .map(|(pred, rel)| {
                let rows = rel.iter().map(<[TermId]>::to_vec).collect();
                (db.symbols().resolve(pred).to_string(), rows)
            })
            .collect();
        relations.sort();
        relations
    };
    let a = encoded();
    let nulls = (a.iter().flat_map(|(_, rows)| rows.iter().flatten()))
        .filter(|id| id.is_skolem())
        .count();
    assert!(nulls > 0, "the ontology invents no nulls on this history");
    assert_eq!(a, encoded());
}

#[test]
fn random_interleavings_under_pinned_snapshots() {
    // Pinning a snapshot before every commit forces the copy commit
    // path; the maintained result must be identical, and each pin keeps
    // answering from its own version.
    let pool = universe();
    let store = Store::new();
    store.add_ontology(&ontology()).expect("ontology installs");
    let mut rng = Rng::new(0xF1F1_F1F1);
    let mut model: Vec<Quad> = Vec::new();
    let mut pins = Vec::new();
    let mut pin_counts = Vec::new();
    let count_q = "SELECT ?s ?p ?o WHERE { ?s ?p ?o }";
    for step in 0..12 {
        let pin = store.snapshot();
        pin_counts.push(pin.execute(count_q).expect("pin query").len());
        pins.push(pin);
        let ops = random_commit(&mut rng, &store, &mut model, &pool);
        assert_signatures_equivalent(
            &store.snapshot().database().content_signature(),
            &rebuild(&model, true).content_signature(),
            &format!("pinned step={step} ops={ops}"),
        );
    }
    for (pin, expected) in pins.iter().zip(pin_counts) {
        assert_eq!(
            pin.execute(count_q).expect("pin query").len(),
            expected,
            "pinned snapshots stay version-stable"
        );
    }
}

/// The subscription contract over random commits on `store`: after
/// every commit, each subscription's accumulated view (initial rows plus
/// every delivered delta) equals a full re-execution of its query. With
/// `install_at`, `ontology()` is installed before that step's commit.
fn assert_deltas_equal_rerun_diffs(store: &Store, queries: &[&str], install_at: Option<usize>) {
    let pool = universe();
    let prepared: Vec<_> = queries
        .iter()
        .map(|q| store.prepare(q).expect("prepares"))
        .collect();
    let subs: Vec<_> = prepared
        .iter()
        .map(|p| store.subscribe(p).expect("subscribes"))
        .collect();
    // Accumulated client-side view per subscription, as canonical rows.
    let mut acc: Vec<Vec<Vec<String>>> =
        subs.iter().map(|s| s.initial().canonical(false)).collect();

    let mut rng = Rng::new(0xD1FF_5EED);
    let mut model: Vec<Quad> = Vec::new();
    let mut last_seq = 0u64;
    for step in 0..25 {
        let mut ops = String::new();
        if install_at == Some(step) {
            store.add_ontology(&ontology()).expect("ontology installs");
            ops.push_str("ontology ");
        }
        ops.push_str(&random_commit(&mut rng, store, &mut model, &pool));
        let snapshot = store.snapshot();
        for (i, sub) in subs.iter().enumerate() {
            // Drain this step's events (one per delivering commit).
            while let Some(event) = sub.try_recv() {
                let SubscriptionEvent::Delta(delta) = event else {
                    panic!("mailbox is large enough to never lag here");
                };
                assert!(delta.commit_seq > last_seq || i > 0, "monotone seq");
                last_seq = last_seq.max(delta.commit_seq);
                for row in delta.removed.canonical(false) {
                    let pos = acc[i]
                        .iter()
                        .position(|r| *r == row)
                        .unwrap_or_else(|| panic!("removed row {row:?} not in view"));
                    acc[i].swap_remove(pos);
                }
                acc[i].extend(delta.added.canonical(false));
            }
            // The accumulated view must now equal a full re-execution.
            let mut rerun = snapshot
                .execute_prepared(&prepared[i])
                .expect("rerun")
                .solutions()
                .expect("SELECT")
                .canonical(false);
            let mut view = acc[i].clone();
            rerun.sort();
            view.sort();
            assert_eq!(
                view, rerun,
                "step={step} query={i} ops={ops}: delta stream diverged from rerun diff"
            );
        }
    }
}

const SUBSCRIBED: [&str; 3] = [
    // Closed predicate set — exercised *with* the prefilter.
    "PREFIX ex: <http://ex.org/> SELECT ?a ?b WHERE { ?a ex:knows ?b }",
    // FILTER over a closed predicate set — prefiltered like its pattern.
    "PREFIX ex: <http://ex.org/>
     SELECT ?a WHERE { ?a ex:knows ?b FILTER (?b != ex:s0) }",
    // OPTIONAL + named graph join.
    "PREFIX ex: <http://ex.org/>
     SELECT ?s ?src WHERE { ?s ex:name ?n
       OPTIONAL { GRAPH <http://meta> { ?s ex:source ?src } } }",
];

#[test]
fn subscription_deltas_equal_rerun_diffs() {
    // The acceptance property: for every commit, the delta a
    // subscription delivers equals the multiset difference between full
    // re-executions of its query on the pre- and post-commit snapshots.
    assert_deltas_equal_rerun_diffs(&Store::new(), &SUBSCRIBED, None);
}

#[test]
fn subscription_deltas_equal_rerun_diffs_under_an_ontology() {
    // The same on an ontology store, where entailed triples come and go
    // with their premises — installed mid-stream, so the install commit
    // itself is a delta too. Two more prefiltered queries read only
    // entailments: a superclass and the existential property.
    let queries: Vec<&str> = SUBSCRIBED
        .into_iter()
        .chain([
            "PREFIX ex: <http://ex.org/> SELECT ?x WHERE { ?x a ex:Person }",
            "PREFIX ex: <http://ex.org/> SELECT ?x ?c WHERE { ?x ex:enrolledIn ?c }",
        ])
        .collect();
    assert_deltas_equal_rerun_diffs(&Store::new(), &queries, Some(5));
}

#[test]
fn ontology_commits_rerun_only_affected_subscribers() {
    // The prefilter is exact under an ontology too: a commit whose
    // asserted and entailed triples all miss a subscriber's predicates
    // does not re-run it.
    let store = Store::new();
    store.add_ontology(&ontology()).expect("ontology installs");
    store
        .load_dataset(&dataset_of(&universe()))
        .expect("initial load");
    let subs = [
        "PREFIX ex: <http://ex.org/> SELECT ?a ?b WHERE { ?a ex:knows ?b }",
        "PREFIX ex: <http://ex.org/> SELECT ?a WHERE { ?a ex:knows ?b FILTER (?b != ex:s1) }",
    ]
    .map(|q| store.subscribe(&store.prepare(q).unwrap()).unwrap());
    let reg = store.metrics();
    let queries = || reg.counter_value("sparqlog_queries_total").unwrap();
    let before = queries();
    store
        .update("PREFIX ex: <http://ex.org/> INSERT DATA { ex:newcomer a ex:Student }")
        .unwrap();
    assert_eq!(queries(), before, "a Student fact cannot change ex:knows");
    for sub in &subs {
        assert_eq!(sub.try_recv(), None);
    }
    store
        .update("PREFIX ex: <http://ex.org/> INSERT DATA { ex:newcomer ex:knows ex:s0 }")
        .unwrap();
    assert_eq!(queries(), before + 2);
    for sub in &subs {
        assert!(matches!(sub.try_recv(), Some(SubscriptionEvent::Delta(_))));
    }
}

#[test]
fn ontology_constants_join_without_class_facts() {
    // ex:Person occurs only in entailed triples. Compatibility compares
    // values, so joins through it find the Persons from the start, and
    // asserting a triple that mentions it — under a predicate the
    // subscriber never reads — changes nothing the subscriber sees.
    let store = Store::new();
    store.add_ontology(&ontology()).expect("ontology installs");
    store
        .load_dataset(&dataset_of(&universe()))
        .expect("initial load");
    let q = store
        .prepare("PREFIX ex: <http://ex.org/> SELECT ?x ?y WHERE { ?x a ?c . ?y a ?c }")
        .unwrap();
    // The join's size from the per-class counts, which need no join.
    let counts = store
        .execute("SELECT ?c (COUNT(?x) AS ?n) WHERE { ?x a ?c } GROUP BY ?c")
        .unwrap();
    let pairs: i64 = (counts.solutions().unwrap().iter())
        .map(|row| match row.get("n") {
            Some(Term::Literal(n)) => n.lexical().parse::<i64>().unwrap().pow(2),
            other => panic!("count {other:?}"),
        })
        .sum();
    let sub = store.subscribe(&q).unwrap();
    assert_eq!(sub.initial().len() as i64, pairs, "every class joins");
    for update in [
        "PREFIX ex: <http://ex.org/> INSERT DATA { ex:Person ex:label \"person\" }",
        "PREFIX ex: <http://ex.org/> DELETE DATA { ex:Person ex:label \"person\" }",
    ] {
        store.update(update).unwrap();
        assert!(sub.try_recv().is_none(), "{update}");
        let rerun = store.snapshot().execute_prepared(&q).unwrap();
        assert!(
            rerun.solutions().unwrap().multiset_eq(sub.initial()),
            "{update}"
        );
    }
}

/// [`universe`] widened to 40 subjects (280 quads), so that relations are
/// large enough to be carried across a small commit instead of being
/// re-collected on every change.
fn wide_universe() -> Vec<Quad> {
    let iri = |l: &str| Term::iri(format!("{EX}{l}"));
    let mut out = Vec::new();
    for si in 0..40 {
        for step in [1, 7, 13] {
            out.push(Quad {
                s: iri(&format!("s{si}")),
                p: iri("knows"),
                o: iri(&format!("s{}", (si + step) % 40)),
                g: None,
            });
        }
        for (p, o, g) in [
            (Term::iri(RDF_TYPE), iri("Student"), None),
            (iri("name"), Term::literal(format!("node {si}")), None),
            (iri("age"), Term::literal(format!("{}", 20 + si % 9)), None),
            (iri("source"), iri("census"), Some("http://meta")),
        ] {
            out.push(Quad {
                s: iri(&format!("s{si}")),
                p,
                o,
                g,
            });
        }
    }
    out
}

/// A from-scratch freeze of `fresh`'s content with exactly the built
/// indexes `committed` carries.
fn refrozen_with_indexes_of(fresh: &Store, committed: &FrozenDb) -> Arc<FrozenDb> {
    let mut db = FrozenDb::thaw(fresh.snapshot().database().clone());
    for (pred, rel) in committed.relations() {
        let here = db.symbols().intern(&committed.symbols().resolve(pred));
        for mask in rel.index_masks() {
            db.relation_mut(here).ensure_index(mask);
        }
    }
    db.freeze()
}

#[test]
fn carried_statistics_match_a_fresh_collection() {
    let pool = wide_universe();
    let store = Store::new();
    let mut model: Vec<Quad> = pool.iter().step_by(2).cloned().collect();
    store
        .load_dataset(&dataset_of(&model))
        .expect("initial load");
    let rescans = || {
        store
            .metrics()
            .counter_value("sparqlog_store_stats_rescans_total")
            .expect("registered")
    };
    // What the commit path must have re-scanned to get from `before` to
    // the relations of `after`: the new ones and those past the tolerance.
    let expected_rescans = |before: &DbStats, after: &FrozenDb| {
        after
            .relations()
            .filter(|(pred, rel)| match before.relation(*pred) {
                Some(s) => {
                    rel.len().abs_diff(s.collected_rows) * RECOLLECT_DIVISOR > s.collected_rows
                }
                None => true,
            })
            .count()
    };

    // Per relation: the `collected_rows` its carried estimates had at the
    // previous step, its rows then, and the rows changed since those
    // estimates were collected.
    let mut tracked: HashMap<String, (usize, HashSet<Vec<TermId>>, usize)> = HashMap::new();
    // Nobody has planned yet: the first `stats()` is a full collection,
    // every later snapshot gets its statistics from the commit.
    let mut carried = store.snapshot().stats();
    let mut with_ontology = false;
    let mut carried_changed_relations = 0;
    let mut rng = Rng::new(0x57A7_5EED);
    for step in 0..60 {
        let before_rescans = rescans();
        // Every seventh commit runs beside a live snapshot (copy path).
        let pin = (step % 7 == 3).then(|| store.snapshot());
        let ops = match step {
            30 => {
                store.add_ontology(&ontology()).expect("ontology installs");
                with_ontology = true;
                "ontology".to_string()
            }
            15 | 45 => {
                store.update("CLEAR GRAPH <http://meta>").expect("clear");
                model.retain(|q| q.g.is_none());
                "clear".to_string()
            }
            _ => random_commit(&mut rng, &store, &mut model, &pool),
        };
        drop(pin);
        let ctx = format!("step={step} ops={ops}");
        let snapshot = store.snapshot();
        let db = snapshot.database();
        assert_eq!(
            rescans() - before_rescans,
            expected_rescans(&carried, db) as u64,
            "{ctx}: relations re-scanned"
        );
        carried = db.stats_if_ready().expect("the commit carried statistics");
        let fresh = DbStats::collect(db.relations());
        assert_eq!(carried.len(), fresh.len(), "{ctx}");
        let mut seen = HashSet::new();
        for (pred, rel) in db.relations() {
            let name = db.symbols().resolve(pred).to_string();
            let (c, f) = (
                carried.relation(pred).expect("carried"),
                fresh.relation(pred).expect("collected"),
            );
            assert_eq!(c.rows, f.rows, "{ctx}: {name} row count");
            assert!(
                c.rows.abs_diff(c.collected_rows) * RECOLLECT_DIVISOR <= c.collected_rows,
                "{ctx}: {name} carried past the tolerance: {c:?}"
            );
            let rows: HashSet<Vec<TermId>> = rel.iter().map(<[TermId]>::to_vec).collect();
            let churn = match tracked.get(&name) {
                Some((collected, old, churn)) if *collected == c.collected_rows => {
                    churn + old.symmetric_difference(&rows).count()
                }
                // New or re-collected (a re-collection always moves
                // `collected_rows`, by more than the tolerance).
                _ => 0,
            };
            for (col, (&cd, &fd)) in c.distinct.iter().zip(&f.distinct).enumerate() {
                assert!(
                    cd.abs_diff(fd) <= churn,
                    "{ctx}: {name} column {col}: carried {cd}, fresh {fd}, churn {churn}"
                );
            }
            carried_changed_relations += usize::from(churn > 0);
            tracked.insert(name.clone(), (c.collected_rows, rows, churn));
            seen.insert(name);
        }
        tracked.retain(|name, _| seen.contains(name));

        // The committed snapshot is a from-scratch load of the surviving
        // assertions frozen with the same index needs.
        let reloaded = Store::new();
        reloaded.load_dataset(&dataset_of(&model)).expect("reload");
        if with_ontology {
            reloaded.add_ontology(&ontology()).expect("ontology");
        }
        assert_eq!(
            db.content_signature(),
            refrozen_with_indexes_of(&reloaded, db).content_signature(),
            "{ctx}"
        );
    }

    assert!(
        carried_changed_relations > 100,
        "the sequence mostly carries: {carried_changed_relations}"
    );

    // A bulk insert that crosses the tolerance re-collects each grown
    // relation exactly once; the commit after it carries them all again.
    let before = rescans();
    let mut w = store.writer();
    for i in 0..400 {
        w.insert(
            Term::iri(format!("{EX}bulk{i}")),
            Term::iri(format!("{EX}knows")),
            Term::iri(format!("{EX}s{}", i % 40)),
        );
    }
    w.commit().expect("bulk insert");
    let snapshot = store.snapshot();
    let grown = expected_rescans(&carried, snapshot.database());
    let triple = snapshot.symbols().get("triple").expect("interned");
    assert!(
        carried.relation(triple).expect("carried").rows * 2
            < snapshot.stats().relation(triple).expect("carried").rows,
        "the bulk insert at least doubles `triple`"
    );
    assert_eq!(grown, 2, "triple and subjectOrObject");
    assert_eq!(rescans() - before, grown as u64);
    drop(snapshot);
    store
        .update("PREFIX ex: <http://ex.org/> INSERT DATA { ex:bulk0 ex:knows ex:bulk1 }")
        .expect("small commit");
    assert_eq!(
        rescans() - before,
        grown as u64,
        "nothing re-collected twice"
    );
}
