//! Workspace-level integration tests: the full pipeline across every
//! crate — generators → parser → translation → Datalog engine → solution
//! extraction, cross-checked against the reference engines and the
//! BeSEPPI ground truth.

use sparqlog::{QueryResults, Store};
use sparqlog_benchdata::{beseppi, feasible, gmark, sp2bench};
use sparqlog_rdf::Dataset;
use sparqlog_refengine::{EngineError, FusekiSim, VirtuosoSim};

/// SparqLog answers every BeSEPPI query with exactly the ground-truth
/// multiset — the paper's headline compliance claim (Table 3, SparqLog
/// column all zeros).
#[test]
fn beseppi_sparqlog_fully_compliant() {
    let dataset = Dataset::from_default_graph(beseppi::graph());
    let mut failures = Vec::new();
    for q in beseppi::queries() {
        let store = Store::new();
        store.load_dataset(&dataset).unwrap();
        let result = store.execute(&q.query).unwrap();
        let actual: Vec<Vec<sparqlog_rdf::Term>> = match &result {
            QueryResults::Boolean(_) => Vec::new(),
            QueryResults::Solutions(s) => s
                .rows
                .iter()
                .map(|r| r.iter().map(|c| c.clone().unwrap()).collect())
                .collect(),
            QueryResults::Graph(_) => unreachable!("BeSEPPI queries are SELECT/ASK"),
        };
        if beseppi::classify(&q.expected, &actual) != beseppi::Verdict::Correct {
            failures.push(format!("{}: {}", q.id, q.query));
        }
    }
    assert!(
        failures.is_empty(),
        "non-compliant queries:\n{}",
        failures.join("\n")
    );
}

/// FusekiSim is equally compliant (paper: "Fuseki and SparqLog produce
/// the correct result in all 236 cases").
#[test]
fn beseppi_fuseki_fully_compliant() {
    let dataset = Dataset::from_default_graph(beseppi::graph());
    let engine = FusekiSim::new(dataset);
    for q in beseppi::queries() {
        let result = engine.execute(&q.query).unwrap();
        let actual: Vec<Vec<sparqlog_rdf::Term>> = match &result {
            QueryResults::Boolean(_) => Vec::new(),
            QueryResults::Solutions(s) => s
                .rows
                .iter()
                .map(|r| r.iter().map(|c| c.clone().unwrap()).collect())
                .collect(),
            QueryResults::Graph(_) => unreachable!("BeSEPPI queries are SELECT/ASK"),
        };
        assert_eq!(
            beseppi::classify(&q.expected, &actual),
            beseppi::Verdict::Correct,
            "{}: {}",
            q.id,
            q.query
        );
    }
}

/// VirtuosoSim misbehaves only in the categories the paper reports:
/// alternative (incomplete), zero-or-one / one-or-more / zero-or-more
/// (errors + incompleteness) — and never on inverse/sequence/negated.
#[test]
fn beseppi_virtuoso_errs_in_the_right_places() {
    use beseppi::Category;
    let dataset = Dataset::from_default_graph(beseppi::graph());
    let engine = VirtuosoSim::new(dataset);
    let mut wrong_or_error_by_cat = std::collections::HashMap::new();
    for q in beseppi::queries() {
        let bad = match engine.execute(&q.query) {
            Err(_) => true,
            Ok(result) => {
                let actual: Vec<Vec<sparqlog_rdf::Term>> = match &result {
                    QueryResults::Boolean(_) => Vec::new(),
                    QueryResults::Solutions(s) => s
                        .rows
                        .iter()
                        .map(|r| r.iter().map(|c| c.clone().unwrap()).collect())
                        .collect(),
                    QueryResults::Graph(_) => {
                        unreachable!("BeSEPPI queries are SELECT/ASK")
                    }
                };
                beseppi::classify(&q.expected, &actual) != beseppi::Verdict::Correct
            }
        };
        if bad {
            *wrong_or_error_by_cat.entry(q.category).or_insert(0usize) += 1;
        }
    }
    for clean in [Category::Inverse, Category::Sequence, Category::Negated] {
        assert!(
            !wrong_or_error_by_cat.contains_key(&clean),
            "{clean:?} should be handled correctly by Virtuoso"
        );
    }
    for dirty in [
        Category::OneOrMore,
        Category::ZeroOrMore,
        Category::ZeroOrOne,
    ] {
        assert!(
            wrong_or_error_by_cat.get(&dirty).copied().unwrap_or(0) > 0,
            "{dirty:?} should show Virtuoso failures"
        );
    }
}

/// SP²Bench: SparqLog and FusekiSim agree on all 17 queries (paper §6.2:
/// "All 3 considered systems produce the correct result for all 17
/// queries"). Small instance for test speed; the binary runs the full
/// size.
#[test]
fn sp2bench_cross_engine_agreement() {
    let dataset = Dataset::from_default_graph(sp2bench::generate(sp2bench::Sp2bConfig {
        target_triples: 1_500,
        seed: 42,
    }));
    let fu = FusekiSim::new(dataset.clone());
    for (id, q) in sp2bench::queries() {
        let sl = Store::new();
        sl.load_dataset(&dataset).unwrap();
        let a = sl
            .execute(&q)
            .unwrap_or_else(|e| panic!("{id}: SparqLog {e}"));
        let b = fu
            .execute(&q)
            .unwrap_or_else(|e| panic!("{id}: Fuseki {e}"));
        match (&a, &b) {
            (QueryResults::Boolean(x), QueryResults::Boolean(y)) => {
                assert_eq!(x, y, "{id}")
            }
            (QueryResults::Solutions(x), QueryResults::Solutions(y)) => {
                assert!(
                    x.multiset_eq(y),
                    "{id}: SparqLog {} rows vs Fuseki {} rows",
                    x.len(),
                    y.len()
                );
            }
            _ => panic!("{id}: result kinds differ"),
        }
    }
}

/// True unless the rule's positive atoms, linked through compatibility
/// items, fall into several components with no variable in common — a
/// product — of which some component binds no variable the rule
/// requires to be numeric. Only the filter-equality
/// rewrite's numeric side rule may keep a product, and there every
/// component dies on string values before the product forms.
fn product_is_guarded(rule: &sparqlog_datalog::Rule) -> bool {
    use sparqlog_datalog::{BodyItem, Expr};
    let atoms: Vec<Vec<u32>> = rule
        .body
        .iter()
        .filter_map(|i| match i {
            BodyItem::Pos(a) => Some(a.vars()),
            // A compatibility item links its two sides, as `comp` did.
            BodyItem::Compat(args) => Some(
                args.iter()
                    .filter_map(|arg| match arg {
                        sparqlog_datalog::AtomArg::Var(v) => Some(*v),
                        sparqlog_datalog::AtomArg::Const(_) => None,
                    })
                    .collect(),
            ),
            _ => None,
        })
        .collect();
    // Component labels by propagation: each atom ends with the smallest
    // index of an atom it is connected to.
    let mut label: Vec<usize> = (0..atoms.len()).collect();
    let mut changed = true;
    while changed {
        changed = false;
        for i in 0..atoms.len() {
            for j in 0..atoms.len() {
                if label[j] < label[i] && atoms[i].iter().any(|v| atoms[j].contains(v)) {
                    label[i] = label[j];
                    changed = true;
                }
            }
        }
    }
    let numeric: Vec<u32> = rule
        .body
        .iter()
        .filter_map(|i| match i {
            BodyItem::Cond(Expr::IsNumeric(e)) => match **e {
                Expr::Var(v) => Some(v),
                _ => None,
            },
            _ => None,
        })
        .collect();
    let guarded = |root: usize| {
        (0..atoms.len()).any(|i| label[i] == root && atoms[i].iter().any(|v| numeric.contains(v)))
    };
    let mut roots = label.clone();
    roots.sort_unstable();
    roots.dedup();
    roots.len() <= 1 || roots.into_iter().all(guarded)
}

/// SP²Bench Q5a (`q13`) joins its two halves only through `FILTER (?name
/// = ?name2)`. The filter-equality rewrite turns that equality into a join
/// key, so Q5a plans like its twin Q5b instead of filtering the product of
/// the halves (1 999 538 rows derived at this size before the rewrite).
/// Counts, not clocks.
#[test]
fn sp2bench_q5a_joins_instead_of_filtering_a_product() {
    use sparqlog::translate_query;
    use sparqlog_datalog::plan_program;
    use sparqlog_sparql::parse_query;

    let store = Store::new();
    store
        .load_dataset(&Dataset::from_default_graph(sp2bench::generate(
            sp2bench::Sp2bConfig {
                target_triples: 10_000,
                seed: 1,
            },
        )))
        .unwrap();
    let snapshot = store.snapshot();
    let symbols = snapshot.symbols();
    let query = |id: &str| {
        sp2bench::queries()
            .into_iter()
            .find(|(q, _)| *q == id)
            .unwrap()
            .1
    };

    let q13 = query("q13");
    let (results, profile) = snapshot.execute_profiled(&q13).unwrap();
    let derived: u64 = profile.rules.iter().map(|r| r.derived).sum();
    assert!(derived <= 200_000, "q13 derived {derived} rows");

    // The same multiset as the hand-unified twin.
    let twin = q13
        .replace("?person2 foaf:name ?name2", "?person2 foaf:name ?name")
        .replace("FILTER (?name = ?name2)", "");
    assert!(!twin.contains("?name2"), "twin is the unified text");
    match (&results, &snapshot.execute(&twin).unwrap()) {
        (QueryResults::Solutions(got), QueryResults::Solutions(want)) => {
            assert_eq!(got.len(), 454);
            assert!(got.multiset_eq(want), "q13 differs from its unified twin");
        }
        _ => panic!("q13 is a SELECT"),
    }

    // No rule of the translated program evaluates an unguarded product.
    let program = translate_query(&parse_query(&q13).unwrap(), symbols, "q5a_")
        .unwrap()
        .program;
    for rule in &program.rules {
        assert!(
            product_is_guarded(rule),
            "cross product: {}",
            rule.display(symbols)
        );
    }

    // q3a's `FILTER (?property = swrc:pages)` becomes a bound predicate:
    // every `triple` probe of its plan has position 1 in its mask.
    let q3a = translate_query(&parse_query(&query("q3a")).unwrap(), symbols, "q3a_")
        .unwrap()
        .program;
    let plan = plan_program(&q3a, symbols, &snapshot.stats()).unwrap();
    let triple = symbols.get("triple").unwrap();
    let probes: Vec<_> = plan.probes(false).filter(|&(p, _)| p == triple).collect();
    assert!(!probes.is_empty());
    for (_, mask) in probes {
        assert_ne!(mask & 0b10, 0, "triple probed without its predicate");
    }
}

/// FEASIBLE: SparqLog and FusekiSim agree on every supported query
/// (paper §6.2: "both SparqLog and Fuseki fully comply ... on each of
/// the 77 queries").
#[test]
fn feasible_cross_engine_agreement() {
    let dataset = feasible::dataset(feasible::FeasibleConfig {
        people: 80,
        papers: 120,
        seed: 99,
    });
    let fu = FusekiSim::new(dataset.clone());
    for (id, q) in feasible::queries() {
        let sl = Store::new();
        sl.load_dataset(&dataset).unwrap();
        let a = sl
            .execute(&q)
            .unwrap_or_else(|e| panic!("{id}: SparqLog {e}"));
        let b = fu
            .execute(&q)
            .unwrap_or_else(|e| panic!("{id}: Fuseki {e}"));
        match (&a, &b) {
            (QueryResults::Boolean(x), QueryResults::Boolean(y)) => {
                assert_eq!(x, y, "{id}")
            }
            (QueryResults::Solutions(x), QueryResults::Solutions(y)) => {
                assert!(
                    x.multiset_eq(y),
                    "{id}\n{q}\nSparqLog {} rows vs Fuseki {} rows",
                    x.len(),
                    y.len()
                );
            }
            _ => panic!("{id}: result kinds differ"),
        }
    }
}

/// gMark: on a small instance, SparqLog and FusekiSim agree on every
/// query of both scenarios (paper §6.3: "each time when both Fuseki and
/// SparqLog returned a result, the results were equal"), and Virtuoso
/// refuses the two-variable recursive ones.
#[test]
fn gmark_agreement_and_virtuoso_refusals() {
    for scenario in [gmark::Scenario::Social, gmark::Scenario::Test] {
        let dataset = Dataset::from_default_graph(gmark::generate(gmark::GmarkConfig {
            scenario,
            nodes: 150,
            seed: 5,
        }));
        let fu = FusekiSim::new(dataset.clone());
        let vi = VirtuosoSim::new(dataset.clone());
        let mut virtuoso_failures = 0usize;
        for (id, q) in gmark::queries(scenario) {
            let sl = Store::new();
            sl.load_dataset(&dataset).unwrap();
            let a = sl
                .execute(&q)
                .unwrap_or_else(|e| panic!("{scenario:?} {id}: {e}"));
            let b = fu
                .execute(&q)
                .unwrap_or_else(|e| panic!("{scenario:?} {id}: {e}"));
            assert!(
                match (&a, &b) {
                    (QueryResults::Solutions(x), QueryResults::Solutions(y)) => x.multiset_eq(y),
                    (QueryResults::Boolean(x), QueryResults::Boolean(y)) => x == y,
                    _ => false,
                },
                "{scenario:?} {id}: engines disagree\n{q}"
            );
            match vi.execute(&q) {
                Err(EngineError::NotSupported(_)) => virtuoso_failures += 1,
                Err(_) => virtuoso_failures += 1,
                Ok(r) => {
                    let eq = match (&a, &r) {
                        (QueryResults::Solutions(x), QueryResults::Solutions(y)) => {
                            x.multiset_eq(y)
                        }
                        (QueryResults::Boolean(x), QueryResults::Boolean(y)) => x == y,
                        _ => false,
                    };
                    if !eq {
                        virtuoso_failures += 1;
                    }
                }
            }
        }
        assert!(
            virtuoso_failures >= 10,
            "{scenario:?}: Virtuoso should fail on a large fraction (got {virtuoso_failures}/50)"
        );
    }
}

/// The umbrella crate re-exports every subsystem.
#[test]
fn umbrella_reexports() {
    let _ = sparqlog_suite::rdf::Term::iri("http://x");
    let _ = sparqlog_suite::datalog::Database::new();
    let _ = sparqlog_suite::sparql::parse_query("SELECT * WHERE { ?s ?p ?o }").unwrap();
    let _ = sparqlog_suite::sparqlog::Store::new();
    let _ = sparqlog_suite::benchdata::beseppi::graph();
}

/// Every query of every generated workload translates into a *warded*
/// program — the executable version of the paper's §5 claim that the
/// translation targets Warded Datalog±.
#[test]
fn all_benchmark_queries_translate_to_warded_programs() {
    use sparqlog::translate_query;
    use sparqlog_datalog::{check_wardedness, SymbolTable};
    use sparqlog_sparql::parse_query;

    let symbols = SymbolTable::new();
    let mut all: Vec<String> = Vec::new();
    all.extend(
        sparqlog_benchdata::sp2bench::queries()
            .into_iter()
            .map(|(_, q)| q),
    );
    all.extend(
        sparqlog_benchdata::feasible::queries()
            .into_iter()
            .map(|(_, q)| q),
    );
    all.extend(
        sparqlog_benchdata::gmark::queries(sparqlog_benchdata::gmark::Scenario::Social)
            .into_iter()
            .map(|(_, q)| q),
    );
    all.extend(
        sparqlog_benchdata::gmark::queries(sparqlog_benchdata::gmark::Scenario::Test)
            .into_iter()
            .map(|(_, q)| q),
    );
    all.extend(
        sparqlog_benchdata::beseppi::queries()
            .into_iter()
            .map(|q| q.query),
    );
    all.extend(
        sparqlog_benchdata::ontology::queries()
            .into_iter()
            .map(|(_, q)| q),
    );

    let mut checked = 0;
    for (i, q) in all.iter().enumerate() {
        let query = parse_query(q).unwrap_or_else(|e| panic!("query {i}: {e}"));
        let tq = translate_query(&query, &symbols, &format!("w{i}_"))
            .unwrap_or_else(|e| panic!("query {i}: {e}"));
        let report = check_wardedness(&tq.program, &symbols);
        assert!(
            report.warded,
            "query {i} not warded: {:?}\n{q}",
            report.violations
        );
        checked += 1;
    }
    assert!(
        checked > 400,
        "expected the full workload set, got {checked}"
    );
}
