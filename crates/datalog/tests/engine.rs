//! End-to-end tests of the Datalog± engine through the textual syntax.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use sparqlog_datalog::parser::parse_program;
use sparqlog_datalog::{
    check_wardedness, evaluate, evaluate_frozen, run_scoped, AbortReason, Budget, Const, Database,
    EvalError, EvalOptions, FrozenDb, Program, Sym, TermId, MAX_SKOLEM_DEPTH,
};

fn run(src: &str) -> Database {
    let mut db = Database::new();
    let prog = parse_program(src, db.symbols()).unwrap();
    evaluate(&prog, &mut db, &EvalOptions::default()).unwrap();
    db
}

/// The decoded tuples of `pred`, in relation order.
fn tuples(db: &Database, pred: Sym) -> Vec<Vec<Const>> {
    (db.relation(pred).into_iter())
        .flat_map(|r| r.iter().map(|t| db.decode_tuple(t)))
        .collect()
}

fn output_strings(db: &Database, pred: &str) -> Vec<Vec<String>> {
    tuples(db, db.symbols().get(pred).unwrap())
        .into_iter()
        .map(|t| t.iter().map(|c| c.display(db.symbols())).collect())
        .collect()
}

#[test]
fn transitive_closure() {
    let db = run(r#"
        edge("a", "b"). edge("b", "c"). edge("c", "d").
        tc(X, Y) :- edge(X, Y).
        tc(X, Z) :- edge(X, Y), tc(Y, Z).
        @output("tc").
    "#);
    let mut out = output_strings(&db, "tc");
    out.sort();
    assert_eq!(out.len(), 6);
    assert!(out.contains(&vec!["\"a\"".to_string(), "\"d\"".to_string()]));
}

#[test]
fn transitive_closure_with_cycle_terminates() {
    let db = run(r#"
        edge("a", "b"). edge("b", "c"). edge("c", "a").
        tc(X, Y) :- edge(X, Y).
        tc(X, Z) :- edge(X, Y), tc(Y, Z).
        @output("tc").
    "#);
    // 3 nodes, complete reachability: 9 pairs.
    assert_eq!(output_strings(&db, "tc").len(), 9);
}

#[test]
fn stratified_negation() {
    let db = run(r#"
        node("a"). node("b"). node("c").
        covered("a"). covered("b").
        uncovered(X) :- node(X), not covered(X).
        @output("uncovered").
    "#);
    let out = output_strings(&db, "uncovered");
    assert_eq!(out, vec![vec!["\"c\"".to_string()]]);
}

#[test]
fn negation_over_recursive_layer() {
    // unreachable = nodes with no path from "a".
    let db = run(r#"
        edge("a", "b"). edge("b", "c"). edge("d", "e").
        node("a"). node("b"). node("c"). node("d"). node("e").
        reach("a").
        reach(Y) :- reach(X), edge(X, Y).
        unreachable(X) :- node(X), not reach(X).
        @output("unreachable").
    "#);
    let mut out = output_strings(&db, "unreachable");
    out.sort();
    assert_eq!(
        out,
        vec![vec!["\"d\"".to_string()], vec!["\"e\"".to_string()]]
    );
}

#[test]
fn skolem_ids_preserve_duplicates() {
    // Two different derivations of p("x") get distinct IDs — the paper's
    // duplicate-preservation model.
    let db = run(r#"
        q("a"). q("b").
        p(I, "x") :- q(Y), I = skolem("f1", Y).
        @output("p").
    "#);
    let out = output_strings(&db, "p");
    assert_eq!(out.len(), 2, "two derivations, two tuple IDs");
}

#[test]
fn constant_id_collapses_duplicates() {
    // Forcing Id = the same skolem constant merges duplicates — how the
    // translation realises set semantics for recursive property paths.
    let db = run(r#"
        q("a"). q("b").
        p(I, "x") :- q(Y), I = skolem("nil").
        @output("p").
    "#);
    let out = output_strings(&db, "p");
    assert_eq!(out.len(), 1);
}

#[test]
fn existential_head_variables_are_skolemised() {
    let db = run(r#"
        person("alice").
        hasParent(X, Z) :- person(X).
        @output("hasParent").
    "#);
    let sym = db.symbols().get("hasParent").unwrap();
    let tuples = tuples(&db, sym);
    assert_eq!(tuples.len(), 1);
    assert!(tuples[0][1].is_skolem(), "object is a labelled null");
}

#[test]
fn existential_chase_is_restricted() {
    // Re-deriving the same frontier yields the same labelled null, so the
    // fixpoint converges even with two rules deriving person facts.
    let db = run(r#"
        person("alice").
        person("alice") .
        hasParent(X, Z) :- person(X).
        @output("hasParent").
    "#);
    let sym = db.symbols().get("hasParent").unwrap();
    assert_eq!(tuples(&db, sym).len(), 1);
}

#[test]
fn cyclic_existentials_terminate_via_depth_bound() {
    let mut db = Database::new();
    let prog = parse_program(
        r#"
        person("alice").
        hasParent(X, Z) :- person(X).
        person(Y) :- hasParent(X, Y).
        @output("person").
        "#,
        db.symbols(),
    )
    .unwrap();
    evaluate(&prog, &mut db, &EvalOptions::default()).unwrap();
    let sym = db.symbols().get("person").unwrap();
    let n = tuples(&db, sym).len();
    // alice + MAX_SKOLEM_DEPTH generations of labelled nulls.
    assert_eq!(n, 1 + MAX_SKOLEM_DEPTH);
}

#[test]
fn comparisons_and_arithmetic() {
    let db = run(r#"
        n(1). n(5). n(10).
        big(X) :- n(X), X > 4.
        sum(Z) :- n(X), n(Y), X < Y, Z = X + Y.
        @output("big").
        @output("sum").
    "#);
    assert_eq!(output_strings(&db, "big").len(), 2);
    // sums: 1+5, 1+10, 5+10 → 6, 11, 15
    let mut sums = output_strings(&db, "sum");
    sums.sort();
    assert_eq!(sums.len(), 3);
}

#[test]
fn count_aggregate() {
    let db = run(r#"
        author("p1", "alice"). author("p1", "bob"). author("p2", "carol").
        nauthors(P, C) :- author(P, A), C = count().
        @output("nauthors").
    "#);
    let mut out = output_strings(&db, "nauthors");
    out.sort();
    assert_eq!(
        out,
        vec![
            vec!["\"p1\"".to_string(), "2".to_string()],
            vec!["\"p2\"".to_string(), "1".to_string()],
        ]
    );
}

#[test]
fn timeout_fires_on_explosive_join() {
    let mut db = Database::new();
    // A cross-product chain that generates far too many tuples.
    let mut src = String::new();
    for i in 0..2000 {
        src.push_str(&format!("n({i}).\n"));
    }
    src.push_str("pair(X, Y) :- n(X), n(Y).\nbig(X,Y,Z) :- pair(X,Y), n(Z).\n@output(\"big\").\n");
    let prog = parse_program(&src, db.symbols()).unwrap();
    let opts = EvalOptions {
        budget: Budget::new().with_timeout(Duration::from_millis(50)),
        ..Default::default()
    };
    let err = evaluate(&prog, &mut db, &opts).unwrap_err();
    assert!(
        matches!(
            err,
            EvalError::Aborted {
                reason: AbortReason::Deadline,
                ..
            }
        ),
        "expected a deadline abort, got {err:?}"
    );
}

#[test]
fn unsafe_negation_is_rejected() {
    let mut db = Database::new();
    let prog = parse_program(
        r#"p(X) :- not q(X), r(X)."#, // X unbound when `not q(X)` is checked
        db.symbols(),
    )
    .unwrap();
    let err = evaluate(&prog, &mut db, &EvalOptions::default()).unwrap_err();
    assert!(matches!(err, EvalError::Unsafe(_)));
}

#[test]
fn cyclic_negation_is_rejected() {
    let mut db = Database::new();
    let prog = parse_program(
        r#"
        p(X) :- base(X), not q(X).
        q(X) :- base(X), not p(X).
        base("a").
        "#,
        db.symbols(),
    )
    .unwrap();
    let err = evaluate(&prog, &mut db, &EvalOptions::default()).unwrap_err();
    assert!(matches!(err, EvalError::Stratification(_)));
}

#[test]
fn join_order_uses_indexes() {
    // A three-way join on a path: with index joins this is linear-ish.
    let mut src = String::new();
    for i in 0..300 {
        src.push_str(&format!("e({}, {}).\n", i, i + 1));
    }
    src.push_str("tri(X, W) :- e(X, Y), e(Y, Z), e(Z, W).\n@output(\"tri\").\n");
    let db = run(&src);
    assert_eq!(output_strings(&db, "tri").len(), 298);
}

#[test]
fn paper_figure2_shape_runs() {
    // A hand-rolled version of Figure 2's OPTIONAL translation over the
    // film-directors graph of §3.1 (simplified arities).
    let db = run(r#"
        triple("glucas", "name", "George", "g").
        triple("glucas", "lastname", "Lucas", "g").
        triple("b1", "name", "Steven", "g").

        term(X) :- triple(X, P, O, G).
        term(O) :- triple(X, P, O, G).
        null(null).
        comp(X, X, X) :- term(X).
        comp(X, Z, X) :- term(X), null(Z).
        comp(Z, X, X) :- term(X), null(Z).

        ans2(I, N, X, D) :- triple(X, "name", N, D), I = skolem("f2", X, N, D).
        ans3(I, L, X, D) :- triple(X, "lastname", L, D), I = skolem("f3", X, L, D).
        ansopt1(N, X, D) :- ans2(I2, N, X, D), ans3(I3, L, X2, D), comp(X, X2, X).
        ans1(I, L, N, X, D) :- ans2(I2, N, X, D), ans3(I3, L, X2, D), comp(X, X2, X),
                               I = skolem("f1a", X, N, L, I2, I3).
        ans1(I, L, N, X, D) :- ans2(I2, N, X, D), not ansopt1(N, X, D), L = null,
                               I = skolem("f1b", N, X, I2).
        ans(I, L, N, D) :- ans1(I1, L, N, X, D), I = skolem("f", L, N, X, I1).
        @output("ans").
    "#);
    let mut out = output_strings(&db, "ans");
    assert_eq!(out.len(), 2);
    // Figure 2 orders by name, which T_S does; here the test sorts:
    // George before Steven.
    out.sort_by(|x, y| x[2].cmp(&y[2]));
    assert_eq!(out[0][2], "\"George\"");
    assert_eq!(out[0][1], "\"Lucas\"");
    assert_eq!(out[1][2], "\"Steven\"");
    assert_eq!(out[1][1], "null");
}

#[test]
fn compat_joins_through_nulls() {
    // Def. A.2 without the `comp` relation: a null side is compatible
    // with every value, and the output is the non-null side. `l` and `r`
    // are derived, so the semi-naive round runs both delta variants —
    // one widening `B` from `A`, the other `A` from `B`.
    let db = run(r#"
        lbase(1). lbase(null).
        rbase(1). rbase(2). rbase(null).
        l(X) :- lbase(X).
        r(X) :- rbase(X).
        j(A, B, V) :- l(A), compat(A, B, V), r(B).
        @output("j").
    "#);
    let mut out = output_strings(&db, "j");
    out.sort();
    let row = |r: [&str; 3]| r.map(String::from).to_vec();
    assert_eq!(
        out,
        [
            row(["1", "1", "1"]),
            row(["1", "null", "1"]),
            row(["null", "1", "1"]),
            row(["null", "2", "2"]),
            row(["null", "null", "null"]),
        ]
    );
}

#[test]
fn warded_report_on_translated_shape() {
    let db = Database::new();
    let prog = parse_program(
        r#"
        ans2(I, X) :- triple(X, "p", Y), I = skolem("f2", X, Y).
        ans1(I, X) :- ans2(I2, X), I = skolem("f1", X, I2).
        "#,
        db.symbols(),
    )
    .unwrap();
    let report = check_wardedness(&prog, db.symbols());
    assert!(report.warded, "{:?}", report.violations);
    // The ID positions are affected.
    let ans1 = db.symbols().get("ans1").unwrap();
    let ans2 = db.symbols().get("ans2").unwrap();
    assert!(report.affected.contains(&(ans1, 0)));
    assert!(report.affected.contains(&(ans2, 0)));
}

#[test]
fn idempotent_reevaluation() {
    let mut db = Database::new();
    let prog = parse_program(
        r#"
        edge("a", "b"). edge("b", "c").
        tc(X, Y) :- edge(X, Y).
        tc(X, Z) :- edge(X, Y), tc(Y, Z).
        @output("tc").
        "#,
        db.symbols(),
    )
    .unwrap();
    evaluate(&prog, &mut db, &EvalOptions::default()).unwrap();
    let first = tuples(&db, db.symbols().get("tc").unwrap()).len();
    let stats = evaluate(&prog, &mut db, &EvalOptions::default()).unwrap();
    let second = tuples(&db, db.symbols().get("tc").unwrap()).len();
    assert_eq!(first, second);
    assert_eq!(stats.derived, 0, "second run derives nothing new");
}

#[test]
fn self_join_with_repeated_variable() {
    let db = run(r#"
        e("a", "a"). e("a", "b"). e("b", "b").
        loop(X) :- e(X, X).
        @output("loop").
    "#);
    let mut out = output_strings(&db, "loop");
    out.sort();
    assert_eq!(
        out,
        vec![vec!["\"a\"".to_string()], vec!["\"b\"".to_string()]]
    );
}

#[test]
fn constants_in_head() {
    let db = run(r#"
        q("x").
        p("const", X) :- q(X).
        @output("p").
    "#);
    let out = output_strings(&db, "p");
    assert_eq!(
        out,
        vec![vec!["\"const\"".to_string(), "\"x\"".to_string()]]
    );
}

// ------------------------------------------------- concurrent evaluation

/// Programs exercising every feature concurrent evaluations must
/// preserve: recursion, multi-rule strata, stratified negation,
/// assignments with Skolem tuple IDs, filters and aggregation.
const PARALLEL_BATTERY: &[(&str, &str)] = &[
    (
        r#"
        edge(1, 2). edge(2, 3). edge(3, 1). edge(3, 4). edge(4, 5).
        tc(X, Y) :- edge(X, Y).
        tc(X, Z) :- edge(X, Y), tc(Y, Z).
        @output("tc").
        "#,
        "tc",
    ),
    (
        r#"
        n(1). n(2). n(3). n(4).
        e(1, 2). e(2, 3).
        reach(1).
        reach(Y) :- reach(X), e(X, Y).
        isolated(X) :- n(X), not reach(X).
        @output("isolated").
        "#,
        "isolated",
    ),
    (
        r#"
        q(1). q(2). q(3).
        p(I, X) :- q(X), I = skolem("f", X).
        r(I, J) :- p(I, X), p(J, X), X > 1.
        @output("r").
        "#,
        "r",
    ),
    (
        r#"
        s(1, 10). s(1, 20). s(2, 30).
        total(K, C) :- s(K, V), C = count().
        @output("total").
        "#,
        "total",
    ),
    (
        r#"
        base(1). base(2).
        a(X) :- base(X).
        b(X) :- a(X).
        a(X) :- b(X), X > 1.
        both(X) :- a(X), b(X).
        @output("both").
        "#,
        "both",
    ),
];

/// Evaluates `prog` over `base` into an overlay and returns the sorted,
/// decoded output of `pred`.
fn run_frozen(prog: &Program, base: &Arc<FrozenDb>, pred: &str) -> Vec<Vec<String>> {
    let (db, _) = evaluate_frozen(prog, base, &EvalOptions::default()).unwrap();
    let mut out = output_strings(&db, pred);
    out.sort();
    out
}

#[test]
fn parallel_evaluation_matches_sequential() {
    // Every battery program evaluated by several threads at once against
    // one snapshot — sharing its symbol table and dictionary, as
    // concurrent queries do — answers what it answers alone.
    let base = Database::new().freeze();
    let progs: Vec<Program> = (PARALLEL_BATTERY.iter())
        .map(|(src, _)| parse_program(src, base.symbols()).unwrap())
        .collect();
    let pred = |j: usize| PARALLEL_BATTERY[j % progs.len()].1;
    let reference: Vec<_> = (0..progs.len())
        .map(|j| run_frozen(&progs[j], &base, pred(j)))
        .collect();
    let runs = 4 * progs.len();
    let got: Vec<Mutex<Vec<Vec<String>>>> = (0..runs).map(|_| Mutex::default()).collect();
    run_scoped(4, runs, &|j| {
        *got[j].lock().unwrap() = run_frozen(&progs[j % progs.len()], &base, pred(j));
    });
    for (j, out) in got.into_iter().enumerate() {
        assert_eq!(
            out.into_inner().unwrap(),
            reference[j % progs.len()],
            "concurrent run {j} diverged on output {}",
            pred(j)
        );
    }
}

#[test]
fn parallel_evaluation_is_deterministic_per_config() {
    // Two fresh databases evaluating the same program hold the same
    // encoded rows in the same order — Skolem tuple IDs included.
    let (src, _) = PARALLEL_BATTERY[2];
    let a = run(src);
    let b = run(src);
    let rows = |db: &Database, pred: &str| -> Vec<Vec<TermId>> {
        let rel = db.relation(db.symbols().get(pred).unwrap()).unwrap();
        rel.iter().map(<[TermId]>::to_vec).collect()
    };
    for pred in ["p", "r"] {
        assert_eq!(rows(&a, pred), rows(&b, pred), "relation {pred}");
    }
}

#[test]
fn parallel_timeout_still_fires() {
    // Two explosive joins evaluated at once over one snapshot: each
    // evaluation's own deadline stops it.
    let base = Database::new().freeze();
    let mut src = String::new();
    for i in 0..2000 {
        src.push_str(&format!("n({i}).\n"));
    }
    src.push_str("pair(X, Y) :- n(X), n(Y).\nbig(X,Y,Z) :- pair(X,Y), n(Z).\n@output(\"big\").\n");
    let prog = parse_program(&src, base.symbols()).unwrap();
    let opts = EvalOptions {
        budget: Budget::new().with_timeout(Duration::from_millis(50)),
        ..Default::default()
    };
    run_scoped(2, 2, &|_| {
        let Err(err) = evaluate_frozen(&prog, &base, &opts) else {
            panic!("the explosive join finished under a 50 ms deadline");
        };
        assert!(
            matches!(
                err,
                EvalError::Aborted {
                    reason: AbortReason::Deadline,
                    ..
                }
            ),
            "expected a deadline abort, got {err:?}"
        );
    });
}

#[test]
fn profiler_reports_rules_rounds_and_probes() {
    // A recursive chain: the transitive closure takes one semi-naive
    // round per additional hop, so a plain evaluation's record must show
    // a stratum with several rounds of shrinking deltas and per-rule
    // timings.
    let mut src = String::new();
    for i in 0..32 {
        src.push_str(&format!("edge(\"n{i}\", \"n{}\").\n", i + 1));
    }
    src.push_str(
        r#"
        tc(X, Y) :- edge(X, Y).
        tc(X, Z) :- edge(X, Y), tc(Y, Z).
        @output("tc").
    "#,
    );
    let mut db = Database::new();
    let prog = parse_program(&src, db.symbols()).unwrap();
    let stats = evaluate(&prog, &mut db, &EvalOptions::default()).unwrap();
    assert!(stats.probes > 0, "join probes are counted");
    assert_eq!(stats.rules.len(), prog.rules.len());

    // Per-rule timings: the recursive rule ran jobs and derived rows.
    let recursive = &stats.rules[1];
    assert!(recursive.jobs >= 2, "one job per semi-naive round at least");
    assert!(recursive.derived > 0);
    assert!(recursive.elapsed > Duration::ZERO);
    assert_eq!(
        stats.rules.iter().map(|r| r.probes).sum::<u64>(),
        stats.probes
    );
    // Per-round delta sizes: round 0 is the naive pass; later rounds
    // carry non-empty input deltas that eventually shrink to nothing.
    let stratum = stats
        .strata
        .iter()
        .find(|s| !s.rounds.is_empty() && s.rounds.len() > 2)
        .expect("recursive stratum has rounds");
    assert_eq!(stratum.rounds[0].round, 0);
    assert!(stratum.rounds[1].delta_rows > 0);
    // Round sums account for every rule-derived row (stats.derived
    // additionally counts the program's own facts, loaded before the
    // strata run).
    let total_derived: usize = stats
        .strata
        .iter()
        .flat_map(|s| &s.rounds)
        .map(|r| r.derived)
        .sum();
    assert_eq!(total_derived, stats.derived - prog.facts.len());
    let rounds = stats.strata.iter().flat_map(|s| &s.rounds);
    assert_eq!(rounds.filter(|r| r.round > 0).count(), stats.rounds);
}

#[test]
fn a_stratum_whose_delta_no_rule_reads_ends_without_a_round() {
    // The naive pass derives `p`; no rule reads `p`, so there is no
    // semi-naive round to run or count.
    let mut db = Database::new();
    let prog = parse_program("e(1). e(2). p(X) :- e(X). @output(\"p\").", db.symbols()).unwrap();
    let stats = evaluate(&prog, &mut db, &EvalOptions::default()).unwrap();
    assert_eq!(stats.rounds, 0);
    let record: Vec<Vec<usize>> = (stats.strata.iter())
        .map(|s| s.rounds.iter().map(|r| r.round).collect())
        .collect();
    assert_eq!(record, [[0]]);
    assert_eq!(output_strings(&db, "p").len(), 2);
}

#[test]
fn probes_of_an_absent_relation_build_nothing() {
    // Every probe of `edge` finds no relation: none is created, and no
    // index is built for it.
    let mut db = Database::new();
    let src = r#"
        tc(X, Y) :- edge(X, Y).
        tc(X, Z) :- edge(X, Y), tc(Y, Z).
        @output("tc").
    "#;
    let prog = parse_program(src, db.symbols()).unwrap();
    let stats = evaluate(&prog, &mut db, &EvalOptions::default()).unwrap();
    assert_eq!(stats.index_builds, 0);
    let edge = db.symbols().get("edge").unwrap();
    assert!(db.relation(edge).is_none(), "no relation was created");
    assert!(output_strings(&db, "tc").is_empty());
}

#[test]
fn fully_bound_atoms_are_membership_tests() {
    // Once `q(X)` binds X, `r(X)` is fully bound and `go(1)` is all
    // constants: both are probes of the dedup table, so neither relation
    // gains an index. `done(1) :- reach(5)` is an all-constant atom at a
    // delta occurrence, which still drives from its batch.
    let db = run(r#"
        q(1). q(2). q(3). r(2). r(3). go(1).
        e(1, 2). e(2, 5). e(5, 6).
        p(X) :- q(X), r(X), go(1).
        reach(X) :- q(X), go(1).
        reach(Y) :- reach(X), e(X, Y).
        done(1) :- reach(5).
        @output("p").
        @output("done").
    "#);
    let mut out = output_strings(&db, "p");
    out.sort();
    assert_eq!(out, [["2"], ["3"]]);
    assert_eq!(output_strings(&db, "done"), [["1"]]);
    for pred in ["r", "go"] {
        let rel = db.relation(db.symbols().get(pred).unwrap()).unwrap();
        assert_eq!(
            rel.index_masks(),
            Vec::<u64>::new(),
            "{pred} gained an index"
        );
    }
}

#[test]
fn atoms_binding_only_unread_variables_stop_at_the_first_match() {
    // `r(X, Y)` binds only Y, which neither the head nor a later atom
    // reads: one match per X decides the row, so `p` stages one row, not
    // one per `r` row. An aggregate counts matches and keeps them all.
    let mut src = String::from("q(1). q(2).\n");
    for y in 0..100 {
        src.push_str(&format!("r(1, {y}).\n"));
    }
    src.push_str("p(X) :- q(X), r(X, Y).\n");
    src.push_str("n(X, C) :- q(X), r(X, Y), C = count().\n@output(\"p\").\n@output(\"n\").\n");
    let mut db = Database::new();
    let prog = parse_program(&src, db.symbols()).unwrap();
    let options = EvalOptions::default();
    let stats = evaluate(&prog, &mut db, &options).unwrap();
    assert_eq!(output_strings(&db, "p"), [["1"]]);
    assert_eq!(output_strings(&db, "n"), [["1", "100"]]);
    assert_eq!(stats.staged, 2, "one row of p, one of n");

    // A full-scan source: `r(Z, W)` shares nothing with `q(X)`, so the
    // whole relation is its source, and its first row decides.
    let mut src = String::from("q(1). q(2).\n");
    for y in 0..100 {
        src.push_str(&format!("r(1, {y}).\n"));
    }
    src.push_str("e(X) :- q(X), r(Z, W).\n@output(\"e\").\n");
    let mut db = Database::new();
    let prog = parse_program(&src, db.symbols()).unwrap();
    let stats = evaluate(&prog, &mut db, &options).unwrap();
    assert_eq!(output_strings(&db, "e").len(), 2);
    assert_eq!(stats.staged, 2, "one row per q row, not 2 x 100");

    // A delta-driven source: `flag` shares the stratum of the recursive
    // `tc` and reads none of its variables, so each round's `tc` delta
    // stages one row of `flag`, not one per delta row. Over a 20-edge
    // chain `tc` grows in 20 rounds by 210 rows in all.
    let mut src = String::new();
    for i in 0..20 {
        src.push_str(&format!("edge({i}, {}).\n", i + 1));
    }
    src.push_str(
        "tc(X, Y) :- edge(X, Y).\n\
         tc(X, Z) :- tc(X, Y), edge(Y, Z).\n\
         flag(1) :- tc(A, B).\n\
         @output(\"flag\").\n",
    );
    let mut db = Database::new();
    let prog = parse_program(&src, db.symbols()).unwrap();
    let stats = evaluate(&prog, &mut db, &options).unwrap();
    assert_eq!(output_strings(&db, "flag"), [["1"]]);
    let tc = db.symbols().get("tc").unwrap();
    assert_eq!(db.relation(tc).unwrap().len(), 210);
    // `flag` is the program's third rule.
    assert_eq!(stats.rules[2].staged, 20, "one row per round");
}

#[test]
fn compat_check_after_a_non_null_widen_costs_no_probe() {
    // OPTIONAL's join shape (Def. A.7): the plan is `scan l`, `compat
    // widen`, `scan r`, `compat check`. Join probes count one tick per
    // step entered: 1 for the first scan, 3 for the widen steps (one per
    // `l` row), 5 for the `r` scans (x1 and x2 widen to {A, null}, x3's
    // null A leaves B free), 8 for the check steps (x1: a·z1, a·z2,
    // null·z3; x2: null·z3; x3: all four `r` rows) and 8 for the
    // emissions they pass on — 25. Where the widen step saw a non-null A
    // (x1's three environments and x2's one) it already bound a row of
    // `comp`, so those four checks pass their environment on within the
    // same tick: 25 - 4 = 21.
    let mut db = Database::new();
    let prog = parse_program(
        r#"
        l("x1", "a"). l("x2", "b"). l("x3", null).
        r("a", "z1"). r("a", "z2"). r(null, "z3"). r("c", "z4").
        o(X, Y) :- l(X, A), compat(A, B, Y), r(B, Z).
        @output("o").
    "#,
        db.symbols(),
    )
    .unwrap();
    let stats = evaluate(&prog, &mut db, &EvalOptions::default()).unwrap();
    assert_eq!(stats.rules[0].probes, 21);
    let mut rows: Vec<String> = output_strings(&db, "o")
        .into_iter()
        .map(|t| t.join(" "))
        .collect();
    rows.sort();
    assert_eq!(
        rows,
        vec![
            "\"x1\" \"a\"",
            "\"x2\" \"b\"",
            "\"x3\" \"a\"",
            "\"x3\" \"c\"",
            "\"x3\" null"
        ]
    );
}
