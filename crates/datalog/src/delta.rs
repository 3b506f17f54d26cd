//! Incremental maintenance of a materialised database over encoded rows:
//! [`extend`] for insertions, [`retract`] (DRed) for deletions.
//!
//! Both keep a database at fixpoint under its program as its base facts
//! change, in time proportional to what the change touches. They are the
//! store's commit path: the T_D auxiliary predicates and the ontology
//! entailments are plain positive rules over the loaded facts.
//!
//! Both run on the evaluator's own semi-naive loop *seeded* with the
//! rows that changed: no naive pass, so a run derives the seed's
//! consequences and nothing else. **Insertions** seed it with exactly the
//! rows the caller inserted that were new.
//!
//! **Deletions** are classic DRed (Gupta, Mumick & Subrahmanian, SIGMOD
//! 1993) written as two Program → Program rewrites, each run seeded on
//! the database itself. Every predicate `p` gets a candidate relation
//! `p__dred`, dropped again before [`retract`] returns.
//!
//! 1. **Overdelete.** One rule per positive body occurrence: occurrence
//!    `j` of `h :- b1, …, bn` reads `bj__dred`, the other atoms read the
//!    unmodified relations, and the head writes `h__dred`. Seeded with the
//!    deleted rows that are present and not externally supported, the run
//!    is the forward closure of "might have depended on a deleted fact";
//!    it deliberately overshoots.
//! 2. **Remove** every candidate (`Relation::remove_rows`: swap-remove,
//!    with dedup tables and built indexes patched per row).
//! 3. **Re-derive.** Every rule whose head has candidates, with
//!    `h__dred(head args)` prepended, seeded with the candidates: a
//!    candidate the remaining facts still derive goes back into `h`, and
//!    the run's later rounds let it support other candidates — DRed's
//!    iterative re-derivation. Candidates that are still externally
//!    supported are re-inserted first and seeded under `h` itself.
//!
//! Existential rules (the ontology's ∃-generators) need no bookkeeping of
//! their own: before either rewrite, each existential head variable `Z`
//! of rule `i` becomes a body assignment `Z = [functor|frontier]` under
//! the functor the evaluator minted its null with
//! (`plan::skolem_functors`). A rewritten copy therefore recomputes that
//! exact null or, where the candidate already binds `Z`, checks it — a
//! row created by a different rule over the same predicate is never
//! touched by accident. The evaluator bounds such assignments by the
//! Skolem depth as it bounds the nulls it invents, so the overdelete and
//! re-derive runs stop on a cyclic existential where the chase stopped.
//!
//! Both halves take the same programs: positive, non-aggregate rules —
//! exactly the shape of the T_D base program and the ontology
//! compilation. Anything else (negation, conditions, assignments,
//! aggregates) is refused with
//! [`MaintainError::Unsupported`] before the database is touched;
//! maintenance under non-monotone rules is a different algorithm, not a
//! missing `match` arm.

use crate::database::{Database, RowBatch};
use crate::eval::{execute, EvalError, EvalOptions, EvalStats};
use crate::expr::Expr;
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::plan::skolem_functors;
use crate::rule::{Atom, BodyItem, Program, Rule};
use crate::symbols::{Sym, SymbolTable};
use crate::value::TermId;

/// An encoded fact row.
pub type Row = Vec<TermId>;

/// Why a change could not be maintained incrementally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MaintainError {
    /// The program contains a construct the maintainer does not handle
    /// (negation, filters, assignments or aggregates). The database is
    /// untouched.
    Unsupported(String),
    /// A seeded evaluation of [`extend`] or [`retract`] failed: its
    /// budget aborted it, or a job panicked.
    Eval(EvalError),
}

impl std::fmt::Display for MaintainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MaintainError::Unsupported(what) => {
                write!(f, "incremental maintenance unsupported: {what}")
            }
            MaintainError::Eval(e) => write!(f, "incremental maintenance failed: {e}"),
        }
    }
}

impl std::error::Error for MaintainError {}

/// The outcome of one [`retract`] pass.
#[derive(Debug, Default)]
pub struct Retraction {
    /// Rows removed, per predicate: the candidates that did not
    /// re-derive, the explicitly deleted rows that were present included.
    pub removed: FxHashMap<Sym, Vec<Row>>,
    /// Rows the overdelete and re-derive runs staged before dedup — the
    /// removal's maintenance work.
    pub staged: usize,
}

impl Retraction {
    /// Total rows removed across all predicates.
    pub fn removed_rows(&self) -> usize {
        self.removed.values().map(Vec::len).sum()
    }
}

/// The precondition both halves of maintenance share: a positive program
/// — no negated atom, condition, assignment, compatibility item or
/// aggregate.
fn check_maintainable(program: &Program) -> Result<(), MaintainError> {
    let unsupported = |what: &str| Err(MaintainError::Unsupported(what.into()));
    for rule in &program.rules {
        if rule.aggregate.is_some() {
            return unsupported("aggregate rule");
        }
        for item in &rule.body {
            match item {
                BodyItem::Pos(_) => {}
                BodyItem::Neg(_) => return unsupported("negated atom"),
                BodyItem::Cond(_) => return unsupported("filter condition"),
                BodyItem::Assign(..) => return unsupported("assignment"),
                BodyItem::Compat(_) => return unsupported("compatibility item"),
            }
        }
    }
    Ok(())
}

/// Runs `program` on `db` seeded with `seed`.
fn run_seeded(
    program: &Program,
    db: &mut Database,
    seed: FxHashMap<Sym, RowBatch>,
    options: &EvalOptions,
) -> Result<EvalStats, MaintainError> {
    execute(program, db, options, None, Some(seed)).map_err(MaintainError::Eval)
}

/// A copy of rule `i` with every existential head variable assigned, in
/// the body, the Skolem term the evaluator mints for it. Rule indices
/// name the functors, so `i` must index the program the database was
/// materialised with. The assignments go last: body positions stay valid.
fn skolemised(i: usize, rule: &Rule, symbols: &SymbolTable) -> Rule {
    let mut copy = rule.clone();
    let functors = skolem_functors(i, rule, symbols);
    if !functors.is_empty() {
        let frontier: Vec<Expr> = rule.frontier_vars().into_iter().map(Expr::Var).collect();
        for (z, functor) in functors {
            copy.body
                .push(BodyItem::Assign(z, Expr::Skolem(functor, frontier.clone())));
        }
    }
    copy
}

/// Retracts `deleted` rows from `db` and incrementally maintains every
/// relation `program` derives, in time proportional to the affected
/// fact set.
///
/// * `program` must be the program `db` was materialised with (same
///   rules, same order — Skolem identities depend on rule indices).
/// * `deleted` maps predicates to the rows being retracted at the EDB
///   level; rows not present are ignored.
/// * `externally_supported(pred, row)` reports rows that keep
///   independent, non-rule support after the deletion (the store passes
///   its post-deletion *asserted* set here). Such rows are never
///   removed.
/// * `options` govern both seeded runs, as for [`extend`].
///
/// On success every relation has lost exactly its net casualties; the
/// returned [`Retraction`] lists them. On [`MaintainError::Unsupported`]
/// the database is untouched; on [`MaintainError::Eval`] it holds a
/// partial retraction.
pub fn retract(
    program: &Program,
    db: &mut Database,
    deleted: &FxHashMap<Sym, RowBatch>,
    externally_supported: &dyn Fn(Sym, &[TermId]) -> bool,
    options: &EvalOptions,
) -> Result<Retraction, MaintainError> {
    check_maintainable(program)?;
    // The candidate relation of every predicate a rule or the deletion
    // names.
    let symbols = db.symbols().clone();
    let mut dred: FxHashMap<Sym, Sym> = FxHashMap::default();
    let atoms = program.rules.iter().flat_map(|rule| {
        let body = rule.body.iter().filter_map(|item| match item {
            BodyItem::Pos(a) => Some(a.pred),
            _ => None,
        });
        body.chain([rule.head.pred])
    });
    for pred in atoms.chain(deleted.keys().copied()) {
        dred.entry(pred)
            .or_insert_with(|| symbols.intern(&format!("{}__dred", symbols.resolve(pred))));
    }
    let outcome =
        overdelete_and_rederive(program, db, deleted, externally_supported, options, &dred);
    for candidates in dred.values() {
        db.relations.remove(candidates);
    }
    outcome
}

/// The three DRed steps of [`retract`], `dred` naming each predicate's
/// candidate relation.
fn overdelete_and_rederive(
    program: &Program,
    db: &mut Database,
    deleted: &FxHashMap<Sym, RowBatch>,
    externally_supported: &dyn Fn(Sym, &[TermId]) -> bool,
    options: &EvalOptions,
    dred: &FxHashMap<Sym, Sym>,
) -> Result<Retraction, MaintainError> {
    let symbols = db.symbols().clone();

    // --- Overdelete: against the unmodified relations -----------------
    let mut seed: FxHashMap<Sym, RowBatch> = FxHashMap::default();
    for (&pred, batch) in deleted {
        for row in batch.iter() {
            let present = db.relation(pred).is_some_and(|r| r.contains(row));
            if present
                && !externally_supported(pred, row)
                && db.relation_mut(dred[&pred]).insert(row)
            {
                stage_row(&mut seed, dred[&pred], row);
            }
        }
    }
    let mut overdelete = Program::new();
    for (i, rule) in program.rules.iter().enumerate() {
        for (j, item) in rule.body.iter().enumerate() {
            let BodyItem::Pos(a) = item else { continue };
            let mut copy = skolemised(i, rule, &symbols);
            copy.head.pred = dred[&rule.head.pred];
            copy.body[j] = BodyItem::Pos(Atom::new(dred[&a.pred], a.args.clone()));
            overdelete.rules.push(copy);
        }
    }
    let mut staged = run_seeded(&overdelete, db, seed, options)?.staged;

    // --- Remove every candidate ----------------------------------------
    let mut candidates: Vec<(Sym, FxHashSet<Row>)> = Vec::new();
    for (&pred, candidate_pred) in dred {
        let Some(rel) = db.relation(*candidate_pred).filter(|r| !r.is_empty()) else {
            continue;
        };
        let rows: FxHashSet<Row> = rel.iter().map(<[TermId]>::to_vec).collect();
        db.relation_mut(pred).remove_rows(&rows);
        candidates.push((pred, rows));
    }

    // --- Re-derive: the rules of candidate heads, guarded by them ------
    let mut seed: FxHashMap<Sym, RowBatch> = FxHashMap::default();
    for (pred, rows) in &candidates {
        for row in rows {
            stage_row(&mut seed, dred[pred], row);
            if externally_supported(*pred, row) {
                db.relation_mut(*pred).insert(row);
                stage_row(&mut seed, *pred, row);
            }
        }
    }
    let heads: FxHashSet<Sym> = candidates.iter().map(|(pred, _)| *pred).collect();
    let mut rederive = Program::new();
    for (i, rule) in program.rules.iter().enumerate() {
        if heads.contains(&rule.head.pred) {
            let guard = Atom::new(dred[&rule.head.pred], rule.head.args.clone());
            let mut copy = skolemised(i, rule, &symbols);
            copy.body.insert(0, BodyItem::Pos(guard));
            rederive.rules.push(copy);
        }
    }
    staged += run_seeded(&rederive, db, seed, options)?.staged;

    let removed = candidates
        .into_iter()
        .filter_map(|(pred, rows)| {
            let rel = db.relation(pred);
            let gone: Vec<Row> = rows
                .into_iter()
                .filter(|row| !rel.is_some_and(|r| r.contains(row)))
                .collect();
            (!gone.is_empty()).then_some((pred, gone))
        })
        .collect();
    Ok(Retraction { removed, staged })
}

/// Derives every consequence of rows the caller just inserted into `db`,
/// in time proportional to those consequences — the insertion half of
/// maintenance, beside [`retract`].
///
/// * `program` must be the program `db` is at fixpoint under (same
///   rules, same order — Skolem identities depend on rule indices).
/// * `inserted` maps predicates to exactly the inserted rows that were
///   *not* present before (new program facts the run finds itself).
///
/// On [`MaintainError::Unsupported`] the database is untouched; on
/// [`MaintainError::Eval`] it holds a partial extension.
pub fn extend(
    program: &Program,
    db: &mut Database,
    inserted: FxHashMap<Sym, RowBatch>,
    options: &EvalOptions,
) -> Result<EvalStats, MaintainError> {
    check_maintainable(program)?;
    run_seeded(program, db, inserted, options)
}

/// Convenience for callers staging rows one by one — the `deleted` map of
/// [`retract`], the `inserted` map of [`extend`]: appends `row` to
/// `pred`'s [`RowBatch`] in `rows`.
pub fn stage_row(rows: &mut FxHashMap<Sym, RowBatch>, pred: Sym, row: &[TermId]) {
    rows.entry(pred)
        .or_insert_with(|| RowBatch::new(row.len()))
        .push_row(row);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{evaluate, EvalOptions};
    use crate::parser::parse_program;
    use crate::value::Const;

    /// `edges` loaded and materialised under `src`. `share` lends its
    /// symbol table and dictionary, so encoded rows — Skolem ids included
    /// — compare across the two databases.
    fn materialise(
        src: &str,
        edges: &[(i64, i64)],
        share: Option<&Database>,
    ) -> (Database, Program) {
        let mut db = match share {
            Some(d) => Database {
                symbols: d.symbols.clone(),
                dict: d.dict.clone(),
                relations: FxHashMap::default(),
                base: None,
            },
            None => Database::new(),
        };
        let e = db.symbols().intern("edge");
        let rows: Vec<Vec<Const>> = edges
            .iter()
            .map(|&(a, b)| vec![Const::Int(a), Const::Int(b)])
            .collect();
        db.load_rows(e, &rows);
        let prog = parse_program(src, db.symbols()).unwrap();
        evaluate(&prog, &mut db, &EvalOptions::default()).unwrap();
        (db, prog)
    }

    fn edge(db: &Database, (a, b): (i64, i64)) -> [TermId; 2] {
        [
            db.dict().encode(&Const::Int(a)),
            db.dict().encode(&Const::Int(b)),
        ]
    }

    /// Relation by relation (as sorted row sets), `db` equals `fresh`.
    fn assert_same_relations(db: &Database, fresh: &Database, what: &str) {
        let preds: FxHashSet<Sym> = db
            .relations()
            .map(|(p, _)| p)
            .chain(fresh.relations().map(|(p, _)| p))
            .collect();
        for p in preds {
            let dump = |d: &Database| -> Vec<Row> {
                let mut v: Vec<Row> = d
                    .relation(p)
                    .map(|r| r.iter().map(<[TermId]>::to_vec).collect())
                    .unwrap_or_default();
                v.sort();
                v
            };
            assert_eq!(
                dump(db),
                dump(fresh),
                "relation {} diverged after {what}",
                db.symbols().resolve(p)
            );
        }
    }

    /// Materialises `src` over `edges`, deletes `gone`, and checks the
    /// maintained database equals a from-scratch rebuild.
    fn check_against_rebuild(src: &str, edges: &[(i64, i64)], gone: &[(i64, i64)]) {
        let (mut db, prog) = materialise(src, edges, None);
        let e = db.symbols().intern("edge");
        let mut deleted: FxHashMap<Sym, RowBatch> = FxHashMap::default();
        for &pair in gone {
            stage_row(&mut deleted, e, &edge(&db, pair));
        }
        retract(
            &prog,
            &mut db,
            &deleted,
            &|_, _| false,
            &EvalOptions::default(),
        )
        .unwrap();
        let survivors: Vec<(i64, i64)> = edges
            .iter()
            .filter(|p| !gone.contains(p))
            .copied()
            .collect();
        let (fresh, _) = materialise(src, &survivors, Some(&db));
        assert_same_relations(&db, &fresh, "retract");
    }

    /// Materialises `src` over `edges`, inserts `added` and extends from
    /// the rows that were new, and checks the result equals a
    /// from-scratch materialisation of both. Returns the run's stats.
    fn check_extend_against_rebuild(
        src: &str,
        edges: &[(i64, i64)],
        added: &[(i64, i64)],
    ) -> EvalStats {
        let (mut db, prog) = materialise(src, edges, None);
        let e = db.symbols().intern("edge");
        let mut inserted: FxHashMap<Sym, RowBatch> = FxHashMap::default();
        for &pair in added {
            let row = edge(&db, pair);
            if db.relation_mut(e).insert(&row) {
                stage_row(&mut inserted, e, &row);
            }
        }
        let stats = extend(&prog, &mut db, inserted, &EvalOptions::default()).unwrap();
        let all: Vec<(i64, i64)> = edges.iter().chain(added).copied().collect();
        let (fresh, _) = materialise(src, &all, Some(&db));
        assert_same_relations(&db, &fresh, "extend");
        stats
    }

    const TC: &str = "tc(X, Y) :- edge(X, Y).\ntc(X, Z) :- edge(X, Y), tc(Y, Z).\n";

    #[test]
    fn extend_closes_recursion_and_its_consumers() {
        // Joining two chains derives new closure pairs across both, and a
        // rule over the closure sees its new rows.
        let src = format!("{TC}from1(Y) :- tc(1, Y).\n");
        let stats = check_extend_against_rebuild(
            &src,
            &[(1, 2), (2, 3), (10, 11), (11, 12)],
            &[(3, 10), (1, 2)],
        );
        assert!(stats.derived > 0);
        // Nothing inserted, nothing staged.
        let stats = check_extend_against_rebuild(&src, &[(1, 2), (2, 3)], &[(1, 2)]);
        assert_eq!((stats.staged, stats.derived), (0, 0));
    }

    #[test]
    fn extend_costs_the_consequences_not_the_store() {
        // A disconnected edge stages the same rows behind a 20-edge chain
        // as behind a 400-edge one.
        let staged = |n: i64| {
            let chain: Vec<(i64, i64)> = (0..n).map(|i| (i, i + 1)).collect();
            check_extend_against_rebuild(TC, &chain, &[(-1, -2)]).staged
        };
        assert_eq!(staged(20), staged(400));
    }

    #[test]
    fn extend_mints_the_nulls_retract_recomputes() {
        let src = "gen(X, Z) :- edge(X, Y).\nhas(Z, X) :- gen(X, Z).\n";
        check_extend_against_rebuild(src, &[(1, 2)], &[(3, 4), (1, 5)]);
        // Extend, then retract the same rows: back to the start.
        let (mut db, prog) = materialise(src, &[(1, 2)], None);
        let before = materialise(src, &[(1, 2)], Some(&db)).0;
        let e = db.symbols().intern("edge");
        let mut rows: FxHashMap<Sym, RowBatch> = FxHashMap::default();
        for pair in [(3, 4), (5, 6)] {
            let row = edge(&db, pair);
            db.relation_mut(e).insert(&row);
            stage_row(&mut rows, e, &row);
        }
        extend(&prog, &mut db, rows.clone(), &EvalOptions::default()).unwrap();
        retract(
            &prog,
            &mut db,
            &rows,
            &|_, _| false,
            &EvalOptions::default(),
        )
        .unwrap();
        assert_same_relations(&db, &before, "extend + retract");
    }

    #[test]
    fn non_recursive_projection_is_maintained() {
        check_against_rebuild(
            "src(X) :- edge(X, Y).\ndst(Y) :- edge(X, Y).\n",
            &[(1, 2), (1, 3), (2, 3)],
            &[(1, 2)],
        );
        // src(1) survives via (1,3); dst(2) dies; dst(3) survives twice.
    }

    #[test]
    fn recursive_closure_is_maintained() {
        // A chain plus a shortcut: deleting the shortcut must keep the
        // reachability facts the chain still supports.
        check_against_rebuild(TC, &[(1, 2), (2, 3), (3, 4), (1, 3)], &[(1, 3)]);
        // And deleting a chain link cuts everything downstream of it.
        check_against_rebuild(TC, &[(1, 2), (2, 3), (3, 4), (1, 3)], &[(2, 3)]);
    }

    #[test]
    fn cycles_do_not_rederive_themselves() {
        // The classic DRed trap: a 3-cycle's closure facts all support
        // each other; deleting one edge must not let the orphaned loop
        // re-derive itself from its own corpse.
        check_against_rebuild(TC, &[(1, 2), (2, 3), (3, 1)], &[(3, 1)]);
    }

    #[test]
    fn externally_supported_rows_stop_propagation() {
        let mut db = Database::new();
        let e = db.symbols().intern("edge");
        db.load_rows(
            e,
            &[
                vec![Const::Int(1), Const::Int(2)],
                vec![Const::Int(2), Const::Int(3)],
            ],
        );
        let prog = parse_program("hop(X, Z) :- edge(X, Y), edge(Y, Z).\n", db.symbols()).unwrap();
        evaluate(&prog, &mut db, &EvalOptions::default()).unwrap();
        let hop = db.symbols().get("hop").unwrap();
        assert_eq!(db.relation(hop).unwrap().len(), 1);

        // Delete edge(1,2) but declare hop(1,3) externally supported:
        // the edge goes, the hop stays.
        let row = [
            db.dict().encode(&Const::Int(1)),
            db.dict().encode(&Const::Int(2)),
        ];
        let mut deleted: FxHashMap<Sym, RowBatch> = FxHashMap::default();
        stage_row(&mut deleted, e, &row);
        let outcome = retract(
            &prog,
            &mut db,
            &deleted,
            &|pred, _| pred == hop,
            &EvalOptions::default(),
        )
        .unwrap();
        assert_eq!(db.relation(e).unwrap().len(), 1);
        assert_eq!(db.relation(hop).unwrap().len(), 1);
        assert_eq!(outcome.removed_rows(), 1);
    }

    #[test]
    fn existential_heads_are_retracted_exactly() {
        // Two ∃-rules over the same head predicate, as the ontology
        // compiler emits for two SomeValuesFrom axioms on one property:
        // deleting one trigger retracts only that rule's Skolem row.
        let src = "gen(X, Z) :- a(X).\ngen(X, Z) :- b(X).\n";
        let mut db = Database::new();
        let (a, b) = (db.symbols().intern("a"), db.symbols().intern("b"));
        db.load_rows(a, &[vec![Const::Int(7)]]);
        db.load_rows(b, &[vec![Const::Int(7)]]);
        let prog = parse_program(src, db.symbols()).unwrap();
        evaluate(&prog, &mut db, &EvalOptions::default()).unwrap();
        let gen = db.symbols().get("gen").unwrap();
        assert_eq!(db.relation(gen).unwrap().len(), 2, "one Skolem per rule");

        let row = [db.dict().encode(&Const::Int(7))];
        let mut deleted: FxHashMap<Sym, RowBatch> = FxHashMap::default();
        stage_row(&mut deleted, a, &row);
        let outcome = retract(
            &prog,
            &mut db,
            &deleted,
            &|_, _| false,
            &EvalOptions::default(),
        )
        .unwrap();
        assert_eq!(
            db.relation(gen).unwrap().len(),
            1,
            "rule 0's null dies with a(7); rule 1's survives via b(7)"
        );
        assert_eq!(outcome.removed_rows(), 2); // a(7) + one gen row
        let _ = b;
    }

    #[test]
    fn unsupported_shapes_are_refused_and_leave_db_alone() {
        let mut db = Database::new();
        let e = db.symbols().intern("edge");
        db.load_rows(e, &[vec![Const::Int(1), Const::Int(2)]]);
        let prog =
            parse_program("lonely(X) :- edge(X, Y), not edge(Y, X).\n", db.symbols()).unwrap();
        evaluate(&prog, &mut db, &EvalOptions::default()).unwrap();
        let before = db.fact_count();
        let mut deleted: FxHashMap<Sym, RowBatch> = FxHashMap::default();
        stage_row(
            &mut deleted,
            e,
            &[
                db.dict().encode(&Const::Int(1)),
                db.dict().encode(&Const::Int(2)),
            ],
        );
        let err = retract(
            &prog,
            &mut db,
            &deleted,
            &|_, _| false,
            &EvalOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, MaintainError::Unsupported(_)));
        assert_eq!(db.fact_count(), before, "refusal leaves the db untouched");
        // The insertion half shares the precondition.
        let err = extend(&prog, &mut db, deleted, &EvalOptions::default()).unwrap_err();
        assert!(matches!(err, MaintainError::Unsupported(_)));
        assert_eq!(db.fact_count(), before);
    }

    #[test]
    fn deleting_absent_rows_is_a_noop() {
        let mut db = Database::new();
        let e = db.symbols().intern("edge");
        db.load_rows(e, &[vec![Const::Int(1), Const::Int(2)]]);
        let prog = parse_program("tc(X, Y) :- edge(X, Y).\n", db.symbols()).unwrap();
        evaluate(&prog, &mut db, &EvalOptions::default()).unwrap();
        let mut deleted: FxHashMap<Sym, RowBatch> = FxHashMap::default();
        stage_row(
            &mut deleted,
            e,
            &[
                db.dict().encode(&Const::Int(8)),
                db.dict().encode(&Const::Int(9)),
            ],
        );
        let outcome = retract(
            &prog,
            &mut db,
            &deleted,
            &|_, _| false,
            &EvalOptions::default(),
        )
        .unwrap();
        assert_eq!(outcome.removed_rows(), 0);
        assert_eq!(outcome.staged, 0);
        assert_eq!(db.fact_count(), 2); // edge(1,2) + tc(1,2), nothing lost
    }

    #[test]
    fn large_removal_matches_rebuild() {
        // 600 deleted edges seed both DRed runs with hundreds of rows.
        let edges: Vec<(i64, i64)> = (0..1600)
            .filter(|i| i % 4 != 3)
            .map(|i| (i, i + 1))
            .collect();
        let gone: Vec<(i64, i64)> = edges.iter().copied().step_by(2).take(600).collect();
        assert_eq!(gone.len(), 600);
        let src = format!("{TC}hop(X, Z) :- edge(X, Y), edge(Y, Z).\n");
        check_against_rebuild(&src, &edges, &gone);
    }

    /// Deterministic xorshift64*: the differential below must not depend
    /// on ambient randomness.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            (x.wrapping_mul(0x2545_F491_4F6C_DD1D) % n as u64) as usize
        }
    }

    #[test]
    fn random_retract_and_extend_sequences_match_rebuilds() {
        // Recursion, a body repeating a predicate (`hop`), two ∃-rules
        // sharing a head and a consumer of that derived predicate.
        let src = format!(
            "{TC}hop(X, Z) :- edge(X, Y), edge(Y, Z).\n\
             gen(X, Z) :- edge(X, Y).\n\
             gen(X, Z) :- hop(X, X).\n\
             has(Z, X) :- gen(X, Z).\n"
        );
        let mut rng = Rng(0xD8ED_5EED);
        for graph in 0..30 {
            let n = 2 + rng.below(9);
            let random_edge = |rng: &mut Rng| (rng.below(n) as i64, rng.below(n) as i64);
            let mut edges: Vec<(i64, i64)> = Vec::new();
            for _ in 0..rng.below(16) {
                let pair = random_edge(&mut rng);
                if !edges.contains(&pair) {
                    edges.push(pair);
                }
            }
            let (mut db, prog) = materialise(&src, &edges, None);
            let e = db.symbols().intern("edge");
            for step in 0..6 {
                let mut rows: FxHashMap<Sym, RowBatch> = FxHashMap::default();
                if step % 2 == 0 {
                    // Retract a random subset plus one edge that may be
                    // absent.
                    let mut gone: Vec<(i64, i64)> = edges
                        .iter()
                        .copied()
                        .filter(|_| rng.below(3) == 0)
                        .collect();
                    gone.push(random_edge(&mut rng));
                    for &pair in &gone {
                        stage_row(&mut rows, e, &edge(&db, pair));
                    }
                    retract(
                        &prog,
                        &mut db,
                        &rows,
                        &|_, _| false,
                        &EvalOptions::default(),
                    )
                    .unwrap();
                    edges.retain(|pair| !gone.contains(pair));
                } else {
                    for _ in 0..1 + rng.below(4) {
                        let pair = random_edge(&mut rng);
                        let row = edge(&db, pair);
                        if db.relation_mut(e).insert(&row) {
                            stage_row(&mut rows, e, &row);
                            edges.push(pair);
                        }
                    }
                    extend(&prog, &mut db, rows, &EvalOptions::default()).unwrap();
                }
                let (fresh, _) = materialise(&src, &edges, Some(&db));
                assert_same_relations(&db, &fresh, &format!("graph {graph}, step {step}"));
            }
        }
    }
}
