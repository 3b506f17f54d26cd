//! Incremental maintenance of a materialised database over encoded rows:
//! [`extend`] for insertions, [`retract`] (DRed delete/re-derive) for
//! deletions.
//!
//! Both keep a database at fixpoint under its program as its base facts
//! change, in time proportional to what the change touches. They are the
//! store's commit path: the T_D auxiliary predicates and the ontology
//! entailments are plain positive rules over the loaded facts.
//!
//! **Insertions** run the evaluator's own semi-naive loop *seeded* with
//! exactly the rows the caller inserted that were new: no naive pass, so
//! a monotone program derives the seed's consequences and nothing else.
//!
//! **Deletions** are the classic two-phase DRed, specialised to the
//! engine's dictionary-encoded rows:
//!
//! 1. **Overdelete** — starting from the explicitly deleted rows, every
//!    rule is run *backwards through its body*: a deleted fact matching a
//!    body atom has the remaining atoms joined against the (unmodified)
//!    database, and each resulting head row becomes a deletion candidate
//!    unless it is externally supported (still asserted). This is the
//!    semi-naive forward closure of "might have depended on a deleted
//!    fact"; it deliberately overshoots.
//! 2. **Re-derive** — each candidate is checked for an *alternative*
//!    derivation against the database *with the candidate set masked
//!    out* (a visibility filter; nothing is physically removed yet). A
//!    re-derived row becomes visible again and may re-support other
//!    candidates, so the phase iterates to a fixpoint (bounded by the
//!    candidate count). Only the rows that stay dead are then removed,
//!    by targeted swap-remove (`Relation::remove_rows`), which patches
//!    dedup tables and eager indexes per row — a relation whose
//!    casualties all re-derive is never rebuilt, and one that loses a
//!    handful of rows pays for the handful, not its size.
//!
//! Existential rules (the ontology's ∃-generators) need no special
//! bookkeeping: the evaluator Skolemises existential head variables
//! *deterministically* over the rule's frontier, with one functor naming
//! shared by both halves (`eval::skolem_functors`), so [`retract`]
//! recomputes — via [`TermDict::skolem`] — exactly the labelled null
//! [`extend`] or a full evaluation minted. A row created by a different
//! rule over the same predicate is never touched by accident.
//!
//! Both halves take the same programs: positive, non-aggregate rules and
//! no `@post` — exactly the shape of the T_D base program and the
//! ontology compilation. Anything else (negation, conditions,
//! assignments, aggregates, `@post`) is refused with
//! [`MaintainError::Unsupported`] before the database is touched;
//! maintenance under non-monotone rules is a different algorithm, not a
//! missing `match` arm.

use crate::database::{ColumnBatch, Database, Mask};
use crate::eval::{
    execute, skolem_functors, EvalError, EvalOptions, EvalStats, MIN_PARTITION_ROWS,
};
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::rule::{AtomArg, BodyItem, Program};
use crate::symbols::Sym;
use crate::value::{TermDict, TermId};

/// An encoded fact row.
pub type Row = Vec<TermId>;

/// Why a change could not be maintained incrementally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MaintainError {
    /// The program contains a construct the maintainer does not handle
    /// (negation, filters, assignments, aggregates or `@post`
    /// directives). The database is untouched.
    Unsupported(String),
    /// The forward evaluation of [`extend`] failed: its budget aborted
    /// it, or a worker panicked.
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
    /// Rows physically removed, per predicate — the net delta after
    /// re-derivation. Includes the explicitly deleted rows that were
    /// present (and stayed dead).
    pub removed: FxHashMap<Sym, Vec<Row>>,
    /// Deletion candidates marked by the overdelete phase (including the
    /// explicit seeds).
    pub overdeleted: usize,
    /// Candidates that survived via an alternative derivation and were
    /// kept in place.
    pub rederived: usize,
}

impl Retraction {
    /// Total rows physically removed across all predicates.
    pub fn removed_rows(&self) -> usize {
        self.removed.values().map(Vec::len).sum()
    }
}

/// A body atom with its constants pre-encoded to [`TermId`]s.
struct EncAtom {
    pred: Sym,
    args: Vec<EncArg>,
}

#[derive(Clone, Copy)]
enum EncArg {
    Var(u32),
    Id(TermId),
}

/// A rule compiled for maintenance: encoded head/body plus the Skolem
/// recipe for its existential head variables (the evaluator's, see
/// `eval::skolem_functors`).
struct EncRule {
    head: EncAtom,
    body: Vec<EncAtom>,
    nvars: usize,
    /// `(var, functor)` per existential head variable.
    existentials: Vec<(u32, Sym)>,
    /// Frontier variables, in Skolem-argument order.
    frontier: Vec<u32>,
}

fn encode_atom(pred: Sym, args: &[AtomArg], dict: &TermDict) -> EncAtom {
    EncAtom {
        pred,
        args: args
            .iter()
            .map(|a| match a {
                AtomArg::Var(v) => EncArg::Var(*v),
                AtomArg::Const(c) => EncArg::Id(dict.encode(c)),
            })
            .collect(),
    }
}

/// The precondition both halves of maintenance share: a positive program
/// — no negated atom, condition, assignment, aggregate or `@post`
/// directive.
fn check_maintainable(program: &Program) -> Result<(), MaintainError> {
    let unsupported = |what: &str| Err(MaintainError::Unsupported(what.into()));
    if !program.post.is_empty() {
        return unsupported("@post directives reshape relations after the fixpoint");
    }
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
            }
        }
    }
    Ok(())
}

/// Compiles a [`check_maintainable`] program for [`retract`]; its Skolem
/// terms match the evaluator's only for the program the database was
/// materialised with, rule order included.
fn compile(program: &Program, db: &Database) -> Vec<EncRule> {
    let symbols = db.symbols();
    let dict = db.dict();
    program
        .rules
        .iter()
        .enumerate()
        .map(|(rule_idx, rule)| EncRule {
            head: encode_atom(rule.head.pred, &rule.head.args, dict),
            body: rule
                .body
                .iter()
                .filter_map(|item| match item {
                    BodyItem::Pos(a) => Some(encode_atom(a.pred, &a.args, dict)),
                    _ => None,
                })
                .collect(),
            nvars: rule.var_names.len(),
            existentials: skolem_functors(rule_idx, rule, symbols),
            frontier: rule.frontier_vars(),
        })
        .collect()
}

/// Binds `atom`'s variables against `row`. Returns `false` on a constant
/// mismatch or an inconsistent repeated variable.
fn unify(atom: &EncAtom, row: &[TermId], env: &mut [Option<TermId>]) -> bool {
    debug_assert_eq!(atom.args.len(), row.len());
    for (arg, &id) in atom.args.iter().zip(row) {
        match arg {
            EncArg::Id(c) => {
                if *c != id {
                    return false;
                }
            }
            EncArg::Var(v) => match env[*v as usize] {
                Some(bound) if bound != id => return false,
                Some(_) => {}
                None => env[*v as usize] = Some(id),
            },
        }
    }
    true
}

/// Enumerates every binding of `atoms` (skipping index `skip`) consistent
/// with `env` against `db`, invoking `found` per complete binding.
/// Returns early once `found` returns `false` (existence checks).
/// Rows masked out of the database during the re-derive phase: the
/// still-overdeleted candidates. Joins treat them as absent without any
/// physical removal having happened yet.
type Hidden = FxHashMap<Sym, FxHashSet<Row>>;

fn is_hidden(hidden: &Hidden, pred: Sym, row: &[TermId]) -> bool {
    hidden.get(&pred).is_some_and(|set| set.contains(row))
}

fn join(
    atoms: &[EncAtom],
    skip: Option<usize>,
    env: &mut [Option<TermId>],
    db: &Database,
    hidden: &Hidden,
    found: &mut dyn FnMut(&mut [Option<TermId>]) -> bool,
) -> bool {
    // Atoms are solved in body order (bodies here are 1–2 atoms; a
    // join-order search would cost more than it saves).
    join_from(atoms, skip, 0, env, db, hidden, found)
}

fn join_from(
    atoms: &[EncAtom],
    skip: Option<usize>,
    next: usize,
    env: &mut [Option<TermId>],
    db: &Database,
    hidden: &Hidden,
    found: &mut dyn FnMut(&mut [Option<TermId>]) -> bool,
) -> bool {
    let Some(i) = (next..atoms.len()).find(|&i| Some(i) != skip) else {
        return found(env);
    };
    let atom = &atoms[i];
    let Some(rel) = db.relation(atom.pred) else {
        return true; // empty relation: no matches, keep enumerating peers
    };
    // Bound positions become the probe key; unbound variables are filled
    // from each match (verified for repeated-variable consistency by
    // `unify`).
    let mut mask: Mask = 0;
    let mut key: Vec<TermId> = Vec::new();
    let mut all_bound = true;
    for (pos, arg) in atom.args.iter().enumerate() {
        match arg {
            EncArg::Id(c) => {
                mask |= 1 << pos;
                key.push(*c);
            }
            EncArg::Var(v) => match env[*v as usize] {
                Some(id) => {
                    mask |= 1 << pos;
                    key.push(id);
                }
                None => all_bound = false,
            },
        }
    }
    if all_bound {
        // `key` is the full row in position order when every position is
        // bound, so the hidden check probes with it directly.
        if !rel.contains(&key) || is_hidden(hidden, atom.pred, &key) {
            return true;
        }
        return join_from(atoms, skip, i + 1, env, db, hidden, found);
    }
    let matches: Vec<u32> = if mask == 0 {
        (0..rel.len() as u32).collect()
    } else {
        rel.lookup(mask, &key).to_vec()
    };
    let saved: Vec<Option<TermId>> = env.to_vec();
    for m in matches {
        let row = rel.row(m).to_vec();
        if is_hidden(hidden, atom.pred, &row) {
            continue;
        }
        env.copy_from_slice(&saved);
        if !unify(atom, &row, env) {
            continue;
        }
        if !join_from(atoms, skip, i + 1, env, db, hidden, found) {
            return false;
        }
    }
    env.copy_from_slice(&saved);
    true
}

/// Instantiates `rule`'s head under `env`, Skolemising existential
/// variables over the frontier. Returns `None` if a head variable is
/// unbound (cannot happen for safe rules).
fn head_row(rule: &EncRule, env: &[Option<TermId>], dict: &TermDict) -> Option<Row> {
    let mut ex_values: FxHashMap<u32, TermId> = FxHashMap::default();
    if !rule.existentials.is_empty() {
        let frontier: Vec<TermId> = rule
            .frontier
            .iter()
            .map(|&v| env[v as usize])
            .collect::<Option<_>>()?;
        for (v, functor) in &rule.existentials {
            ex_values.insert(*v, dict.skolem(*functor, &frontier));
        }
    }
    rule.head
        .args
        .iter()
        .map(|arg| match arg {
            EncArg::Id(c) => Some(*c),
            EncArg::Var(v) => env[*v as usize].or_else(|| ex_values.get(v).copied()),
        })
        .collect()
}

/// Checks whether `row` (a fact of `rule`'s head predicate) has a
/// derivation through `rule` in `db` with the `hidden` rows masked out:
/// head unification binds the frontier, the Skolem identity of
/// existential positions is verified, and the body is joined for
/// existence over the visible facts only.
fn rederivable_via(
    rule: &EncRule,
    row: &[TermId],
    db: &Database,
    hidden: &Hidden,
    dict: &TermDict,
) -> bool {
    if rule.head.args.len() != row.len() {
        return false;
    }
    let mut env: Vec<Option<TermId>> = vec![None; rule.nvars];
    // Bind non-existential head positions; remember existential values
    // for the identity check below.
    for (arg, &id) in rule.head.args.iter().zip(row) {
        match arg {
            EncArg::Id(c) => {
                if *c != id {
                    return false;
                }
            }
            EncArg::Var(v) => match env[*v as usize] {
                Some(bound) if bound != id => return false,
                Some(_) => {}
                None => env[*v as usize] = Some(id),
            },
        }
    }
    // An existential position must carry exactly the Skolem term this
    // rule would mint over its frontier (all frontier variables are head
    // variables, so they are bound by now).
    for (v, functor) in &rule.existentials {
        let Some(frontier) = rule
            .frontier
            .iter()
            .map(|&fv| env[fv as usize])
            .collect::<Option<Vec<_>>>()
        else {
            return false;
        };
        match env[*v as usize] {
            Some(actual) if actual == dict.skolem(*functor, &frontier) => {}
            _ => return false,
        }
    }
    // Clear existential bindings for the body join: they do not occur in
    // the body by definition.
    for (v, _) in &rule.existentials {
        env[*v as usize] = None;
    }
    let mut derivable = false;
    join(&rule.body, None, &mut env, db, hidden, &mut |_| {
        derivable = true;
        false // first witness suffices
    });
    derivable
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
///   removed, and propagation stops at them.
///
/// On success every relation with *net* casualties has had exactly those
/// rows removed (targeted swap-remove, cost proportional to the
/// casualties); relations whose candidates all re-derived are untouched.
/// The returned [`Retraction`] lists the net removals. On
/// [`MaintainError`] the database is untouched.
pub fn retract(
    program: &Program,
    db: &mut Database,
    deleted: &FxHashMap<Sym, ColumnBatch>,
    externally_supported: &dyn Fn(Sym, &[TermId]) -> bool,
) -> Result<Retraction, MaintainError> {
    check_maintainable(program)?;
    let rules = compile(program, db);
    let dict = db.dict().clone();

    // Rules indexed by body predicate: the forward (overdelete) step
    // asks "who consumes this deleted fact?".
    let mut by_body: FxHashMap<Sym, Vec<(usize, usize)>> = FxHashMap::default();
    for (ri, rule) in rules.iter().enumerate() {
        for (bi, atom) in rule.body.iter().enumerate() {
            by_body.entry(atom.pred).or_default().push((ri, bi));
        }
    }
    // ... and by head predicate for the backward (re-derive) step.
    let mut by_head: FxHashMap<Sym, Vec<usize>> = FxHashMap::default();
    for (ri, rule) in rules.iter().enumerate() {
        by_head.entry(rule.head.pred).or_default().push(ri);
    }

    // --- Phase 1: overdelete ------------------------------------------
    // Candidates per predicate, plus a worklist of fresh ones. The
    // database is *not* modified in this phase: joins run against the
    // full pre-deletion state, which can only overestimate (exactly what
    // DRed wants).
    let no_hidden = Hidden::default();
    let mut over: Hidden = FxHashMap::default();
    let mut worklist: Vec<(Sym, Row)> = Vec::new();
    for (&pred, batch) in deleted {
        let Some(rel) = db.relation(pred) else {
            continue;
        };
        let set = over.entry(pred).or_default();
        for i in 0..batch.len() {
            let row: Row = batch.cols().iter().map(|c| c[i]).collect();
            if !rel.contains(&row) || externally_supported(pred, &row) {
                continue;
            }
            if set.insert(row.clone()) {
                worklist.push((pred, row));
            }
        }
    }

    while let Some((pred, row)) = worklist.pop() {
        let Some(consumers) = by_body.get(&pred) else {
            continue;
        };
        for &(ri, bi) in consumers {
            let rule = &rules[ri];
            let mut env: Vec<Option<TermId>> = vec![None; rule.nvars];
            if !unify(&rule.body[bi], &row, &mut env) {
                continue;
            }
            let mut heads: Vec<Row> = Vec::new();
            join(&rule.body, Some(bi), &mut env, db, &no_hidden, &mut |env| {
                if let Some(h) = head_row(rule, env, &dict) {
                    heads.push(h);
                }
                true
            });
            for h in heads {
                let head_pred = rule.head.pred;
                let present = db.relation(head_pred).is_some_and(|r| r.contains(&h));
                if !present
                    || externally_supported(head_pred, &h)
                    || over.get(&head_pred).is_some_and(|s| s.contains(&h))
                {
                    continue;
                }
                over.entry(head_pred).or_default().insert(h.clone());
                worklist.push((head_pred, h));
            }
        }
    }
    over.retain(|_, set| !set.is_empty());
    let overdeleted: usize = over.values().map(FxHashSet::len).sum();
    if overdeleted == 0 {
        return Ok(Retraction::default());
    }

    // --- Phase 2: re-derive against the hidden view --------------------
    // Nothing is physically removed yet. Re-derivability joins run on
    // the database with the overdeleted rows masked out; a candidate
    // proven alive becomes visible again and may re-support further
    // candidates, so iterate to fixpoint. Seeds are candidates too: an
    // explicitly deleted row a rule still derives (an asserted triple
    // that is also entailed) simply stays, matching fresh-reload
    // semantics exactly. Working on the mask instead of the storage
    // means a relation whose casualties all come back — the common case
    // for dense auxiliaries — is never touched at all.
    let mut rederived = 0usize;
    loop {
        let candidates: Vec<(Sym, Row)> = over
            .iter()
            .flat_map(|(&p, set)| set.iter().map(move |r| (p, r.clone())))
            .collect();
        let mut progressed = false;
        for (pred, row) in candidates {
            let alive = by_head.get(&pred).is_some_and(|ris| {
                ris.iter()
                    .any(|&ri| rederivable_via(&rules[ri], &row, db, &over, &dict))
            });
            if alive {
                over.get_mut(&pred).expect("candidate pred").remove(&row);
                rederived += 1;
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }

    // --- Phase 3: compact the net casualties ---------------------------
    // Only rows that stayed dead are physically removed, by targeted
    // swap-remove ([`Relation::remove_rows`]): dedup tables and eager
    // indexes are patched per row, so the commit cost stays proportional
    // to the casualties, not the relation.
    over.retain(|_, set| !set.is_empty());
    let mut removed: FxHashMap<Sym, Vec<Row>> = FxHashMap::default();
    for (&pred, set) in &over {
        db.relation_mut(pred).remove_rows(set);
        removed.insert(pred, set.iter().cloned().collect());
    }
    Ok(Retraction {
        removed,
        overdeleted,
        rederived,
    })
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
    inserted: FxHashMap<Sym, ColumnBatch>,
    options: &EvalOptions,
) -> Result<EvalStats, MaintainError> {
    check_maintainable(program)?;
    // A seed smaller than one batch partition saves less than spawning a
    // worker costs, so such runs stay on the calling thread.
    let small = inserted.values().map(ColumnBatch::len).sum::<usize>() < MIN_PARTITION_ROWS;
    let inline = EvalOptions {
        threads: Some(1),
        ..options.clone()
    };
    let options = if small { &inline } else { options };
    execute(program, db, options, None, Some(inserted)).map_err(MaintainError::Eval)
}

/// Convenience for callers staging rows one by one — the `deleted` map of
/// [`retract`], the `inserted` map of [`extend`]: appends `row` to
/// `pred`'s [`ColumnBatch`] in `rows`.
pub fn stage_row(rows: &mut FxHashMap<Sym, ColumnBatch>, pred: Sym, row: &[TermId]) {
    rows.entry(pred)
        .or_insert_with(|| ColumnBatch::new(row.len()))
        .push_row(row);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{evaluate, EvalOptions};
    use crate::parser::parse_program;
    use crate::value::Const;

    fn options() -> EvalOptions {
        EvalOptions {
            threads: Some(1),
            ..Default::default()
        }
    }

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
        evaluate(&prog, &mut db, &options()).unwrap();
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
        let mut deleted: FxHashMap<Sym, ColumnBatch> = FxHashMap::default();
        for &pair in gone {
            stage_row(&mut deleted, e, &edge(&db, pair));
        }
        retract(&prog, &mut db, &deleted, &|_, _| false).unwrap();
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
        let mut inserted: FxHashMap<Sym, ColumnBatch> = FxHashMap::default();
        for &pair in added {
            let row = edge(&db, pair);
            if db.relation_mut(e).insert(&row) {
                stage_row(&mut inserted, e, &row);
            }
        }
        let stats = extend(&prog, &mut db, inserted, &options()).unwrap();
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
        let mut rows: FxHashMap<Sym, ColumnBatch> = FxHashMap::default();
        for pair in [(3, 4), (5, 6)] {
            let row = edge(&db, pair);
            db.relation_mut(e).insert(&row);
            stage_row(&mut rows, e, &row);
        }
        extend(&prog, &mut db, rows.clone(), &options()).unwrap();
        retract(&prog, &mut db, &rows, &|_, _| false).unwrap();
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
        evaluate(&prog, &mut db, &options()).unwrap();
        let hop = db.symbols().get("hop").unwrap();
        assert_eq!(db.relation(hop).unwrap().len(), 1);

        // Delete edge(1,2) but declare hop(1,3) externally supported:
        // the edge goes, the hop stays.
        let row = [
            db.dict().encode(&Const::Int(1)),
            db.dict().encode(&Const::Int(2)),
        ];
        let mut deleted: FxHashMap<Sym, ColumnBatch> = FxHashMap::default();
        stage_row(&mut deleted, e, &row);
        let outcome = retract(&prog, &mut db, &deleted, &|pred, _| pred == hop).unwrap();
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
        evaluate(&prog, &mut db, &options()).unwrap();
        let gen = db.symbols().get("gen").unwrap();
        assert_eq!(db.relation(gen).unwrap().len(), 2, "one Skolem per rule");

        let row = [db.dict().encode(&Const::Int(7))];
        let mut deleted: FxHashMap<Sym, ColumnBatch> = FxHashMap::default();
        stage_row(&mut deleted, a, &row);
        let outcome = retract(&prog, &mut db, &deleted, &|_, _| false).unwrap();
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
        evaluate(&prog, &mut db, &options()).unwrap();
        let before = db.fact_count();
        let mut deleted: FxHashMap<Sym, ColumnBatch> = FxHashMap::default();
        stage_row(
            &mut deleted,
            e,
            &[
                db.dict().encode(&Const::Int(1)),
                db.dict().encode(&Const::Int(2)),
            ],
        );
        let err = retract(&prog, &mut db, &deleted, &|_, _| false).unwrap_err();
        assert!(matches!(err, MaintainError::Unsupported(_)));
        assert_eq!(db.fact_count(), before, "refusal leaves the db untouched");
        // The insertion half shares the precondition.
        let err = extend(&prog, &mut db, deleted, &options()).unwrap_err();
        assert!(matches!(err, MaintainError::Unsupported(_)));
        assert_eq!(db.fact_count(), before);
    }

    #[test]
    fn deleting_absent_rows_is_a_noop() {
        let mut db = Database::new();
        let e = db.symbols().intern("edge");
        db.load_rows(e, &[vec![Const::Int(1), Const::Int(2)]]);
        let prog = parse_program("tc(X, Y) :- edge(X, Y).\n", db.symbols()).unwrap();
        evaluate(&prog, &mut db, &options()).unwrap();
        let mut deleted: FxHashMap<Sym, ColumnBatch> = FxHashMap::default();
        stage_row(
            &mut deleted,
            e,
            &[
                db.dict().encode(&Const::Int(8)),
                db.dict().encode(&Const::Int(9)),
            ],
        );
        let outcome = retract(&prog, &mut db, &deleted, &|_, _| false).unwrap();
        assert_eq!(outcome.removed_rows(), 0);
        assert_eq!(outcome.overdeleted, 0);
        assert_eq!(db.fact_count(), 2); // edge(1,2) + tc(1,2), nothing lost
    }
}
