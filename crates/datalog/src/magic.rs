//! Magic-sets demand transformation for recursive predicates.
//!
//! [`magic_sets_rewrite_analyzed`] makes bottom-up evaluation goal-directed: when
//! every consumer of a recursive predicate binds the same argument
//! positions to constants, the rewrite
//!
//! 1. seeds a fresh *magic* predicate with the consumers' constants
//!    (`magic(c)`),
//! 2. guards every defining rule with the magic predicate, so only
//!    demanded tuples are derived, and
//! 3. adds *demand rules* that propagate the magic set through the
//!    recursion (`magic(Y) :- magic(X), ans_2i(Id, X, Y, D)` for the
//!    transitive-closure shape),
//!
//! turning "compute the whole transitive closure, then filter" into
//! "explore only from the bound endpoint".
//!
//! A triple pattern's own `c p+ ?y` or `c p* ?y` no longer reaches this
//! pass as such a closure: T_Q already grows it from `c`, and a
//! predicate whose defining heads hold constants at every demanded
//! position is left alone, since a guard would prune nothing. What is
//! left is a closure whose endpoint becomes a constant only after
//! translation — `?x p+ ?y FILTER (?x = c)` once
//! [`unfold_and_unify`](crate::rewrite::unfold_and_unify) has substituted
//! `c`, or the range path `c p{1,} ?y`, desugared to a nested `p+`.
//! Closures bound through a join, and closures nested in a larger path,
//! have no constant consumer beyond the graph column, which their heads
//! already fix, and are not restricted either.
//!
//! The transformation is deliberately conservative — it restricts a
//! predicate only when that is provably invisible to every reader:
//! the predicate must be recursive, must not be an `@output`, must not
//! occur negated or in ground facts, must not be defined by an aggregate
//! rule, and *all* of its consumers must bind a common argument position
//! to a constant. Demand rules over-approximate demand (negations and
//! filter conditions of the defining rule are dropped from the demand
//! body), which is sound: a larger magic set derives a superset of the
//! demanded tuples, never a subset. Programs with no `@output` at all
//! (e.g. store materialisation, whose derived relations *are* the
//! store's content) are never rewritten.

use crate::database::Database;
use crate::fxhash::FxHashSet;
use crate::rule::{arg_vars, Atom, AtomArg, BodyItem, Program, Rule};
use crate::symbols::{Sym, SymbolTable};
use crate::value::Const;

/// Demand share of its value domain above which the rewrite is judged
/// not to prune ([`demand_prunes`]): a demand set covering half the
/// reachable values restricts (at most) half the derivations, which the
/// rewrite's own overhead — the demand fixpoint plus a guard join per
/// derived tuple — roughly cancels. Below it the restriction wins
/// outright (a bound endpoint on a 350-node chain demands ~10 nodes);
/// at or above it the guards are pure tax (a bound endpoint on a
/// strongly-connected graph demands *every* node).
pub const DEMAND_SELECTIVITY: f64 = 0.5;

/// Argument positions (bitmask) of `atom` holding constants.
fn const_mask(atom: &Atom) -> u64 {
    let mut m = 0u64;
    for (i, arg) in atom.args.iter().enumerate() {
        if matches!(arg, AtomArg::Const(_)) {
            m |= 1 << i;
        }
    }
    m
}

/// The positions set in `mask`, ascending.
fn positions(mask: u64) -> Vec<usize> {
    (0..64).filter(|i| mask & (1 << i) != 0).collect()
}

/// A successful magic-sets rewrite plus the metadata the demand-based
/// keep/demote decision needs ([`demand_subprogram`], [`demand_prunes`]).
///
/// Whether the rewrite pays off is not decidable from the program alone:
/// demand is a *reachability* property of the data. A bound endpoint on a
/// chain demands a short suffix; the same query shape on a
/// strongly-connected graph demands every node, restricting nothing while
/// still paying a guard join per derived tuple. Callers therefore
/// evaluate the (cheap, linear) demand subprogram first and keep the
/// rewrite only when the measured demand sets stay selective.
pub struct MagicRewrite {
    /// The rewritten program.
    pub program: Program,
    /// The magic (demand) predicates introduced, one per restricted
    /// candidate: after evaluation their relation sizes *are* the demand
    /// sets.
    pub magic_preds: Vec<Sym>,
    /// The restricted (guarded) predicates, parallel to `magic_preds`.
    pub guarded: Vec<Sym>,
    /// `(pred, column)` pairs demand values are drawn from (the prefix
    /// atom columns feeding each demand rule's head): the distinct values
    /// across these columns are the domain a demand set is judged
    /// against.
    demand_sources: Vec<(Sym, usize)>,
}

/// Applies the magic-sets demand transformation to every eligible
/// recursive predicate of `program`, with the analysis metadata
/// attached. Returns `None` when no predicate qualifies (callers keep the
/// original; the rewrite never loses or adds answer tuples for the
/// program's `@output` predicates either way).
pub fn magic_sets_rewrite_analyzed(
    program: &Program,
    symbols: &SymbolTable,
) -> Option<MagicRewrite> {
    // No declared outputs means every derived relation may be read by
    // the caller (materialisation): nothing is safe to restrict.
    if program.outputs.is_empty() {
        return None;
    }

    let outputs: FxHashSet<Sym> = program.outputs.iter().copied().collect();
    let fact_preds: FxHashSet<Sym> = program.facts.iter().map(|(p, _)| *p).collect();
    let mut negated: FxHashSet<Sym> = FxHashSet::default();
    let mut agg_defined: FxHashSet<Sym> = FxHashSet::default();
    for rule in &program.rules {
        if rule.aggregate.is_some() {
            agg_defined.insert(rule.head.pred);
        }
        for item in &rule.body {
            if let BodyItem::Neg(a) = item {
                negated.insert(a.pred);
            }
        }
    }

    // Qualifying predicates with their demanded-position mask.
    let mut candidates: Vec<(Sym, u64)> = Vec::new();
    let idb: Vec<Sym> = program.idb_predicates();
    for &p in &idb {
        if outputs.contains(&p)
            || fact_preds.contains(&p)
            || negated.contains(&p)
            || agg_defined.contains(&p)
        {
            continue;
        }
        let defining: Vec<&Rule> = program.rules.iter().filter(|r| r.head.pred == p).collect();
        let recursive = defining.iter().any(|r| {
            r.body
                .iter()
                .any(|i| matches!(i, BodyItem::Pos(a) if a.pred == p))
        });
        if !recursive {
            continue;
        }
        // Head arguments at demanded positions must not be existential
        // (a magic guard would equate a fresh labelled null with a
        // demand constant).
        let arity = defining[0].head.args.len();
        if defining.iter().any(|r| r.head.args.len() != arity) {
            continue;
        }
        // Consumers: positive occurrences in rules not defining `p`.
        let mut demand: u64 = u64::MAX;
        let mut consumers = 0usize;
        let mut malformed = false;
        for rule in program.rules.iter().filter(|r| r.head.pred != p) {
            for item in &rule.body {
                if let BodyItem::Pos(a) = item {
                    if a.pred == p {
                        if a.args.len() != arity {
                            malformed = true;
                        }
                        demand &= const_mask(a);
                        consumers += 1;
                    }
                }
            }
        }
        if malformed || consumers == 0 {
            continue;
        }
        let demand = demand & 1u64.checked_shl(arity as u32).map_or(u64::MAX, |b| b - 1);
        if demand == 0 {
            continue;
        }
        let b = positions(demand);
        // Heads that already hold constants at every demanded position
        // (T_Q's bound closures, or any closure read only at its graph
        // constant) are restricted by construction: a guard would prune
        // nothing.
        let fixed = |r: &&Rule| {
            b.iter()
                .all(|&i| matches!(r.head.args[i], AtomArg::Const(_)))
        };
        if defining.iter().all(fixed) {
            continue;
        }
        let safe = defining.iter().all(|r| {
            let existential: FxHashSet<_> = r.existential_vars().into_iter().collect();
            // Guard args: head args at the demanded positions.
            let guard_ok = b.iter().all(|&i| match &r.head.args[i] {
                AtomArg::Const(_) => true,
                AtomArg::Var(v) => !existential.contains(v),
            });
            // Every demand rule (one per recursive occurrence) must be
            // safe: its head variables bound by the guard or by the
            // kept prefix (positive atoms, assignments and compatibility
            // items — a compatibility item binds its variables when one
            // side is bound before it and the other before it or by a
            // prefix atom, and refuses the candidate otherwise).
            let demand_ok = r.body.iter().enumerate().all(|(j, item)| {
                let occ = match item {
                    BodyItem::Pos(a) if a.pred == p => a,
                    _ => return true,
                };
                let mut bound: FxHashSet<u32> = FxHashSet::default();
                for &i in &b {
                    if let AtomArg::Var(v) = &r.head.args[i] {
                        bound.insert(*v);
                    }
                }
                let prefix = &r.body[..j];
                let in_atom = |arg: &AtomArg| {
                    (prefix.iter()).any(|i| matches!(i, BodyItem::Pos(a) if a.args.contains(arg)))
                };
                for prev in prefix {
                    match prev {
                        BodyItem::Pos(a) => bound.extend(a.vars()),
                        BodyItem::Assign(v, _) => {
                            bound.insert(*v);
                        }
                        BodyItem::Compat(args @ [x, y, _]) => {
                            let known =
                                |s: &AtomArg| !matches!(s, AtomArg::Var(v) if !bound.contains(v));
                            if !(known(x) || known(y))
                                || ![x, y].iter().all(|s| known(s) || in_atom(s))
                            {
                                return false;
                            }
                            bound.extend(arg_vars(args));
                        }
                        _ => {}
                    }
                }
                b.iter().all(|&i| match &occ.args[i] {
                    AtomArg::Const(_) => true,
                    AtomArg::Var(v) => bound.contains(v),
                })
            });
            guard_ok && demand_ok
        });
        if safe {
            candidates.push((p, demand));
        }
    }

    // Candidates whose defining rules read another candidate are dropped:
    // a demand rule for one would become an unseeded consumer of the
    // other. (Conservative; nested one-or-more paths keep the outer
    // predicate only when the inner one did not qualify anyway.)
    let qualifying: FxHashSet<Sym> = candidates.iter().map(|&(p, _)| p).collect();
    candidates.retain(|&(p, _)| {
        program.rules.iter().filter(|r| r.head.pred == p).all(|r| {
            r.body.iter().all(|item| match item {
                BodyItem::Pos(a) => a.pred == p || !qualifying.contains(&a.pred),
                _ => true,
            })
        })
    });
    if candidates.is_empty() {
        return None;
    }

    // All predicate symbols in use, for collision-free magic names.
    let mut used: FxHashSet<Sym> = fact_preds;
    used.extend(outputs.iter().copied());
    for rule in &program.rules {
        used.insert(rule.head.pred);
        for item in &rule.body {
            if let BodyItem::Pos(a) | BodyItem::Neg(a) = item {
                used.insert(a.pred);
            }
        }
    }

    let mut out = program.clone();
    let mut magic_preds = Vec::new();
    let mut guarded = Vec::new();
    let mut demand_sources: Vec<(Sym, usize)> = Vec::new();
    for (p, demand) in candidates {
        let b = positions(demand);
        let base = symbols.resolve(p);
        let mut magic_p = symbols.intern(&format!("{base}__magic"));
        let mut n = 1usize;
        while used.contains(&magic_p) {
            n += 1;
            magic_p = symbols.intern(&format!("{base}__magic{n}"));
        }
        used.insert(magic_p);
        magic_preds.push(magic_p);
        guarded.push(p);

        // Seed facts from the consumers' constants.
        for rule in program.rules.iter().filter(|r| r.head.pred != p) {
            for item in &rule.body {
                if let BodyItem::Pos(a) = item {
                    if a.pred == p {
                        let seed: Vec<Const> = b
                            .iter()
                            .map(|&i| match &a.args[i] {
                                AtomArg::Const(c) => c.clone(),
                                AtomArg::Var(_) => unreachable!("demanded position is constant"),
                            })
                            .collect();
                        if !out.facts.contains(&(magic_p, seed.clone())) {
                            out.facts.push((magic_p, seed));
                        }
                    }
                }
            }
        }

        // Guard defining rules and emit demand rules.
        let mut demand_rules = Vec::new();
        for rule in out.rules.iter_mut().filter(|r| r.head.pred == p) {
            let guard = Atom::new(
                magic_p,
                b.iter().map(|&i| rule.head.args[i].clone()).collect(),
            );
            for (j, item) in rule.body.iter().enumerate() {
                let occ = match item {
                    BodyItem::Pos(a) if a.pred == p => a,
                    _ => continue,
                };
                // Record where this demand rule's head values come from:
                // the last prefix atom column holding each demanded
                // variable (variables bound only by the guard or an
                // assignment add no source — their values are already in
                // the demand set).
                for &i in &b {
                    let AtomArg::Var(v) = &occ.args[i] else {
                        continue;
                    };
                    'src: for prev in rule.body[..j].iter().rev() {
                        let BodyItem::Pos(a) = prev else { continue };
                        if a.pred == p {
                            continue;
                        }
                        for (col, arg) in a.args.iter().enumerate() {
                            if matches!(arg, AtomArg::Var(w) if w == v) {
                                if !demand_sources.contains(&(a.pred, col)) {
                                    demand_sources.push((a.pred, col));
                                }
                                break 'src;
                            }
                        }
                    }
                }
                let mut body = vec![BodyItem::Pos(guard.clone())];
                body.extend(rule.body[..j].iter().filter_map(|prev| match prev {
                    BodyItem::Pos(_) | BodyItem::Assign(..) | BodyItem::Compat(_) => {
                        Some(prev.clone())
                    }
                    // Dropping negations and filters over-approximates
                    // demand — sound, the magic set only grows.
                    BodyItem::Neg(_) | BodyItem::Cond(_) => None,
                }));
                demand_rules.push(Rule {
                    head: Atom::new(magic_p, b.iter().map(|&i| occ.args[i].clone()).collect()),
                    body,
                    aggregate: None,
                    var_names: rule.var_names.clone(),
                });
            }
            rule.body.insert(0, BodyItem::Pos(guard));
        }
        out.rules.extend(demand_rules);
    }
    Some(MagicRewrite {
        program: out,
        magic_preds,
        guarded,
        demand_sources,
    })
}

/// The self-contained support subprogram that derives `rw`'s demand
/// (magic) sets without touching the guarded predicates: the demand rules
/// plus, transitively, every rule defining a predicate they read.
/// Evaluating it costs one fixpoint linear in the demanded subgraph, and
/// every fact it derives is one the subsequently chosen program —
/// rewritten or plain — re-derives identically, so the measurement's
/// residue is pure dedup.
///
/// Returns `None` when the closure is not self-contained: it reads a
/// guarded predicate (the measurement would underestimate demand),
/// contains an existential rule (its labelled nulls make re-derivation
/// more than a dedup). Callers then skip the measurement and keep the
/// rewrite.
pub fn demand_subprogram(rw: &MagicRewrite) -> Option<Program> {
    let guarded: FxHashSet<Sym> = rw.guarded.iter().copied().collect();
    let mut needed: FxHashSet<Sym> = rw.magic_preds.iter().copied().collect();
    let mut frontier: Vec<Sym> = rw.magic_preds.clone();
    let mut keep = vec![false; rw.program.rules.len()];
    while let Some(p) = frontier.pop() {
        for (idx, rule) in rw.program.rules.iter().enumerate() {
            if rule.head.pred != p || keep[idx] {
                continue;
            }
            keep[idx] = true;
            if !rule.existential_vars().is_empty() {
                return None;
            }
            for item in &rule.body {
                if let BodyItem::Pos(a) | BodyItem::Neg(a) = item {
                    if guarded.contains(&a.pred) {
                        return None;
                    }
                    if needed.insert(a.pred) {
                        frontier.push(a.pred);
                    }
                }
            }
        }
    }
    let mut sub = rw.program.clone();
    let mut keep_iter = keep.into_iter();
    sub.rules.retain(|_| keep_iter.next().unwrap());
    sub.facts.retain(|(p, _)| needed.contains(p));
    sub.outputs = rw.magic_preds.clone();
    Some(sub)
}

/// Judges a saturated demand fixpoint: `db` holds the evaluated
/// [`demand_subprogram`], so the magic relations' sizes are the demand
/// sets and the distinct values across the recorded source columns are
/// the domain demand could have covered. True iff demand stayed under
/// [`DEMAND_SELECTIVITY`] of that domain — the rewrite restricts enough
/// to outweigh its guard joins. On a strongly-connected graph demand
/// saturates the domain and this returns false (measured: the rewrite
/// cost ~33% extra on a 120-node ring before this demotion existed).
pub fn demand_prunes(rw: &MagicRewrite, db: &Database) -> bool {
    let demand: usize = rw
        .magic_preds
        .iter()
        .map(|&p| db.relation(p).map_or(0, |r| r.len()))
        .sum();
    let mut domain: FxHashSet<u64> = FxHashSet::default();
    for &(pred, col) in &rw.demand_sources {
        if let Some(rel) = db.relation(pred) {
            for i in 0..rel.len() {
                if let Some(id) = rel.row(i as u32).get(col) {
                    domain.insert(id.raw());
                }
            }
        }
    }
    (demand as f64) < DEMAND_SELECTIVITY * domain.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Database;
    use crate::eval::{evaluate, EvalOptions};
    use crate::parser::parse_program;

    fn chain_db(n: i64) -> Database {
        let mut db = Database::new();
        let e = db.symbols().intern("edge");
        let rows: Vec<Vec<Const>> = (0..n)
            .map(|i| vec![Const::Int(i), Const::Int(i + 1)])
            .collect();
        db.load_rows(e, &rows);
        db
    }

    const TC_SRC: &str = "tc(X, Y) :- edge(X, Y).\n\
                          tc(X, Z) :- edge(X, Y), tc(Y, Z).\n\
                          out(Z) :- tc(90, Z).\n\
                          @output(\"out\").\n";

    #[test]
    fn bound_endpoint_tc_is_rewritten_and_equal() {
        let mut db = chain_db(100);
        let prog = parse_program(TC_SRC, db.symbols()).unwrap();
        let magic = magic_sets_rewrite_analyzed(&prog, db.symbols())
            .map(|rw| rw.program)
            .expect("tc qualifies");

        let mut db2 = chain_db(100);
        // Share one symbol table so preds resolve identically.
        let prog2 = parse_program(TC_SRC, db2.symbols()).unwrap();
        let magic2 = magic_sets_rewrite_analyzed(&prog2, db2.symbols())
            .map(|rw| rw.program)
            .unwrap();

        evaluate(&prog, &mut db, &EvalOptions::default()).unwrap();
        evaluate(&magic2, &mut db2, &EvalOptions::default()).unwrap();
        let _ = magic;

        let out1 = db.symbols().get("out").unwrap();
        let out2 = db2.symbols().get("out").unwrap();
        let mut a: Vec<Vec<Const>> = db
            .relation(out1)
            .unwrap()
            .iter()
            .map(|t| db.decode_tuple(t))
            .collect();
        let mut b: Vec<Vec<Const>> = db2
            .relation(out2)
            .unwrap()
            .iter()
            .map(|t| db2.decode_tuple(t))
            .collect();
        a.sort();
        b.sort();
        assert_eq!(a, b, "same answers");
        assert_eq!(a.len(), 10, "nodes 91..=100 reachable from 90");

        // The magic run derived a small fraction of the closure.
        let tc1 = db.symbols().get("tc").unwrap();
        let tc2 = db2.symbols().get("tc").unwrap();
        let full = db.relation(tc1).unwrap().len();
        let restricted = db2.relation(tc2).unwrap().len();
        assert_eq!(full, 100 * 101 / 2, "full closure of a 100-edge chain");
        assert!(
            restricted < full / 10,
            "magic restricted: {restricted} vs {full}"
        );
    }

    #[test]
    fn unbound_consumers_block_the_rewrite() {
        let t = SymbolTable::new();
        let prog = parse_program(
            "tc(X, Y) :- edge(X, Y).\n\
             tc(X, Z) :- edge(X, Y), tc(Y, Z).\n\
             out(X, Z) :- tc(X, Z).\n\
             @output(\"out\").\n",
            &t,
        )
        .unwrap();
        assert!(magic_sets_rewrite_analyzed(&prog, &t).is_none());
    }

    #[test]
    fn closures_grown_from_the_constant_are_not_restricted() {
        // T_Q's bound closure: every head already holds the demanded
        // constant, so a guard would prune nothing.
        let t = SymbolTable::new();
        let prog = parse_program(
            "r(90, Y) :- edge(90, Y).\n\
             r(90, Z) :- r(90, Y), edge(Y, Z).\n\
             out(Z) :- r(90, Z).\n\
             @output(\"out\").\n",
            &t,
        )
        .unwrap();
        assert!(magic_sets_rewrite_analyzed(&prog, &t).is_none());
    }

    #[test]
    fn output_predicates_are_never_restricted() {
        let t = SymbolTable::new();
        let prog = parse_program(
            "tc(X, Y) :- edge(X, Y).\n\
             tc(X, Z) :- edge(X, Y), tc(Y, Z).\n\
             out(Z) :- tc(7, Z).\n\
             @output(\"out\").\n@output(\"tc\").\n",
            &t,
        )
        .unwrap();
        assert!(magic_sets_rewrite_analyzed(&prog, &t).is_none());
    }

    #[test]
    fn programs_without_outputs_are_untouched() {
        let t = SymbolTable::new();
        let prog = parse_program(
            "tc(X, Y) :- edge(X, Y).\n\
             tc(X, Z) :- edge(X, Y), tc(Y, Z).\n\
             out(Z) :- tc(7, Z).\n",
            &t,
        )
        .unwrap();
        assert!(magic_sets_rewrite_analyzed(&prog, &t).is_none());
    }

    #[test]
    fn negated_recursive_predicates_are_skipped() {
        let t = SymbolTable::new();
        let prog = parse_program(
            "tc(X, Y) :- edge(X, Y).\n\
             tc(X, Z) :- edge(X, Y), tc(Y, Z).\n\
             out(Z) :- node(Z), not tc(7, Z).\n\
             @output(\"out\").\n",
            &t,
        )
        .unwrap();
        assert!(magic_sets_rewrite_analyzed(&prog, &t).is_none());
    }

    #[test]
    fn multiple_bound_consumers_all_seed() {
        let mut db = chain_db(50);
        let src = "tc(X, Y) :- edge(X, Y).\n\
                   tc(X, Z) :- edge(X, Y), tc(Y, Z).\n\
                   out(Z) :- tc(10, Z).\n\
                   out(Z) :- tc(40, Z).\n\
                   @output(\"out\").\n";
        let prog = parse_program(src, db.symbols()).unwrap();
        let magic = magic_sets_rewrite_analyzed(&prog, db.symbols())
            .map(|rw| rw.program)
            .expect("both consumers bind X");
        evaluate(&magic, &mut db, &EvalOptions::default()).unwrap();
        let out = db.symbols().get("out").unwrap();
        // From 10: 11..=50 (40 rows); from 40: 41..=50 (10 rows, subset).
        assert_eq!(db.relation(out).unwrap().len(), 40);
    }
}
