//! The physical planner: statistics-driven join ordering, compiled once.
//!
//! `plan_rule` is the one place a rule body is lowered for the join
//! loop ([`crate::eval`]). By greedy selectivity search it orders the
//! body: starting from the bound set (constants, then variables bound by
//! already-placed atoms), it repeatedly places the positive atom with the
//! smallest estimated probe cardinality ([`DbStats::estimate`] — rows
//! divided by the distinct counts of the bound positions), preferring
//! atoms that share a bound variable over cross products, and pushes
//! filter conditions, assignments and negation checks to the earliest
//! position at which all their variables are bound. The same walk builds
//! each step: the exact `(pred, mask)` hash index a probe uses (built on
//! its first probe, so a snapshot holds the masks its queries used rather
//! than all `2^arity - 1`), a membership check for a fully bound
//! atom, the existence-only flag of a scan, the rule's Skolem functors,
//! and the safety verdict — a negation, condition or assignment reading
//! a variable no body item before it binds is [`EvalError::Unsafe`].
//!
//! [`plan_program`] compiles every rule of a program against a
//! snapshot's statistics: one naive plan per rule plus semi-naive delta
//! variants (one per positive body occurrence of a stratum-written
//! predicate) with the delta atom pinned first — the delta-first
//! constraint of semi-naive evaluation — and the rest ordered by the same
//! search. The evaluator runs those plans as they are; whatever a run
//! needs that the handed plan lacks (no plan, a seeded run's variants) it
//! compiles with the same function against empty statistics. A plan made
//! for a different program is ignored (`ProgramPlan::fits`), so a wrong
//! plan can cost performance but never correctness.

use crate::database::Mask;
use crate::eval::EvalError;
use crate::expr::Expr;
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::rule::{arg_vars, Atom, AtomArg, BodyItem, Program, Rule, VarId};
use crate::stats::DbStats;
use crate::stratify::stratify;
use crate::symbols::{Sym, SymbolTable};

/// One compiled body step.
#[derive(Debug, Clone)]
pub(crate) enum Step {
    /// Scan/lookup a positive atom. `mask` = positions bound at this point
    /// (constants or already-bound variables; 0 for a delta atom, whose
    /// scan is driven by the batch). With `exists`, neither a later step
    /// nor the head reads a variable the atom binds: every match yields
    /// the same emissions, so the join takes the first. `estimate` is the
    /// planner's probe cardinality, kept for [`ProgramPlan::render`].
    Scan {
        item_idx: usize,
        pred: Sym,
        mask: Mask,
        exists: bool,
        estimate: f64,
    },
    /// Membership test of a fully bound atom against the relation's
    /// dedup table: passes when the row's presence equals `present`
    /// (`false` for a negated atom). Needs no index.
    Check {
        item_idx: usize,
        pred: Sym,
        present: bool,
    },
    /// Evaluate a filter condition.
    Filter { item_idx: usize },
    /// Evaluate an assignment. With `bounded`, it mints an existential's
    /// null ([`invents_null`]) and fails past the Skolem-depth bound.
    Bind {
        item_idx: usize,
        var: VarId,
        bounded: bool,
    },
    /// A `compat(a, b, v)` item. With `widen`, one side is bound: a
    /// non-null bound side gives the other {that value, null} (and `v`
    /// that value), a null one leaves it free for the next scan, whose
    /// probe drops it from its key. Without, both sides are bound: a
    /// check that binds `v`. `seen` is the side (0 for `a`, 1 for `b`)
    /// the item's widen step found bound: where that side is not null,
    /// the widen step already bound a row of `comp`, and the check
    /// passes the environment on untouched.
    Compat {
        item_idx: usize,
        widen: bool,
        seen: Option<usize>,
    },
}

impl Step {
    /// The body item the step evaluates.
    fn item_idx(&self) -> usize {
        match self {
            Step::Scan { item_idx, .. }
            | Step::Check { item_idx, .. }
            | Step::Filter { item_idx }
            | Step::Bind { item_idx, .. }
            | Step::Compat { item_idx, .. } => *item_idx,
        }
    }
}

/// A compiled rule body: the steps the join loop runs, in order.
#[derive(Debug, Clone)]
pub(crate) struct RulePlan {
    pub(crate) steps: Vec<Step>,
    pub(crate) nvars: usize,
    /// Existential head vars with their Skolem functor.
    pub(crate) existentials: Vec<(VarId, Sym)>,
}

impl RulePlan {
    /// The `(pred, mask)` of each scan, in step order. Mask 0 is a full
    /// scan, or the batch-driven scan of a delta atom.
    fn scans(&self) -> impl Iterator<Item = (Sym, Mask)> + '_ {
        self.steps.iter().filter_map(|s| match s {
            Step::Scan { pred, mask, .. } => Some((*pred, *mask)),
            _ => None,
        })
    }
}

/// A physical plan for a program: per-rule compiled bodies for the naive
/// pass, per-`(rule, delta occurrence)` variants for the semi-naive
/// rounds, and the rules they were compiled from.
#[derive(Debug, Clone)]
pub struct ProgramPlan {
    /// The planned program's rules: [`ProgramPlan::fits`] compares them.
    source: Vec<Rule>,
    /// One naive plan per program rule (parallel to `program.rules`).
    pub(crate) rules: Vec<RulePlan>,
    /// Delta variants, keyed by `(rule index, body item index of the
    /// delta occurrence)`.
    pub(crate) delta: FxHashMap<(usize, usize), RulePlan>,
}

impl ProgramPlan {
    /// True when the plan was made for `program` — rule for rule, the
    /// same bodies, heads and variables. O(program size); the evaluator
    /// ignores a plan that does not fit.
    pub(crate) fn fits(&self, program: &Program) -> bool {
        self.source == program.rules
    }

    /// The `(pred, mask)` of every scan of the naive plans (`delta =
    /// false`) or of the delta variants (`true`), in rule and step order.
    /// Mask 0 is a full scan, or the batch-driven scan of a delta atom.
    pub fn probes(&self, delta: bool) -> impl Iterator<Item = (Sym, Mask)> + '_ {
        let naive = self.rules.iter().filter(move |_| !delta);
        let variants = self.delta.values().filter(move |_| delta);
        naive.chain(variants).flat_map(RulePlan::scans)
    }

    /// Renders the plan for humans: per rule and delta variant the body
    /// order and one line per step — its kind (`probe`, `exists` for a
    /// scan that stops at the first match, `check` and `check not` for
    /// membership tests, `filter`, `bind`, and `compat widen` / `compat
    /// check` for the two halves of a compatibility item) and, for scans,
    /// probe mask and cardinality estimate. The payload of the serving
    /// layer's `explain`.
    pub fn render(&self, program: &Program, symbols: &SymbolTable) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for (ri, (rule, rp)) in program.rules.iter().zip(&self.rules).enumerate() {
            let _ = writeln!(out, "rule {ri}: {}", rule.display(symbols));
            render_steps(&mut out, rp);
            let mut variants: Vec<_> = self.delta.iter().filter(|((r, _), _)| *r == ri).collect();
            variants.sort_unstable_by_key(|(key, _)| **key);
            for ((_, di), drp) in variants {
                let _ = writeln!(out, "  delta variant (rule {ri}, body item {di}):");
                render_steps(&mut out, drp);
            }
        }
        out
    }
}

fn render_steps(out: &mut String, rp: &RulePlan) {
    use std::fmt::Write;
    let order: Vec<usize> = rp.steps.iter().map(Step::item_idx).collect();
    let _ = writeln!(out, "  order: {order:?}");
    for step in &rp.steps {
        let item_idx = step.item_idx();
        let _ = match step {
            Step::Scan {
                mask,
                exists,
                estimate,
                ..
            } => {
                let kind = if *exists { "exists" } else { "probe" };
                writeln!(
                    out,
                    "    {kind} item {item_idx} mask={mask:#b} est={estimate:.1}"
                )
            }
            Step::Check { present: true, .. } => writeln!(out, "    check item {item_idx}"),
            Step::Check { .. } => writeln!(out, "    check not item {item_idx}"),
            Step::Filter { .. } => writeln!(out, "    filter item {item_idx}"),
            Step::Bind { .. } => writeln!(out, "    bind item {item_idx}"),
            Step::Compat { widen: true, .. } => writeln!(out, "    compat widen item {item_idx}"),
            Step::Compat { .. } => writeln!(out, "    compat check item {item_idx}"),
        };
    }
}

/// Compiles every rule of `program` against `stats`: a naive plan per
/// rule plus delta-pinned variants for the semi-naive rounds. Fails when
/// the program does not stratify or a rule is unsafe — the errors
/// evaluation itself would report.
pub fn plan_program(
    program: &Program,
    symbols: &SymbolTable,
    stats: &DbStats,
) -> Result<ProgramPlan, EvalError> {
    let strat = stratify(program, symbols)?;
    let rules = (program.rules.iter().enumerate())
        .map(|(ri, r)| plan_rule(ri, r, symbols, stats, None))
        .collect::<Result<_, _>>()?;
    let mut delta = FxHashMap::default();
    for stratum in &strat.strata {
        let writes: FxHashSet<Sym> = strat.stratum_writes(stratum).into_iter().collect();
        for &ri in stratum {
            let rule = &program.rules[ri];
            if rule.aggregate.is_some() {
                continue;
            }
            for di in rule.positive_occurrences_of(&writes) {
                delta.insert((ri, di), plan_rule(ri, rule, symbols, stats, Some(di))?);
            }
        }
    }
    Ok(ProgramPlan {
        source: program.rules.clone(),
        rules,
        delta,
    })
}

/// Plans and compiles rule `rule_idx`: orders the body by greedy
/// selectivity against `stats` and lowers each item to its [`Step`].
/// With `pinned = Some(di)`, body item `di` (the delta occurrence) runs
/// first as a batch-driven scan and never becomes a `Check`.
pub(crate) fn plan_rule(
    rule_idx: usize,
    rule: &Rule,
    symbols: &SymbolTable,
    stats: &DbStats,
    pinned: Option<usize>,
) -> Result<RulePlan, EvalError> {
    let nvars = rule.var_names.len();
    // Safety is a property of the rule text: a variable a negation,
    // condition or assignment reads must be bound by a positive atom or
    // assignment before it, and so must one side of a compatibility item.
    // A safe body can always be ordered, unless no atom binds the other
    // side of a compatibility item (checked once the order is done).
    let mut bound = vec![false; nvars];
    let mut vars = Vec::new();
    for item in &rule.body {
        vars.clear();
        reads(item, &mut vars);
        let unbound = match item {
            BodyItem::Pos(_) => None,
            BodyItem::Compat([a, b, _]) => free_var(b, &bound).and(free_var(a, &bound)),
            _ => vars.iter().copied().find(|&v| !bound[v as usize]),
        };
        if let Some(v) = unbound {
            let what = match item {
                BodyItem::Neg(a) => format!("negated atom {}", symbols.resolve(a.pred)),
                BodyItem::Cond(_) => "condition".into(),
                BodyItem::Compat(_) => "compatibility".into(),
                _ => "assignment".into(),
            };
            return Err(EvalError::Unsafe(format!(
                "rule {rule_idx}: variable {} unbound in {what}",
                rule.var_names[v as usize]
            )));
        }
        match item {
            BodyItem::Pos(_) | BodyItem::Compat(_) => {
                vars.iter().for_each(|&v| bound[v as usize] = true)
            }
            BodyItem::Assign(v, _) => bound[*v as usize] = true,
            _ => {}
        }
    }
    bound.fill(false);
    // Variables a `compat` widen step gives {value, null} — or, after a
    // null, leaves free: probes key on them, but only a scan binds them
    // for certain.
    let mut widened = vec![false; nvars];
    // Per compatibility item: the side its widen step found bound.
    let mut seen: Vec<Option<usize>> = vec![None; rule.body.len()];
    // Per variable: the step that binds it first (positive atoms only).
    let mut first = vec![usize::MAX; nvars];
    let mut steps: Vec<Step> = Vec::with_capacity(rule.body.len());
    let mut remaining: Vec<usize> = (0..rule.body.len())
        .filter(|&i| Some(i) != pinned)
        .collect();
    let mut next = pinned;

    while let Some(item_idx) = next
        .take()
        .or_else(|| pick(rule, stats, &mut remaining, &bound, &widened, &mut vars))
    {
        let k = steps.len();
        steps.push(match &rule.body[item_idx] {
            BodyItem::Pos(a) => {
                let delta = pinned == Some(item_idx);
                let mask = if delta {
                    0
                } else {
                    bound_mask(a, &bound, &widened)
                };
                let complete = !delta && arg_vars(&a.args).all(|v| bound[v as usize]);
                for v in arg_vars(&a.args) {
                    if !bound[v as usize] {
                        bound[v as usize] = true;
                        first[v as usize] = k;
                    }
                }
                if complete {
                    Step::Check {
                        item_idx,
                        pred: a.pred,
                        present: true,
                    }
                } else {
                    Step::Scan {
                        item_idx,
                        pred: a.pred,
                        mask,
                        exists: false,
                        estimate: stats.estimate(a.pred, mask),
                    }
                }
            }
            BodyItem::Neg(a) => Step::Check {
                item_idx,
                pred: a.pred,
                present: false,
            },
            BodyItem::Cond(_) => Step::Filter { item_idx },
            BodyItem::Assign(v, e) => {
                bound[*v as usize] = true;
                Step::Bind {
                    item_idx,
                    var: *v,
                    bounded: invents_null(e, symbols),
                }
            }
            BodyItem::Compat([a, b, v]) => {
                let free = free_var(a, &bound).or(free_var(b, &bound));
                match (free, v) {
                    (Some(w), _) => {
                        widened[w as usize] = true;
                        seen[item_idx] = Some(usize::from(free_var(a, &bound).is_some()));
                    }
                    (None, AtomArg::Var(v)) => bound[*v as usize] = true,
                    (None, AtomArg::Const(_)) => {}
                }
                let widen = free.is_some();
                Step::Compat {
                    item_idx,
                    widen,
                    seen: (!widen).then_some(seen[item_idx]).flatten(),
                }
            }
        });
    }
    if let Some(i) = remaining.first() {
        let what = format!("rule {rule_idx}: no atom binds a side of compatibility item {i}");
        return Err(EvalError::Unsafe(what));
    }

    // Walking back from the head, a scan is existence-only when nothing
    // after it reads a variable it binds first. Aggregates count matches,
    // so theirs stay exhaustive.
    let mut live: Vec<VarId> = rule.head.vars();
    for (k, step) in steps.iter_mut().enumerate().rev() {
        if let Step::Scan { exists, .. } = step {
            *exists = rule.aggregate.is_none() && !live.iter().any(|&v| first[v as usize] == k);
        }
        let item = &rule.body[step.item_idx()];
        reads(item, &mut live);
        if let BodyItem::Assign(v, _) = item {
            live.push(*v);
        }
    }

    // A head the body binds has no existential variable to name (the
    // common case, spared `skolem_functors`' allocations).
    let head_bound = (rule.head.args.iter()).all(|arg| match arg {
        AtomArg::Var(v) => bound[*v as usize],
        AtomArg::Const(_) => true,
    });
    Ok(RulePlan {
        steps,
        nvars,
        existentials: if head_bound {
            Vec::new()
        } else {
            skolem_functors(rule_idx, rule, symbols)
        },
    })
}

/// Removes and returns the next body item to place: a filter, assignment
/// or negation as soon as its variables are bound, a compatibility item
/// as soon as one side is (source order among the simultaneously ready),
/// otherwise the positive atom with the smallest estimated probe
/// cardinality — among the atoms sharing a bound variable while any
/// does, so a cross product is planned only when nothing connected is
/// left (independence estimates make two constant-heavy scans look
/// cheaper than the join between them). A compatibility item with one
/// side bound is placed as its widen step and stays, to be placed again
/// as its check once both sides are bound. `remaining` is in ascending
/// source order and `min_by` keeps the first minimum, so exact ties
/// resolve to source order. `None` when nothing can be placed.
fn pick(
    rule: &Rule,
    stats: &DbStats,
    remaining: &mut Vec<usize>,
    bound: &[bool],
    widened: &[bool],
    vars: &mut Vec<VarId>,
) -> Option<usize> {
    let ready = |&i: &usize| match &rule.body[i] {
        BodyItem::Pos(_) => false,
        BodyItem::Compat([a, b, _]) => {
            let (x, y) = (free_var(a, bound), free_var(b, bound));
            x.and(y).is_none() && !x.or(y).is_some_and(|w| widened[w as usize])
        }
        item => {
            vars.clear();
            reads(item, vars);
            vars.iter().all(|&v| bound[v as usize])
        }
    };
    if let Some(k) = remaining.iter().position(ready) {
        let widen = matches!(&rule.body[remaining[k]], BodyItem::Compat([a, b, _])
            if free_var(a, bound).or(free_var(b, bound)).is_some());
        return Some(if widen {
            remaining[k]
        } else {
            remaining.remove(k)
        });
    }
    let known = |v: &VarId| bound[*v as usize] || widened[*v as usize];
    let connected = |a: &Atom| arg_vars(&a.args).any(|v| known(&v));
    let any_connected =
        (remaining.iter()).any(|&i| matches!(&rule.body[i], BodyItem::Pos(a) if connected(a)));
    let (k, _) = (remaining.iter().enumerate())
        .filter_map(|(k, &i)| match &rule.body[i] {
            BodyItem::Pos(a) if connected(a) || !any_connected => {
                Some((k, stats.estimate(a.pred, bound_mask(a, bound, widened))))
            }
            _ => None,
        })
        .min_by(|a, b| a.1.total_cmp(&b.1))?;
    Some(remaining.remove(k))
}

/// Appends the variables a body item reads to `out`: an atom's or a
/// compatibility item's, or an expression's (an assignment's target is
/// bound by it, not read).
pub(crate) fn reads(item: &BodyItem, out: &mut Vec<VarId>) {
    match item {
        BodyItem::Pos(a) | BodyItem::Neg(a) => out.extend(arg_vars(&a.args)),
        BodyItem::Compat(args) => out.extend(arg_vars(args)),
        BodyItem::Cond(e) | BodyItem::Assign(_, e) => e.collect_vars(out),
    }
}

/// The variable of `arg` when it is one `bound` does not bind yet.
fn free_var(arg: &AtomArg, bound: &[bool]) -> Option<VarId> {
    match arg {
        AtomArg::Var(v) if !bound[*v as usize] => Some(*v),
        _ => None,
    }
}

/// The mask an atom probes with: its constants and the variables bound
/// or widened so far.
fn bound_mask(atom: &Atom, bound: &[bool], widened: &[bool]) -> Mask {
    let mut mask: Mask = 0;
    for (i, arg) in atom.args.iter().enumerate() {
        let known = match arg {
            AtomArg::Const(_) => true,
            AtomArg::Var(v) => bound[*v as usize] || widened[*v as usize],
        };
        if known {
            mask |= 1 << i;
        }
    }
    mask
}

/// The prefix of every existential's Skolem functor.
const EX_FUNCTOR_PREFIX: &str = "_ex_r";

/// The Skolem functor `_ex_r{rule_idx}_{var}` of each existential head
/// variable — the one naming the evaluator and [`crate::delta`] share, so
/// the null one mints over a frontier is the one the other recomputes.
pub(crate) fn skolem_functors(
    rule_idx: usize,
    rule: &Rule,
    symbols: &SymbolTable,
) -> Vec<(VarId, Sym)> {
    rule.existential_vars()
        .into_iter()
        .map(|v| {
            let name = &rule.var_names[v as usize];
            (
                v,
                symbols.intern(&format!("{EX_FUNCTOR_PREFIX}{rule_idx}_{name}")),
            )
        })
        .collect()
}

/// Whether an assignment mints an existential's null: a Skolem term over
/// a functor [`skolem_functors`] names, as [`crate::delta`]'s rewritten
/// copies assign them. The Skolem-depth bound applies to such values as
/// it does to the nulls the evaluator invents; other Skolem terms (T_Q's
/// tuple IDs) are as deep as their derivation and stay unbounded.
pub(crate) fn invents_null(expr: &Expr, symbols: &SymbolTable) -> bool {
    matches!(expr, Expr::Skolem(f, _) if symbols.resolve(*f).starts_with(EX_FUNCTOR_PREFIX))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Database;
    use crate::parser::parse_program;
    use crate::value::Const;

    /// The body items of a compiled rule, in evaluation order.
    fn order(rp: &RulePlan) -> Vec<usize> {
        rp.steps.iter().map(Step::item_idx).collect()
    }

    /// The masks of a compiled rule's scans, in evaluation order.
    fn scan_masks(rp: &RulePlan) -> Vec<Mask> {
        (rp.steps.iter())
            .filter_map(|s| match s {
                Step::Scan { mask, .. } => Some(*mask),
                _ => None,
            })
            .collect()
    }

    /// A star join whose selective atom sits last in rule text: the
    /// planner must pull it to the front.
    fn star_fixture() -> (Database, Program) {
        let mut db = Database::new();
        let (big1, big2, tiny) = (
            db.symbols().intern("big1"),
            db.symbols().intern("big2"),
            db.symbols().intern("tiny"),
        );
        let rows: Vec<Vec<Const>> = (0..500)
            .map(|i| vec![Const::Int(i % 50), Const::Int(i)])
            .collect();
        db.load_rows(big1, &rows);
        db.load_rows(big2, &rows);
        db.load_rows(tiny, &[vec![Const::Int(7)]]);
        let prog = parse_program(
            "q(Y, Z) :- big1(X, Y), big2(X, Z), tiny(X).\n@output(\"q\").\n",
            db.symbols(),
        )
        .unwrap();
        (db, prog)
    }

    #[test]
    fn selective_atom_moves_first() {
        let (db, prog) = star_fixture();
        let stats = DbStats::collect(db.relations());
        let plan = plan_program(&prog, db.symbols(), &stats).unwrap();
        // tiny (1 row) first, then the two indexed probes on X.
        assert_eq!(order(&plan.rules[0]), vec![2, 0, 1]);
        assert_eq!(scan_masks(&plan.rules[0]), vec![0, 0b001, 0b001]);
        // The indexed probes are exactly the bound-X ones.
        let probes: Vec<_> = plan.probes(false).filter(|&(_, m)| m != 0).collect();
        let big1 = db.symbols().get("big1").unwrap();
        let big2 = db.symbols().get("big2").unwrap();
        assert_eq!(probes, vec![(big1, 0b001), (big2, 0b001)]);
    }

    #[test]
    fn fully_bound_atoms_need_no_index() {
        // Whichever of the two atoms runs second has both positions
        // bound: a membership test of the dedup table, not an index
        // probe.
        let (db, _) = star_fixture();
        let prog = parse_program("q(X, Y) :- big1(X, Y), big2(X, Y).\n", db.symbols()).unwrap();
        let stats = DbStats::collect(db.relations());
        let plan = plan_program(&prog, db.symbols(), &stats).unwrap();
        assert!(matches!(
            plan.rules[0].steps[1],
            Step::Check { present: true, .. }
        ));
        assert!(plan.probes(false).all(|(_, mask)| mask == 0));
    }

    #[test]
    fn delta_variant_pins_delta_first() {
        let mut db = Database::new();
        let e = db.symbols().intern("edge");
        let rows: Vec<Vec<Const>> = (0..20)
            .map(|i| vec![Const::Int(i), Const::Int(i + 1)])
            .collect();
        db.load_rows(e, &rows);
        let prog = parse_program(
            "tc(X, Y) :- edge(X, Y).\ntc(X, Z) :- edge(X, Y), tc(Y, Z).\n@output(\"tc\").\n",
            db.symbols(),
        )
        .unwrap();
        let stats = DbStats::collect(db.relations());
        let plan = plan_program(&prog, db.symbols(), &stats).unwrap();
        // Rule 1's only delta occurrence is tc at body item 1; the
        // variant must start there.
        let rp = &plan.delta[&(1, 1)];
        assert_eq!(order(rp)[0], 1);
        let masks = scan_masks(rp);
        assert_eq!(masks[0], 0, "delta scan is batch-driven");
        assert_ne!(masks[1], 0, "the other atom probes an index");
    }

    #[test]
    fn filters_run_at_earliest_evaluable_position() {
        let mut db = Database::new();
        let p = db.symbols().intern("p");
        let q = db.symbols().intern("q");
        let rows: Vec<Vec<Const>> = (0..100)
            .map(|i| vec![Const::Int(i), Const::Int(i)])
            .collect();
        db.load_rows(p, &rows);
        db.load_rows(q, &rows[..5]);
        // Filter mentions only X (bound by whichever atom goes first);
        // it must run before the second atom either way.
        let prog = parse_program(
            "out(X, Y) :- p(X, A), q(X, Y), A > 3.\n@output(\"out\").\n",
            db.symbols(),
        )
        .unwrap();
        let stats = DbStats::collect(db.relations());
        let plan = plan_program(&prog, db.symbols(), &stats).unwrap();
        let order = order(&plan.rules[0]);
        // q (5 rows) first, then the filter is not yet ready (A unbound),
        // p probes on X, filter last-but-ready.
        assert_eq!(order[0], 1, "smaller q leads");
        let filter_pos = order.iter().position(|&i| i == 2).unwrap();
        let p_pos = order.iter().position(|&i| i == 0).unwrap();
        assert!(filter_pos > p_pos, "filter needs A from p");
    }

    #[test]
    fn render_mentions_orders_and_masks() {
        let (db, prog) = star_fixture();
        let stats = DbStats::collect(db.relations());
        let plan = plan_program(&prog, db.symbols(), &stats).unwrap();
        let text = plan.render(&prog, db.symbols());
        assert!(text.contains("order: [2, 0, 1]"), "{text}");
        assert!(text.contains("mask=0b1"), "{text}");
        assert!(text.contains("est="), "{text}");
        assert!(text.contains("probe item 0"), "{text}");

        // `r(Z, W)` binds only variables nothing reads: it stops at the
        // first match. Of two atoms over the same variables the second
        // is a membership test.
        let prog = parse_program(
            "e(X) :- q(X), r(Z, W).\nc(X, Y) :- big1(X, Y), big2(X, Y).\n",
            db.symbols(),
        )
        .unwrap();
        let plan = plan_program(&prog, db.symbols(), &stats).unwrap();
        let text = plan.render(&prog, db.symbols());
        assert!(text.contains("exists item 1"), "{text}");
        assert!(text.contains("    check item 1"), "{text}");

        // OPTIONAL's rules (Def. A.7): the join through a compatibility
        // item, and the unmatched left rows padded with null. Every step
        // kind prints a line.
        let prog = parse_program(
            "o(X, Y) :- big1(X, A), compat(A, B, Y), big2(B, Z), Z > 3.\n\
             u(X, A, N) :- big1(X, A), not o(X, A), N = null.\n",
            db.symbols(),
        )
        .unwrap();
        let plan = plan_program(&prog, db.symbols(), &stats).unwrap();
        let text = plan.render(&prog, db.symbols());
        for line in [
            "order: [0, 1, 2, 1, 3]",
            "    compat widen item 1",
            "    probe item 2 mask=0b1 est=",
            "    compat check item 1",
            "    filter item 3",
            "    check not item 1",
            "    bind item 2",
        ] {
            assert!(text.contains(line), "{line}:\n{text}");
        }
    }

    #[test]
    fn a_plan_made_for_another_program_is_ignored() {
        use crate::eval::{evaluate_frozen, evaluate_frozen_with_plan};
        let mut db = Database::new();
        let rows: Vec<Vec<Const>> = (0..30)
            .map(|i| vec![Const::Int(i % 10), Const::Int(i)])
            .collect();
        for pred in ["e", "f", "g"] {
            let p = db.symbols().intern(pred);
            db.load_rows(p, &rows);
        }
        let base = std::sync::Arc::new(db.freeze());
        let symbols = base.symbols();
        // Same rule count and body lengths; A's second atom stops at its
        // first match, and A probes `e` where B probes `f` and `g`.
        let a = parse_program("p(X) :- e(X, Y), e(Y, Z).\nr(X) :- e(X, X).\n", symbols).unwrap();
        let b = parse_program(
            "q(X, Z) :- f(X, Y), g(Y, Z).\ns(X) :- f(X, X).\n@output(\"q\").\n",
            symbols,
        )
        .unwrap();
        let plan_a = plan_program(&a, symbols, &base.stats()).unwrap();
        let options = crate::eval::EvalOptions::default();
        let q = symbols.get("q").unwrap();
        let facts = |db: &Database| {
            let mut rows: Vec<Vec<Const>> = db
                .relation(q)
                .unwrap()
                .iter()
                .map(|t| db.decode_tuple(t))
                .collect();
            rows.sort();
            rows
        };
        let (unplanned, _) = evaluate_frozen(&b, &base, &options).unwrap();
        let (misplanned, _) =
            evaluate_frozen_with_plan(&b, &base, &options, Some(&plan_a)).unwrap();
        assert_eq!(facts(&misplanned), facts(&unplanned));
        assert_eq!(facts(&unplanned).len(), 30);
    }

    #[test]
    fn unsafe_rule_is_an_error_not_a_panic() {
        let db = Database::new();
        let prog = parse_program("p(X) :- q(Y), X > 3.\n", db.symbols()).unwrap();
        let err = plan_program(&prog, db.symbols(), &DbStats::default()).unwrap_err();
        assert_eq!(
            err,
            EvalError::Unsafe("rule 0: variable X unbound in condition".into())
        );
        // A compatibility item needs one side bound before it and an atom
        // binding the other.
        for (src, message) in [
            (
                "p(V) :- compat(A, B, V), q(A), q(B).\n",
                "rule 0: variable A unbound in compatibility",
            ),
            (
                "p(V) :- q(A), compat(A, B, V).\n",
                "rule 0: no atom binds a side of compatibility item 1",
            ),
        ] {
            let prog = parse_program(src, db.symbols()).unwrap();
            let err = plan_program(&prog, db.symbols(), &DbStats::default()).unwrap_err();
            assert_eq!(err, EvalError::Unsafe(message.into()));
        }
    }
}
