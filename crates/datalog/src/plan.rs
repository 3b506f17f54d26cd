//! The cost-based physical planner: statistics-driven join ordering.
//!
//! Sitting between translation and evaluation, [`plan_program`] computes
//! for every rule body an evaluation order by greedy selectivity search:
//! starting from the bound set (constants, then variables bound by
//! already-placed atoms), it repeatedly places the positive atom with the
//! smallest estimated probe cardinality ([`DbStats::estimate`] — rows
//! divided by the distinct counts of the bound positions), preferring
//! atoms that share a bound variable over cross products, and pushes
//! filter conditions, assignments and negation checks to the earliest
//! position at which all their variables are bound. Each placed atom also
//! records the exact `(pred, mask)` hash index its probe will use, so a
//! frozen snapshot can build precisely the indexes live plans name
//! instead of all `2^arity - 1` masks.
//!
//! Semi-naive delta variants get their own orders (one per positive body
//! occurrence of a stratum-written predicate) with the delta atom pinned
//! first — the delta-first constraint of semi-naive evaluation — and the
//! rest ordered by the same greedy search.
//!
//! The orders are *advice*: [`crate::eval`]'s `compile_rule` recomputes
//! masks and re-verifies rule safety from whatever order it is handed, so
//! a stale or mismatched plan can cost performance but never correctness.

use crate::database::Mask;
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::rule::{AtomArg, BodyItem, Program, Rule};
use crate::stats::DbStats;
use crate::stratify::{stratify, StratifyError};
use crate::symbols::{Sym, SymbolTable};

/// The planned probe of one positive body atom.
#[derive(Debug, Clone)]
pub struct AtomPlan {
    /// Index of the atom in the rule's body (source position).
    pub item_idx: usize,
    /// The probed predicate.
    pub pred: Sym,
    /// Bound-position mask of the probe (0 = full scan; for a pinned
    /// delta atom the scan is batch-driven and the mask is 0).
    pub mask: Mask,
    /// Every position is bound: the probe is a membership test of the
    /// relation's dedup table and needs no index.
    pub check: bool,
    /// Estimated probe output cardinality at planning time.
    pub estimate: f64,
}

/// A planned evaluation order for one rule body.
#[derive(Debug, Clone)]
pub struct RuleOrder {
    /// Body item indices in evaluation order (all items, not only atoms).
    pub order: Vec<usize>,
    /// Probe plans of the positive atoms, in evaluation order.
    pub atoms: Vec<AtomPlan>,
}

/// A physical plan for a program: per-rule body orders for the naive
/// pass, per-`(rule, delta occurrence)` orders for the semi-naive
/// rounds, and the index masks they probe.
#[derive(Debug, Clone)]
pub struct ProgramPlan {
    /// One order per program rule (parallel to `program.rules`).
    pub rules: Vec<RuleOrder>,
    /// Delta-variant orders, keyed by `(rule index, body item index of
    /// the delta occurrence)`.
    pub delta: FxHashMap<(usize, usize), RuleOrder>,
}

impl ProgramPlan {
    /// The distinct `(pred, mask)` hash indexes the plan's probes use —
    /// what a frozen snapshot needs eagerly built for this plan to run
    /// at full speed.
    pub fn index_needs(&self) -> Vec<(Sym, Mask)> {
        let mut out: Vec<(Sym, Mask)> = Vec::new();
        let atoms = self
            .rules
            .iter()
            .chain(self.delta.values())
            .flat_map(|r| r.atoms.iter());
        for a in atoms {
            if a.mask != 0 && !a.check && !out.contains(&(a.pred, a.mask)) {
                out.push((a.pred, a.mask));
            }
        }
        out
    }

    /// Renders the plan for humans: per rule the chosen atom order, probe
    /// masks and cardinality estimates — the payload of the serving
    /// layer's `explain`.
    pub fn render(&self, program: &Program, symbols: &SymbolTable) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for (ri, (rule, ro)) in program.rules.iter().zip(&self.rules).enumerate() {
            let _ = writeln!(out, "rule {ri}: {}", rule.display(symbols));
            render_order(&mut out, ro);
            for ((r2, di), dro) in self.delta.iter().filter(|((r2, _), _)| *r2 == ri) {
                let _ = writeln!(out, "  delta variant (rule {r2}, body item {di}):");
                render_order(&mut out, dro);
            }
        }
        out
    }
}

fn render_order(out: &mut String, ro: &RuleOrder) {
    use std::fmt::Write;
    let _ = writeln!(out, "  order: {:?}", ro.order);
    for a in &ro.atoms {
        let probe = if a.check { "check" } else { "probe" };
        let _ = writeln!(
            out,
            "    {probe} item {} mask={:#b} est={:.1}",
            a.item_idx, a.mask, a.estimate
        );
    }
}

/// Plans every rule of `program` against `stats`: greedy selectivity
/// ordering for the naive pass plus delta-pinned variants for the
/// semi-naive rounds. Fails only if the program does not stratify (the
/// same error evaluation itself would report).
pub fn plan_program(
    program: &Program,
    symbols: &SymbolTable,
    stats: &DbStats,
) -> Result<ProgramPlan, StratifyError> {
    let strat = stratify(program, symbols)?;
    let rules = program
        .rules
        .iter()
        .map(|r| order_body(r, stats, None))
        .collect();
    let mut delta = FxHashMap::default();
    for stratum in &strat.strata {
        let writes: FxHashSet<Sym> = strat.stratum_writes(stratum).into_iter().collect();
        for &ri in stratum {
            let rule = &program.rules[ri];
            if rule.aggregate.is_some() {
                continue;
            }
            for di in rule.positive_occurrences_of(&writes) {
                delta.insert((ri, di), order_body(rule, stats, Some(di)));
            }
        }
    }
    Ok(ProgramPlan { rules, delta })
}

/// True when a non-atom body item's variables are all bound.
fn ready(item: &BodyItem, bound: &[bool]) -> bool {
    match item {
        BodyItem::Cond(e) | BodyItem::Assign(_, e) => {
            let mut vs = Vec::new();
            e.collect_vars(&mut vs);
            vs.iter().all(|&v| bound[v as usize])
        }
        BodyItem::Neg(a) => a.vars().iter().all(|&v| bound[v as usize]),
        BodyItem::Pos(_) => false,
    }
}

/// The bound-position mask an atom would probe with under `bound`.
fn bound_mask(atom: &crate::rule::Atom, bound: &[bool]) -> Mask {
    let mut mask: Mask = 0;
    for (i, arg) in atom.args.iter().enumerate() {
        match arg {
            AtomArg::Const(_) => mask |= 1 << i,
            AtomArg::Var(v) => {
                if bound[*v as usize] {
                    mask |= 1 << i;
                }
            }
        }
    }
    mask
}

/// Greedy selectivity ordering of one rule body. With `pinned =
/// Some(di)`, body item `di` (the delta occurrence) is placed first —
/// its scan is driven by the delta batch, not an index probe.
fn order_body(rule: &Rule, stats: &DbStats, pinned: Option<usize>) -> RuleOrder {
    let n = rule.body.len();
    let mut bound = vec![false; rule.var_names.len()];
    let mut order = Vec::with_capacity(n);
    let mut atoms = Vec::new();
    let mut remaining: Vec<usize> = (0..n).collect();

    if let Some(di) = pinned {
        remaining.retain(|&i| i != di);
        if let BodyItem::Pos(a) = &rule.body[di] {
            for v in a.vars() {
                bound[v as usize] = true;
            }
            atoms.push(AtomPlan {
                item_idx: di,
                pred: a.pred,
                mask: 0,
                check: false,
                estimate: 0.0,
            });
        }
        order.push(di);
    }

    while !remaining.is_empty() {
        // Filters, assignments and negation checks run as soon as their
        // variables are bound (earliest evaluable position, source order
        // among the simultaneously ready).
        if let Some(k) = remaining.iter().position(|&i| ready(&rule.body[i], &bound)) {
            let i = remaining.remove(k);
            if let BodyItem::Assign(v, _) = &rule.body[i] {
                bound[*v as usize] = true;
            }
            order.push(i);
            continue;
        }
        // Otherwise the positive atom with the smallest estimated probe
        // cardinality under the current bound set — among the atoms
        // sharing a bound variable while any does, so a cross product is
        // planned only when nothing connected is left (independence
        // estimates make two constant-heavy scans look cheaper than the
        // join between them). `remaining` is in ascending source order
        // and `min_by` keeps the first minimum, so exact ties resolve to
        // source order.
        let connected = |a: &crate::rule::Atom| {
            a.args
                .iter()
                .any(|arg| matches!(arg, AtomArg::Var(v) if bound[*v as usize]))
        };
        let any_connected = remaining
            .iter()
            .any(|&i| matches!(&rule.body[i], BodyItem::Pos(a) if connected(a)));
        let (k, mask, est) = remaining
            .iter()
            .enumerate()
            .filter_map(|(k, &i)| match &rule.body[i] {
                BodyItem::Pos(a) if connected(a) || !any_connected => {
                    let mask = bound_mask(a, &bound);
                    Some((k, mask, stats.estimate(a.pred, mask)))
                }
                _ => None,
            })
            .min_by(|a, b| a.2.total_cmp(&b.2))
            .expect("unplaced non-atom item has variables no remaining atom binds");
        let i = remaining.remove(k);
        if let BodyItem::Pos(a) = &rule.body[i] {
            for v in a.vars() {
                bound[v as usize] = true;
            }
            atoms.push(AtomPlan {
                item_idx: i,
                pred: a.pred,
                mask,
                check: mask.count_ones() as usize == a.args.len(),
                estimate: est,
            });
        }
        order.push(i);
    }

    RuleOrder { order, atoms }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Database;
    use crate::parser::parse_program;
    use crate::value::Const;

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
        assert_eq!(plan.rules[0].order, vec![2, 0, 1]);
        let masks: Vec<Mask> = plan.rules[0].atoms.iter().map(|a| a.mask).collect();
        assert_eq!(masks, vec![0, 0b001, 0b001]);
        // Index needs name exactly the bound-X probes.
        let needs = plan.index_needs();
        let big1 = db.symbols().get("big1").unwrap();
        let big2 = db.symbols().get("big2").unwrap();
        assert!(needs.contains(&(big1, 0b001)) && needs.contains(&(big2, 0b001)));
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
        let second = &plan.rules[0].atoms[1];
        assert!(second.check && second.mask == 0b11);
        assert!(plan.index_needs().is_empty());
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
        let ro = &plan.delta[&(1, 1)];
        assert_eq!(ro.order[0], 1);
        assert_eq!(ro.atoms[0].mask, 0, "delta scan is batch-driven");
        assert_ne!(ro.atoms[1].mask, 0, "the other atom probes an index");
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
        let order = &plan.rules[0].order;
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
    }
}
