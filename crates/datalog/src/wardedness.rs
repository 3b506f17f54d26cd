//! Wardedness analysis for Datalog± programs (Arenas–Gottlob–Pieris).
//!
//! The paper's §3.2 gives the intuition implemented here:
//!
//! 1. A position `p[i]` is **affected** if the chase may introduce a
//!    labelled null there: either a head position holding an existential
//!    variable, or a head position holding a variable all of whose body
//!    occurrences are at affected positions (computed to fixpoint).
//! 2. A variable is **dangerous** in a rule if it occurs in the head and
//!    *all* of its body occurrences are at affected positions.
//! 3. A program is **warded** if every rule either has no dangerous
//!    variables, or all of them occur in a single body atom (the *ward*)
//!    whose variables shared with the rest of the body appear in at least
//!    one non-affected position.
//!
//! The analysis is advisory: the engine evaluates any stratified program;
//! this module lets tests assert that the SPARQL translation produces
//! warded programs, as the paper claims.

use crate::fxhash::FxHashSet;
use crate::rule::{Atom, AtomArg, BodyItem, Program, Rule, VarId};
use crate::symbols::{Sym, SymbolTable};

/// The result of a wardedness check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WardednessReport {
    /// True if every rule is warded.
    pub warded: bool,
    /// Human-readable violations (empty iff `warded`).
    pub violations: Vec<String>,
    /// The affected positions `(predicate, position)` found.
    pub affected: Vec<(Sym, usize)>,
}

/// Runs the wardedness analysis.
pub fn check_wardedness(program: &Program, symbols: &SymbolTable) -> WardednessReport {
    let affected = affected_positions(program);
    let mut violations = Vec::new();

    for (idx, rule) in program.rules.iter().enumerate() {
        if let Some(v) = check_rule(rule, &affected, symbols) {
            violations.push(format!("rule {idx}: {v}"));
        }
    }

    WardednessReport {
        warded: violations.is_empty(),
        violations,
        affected: affected.iter().copied().collect(),
    }
}

/// Computes the affected positions of the program to fixpoint.
fn affected_positions(program: &Program) -> FxHashSet<(Sym, usize)> {
    let mut affected: FxHashSet<(Sym, usize)> = FxHashSet::default();

    // Base case: head positions of existential variables. Assignments from
    // Skolem-constructor expressions count as existentials too — they are
    // exactly how the engine realises ∃-variables.
    for rule in &program.rules {
        let existential = existential_like_vars(rule);
        for (i, arg) in rule.head.args.iter().enumerate() {
            if let AtomArg::Var(v) = arg {
                if existential.contains(v) {
                    affected.insert((rule.head.pred, i));
                }
            }
        }
    }

    // Propagation: a head position of a frontier variable is affected if
    // every body occurrence of that variable is at an affected position.
    loop {
        let mut changed = false;
        for rule in &program.rules {
            for (i, arg) in rule.head.args.iter().enumerate() {
                let AtomArg::Var(v) = arg else { continue };
                let pos = (rule.head.pred, i);
                if !affected.contains(&pos) && only_affected(rule, *v, &affected) {
                    affected.insert(pos);
                    changed = true;
                }
            }
        }
        if !changed {
            return affected;
        }
    }
}

/// Variables treated as existential for the analysis: true existential head
/// variables plus variables assigned from a Skolem constructor.
fn existential_like_vars(rule: &Rule) -> FxHashSet<VarId> {
    let mut out: FxHashSet<VarId> = rule.existential_vars().into_iter().collect();
    for item in &rule.body {
        if let BodyItem::Assign(v, e) = item {
            if matches!(e, crate::expr::Expr::Skolem(_, _)) {
                out.insert(*v);
            }
        }
    }
    out
}

/// True when `v` occurs in the body only at affected positions of
/// positive atoms. A compatibility item reads no relation; its
/// positions count as unaffected, like an extensional atom's.
fn only_affected(rule: &Rule, v: VarId, affected: &FxHashSet<(Sym, usize)>) -> bool {
    let mut seen = false;
    for item in &rule.body {
        let (pred, args) = match item {
            BodyItem::Pos(a) => (Some(a.pred), &a.args[..]),
            BodyItem::Compat(args) => (None, &args[..]),
            _ => continue,
        };
        for (i, arg) in args.iter().enumerate() {
            if *arg == AtomArg::Var(v) {
                seen = true;
                if !pred.is_some_and(|p| affected.contains(&(p, i))) {
                    return false;
                }
            }
        }
    }
    seen
}

/// Checks one rule; returns a violation description if it is not warded.
fn check_rule(
    rule: &Rule,
    affected: &FxHashSet<(Sym, usize)>,
    symbols: &SymbolTable,
) -> Option<String> {
    // Dangerous variables: occur in the head, and all body occurrences are
    // at affected positions.
    let head_vars: FxHashSet<VarId> = rule.head.vars().into_iter().collect();
    let mut dangerous: Vec<VarId> = Vec::new();
    for &v in &head_vars {
        if only_affected(rule, v, affected) {
            dangerous.push(v);
        }
    }
    if dangerous.is_empty() {
        return None;
    }

    // All dangerous variables must occur in a single body atom (the ward).
    let positive_atoms: Vec<&Atom> = rule
        .body
        .iter()
        .filter_map(|i| match i {
            BodyItem::Pos(a) => Some(a),
            _ => None,
        })
        .collect();

    'candidates: for ward in &positive_atoms {
        let ward_vars: FxHashSet<VarId> = ward.vars().into_iter().collect();
        if !dangerous.iter().all(|v| ward_vars.contains(v)) {
            continue;
        }
        // Variables shared between the ward and the rest of the body must
        // occur somewhere at a non-affected position.
        for other in &positive_atoms {
            if std::ptr::eq(*other, *ward) {
                continue;
            }
            for v in other.vars() {
                if !ward_vars.contains(&v) {
                    continue;
                }
                if only_affected(rule, v, affected) {
                    continue 'candidates;
                }
            }
        }
        return None; // this atom is a valid ward
    }

    let names: Vec<String> = dangerous
        .iter()
        .map(|v| {
            rule.var_names
                .get(*v as usize)
                .cloned()
                .unwrap_or_else(|| format!("V{v}"))
        })
        .collect();
    Some(format!(
        "dangerous variables {{{}}} of head {} have no ward",
        names.join(", "),
        symbols.resolve(rule.head.pred)
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::RuleBuilder;
    use crate::symbols::SymbolTable;

    #[test]
    fn plain_datalog_is_warded() {
        let t = SymbolTable::new();
        let mut prog = Program::new();
        let mut b = RuleBuilder::new();
        let (hx, hy) = (b.v("X"), b.v("Y"));
        b.head(t.intern("tc"), vec![hx, hy]);
        let (x, y) = (b.v("X"), b.v("Y"));
        b.pos(t.intern("edge"), vec![x, y]);
        prog.rules.push(b.build());
        let report = check_wardedness(&prog, &t);
        assert!(report.warded, "{:?}", report.violations);
        assert!(report.affected.is_empty());
    }

    #[test]
    fn existential_head_marks_affected_positions() {
        let t = SymbolTable::new();
        let mut prog = Program::new();
        // ∃Z p(X, Z) :- q(X).
        let mut b = RuleBuilder::new();
        let (hx, hz) = (b.v("X"), b.v("Z"));
        b.head(t.intern("p"), vec![hx, hz]);
        let x = b.v("X");
        b.pos(t.intern("q"), vec![x]);
        prog.rules.push(b.build());
        let report = check_wardedness(&prog, &t);
        assert!(report.warded);
        assert!(report.affected.contains(&(t.intern("p"), 1)));
        assert!(!report.affected.contains(&(t.intern("p"), 0)));
    }

    #[test]
    fn null_propagation_through_single_atom_is_warded() {
        let t = SymbolTable::new();
        let mut prog = Program::new();
        // ∃Z p(X, Z) :- q(X).
        let mut b = RuleBuilder::new();
        let (hx, hz) = (b.v("X"), b.v("Z"));
        b.head(t.intern("p"), vec![hx, hz]);
        let x = b.v("X");
        b.pos(t.intern("q"), vec![x]);
        prog.rules.push(b.build());
        // r(Z) :- p(X, Z).   Z is dangerous, ward = p(X,Z). OK.
        let mut b = RuleBuilder::new();
        let hz = b.v("Z");
        b.head(t.intern("r"), vec![hz]);
        let (x, z) = (b.v("X"), b.v("Z"));
        b.pos(t.intern("p"), vec![x, z]);
        prog.rules.push(b.build());
        let report = check_wardedness(&prog, &t);
        assert!(report.warded, "{:?}", report.violations);
    }

    #[test]
    fn dangerous_join_on_affected_position_is_not_warded() {
        let t = SymbolTable::new();
        let mut prog = Program::new();
        // ∃Z p(X, Z) :- q(X).
        let mut b = RuleBuilder::new();
        let (hx, hz) = (b.v("X"), b.v("Z"));
        b.head(t.intern("p"), vec![hx, hz]);
        let x = b.v("X");
        b.pos(t.intern("q"), vec![x]);
        prog.rules.push(b.build());
        // bad(Z) :- p(X, Z), p(Y, Z).
        // Z is dangerous and shared between two atoms only at affected
        // positions — the classic non-warded shape.
        let mut b = RuleBuilder::new();
        let hz = b.v("Z");
        b.head(t.intern("bad"), vec![hz]);
        let (x, z1) = (b.v("X"), b.v("Z"));
        b.pos(t.intern("p"), vec![x, z1]);
        let (y, z2) = (b.v("Y"), b.v("Z"));
        b.pos(t.intern("p"), vec![y, z2]);
        prog.rules.push(b.build());
        let report = check_wardedness(&prog, &t);
        assert!(!report.warded);
        assert_eq!(report.violations.len(), 1);
        assert!(report.violations[0].contains("bad"));
    }

    #[test]
    fn skolem_assignment_counts_as_existential() {
        let t = SymbolTable::new();
        let mut prog = Program::new();
        // p(Id, X) :- q(X), Id = skolem(f, X).  Position p[0] is affected.
        let mut b = RuleBuilder::new();
        let (hid, hx) = (b.v("Id"), b.v("X"));
        b.head(t.intern("p"), vec![hid, hx]);
        let x = b.v("X");
        b.pos(t.intern("q"), vec![x]);
        let id = b.var("Id");
        let xv = b.var("X");
        b.assign(
            id,
            crate::expr::Expr::Skolem(t.intern("f"), vec![crate::expr::Expr::Var(xv)]),
        );
        prog.rules.push(b.build());
        let report = check_wardedness(&prog, &t);
        assert!(report.warded);
        assert!(report.affected.contains(&(t.intern("p"), 0)));
    }

    #[test]
    fn affected_propagates_transitively() {
        let t = SymbolTable::new();
        let mut prog = Program::new();
        // ∃Z p(Z) :- q(X).
        let mut b = RuleBuilder::new();
        let hz = b.v("Z");
        b.head(t.intern("p"), vec![hz]);
        let x = b.v("X");
        b.pos(t.intern("q"), vec![x]);
        prog.rules.push(b.build());
        // r(Z) :- p(Z).   r[0] becomes affected transitively.
        let mut b = RuleBuilder::new();
        let hz = b.v("Z");
        b.head(t.intern("r"), vec![hz]);
        let z = b.v("Z");
        b.pos(t.intern("p"), vec![z]);
        prog.rules.push(b.build());
        let report = check_wardedness(&prog, &t);
        assert!(report.affected.contains(&(t.intern("r"), 0)));
    }
}
