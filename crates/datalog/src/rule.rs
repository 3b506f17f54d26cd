//! Rules, atoms and programs.

use crate::expr::Expr;
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::symbols::{Sym, SymbolTable};
use crate::value::Const;

/// A rule-local variable id (index into [`Rule::var_names`]).
pub type VarId = u32;

/// One argument position of an atom: a variable or a constant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AtomArg {
    /// A variable position.
    Var(VarId),
    /// A constant position.
    Const(Const),
}

/// A predicate applied to arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Atom {
    /// The predicate symbol.
    pub pred: Sym,
    /// The argument positions, constants or variables.
    pub args: Vec<AtomArg>,
}

impl Atom {
    /// Creates an atom `pred(args...)`.
    pub fn new(pred: Sym, args: Vec<AtomArg>) -> Self {
        Atom { pred, args }
    }

    /// The distinct variables of the atom.
    pub fn vars(&self) -> Vec<VarId> {
        let mut out = Vec::new();
        for v in arg_vars(&self.args) {
            if !out.contains(&v) {
                out.push(v);
            }
        }
        out
    }
}

/// One element of a rule body.
#[derive(Debug, Clone, PartialEq)]
pub enum BodyItem {
    /// A positive atom.
    Pos(Atom),
    /// A negated atom (`not p(...)`). All its variables must be bound by
    /// earlier positive items (safe negation).
    Neg(Atom),
    /// A filter condition; evaluated once all its variables are bound.
    Cond(Expr),
    /// An assignment `V = expr` binding a fresh variable. This is how the
    /// translation constructs Skolem tuple IDs (`ID = ["f2", X, ...]`).
    Assign(VarId, Expr),
    /// `compat(a, b, v)`, the paper's `comp/3` (Def. A.2) as a comparison
    /// of values: `a` and `b` are compatible when equal or either is
    /// null, and `v` is the non-null one. One side must be bound before
    /// it, and a positive atom must bind the other.
    Compat([AtomArg; 3]),
}

/// The variables among `args`, in order (repeats kept).
pub(crate) fn arg_vars(args: &[AtomArg]) -> impl Iterator<Item = VarId> + '_ {
    args.iter().filter_map(|arg| match arg {
        AtomArg::Var(v) => Some(*v),
        AtomArg::Const(_) => None,
    })
}

/// Aggregate functions (Vadalog-style post-fixpoint aggregation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// Row count (`COUNT`).
    Count,
    /// Numeric sum (`SUM`); integral when every input is integral.
    Sum,
    /// Minimum under the engine's total term order (`MIN`).
    Min,
    /// Maximum under the engine's total term order (`MAX`).
    Max,
    /// Numeric mean (`AVG`).
    Avg,
}

/// An aggregation attached to a rule: the rule's matches are grouped by all
/// head variables except `result_var`, and `func` is applied to `input`
/// within each group (`input = None` counts rows).
#[derive(Debug, Clone, PartialEq)]
pub struct AggSpec {
    /// The aggregate function.
    pub func: AggFunc,
    /// Collapse duplicate inputs before aggregating (`DISTINCT`).
    pub distinct: bool,
    /// The aggregated expression; `None` counts rows.
    pub input: Option<Expr>,
    /// The head variable receiving the aggregate result.
    pub result_var: VarId,
}

/// A Datalog± rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// The head atom being derived.
    pub head: Atom,
    /// The body items, evaluated left to right.
    pub body: Vec<BodyItem>,
    /// Aggregation spec, if this is an aggregate rule.
    pub aggregate: Option<AggSpec>,
    /// Debug names of the rule's variables, indexed by [`VarId`].
    pub var_names: Vec<String>,
}

impl Rule {
    /// Head variables that are bound nowhere in the body: these are the
    /// *existential* variables (∃z in the paper's notation). The engine
    /// Skolemises them over the rule's frontier.
    pub fn existential_vars(&self) -> Vec<VarId> {
        let mut bound = Vec::new();
        for item in &self.body {
            match item {
                BodyItem::Pos(a) => bound.extend(a.vars()),
                BodyItem::Compat(args) => bound.extend(arg_vars(args)),
                BodyItem::Assign(v, _) => bound.push(*v),
                _ => {}
            }
        }
        if let Some(agg) = &self.aggregate {
            bound.push(agg.result_var);
        }
        self.head
            .vars()
            .into_iter()
            .filter(|v| !bound.contains(v))
            .collect()
    }

    /// The frontier: head variables that *are* bound in the body.
    pub fn frontier_vars(&self) -> Vec<VarId> {
        let ex = self.existential_vars();
        self.head
            .vars()
            .into_iter()
            .filter(|v| !ex.contains(v))
            .collect()
    }

    /// The rule's *read set*: every predicate its body consults (positive
    /// and negated atoms). Together with [`Rule::write_pred`] this is the
    /// dependency metadata the evaluator's snapshot passes rely on: rules
    /// evaluated in the same pass only read the database as the pass found
    /// it, and their writes are applied by the merge — so two rules of a
    /// pass are independent exactly because no read set can observe
    /// another rule's in-flight writes.
    pub fn read_preds(&self) -> Vec<Sym> {
        let mut out = Vec::new();
        for item in &self.body {
            if let BodyItem::Pos(a) | BodyItem::Neg(a) = item {
                if !out.contains(&a.pred) {
                    out.push(a.pred);
                }
            }
        }
        out
    }

    /// The rule's *write set*: the single predicate it derives into.
    pub fn write_pred(&self) -> Sym {
        self.head.pred
    }

    /// The body positions at which this rule positively reads any
    /// predicate in `preds` — the occurrences a semi-naive round
    /// restricts to a delta.
    pub fn positive_occurrences_of(&self, preds: &FxHashSet<Sym>) -> Vec<usize> {
        self.body
            .iter()
            .enumerate()
            .filter_map(|(i, item)| match item {
                BodyItem::Pos(a) if preds.contains(&a.pred) => Some(i),
                _ => None,
            })
            .collect()
    }

    /// Renders the rule in textual Datalog syntax for debugging.
    pub fn display(&self, symbols: &SymbolTable) -> String {
        let fmt_arg = |a: &AtomArg| match a {
            AtomArg::Var(v) => self
                .var_names
                .get(*v as usize)
                .cloned()
                .unwrap_or_else(|| format!("V{v}")),
            AtomArg::Const(c) => c.display(symbols),
        };
        let fmt_atom = |a: &Atom| {
            let args: Vec<String> = a.args.iter().map(fmt_arg).collect();
            format!("{}({})", symbols.resolve(a.pred), args.join(", "))
        };
        let mut parts = Vec::new();
        for item in &self.body {
            match item {
                BodyItem::Pos(a) => parts.push(fmt_atom(a)),
                BodyItem::Neg(a) => parts.push(format!("not {}", fmt_atom(a))),
                BodyItem::Cond(e) => parts.push(e.display(&self.var_names, symbols)),
                BodyItem::Assign(v, e) => parts.push(format!(
                    "{} = {}",
                    self.var_names
                        .get(*v as usize)
                        .cloned()
                        .unwrap_or_else(|| format!("V{v}")),
                    e.display(&self.var_names, symbols)
                )),
                BodyItem::Compat(args) => {
                    let args: Vec<String> = args.iter().map(fmt_arg).collect();
                    parts.push(format!("compat({})", args.join(", ")))
                }
            }
        }
        if self.body.is_empty() {
            format!("{}.", fmt_atom(&self.head))
        } else {
            format!("{} :- {}.", fmt_atom(&self.head), parts.join(", "))
        }
    }
}

/// A complete Datalog± program: rules, base facts, output directives.
#[derive(Debug, Default, Clone)]
pub struct Program {
    /// The rules, in source order.
    pub rules: Vec<Rule>,
    /// Ground facts (EDB) bundled with the program.
    pub facts: Vec<(Sym, Vec<Const>)>,
    /// `@output` predicates.
    pub outputs: Vec<Sym>,
}

impl Program {
    /// Creates an empty program.
    pub fn new() -> Self {
        Program::default()
    }

    /// All predicates appearing in rule heads (IDB predicates).
    pub fn idb_predicates(&self) -> Vec<Sym> {
        let mut out = Vec::new();
        for r in &self.rules {
            if !out.contains(&r.head.pred) {
                out.push(r.head.pred);
            }
        }
        out
    }

    /// Renders the whole program for debugging.
    pub fn display(&self, symbols: &SymbolTable) -> String {
        let mut out = String::new();
        for (pred, args) in &self.facts {
            let rendered: Vec<String> = args.iter().map(|c| c.display(symbols)).collect();
            out.push_str(&format!(
                "{}({}).\n",
                symbols.resolve(*pred),
                rendered.join(", ")
            ));
        }
        for r in &self.rules {
            out.push_str(&r.display(symbols));
            out.push('\n');
        }
        for o in &self.outputs {
            out.push_str(&format!("@output(\"{}\").\n", symbols.resolve(*o)));
        }
        out
    }
}

/// A convenience builder that maps variable *names* to [`VarId`]s while
/// assembling a rule. Used heavily by the SPARQL translator.
pub struct RuleBuilder {
    vars: FxHashMap<String, VarId>,
    var_names: Vec<String>,
    head: Option<Atom>,
    body: Vec<BodyItem>,
    aggregate: Option<AggSpec>,
}

impl Default for RuleBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl RuleBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        RuleBuilder {
            vars: FxHashMap::default(),
            var_names: Vec::new(),
            head: None,
            body: Vec::new(),
            aggregate: None,
        }
    }

    /// Returns (interning if needed) the id of the named variable.
    pub fn var(&mut self, name: &str) -> VarId {
        if let Some(&v) = self.vars.get(name) {
            return v;
        }
        let v = self.var_names.len() as VarId;
        self.var_names.push(name.to_string());
        self.vars.insert(name.to_string(), v);
        v
    }

    /// Shorthand for `AtomArg::Var(self.var(name))`.
    pub fn v(&mut self, name: &str) -> AtomArg {
        AtomArg::Var(self.var(name))
    }

    /// Sets the head atom.
    pub fn head(&mut self, pred: Sym, args: Vec<AtomArg>) -> &mut Self {
        self.head = Some(Atom::new(pred, args));
        self
    }

    /// Appends a positive body atom.
    pub fn pos(&mut self, pred: Sym, args: Vec<AtomArg>) -> &mut Self {
        self.body.push(BodyItem::Pos(Atom::new(pred, args)));
        self
    }

    /// Appends a negated body atom.
    pub fn neg(&mut self, pred: Sym, args: Vec<AtomArg>) -> &mut Self {
        self.body.push(BodyItem::Neg(Atom::new(pred, args)));
        self
    }

    /// Appends a filter condition.
    pub fn cond(&mut self, e: Expr) -> &mut Self {
        self.body.push(BodyItem::Cond(e));
        self
    }

    /// Appends an assignment.
    pub fn assign(&mut self, var: VarId, e: Expr) -> &mut Self {
        self.body.push(BodyItem::Assign(var, e));
        self
    }

    /// Appends a compatibility item `compat(a, b, v)`.
    pub fn compat(&mut self, a: AtomArg, b: AtomArg, v: AtomArg) -> &mut Self {
        self.body.push(BodyItem::Compat([a, b, v]));
        self
    }

    /// Attaches an aggregation.
    pub fn aggregate(&mut self, spec: AggSpec) -> &mut Self {
        self.aggregate = Some(spec);
        self
    }

    /// Finalises the rule. Panics if no head was set.
    pub fn build(self) -> Rule {
        Rule {
            head: self.head.expect("RuleBuilder: head not set"),
            body: self.body,
            aggregate: self.aggregate,
            var_names: self.var_names,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbols::SymbolTable;

    #[test]
    fn builder_interns_vars() {
        let t = SymbolTable::new();
        let p = t.intern("p");
        let q = t.intern("q");
        let mut b = RuleBuilder::new();
        let x1 = b.var("X");
        let x2 = b.var("X");
        let y = b.var("Y");
        assert_eq!(x1, x2);
        assert_ne!(x1, y);
        let (hx, hy) = (b.v("X"), b.v("Y"));
        b.head(p, vec![hx, hy]);
        let (bx, by) = (b.v("X"), b.v("Y"));
        b.pos(q, vec![bx, by]);
        let r = b.build();
        assert_eq!(r.var_names, vec!["X", "Y"]);
        assert!(r.existential_vars().is_empty());
        assert_eq!(r.frontier_vars().len(), 2);
    }

    #[test]
    fn existential_detection() {
        let t = SymbolTable::new();
        let p = t.intern("p");
        let q = t.intern("q");
        // ∃Z p(X, Z) :- q(X).
        let mut b = RuleBuilder::new();
        let (hx, hz) = (b.v("X"), b.v("Z"));
        b.head(p, vec![hx, hz]);
        let bx = b.v("X");
        b.pos(q, vec![bx]);
        let r = b.build();
        assert_eq!(r.existential_vars(), vec![1]);
        assert_eq!(r.frontier_vars(), vec![0]);
    }

    #[test]
    fn assigned_vars_are_not_existential() {
        let t = SymbolTable::new();
        let p = t.intern("p");
        let q = t.intern("q");
        let f = t.intern("f");
        // p(Id, X) :- q(X), Id = skolem(f, X).
        let mut b = RuleBuilder::new();
        let (hid, hx) = (b.v("Id"), b.v("X"));
        b.head(p, vec![hid, hx]);
        let bx = b.v("X");
        b.pos(q, vec![bx]);
        let id = b.var("Id");
        let x = b.var("X");
        b.assign(id, Expr::Skolem(f, vec![Expr::Var(x)]));
        let r = b.build();
        assert!(r.existential_vars().is_empty());
    }

    #[test]
    fn display_rule() {
        let t = SymbolTable::new();
        let p = t.intern("p");
        let q = t.intern("q");
        let mut b = RuleBuilder::new();
        let hx = b.v("X");
        b.head(p, vec![hx]);
        let bx = b.v("X");
        b.pos(q, vec![bx.clone()]);
        b.neg(p, vec![bx]);
        let r = b.build();
        assert_eq!(r.display(&t), "p(X) :- q(X), not p(X).");
    }

    #[test]
    fn program_idb_predicates() {
        let t = SymbolTable::new();
        let p = t.intern("p");
        let q = t.intern("q");
        let mut prog = Program::new();
        let mut b = RuleBuilder::new();
        let hx = b.v("X");
        b.head(p, vec![hx]);
        let bx = b.v("X");
        b.pos(q, vec![bx]);
        prog.rules.push(b.build());
        assert_eq!(prog.idb_predicates(), vec![p]);
    }
}
