//! Datalog → Datalog rewrites run between the SPARQL translation and the
//! planner: [`unfold_and_unify`].
//!
//! T_Q gives every algebra operator its own predicate, so a basic graph
//! pattern of `n` triple patterns becomes `n` leaf rules and `n − 1`
//! binary join rules, each materialising an intermediate relation, and
//! the planner only ever orders two atoms at a time. A filter runs only
//! after the whole join beneath it has been built — SP²Bench Q5a joins
//! its two components through nothing but `FILTER (?x = ?y)`, so that join
//! is a cross product. The pass works in three steps:
//!
//! 1. **Unfold.** Every rule without an aggregate or an existential head
//!    variable inlines, transitively, each IDB predicate it reads by a
//!    positive atom when that predicate has exactly one defining rule —
//!    non-recursive, no aggregate, no existential head variable — is read
//!    exactly once in the program, and is not an output or a fact
//!    predicate. Inlining such a predicate into its only reader is
//!    set-equivalent (the relation is the set of head instances of the one
//!    rule); every excluded reader — negation, aggregation, the output, a
//!    second reader — would observe the intermediate relation itself. A
//!    basic graph pattern becomes one rule the planner orders, with its
//!    filters inline.
//! 2. **Drop.** An assignment of a constant, or of a Skolem term over
//!    variables and constants, that nothing in the unfolded rule reads any
//!    more — the tuple ID of an inlined rule under set semantics — is
//!    dropped: it can neither fail nor filter a row.
//! 3. **Unify.** A condition `x = y`, `x = c` or `sameTerm(x, y)` (top-level
//!    `&&` split first) over variables bound by positive atoms or
//!    compatibility items is replaced by unification: `y := x`, or
//!    `x := c`, throughout body and head. Engine `=` is
//!    [`value_eq`](crate::expr::value_eq) — term identity or numeric value
//!    equality — and unification tests identity (equal `TermId`s), so it is
//!    exact alone for `sameTerm` and for a non-numeric constant. For `=`
//!    between variables or against a numeric constant a second rule keeps
//!    the original body plus `isNumeric(x), isNumeric(y), !sameTerm(x, y)
//!    && x = y`: it derives the numerically-equal, non-identical matches,
//!    which the unified rule cannot, and nothing the unified rule does.
//!    The rule's other equalities stay plain filters there, so `k`
//!    equalities cost at most `k + 1` rules.
//!
//! A program with nothing to unfold or unify is returned as it came,
//! without a clone.

use crate::expr::{CmpOp, Expr};
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::plan::{invents_null, reads};
use crate::rule::{arg_vars, Atom, AtomArg, BodyItem, Program, Rule, VarId};
use crate::symbols::{Sym, SymbolTable};
use crate::value::Const;

/// Unfolds every single-reader rule into its reader and rewrites filter
/// equalities into unification (see the module documentation).
/// Set-equivalent on every predicate that survives; unfolded predicates
/// disappear with their only reader's need for them.
pub fn unfold_and_unify(program: Program, symbols: &SymbolTable) -> Program {
    let inlinable = inlinable_predicates(&program.rules, &program.facts, &program.outputs);
    if inlinable.is_empty() && !program.rules.iter().any(has_equality) {
        return program;
    }
    let Program {
        rules,
        facts,
        outputs,
    } = program;
    let mut rules: Vec<Option<Rule>> = rules.into_iter().map(Some).collect();
    for ri in 0..rules.len() {
        if rules[ri].as_ref().is_some_and(consumes) {
            let consumer = rules[ri].take().expect("checked above");
            rules[ri] = Some(unfold_all(consumer, &mut rules, &inlinable, symbols));
        }
    }
    let mut out = Vec::with_capacity(rules.len());
    for rule in rules.into_iter().flatten() {
        if has_equality(&rule) {
            expand(split_conjunctions(rule), symbols, &mut out);
        } else {
            out.push(rule);
        }
    }
    Program {
        rules: out,
        facts,
        outputs,
    }
}

/// Whether `rule` may take in the rules of the predicates it reads: an
/// aggregate counts its body's matches, and an existential head variable
/// is Skolemised over the body, so neither may change.
fn consumes(rule: &Rule) -> bool {
    rule.aggregate.is_none() && rule.existential_vars().is_empty()
}

// ------------------------------------------------------------ conditions

/// A condition `x = other` (or `sameTerm(x, other)`) of equality shape.
struct Equality<'a> {
    x: VarId,
    other: Operand<'a>,
    same_term: bool,
}

enum Operand<'a> {
    Var(VarId),
    Const(&'a Const),
}

fn equality_shape(e: &Expr) -> Option<Equality<'_>> {
    let (a, b, same_term) = match e {
        Expr::Cmp(CmpOp::Eq, a, b) => (a, b, false),
        Expr::SameTerm(a, b) => (a, b, true),
        _ => return None,
    };
    let (x, other) = match (&**a, &**b) {
        (Expr::Var(x), Expr::Var(y)) if x != y => (*x, Operand::Var(*y)),
        (Expr::Var(x), Expr::Const(c)) | (Expr::Const(c), Expr::Var(x)) => (*x, Operand::Const(c)),
        _ => return None,
    };
    Some(Equality {
        x,
        other,
        same_term,
    })
}

/// Does `f` hold for some top-level conjunct of `e`?
fn any_conjunct(e: &Expr, f: &mut impl FnMut(&Expr) -> bool) -> bool {
    match e {
        Expr::And(a, b) => any_conjunct(a, f) || any_conjunct(b, f),
        _ => f(e),
    }
}

/// Which variables positive atoms bind and which assignments bind.
struct Binding {
    positive: Vec<bool>,
    assigned: Vec<bool>,
}

impl Binding {
    fn of(rule: &Rule) -> Self {
        let n = rule.var_names.len();
        let mut b = Binding {
            positive: vec![false; n],
            assigned: vec![false; n],
        };
        for item in &rule.body {
            match item {
                BodyItem::Assign(v, _) => b.assigned[*v as usize] = true,
                item => binds(item).for_each(|v| b.positive[v as usize] = true),
            }
        }
        b
    }

    /// Only a variable a positive atom or compatibility item binds, and
    /// no assignment does, can be unified away: its value is a stored
    /// term, compared by identity.
    fn joinable(&self, v: VarId) -> bool {
        self.positive[v as usize] && !self.assigned[v as usize]
    }

    fn unifiable(&self, eq: &Equality) -> bool {
        self.joinable(eq.x)
            && match eq.other {
                Operand::Var(y) => self.joinable(y),
                Operand::Const(_) => true,
            }
    }
}

/// True when `rule` has a condition the pass rewrites. Costs one scan of
/// the body unless a condition has equality shape.
fn has_equality(rule: &Rule) -> bool {
    if rule.aggregate.is_some() {
        return false;
    }
    let mut binding: Option<Binding> = None;
    let found = rule.body.iter().any(|item| match item {
        BodyItem::Cond(e) => any_conjunct(e, &mut |c| {
            equality_shape(c).is_some_and(|eq| {
                binding
                    .get_or_insert_with(|| Binding::of(rule))
                    .unifiable(&eq)
            })
        }),
        _ => false,
    });
    // Unifying a frontier variable away would change the Skolem terms of
    // the rule's existential head variables.
    found && rule.existential_vars().is_empty()
}

/// Splits every top-level `&&` into separate conditions. Exact: a
/// condition admits a row iff its value is EBV-true, and `a && b` is true
/// iff both `a` and `b` are.
fn split_conjunctions(mut rule: Rule) -> Rule {
    fn push(e: Expr, out: &mut Vec<BodyItem>) {
        match e {
            Expr::And(a, b) => {
                push(*a, out);
                push(*b, out);
            }
            e => out.push(BodyItem::Cond(e)),
        }
    }
    let mut body = Vec::with_capacity(rule.body.len());
    for item in rule.body {
        match item {
            BodyItem::Cond(e) => push(e, &mut body),
            item => body.push(item),
        }
    }
    rule.body = body;
    rule
}

// ------------------------------------------------------------- unfolding

/// Predicates that may be inlined into their only reader, with the index
/// of their one defining rule. Reads count negated atoms and aggregate
/// rules too: since only a positive atom of a non-aggregate rule is ever
/// unfolded, "read exactly once" already excludes a predicate that
/// negation or an aggregate also observes.
fn inlinable_predicates(
    rules: &[Rule],
    facts: &[(Sym, Vec<Const>)],
    outputs: &[Sym],
) -> FxHashMap<Sym, usize> {
    let mut defs: FxHashMap<Sym, Vec<usize>> = FxHashMap::default();
    let mut reads: FxHashMap<Sym, usize> = FxHashMap::default();
    for (i, r) in rules.iter().enumerate() {
        defs.entry(r.head.pred).or_default().push(i);
        for item in &r.body {
            if let BodyItem::Pos(a) | BodyItem::Neg(a) = item {
                *reads.entry(a.pred).or_default() += 1;
            }
        }
    }
    // Observed as a relation beyond the program's rules.
    let observed: FxHashSet<Sym> = (outputs.iter().copied())
        .chain(facts.iter().map(|(p, _)| *p))
        .collect();
    let mut inlinable: FxHashMap<Sym, usize> = (defs.iter())
        .filter_map(|(&p, d)| {
            let def = &rules[d[0]];
            (d.len() == 1
                && reads.get(&p) == Some(&1)
                && !observed.contains(&p)
                && def.aggregate.is_none()
                && def.existential_vars().is_empty())
            .then_some((p, d[0]))
        })
        .collect();
    if !inlinable.is_empty() {
        let recursive = recursive_predicates(rules, &defs);
        inlinable.retain(|p, _| !recursive.contains(p));
    }
    inlinable
}

/// The predicates on a cycle of the program's dependency graph (an edge
/// from each predicate a rule reads to the rule's head): the members of
/// every strongly connected component with more than one predicate, and
/// the predicates a rule of their own reads. One pass of Tarjan's
/// algorithm over the whole program, with an explicit stack.
fn recursive_predicates(rules: &[Rule], defs: &FxHashMap<Sym, Vec<usize>>) -> FxHashSet<Sym> {
    let preds: Vec<Sym> = defs.keys().copied().collect();
    let id: FxHashMap<Sym, usize> = preds.iter().enumerate().map(|(i, &p)| (p, i)).collect();
    // Walked against the edges, from a head to the IDB predicates its
    // rules read: the components are the same.
    let succ: Vec<Vec<usize>> = (preds.iter())
        .map(|p| {
            (defs[p].iter())
                .flat_map(|&ri| rules[ri].read_preds())
                .filter_map(|q| id.get(&q).copied())
                .collect()
        })
        .collect();
    let mut recursive = FxHashSet::default();
    let n = preds.len();
    let (mut index, mut low) = (vec![usize::MAX; n], vec![0; n]);
    let (mut on_stack, mut stack) = (vec![false; n], Vec::new());
    let mut next = 0;
    for root in 0..n {
        if index[root] != usize::MAX {
            continue;
        }
        // Frames of the depth-first walk: a node and its next successor.
        let mut frames = vec![(root, 0)];
        (index[root], low[root]) = (next, next);
        next += 1;
        stack.push(root);
        on_stack[root] = true;
        while let Some(&mut (v, ref mut k)) = frames.last_mut() {
            if let Some(&w) = succ[v].get(*k) {
                *k += 1;
                if w == v {
                    recursive.insert(preds[v]);
                } else if index[w] == usize::MAX {
                    (index[w], low[w]) = (next, next);
                    next += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    frames.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
                continue;
            }
            frames.pop();
            if let Some(&(parent, _)) = frames.last() {
                low[parent] = low[parent].min(low[v]);
            }
            if low[v] == index[v] {
                let at = stack
                    .iter()
                    .rposition(|&w| w == v)
                    .expect("v is on the stack");
                let component = stack.split_off(at);
                for &w in &component {
                    on_stack[w] = false;
                }
                if component.len() > 1 {
                    recursive.extend(component.iter().map(|&w| preds[w]));
                }
            }
        }
    }
    recursive
}

/// Inlines, transitively, every inlinable predicate `consumer` reads,
/// taking each defining rule out of `rules` (its only reader no longer
/// needs it), then drops the assignments nothing reads any more.
fn unfold_all(
    mut consumer: Rule,
    rules: &mut [Option<Rule>],
    inlinable: &FxHashMap<Sym, usize>,
    symbols: &SymbolTable,
) -> Rule {
    let mut refused: Vec<Sym> = Vec::new();
    let mut round = 0;
    loop {
        let next = consumer
            .body
            .iter()
            .enumerate()
            .find_map(|(j, item)| match item {
                BodyItem::Pos(a) if !refused.contains(&a.pred) => {
                    inlinable.get(&a.pred).map(|&di| (j, di, a.pred))
                }
                _ => None,
            });
        let Some((j, di, pred)) = next else {
            break;
        };
        // Non-recursive and read only here: neither this consumer nor
        // taken by an earlier one.
        let def = rules[di]
            .take()
            .expect("an inlinable rule is still in place");
        round += 1;
        match unfold(consumer, j, &def, round) {
            Ok(rule) => consumer = rule,
            Err(rule) => {
                consumer = rule;
                rules[di] = Some(def);
                refused.push(pred);
            }
        }
    }
    if round > refused.len() {
        drop_unread(&mut consumer, symbols);
    }
    consumer
}

/// Removes, until none is left, every assignment of a constant or of a
/// Skolem term over variables and constants whose target nothing else in
/// `rule` mentions. Such an assignment binds a fresh variable to a value
/// that always exists, so it neither fails nor filters a row; an
/// existential's null is kept, since minting one can fail past the
/// Skolem-depth bound.
fn drop_unread(rule: &mut Rule, symbols: &SymbolTable) {
    let droppable = |e: &Expr| match e {
        Expr::Const(_) => true,
        Expr::Skolem(_, args) => {
            !invents_null(e, symbols)
                && args
                    .iter()
                    .all(|a| matches!(a, Expr::Var(_) | Expr::Const(_)))
        }
        _ => false,
    };
    loop {
        // Mentions per variable: the head's and every body item's, an
        // assignment's target included (a consumer has no aggregate).
        let mut mentions = vec![0u32; rule.var_names.len()];
        for v in rule.head.vars() {
            mentions[v as usize] += 1;
        }
        let mut vars = Vec::new();
        for item in &rule.body {
            if let BodyItem::Assign(v, _) = item {
                mentions[*v as usize] += 1;
            }
            reads(item, &mut vars);
            for &v in &vars {
                mentions[v as usize] += 1;
            }
            vars.clear();
        }
        let before = rule.body.len();
        rule.body.retain(|item| {
            !matches!(item, BodyItem::Assign(v, e) if mentions[*v as usize] == 1 && droppable(e))
        });
        if rule.body.len() == before {
            return;
        }
    }
}

/// Replaces body atom `j` of `consumer` by the body of `def`, its
/// predicate's only rule, under the most general unifier of the atom and
/// `def`'s head. `def`'s variables are renamed apart (suffix `'round`).
/// Returns the consumer unchanged when the atom cannot match the head or
/// when an assignment would stop being a plain binding.
fn unfold(consumer: Rule, j: usize, def: &Rule, round: usize) -> Result<Rule, Rule> {
    let off = consumer.var_names.len() as VarId;
    let n = consumer.var_names.len() + def.var_names.len();
    let mut u = Unifier::new(n);
    let BodyItem::Pos(atom) = &consumer.body[j] else {
        unreachable!("unfold target is a positive atom")
    };
    let matches = atom.args.len() == def.head.args.len()
        && (def.head.args.iter().zip(&atom.args)).all(|(h, a)| u.unify(&shift(h, off), a));
    if !matches {
        return Err(consumer);
    }

    // An assignment must still bind a fresh variable afterwards (an
    // assignment to a bound variable is a value-equality check): its
    // target may only be unified with variables nothing else binds.
    let mut positive = vec![false; n];
    let mut assigned = vec![0u32; n];
    let mut mark = |item: &BodyItem, off: VarId| match item {
        BodyItem::Assign(v, _) => assigned[(v + off) as usize] += 1,
        item => binds(item).for_each(|v| positive[(v + off) as usize] = true),
    };
    for (i, item) in consumer.body.iter().enumerate() {
        if i != j {
            mark(item, 0);
        }
    }
    for item in &def.body {
        mark(item, off);
    }
    let Some(rep) = u.representatives(&positive, &assigned) else {
        return Err(consumer);
    };

    let mut rule = consumer;
    rule.var_names
        .extend(def.var_names.iter().map(|v| format!("{v}'{round}")));
    let own = |v: VarId| rep[v as usize].clone();
    subst_atom(&mut rule.head, &own);
    for item in &mut rule.body {
        subst_item(item, &own);
    }
    let renamed = |v: VarId| rep[(v + off) as usize].clone();
    let inlined: Vec<BodyItem> = (def.body.iter().cloned())
        .map(|mut item| {
            subst_item(&mut item, &renamed);
            item
        })
        .collect();
    rule.body.splice(j..=j, inlined);
    Ok(rule)
}

fn shift(arg: &AtomArg, off: VarId) -> AtomArg {
    match arg {
        AtomArg::Var(v) => AtomArg::Var(v + off),
        c => c.clone(),
    }
}

/// Union-find over variables; a class may carry one constant.
struct Unifier {
    parent: Vec<VarId>,
    value: Vec<Option<Const>>,
}

impl Unifier {
    fn new(n: usize) -> Self {
        Unifier {
            parent: (0..n as VarId).collect(),
            value: vec![None; n],
        }
    }

    fn find(&mut self, mut v: VarId) -> VarId {
        while self.parent[v as usize] != v {
            let up = self.parent[self.parent[v as usize] as usize];
            self.parent[v as usize] = up;
            v = up;
        }
        v
    }

    fn bind(&mut self, v: VarId, c: &Const) -> bool {
        let r = self.find(v) as usize;
        match &self.value[r] {
            Some(d) => d == c,
            None => {
                self.value[r] = Some(c.clone());
                true
            }
        }
    }

    /// Unifies two terms; false when two distinct constants meet (the
    /// atom can never match the head).
    fn unify(&mut self, a: &AtomArg, b: &AtomArg) -> bool {
        match (a, b) {
            (AtomArg::Const(x), AtomArg::Const(y)) => x == y,
            (AtomArg::Var(v), AtomArg::Const(c)) | (AtomArg::Const(c), AtomArg::Var(v)) => {
                self.bind(*v, c)
            }
            (AtomArg::Var(v), AtomArg::Var(w)) => {
                let (rv, rw) = (self.find(*v), self.find(*w));
                if rv == rw {
                    return true;
                }
                // The lower id stays root: consumer variables (and their
                // names) win over renamed-apart ones.
                let (root, child) = (rv.min(rw), rv.max(rw));
                self.parent[child as usize] = root;
                match self.value[child as usize].take() {
                    Some(c) => self.bind(root, &c),
                    None => true,
                }
            }
        }
    }

    /// Each variable's replacement: its class's constant, else the class's
    /// assignment target, else the class root. `None` when a class holding
    /// an assignment target also holds a constant, a positively bound
    /// variable or a second target.
    fn representatives(&mut self, positive: &[bool], assigned: &[u32]) -> Option<Vec<AtomArg>> {
        let n = self.parent.len();
        let mut target: Vec<Option<VarId>> = vec![None; n];
        let mut targets = vec![0u32; n];
        let mut has_positive = vec![false; n];
        for v in 0..n as VarId {
            let r = self.find(v) as usize;
            targets[r] += assigned[v as usize];
            has_positive[r] |= positive[v as usize];
            if assigned[v as usize] > 0 {
                target[r] = Some(v);
            }
        }
        (0..n as VarId)
            .map(|v| {
                let r = self.find(v) as usize;
                if targets[r] > 0 && (targets[r] > 1 || has_positive[r] || self.value[r].is_some())
                {
                    return None;
                }
                Some(match (&self.value[r], target[r]) {
                    (Some(c), _) => AtomArg::Const(c.clone()),
                    (None, Some(t)) => AtomArg::Var(t),
                    (None, None) => AtomArg::Var(r as VarId),
                })
            })
            .collect()
    }
}

// ------------------------------------------------------------ unification

/// Replaces the first rewritable equality of `rule` by unification and
/// recurses on the result until no rewritable equality is left. Where
/// value equality is wider than identity it also emits the numeric side
/// rule, which keeps the rule's other equalities as plain filters: `x₁ ≡
/// y₁` and "`x₁ = y₁` but not identical" split every match, so `k`
/// equalities give at most `k + 1` rules, not `2^k`.
fn expand(rule: Rule, symbols: &SymbolTable, out: &mut Vec<Rule>) {
    let binding = Binding::of(&rule);
    let found = rule
        .body
        .iter()
        .enumerate()
        .find_map(|(i, item)| match item {
            BodyItem::Cond(e) => equality_shape(e)
                .filter(|eq| binding.unifiable(eq))
                .map(|eq| {
                    let other = match eq.other {
                        Operand::Var(y) => AtomArg::Var(y),
                        Operand::Const(c) => AtomArg::Const(c.clone()),
                    };
                    (i, eq.x, other, eq.same_term)
                }),
            _ => None,
        });
    let Some((i, x, other, same_term)) = found else {
        out.push(rule);
        return;
    };
    let numeric = !same_term
        && match &other {
            AtomArg::Var(_) => true,
            AtomArg::Const(c) => c.as_f64(symbols).is_some(),
        };
    let side = numeric.then(|| numeric_side_rule(&rule, i, x, &other));

    let mut unified = rule;
    unified.body.remove(i);
    let (from, to) = match other {
        AtomArg::Var(y) => (y, AtomArg::Var(x)),
        c => (x, c),
    };
    let subst = |v: VarId| {
        if v == from {
            to.clone()
        } else {
            AtomArg::Var(v)
        }
    };
    subst_atom(&mut unified.head, &subst);
    for item in &mut unified.body {
        subst_item(item, &subst);
    }
    expand(unified, symbols, out);
    out.extend(side);
}

/// `rule` with condition `i` (`x = other`) narrowed to the matches value
/// equality admits beyond identity: `!sameTerm(x, other) && x = other`,
/// plus `isNumeric` on each variable side, placed right after the first
/// atom binding it so a non-numeric row dies before any further join.
fn numeric_side_rule(rule: &Rule, i: usize, x: VarId, other: &AtomArg) -> Rule {
    let to_expr = |a: &AtomArg| match a {
        AtomArg::Var(v) => Expr::Var(*v),
        AtomArg::Const(c) => Expr::Const(c.clone()),
    };
    let (xe, ye) = (Expr::Var(x), to_expr(other));
    let mut side = rule.clone();
    side.body[i] = BodyItem::Cond(Expr::And(
        Box::new(Expr::Not(Box::new(Expr::SameTerm(
            Box::new(xe.clone()),
            Box::new(ye.clone()),
        )))),
        Box::new(Expr::Cmp(CmpOp::Eq, Box::new(xe), Box::new(ye))),
    ));
    let vars = std::iter::once(x).chain(match other {
        AtomArg::Var(y) => Some(*y),
        AtomArg::Const(_) => None,
    });
    for v in vars {
        let at = (side.body.iter())
            .position(|item| binds(item).any(|w| w == v))
            .expect("unifiable variables are positively bound");
        side.body.insert(
            at + 1,
            BodyItem::Cond(Expr::IsNumeric(Box::new(Expr::Var(v)))),
        );
    }
    side
}

/// The variables a body item binds as a stored term: a positive atom's
/// and a compatibility item's (its output is one of its sides).
fn binds(item: &BodyItem) -> impl Iterator<Item = VarId> + '_ {
    let args: &[AtomArg] = match item {
        BodyItem::Pos(a) => &a.args,
        BodyItem::Compat(args) => args,
        _ => &[],
    };
    arg_vars(args)
}

// ---------------------------------------------------------- substitution

fn subst_arg(arg: &mut AtomArg, f: &impl Fn(VarId) -> AtomArg) {
    if let AtomArg::Var(v) = arg {
        *arg = f(*v);
    }
}

fn subst_atom(atom: &mut Atom, f: &impl Fn(VarId) -> AtomArg) {
    atom.args.iter_mut().for_each(|arg| subst_arg(arg, f));
}

fn subst_item(item: &mut BodyItem, f: &impl Fn(VarId) -> AtomArg) {
    let subst_expr = |e: &mut Expr| {
        e.substitute(&|v| {
            Some(match f(v) {
                AtomArg::Var(w) => Expr::Var(w),
                AtomArg::Const(c) => Expr::Const(c),
            })
        })
    };
    match item {
        BodyItem::Pos(a) | BodyItem::Neg(a) => subst_atom(a, f),
        BodyItem::Compat(args) => args.iter_mut().for_each(|arg| subst_arg(arg, f)),
        BodyItem::Cond(e) => subst_expr(e),
        BodyItem::Assign(v, e) => {
            let AtomArg::Var(w) = f(*v) else {
                unreachable!("assignment targets are never bound to constants")
            };
            *v = w;
            subst_expr(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Database;
    use crate::eval::{evaluate, EvalOptions};
    use crate::parser::parse_program;
    use crate::value::OrdF64;

    /// Parses `src`, turning each `X = Y` / `X = c` item (which the
    /// textual syntax reads as an assignment) into the condition the SPARQL
    /// translation emits — `sameTerm` instead of `=` when `same_term`.
    fn parse(src: &str, symbols: &std::sync::Arc<SymbolTable>, same_term: bool) -> Program {
        let mut prog = parse_program(src, symbols).unwrap();
        for rule in &mut prog.rules {
            for item in &mut rule.body {
                if let BodyItem::Assign(v, e @ (Expr::Var(_) | Expr::Const(_))) = item {
                    let (a, b) = (Box::new(Expr::Var(*v)), Box::new(e.clone()));
                    *item = BodyItem::Cond(match same_term {
                        true => Expr::SameTerm(a, b),
                        false => Expr::Cmp(CmpOp::Eq, a, b),
                    });
                }
            }
        }
        prog
    }

    /// Rendered rules, for readable failure messages and shape checks.
    fn rendered(prog: &Program, symbols: &SymbolTable) -> Vec<String> {
        prog.rules.iter().map(|r| r.display(symbols)).collect()
    }

    /// True when `pred` survives as a relation: some rule of `prog` still
    /// defines it and some rule still reads it positively.
    fn survives(prog: &Program, symbols: &SymbolTable, pred: &str) -> bool {
        let p = symbols.get(pred).unwrap();
        let reads = |r: &Rule| {
            r.body
                .iter()
                .any(|i| matches!(i, BodyItem::Pos(a) if a.pred == p))
        };
        prog.rules.iter().any(|r| r.head.pred == p) && prog.rules.iter().any(reads)
    }

    /// `a` and `b` join only through the filter of `out`'s rule, under a
    /// copy predicate `j` — the SP²Bench Q5a shape.
    const Q5A_SHAPE: &str = "a(X, Y) :- e(X, Y).\n\
                             b(Z, W) :- f(Z, W).\n\
                             j(X, Y, Z, W) :- a(X, Y), b(Z, W).\n\
                             out(X, W) :- j(X, Y, Z, W), Y = Z.\n\
                             @output(\"out\").\n";

    #[test]
    fn filter_equality_becomes_a_join_key_plus_numeric_side_rule() {
        let t = SymbolTable::new();
        let out = unfold_and_unify(parse(Q5A_SHAPE, &t, false), &t);
        assert_eq!(
            rendered(&out, &t),
            vec![
                "out(X, W) :- e(X, Y), f(Y, W).",
                "out(X, W) :- e(X, Y), isNumeric(Y), f(Z, W), isNumeric(Z), \
                 (!(sameTerm(Y, Z)) && Y = Z)."
            ]
        );
    }

    #[test]
    fn rewritten_program_derives_the_same_relation() {
        // Identical, numerically equal but distinct, and merely
        // string-equal join values.
        let load = |db: &mut Database| {
            let (e, f) = (db.symbols().intern("e"), db.symbols().intern("f"));
            let s = |db: &Database, x: &str| Const::Str(db.symbols().intern(x));
            let rows_e = vec![
                vec![s(db, "a"), Const::Int(1)],
                vec![s(db, "b"), s(db, "1")],
                vec![s(db, "c"), Const::Float(OrdF64(f64::NAN))],
            ];
            let rows_f = vec![
                vec![Const::Int(1), s(db, "same")],
                vec![Const::Float(OrdF64(1.0)), s(db, "numeric")],
                vec![s(db, "1"), s(db, "string")],
                vec![Const::Float(OrdF64(f64::NAN)), s(db, "nan")],
            ];
            db.load_rows(e, &rows_e);
            db.load_rows(f, &rows_f);
        };
        let options = EvalOptions::default();
        let mut answers = Vec::new();
        for rewrite in [false, true] {
            let mut db = Database::new();
            load(&mut db);
            let mut prog = parse(Q5A_SHAPE, db.symbols(), false);
            if rewrite {
                prog = unfold_and_unify(prog, db.symbols());
            }
            evaluate(&prog, &mut db, &options).unwrap();
            let out = db.symbols().get("out").unwrap();
            let mut rows: Vec<String> = db
                .relation(out)
                .unwrap()
                .iter()
                .map(|t| format!("{:?}", db.decode_tuple(t)))
                .collect();
            rows.sort();
            answers.push(rows);
        }
        assert_eq!(answers[0], answers[1]);
        // a: 1 = 1 and 1 = 1.0; b: "1" = "1"; c: NaN is identical to
        // itself, so `=` holds by identity.
        assert_eq!(answers[1].len(), 4, "{:?}", answers[1]);
    }

    #[test]
    fn same_term_and_non_numeric_constants_unify_alone() {
        let t = SymbolTable::new();
        let same = unfold_and_unify(parse(Q5A_SHAPE, &t, true), &t);
        assert_eq!(rendered(&same, &t), vec!["out(X, W) :- e(X, Y), f(Y, W)."]);
        let iri = parse(
            "p(S) :- t(S, P, O), P = <http://pages>.\n@output(\"p\").\n",
            &t,
            false,
        );
        assert_eq!(
            rendered(&unfold_and_unify(iri, &t), &t),
            vec!["p(S) :- t(S, <http://pages>, O)."]
        );
        let numeric = parse("p(S) :- t(S, O), O = 1.\n@output(\"p\").\n", &t, false);
        assert_eq!(
            rendered(&unfold_and_unify(numeric, &t), &t),
            vec![
                "p(S) :- t(S, 1).",
                "p(S) :- t(S, O), isNumeric(O), (!(sameTerm(O, 1)) && O = 1)."
            ]
        );
    }

    #[test]
    fn each_further_equality_adds_one_side_rule() {
        let t = SymbolTable::new();
        let prog = parse(
            "out(X) :- e(X, Y), f(Z, W), Y = Z, X = W.\n@output(\"out\").\n",
            &t,
            false,
        );
        assert_eq!(
            rendered(&unfold_and_unify(prog, &t), &t),
            vec![
                "out(X) :- e(X, Y), f(Y, X).",
                "out(X) :- e(X, Y), isNumeric(X), f(Y, W), isNumeric(W), \
                 (!(sameTerm(X, W)) && X = W).",
                "out(X) :- e(X, Y), isNumeric(Y), f(Z, W), isNumeric(Z), \
                 (!(sameTerm(Y, Z)) && Y = Z), X = W."
            ]
        );
    }

    #[test]
    fn top_level_conjunctions_are_split_first() {
        let t = SymbolTable::new();
        let mut prog = parse(
            "p(S) :- t(S, O), u(S, Q), Q > 2.\n@output(\"p\").\n",
            &t,
            false,
        );
        // Fold `Q > 2` into `O = "x" && Q > 2`.
        let rule = &mut prog.rules[0];
        let BodyItem::Cond(gt) = rule.body.pop().unwrap() else {
            unreachable!()
        };
        let eq = Expr::Cmp(
            CmpOp::Eq,
            Box::new(Expr::Var(1)),
            Box::new(Expr::Const(Const::Str(t.intern("x")))),
        );
        rule.body
            .push(BodyItem::Cond(Expr::And(Box::new(eq), Box::new(gt))));
        assert_eq!(
            rendered(&unfold_and_unify(prog, &t), &t),
            vec!["p(S) :- t(S, \"x\"), u(S, Q), Q > 2."]
        );
    }

    #[test]
    fn a_program_without_equalities_comes_back_untouched() {
        // `a` is read twice, so nothing unfolds either.
        let t = SymbolTable::new();
        let prog = parse(
            "a(X, Y) :- e(X, Y).\n\
             out(X) :- a(X, Y), Y != 3, not g(X).\n\
             two(Y) :- a(X, Y).\n\
             @output(\"out\").\n@output(\"two\").\n",
            &t,
            false,
        );
        let before = rendered(&prog, &t);
        let rules = prog.rules.as_ptr();
        let out = unfold_and_unify(prog, &t);
        assert_eq!(out.rules.as_ptr(), rules, "not cloned, not rebuilt");
        assert_eq!(rendered(&out, &t), before);
    }

    #[test]
    fn a_single_reader_rule_unfolds_without_an_equality() {
        let t = SymbolTable::new();
        let prog = parse(
            "a(X, Y) :- e(X, Y).\n\
             out(X) :- a(X, Y), Y != 3, not g(X).\n\
             @output(\"out\").\n",
            &t,
            false,
        );
        assert_eq!(
            rendered(&unfold_and_unify(prog, &t), &t),
            vec!["out(X) :- e(X, Y), Y != 3, not g(X)."]
        );
    }

    #[test]
    fn unread_constant_and_skolem_assignments_are_dropped() {
        // T_Q's shape: each rule assigns its tuple ID. Under set semantics
        // (a constant ID) the inlined rules' IDs are read by nothing; a Skolem
        // ID over variables is dropped the same way once its reader's own
        // ID no longer reads it, and an ID a head reads is kept.
        let t = SymbolTable::new();
        let prog = parse_program(
            "a(I, X, Y) :- e(X, Y), I = \"nil\".\n\
             b(I, Y, Z) :- f(Y, Z), I = skolem(\"fb\", Y, Z).\n\
             j(I, X, Z) :- a(I1, X, Y), b(I2, Y, Z), I = \"nil\".\n\
             out(I, X) :- j(I1, X, Z), I = skolem(\"fo\", X).\n\
             @output(\"out\").\n",
            &t,
        )
        .unwrap();
        assert_eq!(
            rendered(&unfold_and_unify(prog, &t), &t),
            vec!["out(I, X) :- e(X, Y'1), f(Y'1, Z), I = [fo|X]."]
        );
    }

    #[test]
    fn recursion_is_found_once_per_program() {
        // `c` and `d` form a cycle two predicates long, `r` reads itself;
        // `a` and `b` only feed them.
        let t = SymbolTable::new();
        let prog = parse_program(
            "a(X) :- e(X).\n\
             b(X) :- a(X).\n\
             c(X) :- b(X).\n\
             c(X) :- d(X).\n\
             d(X) :- c(X).\n\
             r(X) :- r(X), e(X).\n\
             r(X) :- d(X).\n\
             @output(\"r\").\n",
            &t,
        )
        .unwrap();
        let mut defs: FxHashMap<Sym, Vec<usize>> = FxHashMap::default();
        for (i, r) in prog.rules.iter().enumerate() {
            defs.entry(r.head.pred).or_default().push(i);
        }
        let mut found: Vec<String> = recursive_predicates(&prog.rules, &defs)
            .into_iter()
            .map(|p| t.resolve(p).to_string())
            .collect();
        found.sort();
        assert_eq!(found, vec!["c", "d", "r"]);
    }

    /// Each program gives the consumer `out` an equality over predicate
    /// `a`, which one condition makes ineligible for unfolding: `a` must
    /// still be defined and read after the rewrite (the equality itself is
    /// still unified wherever its variables allow).
    fn assert_not_unfolded(src: &str, why: &str) {
        let t = SymbolTable::new();
        let out = unfold_and_unify(parse(src, &t, false), &t);
        assert!(survives(&out, &t, "a"), "{why}: {:?}", rendered(&out, &t));
    }

    #[test]
    fn two_defining_rules_refuse_unfolding() {
        assert_not_unfolded(
            "a(X, Y) :- e(X, Y).\n\
             a(X, Y) :- g(X, Y).\n\
             out(X) :- a(X, Y), b(Z), Y = Z.\n\
             @output(\"out\").\n",
            "two defining rules",
        );
    }

    #[test]
    fn a_recursive_predicate_refuses_unfolding() {
        assert_not_unfolded(
            "a(X, Y) :- e(X, Y), out(X, Y).\n\
             out(X, Z) :- a(X, Y), b(Z), Y = Z.\n\
             @output(\"out\").\n",
            "recursive through its only reader",
        );
    }

    #[test]
    fn an_output_predicate_refuses_unfolding() {
        assert_not_unfolded(
            "a(X, Y) :- e(X, Y).\n\
             out(X) :- a(X, Y), b(Z), Y = Z.\n\
             @output(\"out\").\n@output(\"a\").\n",
            "output",
        );
    }

    #[test]
    fn a_predicate_read_under_negation_refuses_unfolding() {
        assert_not_unfolded(
            "a(X, Y) :- e(X, Y).\n\
             out(X) :- a(X, Y), b(Z), Y = Z.\n\
             n(X) :- e(X, Y), not a(X, Y).\n\
             @output(\"out\").\n@output(\"n\").\n",
            "read under not",
        );
    }

    #[test]
    fn a_predicate_read_by_an_aggregate_rule_refuses_unfolding() {
        assert_not_unfolded(
            "a(X, Y) :- e(X, Y).\n\
             out(X) :- a(X, Y), b(Z), Y = Z.\n\
             cnt(C) :- a(X, Y), C = count().\n\
             @output(\"out\").\n@output(\"cnt\").\n",
            "read by an aggregate",
        );
    }

    #[test]
    fn an_existential_head_refuses_unfolding() {
        assert_not_unfolded(
            "a(X, N) :- e(X, Y).\n\
             out(X) :- a(X, Y), b(Z), Y = Z.\n\
             @output(\"out\").\n",
            "existential head variable",
        );
    }

    #[test]
    fn a_predicate_read_twice_refuses_unfolding() {
        assert_not_unfolded(
            "a(X, Y) :- e(X, Y).\n\
             out(X) :- a(X, Y), a(Y, Z), b(W), Z = W.\n\
             @output(\"out\").\n",
            "read twice",
        );
    }
}
