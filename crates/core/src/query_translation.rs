//! The query translation method **T_Q** (paper §5, Appendix A.2–A.4).
//!
//! Translates a parsed SPARQL query into a Warded Datalog± program by
//! recursively walking the pattern tree. Subpattern `i`'s bindings live in
//! predicate `ans<i>` (§5.1, "General strategy"). Under **bag semantics**
//! every answer predicate carries a tuple-ID argument generated by a
//! Skolem functor over the rule's positive body variables (§5.1 "Bag
//! semantics", Appendix C); under **set semantics** (DISTINCT/ASK and the
//! three recursive path operators) the ID is forced to the constant `[]`,
//! collapsing duplicates.
//!
//! Every rule is written from two templates. A pattern answer atom is
//! `ans_i(Id, x̄, D)`: the tuple ID, one column per variable of the
//! sorted `x̄` under a renaming (`v_x`, or `r1_x`/`r2_x`/`w2_x`/`z_x`
//! where Defs A.5–A.10 rename shared variables apart), and the graph
//! `D`. A path answer atom is `ans_i(Id, X, Y, D)`. The operators differ
//! only in which atoms, compat items, null paddings and conditions
//! their rules hold.
//!
//! Deviations from the appendix:
//!
//! * subpatterns are numbered from a counter, not by the heap index of
//!   Figure 5 (children `2i` and `2i+1`): the root is `ans1` and a
//!   parent takes its children's indices before it builds its rules, so
//!   a pattern tree of any depth gets distinct predicates;
//! * `subjectOrObject` carries the graph as a second argument so
//!   zero-length paths are computed per graph;
//! * the zero-length-path rule for constant endpoints is unconditional
//!   (the appendix guards it with `not Term(X)`, which under nil tuple-IDs
//!   is redundant — duplicates collapse anyway — and would wrongly exclude
//!   terms appearing only in predicate position);
//! * a triple pattern whose own path is `p+` or `p*` with a constant
//!   endpoint `c` is factored (Naughton, Ramakrishnan, Sagiv and Ullman,
//!   VLDB 1989) into a closure grown from `c`, `ans_i([], c, Y, D) :-
//!   step(c, Y, D)` and `ans_i([], c, Z, D) :- ans_i(_, c, Y, D),
//!   step(Y, Z, D)` (mirrored when only the object is bound), in place
//!   of Def. A.16's binary closure over every start node; `step` reads
//!   `triple` directly when the inner path is an IRI or its inverse (see
//!   `bound_closure`). Closures nested in a larger path keep Def. A.16;
//! * the inner path of `p+`, `p*` and `p?` is translated with set
//!   semantics even in a bag-semantics query: the closure's answers carry
//!   `[]` IDs (Defs A.16–A.19), so per-edge tuple IDs below it would be
//!   interned only to be dropped;
//! * the gMark range paths `p{n}`, `p{n,}`, `p{n,m}` are desugared into
//!   sequences/alternatives and evaluated with set semantics, like the
//!   other unbounded operators;
//! * a variable shared by the two sides of an AND (or of OPTIONAL's join)
//!   that is *certain* on both — bound in every solution of each side
//!   (Schmidt, Meier and Lausen, ICDT 2010; see `certain`) — is one
//!   column of both answer atoms, not renamed apart and joined through
//!   Def. A.2's `comp`: its values are never null, and `comp` over two
//!   non-null terms is equality;
//! * the finished program passes through
//!   [`unfold_and_unify`](sparqlog_datalog::rewrite): every rule read
//!   once, by a positive atom, is unfolded into its reader, so a basic
//!   graph pattern is one rule the planner orders, and a filter `x = y`,
//!   `x = c` or `sameTerm(x, y)` becomes a join key instead of a filter
//!   over a product;
//! * ORDER BY, OFFSET and LIMIT are not Figure 2's `@post` directives but
//!   T_S's job: T_Q compiles each ORDER BY condition over the goal
//!   predicate's columns into [`TranslatedQuery::order`] and adds every
//!   in-scope variable a condition reads as a hidden column. SPARQL
//!   orders solutions before it projects them, so a post-processing step
//!   over the projected relation cannot see such a key; one path in T_S
//!   applies all the modifiers to every result.

use std::sync::Arc;

use sparqlog_datalog::{
    unfold_and_unify, AggSpec, AtomArg, CmpOp, Const, Expr as DExpr, Program, RuleBuilder, Sym,
    SymbolTable, MAX_ARITY,
};
use sparqlog_sparql::{
    AggFunc as SAgg, Expr as SExpr, GraphPattern, GraphSpec, PropertyPath, Query, QueryForm,
    SelectItem, TermPattern, Var,
};

use crate::data_translation::{preds, term_to_const};

/// An error raised during translation. When `unsupported` is set,
/// `feature` names the offending feature structurally, so callers can
/// branch on it without string-matching the message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TranslationError {
    /// Human-readable description.
    pub message: String,
    /// True when the query uses a feature outside the supported set.
    pub unsupported: bool,
    /// The unsupported feature's name, when `unsupported` is set.
    pub feature: Option<String>,
}

impl TranslationError {
    fn unsupported(feature: &str) -> Self {
        TranslationError {
            message: format!("unsupported in translation: {feature}"),
            unsupported: true,
            feature: Some(feature.to_string()),
        }
    }
}

impl std::fmt::Display for TranslationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for TranslationError {}

/// The product of T_Q: a Datalog± program plus the metadata the solution
/// translation T_S needs to read the goal predicate.
#[derive(Debug, Clone)]
pub struct TranslatedQuery {
    /// The generated Datalog± program.
    pub program: Program,
    /// The goal predicate (`ans` in Figure 2).
    pub root_pred: Sym,
    /// The goal predicate's columns: the projection in output order,
    /// then every other in-scope variable an ORDER BY condition reads.
    /// Tuple layout of the goal predicate: `[Id, columns..., D]` for the
    /// other forms; `[HasResult]` for ASK.
    pub columns: Vec<Var>,
    /// How many leading `columns` the result shows; the rest are hidden
    /// sort keys.
    pub visible: usize,
    /// The ORDER BY conditions over `columns` (an expression variable is
    /// a column position), `true` = descending.
    pub order: Vec<(DExpr, bool)>,
    /// Solutions skipped after ordering (OFFSET).
    pub offset: usize,
    /// Solutions kept after the offset (LIMIT).
    pub limit: Option<usize>,
    /// True for ASK queries.
    pub is_ask: bool,
}

/// The graph context `D` threaded through the translation (§5.1: "the
/// current graph as last component").
#[derive(Debug, Clone)]
enum GraphCtx {
    Const(Const),
    Var(String),
}

/// Wraps the `WHERE` clause of a SPARQL Update operation as a plain
/// `SELECT *` query, so update execution can run the pattern through the
/// ordinary T_Q pipeline unchanged: the
/// [`Store`](crate::Store) evaluates this query against its current
/// snapshot and feeds each resulting solution into the delete/insert
/// template instantiation of the write session. Variables a template
/// mentions but the pattern does not bind simply come back unbound and
/// drop that instantiation, matching SPARQL 1.1 Update §3.1.3.
pub fn update_where_query(pattern: GraphPattern) -> Query {
    Query {
        form: QueryForm::Select {
            distinct: false,
            items: Vec::new(),
        },
        dataset: Vec::new(),
        pattern,
        group_by: Vec::new(),
        order_by: Vec::new(),
        limit: None,
        offset: None,
    }
}

/// Translates a query. `prefix` namespaces the generated predicates so
/// multiple queries can coexist in one database.
pub fn translate_query(
    query: &Query,
    symbols: &Arc<SymbolTable>,
    prefix: &str,
) -> Result<TranslatedQuery, TranslationError> {
    let t = Translator {
        symbols: symbols.clone(),
        program: Program::new(),
        prefix: prefix.to_string(),
        rule_seq: 0,
        next_idx: 2,
    };
    t.translate(query)
}

struct Translator {
    symbols: Arc<SymbolTable>,
    program: Program,
    prefix: String,
    rule_seq: usize,
    /// The next free subpattern index; the pattern root is `ans1`.
    next_idx: u64,
}

/// The nil tuple ID `[]` forcing set semantics (§5.2).
fn nil_id(symbols: &SymbolTable) -> Const {
    Const::skolem(symbols.intern("[]"), Vec::new())
}

/// Sorted (lexicographic) variable list of a pattern — the paper's
/// overline notation `x̄`.
fn sig(p: &GraphPattern) -> Vec<Var> {
    let mut vs = p.vars();
    vs.sort();
    vs
}

/// The sorted union `var(P1) ∪ var(P2)`.
fn union(v1: &[Var], v2: &[Var]) -> Vec<Var> {
    let mut u = [v1, v2].concat();
    u.sort();
    u.dedup();
    u
}

/// The variables of `v1` that `v2` shares.
fn shared<'a>(v1: &'a [Var], v2: &[Var]) -> Vec<&'a Var> {
    v1.iter().filter(|v| v2.contains(v)).collect()
}

/// The variables `P` binds in every solution — its *certain* variables
/// (Schmidt, Meier and Lausen, ICDT 2010): all of a triple's or a path's,
/// the union of a join's sides, the intersection of a union's branches,
/// the left side's of OPTIONAL, MINUS and FILTER, and a `GRAPH ?g`'s
/// inner ones plus `?g`. Sorted.
fn certain(p: &GraphPattern) -> Vec<Var> {
    match p {
        GraphPattern::Empty => Vec::new(),
        GraphPattern::Triple(_) | GraphPattern::Path { .. } => sig(p),
        GraphPattern::Join(a, b) => union(&certain(a), &certain(b)),
        GraphPattern::Union(a, b) => certain_on_both(a, b),
        GraphPattern::Optional(a, _) | GraphPattern::Minus(a, _) | GraphPattern::Filter(a, _) => {
            certain(a)
        }
        GraphPattern::Graph(spec, a) => match spec {
            GraphSpec::Var(g) => union(&certain(a), std::slice::from_ref(g)),
            GraphSpec::Iri(_) => certain(a),
        },
    }
}

/// The variables both `p1` and `p2` are certain to bind: a union's
/// certain variables, and the ones a join shares as one column.
fn certain_on_both(p1: &GraphPattern, p2: &GraphPattern) -> Vec<Var> {
    let right = certain(p2);
    certain(p1)
        .into_iter()
        .filter(|v| right.contains(v))
        .collect()
}

/// The variables of `v1` that `v2` shares and `certain` does not hold:
/// the ones a join renames apart and joins through `comp`.
fn loose<'a>(v1: &'a [Var], v2: &[Var], certain: &[Var]) -> Vec<&'a Var> {
    (shared(v1, v2).into_iter())
        .filter(|v| !certain.contains(v))
        .collect()
}

/// A column list with a renaming: variable `x` of `vars` is the column
/// `{prefix}x`, or `{renamed}x` when `x` is one of `shared` — the
/// renamings `v1`/`v2` of Def. A.5, `w2` of Def. A.10 and the compat
/// outputs `z` of Def. A.9.
#[derive(Clone, Copy)]
struct Cols<'a> {
    vars: &'a [Var],
    prefix: &'a str,
    shared: &'a [&'a Var],
    renamed: &'a str,
}

impl<'a> Cols<'a> {
    fn new(vars: &'a [Var], prefix: &'a str) -> Self {
        Cols {
            vars,
            prefix,
            shared: &[],
            renamed: "",
        }
    }

    /// Every variable `x` as the column `v_x`.
    fn v(vars: &'a [Var]) -> Self {
        Cols::new(vars, "v_")
    }

    /// The same columns with the `shared` variables renamed to `{renamed}x`.
    fn rename(self, shared: &'a [&'a Var], renamed: &'a str) -> Self {
        Cols {
            shared,
            renamed,
            ..self
        }
    }

    /// The column of the variable called `name`; `None` outside `vars`.
    fn col(&self, name: &str) -> Option<String> {
        let prefix = if self.shared.iter().any(|v| v.name() == name) {
            self.renamed
        } else if self.vars.iter().any(|v| v.name() == name) {
            self.prefix
        } else {
            return None;
        };
        Some(format!("{prefix}{name}"))
    }

    fn names(&self) -> Vec<String> {
        self.vars
            .iter()
            .filter_map(|v| self.col(v.name()))
            .collect()
    }
}

/// Where an answer atom goes in a rule.
#[derive(Clone, Copy)]
enum Slot {
    Head,
    Pos,
    Neg,
}

/// The answer-atom template `pred(Id, cols…, D)` of §5.1, placed at
/// `slot` (the ID-less auxiliary predicates `ans_opt`, `ans_join` and
/// `ans_equal` pass no `id`). Returns the names that feed
/// `push_with_id`: the ID and the columns.
fn ans(
    b: &mut RuleBuilder,
    slot: Slot,
    pred: Sym,
    id: Option<&str>,
    cols: &[String],
    ctx: &GraphCtx,
) -> Vec<String> {
    let feeds: Vec<String> = id
        .map(str::to_string)
        .into_iter()
        .chain(cols.iter().cloned())
        .collect();
    let mut args: Vec<AtomArg> = feeds.iter().map(|n| b.v(n)).collect();
    args.push(ctx.arg(b));
    match slot {
        Slot::Head => b.head(pred, args),
        Slot::Pos => b.pos(pred, args),
        Slot::Neg => b.neg(pred, args),
    };
    feeds
}

/// `compat({left}x, r2_x, {out}x)` for every shared variable `x`, placed
/// before the right answer atom: once the left side binds `{left}x` the
/// planner widens `r2_x` to {that value, null}, so the right atom is an
/// index lookup, not a cross product.
fn compat_shared(b: &mut RuleBuilder, shared: &[&Var], left: &str, out: &str) {
    for v in shared {
        let [l, r, o] = [left, "r2_", out].map(|p| b.v(&format!("{p}{}", v.name())));
        b.compat(l, r, o);
    }
}

/// Binds `v_x` to null — Def. A.2's positive `null(v_x)` — for every
/// `x` of `vars` missing from `present`.
fn pad(b: &mut RuleBuilder, vars: &[Var], present: &[Var]) {
    for v in vars.iter().filter(|v| !present.contains(v)) {
        let var = b.var(&format!("v_{}", v.name()));
        b.assign(var, DExpr::Const(Const::Null));
    }
}

impl GraphCtx {
    /// The graph argument `D` of an atom.
    fn arg(&self, b: &mut RuleBuilder) -> AtomArg {
        match self {
            GraphCtx::Const(c) => AtomArg::Const(c.clone()),
            GraphCtx::Var(name) => b.v(name),
        }
    }

    /// Adds the graph variable, if any, to the names feeding a tuple ID.
    fn feed(&self, feeds: &mut Vec<String>) {
        if let GraphCtx::Var(name) = self {
            if !feeds.contains(name) {
                feeds.push(name.clone());
            }
        }
    }
}

/// An argument of a path rule: a named variable or a constant.
enum Arg<'a> {
    V(&'a str),
    C(Const),
}

use Arg::{C, V};

impl Arg<'_> {
    fn atom_arg(&self, b: &mut RuleBuilder) -> AtomArg {
        match self {
            V(name) => b.v(name),
            C(c) => AtomArg::Const(c.clone()),
        }
    }
}

impl Translator {
    fn ans_pred(&self, idx: u64) -> Sym {
        self.symbols.intern(&format!("{}ans{}", self.prefix, idx))
    }

    fn aux_pred(&self, kind: &str, idx: u64) -> Sym {
        self.symbols
            .intern(&format!("{}ans_{}{}", self.prefix, kind, idx))
    }

    fn next_functor(&mut self, idx: u64) -> Sym {
        self.rule_seq += 1;
        self.symbols
            .intern(&format!("{}f{}_{}", self.prefix, idx, self.rule_seq))
    }

    fn pred(&self, name: &str) -> Sym {
        self.symbols.intern(name)
    }

    /// A fresh subpattern index. A parent takes its children's indices
    /// before it builds its own rules, so every index in a program is
    /// distinct however deep the pattern tree is.
    fn child(&mut self) -> u64 {
        self.next_idx += 1;
        self.next_idx - 1
    }

    /// Two fresh subpattern indices, for a binary operator's operands.
    fn kids(&mut self) -> [u64; 2] {
        [self.child(), self.child()]
    }

    /// Starts a rule with the head `ans_idx(Id, v_x̄, D)`.
    fn rule(&self, idx: u64, vars: &[Var], ctx: &GraphCtx) -> RuleBuilder {
        let mut b = RuleBuilder::new();
        let head = Cols::v(vars).names();
        ans(
            &mut b,
            Slot::Head,
            self.ans_pred(idx),
            Some("Id"),
            &head,
            ctx,
        );
        b
    }

    /// Adds `Id = skolem(f, feeds…)` (bag) or `Id = []` (set) and emits
    /// the rule.
    fn push_with_id(&mut self, mut b: RuleBuilder, dst: bool, feeds: &[String], idx: u64) {
        let id = b.var("Id");
        let value = if dst {
            DExpr::Const(nil_id(&self.symbols))
        } else {
            let functor = self.next_functor(idx);
            DExpr::Skolem(
                functor,
                feeds.iter().map(|n| DExpr::Var(b.var(n))).collect(),
            )
        };
        b.assign(id, value);
        self.program.rules.push(b.build());
    }

    // ------------------------------------------------------------ entry

    fn translate(mut self, query: &Query) -> Result<TranslatedQuery, TranslationError> {
        let dst = query.is_distinct() || query.is_ask();
        let default = Const::Str(self.symbols.intern(preds::DEFAULT_GRAPH));
        let ctx = GraphCtx::Const(default.clone());

        // Join-order optimisation before translation: reorder join
        // operands by variable connectivity so no rule joins two
        // disconnected sub-patterns (a cross product). The paper notes
        // that "query plan optimization provides a huge effect on
        // performance" (§7) and relies on Vadalog's optimizer; this is
        // the SPARQL-side half of that optimisation. Join is commutative
        // and associative under bag semantics, so results are unchanged.
        let pattern = reorder_joins(&query.pattern);

        // Pattern tree root is node 1 (Figure 2: the WHERE clause becomes
        // ans1; the SELECT clause becomes ans).
        self.tau(&pattern, dst, &ctx, 1, false)?;

        let root_pred = self.symbols.intern(&format!("{}ans", self.prefix));

        let columns = match &query.form {
            QueryForm::Ask => {
                self.translate_ask(root_pred, &query.pattern, &ctx);
                Vec::new()
            }
            QueryForm::Select { items, .. } if query.has_aggregates() => {
                let cols =
                    self.translate_select_aggregate(root_pred, query, items, &sig(&pattern), &ctx)?;
                // Group rows carry only their output; a key outside it
                // has no value to sort by.
                let outside = (query.order_by.iter())
                    .flat_map(|c| expr_vars(&c.expr))
                    .any(|v| !cols.contains(&v));
                if outside {
                    return Err(TranslationError::unsupported(
                        "ORDER BY a variable outside an aggregate query's output",
                    ));
                }
                cols
            }
            // Every other form projects its variables plus, as hidden
            // columns, the in-scope variables its ORDER BY reads: SPARQL
            // orders solutions before it projects them (§15), and T_S
            // strips the hidden columns after the sort. CONSTRUCT and
            // DESCRIBE project the variables their graph is built from
            // and run as bag-semantics projections.
            _ => {
                let mut proj = query.projection();
                let in_scope = query.pattern.vars();
                for cond in &query.order_by {
                    for v in expr_vars(&cond.expr) {
                        if in_scope.contains(&v) && !proj.contains(&v) {
                            proj.push(v);
                        }
                    }
                }
                self.translate_select(root_pred, &proj, &query.pattern, &ctx, dst);
                proj
            }
        };

        self.program.outputs.push(root_pred);

        // Solution modifiers are T_S's: each ORDER BY condition compiles
        // once, over the goal predicate's column positions.
        let mut column = |name: &str| {
            columns
                .iter()
                .position(|v| v.name() == name)
                .map(|i| i as u32)
        };
        let mut order = Vec::new();
        for cond in &query.order_by {
            let key =
                crate::expr_translation::sexpr_to_dexpr(&cond.expr, &self.symbols, &mut column)?;
            order.push((key, cond.descending));
        }

        // Every relation the planner indexes fits a 64-bit column mask.
        if self
            .program
            .rules
            .iter()
            .any(|r| r.head.args.len() > MAX_ARITY)
        {
            return Err(TranslationError::unsupported(&format!(
                "relations wider than {MAX_ARITY} columns"
            )));
        }

        // Single-reader rules unfold and filter equalities become join
        // keys before anyone plans, evaluates or explains the program
        // (ARCHITECTURE.md, "Rewrites between T_Q and the planner").
        let program = unfold_and_unify(self.program, &self.symbols);

        Ok(TranslatedQuery {
            program,
            root_pred,
            visible: query.projection().len(),
            columns,
            order,
            offset: query.offset.unwrap_or(0),
            limit: query.limit,
            is_ask: query.is_ask(),
        })
    }

    /// Def. A.21 (Select): `ans(Id, W, D) :- ans1(Id1, var(P), D)` with
    /// null-padding for projected variables that the pattern never binds.
    fn translate_select(
        &mut self,
        root_pred: Sym,
        projection: &[Var],
        pattern: &GraphPattern,
        ctx: &GraphCtx,
        dst: bool,
    ) {
        let pattern_vars = sig(pattern);
        let mut b = RuleBuilder::new();
        let head = Cols::v(projection).names();
        ans(&mut b, Slot::Head, root_pred, Some("Id"), &head, ctx);
        let body = Cols::v(&pattern_vars).names();
        let feeds = ans(&mut b, Slot::Pos, self.ans_pred(1), Some("Id1"), &body, ctx);
        pad(&mut b, projection, &pattern_vars);
        self.push_with_id(b, dst, &feeds, 0);
    }

    /// GROUP BY + a single aggregate (paper Table 1: GROUP BY ✓ with
    /// COUNT etc.). Multiple aggregates per query are out of scope.
    fn translate_select_aggregate(
        &mut self,
        root_pred: Sym,
        query: &Query,
        items: &[SelectItem],
        pattern_vars: &[Var],
        ctx: &GraphCtx,
    ) -> Result<Vec<Var>, TranslationError> {
        let aggs: Vec<&SelectItem> = items
            .iter()
            .filter(|i| matches!(i, SelectItem::Aggregate { .. }))
            .collect();
        if aggs.len() > 1 {
            return Err(TranslationError::unsupported(
                "multiple aggregates in one SELECT",
            ));
        }
        let mut b = RuleBuilder::new();
        let id = b.var("Id");
        // Body: the pattern's answer predicate.
        let scope = Cols::v(pattern_vars);
        let body = scope.names();
        ans(&mut b, Slot::Pos, self.ans_pred(1), Some("Id1"), &body, ctx);
        let mut columns = Vec::new();
        let mut head = vec![AtomArg::Var(id)];
        let mut agg_spec: Option<AggSpec> = None;
        for item in items {
            match item {
                SelectItem::Var(v) => {
                    if !query.group_by.contains(v) {
                        return Err(TranslationError {
                            message: format!("projected variable {v} must appear in GROUP BY"),
                            unsupported: false,
                            feature: None,
                        });
                    }
                    columns.push(v.clone());
                    head.push(b.v(&format!("v_{}", v.name())));
                }
                SelectItem::Aggregate {
                    var,
                    func,
                    distinct,
                    arg,
                } => {
                    columns.push(var.clone());
                    let result = b.var(&format!("v_{}", var.name()));
                    head.push(AtomArg::Var(result));
                    let input = match arg {
                        None => None,
                        Some(e) => Some(self.translate_expr(e, &mut b, scope)?),
                    };
                    agg_spec = Some(AggSpec {
                        func: match func {
                            SAgg::Count => sparqlog_datalog::AggFunc::Count,
                            SAgg::Sum => sparqlog_datalog::AggFunc::Sum,
                            SAgg::Min => sparqlog_datalog::AggFunc::Min,
                            SAgg::Max => sparqlog_datalog::AggFunc::Max,
                            SAgg::Avg => sparqlog_datalog::AggFunc::Avg,
                        },
                        distinct: *distinct,
                        input,
                        result_var: result,
                    });
                }
            }
        }
        head.push(ctx.arg(&mut b));
        b.head(root_pred, head);
        // Aggregate rows form a set: nil ID.
        b.assign(id, DExpr::Const(nil_id(&self.symbols)));
        b.aggregate(agg_spec.expect("checked aggregate present"));
        self.program.rules.push(b.build());
        Ok(columns)
    }

    /// Def. A.22 (Ask).
    fn translate_ask(&mut self, root_pred: Sym, pattern: &GraphPattern, ctx: &GraphCtx) {
        let ask_pred = self.aux_pred("ask", 1);
        // ans_ask(true) :- ans1(Id1, vars, D).
        let mut b = RuleBuilder::new();
        b.head(ask_pred, vec![AtomArg::Const(Const::Bool(true))]);
        let body = Cols::v(&sig(pattern)).names();
        ans(&mut b, Slot::Pos, self.ans_pred(1), Some("Id1"), &body, ctx);
        self.program.rules.push(b.build());
        // ans(H) :- ans_ask(H).
        let mut b = RuleBuilder::new();
        let h = b.v("H");
        b.head(root_pred, vec![h.clone()]);
        b.pos(ask_pred, vec![h]);
        self.program.rules.push(b.build());
        // ans(false) :- not ans_ask(true).
        let mut b = RuleBuilder::new();
        b.head(root_pred, vec![AtomArg::Const(Const::Bool(false))]);
        b.neg(ask_pred, vec![AtomArg::Const(Const::Bool(true))]);
        self.program.rules.push(b.build());
    }

    fn term_pattern_arg(
        &self,
        b: &mut RuleBuilder,
        tp: &TermPattern,
        bound: &mut Vec<String>,
    ) -> AtomArg {
        match tp {
            TermPattern::Var(v) => {
                let n = format!("v_{}", v.name());
                if !bound.contains(&n) {
                    bound.push(n.clone());
                }
                AtomArg::Var(b.var(&n))
            }
            TermPattern::Term(t) => AtomArg::Const(term_to_const(t, &self.symbols)),
        }
    }

    // ------------------------------------------------- pattern translation

    /// The translation function τ(P, dst, D, idx) of Figure 5 / Defs
    /// A.3–A.11. `force_set` propagates the set-ID regime of range paths.
    /// Every rule derives `ans_idx(Id, v_x̄, D)` with `x̄ = sig(P)`.
    fn tau(
        &mut self,
        p: &GraphPattern,
        dst: bool,
        ctx: &GraphCtx,
        idx: u64,
        force_set: bool,
    ) -> Result<(), TranslationError> {
        let dst = dst || force_set;
        let vars = sig(p);
        let children: Vec<(&GraphPattern, u64)> = match p {
            GraphPattern::Empty => {
                // The empty group yields exactly the empty mapping μ0.
                let mut b = self.rule(idx, &vars, ctx);
                if let GraphCtx::Var(name) = ctx {
                    let g = b.v(name);
                    b.pos(self.pred(preds::NAMED), vec![g]);
                }
                self.push_with_id(b, dst, &[], idx);
                vec![]
            }
            GraphPattern::Triple(t) => {
                // Def. A.3.
                let mut b = self.rule(idx, &vars, ctx);
                let mut feeds = Vec::new();
                let s = self.term_pattern_arg(&mut b, &t.subject, &mut feeds);
                let pr = self.term_pattern_arg(&mut b, &t.predicate, &mut feeds);
                let o = self.term_pattern_arg(&mut b, &t.object, &mut feeds);
                let d = ctx.arg(&mut b);
                ctx.feed(&mut feeds);
                b.pos(self.pred(preds::TRIPLE), vec![s, pr, o, d]);
                self.push_with_id(b, dst, &feeds, idx);
                vec![]
            }
            GraphPattern::Join(p1, p2) => {
                let [l, r] = self.kids();
                let sides = [(l, &sig(p1)[..]), (r, &sig(p2)[..])];
                self.join_rule(idx, sides, &certain_on_both(p1, p2), &[], dst, ctx)?;
                vec![(p1, l), (p2, r)]
            }
            GraphPattern::Union(p1, p2) => {
                // Def. A.6: each branch, null-padded to the union's columns.
                let [l, r] = self.kids();
                for (child, c) in [(p1, l), (p2, r)] {
                    let child_vars = sig(child);
                    let mut b = self.rule(idx, &vars, ctx);
                    let body = Cols::v(&child_vars).names();
                    let feeds = ans(&mut b, Slot::Pos, self.ans_pred(c), Some("Id1"), &body, ctx);
                    pad(&mut b, &vars, &child_vars);
                    self.push_with_id(b, dst, &feeds, idx);
                }
                vec![(p1, l), (p2, r)]
            }
            GraphPattern::Optional(p1, p2) => {
                // Defs A.7 / A.9: peel filters off the right side.
                let (inner, conds) = peel_filters(p2);
                let [l, r] = self.kids();
                let sides = [(l, &sig(p1)[..]), (r, &sig(inner)[..])];
                let certain = certain_on_both(p1, inner);
                self.translate_optional(idx, sides, &certain, &conds, dst, ctx)?;
                vec![(p1, l), (inner, r)]
            }
            GraphPattern::Minus(p1, p2) => {
                let [l, r] = self.kids();
                self.translate_minus(idx, [(l, &sig(p1)), (r, &sig(p2))], dst, ctx);
                vec![(p1, l), (p2, r)]
            }
            GraphPattern::Filter(p1, cond) => {
                // Def. A.8.
                let c = self.child();
                let mut b = self.rule(idx, &vars, ctx);
                let body = Cols::v(&vars).names();
                let feeds = ans(&mut b, Slot::Pos, self.ans_pred(c), Some("Id1"), &body, ctx);
                self.conds(&mut b, std::slice::from_ref(cond), Cols::v(&vars))?;
                self.push_with_id(b, dst, &feeds, idx);
                vec![(p1, c)]
            }
            GraphPattern::Graph(spec, p1) => {
                // Def. A.4: the child runs in the graph context `spec`,
                // which ranges over `named`.
                let child_ctx = match spec {
                    GraphSpec::Iri(iri) => GraphCtx::Const(Const::Iri(self.symbols.intern(iri))),
                    GraphSpec::Var(v) => GraphCtx::Var(format!("v_{}", v.name())),
                };
                let c = self.child();
                let mut b = self.rule(idx, &vars, ctx);
                let body = Cols::v(&sig(p1)).names();
                let pred = self.ans_pred(c);
                let mut feeds = ans(&mut b, Slot::Pos, pred, Some("Id1"), &body, &child_ctx);
                let g = child_ctx.arg(&mut b);
                b.pos(self.pred(preds::NAMED), vec![g]);
                child_ctx.feed(&mut feeds);
                self.push_with_id(b, dst, &feeds, idx);
                return self.tau(p1, dst, &child_ctx, c, force_set);
            }
            GraphPattern::Path {
                subject,
                path,
                object,
            } => {
                // Def. A.11: glue the endpoints onto the top-level path
                // expression.
                let c = self.child();
                let mut b = self.rule(idx, &vars, ctx);
                let mut feeds = vec!["Id1".to_string()];
                let s = self.term_pattern_arg(&mut b, subject, &mut feeds);
                let o = self.term_pattern_arg(&mut b, object, &mut feeds);
                let d = ctx.arg(&mut b);
                ctx.feed(&mut feeds);
                let id1 = b.v("Id1");
                b.pos(self.ans_pred(c), vec![id1, s, o, d]);
                self.push_with_id(b, dst, &feeds, idx);
                if self.bound_closure(path, subject, object, ctx, c)? {
                    return Ok(());
                }
                return self.tau_pp(path, dst, subject, object, ctx, c, force_set);
            }
        };
        for (child, c) in children {
            self.tau(child, dst, ctx, c, force_set)?;
        }
        Ok(())
    }

    /// Def. A.5 (Join), and Def. A.9's join rule under the conditions
    /// `conds`: `ans_i(Id, x̄, D) :- ans_l(Id1, v1, D), compat(r1_x, r2_x,
    /// v_x)…, ans_r(Id2, v2, D), C`, each shared `x` renamed apart on both
    /// sides unless it is one of `certain`, which both atoms share as the
    /// column `v_x`. The compat items sit before the second answer atom:
    /// the join-ordering optimisation §5.1 attributes to the underlying
    /// engine.
    fn join_rule(
        &mut self,
        idx: u64,
        [(l, v1), (r, v2)]: [(u64, &[Var]); 2],
        certain: &[Var],
        conds: &[SExpr],
        dst: bool,
        ctx: &GraphCtx,
    ) -> Result<(), TranslationError> {
        let shared = loose(v1, v2, certain);
        let all = union(v1, v2);
        let mut b = self.rule(idx, &all, ctx);
        let (lp, rp) = (self.ans_pred(l), self.ans_pred(r));
        let left = Cols::v(v1).rename(&shared, "r1_").names();
        let mut feeds = ans(&mut b, Slot::Pos, lp, Some("Id1"), &left, ctx);
        compat_shared(&mut b, &shared, "r1_", "v_");
        feeds.extend(shared.iter().map(|v| format!("v_{}", v.name())));
        let right = Cols::v(v2).rename(&shared, "r2_").names();
        for feed in ans(&mut b, Slot::Pos, rp, Some("Id2"), &right, ctx) {
            if !feeds.contains(&feed) {
                feeds.push(feed);
            }
        }
        self.conds(&mut b, conds, Cols::v(&all))?;
        self.push_with_id(b, dst, &feeds, idx);
        Ok(())
    }

    /// Defs A.7 / A.9 (Optional, Optional-Filter). `conds` is the filter
    /// pulled off the right-hand side (empty for plain OPTIONAL); the
    /// `certain` shared variables are one column, as in `join_rule`.
    fn translate_optional(
        &mut self,
        idx: u64,
        sides: [(u64, &[Var]); 2],
        certain: &[Var],
        conds: &[SExpr],
        dst: bool,
        ctx: &GraphCtx,
    ) -> Result<(), TranslationError> {
        let [(l, v1), (r, v2)] = sides;
        let shared = loose(v1, v2, certain);
        let all = union(v1, v2);
        let opt_pred = self.aux_pred("opt", idx);

        // Rule 1: ans_opt(var(P1), D) :- ans_l(Id1, var(P1), D),
        //         compat(x, r2_x, z_x)…, ans_r(Id2, v2(var(P2)), D), [C].
        let (lp, rp) = (self.ans_pred(l), self.ans_pred(r));
        let mut b = RuleBuilder::new();
        let left = Cols::v(v1).names();
        ans(&mut b, Slot::Head, opt_pred, None, &left, ctx);
        ans(&mut b, Slot::Pos, lp, Some("Id1"), &left, ctx);
        compat_shared(&mut b, &shared, "v_", "z_");
        let right = Cols::v(v2).rename(&shared, "r2_").names();
        ans(&mut b, Slot::Pos, rp, Some("Id2"), &right, ctx);
        // The filter condition over the *joined* mapping: shared
        // variables refer to the compat output z_x.
        self.conds(&mut b, conds, Cols::v(&all).rename(&shared, "z_"))?;
        self.program.rules.push(b.build());

        // Rule 2: the join rule (+C).
        self.join_rule(idx, sides, certain, conds, dst, ctx)?;

        // Rule 3: ans_i(Id, var(Pi), D) :- ans_l(Id1, var(P1), D),
        //         not ans_opt(var(P1), D), y = null...
        self.antijoin_rule(idx, &all, (l, v1), opt_pred, dst, ctx);
        Ok(())
    }

    /// Def. A.10 (Minus).
    fn translate_minus(
        &mut self,
        idx: u64,
        [(l, v1), (r, v2)]: [(u64, &[Var]); 2],
        dst: bool,
        ctx: &GraphCtx,
    ) {
        let shared = shared(v1, v2);
        let join_pred = self.aux_pred("join", idx);
        let equal_pred = self.aux_pred("equal", idx);
        let left = Cols::v(v1).names();
        let right = Cols::new(v2, "w2_").rename(&shared, "r2_").names();
        // x̄ = var(P1) ∪ v2(var(P2)) — columns of ans_join.
        let join_cols = [left.clone(), right.clone()].concat();

        // ans_join(x̄, D) :- ans_l(...), compat(x, r2_x, z_x), ans_r(...).
        let (lp, rp) = (self.ans_pred(l), self.ans_pred(r));
        let mut b = RuleBuilder::new();
        ans(&mut b, Slot::Head, join_pred, None, &join_cols, ctx);
        ans(&mut b, Slot::Pos, lp, Some("Id1"), &left, ctx);
        compat_shared(&mut b, &shared, "v_", "z_");
        ans(&mut b, Slot::Pos, rp, Some("Id2"), &right, ctx);
        self.program.rules.push(b.build());

        // ans_equal(var(P1), D) :- ans_join(x̄, D), x_j = r2_x_j,
        //                          !sameTerm(x_j, null).   — one rule per shared var.
        for v in &shared {
            let mut b = RuleBuilder::new();
            ans(&mut b, Slot::Head, equal_pred, None, &left, ctx);
            ans(&mut b, Slot::Pos, join_pred, None, &join_cols, ctx);
            let x = DExpr::Var(b.var(&format!("v_{}", v.name())));
            let r = DExpr::Var(b.var(&format!("r2_{}", v.name())));
            b.cond(DExpr::Cmp(CmpOp::Eq, Box::new(x.clone()), Box::new(r)));
            b.cond(DExpr::Not(Box::new(DExpr::SameTerm(
                Box::new(x),
                Box::new(DExpr::Const(Const::Null)),
            ))));
            self.program.rules.push(b.build());
        }

        // ans_i(Id, var(P1), D) :- ans_l(Id1, var(P1), D),
        //                          not ans_equal(var(P1), D).
        self.antijoin_rule(idx, v1, (l, v1), equal_pred, dst, ctx);
    }

    /// `ans_i(Id, v_x̄, D) :- ans_l(Id1, var(P1), D), not aux(var(P1), D)`,
    /// null-padding the variables of `x̄` that `P1` lacks: the last rule of
    /// Defs A.7 and A.10.
    fn antijoin_rule(
        &mut self,
        idx: u64,
        vars: &[Var],
        (l, v1): (u64, &[Var]),
        aux: Sym,
        dst: bool,
        ctx: &GraphCtx,
    ) {
        let mut b = self.rule(idx, vars, ctx);
        let left = Cols::v(v1).names();
        let feeds = ans(&mut b, Slot::Pos, self.ans_pred(l), Some("Id1"), &left, ctx);
        ans(&mut b, Slot::Neg, aux, None, &left, ctx);
        pad(&mut b, vars, v1);
        self.push_with_id(b, dst, &feeds, idx);
    }

    // ------------------------------------------------- path translation

    /// The translation function τ_PP (Defs A.12–A.20). Every path answer
    /// predicate has the layout `ans_i(Id, X, Y, D)` (see `path_rule`).
    #[allow(clippy::too_many_arguments)]
    fn tau_pp(
        &mut self,
        pp: &PropertyPath,
        dst: bool,
        subject: &TermPattern,
        object: &TermPattern,
        ctx: &GraphCtx,
        idx: u64,
        force_set: bool,
    ) -> Result<(), TranslationError> {
        let dst = dst || force_set;
        let children: Vec<(&PropertyPath, u64)> = match pp {
            PropertyPath::Link(p) => {
                // Def. A.12.
                let p = C(Const::Iri(self.symbols.intern(p.as_ref())));
                let body = [(self.pred(preds::TRIPLE), vec![V("X"), p, V("Y")])];
                let id = Some((dst, &["X", "Y"][..]));
                self.path_rule(idx, [V("X"), V("Y")], &body, id, &[], ctx);
                vec![]
            }
            PropertyPath::Inverse(inner) => {
                // Def. A.13 propagates S and O unchanged (zero-length
                // pairs are symmetric, so no swap is needed).
                let c = self.child();
                let body = [(self.ans_pred(c), vec![V("Id1"), V("Y"), V("X")])];
                let id = Some((dst, &["Id1", "X", "Y"][..]));
                self.path_rule(idx, [V("X"), V("Y")], &body, id, &[], ctx);
                vec![(inner, c)]
            }
            PropertyPath::Alternative(l, r) => {
                // Def. A.14.
                let [cl, cr] = self.kids();
                for c in [cl, cr] {
                    let body = [(self.ans_pred(c), vec![V("Id1"), V("X"), V("Y")])];
                    let id = Some((dst, &["Id1", "X", "Y"][..]));
                    self.path_rule(idx, [V("X"), V("Y")], &body, id, &[], ctx);
                }
                vec![(l, cl), (r, cr)]
            }
            PropertyPath::Sequence(l, r) => {
                // Def. A.15: the *top-level* S and O propagate to both
                // children unchanged (they only influence zero-length
                // paths, where the extra pairs are harmless — see the
                // correctness discussion in Appendix B).
                let [cl, cr] = self.kids();
                let body = [
                    (self.ans_pred(cl), vec![V("Id1"), V("X"), V("Y")]),
                    (self.ans_pred(cr), vec![V("Id2"), V("Y"), V("Z")]),
                ];
                let id = Some((dst, &["Id1", "X", "Y", "Id2", "Z"][..]));
                self.path_rule(idx, [V("X"), V("Z")], &body, id, &[], ctx);
                vec![(l, cl), (r, cr)]
            }
            PropertyPath::OneOrMore(inner) => {
                // Def. A.16 — transitive closure with nil IDs.
                let c = self.child();
                self.emit_one_or_more(idx, c, ctx);
                vec![(inner, c)]
            }
            PropertyPath::ZeroOrOne(inner) => {
                // Def. A.18: the zero-length rules and
                // ans_i([], X, Y, D) :- ans_c(Id1, X, Y, D).
                let c = self.child();
                self.emit_zero_rules(idx, subject, object, ctx);
                let body = [(self.ans_pred(c), vec![V("Id1"), V("X"), V("Y")])];
                self.path_rule(idx, [V("X"), V("Y")], &body, None, &[], ctx);
                vec![(inner, c)]
            }
            PropertyPath::ZeroOrMore(inner) => {
                // Def. A.19 = zero part + one-or-more part.
                let c = self.child();
                self.emit_zero_rules(idx, subject, object, ctx);
                self.emit_one_or_more(idx, c, ctx);
                vec![(inner, c)]
            }
            PropertyPath::NegatedSet { forward, backward } => {
                // Def. A.20: a forward rule (also emitted when the set is
                // empty: `!()` matches every predicate) and a backward one.
                let body = [(self.pred(preds::TRIPLE), vec![V("X"), V("P"), V("Y")])];
                let id = Some((dst, &["X", "P", "Y"][..]));
                if !forward.is_empty() || backward.is_empty() {
                    self.path_rule(idx, [V("X"), V("Y")], &body, id, forward, ctx);
                }
                if !backward.is_empty() {
                    self.path_rule(idx, [V("Y"), V("X")], &body, id, backward, ctx);
                }
                vec![]
            }
            // ------------------------- gMark range paths (§4.3), desugared
            PropertyPath::Exactly(inner, n) => match exactly(inner, *n) {
                // p{0}: zero-length paths only.
                None => {
                    self.emit_zero_rules(idx, subject, object, ctx);
                    vec![]
                }
                Some(path) => return self.tau_pp(&path, dst, subject, object, ctx, idx, true),
            },
            PropertyPath::AtLeast(inner, n) => {
                let path = at_least(inner, *n);
                return self.tau_pp(&path, dst, subject, object, ctx, idx, true);
            }
            PropertyPath::Between(inner, n, m) => {
                if *n == 0 {
                    self.emit_zero_rules(idx, subject, object, ctx);
                }
                let lo = (*n).max(1);
                if lo > *m {
                    return Ok(()); // {0,0}: zero rules only
                }
                // Alternative of Exactly(k) for k in lo..=m, folded right.
                let mut path = exactly(inner, *m).expect("m >= 1");
                for k in (lo..*m).rev() {
                    path = PropertyPath::Alternative(
                        Box::new(exactly(inner, k).expect("k >= 1")),
                        Box::new(path),
                    );
                }
                return self.tau_pp(&path, dst, subject, object, ctx, idx, true);
            }
        };
        // A closure's answers carry `[]` IDs (Defs A.16–A.19), so the
        // tuple IDs of its inner path would be interned only to be
        // dropped: the inner path is translated with set semantics.
        let closure = matches!(
            pp,
            PropertyPath::OneOrMore(_) | PropertyPath::ZeroOrOne(_) | PropertyPath::ZeroOrMore(_)
        );
        for (child, c) in children {
            self.tau_pp(child, dst, subject, object, ctx, c, force_set || closure)?;
        }
        Ok(())
    }

    /// The two transitive-closure rules of Def. A.16 (IDs forced to `[]`):
    /// `ans_i([], X, Y, D) :- ans_c(Id1, X, Y, D)` and
    /// `ans_i([], X, Z, D) :- ans_c(Id1, X, Y, D), ans_i(Id2, Y, Z, D)`.
    fn emit_one_or_more(&mut self, idx: u64, c: u64, ctx: &GraphCtx) {
        let pred = self.ans_pred(c);
        let step = || (pred, vec![V("Id1"), V("X"), V("Y")]);
        self.path_rule(idx, [V("X"), V("Y")], &[step()], None, &[], ctx);
        let next = (self.ans_pred(idx), vec![V("Id2"), V("Y"), V("Z")]);
        self.path_rule(idx, [V("X"), V("Z")], &[step(), next], None, &[], ctx);
    }

    /// Factoring (Naughton, Ramakrishnan, Sagiv and Ullman, VLDB 1989)
    /// of a triple pattern's own `p+` or `p*` when an endpoint is a
    /// constant `c`: instead of Def. A.16's binary closure, which derives
    /// the pairs of every start node before the reader picks out `c`,
    /// `ans_idx` holds only the pairs at `c`:
    /// `ans_idx([], c, Y, D) :- step(c, Y, D)` and
    /// `ans_idx([], c, Z, D) :- ans_idx(Id2, c, Y, D), step(Y, Z, D)`,
    /// grown from the subject when it is bound and mirrored from the
    /// object otherwise. For `p*` the endpoint rule `(c, c)` seeds the
    /// recursion in place of the first rule and of the `subjectOrObject`
    /// zero rule. `step(Y, Z, D)` is `triple(Y, p, Z, D)` for an IRI `p`
    /// (ends swapped for `^p`) and the child answer `ans_c` of any other
    /// inner path. Returns false, emitting nothing, for any other shape.
    fn bound_closure(
        &mut self,
        pp: &PropertyPath,
        subject: &TermPattern,
        object: &TermPattern,
        ctx: &GraphCtx,
        idx: u64,
    ) -> Result<bool, TranslationError> {
        let (inner, star) = match pp {
            PropertyPath::OneOrMore(inner) => (&**inner, false),
            PropertyPath::ZeroOrMore(inner) => (&**inner, true),
            _ => return Ok(false),
        };
        let (end, forward) = match (subject, object) {
            (TermPattern::Term(s), _) => (s, true),
            (TermPattern::Var(_), TermPattern::Term(o)) => (o, false),
            _ => return Ok(false),
        };
        let c = term_to_const(end, &self.symbols);
        let (link, inverse) = match inner {
            PropertyPath::Inverse(p) => (&**p, true),
            p => (p, false),
        };
        let iri = match link {
            PropertyPath::Link(p) => Some(Const::Iri(self.symbols.intern(p.as_ref()))),
            _ => None,
        };
        let child = iri.is_none().then(|| self.child());
        let pred = match child {
            Some(cc) => self.ans_pred(cc),
            None => self.pred(preds::TRIPLE),
        };
        // The atom step(from, to, D).
        let step = |from: Arg<'static>, to: Arg<'static>| match &iri {
            Some(p) if inverse => (pred, vec![to, C(p.clone()), from]),
            Some(p) => (pred, vec![from, C(p.clone()), to]),
            None => (pred, vec![V("Id1"), from, to]),
        };
        // The closure's ends: `c` and the free end `var`.
        let ends = |var: &'static str| {
            if forward {
                [C(c.clone()), V(var)]
            } else {
                [V(var), C(c.clone())]
            }
        };
        if star {
            self.endpoint_rule(idx, c.clone(), ctx);
        } else {
            let [from, to] = ends("Y");
            self.path_rule(idx, ends("Y"), &[step(from, to)], None, &[], ctx);
        }
        let next = if forward {
            step(V("Y"), V("Z"))
        } else {
            step(V("Z"), V("Y"))
        };
        let [from, to] = ends("Y");
        let body = [(self.ans_pred(idx), vec![V("Id2"), from, to]), next];
        self.path_rule(idx, ends("Z"), &body, None, &[], ctx);
        // The closure's IDs are `[]`: its inner path runs with set
        // semantics, as in `tau_pp`.
        if let Some(cc) = child {
            self.tau_pp(inner, true, subject, object, ctx, cc, true)?;
        }
        Ok(true)
    }

    /// The zero-length-path rules of Defs A.18/A.19: one rule over
    /// `subjectOrObject`, plus endpoint rules when the pattern's subject
    /// and/or object are constants.
    fn emit_zero_rules(
        &mut self,
        idx: u64,
        subject: &TermPattern,
        object: &TermPattern,
        ctx: &GraphCtx,
    ) {
        // ans_i([], X, X, D) :- subjectOrObject(X, D).
        let body = [(self.pred(preds::SUBJECT_OR_OBJECT), vec![V("X")])];
        self.path_rule(idx, [V("X"), V("X")], &body, None, &[], ctx);
        // Endpoint zero-paths (Table 5 rows 4–6): if exactly one endpoint
        // is a constant t, or both are the same constant, add (t, t).
        let endpoint: Option<&sparqlog_rdf::Term> = match (subject, object) {
            (TermPattern::Term(s), TermPattern::Var(_)) => Some(s),
            (TermPattern::Var(_), TermPattern::Term(o)) => Some(o),
            (TermPattern::Term(s), TermPattern::Term(o)) if s == o => Some(s),
            _ => None,
        };
        if let Some(t) = endpoint {
            let c = term_to_const(t, &self.symbols);
            self.endpoint_rule(idx, c, ctx);
        }
    }

    /// The zero-length pair `ans_idx([], c, c, D)` of a constant endpoint.
    fn endpoint_rule(&mut self, idx: u64, c: Const, ctx: &GraphCtx) {
        // Under a graph variable, range over the named graphs to keep
        // the rule safe.
        let body = match ctx {
            GraphCtx::Const(_) => vec![],
            GraphCtx::Var(_) => vec![(self.pred(preds::NAMED), vec![])],
        };
        self.path_rule(idx, [C(c.clone()), C(c)], &body, None, &[], ctx);
    }

    /// Emits the path rule `ans_idx(Id, x, y, D) :- atoms, P ≠ neq…`,
    /// each body atom completed by `D`. With `id = Some((dst, feeds))`
    /// the rule assigns a tuple ID over `feeds` and the graph variable;
    /// with `None` its head carries the nil ID `[]` of the set-semantics
    /// closure rules. `neq` are the IRIs a negated property set excludes
    /// from the predicate `P`.
    fn path_rule(
        &mut self,
        idx: u64,
        ends: [Arg; 2],
        atoms: &[(Sym, Vec<Arg>)],
        id: Option<(bool, &[&str])>,
        neq: &[Arc<str>],
        ctx: &GraphCtx,
    ) {
        let mut b = RuleBuilder::new();
        let mut head = vec![match id {
            Some(_) => b.v("Id"),
            None => AtomArg::Const(nil_id(&self.symbols)),
        }];
        head.extend(ends.iter().map(|e| e.atom_arg(&mut b)));
        head.push(ctx.arg(&mut b));
        b.head(self.ans_pred(idx), head);
        for (pred, args) in atoms {
            let mut args: Vec<AtomArg> = args.iter().map(|a| a.atom_arg(&mut b)).collect();
            args.push(ctx.arg(&mut b));
            b.pos(*pred, args);
        }
        for p in neq {
            let pv = DExpr::Var(b.var("P"));
            let iri = DExpr::Const(Const::Iri(self.symbols.intern(p)));
            b.cond(DExpr::Cmp(CmpOp::Neq, Box::new(pv), Box::new(iri)));
        }
        match id {
            Some((dst, feeds)) => {
                let mut feeds: Vec<String> = feeds.iter().map(|f| f.to_string()).collect();
                ctx.feed(&mut feeds);
                self.push_with_id(b, dst, &feeds, idx);
            }
            None => self.program.rules.push(b.build()),
        }
    }

    // --------------------------------------------------- filter exprs

    /// Translates a SPARQL filter expression into a Datalog expression
    /// (§5.1 "Filter constraints": conditions are copied into the rule
    /// body). `scope` names each in-scope SPARQL variable's column;
    /// out-of-scope variables are unbound per SPARQL: they become the
    /// `null` constant, so comparisons error out and `BOUND` is false.
    fn translate_expr(
        &self,
        e: &SExpr,
        b: &mut RuleBuilder,
        scope: Cols,
    ) -> Result<DExpr, TranslationError> {
        crate::expr_translation::sexpr_to_dexpr(e, &self.symbols, &mut |name| {
            scope.col(name).map(|n| b.var(&n))
        })
    }

    /// Adds each of `conds` to the rule body as a condition.
    fn conds(
        &self,
        b: &mut RuleBuilder,
        conds: &[SExpr],
        scope: Cols,
    ) -> Result<(), TranslationError> {
        for cond in conds {
            let c = self.translate_expr(cond, b, scope)?;
            b.cond(c);
        }
        Ok(())
    }
}

/// Flattens nested joins and reorders the operands greedily by variable
/// connectivity: each operand after the first shares at least one
/// variable with the patterns before it whenever possible. Rebuilds a
/// left-deep join tree. Applied recursively below every operator.
fn reorder_joins(p: &GraphPattern) -> GraphPattern {
    match p {
        GraphPattern::Join(_, _) => {
            let mut leaves = Vec::new();
            flatten_joins(p, &mut leaves);
            let leaves: Vec<GraphPattern> = leaves.into_iter().map(reorder_joins).collect();

            let mut remaining: Vec<GraphPattern> = leaves;
            let mut ordered = vec![remaining.remove(0)];
            let mut bound: Vec<Var> = ordered[0].vars();
            while !remaining.is_empty() {
                let pick = remaining
                    .iter()
                    .position(|cand| cand.vars().iter().any(|v| bound.contains(v)))
                    .unwrap_or(0);
                let next = remaining.remove(pick);
                for v in next.vars() {
                    if !bound.contains(&v) {
                        bound.push(v);
                    }
                }
                ordered.push(next);
            }
            let mut it = ordered.into_iter();
            let first = it.next().expect("non-empty join");
            it.fold(first, |acc, next| {
                GraphPattern::Join(Box::new(acc), Box::new(next))
            })
        }
        GraphPattern::Union(a, b) => {
            GraphPattern::Union(Box::new(reorder_joins(a)), Box::new(reorder_joins(b)))
        }
        GraphPattern::Optional(a, b) => {
            GraphPattern::Optional(Box::new(reorder_joins(a)), Box::new(reorder_joins(b)))
        }
        GraphPattern::Minus(a, b) => {
            GraphPattern::Minus(Box::new(reorder_joins(a)), Box::new(reorder_joins(b)))
        }
        GraphPattern::Filter(a, c) => GraphPattern::Filter(Box::new(reorder_joins(a)), c.clone()),
        GraphPattern::Graph(spec, a) => {
            GraphPattern::Graph(spec.clone(), Box::new(reorder_joins(a)))
        }
        leaf => leaf.clone(),
    }
}

/// Collects the leaves of a join spine (left-to-right).
fn flatten_joins<'a>(p: &'a GraphPattern, out: &mut Vec<&'a GraphPattern>) {
    match p {
        GraphPattern::Join(a, b) => {
            flatten_joins(a, out);
            flatten_joins(b, out);
        }
        other => out.push(other),
    }
}

/// The distinct variables an expression mentions, in first-mention
/// order (used to widen graph-form projections with ORDER BY keys).
fn expr_vars(e: &SExpr) -> Vec<Var> {
    fn walk(e: &SExpr, out: &mut Vec<Var>) {
        let push = |v: &Var, out: &mut Vec<Var>| {
            if !out.contains(v) {
                out.push(v.clone());
            }
        };
        match e {
            SExpr::Var(v) | SExpr::Bound(v) => push(v, out),
            SExpr::Const(_) => {}
            SExpr::Not(a)
            | SExpr::Neg(a)
            | SExpr::IsIri(a)
            | SExpr::IsBlank(a)
            | SExpr::IsLiteral(a)
            | SExpr::IsNumeric(a)
            | SExpr::Str(a)
            | SExpr::Lang(a)
            | SExpr::Datatype(a)
            | SExpr::Ucase(a)
            | SExpr::Lcase(a)
            | SExpr::Strlen(a) => walk(a, out),
            SExpr::Or(a, b)
            | SExpr::And(a, b)
            | SExpr::Compare(_, a, b)
            | SExpr::Arith(_, a, b)
            | SExpr::Contains(a, b)
            | SExpr::StrStarts(a, b)
            | SExpr::StrEnds(a, b)
            | SExpr::SameTerm(a, b)
            | SExpr::LangMatches(a, b) => {
                walk(a, out);
                walk(b, out);
            }
            SExpr::Regex(a, b, flags) => {
                walk(a, out);
                walk(b, out);
                if let Some(f) = flags {
                    walk(f, out);
                }
            }
        }
    }
    let mut out = Vec::new();
    walk(e, &mut out);
    out
}

/// Peels top-level FILTER wrappers off a pattern: `(P FILTER C1) FILTER C2`
/// → `(P, [C1, C2])`. Used to recognise the Optional-Filter shape of
/// Def. A.9.
fn peel_filters(p: &GraphPattern) -> (&GraphPattern, Vec<SExpr>) {
    let mut conds = Vec::new();
    let mut cur = p;
    while let GraphPattern::Filter(inner, c) = cur {
        conds.push(c.clone());
        cur = inner;
    }
    conds.reverse();
    (cur, conds)
}

/// `p{n}` for `n ≥ 1` as a sequence; `None` for `n = 0`.
fn exactly(p: &PropertyPath, n: u32) -> Option<PropertyPath> {
    if n == 0 {
        return None;
    }
    let mut out = p.clone();
    for _ in 1..n {
        out = PropertyPath::Sequence(Box::new(p.clone()), Box::new(out));
    }
    Some(out)
}

/// `p{n,}` desugared: `p{0,}` = `p*`, `p{1,}` = `p+`, `p{n,}` =
/// `p{n-1} / p+`.
fn at_least(p: &PropertyPath, n: u32) -> PropertyPath {
    match n {
        0 => PropertyPath::ZeroOrMore(Box::new(p.clone())),
        1 => PropertyPath::OneOrMore(Box::new(p.clone())),
        n => PropertyPath::Sequence(
            Box::new(exactly(p, n - 1).expect("n-1 >= 1")),
            Box::new(PropertyPath::OneOrMore(Box::new(p.clone()))),
        ),
    }
}
