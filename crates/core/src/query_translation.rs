//! The query translation method **T_Q** (paper §5, Appendix A.2–A.4).
//!
//! Translates a parsed SPARQL query into a Warded Datalog± program by
//! recursively walking the pattern tree. Subpattern `i`'s bindings live in
//! predicate `ans<i>`; children get indices `2i` and `2i+1` (§5.1,
//! "General strategy"). Under **bag semantics** every answer predicate
//! carries a tuple-ID argument generated by a Skolem functor over the
//! rule's positive body variables (§5.1 "Bag semantics", Appendix C);
//! under **set semantics** (DISTINCT/ASK and the three recursive path
//! operators) the ID is forced to the constant `[]`, collapsing
//! duplicates.
//!
//! Deviations from the appendix:
//!
//! * `subjectOrObject` carries the graph as a second argument so
//!   zero-length paths are computed per graph;
//! * the zero-length-path rule for constant endpoints is unconditional
//!   (the appendix guards it with `not Term(X)`, which under nil tuple-IDs
//!   is redundant — duplicates collapse anyway — and would wrongly exclude
//!   terms appearing only in predicate position);
//! * the gMark range paths `p{n}`, `p{n,}`, `p{n,m}` are desugared into
//!   sequences/alternatives and evaluated with set semantics, like the
//!   other unbounded operators;
//! * the finished program passes through
//!   [`unify_equalities`](sparqlog_datalog::rewrite): a filter `x = y`,
//!   `x = c` or `sameTerm(x, y)` becomes a join key in a rule that
//!   inlines the join beneath it, instead of a filter over its product.

use std::sync::Arc;

use sparqlog_datalog::{
    unify_equalities, AggSpec, AtomArg, Const, Expr as DExpr, PostOp, Program, RuleBuilder, Sym,
    SymbolTable,
};
use sparqlog_sparql::{
    AggFunc as SAgg, Expr as SExpr, GraphPattern, GraphSpec, OrderCondition, PropertyPath, Query,
    QueryForm, SelectItem, TermPattern, Var,
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
    /// Projection variables, in output order. Tuple layout of the goal
    /// predicate: `[Id, columns..., D]` for SELECT; `[HasResult]` for ASK.
    pub columns: Vec<Var>,
    /// True for ASK queries.
    pub is_ask: bool,
    /// True if ORDER BY / LIMIT / OFFSET were compiled into `@post`
    /// directives; otherwise T_S must apply them.
    pub modifiers_in_post: bool,
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
    };
    t.translate(query)
}

struct Translator {
    symbols: Arc<SymbolTable>,
    program: Program,
    prefix: String,
    rule_seq: usize,
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

/// Binds variable `name` to null: Def. A.2's positive `null(name)`.
fn null_pad(b: &mut RuleBuilder, name: &str) {
    let var = b.var(name);
    b.assign(var, DExpr::Const(Const::Null));
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
        let pattern_vars = sig(&pattern);

        let (columns, is_ask) = match &query.form {
            QueryForm::Ask => {
                self.translate_ask(root_pred, &query.pattern, &ctx)?;
                (Vec::new(), true)
            }
            // The graph-producing forms run their WHERE clause as a plain
            // (bag-semantics) projection of the variables the template /
            // describe targets mention; T_S builds the graph from the
            // resulting solution sequence. ORDER BY may reference WHERE
            // variables the graph construction itself does not need —
            // carry those as extra columns so the deferred sort (and any
            // LIMIT/OFFSET after it) sees its keys instead of silently
            // dropping the condition. The graph builders look their
            // variables up by name, so extra columns are inert there.
            QueryForm::Construct { .. } | QueryForm::Describe { .. } => {
                let mut proj = query.projection();
                let in_scope = query.pattern.vars();
                for cond in &query.order_by {
                    for v in expr_vars(&cond.expr) {
                        if in_scope.contains(&v) && !proj.contains(&v) {
                            proj.push(v);
                        }
                    }
                }
                self.translate_select(root_pred, &proj, &query.pattern, &ctx, dst)?;
                (proj, false)
            }
            QueryForm::Select { items, .. } => {
                let cols = if query.has_aggregates() {
                    self.translate_select_aggregate(
                        root_pred,
                        query,
                        items,
                        &pattern_vars,
                        &ctx,
                        dst,
                    )?
                } else {
                    let proj = query.projection();
                    self.translate_select(root_pred, &proj, &query.pattern, &ctx, dst)?;
                    proj
                };
                (cols, false)
            }
        };

        self.program.outputs.push(root_pred);

        // Solution modifiers: compile simple ones to @post (Figure 2's
        // `@post("ans", "orderby(2)")`), defer complex ones to T_S.
        let mut modifiers_in_post = false;
        if !is_ask {
            let simple = query
                .order_by
                .iter()
                .all(|c| matches!(&c.expr, SExpr::Var(v) if columns.contains(v)));
            if simple {
                modifiers_in_post = true;
                if !query.order_by.is_empty() {
                    let cols: Vec<(usize, bool)> = query
                        .order_by
                        .iter()
                        .map(|c: &OrderCondition| {
                            let v = match &c.expr {
                                SExpr::Var(v) => v,
                                _ => unreachable!(),
                            };
                            let pos = 1 + columns.iter().position(|w| w == v).unwrap();
                            (pos, c.descending)
                        })
                        .collect();
                    self.program.post.push((root_pred, PostOp::OrderBy(cols)));
                }
                if let Some(off) = query.offset {
                    self.program.post.push((root_pred, PostOp::Offset(off)));
                }
                if let Some(lim) = query.limit {
                    self.program.post.push((root_pred, PostOp::Limit(lim)));
                }
            }
        }

        // Filter equalities become join keys before anyone plans,
        // evaluates or explains the program (ARCHITECTURE.md, "Rewrites
        // between T_Q and the planner").
        let program = unify_equalities(self.program, &self.symbols);

        Ok(TranslatedQuery {
            program,
            root_pred,
            columns,
            is_ask,
            modifiers_in_post,
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
    ) -> Result<(), TranslationError> {
        let pattern_vars = sig(pattern);
        let mut b = RuleBuilder::new();
        let mut head = vec![AtomArg::Var(b.var("Id"))];
        for v in projection {
            head.push(AtomArg::Var(b.var(&format!("v_{}", v.name()))));
        }
        head.push(self.gctx_arg(&mut b, ctx));
        b.head(root_pred, head);

        let mut body_vars: Vec<String> = vec!["Id1".into()];
        let mut args = vec![AtomArg::Var(b.var("Id1"))];
        for v in &pattern_vars {
            let n = format!("v_{}", v.name());
            args.push(AtomArg::Var(b.var(&n)));
            body_vars.push(n);
        }
        args.push(self.gctx_arg(&mut b, ctx));
        b.pos(self.ans_pred(1), args);

        // Projected variables not bound by the pattern: null-pad.
        for v in projection {
            if !pattern_vars.contains(v) {
                null_pad(&mut b, &format!("v_{}", v.name()));
            }
        }

        self.assign_id(&mut b, "Id", dst, &body_vars, 0);
        self.program.rules.push(b.build());
        Ok(())
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
        _dst: bool,
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
        let mut columns = Vec::new();
        let mut head = vec![AtomArg::Var(b.var("Id"))];
        let mut agg_spec: Option<AggSpec> = None;

        // Body: the pattern's answer predicate.
        let mut body_args = vec![AtomArg::Var(b.var("Id1"))];
        for v in pattern_vars {
            body_args.push(AtomArg::Var(b.var(&format!("v_{}", v.name()))));
        }
        body_args.push(self.gctx_arg(&mut b, ctx));

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
                    head.push(AtomArg::Var(b.var(&format!("v_{}", v.name()))));
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
                        Some(e) => {
                            let scope_vars: Vec<Var> = pattern_vars.to_vec();
                            Some(self.translate_expr(e, &mut b, &|name| {
                                scope_vars
                                    .iter()
                                    .any(|v| v.name() == name)
                                    .then(|| format!("v_{name}"))
                            })?)
                        }
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
        head.push(self.gctx_arg(&mut b, ctx));
        b.head(root_pred, head);
        b.pos(self.ans_pred(1), body_args);
        // Aggregate rows form a set: nil ID.
        let id = b.var("Id");
        b.assign(id, DExpr::Const(nil_id(&self.symbols)));
        b.aggregate(agg_spec.expect("checked aggregate present"));
        self.program.rules.push(b.build());
        Ok(columns)
    }

    /// Def. A.22 (Ask).
    fn translate_ask(
        &mut self,
        root_pred: Sym,
        pattern: &GraphPattern,
        ctx: &GraphCtx,
    ) -> Result<(), TranslationError> {
        let ask_pred = self.aux_pred("ask", 1);
        // ans_ask(true) :- ans1(Id1, vars, D).
        {
            let mut b = RuleBuilder::new();
            b.head(ask_pred, vec![AtomArg::Const(Const::Bool(true))]);
            let mut args = vec![AtomArg::Var(b.var("Id1"))];
            for v in sig(pattern) {
                args.push(AtomArg::Var(b.var(&format!("v_{}", v.name()))));
            }
            args.push(self.gctx_arg(&mut b, ctx));
            b.pos(self.ans_pred(1), args);
            self.program.rules.push(b.build());
        }
        // ans(H) :- ans_ask(H).
        {
            let mut b = RuleBuilder::new();
            let h = b.v("H");
            b.head(root_pred, vec![h]);
            let h2 = b.v("H");
            b.pos(ask_pred, vec![h2]);
            self.program.rules.push(b.build());
        }
        // ans(false) :- not ans_ask(true).
        {
            let mut b = RuleBuilder::new();
            b.head(root_pred, vec![AtomArg::Const(Const::Bool(false))]);
            b.neg(ask_pred, vec![AtomArg::Const(Const::Bool(true))]);
            self.program.rules.push(b.build());
        }
        Ok(())
    }

    // ---------------------------------------------------------- helpers

    fn gctx_arg(&self, b: &mut RuleBuilder, ctx: &GraphCtx) -> AtomArg {
        match ctx {
            GraphCtx::Const(c) => AtomArg::Const(c.clone()),
            GraphCtx::Var(name) => AtomArg::Var(b.var(name)),
        }
    }

    /// Adds `Id = skolem(f, vars...)` (bag) or `Id = []` (set).
    fn assign_id(
        &mut self,
        b: &mut RuleBuilder,
        id_name: &str,
        dst: bool,
        body_vars: &[String],
        idx: u64,
    ) {
        let id = b.var(id_name);
        if dst {
            b.assign(id, DExpr::Const(nil_id(&self.symbols)));
        } else {
            let functor = self.next_functor(idx);
            let args: Vec<DExpr> = body_vars.iter().map(|n| DExpr::Var(b.var(n))).collect();
            b.assign(id, DExpr::Skolem(functor, args));
        }
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
    fn tau(
        &mut self,
        p: &GraphPattern,
        dst: bool,
        ctx: &GraphCtx,
        idx: u64,
        force_set: bool,
    ) -> Result<(), TranslationError> {
        let dst = dst || force_set;
        match p {
            GraphPattern::Empty => {
                // The empty group yields exactly the empty mapping μ0.
                let mut b = RuleBuilder::new();
                let head = vec![AtomArg::Var(b.var("Id")), self.gctx_arg(&mut b, ctx)];
                b.head(self.ans_pred(idx), head);
                if let GraphCtx::Var(name) = ctx {
                    let g = b.var(name);
                    b.pos(self.pred(preds::NAMED), vec![AtomArg::Var(g)]);
                }
                self.assign_id(&mut b, "Id", dst, &[], idx);
                self.program.rules.push(b.build());
                Ok(())
            }
            GraphPattern::Triple(t) => {
                // Def. A.3.
                let vars = sig(p);
                let mut b = RuleBuilder::new();
                let mut head = vec![AtomArg::Var(b.var("Id"))];
                for v in &vars {
                    head.push(AtomArg::Var(b.var(&format!("v_{}", v.name()))));
                }
                head.push(self.gctx_arg(&mut b, ctx));
                b.head(self.ans_pred(idx), head);

                let mut bound: Vec<String> = Vec::new();
                let s = self.term_pattern_arg(&mut b, &t.subject, &mut bound);
                let pr = self.term_pattern_arg(&mut b, &t.predicate, &mut bound);
                let o = self.term_pattern_arg(&mut b, &t.object, &mut bound);
                let d = self.gctx_arg(&mut b, ctx);
                if let GraphCtx::Var(name) = ctx {
                    if !bound.contains(name) {
                        bound.push(name.clone());
                    }
                }
                b.pos(self.pred(preds::TRIPLE), vec![s, pr, o, d]);
                self.assign_id(&mut b, "Id", dst, &bound, idx);
                self.program.rules.push(b.build());
                Ok(())
            }
            GraphPattern::Join(p1, p2) => {
                self.translate_join(p1, p2, dst, ctx, idx)?;
                self.tau(p1, dst, ctx, 2 * idx, force_set)?;
                self.tau(p2, dst, ctx, 2 * idx + 1, force_set)
            }
            GraphPattern::Union(p1, p2) => {
                // Def. A.6.
                let vars = sig(p);
                for (child, child_idx) in [(p1, 2 * idx), (p2, 2 * idx + 1)] {
                    let child_vars = sig(child);
                    let mut b = RuleBuilder::new();
                    let mut head = vec![AtomArg::Var(b.var("Id"))];
                    for v in &vars {
                        head.push(AtomArg::Var(b.var(&format!("v_{}", v.name()))));
                    }
                    head.push(self.gctx_arg(&mut b, ctx));
                    b.head(self.ans_pred(idx), head);

                    let mut body_vars: Vec<String> = vec!["Id1".into()];
                    let mut args = vec![AtomArg::Var(b.var("Id1"))];
                    for v in &child_vars {
                        let n = format!("v_{}", v.name());
                        args.push(AtomArg::Var(b.var(&n)));
                        body_vars.push(n);
                    }
                    args.push(self.gctx_arg(&mut b, ctx));
                    b.pos(self.ans_pred(child_idx), args);
                    // Null-pad the variables missing from this branch.
                    for v in &vars {
                        if !child_vars.contains(v) {
                            null_pad(&mut b, &format!("v_{}", v.name()));
                        }
                    }
                    self.assign_id(&mut b, "Id", dst, &body_vars, idx);
                    self.program.rules.push(b.build());
                }
                self.tau(p1, dst, ctx, 2 * idx, force_set)?;
                self.tau(p2, dst, ctx, 2 * idx + 1, force_set)
            }
            GraphPattern::Optional(p1, p2) => {
                // Defs A.7 / A.9: peel filters off the right side.
                let (inner, conds) = peel_filters(p2);
                self.translate_optional(p1, inner, &conds, dst, ctx, idx)?;
                self.tau(p1, dst, ctx, 2 * idx, force_set)?;
                self.tau(inner, dst, ctx, 2 * idx + 1, force_set)
            }
            GraphPattern::Minus(p1, p2) => {
                self.translate_minus(p1, p2, dst, ctx, idx)?;
                self.tau(p1, dst, ctx, 2 * idx, force_set)?;
                self.tau(p2, dst, ctx, 2 * idx + 1, force_set)
            }
            GraphPattern::Filter(p1, cond) => {
                // Def. A.8.
                let vars = sig(p1);
                let scope_vars = vars.clone();
                let mut b = RuleBuilder::new();
                let mut head = vec![AtomArg::Var(b.var("Id"))];
                for v in &vars {
                    head.push(AtomArg::Var(b.var(&format!("v_{}", v.name()))));
                }
                head.push(self.gctx_arg(&mut b, ctx));
                b.head(self.ans_pred(idx), head);

                let mut body_vars: Vec<String> = vec!["Id1".into()];
                let mut args = vec![AtomArg::Var(b.var("Id1"))];
                for v in &vars {
                    let n = format!("v_{}", v.name());
                    args.push(AtomArg::Var(b.var(&n)));
                    body_vars.push(n);
                }
                args.push(self.gctx_arg(&mut b, ctx));
                b.pos(self.ans_pred(2 * idx), args);

                let c = self.translate_expr(cond, &mut b, &|name| {
                    scope_vars
                        .iter()
                        .any(|v| v.name() == name)
                        .then(|| format!("v_{name}"))
                })?;
                b.cond(c);
                self.assign_id(&mut b, "Id", dst, &body_vars, idx);
                self.program.rules.push(b.build());
                self.tau(p1, dst, ctx, 2 * idx, force_set)
            }
            GraphPattern::Graph(spec, p1) => {
                // Def. A.4.
                let vars = sig(p);
                let child_vars = sig(p1);
                let (child_ctx, g_name) = match spec {
                    GraphSpec::Iri(iri) => {
                        (GraphCtx::Const(Const::Iri(self.symbols.intern(iri))), None)
                    }
                    GraphSpec::Var(v) => {
                        let n = format!("v_{}", v.name());
                        (GraphCtx::Var(n.clone()), Some(n))
                    }
                };
                let mut b = RuleBuilder::new();
                let mut head = vec![AtomArg::Var(b.var("Id"))];
                for v in &vars {
                    head.push(AtomArg::Var(b.var(&format!("v_{}", v.name()))));
                }
                head.push(self.gctx_arg(&mut b, ctx));
                b.head(self.ans_pred(idx), head);

                let mut body_vars: Vec<String> = vec!["Id1".into()];
                let mut args = vec![AtomArg::Var(b.var("Id1"))];
                for v in &child_vars {
                    let n = format!("v_{}", v.name());
                    args.push(AtomArg::Var(b.var(&n)));
                    body_vars.push(n);
                }
                args.push(self.gctx_arg(&mut b, &child_ctx));
                b.pos(self.ans_pred(2 * idx), args);
                // named(g).
                let named_arg = self.gctx_arg(&mut b, &child_ctx);
                b.pos(self.pred(preds::NAMED), vec![named_arg]);
                if let Some(n) = g_name {
                    if !body_vars.contains(&n) {
                        body_vars.push(n);
                    }
                }
                self.assign_id(&mut b, "Id", dst, &body_vars, idx);
                self.program.rules.push(b.build());
                self.tau(p1, dst, &child_ctx, 2 * idx, force_set)
            }
            GraphPattern::Path {
                subject,
                path,
                object,
            } => {
                // Def. A.11: glue the endpoints onto the top-level path
                // expression.
                let vars = sig(p);
                let mut b = RuleBuilder::new();
                let mut head = vec![AtomArg::Var(b.var("Id"))];
                for v in &vars {
                    head.push(AtomArg::Var(b.var(&format!("v_{}", v.name()))));
                }
                head.push(self.gctx_arg(&mut b, ctx));
                b.head(self.ans_pred(idx), head);

                let mut bound: Vec<String> = vec!["Id1".into()];
                let s = self.term_pattern_arg(&mut b, subject, &mut bound);
                let o = self.term_pattern_arg(&mut b, object, &mut bound);
                let d = self.gctx_arg(&mut b, ctx);
                if let GraphCtx::Var(name) = ctx {
                    if !bound.contains(name) {
                        bound.push(name.clone());
                    }
                }
                let id1 = AtomArg::Var(b.var("Id1"));
                b.pos(self.ans_pred(2 * idx), vec![id1, s, o, d]);
                self.assign_id(&mut b, "Id", dst, &bound, idx);
                self.program.rules.push(b.build());

                self.tau_pp(path, dst, subject, object, ctx, 2 * idx, force_set)
            }
        }
    }

    /// Def. A.5 (Join).
    fn translate_join(
        &mut self,
        p1: &GraphPattern,
        p2: &GraphPattern,
        dst: bool,
        ctx: &GraphCtx,
        idx: u64,
    ) -> Result<(), TranslationError> {
        let v1 = sig(p1);
        let v2 = sig(p2);
        let shared: Vec<&Var> = v1.iter().filter(|v| v2.contains(v)).collect();
        let all: Vec<Var> = {
            let mut u = v1.clone();
            for v in &v2 {
                if !u.contains(v) {
                    u.push(v.clone());
                }
            }
            u.sort();
            u
        };

        let mut b = RuleBuilder::new();
        let mut head = vec![AtomArg::Var(b.var("Id"))];
        for v in &all {
            head.push(AtomArg::Var(b.var(&format!("v_{}", v.name()))));
        }
        head.push(self.gctx_arg(&mut b, ctx));
        b.head(self.ans_pred(idx), head);

        let mut body_vars: Vec<String> = Vec::new();
        // ans_2i with shared vars renamed via v1 ↦ r1_.
        let mut args = vec![AtomArg::Var(b.var("Id1"))];
        body_vars.push("Id1".into());
        for v in &v1 {
            let n = if shared.contains(&v) {
                format!("r1_{}", v.name())
            } else {
                format!("v_{}", v.name())
            };
            args.push(AtomArg::Var(b.var(&n)));
            body_vars.push(n);
        }
        args.push(self.gctx_arg(&mut b, ctx));
        b.pos(self.ans_pred(2 * idx), args);

        // compat(r1_x, r2_x, v_x) for each shared x (Def. A.2's comp),
        // before the second answer atom: the join-ordering optimisation
        // §5.1 attributes to the underlying engine.
        compat_shared(&mut b, &shared, "r1_", "v_");
        body_vars.extend(shared.iter().map(|v| format!("v_{}", v.name())));

        // ans_2i+1 with shared vars renamed via v2 ↦ r2_ (now bound).
        let mut args = vec![AtomArg::Var(b.var("Id2"))];
        body_vars.push("Id2".into());
        for v in &v2 {
            let n = if shared.contains(&v) {
                format!("r2_{}", v.name())
            } else {
                format!("v_{}", v.name())
            };
            args.push(AtomArg::Var(b.var(&n)));
            body_vars.push(n);
        }
        args.push(self.gctx_arg(&mut b, ctx));
        b.pos(self.ans_pred(2 * idx + 1), args);

        self.assign_id(&mut b, "Id", dst, &body_vars, idx);
        self.program.rules.push(b.build());
        Ok(())
    }

    /// Defs A.7 / A.9 (Optional, Optional-Filter). `conds` is the filter
    /// pulled off the right-hand side (empty for plain OPTIONAL).
    fn translate_optional(
        &mut self,
        p1: &GraphPattern,
        p2: &GraphPattern,
        conds: &[SExpr],
        dst: bool,
        ctx: &GraphCtx,
        idx: u64,
    ) -> Result<(), TranslationError> {
        let v1 = sig(p1);
        let v2 = sig(p2);
        let shared: Vec<&Var> = v1.iter().filter(|v| v2.contains(v)).collect();
        let only2: Vec<&Var> = v2.iter().filter(|v| !v1.contains(v)).collect();
        let all: Vec<Var> = {
            let mut u = v1.clone();
            for v in &v2 {
                if !u.contains(v) {
                    u.push(v.clone());
                }
            }
            u.sort();
            u
        };
        let opt_pred = self.aux_pred("opt", idx);

        // Rule 1: ans_opt(var(P1), D) :- ans_2i(Id1, var(P1), D),
        //         ans_2i+1(Id2, v2(var(P2)), D), compat(x, r2_x, z_x), [C].
        {
            let mut b = RuleBuilder::new();
            let mut head = Vec::new();
            for v in &v1 {
                head.push(AtomArg::Var(b.var(&format!("v_{}", v.name()))));
            }
            head.push(self.gctx_arg(&mut b, ctx));
            b.head(opt_pred, head);

            let mut args = vec![AtomArg::Var(b.var("Id1"))];
            for v in &v1 {
                args.push(AtomArg::Var(b.var(&format!("v_{}", v.name()))));
            }
            args.push(self.gctx_arg(&mut b, ctx));
            b.pos(self.ans_pred(2 * idx), args);

            compat_shared(&mut b, &shared, "v_", "z_");

            let mut args = vec![AtomArg::Var(b.var("Id2"))];
            for v in &v2 {
                let n = if shared.contains(&v) {
                    format!("r2_{}", v.name())
                } else {
                    format!("v_{}", v.name())
                };
                args.push(AtomArg::Var(b.var(&n)));
            }
            args.push(self.gctx_arg(&mut b, ctx));
            b.pos(self.ans_pred(2 * idx + 1), args);

            // The filter condition over the *joined* mapping: shared
            // variables refer to the compat output z_x.
            for cond in conds {
                let shared_names: Vec<String> =
                    shared.iter().map(|v| v.name().to_string()).collect();
                let v1c = v1.clone();
                let v2c = v2.clone();
                let c = self.translate_expr(cond, &mut b, &move |name| {
                    if shared_names.iter().any(|s| s == name) {
                        Some(format!("z_{name}"))
                    } else if v1c.iter().any(|v| v.name() == name)
                        || v2c.iter().any(|v| v.name() == name)
                    {
                        Some(format!("v_{name}"))
                    } else {
                        None
                    }
                })?;
                b.cond(c);
            }
            self.program.rules.push(b.build());
        }

        // Rule 2: the join rule (+C).
        {
            let mut b = RuleBuilder::new();
            let mut head = vec![AtomArg::Var(b.var("Id"))];
            for v in &all {
                head.push(AtomArg::Var(b.var(&format!("v_{}", v.name()))));
            }
            head.push(self.gctx_arg(&mut b, ctx));
            b.head(self.ans_pred(idx), head);

            let mut body_vars: Vec<String> = vec!["Id1".into()];
            let mut args = vec![AtomArg::Var(b.var("Id1"))];
            for v in &v1 {
                let n = if shared.contains(&v) {
                    format!("r1_{}", v.name())
                } else {
                    format!("v_{}", v.name())
                };
                args.push(AtomArg::Var(b.var(&n)));
                body_vars.push(n);
            }
            args.push(self.gctx_arg(&mut b, ctx));
            b.pos(self.ans_pred(2 * idx), args);

            compat_shared(&mut b, &shared, "r1_", "v_");
            body_vars.extend(shared.iter().map(|v| format!("v_{}", v.name())));

            body_vars.push("Id2".into());
            let mut args = vec![AtomArg::Var(b.var("Id2"))];
            for v in &v2 {
                let n = if shared.contains(&v) {
                    format!("r2_{}", v.name())
                } else {
                    format!("v_{}", v.name())
                };
                args.push(AtomArg::Var(b.var(&n)));
                body_vars.push(n);
            }
            args.push(self.gctx_arg(&mut b, ctx));
            b.pos(self.ans_pred(2 * idx + 1), args);
            for cond in conds {
                let v1c = v1.clone();
                let v2c = v2.clone();
                let c = self.translate_expr(cond, &mut b, &move |name| {
                    (v1c.iter().any(|v| v.name() == name) || v2c.iter().any(|v| v.name() == name))
                        .then(|| format!("v_{name}"))
                })?;
                b.cond(c);
            }
            self.assign_id(&mut b, "Id", dst, &body_vars, idx);
            self.program.rules.push(b.build());
        }

        // Rule 3: ans_i(Id, var(Pi), D) :- ans_2i(Id1, var(P1), D),
        //         not ans_opt(var(P1), D), y = null...
        {
            let mut b = RuleBuilder::new();
            let mut head = vec![AtomArg::Var(b.var("Id"))];
            for v in &all {
                head.push(AtomArg::Var(b.var(&format!("v_{}", v.name()))));
            }
            head.push(self.gctx_arg(&mut b, ctx));
            b.head(self.ans_pred(idx), head);

            let mut body_vars: Vec<String> = vec!["Id1".into()];
            let mut args = vec![AtomArg::Var(b.var("Id1"))];
            for v in &v1 {
                let n = format!("v_{}", v.name());
                args.push(AtomArg::Var(b.var(&n)));
                body_vars.push(n);
            }
            args.push(self.gctx_arg(&mut b, ctx));
            b.pos(self.ans_pred(2 * idx), args);

            let mut neg_args = Vec::new();
            for v in &v1 {
                neg_args.push(AtomArg::Var(b.var(&format!("v_{}", v.name()))));
            }
            neg_args.push(self.gctx_arg(&mut b, ctx));
            b.neg(opt_pred, neg_args);

            for v in &only2 {
                null_pad(&mut b, &format!("v_{}", v.name()));
            }
            self.assign_id(&mut b, "Id", dst, &body_vars, idx);
            self.program.rules.push(b.build());
        }
        Ok(())
    }

    /// Def. A.10 (Minus).
    fn translate_minus(
        &mut self,
        p1: &GraphPattern,
        p2: &GraphPattern,
        dst: bool,
        ctx: &GraphCtx,
        idx: u64,
    ) -> Result<(), TranslationError> {
        let v1 = sig(p1);
        let v2 = sig(p2);
        let shared: Vec<&Var> = v1.iter().filter(|v| v2.contains(v)).collect();
        let join_pred = self.aux_pred("join", idx);
        let equal_pred = self.aux_pred("equal", idx);

        // x̄ = var(P1) ∪ v2(var(P2)) — columns of ans_join.
        let join_cols: Vec<String> = v1
            .iter()
            .map(|v| format!("v_{}", v.name()))
            .chain(v2.iter().map(|v| {
                if shared.contains(&v) {
                    format!("r2_{}", v.name())
                } else {
                    format!("w2_{}", v.name())
                }
            }))
            .collect();

        // ans_join(x̄, D) :- ans_2i(...), ans_2i+1(...), compat(x, r2_x, z_x).
        {
            let mut b = RuleBuilder::new();
            let mut head = Vec::new();
            for n in &join_cols {
                head.push(AtomArg::Var(b.var(n)));
            }
            head.push(self.gctx_arg(&mut b, ctx));
            b.head(join_pred, head);

            let mut args = vec![AtomArg::Var(b.var("Id1"))];
            for v in &v1 {
                args.push(AtomArg::Var(b.var(&format!("v_{}", v.name()))));
            }
            args.push(self.gctx_arg(&mut b, ctx));
            b.pos(self.ans_pred(2 * idx), args);

            compat_shared(&mut b, &shared, "v_", "z_");

            let mut args = vec![AtomArg::Var(b.var("Id2"))];
            for v in &v2 {
                let n = if shared.contains(&v) {
                    format!("r2_{}", v.name())
                } else {
                    format!("w2_{}", v.name())
                };
                args.push(AtomArg::Var(b.var(&n)));
            }
            args.push(self.gctx_arg(&mut b, ctx));
            b.pos(self.ans_pred(2 * idx + 1), args);
            self.program.rules.push(b.build());
        }

        // ans_equal(var(P1), D) :- ans_join(x̄, D), x_j = r2_x_j,
        //                          !sameTerm(x_j, null).   — one rule per shared var.
        for v in &shared {
            let mut b = RuleBuilder::new();
            let mut head = Vec::new();
            for w in &v1 {
                head.push(AtomArg::Var(b.var(&format!("v_{}", w.name()))));
            }
            head.push(self.gctx_arg(&mut b, ctx));
            b.head(equal_pred, head);

            let mut args = Vec::new();
            for n in &join_cols {
                args.push(AtomArg::Var(b.var(n)));
            }
            args.push(self.gctx_arg(&mut b, ctx));
            b.pos(join_pred, args);

            let x = b.var(&format!("v_{}", v.name()));
            let r = b.var(&format!("r2_{}", v.name()));
            b.cond(DExpr::Cmp(
                sparqlog_datalog::CmpOp::Eq,
                Box::new(DExpr::Var(x)),
                Box::new(DExpr::Var(r)),
            ));
            b.cond(DExpr::Not(Box::new(DExpr::SameTerm(
                Box::new(DExpr::Var(x)),
                Box::new(DExpr::Const(Const::Null)),
            ))));
            self.program.rules.push(b.build());
        }

        // ans_i(Id, var(P1), D) :- ans_2i(Id1, var(P1), D),
        //                          not ans_equal(var(P1), D).
        {
            let mut b = RuleBuilder::new();
            let mut head = vec![AtomArg::Var(b.var("Id"))];
            for v in &v1 {
                head.push(AtomArg::Var(b.var(&format!("v_{}", v.name()))));
            }
            head.push(self.gctx_arg(&mut b, ctx));
            b.head(self.ans_pred(idx), head);

            let mut body_vars: Vec<String> = vec!["Id1".into()];
            let mut args = vec![AtomArg::Var(b.var("Id1"))];
            for v in &v1 {
                let n = format!("v_{}", v.name());
                args.push(AtomArg::Var(b.var(&n)));
                body_vars.push(n);
            }
            args.push(self.gctx_arg(&mut b, ctx));
            b.pos(self.ans_pred(2 * idx), args);

            let mut neg_args = Vec::new();
            for v in &v1 {
                neg_args.push(AtomArg::Var(b.var(&format!("v_{}", v.name()))));
            }
            neg_args.push(self.gctx_arg(&mut b, ctx));
            b.neg(equal_pred, neg_args);

            self.assign_id(&mut b, "Id", dst, &body_vars, idx);
            self.program.rules.push(b.build());
        }
        Ok(())
    }

    // ------------------------------------------------- path translation

    /// The translation function τ_PP (Defs A.12–A.20). Every path answer
    /// predicate has the layout `ans_i(Id, X, Y, D)`.
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
        match pp {
            PropertyPath::Link(p) => {
                // Def. A.12.
                let mut b = RuleBuilder::new();
                let head = vec![
                    AtomArg::Var(b.var("Id")),
                    AtomArg::Var(b.var("X")),
                    AtomArg::Var(b.var("Y")),
                    self.gctx_arg(&mut b, ctx),
                ];
                b.head(self.ans_pred(idx), head);
                let (x, y) = (b.v("X"), b.v("Y"));
                let pc = AtomArg::Const(Const::Iri(self.symbols.intern(p.as_ref())));
                let d = self.gctx_arg(&mut b, ctx);
                b.pos(self.pred(preds::TRIPLE), vec![x, pc, y, d]);
                let mut bound = vec!["X".to_string(), "Y".to_string()];
                if let GraphCtx::Var(n) = ctx {
                    bound.push(n.clone());
                }
                self.assign_id(&mut b, "Id", dst, &bound, idx);
                self.program.rules.push(b.build());
                Ok(())
            }
            PropertyPath::Inverse(inner) => {
                // Def. A.13.
                let mut b = RuleBuilder::new();
                let head = vec![
                    AtomArg::Var(b.var("Id")),
                    AtomArg::Var(b.var("X")),
                    AtomArg::Var(b.var("Y")),
                    self.gctx_arg(&mut b, ctx),
                ];
                b.head(self.ans_pred(idx), head);
                let (id1, y, x) = (b.v("Id1"), b.v("Y"), b.v("X"));
                let d = self.gctx_arg(&mut b, ctx);
                b.pos(self.ans_pred(2 * idx), vec![id1, y, x, d]);
                let mut bound = vec!["Id1".to_string(), "X".to_string(), "Y".to_string()];
                if let GraphCtx::Var(n) = ctx {
                    bound.push(n.clone());
                }
                self.assign_id(&mut b, "Id", dst, &bound, idx);
                self.program.rules.push(b.build());
                // Def. A.13 propagates S and O unchanged (zero-length
                // pairs are symmetric, so no swap is needed).
                self.tau_pp(inner, dst, subject, object, ctx, 2 * idx, force_set)
            }
            PropertyPath::Alternative(l, r) => {
                // Def. A.14.
                for child_idx in [2 * idx, 2 * idx + 1] {
                    let mut b = RuleBuilder::new();
                    let head = vec![
                        AtomArg::Var(b.var("Id")),
                        AtomArg::Var(b.var("X")),
                        AtomArg::Var(b.var("Y")),
                        self.gctx_arg(&mut b, ctx),
                    ];
                    b.head(self.ans_pred(idx), head);
                    let (id1, x, y) = (b.v("Id1"), b.v("X"), b.v("Y"));
                    let d = self.gctx_arg(&mut b, ctx);
                    b.pos(self.ans_pred(child_idx), vec![id1, x, y, d]);
                    let mut bound = vec!["Id1".to_string(), "X".to_string(), "Y".to_string()];
                    if let GraphCtx::Var(n) = ctx {
                        bound.push(n.clone());
                    }
                    self.assign_id(&mut b, "Id", dst, &bound, idx);
                    self.program.rules.push(b.build());
                }
                self.tau_pp(l, dst, subject, object, ctx, 2 * idx, force_set)?;
                self.tau_pp(r, dst, subject, object, ctx, 2 * idx + 1, force_set)
            }
            PropertyPath::Sequence(l, r) => {
                // Def. A.15.
                let mut b = RuleBuilder::new();
                let head = vec![
                    AtomArg::Var(b.var("Id")),
                    AtomArg::Var(b.var("X")),
                    AtomArg::Var(b.var("Z")),
                    self.gctx_arg(&mut b, ctx),
                ];
                b.head(self.ans_pred(idx), head);
                let (id1, x, y) = (b.v("Id1"), b.v("X"), b.v("Y"));
                let d = self.gctx_arg(&mut b, ctx);
                b.pos(self.ans_pred(2 * idx), vec![id1, x, y, d]);
                let (id2, y2, z) = (b.v("Id2"), b.v("Y"), b.v("Z"));
                let d2 = self.gctx_arg(&mut b, ctx);
                b.pos(self.ans_pred(2 * idx + 1), vec![id2, y2, z, d2]);
                let mut bound = vec![
                    "Id1".to_string(),
                    "X".to_string(),
                    "Y".to_string(),
                    "Id2".to_string(),
                    "Z".to_string(),
                ];
                if let GraphCtx::Var(n) = ctx {
                    bound.push(n.clone());
                }
                self.assign_id(&mut b, "Id", dst, &bound, idx);
                self.program.rules.push(b.build());
                // Def. A.15: the *top-level* S and O propagate to both
                // children unchanged (they only influence zero-length
                // paths, where the extra pairs are harmless — see the
                // correctness discussion in Appendix B).
                self.tau_pp(l, dst, subject, object, ctx, 2 * idx, force_set)?;
                self.tau_pp(r, dst, subject, object, ctx, 2 * idx + 1, force_set)
            }
            PropertyPath::OneOrMore(inner) => {
                // Def. A.16 — transitive closure with nil IDs.
                self.emit_one_or_more(idx, ctx);
                self.tau_pp(inner, dst, subject, object, ctx, 2 * idx, force_set)
            }
            PropertyPath::ZeroOrOne(inner) => {
                // Def. A.18.
                self.emit_zero_rules(idx, subject, object, ctx);
                // ans_i(nil, X, Y, D) :- ans_2i(Id1, X, Y, D).
                let mut b = RuleBuilder::new();
                let head = vec![
                    AtomArg::Const(nil_id(&self.symbols)),
                    AtomArg::Var(b.var("X")),
                    AtomArg::Var(b.var("Y")),
                    self.gctx_arg(&mut b, ctx),
                ];
                b.head(self.ans_pred(idx), head);
                let (id1, x, y) = (b.v("Id1"), b.v("X"), b.v("Y"));
                let d = self.gctx_arg(&mut b, ctx);
                b.pos(self.ans_pred(2 * idx), vec![id1, x, y, d]);
                self.program.rules.push(b.build());
                self.tau_pp(inner, dst, subject, object, ctx, 2 * idx, force_set)
            }
            PropertyPath::ZeroOrMore(inner) => {
                // Def. A.19 = zero part + one-or-more part.
                self.emit_zero_rules(idx, subject, object, ctx);
                self.emit_one_or_more(idx, ctx);
                self.tau_pp(inner, dst, subject, object, ctx, 2 * idx, force_set)
            }
            PropertyPath::NegatedSet { forward, backward } => {
                // Def. A.20.
                if !forward.is_empty() || backward.is_empty() {
                    // Forward rule (also emitted when the set is empty:
                    // `!()` matches every predicate).
                    let mut b = RuleBuilder::new();
                    let head = vec![
                        AtomArg::Var(b.var("Id")),
                        AtomArg::Var(b.var("X")),
                        AtomArg::Var(b.var("Y")),
                        self.gctx_arg(&mut b, ctx),
                    ];
                    b.head(self.ans_pred(idx), head);
                    let (x, pv, y) = (b.v("X"), b.v("P"), b.v("Y"));
                    let d = self.gctx_arg(&mut b, ctx);
                    b.pos(self.pred(preds::TRIPLE), vec![x, pv, y, d]);
                    for p in forward {
                        let pvar = b.var("P");
                        b.cond(DExpr::Cmp(
                            sparqlog_datalog::CmpOp::Neq,
                            Box::new(DExpr::Var(pvar)),
                            Box::new(DExpr::Const(Const::Iri(self.symbols.intern(p.as_ref())))),
                        ));
                    }
                    let mut bound = vec!["X".to_string(), "P".to_string(), "Y".to_string()];
                    if let GraphCtx::Var(n) = ctx {
                        bound.push(n.clone());
                    }
                    self.assign_id(&mut b, "Id", dst, &bound, idx);
                    self.program.rules.push(b.build());
                }
                if !backward.is_empty() {
                    let mut b = RuleBuilder::new();
                    let head = vec![
                        AtomArg::Var(b.var("Id")),
                        AtomArg::Var(b.var("Y")),
                        AtomArg::Var(b.var("X")),
                        self.gctx_arg(&mut b, ctx),
                    ];
                    b.head(self.ans_pred(idx), head);
                    let (x, pv, y) = (b.v("X"), b.v("P"), b.v("Y"));
                    let d = self.gctx_arg(&mut b, ctx);
                    b.pos(self.pred(preds::TRIPLE), vec![x, pv, y, d]);
                    for p in backward {
                        let pvar = b.var("P");
                        b.cond(DExpr::Cmp(
                            sparqlog_datalog::CmpOp::Neq,
                            Box::new(DExpr::Var(pvar)),
                            Box::new(DExpr::Const(Const::Iri(self.symbols.intern(p.as_ref())))),
                        ));
                    }
                    let mut bound = vec!["X".to_string(), "P".to_string(), "Y".to_string()];
                    if let GraphCtx::Var(n) = ctx {
                        bound.push(n.clone());
                    }
                    self.assign_id(&mut b, "Id", dst, &bound, idx);
                    self.program.rules.push(b.build());
                }
                Ok(())
            }
            // ------------------------- gMark range paths (§4.3), desugared
            PropertyPath::Exactly(inner, n) => {
                let desugared = exactly(inner, *n);
                match desugared {
                    None => {
                        // p{0}: zero-length paths only.
                        self.emit_zero_rules(idx, subject, object, ctx);
                        Ok(())
                    }
                    Some(path) => self.tau_pp(&path, dst, subject, object, ctx, idx, true),
                }
            }
            PropertyPath::AtLeast(inner, n) => {
                let path = at_least(inner, *n);
                self.tau_pp(&path, dst, subject, object, ctx, idx, true)
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
                self.tau_pp(&path, dst, subject, object, ctx, idx, true)
            }
        }
    }

    /// The two transitive-closure rules of Def. A.16 (IDs forced to `[]`).
    fn emit_one_or_more(&mut self, idx: u64, ctx: &GraphCtx) {
        // ans_i([], X, Y, D) :- ans_2i(Id1, X, Y, D).
        {
            let mut b = RuleBuilder::new();
            let head = vec![
                AtomArg::Const(nil_id(&self.symbols)),
                AtomArg::Var(b.var("X")),
                AtomArg::Var(b.var("Y")),
                self.gctx_arg(&mut b, ctx),
            ];
            b.head(self.ans_pred(idx), head);
            let (id1, x, y) = (b.v("Id1"), b.v("X"), b.v("Y"));
            let d = self.gctx_arg(&mut b, ctx);
            b.pos(self.ans_pred(2 * idx), vec![id1, x, y, d]);
            self.program.rules.push(b.build());
        }
        // ans_i([], X, Z, D) :- ans_2i(Id1, X, Y, D), ans_i(Id2, Y, Z, D).
        {
            let mut b = RuleBuilder::new();
            let head = vec![
                AtomArg::Const(nil_id(&self.symbols)),
                AtomArg::Var(b.var("X")),
                AtomArg::Var(b.var("Z")),
                self.gctx_arg(&mut b, ctx),
            ];
            b.head(self.ans_pred(idx), head);
            let (id1, x, y) = (b.v("Id1"), b.v("X"), b.v("Y"));
            let d = self.gctx_arg(&mut b, ctx);
            b.pos(self.ans_pred(2 * idx), vec![id1, x, y, d]);
            let (id2, y2, z) = (b.v("Id2"), b.v("Y"), b.v("Z"));
            let d2 = self.gctx_arg(&mut b, ctx);
            b.pos(self.ans_pred(idx), vec![id2, y2, z, d2]);
            self.program.rules.push(b.build());
        }
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
        {
            let mut b = RuleBuilder::new();
            let head = vec![
                AtomArg::Const(nil_id(&self.symbols)),
                AtomArg::Var(b.var("X")),
                AtomArg::Var(b.var("X")),
                self.gctx_arg(&mut b, ctx),
            ];
            b.head(self.ans_pred(idx), head);
            let (x, d) = {
                let x = b.v("X");
                let d = self.gctx_arg(&mut b, ctx);
                (x, d)
            };
            b.pos(self.pred(preds::SUBJECT_OR_OBJECT), vec![x, d]);
            self.program.rules.push(b.build());
        }
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
            match ctx {
                GraphCtx::Const(_) => {
                    let mut b = RuleBuilder::new();
                    let head = vec![
                        AtomArg::Const(nil_id(&self.symbols)),
                        AtomArg::Const(c.clone()),
                        AtomArg::Const(c),
                        self.gctx_arg(&mut b, ctx),
                    ];
                    b.head(self.ans_pred(idx), head);
                    self.program.rules.push(b.build());
                }
                GraphCtx::Var(name) => {
                    // Range over the named graphs to keep the rule safe.
                    let mut b = RuleBuilder::new();
                    let head = vec![
                        AtomArg::Const(nil_id(&self.symbols)),
                        AtomArg::Const(c.clone()),
                        AtomArg::Const(c),
                        self.gctx_arg(&mut b, ctx),
                    ];
                    b.head(self.ans_pred(idx), head);
                    let g = b.var(name);
                    b.pos(self.pred(preds::NAMED), vec![AtomArg::Var(g)]);
                    self.program.rules.push(b.build());
                }
            }
        }
    }

    // --------------------------------------------------- filter exprs

    /// Translates a SPARQL filter expression into a Datalog expression
    /// (§5.1 "Filter constraints": conditions are copied into the rule
    /// body). `scope` maps a SPARQL variable name to its Datalog variable
    /// name, or `None` for out-of-scope variables (which per SPARQL are
    /// unbound: they become the `null` constant, so comparisons error out
    /// and `BOUND` is false).
    fn translate_expr(
        &self,
        e: &SExpr,
        b: &mut RuleBuilder,
        scope: &dyn Fn(&str) -> Option<String>,
    ) -> Result<DExpr, TranslationError> {
        crate::expr_translation::sexpr_to_dexpr(e, &self.symbols, &mut |name| {
            scope(name).map(|n| b.var(&n))
        })
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
