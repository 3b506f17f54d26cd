//! The SPARQL query AST: query forms, graph patterns, solution modifiers.

use std::fmt;
use std::sync::Arc;

use sparqlog_rdf::Term;

use crate::expr::{AggFunc, Expr};
use crate::path::PropertyPath;

/// A SPARQL variable (without the `?`/`$` sigil).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(Arc<str>);

impl Var {
    /// Creates a variable from its name.
    pub fn new(name: impl Into<Arc<str>>) -> Self {
        Var(name.into())
    }

    /// The variable's name.
    pub fn name(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "?{}", self.0)
    }
}

/// A term-or-variable position in a triple pattern.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TermPattern {
    /// A variable position.
    Var(Var),
    /// A concrete RDF term.
    Term(Term),
}

impl fmt::Display for TermPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TermPattern::Var(v) => write!(f, "{v}"),
            TermPattern::Term(t) => write!(f, "{t}"),
        }
    }
}

/// A triple pattern: a triple whose components may be variables.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TriplePattern {
    /// The subject position.
    pub subject: TermPattern,
    /// The predicate position.
    pub predicate: TermPattern,
    /// The object position.
    pub object: TermPattern,
}

impl TriplePattern {
    /// Creates a triple pattern.
    pub fn new(subject: TermPattern, predicate: TermPattern, object: TermPattern) -> Self {
        TriplePattern {
            subject,
            predicate,
            object,
        }
    }

    /// The distinct variables of the pattern in S, P, O order.
    pub fn vars(&self) -> Vec<Var> {
        let mut out = Vec::new();
        for tp in [&self.subject, &self.predicate, &self.object] {
            if let TermPattern::Var(v) = tp {
                if !out.contains(v) {
                    out.push(v.clone());
                }
            }
        }
        out
    }
}

impl fmt::Display for TriplePattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.subject, self.predicate, self.object)
    }
}

/// The graph selector of a `GRAPH` pattern.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum GraphSpec {
    /// A concrete graph IRI.
    Iri(Arc<str>),
    /// A graph variable, ranging over the named graphs.
    Var(Var),
}

/// A SPARQL graph pattern (the `WHERE` clause body).
///
/// The shape follows §3.1/A.2 of the paper: nested binary operators over
/// triple patterns and property-path patterns. `Optional` keeps its right
/// operand un-normalised so the translator can recognise the
/// `(P1 OPT (P2 FILTER C))` special case of Def. A.9.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphPattern {
    /// The empty group `{}` — the unit of join.
    Empty,
    /// A triple pattern.
    Triple(TriplePattern),
    /// A property-path pattern `S path O`.
    Path {
        /// The subject position.
        subject: TermPattern,
        /// The path expression.
        path: PropertyPath,
        /// The object position.
        object: TermPattern,
    },
    /// `P1 . P2`
    Join(Box<GraphPattern>, Box<GraphPattern>),
    /// `P1 UNION P2`
    Union(Box<GraphPattern>, Box<GraphPattern>),
    /// `P1 OPTIONAL { P2 }`
    Optional(Box<GraphPattern>, Box<GraphPattern>),
    /// `P1 MINUS { P2 }`
    Minus(Box<GraphPattern>, Box<GraphPattern>),
    /// `P FILTER C`
    Filter(Box<GraphPattern>, Expr),
    /// `GRAPH g { P }`
    Graph(GraphSpec, Box<GraphPattern>),
}

impl GraphPattern {
    /// Joins two patterns, treating [`GraphPattern::Empty`] as the unit.
    pub fn join(a: GraphPattern, b: GraphPattern) -> GraphPattern {
        match (a, b) {
            (GraphPattern::Empty, b) => b,
            (a, GraphPattern::Empty) => a,
            (a, b) => GraphPattern::Join(Box::new(a), Box::new(b)),
        }
    }

    /// The distinct in-scope variables of the pattern, in first-mention
    /// order. (For `MINUS` and the filter-condition of `FILTER`, the right
    /// side's variables are *not* in scope, per SPARQL §18.2.1.)
    pub fn vars(&self) -> Vec<Var> {
        let mut out = Vec::new();
        self.collect_vars(&mut out);
        out
    }

    fn collect_vars(&self, out: &mut Vec<Var>) {
        let push = |v: Var, out: &mut Vec<Var>| {
            if !out.contains(&v) {
                out.push(v);
            }
        };
        match self {
            GraphPattern::Empty => {}
            GraphPattern::Triple(t) => {
                for v in t.vars() {
                    push(v, out);
                }
            }
            GraphPattern::Path {
                subject, object, ..
            } => {
                if let TermPattern::Var(v) = subject {
                    push(v.clone(), out);
                }
                if let TermPattern::Var(v) = object {
                    push(v.clone(), out);
                }
            }
            GraphPattern::Join(a, b) | GraphPattern::Union(a, b) | GraphPattern::Optional(a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
            GraphPattern::Minus(a, _) => a.collect_vars(out),
            GraphPattern::Filter(p, _) => p.collect_vars(out),
            GraphPattern::Graph(spec, p) => {
                if let GraphSpec::Var(v) = spec {
                    push(v.clone(), out);
                }
                p.collect_vars(out);
            }
        }
    }

    /// Recursively checks whether the pattern contains a property-path
    /// pattern satisfying `f`.
    pub fn any_path(&self, f: &dyn Fn(&PropertyPath) -> bool) -> bool {
        match self {
            GraphPattern::Empty | GraphPattern::Triple(_) => false,
            GraphPattern::Path { path, .. } => f(path),
            GraphPattern::Join(a, b)
            | GraphPattern::Union(a, b)
            | GraphPattern::Optional(a, b)
            | GraphPattern::Minus(a, b) => a.any_path(f) || b.any_path(f),
            GraphPattern::Filter(p, _) | GraphPattern::Graph(_, p) => p.any_path(f),
        }
    }
}

/// One `(expr [AS var])` item of a `SELECT` projection.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// A plain variable.
    Var(Var),
    /// An aggregate, e.g. `(COUNT(?x) AS ?c)`. `arg = None` means
    /// `COUNT(*)`.
    Aggregate {
        /// The projected variable (`AS ?c`).
        var: Var,
        /// The aggregate function.
        func: AggFunc,
        /// `DISTINCT` inside the aggregate call.
        distinct: bool,
        /// The aggregated expression; `None` = `COUNT(*)`.
        arg: Option<Expr>,
    },
}

/// One resource named by a `DESCRIBE` clause.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum DescribeTarget {
    /// A variable whose bindings (across the `WHERE` solutions) are
    /// described.
    Var(Var),
    /// An explicitly named IRI, described unconditionally.
    Iri(Arc<str>),
}

/// The query form.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryForm {
    /// `SELECT [DISTINCT] items` (empty `items` = `SELECT *`).
    Select {
        /// `DISTINCT` modifier (set semantics).
        distinct: bool,
        /// The projection; empty means `SELECT *`.
        items: Vec<SelectItem>,
    },
    /// `ASK`.
    Ask,
    /// `CONSTRUCT { template } WHERE { ... }` — instantiate the triple
    /// templates once per solution of the `WHERE` pattern and return the
    /// resulting RDF graph.
    Construct {
        /// The triple templates of the `CONSTRUCT` clause.
        template: Vec<TriplePattern>,
    },
    /// `DESCRIBE targets [WHERE { ... }]` — return the concise bounded
    /// description of each named/bound resource. An empty target list is
    /// `DESCRIBE *` (describe every variable in scope of the pattern).
    Describe {
        /// The described resources; empty means `DESCRIBE *`.
        targets: Vec<DescribeTarget>,
    },
}

/// A `FROM` or `FROM NAMED` clause.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DatasetClause {
    /// `FROM <iri>` — contributes to the default graph.
    Default(Arc<str>),
    /// `FROM NAMED <iri>`.
    Named(Arc<str>),
}

/// One `ORDER BY` condition.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderCondition {
    /// The ordering expression (a bare variable in the common case).
    pub expr: Expr,
    /// `DESC(...)` was used.
    pub descending: bool,
}

/// A parsed SPARQL query.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// `SELECT`/`ASK` plus projection.
    pub form: QueryForm,
    /// `FROM` / `FROM NAMED` clauses (recorded; resolution is up to the
    /// caller's dataset).
    pub dataset: Vec<DatasetClause>,
    /// The `WHERE` clause pattern.
    pub pattern: GraphPattern,
    /// `GROUP BY` variables.
    pub group_by: Vec<Var>,
    /// `ORDER BY` conditions, outermost first.
    pub order_by: Vec<OrderCondition>,
    /// `LIMIT`, if present.
    pub limit: Option<usize>,
    /// `OFFSET`, if present.
    pub offset: Option<usize>,
}

impl Query {
    /// True for `SELECT` queries.
    pub fn is_select(&self) -> bool {
        matches!(self.form, QueryForm::Select { .. })
    }

    /// True for `ASK` queries.
    pub fn is_ask(&self) -> bool {
        matches!(self.form, QueryForm::Ask)
    }

    /// True for `CONSTRUCT` queries.
    pub fn is_construct(&self) -> bool {
        matches!(self.form, QueryForm::Construct { .. })
    }

    /// True for `DESCRIBE` queries.
    pub fn is_describe(&self) -> bool {
        matches!(self.form, QueryForm::Describe { .. })
    }

    /// True if the query's `SELECT` clause has the `DISTINCT` keyword.
    pub fn is_distinct(&self) -> bool {
        matches!(self.form, QueryForm::Select { distinct: true, .. })
    }

    /// The projected variables of the query. For `SELECT *` this is the
    /// in-scope variable list of the pattern; for `ASK` it is empty. A
    /// `CONSTRUCT` projects the variables its template mentions, a
    /// `DESCRIBE` the variables among its targets (all in-scope pattern
    /// variables for `DESCRIBE *`) — in both cases the variables whose
    /// bindings the result graph is built from.
    pub fn projection(&self) -> Vec<Var> {
        match &self.form {
            QueryForm::Ask => Vec::new(),
            QueryForm::Select { items, .. } => {
                if items.is_empty() {
                    self.pattern.vars()
                } else {
                    items
                        .iter()
                        .map(|it| match it {
                            SelectItem::Var(v) => v.clone(),
                            SelectItem::Aggregate { var, .. } => var.clone(),
                        })
                        .collect()
                }
            }
            QueryForm::Construct { template } => {
                let mut out = Vec::new();
                for t in template {
                    for v in t.vars() {
                        if !out.contains(&v) {
                            out.push(v);
                        }
                    }
                }
                out
            }
            QueryForm::Describe { targets } => {
                if targets.is_empty() {
                    self.pattern.vars()
                } else {
                    let mut out = Vec::new();
                    for t in targets {
                        if let DescribeTarget::Var(v) = t {
                            if !out.contains(v) {
                                out.push(v.clone());
                            }
                        }
                    }
                    out
                }
            }
        }
    }

    /// True if the projection contains at least one aggregate.
    pub fn has_aggregates(&self) -> bool {
        match &self.form {
            QueryForm::Select { items, .. } => items
                .iter()
                .any(|it| matches!(it, SelectItem::Aggregate { .. })),
            QueryForm::Ask | QueryForm::Construct { .. } | QueryForm::Describe { .. } => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(n: &str) -> Var {
        Var::new(n)
    }

    #[test]
    fn join_with_empty_is_identity() {
        let t = GraphPattern::Triple(TriplePattern::new(
            TermPattern::Var(v("x")),
            TermPattern::Term(Term::iri("p")),
            TermPattern::Var(v("y")),
        ));
        assert_eq!(GraphPattern::join(GraphPattern::Empty, t.clone()), t);
        assert_eq!(GraphPattern::join(t.clone(), GraphPattern::Empty), t);
        assert!(matches!(
            GraphPattern::join(t.clone(), t),
            GraphPattern::Join(_, _)
        ));
    }

    #[test]
    fn vars_of_nested_pattern() {
        // { ?x p ?y . OPTIONAL { ?x q ?z } } MINUS { ?w r ?x }
        let t1 = GraphPattern::Triple(TriplePattern::new(
            TermPattern::Var(v("x")),
            TermPattern::Term(Term::iri("p")),
            TermPattern::Var(v("y")),
        ));
        let t2 = GraphPattern::Triple(TriplePattern::new(
            TermPattern::Var(v("x")),
            TermPattern::Term(Term::iri("q")),
            TermPattern::Var(v("z")),
        ));
        let t3 = GraphPattern::Triple(TriplePattern::new(
            TermPattern::Var(v("w")),
            TermPattern::Term(Term::iri("r")),
            TermPattern::Var(v("x")),
        ));
        let p = GraphPattern::Minus(
            Box::new(GraphPattern::Optional(Box::new(t1), Box::new(t2))),
            Box::new(t3),
        );
        // MINUS right side vars are not in scope.
        assert_eq!(p.vars(), vec![v("x"), v("y"), v("z")]);
    }

    #[test]
    fn triple_pattern_vars_dedupe() {
        let t = TriplePattern::new(
            TermPattern::Var(v("x")),
            TermPattern::Var(v("p")),
            TermPattern::Var(v("x")),
        );
        assert_eq!(t.vars(), vec![v("x"), v("p")]);
    }

    #[test]
    fn graph_var_in_scope() {
        let p = GraphPattern::Graph(
            GraphSpec::Var(v("g")),
            Box::new(GraphPattern::Triple(TriplePattern::new(
                TermPattern::Var(v("s")),
                TermPattern::Term(Term::iri("p")),
                TermPattern::Var(v("o")),
            ))),
        );
        assert_eq!(p.vars(), vec![v("g"), v("s"), v("o")]);
    }

    #[test]
    fn projection_wildcard_and_explicit() {
        let pattern = GraphPattern::Triple(TriplePattern::new(
            TermPattern::Var(v("s")),
            TermPattern::Term(Term::iri("p")),
            TermPattern::Var(v("o")),
        ));
        let q = Query {
            form: QueryForm::Select {
                distinct: false,
                items: vec![],
            },
            dataset: vec![],
            pattern: pattern.clone(),
            group_by: vec![],
            order_by: vec![],
            limit: None,
            offset: None,
        };
        assert_eq!(q.projection(), vec![v("s"), v("o")]);

        let q2 = Query {
            form: QueryForm::Select {
                distinct: true,
                items: vec![SelectItem::Var(v("o"))],
            },
            ..q
        };
        assert_eq!(q2.projection(), vec![v("o")]);
        assert!(q2.is_distinct());
        assert!(!q2.has_aggregates());
    }
}
