//! The solution translation method **T_S** (paper §4.1.3).
//!
//! Reads the goal predicate's tuples out of the evaluated database,
//! projects out the tuple ID and the graph component, converts Datalog
//! constants back to RDF terms (`null` ⇒ unbound), and applies every
//! solution modifier: ORDER BY, the projection of hidden sort keys,
//! DISTINCT over what remains, OFFSET and LIMIT.
//!
//! On top of the solution sequence this module realises the two
//! graph-producing query forms: `CONSTRUCT` instantiates its triple
//! templates once per solution (minting fresh blank nodes per solution,
//! SPARQL 1.1 §16.2.1), and `DESCRIBE` computes the concise bounded
//! description of each named/bound resource directly over the `triple/4`
//! relation. Both return [`QueryResults::Graph`].

use std::cmp::Ordering;
use std::collections::HashSet;

use sparqlog_datalog::{order_cmp, Const, Database, Expr};
use sparqlog_rdf::{Graph, Term, Triple};
use sparqlog_sparql::{DescribeTarget, Query, QueryForm, TermPattern, TriplePattern};

use crate::data_translation::{const_to_term, default_graph_const, preds, term_to_const};
use crate::query_translation::TranslatedQuery;

/// A sequence of solution mappings: the variable header plus one row per
/// solution (bag semantics — duplicates appear as repeated rows).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SolutionSeq {
    /// Projected variable names (without `?`).
    pub vars: Vec<String>,
    /// Rows aligned with `vars`; `None` = unbound.
    pub rows: Vec<Vec<Option<Term>>>,
}

/// One solution mapping of a [`SolutionSeq`], addressable by variable
/// name — so callers stop counting columns:
///
/// ```
/// use sparqlog::Store;
///
/// let store = Store::new();
/// store
///     .load_turtle("@prefix ex: <http://ex.org/> . ex:a ex:p ex:b .")
///     .unwrap();
/// let result = store
///     .execute("PREFIX ex: <http://ex.org/> SELECT ?o WHERE { ex:a ex:p ?o }")
///     .unwrap();
/// let solutions = result.solutions().unwrap();
/// let first = solutions.solution(0).unwrap();
/// assert_eq!(first.get("o").unwrap().to_string(), "<http://ex.org/b>");
/// assert!(first.get("?o").is_some(), "sigil accepted");
/// assert!(first.get("nope").is_none());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Solution<'a> {
    vars: &'a [String],
    row: &'a [Option<Term>],
}

impl<'a> Solution<'a> {
    /// The binding of variable `name` (with or without the `?` sigil):
    /// `None` when the variable is not projected or unbound in this
    /// solution.
    pub fn get(&self, name: &str) -> Option<&'a Term> {
        let name = name.strip_prefix('?').unwrap_or(name);
        let i = self.vars.iter().position(|v| v == name)?;
        self.row[i].as_ref()
    }

    /// The projected variable names, in column order.
    pub fn vars(&self) -> &'a [String] {
        self.vars
    }

    /// The bindings in column order (`None` = unbound).
    pub fn values(&self) -> &'a [Option<Term>] {
        self.row
    }

    /// Iterates over `(variable, binding)` pairs in column order.
    pub fn iter(&self) -> impl Iterator<Item = (&'a str, Option<&'a Term>)> + 'a {
        self.vars
            .iter()
            .zip(self.row)
            .map(|(v, t)| (v.as_str(), t.as_ref()))
    }
}

impl SolutionSeq {
    /// Number of solutions.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if there are no solutions.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The `i`-th solution as a by-name view.
    pub fn solution(&self, i: usize) -> Option<Solution<'_>> {
        self.rows.get(i).map(|row| Solution {
            vars: &self.vars,
            row,
        })
    }

    /// Iterates over the solutions as by-name views.
    pub fn iter(&self) -> impl Iterator<Item = Solution<'_>> + '_ {
        self.rows.iter().map(|row| Solution {
            vars: &self.vars,
            row,
        })
    }

    /// Canonical multiset view: each row rendered to strings and the rows
    /// sorted. Blank-node labels are erased when `ignore_bnodes` is set —
    /// the paper's compliance harness does the same (Appendix D.2.2)
    /// because engines assign system-specific labels.
    pub fn canonical(&self, ignore_bnodes: bool) -> Vec<Vec<String>> {
        let mut rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|row| {
                row.iter()
                    .map(|cell| match cell {
                        None => "UNBOUND".to_string(),
                        Some(t) if t.is_bnode() && ignore_bnodes => "_:".to_string(),
                        Some(t) => t.to_string(),
                    })
                    .collect()
            })
            .collect();
        rows.sort();
        rows
    }

    /// Multiset equality against another sequence (row order ignored,
    /// duplicates significant, blank-node labels ignored).
    pub fn multiset_eq(&self, other: &SolutionSeq) -> bool {
        self.canonical(true) == other.canonical(true)
    }

    /// True if every row of `self` also occurs in `other` with at least
    /// the same multiplicity (the *correctness* direction of BeSEPPI).
    pub fn multiset_subset_of(&self, other: &SolutionSeq) -> bool {
        let mut rest = other.canonical(true);
        for row in self.canonical(true) {
            match rest.iter().position(|r| *r == row) {
                Some(i) => {
                    rest.swap_remove(i);
                }
                None => return false,
            }
        }
        true
    }
}

impl std::fmt::Display for SolutionSeq {
    /// Renders the sequence as a tab-separated table: a `?var` header
    /// line followed by one line per solution (`UNBOUND` for unbound
    /// cells). This is what examples and CLIs print instead of
    /// hand-formatting rows.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, var) in self.vars.iter().enumerate() {
            if i > 0 {
                f.write_str("\t")?;
            }
            write!(f, "?{var}")?;
        }
        for row in &self.rows {
            f.write_str("\n")?;
            for (i, cell) in row.iter().enumerate() {
                if i > 0 {
                    f.write_str("\t")?;
                }
                match cell {
                    Some(t) => write!(f, "{t}")?,
                    None => f.write_str("UNBOUND")?,
                }
            }
        }
        Ok(())
    }
}

/// The result of executing a query, typed by query form: `SELECT`
/// produces [`QueryResults::Solutions`], `ASK` a
/// [`QueryResults::Boolean`], and `CONSTRUCT`/`DESCRIBE` a
/// [`QueryResults::Graph`].
///
/// Wire-format serialization lives in [`crate::results_io`]: solutions
/// and booleans serialize to the W3C SPARQL 1.1 Query Results JSON, CSV
/// and TSV formats ([`QueryResults::to_json`] & co.), graphs to
/// N-Triples and Turtle ([`QueryResults::to_ntriples`],
/// [`QueryResults::to_turtle`]).
#[derive(Debug, Clone)]
pub enum QueryResults {
    /// SELECT: a sequence of solution mappings.
    Solutions(SolutionSeq),
    /// ASK: a boolean.
    Boolean(bool),
    /// CONSTRUCT / DESCRIBE: an RDF graph (boxed — a [`Graph`] carries
    /// its indexes inline, and results move through batch slots).
    Graph(Box<Graph>),
}

impl QueryResults {
    /// The solutions, if this is a SELECT result.
    pub fn solutions(&self) -> Option<&SolutionSeq> {
        match self {
            QueryResults::Solutions(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is an ASK result.
    pub fn boolean(&self) -> Option<bool> {
        match self {
            QueryResults::Boolean(b) => Some(*b),
            _ => None,
        }
    }

    /// The graph, if this is a CONSTRUCT/DESCRIBE result.
    pub fn graph(&self) -> Option<&Graph> {
        match self {
            QueryResults::Graph(g) => Some(g),
            _ => None,
        }
    }

    /// Number of solutions (0/1 for ASK false/true, triple count for
    /// graphs).
    pub fn len(&self) -> usize {
        match self {
            QueryResults::Solutions(s) => s.len(),
            QueryResults::Boolean(b) => usize::from(*b),
            QueryResults::Graph(g) => g.len(),
        }
    }

    /// True when there are no solutions / ASK is false / the graph is
    /// empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Solutions and booleans compare structurally; graphs compare as triple
/// *sets* (insertion order ignored, blank-node labels significant — use
/// [`canonical_triples`] for label-insensitive cross-engine comparison).
impl PartialEq for QueryResults {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (QueryResults::Solutions(a), QueryResults::Solutions(b)) => a == b,
            (QueryResults::Boolean(a), QueryResults::Boolean(b)) => a == b,
            (QueryResults::Graph(a), QueryResults::Graph(b)) => {
                a.len() == b.len()
                    && a.iter()
                        .all(|(s, p, o)| b.contains(&Triple::new(s.clone(), p.clone(), o.clone())))
            }
            _ => false,
        }
    }
}

impl std::fmt::Display for QueryResults {
    /// `true`/`false` for ASK results, the [`SolutionSeq`] table for
    /// SELECT results, N-Triples lines for graphs.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryResults::Solutions(s) => s.fmt(f),
            QueryResults::Boolean(b) => write!(f, "{b}"),
            QueryResults::Graph(g) => {
                for (i, (s, p, o)) in g.iter().enumerate() {
                    if i > 0 {
                        f.write_str("\n")?;
                    }
                    write!(f, "{s} {p} {o} .")?;
                }
                Ok(())
            }
        }
    }
}

/// Extracts the query result from an evaluated database, dispatching on
/// the query form (T_S for the solution sequence; template
/// instantiation / concise-bounded-description on top for the
/// graph-producing forms).
///
/// T_S applies every solution modifier, in SPARQL 1.1's order (§15): it
/// sorts the goal predicate's rows stably by the ORDER BY keys, strips
/// the hidden key columns, removes the duplicates that stripping exposed
/// under DISTINCT (keeping the first), then applies OFFSET and LIMIT.
pub fn extract_results(tq: &TranslatedQuery, query: &Query, db: &Database) -> QueryResults {
    let symbols = db.symbols();
    let dict = db.dict();
    let rel = db.relation(tq.root_pred);
    let mut tuples = rel.into_iter().flat_map(|r| r.iter());

    if tq.is_ask {
        let yes = tuples.any(|t| dict.decode(t[0]) == Const::Bool(true));
        return QueryResults::Boolean(yes);
    }

    // Layout: [Id, columns..., D] — decode the column cells only.
    let ncols = tq.columns.len();
    let mut rows: Vec<Vec<Const>> = tuples
        .map(|t| t[1..=ncols].iter().map(|&id| dict.decode(id)).collect())
        .collect();

    // A variable key compares its column in place; an expression key is
    // evaluated once per row, into a cell past the row's columns.
    let mut width = ncols;
    let keys: Vec<(usize, bool)> = (tq.order.iter())
        .map(|(key, desc)| {
            if let Expr::Var(col) = key {
                return (*col as usize, *desc);
            }
            for row in &mut rows {
                let value = key.eval_with(&|v| row.get(v as usize).cloned(), symbols);
                row.push(value.unwrap_or(Const::Null));
            }
            width += 1;
            (width - 1, *desc)
        })
        .collect();
    if !keys.is_empty() {
        rows.sort_by(|a, b| {
            (keys.iter())
                .map(|&(col, desc)| {
                    let ord = order_cmp(&a[col], &b[col], symbols);
                    if desc {
                        ord.reverse()
                    } else {
                        ord
                    }
                })
                .find(|ord| ord.is_ne())
                .unwrap_or(Ordering::Equal)
        });
    }
    for row in &mut rows {
        row.truncate(tq.visible);
    }
    if query.is_distinct() && ncols > tq.visible {
        let mut seen = HashSet::new();
        rows.retain(|row| seen.insert(row.clone()));
    }

    let out_rows: Vec<Vec<Option<Term>>> = (rows.into_iter())
        .skip(tq.offset)
        .take(tq.limit.unwrap_or(usize::MAX))
        .map(|row| row.iter().map(|c| const_to_term(c, symbols)).collect())
        .collect();

    let seq = SolutionSeq {
        vars: (tq.columns[..tq.visible].iter())
            .map(|v| v.name().to_string())
            .collect(),
        rows: out_rows,
    };

    match &query.form {
        QueryForm::Construct { template } => {
            QueryResults::Graph(Box::new(construct_graph(template, &seq)))
        }
        QueryForm::Describe { targets } => {
            QueryResults::Graph(Box::new(describe_graph(targets, &seq, db)))
        }
        _ => QueryResults::Solutions(seq),
    }
}

/// A graph as a sorted list of triple strings with blank-node labels
/// erased — the graph analogue of [`SolutionSeq::canonical`], for
/// comparing CONSTRUCT/DESCRIBE output across engines that mint their
/// own fresh labels (the compliance harness and the differential suite
/// both compare through this).
pub fn canonical_triples(g: &Graph) -> Vec<[String; 3]> {
    let render = |t: &Term| {
        if t.is_bnode() {
            "_:".to_string()
        } else {
            t.to_string()
        }
    };
    let mut rows: Vec<[String; 3]> = g
        .iter()
        .map(|(s, p, o)| [render(s), render(p), render(o)])
        .collect();
    rows.sort();
    rows
}

/// Instantiates a `CONSTRUCT` template over a solution sequence
/// (SPARQL 1.1 §16.2): each solution stamps out one copy of every triple
/// template. Template blank nodes are freshened per solution — the same
/// label within one solution denotes one node, across solutions distinct
/// ones; `'!'` cannot occur in a parsed blank-node label, so minted
/// labels never collide with dataset ones. Instantiations with an
/// unbound variable, a literal subject or a non-IRI predicate are
/// dropped, and the result is a graph, so duplicates collapse.
pub fn construct_graph(template: &[TriplePattern], solutions: &SolutionSeq) -> Graph {
    let mut g = Graph::new();
    for (row, sol) in solutions.iter().enumerate() {
        for t in template {
            let resolve = |tp: &TermPattern| -> Option<Term> {
                match tp {
                    TermPattern::Term(Term::BlankNode(label)) => {
                        Some(Term::bnode(format!("{label}!c{row}")))
                    }
                    TermPattern::Term(term) => Some(term.clone()),
                    TermPattern::Var(v) => sol.get(v.name()).cloned(),
                }
            };
            let (Some(s), Some(p), Some(o)) = (
                resolve(&t.subject),
                resolve(&t.predicate),
                resolve(&t.object),
            ) else {
                continue;
            };
            if s.is_literal() || !p.is_iri() {
                continue;
            }
            g.insert(Triple::new(s, p, o));
        }
    }
    g
}

/// The concise bounded description backing `DESCRIBE`: for every
/// resource (explicit IRI targets plus the non-literal bindings of the
/// target variables across the solutions), all default-graph triples
/// with that resource as subject, closed transitively over blank-node
/// objects.
fn describe_graph(targets: &[DescribeTarget], solutions: &SolutionSeq, db: &Database) -> Graph {
    let symbols = db.symbols();
    let mut queue: Vec<Term> = Vec::new();
    let mut seen: HashSet<Term> = HashSet::new();
    for t in targets {
        if let DescribeTarget::Iri(iri) = t {
            let term = Term::iri(iri.clone());
            if seen.insert(term.clone()) {
                queue.push(term);
            }
        }
    }
    for v in solutions.rows.iter().flatten().flatten() {
        if !v.is_literal() && seen.insert(v.clone()) {
            queue.push(v.clone());
        }
    }

    let mut g = Graph::new();
    let Some(triple_p) = symbols.get(preds::TRIPLE) else {
        return g;
    };
    let Some(rel) = db.relation(triple_p) else {
        return g;
    };
    let dict = db.dict();
    let default_g = dict.encode(&default_graph_const(symbols));
    while let Some(r) = queue.pop() {
        let sid = dict.encode(&term_to_const(&r, symbols));
        let matches = rel.lookup(0b0001, &[sid]);
        for &idx in matches.iter() {
            let row = rel.row(idx);
            if row[3] != default_g {
                continue;
            }
            let (Some(p), Some(o)) = (
                const_to_term(&dict.decode(row[1]), symbols),
                const_to_term(&dict.decode(row[2]), symbols),
            ) else {
                continue;
            };
            if o.is_bnode() && seen.insert(o.clone()) {
                queue.push(o.clone());
            }
            g.insert(Triple::new(r.clone(), p, o));
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(rows: Vec<Vec<Option<Term>>>) -> SolutionSeq {
        SolutionSeq {
            vars: vec!["x".into()],
            rows,
        }
    }

    #[test]
    fn multiset_equality_ignores_order() {
        let a = seq(vec![vec![Some(Term::iri("a"))], vec![Some(Term::iri("b"))]]);
        let b = seq(vec![vec![Some(Term::iri("b"))], vec![Some(Term::iri("a"))]]);
        assert!(a.multiset_eq(&b));
    }

    #[test]
    fn multiset_equality_counts_duplicates() {
        let a = seq(vec![vec![Some(Term::iri("a"))], vec![Some(Term::iri("a"))]]);
        let b = seq(vec![vec![Some(Term::iri("a"))]]);
        assert!(!a.multiset_eq(&b));
        assert!(b.multiset_subset_of(&a));
        assert!(!a.multiset_subset_of(&b));
    }

    #[test]
    fn bnode_labels_are_ignored() {
        let a = seq(vec![vec![Some(Term::bnode("x1"))]]);
        let b = seq(vec![vec![Some(Term::bnode("y9"))]]);
        assert!(a.multiset_eq(&b));
    }

    #[test]
    fn solution_views_access_by_name() {
        let s = SolutionSeq {
            vars: vec!["x".into(), "y".into()],
            rows: vec![
                vec![Some(Term::iri("a")), None],
                vec![Some(Term::iri("b")), Some(Term::integer(2))],
            ],
        };
        let first = s.solution(0).unwrap();
        assert_eq!(first.get("x"), Some(&Term::iri("a")));
        assert_eq!(first.get("?x"), Some(&Term::iri("a")));
        assert_eq!(first.get("y"), None, "unbound");
        assert_eq!(first.get("z"), None, "not projected");
        assert_eq!(first.vars(), &["x".to_string(), "y".to_string()]);
        let names: Vec<&str> = first.iter().map(|(v, _)| v).collect();
        assert_eq!(names, ["x", "y"]);
        assert_eq!(s.iter().count(), 2);
        assert!(s.solution(5).is_none());
    }

    #[test]
    fn display_renders_table_and_booleans() {
        let s = SolutionSeq {
            vars: vec!["x".into(), "y".into()],
            rows: vec![vec![Some(Term::iri("a")), None]],
        };
        assert_eq!(s.to_string(), "?x\t?y\n<a>\tUNBOUND");
        assert_eq!(
            QueryResults::Solutions(s).to_string(),
            "?x\t?y\n<a>\tUNBOUND"
        );
        assert_eq!(QueryResults::Boolean(true).to_string(), "true");
    }

    #[test]
    fn unbound_cells_compare() {
        let a = seq(vec![vec![None]]);
        let b = seq(vec![vec![Some(Term::iri("a"))]]);
        assert!(!a.multiset_eq(&b));
        assert!(a.multiset_eq(&a.clone()));
    }
}
