//! Recursive-descent parser for the SPARQL 1.1 subset.
//!
//! The parser mirrors the SPARQL grammar productions closely
//! (`GroupGraphPattern`, `TriplesBlock`, `PathAlternative`, ...). Features
//! outside the paper's Table 1 produce a [`ParseError`] with
//! `unsupported = true`, so that compliance harnesses can distinguish
//! unsupported features (the paper reports these separately, Appendix
//! D.2.3) from syntax errors.

use std::collections::HashMap;
use std::sync::Arc;

use sparqlog_rdf::vocab::{rdf, xsd};
use sparqlog_rdf::Term;

use crate::ast::*;
use crate::expr::{AggFunc, ArithOp, CmpOp, Expr};
use crate::lexer::{tokenize, Punct, Token};
use crate::path::PropertyPath;
use crate::update::{ClearTarget, GroundQuad, QuadPattern, Update, UpdateOperation};

/// A parse error. `unsupported` is true when the query uses a SPARQL
/// feature the engine deliberately does not implement; `feature` then
/// carries the feature's name so callers can branch on it instead of
/// string-matching the message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description.
    pub message: String,
    /// True when the query uses a deliberately unimplemented feature.
    pub unsupported: bool,
    /// The unsupported feature's name, when `unsupported` is set.
    pub feature: Option<String>,
}

impl ParseError {
    fn new(message: impl Into<String>) -> Self {
        ParseError {
            message: message.into(),
            unsupported: false,
            feature: None,
        }
    }

    /// Constructs the "feature not supported" variant.
    pub fn unsupported(feature: &str) -> Self {
        ParseError {
            message: format!("unsupported SPARQL feature: {feature}"),
            unsupported: true,
            feature: Some(feature.to_string()),
        }
    }
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for ParseError {}

/// The deepest tree of graph patterns, property paths and expressions
/// the parser accepts. A level is a nested group graph pattern, path
/// group or expression (parenthesised, built-in argument, unary
/// operator), or one more operand of a left-deep chain: `||`, `&&`,
/// `+ -`, `* /`, the path operators `/` and `|`, `UNION`, and the joins,
/// `OPTIONAL`s, `MINUS`es and `FILTER`s of a group. Joins count as the
/// one chain T_Q flattens them into, nested groups included. The parser
/// loops over a chain, but every pass after it (T_Q, the rewrites,
/// display, drop) recurses once per level, so an unbounded tree would
/// overflow the stack, which aborts the process; past this depth the
/// input is a [`ParseError`] instead. Real queries are a few dozen
/// levels deep.
const MAX_DEPTH: usize = 100;

/// The most nodes a property path may have once its range quantifiers
/// are expanded (see [`expanded_len`]). The translation recurses through
/// the expansion, so a count such as `p{1000000}` would overflow the
/// stack as deep nesting does; past this size the path is a
/// [`ParseError`]. `p{255}` and `p{0,15}` fit.
const MAX_EXPANDED_PATH: u64 = 512;

/// The node a chain operator builds over the chain so far and the next
/// operand.
type Node<T> = fn(T, T) -> T;

/// Parses a SPARQL query string into a [`Query`].
pub fn parse_query(input: &str) -> Result<Query, ParseError> {
    let mut p = Parser::new(input)?;
    let q = p.parse_query()?;
    p.expect_eof()?;
    Ok(q)
}

/// Parses a SPARQL 1.1 Update request string into an [`Update`].
///
/// Supported operations: `INSERT DATA`, `DELETE DATA`,
/// `DELETE/INSERT ... WHERE` (including the `DELETE WHERE` shorthand)
/// and `CLEAR`. The graph-management operations (`LOAD`, `CREATE`,
/// `DROP`, `COPY`, `MOVE`, `ADD`) and `WITH`/`USING` report the
/// dedicated "unsupported" error.
pub fn parse_update(input: &str) -> Result<Update, ParseError> {
    let mut p = Parser::new(input)?;
    let u = p.parse_update()?;
    p.expect_eof()?;
    Ok(u)
}

/// If `input` starts (after its `PREFIX`/`BASE` prologue) with a SPARQL
/// *Update* keyword, returns that keyword in canonical upper case.
///
/// Read-only entry points use this to turn the confusing parse failure
/// an update string would produce into a clear "read-only" error,
/// without attempting a full update parse.
pub fn update_keyword(input: &str) -> Option<&'static str> {
    const UPDATE_KEYWORDS: &[&str] = &[
        "INSERT", "DELETE", "CLEAR", "LOAD", "DROP", "CREATE", "COPY", "MOVE", "ADD", "WITH",
    ];
    let tokens = tokenize(input).ok()?;
    let mut i = 0usize;
    loop {
        match tokens.get(i)? {
            // PREFIX pname: <iri>  /  BASE <iri>
            Token::Word(w) if w.eq_ignore_ascii_case("PREFIX") => i += 3,
            Token::Word(w) if w.eq_ignore_ascii_case("BASE") => i += 2,
            Token::Word(w) => {
                return UPDATE_KEYWORDS
                    .iter()
                    .find(|k| w.eq_ignore_ascii_case(k))
                    .copied();
            }
            _ => return None,
        }
    }
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    prefixes: HashMap<String, String>,
    anon: usize,
    /// Levels above the item being parsed (see [`MAX_DEPTH`]).
    depth: usize,
    /// The deepest level reached within the current chain operand (see
    /// [`Parser::operand`]).
    peak: usize,
}

impl Parser {
    fn new(input: &str) -> Result<Parser, ParseError> {
        let tokens = tokenize(input).map_err(|e| {
            ParseError::new(format!("lex error at byte {}: {}", e.offset, e.message))
        })?;
        Ok(Parser {
            tokens,
            pos: 0,
            prefixes: HashMap::new(),
            anon: 0,
            depth: 0,
            peak: 0,
        })
    }

    /// Records a tree reaching `height` levels below the current one,
    /// failing past [`MAX_DEPTH`].
    fn reach(&mut self, height: usize) -> Result<(), ParseError> {
        if self.depth + height > MAX_DEPTH {
            return self.err(format!("nesting deeper than {MAX_DEPTH} levels"));
        }
        self.peak = self.peak.max(self.depth + height);
        Ok(())
    }

    /// Runs `parse` one level deeper.
    fn nested<T>(
        &mut self,
        parse: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        self.reach(1)?;
        self.depth += 1;
        let out = parse(self);
        self.depth -= 1;
        out
    }

    /// Runs `parse` at the current level and returns its tree with the
    /// tree's height: the levels it reached below this one.
    fn operand<T>(
        &mut self,
        parse: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<(T, usize), ParseError> {
        let outer = std::mem::replace(&mut self.peak, self.depth);
        let out = parse(self);
        let height = self.peak - self.depth;
        self.peak = self.peak.max(outer);
        Ok((out?, height))
    }

    /// Parses the left-deep chain `operand (op operand)*`: `op` consumes
    /// an operator and returns the node joining the chain so far to the
    /// next operand, or consumes nothing and returns `None`.
    fn chain<T>(
        &mut self,
        operand: fn(&mut Self) -> Result<T, ParseError>,
        op: fn(&mut Self) -> Option<Node<T>>,
    ) -> Result<T, ParseError> {
        let (mut tree, mut height) = self.operand(operand)?;
        while let Some(node) = op(self) {
            let (rhs, h) = self.operand(operand)?;
            tree = node(tree, rhs);
            height = 1 + height.max(h);
            self.reach(height)?;
        }
        Ok(tree)
    }

    fn peek(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn peek2(&self) -> &Token {
        &self.tokens[(self.pos + 1).min(self.tokens.len() - 1)]
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos.min(self.tokens.len() - 1)].clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError::new(format!(
            "{} (at {})",
            msg.into(),
            self.peek()
        )))
    }

    fn eat_punct(&mut self, p: Punct) -> bool {
        if *self.peek() == Token::Punct(p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: Punct) -> Result<(), ParseError> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            self.err(format!("expected {p:?}"))
        }
    }

    /// Case-insensitive keyword check without consuming.
    fn at_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Token::Word(w) if w.eq_ignore_ascii_case(kw))
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.at_keyword(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            self.err(format!("expected keyword {kw}"))
        }
    }

    fn expect_eof(&mut self) -> Result<(), ParseError> {
        if matches!(self.peek(), Token::Eof) {
            Ok(())
        } else {
            self.err("trailing tokens after query")
        }
    }

    // ---------------------------------------------------------- prologue

    fn parse_prologue(&mut self) -> Result<(), ParseError> {
        loop {
            if self.eat_keyword("PREFIX") {
                let (prefix, _local) = match self.bump() {
                    Token::PName { prefix, local } => (prefix, local),
                    other => return self.err(format!("expected prefix name, got {other}")),
                };
                let iri = match self.bump() {
                    Token::Iri(i) => i,
                    other => return self.err(format!("expected IRI, got {other}")),
                };
                self.prefixes.insert(prefix, iri.to_string());
            } else if self.eat_keyword("BASE") {
                match self.bump() {
                    Token::Iri(_) => {}
                    other => return self.err(format!("expected IRI, got {other}")),
                }
            } else {
                return Ok(());
            }
        }
    }

    fn parse_query(&mut self) -> Result<Query, ParseError> {
        self.parse_prologue()?;

        // `CONSTRUCT WHERE { triples }` shorthand: the triples block after
        // WHERE doubles as both template and pattern.
        let mut construct_shorthand = false;
        let mut form = if self.eat_keyword("SELECT") {
            let distinct = self.eat_keyword("DISTINCT");
            if self.at_keyword("REDUCED") {
                // REDUCED permits (but does not require) dropping
                // duplicates; treating it as a no-op is standard-compliant.
                self.bump();
            }
            let items = self.parse_select_items()?;
            QueryForm::Select { distinct, items }
        } else if self.eat_keyword("ASK") {
            QueryForm::Ask
        } else if self.eat_keyword("CONSTRUCT") {
            if matches!(self.peek(), Token::Punct(Punct::LBrace)) {
                let template = self.parse_triple_template()?;
                QueryForm::Construct { template }
            } else {
                construct_shorthand = true;
                QueryForm::Construct {
                    template: Vec::new(),
                }
            }
        } else if self.eat_keyword("DESCRIBE") {
            QueryForm::Describe {
                targets: self.parse_describe_targets()?,
            }
        } else {
            return self.err("expected SELECT, ASK, CONSTRUCT or DESCRIBE");
        };

        let mut dataset = Vec::new();
        while self.eat_keyword("FROM") {
            if self.eat_keyword("NAMED") {
                dataset.push(DatasetClause::Named(self.parse_iri()?));
            } else {
                dataset.push(DatasetClause::Default(self.parse_iri()?));
            }
        }

        let pattern = if construct_shorthand {
            // CONSTRUCT WHERE { TriplesTemplate }: plain triples only.
            self.expect_keyword("WHERE")?;
            let template = self.parse_triple_template()?;
            // The template becomes a chain of joins.
            self.reach(template.len())?;
            let pattern = template.iter().cloned().fold(GraphPattern::Empty, |p, t| {
                GraphPattern::join(p, GraphPattern::Triple(t))
            });
            form = QueryForm::Construct { template };
            pattern
        } else if matches!(form, QueryForm::Describe { .. })
            && !self.at_keyword("WHERE")
            && !matches!(self.peek(), Token::Punct(Punct::LBrace))
        {
            // DESCRIBE's WHERE clause is optional.
            GraphPattern::Empty
        } else {
            self.eat_keyword("WHERE");
            self.parse_group_graph_pattern()?
        };

        // Solution modifiers.
        let mut group_by = Vec::new();
        let mut order_by = Vec::new();
        let mut limit = None;
        let mut offset = None;
        loop {
            if self.eat_keyword("GROUP") {
                self.expect_keyword("BY")?;
                while let Token::Var(_) = self.peek() {
                    if let Token::Var(v) = self.bump() {
                        group_by.push(Var::new(v));
                    }
                }
                if group_by.is_empty() {
                    return self.err("GROUP BY requires at least one variable");
                }
            } else if self.eat_keyword("HAVING") {
                return Err(ParseError::unsupported("HAVING"));
            } else if self.eat_keyword("ORDER") {
                self.expect_keyword("BY")?;
                loop {
                    if self.eat_keyword("ASC") {
                        self.expect_punct(Punct::LParen)?;
                        let e = self.parse_expr()?;
                        self.expect_punct(Punct::RParen)?;
                        order_by.push(OrderCondition {
                            expr: e,
                            descending: false,
                        });
                    } else if self.eat_keyword("DESC") {
                        self.expect_punct(Punct::LParen)?;
                        let e = self.parse_expr()?;
                        self.expect_punct(Punct::RParen)?;
                        order_by.push(OrderCondition {
                            expr: e,
                            descending: true,
                        });
                    } else if matches!(self.peek(), Token::Var(_)) {
                        if let Token::Var(v) = self.bump() {
                            order_by.push(OrderCondition {
                                expr: Expr::Var(Var::new(v)),
                                descending: false,
                            });
                        }
                    } else if matches!(self.peek(), Token::Punct(Punct::LParen))
                        || self.at_builtin_keyword()
                    {
                        // Complex ORDER BY argument, e.g. ORDER BY (!BOUND(?n))
                        // or ORDER BY STR(?x) — FEASIBLE uses these (App. D.4).
                        let e = self.parse_unary()?;
                        order_by.push(OrderCondition {
                            expr: e,
                            descending: false,
                        });
                    } else {
                        break;
                    }
                }
                if order_by.is_empty() {
                    return self.err("ORDER BY requires at least one condition");
                }
            } else if self.eat_keyword("LIMIT") {
                match self.bump() {
                    Token::Integer(n) if n >= 0 => limit = Some(n as usize),
                    other => return self.err(format!("expected LIMIT count, got {other}")),
                }
            } else if self.eat_keyword("OFFSET") {
                match self.bump() {
                    Token::Integer(n) if n >= 0 => offset = Some(n as usize),
                    other => return self.err(format!("expected OFFSET count, got {other}")),
                }
            } else {
                break;
            }
        }

        Ok(Query {
            form,
            dataset,
            pattern,
            group_by,
            order_by,
            limit,
            offset,
        })
    }

    fn parse_select_items(&mut self) -> Result<Vec<SelectItem>, ParseError> {
        if self.eat_punct(Punct::Star) {
            return Ok(Vec::new());
        }
        let mut items = Vec::new();
        loop {
            match self.peek().clone() {
                Token::Var(v) => {
                    self.bump();
                    items.push(SelectItem::Var(Var::new(v)));
                }
                Token::Punct(Punct::LParen) => {
                    self.bump();
                    let item = self.parse_projection_expression()?;
                    self.expect_punct(Punct::RParen)?;
                    items.push(item);
                }
                _ => break,
            }
        }
        if items.is_empty() {
            return self.err("SELECT requires '*' or at least one variable");
        }
        Ok(items)
    }

    /// Parses `AGG([DISTINCT] arg) AS ?v` inside a projection.
    fn parse_projection_expression(&mut self) -> Result<SelectItem, ParseError> {
        let func = if self.eat_keyword("COUNT") {
            AggFunc::Count
        } else if self.eat_keyword("SUM") {
            AggFunc::Sum
        } else if self.eat_keyword("MIN") {
            AggFunc::Min
        } else if self.eat_keyword("MAX") {
            AggFunc::Max
        } else if self.eat_keyword("AVG") {
            AggFunc::Avg
        } else if self.at_keyword("SAMPLE") || self.at_keyword("GROUP_CONCAT") {
            return Err(ParseError::unsupported("SAMPLE/GROUP_CONCAT aggregate"));
        } else {
            return Err(ParseError::unsupported(
                "non-aggregate SELECT expressions (BIND-style projection)",
            ));
        };
        self.expect_punct(Punct::LParen)?;
        let distinct = self.eat_keyword("DISTINCT");
        let arg = if self.eat_punct(Punct::Star) {
            if func != AggFunc::Count {
                return self.err("'*' argument is only valid for COUNT");
            }
            None
        } else {
            Some(self.parse_expr()?)
        };
        self.expect_punct(Punct::RParen)?;
        self.expect_keyword("AS")?;
        let var = match self.bump() {
            Token::Var(v) => Var::new(v),
            other => return self.err(format!("expected variable after AS, got {other}")),
        };
        Ok(SelectItem::Aggregate {
            var,
            func,
            distinct,
            arg,
        })
    }

    /// Parses a `{ TriplesTemplate }` block: plain triples (with `;`/`,`
    /// abbreviations), variables and blank nodes allowed, but no property
    /// paths, `GRAPH` blocks or other graph-pattern operators — the shape
    /// of a `CONSTRUCT` template.
    fn parse_triple_template(&mut self) -> Result<Vec<TriplePattern>, ParseError> {
        self.expect_punct(Punct::LBrace)?;
        let mut quads: Vec<QuadPattern> = Vec::new();
        loop {
            if self.eat_punct(Punct::RBrace) {
                break;
            }
            if self.eat_punct(Punct::Dot) {
                continue;
            }
            if self.at_keyword("GRAPH") {
                return Err(ParseError::unsupported(
                    "GRAPH blocks in CONSTRUCT templates",
                ));
            }
            self.parse_quad_triples(None, &mut quads)?;
        }
        Ok(quads
            .into_iter()
            .map(|q| TriplePattern::new(q.subject, q.predicate, q.object))
            .collect())
    }

    /// Parses the target list of a `DESCRIBE` clause: `*` (returned as an
    /// empty list) or one or more variables / IRIs.
    fn parse_describe_targets(&mut self) -> Result<Vec<DescribeTarget>, ParseError> {
        if self.eat_punct(Punct::Star) {
            return Ok(Vec::new());
        }
        let mut targets = Vec::new();
        loop {
            match self.peek().clone() {
                Token::Var(v) => {
                    self.bump();
                    targets.push(DescribeTarget::Var(Var::new(v)));
                }
                Token::Iri(_) | Token::PName { .. } => {
                    targets.push(DescribeTarget::Iri(self.parse_iri()?));
                }
                _ => break,
            }
        }
        if targets.is_empty() {
            return self.err("DESCRIBE requires '*' or at least one variable or IRI");
        }
        Ok(targets)
    }

    // ------------------------------------------------------------- updates

    fn parse_update(&mut self) -> Result<Update, ParseError> {
        let mut operations = Vec::new();
        loop {
            // Each operation may carry its own PREFIX/BASE prologue.
            self.parse_prologue()?;
            if matches!(self.peek(), Token::Eof) {
                break;
            }
            operations.push(self.parse_update_operation()?);
            if !self.eat_punct(Punct::Semicolon) {
                break;
            }
        }
        if operations.is_empty() {
            return self.err("expected an update operation");
        }
        Ok(Update { operations })
    }

    fn parse_update_operation(&mut self) -> Result<UpdateOperation, ParseError> {
        for unsupported in ["LOAD", "CREATE", "DROP", "COPY", "MOVE", "ADD"] {
            if self.at_keyword(unsupported) {
                return Err(ParseError::unsupported(&format!(
                    "{unsupported} (graph management)"
                )));
            }
        }
        if self.at_keyword("WITH") || self.at_keyword("USING") {
            return Err(ParseError::unsupported("WITH/USING graph selection"));
        }
        if self.eat_keyword("CLEAR") {
            self.eat_keyword("SILENT");
            let target = if self.eat_keyword("DEFAULT") {
                ClearTarget::Default
            } else if self.eat_keyword("NAMED") {
                ClearTarget::Named
            } else if self.eat_keyword("ALL") {
                ClearTarget::All
            } else if self.eat_keyword("GRAPH") {
                ClearTarget::Graph(self.parse_iri()?)
            } else {
                return self.err("expected DEFAULT, NAMED, ALL or GRAPH after CLEAR");
            };
            return Ok(UpdateOperation::Clear(target));
        }
        if self.eat_keyword("INSERT") {
            if self.eat_keyword("DATA") {
                let quads = self.parse_quad_block()?;
                let ground = self.ground_quads(quads, false)?;
                return Ok(UpdateOperation::InsertData(ground));
            }
            let insert = self.parse_quad_block()?;
            self.expect_keyword("WHERE")?;
            let pattern = self.parse_group_graph_pattern()?;
            return Ok(UpdateOperation::DeleteInsert {
                delete: Vec::new(),
                insert,
                pattern,
            });
        }
        if self.eat_keyword("DELETE") {
            if self.eat_keyword("DATA") {
                let quads = self.parse_quad_block()?;
                let ground = self.ground_quads(quads, true)?;
                return Ok(UpdateOperation::DeleteData(ground));
            }
            if self.eat_keyword("WHERE") {
                // DELETE WHERE shorthand: the quad block is both the
                // delete template and the WHERE pattern.
                let delete = self.parse_quad_block()?;
                self.no_bnodes_in_delete(&delete)?;
                // The template becomes a chain of joins.
                self.reach(delete.len())?;
                let pattern = quads_as_pattern(&delete);
                return Ok(UpdateOperation::DeleteInsert {
                    delete,
                    insert: Vec::new(),
                    pattern,
                });
            }
            let delete = self.parse_quad_block()?;
            self.no_bnodes_in_delete(&delete)?;
            let insert = if self.eat_keyword("INSERT") {
                self.parse_quad_block()?
            } else {
                Vec::new()
            };
            if self.at_keyword("USING") {
                return Err(ParseError::unsupported("WITH/USING graph selection"));
            }
            self.expect_keyword("WHERE")?;
            let pattern = self.parse_group_graph_pattern()?;
            return Ok(UpdateOperation::DeleteInsert {
                delete,
                insert,
                pattern,
            });
        }
        self.err("expected INSERT, DELETE or CLEAR")
    }

    /// Parses a `{ Quads }` block: triples (with `;`/`,` abbreviations)
    /// optionally wrapped in `GRAPH <iri> { ... }` sub-blocks.
    fn parse_quad_block(&mut self) -> Result<Vec<QuadPattern>, ParseError> {
        self.expect_punct(Punct::LBrace)?;
        let mut out = Vec::new();
        loop {
            if self.eat_punct(Punct::RBrace) {
                break;
            }
            if self.eat_punct(Punct::Dot) {
                continue;
            }
            if self.at_keyword("GRAPH") {
                self.bump();
                let graph = match self.peek() {
                    Token::Var(_) => {
                        return Err(ParseError::unsupported(
                            "variable GRAPH targets in update templates",
                        ))
                    }
                    _ => self.parse_iri()?,
                };
                self.expect_punct(Punct::LBrace)?;
                loop {
                    if self.eat_punct(Punct::RBrace) {
                        break;
                    }
                    if self.eat_punct(Punct::Dot) {
                        continue;
                    }
                    self.parse_quad_triples(Some(graph.clone()), &mut out)?;
                }
            } else {
                self.parse_quad_triples(None, &mut out)?;
            }
        }
        Ok(out)
    }

    /// One `TriplesSameSubject` worth of quad templates (plain verbs
    /// only — property paths have no place in update templates).
    fn parse_quad_triples(
        &mut self,
        graph: Option<Arc<str>>,
        out: &mut Vec<QuadPattern>,
    ) -> Result<(), ParseError> {
        let subject = self.parse_term_pattern()?;
        loop {
            let predicate = match self.peek().clone() {
                Token::Var(v) => {
                    self.bump();
                    TermPattern::Var(Var::new(v))
                }
                Token::Word(w) if w == "a" => {
                    self.bump();
                    TermPattern::Term(Term::iri(rdf::TYPE))
                }
                _ => TermPattern::Term(Term::iri(self.parse_iri()?)),
            };
            loop {
                let object = self.parse_term_pattern()?;
                out.push(QuadPattern {
                    subject: subject.clone(),
                    predicate: predicate.clone(),
                    object,
                    graph: graph.clone(),
                });
                if !self.eat_punct(Punct::Comma) {
                    break;
                }
            }
            if !self.eat_punct(Punct::Semicolon) {
                break;
            }
            if matches!(
                self.peek(),
                Token::Punct(Punct::Dot) | Token::Punct(Punct::RBrace)
            ) {
                break;
            }
        }
        Ok(())
    }

    /// Converts templates to ground quads, rejecting variables (and, for
    /// `DELETE DATA`, blank nodes — per SPARQL 1.1 Update §3.1.2).
    fn ground_quads(
        &self,
        quads: Vec<QuadPattern>,
        deleting: bool,
    ) -> Result<Vec<GroundQuad>, ParseError> {
        let mut out = Vec::with_capacity(quads.len());
        for q in quads {
            let ground = |tp: TermPattern| -> Result<Term, ParseError> {
                match tp {
                    TermPattern::Term(t) => {
                        if deleting && t.is_bnode() {
                            return Err(ParseError::new(
                                "blank nodes are not allowed in DELETE DATA",
                            ));
                        }
                        Ok(t)
                    }
                    TermPattern::Var(v) => Err(ParseError::new(format!(
                        "variable {v} is not allowed in ground data blocks"
                    ))),
                }
            };
            out.push(GroundQuad {
                subject: ground(q.subject)?,
                predicate: ground(q.predicate)?,
                object: ground(q.object)?,
                graph: q.graph,
            });
        }
        Ok(out)
    }

    /// SPARQL 1.1 Update §3.1.3.2: blank nodes are not allowed in
    /// DELETE templates.
    fn no_bnodes_in_delete(&self, quads: &[QuadPattern]) -> Result<(), ParseError> {
        let has_bnode = quads.iter().any(|q| {
            [&q.subject, &q.predicate, &q.object]
                .into_iter()
                .any(|tp| matches!(tp, TermPattern::Term(t) if t.is_bnode()))
        });
        if has_bnode {
            return Err(ParseError::new(
                "blank nodes are not allowed in DELETE templates",
            ));
        }
        Ok(())
    }

    // -------------------------------------------------------- graph pattern

    fn parse_group_graph_pattern(&mut self) -> Result<GraphPattern, ParseError> {
        self.nested(Self::parse_group_body)
    }

    fn parse_group_body(&mut self) -> Result<GraphPattern, ParseError> {
        self.expect_punct(Punct::LBrace)?;
        let mut current = GraphPattern::Empty;
        // The levels `current` reaches below this group.
        let mut height = 0;
        let mut filters: Vec<(Expr, usize)> = Vec::new();
        loop {
            if self.eat_punct(Punct::RBrace) {
                break;
            }
            match self.peek() {
                Token::Word(w) if w.eq_ignore_ascii_case("FILTER") => {
                    self.bump();
                    if self.at_keyword("EXISTS") {
                        return Err(ParseError::unsupported("FILTER EXISTS"));
                    }
                    if self.at_keyword("NOT") {
                        return Err(ParseError::unsupported("FILTER NOT EXISTS"));
                    }
                    filters.push(self.operand(Self::parse_constraint)?);
                }
                Token::Word(w) if w.eq_ignore_ascii_case("OPTIONAL") => {
                    self.bump();
                    let (right, h) = self.operand(Self::parse_group_graph_pattern)?;
                    current = GraphPattern::Optional(Box::new(current), Box::new(right));
                    height = 1 + height.max(h);
                }
                Token::Word(w) if w.eq_ignore_ascii_case("MINUS") => {
                    self.bump();
                    let (right, h) = self.operand(Self::parse_group_graph_pattern)?;
                    current = GraphPattern::Minus(Box::new(current), Box::new(right));
                    height = 1 + height.max(h);
                }
                Token::Word(w) if w.eq_ignore_ascii_case("GRAPH") => {
                    self.bump();
                    let spec = match self.peek().clone() {
                        Token::Var(v) => {
                            self.bump();
                            GraphSpec::Var(Var::new(v))
                        }
                        _ => GraphSpec::Iri(self.parse_iri()?),
                    };
                    // The group's level stands for the `Graph` node.
                    let (inner, h) = self.operand(Self::parse_group_graph_pattern)?;
                    let graph = GraphPattern::Graph(spec, Box::new(inner));
                    (current, height) = join((current, height), (graph, h));
                }
                Token::Word(w) if w.eq_ignore_ascii_case("BIND") => {
                    return Err(ParseError::unsupported("BIND"));
                }
                Token::Word(w) if w.eq_ignore_ascii_case("VALUES") => {
                    return Err(ParseError::unsupported("VALUES"));
                }
                Token::Word(w) if w.eq_ignore_ascii_case("SERVICE") => {
                    return Err(ParseError::unsupported("SERVICE (federation)"));
                }
                Token::Punct(Punct::LBrace) => {
                    // Group or union. A nested `{ SELECT ... }` would be a
                    // sub-query — unsupported, detect it for a clear error.
                    if matches!(self.peek2(), Token::Word(w) if w.eq_ignore_ascii_case("SELECT")) {
                        return Err(ParseError::unsupported("sub-SELECT"));
                    }
                    let union = self.operand(|p| {
                        p.chain(Self::parse_group_graph_pattern, |p| {
                            p.eat_keyword("UNION")
                                .then_some(|a, b| GraphPattern::Union(Box::new(a), Box::new(b)))
                        })
                    })?;
                    (current, height) = join((current, height), union);
                }
                Token::Punct(Punct::Dot) => {
                    self.bump();
                }
                _ => {
                    let block = self.operand(Self::parse_triples_same_subject)?;
                    (current, height) = join((current, height), block);
                }
            }
            self.reach(height)?;
        }
        for (f, h) in filters {
            current = GraphPattern::Filter(Box::new(current), f);
            height = 1 + height.max(h);
            self.reach(height)?;
        }
        Ok(current)
    }

    /// Parses one `TriplesSameSubject` production (subject with a
    /// predicate-object list) into a join of triple/path patterns.
    fn parse_triples_same_subject(&mut self) -> Result<GraphPattern, ParseError> {
        let subject = self.parse_term_pattern()?;
        let mut pattern = (GraphPattern::Empty, 0);
        loop {
            // Verb: variable, 'a', or a property path. A plain IRI makes
            // a triple, a leaf; any other path hangs below a `Path` node.
            let (verb, h) = match self.peek().clone() {
                Token::Var(v) => {
                    self.bump();
                    (Verb::Var(Var::new(v)), 0)
                }
                _ => match self.operand(Self::parse_path_alternative)? {
                    (link @ PropertyPath::Link(_), _) => (Verb::Path(link), 0),
                    (path, h) => (Verb::Path(path), h + 1),
                },
            };
            loop {
                let object = self.parse_term_pattern()?;
                let elem = match &verb {
                    Verb::Var(v) => GraphPattern::Triple(TriplePattern::new(
                        subject.clone(),
                        TermPattern::Var(v.clone()),
                        object,
                    )),
                    Verb::Path(PropertyPath::Link(iri)) => {
                        GraphPattern::Triple(TriplePattern::new(
                            subject.clone(),
                            TermPattern::Term(Term::iri(iri.clone())),
                            object,
                        ))
                    }
                    Verb::Path(p) => GraphPattern::Path {
                        subject: subject.clone(),
                        path: p.clone(),
                        object,
                    },
                };
                pattern = join(pattern, (elem, h));
                self.reach(pattern.1)?;
                if !self.eat_punct(Punct::Comma) {
                    break;
                }
            }
            if !self.eat_punct(Punct::Semicolon) {
                break;
            }
            // Trailing ';' before '.' or '}' is allowed.
            if matches!(
                self.peek(),
                Token::Punct(Punct::Dot) | Token::Punct(Punct::RBrace)
            ) {
                break;
            }
        }
        Ok(pattern.0)
    }

    fn parse_term_pattern(&mut self) -> Result<TermPattern, ParseError> {
        match self.peek().clone() {
            Token::Var(v) => {
                self.bump();
                Ok(TermPattern::Var(Var::new(v)))
            }
            Token::BlankNode(b) => {
                self.bump();
                Ok(TermPattern::Term(Term::bnode(b)))
            }
            Token::Punct(Punct::LBracket) => {
                self.bump();
                self.expect_punct(Punct::RBracket)?;
                self.anon += 1;
                Ok(TermPattern::Term(Term::bnode(format!("anon{}", self.anon))))
            }
            Token::Iri(_) | Token::PName { .. } => {
                Ok(TermPattern::Term(Term::iri(self.parse_iri()?)))
            }
            Token::String(_) => Ok(TermPattern::Term(self.parse_literal()?)),
            Token::Integer(n) => {
                self.bump();
                Ok(TermPattern::Term(Term::integer(n)))
            }
            Token::Decimal(d) => {
                self.bump();
                Ok(TermPattern::Term(Term::typed_literal(d, xsd::DOUBLE)))
            }
            Token::Punct(Punct::Minus) => {
                self.bump();
                match self.bump() {
                    Token::Integer(n) => Ok(TermPattern::Term(Term::integer(-n))),
                    Token::Decimal(d) => Ok(TermPattern::Term(Term::typed_literal(
                        format!("-{d}"),
                        xsd::DOUBLE,
                    ))),
                    other => self.err(format!("expected number after '-', got {other}")),
                }
            }
            Token::Word(w) if w.eq_ignore_ascii_case("true") => {
                self.bump();
                Ok(TermPattern::Term(Term::boolean(true)))
            }
            Token::Word(w) if w.eq_ignore_ascii_case("false") => {
                self.bump();
                Ok(TermPattern::Term(Term::boolean(false)))
            }
            other => self.err(format!("expected term or variable, got {other}")),
        }
    }

    fn parse_literal(&mut self) -> Result<Term, ParseError> {
        let lex = match self.bump() {
            Token::String(s) => s,
            other => return self.err(format!("expected string literal, got {other}")),
        };
        match self.peek().clone() {
            Token::LangTag(tag) => {
                self.bump();
                Ok(Term::lang_literal(lex, &tag))
            }
            Token::Punct(Punct::CaretCaret) => {
                self.bump();
                let dt = self.parse_iri()?;
                Ok(Term::typed_literal(lex, dt))
            }
            _ => Ok(Term::literal(lex)),
        }
    }

    fn parse_iri(&mut self) -> Result<Arc<str>, ParseError> {
        match self.bump() {
            Token::Iri(i) => Ok(i),
            Token::PName { prefix, local } => match self.prefixes.get(&prefix) {
                Some(ns) => Ok(Arc::from(format!("{ns}{local}"))),
                None => self.err(format!("undeclared prefix {prefix:?}")),
            },
            other => self.err(format!("expected IRI, got {other}")),
        }
    }

    // -------------------------------------------------------------- paths

    fn parse_path(&mut self) -> Result<PropertyPath, ParseError> {
        self.nested(Self::parse_path_alternative)
    }

    fn parse_path_alternative(&mut self) -> Result<PropertyPath, ParseError> {
        self.chain(Self::parse_path_sequence, |p| {
            p.eat_punct(Punct::Pipe)
                .then_some(|a, b| PropertyPath::Alternative(Box::new(a), Box::new(b)))
        })
    }

    fn parse_path_sequence(&mut self) -> Result<PropertyPath, ParseError> {
        self.chain(Self::parse_path_elt_or_inverse, |p| {
            p.eat_punct(Punct::Slash)
                .then_some(|a, b| PropertyPath::Sequence(Box::new(a), Box::new(b)))
        })
    }

    fn parse_path_elt_or_inverse(&mut self) -> Result<PropertyPath, ParseError> {
        if self.eat_punct(Punct::Caret) {
            let inner = self.parse_path_elt()?;
            Ok(PropertyPath::Inverse(Box::new(inner)))
        } else {
            self.parse_path_elt()
        }
    }

    fn parse_path_elt(&mut self) -> Result<PropertyPath, ParseError> {
        let primary = self.parse_path_primary()?;
        self.parse_path_mod(primary)
    }

    fn parse_path_mod(&mut self, primary: PropertyPath) -> Result<PropertyPath, ParseError> {
        if self.eat_punct(Punct::Question) {
            Ok(PropertyPath::ZeroOrOne(Box::new(primary)))
        } else if self.eat_punct(Punct::Star) {
            Ok(PropertyPath::ZeroOrMore(Box::new(primary)))
        } else if self.eat_punct(Punct::Plus) {
            Ok(PropertyPath::OneOrMore(Box::new(primary)))
        } else if matches!(self.peek(), Token::Punct(Punct::LBrace))
            && matches!(self.peek2(), Token::Integer(_))
        {
            // Range quantifier {n}, {n,}, {n,m} — the gMark extension.
            self.bump(); // '{'
            let n = self.path_count()?;
            let path = if self.eat_punct(Punct::Comma) {
                if matches!(self.peek(), Token::Integer(_)) {
                    let m = self.path_count()?;
                    if m < n {
                        return self.err("path range upper bound below lower bound");
                    }
                    PropertyPath::Between(Box::new(primary), n, m)
                } else {
                    PropertyPath::AtLeast(Box::new(primary), n)
                }
            } else {
                PropertyPath::Exactly(Box::new(primary), n)
            };
            self.expect_punct(Punct::RBrace)?;
            if expanded_len(&path) > MAX_EXPANDED_PATH {
                return self.err(format!(
                    "property path expands to more than {MAX_EXPANDED_PATH} nodes"
                ));
            }
            Ok(path)
        } else {
            Ok(primary)
        }
    }

    /// A range quantifier's count.
    fn path_count(&mut self) -> Result<u32, ParseError> {
        match self.bump() {
            Token::Integer(n) => u32::try_from(n).or_else(|_| self.err("path count out of range")),
            other => self.err(format!("expected path count, got {other}")),
        }
    }

    fn parse_path_primary(&mut self) -> Result<PropertyPath, ParseError> {
        match self.peek().clone() {
            Token::Punct(Punct::LParen) => {
                self.bump();
                let p = self.parse_path()?;
                self.expect_punct(Punct::RParen)?;
                Ok(p)
            }
            Token::Punct(Punct::Bang) => {
                self.bump();
                self.parse_negated_property_set()
            }
            Token::Word(w) if w.eq_ignore_ascii_case("a") && w == "a" => {
                self.bump();
                Ok(PropertyPath::Link(Arc::from(rdf::TYPE)))
            }
            Token::Iri(_) | Token::PName { .. } => Ok(PropertyPath::Link(self.parse_iri()?)),
            other => self.err(format!("expected property path, got {other}")),
        }
    }

    fn parse_negated_property_set(&mut self) -> Result<PropertyPath, ParseError> {
        let mut forward = Vec::new();
        let mut backward = Vec::new();
        let one = |p: &mut Parser,
                   forward: &mut Vec<Arc<str>>,
                   backward: &mut Vec<Arc<str>>|
         -> Result<(), ParseError> {
            if p.eat_punct(Punct::Caret) {
                backward.push(p.parse_iri()?);
            } else if p.at_keyword("a") {
                p.bump();
                forward.push(Arc::from(rdf::TYPE));
            } else {
                forward.push(p.parse_iri()?);
            }
            Ok(())
        };
        if self.eat_punct(Punct::LParen) {
            loop {
                one(self, &mut forward, &mut backward)?;
                if !self.eat_punct(Punct::Pipe) {
                    break;
                }
            }
            self.expect_punct(Punct::RParen)?;
        } else {
            one(self, &mut forward, &mut backward)?;
        }
        Ok(PropertyPath::NegatedSet { forward, backward })
    }

    // -------------------------------------------------------- expressions

    fn parse_constraint(&mut self) -> Result<Expr, ParseError> {
        // Constraint := BrackettedExpression | BuiltInCall
        if matches!(self.peek(), Token::Punct(Punct::LParen)) {
            self.bump();
            let e = self.parse_expr()?;
            self.expect_punct(Punct::RParen)?;
            Ok(e)
        } else if self.at_builtin_keyword() {
            self.parse_builtin_call()
        } else {
            self.err("expected '(' or built-in call after FILTER")
        }
    }

    fn at_builtin_keyword(&self) -> bool {
        const BUILTINS: &[&str] = &[
            "BOUND",
            "REGEX",
            "ISIRI",
            "ISURI",
            "ISBLANK",
            "ISLITERAL",
            "ISNUMERIC",
            "STR",
            "LANG",
            "DATATYPE",
            "UCASE",
            "LCASE",
            "STRLEN",
            "CONTAINS",
            "STRSTARTS",
            "STRENDS",
            "SAMETERM",
            "LANGMATCHES",
        ];
        matches!(self.peek(), Token::Word(w)
            if BUILTINS.iter().any(|b| w.eq_ignore_ascii_case(b)))
    }

    fn parse_expr(&mut self) -> Result<Expr, ParseError> {
        self.nested(|p| Ok(p.parse_binary(0)?.0))
    }

    /// Parses a binary expression whose operators bind at level `min` or
    /// tighter ([`Parser::binary_op`]) by precedence climbing, with its
    /// height: each `||`, `&&`, `+ -` and `* /` is one more operand of a
    /// left-deep chain, as [`Parser::chain`] counts it; a comparison adds
    /// no level and does not associate.
    fn parse_binary(&mut self, min: usize) -> Result<(Expr, usize), ParseError> {
        let (mut tree, mut height) = self.operand(Self::parse_unary)?;
        // The tightest level the next operator may have: that of the last
        // one, whose right operand took every tighter operator, and below
        // a comparison, which does not associate.
        let mut max = usize::MAX;
        while let Some((level, node)) = self.binary_op().filter(|(l, _)| (min..=max).contains(l)) {
            let node = node?;
            self.bump();
            let (rhs, h) = self.parse_binary(level + 1)?;
            tree = node(tree, rhs);
            if level == COMPARISON {
                height = height.max(h);
                max = level - 1;
            } else {
                height = 1 + height.max(h);
                self.reach(height)?;
                max = level;
            }
        }
        Ok((tree, height))
    }

    /// The binary operator at the cursor, unconsumed, with its level,
    /// loosest first: `||`, `&&`, the comparisons ([`COMPARISON`]), `+ -`,
    /// `* /`. `IN` and `NOT IN` sit at the comparisons' level and are
    /// unsupported.
    fn binary_op(&self) -> Option<(usize, Result<Node<Expr>, ParseError>)> {
        let (level, node): (usize, Node<Expr>) = match self.peek() {
            Token::Punct(Punct::OrOr) => (0, |a, b| Expr::Or(Box::new(a), Box::new(b))),
            Token::Punct(Punct::AndAnd) => (1, |a, b| Expr::And(Box::new(a), Box::new(b))),
            Token::Punct(Punct::Eq) => (COMPARISON, |a, b| cmp(CmpOp::Eq, a, b)),
            Token::Punct(Punct::Neq) => (COMPARISON, |a, b| cmp(CmpOp::Neq, a, b)),
            Token::Punct(Punct::Lt) => (COMPARISON, |a, b| cmp(CmpOp::Lt, a, b)),
            Token::Punct(Punct::Le) => (COMPARISON, |a, b| cmp(CmpOp::Le, a, b)),
            Token::Punct(Punct::Gt) => (COMPARISON, |a, b| cmp(CmpOp::Gt, a, b)),
            Token::Punct(Punct::Ge) => (COMPARISON, |a, b| cmp(CmpOp::Ge, a, b)),
            Token::Word(w) if w.eq_ignore_ascii_case("IN") => {
                return Some((COMPARISON, Err(ParseError::unsupported("IN"))))
            }
            Token::Word(w) if w.eq_ignore_ascii_case("NOT") => {
                return Some((COMPARISON, Err(ParseError::unsupported("NOT IN"))))
            }
            Token::Punct(Punct::Plus) => (3, |a, b| arith(ArithOp::Add, a, b)),
            Token::Punct(Punct::Minus) => (3, |a, b| arith(ArithOp::Sub, a, b)),
            Token::Punct(Punct::Star) => (4, |a, b| arith(ArithOp::Mul, a, b)),
            Token::Punct(Punct::Slash) => (4, |a, b| arith(ArithOp::Div, a, b)),
            _ => return None,
        };
        Some((level, Ok(node)))
    }

    fn parse_unary(&mut self) -> Result<Expr, ParseError> {
        if self.eat_punct(Punct::Bang) {
            Ok(Expr::Not(Box::new(self.nested(Self::parse_unary)?)))
        } else if self.eat_punct(Punct::Minus) {
            Ok(Expr::Neg(Box::new(self.nested(Self::parse_unary)?)))
        } else if self.eat_punct(Punct::Plus) {
            self.nested(Self::parse_unary)
        } else {
            self.parse_primary()
        }
    }

    fn parse_primary(&mut self) -> Result<Expr, ParseError> {
        match self.peek().clone() {
            Token::Punct(Punct::LParen) => {
                self.bump();
                let e = self.parse_expr()?;
                self.expect_punct(Punct::RParen)?;
                Ok(e)
            }
            Token::Var(v) => {
                self.bump();
                Ok(Expr::Var(Var::new(v)))
            }
            Token::Integer(n) => {
                self.bump();
                Ok(Expr::Const(Term::integer(n)))
            }
            Token::Decimal(d) => {
                self.bump();
                Ok(Expr::Const(Term::typed_literal(d, xsd::DOUBLE)))
            }
            Token::String(_) => Ok(Expr::Const(self.parse_literal()?)),
            Token::Iri(_) | Token::PName { .. } => Ok(Expr::Const(Term::iri(self.parse_iri()?))),
            Token::Word(w) if w.eq_ignore_ascii_case("true") => {
                self.bump();
                Ok(Expr::Const(Term::boolean(true)))
            }
            Token::Word(w) if w.eq_ignore_ascii_case("false") => {
                self.bump();
                Ok(Expr::Const(Term::boolean(false)))
            }
            Token::Word(_) if self.at_builtin_keyword() => self.parse_builtin_call(),
            Token::Word(w) if w.eq_ignore_ascii_case("COALESCE") => {
                Err(ParseError::unsupported("COALESCE"))
            }
            Token::Word(w) if w.eq_ignore_ascii_case("EXISTS") => {
                Err(ParseError::unsupported("EXISTS"))
            }
            other => self.err(format!("expected expression, got {other}")),
        }
    }

    fn parse_builtin_call(&mut self) -> Result<Expr, ParseError> {
        let name = match self.bump() {
            Token::Word(w) => w.to_ascii_uppercase(),
            other => return self.err(format!("expected built-in name, got {other}")),
        };
        self.expect_punct(Punct::LParen)?;
        if name == "BOUND" {
            let v = match self.bump() {
                Token::Var(v) => Var::new(v),
                other => return self.err(format!("BOUND expects a variable, got {other}")),
            };
            self.expect_punct(Punct::RParen)?;
            return Ok(Expr::Bound(v));
        }
        // The arguments are parsed in one place, so a nested call costs
        // one small frame per level.
        let mut args = vec![self.parse_expr()?];
        while self.eat_punct(Punct::Comma) {
            args.push(self.parse_expr()?);
        }
        self.expect_punct(Punct::RParen)?;
        let mut args = args.into_iter().map(Box::new);
        let mut arg = || args.next();
        let e = match (name.as_str(), arg(), arg(), arg(), arg()) {
            ("REGEX", Some(text), Some(pattern), flags, None) => Expr::Regex(text, pattern, flags),
            ("ISIRI" | "ISURI", Some(a), None, ..) => Expr::IsIri(a),
            ("ISBLANK", Some(a), None, ..) => Expr::IsBlank(a),
            ("ISLITERAL", Some(a), None, ..) => Expr::IsLiteral(a),
            ("ISNUMERIC", Some(a), None, ..) => Expr::IsNumeric(a),
            ("STR", Some(a), None, ..) => Expr::Str(a),
            ("LANG", Some(a), None, ..) => Expr::Lang(a),
            ("DATATYPE", Some(a), None, ..) => Expr::Datatype(a),
            ("UCASE", Some(a), None, ..) => Expr::Ucase(a),
            ("LCASE", Some(a), None, ..) => Expr::Lcase(a),
            ("STRLEN", Some(a), None, ..) => Expr::Strlen(a),
            ("CONTAINS", Some(a), Some(b), None, _) => Expr::Contains(a, b),
            ("STRSTARTS", Some(a), Some(b), None, _) => Expr::StrStarts(a, b),
            ("STRENDS", Some(a), Some(b), None, _) => Expr::StrEnds(a, b),
            ("SAMETERM", Some(a), Some(b), None, _) => Expr::SameTerm(a, b),
            ("LANGMATCHES", Some(a), Some(b), None, _) => Expr::LangMatches(a, b),
            (other, ..) => return self.err(format!("wrong number of arguments to {other}")),
        };
        Ok(e)
    }
}

/// The level of the comparison operators in [`Parser::binary_op`].
const COMPARISON: usize = 2;

fn cmp(op: CmpOp, a: Expr, b: Expr) -> Expr {
    Expr::Compare(op, Box::new(a), Box::new(b))
}

fn arith(op: ArithOp, a: Expr, b: Expr) -> Expr {
    Expr::Arith(op, Box::new(a), Box::new(b))
}

enum Verb {
    Var(Var),
    Path(PropertyPath),
}

/// [`GraphPattern::join`] of two trees given with their heights, with its
/// height. T_Q flattens nested joins into one left-deep chain, so the
/// height bounds that chain: the sum of both sides' heights, not the
/// larger one.
fn join((a, ha): (GraphPattern, usize), (b, hb): (GraphPattern, usize)) -> (GraphPattern, usize) {
    let height = match (&a, &b) {
        (GraphPattern::Empty, _) => hb,
        (_, GraphPattern::Empty) => ha,
        _ => ha + hb + 1,
    };
    (GraphPattern::join(a, b), height)
}

/// Reads a quad-template list back as a graph pattern (the `DELETE
/// WHERE` shorthand, where the template doubles as the `WHERE` clause).
fn quads_as_pattern(quads: &[QuadPattern]) -> GraphPattern {
    let mut pattern = GraphPattern::Empty;
    for q in quads {
        let triple = GraphPattern::Triple(TriplePattern::new(
            q.subject.clone(),
            q.predicate.clone(),
            q.object.clone(),
        ));
        let wrapped = match &q.graph {
            None => triple,
            Some(g) => GraphPattern::Graph(GraphSpec::Iri(g.clone()), Box::new(triple)),
        };
        pattern = GraphPattern::join(pattern, wrapped);
    }
    pattern
}

/// An upper bound on the nodes of `path` once its range quantifiers are
/// expanded as the translation expands them: `p{n}` to `n` copies of `p`
/// in a sequence, `p{n,}` to `p{n-1}/p+`, `p{n,m}` to the alternative of
/// `p{k}` for `k` from `n` to `m`. Saturates.
fn expanded_len(path: &PropertyPath) -> u64 {
    use PropertyPath as P;
    // `p{k}`: k copies of `p` and fewer than k sequence nodes.
    let repeat =
        |p: &PropertyPath, k: u32| expanded_len(p).saturating_add(1).saturating_mul(k.into());
    match path {
        P::Link(_) | P::NegatedSet { .. } => 1,
        P::Inverse(p) | P::OneOrMore(p) | P::ZeroOrOne(p) | P::ZeroOrMore(p) => {
            expanded_len(p).saturating_add(1)
        }
        P::Alternative(a, b) | P::Sequence(a, b) => expanded_len(a)
            .saturating_add(expanded_len(b))
            .saturating_add(1),
        P::Exactly(p, n) | P::AtLeast(p, n) => repeat(p, *n).saturating_add(1),
        P::Between(p, n, m) => repeat(p, *m).saturating_mul(u64::from(m - n) + 1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_paper_figure1_query() {
        let q = parse_query(
            r#"
            SELECT ?N ?L
            FROM <http://example.org/graph.rdf>
            WHERE { ?X <http://ex.org/name> ?N
            . OPTIONAL { ?X <http://ex.org/lastname> ?L }}
            ORDER BY ?N
            "#,
        )
        .unwrap();
        assert!(q.is_select());
        assert_eq!(q.projection(), vec![Var::new("N"), Var::new("L")]);
        assert_eq!(q.dataset.len(), 1);
        assert_eq!(q.order_by.len(), 1);
        assert!(matches!(q.pattern, GraphPattern::Optional(_, _)));
    }

    #[test]
    fn parse_paper_figure3_property_path_query() {
        let q = parse_query(
            r#"
            PREFIX ex: <http://ex.org/>
            SELECT ?B
            FROM <http://example.org/countries.rdf>
            WHERE { ?A ex:borders+ ?B . FILTER (?A = ex:spain) }
            "#,
        )
        .unwrap();
        match &q.pattern {
            GraphPattern::Filter(inner, cond) => {
                match inner.as_ref() {
                    GraphPattern::Path { path, .. } => {
                        assert!(matches!(path, PropertyPath::OneOrMore(_)));
                    }
                    other => panic!("expected path pattern, got {other:?}"),
                }
                assert!(matches!(cond, Expr::Compare(CmpOp::Eq, _, _)));
            }
            other => panic!("expected filter, got {other:?}"),
        }
    }

    #[test]
    fn plain_link_paths_become_triple_patterns() {
        let q = parse_query("PREFIX ex: <http://e/> SELECT * WHERE { ?x ex:p ?y . ?y a ex:C }")
            .unwrap();
        match &q.pattern {
            GraphPattern::Join(a, b) => {
                assert!(matches!(a.as_ref(), GraphPattern::Triple(_)));
                match b.as_ref() {
                    GraphPattern::Triple(t) => {
                        assert_eq!(t.predicate, TermPattern::Term(Term::iri(rdf::TYPE)));
                    }
                    other => panic!("expected triple, got {other:?}"),
                }
            }
            other => panic!("expected join, got {other:?}"),
        }
    }

    #[test]
    fn semicolon_and_comma_abbreviations() {
        let q = parse_query("PREFIX e: <http://e/> SELECT * WHERE { ?x e:p ?a , ?b ; e:q ?c . }")
            .unwrap();
        // Three triple patterns joined.
        let mut count = 0;
        fn count_triples(p: &GraphPattern, n: &mut usize) {
            match p {
                GraphPattern::Triple(_) => *n += 1,
                GraphPattern::Join(a, b) => {
                    count_triples(a, n);
                    count_triples(b, n);
                }
                _ => {}
            }
        }
        count_triples(&q.pattern, &mut count);
        assert_eq!(count, 3);
    }

    #[test]
    fn union_and_minus() {
        let q = parse_query(
            "PREFIX e: <http://e/> SELECT ?x WHERE {
               { ?x e:p e:a } UNION { ?x e:q e:b } MINUS { ?x e:r e:c } }",
        )
        .unwrap();
        assert!(matches!(q.pattern, GraphPattern::Minus(_, _)));
        if let GraphPattern::Minus(l, _) = &q.pattern {
            assert!(matches!(l.as_ref(), GraphPattern::Union(_, _)));
        }
    }

    #[test]
    fn graph_patterns() {
        let q =
            parse_query("SELECT * WHERE { GRAPH ?g { ?s ?p ?o } GRAPH <http://g> { ?a ?b ?c } }")
                .unwrap();
        if let GraphPattern::Join(a, b) = &q.pattern {
            assert!(matches!(
                a.as_ref(),
                GraphPattern::Graph(GraphSpec::Var(_), _)
            ));
            assert!(matches!(
                b.as_ref(),
                GraphPattern::Graph(GraphSpec::Iri(_), _)
            ));
        } else {
            panic!("expected join of two GRAPH patterns");
        }
    }

    #[test]
    fn complex_paths() {
        let q =
            parse_query("PREFIX e: <http://e/> SELECT * WHERE { ?x (e:a/e:b)|^e:c ?y }").unwrap();
        match &q.pattern {
            GraphPattern::Path { path, .. } => {
                assert!(matches!(path, PropertyPath::Alternative(_, _)));
            }
            other => panic!("expected path, got {other:?}"),
        }
    }

    #[test]
    fn negated_property_sets() {
        let q = parse_query("PREFIX e: <http://e/> SELECT * WHERE { ?x !(e:a|^e:b) ?y }").unwrap();
        match &q.pattern {
            GraphPattern::Path { path, .. } => match path {
                PropertyPath::NegatedSet { forward, backward } => {
                    assert_eq!(forward.len(), 1);
                    assert_eq!(backward.len(), 1);
                }
                other => panic!("expected negated set, got {other:?}"),
            },
            other => panic!("expected path, got {other:?}"),
        }
    }

    #[test]
    fn path_range_quantifiers() {
        for (text, expect_recursive) in [
            ("?x e:p{2} ?y", false),
            ("?x e:p{2,} ?y", true),
            ("?x e:p{0,3} ?y", false),
        ] {
            let q = parse_query(&format!(
                "PREFIX e: <http://e/> SELECT * WHERE {{ {text} }}"
            ))
            .unwrap();
            match &q.pattern {
                GraphPattern::Path { path, .. } => {
                    assert_eq!(path.is_recursive(), expect_recursive, "{text}");
                }
                other => panic!("expected path, got {other:?}"),
            }
        }
    }

    #[test]
    fn filter_builtins() {
        let q = parse_query(
            r#"SELECT ?x WHERE { ?x ?p ?o .
                FILTER (BOUND(?x) && REGEX(STR(?o), "^a", "i") && ISIRI(?x)
                        || !ISBLANK(?o) && STRLEN(UCASE(STR(?o))) > 3) }"#,
        )
        .unwrap();
        assert!(matches!(q.pattern, GraphPattern::Filter(_, _)));
    }

    #[test]
    fn aggregates_and_group_by() {
        let q = parse_query("SELECT ?x (COUNT(?y) AS ?c) WHERE { ?x ?p ?y } GROUP BY ?x").unwrap();
        assert!(q.has_aggregates());
        assert_eq!(q.group_by, vec![Var::new("x")]);
        assert_eq!(q.projection(), vec![Var::new("x"), Var::new("c")]);
        let q2 = parse_query("SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }").unwrap();
        assert!(q2.has_aggregates());
    }

    #[test]
    fn solution_modifiers() {
        let q = parse_query(
            "SELECT DISTINCT ?x WHERE { ?x ?p ?o } ORDER BY DESC(?x) LIMIT 10 OFFSET 5",
        )
        .unwrap();
        assert!(q.is_distinct());
        assert!(q.order_by[0].descending);
        assert_eq!(q.limit, Some(10));
        assert_eq!(q.offset, Some(5));
    }

    #[test]
    fn order_by_complex_argument() {
        // FEASIBLE-style ORDER BY (!BOUND(?n)) — Appendix D.4.
        let q = parse_query("SELECT ?x WHERE { ?x ?p ?n } ORDER BY (!BOUND(?n)) ?x").unwrap();
        assert_eq!(q.order_by.len(), 2);
        assert!(matches!(q.order_by[0].expr, Expr::Not(_)));
    }

    #[test]
    fn ask_query() {
        let q = parse_query("ASK { ?x ?p ?o }").unwrap();
        assert!(q.is_ask());
    }

    #[test]
    fn parse_construct_queries() {
        let q = parse_query(
            r#"PREFIX ex: <http://e/>
               CONSTRUCT { ?x ex:knows ?y . _:b ex:seen ?x }
               WHERE { ?x ex:p ?y } LIMIT 3"#,
        )
        .unwrap();
        assert!(q.is_construct());
        assert_eq!(q.limit, Some(3));
        match &q.form {
            QueryForm::Construct { template } => {
                assert_eq!(template.len(), 2);
                assert!(matches!(
                    template[1].subject,
                    TermPattern::Term(Term::BlankNode(_))
                ));
            }
            other => panic!("expected CONSTRUCT, got {other:?}"),
        }
        assert_eq!(q.projection(), vec![Var::new("x"), Var::new("y")]);

        // Shorthand: the triples block is both template and pattern.
        let q = parse_query("CONSTRUCT WHERE { ?s <http://p> ?o . ?o <http://q> ?z }").unwrap();
        match &q.form {
            QueryForm::Construct { template } => assert_eq!(template.len(), 2),
            other => panic!("expected CONSTRUCT, got {other:?}"),
        }
        assert!(matches!(q.pattern, GraphPattern::Join(_, _)));

        // GRAPH blocks have no place in a template.
        let err = parse_query("CONSTRUCT { GRAPH <http://g> { ?s ?p ?o } } WHERE { ?s ?p ?o }")
            .unwrap_err();
        assert!(err.unsupported);
    }

    #[test]
    fn parse_describe_queries() {
        let q =
            parse_query("PREFIX ex: <http://e/> DESCRIBE ex:a ?x WHERE { ?x ex:p ?y }").unwrap();
        assert!(q.is_describe());
        match &q.form {
            QueryForm::Describe { targets } => {
                assert_eq!(
                    targets,
                    &[
                        DescribeTarget::Iri(Arc::from("http://e/a")),
                        DescribeTarget::Var(Var::new("x")),
                    ]
                );
            }
            other => panic!("expected DESCRIBE, got {other:?}"),
        }
        assert_eq!(q.projection(), vec![Var::new("x")]);

        // The WHERE clause is optional.
        let q = parse_query("DESCRIBE <http://e/a>").unwrap();
        assert_eq!(q.pattern, GraphPattern::Empty);

        // DESCRIBE * projects every in-scope pattern variable.
        let q = parse_query("DESCRIBE * WHERE { ?s ?p ?o }").unwrap();
        match &q.form {
            QueryForm::Describe { targets } => assert!(targets.is_empty()),
            other => panic!("expected DESCRIBE, got {other:?}"),
        }
        assert_eq!(
            q.projection(),
            vec![Var::new("s"), Var::new("p"), Var::new("o")]
        );

        assert!(parse_query("DESCRIBE").is_err());
    }

    #[test]
    fn unsupported_features_are_flagged() {
        for (text, feature) in [
            (
                "SELECT * WHERE { ?s ?p ?o FILTER NOT EXISTS { ?s ?p ?o } }",
                "NOT EXISTS",
            ),
            (
                "SELECT * WHERE { ?s ?p ?o FILTER EXISTS { ?s ?p ?o } }",
                "EXISTS",
            ),
            ("SELECT * WHERE { BIND(1 AS ?x) }", "BIND"),
            ("SELECT * WHERE { VALUES ?x { 1 } }", "VALUES"),
            (
                "SELECT * WHERE { { SELECT ?x WHERE { ?x ?p ?o } } }",
                "sub-SELECT",
            ),
            ("SELECT * WHERE { ?s ?p ?o } HAVING (?o > 1)", "HAVING"),
        ] {
            let err = parse_query(text).unwrap_err();
            assert!(err.unsupported, "{feature}: {err:?}");
            // The feature name is carried structurally, not only in the
            // message.
            assert!(
                err.feature.as_deref().is_some_and(|f| f.contains(feature)),
                "{feature}: {err:?}"
            );
        }
    }

    #[test]
    fn syntax_errors_are_not_unsupported() {
        let err = parse_query("SELECT ?x WHERE { ?x ?p }").unwrap_err();
        assert!(!err.unsupported);
        assert_eq!(err.feature, None);
        assert!(parse_query("SELECT").is_err());
        assert!(parse_query("SELECT ?x WHERE { ?x nope:p ?y }").is_err());
    }

    /// Group graph patterns nested `n` deep (the `WHERE` group is level 1).
    fn nested_groups(n: usize) -> String {
        format!("{}?s ?p ?o{}", "{ ".repeat(n), " }".repeat(n))
    }

    #[test]
    fn nesting_is_bounded() {
        let groups = |n| format!("SELECT * WHERE {}", nested_groups(n));
        assert!(parse_query(&groups(MAX_DEPTH)).is_ok());
        let err = parse_query(&groups(MAX_DEPTH + 1)).unwrap_err();
        assert!(
            err.message
                .contains(&format!("nesting deeper than {MAX_DEPTH} levels")),
            "{err}"
        );
        assert!(!err.unsupported);

        // 10 000 levels of each kind of nesting fail cleanly instead of
        // overflowing the stack.
        let n = 10_000;
        let filter = |e: String| format!("SELECT * WHERE {{ ?s ?p ?o FILTER ({e}) }}");
        for q in [
            groups(n),
            filter(format!("{}?o{}", "(".repeat(n), ")".repeat(n))),
            filter(format!("{}?o", "!".repeat(n))),
            filter(format!("{}?o", "-".repeat(n))),
            filter(format!("{}?o{}", "STR(".repeat(n), ")".repeat(n))),
            format!(
                "SELECT * WHERE {{ ?s {}<http://p>{} ?o }}",
                "(".repeat(n),
                ")".repeat(n)
            ),
        ] {
            assert!(parse_query(&q).is_err());
        }
        let update = format!("DELETE {{ ?s ?p ?o }} WHERE {}", nested_groups(n));
        assert!(parse_update(&update).is_err());

        // Range quantifiers count by their expansion: large counts, and
        // quantifiers over quantifiers, are refused.
        let path = |p: &str| parse_query(&format!("SELECT * WHERE {{ ?s {p} ?o }}"));
        for p in ["<p>{255}", "<p>{0,15}", "<p>{3,}", "(<p>{2}){3}"] {
            assert!(path(p).is_ok(), "{p}");
        }
        for p in [
            "<p>{1000000}",
            "<p>{256}",
            "<p>{0,16}",
            "<p>{1000000,}",
            "<p>{0,4294967295}",
            "<p>{4294967296}",
            "((<p>{16}){16}){16}",
        ] {
            let err = path(p).unwrap_err();
            assert!(!err.unsupported, "{p}: {err}");
        }
    }

    #[test]
    fn parse_insert_and_delete_data() {
        let u = parse_update(
            r#"PREFIX ex: <http://e/>
               INSERT DATA { ex:a ex:p ex:b ; ex:q "v"@en , 4 .
                             GRAPH <http://g> { ex:a ex:p ex:c } } ;
               DELETE DATA { ex:a ex:p ex:b }"#,
        )
        .unwrap();
        assert_eq!(u.operations.len(), 2);
        match &u.operations[0] {
            UpdateOperation::InsertData(quads) => {
                assert_eq!(quads.len(), 4);
                assert_eq!(quads[0].subject, Term::iri("http://e/a"));
                assert_eq!(quads[2].object, Term::integer(4));
                assert!(quads[0..3].iter().all(|q| q.graph.is_none()));
                assert_eq!(quads[3].graph.as_deref(), Some("http://g"));
            }
            other => panic!("expected INSERT DATA, got {other:?}"),
        }
        assert!(matches!(&u.operations[1], UpdateOperation::DeleteData(q) if q.len() == 1));
    }

    #[test]
    fn parse_delete_insert_where() {
        let u = parse_update(
            r#"PREFIX ex: <http://e/>
               DELETE { ?x ex:old ?y } INSERT { ?x ex:new ?y }
               WHERE { ?x ex:old ?y . FILTER (?y > 1) }"#,
        )
        .unwrap();
        match &u.operations[0] {
            UpdateOperation::DeleteInsert {
                delete,
                insert,
                pattern,
            } => {
                assert_eq!(delete.len(), 1);
                assert_eq!(insert.len(), 1);
                assert!(matches!(pattern, GraphPattern::Filter(_, _)));
                assert_eq!(delete[0].vars(), vec![Var::new("x"), Var::new("y")]);
            }
            other => panic!("expected DELETE/INSERT, got {other:?}"),
        }
    }

    #[test]
    fn parse_insert_where_and_delete_where_shorthand() {
        let u = parse_update("PREFIX ex: <http://e/> INSERT { ?x a ex:C } WHERE { ?x ex:p ?y }")
            .unwrap();
        match &u.operations[0] {
            UpdateOperation::DeleteInsert { delete, insert, .. } => {
                assert!(delete.is_empty());
                assert_eq!(insert.len(), 1);
            }
            other => panic!("expected INSERT..WHERE, got {other:?}"),
        }
        let u = parse_update(
            "PREFIX ex: <http://e/> DELETE WHERE { ?x ex:p ?y . GRAPH <http://g> { ?x ex:q ?z } }",
        )
        .unwrap();
        match &u.operations[0] {
            UpdateOperation::DeleteInsert {
                delete,
                insert,
                pattern,
            } => {
                assert_eq!(delete.len(), 2);
                assert!(insert.is_empty());
                // Template doubles as the WHERE pattern, GRAPH preserved.
                assert!(matches!(pattern, GraphPattern::Join(_, _)));
            }
            other => panic!("expected DELETE WHERE, got {other:?}"),
        }
    }

    #[test]
    fn parse_clear_targets() {
        let u =
            parse_update("CLEAR DEFAULT ; CLEAR NAMED ; CLEAR ALL ; CLEAR SILENT GRAPH <http://g>")
                .unwrap();
        assert_eq!(
            u.operations,
            vec![
                UpdateOperation::Clear(ClearTarget::Default),
                UpdateOperation::Clear(ClearTarget::Named),
                UpdateOperation::Clear(ClearTarget::All),
                UpdateOperation::Clear(ClearTarget::Graph(Arc::from("http://g"))),
            ]
        );
    }

    #[test]
    fn update_errors() {
        // Variables in ground data blocks are plain errors.
        let err = parse_update("INSERT DATA { ?x <http://p> 1 }").unwrap_err();
        assert!(!err.unsupported);
        // Blank nodes are rejected where SPARQL 1.1 Update forbids them.
        assert!(parse_update("DELETE DATA { _:b <http://p> 1 }").is_err());
        assert!(parse_update("DELETE { _:b <http://p> ?y } WHERE { ?x <http://p> ?y }").is_err());
        // Graph-management operations are flagged unsupported.
        for text in [
            "LOAD <http://remote/data.ttl>",
            "DROP GRAPH <http://g>",
            "CREATE GRAPH <http://g>",
            "WITH <http://g> DELETE { ?s ?p ?o } WHERE { ?s ?p ?o }",
        ] {
            let err = parse_update(text).unwrap_err();
            assert!(err.unsupported, "{text}: {err:?}");
        }
        // Queries are not updates.
        assert!(parse_update("SELECT * WHERE { ?s ?p ?o }").is_err());
    }

    #[test]
    fn update_keyword_detection() {
        assert_eq!(
            update_keyword("PREFIX ex: <http://e/> INSERT DATA { ex:a ex:p 1 }"),
            Some("INSERT")
        );
        assert_eq!(update_keyword("BASE <http://b/> CLEAR ALL"), Some("CLEAR"));
        assert_eq!(update_keyword("delete where { ?s ?p ?o }"), Some("DELETE"));
        assert_eq!(update_keyword("SELECT * WHERE { ?s ?p ?o }"), None);
        assert_eq!(update_keyword("ASK { ?s ?p ?o }"), None);
        assert_eq!(update_keyword("{ not sparql"), None);
        assert_eq!(update_keyword(""), None);
    }

    #[test]
    fn from_named_clauses() {
        let q = parse_query("SELECT * FROM <http://d> FROM NAMED <http://n> WHERE { ?s ?p ?o }")
            .unwrap();
        assert_eq!(q.dataset.len(), 2);
        assert!(matches!(&q.dataset[0], DatasetClause::Default(_)));
        assert!(matches!(&q.dataset[1], DatasetClause::Named(_)));
    }

    #[test]
    fn filter_applies_to_whole_group() {
        // FILTER written before the triple still scopes over the group.
        let q = parse_query("SELECT * WHERE { FILTER (?y > 3) ?x <http://p> ?y }").unwrap();
        assert!(matches!(q.pattern, GraphPattern::Filter(_, _)));
    }

    #[test]
    fn optional_with_inner_filter_preserved() {
        // Def. A.9 shape: (P1 OPT (P2 FILTER C)).
        let q = parse_query(
            "PREFIX e: <http://e/> SELECT * WHERE {
               ?x e:p ?y OPTIONAL { ?x e:q ?z FILTER (?z > 1) } }",
        )
        .unwrap();
        match &q.pattern {
            GraphPattern::Optional(_, right) => {
                assert!(matches!(right.as_ref(), GraphPattern::Filter(_, _)));
            }
            other => panic!("expected optional, got {other:?}"),
        }
    }

    #[test]
    fn literals_in_patterns() {
        let q = parse_query(
            r#"SELECT * WHERE { ?x <http://p> "v"@en . ?x <http://q> 5 . ?x <http://r> -2 . ?x <http://s> true }"#,
        )
        .unwrap();
        let mut literals = 0;
        fn walk(p: &GraphPattern, n: &mut usize) {
            match p {
                GraphPattern::Triple(t) => {
                    if matches!(t.object, TermPattern::Term(Term::Literal(_))) {
                        *n += 1;
                    }
                }
                GraphPattern::Join(a, b) => {
                    walk(a, n);
                    walk(b, n);
                }
                _ => {}
            }
        }
        walk(&q.pattern, &mut literals);
        assert_eq!(literals, 4);
    }
}
