//! A textual Datalog± syntax, used by tests, examples and debugging.
//!
//! The syntax is Vadalog-flavoured:
//!
//! ```text
//! edge("a", "b").                          % facts
//! tc(X, Y) :- edge(X, Y).                  % rules (vars start uppercase)
//! tc(X, Z) :- edge(X, Y), tc(Y, Z).        % recursion
//! p(X) :- q(X), not r(X).                  % stratified negation
//! big(X) :- n(X), X > 10.                  % comparisons
//! id(I, X) :- q(X), I = skolem("f", X).    % Skolem tuple IDs
//! j(V) :- l(X), compat(X, Y, V), r(Y).     % compatibility (Def. A.2)
//! cnt(C) :- q(X), C = count().             % aggregation
//! @output("tc").                           % output directive
//! ```
//!
//! Variables start with an uppercase letter or `_`; constants are quoted
//! strings, `<iris>`, integers, floats, `true`/`false`, and `null`.

use std::sync::Arc;

use crate::database::MAX_ARITY;
use crate::expr::{ArithOp, CmpOp, Expr};
#[cfg(test)]
use crate::rule::BodyItem;
use crate::rule::{AggFunc, AggSpec, Atom, AtomArg, Program, RuleBuilder};
use crate::symbols::SymbolTable;
use crate::value::{Const, OrdF64};

/// A parse error with byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the error in the source text.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "datalog parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Parses a stream of ground facts — `pred(const, ...).` clauses only —
/// skipping the full program parser's rule/variable machinery (no
/// `RuleBuilder`, no body items, no directives). This is the line-oriented
/// fast path for bulk fact fixtures; feed the result to
/// [`crate::Database::load_rows`]. Constants use the same grammar as
/// [`parse_program`] (strings, `<iris>`, numbers, booleans, `null`), and
/// `%`/`//` comments and blank lines are allowed.
pub fn parse_facts(
    input: &str,
    symbols: &Arc<SymbolTable>,
) -> Result<Vec<(crate::symbols::Sym, Vec<Const>)>, ParseError> {
    let mut p = P {
        input,
        pos: 0,
        symbols: symbols.clone(),
    };
    let mut out = Vec::new();
    loop {
        p.ws();
        if p.at_end() {
            return Ok(out);
        }
        let name = p.ident()?;
        let pred = p.symbols.intern(&name);
        p.expect('(')?;
        let mut args = Vec::new();
        if !p.eat(')') {
            loop {
                p.ws();
                if p.peek().is_some_and(|c| c.is_uppercase() || c == '_') {
                    return p.err("parse_facts: variables are not allowed in facts");
                }
                args.push(p.constant()?);
                if p.eat(',') {
                    continue;
                }
                p.expect(')')?;
                break;
            }
        }
        p.expect('.')?;
        out.push((pred, args));
    }
}

/// Parses a textual Datalog± program.
pub fn parse_program(input: &str, symbols: &Arc<SymbolTable>) -> Result<Program, ParseError> {
    let mut p = P {
        input,
        pos: 0,
        symbols: symbols.clone(),
    };
    let mut program = Program::new();
    loop {
        p.ws();
        if p.at_end() {
            return Ok(program);
        }
        if p.peek() == Some('@') {
            p.directive(&mut program)?;
            continue;
        }
        p.clause(&mut program)?;
    }
}

struct P<'a> {
    input: &'a str,
    pos: usize,
    symbols: Arc<SymbolTable>,
}

impl<'a> P<'a> {
    fn err<T>(&self, m: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            offset: self.pos,
            message: m.into(),
        })
    }

    fn at_end(&self) -> bool {
        self.pos >= self.input.len()
    }

    fn peek(&self) -> Option<char> {
        self.input[self.pos..].chars().next()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += c.len_utf8();
        Some(c)
    }

    fn ws(&mut self) {
        loop {
            let rest = &self.input[self.pos..];
            let trimmed = rest.trim_start();
            self.pos += rest.len() - trimmed.len();
            if trimmed.starts_with('%') || trimmed.starts_with("//") {
                match trimmed.find('\n') {
                    Some(nl) => self.pos += nl + 1,
                    None => self.pos = self.input.len(),
                }
            } else {
                return;
            }
        }
    }

    fn eat(&mut self, c: char) -> bool {
        self.ws();
        if self.peek() == Some(c) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, c: char) -> Result<(), ParseError> {
        if self.eat(c) {
            Ok(())
        } else {
            self.err(format!("expected {c:?}"))
        }
    }

    fn eat_str(&mut self, s: &str) -> bool {
        self.ws();
        if self.input[self.pos..].starts_with(s) {
            self.pos += s.len();
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        self.ws();
        let rest = &self.input[self.pos..];
        let len = rest
            .char_indices()
            .find(|(_, c)| !(c.is_alphanumeric() || *c == '_'))
            .map(|(i, _)| i)
            .unwrap_or(rest.len());
        if len == 0 {
            return self.err("expected identifier");
        }
        let s = rest[..len].to_string();
        self.pos += len;
        Ok(s)
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return self.err("unterminated string"),
                Some('"') => return Ok(out),
                Some('\\') => match self.bump() {
                    Some('n') => out.push('\n'),
                    Some('t') => out.push('\t'),
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    other => return self.err(format!("bad escape {other:?}")),
                },
                Some(c) => out.push(c),
            }
        }
    }

    fn directive(&mut self, program: &mut Program) -> Result<(), ParseError> {
        self.expect('@')?;
        let name = self.ident()?;
        self.expect('(')?;
        match name.as_str() {
            "output" => {
                let pred = self.string()?;
                program.outputs.push(self.symbols.intern(&pred));
                self.expect(')')?;
            }
            other => return self.err(format!("unknown directive @{other}")),
        }
        self.expect('.')?;
        Ok(())
    }

    fn clause(&mut self, program: &mut Program) -> Result<(), ParseError> {
        let mut b = RuleBuilder::new();
        let head = self.atom(&mut b)?;
        self.ws();
        if self.eat_str(":-") {
            b.head(head.pred, head.args);
            loop {
                self.body_item(&mut b)?;
                if !self.eat(',') {
                    break;
                }
            }
            self.expect('.')?;
            program.rules.push(b.build());
        } else {
            self.expect('.')?;
            // A fact: all args must be constants.
            let mut tuple = Vec::with_capacity(head.args.len());
            for a in head.args {
                match a {
                    AtomArg::Const(c) => tuple.push(c),
                    AtomArg::Var(_) => {
                        return self.err("facts must be ground");
                    }
                }
            }
            program.facts.push((head.pred, tuple));
        }
        Ok(())
    }

    fn atom(&mut self, b: &mut RuleBuilder) -> Result<Atom, ParseError> {
        let name = self.ident()?;
        let pred = self.symbols.intern(&name);
        self.expect('(')?;
        let mut args = Vec::new();
        if !self.eat(')') {
            loop {
                args.push(self.term(b)?);
                if !self.eat(',') {
                    break;
                }
            }
            self.expect(')')?;
        }
        if args.len() > MAX_ARITY {
            return self.err(format!(
                "atom {name} has {} arguments; relations have at most {MAX_ARITY} columns",
                args.len()
            ));
        }
        Ok(Atom::new(pred, args))
    }

    fn term(&mut self, b: &mut RuleBuilder) -> Result<AtomArg, ParseError> {
        self.ws();
        match self.peek() {
            Some(c) if c.is_uppercase() || c == '_' => {
                let name = self.ident()?;
                Ok(AtomArg::Var(b.var(&name)))
            }
            _ => Ok(AtomArg::Const(self.constant()?)),
        }
    }

    fn constant(&mut self) -> Result<Const, ParseError> {
        self.ws();
        match self.peek() {
            Some('"') => {
                let s = self.string()?;
                Ok(Const::Str(self.symbols.intern(&s)))
            }
            Some('<') => {
                self.bump();
                let rest = &self.input[self.pos..];
                let end = rest.find('>').ok_or_else(|| ParseError {
                    offset: self.pos,
                    message: "unterminated IRI".into(),
                })?;
                let iri = &rest[..end];
                let c = Const::Iri(self.symbols.intern(iri));
                self.pos += end + 1;
                Ok(c)
            }
            Some(c) if c.is_ascii_digit() || c == '-' => {
                let start = self.pos;
                if c == '-' {
                    self.bump();
                }
                let mut float = false;
                while let Some(c) = self.peek() {
                    if c.is_ascii_digit() {
                        self.bump();
                    } else if c == '.'
                        && self.input[self.pos + 1..]
                            .chars()
                            .next()
                            .is_some_and(|d| d.is_ascii_digit())
                    {
                        float = true;
                        self.bump();
                    } else {
                        break;
                    }
                }
                let text = &self.input[start..self.pos];
                if float {
                    text.parse::<f64>()
                        .map(|f| Const::Float(OrdF64(f)))
                        .map_err(|_| ParseError {
                            offset: start,
                            message: "bad float".into(),
                        })
                } else {
                    text.parse::<i64>().map(Const::Int).map_err(|_| ParseError {
                        offset: start,
                        message: "bad integer".into(),
                    })
                }
            }
            _ => {
                let word = self.ident()?;
                match word.as_str() {
                    "true" => Ok(Const::Bool(true)),
                    "false" => Ok(Const::Bool(false)),
                    "null" => Ok(Const::Null),
                    other => self.err(format!("unknown constant {other:?}")),
                }
            }
        }
    }

    fn body_item(&mut self, b: &mut RuleBuilder) -> Result<(), ParseError> {
        self.ws();
        // Negation.
        let save = self.pos;
        if let Ok(word) = self.ident() {
            if word == "not" {
                let atom = self.atom(b)?;
                b.neg(atom.pred, atom.args);
                return Ok(());
            }
            self.pos = save;
        } else {
            self.pos = save;
        }

        // Either an atom or a comparison/assignment starting with a term.
        // Peek: ident '(' → atom.
        let save = self.pos;
        if let Ok(name) = self.ident() {
            self.ws();
            if self.peek() == Some('(')
                && !name.chars().next().unwrap().is_uppercase()
                && name != "skolem"
                && name != "count"
                && name != "not"
            {
                self.pos = save;
                let atom = self.atom(b)?;
                match <[AtomArg; 3]>::try_from(atom.args) {
                    Ok([x, y, v]) if name == "compat" => b.compat(x, y, v),
                    Ok(args) => b.pos(atom.pred, Vec::from(args)),
                    Err(args) => b.pos(atom.pred, args),
                };
                return Ok(());
            }
            self.pos = save;
        } else {
            self.pos = save;
        }

        // Comparison or assignment: expr op expr.
        let lhs = self.simple_expr(b)?;
        self.ws();
        let op = if self.eat_str("!=") {
            Some(CmpOp::Neq)
        } else if self.eat_str("<=") {
            Some(CmpOp::Le)
        } else if self.eat_str(">=") {
            Some(CmpOp::Ge)
        } else if self.eat_str("=") {
            None // assignment-or-equality
        } else if self.eat_str("<") {
            Some(CmpOp::Lt)
        } else if self.eat_str(">") {
            Some(CmpOp::Gt)
        } else {
            return self.err("expected comparison operator");
        };
        // `V = count()` is an aggregation, not an assignment.
        if op.is_none() {
            if let Expr::Var(v) = lhs {
                let save = self.pos;
                self.ws();
                if self.eat_str("count") && self.eat('(') && self.eat(')') {
                    b.aggregate(AggSpec {
                        func: AggFunc::Count,
                        distinct: false,
                        input: None,
                        result_var: v,
                    });
                    return Ok(());
                }
                self.pos = save;
            }
        }
        let rhs = self.simple_expr(b)?;
        match op {
            Some(op) => {
                b.cond(Expr::Cmp(op, Box::new(lhs), Box::new(rhs)));
            }
            None => match lhs {
                Expr::Var(v) => {
                    b.assign(v, rhs);
                }
                other => {
                    b.cond(Expr::Cmp(CmpOp::Eq, Box::new(other), Box::new(rhs)));
                }
            },
        }
        Ok(())
    }

    /// A term-level expression: var, const, `skolem("f", args...)`,
    /// `count()`, or additive arithmetic over those.
    fn simple_expr(&mut self, b: &mut RuleBuilder) -> Result<Expr, ParseError> {
        let mut lhs = self.simple_atom_expr(b)?;
        loop {
            self.ws();
            let op = match self.peek() {
                Some('+') => ArithOp::Add,
                Some('*') => ArithOp::Mul,
                _ => break,
            };
            self.bump();
            let rhs = self.simple_atom_expr(b)?;
            lhs = Expr::Arith(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn simple_atom_expr(&mut self, b: &mut RuleBuilder) -> Result<Expr, ParseError> {
        self.ws();
        match self.peek() {
            Some(c) if c.is_uppercase() || c == '_' => {
                let name = self.ident()?;
                Ok(Expr::Var(b.var(&name)))
            }
            Some(c) if c.is_lowercase() => {
                let save = self.pos;
                let name = self.ident()?;
                match name.as_str() {
                    "skolem" => {
                        self.expect('(')?;
                        let f = self.string()?;
                        let functor = self.symbols.intern(&f);
                        let mut args = Vec::new();
                        while self.eat(',') {
                            args.push(self.simple_expr(b)?);
                        }
                        self.expect(')')?;
                        Ok(Expr::Skolem(functor, args))
                    }
                    _ => {
                        self.pos = save;
                        Ok(Expr::Const(self.constant()?))
                    }
                }
            }
            _ => Ok(Expr::Const(self.constant()?)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fact_reader_matches_full_parser() {
        let src = r#"
            % a comment
            edge(1, 2). edge(-3, 4).
            label("a", "b\"c").
            node(<http://x>).   // trailing comment
            weight(2.5, true, null).
            unit().
        "#;
        let t1 = SymbolTable::new();
        let full = parse_program(src, &t1).unwrap();
        let t2 = SymbolTable::new();
        let fast = parse_facts(src, &t2).unwrap();
        assert_eq!(fast.len(), full.facts.len());
        for ((pf, af), (pp, ap)) in fast.iter().zip(&full.facts) {
            assert_eq!(t2.resolve(*pf), t1.resolve(*pp));
            // Interned symbols differ across tables; compare displays.
            let da: Vec<String> = af.iter().map(|c| c.display(&t2)).collect();
            let db: Vec<String> = ap.iter().map(|c| c.display(&t1)).collect();
            assert_eq!(da, db);
        }
    }

    #[test]
    fn fact_reader_rejects_rules_and_vars() {
        let t = SymbolTable::new();
        assert!(parse_facts("tc(X, Y) :- edge(X, Y).", &t).is_err());
        assert!(parse_facts("p(X).", &t).is_err());
        assert!(parse_facts("p(1)", &t).is_err(), "missing final dot");
    }

    #[test]
    fn fact_reader_loads_into_database() {
        let mut db = crate::Database::new();
        let facts = parse_facts("q(1). q(2). q(1).", db.symbols()).unwrap();
        let mut by_pred: crate::fxhash::FxHashMap<_, Vec<Vec<Const>>> = Default::default();
        for (p, row) in facts {
            by_pred.entry(p).or_default().push(row);
        }
        let mut fresh = 0;
        for (p, rows) in by_pred {
            fresh += db.load_rows(p, &rows);
        }
        assert_eq!(fresh, 2, "duplicate fact deduped at load");
    }

    #[test]
    fn parse_facts_and_rules() {
        let t = SymbolTable::new();
        let prog = parse_program(
            r#"
            % transitive closure
            edge("a", "b").
            edge("b", "c").
            tc(X, Y) :- edge(X, Y).
            tc(X, Z) :- edge(X, Y), tc(Y, Z).
            @output("tc").
            "#,
            &t,
        )
        .unwrap();
        assert_eq!(prog.facts.len(), 2);
        assert_eq!(prog.rules.len(), 2);
        assert_eq!(prog.outputs.len(), 1);
    }

    #[test]
    fn parse_negation_and_comparison() {
        let t = SymbolTable::new();
        let prog = parse_program(
            r#"
            p(X) :- q(X), not r(X), X > 3.
            "#,
            &t,
        )
        .unwrap();
        let rule = &prog.rules[0];
        assert_eq!(rule.body.len(), 3);
        assert!(matches!(rule.body[1], BodyItem::Neg(_)));
        assert!(matches!(rule.body[2], BodyItem::Cond(_)));
    }

    #[test]
    fn parse_skolem_assignment() {
        let t = SymbolTable::new();
        let prog = parse_program(
            r#"
            p(I, X) :- q(X), I = skolem("f1", X).
            "#,
            &t,
        )
        .unwrap();
        let rule = &prog.rules[0];
        assert!(matches!(
            &rule.body[1],
            BodyItem::Assign(_, Expr::Skolem(_, args)) if args.len() == 1
        ));
        assert!(rule.existential_vars().is_empty());
    }

    #[test]
    fn parse_constants() {
        let t = SymbolTable::new();
        let prog = parse_program(
            r#"k("s", <http://iri>, 42, -7, 2.5, true, false, null)."#,
            &t,
        )
        .unwrap();
        let (_, args) = &prog.facts[0];
        assert_eq!(args.len(), 8);
        assert!(matches!(args[0], Const::Str(_)));
        assert!(matches!(args[1], Const::Iri(_)));
        assert_eq!(args[2], Const::Int(42));
        assert_eq!(args[3], Const::Int(-7));
        assert_eq!(args[4], Const::Float(OrdF64(2.5)));
        assert_eq!(args[5], Const::Bool(true));
        assert_eq!(args[6], Const::Bool(false));
        assert_eq!(args[7], Const::Null);
    }

    #[test]
    fn unknown_directive_is_an_error() {
        let t = SymbolTable::new();
        let err = parse_program(r#"p("a"). @bogus("p")."#, &t).unwrap_err();
        assert!(err.message.contains("unknown directive @bogus"), "{err:?}");
    }

    #[test]
    fn parse_count_aggregate() {
        let t = SymbolTable::new();
        let prog = parse_program(r#"cnt(G, C) :- q(G, X), C = count()."#, &t).unwrap();
        let rule = &prog.rules[0];
        assert!(rule.aggregate.is_some());
        assert_eq!(rule.body.len(), 1, "marker assignment removed");
    }

    #[test]
    fn errors() {
        let t = SymbolTable::new();
        assert!(parse_program("p(X.", &t).is_err());
        assert!(parse_program("p(X) :- q(X)", &t).is_err());
        assert!(parse_program("p(Y) :- .", &t).is_err());
        assert!(parse_program("@bogus(\"x\").", &t).is_err());
        assert!(parse_program("p(X).", &t).is_err(), "non-ground fact");
    }

    #[test]
    fn comments() {
        let t = SymbolTable::new();
        let prog = parse_program("% line comment\n// another\np(\"a\"). % trailing\n", &t).unwrap();
        assert_eq!(prog.facts.len(), 1);
    }

    #[test]
    fn equality_on_bound_constant_becomes_condition() {
        let t = SymbolTable::new();
        let prog = parse_program(r#"p(X) :- q(X), "a" = X."#, &t).unwrap();
        assert!(matches!(prog.rules[0].body[1], BodyItem::Cond(_)));
    }

    #[test]
    fn atoms_wider_than_64_columns_are_refused() {
        let t = SymbolTable::new();
        let vars = |n: usize| {
            (0..n)
                .map(|i| format!("X{i}"))
                .collect::<Vec<_>>()
                .join(", ")
        };
        assert!(parse_program(&format!("p(X0) :- q({}).", vars(MAX_ARITY)), &t).is_ok());
        for text in [
            format!("p(X0) :- q({}).", vars(MAX_ARITY + 1)),
            format!("q({}) :- p(X0).", vars(70)),
            format!("q({}).", vec!["1"; MAX_ARITY + 1].join(", ")),
        ] {
            let err = parse_program(&text, &t).unwrap_err();
            assert!(err.message.contains("at most 64 columns"), "{err}");
        }
    }
}
