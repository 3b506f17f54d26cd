//! Expressions evaluated inside rule bodies: filter conditions and
//! assignments.
//!
//! The paper's translation "literally copies (possibly complex) filter
//! conditions into the rule body and lets the Vadalog system evaluate
//! them" (§5.1). This module is that Vadalog evaluation layer: comparisons
//! with numeric coercion, arithmetic, the SPARQL test functions
//! (`isIRI`, `isBlank`, ...), string functions, `REGEX`, and the Skolem
//! constructor used for tuple IDs.
//!
//! Evaluation returns `Option<Const>`: `None` models a SPARQL expression
//! *error* (type error, unbound argument), which makes an enclosing filter
//! reject the binding — exactly the SPARQL behaviour.

use std::cmp::Ordering;

use crate::regex::Regex;
use crate::rule::VarId;
use crate::symbols::{Sym, SymbolTable};
use crate::value::{Const, OrdF64, TermDict, TermId};

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=` — equality (RDF term equality with numeric coercion).
    Eq,
    /// `!=` — inequality.
    Neq,
    /// `<` — less than.
    Lt,
    /// `<=` — less than or equal.
    Le,
    /// `>` — greater than.
    Gt,
    /// `>=` — greater than or equal.
    Ge,
}

/// Arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    /// `+` — addition.
    Add,
    /// `-` — subtraction.
    Sub,
    /// `*` — multiplication.
    Mul,
    /// `/` — division (an expression error on division by zero).
    Div,
}

/// A body expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A variable reference.
    Var(VarId),
    /// A literal constant.
    Const(Const),
    /// Skolem-term constructor: the tuple-ID generator of §5.1.
    Skolem(Sym, Vec<Expr>),
    /// A comparison between two subexpressions.
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    /// An arithmetic combination of two subexpressions.
    Arith(ArithOp, Box<Expr>, Box<Expr>),
    /// Boolean conjunction (`&&`).
    And(Box<Expr>, Box<Expr>),
    /// Boolean disjunction (`||`).
    Or(Box<Expr>, Box<Expr>),
    /// Boolean negation (`!`).
    Not(Box<Expr>),
    /// SPARQL `isIRI`/`isURI`.
    IsIri(Box<Expr>),
    /// SPARQL `isBlank` (true for blank nodes and labelled nulls).
    IsBlank(Box<Expr>),
    /// SPARQL `isLiteral`.
    IsLiteral(Box<Expr>),
    /// SPARQL `isNumeric`.
    IsNumeric(Box<Expr>),
    /// SPARQL `STR`: the lexical form of a term.
    Str(Box<Expr>),
    /// SPARQL `LANG`: a literal's language tag (`""` when absent).
    Lang(Box<Expr>),
    /// SPARQL `DATATYPE`: a literal's datatype IRI.
    Datatype(Box<Expr>),
    /// SPARQL `UCASE`.
    Ucase(Box<Expr>),
    /// SPARQL `LCASE`.
    Lcase(Box<Expr>),
    /// SPARQL `STRLEN` (in characters).
    Strlen(Box<Expr>),
    /// SPARQL `CONTAINS`.
    Contains(Box<Expr>, Box<Expr>),
    /// SPARQL `STRSTARTS`.
    StrStarts(Box<Expr>, Box<Expr>),
    /// SPARQL `STRENDS`.
    StrEnds(Box<Expr>, Box<Expr>),
    /// SPARQL `REGEX(text, pattern, flags?)`, evaluated by the in-tree
    /// backtracking matcher ([`crate::regex`]).
    Regex(Box<Expr>, Box<Expr>, Option<Box<Expr>>),
    /// SPARQL `sameTerm`: identity without numeric coercion.
    SameTerm(Box<Expr>, Box<Expr>),
    /// SPARQL `LANGMATCHES` (the `*` and prefix-range forms).
    LangMatches(Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Collects the variables referenced by this expression.
    pub fn collect_vars(&self, out: &mut Vec<VarId>) {
        match self {
            Expr::Var(v) => {
                if !out.contains(v) {
                    out.push(*v);
                }
            }
            Expr::Const(_) => {}
            Expr::Skolem(_, args) => {
                for a in args {
                    a.collect_vars(out);
                }
            }
            Expr::Cmp(_, a, b)
            | Expr::Arith(_, a, b)
            | Expr::And(a, b)
            | Expr::Or(a, b)
            | Expr::Contains(a, b)
            | Expr::StrStarts(a, b)
            | Expr::StrEnds(a, b)
            | Expr::SameTerm(a, b)
            | Expr::LangMatches(a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
            Expr::Not(e)
            | Expr::IsIri(e)
            | Expr::IsBlank(e)
            | Expr::IsLiteral(e)
            | Expr::IsNumeric(e)
            | Expr::Str(e)
            | Expr::Lang(e)
            | Expr::Datatype(e)
            | Expr::Ucase(e)
            | Expr::Lcase(e)
            | Expr::Strlen(e) => e.collect_vars(out),
            Expr::Regex(a, b, c) => {
                a.collect_vars(out);
                b.collect_vars(out);
                if let Some(c) = c {
                    c.collect_vars(out);
                }
            }
        }
    }

    /// Replaces every variable leaf `v` for which `f(v)` returns an
    /// expression — the substitution step of [`crate::rewrite`].
    pub(crate) fn substitute(&mut self, f: &impl Fn(VarId) -> Option<Expr>) {
        match self {
            Expr::Var(v) => {
                if let Some(e) = f(*v) {
                    *self = e;
                }
            }
            Expr::Const(_) => {}
            Expr::Skolem(_, args) => {
                for a in args {
                    a.substitute(f);
                }
            }
            Expr::Cmp(_, a, b)
            | Expr::Arith(_, a, b)
            | Expr::And(a, b)
            | Expr::Or(a, b)
            | Expr::Contains(a, b)
            | Expr::StrStarts(a, b)
            | Expr::StrEnds(a, b)
            | Expr::SameTerm(a, b)
            | Expr::LangMatches(a, b) => {
                a.substitute(f);
                b.substitute(f);
            }
            Expr::Not(e)
            | Expr::IsIri(e)
            | Expr::IsBlank(e)
            | Expr::IsLiteral(e)
            | Expr::IsNumeric(e)
            | Expr::Str(e)
            | Expr::Lang(e)
            | Expr::Datatype(e)
            | Expr::Ucase(e)
            | Expr::Lcase(e)
            | Expr::Strlen(e) => e.substitute(f),
            Expr::Regex(a, b, c) => {
                a.substitute(f);
                b.substitute(f);
                if let Some(c) = c {
                    c.substitute(f);
                }
            }
        }
    }

    /// Evaluates the expression under `env` (indexed by [`VarId`]).
    /// `None` models a SPARQL expression error.
    pub fn eval(&self, env: &[Option<Const>], symbols: &SymbolTable) -> Option<Const> {
        self.eval_with(&|v| env.get(v as usize).cloned().flatten(), symbols)
    }

    /// Evaluates over an *encoded* environment, decoding lazily at the
    /// variable leaves — the filter/arithmetic boundary of the encoded
    /// pipeline. `TermId`s never flow through expression semantics.
    pub fn eval_decoded(
        &self,
        env: &[Option<TermId>],
        dict: &TermDict,
        symbols: &SymbolTable,
    ) -> Option<Const> {
        self.eval_with(
            &|v| {
                env.get(v as usize)
                    .copied()
                    .flatten()
                    .map(|id| dict.decode(id))
            },
            symbols,
        )
    }

    /// Evaluates over an encoded environment and re-encodes the result —
    /// the assignment (`Bind`) path. Skolem constructors (the tuple-ID
    /// generator of §5.1) stay entirely in id space: variable arguments
    /// pass through without a decode/encode round trip and the term is
    /// interned by identity.
    pub fn eval_id(
        &self,
        env: &[Option<TermId>],
        dict: &TermDict,
        symbols: &SymbolTable,
    ) -> Option<TermId> {
        match self {
            Expr::Var(v) => env.get(*v as usize).copied().flatten(),
            Expr::Const(c) => Some(dict.encode(c)),
            Expr::Skolem(f, args) => {
                let mut ids = Vec::with_capacity(args.len());
                for a in args {
                    ids.push(a.eval_id(env, dict, symbols)?);
                }
                Some(dict.skolem(*f, &ids))
            }
            other => other
                .eval_decoded(env, dict, symbols)
                .map(|c| dict.encode(&c)),
        }
    }

    /// Filter semantics over an encoded environment: `true` iff the
    /// expression evaluates without error to a value with effective
    /// boolean value `true`. Never encodes anything.
    pub fn eval_bool_ids(
        &self,
        env: &[Option<TermId>],
        dict: &TermDict,
        symbols: &SymbolTable,
    ) -> bool {
        self.eval_decoded(env, dict, symbols)
            .and_then(|v| ebv(&v, symbols))
            .unwrap_or(false)
    }

    /// Evaluates with an arbitrary variable resolver (the shared core of
    /// [`Expr::eval`] and [`Expr::eval_decoded`]).
    pub fn eval_with<F: Fn(VarId) -> Option<Const>>(
        &self,
        lookup: &F,
        symbols: &SymbolTable,
    ) -> Option<Const> {
        match self {
            Expr::Var(v) => lookup(*v),
            Expr::Const(c) => Some(c.clone()),
            Expr::Skolem(f, args) => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(a.eval_with(lookup, symbols)?);
                }
                Some(Const::skolem(*f, vals))
            }
            Expr::Cmp(op, a, b) => {
                let a = a.eval_with(lookup, symbols)?;
                let b = b.eval_with(lookup, symbols)?;
                let r = match op {
                    CmpOp::Eq => value_eq(&a, &b, symbols),
                    CmpOp::Neq => !value_eq(&a, &b, symbols),
                    CmpOp::Lt => value_cmp(&a, &b, symbols)? == Ordering::Less,
                    CmpOp::Le => value_cmp(&a, &b, symbols)? != Ordering::Greater,
                    CmpOp::Gt => value_cmp(&a, &b, symbols)? == Ordering::Greater,
                    CmpOp::Ge => value_cmp(&a, &b, symbols)? != Ordering::Less,
                };
                Some(Const::Bool(r))
            }
            Expr::Arith(op, a, b) => {
                let a = a.eval_with(lookup, symbols)?;
                let b = b.eval_with(lookup, symbols)?;
                arith(*op, &a, &b, symbols)
            }
            Expr::And(a, b) => {
                // SPARQL three-valued logic: false && error = false.
                let av = a.eval_with(lookup, symbols).and_then(|v| ebv(&v, symbols));
                let bv = b.eval_with(lookup, symbols).and_then(|v| ebv(&v, symbols));
                match (av, bv) {
                    (Some(false), _) | (_, Some(false)) => Some(Const::Bool(false)),
                    (Some(true), Some(true)) => Some(Const::Bool(true)),
                    _ => None,
                }
            }
            Expr::Or(a, b) => {
                let av = a.eval_with(lookup, symbols).and_then(|v| ebv(&v, symbols));
                let bv = b.eval_with(lookup, symbols).and_then(|v| ebv(&v, symbols));
                match (av, bv) {
                    (Some(true), _) | (_, Some(true)) => Some(Const::Bool(true)),
                    (Some(false), Some(false)) => Some(Const::Bool(false)),
                    _ => None,
                }
            }
            Expr::Not(e) => {
                let v = e.eval_with(lookup, symbols)?;
                Some(Const::Bool(!ebv(&v, symbols)?))
            }
            Expr::IsIri(e) => {
                let v = e.eval_with(lookup, symbols)?;
                Some(Const::Bool(matches!(v, Const::Iri(_))))
            }
            Expr::IsBlank(e) => {
                let v = e.eval_with(lookup, symbols)?;
                Some(Const::Bool(matches!(v, Const::Bnode(_))))
            }
            Expr::IsLiteral(e) => {
                let v = e.eval_with(lookup, symbols)?;
                Some(Const::Bool(matches!(
                    v,
                    Const::Str(_)
                        | Const::LangStr(_, _)
                        | Const::Typed(_, _)
                        | Const::Int(_)
                        | Const::Float(_)
                        | Const::Bool(_)
                )))
            }
            Expr::IsNumeric(e) => {
                let v = e.eval_with(lookup, symbols)?;
                Some(Const::Bool(v.as_f64(symbols).is_some()))
            }
            Expr::Str(e) => {
                let v = e.eval_with(lookup, symbols)?;
                let s = match &v {
                    Const::Iri(s) | Const::Bnode(s) | Const::Str(s) => {
                        symbols.resolve(*s).to_string()
                    }
                    Const::LangStr(lex, _) | Const::Typed(lex, _) => {
                        symbols.resolve(*lex).to_string()
                    }
                    Const::Int(i) => i.to_string(),
                    Const::Float(f) => f.0.to_string(),
                    Const::Bool(b) => b.to_string(),
                    Const::Null | Const::Skolem(_) => return None,
                };
                Some(Const::Str(symbols.intern(&s)))
            }
            Expr::Lang(e) => {
                let v = e.eval_with(lookup, symbols)?;
                match v {
                    Const::LangStr(_, lang) => Some(Const::Str(lang)),
                    Const::Str(_)
                    | Const::Typed(_, _)
                    | Const::Int(_)
                    | Const::Float(_)
                    | Const::Bool(_) => Some(Const::Str(symbols.intern(""))),
                    _ => None,
                }
            }
            Expr::Datatype(e) => {
                let v = e.eval_with(lookup, symbols)?;
                let dt = match v {
                    Const::Typed(_, dt) => return Some(Const::Iri(dt)),
                    Const::Str(_) => "http://www.w3.org/2001/XMLSchema#string",
                    Const::LangStr(_, _) => "http://www.w3.org/1999/02/22-rdf-syntax-ns#langString",
                    Const::Int(_) => "http://www.w3.org/2001/XMLSchema#integer",
                    Const::Float(_) => "http://www.w3.org/2001/XMLSchema#double",
                    Const::Bool(_) => "http://www.w3.org/2001/XMLSchema#boolean",
                    _ => return None,
                };
                Some(Const::Iri(symbols.intern(dt)))
            }
            Expr::Ucase(e) => map_string(e, lookup, symbols, |s| s.to_uppercase()),
            Expr::Lcase(e) => map_string(e, lookup, symbols, |s| s.to_lowercase()),
            Expr::Strlen(e) => {
                let v = e.eval_with(lookup, symbols)?;
                let (s, _) = string_value(&v, symbols)?;
                Some(Const::Int(s.chars().count() as i64))
            }
            Expr::Contains(a, b) => binary_string(a, b, lookup, symbols, |x, y| x.contains(y)),
            Expr::StrStarts(a, b) => binary_string(a, b, lookup, symbols, |x, y| x.starts_with(y)),
            Expr::StrEnds(a, b) => binary_string(a, b, lookup, symbols, |x, y| x.ends_with(y)),
            Expr::Regex(text, pattern, flags) => {
                let t = text.eval_with(lookup, symbols)?;
                let (t, _) = string_value(&t, symbols)?;
                let p = pattern.eval_with(lookup, symbols)?;
                let (p, _) = string_value(&p, symbols)?;
                let f = match flags {
                    None => String::new(),
                    Some(fe) => {
                        let fv = fe.eval_with(lookup, symbols)?;
                        string_value(&fv, symbols)?.0
                    }
                };
                let re = Regex::new(&p, &f).ok()?;
                Some(Const::Bool(re.is_match(&t)))
            }
            Expr::SameTerm(a, b) => {
                let a = a.eval_with(lookup, symbols)?;
                let b = b.eval_with(lookup, symbols)?;
                Some(Const::Bool(a == b))
            }
            Expr::LangMatches(lang, range) => {
                let l = lang.eval_with(lookup, symbols)?;
                let (l, _) = string_value(&l, symbols)?;
                let r = range.eval_with(lookup, symbols)?;
                let (r, _) = string_value(&r, symbols)?;
                let ok = if r == "*" {
                    !l.is_empty()
                } else {
                    let l = l.to_ascii_lowercase();
                    let r = r.to_ascii_lowercase();
                    l == r || l.starts_with(&format!("{r}-"))
                };
                Some(Const::Bool(ok))
            }
        }
    }

    /// Evaluates as a filter: `true` iff the expression evaluates without
    /// error to a value with effective boolean value `true`.
    pub fn eval_bool(&self, env: &[Option<Const>], symbols: &SymbolTable) -> bool {
        self.eval(env, symbols)
            .and_then(|v| ebv(&v, symbols))
            .unwrap_or(false)
    }

    /// Debug rendering.
    pub fn display(&self, var_names: &[String], symbols: &SymbolTable) -> String {
        let name = |v: &VarId| {
            var_names
                .get(*v as usize)
                .cloned()
                .unwrap_or_else(|| format!("V{v}"))
        };
        match self {
            Expr::Var(v) => name(v),
            Expr::Const(c) => c.display(symbols),
            Expr::Skolem(f, args) => {
                let a: Vec<String> = args.iter().map(|e| e.display(var_names, symbols)).collect();
                format!("[{}|{}]", symbols.resolve(*f), a.join(","))
            }
            Expr::Cmp(op, a, b) => {
                let sym = match op {
                    CmpOp::Eq => "=",
                    CmpOp::Neq => "!=",
                    CmpOp::Lt => "<",
                    CmpOp::Le => "<=",
                    CmpOp::Gt => ">",
                    CmpOp::Ge => ">=",
                };
                format!(
                    "{} {} {}",
                    a.display(var_names, symbols),
                    sym,
                    b.display(var_names, symbols)
                )
            }
            Expr::Arith(op, a, b) => {
                let sym = match op {
                    ArithOp::Add => "+",
                    ArithOp::Sub => "-",
                    ArithOp::Mul => "*",
                    ArithOp::Div => "/",
                };
                format!(
                    "({} {} {})",
                    a.display(var_names, symbols),
                    sym,
                    b.display(var_names, symbols)
                )
            }
            Expr::And(a, b) => format!(
                "({} && {})",
                a.display(var_names, symbols),
                b.display(var_names, symbols)
            ),
            Expr::Or(a, b) => format!(
                "({} || {})",
                a.display(var_names, symbols),
                b.display(var_names, symbols)
            ),
            Expr::Not(e) => format!("!({})", e.display(var_names, symbols)),
            Expr::IsNumeric(e) => format!("isNumeric({})", e.display(var_names, symbols)),
            Expr::SameTerm(a, b) => format!(
                "sameTerm({}, {})",
                a.display(var_names, symbols),
                b.display(var_names, symbols)
            ),
            other => format!("{other:?}"),
        }
    }
}

/// Effective boolean value (SPARQL §17.2.2).
pub fn ebv(c: &Const, symbols: &SymbolTable) -> Option<bool> {
    match c {
        Const::Bool(b) => Some(*b),
        Const::Int(i) => Some(*i != 0),
        Const::Float(f) => Some(f.0 != 0.0 && !f.0.is_nan()),
        Const::Str(s) => Some(!symbols.resolve(*s).is_empty()),
        Const::LangStr(lex, _) => Some(!symbols.resolve(*lex).is_empty()),
        Const::Typed(lex, _) => {
            if let Some(n) = c.as_f64(symbols) {
                Some(n != 0.0 && !n.is_nan())
            } else {
                let s = symbols.resolve(*lex);
                match s.as_ref() {
                    "true" => Some(true),
                    "false" => Some(false),
                    _ => Some(!s.is_empty()),
                }
            }
        }
        Const::Iri(_) | Const::Bnode(_) | Const::Null | Const::Skolem(_) => None,
    }
}

/// Datalog/SPARQL value equality: numeric coercion between numeric values,
/// structural equality otherwise (`null = null` is true — Datalog equality,
/// which is what the translation's MINUS rules rely on).
pub fn value_eq(a: &Const, b: &Const, symbols: &SymbolTable) -> bool {
    if a == b {
        return true;
    }
    match (a.as_f64(symbols), b.as_f64(symbols)) {
        (Some(x), Some(y)) => x == y,
        _ => false,
    }
}

/// Value ordering for `<`/`>` comparisons: numeric if both numeric, string
/// if both string-valued, boolean, IRIs by string. `None` = incomparable
/// (SPARQL type error).
pub fn value_cmp(a: &Const, b: &Const, symbols: &SymbolTable) -> Option<Ordering> {
    if let (Some(x), Some(y)) = (a.as_f64(symbols), b.as_f64(symbols)) {
        return x.partial_cmp(&y);
    }
    match (a, b) {
        (Const::Bool(x), Const::Bool(y)) => Some(x.cmp(y)),
        (Const::Iri(x), Const::Iri(y)) => Some(symbols.resolve(*x).cmp(&symbols.resolve(*y))),
        _ => {
            let (sa, _) = string_value(a, symbols)?;
            let (sb, _) = string_value(b, symbols)?;
            Some(sa.cmp(&sb))
        }
    }
}

/// The string value of a literal-ish constant, plus its language tag.
fn string_value(c: &Const, symbols: &SymbolTable) -> Option<(String, Option<String>)> {
    match c {
        Const::Str(s) => Some((symbols.resolve(*s).to_string(), None)),
        Const::LangStr(lex, lang) => Some((
            symbols.resolve(*lex).to_string(),
            Some(symbols.resolve(*lang).to_string()),
        )),
        Const::Typed(lex, _) => Some((symbols.resolve(*lex).to_string(), None)),
        Const::Int(i) => Some((i.to_string(), None)),
        Const::Float(f) => Some((f.0.to_string(), None)),
        Const::Bool(b) => Some((b.to_string(), None)),
        _ => None,
    }
}

fn map_string<F: Fn(VarId) -> Option<Const>>(
    e: &Expr,
    lookup: &F,
    symbols: &SymbolTable,
    f: impl Fn(&str) -> String,
) -> Option<Const> {
    let v = e.eval_with(lookup, symbols)?;
    match v {
        Const::LangStr(lex, lang) => {
            let mapped = f(&symbols.resolve(lex));
            Some(Const::LangStr(symbols.intern(&mapped), lang))
        }
        other => {
            let (s, _) = string_value(&other, symbols)?;
            Some(Const::Str(symbols.intern(&f(&s))))
        }
    }
}

fn binary_string<F: Fn(VarId) -> Option<Const>>(
    a: &Expr,
    b: &Expr,
    lookup: &F,
    symbols: &SymbolTable,
    f: impl Fn(&str, &str) -> bool,
) -> Option<Const> {
    let av = a.eval_with(lookup, symbols)?;
    let bv = b.eval_with(lookup, symbols)?;
    let (x, _) = string_value(&av, symbols)?;
    let (y, _) = string_value(&bv, symbols)?;
    Some(Const::Bool(f(&x, &y)))
}

fn arith(op: ArithOp, a: &Const, b: &Const, symbols: &SymbolTable) -> Option<Const> {
    let (ia, ib) = (a.as_i64(symbols), b.as_i64(symbols));
    if let (Some(x), Some(y)) = (ia, ib) {
        return match op {
            ArithOp::Add => Some(Const::Int(x.checked_add(y)?)),
            ArithOp::Sub => Some(Const::Int(x.checked_sub(y)?)),
            ArithOp::Mul => Some(Const::Int(x.checked_mul(y)?)),
            ArithOp::Div => {
                if y == 0 {
                    None
                } else if x % y == 0 {
                    Some(Const::Int(x / y))
                } else {
                    Some(Const::Float(OrdF64(x as f64 / y as f64)))
                }
            }
        };
    }
    let x = a.as_f64(symbols)?;
    let y = b.as_f64(symbols)?;
    let r = match op {
        ArithOp::Add => x + y,
        ArithOp::Sub => x - y,
        ArithOp::Mul => x * y,
        ArithOp::Div => {
            if y == 0.0 {
                return None;
            }
            x / y
        }
    };
    Some(Const::Float(OrdF64(r)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> std::sync::Arc<SymbolTable> {
        SymbolTable::new()
    }

    fn ev(e: &Expr, env: &[Option<Const>], t: &SymbolTable) -> Option<Const> {
        e.eval(env, t)
    }

    #[test]
    fn numeric_comparison_with_coercion() {
        let t = table();
        let lex = t.intern("5");
        let dt = t.intern("http://www.w3.org/2001/XMLSchema#integer");
        let typed_five = Const::Typed(lex, dt);
        let e = Expr::Cmp(
            CmpOp::Eq,
            Box::new(Expr::Const(typed_five)),
            Box::new(Expr::Const(Const::Int(5))),
        );
        assert_eq!(ev(&e, &[], &t), Some(Const::Bool(true)));
        let lt = Expr::Cmp(
            CmpOp::Lt,
            Box::new(Expr::Const(Const::Int(2))),
            Box::new(Expr::Const(Const::Int(10))),
        );
        assert_eq!(ev(&lt, &[], &t), Some(Const::Bool(true)));
    }

    #[test]
    fn string_comparison() {
        let t = table();
        let a = Const::Str(t.intern("apple"));
        let b = Const::Str(t.intern("banana"));
        let e = Expr::Cmp(
            CmpOp::Lt,
            Box::new(Expr::Const(a)),
            Box::new(Expr::Const(b)),
        );
        assert_eq!(ev(&e, &[], &t), Some(Const::Bool(true)));
    }

    #[test]
    fn null_equality_is_datalog_style() {
        let t = table();
        let e = Expr::Cmp(
            CmpOp::Eq,
            Box::new(Expr::Const(Const::Null)),
            Box::new(Expr::Const(Const::Null)),
        );
        assert_eq!(ev(&e, &[], &t), Some(Const::Bool(true)));
        let e2 = Expr::Cmp(
            CmpOp::Eq,
            Box::new(Expr::Const(Const::Null)),
            Box::new(Expr::Const(Const::Int(1))),
        );
        assert_eq!(ev(&e2, &[], &t), Some(Const::Bool(false)));
    }

    #[test]
    fn three_valued_logic() {
        let t = table();
        let err = Expr::Strlen(Box::new(Expr::Const(Const::Null))); // error
        let fls = Expr::Const(Const::Bool(false));
        let tru = Expr::Const(Const::Bool(true));
        // false && error = false
        let e = Expr::And(Box::new(fls.clone()), Box::new(err.clone()));
        assert_eq!(ev(&e, &[], &t), Some(Const::Bool(false)));
        // true && error = error
        let e = Expr::And(Box::new(tru.clone()), Box::new(err.clone()));
        assert_eq!(ev(&e, &[], &t), None);
        // true || error = true
        let e = Expr::Or(Box::new(tru), Box::new(err.clone()));
        assert_eq!(ev(&e, &[], &t), Some(Const::Bool(true)));
        // false || error = error
        let e = Expr::Or(Box::new(fls), Box::new(err));
        assert_eq!(ev(&e, &[], &t), None);
    }

    #[test]
    fn eval_bool_treats_error_as_false() {
        let t = table();
        let err = Expr::Strlen(Box::new(Expr::Const(Const::Null)));
        assert!(!err.eval_bool(&[], &t));
        let tru = Expr::Const(Const::Bool(true));
        assert!(tru.eval_bool(&[], &t));
    }

    #[test]
    fn type_tests() {
        let t = table();
        let iri = Const::Iri(t.intern("http://a"));
        let bn = Const::Bnode(t.intern("b"));
        let lit = Const::Str(t.intern("x"));
        for (e, v, want) in [
            (Expr::IsIri(Box::new(Expr::Const(iri.clone()))), &iri, true),
            (Expr::IsBlank(Box::new(Expr::Const(bn.clone()))), &bn, true),
            (
                Expr::IsLiteral(Box::new(Expr::Const(lit.clone()))),
                &lit,
                true,
            ),
            (Expr::IsIri(Box::new(Expr::Const(lit.clone()))), &lit, false),
            (
                Expr::IsNumeric(Box::new(Expr::Const(Const::Int(1)))),
                &lit,
                true,
            ),
            (
                Expr::IsNumeric(Box::new(Expr::Const(lit.clone()))),
                &lit,
                false,
            ),
        ] {
            assert_eq!(ev(&e, &[], &t), Some(Const::Bool(want)), "{e:?} on {v:?}");
        }
    }

    #[test]
    fn string_functions() {
        let t = table();
        let s = Expr::Const(Const::Str(t.intern("Hello")));
        assert_eq!(
            ev(&Expr::Ucase(Box::new(s.clone())), &[], &t),
            Some(Const::Str(t.intern("HELLO")))
        );
        assert_eq!(
            ev(&Expr::Lcase(Box::new(s.clone())), &[], &t),
            Some(Const::Str(t.intern("hello")))
        );
        assert_eq!(
            ev(&Expr::Strlen(Box::new(s.clone())), &[], &t),
            Some(Const::Int(5))
        );
        let needle = Expr::Const(Const::Str(t.intern("ell")));
        assert_eq!(
            ev(
                &Expr::Contains(Box::new(s.clone()), Box::new(needle)),
                &[],
                &t
            ),
            Some(Const::Bool(true))
        );
        let h = Expr::Const(Const::Str(t.intern("He")));
        assert_eq!(
            ev(&Expr::StrStarts(Box::new(s.clone()), Box::new(h)), &[], &t),
            Some(Const::Bool(true))
        );
        let tail = Expr::Const(Const::Str(t.intern("lo")));
        assert_eq!(
            ev(&Expr::StrEnds(Box::new(s), Box::new(tail)), &[], &t),
            Some(Const::Bool(true))
        );
    }

    #[test]
    fn ucase_preserves_language_tag() {
        let t = table();
        let ls = Const::LangStr(t.intern("chat"), t.intern("fr"));
        let e = Expr::Ucase(Box::new(Expr::Const(ls)));
        assert_eq!(
            ev(&e, &[], &t),
            Some(Const::LangStr(t.intern("CHAT"), t.intern("fr")))
        );
    }

    #[test]
    fn str_lang_datatype() {
        let t = table();
        let iri = Const::Iri(t.intern("http://a"));
        assert_eq!(
            ev(&Expr::Str(Box::new(Expr::Const(iri))), &[], &t),
            Some(Const::Str(t.intern("http://a")))
        );
        let ls = Const::LangStr(t.intern("chat"), t.intern("fr"));
        assert_eq!(
            ev(&Expr::Lang(Box::new(Expr::Const(ls.clone()))), &[], &t),
            Some(Const::Str(t.intern("fr")))
        );
        assert_eq!(
            ev(&Expr::Datatype(Box::new(Expr::Const(ls))), &[], &t),
            Some(Const::Iri(t.intern(
                "http://www.w3.org/1999/02/22-rdf-syntax-ns#langString"
            )))
        );
        assert_eq!(
            ev(
                &Expr::Datatype(Box::new(Expr::Const(Const::Int(1)))),
                &[],
                &t
            ),
            Some(Const::Iri(
                t.intern("http://www.w3.org/2001/XMLSchema#integer")
            ))
        );
    }

    #[test]
    fn regex_builtin() {
        let t = table();
        let text = Expr::Const(Const::Str(t.intern("Journal of Testing")));
        let pat = Expr::Const(Const::Str(t.intern("^journal")));
        let flags = Expr::Const(Const::Str(t.intern("i")));
        let e = Expr::Regex(
            Box::new(text.clone()),
            Box::new(pat.clone()),
            Some(Box::new(flags)),
        );
        assert_eq!(ev(&e, &[], &t), Some(Const::Bool(true)));
        let e2 = Expr::Regex(Box::new(text), Box::new(pat), None);
        assert_eq!(ev(&e2, &[], &t), Some(Const::Bool(false)));
    }

    #[test]
    fn arithmetic() {
        let t = table();
        let add = Expr::Arith(
            ArithOp::Add,
            Box::new(Expr::Const(Const::Int(2))),
            Box::new(Expr::Const(Const::Int(3))),
        );
        assert_eq!(ev(&add, &[], &t), Some(Const::Int(5)));
        let div = Expr::Arith(
            ArithOp::Div,
            Box::new(Expr::Const(Const::Int(7))),
            Box::new(Expr::Const(Const::Int(2))),
        );
        assert_eq!(ev(&div, &[], &t), Some(Const::Float(OrdF64(3.5))));
        let div0 = Expr::Arith(
            ArithOp::Div,
            Box::new(Expr::Const(Const::Int(1))),
            Box::new(Expr::Const(Const::Int(0))),
        );
        assert_eq!(ev(&div0, &[], &t), None);
        let mixed = Expr::Arith(
            ArithOp::Mul,
            Box::new(Expr::Const(Const::Float(OrdF64(1.5)))),
            Box::new(Expr::Const(Const::Int(4))),
        );
        assert_eq!(ev(&mixed, &[], &t), Some(Const::Float(OrdF64(6.0))));
    }

    #[test]
    fn skolem_constructor() {
        let t = table();
        let f = t.intern("f1");
        let e = Expr::Skolem(f, vec![Expr::Var(0), Expr::Const(Const::Int(2))]);
        let env = vec![Some(Const::Int(1))];
        let v = ev(&e, &env, &t).unwrap();
        assert_eq!(v, Const::skolem(f, vec![Const::Int(1), Const::Int(2)]));
        // Same env → same Skolem term (determinism is what makes the
        // set-semantics fixpoint converge).
        assert_eq!(ev(&e, &env, &t).unwrap(), v);
    }

    #[test]
    fn lang_matches() {
        let t = table();
        let mk = |l: &str, r: &str| {
            Expr::LangMatches(
                Box::new(Expr::Const(Const::Str(t.intern(l)))),
                Box::new(Expr::Const(Const::Str(t.intern(r)))),
            )
        };
        assert_eq!(ev(&mk("en-US", "en"), &[], &t), Some(Const::Bool(true)));
        assert_eq!(ev(&mk("en", "en"), &[], &t), Some(Const::Bool(true)));
        assert_eq!(ev(&mk("fr", "en"), &[], &t), Some(Const::Bool(false)));
        assert_eq!(ev(&mk("fr", "*"), &[], &t), Some(Const::Bool(true)));
        assert_eq!(ev(&mk("", "*"), &[], &t), Some(Const::Bool(false)));
    }

    #[test]
    fn unbound_var_is_error() {
        let t = table();
        let e = Expr::Var(0);
        assert_eq!(ev(&e, &[None], &t), None);
        assert_eq!(ev(&e, &[], &t), None);
    }

    #[test]
    fn collect_vars() {
        let e = Expr::And(
            Box::new(Expr::Cmp(
                CmpOp::Eq,
                Box::new(Expr::Var(1)),
                Box::new(Expr::Var(0)),
            )),
            Box::new(Expr::Not(Box::new(Expr::Var(1)))),
        );
        let mut vs = Vec::new();
        e.collect_vars(&mut vs);
        assert_eq!(vs, vec![1, 0]);
    }
}
