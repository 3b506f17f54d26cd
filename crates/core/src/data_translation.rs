//! The data translation method **T_D** (paper §4.1.1, Appendix A.1).
//!
//! Translates an RDF dataset into Datalog± facts and the auxiliary rules
//! every translated query relies on:
//!
//! * `triple/4` facts, with `"default"` as the default graph's name;
//! * `named/1` facts for the named graphs;
//! * `subjectOrObject/2` (Def. A.17, extended with the graph argument so
//!   zero-length paths are computed per graph).
//!
//! The appendix's term classes (`iri/1`, `literal/1`, `bnode/1`,
//! `term/1`, Def. A.1) and its `null/1` and `comp/3` (Def. A.2) are not
//! relations here. They exist to compute compatibility, which T_Q emits
//! as a compatibility item the planner compiles to a comparison of
//! values ([`sparqlog_datalog::BodyItem::Compat`]); `null(x)` is an
//! assignment or comparison with the one null constant.

use std::sync::Arc;

use sparqlog_datalog::{Const, Database, Program, RuleBuilder, SymbolTable};
use sparqlog_rdf::vocab::xsd;
use sparqlog_rdf::{Dataset, Graph, LiteralKind, Term};

/// Predicate names used by the translation.
pub mod preds {
    /// `triple/4` — `(S, P, O, graph)` facts.
    pub const TRIPLE: &str = "triple";
    /// `named/1` — the named graphs of the dataset.
    pub const NAMED: &str = "named";
    /// `subjectOrObject/2` — path endpoints per graph (Def. A.17).
    pub const SUBJECT_OR_OBJECT: &str = "subjectOrObject";
    /// The name of the default graph in the `triple/4` representation.
    pub const DEFAULT_GRAPH: &str = "default";
}

/// Converts an RDF term into a Datalog constant.
///
/// Literals typed `xsd:string` are normalised to plain strings (RDF 1.1
/// makes them identical), which keeps term equality in Datalog aligned
/// with RDF term equality.
pub fn term_to_const(term: &Term, symbols: &SymbolTable) -> Const {
    match term {
        Term::Iri(i) => Const::Iri(symbols.intern(i)),
        Term::BlankNode(b) => Const::Bnode(symbols.intern(b)),
        Term::Literal(l) => match l.kind() {
            LiteralKind::Plain => Const::Str(symbols.intern(l.lexical())),
            LiteralKind::Lang(tag) => {
                Const::LangStr(symbols.intern(l.lexical()), symbols.intern(tag))
            }
            LiteralKind::Typed(dt) if dt.as_ref() == xsd::STRING => {
                Const::Str(symbols.intern(l.lexical()))
            }
            LiteralKind::Typed(dt) => Const::Typed(symbols.intern(l.lexical()), symbols.intern(dt)),
        },
    }
}

/// Converts a Datalog constant back into an RDF term (`None` for `null`,
/// machine values are mapped to their XSD literals, Skolem terms become
/// blank nodes — they are labelled nulls, which is exactly what blank
/// nodes denote).
pub fn const_to_term(c: &Const, symbols: &SymbolTable) -> Option<Term> {
    match c {
        Const::Iri(s) => Some(Term::iri(symbols.resolve(*s))),
        Const::Bnode(s) => Some(Term::bnode(symbols.resolve(*s))),
        Const::Str(s) => Some(Term::literal(symbols.resolve(*s))),
        Const::LangStr(lex, lang) => Some(Term::lang_literal(
            symbols.resolve(*lex),
            &symbols.resolve(*lang),
        )),
        Const::Typed(lex, dt) => Some(Term::typed_literal(
            symbols.resolve(*lex),
            symbols.resolve(*dt),
        )),
        Const::Int(i) => Some(Term::integer(*i)),
        Const::Float(f) => Some(Term::double(f.0)),
        Const::Bool(b) => Some(Term::boolean(*b)),
        Const::Null => None,
        Const::Skolem(t) => {
            let mut label = format!("sk_{}", symbols.resolve(t.functor));
            for a in &t.args {
                label.push('_');
                label.push_str(&format!("{:x}", fx_hash_const(a)));
            }
            Some(Term::bnode(label))
        }
    }
}

fn fx_hash_const(c: &Const) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = sparqlog_datalog::fxhash::FxHasher::default();
    c.hash(&mut h);
    h.finish()
}

/// Loads a dataset's facts into `db` (the fact part of T_D).
pub fn load_dataset(ds: &Dataset, db: &mut Database) {
    let symbols = db.symbols().clone();
    let default = Const::Str(symbols.intern(preds::DEFAULT_GRAPH));
    load_graph_facts(ds.default_graph(), &default, db, &symbols);
    for (name, graph) in ds.named_graphs() {
        let g = Const::Iri(symbols.intern(name));
        db.add_fact_str(preds::NAMED, vec![g.clone()]);
        load_graph_facts(graph, &g, db, &symbols);
    }
}

fn load_graph_facts(graph: &Graph, graph_const: &Const, db: &mut Database, symbols: &SymbolTable) {
    for (s, p, o) in graph.iter() {
        db.add_fact_str(
            preds::TRIPLE,
            vec![
                term_to_const(s, symbols),
                term_to_const(p, symbols),
                term_to_const(o, symbols),
                graph_const.clone(),
            ],
        );
    }
}

/// Builds the auxiliary-rule program of T_D: `subjectOrObject/2`,
/// maintained with the store; all translated queries reference the
/// materialised predicate.
pub fn base_program(symbols: &Arc<SymbolTable>) -> Program {
    let mut program = Program::new();
    let soo = symbols.intern(preds::SUBJECT_OR_OBJECT);
    let triple = symbols.intern(preds::TRIPLE);

    // subjectOrObject(X, D) :- triple(X, P, Y, D).
    // subjectOrObject(Y, D) :- triple(X, P, Y, D).   (Def. A.17 + graph)
    for subject_side in [true, false] {
        let mut b = RuleBuilder::new();
        let hv = if subject_side { b.v("X") } else { b.v("Y") };
        let hd = b.v("D");
        b.head(soo, vec![hv, hd]);
        let (x, p, y, d) = (b.v("X"), b.v("P"), b.v("Y"), b.v("D"));
        b.pos(triple, vec![x, p, y, d]);
        program.rules.push(b.build());
    }

    program
}

/// The default-graph constant.
pub fn default_graph_const(symbols: &SymbolTable) -> Const {
    Const::Str(symbols.intern(preds::DEFAULT_GRAPH))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparqlog_rdf::Triple;

    fn film_dataset() -> Dataset {
        // §3.1 of the paper.
        let mut g = Graph::new();
        g.insert(Triple::new(
            Term::iri("http://ex.org/glucas"),
            Term::iri("http://ex.org/name"),
            Term::literal("George"),
        ));
        g.insert(Triple::new(
            Term::iri("http://ex.org/glucas"),
            Term::iri("http://ex.org/lastname"),
            Term::literal("Lucas"),
        ));
        g.insert(Triple::new(
            Term::bnode("b1"),
            Term::iri("http://ex.org/name"),
            Term::literal("Steven"),
        ));
        Dataset::from_default_graph(g)
    }

    #[test]
    fn a_loaded_snapshot_holds_exactly_triples_named_graphs_and_endpoints() {
        let mut ds = film_dataset();
        ds.named_graph_mut("http://g1").insert(Triple::new(
            Term::iri("http://ex.org/glucas"),
            Term::iri("http://ex.org/name"),
            Term::literal("George"),
        ));
        let store = crate::Store::new();
        store.load_dataset(&ds).unwrap();
        let snap = store.snapshot();
        let s = snap.symbols();
        let mut sizes: Vec<(String, usize)> = (snap.database().relations())
            .map(|(p, r)| (s.resolve(p).to_string(), r.len()))
            .collect();
        sizes.sort();
        // subjectOrObject: per graph, default {glucas, b1, George, Lucas,
        // Steven} and g1 {glucas, George}.
        assert_eq!(
            sizes,
            [("named", 1), ("subjectOrObject", 7), ("triple", 4)].map(|(p, n)| (p.to_string(), n))
        );
    }

    #[test]
    fn named_graphs_get_named_facts() {
        let mut ds = Dataset::new();
        ds.named_graph_mut("http://g1").insert(Triple::new(
            Term::iri("a"),
            Term::iri("p"),
            Term::iri("b"),
        ));
        let mut db = Database::new();
        load_dataset(&ds, &mut db);
        let s = db.symbols().clone();
        assert_eq!(db.relation(s.get("named").unwrap()).unwrap().len(), 1);
        let triples = db.relation(s.get("triple").unwrap()).unwrap();
        let t = db.decode_tuple(triples.iter().next().unwrap());
        assert_eq!(t[3], Const::Iri(s.intern("http://g1")));
    }

    #[test]
    fn term_const_roundtrip() {
        let symbols = SymbolTable::new();
        for t in [
            Term::iri("http://a"),
            Term::bnode("b"),
            Term::literal("plain"),
            Term::lang_literal("chat", "fr"),
            Term::integer(5),
            Term::boolean(true),
        ] {
            let c = term_to_const(&t, &symbols);
            let back = const_to_term(&c, &symbols).unwrap();
            // xsd:integer/boolean literals survive as typed literals.
            assert_eq!(t, back, "{t}");
        }
        // xsd:string normalises to plain.
        let t = Term::typed_literal("x", xsd::STRING);
        let c = term_to_const(&t, &symbols);
        assert_eq!(const_to_term(&c, &symbols).unwrap(), Term::literal("x"));
        // null has no term.
        assert_eq!(const_to_term(&Const::Null, &symbols), None);
    }

    #[test]
    fn skolem_consts_become_blank_nodes() {
        let symbols = SymbolTable::new();
        let c = Const::skolem(symbols.intern("f"), vec![Const::Int(1)]);
        let t = const_to_term(&c, &symbols).unwrap();
        assert!(t.is_bnode());
        // Deterministic.
        assert_eq!(t, const_to_term(&c, &symbols).unwrap());
    }
}
