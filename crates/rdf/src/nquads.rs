//! N-Quads parser and serializer: the dataset-level exchange format
//! (N-Triples plus an optional graph label per line).
//!
//! The grammar's graph label is an IRI or a blank node, but a SPARQL 1.1
//! dataset names its graphs by IRI (§13.1), and so does [`Dataset`]. A
//! blank-node label `_:g` is therefore skolemised (RDF 1.1 Concepts
//! §3.5) to the IRI [`GENID`]`g`: every line of a document that names
//! `_:g` lands in the same graph, and `GRAPH ?g` binds that IRI.

use std::fmt::Write as _;

use crate::dataset::Dataset;
use crate::ntriples::{ParseError, Scanner};
use crate::term::Term;
use crate::triple::{Quad, Triple};

/// The prefix of the Skolem IRI a blank-node graph label becomes. The
/// `.invalid` host (RFC 2606) is never a real graph's name.
pub const GENID: &str = "https://sparqlog.invalid/.well-known/genid/";

/// Parses an N-Quads document into a [`Dataset`]. Lines with three terms
/// go to the default graph; a fourth term, an IRI or a blank node,
/// selects a named graph.
pub fn parse(input: &str) -> Result<Dataset, ParseError> {
    let mut ds = Dataset::new();
    for (lineno, line) in input.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let quad = parse_line(line).map_err(|message| ParseError {
            line: lineno + 1,
            message,
        })?;
        ds.insert(quad);
    }
    Ok(ds)
}

fn parse_line(line: &str) -> Result<Quad, String> {
    let mut chars = Scanner::new(line);
    let subject = chars.term()?;
    let predicate = chars.term()?;
    let object = chars.term()?;
    let triple = Triple::new(subject, predicate, object);
    let quad = if chars.peek('.') {
        Quad::in_default(triple)
    } else {
        let graph = match chars.term()? {
            Term::BlankNode(label) => Term::iri(format!("{GENID}{label}")),
            iri @ Term::Iri(_) => iri,
            _ => return Err("graph label must be an IRI or a blank node".into()),
        };
        Quad::in_graph(triple, graph)
    };
    chars.end()?;
    Ok(quad)
}

/// Serializes a dataset as N-Quads.
pub fn serialize(ds: &Dataset) -> String {
    let mut out = String::new();
    for (s, p, o) in ds.default_graph().iter() {
        let _ = writeln!(out, "{s} {p} {o} .");
    }
    for (name, g) in ds.named_graphs() {
        for (s, p, o) in g.iter() {
            let _ = writeln!(out, "{s} {p} {o} <{name}> .");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_mixed_document() {
        let doc = r#"
<http://a> <http://p> <http://b> .
<http://a> <http://p> "lit"@en <http://g1> .
_:b <http://p> "5"^^<http://www.w3.org/2001/XMLSchema#integer> <http://g1> .
# comment
<http://c> <http://q> "x" <http://g2> .
"#;
        let ds = parse(doc).unwrap();
        assert_eq!(ds.default_graph().len(), 1);
        assert_eq!(ds.named_graph("http://g1").unwrap().len(), 2);
        assert_eq!(ds.named_graph("http://g2").unwrap().len(), 1);
        assert!(ds.named_graph("http://g1").unwrap().contains(&Triple::new(
            Term::bnode("b"),
            Term::iri("http://p"),
            Term::integer(5),
        )));
    }

    #[test]
    fn blank_node_graph_labels_are_skolemised() {
        let ds = parse(concat!(
            "<http://s> <http://p> <http://o> _:g .\n",
            "<http://s> <http://p> <http://o2> _:g .\n",
        ))
        .unwrap();
        let name = format!("{GENID}g");
        assert_eq!(ds.named_graph(&name).unwrap().len(), 2);
        assert_eq!(ds.len(), 2);
    }

    #[test]
    fn roundtrip() {
        let doc = concat!(
            "<http://a> <http://p> \"x\" .\n",
            "<http://a> <http://p> \"esc\\\"aped\" <http://g> .\n",
        );
        let ds = parse(doc).unwrap();
        let ds2 = parse(&serialize(&ds)).unwrap();
        assert_eq!(ds.len(), ds2.len());
        assert_eq!(ds2.named_graph("http://g").unwrap().len(), 1);
    }

    #[test]
    fn errors() {
        assert_eq!(parse("<http://a> <http://p>").unwrap_err().line, 1);
        assert!(parse("<http://a> <http://p> <http://o> \"lit\" .").is_err());
        assert!(parse("<a> <p> <o> <g> <extra> .").is_err());
        assert!(parse("<http://a> <http://p> \"unterminated .").is_err());
    }

    #[test]
    fn escapes_in_literals() {
        let ds = parse(r#"<http://a> <http://p> "a\"b\nc" ."#).unwrap();
        let (_, _, o) = ds.default_graph().iter().next().unwrap();
        assert_eq!(o.as_literal().unwrap().lexical(), "a\"b\nc");
    }
}
