//! W3C wire-format serialization of [`QueryResults`].
//!
//! Three standard formats cover the solution-producing query forms
//! (`SELECT`, `ASK`):
//!
//! * **SPARQL 1.1 Query Results JSON** ([`write_json`]) —
//!   the `application/sparql-results+json` format:
//!   `{"head":{"vars":[...]},"results":{"bindings":[...]}}` for
//!   solutions, `{"head":{},"boolean":...}` for ASK;
//! * **SPARQL 1.1 Query Results CSV** ([`write_csv`]) —
//!   plain values (IRIs bare, literals as their lexical form), RFC 4180
//!   quoting, CRLF line endings;
//! * **SPARQL 1.1 Query Results TSV** ([`write_tsv`]) —
//!   terms in SPARQL concrete syntax (`<iri>`, `"lit"@en`, `_:b`),
//!   tab-separated.
//!
//! The graph-producing forms (`CONSTRUCT`, `DESCRIBE`) serialize through
//! the `sparqlog-rdf` writers instead: [`write_ntriples`] and
//! [`write_turtle`]. Asking a solution format for a graph result (or vice
//! versa) is a [`SerializeError`], not a silent coercion — raised by the
//! `write_*` function alone.
//!
//! Since PR 8 the **incremental [`std::io::Write`] paths are primary**:
//! every `write_*` function streams straight into its sink — one row /
//! one triple at a time, no intermediate document string — so a huge
//! CONSTRUCT serialized through an HTTP chunked-transfer writer never
//! materializes in RAM. The `QueryResults::to_*` String methods are thin
//! wrappers that stream into a `Vec<u8>`. Differential tests in
//! `crates/core/tests/results_io.rs` pin both paths byte-identical,
//! including through a pathological 1-byte-per-call writer.
//!
//! All serializers are hand-rolled (the workspace builds offline with
//! zero external dependencies) and covered by golden-fixture tests in
//! `crates/core/tests/results_io.rs`.

use std::io::{self, Write};

use sparqlog_rdf::{LiteralKind, Term};

use crate::solution::{QueryResults, SolutionSeq};

/// The requested wire format cannot represent this result form (e.g.
/// Results-JSON for a CONSTRUCT graph).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SerializeError {
    /// The requested format ("Results-JSON", "CSV", ...).
    pub format: &'static str,
    /// The result form actually held ("graph", "solutions", "boolean").
    pub form: &'static str,
}

impl std::fmt::Display for SerializeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} cannot represent a {} result; use a matching serializer",
            self.format, self.form
        )
    }
}

impl std::error::Error for SerializeError {}

/// Failure of a streaming `write_*` serializer: either the format cannot
/// represent the result form at all, or the underlying sink failed
/// mid-stream (e.g. an HTTP client hung up).
#[derive(Debug)]
pub enum WriteError {
    /// Format/form mismatch — nothing was written.
    Serialize(SerializeError),
    /// The sink returned an I/O error; the output is truncated.
    Io(io::Error),
}

impl std::fmt::Display for WriteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WriteError::Serialize(e) => e.fmt(f),
            WriteError::Io(e) => write!(f, "I/O error while streaming results: {e}"),
        }
    }
}

impl std::error::Error for WriteError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WriteError::Serialize(e) => Some(e),
            WriteError::Io(e) => Some(e),
        }
    }
}

impl From<SerializeError> for WriteError {
    fn from(e: SerializeError) -> Self {
        WriteError::Serialize(e)
    }
}

impl From<io::Error> for WriteError {
    fn from(e: io::Error) -> Self {
        WriteError::Io(e)
    }
}

fn form_name(r: &QueryResults) -> &'static str {
    match r {
        QueryResults::Solutions(_) => "solutions",
        QueryResults::Boolean(_) => "boolean",
        QueryResults::Graph(_) => "graph",
    }
}

/// Streams into a `Vec<u8>` (which cannot fail) and recovers the String;
/// only a [`SerializeError`] can surface.
fn collect_string(
    f: impl FnOnce(&mut dyn Write) -> Result<(), WriteError>,
) -> Result<String, SerializeError> {
    let mut out = Vec::new();
    match f(&mut out) {
        Ok(()) => Ok(String::from_utf8(out).expect("serializer output is UTF-8")),
        Err(WriteError::Serialize(e)) => Err(e),
        Err(WriteError::Io(e)) => unreachable!("writing to a Vec<u8> cannot fail: {e}"),
    }
}

// --------------------------------------------------------------- JSON

/// Streams a SELECT/ASK result in the SPARQL 1.1 Query Results JSON
/// format (`application/sparql-results+json`) into `out`, one binding
/// object at a time.
pub fn write_json(results: &QueryResults, out: &mut dyn Write) -> Result<(), WriteError> {
    match results {
        QueryResults::Boolean(b) => {
            write!(out, "{{\"head\":{{}},\"boolean\":{b}}}")?;
            Ok(())
        }
        QueryResults::Solutions(s) => write_solutions_json(s, out),
        QueryResults::Graph(_) => Err(SerializeError {
            format: "Results-JSON",
            form: form_name(results),
        }
        .into()),
    }
}

fn write_solutions_json(s: &SolutionSeq, out: &mut dyn Write) -> Result<(), WriteError> {
    out.write_all(b"{\"head\":{\"vars\":[")?;
    for (i, v) in s.vars.iter().enumerate() {
        if i > 0 {
            out.write_all(b",")?;
        }
        json_string(v, out)?;
    }
    out.write_all(b"]},\"results\":{\"bindings\":[")?;
    for (i, sol) in s.iter().enumerate() {
        if i > 0 {
            out.write_all(b",")?;
        }
        out.write_all(b"{")?;
        let mut first = true;
        // Unbound variables are simply absent from the binding object.
        for (var, term) in sol.iter() {
            let Some(term) = term else { continue };
            if !first {
                out.write_all(b",")?;
            }
            first = false;
            json_string(var, out)?;
            out.write_all(b":")?;
            json_term(term, out)?;
        }
        out.write_all(b"}")?;
    }
    out.write_all(b"]}}")?;
    Ok(())
}

fn json_term(t: &Term, out: &mut dyn Write) -> io::Result<()> {
    match t {
        Term::Iri(iri) => {
            out.write_all(b"{\"type\":\"uri\",\"value\":")?;
            json_string(iri, out)?;
            out.write_all(b"}")
        }
        Term::BlankNode(label) => {
            out.write_all(b"{\"type\":\"bnode\",\"value\":")?;
            json_string(label, out)?;
            out.write_all(b"}")
        }
        Term::Literal(l) => {
            out.write_all(b"{\"type\":\"literal\",\"value\":")?;
            json_string(l.lexical(), out)?;
            match l.kind() {
                LiteralKind::Plain => {}
                LiteralKind::Lang(tag) => {
                    out.write_all(b",\"xml:lang\":")?;
                    json_string(tag, out)?;
                }
                LiteralKind::Typed(dt) => {
                    out.write_all(b",\"datatype\":")?;
                    json_string(dt, out)?;
                }
            }
            out.write_all(b"}")
        }
    }
}

/// Writes `s` as a JSON string literal (quotes, backslashes and control
/// characters escaped). Runs of ordinary characters are written as one
/// slice, not char-at-a-time.
fn json_string(s: &str, out: &mut dyn Write) -> io::Result<()> {
    out.write_all(b"\"")?;
    let bytes = s.as_bytes();
    let mut start = 0;
    for (i, &b) in bytes.iter().enumerate() {
        let esc: Option<&[u8]> = match b {
            b'"' => Some(b"\\\""),
            b'\\' => Some(b"\\\\"),
            b'\n' => Some(b"\\n"),
            b'\r' => Some(b"\\r"),
            b'\t' => Some(b"\\t"),
            b if b < 0x20 => None, // \uXXXX, handled below
            _ => continue,
        };
        out.write_all(&bytes[start..i])?;
        match esc {
            Some(e) => out.write_all(e)?,
            None => write!(out, "\\u{:04x}", b)?,
        }
        start = i + 1;
    }
    out.write_all(&bytes[start..])?;
    out.write_all(b"\"")
}

// ---------------------------------------------------------------- CSV

/// Streams a SELECT/ASK result in the SPARQL 1.1 Query Results CSV
/// format (`text/csv`) into `out`: plain values, RFC 4180 quoting, CRLF
/// line endings, one row at a time. (The W3C format only defines SELECT
/// output; ASK results are rendered as a single `true`/`false` line,
/// matching common practice.)
pub fn write_csv(results: &QueryResults, out: &mut dyn Write) -> Result<(), WriteError> {
    match results {
        QueryResults::Boolean(b) => {
            write!(out, "{b}\r\n")?;
            Ok(())
        }
        QueryResults::Solutions(s) => {
            for (i, v) in s.vars.iter().enumerate() {
                if i > 0 {
                    out.write_all(b",")?;
                }
                out.write_all(v.as_bytes())?;
            }
            out.write_all(b"\r\n")?;
            for sol in s.iter() {
                for (i, (_, term)) in sol.iter().enumerate() {
                    if i > 0 {
                        out.write_all(b",")?;
                    }
                    match term {
                        // Blank nodes keep their `_:label` form (W3C
                        // CSV results §3); IRIs and literals are bare.
                        // The prefix goes through the quoting with the
                        // label, so a label needing quotes yields one
                        // well-formed field.
                        Some(Term::BlankNode(label)) => {
                            csv_field(&format!("_:{label}"), out)?;
                        }
                        Some(t) => csv_field(t.str_value(), out)?,
                        // Unbound ⇒ empty field.
                        None => {}
                    }
                }
                out.write_all(b"\r\n")?;
            }
            Ok(())
        }
        QueryResults::Graph(_) => Err(SerializeError {
            format: "CSV",
            form: form_name(results),
        }
        .into()),
    }
}

/// Writes a CSV field, quoting per RFC 4180 only when needed.
fn csv_field(value: &str, out: &mut dyn Write) -> io::Result<()> {
    if value.contains(['"', ',', '\n', '\r']) {
        out.write_all(b"\"")?;
        let bytes = value.as_bytes();
        let mut start = 0;
        for (i, &b) in bytes.iter().enumerate() {
            if b == b'"' {
                out.write_all(&bytes[start..=i])?;
                out.write_all(b"\"")?;
                start = i + 1;
            }
        }
        out.write_all(&bytes[start..])?;
        out.write_all(b"\"")
    } else {
        out.write_all(value.as_bytes())
    }
}

// ---------------------------------------------------------------- TSV

/// Streams a SELECT/ASK result in the SPARQL 1.1 Query Results TSV
/// format (`text/tab-separated-values`) into `out`: a `?var` header and
/// terms in SPARQL concrete syntax, with tabs/newlines inside literals
/// escaped, one row at a time. (ASK results render as a single
/// `true`/`false` line; see [`write_csv`].)
pub fn write_tsv(results: &QueryResults, out: &mut dyn Write) -> Result<(), WriteError> {
    match results {
        QueryResults::Boolean(b) => {
            writeln!(out, "{b}")?;
            Ok(())
        }
        QueryResults::Solutions(s) => {
            for (i, v) in s.vars.iter().enumerate() {
                if i > 0 {
                    out.write_all(b"\t")?;
                }
                out.write_all(b"?")?;
                out.write_all(v.as_bytes())?;
            }
            out.write_all(b"\n")?;
            for sol in s.iter() {
                for (i, (_, term)) in sol.iter().enumerate() {
                    if i > 0 {
                        out.write_all(b"\t")?;
                    }
                    if let Some(t) = term {
                        // `Term`'s Display is N-Triples syntax — valid
                        // TSV terms, with \t and \n escaped in literals.
                        write!(out, "{t}")?;
                    }
                }
                out.write_all(b"\n")?;
            }
            Ok(())
        }
        QueryResults::Graph(_) => Err(SerializeError {
            format: "TSV",
            form: form_name(results),
        }
        .into()),
    }
}

// -------------------------------------------------------------- graphs

/// Streams a CONSTRUCT/DESCRIBE result graph as N-Triples into `out`,
/// one triple per write.
pub fn write_ntriples(results: &QueryResults, out: &mut dyn Write) -> Result<(), WriteError> {
    match results {
        QueryResults::Graph(g) => {
            sparqlog_rdf::ntriples::write(g, out)?;
            Ok(())
        }
        other => Err(SerializeError {
            format: "N-Triples",
            form: form_name(other),
        }
        .into()),
    }
}

/// Streams a CONSTRUCT/DESCRIBE result graph as Turtle into `out`
/// (triples grouped by subject, `rdf:type` compacted to `a`).
pub fn write_turtle(results: &QueryResults, out: &mut dyn Write) -> Result<(), WriteError> {
    match results {
        QueryResults::Graph(g) => {
            sparqlog_rdf::turtle::write(g, out)?;
            Ok(())
        }
        other => Err(SerializeError {
            format: "Turtle",
            form: form_name(other),
        }
        .into()),
    }
}

impl QueryResults {
    /// The result as a SPARQL 1.1 Query Results JSON string, for
    /// SELECT/ASK results ([`write_json`] into a buffer).
    pub fn to_json(&self) -> Result<String, SerializeError> {
        collect_string(|out| write_json(self, out))
    }

    /// The result as a SPARQL 1.1 Query Results CSV string, for
    /// SELECT/ASK results ([`write_csv`] into a buffer).
    pub fn to_csv(&self) -> Result<String, SerializeError> {
        collect_string(|out| write_csv(self, out))
    }

    /// The result as a SPARQL 1.1 Query Results TSV string, for
    /// SELECT/ASK results ([`write_tsv`] into a buffer).
    pub fn to_tsv(&self) -> Result<String, SerializeError> {
        collect_string(|out| write_tsv(self, out))
    }

    /// The result graph as N-Triples, for CONSTRUCT/DESCRIBE results
    /// ([`write_ntriples`] into a buffer).
    pub fn to_ntriples(&self) -> Result<String, SerializeError> {
        collect_string(|out| write_ntriples(self, out))
    }

    /// The result graph as Turtle, for CONSTRUCT/DESCRIBE results
    /// ([`write_turtle`] into a buffer).
    pub fn to_turtle(&self) -> Result<String, SerializeError> {
        collect_string(|out| write_turtle(self, out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparqlog_rdf::Graph;

    fn seq() -> QueryResults {
        QueryResults::Solutions(SolutionSeq {
            vars: vec!["x".into(), "y".into()],
            rows: vec![
                vec![Some(Term::iri("http://e/a")), None],
                vec![
                    Some(Term::bnode("b1")),
                    Some(Term::lang_literal("chat", "fr")),
                ],
            ],
        })
    }

    #[test]
    fn json_shapes() {
        assert_eq!(
            QueryResults::Boolean(true).to_json().unwrap(),
            r#"{"head":{},"boolean":true}"#
        );
        let json = seq().to_json().unwrap();
        assert!(json.starts_with(r#"{"head":{"vars":["x","y"]},"results":{"bindings":["#));
        assert!(json.contains(r#""x":{"type":"uri","value":"http://e/a"}"#));
        assert!(json.contains(r#""y":{"type":"literal","value":"chat","xml:lang":"fr"}"#));
    }

    #[test]
    fn json_escapes_control_characters() {
        let mut out = Vec::new();
        json_string("a\"b\\c\nd\u{1}", &mut out).unwrap();
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "\"a\\\"b\\\\c\\nd\\u0001\""
        );
    }

    #[test]
    fn csv_quoting() {
        let mut out = Vec::new();
        csv_field("plain", &mut out).unwrap();
        out.push(b';');
        csv_field("a,b \"quoted\"\nc", &mut out).unwrap();
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "plain;\"a,b \"\"quoted\"\"\nc\""
        );
    }

    #[test]
    fn csv_quotes_whole_bnode_field() {
        // A label needing quotes must produce ONE well-formed RFC 4180
        // field — the `_:` prefix belongs inside the quoted region.
        let r = QueryResults::Solutions(SolutionSeq {
            vars: vec!["x".into()],
            rows: vec![vec![Some(Term::bnode("a,b"))]],
        });
        assert_eq!(r.to_csv().unwrap(), "x\r\n\"_:a,b\"\r\n");
    }

    #[test]
    fn graph_formats_reject_solution_results() {
        assert!(seq().to_ntriples().is_err());
        assert!(seq().to_turtle().is_err());
        let g = QueryResults::Graph(Box::new(Graph::new()));
        assert!(g.to_json().is_err());
        assert!(g.to_csv().is_err());
        assert!(g.to_tsv().is_err());
        let err = g.to_json().unwrap_err();
        assert_eq!(err.form, "graph");
        assert!(err.to_string().contains("Results-JSON"));
    }

    #[test]
    fn write_error_form_mismatch_and_io() {
        let e = write_json(
            &QueryResults::Graph(Box::new(Graph::new())),
            &mut Vec::new(),
        )
        .unwrap_err();
        assert!(matches!(e, WriteError::Serialize(_)));
        assert!(e.to_string().contains("Results-JSON"));

        struct Broken;
        impl Write for Broken {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::new(io::ErrorKind::BrokenPipe, "gone"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let e = write_json(&QueryResults::Boolean(true), &mut Broken).unwrap_err();
        assert!(matches!(e, WriteError::Io(_)));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn literal_escape_reuse() {
        // TSV terms reuse the N-Triples literal escaping.
        assert_eq!(sparqlog_rdf::term::escape_literal("a\tb"), "a\\tb");
    }
}
