//! N-Triples parser and serializer.
//!
//! N-Triples is the line-based RDF syntax: one triple per line, full IRIs in
//! angle brackets, `.` terminated. It is the exchange format used by the
//! benchmark generators in this workspace.

use crate::graph::Graph;
use crate::term::Term;
use crate::triple::Triple;

/// An error produced while parsing N-Triples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "N-Triples parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Parses an N-Triples document into a [`Graph`].
pub fn parse(input: &str) -> Result<Graph, ParseError> {
    let mut g = Graph::new();
    for (lineno, line) in input.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let triple = parse_line(line).map_err(|message| ParseError {
            line: lineno + 1,
            message,
        })?;
        g.insert(triple);
    }
    Ok(g)
}

/// Parses a single N-Triples line (without trailing newline).
fn parse_line(line: &str) -> Result<Triple, String> {
    let mut chars = Scanner::new(line);
    let subject = chars.term()?;
    let predicate = chars.term()?;
    let object = chars.term()?;
    chars.end()?;
    Ok(Triple::new(subject, predicate, object))
}

/// The term scanner of the line-based formats (N-Triples, N-Quads).
pub(crate) struct Scanner<'a> {
    rest: &'a str,
}

impl<'a> Scanner<'a> {
    pub(crate) fn new(s: &'a str) -> Self {
        Scanner { rest: s }
    }

    fn skip_ws(&mut self) {
        self.rest = self.rest.trim_start();
    }

    /// Whether `c` comes next, after optional whitespace.
    pub(crate) fn peek(&mut self, c: char) -> bool {
        self.skip_ws();
        self.rest.starts_with(c)
    }

    /// Reads the statement's closing '.', which only whitespace may follow.
    pub(crate) fn end(&mut self) -> Result<(), String> {
        if !self.peek('.') {
            return Err("expected '.' at end of statement".into());
        }
        self.rest = self.rest[1..].trim_start();
        if !self.rest.is_empty() {
            return Err("trailing content after '.'".into());
        }
        Ok(())
    }

    /// Reads one term, after optional whitespace.
    pub(crate) fn term(&mut self) -> Result<Term, String> {
        self.skip_ws();
        let mut it = self.rest.chars();
        match it.next() {
            Some('<') => {
                let end = self
                    .rest
                    .find('>')
                    .ok_or_else(|| "unterminated IRI".to_string())?;
                let iri = &self.rest[1..end];
                self.rest = &self.rest[end + 1..];
                Ok(Term::iri(iri))
            }
            Some('_') => {
                if !self.rest.starts_with("_:") {
                    return Err("expected '_:' to start a blank node".into());
                }
                let body = &self.rest[2..];
                let end = body.find(char::is_whitespace).unwrap_or(body.len());
                // A label may hold '.' but not end with one: a trailing
                // '.' closes the statement.
                let label = body[..end].trim_end_matches('.');
                if label.is_empty() {
                    return Err("empty blank node label".into());
                }
                self.rest = &body[label.len()..];
                Ok(Term::bnode(label))
            }
            Some('"') => {
                let (lexical, consumed) = unescape_string(&self.rest[1..])?;
                self.rest = &self.rest[1 + consumed..];
                if let Some(r) = self.rest.strip_prefix("^^<") {
                    let end = r
                        .find('>')
                        .ok_or_else(|| "unterminated datatype IRI".to_string())?;
                    let dt = &r[..end];
                    self.rest = &r[end + 1..];
                    Ok(Term::typed_literal(lexical, dt))
                } else if let Some(r) = self.rest.strip_prefix('@') {
                    let len = r
                        .char_indices()
                        .find(|(_, c)| !(c.is_ascii_alphanumeric() || *c == '-'))
                        .map(|(i, _)| i)
                        .unwrap_or(r.len());
                    if len == 0 {
                        return Err("empty language tag".into());
                    }
                    let tag = &r[..len];
                    self.rest = &r[len..];
                    Ok(Term::lang_literal(lexical, tag))
                } else {
                    Ok(Term::literal(lexical))
                }
            }
            Some(c) => Err(format!("unexpected character {c:?}")),
            None => Err("unexpected end of line".into()),
        }
    }
}

/// Unescapes an N-Triples string body starting just after the opening quote.
/// Returns `(content, bytes consumed including the closing quote)`.
fn unescape_string(s: &str) -> Result<(String, usize), String> {
    let mut out = String::new();
    let mut it = s.char_indices();
    while let Some((i, c)) = it.next() {
        match c {
            '"' => return Ok((out, i + 1)),
            '\\' => {
                let (_, esc) = it.next().ok_or("dangling escape")?;
                match esc {
                    'n' => out.push('\n'),
                    'r' => out.push('\r'),
                    't' => out.push('\t'),
                    '"' => out.push('"'),
                    '\\' => out.push('\\'),
                    'u' => {
                        let mut code = String::new();
                        for _ in 0..4 {
                            code.push(it.next().ok_or("truncated \\u escape")?.1);
                        }
                        let n = u32::from_str_radix(&code, 16)
                            .map_err(|_| "invalid \\u escape".to_string())?;
                        out.push(char::from_u32(n).ok_or("invalid unicode code point")?);
                    }
                    other => return Err(format!("unknown escape \\{other}")),
                }
            }
            c => out.push(c),
        }
    }
    Err("unterminated string literal".into())
}

/// Writes a graph as an N-Triples document (one triple per line, in the
/// graph's insertion order) to an [`std::io::Write`] sink.
///
/// This is the streaming path: each triple is formatted straight into
/// `out`, so the document never materializes in memory. [`serialize`]
/// is a thin wrapper over this function.
pub fn write(g: &Graph, out: &mut dyn std::io::Write) -> std::io::Result<()> {
    for (s, p, o) in g.iter() {
        writeln!(out, "{s} {p} {o} .")?;
    }
    Ok(())
}

/// Serializes a graph as an N-Triples document (one triple per line, in the
/// graph's insertion order). Thin wrapper over [`write()`].
pub fn serialize(g: &Graph) -> String {
    let mut out = Vec::new();
    write(g, &mut out).expect("writing to a Vec<u8> cannot fail");
    String::from_utf8(out).expect("N-Triples output is UTF-8")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_basic_document() {
        let doc = r#"
# film directors, from the paper §3.1
<http://ex.org/glucas> <http://ex.org/name> "George" .
<http://ex.org/glucas> <http://ex.org/lastname> "Lucas" .
_:b1 <http://ex.org/name> "Steven" .
"#;
        let g = parse(doc).unwrap();
        assert_eq!(g.len(), 3);
        assert!(g.contains(&Triple::new(
            Term::bnode("b1"),
            Term::iri("http://ex.org/name"),
            Term::literal("Steven"),
        )));
    }

    #[test]
    fn parse_typed_and_lang_literals() {
        let doc = concat!(
            "<http://s> <http://p> \"5\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n",
            "<http://s> <http://p> \"chat\"@fr .\n",
        );
        let g = parse(doc).unwrap();
        assert!(g.contains(&Triple::new(
            Term::iri("http://s"),
            Term::iri("http://p"),
            Term::integer(5),
        )));
        assert!(g.contains(&Triple::new(
            Term::iri("http://s"),
            Term::iri("http://p"),
            Term::lang_literal("chat", "fr"),
        )));
    }

    #[test]
    fn parse_escapes() {
        let doc = "<http://s> <http://p> \"a\\\"b\\nc\\\\d\\u0041\" .\n";
        let g = parse(doc).unwrap();
        let (_, _, o) = g.iter().next().unwrap();
        assert_eq!(o.as_literal().unwrap().lexical(), "a\"b\nc\\dA");
    }

    #[test]
    fn roundtrip() {
        let doc = concat!(
            "<http://s> <http://p> \"x\" .\n",
            "<http://s> <http://p> \"5\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n",
            "_:b <http://p> \"hi\"@en .\n",
        );
        let g = parse(doc).unwrap();
        let g2 = parse(&serialize(&g)).unwrap();
        assert_eq!(g.len(), g2.len());
        for (s, p, o) in g.iter() {
            assert!(g2.contains(&Triple::new(s.clone(), p.clone(), o.clone())));
        }
    }

    #[test]
    fn errors_are_reported_with_line_numbers() {
        let err = parse("<http://s> <http://p> .\n").unwrap_err();
        assert_eq!(err.line, 1);
        let err = parse("<http://s> <http://p> \"x\"\n").unwrap_err();
        assert!(err.message.contains("'.'"), "{}", err.message);
        let err = parse("<http://s> <http://p> \"x\" . junk\n").unwrap_err();
        assert!(err.message.contains("trailing"), "{}", err.message);
    }

    #[test]
    fn blank_labels_may_hold_but_not_end_with_a_dot() {
        let line = "_:a.b <http://p> _:c.";
        let triple = Triple::new(Term::bnode("a.b"), Term::iri("http://p"), Term::bnode("c"));
        assert!(parse(line).unwrap().contains(&triple));
        let ds = crate::nquads::parse(line).unwrap();
        assert!(ds.default_graph().contains(&triple));
    }

    #[test]
    fn unterminated_iri_and_string() {
        assert!(parse("<http://s <http://p> <http://o> .").is_err());
        assert!(parse("<http://s> <http://p> \"x .").is_err());
    }
}
