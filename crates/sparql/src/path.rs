//! Property-path expressions (SPARQL 1.1 §9).
//!
//! The grammar implemented here covers the eight operators of the paper's
//! Appendix A.3 plus the range quantifiers used by the gMark workload
//! (`p{n}`, `p{n,}`, `p{n,m}`), which the paper's Section 4.3 lists as
//! additionally supported ("exactly n", "n or more", "between 0 and n").

use std::fmt;
use std::sync::Arc;

/// A property-path expression.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PropertyPath {
    /// A link path: a bare IRI (Def. A.12).
    Link(Arc<str>),
    /// `^p` (Def. A.13).
    Inverse(Box<PropertyPath>),
    /// `p1 | p2` (Def. A.14).
    Alternative(Box<PropertyPath>, Box<PropertyPath>),
    /// `p1 / p2` (Def. A.15).
    Sequence(Box<PropertyPath>, Box<PropertyPath>),
    /// `p+` (Def. A.16).
    OneOrMore(Box<PropertyPath>),
    /// `p?` (Def. A.18).
    ZeroOrOne(Box<PropertyPath>),
    /// `p*` (Def. A.19).
    ZeroOrMore(Box<PropertyPath>),
    /// `!(p1 | ... | ^q1 | ...)` (Def. A.20): `forward` are the negated
    /// forward links, `backward` the negated inverse links.
    NegatedSet {
        /// The negated forward links (`!(p)`).
        forward: Vec<Arc<str>>,
        /// The negated inverse links (`!(^p)`).
        backward: Vec<Arc<str>>,
    },
    /// `p{n}` — exactly `n` repetitions (gMark).
    Exactly(Box<PropertyPath>, u32),
    /// `p{n,}` — at least `n` repetitions (gMark).
    AtLeast(Box<PropertyPath>, u32),
    /// `p{n,m}` — between `n` and `m` repetitions (gMark uses `{0,n}`).
    Between(Box<PropertyPath>, u32, u32),
}

impl PropertyPath {
    /// Creates a link path.
    pub fn link(iri: impl Into<Arc<str>>) -> Self {
        PropertyPath::Link(iri.into())
    }

    /// True if the path (recursively) contains one of the "recursive"
    /// operators `+`, `*`, `{n,}`. Used by the benchmark analysis and by
    /// the VirtuosoSim quirk model.
    pub fn is_recursive(&self) -> bool {
        match self {
            PropertyPath::Link(_) | PropertyPath::NegatedSet { .. } => false,
            PropertyPath::OneOrMore(_) | PropertyPath::ZeroOrMore(_) => true,
            PropertyPath::AtLeast(_, _) => true,
            PropertyPath::Inverse(p)
            | PropertyPath::ZeroOrOne(p)
            | PropertyPath::Exactly(p, _)
            | PropertyPath::Between(p, _, _) => p.is_recursive(),
            PropertyPath::Alternative(a, b) | PropertyPath::Sequence(a, b) => {
                a.is_recursive() || b.is_recursive()
            }
        }
    }

    /// True if the path can match a zero-length path (so `(t, t)` pairs are
    /// in its semantics).
    pub fn matches_zero(&self) -> bool {
        match self {
            PropertyPath::ZeroOrOne(_) | PropertyPath::ZeroOrMore(_) => true,
            PropertyPath::Exactly(_, n) => *n == 0,
            PropertyPath::AtLeast(_, n) => *n == 0,
            PropertyPath::Between(_, n, _) => *n == 0,
            PropertyPath::Sequence(a, b) => a.matches_zero() && b.matches_zero(),
            PropertyPath::Alternative(a, b) => a.matches_zero() || b.matches_zero(),
            PropertyPath::Inverse(p) => p.matches_zero(),
            _ => false,
        }
    }
}

impl fmt::Display for PropertyPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PropertyPath::Link(iri) => write!(f, "<{iri}>"),
            PropertyPath::Inverse(p) => write!(f, "^({p})"),
            PropertyPath::Alternative(a, b) => write!(f, "({a} | {b})"),
            PropertyPath::Sequence(a, b) => write!(f, "({a} / {b})"),
            PropertyPath::OneOrMore(p) => write!(f, "({p})+"),
            PropertyPath::ZeroOrOne(p) => write!(f, "({p})?"),
            PropertyPath::ZeroOrMore(p) => write!(f, "({p})*"),
            PropertyPath::NegatedSet { forward, backward } => {
                write!(f, "!(")?;
                let mut first = true;
                for p in forward {
                    if !first {
                        write!(f, " | ")?;
                    }
                    write!(f, "<{p}>")?;
                    first = false;
                }
                for p in backward {
                    if !first {
                        write!(f, " | ")?;
                    }
                    write!(f, "^<{p}>")?;
                    first = false;
                }
                write!(f, ")")
            }
            PropertyPath::Exactly(p, n) => write!(f, "({p}){{{n}}}"),
            PropertyPath::AtLeast(p, n) => write!(f, "({p}){{{n},}}"),
            PropertyPath::Between(p, n, m) => write!(f, "({p}){{{n},{m}}}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link(s: &str) -> PropertyPath {
        PropertyPath::link(s)
    }

    #[test]
    fn recursive_detection() {
        assert!(!link("p").is_recursive());
        assert!(PropertyPath::OneOrMore(Box::new(link("p"))).is_recursive());
        assert!(PropertyPath::Sequence(
            Box::new(link("a")),
            Box::new(PropertyPath::ZeroOrMore(Box::new(link("b"))))
        )
        .is_recursive());
        assert!(!PropertyPath::ZeroOrOne(Box::new(link("p"))).is_recursive());
        assert!(PropertyPath::AtLeast(Box::new(link("p")), 2).is_recursive());
        assert!(!PropertyPath::Between(Box::new(link("p")), 0, 3).is_recursive());
    }

    #[test]
    fn zero_matching() {
        assert!(PropertyPath::ZeroOrOne(Box::new(link("p"))).matches_zero());
        assert!(PropertyPath::ZeroOrMore(Box::new(link("p"))).matches_zero());
        assert!(PropertyPath::Between(Box::new(link("p")), 0, 2).matches_zero());
        assert!(!PropertyPath::OneOrMore(Box::new(link("p"))).matches_zero());
        assert!(!link("p").matches_zero());
        // seq of two zero-matching paths matches zero
        assert!(PropertyPath::Sequence(
            Box::new(PropertyPath::ZeroOrOne(Box::new(link("a")))),
            Box::new(PropertyPath::ZeroOrMore(Box::new(link("b"))))
        )
        .matches_zero());
    }

    #[test]
    fn display() {
        let p = PropertyPath::Alternative(
            Box::new(link("a")),
            Box::new(PropertyPath::Inverse(Box::new(link("b")))),
        );
        assert_eq!(p.to_string(), "(<a> | ^(<b>))");
        let n = PropertyPath::NegatedSet {
            forward: vec!["a".into()],
            backward: vec!["b".into()],
        };
        assert_eq!(n.to_string(), "!(<a> | ^<b>)");
    }
}
