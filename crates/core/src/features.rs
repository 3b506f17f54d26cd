//! The SPARQL feature matrix of the paper's Table 1: each selected
//! feature with its real-world usage (Bonifati et al.'s query-log study)
//! and its support status in this implementation.
//!
//! Regenerated by `cargo run -p sparqlog-bench --bin table1_features`.

/// One row of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Feature {
    /// The "General Feature" column.
    pub general: &'static str,
    /// The "Specific Feature" column.
    pub specific: &'static str,
    /// The "Feature Usage" column (percentages from Bonifati et al.).
    pub usage: &'static str,
    /// The "Status" column: supported by this implementation?
    pub supported: bool,
}

/// The feature matrix, row for row as in the paper's Table 1.
pub fn feature_table() -> Vec<Feature> {
    use self::row as r;
    vec![
        r(
            "Terms",
            "IRIs, Literals, Blank nodes",
            "Basic Feature",
            true,
        ),
        r("Semantics", "Sets, Bags", "Basic Feature", true),
        r("Graph patterns", "Triple pattern", "Basic Feature", true),
        r("Graph patterns", "AND / JOIN", "28.25%", true),
        r("Graph patterns", "OPTIONAL", "16.21%", true),
        r("Graph patterns", "UNION", "18.63%", true),
        r("Graph patterns", "GROUP Graph Pattern", "< 1%", false),
        r(
            "Filter constraints",
            "Equality / Inequality",
            "40.15%",
            true,
        ),
        r("Filter constraints", "Arithmetic Comparison", "", true),
        r(
            "Filter constraints",
            "bound, isIRI, isBlank, isLiteral",
            "",
            true,
        ),
        r("Filter constraints", "Regex", "", true),
        r("Filter constraints", "AND, OR, NOT", "", true),
        r("Query forms", "SELECT", "87.97%", true),
        r("Query forms", "ASK", "4.97%", true),
        r("Query forms", "CONSTRUCT", "4.49%", true),
        r("Query forms", "DESCRIBE", "2.47%", true),
        r("Solution modifiers", "ORDER BY", "2.06%", true),
        r("Solution modifiers", "DISTINCT", "21.72%", true),
        r("Solution modifiers", "LIMIT", "17.00%", true),
        r("Solution modifiers", "OFFSET", "6.15%", true),
        r("RDF datasets", "GRAPH ?x { ... }", "2.71%", true),
        r("RDF datasets", "FROM (NAMED)", "Unknown", false),
        r("Negation", "MINUS", "1.36%", true),
        r("Negation", "FILTER NOT EXISTS", "1.65%", false),
        r("Property paths", "LinkPath (X exp Y)", "< 1%", true),
        r("Property paths", "InversePath (^exp)", "< 1%", true),
        r("Property paths", "SequencePath (exp1 / exp2)", "< 1%", true),
        r(
            "Property paths",
            "AlternativePath (exp1 | exp2)",
            "< 1%",
            true,
        ),
        r("Property paths", "ZeroOrMorePath (exp*)", "< 1%", true),
        r("Property paths", "OneOrMorePath (exp+)", "< 1%", true),
        r("Property paths", "ZeroOrOnePath (expr?)", "< 1%", true),
        r("Property paths", "NegatedPropertySet (!expr)", "< 1%", true),
        r("Assignment", "BIND", "< 1%", false),
        r("Assignment", "VALUES", "< 1%", false),
        r("Aggregates", "GROUP BY", "< 1%", true),
        r("Aggregates", "HAVING", "< 1%", false),
        r("Sub-Queries", "Sub-Select Graph Pattern", "< 1%", false),
        r("Sub-Queries", "FILTER EXISTS", "< 1%", false),
        r("Filter functions", "Coalesce", "Unknown", false),
        r("Filter functions", "IN / NOT IN", "Unknown", false),
    ]
}

const fn row(
    general: &'static str,
    specific: &'static str,
    usage: &'static str,
    supported: bool,
) -> Feature {
    Feature {
        general,
        specific,
        usage,
        supported,
    }
}

/// Renders the table in the paper's layout.
pub fn render_table1() -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<20} {:<36} {:<14} {}\n",
        "General Feature", "Specific Feature", "Feature Usage", "Status"
    ));
    out.push_str(&"-".repeat(80));
    out.push('\n');
    for f in feature_table() {
        out.push_str(&format!(
            "{:<20} {:<36} {:<14} {}\n",
            f.general,
            f.specific,
            f.usage,
            if f.supported { "yes" } else { "no" }
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Store;

    #[test]
    fn matrix_matches_paper_counts() {
        let t = feature_table();
        assert_eq!(t.len(), 40);
        let supported = t.iter().filter(|f| f.supported).count();
        // Paper Table 1 has 28 check marks; this implementation adds
        // CONSTRUCT and DESCRIBE on top (30).
        assert_eq!(supported, 30);
        for form in ["CONSTRUCT", "DESCRIBE"] {
            assert!(
                t.iter().any(|f| f.specific == form && f.supported),
                "{form} row must be flipped to supported"
            );
        }
    }

    /// The claimed ✓/✗ statuses must agree with the parser/translator.
    #[test]
    fn claimed_support_is_real() {
        let engine = Store::new();
        engine
            .load_turtle("@prefix ex: <http://e/> . ex:a ex:p ex:b .")
            .unwrap();
        // A representative query per supported feature class.
        for q in [
            "SELECT ?s WHERE { ?s ?p ?o }",
            "SELECT ?s WHERE { ?s ?p ?o . ?o ?q ?z }",
            "SELECT ?s WHERE { ?s ?p ?o OPTIONAL { ?o ?q ?z } }",
            "SELECT ?s WHERE { { ?s ?p ?o } UNION { ?o ?p ?s } }",
            "SELECT ?s WHERE { ?s ?p ?o FILTER (?s = ?o || !ISBLANK(?s)) }",
            "ASK { ?s ?p ?o }",
            "SELECT DISTINCT ?s WHERE { ?s ?p ?o } ORDER BY ?s LIMIT 2 OFFSET 1",
            "SELECT ?g WHERE { GRAPH ?g { ?s ?p ?o } }",
            "SELECT ?s WHERE { ?s ?p ?o MINUS { ?s ?p ?o } }",
            "PREFIX ex: <http://e/> SELECT ?s WHERE { ?s ex:p+ ?o }",
            "PREFIX ex: <http://e/> SELECT ?s WHERE { ?s (ex:p|^ex:p)* ?o }",
            "PREFIX ex: <http://e/> SELECT ?s WHERE { ?s !(ex:q) ?o }",
            "SELECT ?s (COUNT(?o) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?s",
            // The query-form rows newly flipped to supported.
            "CONSTRUCT { ?s ?p ?o } WHERE { ?s ?p ?o }",
            "DESCRIBE <http://e/a>",
        ] {
            engine.execute(q).unwrap_or_else(|e| panic!("{q}: {e}"));
        }
        // The graph-producing forms actually produce graphs.
        let g = engine
            .execute("PREFIX ex: <http://e/> CONSTRUCT { ?s ex:copied ?o } WHERE { ?s ex:p ?o }")
            .unwrap();
        assert_eq!(g.graph().expect("CONSTRUCT yields a graph").len(), 1);
        let g = engine.execute("DESCRIBE <http://e/a>").unwrap();
        assert_eq!(g.graph().expect("DESCRIBE yields a graph").len(), 1);
        // Representative unsupported features report `unsupported`, with
        // the feature name carried structurally.
        for (q, feature) in [
            (
                "SELECT ?s WHERE { ?s ?p ?o FILTER NOT EXISTS { ?s ?p ?o } }",
                "FILTER NOT EXISTS",
            ),
            ("SELECT ?s WHERE { BIND(1 AS ?s) }", "BIND"),
            ("SELECT ?s WHERE { VALUES ?s { 1 } }", "VALUES"),
        ] {
            let err = engine.execute(q).unwrap_err();
            assert!(err.is_unsupported(), "{q}: {err}");
            assert_eq!(err.unsupported_feature(), Some(feature), "{q}");
        }
    }
}
