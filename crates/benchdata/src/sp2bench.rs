//! An SP²Bench-like workload: a scaled-down DBLP-style synthetic dataset
//! plus the 17 hand-crafted queries (Schmidt et al., "SP²Bench: A SPARQL
//! Performance Benchmark"), adapted to the feature subset both this
//! implementation and the paper support.
//!
//! The paper uses SP²Bench at 50k triples for its compliance runs (D.2.1)
//! and for the performance measurements of Figure 7 / Table 11. The query
//! mix reproduces the benchmark's character — computation-heavy joins
//! (q4), negation encoded via `OPTIONAL`+`!BOUND` (q6, q7), `UNION`
//! (q8, q9), `DISTINCT`, `ORDER BY`/`LIMIT`/`OFFSET` (q11) and `ASK`
//! forms (q12a/b/c as q15–q17).

use crate::rng::StdRng;
use sparqlog_rdf::vocab::rdf;
use sparqlog_rdf::{Graph, Term, Triple};

/// Namespaces of the SP²Bench vocabulary.
pub mod ns {
    pub const BENCH: &str = "http://localhost/vocabulary/bench/";
    pub const DC: &str = "http://purl.org/dc/elements/1.1/";
    pub const DCTERMS: &str = "http://purl.org/dc/terms/";
    pub const FOAF: &str = "http://xmlns.com/foaf/0.1/";
    pub const SWRC: &str = "http://swrc.ontoware.org/ontology#";
    pub const PERSON: &str = "http://localhost/persons/";
    pub const ARTICLE: &str = "http://localhost/articles/";
    pub const JOURNAL: &str = "http://localhost/journals/";
    pub const PROC: &str = "http://localhost/inproceedings/";
    pub const RDFS_SEE_ALSO: &str = "http://www.w3.org/2000/01/rdf-schema#seeAlso";
}

/// Generator configuration.
#[derive(Debug, Clone, Copy)]
pub struct Sp2bConfig {
    /// Approximate number of triples to generate.
    pub target_triples: usize,
    /// RNG seed (the generator is fully deterministic per seed).
    pub seed: u64,
}

impl Default for Sp2bConfig {
    fn default() -> Self {
        // The paper's compliance runs use a 50k-triple instance (D.2.1);
        // the default here is laptop-scale for fast test suites. Benches
        // pass an explicit size.
        Sp2bConfig {
            target_triples: 5_000,
            seed: 0x5eed_5b2b,
        }
    }
}

/// Generates the DBLP-like graph.
pub fn generate(config: Sp2bConfig) -> Graph {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut g = Graph::new();

    let iri = |ns: &str, local: String| Term::iri(format!("{ns}{local}"));
    let bench = |l: &str| Term::iri(format!("{}{}", ns::BENCH, l));
    let dc = |l: &str| Term::iri(format!("{}{}", ns::DC, l));
    let dcterms = |l: &str| Term::iri(format!("{}{}", ns::DCTERMS, l));
    let foaf = |l: &str| Term::iri(format!("{}{}", ns::FOAF, l));
    let swrc = |l: &str| Term::iri(format!("{}{}", ns::SWRC, l));
    let a = Term::iri(rdf::TYPE);

    // Scale: each article contributes ~10 triples.
    let n_articles = (config.target_triples / 10).max(20);
    let n_persons = (n_articles / 2).max(10);
    let n_journals = (n_articles / 15).max(3);
    let n_inproc = n_articles / 3;

    let first_names = [
        "Paul", "Ana", "Wei", "Noor", "Ivan", "Mika", "Lena", "Omar", "Rita", "Juan",
    ];
    let last_names = [
        "Erdoes", "Schmidt", "Garcia", "Chen", "Okafor", "Sato", "Novak", "Iqbal", "Haddad", "Lund",
    ];

    // Persons. Person 0 is always "Paul Erdoes" (q8/q10 target).
    let mut persons = Vec::with_capacity(n_persons);
    for i in 0..n_persons {
        let p = iri(ns::PERSON, format!("Person{i}"));
        let name = if i == 0 {
            "Paul Erdoes".to_string()
        } else {
            format!(
                "{} {}",
                first_names[rng.gen_range(0..first_names.len())],
                last_names[rng.gen_range(0..last_names.len())]
            )
        };
        g.insert(Triple::new(p.clone(), a.clone(), foaf("Person")));
        g.insert(Triple::new(p.clone(), foaf("name"), Term::literal(name)));
        persons.push(p);
    }

    // Journals: one volume per (journal series, year).
    let mut journals = Vec::with_capacity(n_journals);
    for i in 0..n_journals {
        let year = 1940 + (i as i64 % 60);
        let j = iri(ns::JOURNAL, format!("Journal{i}"));
        g.insert(Triple::new(j.clone(), a.clone(), bench("Journal")));
        g.insert(Triple::new(
            j.clone(),
            dc("title"),
            Term::literal(format!("Journal {} ({})", 1 + i / 60, year)),
        ));
        g.insert(Triple::new(
            j.clone(),
            dcterms("issued"),
            Term::integer(year),
        ));
        journals.push(j);
    }

    // Articles.
    for i in 0..n_articles {
        let art = iri(ns::ARTICLE, format!("Article{i}"));
        let year = 1940 + rng.gen_range(0..65) as i64;
        g.insert(Triple::new(art.clone(), a.clone(), bench("Article")));
        g.insert(Triple::new(
            art.clone(),
            dc("title"),
            Term::literal(format!("On the Complexity of Problem {i}")),
        ));
        g.insert(Triple::new(
            art.clone(),
            dcterms("issued"),
            Term::integer(year),
        ));
        g.insert(Triple::new(
            art.clone(),
            swrc("pages"),
            Term::integer(rng.gen_range(1..400i64)),
        ));
        let journal = &journals[rng.gen_range(0..journals.len())];
        g.insert(Triple::new(art.clone(), swrc("journal"), journal.clone()));
        // 1–3 creators; Person0 (Erdoes) co-authors ~5 % of articles.
        let n_creators = rng.gen_range(1..=3);
        for c in 0..n_creators {
            let p = if c == 0 && rng.gen_ratio(1, 20) {
                persons[0].clone()
            } else {
                persons[rng.gen_range(0..persons.len())].clone()
            };
            g.insert(Triple::new(art.clone(), dc("creator"), p));
        }
        if rng.gen_ratio(1, 2) {
            g.insert(Triple::new(
                art.clone(),
                bench("abstract"),
                Term::literal(format!("We study problem {i} in depth.")),
            ));
        }
        if rng.gen_ratio(1, 3) {
            g.insert(Triple::new(
                art.clone(),
                swrc("month"),
                Term::integer(rng.gen_range(1..=12i64)),
            ));
        }
        if rng.gen_ratio(1, 4) {
            g.insert(Triple::new(
                art.clone(),
                Term::iri(ns::RDFS_SEE_ALSO),
                Term::iri(format!("http://dblp.example.org/ref/{i}")),
            ));
        }
    }

    // Inproceedings (for the q2-style wide row and UNION queries).
    for i in 0..n_inproc {
        let ip = iri(ns::PROC, format!("Inproc{i}"));
        g.insert(Triple::new(ip.clone(), a.clone(), bench("Inproceedings")));
        g.insert(Triple::new(
            ip.clone(),
            dc("title"),
            Term::literal(format!("Workshop Notes {i}")),
        ));
        g.insert(Triple::new(
            ip.clone(),
            dcterms("issued"),
            Term::integer(1980 + rng.gen_range(0..25) as i64),
        ));
        let p = persons[rng.gen_range(0..persons.len())].clone();
        g.insert(Triple::new(ip.clone(), dc("creator"), p));
        if rng.gen_ratio(1, 3) {
            g.insert(Triple::new(
                ip.clone(),
                foaf("homepage"),
                Term::iri(format!("http://www.example.org/ws/{i}")),
            ));
        }
    }

    g
}

/// The common prologue shared by all queries.
pub const PROLOGUE: &str = r#"
PREFIX rdf:     <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
PREFIX rdfs:    <http://www.w3.org/2000/01/rdf-schema#>
PREFIX bench:   <http://localhost/vocabulary/bench/>
PREFIX dc:      <http://purl.org/dc/elements/1.1/>
PREFIX dcterms: <http://purl.org/dc/terms/>
PREFIX foaf:    <http://xmlns.com/foaf/0.1/>
PREFIX swrc:    <http://swrc.ontoware.org/ontology#>
PREFIX person:  <http://localhost/persons/>
"#;

/// The 17 SP²Bench-style queries (q1–q17). Each is `(id, query string)`.
pub fn queries() -> Vec<(&'static str, String)> {
    let q = |body: &str| format!("{PROLOGUE}\n{body}");
    vec![
        // q1: the year of "Journal 1 (1940)".
        (
            "q1",
            q(r#"SELECT ?yr WHERE {
            ?journal rdf:type bench:Journal .
            ?journal dc:title "Journal 1 (1940)" .
            ?journal dcterms:issued ?yr }"#),
        ),
        // q2: wide article rows with OPTIONAL abstract, ordered.
        (
            "q2",
            q(r#"SELECT ?inproc ?author ?title ?issued WHERE {
            ?inproc rdf:type bench:Inproceedings .
            ?inproc dc:creator ?author .
            ?inproc dc:title ?title .
            ?inproc dcterms:issued ?issued .
            OPTIONAL { ?inproc foaf:homepage ?hp }
            } ORDER BY ?issued"#),
        ),
        // q3a/b/c: articles having a given property.
        (
            "q3a",
            q(r#"SELECT ?article WHERE {
            ?article rdf:type bench:Article .
            ?article ?property ?value
            FILTER (?property = swrc:pages) }"#),
        ),
        (
            "q3b",
            q(r#"SELECT ?article WHERE {
            ?article rdf:type bench:Article .
            ?article ?property ?value
            FILTER (?property = swrc:month) }"#),
        ),
        (
            "q3c",
            q(r#"SELECT ?article WHERE {
            ?article rdf:type bench:Article .
            ?article ?property ?value
            FILTER (?property = swrc:isbn) }"#),
        ),
        // q4: pairs of articles in the same journal (heavy join).
        (
            "q4",
            q(r#"SELECT DISTINCT ?name1 ?name2 WHERE {
            ?article1 rdf:type bench:Article .
            ?article2 rdf:type bench:Article .
            ?article1 dc:creator ?author1 .
            ?author1 foaf:name ?name1 .
            ?article2 dc:creator ?author2 .
            ?author2 foaf:name ?name2 .
            ?article1 swrc:journal ?journal .
            ?article2 swrc:journal ?journal
            FILTER (?name1 < ?name2) }"#),
        ),
        // q6: publications without an abstract (negation via !BOUND).
        (
            "q6",
            q(r#"SELECT ?article ?title WHERE {
            ?article rdf:type bench:Article .
            ?article dc:title ?title .
            OPTIONAL { ?article bench:abstract ?abs }
            FILTER (!BOUND(?abs)) }"#),
        ),
        // q7: recent articles never referenced (seeAlso) — double optional.
        (
            "q7",
            q(r#"SELECT DISTINCT ?title WHERE {
            ?article rdf:type bench:Article .
            ?article dc:title ?title .
            ?article dcterms:issued ?yr
            OPTIONAL { ?article rdfs:seeAlso ?ref }
            FILTER (?yr > 2000 && !BOUND(?ref)) }"#),
        ),
        // q8: Erdős co-authors via UNION.
        (
            "q8",
            q(r#"SELECT DISTINCT ?name WHERE {
            { ?article dc:creator ?erdoes .
              ?erdoes foaf:name "Paul Erdoes" .
              ?article dc:creator ?author .
              ?author foaf:name ?name }
            UNION
            { ?article dc:creator ?erdoes .
              ?erdoes foaf:name "Paul Erdoes" .
              ?article dc:creator ?author2 .
              ?article2 dc:creator ?author2 .
              ?article2 dc:creator ?author .
              ?author foaf:name ?name } }"#),
        ),
        // q9: predicates around persons, UNION DISTINCT.
        (
            "q9",
            q(r#"SELECT DISTINCT ?predicate WHERE {
            { ?person rdf:type foaf:Person .
              ?subject ?predicate ?person }
            UNION
            { ?person rdf:type foaf:Person .
              ?person ?predicate ?object } }"#),
        ),
        // q10: all edges into Paul Erdoes.
        (
            "q10",
            q(r#"SELECT ?subject ?predicate WHERE {
            ?subject ?predicate person:Person0 }"#),
        ),
        // q11: seeAlso with ORDER BY / LIMIT / OFFSET.
        (
            "q11",
            q(r#"SELECT ?ee WHERE {
            ?publication rdfs:seeAlso ?ee
            } ORDER BY ?ee LIMIT 10 OFFSET 5"#),
        ),
        // q13/q14: the two Q5 variants — author names of article
        // creators, joined via FILTER equality (q13, SP²Bench Q5a) and
        // implicitly through a shared variable (q14, Q5b).
        (
            "q13",
            q(r#"SELECT DISTINCT ?person ?name WHERE {
            ?article rdf:type bench:Article .
            ?article dc:creator ?person .
            ?inproc rdf:type bench:Inproceedings .
            ?inproc dc:creator ?person2 .
            ?person foaf:name ?name .
            ?person2 foaf:name ?name2
            FILTER (?name = ?name2) }"#),
        ),
        (
            "q14",
            q(r#"SELECT DISTINCT ?person ?name WHERE {
            ?article rdf:type bench:Article .
            ?article dc:creator ?person .
            ?inproc rdf:type bench:Inproceedings .
            ?inproc dc:creator ?person .
            ?person foaf:name ?name }"#),
        ),
        // q15–q17: the ASK forms (SP²Bench q12a/b/c).
        (
            "q15",
            q(r#"ASK {
            ?article rdf:type bench:Article .
            ?article dcterms:issued 1940 }"#),
        ),
        (
            "q16",
            q(r#"ASK {
            ?erdoes foaf:name "Paul Erdoes" .
            ?article dc:creator ?erdoes }"#),
        ),
        ("q17", q(r#"ASK { person:JohnQPublic foaf:name ?name }"#)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = generate(Sp2bConfig::default());
        let b = generate(Sp2bConfig::default());
        assert_eq!(a.len(), b.len());
        for (s, p, o) in a.iter() {
            assert!(b.contains(&Triple::new(s.clone(), p.clone(), o.clone())));
        }
    }

    #[test]
    fn scale_is_respected() {
        let g = generate(Sp2bConfig {
            target_triples: 5_000,
            seed: 1,
        });
        assert!((3_000..8_000).contains(&g.len()), "got {} triples", g.len());
        let g2 = generate(Sp2bConfig {
            target_triples: 20_000,
            seed: 1,
        });
        assert!(g2.len() > 2 * g.len());
    }

    #[test]
    fn seventeen_parseable_queries() {
        let qs = queries();
        assert_eq!(qs.len(), 17);
        for (id, q) in qs {
            sparqlog_sparql::parse_query(&q).unwrap_or_else(|e| panic!("{id}: {e}"));
        }
    }

    #[test]
    fn erdoes_exists() {
        let g = generate(Sp2bConfig::default());
        assert!(g.contains(&Triple::new(
            Term::iri(format!("{}Person0", ns::PERSON)),
            Term::iri(format!("{}name", ns::FOAF)),
            Term::literal("Paul Erdoes"),
        )));
    }
}
