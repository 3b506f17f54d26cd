//! A gMark-like workload: schema-driven random graph instances and
//! path-query workloads (Bagan et al., ICDE'17).
//!
//! gMark is the paper's vehicle for evaluating *recursive* property paths
//! (§6.1: "no existing benchmark covers recursive property paths"). Two
//! scenarios are generated, mirroring the paper's demo configurations:
//!
//! * **social** — persons in communities with cyclic `knows`/`follows`
//!   relations, posts, tags, companies and cities (the paper's instance
//!   has 226k triples / 27 predicates; the default here is laptop-scale),
//! * **test** — an abstract 4-predicate graph (the paper's: 78k triples /
//!   4 predicates).
//!
//! Each scenario comes with 50 deterministic queries that sweep the
//! difficulty spectrum the paper observes: bound-endpoint paths (fast
//! everywhere), single two-variable closures (unsupported by Virtuoso),
//! and joins/sequences of closures (where per-binding evaluators like
//! Fuseki time out while the Datalog translation finishes).

use crate::rng::StdRng;
use sparqlog_rdf::{Graph, Term, Triple};

/// The two demo scenarios.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    Test,
    Social,
}

/// Generator configuration.
#[derive(Debug, Clone, Copy)]
pub struct GmarkConfig {
    pub scenario: Scenario,
    /// Number of primary nodes (persons / plain nodes).
    pub nodes: usize,
    pub seed: u64,
}

impl GmarkConfig {
    /// The laptop-scale defaults.
    pub fn default_for(scenario: Scenario) -> Self {
        match scenario {
            // ~8 triples per person.
            Scenario::Social => GmarkConfig {
                scenario,
                nodes: 900,
                seed: 0x50c1a1,
            },
            // ~4 triples per node.
            Scenario::Test => GmarkConfig {
                scenario,
                nodes: 1100,
                seed: 0x7e57,
            },
        }
    }
}

const NS: &str = "http://example.org/gMark/";

fn n(kind: &str, i: usize) -> Term {
    Term::iri(format!("{NS}{kind}{i}"))
}

fn p(name: &str) -> Term {
    Term::iri(format!("{NS}{name}"))
}

/// Generates a graph instance.
pub fn generate(config: GmarkConfig) -> Graph {
    match config.scenario {
        Scenario::Social => generate_social(config),
        Scenario::Test => generate_test(config),
    }
}

/// Social scenario: communities with cyclic `knows` graphs, a sparse
/// global `follows` forest, posts/tags, companies/cities.
fn generate_social(config: GmarkConfig) -> Graph {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut g = Graph::new();
    let persons = config.nodes;
    let community = 80usize;
    let posts = persons / 2;
    let companies = (persons / 50).max(2);
    let cities = (companies / 3).max(2);
    let tags = 40;

    for i in 0..persons {
        let me = n("person", i);
        // `knows`: 2 edges inside the community ring (guaranteeing cycles)
        // plus an occasional long-range shortcut.
        let base = (i / community) * community;
        let within = |rng: &mut StdRng| base + (rng.gen_range(0..community)) % persons;
        g.insert(Triple::new(
            me.clone(),
            p("knows"),
            n(
                "person",
                (base + (i - base + 1) % community).min(persons - 1),
            ),
        ));
        g.insert(Triple::new(
            me.clone(),
            p("knows"),
            n("person", within(&mut rng).min(persons - 1)),
        ));
        // `follows`: a forest *within* the community (acyclic). Keeping
        // both relations community-local bounds every closure by the
        // community size, so the workload stays tractable at any scale.
        if i > base {
            g.insert(Triple::new(
                me.clone(),
                p("follows"),
                n("person", base + (i - base) / 2),
            ));
        }
        g.insert(Triple::new(
            me.clone(),
            p("worksAt"),
            n("company", rng.gen_range(0..companies)),
        ));
        g.insert(Triple::new(
            me.clone(),
            p("livesIn"),
            n("city", rng.gen_range(0..cities)),
        ));
    }
    for i in 0..posts {
        let post = n("post", i);
        g.insert(Triple::new(
            post.clone(),
            p("hasCreator"),
            n("person", rng.gen_range(0..persons)),
        ));
        g.insert(Triple::new(
            post.clone(),
            p("hasTag"),
            n("tag", rng.gen_range(0..tags as usize)),
        ));
        if i > 0 && rng.gen_ratio(2, 3) {
            // Reply trees.
            g.insert(Triple::new(
                post.clone(),
                p("replyOf"),
                n("post", rng.gen_range(0..i)),
            ));
        }
        if rng.gen_ratio(1, 2) {
            let person = n("person", rng.gen_range(0..persons));
            g.insert(Triple::new(person, p("likes"), post.clone()));
        }
    }
    for i in 0..companies {
        g.insert(Triple::new(
            n("company", i),
            p("locatedIn"),
            n("city", i % cities),
        ));
    }
    for i in 0..cities {
        if i > 0 {
            g.insert(Triple::new(n("city", i), p("partOf"), n("city", i / 2)));
        }
    }
    g
}

/// Test scenario: four abstract predicates `a`, `b`, `c`, `d` over plain
/// nodes — `a` forms block-local rings, `b` a binary forest, `c` random
/// sparse edges, `d` rare shortcuts.
fn generate_test(config: GmarkConfig) -> Graph {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut g = Graph::new();
    let nodes = config.nodes;
    let block = 60usize;
    for i in 0..nodes {
        let me = n("node", i);
        let base = (i / block) * block;
        g.insert(Triple::new(
            me.clone(),
            p("a"),
            n("node", (base + (i - base + 1) % block).min(nodes - 1)),
        ));
        if i > base {
            g.insert(Triple::new(
                me.clone(),
                p("b"),
                n("node", base + (i - base) / 2),
            ));
        }
        g.insert(Triple::new(
            me.clone(),
            p("c"),
            n("node", (base + rng.gen_range(0..block)).min(nodes - 1)),
        ));
        if rng.gen_ratio(1, 8) {
            g.insert(Triple::new(
                me.clone(),
                p("d"),
                n("node", rng.gen_range(0..nodes)),
            ));
        }
    }
    g
}

const SOCIAL_PROLOGUE: &str = "PREFIX g: <http://example.org/gMark/>\n";

/// The 50 queries of a scenario, as `(id, query)` pairs.
pub fn queries(scenario: Scenario) -> Vec<(String, String)> {
    let preds: &[&str] = match scenario {
        Scenario::Social => &["knows", "follows", "likes", "replyOf", "worksAt", "livesIn"],
        Scenario::Test => &["a", "b", "c", "d"],
    };
    // Forest-shaped relations (small reachability sets) used as the
    // starred inner path of the nested-closure templates.
    let forest: &str = match scenario {
        Scenario::Social => "follows",
        Scenario::Test => "b",
    };
    let node_kind = match scenario {
        Scenario::Social => "person",
        Scenario::Test => "node",
    };
    let seed = match scenario {
        Scenario::Social => 0x9001u64,
        Scenario::Test => 0x9002u64,
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(50);
    let pick = |rng: &mut StdRng| preds[rng.gen_range(0..preds.len())].to_string();

    for i in 0..50 {
        let p1 = pick(&mut rng);
        let mut p2 = pick(&mut rng);
        if p2 == p1 {
            p2 =
                preds[(preds.iter().position(|x| *x == p1).unwrap() + 1) % preds.len()].to_string();
        }
        let p3 = pick(&mut rng);
        let c1 = rng.gen_range(0..60);
        let body = match i % 10 {
            // Easy: bound-start recursive paths.
            0 => format!("g:{node_kind}{c1} g:{p1}+ ?y"),
            1 => format!("g:{node_kind}{c1} (g:{p1}/g:{p2})+ ?y"),
            2 => format!("?x g:{p1}* g:{node_kind}{c1}"),
            // Alternation and inverse under closure, bound start.
            3 => format!("g:{node_kind}{c1} (g:{p1}|g:{p2})+ ?y"),
            4 => format!("g:{node_kind}{c1} (^g:{p1}|g:{p2})* ?y"),
            // Two-variable closures (Virtuoso: unsupported).
            5 => format!("?x g:{p1}+ ?y"),
            6 => format!("?x g:{p1}+ ?y . ?y g:{p3} ?z"),
            // Hard: *nested* closures with two variables. Bottom-up
            // evaluation materialises the inner closure once; per-binding
            // top-down search recomputes it per visited node and per
            // source — the asymmetry behind Fuseki's gMark time-outs.
            7 => format!("?x (g:{p1}/g:{forest}*)+ ?y"),
            8 => format!("?x (g:{forest}*/g:{p1})+ ?y"),
            // Range quantifiers (the gMark extension).
            _ => format!("g:{node_kind}{c1} g:{p1}{{1,3}} ?y"),
        };
        // gMark's SPARQL export emits SELECT DISTINCT throughout.
        out.push((
            format!("{}", i),
            format!("{SOCIAL_PROLOGUE}SELECT DISTINCT * WHERE {{ {body} }}"),
        ));
    }
    out
}

/// Dataset statistics for the paper's Table 6.
pub fn stats(g: &Graph) -> (usize, usize) {
    let mut preds: Vec<&Term> = Vec::new();
    for (_, p, _) in g.iter() {
        if !preds.contains(&p) {
            preds.push(p);
        }
    }
    (g.len(), preds.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_generation() {
        let a = generate(GmarkConfig::default_for(Scenario::Test));
        let b = generate(GmarkConfig::default_for(Scenario::Test));
        assert_eq!(a.len(), b.len());
    }

    #[test]
    fn scenario_shapes() {
        let social = generate(GmarkConfig::default_for(Scenario::Social));
        let (triples, preds) = stats(&social);
        assert!(triples > 5_000, "social has {triples}");
        assert!(preds >= 9, "social predicates: {preds}");

        let test = generate(GmarkConfig::default_for(Scenario::Test));
        let (triples, preds) = stats(&test);
        assert!(triples > 3_000, "test has {triples}");
        assert_eq!(preds, 4, "test uses exactly 4 predicates");
    }

    #[test]
    fn fifty_parseable_queries_each() {
        for scenario in [Scenario::Social, Scenario::Test] {
            let qs = queries(scenario);
            assert_eq!(qs.len(), 50);
            for (id, q) in &qs {
                sparqlog_sparql::parse_query(q)
                    .unwrap_or_else(|e| panic!("{scenario:?} q{id}: {e}"));
            }
        }
    }

    #[test]
    fn query_mix_includes_two_var_recursion() {
        let qs = queries(Scenario::Social);
        let two_var = qs
            .iter()
            .filter(|(_, q)| q.contains("?x") && (q.contains("+ ?y") || q.contains("* ?m")))
            .count();
        assert!(
            two_var >= 15,
            "need two-variable recursive queries, got {two_var}"
        );
    }

    #[test]
    fn knows_relation_has_cycles() {
        // Community rings guarantee knows-cycles — the case Virtuoso's
        // one-or-more quirk gets wrong.
        let g = generate(GmarkConfig {
            scenario: Scenario::Social,
            nodes: 300,
            seed: 1,
        });
        // Follow the ring from person 0: must return to person 0.
        let knows = p("knows");
        let mut current = n("person", 0);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..400 {
            if !seen.insert(current.clone()) {
                return; // found a cycle
            }
            let next = g
                .triples_matching(Some(&current), Some(&knows), None)
                .map(|(_, _, o)| o.clone())
                .next()
                .expect("every person knows someone");
            current = next;
        }
        panic!("no cycle found in knows relation");
    }
}
