//! The query-log-shaped endpoint mix over the gMark social graph.
//!
//! Shape follows Bonifati et al., *An Analytical Study of Large SPARQL
//! Query Logs*: overwhelmingly 1-3-pattern star/chain SELECT/ASK, a thin
//! tail of OPTIONAL/UNION/FILTER and property paths, and heavy repetition
//! (constants are Zipf(1) over a small active set, so texts recur).

use crate::oracle::Format;
use crate::util::{Rng, Zipf};

/// Entity counts of `gmark::generate{Social, nodes}` (mirrors the
/// generator's own derivation, so every constant names an existing node).
#[derive(Clone, Copy)]
pub struct Domain {
    pub persons: usize,
    pub posts: usize,
    pub companies: usize,
    pub cities: usize,
    pub tags: usize,
}

impl Domain {
    pub fn social(nodes: usize) -> Self {
        let companies = (nodes / 50).max(2);
        Domain {
            persons: nodes,
            posts: nodes / 2,
            companies,
            cities: (companies / 3).max(2),
            tags: 40,
        }
    }
}

/// Zipf samplers over the active set of each entity kind. Ranks are
/// scattered over the id space so hot persons sit in different communities.
struct Constants {
    domain: Domain,
    person: Zipf,
    post: Zipf,
    company: Zipf,
    city: Zipf,
    tag: Zipf,
    second: Zipf,
}

const ACTIVE_PERSONS: usize = 80;
const ACTIVE_POSTS: usize = 60;
/// Domain of the second constant of two-constant templates, kept small so
/// the number of distinct texts stays near 1 300.
const ACTIVE_SECOND: usize = 6;

impl Constants {
    fn new(domain: Domain) -> Self {
        Constants {
            domain,
            person: Zipf::new(ACTIVE_PERSONS.min(domain.persons)),
            post: Zipf::new(ACTIVE_POSTS.min(domain.posts)),
            company: Zipf::new(domain.companies.min(40)),
            city: Zipf::new(domain.cities),
            tag: Zipf::new(domain.tags),
            second: Zipf::new(ACTIVE_SECOND),
        }
    }

    fn person(&self, rng: &mut Rng) -> String {
        format!(
            "g:person{}",
            self.person.draw(rng) * 47 % self.domain.persons
        )
    }

    fn post(&self, rng: &mut Rng) -> String {
        format!("g:post{}", self.post.draw(rng) * 31 % self.domain.posts)
    }

    fn company(&self, rng: &mut Rng) -> String {
        format!("g:company{}", self.company.draw(rng))
    }

    fn city(&self, rng: &mut Rng) -> String {
        // Deep cities have the longest `partOf` chains above them.
        format!("g:city{}", self.domain.cities - 1 - self.city.draw(rng))
    }

    fn tag(&self, rng: &mut Rng) -> String {
        format!("g:tag{}", self.tag.draw(rng))
    }

    /// A second constant of `kind` for a template that already has one.
    fn second(&self, kind: &str, rng: &mut Rng) -> String {
        format!("g:{kind}{}", self.second.draw(rng))
    }
}

type Build = fn(&Constants, &mut Rng) -> String;

/// `(class name, weight in permille, body builder)`. The body is what
/// follows the prologue; SELECT bodies carry no LIMIT unless the class is
/// about one, so `churn_mix` can append a unique, result-preserving LIMIT.
const TEMPLATES: &[(&str, u32, Build)] = &[
    // 88 %: 1-3-pattern stars and chains.
    ("p1_out", 200, |c, r| {
        format!("SELECT ?o WHERE {{ {} g:knows ?o }}", c.person(r))
    }),
    ("p1_in", 100, |c, r| {
        format!("SELECT ?s WHERE {{ ?s g:worksAt {} }}", c.company(r))
    }),
    ("star2", 180, |c, r| {
        let p = c.person(r);
        format!("SELECT ?c ?w WHERE {{ {p} g:livesIn ?c . {p} g:worksAt ?w }}")
    }),
    ("star3", 80, |c, r| {
        let p = c.post(r);
        format!(
            "SELECT ?a ?t ?r WHERE {{ {p} g:hasCreator ?a . {p} g:hasTag ?t . {p} g:replyOf ?r }}"
        )
    }),
    ("chain2", 140, |c, r| {
        format!(
            "SELECT ?w WHERE {{ {} g:knows ?y . ?y g:worksAt ?w }}",
            c.person(r)
        )
    }),
    ("chain3", 60, |c, r| {
        format!(
            "SELECT ?c WHERE {{ {} g:worksAt ?w . ?w g:locatedIn ?l . ?l g:partOf ?c }}",
            c.person(r)
        )
    }),
    ("ask1", 70, |c, r| {
        format!(
            "ASK {{ {} g:livesIn {} }}",
            c.person(r),
            c.second("city", r)
        )
    }),
    ("ask2", 50, |c, r| {
        format!(
            "ASK {{ {} g:likes ?p . ?p g:hasTag {} }}",
            c.person(r),
            c.second("tag", r)
        )
    }),
    // 6 %: OPTIONAL / UNION / FILTER.
    ("optional", 20, |c, r| {
        let p = c.person(r);
        format!("SELECT ?w ?l WHERE {{ {p} g:worksAt ?w OPTIONAL {{ {p} g:likes ?l }} }}")
    }),
    ("union", 20, |c, r| {
        let p = c.person(r);
        format!("SELECT ?x WHERE {{ {{ {p} g:knows ?x }} UNION {{ {p} g:follows ?x }} }}")
    }),
    ("filter", 20, |c, r| {
        format!(
            "SELECT ?y WHERE {{ {} g:knows ?y . FILTER (?y != {}) }}",
            c.person(r),
            c.second("person", r)
        )
    }),
    // 4 %: bound-endpoint property paths.
    ("path_knows", 25, |c, r| {
        format!("SELECT ?y WHERE {{ {} g:knows+ ?y }}", c.person(r))
    }),
    ("path_partof", 15, |c, r| {
        format!("SELECT ?c WHERE {{ {} g:partOf+ ?c }}", c.city(r))
    }),
    // 2 %: top-k.
    ("topk", 20, |c, r| {
        format!(
            "SELECT ?p WHERE {{ ?p g:hasTag {} }} ORDER BY ?p LIMIT 10",
            c.tag(r)
        )
    }),
];

pub const PROLOGUE: &str = "PREFIX g: <http://example.org/gMark/>\n";

pub fn class_names() -> Vec<&'static str> {
    TEMPLATES.iter().map(|t| t.0).collect()
}

/// One drawn request: its class, the query text without prologue, and the
/// format its `Accept` header asks for (70 % JSON, 20 % TSV, 10 % CSV).
pub struct Drawn {
    pub class: usize,
    pub body: String,
    pub format: Format,
}

/// An endless, seed-determined stream of requests in the mix's shape.
pub struct MixStream {
    constants: Constants,
    rng: Rng,
}

impl MixStream {
    pub fn new(domain: Domain, seed: u64) -> Self {
        MixStream {
            constants: Constants::new(domain),
            rng: Rng::new(seed),
        }
    }
}

impl Iterator for MixStream {
    type Item = Drawn;

    fn next(&mut self) -> Option<Drawn> {
        let mut pick = self.rng.below(1000) as u32;
        let class = TEMPLATES
            .iter()
            .position(|t| {
                let hit = pick < t.1;
                pick = pick.saturating_sub(t.1);
                hit
            })
            .expect("template weights sum to 1000");
        let body = TEMPLATES[class].2(&self.constants, &mut self.rng);
        let format = match self.rng.below(10) {
            0..=6 => Format::Json,
            7..=8 => Format::Tsv,
            _ => Format::Csv,
        };
        Some(Drawn {
            class,
            body,
            format,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weights_sum_to_one() {
        assert_eq!(TEMPLATES.iter().map(|t| t.1).sum::<u32>(), 1000);
    }

    #[test]
    fn stream_is_a_function_of_the_seed() {
        let take = |seed| -> Vec<String> {
            MixStream::new(Domain::social(600), seed)
                .take(50)
                .map(|d| d.body)
                .collect()
        };
        assert_eq!(take(7), take(7));
        assert_ne!(take(7), take(8));
    }
}
