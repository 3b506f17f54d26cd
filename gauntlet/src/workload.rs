//! The four workloads: what data each loads and which requests it issues.
//! Everything here is a pure function of `--seed`.

use std::borrow::Cow;
use std::collections::HashMap;

use sparqlog_benchdata::{gmark, sp2bench};

use crate::mix::{self, Domain, MixStream};
use crate::oracle::Format;

pub const NAMES: [&str; 4] = ["sp2b_suite", "gmark_paths", "http_mix", "churn_mix"];

/// One line per workload on why it exists (`BENCHMARK.json`'s `why`).
pub const WHY: [&str; 4] = [
    "SP2Bench's 17 queries in-process: non-recursive joins, OPTIONAL, UNION, FILTER, so join kernels and planner do the work; recursion, HTTP and commits do none",
    "gMark's 50 recursive path queries in-process: fixpoint rounds, dedup and index builds dominate and three classes return 1e5 rows, so extraction and serialization show",
    "query-log mix over keep-alive HTTP, every text repeated and short: per-request fixed cost (HTTP, cache hit, snapshot, overlay, serialize) is the bill; kernels are not",
    "the same mix with a never-repeated text every 8 ms and a commit every 250 ms: translation-cache misses (parse, translate, magic, plan on the hot path) and a moving snapshot",
];

/// How requests reach the engine.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Transport {
    /// `Snapshot::execute` + the wire-format writer, one closed-loop caller.
    InProcess,
    /// `SparqlServer` on loopback, two keep-alive connections.
    Http,
}

/// A distinct query template. Latencies, pinned signatures and per-layer
/// numbers are all kept per class.
pub struct Class {
    pub name: String,
    /// Suites only: the class runs on every `every`-th pass.
    pub every: usize,
}

/// A distinct query text.
pub struct Text {
    pub class: usize,
    pub sparql: String,
}

#[derive(Clone, Copy)]
pub struct Request {
    pub text: usize,
    pub format: Format,
}

pub struct Workload {
    pub name: &'static str,
    pub transport: Transport,
    pub classes: Vec<Class>,
    pub texts: Vec<Text>,
    /// Suites: one pass. Mixes: the long shuffled list, replayed in order.
    pub requests: Vec<Request>,
    /// `churn_mix` only: on a schedule a read carries a unique `LIMIT`, and
    /// on another a commit takes its place. Its classes are the mix's
    /// templates, the same templates again for the never-repeated reads
    /// ([`Workload::fresh_class`]), then [`COMMIT_CLASSES`].
    pub churn: bool,
    data: fn(u64) -> sparqlog_rdf::Graph,
}

// Sizes. The issue sized these for 30-40 s windows; the benchmark contract
// allows about 20 s per run, so the recursive suite and the served graph are
// scaled to keep >= 10 samples per class inside the window.
const SP2B_TRIPLES: usize = 10_000;
/// SP2Bench Q5a is quadratic (0.8 s at this size against ~0.14 s for the
/// other sixteen together); it runs on every fifth pass so that it weighs
/// about half of the window instead of six sevenths.
const SP2B_HEAVY: (&str, usize) = ("q13", 5);
const GMARK_SUITE_NODES: usize = 1_200;
const GMARK_SERVED_NODES: usize = 6_000;
/// Length of the mix's request list; the distinct texts among them (about
/// 1 400) stay under the engine's 4 096-entry translation cache.
const MIX_REQUESTS: usize = 24_000;

impl Workload {
    pub fn build(name: &str, seed: u64) -> Option<Workload> {
        Some(match name {
            "sp2b_suite" => suite(
                "sp2b_suite",
                sp2bench::queries()
                    .into_iter()
                    .map(|(id, q)| (id.to_string(), q))
                    .collect(),
                |seed| {
                    sp2bench::generate(sp2bench::Sp2bConfig {
                        target_triples: SP2B_TRIPLES,
                        seed,
                    })
                },
            ),
            "gmark_paths" => suite(
                "gmark_paths",
                gmark::queries(gmark::Scenario::Social)
                    .into_iter()
                    .map(|(id, q)| (format!("g{id}"), q))
                    .collect(),
                |seed| social(GMARK_SUITE_NODES, seed),
            ),
            "http_mix" => mixed("http_mix", seed, false),
            "churn_mix" => mixed("churn_mix", seed, true),
            _ => return None,
        })
    }

    /// The dataset as N-Triples text plus its triple count.
    pub fn generate(&self, seed: u64) -> (String, usize) {
        let graph = (self.data)(seed);
        (sparqlog_rdf::ntriples::serialize(&graph), graph.len())
    }

    /// `churn_mix`: the class a read of template `class` is counted under
    /// when its text has never been seen.
    pub fn fresh_class(&self, class: usize) -> usize {
        class + mix::class_names().len()
    }

    /// `churn_mix`: the class of the `k`-th entry of [`COMMIT_CLASSES`].
    pub fn commit_class(&self, k: usize) -> usize {
        self.classes.len() - COMMIT_CLASSES.len() + k
    }

    /// Text `text` in the form whose cost the traced run splits into
    /// layers: itself, or for `churn_mix` its `n`-th never-repeated variant.
    pub fn issued(&self, text: usize, n: u64) -> Cow<'_, str> {
        match self.churn {
            true => Cow::Owned(unique_variant(&self.texts[text].sparql, n)),
            false => Cow::Borrowed(&self.texts[text].sparql),
        }
    }

    /// Share of the request list each class accounts for (sums to 1).
    pub fn class_shares(&self) -> Vec<f64> {
        let mut weight = vec![0.0; self.classes.len()];
        for r in &self.requests {
            let class = self.texts[r.text].class;
            weight[class] += 1.0 / self.classes[class].every as f64;
        }
        let total: f64 = weight.iter().sum();
        weight.iter().map(|w| w / total).collect()
    }
}

fn social(nodes: usize, seed: u64) -> sparqlog_rdf::Graph {
    gmark::generate(gmark::GmarkConfig {
        scenario: gmark::Scenario::Social,
        nodes,
        seed,
    })
}

fn suite(
    name: &'static str,
    queries: Vec<(String, String)>,
    data: fn(u64) -> sparqlog_rdf::Graph,
) -> Workload {
    let classes = queries
        .iter()
        .map(|(id, _)| Class {
            every: if id == SP2B_HEAVY.0 { SP2B_HEAVY.1 } else { 1 },
            name: id.clone(),
        })
        .collect();
    let texts: Vec<Text> = queries
        .into_iter()
        .enumerate()
        .map(|(class, (_, sparql))| Text { class, sparql })
        .collect();
    let requests = (0..texts.len())
        .map(|text| Request {
            text,
            format: Format::Json,
        })
        .collect();
    Workload {
        name,
        transport: Transport::InProcess,
        classes,
        texts,
        requests,
        churn: false,
        data,
    }
}

/// `churn_mix`'s three commit classes, the last of its classes.
pub const COMMIT_CLASSES: [&str; 3] = ["upd_insert10", "upd_delete10", "upd_where"];

fn mixed(name: &'static str, seed: u64, churn: bool) -> Workload {
    let templates = mix::class_names();
    let mut names: Vec<String> = templates.iter().map(|n| n.to_string()).collect();
    if churn {
        names.extend(templates.iter().map(|n| format!("{n}.new")));
        names.extend(COMMIT_CLASSES.iter().map(|n| n.to_string()));
    }
    let classes = names
        .into_iter()
        .map(|name| Class { name, every: 1 })
        .collect();
    let mut texts = Vec::new();
    let mut index: HashMap<String, usize> = HashMap::new();
    let mut requests = Vec::with_capacity(MIX_REQUESTS);
    // The two mixes draw from different streams of one seed, so a text
    // cached by one tells nothing about the other.
    let stream_seed = seed.wrapping_mul(2).wrapping_add(u64::from(churn));
    for drawn in MixStream::new(Domain::social(GMARK_SERVED_NODES), stream_seed).take(MIX_REQUESTS)
    {
        let body = match churn {
            true => drawn.body.strip_suffix(" LIMIT 10").unwrap_or(&drawn.body),
            false => &drawn.body,
        };
        let sparql = format!("{}{body}", mix::PROLOGUE);
        let text = *index.entry(sparql.clone()).or_insert_with(|| {
            texts.push(Text {
                class: drawn.class,
                sparql,
            });
            texts.len() - 1
        });
        requests.push(Request {
            text,
            format: drawn.format,
        });
    }
    Workload {
        name,
        transport: Transport::Http,
        classes,
        texts,
        requests,
        churn,
        data: |seed| social(GMARK_SERVED_NODES, seed),
    }
}

/// `churn_mix`'s never-repeated reads: the base text made unique without
/// changing its result, by a LIMIT far above any result size (the top-k
/// class drops its own `LIMIT 10` in this workload, so it sorts and returns
/// all rows). The text has never been seen, so parse, translation, magic
/// sets and planning are all on the hot path.
pub fn unique_variant(base: &str, n: u64) -> String {
    format!("{base} LIMIT {}", 1_000_000 + n)
}
