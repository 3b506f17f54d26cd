//! Shared measurement harness for the table/figure binaries.
//!
//! Methodology follows the paper (§6.3): per query the database is
//! deleted and reloaded ("we delete and reload the dataset each time"),
//! load and execution are timed separately, and the comparison metric is
//! load + execution ("Vadalog loads and queries the database
//! simultaneously; hence, to perform a fair comparison ... we compare
//! their total loading and querying time"). Timeouts default to a scaled
//! version of the paper's 900 s.

use std::time::{Duration, Instant};

use sparqlog::{Budget, Ontology, QueryResults, SparqLogError, Store};
use sparqlog_datalog::EvalOptions;
use sparqlog_rdf::Dataset;
use sparqlog_refengine::{EngineError, FusekiSim, StardogSim, VirtuosoSim};

/// How a query run ended, in the vocabulary of the paper's tables.
#[derive(Debug, Clone)]
pub enum Status {
    Ok(QueryResults),
    Timeout,
    NotSupported(String),
    Error(String),
}

impl Status {
    pub fn is_ok(&self) -> bool {
        matches!(self, Status::Ok(_))
    }

    pub fn result(&self) -> Option<&QueryResults> {
        match self {
            Status::Ok(r) => Some(r),
            _ => None,
        }
    }

    /// The short label used in the result tables.
    pub fn label(&self) -> &'static str {
        match self {
            Status::Ok(_) => "ok",
            Status::Timeout => "time-out",
            Status::NotSupported(_) => "not supported",
            Status::Error(_) => "error",
        }
    }
}

/// One measured run.
#[derive(Debug, Clone)]
pub struct Measurement {
    pub load: Duration,
    pub exec: Duration,
    pub status: Status,
}

impl Measurement {
    pub fn total(&self) -> Duration {
        self.load + self.exec
    }
}

/// The engines under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    SparqLog,
    Fuseki,
    Virtuoso,
    Stardog,
}

impl Engine {
    pub fn name(self) -> &'static str {
        match self {
            Engine::SparqLog => "SparqLog",
            Engine::Fuseki => "Fuseki",
            Engine::Virtuoso => "Virtuoso",
            Engine::Stardog => "Stardog",
        }
    }
}

/// Runs one query on one engine with a fresh database (the paper's
/// delete-and-reload methodology).
pub fn run(
    engine: Engine,
    dataset: &Dataset,
    ontology: Option<&Ontology>,
    query: &str,
    timeout: Duration,
) -> Measurement {
    match engine {
        Engine::SparqLog => run_sparqlog(dataset, ontology, query, timeout),
        Engine::Fuseki => run_ref(
            query,
            timeout,
            |ds| FusekiSim::new(ds).with_timeout(timeout),
            dataset,
        ),
        Engine::Virtuoso => run_ref(
            query,
            timeout,
            |ds| VirtuosoSim::new(ds).with_timeout(timeout),
            dataset,
        ),
        Engine::Stardog => {
            let onto_owned;
            let onto = match ontology {
                Some(o) => o,
                None => {
                    onto_owned = Ontology::new();
                    &onto_owned
                }
            };
            let start = Instant::now();
            let engine = StardogSim::new(dataset.clone(), onto).with_timeout(timeout);
            let load = start.elapsed();
            let start = Instant::now();
            let status = classify_ref(engine.execute(query));
            Measurement {
                load,
                exec: start.elapsed(),
                status,
            }
        }
    }
}

fn run_sparqlog(
    dataset: &Dataset,
    ontology: Option<&Ontology>,
    query: &str,
    timeout: Duration,
) -> Measurement {
    let options = EvalOptions {
        budget: Budget::new().with_timeout(timeout),
        ..Default::default()
    };
    let start = Instant::now();
    let engine = Store::with_options(options);
    let load_result = engine.load_dataset(dataset).and_then(|_| match ontology {
        Some(o) => engine.add_ontology(o).map(|_| ()),
        None => Ok(()),
    });
    let load = start.elapsed();
    if let Err(e) = load_result {
        return Measurement {
            load,
            exec: Duration::ZERO,
            status: classify_sl(Err(e)),
        };
    }
    let start = Instant::now();
    let status = classify_sl(engine.execute(query));
    Measurement {
        load,
        exec: start.elapsed(),
        status,
    }
}

fn run_ref<E>(
    query: &str,
    _timeout: Duration,
    build: impl FnOnce(Dataset) -> E,
    dataset: &Dataset,
) -> Measurement
where
    E: RefExec,
{
    let start = Instant::now();
    let engine = build(dataset.clone());
    let load = start.elapsed();
    let start = Instant::now();
    let status = classify_ref(engine.exec(query));
    Measurement {
        load,
        exec: start.elapsed(),
        status,
    }
}

trait RefExec {
    fn exec(&self, query: &str) -> Result<QueryResults, EngineError>;
}

impl RefExec for FusekiSim {
    fn exec(&self, query: &str) -> Result<QueryResults, EngineError> {
        self.execute(query)
    }
}

impl RefExec for VirtuosoSim {
    fn exec(&self, query: &str) -> Result<QueryResults, EngineError> {
        self.execute(query)
    }
}

fn classify_sl(r: Result<QueryResults, SparqLogError>) -> Status {
    match r {
        Ok(r) => Status::Ok(r),
        Err(e) if e.is_timeout() => Status::Timeout,
        Err(e) if e.is_unsupported() => Status::NotSupported(e.to_string()),
        Err(e) => Status::Error(e.to_string()),
    }
}

fn classify_ref(r: Result<QueryResults, EngineError>) -> Status {
    match r {
        Ok(r) => Status::Ok(r),
        Err(EngineError::Timeout) => Status::Timeout,
        Err(EngineError::NotSupported(m)) => Status::NotSupported(m),
        Err(EngineError::Malformed(m)) => Status::Error(m),
    }
}

/// Multiset equality of two results (the paper's comparison, D.2.2).
/// Graphs compare as triple sets with blank-node labels erased — the
/// same label-insensitivity the solution comparison applies.
pub fn results_equal(a: &QueryResults, b: &QueryResults) -> bool {
    match (a, b) {
        (QueryResults::Boolean(x), QueryResults::Boolean(y)) => x == y,
        (QueryResults::Solutions(x), QueryResults::Solutions(y)) => x.multiset_eq(y),
        (QueryResults::Graph(x), QueryResults::Graph(y)) => {
            canonical_triples(x) == canonical_triples(y)
        }
        _ => false,
    }
}

pub use sparqlog::canonical_triples;

/// The per-query timeout: `SPARQLOG_TIMEOUT_MS` env var, default 5000 ms
/// (a scaled version of the paper's 900 s budget).
pub fn timeout_from_env() -> Duration {
    let ms = std::env::var("SPARQLOG_TIMEOUT_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(5_000u64);
    Duration::from_millis(ms)
}

/// Dataset scale factor: `SPARQLOG_SCALE` env var (1.0 = the
/// generators' laptop-scale defaults in `sparqlog-benchdata`).
pub fn scale_from_env() -> f64 {
    std::env::var("SPARQLOG_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1.0)
}

/// Formats a duration in seconds with millisecond resolution.
pub fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}
