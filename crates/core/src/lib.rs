//! # SparqLog — SPARQL 1.1 evaluation via Warded Datalog±
//!
//! A from-scratch Rust reproduction of *SparqLog: A System for Efficient
//! Evaluation of SPARQL 1.1 Queries via Datalog* (Angles, Gottlob,
//! Pavlović, Pichler, Sallinger; VLDB 2023). This crate is the paper's
//! primary contribution: a complete translation engine from SPARQL 1.1
//! (under both bag and set semantics) to Warded Datalog±, evaluated on
//! the workspace's Vadalog-substitute engine
//! ([`sparqlog_datalog`]).
//!
//! The three translation methods of §4:
//!
//! * **T_D** ([`data_translation`]): RDF dataset → `triple`/`named`
//!   facts + the auxiliary `subjectOrObject` (compatibility, Def. A.2,
//!   is a compiled comparison, not a relation);
//! * **T_Q** ([`query_translation`]): SPARQL query → Datalog± rules,
//!   with Skolem tuple-IDs realising bag semantics and `Id = []`
//!   realising the set semantics of recursive property paths;
//! * **T_S** ([`solution`]): goal-predicate tuples → SPARQL solution
//!   multiset, applying solution modifiers.
//!
//! Ontological reasoning (RQ3) comes from [`ontology`]: RDFS/OWL 2 QL
//! axioms compiled to (possibly existential) rules over `triple/4` and
//! materialised at load time.
//!
//! [`Store`] is the one engine over this pipeline: loads and SPARQL 1.1
//! Update commit through it, and queries run against its cheap
//! `Arc`-shared [`Snapshot`]s — each evaluated in a private overlay with
//! a translation, magic-sets decision and physical plan cached per query
//! text (see [`store`] and [`serving`]).
//!
//! # Quick start
//!
//! ```
//! use sparqlog::Store;
//!
//! let store = Store::new();
//! store
//!     .load_turtle(
//!         r#"@prefix ex: <http://ex.org/> .
//!            ex:spain ex:borders ex:france .
//!            ex:france ex:borders ex:belgium .
//!            ex:france ex:borders ex:germany .
//!            ex:belgium ex:borders ex:germany .
//!            ex:germany ex:borders ex:austria ."#,
//!     )
//!     .unwrap();
//! // Figure 3 of the paper: countries reachable from Spain.
//! let result = store
//!     .execute(
//!         "PREFIX ex: <http://ex.org/>
//!          SELECT ?B WHERE { ?A ex:borders+ ?B . FILTER (?A = ex:spain) }",
//!     )
//!     .unwrap();
//! assert_eq!(result.len(), 4); // france, belgium, germany, austria
//! ```

#![warn(missing_docs)]

pub mod data_translation;
pub mod error;
pub mod expr_translation;
pub mod features;
pub(crate) mod metrics;
pub mod ontology;
pub mod query_translation;
pub mod results_io;
pub mod serving;
pub mod solution;
pub mod store;
pub mod subscribe;

pub use data_translation::{const_to_term, term_to_const};
pub use error::SparqLogError;
pub use ontology::{Axiom, Ontology};
pub use query_translation::{translate_query, TranslatedQuery, TranslationError};
pub use results_io::{SerializeError, WriteError};
pub use serving::{PreparedQuery, Snapshot};
pub use solution::{canonical_triples, QueryResults, Solution, SolutionSeq};
pub use sparqlog_datalog::{AbortReason, Budget, CancelToken, QueryProfile};
pub use sparqlog_obs::MetricsRegistry;
pub use sparqlog_rdf::{Graph, Term};
pub use store::{CommitStats, Store, Writer};
pub use subscribe::{
    ResultDelta, SolutionRow, Subscription, SubscriptionEvent, DEFAULT_MAILBOX_CAPACITY,
};
