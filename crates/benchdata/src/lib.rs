//! Deterministic benchmark workload generators for the SparqLog
//! reproduction.
//!
//! The paper evaluates on five workloads (§6.1); each module here is a
//! seeded generator producing a dataset **and** a query set with the same
//! operator mix as the original benchmark:
//!
//! | Module | Original | Role in the paper |
//! |---|---|---|
//! | [`sp2bench`] | SP²Bench (Schmidt et al.) | compliance (§6.2) + performance (Fig. 7, Table 11) |
//! | [`gmark`] | gMark (Bagan et al.) | recursive-path performance (Figs. 8/9, Tables 7–10) |
//! | [`beseppi`] | BeSEPPI (Skubella et al.) | property-path compliance (Table 3) |
//! | [`feasible`] | FEASIBLE (S) over SWDF | compliance (§6.2) |
//! | [`ontology`] | SP²Bench + RDFS axioms | reasoning performance (Fig. 10) |
//!
//! [`analysis`] recomputes the paper's Table 2 (benchmark feature
//! coverage) from the generated query sets.
//!
//! All generators take an explicit seed and scale so results are
//! reproducible; the defaults are laptop-scale versions of the paper's
//! configurations.

pub mod analysis;
pub mod beseppi;
pub mod feasible;
pub mod gmark;
pub mod ontology;
pub mod rng;
pub mod sp2bench;
