//! A Warded Datalog± engine — the workspace's substitute for the Vadalog
//! system (Bellomarini–Sallinger–Gottlob, PVLDB 2018) that the SparqLog
//! paper builds on.
//!
//! Features, matching what the paper's translation needs (§3.2, §5):
//!
//! * **Full recursion** with stratified negation, evaluated bottom-up by a
//!   semi-naive fixpoint with index-nested-loop joins ([`eval`]).
//! * **Existential rules**: head variables not bound in the body are
//!   Skolemised deterministically over the rule frontier, producing
//!   labelled nulls ([`value::Const::Skolem`]). A fixed Skolem-depth
//!   bound ([`MAX_SKOLEM_DEPTH`]) substitutes for Vadalog's warded-chase
//!   termination.
//! * **Skolem tuple IDs** for bag semantics: assignments of the form
//!   `Id = ["f2", X, ...]` ([`expr::Expr::Skolem`]), the paper's duplicate
//!   preservation model.
//! * **Filter builtins**: comparisons with numeric coercion, arithmetic,
//!   the SPARQL test/string functions, and `REGEX` via an in-tree
//!   backtracking matcher ([`regex`]).
//! * **Aggregation**: `COUNT`/`SUM`/`MIN`/`MAX`/`AVG` rules, evaluated as
//!   a separate stratum (Vadalog-style).
//! * **`@output` directives** naming the predicates a caller reads.
//! * An **unfolding rewrite** ([`rewrite`]): every single-reader
//!   intermediate predicate is unfolded into its reader, so the planner
//!   sees a whole join as one rule, and `x = y` conditions become join
//!   keys.
//! * A **wardedness analyser** ([`wardedness`]) used by tests to verify
//!   that the SPARQL translation produces warded programs, as the paper
//!   claims.
//! * A small **textual Datalog parser** ([`parser`]) for tests, examples
//!   and debugging.
//!
//! # Example
//!
//! ```
//! use sparqlog_datalog::{parser::parse_program, Database, EvalOptions};
//!
//! let mut db = Database::new();
//! let prog = parse_program(
//!     r#"
//!     edge("a", "b"). edge("b", "c"). edge("c", "d").
//!     tc(X, Y) :- edge(X, Y).
//!     tc(X, Z) :- edge(X, Y), tc(Y, Z).
//!     @output("tc").
//!     "#,
//!     db.symbols(),
//! )
//! .unwrap();
//! let stats = sparqlog_datalog::evaluate(&prog, &mut db, &EvalOptions::default()).unwrap();
//! assert_eq!(stats.derived, 3 + 6); // 3 facts + 6 closure tuples
//! ```

#![warn(missing_docs)]

pub mod database;
pub mod delta;
pub mod eval;
pub mod expr;
pub mod frozen;
pub mod fxhash;
pub mod govern;
pub mod magic;
pub mod parser;
pub mod plan;
pub mod pool;
pub mod profile;
pub mod regex;
pub mod rewrite;
pub mod rule;
pub mod stats;
pub mod stratify;
pub mod symbols;
pub mod value;
pub mod wardedness;

pub use database::{row_hash, Database, Mask, Matches, Relation, RowBatch, Staging, MAX_ARITY};
pub use delta::{extend, retract, stage_row, MaintainError, Retraction};
pub use eval::{
    evaluate, evaluate_frozen, evaluate_frozen_with_plan, order_cmp, EvalError, EvalOptions,
    EvalStats, MAX_SKOLEM_DEPTH,
};
pub use expr::{ArithOp, CmpOp, Expr};
pub use frozen::FrozenDb;
pub use govern::{AbortReason, Budget, CancelToken};
pub use magic::{
    demand_prunes, demand_subprogram, magic_sets_rewrite_analyzed, MagicRewrite, DEMAND_SELECTIVITY,
};
pub use plan::{plan_program, ProgramPlan};
pub use pool::{run_scoped, run_scoped_caught, JobPanic};
pub use profile::{QueryProfile, RoundProfile, RuleProfile, StratumProfile};
pub use rewrite::unfold_and_unify;
pub use rule::{AggFunc, AggSpec, Atom, AtomArg, BodyItem, Program, Rule, RuleBuilder, VarId};
pub use stats::{DbStats, RelStats, StatsFingerprint};
pub use stratify::{stratify, Stratification, StratifyError};
pub use symbols::{Sym, SymbolTable};
pub use value::{Const, OrdF64, SkolemTerm, TermDict, TermId};
pub use wardedness::{check_wardedness, WardednessReport};
