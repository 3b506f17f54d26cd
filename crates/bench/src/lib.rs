//! Regenerates every table and figure of the paper ([`tables`]) on the
//! timing infrastructure of [`harness`]. The repo's benchmark, which
//! measures the engine end to end and per layer, is the gauntlet
//! (`gauntlet/`, run by `BENCHMARK.json`).
//!
//! Binaries (run with `cargo run -p sparqlog-bench --release --bin <name>`):
//!
//! | Binary | Reproduces |
//! |---|---|
//! | `table1_features` | Table 1 (feature matrix) |
//! | `table2_benchmark_analysis` | Table 2 (benchmark feature coverage) |
//! | `table3_beseppi` | Table 3 (BeSEPPI compliance) |
//! | `compliance_feasible` | §6.2 FEASIBLE(S) compliance |
//! | `compliance_sp2bench` | §6.2 SP²Bench compliance |
//! | `fig7_sp2bench` | Figure 7 / Table 11 |
//! | `gmark_social` | Figure 8 / Tables 7 & 9 |
//! | `gmark_test` | Figure 9 / Tables 8 & 10 |
//! | `fig10_ontology` | Figure 10 |
//! | `run_all` | everything above, in order |
//!
//! Environment: `SPARQLOG_TIMEOUT_MS` (default 5000) scales the paper's
//! 900 s budget; `SPARQLOG_SCALE` (default 1.0) scales dataset sizes.
pub mod harness;
pub mod tables;
