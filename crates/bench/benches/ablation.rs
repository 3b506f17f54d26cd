//! Ablation benches for two join-ordering choices (ARCHITECTURE.md,
//! "Planning & statistics"):
//!
//! 1. **Semi-naive delta reordering** (delta atom first + greedy
//!    selectivity order) vs. evaluating delta passes in the rule's
//!    written order;
//! 2. **comp-before-right-atom join translation** is exercised indirectly:
//!    the wide-join workload collapses to a cross product without the
//!    reorder, which the `off` variants make visible.

use sparqlog_bench::microbench::Bench;
use sparqlog_datalog::{evaluate, parser::parse_program, Database, EvalOptions};

/// A join-chain workload shaped like SP²Bench q4 (the query that exposed
/// both optimisations).
fn chain_src(n: usize) -> String {
    let mut src = String::new();
    for i in 0..n {
        src.push_str(&format!("r1({}, {}).\n", i % 97, i));
        src.push_str(&format!("r2({}, {}).\n", i, i % 53));
        src.push_str(&format!("r3({}, {}).\n", i % 53, i % 29));
    }
    src.push_str(
        "j1(A, B) :- r1(A, X), r2(X, B).\n\
         j2(A, C) :- j1(A, B), r3(B, C).\n\
         @output(\"j2\").\n",
    );
    src
}

fn main() {
    let mut b = Bench::new("ablation");

    for (name, reorder) in [("delta_reorder_on", true), ("delta_reorder_off", false)] {
        let src = chain_src(3_000);
        let opts = EvalOptions {
            semi_naive_reorder: reorder,
            ..Default::default()
        };
        b.bench(&format!("join_chain/{name}"), || {
            let mut db = Database::new();
            let prog = parse_program(&src, db.symbols()).unwrap();
            evaluate(&prog, &mut db, &opts).unwrap()
        });
    }

    // Recursive closure: the delta pass dominates here, so the ordering
    // matters less but must not regress.
    for (name, reorder) in [("delta_reorder_on", true), ("delta_reorder_off", false)] {
        let mut src = String::new();
        for i in 0..600 {
            src.push_str(&format!("edge({}, {}).\n", i, (i + 1) % 600));
            if i % 5 == 0 {
                src.push_str(&format!("edge({}, {}).\n", i, (i * 7 + 3) % 600));
            }
        }
        src.push_str(
            "tc(X, Y) :- edge(X, Y).\ntc(X, Z) :- edge(X, Y), tc(Y, Z).\n@output(\"tc\").\n",
        );
        let opts = EvalOptions {
            semi_naive_reorder: reorder,
            ..Default::default()
        };
        b.bench(&format!("closure/{name}"), || {
            let mut db = Database::new();
            let prog = parse_program(&src, db.symbols()).unwrap();
            evaluate(&prog, &mut db, &opts).unwrap()
        });
    }

    b.finish();
}
