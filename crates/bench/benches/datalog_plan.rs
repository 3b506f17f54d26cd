//! Microbenchmarks of the cost-based physical planner (PR 6): the two
//! workloads the planner and the magic-sets rewrite were built for,
//! each measured with the optimisation off and on so the committed
//! `docs/history/BENCH_pr6.json` records the before/after on identical fixtures.
//!
//! * `star_join_10k_*`: a star join whose selective atom sits *last* in
//!   rule text — `q(Y, Z) :- big1(X, Y), big2(X, Z), tiny(X)` over two
//!   10 000-row relations (200 distinct X, fan-out 50) and one 1-row
//!   `tiny`. Text order scans `big1` and expands to 500 000
//!   intermediate rows before `tiny` filters; the planner pulls `tiny`
//!   first and probes the bound-X indexes.
//! * `bound_tc_350_*`: transitive closure over a 350-node chain whose
//!   only consumer binds the start point — `reach(Z) :- tc(340, Z)`.
//!   Without the magic-sets rewrite the fixpoint materialises all
//!   ~61 000 `tc` facts; with it, demand propagates from node 340 and
//!   only the ~10-node tail is derived.
//!
//! Each fixture's facts are frozen once into a snapshot, and every
//! iteration runs the serving layer's steps through public functions:
//! `magic_sets_rewrite` (magic arms), `plan_program` against the
//! snapshot's statistics (planned arms), then `evaluate_frozen_with_plan`
//! into a fresh overlay — so the numbers measure planning and the
//! evaluator, not loading or the textual Datalog parser.

use std::sync::Arc;

use sparqlog_bench::microbench::Bench;
use sparqlog_datalog::{
    evaluate_frozen_with_plan, magic_sets_rewrite, parser::parse_program, plan_program, Const,
    Database, EvalOptions, FrozenDb, Program, SymbolTable,
};

/// `facts` frozen into a snapshot sharing `symbols`.
fn snapshot(symbols: &Arc<SymbolTable>, facts: &[(&str, &[Vec<Const>])]) -> Arc<FrozenDb> {
    let mut db = Database::with_symbols(symbols.clone());
    for &(pred, rows) in facts {
        db.load_rows(symbols.intern(pred), rows);
    }
    db.freeze()
}

/// One query run: the magic-sets rewrite when asked for, a physical plan
/// when asked for, and the fixpoint pinned to one thread (the contrast
/// under measurement is plan/no-plan and magic/no-magic, not the pool).
fn run(prog: &Program, base: &Arc<FrozenDb>, plan: bool, magic_sets: bool) {
    let symbols = base.symbols();
    let rewritten = magic_sets
        .then(|| magic_sets_rewrite(prog, symbols))
        .flatten();
    let prog = rewritten.as_ref().unwrap_or(prog);
    let plan = plan.then(|| plan_program(prog, symbols, &base.stats()).unwrap());
    let options = EvalOptions {
        threads: Some(1),
        ..Default::default()
    };
    evaluate_frozen_with_plan(prog, base, &options, plan.as_ref()).unwrap();
}

fn main() {
    let mut b = Bench::new("datalog_plan");

    // ------------------------------------------------------- star join
    let symbols = SymbolTable::new();
    let star = parse_program(
        "q(Y, Z) :- big1(X, Y), big2(X, Z), tiny(X).\n@output(\"q\").\n",
        &symbols,
    )
    .unwrap();
    let big_rows: Vec<Vec<Const>> = (0..10_000)
        .map(|i| vec![Const::Int(i % 200), Const::Int(i)])
        .collect();
    let tiny_rows: Vec<Vec<Const>> = vec![vec![Const::Int(7)]];
    let star_base = snapshot(
        &symbols,
        &[
            ("big1", &big_rows),
            ("big2", &big_rows),
            ("tiny", &tiny_rows),
        ],
    );
    b.bench("star_join_10k_unplanned", || {
        run(&star, &star_base, false, false)
    });
    b.bench("star_join_10k_planned", || {
        run(&star, &star_base, true, false)
    });

    // ---------------------------------------- bound-endpoint closure
    let tc = parse_program(
        "tc(X, Y) :- edge(X, Y).\n\
         tc(X, Z) :- edge(X, Y), tc(Y, Z).\n\
         reach(Z) :- tc(340, Z).\n\
         @output(\"reach\").\n",
        &symbols,
    )
    .unwrap();
    let edge_rows: Vec<Vec<Const>> = (0..349)
        .map(|i| vec![Const::Int(i), Const::Int(i + 1)])
        .collect();
    let tc_base = snapshot(&symbols, &[("edge", &edge_rows)]);
    b.bench("bound_tc_350_no_magic", || run(&tc, &tc_base, true, false));
    b.bench("bound_tc_350_magic", || run(&tc, &tc_base, true, true));

    b.finish();
}
