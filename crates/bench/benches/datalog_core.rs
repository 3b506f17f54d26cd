//! Microbenchmarks of the Datalog± substrate: transitive closure,
//! index joins and Skolem-ID generation — the primitives every
//! translated query exercises.
//!
//! `transitive_closure_300` keeps the PR 1 methodology (parse + load +
//! evaluate from scratch each iteration) so records stay comparable
//! across `docs/history/BENCH_pr*.json`. The other cases pre-build their fact rows
//! once and load them through `Database::load_rows` each iteration —
//! the bulk fast path — so they measure the engine, not the textual
//! Datalog parser (their fixtures are 10 000 / 500 fact lines).

use sparqlog_bench::microbench::Bench;
use sparqlog_datalog::{
    evaluate, parser::parse_program, Const, Database, EvalOptions, SymbolTable,
};

fn tc_program(n: usize) -> String {
    let mut src = String::new();
    for i in 0..n {
        src.push_str(&format!("edge({i}, {}).\n", (i + 1) % n));
        if i % 7 == 0 {
            src.push_str(&format!("edge({i}, {}).\n", (i * 3 + 1) % n));
        }
    }
    src.push_str("tc(X, Y) :- edge(X, Y).\ntc(X, Z) :- edge(X, Y), tc(Y, Z).\n@output(\"tc\").\n");
    src
}

fn main() {
    let mut b = Bench::new("datalog_core");

    let src = tc_program(300);
    b.bench("transitive_closure_300", || {
        let mut db = Database::new();
        let prog = parse_program(&src, db.symbols()).unwrap();
        evaluate(&prog, &mut db, &EvalOptions::default()).unwrap()
    });

    // Skolem tuple-ID generation over 10k rows: rules parsed once, fact
    // rows pre-built, loaded per iteration via the bulk fast path.
    let symbols = SymbolTable::new();
    let skolem_rules = parse_program(
        "p(I, X) :- q(X), I = skolem(\"f\", X).\n@output(\"p\").\n",
        &symbols,
    )
    .unwrap();
    let q = symbols.intern("q");
    let q_rows: Vec<Vec<Const>> = (0..10_000).map(|i| vec![Const::Int(i)]).collect();
    b.bench("skolem_ids_10k", || {
        let mut db = Database::with_symbols(symbols.clone());
        db.load_rows(q, &q_rows);
        evaluate(&skolem_rules, &mut db, &EvalOptions::default()).unwrap()
    });

    // Three-way cyclic join over 500 pre-built edge rows.
    let tri_rules = parse_program(
        "tri(X, W) :- e(X, Y), e(Y, Z), e(Z, W).\n@output(\"tri\").\n",
        &symbols,
    )
    .unwrap();
    let e = symbols.intern("e");
    let e_rows: Vec<Vec<Const>> = (0..500)
        .map(|i| vec![Const::Int(i), Const::Int((i + 1) % 500)])
        .collect();
    b.bench("triangle_join_500", || {
        let mut db = Database::with_symbols(symbols.clone());
        db.load_rows(e, &e_rows);
        evaluate(&tri_rules, &mut db, &EvalOptions::default()).unwrap()
    });

    b.finish();
}
