//! Overhead of the execution governor (PR 7): the PR's acceptance gate
//! is that *arming* the governor without any trippable limit costs ≤3%
//! on the `datalog_core` / `query_batch` workloads.
//!
//! Three configurations per workload:
//!
//! * `ungoverned` — no budget at all: the pre-PR fast path (one legacy
//!   timeout branch per check site);
//! * `armed_no_limit` — an idle [`CancelToken`] attached: every check
//!   site takes the governed path (deadline/cancel/row/dict tests), but
//!   nothing ever trips — this is "checks enabled but no limits set";
//! * `row_cap_high` — a row cap far above the fixpoint size: adds the
//!   per-emission `fetch_add` accounting, the most intrusive mode.

use sparqlog::Store;
use sparqlog_bench::microbench::Bench;
use sparqlog_datalog::{
    evaluate, parser::parse_program, Budget, CancelToken, Database, EvalOptions,
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

fn turtle(n: usize) -> String {
    let mut src = String::from("@prefix ex: <http://ex.org/> .\n");
    for i in 0..n {
        src.push_str(&format!("ex:p{i} ex:knows ex:p{} .\n", (i + 1) % n));
        if i % 7 == 0 {
            src.push_str(&format!("ex:p{i} ex:knows ex:p{} .\n", (i * 3 + 2) % n));
        }
        if i % 10 == 0 {
            src.push_str(&format!("ex:p{i} ex:name \"person {i}\" .\n"));
        }
    }
    src
}

fn query_log() -> Vec<&'static str> {
    let shapes = [
        "PREFIX ex: <http://ex.org/>
         SELECT ?b WHERE { ?a ex:knows ?b . ?a ex:name ?n }",
        "PREFIX ex: <http://ex.org/>
         SELECT ?z WHERE { ex:p0 ex:knows+ ?z }",
        "PREFIX ex: <http://ex.org/> ASK { ex:p7 ex:knows ex:p8 }",
        "PREFIX ex: <http://ex.org/>
         SELECT DISTINCT ?n WHERE { ?a ex:name ?n }",
    ];
    (0..32).map(|i| shapes[i % shapes.len()]).collect()
}

fn main() {
    let mut b = Bench::new("governor");

    // --- datalog_core's transitive_closure_300 under the three modes.
    let src = tc_program(300);
    let configs: [(&str, Budget); 3] = [
        ("ungoverned", Budget::new()),
        (
            "armed_no_limit",
            Budget::new().with_cancel(CancelToken::new()),
        ),
        ("row_cap_high", Budget::new().with_max_rows(usize::MAX / 2)),
    ];
    for (name, budget) in &configs {
        let options = EvalOptions {
            budget: budget.clone(),
            ..Default::default()
        };
        b.bench(&format!("tc_300_{name}"), || {
            let mut db = Database::new();
            let prog = parse_program(&src, db.symbols()).unwrap();
            evaluate(&prog, &mut db, &options).unwrap()
        });
    }

    // --- query_batch's batch_32q_t1 under the same three modes (the
    // armed batch additionally pays the group-token plumbing).
    let data = turtle(120);
    let log = query_log();
    for (name, budget) in [
        ("ungoverned", Budget::new()),
        (
            "armed_no_limit",
            Budget::new().with_cancel(CancelToken::new()),
        ),
        ("row_cap_high", Budget::new().with_max_rows(usize::MAX / 2)),
    ] {
        let store = Store::new();
        store.set_threads(Some(1));
        store.load_turtle(&data).expect("fixture loads");
        store.set_default_budget(budget);
        let snapshot = store.snapshot();
        b.bench(&format!("batch_32q_t1_{name}"), || {
            snapshot
                .execute_batch(&log)
                .into_iter()
                .map(|r| r.expect("query runs").len())
                .sum::<usize>()
        });
    }

    b.finish();
}
