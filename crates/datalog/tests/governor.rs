//! Integration tests for the execution governor (PR 7): deadlines,
//! derived-row caps, dictionary-growth caps and external cancellation,
//! exercised through public `evaluate` at several thread counts.

use std::time::{Duration, Instant};

use sparqlog_datalog::parser::parse_program;
use sparqlog_datalog::{
    evaluate, AbortReason, Budget, CancelToken, Database, EvalError, EvalOptions,
};

/// A directed cycle of `n` nodes plus the transitive-closure program:
/// full reachability, `n * n` closure tuples — plenty of rounds and
/// emissions for the governor to interrupt.
fn tc_cycle(n: usize) -> String {
    let mut src = String::new();
    for i in 0..n {
        src.push_str(&format!("edge(\"n{i}\", \"n{}\").\n", (i + 1) % n));
    }
    src.push_str("tc(X, Y) :- edge(X, Y).\ntc(X, Z) :- edge(X, Y), tc(Y, Z).\n@output(\"tc\").\n");
    src
}

fn eval_tc(n: usize, options: &EvalOptions) -> Result<usize, EvalError> {
    let mut db = Database::new();
    let prog = parse_program(&tc_cycle(n), db.symbols()).unwrap();
    evaluate(&prog, &mut db, options)?;
    let tc = db.symbols().get("tc").unwrap();
    Ok(db.relation(tc).map_or(0, |r| r.len()))
}

/// Acceptance criterion: TC over a 300-node cycle under a 1 ms deadline
/// aborts within 50 ms, and the very next (unbudgeted) evaluation in the
/// same process is complete and correct.
#[test]
fn deadline_aborts_tc_300_cycle_within_50ms() {
    let options = EvalOptions {
        budget: Budget::new().with_timeout(Duration::from_millis(1)),
        ..Default::default()
    };
    let start = Instant::now();
    let err = eval_tc(300, &options).unwrap_err();
    let waited = start.elapsed();
    match err {
        EvalError::Aborted {
            reason: AbortReason::Deadline,
            elapsed,
            ..
        } => {
            assert!(waited < Duration::from_millis(50), "abort took {waited:?}");
            assert!(elapsed <= waited, "reported elapsed exceeds wall clock");
        }
        other => panic!("expected deadline abort, got {other:?}"),
    }
    assert_eq!(eval_tc(300, &EvalOptions::default()).unwrap(), 300 * 300);
}

/// Property: a row-cap abort lands on the first emission past the cap.
/// `rows_derived` counts merged rows plus staged candidates, and the job
/// aborts on its first emission past the cap.
#[test]
fn row_cap_abort_is_within_one_batch_of_cap() {
    for cap in [500usize, 2_000, 8_000] {
        let options = EvalOptions {
            budget: Budget::new().with_max_rows(cap),
            ..Default::default()
        };
        match eval_tc(300, &options).unwrap_err() {
            EvalError::Aborted {
                reason: AbortReason::RowLimit,
                rows_derived,
                ..
            } => {
                assert_eq!(rows_derived, cap + 1, "abort past the cap {cap}");
            }
            other => panic!("expected row-limit abort, got {other:?}"),
        }
    }
}

/// A cap generous enough for the whole evaluation never trips.
#[test]
fn row_cap_above_fixpoint_size_does_not_trip() {
    let options = EvalOptions {
        budget: Budget::new().with_max_rows(1_000_000),
        ..Default::default()
    };
    assert_eq!(eval_tc(60, &options).unwrap(), 60 * 60);
}

/// An already-cancelled token aborts before any work is done.
#[test]
fn pre_cancelled_token_aborts_immediately() {
    let cancel = CancelToken::new();
    cancel.cancel();
    let options = EvalOptions {
        budget: Budget::new().with_cancel(cancel),
        ..Default::default()
    };
    match eval_tc(60, &options).unwrap_err() {
        EvalError::Aborted {
            reason: AbortReason::Cancelled,
            rows_derived,
            ..
        } => assert!(
            // Like `EvalStats::derived`, the count includes the base
            // facts; the entry check fires before any closure tuple.
            rows_derived <= 60,
            "closure work happened before the entry check: {rows_derived}"
        ),
        other => panic!("expected cancellation, got {other:?}"),
    }
}

/// Cancelling from another thread interrupts a running evaluation.
#[test]
fn cancel_from_another_thread_interrupts_evaluation() {
    let cancel = CancelToken::new();
    let canceller = {
        let cancel = cancel.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(5));
            cancel.cancel();
        })
    };
    let options = EvalOptions {
        budget: Budget::new().with_cancel(cancel),
        ..Default::default()
    };
    // Big enough that evaluation is still running when the flag flips
    // (full closure would be 640_000 tuples); abort must follow quickly.
    let start = Instant::now();
    let err = eval_tc(800, &options).unwrap_err();
    canceller.join().unwrap();
    assert!(
        matches!(
            err,
            EvalError::Aborted {
                reason: AbortReason::Cancelled,
                ..
            }
        ),
        "expected cancellation, got {err:?}"
    );
    assert!(start.elapsed() < Duration::from_secs(5));
}

/// The dictionary-growth cap trips on a query that interns unboundedly
/// many fresh Skolem terms.
#[test]
fn dict_growth_cap_aborts_skolem_flood() {
    let mut db = Database::new();
    let mut src = String::new();
    for i in 0..20_000 {
        src.push_str(&format!("q(\"v{i}\").\n"));
    }
    src.push_str("r(I, X) :- q(X), I = skolem(\"g\", X).\n@output(\"r\").\n");
    let prog = parse_program(&src, db.symbols()).unwrap();
    let options = EvalOptions {
        budget: Budget::new().with_max_dict_growth(100),
        ..Default::default()
    };
    match evaluate(&prog, &mut db, &options).unwrap_err() {
        EvalError::Aborted {
            reason: AbortReason::DictGrowth,
            ..
        } => {}
        other => panic!("expected dictionary-growth abort, got {other:?}"),
    }
}

/// A governed evaluation whose limits never trip (here: an idle cancel
/// token) produces exactly the same results as an ungoverned one.
#[test]
fn idle_governor_changes_nothing() {
    let governed = EvalOptions {
        budget: Budget::new().with_cancel(CancelToken::new()),
        ..Default::default()
    };
    assert_eq!(
        eval_tc(60, &governed).unwrap(),
        eval_tc(60, &EvalOptions::default()).unwrap()
    );
}
