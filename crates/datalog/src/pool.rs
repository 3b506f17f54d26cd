//! Scoped fan-out of independent jobs across threads — the serving
//! layer's inter-query parallelism (a query batch, the HTTP server's
//! connection workers). The evaluator runs every fixpoint on its caller's
//! thread and uses only `catch_job`, its job boundary.
//!
//! [`run_scoped_caught`] spawns its threads inside one
//! `std::thread::scope`; every thread, the caller included, claims job
//! indices from a shared counter until none are left, and the scope joins
//! them all before it returns.
//!
//! **Panic containment.** A panic inside a job is caught at the job
//! boundary and reported as a per-job [`JobPanic`] instead of unwinding:
//! the thread keeps claiming jobs, the fan-out drains normally, and the
//! caller decides what a poisoned job means (the evaluator converts it to
//! [`EvalError::Internal`](crate::EvalError::Internal); the batch driver
//! fails that one query and keeps its siblings).

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A job that panicked: its index and the panic payload rendered to a
/// string. Returned by [`run_scoped_caught`] so callers can fail the one
/// job without losing the rest.
#[derive(Debug, Clone)]
pub struct JobPanic {
    /// The job index that was passed to the closure.
    pub job: usize,
    /// The panic payload (`&str`/`String` payloads verbatim; anything
    /// else a placeholder).
    pub message: String,
}

/// Runs `f`, catching a panic as its rendered payload — the one job
/// boundary of the fan-out and the evaluator.
pub(crate) fn catch_job<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    std::panic::catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        }
    })
}

/// Runs `f(0)..f(njobs - 1)` across up to `threads` scoped threads (the
/// calling thread included), returning once every job completed. Jobs
/// that panicked are reported as [`JobPanic`] records (in claim order)
/// instead of unwinding: one poisoned job never takes down its siblings.
///
/// With `threads <= 1` or `njobs <= 1` no thread is spawned and the jobs
/// run on the calling thread, in order. Claiming order across threads is
/// nondeterministic; callers that need ordered results write into a
/// per-job slot, as `Snapshot::execute_batch` does.
pub fn run_scoped_caught(
    threads: usize,
    njobs: usize,
    f: &(dyn Fn(usize) + Sync),
) -> Vec<JobPanic> {
    // The claim counter publishes no data — the scope's join does — so
    // `Relaxed` suffices.
    let next = AtomicUsize::new(0);
    let panics = Mutex::new(Vec::new());
    let work = || loop {
        let job = next.fetch_add(1, Ordering::Relaxed);
        if job >= njobs {
            break;
        }
        if let Err(message) = catch_job(|| f(job)) {
            (panics.lock())
                .expect("no thread panics while holding the panic list")
                .push(JobPanic { job, message });
        }
    };
    std::thread::scope(|s| {
        for _ in 1..threads.min(njobs) {
            s.spawn(work);
        }
        work();
    });
    (panics.into_inner()).expect("no thread panics while holding the panic list")
}

/// [`run_scoped_caught`] for callers without per-job error channels: a
/// panic in any job is re-raised on the calling thread once every job
/// ran and the threads rejoined.
pub fn run_scoped(threads: usize, njobs: usize, f: &(dyn Fn(usize) + Sync)) {
    if let Some(p) = run_scoped_caught(threads, njobs, f).into_iter().next() {
        panic!("pool job {} panicked: {}", p.job, p.message);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_scoped_runs_every_job_once() {
        for threads in [1, 2, 4, 8] {
            let hits: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
            run_scoped(threads, hits.len(), &|j| {
                hits[j].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "threads={threads}: every job exactly once"
            );
        }
    }

    #[test]
    fn run_scoped_zero_and_single_job() {
        run_scoped(4, 0, &|_| panic!("no jobs to run"));
        let hit = AtomicUsize::new(0);
        run_scoped(4, 1, &|j| {
            assert_eq!(j, 0);
            hit.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hit.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn panicking_job_propagates_instead_of_deadlocking() {
        // run_scoped is fail-fast: the caught job panic is re-raised on
        // the caller after every job ran — never a deadlocked scope join.
        let result = std::panic::catch_unwind(|| {
            run_scoped(4, 8, &|j| {
                if j == 0 {
                    panic!("job 0 fails");
                }
            });
        });
        assert!(result.is_err(), "the job's panic reaches the caller");
    }

    #[test]
    fn caught_panic_leaves_sibling_jobs_intact() {
        for threads in [1, 2, 4] {
            let hits: Vec<AtomicUsize> = (0..16).map(|_| AtomicUsize::new(0)).collect();
            let panics = run_scoped_caught(threads, hits.len(), &|j| {
                if j == 3 || j == 11 {
                    panic!("poisoned job {j}");
                }
                hits[j].fetch_add(1, Ordering::Relaxed);
            });
            let mut failed: Vec<usize> = panics.iter().map(|p| p.job).collect();
            failed.sort_unstable();
            assert_eq!(failed, vec![3, 11], "threads={threads}");
            assert!(panics.iter().all(|p| p.message.contains("poisoned job")));
            for (j, h) in hits.iter().enumerate() {
                let expect = usize::from(j != 3 && j != 11);
                assert_eq!(
                    h.load(Ordering::Relaxed),
                    expect,
                    "threads={threads} job {j}"
                );
            }
        }
    }

    #[test]
    fn pool_survives_panicking_pass_and_runs_next_pass() {
        // A fan-out whose jobs panic returns normally, its threads joined,
        // and the next fan-out runs to completion: "job panicked" never
        // means "caller unwound".
        let panics = run_scoped_caught(4, 8, &|j| {
            if j % 2 == 0 {
                panic!("even jobs fail");
            }
        });
        assert_eq!(panics.len(), 4);
        let count = AtomicUsize::new(0);
        let panics = run_scoped_caught(4, 12, &|_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert!(panics.is_empty());
        assert_eq!(count.load(Ordering::Relaxed), 12);
    }
}
