//! A dependency-free scoped worker pool shared by the evaluator's
//! intra-query parallelism and the serving layer's inter-query batch
//! fan-out.
//!
//! The pool is a set of persistent threads parked on a condvar. Each
//! *pass* publishes a job count and a closure; every thread (the caller
//! included) claims job indices from a shared counter until the pass
//! drains. One pool instance lives for the duration of one logical
//! parallel section — rounds of a fixpoint, or one query batch — so
//! repeated passes reuse the threads instead of respawning them.
//!
//! **Panic containment (PR 7).** A panic inside a job is caught at the
//! job boundary and reported as a per-job [`JobPanic`] instead of
//! unwinding through the pool: the worker thread survives and keeps
//! claiming jobs, the pass drains normally, and the caller decides what a
//! poisoned job means (the evaluator converts it to
//! [`EvalError::Internal`](crate::EvalError::Internal); the batch driver
//! fails that one query and keeps its siblings). This is what
//! distinguishes "job panicked" from "scope cancelled": only pool
//! *shutdown* tears threads down, never a job failure.
//!
//! Two entry styles exist:
//!
//! * [`run_scoped`] / [`run_scoped_caught`] — the one-shot conveniences
//!   used for embarrassingly parallel job lists (a query batch): spawn a
//!   scoped pool, run the jobs, tear the pool down.
//! * `Pool` directly (crate-internal) — the evaluator keeps one pool
//!   across many passes and drives it through `Pool::run`.

use std::panic::AssertUnwindSafe;
use std::sync::{Condvar, Mutex};

/// A raw pointer to the current pass's job closure. Only ever dereferenced
/// between `Pool::run` publishing it and `Pool::run` observing all jobs
/// complete, during which the closure is alive on the caller's stack.
struct TaskRef(*const (dyn Fn(usize) + Sync));

// SAFETY: the referent is `Sync` (shared-access safe) and `Pool::run`
// bounds its lifetime as described above.
unsafe impl Send for TaskRef {}

/// A job that panicked during a pass: its index and the panic payload
/// rendered to a string. Returned by [`run_scoped_caught`] (and
/// crate-internally by `Pool::run`) so callers can fail the one job
/// without losing the rest of the pass.
#[derive(Debug, Clone)]
pub struct JobPanic {
    /// The job index that was passed to the closure.
    pub job: usize,
    /// The panic payload (`&str`/`String` payloads verbatim; anything
    /// else a placeholder).
    pub message: String,
}

/// Runs job `j`, catching a panic as its [`JobPanic`] record — the one
/// job boundary of the pool, the inline paths and the evaluator.
fn catch_job(f: &(dyn Fn(usize) + Sync), j: usize) -> Option<JobPanic> {
    let payload = std::panic::catch_unwind(AssertUnwindSafe(|| f(j))).err()?;
    let message = if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    };
    Some(JobPanic { job: j, message })
}

/// Runs `f(0..njobs)` in order on the calling thread, each job caught as
/// a pool job is.
pub(crate) fn run_inline_caught(njobs: usize, f: &(dyn Fn(usize) + Sync)) -> Vec<JobPanic> {
    (0..njobs).filter_map(|j| catch_job(f, j)).collect()
}

#[derive(Default)]
struct PoolState {
    /// The published job closure of the active pass, if any.
    task: Option<TaskRef>,
    /// Number of jobs in the active pass.
    njobs: usize,
    /// Next unclaimed job index.
    next: usize,
    /// Jobs not yet completed.
    pending: usize,
    /// Jobs of the active pass that panicked (drained by `Pool::run`).
    panics: Vec<JobPanic>,
    shutdown: bool,
}

/// A pool of persistent scoped worker threads. Workers park on a condvar
/// between passes; each pass publishes a job-count and a closure, every
/// thread (the caller included) claims job indices from a shared counter,
/// and `run` returns once all jobs completed.
pub(crate) struct Pool {
    pub(crate) threads: usize,
    state: Mutex<PoolState>,
    work: Condvar,
    done: Condvar,
}

/// Decrements `pending` when dropped, so no exit path from a job — normal
/// completion or a caught panic — can leave `Pool::run` waiting forever.
struct PendingGuard<'a>(&'a Pool);

impl Drop for PendingGuard<'_> {
    fn drop(&mut self) {
        let mut g = self.0.state.lock().unwrap();
        g.pending -= 1;
        if g.pending == 0 {
            self.0.done.notify_all();
        }
    }
}

/// Calls [`Pool::shutdown`] when dropped — including during a panic
/// unwind. Job panics are caught at the job boundary, but a panic in the
/// *caller's* code between passes (e.g. the evaluator's sequential merge)
/// must still unpark the workers, or `std::thread::scope`'s implicit join
/// would deadlock instead of propagating.
pub(crate) struct ShutdownGuard<'a>(pub(crate) &'a Pool);

impl Drop for ShutdownGuard<'_> {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}

impl Pool {
    pub(crate) fn new(threads: usize) -> Pool {
        Pool {
            threads,
            state: Mutex::new(PoolState::default()),
            work: Condvar::new(),
            done: Condvar::new(),
        }
    }

    /// Runs one claimed job, catching a panic as a per-job record. The
    /// guard decrements `pending` on both exit paths.
    fn run_job(&self, f: &(dyn Fn(usize) + Sync), j: usize) {
        let _guard = PendingGuard(self);
        if let Some(panic) = catch_job(f, j) {
            self.state.lock().unwrap().panics.push(panic);
        }
    }

    /// Runs `f(0..njobs)` across the pool (and the calling thread),
    /// returning when every job has completed. Jobs that panicked are
    /// returned as [`JobPanic`] records, in claim order; the pool itself
    /// survives and can run further passes.
    pub(crate) fn run(&self, njobs: usize, f: &(dyn Fn(usize) + Sync)) -> Vec<JobPanic> {
        if njobs == 0 {
            return Vec::new();
        }
        // SAFETY: erase the closure's stack lifetime to store it in the
        // shared cell. `run` does not return until `pending == 0`, i.e.
        // until no worker can still hold (or claim a job against) the
        // pointer, and clears the cell before returning.
        let erased: *const (dyn Fn(usize) + Sync + 'static) = unsafe {
            std::mem::transmute::<
                *const (dyn Fn(usize) + Sync + '_),
                *const (dyn Fn(usize) + Sync + 'static),
            >(f as *const _)
        };
        {
            let mut g = self.state.lock().unwrap();
            g.task = Some(TaskRef(erased));
            g.njobs = njobs;
            g.next = 0;
            g.pending = njobs;
            g.panics.clear();
            self.work.notify_all();
        }
        // The caller claims jobs like any worker.
        loop {
            let j = {
                let mut g = self.state.lock().unwrap();
                if g.next < g.njobs {
                    g.next += 1;
                    Some(g.next - 1)
                } else {
                    None
                }
            };
            match j {
                Some(j) => self.run_job(f, j),
                None => break,
            }
        }
        let mut g = self.state.lock().unwrap();
        while g.pending > 0 {
            g = self.done.wait(g).unwrap();
        }
        g.task = None;
        g.njobs = 0;
        g.next = 0;
        std::mem::take(&mut g.panics)
    }

    /// The worker thread body.
    pub(crate) fn worker(&self) {
        loop {
            let (task, j) = {
                let mut g = self.state.lock().unwrap();
                loop {
                    if g.shutdown {
                        return;
                    }
                    if g.next < g.njobs {
                        break;
                    }
                    g = self.work.wait(g).unwrap();
                }
                let j = g.next;
                g.next += 1;
                (g.task.as_ref().expect("jobs imply a task").0, j)
            };
            // SAFETY: `j` was claimed while the task was published, so
            // `Pool::run` cannot return (and the closure cannot die)
            // until `run_job`'s guard decrements `pending`.
            self.run_job(unsafe { &*task }, j);
        }
    }

    pub(crate) fn shutdown(&self) {
        let mut g = self.state.lock().unwrap();
        g.shutdown = true;
        self.work.notify_all();
    }
}

/// Runs `f(0)..f(njobs - 1)` across up to `threads` scoped worker threads
/// (the calling thread included), returning once every job completed.
/// Jobs that panicked are reported as [`JobPanic`] records (in claim
/// order) instead of unwinding: one poisoned job never takes down its
/// siblings, and all worker threads rejoin normally.
///
/// With `threads <= 1` or `njobs <= 1` the jobs simply run inline on the
/// calling thread, in order — the deterministic fallback (panics are
/// caught the same way). Job *claiming* order under parallelism is
/// nondeterministic; callers that need ordered results should write into
/// a per-job slot, as `Snapshot::execute_batch` does.
pub fn run_scoped_caught(
    threads: usize,
    njobs: usize,
    f: &(dyn Fn(usize) + Sync),
) -> Vec<JobPanic> {
    if threads <= 1 || njobs <= 1 {
        return run_inline_caught(njobs, f);
    }
    let pool = Pool::new(threads.min(njobs));
    std::thread::scope(|s| {
        for _ in 1..pool.threads {
            s.spawn(|| pool.worker());
        }
        // Shutdown-on-drop keeps the scope's implicit join safe even if
        // something outside the job boundary unwinds.
        let _guard = ShutdownGuard(&pool);
        pool.run(njobs, f)
    })
}

/// [`run_scoped_caught`] for callers without per-job error channels: a
/// panic in any job is re-raised on the calling thread (after the whole
/// pass drained and the workers rejoined), preserving the historical
/// fail-fast contract.
pub fn run_scoped(threads: usize, njobs: usize, f: &(dyn Fn(usize) + Sync)) {
    if let Some(p) = run_scoped_caught(threads, njobs, f).into_iter().next() {
        panic!("pool job {} panicked: {}", p.job, p.message);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

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
        // run_scoped keeps the historical fail-fast contract: the caught
        // job panic is re-raised on the caller after the pass drains —
        // never a deadlocked scope join.
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
        // A pass with a panicking job must leave the pool healthy: the
        // worker threads stay parked on the condvar and the next pass
        // runs to completion. This is the "job panicked ≠ scope
        // cancelled" distinction.
        let pool = Pool::new(4);
        std::thread::scope(|s| {
            for _ in 1..pool.threads {
                s.spawn(|| pool.worker());
            }
            let panics = pool.run(8, &|j| {
                if j % 2 == 0 {
                    panic!("even jobs fail");
                }
            });
            assert_eq!(panics.len(), 4);
            let count = AtomicUsize::new(0);
            let panics = pool.run(12, &|_| {
                count.fetch_add(1, Ordering::Relaxed);
            });
            assert!(panics.is_empty());
            assert_eq!(count.load(Ordering::Relaxed), 12);
            pool.shutdown();
        });
    }

    #[test]
    fn pool_reuse_across_passes() {
        let pool = Pool::new(4);
        std::thread::scope(|s| {
            for _ in 1..pool.threads {
                s.spawn(|| pool.worker());
            }
            let count = AtomicUsize::new(0);
            for pass in 1..=5usize {
                let panics = pool.run(pass * 3, &|_| {
                    count.fetch_add(1, Ordering::Relaxed);
                });
                assert!(panics.is_empty());
            }
            assert_eq!(count.load(Ordering::Relaxed), 3 + 6 + 9 + 12 + 15);
            pool.shutdown();
        });
    }
}
