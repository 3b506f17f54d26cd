//! The execution governor: cooperative budgets and cancellation for the
//! evaluator (PR 7).
//!
//! A [`Budget`] bundles every way an evaluation may be bounded — a
//! wall-clock deadline, a derived-row cap, a dictionary-growth cap, and an
//! external [`CancelToken`] — and travels inside
//! [`EvalOptions`](crate::EvalOptions). The fixpoint loop, the join
//! kernels, aggregate evaluation and the magic-sets demand fixpoint all
//! check it *cooperatively* at batch granularity (every few thousand join
//! ticks, every merge, every round), so a runaway query returns a
//! structured [`EvalError::Aborted`](crate::EvalError::Aborted) within one
//! batch of the limit instead of wedging its thread.
//!
//! Checks are designed to cost nothing when no limit is set: a single
//! `bool` test guards the whole governed path, and the row counter is
//! only maintained while a row cap is armed. The handle is `Send + Sync`
//! (plain atomics), so one token can cancel an evaluation from another
//! thread — and a batch driver can chain per-job tokens off one group
//! token to cancel siblings on first failure.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why an evaluation was aborted by the governor. Carried in
/// [`EvalError::Aborted`](crate::EvalError::Aborted).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AbortReason {
    /// The budget's wall-clock deadline passed.
    Deadline,
    /// The budget's [`CancelToken`] (or one of its ancestors) was
    /// cancelled from outside.
    Cancelled,
    /// The derived-row cap was reached.
    RowLimit,
    /// The term-dictionary growth cap was reached (the engine's proxy for
    /// query-private memory: every fresh literal/Skolem a query interns
    /// stays resident in the shared dictionary).
    DictGrowth,
}

impl AbortReason {
    /// The stable machine-readable label: the `reason` label of
    /// `sparqlog_query_aborts_total` and of the HTTP 408 body.
    pub fn label(self) -> &'static str {
        match self {
            AbortReason::Deadline => "deadline",
            AbortReason::Cancelled => "cancelled",
            AbortReason::RowLimit => "row_limit",
            AbortReason::DictGrowth => "dict_growth",
        }
    }
}

impl std::fmt::Display for AbortReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AbortReason::Deadline => write!(f, "deadline exceeded"),
            AbortReason::Cancelled => write!(f, "cancelled"),
            AbortReason::RowLimit => write!(f, "derived-row limit reached"),
            AbortReason::DictGrowth => write!(f, "dictionary-growth limit reached"),
        }
    }
}

#[derive(Debug, Default)]
struct CancelInner {
    flag: AtomicBool,
    /// Chained parent: cancelling a parent cancels every descendant. Used
    /// by the batch driver (one group token, per-job children) — chains
    /// are short (two or three links), so the walk in [`CancelToken::
    /// is_cancelled`] stays O(1) in practice.
    parent: Option<CancelToken>,
}

/// A shareable, chainable cancellation flag.
///
/// Cloning shares the flag; [`CancelToken::child`] creates a token that is
/// cancelled whenever its parent is (but can also be cancelled on its
/// own). `Send + Sync`; checking is a couple of relaxed atomic loads.
///
/// ```
/// use sparqlog_datalog::CancelToken;
///
/// let group = CancelToken::new();
/// let job = group.child();
/// assert!(!job.is_cancelled());
/// group.cancel();
/// assert!(job.is_cancelled()); // parent cancellation propagates
/// ```
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Arc<CancelInner>,
}

impl CancelToken {
    /// Creates a fresh, uncancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the flag. Every evaluation carrying this token (or a
    /// descendant of it) observes the cancellation at its next governed
    /// check and aborts with [`AbortReason::Cancelled`].
    pub fn cancel(&self) {
        self.inner.flag.store(true, Ordering::Release);
    }

    /// True once [`CancelToken::cancel`] has been called on this token or
    /// any of its ancestors.
    pub fn is_cancelled(&self) -> bool {
        let mut cur = Some(self);
        while let Some(t) = cur {
            if t.inner.flag.load(Ordering::Acquire) {
                return true;
            }
            cur = t.inner.parent.as_ref();
        }
        false
    }

    /// A token linked under this one: cancelling `self` cancels the child
    /// (and all its siblings), while cancelling the child leaves `self`
    /// untouched.
    pub fn child(&self) -> CancelToken {
        CancelToken {
            inner: Arc::new(CancelInner {
                flag: AtomicBool::new(false),
                parent: Some(self.clone()),
            }),
        }
    }
}

/// Resource limits for one evaluation. The unlimited default costs the
/// evaluator a single branch per governed check.
///
/// A `Budget` is a *policy* value: it can be stored (e.g. as a store-wide
/// default) and reused across queries. The wall-clock `timeout` is
/// converted into an absolute deadline when an evaluation starts, so the
/// clock measures each query's own execution, not the policy's age. All
/// limits compose; the first one crossed aborts the evaluation.
///
/// ```
/// use std::time::Duration;
/// use sparqlog_datalog::{Budget, CancelToken};
///
/// let cancel = CancelToken::new();
/// let budget = Budget::new()
///     .with_timeout(Duration::from_millis(50))
///     .with_max_rows(100_000)
///     .with_cancel(cancel.clone());
/// assert!(!budget.is_unlimited());
/// ```
#[derive(Debug, Clone, Default)]
pub struct Budget {
    timeout: Option<Duration>,
    /// Absolute deadline, fixed by [`Budget::armed`] when an evaluation
    /// starts.
    deadline: Option<Instant>,
    max_rows: Option<usize>,
    max_dict_growth: Option<usize>,
    cancel: Option<CancelToken>,
}

impl Budget {
    /// An unlimited budget (the default).
    pub fn new() -> Self {
        Self::default()
    }

    /// Caps wall-clock execution time. The clock starts when evaluation
    /// starts; crossing it aborts with [`AbortReason::Deadline`].
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// Caps derived rows (staged derivation candidates, counted before
    /// set-level deduplication — the measure of work performed, and the
    /// engine's proxy for intermediate-result memory). Crossing it aborts
    /// with [`AbortReason::RowLimit`] within one batch of the cap.
    pub fn with_max_rows(mut self, max_rows: usize) -> Self {
        self.max_rows = Some(max_rows);
        self
    }

    /// Caps how many new terms the evaluation may intern into the shared
    /// term dictionary (fresh literals from arithmetic/string builtins,
    /// Skolem tuple IDs). Crossing it aborts with
    /// [`AbortReason::DictGrowth`].
    pub fn with_max_dict_growth(mut self, max_growth: usize) -> Self {
        self.max_dict_growth = Some(max_growth);
        self
    }

    /// Attaches an external cancellation token.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// True when no limit of any kind is set — the governed paths reduce
    /// to a single branch.
    pub fn is_unlimited(&self) -> bool {
        // A deadline is only ever armed from a timeout.
        self.timeout.is_none()
            && self.max_rows.is_none()
            && self.max_dict_growth.is_none()
            && self.cancel.is_none()
    }

    /// The configured relative timeout, if any.
    pub fn timeout(&self) -> Option<Duration> {
        self.timeout
    }

    /// The absolute deadline, once armed.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// The derived-row cap, if any.
    pub fn max_rows(&self) -> Option<usize> {
        self.max_rows
    }

    /// The dictionary-growth cap, if any.
    pub fn max_dict_growth(&self) -> Option<usize> {
        self.max_dict_growth
    }

    /// The attached cancellation token, if any.
    pub fn cancel_token(&self) -> Option<&CancelToken> {
        self.cancel.as_ref()
    }

    /// True when [`Budget::armed`] would change the budget: a relative
    /// timeout is set but no absolute deadline has been fixed yet.
    pub(crate) fn needs_arming(&self) -> bool {
        self.timeout.is_some() && self.deadline.is_none()
    }

    /// Fixes the relative timeout into an absolute deadline as of now.
    /// Every evaluation arms its budget on entry; a caller that runs
    /// several evaluations for one request (a query's magic-sets demand
    /// measurement, then its main fixpoint) arms once up front so they
    /// share one clock. Idempotent: an already-armed budget keeps its
    /// deadline.
    pub fn armed(&self) -> Budget {
        let mut b = self.clone();
        if b.deadline.is_none() {
            b.deadline = b.timeout.map(|t| Instant::now() + t);
        }
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancel_token_chains() {
        let root = CancelToken::new();
        let child = root.child();
        let grandchild = child.child();
        let sibling = root.child();
        assert!(!grandchild.is_cancelled());
        child.cancel();
        assert!(child.is_cancelled());
        assert!(grandchild.is_cancelled(), "descendants observe the cancel");
        assert!(!root.is_cancelled(), "parents do not");
        assert!(!sibling.is_cancelled(), "siblings do not");
        root.cancel();
        assert!(sibling.is_cancelled());
    }

    #[test]
    fn budget_arming_is_idempotent() {
        let b = Budget::new().with_timeout(Duration::from_secs(3600));
        assert!(b.needs_arming());
        let armed = b.armed();
        assert!(!armed.needs_arming());
        let deadline = armed.deadline().unwrap();
        // Re-arming (an evaluation entry under a pre-armed budget) keeps
        // the deadline.
        assert_eq!(armed.armed().deadline(), Some(deadline));
    }

    #[test]
    fn unlimited_budget_reports_unlimited() {
        assert!(Budget::new().is_unlimited());
        assert!(!Budget::new().with_max_rows(1).is_unlimited());
        assert!(!Budget::new().with_cancel(CancelToken::new()).is_unlimited());
    }
}
