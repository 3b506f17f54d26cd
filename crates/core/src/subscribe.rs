//! Standing-query subscriptions: register a [`PreparedQuery`] on a
//! [`Store`](crate::Store) and receive a typed [`ResultDelta`] after
//! every commit that changes its results.
//!
//! This is the live-dashboard / cache-invalidation workload the
//! Bonifati et al. query-log study shows real endpoints grow into:
//! large volumes of small, repeated query shapes that are far cheaper
//! to *maintain* than to re-execute client-side. The store side rides
//! on the incremental maintenance machinery: each commit computes its
//! maintenance delta once (the triples DRed retracted plus those the
//! commit appended, asserted or entailed), uses the changed predicates
//! to skip subscribers that
//! provably cannot be affected, and re-evaluates only the remaining
//! standing queries against the freshly installed snapshot, diffing
//! against the previous result multiset.
//!
//! # Delivery contract
//!
//! * Deltas are **exact**: `added`/`removed` are the multiset
//!   difference between the query's results on the post- and pre-commit
//!   snapshots. Applying every delta in order to the
//!   [`Subscription::initial`] rows reproduces a fresh execution.
//! * `commit_seq` is the store's monotone commit number. Commits that
//!   do not change a subscriber's results deliver nothing, so
//!   consumers may observe gaps; the sequence they *do* see is
//!   strictly increasing.
//! * The mailbox is **bounded** (default
//!   [`DEFAULT_MAILBOX_CAPACITY`]). A lagging subscriber loses the
//!   *oldest* undelivered deltas first; the loss is surfaced as
//!   [`SubscriptionEvent::Lagged`] with the number of dropped deltas,
//!   at which point the consumer's accumulated view is stale and
//!   should be rebuilt by re-running the query on a fresh snapshot.
//!   Server-side state is unaffected — subsequent deltas remain exact.
//! * Dropping (or [`Subscription::unsubscribe`]-ing) the handle
//!   deregisters it; the store also prunes closed entries at each
//!   commit.
//!
//! Blocking receives ([`Subscription::recv`],
//! [`Subscription::recv_timeout`]) wake only on delivery: if the owning
//! store is dropped, a blocked `recv` never returns — prefer
//! `recv_timeout`/`try_recv` when the store's lifetime is not under
//! your control.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use sparqlog_datalog::fxhash::FxHashSet;
use sparqlog_datalog::TermId;
use sparqlog_rdf::Term;
use sparqlog_sparql::{GraphPattern, TermPattern};

use crate::serving::{PreparedQuery, Snapshot};
use crate::solution::SolutionSeq;

/// Default bound on undelivered deltas per subscription.
pub const DEFAULT_MAILBOX_CAPACITY: usize = 64;

/// One solution row: bindings aligned with the subscription's
/// projected variables (`None` = unbound).
pub type SolutionRow = Vec<Option<Term>>;

/// The incremental result change one commit produced for one
/// subscription.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResultDelta {
    /// Solutions present after the commit but not before (multiset
    /// semantics: a row appears once per added duplicate).
    pub added: SolutionSeq,
    /// Solutions present before the commit but not after.
    pub removed: SolutionSeq,
    /// The producing commit's monotone sequence number.
    pub commit_seq: u64,
}

/// What [`Subscription::recv`] (and friends) yield.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubscriptionEvent {
    /// A result change. Deltas arrive in commit order.
    Delta(ResultDelta),
    /// The mailbox overflowed and this many *oldest* deltas were
    /// dropped; the consumer's accumulated view is stale (see the
    /// module docs for the recovery contract).
    Lagged(u64),
}

struct MailboxInner {
    queue: VecDeque<ResultDelta>,
    /// Deltas dropped since the consumer last observed the lag.
    missed: u64,
    closed: bool,
}

pub(crate) struct Mailbox {
    inner: Mutex<MailboxInner>,
    ready: Condvar,
    capacity: usize,
}

impl Mailbox {
    fn new(capacity: usize) -> Self {
        Mailbox {
            inner: Mutex::new(MailboxInner {
                queue: VecDeque::new(),
                missed: 0,
                closed: false,
            }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Enqueues a delta, dropping the oldest entries past capacity.
    /// Returns how many were dropped (the caller's lag metric).
    pub(crate) fn push(&self, delta: ResultDelta) -> u64 {
        let mut inner = self.inner.lock().unwrap();
        if inner.closed {
            return 0;
        }
        let mut dropped = 0;
        while inner.queue.len() >= self.capacity {
            inner.queue.pop_front();
            inner.missed += 1;
            dropped += 1;
        }
        inner.queue.push_back(delta);
        drop(inner);
        self.ready.notify_all();
        dropped
    }

    fn take(inner: &mut MailboxInner) -> Option<SubscriptionEvent> {
        if inner.missed > 0 {
            let n = inner.missed;
            inner.missed = 0;
            return Some(SubscriptionEvent::Lagged(n));
        }
        inner.queue.pop_front().map(SubscriptionEvent::Delta)
    }

    pub(crate) fn close(&self) {
        self.inner.lock().unwrap().closed = true;
        self.ready.notify_all();
    }

    pub(crate) fn is_closed(&self) -> bool {
        self.inner.lock().unwrap().closed
    }
}

/// Registry entry, owned by the store. `last` is the server-side result
/// multiset as of the latest commit — the diffing baseline, independent
/// of what the consumer has drained.
pub(crate) struct SubEntry {
    id: u64,
    prepared: PreparedQuery,
    mailbox: Arc<Mailbox>,
    last: Vec<SolutionRow>,
    vars: Vec<String>,
    /// The closed set of triple predicates the query can touch, when
    /// the `WHERE` shape allows deriving one (`None` = unknown — always
    /// re-evaluate).
    preds: Option<Vec<TermId>>,
}

/// The store-side subscription registry plus the shared commit
/// sequence. Lives behind one mutex: commits, subscribes and
/// unsubscribes all serialise on it briefly.
#[derive(Default)]
pub(crate) struct Registry {
    entries: Mutex<Vec<SubEntry>>,
    next_id: std::sync::atomic::AtomicU64,
}

impl Registry {
    pub(crate) fn register(
        &self,
        prepared: PreparedQuery,
        baseline: SolutionSeq,
        preds: Option<Vec<TermId>>,
        capacity: usize,
    ) -> (u64, Arc<Mailbox>) {
        let id = self
            .next_id
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let mailbox = Arc::new(Mailbox::new(capacity));
        self.entries.lock().unwrap().push(SubEntry {
            id,
            prepared,
            mailbox: mailbox.clone(),
            last: baseline.rows,
            vars: baseline.vars,
            preds,
        });
        (id, mailbox)
    }

    pub(crate) fn len(&self) -> usize {
        let mut entries = self.entries.lock().unwrap();
        entries.retain(|e| !e.mailbox.is_closed());
        entries.len()
    }

    pub(crate) fn unregister(&self, id: u64) {
        let mut entries = self.entries.lock().unwrap();
        if let Some(pos) = entries.iter().position(|e| e.id == id) {
            let entry = entries.swap_remove(pos);
            entry.mailbox.close();
        }
    }

    /// Post-commit fan-out, called with the freshly installed snapshot.
    /// `changed_preds` is the exact set of triple-predicate ids the
    /// commit touched — asserted or entailed, added or removed.
    pub(crate) fn notify(
        &self,
        snapshot: &Snapshot,
        changed_preds: &FxHashSet<TermId>,
        commit_seq: u64,
    ) {
        let metrics = snapshot.core_metrics();
        let mut entries = self.entries.lock().unwrap();
        entries.retain(|e| !e.mailbox.is_closed());
        for entry in entries.iter_mut() {
            if let Some(preds) = &entry.preds {
                if !preds.iter().any(|p| changed_preds.contains(p)) {
                    continue; // provably unaffected
                }
            }
            let Ok(result) = snapshot.execute_prepared(&entry.prepared) else {
                // An evaluation failure (budget, timeout) must not lose
                // the delta chain silently: count it as a missed delta.
                entry.mailbox.inner.lock().unwrap().missed += 1;
                entry.mailbox.ready.notify_all();
                metrics.sub_lagged.inc();
                continue;
            };
            let Some(solutions) = result.solutions() else {
                continue;
            };
            let (added, removed) = multiset_diff(&entry.last, &solutions.rows);
            if added.is_empty() && removed.is_empty() {
                continue;
            }
            entry.last = solutions.rows.clone();
            let dropped = entry.mailbox.push(ResultDelta {
                added: SolutionSeq {
                    vars: entry.vars.clone(),
                    rows: added,
                },
                removed: SolutionSeq {
                    vars: entry.vars.clone(),
                    rows: removed,
                },
                commit_seq,
            });
            metrics.sub_notifications.inc();
            metrics.sub_lagged.add(dropped);
        }
    }
}

/// Multiset difference: rows in `new` beyond their multiplicity in
/// `old` (added) and vice versa (removed).
fn multiset_diff(old: &[SolutionRow], new: &[SolutionRow]) -> (Vec<SolutionRow>, Vec<SolutionRow>) {
    let mut counts: HashMap<&SolutionRow, isize> = HashMap::with_capacity(new.len());
    for row in new {
        *counts.entry(row).or_default() += 1;
    }
    for row in old {
        *counts.entry(row).or_default() -= 1;
    }
    let mut added = Vec::new();
    let mut removed = Vec::new();
    for (row, n) in counts {
        for _ in 0..n.max(0) {
            added.push(row.clone());
        }
        for _ in 0..(-n).max(0) {
            removed.push(row.clone());
        }
    }
    (added, removed)
}

/// Derives the closed predicate set of a `WHERE` pattern: `Some(preds)`
/// when the pattern is built from plain triple patterns (joins, unions,
/// optionals, minus, filters) whose predicates are all constant IRIs —
/// then the query's results can only change when a triple with one of
/// those predicates does. A filter reads only the values its pattern
/// binds (the parser rejects `EXISTS`), so it has its pattern's set.
/// Property paths and `GRAPH` blocks fall back to `None`: they reach
/// arbitrary predicates.
fn closed_predicates(pattern: &GraphPattern, out: &mut Vec<Term>) -> bool {
    match pattern {
        GraphPattern::Empty => true,
        GraphPattern::Triple(t) => match &t.predicate {
            TermPattern::Term(term @ Term::Iri(_)) => {
                if !out.contains(term) {
                    out.push(term.clone());
                }
                true
            }
            _ => false,
        },
        GraphPattern::Join(a, b)
        | GraphPattern::Union(a, b)
        | GraphPattern::Optional(a, b)
        | GraphPattern::Minus(a, b) => closed_predicates(a, out) && closed_predicates(b, out),
        GraphPattern::Filter(p, _) => closed_predicates(p, out),
        GraphPattern::Path { .. } | GraphPattern::Graph(..) => false,
    }
}

/// Computes the subscribe-time prefilter for `prepared` against the
/// store's dictionary: the encoded predicate ids, or `None` when the
/// query shape does not admit a closed set.
pub(crate) fn prefilter(prepared: &PreparedQuery, snapshot: &Snapshot) -> Option<Vec<TermId>> {
    let query = prepared.query();
    if !query.dataset.is_empty() {
        return None;
    }
    let mut terms = Vec::new();
    if !closed_predicates(&query.pattern, &mut terms) {
        return None;
    }
    let symbols = snapshot.symbols();
    let dict = snapshot.database().dict();
    Some(
        terms
            .iter()
            .map(|t| dict.encode(&crate::data_translation::term_to_const(t, symbols)))
            .collect(),
    )
}

/// A standing query's receiving end, returned by
/// [`Store::subscribe`](crate::Store::subscribe).
///
/// Holds the initial result set ([`Subscription::initial`]) and a
/// bounded mailbox of [`SubscriptionEvent`]s; see the [module
/// docs](self) for the full delivery contract. Dropping the handle
/// unsubscribes.
pub struct Subscription {
    pub(crate) registry: Arc<Registry>,
    pub(crate) mailbox: Arc<Mailbox>,
    pub(crate) id: u64,
    pub(crate) initial: SolutionSeq,
}

impl Subscription {
    /// The query's full result set at subscription time — the baseline
    /// the deltas apply to.
    pub fn initial(&self) -> &SolutionSeq {
        &self.initial
    }

    /// The projected variable names.
    pub fn vars(&self) -> &[String] {
        &self.initial.vars
    }

    /// Removes the next pending event, without blocking. `None` means
    /// the mailbox is currently empty.
    pub fn try_recv(&self) -> Option<SubscriptionEvent> {
        let mut inner = self.mailbox.inner.lock().unwrap();
        Mailbox::take(&mut inner)
    }

    /// Blocks until an event arrives. See the module docs before using
    /// this with a store you do not own: the call only wakes on
    /// delivery.
    pub fn recv(&self) -> SubscriptionEvent {
        let mut inner = self.mailbox.inner.lock().unwrap();
        loop {
            if let Some(event) = Mailbox::take(&mut inner) {
                return event;
            }
            inner = self.mailbox.ready.wait(inner).unwrap();
        }
    }

    /// Blocks until an event arrives or `timeout` elapses.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<SubscriptionEvent> {
        let deadline = Instant::now() + timeout;
        let mut inner = self.mailbox.inner.lock().unwrap();
        loop {
            if let Some(event) = Mailbox::take(&mut inner) {
                return Some(event);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, _res) = self
                .mailbox
                .ready
                .wait_timeout(inner, deadline - now)
                .unwrap();
            inner = guard;
        }
    }

    /// Deregisters the subscription (equivalent to dropping it).
    pub fn unsubscribe(self) {}
}

impl Drop for Subscription {
    fn drop(&mut self) {
        self.registry.unregister(self.id);
    }
}

impl std::fmt::Debug for Subscription {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Subscription")
            .field("id", &self.id)
            .field("vars", &self.initial.vars)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(names: &[&str]) -> SolutionRow {
        names
            .iter()
            .map(|n| Some(Term::iri(format!("http://ex.org/{n}"))))
            .collect()
    }

    #[test]
    fn multiset_diff_respects_multiplicity() {
        let old = vec![row(&["a"]), row(&["a"]), row(&["b"])];
        let new = vec![row(&["a"]), row(&["b"]), row(&["b"]), row(&["c"])];
        let (mut added, mut removed) = multiset_diff(&old, &new);
        added.sort();
        removed.sort();
        assert_eq!(added, vec![row(&["b"]), row(&["c"])]);
        assert_eq!(removed, vec![row(&["a"])]);
    }

    #[test]
    fn mailbox_drops_oldest_and_reports_lag() {
        let mb = Mailbox::new(2);
        let delta = |seq| ResultDelta {
            added: SolutionSeq {
                vars: vec![],
                rows: vec![],
            },
            removed: SolutionSeq {
                vars: vec![],
                rows: vec![],
            },
            commit_seq: seq,
        };
        for seq in 1..=4 {
            mb.push(delta(seq));
        }
        let mut inner = mb.inner.lock().unwrap();
        assert_eq!(
            Mailbox::take(&mut inner),
            Some(SubscriptionEvent::Lagged(2))
        );
        assert_eq!(
            Mailbox::take(&mut inner),
            Some(SubscriptionEvent::Delta(delta(3)))
        );
        assert_eq!(
            Mailbox::take(&mut inner),
            Some(SubscriptionEvent::Delta(delta(4)))
        );
        assert_eq!(Mailbox::take(&mut inner), None);
    }
}
