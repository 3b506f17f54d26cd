//! Per-store metric handles over the [`sparqlog_obs`] registry.
//!
//! Every [`Store`](crate::Store) owns one
//! [`MetricsRegistry`](sparqlog_obs::MetricsRegistry), created with its
//! translation cache so it survives commits exactly like the cache does
//! and is shared by every snapshot. [`CoreMetrics`] registers the
//! engine's metric families once and caches the `Arc` handles, so the
//! recording sites in the serving, store and subscription layers pay a
//! relaxed atomic add — never a name lookup.
//!
//! The datalog crate stays free of metric handles: the evaluator
//! reports through [`EvalStats`](sparqlog_datalog::EvalStats) and the
//! serving layer sinks those numbers here after each query.

use std::sync::Arc;

use sparqlog_obs::{Counter, CounterVec, Histogram, MetricsRegistry};

/// The four phases of a commit, in execution order — the `phase` label
/// values of `sparqlog_commit_phase_duration_us` and the index into
/// [`CoreMetrics::commit_phase_us`].
pub(crate) const COMMIT_PHASES: [&str; 4] = ["stage", "maintain", "refreeze", "notify"];

/// Cached handles for every metric family the core crate records.
///
/// Owned by the store's translation cache (one per store, shared by all
/// its snapshots). The registry itself is reachable via
/// [`CoreMetrics::registry`] for rendering and for other layers (HTTP)
/// to register their own families into.
pub(crate) struct CoreMetrics {
    /// The owning registry (rendered by `GET /metrics`).
    pub(crate) registry: Arc<MetricsRegistry>,
    /// Parse+translate passes (cache misses; also the `f{n}_` predicate
    /// namespace sequence, so this counter is never gated on `armed`).
    pub(crate) translations: Arc<Counter>,
    /// Executions served from a still-valid cached physical plan.
    pub(crate) plan_hits: Arc<Counter>,
    /// Physical plans computed (first executions and drift replans).
    pub(crate) plans_computed: Arc<Counter>,
    /// Queries evaluated to completion.
    pub(crate) queries: Arc<Counter>,
    /// Evaluation wall time per completed query, µs.
    pub(crate) query_duration_us: Arc<Histogram>,
    /// Semi-naive rounds across all completed queries.
    pub(crate) eval_rounds: Arc<Counter>,
    /// Rows derived (after dedup) across all completed queries.
    pub(crate) eval_rows_derived: Arc<Counter>,
    /// Join probes (delta rows scanned, index entries probed).
    pub(crate) eval_join_probes: Arc<Counter>,
    /// Governor aborts by `reason` label.
    pub(crate) aborts: Arc<CounterVec>,
    /// Committed write transactions.
    pub(crate) commits: Arc<Counter>,
    /// Commit latency (thaw → re-freeze), µs.
    pub(crate) commit_duration_us: Arc<Histogram>,
    /// Commit latency by phase ([`COMMIT_PHASES`] order), µs.
    pub(crate) commit_phase_us: [Arc<Histogram>; 4],
    /// Relations re-scanned for planner statistics by commits (a carried
    /// relation costs none).
    pub(crate) stats_rescans: Arc<Counter>,
    /// Triples actually added by commits.
    pub(crate) rows_added: Arc<Counter>,
    /// Triples actually removed by commits.
    pub(crate) rows_removed: Arc<Counter>,
    /// Removal commits handled by the incremental DRed maintainer.
    pub(crate) removals_maintained: Arc<Counter>,
    /// Rows commit maintenance staged, before dedup, deriving the
    /// consequences of additions (O(delta) but for ontology installs).
    pub(crate) maintain_rows_staged: Arc<Counter>,
    /// Snapshots re-frozen and installed by commits.
    pub(crate) snapshot_refreshes: Arc<Counter>,
    /// Result deltas delivered to standing-query subscriptions.
    pub(crate) sub_notifications: Arc<Counter>,
    /// Deltas dropped on lagging subscribers (mailbox overflow or a
    /// failed re-evaluation).
    pub(crate) sub_lagged: Arc<Counter>,
}

impl CoreMetrics {
    /// Registers (or re-attaches to) the core metric families in
    /// `registry` and caches the handles.
    pub(crate) fn new(registry: Arc<MetricsRegistry>) -> Self {
        let r = &registry;
        let phases = r.histogram_vec(
            "sparqlog_commit_phase_duration_us",
            "Commit latency by phase (stage, maintain, refreeze, notify) in microseconds.",
            &["phase"],
            22,
        );
        CoreMetrics {
            translations: r.counter(
                "sparqlog_translations_total",
                "SPARQL parse+translate passes performed (translation-cache misses).",
            ),
            plan_hits: r.counter(
                "sparqlog_plan_cache_hits_total",
                "Executions served from a still-valid cached physical plan.",
            ),
            plans_computed: r.counter(
                "sparqlog_plans_computed_total",
                "Physical plans computed: first executions and statistics-drift replans.",
            ),
            queries: r.counter("sparqlog_queries_total", "Queries evaluated to completion."),
            query_duration_us: r.histogram(
                "sparqlog_query_duration_us",
                "Query evaluation wall time in microseconds.",
                22,
            ),
            eval_rounds: r.counter(
                "sparqlog_eval_rounds_total",
                "Semi-naive fixpoint rounds across completed queries.",
            ),
            eval_rows_derived: r.counter(
                "sparqlog_eval_rows_derived_total",
                "Rows derived (after dedup) across completed queries.",
            ),
            eval_join_probes: r.counter(
                "sparqlog_eval_join_probes_total",
                "Join probes: delta rows scanned and index entries probed.",
            ),
            aborts: r.counter_vec(
                "sparqlog_query_aborts_total",
                "Queries stopped by the execution governor, by reason.",
                &["reason"],
            ),
            commits: r.counter(
                "sparqlog_store_commits_total",
                "Committed write transactions.",
            ),
            commit_duration_us: r.histogram(
                "sparqlog_store_commit_duration_us",
                "Commit latency (thaw, apply, re-materialise, re-freeze) in microseconds.",
                22,
            ),
            commit_phase_us: COMMIT_PHASES.map(|phase| phases.with(&[phase])),
            stats_rescans: r.counter(
                "sparqlog_store_stats_rescans_total",
                "Relations re-scanned for planner statistics by commits.",
            ),
            rows_added: r.counter(
                "sparqlog_store_rows_added_total",
                "Triples actually added by commits (staged duplicates excluded).",
            ),
            rows_removed: r.counter(
                "sparqlog_store_rows_removed_total",
                "Triples actually removed by commits (absent removals excluded).",
            ),
            removals_maintained: r.counter(
                "sparqlog_store_removals_maintained_total",
                "Removal commits handled by the incremental DRed maintainer.",
            ),
            maintain_rows_staged: r.counter(
                "sparqlog_store_maintain_rows_staged_total",
                "Rows commit maintenance staged (before dedup) deriving the consequences of additions.",
            ),
            snapshot_refreshes: r.counter(
                "sparqlog_store_snapshot_refreshes_total",
                "Snapshots re-frozen and installed by commits.",
            ),
            sub_notifications: r.counter(
                "sparqlog_subscription_notifications_total",
                "Result deltas delivered to standing-query subscriptions.",
            ),
            sub_lagged: r.counter(
                "sparqlog_subscription_lagged_total",
                "Deltas dropped on lagging subscribers (overflow or failed re-evaluation).",
            ),
            registry,
        }
    }
}

impl std::fmt::Debug for CoreMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoreMetrics")
            .field("queries", &self.queries.get())
            .field("commits", &self.commits.get())
            .finish()
    }
}
