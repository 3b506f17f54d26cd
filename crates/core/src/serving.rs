//! Concurrent query serving: [`Snapshot`], the read handle behind
//! [`Store::snapshot`](crate::Store::snapshot), and the parallel
//! query-batch API.
//!
//! The paper's experiments run one query at a time, but the workloads its
//! reproduction targets — see the query-log studies cited in PAPERS.md —
//! are floods of small, read-only queries over a materialised store.
//! Those are embarrassingly parallel: nothing about executing a query
//! needs `&mut` access. Every query entry point takes `&self`, so any
//! number of threads can translate and evaluate queries against one
//! snapshot concurrently (it is `Send + Sync`). Four pieces make this
//! work:
//!
//! * the **snapshot** ([`sparqlog_datalog::FrozenDb`]): relations frozen
//!   with the hash indexes earlier probes built — a mask no query has
//!   probed yet is built by its first probe and kept by every later
//!   snapshot of the store; each query derives its answer predicates into
//!   a private overlay database that falls through to the snapshot and is
//!   dropped with the query;
//! * the **translation cache**: translated programs are memoised by
//!   query text, so repeated query shapes — the common case in real
//!   query logs — skip the SPARQL→Datalog pipeline entirely;
//! * the **plan cache**: each cached translation carries its magic-sets
//!   keep/demote decision and physical plan, computed on its first
//!   execution against the snapshot's statistics and reused until they
//!   drift — the one place either decision is made;
//! * the **batch fan-out** ([`Snapshot::execute_batch`]): a batch
//!   of queries is spread across scoped threads
//!   ([`sparqlog_datalog::run_scoped_caught`]), one overlay per query,
//!   each evaluated on the thread that claimed it, with results returned
//!   in input order regardless of scheduling.
//!
//! Every execution runs under the store's default [`Budget`]; a handle
//! from [`Snapshot::with_budget`] runs under its own instead. There is
//! no other per-call knob: text, parsed query, prepared handle and batch
//! are the inputs, and [`Snapshot::execute_profiled`] the one profiled
//! form.
//!
//! ```
//! use sparqlog::Store;
//!
//! let store = Store::new();
//! store
//!     .load_turtle(
//!         r#"@prefix ex: <http://ex.org/> .
//!            ex:spain ex:borders ex:france .
//!            ex:france ex:borders ex:belgium ."#,
//!     )
//!     .unwrap();
//! let snapshot = store.snapshot();
//! let queries = [
//!     "PREFIX ex: <http://ex.org/> SELECT ?x WHERE { ?x ex:borders ex:france }",
//!     "PREFIX ex: <http://ex.org/> ASK { ex:spain ex:borders ex:belgium }",
//! ];
//! let results = snapshot.execute_batch(&queries);
//! assert_eq!(results[0].as_ref().unwrap().len(), 1); // spain
//! assert!(results[1].as_ref().unwrap().is_empty()); // ASK ⇒ false
//! ```

use std::borrow::Cow;
use std::sync::{Arc, Mutex, RwLock};

use sparqlog_datalog::{
    demand_prunes, demand_subprogram, evaluate_frozen, evaluate_frozen_with_plan,
    fxhash::FxHashMap, magic_sets_rewrite_analyzed, plan_program, run_scoped_caught, Budget,
    CancelToken, DbStats, EvalError, EvalOptions, EvalStats, FrozenDb, Program, ProgramPlan,
    QueryProfile, StatsFingerprint, SymbolTable,
};
use sparqlog_obs::MetricsRegistry;
use sparqlog_sparql::{parse_query, update_keyword, Query};

use crate::error::SparqLogError;
use crate::metrics::CoreMetrics;
use crate::query_translation::{translate_query, TranslatedQuery};
use crate::solution::{extract_results, QueryResults};

/// A cached program choice and physical plan: the program to run (the
/// magic-sets rewrite of the translation when it applied *and* its
/// measured demand pruned — see [`Snapshot::compute_plan`] — else
/// `None` meaning the translation's own program), its plan, and the
/// statistics fingerprint both are valid against.
struct PlanEntry {
    /// The magic-rewritten program, when the rewrite applied and won.
    program: Option<Program>,
    /// The physical plan; `None` when computed with planning disabled.
    plan: Option<ProgramPlan>,
    /// Row counts of the read relations at planning time — the entry is
    /// discarded (and the query replanned) once these drift past the
    /// threshold ([`StatsFingerprint::drifted`]).
    fingerprint: StatsFingerprint,
}

/// A parsed-and-translated query, shared between the cache, prepared
/// handles and any executions in flight.
struct CachedQuery {
    query: Query,
    translated: TranslatedQuery,
    /// The memoised program choice and plan ([`PlanEntry`]). Living on
    /// the cached query rather than the snapshot, it survives commits
    /// exactly like the translation does — re-executing a
    /// [`PreparedQuery`] performs zero planning work until statistics
    /// drift.
    plan: RwLock<Option<Arc<PlanEntry>>>,
}

impl CachedQuery {
    /// The program `entry` runs: its magic-sets rewrite when it kept
    /// one, else the translation's own.
    fn program<'a>(&'a self, entry: Option<&'a PlanEntry>) -> &'a Program {
        entry
            .and_then(|e| e.program.as_ref())
            .unwrap_or(&self.translated.program)
    }
}

/// Upper bound on memoised distinct query texts. A server fed queries
/// with inline literals or generated IDs sees unboundedly many distinct
/// texts; past this cap, new texts are translated per execution instead
/// of inserted (first-come retention — the recurring shapes of a real
/// query log are seen early and stay cached).
pub const MAX_CACHED_TRANSLATIONS: usize = 4096;

/// The text-keyed translation cache plus the store's metric handles.
///
/// Owned behind an `Arc` so it outlives any single [`Snapshot`]:
/// translations are data-independent (they reference interned symbols,
/// never facts), so the [`Store`](crate::Store) commit path threads one
/// cache through every snapshot it installs — hot query shapes stay warm
/// across commits instead of re-translating after every write. A commit
/// never reads the cache. The metrics registry rides along for the same
/// reason: counters must survive commits, and per-store ownership keeps
/// tests isolated.
pub(crate) struct TranslationCache {
    /// Query text → parsed + translated program. Bounded by
    /// [`MAX_CACHED_TRANSLATIONS`] (first-come retention).
    map: RwLock<FxHashMap<String, Arc<CachedQuery>>>,
    /// The store's metric families. `metrics.translations` doubles as
    /// the distinct-translation sequence that namespaces each translated
    /// program's predicates (`f1_ans0`, `f2_ans0`, ...) so programs of
    /// different queries can never collide in an overlay.
    pub(crate) metrics: CoreMetrics,
}

impl TranslationCache {
    pub(crate) fn new() -> Self {
        TranslationCache {
            map: RwLock::new(FxHashMap::default()),
            metrics: CoreMetrics::new(Arc::new(MetricsRegistry::new())),
        }
    }
}

/// A query parsed and translated once, reusable across executions,
/// snapshots and commits of the store that prepared it.
///
/// Produced by [`Store::prepare`](crate::Store::prepare) or
/// [`Snapshot::prepare`]. The handle is
/// `Send + Sync` and cheap to clone (one `Arc` bump); because
/// translations are data-independent, a handle prepared before a commit
/// keeps working on every later snapshot of the same store. Executing it
/// against a *different* store returns
/// [`SparqLogError::ForeignPrepared`] — the translated program is tied
/// to its store's symbol table.
///
/// ```
/// use sparqlog::Store;
///
/// let store = Store::new();
/// store
///     .update("PREFIX ex: <http://ex.org/> INSERT DATA { ex:a ex:p ex:b }")
///     .unwrap();
/// let q = store
///     .prepare("PREFIX ex: <http://ex.org/> SELECT ?o WHERE { ex:a ex:p ?o }")
///     .unwrap();
/// assert_eq!(store.snapshot().execute_prepared(&q).unwrap().len(), 1);
/// // ... the handle survives commits:
/// store
///     .update("PREFIX ex: <http://ex.org/> INSERT DATA { ex:a ex:p ex:c }")
///     .unwrap();
/// assert_eq!(store.snapshot().execute_prepared(&q).unwrap().len(), 2);
/// ```
#[derive(Clone)]
pub struct PreparedQuery {
    inner: Arc<CachedQuery>,
    /// Identity of the preparing store's symbol table, checked at
    /// execution so a handle cannot silently mis-resolve against an
    /// unrelated store.
    symbols: Arc<SymbolTable>,
}

impl PreparedQuery {
    /// The parsed query this handle executes.
    pub fn query(&self) -> &Query {
        &self.inner.query
    }
}

impl std::fmt::Debug for PreparedQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreparedQuery")
            .field("query", &self.inner.query.to_string())
            .finish()
    }
}

/// The state one installed store version serves from: its frozen
/// database, the store's options at install time and the store-lifetime
/// translation cache. The [`Store`](crate::Store) keeps it behind the
/// `Arc` every [`Snapshot`] of that version shares — a commit that finds
/// the `Arc` unshared reclaims it by move (the zero-copy path).
pub(crate) struct Served {
    pub(crate) base: Arc<FrozenDb>,
    pub(crate) options: EvalOptions,
    /// The translation cache — shared with every other snapshot of the
    /// owning [`Store`](crate::Store), so it survives commits.
    pub(crate) cache: Arc<TranslationCache>,
}

/// An immutable, version-stable read view of a [`Store`](crate::Store),
/// serving concurrent queries.
///
/// Reached through [`Store::snapshot`](crate::Store::snapshot); cloning
/// is one atomic refcount. All query entry points take `&self`; the type
/// is `Send + Sync`, so threads may share one instance directly or behind
/// an `Arc`. Writes go through the owning store and are never visible
/// here: passing a SPARQL *Update* string to [`Snapshot::execute`]
/// returns [`SparqLogError::ReadOnly`].
///
/// Executing a query touches three shared structures, each safely
/// concurrent: the snapshot (read-only), the symbol table / term
/// dictionary (internally synchronised interners), and the translation
/// cache (an `RwLock` map; hits are read-locked only). Everything else —
/// the evaluation overlay, staging buffers, solution extraction — is
/// private to the executing thread.
#[derive(Clone)]
pub struct Snapshot {
    inner: Arc<Served>,
    /// The [`Snapshot::with_budget`] override; `None` runs every
    /// execution under the store's default budget.
    budget: Option<Budget>,
}

impl Snapshot {
    /// A handle on an installed store version, under the store's
    /// default budget.
    pub(crate) fn new(inner: Arc<Served>) -> Self {
        Snapshot {
            inner,
            budget: None,
        }
    }

    /// This snapshot under `budget` in place of the store's default: a
    /// handle on the same store version (one `Arc` bump, no copy) whose
    /// every execution — batches included — runs under `budget`. A query
    /// that crosses a limit (or whose [`CancelToken`] fires) returns
    /// [`SparqLogError::Aborted`] within one evaluation batch of the
    /// limit, leaving the snapshot untouched. [`Snapshot::options`] still
    /// reports the store's options.
    ///
    /// In a batch each query gets the budget individually (the timeout
    /// clock starts when *its* evaluation starts, row/dictionary caps are
    /// per-query), except cancellation, which is batch-wide: the first
    /// query to abort cancels its still-running siblings, so a batch
    /// against an overloaded store drains in roughly one query's worth of
    /// time instead of `n`. Ordinary per-query failures (parse errors,
    /// unsupported features) do *not* cancel siblings.
    ///
    /// ```
    /// use std::time::Duration;
    /// use sparqlog::{Budget, Store};
    ///
    /// let store = Store::new();
    /// store
    ///     .load_turtle("@prefix ex: <http://ex.org/> . ex:a ex:p ex:b .")
    ///     .unwrap();
    /// let q = "PREFIX ex: <http://ex.org/> SELECT ?o WHERE { ex:a ex:p ?o }";
    /// let budget = Budget::new().with_timeout(Duration::from_secs(30));
    /// let governed = store.snapshot().with_budget(budget);
    /// assert_eq!(governed.execute(q).unwrap().len(), 1);
    /// ```
    pub fn with_budget(&self, budget: Budget) -> Snapshot {
        Snapshot {
            inner: self.inner.clone(),
            budget: Some(budget),
        }
    }

    /// The options an execution through this handle runs with: the
    /// store's, under the [`Self::with_budget`] override when one is set.
    fn run_options(&self) -> Cow<'_, EvalOptions> {
        match &self.budget {
            None => Cow::Borrowed(&self.inner.options),
            Some(budget) => Cow::Owned(EvalOptions {
                budget: budget.clone(),
                ..self.inner.options.clone()
            }),
        }
    }

    /// The shared symbol table.
    pub fn symbols(&self) -> &Arc<SymbolTable> {
        self.inner.base.symbols()
    }

    /// The underlying frozen Datalog snapshot.
    pub fn database(&self) -> &Arc<FrozenDb> {
        &self.inner.base
    }

    /// Total number of facts in this snapshot.
    pub fn fact_count(&self) -> usize {
        self.inner.base.fact_count()
    }

    /// The store's evaluation options when this snapshot was installed —
    /// including its default budget, which a [`Self::with_budget`]
    /// override replaces for execution but not here.
    pub fn options(&self) -> &EvalOptions {
        &self.inner.options
    }

    /// Number of distinct query texts currently memoised in the
    /// translation cache (shared with every snapshot of the owning
    /// store, so commits do not reset it).
    pub fn cached_translations(&self) -> usize {
        self.inner.cache.map.read().unwrap().len()
    }

    /// The metrics registry shared by every snapshot of the owning
    /// store — the registry `GET /metrics` renders. Other layers (the
    /// HTTP server) register their own families into it so one scrape
    /// covers the whole stack.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.inner.cache.metrics.registry
    }

    /// The cached per-family handles (crate-internal recording sites).
    pub(crate) fn core_metrics(&self) -> &CoreMetrics {
        &self.inner.cache.metrics
    }

    /// Parses and translates a query once, returning a reusable
    /// [`PreparedQuery`] handle. Goes through the translation cache, so
    /// preparing an already-hot text is free; the returned handle skips
    /// even the cache's text hash on execution.
    pub fn prepare(&self, text: &str) -> Result<PreparedQuery, SparqLogError> {
        Ok(PreparedQuery {
            inner: self.translation(text)?,
            symbols: self.inner.base.symbols().clone(),
        })
    }

    /// Guards against executing a handle prepared by a different store:
    /// its program's interned symbols would mis-resolve here.
    fn check_prepared(&self, p: &PreparedQuery) -> Result<(), SparqLogError> {
        if Arc::ptr_eq(&p.symbols, self.inner.base.symbols()) {
            Ok(())
        } else {
            Err(SparqLogError::ForeignPrepared)
        }
    }

    /// Executes a [`PreparedQuery`]: no parsing, no translation, no
    /// cache probe — straight to evaluation against this snapshot.
    pub fn execute_prepared(&self, p: &PreparedQuery) -> Result<QueryResults, SparqLogError> {
        self.check_prepared(p)?;
        self.run(&p.inner, &self.run_options())
    }

    /// Parses, translates (or recalls), evaluates and extracts one query.
    ///
    /// Takes `&self`: any number of threads may call this concurrently.
    /// The first execution of a query text pays parsing + translation and
    /// memoises both; later executions of the same text go straight to
    /// evaluation.
    ///
    /// ```
    /// use sparqlog::Store;
    ///
    /// let store = Store::new();
    /// store
    ///     .load_turtle("@prefix ex: <http://ex.org/> . ex:a ex:p ex:b .")
    ///     .unwrap();
    /// let snapshot = store.snapshot();
    /// let q = "PREFIX ex: <http://ex.org/> SELECT ?o WHERE { ex:a ex:p ?o }";
    /// assert_eq!(snapshot.execute(q).unwrap().len(), 1);
    /// assert_eq!(snapshot.execute(q).unwrap().len(), 1); // cached translation
    /// assert_eq!(snapshot.cached_translations(), 1);
    /// ```
    pub fn execute(&self, query_str: &str) -> Result<QueryResults, SparqLogError> {
        let cached = self.translation(query_str)?;
        self.run(&cached, &self.run_options())
    }

    /// Executes an already-parsed query (translated fresh each call — the
    /// translation cache is keyed by query text; use [`Self::execute`]
    /// for text-level memoisation).
    pub fn execute_query(&self, query: &Query) -> Result<QueryResults, SparqLogError> {
        let cached = self.translate_entry(query.clone())?;
        self.run(&cached, &self.run_options())
    }

    /// [`Self::execute_query`] through the translation cache, keyed by
    /// the query's canonical rendering (which re-parses to the same AST,
    /// so the key is as good as a text) — the store's `DELETE/INSERT …
    /// WHERE` path, where the same pattern recurs request after request.
    pub(crate) fn execute_query_cached(
        &self,
        query: &Query,
    ) -> Result<QueryResults, SparqLogError> {
        let cached = self.memoised(&query.to_string(), || Ok(query.clone()))?;
        self.run(&cached, &self.run_options())
    }

    /// Executes a batch of queries across scoped threads, returning one
    /// result per query **in input order**.
    ///
    /// The fan-out width is the engine's effective thread count
    /// ([`EvalOptions::resolved_threads`], capped at the batch length);
    /// each query evaluates on the thread that claimed it, as a lone
    /// [`Self::execute`] call does, so results are identical to the
    /// sequential ones whatever the width. Per-query failures come back
    /// as `Err` entries without affecting the rest of the batch.
    ///
    /// Two robustness layers (PR 7):
    ///
    /// * **Sibling cancellation** — when the batch is governed (by the
    ///   store's default budget or a [`Self::with_budget`] override),
    ///   every query runs under a child of one group [`CancelToken`]
    ///   (itself a child of the budget's token, so external cancellation
    ///   still propagates); the first governor abort cancels the group.
    /// * **Panic containment** — jobs run under [`run_scoped_caught`],
    ///   so a panicking query (a bug, not a policy outcome) yields an
    ///   `Err` in its own slot while every other query's result is
    ///   returned intact.
    ///
    /// ```
    /// use sparqlog::Store;
    ///
    /// let store = Store::new();
    /// store
    ///     .load_turtle("@prefix ex: <http://ex.org/> . ex:a ex:p ex:b .")
    ///     .unwrap();
    /// let snapshot = store.snapshot();
    /// let results = snapshot.execute_batch(&[
    ///     "PREFIX ex: <http://ex.org/> SELECT ?o WHERE { ex:a ex:p ?o }",
    ///     "this is not sparql",
    /// ]);
    /// assert_eq!(results[0].as_ref().unwrap().len(), 1);
    /// assert!(results[1].is_err()); // the batch keeps going
    /// ```
    pub fn execute_batch(&self, queries: &[&str]) -> Vec<Result<QueryResults, SparqLogError>> {
        let n = queries.len();
        let options = self.run_options();
        let threads = options.resolved_threads().min(n.max(1));
        let budget = &options.budget;
        let (group, effective) = if budget.is_unlimited() {
            // Ungoverned batch: no abort can occur, so skip the token and
            // keep the per-query evaluations on the ungoverned fast path.
            (None, budget.clone())
        } else {
            let group = match budget.cancel_token() {
                Some(t) => t.child(),
                None => CancelToken::new(),
            };
            (Some(group.clone()), budget.clone().with_cancel(group))
        };
        let per_query = EvalOptions {
            budget: effective,
            ..options.into_owned()
        };
        let slots: Vec<Mutex<Option<Result<QueryResults, SparqLogError>>>> =
            (0..n).map(|_| Mutex::new(None)).collect();
        let panics = run_scoped_caught(threads, n, &|i| {
            let result = self
                .translation(queries[i])
                .and_then(|cached| self.run(&cached, &per_query));
            if let (Some(group), Err(SparqLogError::Aborted { .. })) = (&group, &result) {
                group.cancel();
            }
            *slots[i].lock().unwrap() = Some(result);
        });
        for p in panics {
            let mut slot = slots[p.job].lock().unwrap_or_else(|e| e.into_inner());
            *slot = Some(Err(SparqLogError::Eval(EvalError::Internal(format!(
                "query worker panicked: {}",
                p.message
            )))));
        }
        slots
            .into_iter()
            .map(|s| {
                s.into_inner()
                    .unwrap_or_else(|e| e.into_inner())
                    .expect("every batch job ran or was caught")
            })
            .collect()
    }

    /// The memoised translation for `text`, parsing and translating on
    /// the first sighting ([`Self::memoised`]).
    fn translation(&self, text: &str) -> Result<Arc<CachedQuery>, SparqLogError> {
        panic_marker_hook(text);
        self.memoised(text, || {
            parse_query(text).map_err(|e| match update_keyword(text) {
                // An update string would otherwise surface as a baffling
                // "expected SELECT or ASK" parse error — recognise it and
                // say what is actually wrong with *this entry point*.
                Some(kw) => SparqLogError::ReadOnly(kw),
                None => e.into(),
            })
        })
    }

    /// The translation memoised under `key`, obtaining the query from
    /// `parse` and translating it on the first sighting. On a cache race
    /// the first inserted entry wins and is what later executions reuse;
    /// the loser's translation is used once and dropped (both are correct
    /// — prefixes only namespace predicates). Once
    /// [`MAX_CACHED_TRANSLATIONS`] distinct keys are memoised, further
    /// ones translate per execution without inserting, bounding the
    /// cache's memory.
    fn memoised(
        &self,
        key: &str,
        parse: impl FnOnce() -> Result<Query, SparqLogError>,
    ) -> Result<Arc<CachedQuery>, SparqLogError> {
        if let Some(hit) = self.inner.cache.map.read().unwrap().get(key) {
            return Ok(hit.clone());
        }
        let entry = self.translate_entry(parse()?)?;
        let mut cache = self.inner.cache.map.write().unwrap();
        if cache.len() >= MAX_CACHED_TRANSLATIONS && !cache.contains_key(key) {
            return Ok(entry);
        }
        Ok(cache.entry(key.to_string()).or_insert(entry).clone())
    }

    /// Translates a parsed query under a fresh predicate namespace.
    fn translate_entry(&self, query: Query) -> Result<Arc<CachedQuery>, SparqLogError> {
        // Never gated on `armed`: the returned value is the `f{n}_`
        // namespace sequence, not just a statistic.
        let n = self.inner.cache.metrics.translations.inc() as usize;
        let translated = translate_query(&query, self.inner.base.symbols(), &format!("f{n}_"))?;
        Ok(Arc::new(CachedQuery {
            query,
            translated,
            plan: RwLock::new(None),
        }))
    }

    /// Evaluates a translated query against the snapshot in a private
    /// overlay and extracts the typed result. The query's cached program
    /// choice and physical plan are used ([`Self::plan_entry`]: computed
    /// on the first execution, revalidated against the snapshot's
    /// statistics); with both optimisations disabled the translation runs
    /// as is.
    fn run(
        &self,
        cached: &CachedQuery,
        options: &EvalOptions,
    ) -> Result<QueryResults, SparqLogError> {
        self.run_collect(cached, options)
            .map(|(results, ..)| results)
    }

    /// [`Self::run`], also returning the evaluation's record and the plan
    /// entry it ran (whose program, when set, is the one the record's
    /// rule indexes name) — and the one place query-level metrics are
    /// recorded: completed queries, duration, fixpoint work (rounds /
    /// rows / probes) and governor aborts by reason.
    fn run_collect(
        &self,
        cached: &CachedQuery,
        options: &EvalOptions,
    ) -> Result<(QueryResults, EvalStats, Option<Arc<PlanEntry>>), SparqLogError> {
        // One clock for the whole query: a relative timeout becomes a
        // deadline here, shared by the demand measurement a plan may need
        // and the main fixpoint (each would otherwise start its own).
        let options = &EvalOptions {
            budget: options.budget.armed(),
            ..options.clone()
        };
        let evaluated = self.plan_entry(cached, options).and_then(|entry| {
            let e = entry.as_deref();
            let plan = e.and_then(|e| e.plan.as_ref());
            evaluate_frozen_with_plan(cached.program(e), &self.inner.base, options, plan)
                .map(|(db, stats)| (db, stats, entry))
        });
        let m = &self.inner.cache.metrics;
        match evaluated {
            Ok((db, stats, entry)) => {
                m.queries.inc();
                m.query_duration_us
                    .observe(stats.elapsed.as_micros() as u64);
                m.eval_rounds.add(stats.rounds as u64);
                m.eval_rows_derived.add(stats.derived as u64);
                m.eval_join_probes.add(stats.probes);
                Ok((
                    extract_results(&cached.translated, &cached.query, &db),
                    stats,
                    entry,
                ))
            }
            Err(e) => {
                let e: SparqLogError = e.into();
                if let SparqLogError::Aborted { reason, .. } = &e {
                    m.aborts.with(&[reason.label()]).inc();
                }
                Err(e)
            }
        }
    }

    /// [`Self::execute`], also returning the `EXPLAIN ANALYZE`-style
    /// [`QueryProfile`] — per-rule timings, per-round delta sizes, index
    /// builds (see [`sparqlog_datalog::QueryProfile`]). Every execution
    /// records these figures; this form adds the rule texts that name
    /// them.
    ///
    /// ```
    /// use sparqlog::Store;
    ///
    /// let store = Store::new();
    /// store
    ///     .load_turtle("@prefix ex: <http://ex.org/> . ex:a ex:p ex:b .")
    ///     .unwrap();
    /// let snapshot = store.snapshot();
    /// let q = "PREFIX ex: <http://ex.org/> SELECT ?o WHERE { ex:a ex:p ?o }";
    /// let (results, profile) = snapshot.execute_profiled(q).unwrap();
    /// assert_eq!(results.len(), 1);
    /// assert!(profile.render().contains("stratum 0"));
    /// ```
    pub fn execute_profiled(
        &self,
        query_str: &str,
    ) -> Result<(QueryResults, QueryProfile), SparqLogError> {
        let cached = self.translation(query_str)?;
        let (results, stats, entry) = self.run_collect(&cached, &self.run_options())?;
        let rules = &cached.program(entry.as_deref()).rules;
        let profile = QueryProfile {
            rules: stats.rules,
            rule_texts: rules.iter().map(|r| r.display(self.symbols())).collect(),
            strata: stats.strata,
            index_builds: stats.index_builds,
            elapsed: stats.elapsed,
        };
        Ok((results, profile))
    }

    /// The query's program choice and physical plan: a cache hit when an
    /// entry computed under the same planning setting exists and the
    /// snapshot's statistics have not drifted past its fingerprint;
    /// otherwise the query is (re)planned ([`Self::compute_plan`]) and
    /// the entry replaced. `Ok(None)` when both planning and magic sets
    /// are disabled. A failed computation — a governor abort during the
    /// demand measurement, say — is returned and caches nothing.
    fn plan_entry(
        &self,
        cached: &CachedQuery,
        options: &EvalOptions,
    ) -> Result<Option<Arc<PlanEntry>>, EvalError> {
        if !options.plan && !options.magic_sets {
            return Ok(None);
        }
        let stats = self.inner.base.stats();
        if let Some(entry) = cached.plan.read().unwrap().as_ref() {
            if entry.plan.is_some() == options.plan && !entry.fingerprint.drifted(&stats) {
                self.inner.cache.metrics.plan_hits.inc();
                return Ok(Some(entry.clone()));
            }
        }
        let entry = self.compute_plan(cached, options, &stats)?;
        *cached.plan.write().unwrap() = Some(entry.clone());
        self.inner.cache.metrics.plans_computed.inc();
        Ok(Some(entry))
    }

    /// Plans `cached` from scratch against `stats` (the slow path of
    /// [`Self::plan_entry`]) — the one place the magic-sets keep/demote
    /// decision is made. The rewrite is kept only when its measured
    /// demand prunes: the demand subprogram is evaluated against the
    /// snapshot under the query's own (armed) budget — one cheap
    /// fixpoint, linear in the demanded subgraph, amortised over every
    /// execution the entry serves. The fingerprint covers the
    /// unrewritten program's reads; the rewrite reads the same base
    /// relations (its demand predicates are derived), so the one
    /// fingerprint invalidates either choice.
    fn compute_plan(
        &self,
        cached: &CachedQuery,
        options: &EvalOptions,
        stats: &DbStats,
    ) -> Result<Arc<PlanEntry>, EvalError> {
        let symbols = self.inner.base.symbols();
        let program = &cached.translated.program;
        let mut rewritten = None;
        if options.magic_sets {
            if let Some(rw) = magic_sets_rewrite_analyzed(program, symbols) {
                let keep = match demand_subprogram(&rw) {
                    Some(sub) => {
                        let (db, _) = evaluate_frozen(&sub, &self.inner.base, options)?;
                        demand_prunes(&rw, &db)
                    }
                    // Not measurable in isolation: keep the rewrite.
                    None => true,
                };
                if keep {
                    rewritten = Some(rw.program);
                }
            }
        }
        let plan = if options.plan {
            let chosen = rewritten.as_ref().unwrap_or(program);
            Some(plan_program(chosen, symbols, stats)?)
        } else {
            None
        };
        Ok(Arc::new(PlanEntry {
            program: rewritten,
            plan,
            fingerprint: stats.fingerprint(program),
        }))
    }

    /// The snapshot's relation statistics (row counts and per-column
    /// distinct estimates) — collected once per snapshot and carried
    /// incrementally across the store's commits.
    pub fn stats(&self) -> Arc<DbStats> {
        self.inner.base.stats()
    }

    /// Physical plans computed through this store's caches: first
    /// executions and statistics-drift replans.
    pub fn plans_computed(&self) -> usize {
        self.inner.cache.metrics.plans_computed.get() as usize
    }

    /// Renders the physical plan a [`PreparedQuery`] executes with
    /// against this snapshot: per rule and delta variant the compiled
    /// body order, and per atom step its kind (`probe`, `exists`,
    /// `check`), the index mask it probes and its cardinality estimate
    /// ([`ProgramPlan::render`]).
    /// Computes (and caches) the plan if the handle has not executed yet.
    /// A magic-sets rewrite appears here (its `__magic` guards and demand
    /// rules) exactly when its measured demand pruned — see
    /// [`sparqlog_datalog::demand_prunes`].
    /// Errors on a foreign handle or when planning fails; returns a
    /// diagnostic string when planning is disabled.
    pub fn explain(&self, p: &PreparedQuery) -> Result<String, SparqLogError> {
        self.check_prepared(p)?;
        match self.plan_entry(&p.inner, &self.run_options())?.as_deref() {
            Some(
                entry @ PlanEntry {
                    plan: Some(plan), ..
                },
            ) => Ok(plan.render(p.inner.program(Some(entry)), self.symbols())),
            _ => Ok("(no physical plan: planning disabled)".into()),
        }
    }
}

#[cfg(test)]
impl Snapshot {
    /// Every `(pred, mask)` hash index the currently cached plans probe
    /// on a relation of this snapshot, by walking the cache — the masks
    /// the commit-cost test expects every later snapshot to keep.
    pub(crate) fn cached_plan_needs_on_base(
        &self,
    ) -> Vec<(sparqlog_datalog::Sym, sparqlog_datalog::Mask)> {
        let mut out = Vec::new();
        for cached in self.inner.cache.map.read().unwrap().values() {
            let entry = cached.plan.read().unwrap();
            if let Some(plan) = entry.as_ref().and_then(|e| e.plan.as_ref()) {
                let probes = plan.probes(false).chain(plan.probes(true));
                out.extend(probes.filter(|&(_, mask)| mask != 0));
            }
        }
        out.retain(|&(pred, _)| self.inner.base.relation(pred).is_some());
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// Debug-build fault injection: when `SPARQLOG_PANIC_MARKER` is set, any
/// query whose text contains the marker panics inside its batch job. The
/// panic-containment regression tests use this to prove one poisoned
/// query cannot take down its batch; release builds compile the hook out.
fn panic_marker_hook(text: &str) {
    if cfg!(debug_assertions) {
        if let Ok(marker) = std::env::var("SPARQLOG_PANIC_MARKER") {
            if !marker.is_empty() && text.contains(&marker) {
                panic!("injected fault: query contains {marker:?}");
            }
        }
    }
}

impl std::fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snapshot")
            .field("facts", &self.fact_count())
            .field("cached_translations", &self.cached_translations())
            .field("budget", &self.budget)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Store;

    const DATA: &str = r#"@prefix ex: <http://ex.org/> .
        ex:spain ex:borders ex:france .
        ex:france ex:borders ex:belgium .
        ex:belgium ex:borders ex:germany ."#;

    fn snapshot_of(turtle: &str, options: EvalOptions) -> Snapshot {
        let store = Store::with_options(options);
        store.load_turtle(turtle).unwrap();
        store.snapshot()
    }

    fn frozen() -> Snapshot {
        snapshot_of(DATA, EvalOptions::default())
    }

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn frozen_database_is_send_sync() {
        assert_send_sync::<Snapshot>();
    }

    #[test]
    fn translation_cache_hits_by_text() {
        let frozen = frozen();
        let q = "PREFIX ex: <http://ex.org/> SELECT ?b WHERE { ?a ex:borders ?b }";
        let r1 = frozen.execute(q).unwrap();
        let r2 = frozen.execute(q).unwrap();
        assert_eq!(r1, r2);
        assert_eq!(frozen.cached_translations(), 1, "one entry, two executions");
        frozen
            .execute("PREFIX ex: <http://ex.org/> ASK { ex:spain ex:borders ?x }")
            .unwrap();
        assert_eq!(frozen.cached_translations(), 2);
    }

    #[test]
    fn batch_results_in_input_order_with_errors_inline() {
        let frozen = frozen();
        let queries = [
            "PREFIX ex: <http://ex.org/> SELECT ?b WHERE { ex:spain ex:borders ?b }",
            "nonsense ***",
            "PREFIX ex: <http://ex.org/> ASK { ex:belgium ex:borders ex:germany }",
        ];
        let results = frozen.execute_batch(&queries);
        assert_eq!(results.len(), 3);
        assert_eq!(results[0].as_ref().unwrap().len(), 1);
        assert!(results[1].is_err());
        assert_eq!(results[2].as_ref().unwrap().len(), 1, "ASK true");
    }

    #[test]
    fn update_strings_get_read_only_error_not_parse_noise() {
        let frozen = frozen();
        let err = frozen
            .execute("PREFIX ex: <http://ex.org/> INSERT DATA { ex:a ex:p ex:b }")
            .unwrap_err();
        assert_eq!(err, SparqLogError::ReadOnly("INSERT"));
        assert!(err.to_string().contains("read-only"), "{err}");
        let err = frozen.execute("CLEAR ALL").unwrap_err();
        assert_eq!(err, SparqLogError::ReadOnly("CLEAR"));
        // Genuinely malformed input still reports a parse error.
        assert!(matches!(
            frozen.execute("garbage ***").unwrap_err(),
            SparqLogError::Parse(_)
        ));
    }

    #[test]
    fn empty_batch() {
        assert!(frozen().execute_batch(&[]).is_empty());
    }

    #[test]
    fn prepared_reexecution_performs_zero_planning_work() {
        let frozen = frozen();
        let q = frozen
            .prepare(
                "PREFIX ex: <http://ex.org/>
                 SELECT ?a ?c WHERE { ?a ex:borders ?b . ?b ex:borders ?c }",
            )
            .unwrap();
        let first = frozen.execute_prepared(&q).unwrap();
        assert_eq!(frozen.plans_computed(), 1, "first execution plans");
        let hits = || {
            frozen
                .metrics()
                .counter_value("sparqlog_plan_cache_hits_total")
        };
        assert_eq!(hits(), Some(0));
        for _ in 0..5 {
            assert_eq!(frozen.execute_prepared(&q).unwrap(), first);
        }
        assert_eq!(frozen.plans_computed(), 1, "re-execution never replans");
        assert_eq!(hits(), Some(5));
    }

    #[test]
    fn explain_shows_probe_masks_and_estimates() {
        let frozen = frozen();
        let q = frozen
            .prepare(
                "PREFIX ex: <http://ex.org/>
                 SELECT ?a ?c WHERE { ?a ex:borders ?b . ?b ex:borders ?c }",
            )
            .unwrap();
        let text = frozen.explain(&q).unwrap();
        assert!(text.contains("order:"), "{text}");
        assert!(text.contains("mask="), "{text}");
        assert!(text.contains("est="), "{text}");
        // Explaining cached the plan; the execution below hits it.
        let computed = frozen.plans_computed();
        frozen.execute_prepared(&q).unwrap();
        assert_eq!(frozen.plans_computed(), computed);
    }

    #[test]
    fn planned_and_unplanned_results_agree() {
        let frozen = frozen();
        let unplanned = snapshot_of(
            DATA,
            EvalOptions {
                plan: false,
                magic_sets: false,
                ..EvalOptions::default()
            },
        );
        for q in [
            "PREFIX ex: <http://ex.org/> SELECT ?b WHERE { ex:spain ex:borders+ ?b }",
            "PREFIX ex: <http://ex.org/>
             SELECT ?a ?c WHERE { ?a ex:borders ?b . ?b ex:borders ?c }",
            "PREFIX ex: <http://ex.org/> ASK { ex:spain ex:borders ?x }",
        ] {
            assert_eq!(
                frozen.execute(q).unwrap(),
                unplanned.execute(q).unwrap(),
                "{q}"
            );
        }
        assert_eq!(unplanned.plans_computed(), 0, "planning stayed off");
    }

    /// `n` chain triples `ex:n0 → ex:n1 → …` (or a closed ring of `n`
    /// nodes) as Turtle.
    fn path_turtle(n: usize, ring: bool) -> String {
        let mut ttl = String::from("@prefix ex: <http://ex.org/> .\n");
        for i in 0..n {
            let succ = if ring { (i + 1) % n } else { i + 1 };
            ttl.push_str(&format!("ex:n{i} ex:p ex:n{succ} .\n"));
        }
        ttl
    }

    #[test]
    fn selective_demand_keeps_the_magic_rewrite() {
        // A closure bound by a filter near the end of a 30-edge chain
        // (a constant endpoint only once the equality is unified, so T_Q
        // emits the binary closure) demands a handful of nodes: planning
        // measures that and keeps the rewrite.
        let frozen = snapshot_of(&path_turtle(30, false), EvalOptions::default());
        let q = frozen
            .prepare(
                "PREFIX ex: <http://ex.org/> SELECT ?z WHERE { ?x ex:p+ ?z FILTER (?x = ex:n25) }",
            )
            .unwrap();
        assert!(
            frozen.explain(&q).unwrap().contains("__magic"),
            "selective demand keeps the rewrite"
        );
        let r = frozen.execute_prepared(&q).unwrap();
        assert_eq!(r.len(), 5, "n26..n30");
        assert_eq!(frozen.execute_prepared(&q).unwrap(), r);
    }

    #[test]
    fn non_pruning_demand_demotes_the_magic_rewrite() {
        // On a strongly-connected ring every endpoint demands every
        // node — the restriction prunes nothing and its guard joins are
        // pure overhead, so planning measures the demand fixpoint once
        // and picks the plain program instead; no execution ever pays
        // for the rewrite.
        let frozen = snapshot_of(&path_turtle(30, true), EvalOptions::default());
        let q = frozen
            .prepare(
                "PREFIX ex: <http://ex.org/> SELECT ?z WHERE { ?x ex:p+ ?z FILTER (?x = ex:n0) }",
            )
            .unwrap();
        assert!(
            !frozen.explain(&q).unwrap().contains("__magic"),
            "non-pruning demand demotes to the plain plan"
        );
        let r = frozen.execute_prepared(&q).unwrap();
        assert_eq!(r.len(), 30, "every node is reachable");
        assert_eq!(frozen.execute_prepared(&q).unwrap(), r);
        assert_eq!(
            frozen.plans_computed(),
            1,
            "the demotion is part of the one plan"
        );
    }

    #[test]
    fn aborted_demand_measurement_caches_no_plan() {
        // The budget is armed once per query and governs the demand
        // measurement too: under an already-cancelled token the first
        // execution aborts inside the measurement, and nothing it did
        // not finish is cached — no plan, and in particular no
        // "keep the rewrite" verdict standing in for the measurement.
        let frozen = snapshot_of(&path_turtle(30, true), EvalOptions::default());
        let q = frozen
            .prepare(
                "PREFIX ex: <http://ex.org/> SELECT ?z WHERE { ?x ex:p+ ?z FILTER (?x = ex:n0) }",
            )
            .unwrap();
        let cancel = CancelToken::new();
        cancel.cancel();
        let err = frozen
            .with_budget(Budget::new().with_cancel(cancel))
            .execute_prepared(&q)
            .unwrap_err();
        assert!(
            matches!(
                err,
                SparqLogError::Aborted {
                    reason: sparqlog_datalog::AbortReason::Cancelled,
                    ..
                }
            ),
            "got {err:?}"
        );
        assert_eq!(frozen.plans_computed(), 0, "an aborted plan is not cached");
        assert!(
            !frozen.explain(&q).unwrap().contains("__magic"),
            "a fresh measurement demotes the rewrite on the ring"
        );
        assert_eq!(frozen.plans_computed(), 1);
    }

    #[test]
    fn snapshot_stats_reflect_the_data() {
        let frozen = frozen();
        let stats = frozen.stats();
        let triple = frozen.symbols().get("triple").expect("triple interned");
        assert_eq!(stats.relation(triple).expect("triple has stats").rows, 3);
    }
}
