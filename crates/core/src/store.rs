//! The unified [`Store`] API: one durable handle serving cheap read
//! snapshots and explicit write sessions, with SPARQL 1.1 Update on top.
//!
//! The store is the system's one engine: every load, update and query
//! goes through it. The lifecycle it models is the one real query logs
//! exhibit — read-mostly traffic with occasional writes (a read-only
//! workload is simply a store with one loading commit):
//!
//! * [`Store::snapshot`] hands out a [`Snapshot`]: an `Arc`-shared,
//!   indexed read view and the one query surface. Snapshots are cheap
//!   (one atomic refcount), immutable, `Send + Sync`, and keep serving
//!   their version of the data even while later commits land — readers
//!   are never blocked and never see partial writes. Queries run under
//!   the store's default [`Budget`] ([`Store::set_default_budget`]) or a
//!   handle's own ([`Snapshot::with_budget`]).
//! * [`Store::writer`] opens a [`Writer`]: a session that stages
//!   triple-level additions and removals (and `CLEAR`s) and applies
//!   them atomically on [`Writer::commit`]. The commit *thaws* the
//!   current frozen snapshot back into a mutable database
//!   ([`sparqlog_datalog::FrozenDb::thaw`]), applies the delta, brings
//!   the derived predicates up to date from it, and re-freezes —
//!   **incrementally**: per-mask hash indexes of untouched predicates
//!   are carried through thaw and maintained in place, so a small delta
//!   never pays the `2^arity - 1` index rebuild of a from-scratch
//!   freeze.
//! * [`Store::update`] executes SPARQL 1.1 Update requests
//!   (`INSERT DATA`, `DELETE DATA`, `DELETE/INSERT ... WHERE`,
//!   `CLEAR`) end-to-end: `WHERE` clauses run through the ordinary
//!   query pipeline against the current snapshot, and the resulting
//!   bindings instantiate the delete/insert templates into a write
//!   session.
//!
//! ```
//! use sparqlog::Store;
//!
//! let store = Store::new();
//! store
//!     .update(
//!         r#"PREFIX ex: <http://ex.org/>
//!            INSERT DATA { ex:spain ex:borders ex:france .
//!                          ex:france ex:borders ex:belgium }"#,
//!     )
//!     .unwrap();
//! let q = "PREFIX ex: <http://ex.org/> SELECT ?b WHERE { ex:spain ex:borders+ ?b }";
//! assert_eq!(store.execute(q).unwrap().len(), 2);
//!
//! // Snapshots are stable read views: this one will not see the delete.
//! let before = store.snapshot();
//! store
//!     .update(
//!         "PREFIX ex: <http://ex.org/> DELETE DATA { ex:france ex:borders ex:belgium }",
//!     )
//!     .unwrap();
//! assert_eq!(before.execute(q).unwrap().len(), 2);
//! assert_eq!(store.execute(q).unwrap().len(), 1);
//! ```
//!
//! # Consistency model
//!
//! Commits serialise on an internal commit lock; each produces a new
//! immutable snapshot installed atomically, so queries observe either
//! the pre- or the post-commit state, never a mixture ("repeatable
//! read" for any query or batch pinned to one snapshot). A SPARQL
//! Update *request* holds the commit lock end to end — concurrent
//! read-modify-write requests cannot interleave between a `WHERE`
//! evaluation and its commit — though a request is not atomic under
//! failure: operations commit one by one, and an error leaves the
//! earlier operations applied.
//!
//! Readers holding a [`Snapshot`] are never blocked by a commit (a
//! [`Snapshot::with_budget`] handle shares its snapshot, so it counts
//! as one). A commit that finds live snapshots works on a copy while the
//! store keeps serving the pre-commit version (new [`Store::snapshot`] /
//! [`Store::execute`] calls proceed immediately); with no snapshot
//! alive it takes the zero-copy path instead — relations are moved, and
//! readers arriving mid-commit wait for it. No budget governs a commit
//! (the store's default [`Budget`] is a query policy), so a commit fails
//! only on an engine fault. Failure is graceful on the copy path — the
//! pre-commit snapshot stays installed — but poisons the store on the
//! zero-copy path (subsequent access panics rather than serving
//! half-updated derived predicates).
//!
//! # Ontologies and deletion
//!
//! Ontology axioms ([`Store::add_ontology`]) are materialised by the
//! commit that installs them — the one commit that runs a full fixpoint.
//! Every other commit maintains the T_D auxiliary predicates (`named`
//! and `subjectOrObject`; compatibility is computed per query, not
//! stored) and the ontology entailments one way, in time proportional
//! to the delta's consequences, always on the evaluator's semi-naive
//! loop seeded with the rows that changed: deletions run through DRed
//! ([`sparqlog_datalog::retract`]: an overdelete run, then a re-derive
//! run, of rewritten rules), which retracts a derived fact exactly when
//! its last asserted support disappears; additions through
//! [`sparqlog_datalog::extend`], seeded with exactly the rows the commit
//! inserted. After every commit the store is multiset-equal to loading
//! the surviving asserted triples fresh and re-materialising. To tell
//! assertions from entailments the store keeps an *asserted ledger* (the
//! explicitly written quads) from the first ontology install on: deletes
//! apply to the ledger, and a triple that is both asserted and entailed
//! stays visible until its last support is gone.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock, RwLockWriteGuard};
use std::time::Instant;

use sparqlog_datalog::fxhash::{FxHashMap, FxHashSet};
use sparqlog_datalog::{
    evaluate, extend, retract, stage_row, Budget, Const, Database, DbStats, EvalError, EvalOptions,
    FrozenDb, MaintainError, Mask, Program, Relation, Retraction, RowBatch, Rule, Sym, SymbolTable,
    TermId,
};
use sparqlog_rdf::{Dataset, Graph, Term};
use sparqlog_sparql::{
    parse_update, ClearTarget, GroundQuad, QuadPattern, TermPattern, Update, UpdateOperation,
};

use crate::data_translation::{base_program, default_graph_const, preds, term_to_const};
use crate::error::SparqLogError;
use crate::metrics::COMMIT_PHASES;
use crate::ontology::Ontology;
use crate::query_translation::update_where_query;
use crate::serving::{PreparedQuery, Served, Snapshot, TranslationCache};
use crate::solution::QueryResults;
use crate::subscribe::{prefilter, Registry, Subscription, DEFAULT_MAILBOX_CAPACITY};

const POISONED: &str = "store poisoned: a previous commit failed mid-materialisation";

/// Counters reported by a committed write session.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CommitStats {
    /// Triples actually added (staged duplicates of existing triples do
    /// not count).
    pub added: usize,
    /// Triples actually removed (staged removals of absent triples do
    /// not count).
    pub removed: usize,
}

impl CommitStats {
    fn absorb(&mut self, other: CommitStats) {
        self.added += other.added;
        self.removed += other.removed;
    }
}

struct StoreState {
    /// The serving snapshot. `None` only while a zero-copy commit holds
    /// the state lock (readers block, never observe it) — or permanently
    /// after such a commit failed ([`POISONED`]).
    frozen: Option<Arc<Served>>,
    /// Accumulated ontology rules, maintained by every commit.
    ontology: Program,
    /// The asserted ledger: the explicitly written quads, tracked
    /// separately from the (entailment-bearing) `triple` relation from
    /// the first ontology-carrying commit on. `None` while no ontology
    /// has ever been installed — `triple` *is* the asserted set then.
    /// Only touched under the commit lock.
    asserted: Option<Arc<Relation>>,
    /// Evaluation options for commits and for snapshots created after
    /// the next commit.
    options: EvalOptions,
}

/// A durable RDF store: one handle for loading, updating and querying.
///
/// All methods take `&self` — the store is `Send + Sync` and meant to be
/// shared (directly or behind an `Arc`) between writer and reader
/// threads. See the [module docs](self) for the lifecycle and
/// consistency model.
pub struct Store {
    state: RwLock<StoreState>,
    /// Serialises commits — and whole SPARQL Update requests, so a
    /// request's `WHERE` evaluation and its commit form one critical
    /// section (no lost updates between concurrent read-modify-write
    /// requests). Held around [`Store::apply_locked`]; never acquired
    /// by read paths.
    commit_lock: Mutex<()>,
    /// Uniquifies blank-node labels minted by `INSERT` templates and
    /// `INSERT DATA` blocks across update executions.
    bnode_epoch: AtomicUsize,
    /// Standing-query subscriptions, notified after each commit (see
    /// [`Store::subscribe`]). Shared with the [`Subscription`] handles
    /// so dropping one deregisters it without a store reference.
    subs: Arc<Registry>,
    /// Monotone commit counter stamped onto subscription deltas.
    /// Incremented per successful commit, under the commit lock.
    commit_seq: AtomicU64,
}

impl Default for Store {
    fn default() -> Self {
        Self::new()
    }
}

impl Store {
    /// Creates an empty store with default evaluation options.
    pub fn new() -> Self {
        Self::with_options(EvalOptions::default())
    }

    /// Creates an empty store with explicit evaluation options (default
    /// budget, thread count, planner and magic-sets toggles, ...).
    pub fn with_options(options: EvalOptions) -> Self {
        let frozen = Arc::new(Served {
            base: Database::new().freeze(),
            options: options.clone(),
            cache: Arc::new(TranslationCache::new()),
        });
        Store {
            state: RwLock::new(StoreState {
                frozen: Some(frozen),
                ontology: Program::new(),
                asserted: None,
                options,
            }),
            commit_lock: Mutex::new(()),
            bnode_epoch: AtomicUsize::new(0),
            subs: Arc::new(Registry::default()),
            commit_seq: AtomicU64::new(0),
        }
    }

    /// The current read view: an `Arc`-shared, indexed snapshot.
    ///
    /// Snapshots are immutable and version-stable — later commits do not
    /// affect them — and carry the whole concurrent query API
    /// ([`Snapshot::execute`], [`Snapshot::execute_batch`], prepared
    /// handles, [`Snapshot::with_budget`]).
    pub fn snapshot(&self) -> Snapshot {
        let state = self.state.read().unwrap();
        Snapshot::new(state.frozen.as_ref().expect(POISONED).clone())
    }

    /// Opens a write session staging triple-level changes; nothing is
    /// visible to readers until [`Writer::commit`].
    pub fn writer(&self) -> Writer<'_> {
        Writer {
            store: self,
            adds: Vec::new(),
            removes: Vec::new(),
            clears: Vec::new(),
        }
    }

    /// Parses and executes a query against the current snapshot
    /// (convenience for [`Store::snapshot`] + `execute`; takes a fresh
    /// snapshot per call, so prefer holding a [`Snapshot`] when issuing
    /// many queries against one version).
    pub fn execute(&self, query: &str) -> Result<QueryResults, SparqLogError> {
        self.snapshot().execute(query)
    }

    /// Parses and translates a query once, returning a reusable
    /// [`PreparedQuery`] handle. Translations are data-independent, so
    /// the handle stays valid across commits — execute it against any
    /// later [`Snapshot`] through [`Snapshot::execute_prepared`].
    pub fn prepare(&self, query: &str) -> Result<PreparedQuery, SparqLogError> {
        self.snapshot().prepare(query)
    }

    /// Registers a standing `SELECT` query: after every commit that
    /// changes its results, the returned [`Subscription`] receives a
    /// [`ResultDelta`](crate::ResultDelta) — the exact multiset
    /// difference against the previous results, stamped with the
    /// commit's monotone sequence number. The subscription's baseline
    /// ([`Subscription::initial`]) is the result set at registration
    /// time, taken atomically with the registration (no commit can fall
    /// between them). See [`crate::subscribe`] for the delivery
    /// contract (bounded mailbox, lagging policy, drop cleanup).
    pub fn subscribe(&self, query: &PreparedQuery) -> Result<Subscription, SparqLogError> {
        self.subscribe_with_capacity(query, DEFAULT_MAILBOX_CAPACITY)
    }

    /// [`Store::subscribe`] with an explicit mailbox bound (clamped to
    /// at least 1): the maximum number of undelivered deltas before the
    /// oldest are dropped and surfaced as
    /// [`SubscriptionEvent::Lagged`](crate::SubscriptionEvent::Lagged).
    pub fn subscribe_with_capacity(
        &self,
        query: &PreparedQuery,
        capacity: usize,
    ) -> Result<Subscription, SparqLogError> {
        if !query.query().is_select() {
            return Err(SparqLogError::Translation(
                crate::query_translation::TranslationError {
                    message: "subscriptions require a SELECT query".into(),
                    unsupported: false,
                    feature: None,
                },
            ));
        }
        // Hold the commit lock across baseline + registration so no
        // commit can land between them (a commit would then be neither
        // in the baseline nor delivered as a delta).
        let _serial = self.commit_lock.lock().unwrap();
        let snapshot = self.snapshot();
        let result = snapshot.execute_prepared(query)?;
        let baseline = result
            .solutions()
            .expect("SELECT queries yield solutions")
            .clone();
        let preds = prefilter(query, &snapshot);
        let (id, mailbox) = self
            .subs
            .register(query.clone(), baseline.clone(), preds, capacity);
        Ok(Subscription {
            registry: self.subs.clone(),
            mailbox,
            id,
            initial: baseline,
        })
    }

    /// Number of live subscriptions (closed handles are pruned at the
    /// next commit).
    pub fn subscription_count(&self) -> usize {
        self.subs.len()
    }

    /// Parses and executes a SPARQL 1.1 Update request. Operations apply
    /// in order, each seeing the effects of the previous one; the
    /// returned stats aggregate over all of them.
    pub fn update(&self, text: &str) -> Result<CommitStats, SparqLogError> {
        let update = parse_update(text)?;
        self.apply_update(&update)
    }

    /// Executes an already-parsed update request (see [`Store::update`]).
    ///
    /// The whole request runs under the store's commit lock: concurrent
    /// update requests serialise end to end, so a read-modify-write
    /// request (`DELETE/INSERT ... WHERE`) never computes its bindings
    /// from a state another writer is about to replace.
    pub fn apply_update(&self, update: &Update) -> Result<CommitStats, SparqLogError> {
        let _serial = self.commit_lock.lock().unwrap();
        let mut total = CommitStats::default();
        for op in &update.operations {
            let stats = match op {
                UpdateOperation::InsertData(quads) => {
                    // SPARQL 1.1 Update §3.1.1: blank nodes in INSERT
                    // DATA denote *fresh* nodes per request execution —
                    // relabel with a per-execution epoch so re-running
                    // the request mints new nodes instead of silently
                    // merging with equally-labelled existing ones.
                    // (Labels stay shared *within* one request. The '!'
                    // separator cannot occur in any parsed blank-node
                    // label, so a freshened label can never collide
                    // with a loaded one.)
                    let epoch = self.bnode_epoch.fetch_add(1, Ordering::Relaxed);
                    let freshen = |t: &Term| match t {
                        Term::BlankNode(label) => Term::bnode(format!("{label}!u{epoch}")),
                        other => other.clone(),
                    };
                    let adds: Vec<GroundQuad> = quads
                        .iter()
                        .map(|q| GroundQuad {
                            subject: freshen(&q.subject),
                            predicate: q.predicate.clone(),
                            object: freshen(&q.object),
                            graph: q.graph.clone(),
                        })
                        .collect();
                    self.apply_locked(&adds, &[], &[], None)?
                }
                UpdateOperation::DeleteData(quads) => self.apply_locked(&[], quads, &[], None)?,
                UpdateOperation::Clear(target) => {
                    self.apply_locked(&[], &[], std::slice::from_ref(target), None)?
                }
                UpdateOperation::DeleteInsert {
                    delete,
                    insert,
                    pattern,
                } => self.delete_insert_where(delete, insert, pattern.clone())?,
            };
            total.absorb(stats);
        }
        Ok(total)
    }

    /// The pattern-driven update family: run the `WHERE` clause through
    /// the ordinary query pipeline on the current snapshot, then feed
    /// every solution into the delete/insert templates. Deletes apply
    /// before inserts, both computed against the pre-operation state
    /// (SPARQL 1.1 Update §3.1.3). Caller holds the commit lock.
    fn delete_insert_where(
        &self,
        delete: &[QuadPattern],
        insert: &[QuadPattern],
        pattern: sparqlog_sparql::GraphPattern,
    ) -> Result<CommitStats, SparqLogError> {
        let query = update_where_query(pattern);
        let result = self.snapshot().execute_query_cached(&query)?;
        let Some(solutions) = result.solutions() else {
            return Ok(CommitStats::default());
        };
        let epoch = self.bnode_epoch.fetch_add(1, Ordering::Relaxed);
        let mut adds = Vec::new();
        let mut removes = Vec::new();
        for (row, sol) in solutions.iter().enumerate() {
            for template in delete {
                // Parser guarantees no bnodes in delete templates, so
                // `fresh = None` never drops a quad for that reason.
                if let Some(q) = instantiate(template, &sol, None) {
                    removes.push(q);
                }
            }
            for template in insert {
                // '!' cannot occur in a parsed blank-node label, so the
                // minted label is collision-free (see InsertData above).
                let fresh = Some(format!("!u{epoch}r{row}"));
                if let Some(q) = instantiate(template, &sol, fresh.as_deref()) {
                    adds.push(q);
                }
            }
        }
        self.apply_locked(&adds, &removes, &[], None)
    }

    /// Stages and commits a Turtle document into the default graph.
    pub fn load_turtle(&self, src: &str) -> Result<CommitStats, SparqLogError> {
        let mut w = self.writer();
        w.add_turtle(src)?;
        w.commit()
    }

    /// Stages and commits an N-Triples document into the default graph.
    pub fn load_ntriples(&self, src: &str) -> Result<CommitStats, SparqLogError> {
        let mut w = self.writer();
        w.add_ntriples(src)?;
        w.commit()
    }

    /// Stages and commits a dataset (default and named graphs).
    pub fn load_dataset(&self, ds: &Dataset) -> Result<CommitStats, SparqLogError> {
        let mut w = self.writer();
        w.add_dataset(ds);
        w.commit()
    }

    /// Adds ontology axioms and re-materialises; queries against
    /// snapshots taken afterwards see the entailed triples.
    pub fn add_ontology(&self, onto: &Ontology) -> Result<CommitStats, SparqLogError> {
        let _serial = self.commit_lock.lock().unwrap();
        self.apply_locked(&[], &[], &[], Some(onto))
    }

    /// Total number of facts in the current snapshot: `triple` rows
    /// (asserted and entailed) plus the `named` and `subjectOrObject`
    /// rows T_D derives from them.
    pub fn fact_count(&self) -> usize {
        self.snapshot().fact_count()
    }

    /// The store's symbol table (shared across all snapshots).
    pub fn symbols(&self) -> Arc<SymbolTable> {
        self.snapshot().symbols().clone()
    }

    /// The evaluation options commits run with.
    pub fn options(&self) -> EvalOptions {
        self.state.read().unwrap().options.clone()
    }

    /// Sets the fan-out width of [`Snapshot::execute_batch`] for
    /// subsequent snapshots (the current snapshot is re-wrapped; the
    /// translation cache is store-lifetime and carries over). `None`
    /// restores the default, the machine's available parallelism. Every
    /// query and commit evaluates on its caller's thread whatever the
    /// width, so results do not depend on it.
    pub fn set_threads(&self, threads: Option<usize>) {
        let mut options = self.options();
        options.threads = threads;
        self.set_options(options);
    }

    /// Sets the default [`Budget`] every subsequent query runs under —
    /// the store-wide guard-rail policy, the HTTP endpoint's included.
    /// [`Snapshot::with_budget`] overrides it per handle; snapshots taken
    /// before this call keep the budget they were taken with. The budget is a *query* policy: a
    /// relative timeout in it is re-armed per query, not counted from
    /// this call, and commits never run under it.
    pub fn set_default_budget(&self, budget: Budget) {
        let mut options = self.options();
        options.budget = budget;
        self.set_options(options);
    }

    /// Replaces the evaluation options for subsequent commits, queries
    /// and snapshots — thread count, the cost-based planner and
    /// magic-sets toggles, and the default budget. The current snapshot
    /// is re-wrapped around the new options;
    /// the translation cache (and its cached plans) is store-lifetime
    /// and carries over.
    pub fn set_options(&self, options: EvalOptions) {
        let mut state = self.state.write().unwrap();
        state.options = options;
        let current = state.frozen.as_ref().expect(POISONED);
        let served = Served {
            base: current.base.clone(),
            options: state.options.clone(),
            cache: current.cache.clone(),
        };
        state.frozen = Some(Arc::new(served));
    }

    /// [`Store::apply_locked`] behind the commit lock — the entry point
    /// for write sessions and bulk loads.
    fn apply(
        &self,
        adds: &[GroundQuad],
        removes: &[GroundQuad],
        clears: &[ClearTarget],
    ) -> Result<CommitStats, SparqLogError> {
        let _serial = self.commit_lock.lock().unwrap();
        self.apply_locked(adds, removes, clears, None)
    }

    /// Applies a staged delta — and installs `ontology`'s rules, if given
    /// — in four phases: [`Store::stage`] → [`Commit::maintain`] →
    /// [`Store::refreeze`] → [`Store::notify`], each timed into
    /// `sparqlog_commit_phase_duration_us`. Caller holds the commit lock
    /// (which serialises writers). Every phase costs O(delta) on the
    /// zero-copy path: none of them iterates the translation cache or a
    /// whole relation (an ontology install and a hit `CLEAR` excepted —
    /// their deltas are not small).
    fn apply_locked(
        &self,
        adds: &[GroundQuad],
        removes: &[GroundQuad],
        clears: &[ClearTarget],
        ontology: Option<&Ontology>,
    ) -> Result<CommitStats, SparqLogError> {
        let commit_start = Instant::now();
        // Phase durations in `COMMIT_PHASES` order, back to back: each
        // ends where the next begins.
        let mut phase_us = [0u64; COMMIT_PHASES.len()];
        let mut phases = phase_us.iter_mut();
        let mut phase_start = commit_start;
        let mut end_phase = || {
            let now = Instant::now();
            *phases.next().expect("four phases") =
                now.duration_since(phase_start).as_micros() as u64;
            phase_start = now;
        };

        let mut commit = self.stage(adds, removes, clears, ontology);
        end_phase();
        // On failure the mutated copy is dropped with `commit`: the copy
        // path still has the pre-commit snapshot installed and keeps
        // serving it; the zero-copy path has nothing to fall back to —
        // the store is poisoned (`frozen` stays `None`).
        let outcome = commit.maintain()?;
        end_phase();
        let (snapshot, stats_rescans) = self.refreeze(commit);
        end_phase();
        self.notify(&snapshot, &outcome);
        end_phase();

        let m = snapshot.core_metrics();
        m.commits.inc();
        m.commit_duration_us
            .observe(commit_start.elapsed().as_micros() as u64);
        for (histogram, us) in m.commit_phase_us.iter().zip(phase_us) {
            histogram.observe(us);
        }
        m.stats_rescans.add(stats_rescans as u64);
        m.rows_added.add(outcome.stats.added as u64);
        m.rows_removed.add(outcome.stats.removed as u64);
        if outcome.stats.removed > 0 {
            m.removals_maintained.inc();
        }
        m.maintain_rows_staged.add(outcome.staged as u64);
        m.snapshot_refreshes.inc();
        Ok(outcome.stats)
    }

    /// Commit phase 1: reclaim the serving snapshot into a mutable
    /// database, encode the staged quads, resolve the staged removals
    /// and clears to the asserted rows they actually hit, and compile
    /// `ontology` (if any) into the rules this commit installs.
    fn stage(
        &self,
        adds: &[GroundQuad],
        removes: &[GroundQuad],
        clears: &[ClearTarget],
        ontology: Option<&Ontology>,
    ) -> Commit<'_> {
        let mut state = self.state.write().unwrap();
        let options = state.options.clone();
        let current = state.frozen.take().expect(POISONED);
        let new_rules: Vec<Rule> =
            ontology.map_or_else(Vec::new, |o| o.to_program(current.base.symbols()).rules);
        let mut program = base_program(current.base.symbols());
        program.rules.extend(state.ontology.rules.iter().cloned());
        program.rules.extend(new_rules.iter().cloned());

        // Reclaim the snapshot. When no snapshot handle is alive the
        // wrapper and then the FrozenDb unwrap uniquely and the
        // relations are *moved* into the mutable database, indexes and
        // all — zero copy, but the state lock stays held until the new
        // snapshot is installed (readers arriving mid-commit block; none
        // existed at commit start), which is why no phase may cost more
        // than the delta. When live snapshots force the copy path, the
        // old snapshot is put straight back and the state lock released:
        // readers keep being served the pre-commit version while the
        // commit works on a deep copy (O(store), see `FrozenDb::thaw`),
        // and a failed commit leaves the store untouched instead of
        // poisoned.
        let (base, cache, asserted, held_state) = match Arc::try_unwrap(current) {
            Ok(served) => {
                let asserted = state.asserted.take();
                (served.base, served.cache, asserted, Some(state))
            }
            Err(shared) => {
                let (base, cache) = (shared.base.clone(), shared.cache.clone());
                let asserted = state.asserted.clone();
                state.frozen = Some(shared);
                drop(state);
                (base, cache, asserted, None)
            }
        };
        // The asserted ledger follows the same two paths: moved out on
        // the zero-copy path, cloned alongside the database on the copy
        // path (a failed copy-path commit leaves the installed ledger
        // untouched).
        let mut asserted: Option<Relation> =
            asserted.map(|a| Arc::try_unwrap(a).unwrap_or_else(|shared| shared.clone_for_write()));
        // The outgoing snapshot's statistics (if any query collected
        // them) are carried across the commit by `refreeze`.
        let prev_stats = base.stats_if_ready();
        let db = FrozenDb::thaw(base);
        let symbols = db.symbols().clone();
        let dict = db.dict().clone();
        let vocab = Vocab {
            triple: symbols.intern(preds::TRIPLE),
            named: symbols.intern(preds::NAMED),
            default_graph: dict.encode(&default_graph_const(&symbols)),
        };

        // Start the asserted ledger at the first ontology install: from
        // here on `triple` also carries entailed rows, so the assertions
        // need their own record for deletes to maintain against. (At
        // this point `triple` still holds assertions only.)
        if !new_rules.is_empty() && asserted.is_none() {
            asserted = Some(match db.relation(vocab.triple) {
                Some(rel) => rel.clone_for_write(),
                None => Relation::new(),
            });
        }

        let encode_quad = |q: &GroundQuad| -> [TermId; 4] {
            let graph = match &q.graph {
                None => vocab.default_graph,
                Some(name) => dict.encode(&Const::Iri(symbols.intern(name))),
            };
            [
                dict.encode(&term_to_const(&q.subject, &symbols)),
                dict.encode(&term_to_const(&q.predicate, &symbols)),
                dict.encode(&term_to_const(&q.object, &symbols)),
                graph,
            ]
        };
        let add_rows: Vec<[TermId; 4]> = adds.iter().map(encode_quad).collect();

        // Collect the asserted rows a staged removal actually hits: a
        // DELETE DATA of absent quads or a CLEAR of an empty graph
        // leaves this empty and is routed to the (much cheaper)
        // pure-addition path. Under an ontology the ledger — not the
        // entailment-bearing `triple` relation — is the removal target,
        // so deleting a merely-entailed triple is a no-op.
        let mut removed_rows: Vec<[TermId; 4]> = Vec::new();
        if (!removes.is_empty() || !clears.is_empty()) && db.relation(vocab.triple).is_some() {
            let remove_rows: HashSet<[TermId; 4]> = removes.iter().map(encode_quad).collect();
            let mut clear_default = false;
            let mut clear_named = false;
            let mut clear_graphs: HashSet<TermId> = HashSet::new();
            for c in clears {
                match c {
                    ClearTarget::Default => clear_default = true,
                    ClearTarget::Named => clear_named = true,
                    ClearTarget::All => {
                        clear_default = true;
                        clear_named = true;
                    }
                    ClearTarget::Graph(g) => {
                        clear_graphs.insert(dict.encode(&Const::Iri(symbols.intern(g))));
                    }
                }
            }
            let default_graph = vocab.default_graph;
            let view: &Relation = match asserted.as_ref() {
                Some(ledger) => ledger,
                None => db.relation(vocab.triple).expect("checked above"),
            };
            // Probe the graph-column index for clear targets first: only
            // a CLEAR that hits anything pays the scan below.
            let default_rows = || view.lookup(0b1000, &[default_graph]).len();
            let clears_hit = (clear_default && default_rows() > 0)
                || (clear_named && default_rows() < view.len())
                || clear_graphs
                    .iter()
                    .any(|g| !view.lookup(0b1000, &[*g]).is_empty());
            if clears_hit {
                for row in view.iter() {
                    let row4: [TermId; 4] = row.try_into().expect("triple/4 rows are quads");
                    let g = row4[3];
                    let cleared = (clear_default && g == default_graph)
                        || (clear_named && g != default_graph)
                        || clear_graphs.contains(&g);
                    if cleared || remove_rows.contains(&row4) {
                        removed_rows.push(row4);
                    }
                }
            } else {
                removed_rows.extend(remove_rows.iter().filter(|r| view.contains(*r)));
            }
        }

        Commit {
            held_state,
            db,
            asserted,
            cache,
            prev_stats,
            options,
            program,
            new_rules,
            vocab,
            add_rows,
            removed_rows,
        }
    }

    /// Commit phase 3: re-freeze the maintained database and install it
    /// as the serving snapshot. Returns the installed snapshot and the
    /// number of relations re-scanned for statistics.
    ///
    /// Freezing builds no index: the relations keep the masks earlier
    /// queries' probes built, carried through the thaw and maintained by
    /// the commit, so hot query shapes never wait for an index build
    /// after a commit. The translation cache is threaded through to the
    /// new snapshot unread (translations and, until statistics drift,
    /// their plans are data-independent). Statistics are carried by
    /// patching row counts ([`FrozenDb::warm_stats_from`]).
    fn refreeze(&self, commit: Commit<'_>) -> (Snapshot, usize) {
        let snapshot = commit.db.freeze();
        let stats_rescans = commit
            .prev_stats
            .as_deref()
            .map_or(0, |prev| snapshot.warm_stats_from(prev));
        let new_frozen = Arc::new(Served {
            base: snapshot,
            options: commit.options,
            cache: commit.cache,
        });
        let new_asserted = commit.asserted.map(Arc::new);
        let mut state = match commit.held_state {
            Some(state) => state,
            None => self.state.write().unwrap(),
        };
        state.frozen = Some(new_frozen.clone());
        state.asserted = new_asserted;
        state.ontology.rules.extend(commit.new_rules);
        (Snapshot::new(new_frozen), stats_rescans)
    }

    /// Commit phase 4: the snapshot is installed; fan the commit out to
    /// standing queries (still under the commit lock, so deltas are
    /// stamped and delivered in commit order). A commit that changed no
    /// triple and no assertion skips the whole pass.
    fn notify(&self, snapshot: &Snapshot, outcome: &Outcome) {
        let commit_seq = self.commit_seq.fetch_add(1, Ordering::Relaxed) + 1;
        if !outcome.changed_preds.is_empty() || outcome.stats != CommitStats::default() {
            self.subs
                .notify(snapshot, &outcome.changed_preds, commit_seq);
        }
    }

    /// The store's metrics registry: one per store, shared by every
    /// snapshot and surviving commits (it travels with the translation
    /// cache). Covers evaluation, planning, store commit, and
    /// subscription families; the HTTP layer registers its request
    /// families into the same registry, and `GET /metrics` renders it
    /// in the Prometheus text exposition format.
    pub fn metrics(&self) -> Arc<sparqlog_obs::MetricsRegistry> {
        self.snapshot().metrics().clone()
    }
}

impl std::fmt::Debug for Store {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Store")
            .field("facts", &self.fact_count())
            .finish()
    }
}

/// The T_D vocabulary a commit touches, interned once per commit.
struct Vocab {
    triple: Sym,
    named: Sym,
    /// The default graph's identifier in `triple`'s graph column.
    default_graph: TermId,
}

/// A commit in flight: what [`Store::stage`] reclaims and resolves,
/// [`Commit::maintain`] mutates and [`Store::refreeze`] consumes.
struct Commit<'s> {
    /// The state lock, held from `stage` to `refreeze` on the zero-copy
    /// path (`None` on the copy path). Dropping a commit that still
    /// holds it leaves the store poisoned.
    held_state: Option<RwLockWriteGuard<'s, StoreState>>,
    /// The thawed snapshot.
    db: Database,
    /// The asserted ledger (see [`StoreState::asserted`]).
    asserted: Option<Relation>,
    cache: Arc<TranslationCache>,
    /// The outgoing snapshot's statistics, if collected.
    prev_stats: Option<Arc<DbStats>>,
    options: EvalOptions,
    /// T_D's `subjectOrObject` rules plus the ontology's, `new_rules`
    /// included.
    program: Program,
    /// Ontology rules [`Store::add_ontology`] installs with this commit.
    new_rules: Vec<Rule>,
    vocab: Vocab,
    /// The staged additions, encoded (parallel to the staged quads).
    add_rows: Vec<[TermId; 4]>,
    /// The asserted rows the staged removals and clears actually hit.
    removed_rows: Vec<[TermId; 4]>,
}

/// What [`Commit::maintain`] did, for [`Store::notify`] and the metrics.
struct Outcome {
    stats: CommitStats,
    /// Subscription prefilter bookkeeping: the predicate ids of every
    /// `triple` row this commit added or removed, asserted or entailed.
    changed_preds: FxHashSet<TermId>,
    /// Rows the seeded runs ([`retract`]'s two, then [`extend`], or
    /// [`evaluate`] on an install) staged before dedup — the commit's
    /// maintenance work.
    staged: usize,
}

impl Commit<'_> {
    /// Commit phase 2: [`retract`] the removals (DRed), insert the
    /// additions and [`extend`] from exactly the rows that were new — or
    /// [`evaluate`] it all when the commit installs rules. Not a query, so
    /// unbudgeted.
    fn maintain(&mut self) -> Result<Outcome, SparqLogError> {
        let options = EvalOptions {
            budget: Budget::default(),
            ..self.options.clone()
        };
        let mut outcome = Outcome {
            stats: CommitStats {
                added: 0,
                removed: self.removed_rows.len(),
            },
            changed_preds: FxHashSet::default(),
            staged: 0,
        };
        if !self.removed_rows.is_empty() {
            let retraction = self.retract_removals(&options)?;
            outcome.staged = retraction.staged;
            let removed = retraction.removed.get(&self.vocab.triple);
            outcome
                .changed_preds
                .extend(removed.into_iter().flatten().map(|row| row[1]));
        }
        let Commit {
            db,
            asserted,
            vocab,
            program,
            ..
        } = self;

        // ------------------------------------------------ additions
        // Insert the staged quads and their named-graph facts; every row
        // that was not present yet is a seed. Under an ontology a quad
        // counts as added when it is new to the *ledger*: a triple that
        // was only entailed so far becomes asserted, but its `triple`
        // row — present, consequences and all — is no seed.
        let triples_before = db.relation(vocab.triple).map_or(0, Relation::len);
        let mut seed: FxHashMap<Sym, RowBatch> = FxHashMap::default();
        for row in &self.add_rows {
            let new_row = db.relation_mut(vocab.triple).insert(row);
            if new_row {
                stage_row(&mut seed, vocab.triple, row);
            }
            let added = match asserted.as_mut() {
                Some(ledger) => ledger.insert(row),
                None => new_row,
            };
            if !added {
                continue;
            }
            outcome.stats.added += 1;
            if row[3] != vocab.default_graph && db.relation_mut(vocab.named).insert(&[row[3]]) {
                stage_row(&mut seed, vocab.named, &[row[3]]);
            }
        }

        // ------------------------------------- derived predicates
        let stats = if self.new_rules.is_empty() {
            extend(program, db, seed, &options).map_err(maintenance_error)?
        } else {
            // An install's one-shot evaluation probes `triple` by its
            // rules' constants with the graph free (masks 0b0010 and
            // 0b0110), which default-graph queries never do. It keeps the
            // masks it found and drops the ones it built, so later
            // commits do not maintain, nor thaws copy, indexes no query
            // asked for.
            let found = db.relation(vocab.triple).map(Relation::index_masks);
            let stats = evaluate(program, db, &options)?;
            if let Some(found) = found {
                db.relation_mut(vocab.triple).retain_indexes(&found);
            }
            stats
        };
        outcome.staged += stats.staged;

        // Relations only grew since `triples_before` was read, so the
        // rows past it are exactly the triples this commit appended.
        if let Some(triples) = db.relation(vocab.triple) {
            outcome
                .changed_preds
                .extend((triples_before..triples.len()).map(|i| triples.row(i as u32)[1]));
        }
        Ok(outcome)
    }

    /// The removal half of [`Commit::maintain`]: retracts `removed_rows`
    /// and everything that lived by them — their graphs' `named` facts
    /// included — through the DRed maintainer.
    fn retract_removals(&mut self, options: &EvalOptions) -> Result<Retraction, SparqLogError> {
        let Commit {
            db,
            asserted,
            vocab,
            removed_rows,
            program,
            ..
        } = self;
        let removed_set: FxHashSet<[TermId; 4]> = removed_rows.iter().copied().collect();
        // Drop the assertions from the ledger first: the external-
        // support probe below must see the *post*-deletion asserted
        // set, so a deleted assertion no longer supports itself.
        // Targeted removal — the ledger never pays a full rebuild.
        if let Some(ledger) = asserted.as_mut() {
            ledger.remove_rows(&removed_rows.iter().map(|r| r.to_vec()).collect());
        }

        // Stage the deletion seeds: the removed quads themselves, plus
        // the `named` facts of graphs whose last asserted quad just
        // disappeared (`named` comes from asserted data only, so
        // survival is probed against the asserted view —
        // O(occurrences), not O(store)).
        let mut deleted: FxHashMap<Sym, RowBatch> = FxHashMap::default();
        let mut graph_cands: FxHashSet<TermId> = FxHashSet::default();
        for row in removed_rows.iter() {
            stage_row(&mut deleted, vocab.triple, row);
            if row[3] != vocab.default_graph {
                graph_cands.insert(row[3]);
            }
        }
        {
            // Post-removal asserted view: the retained ledger, or —
            // without an ontology — the still-uncompacted `triple`
            // relation minus the removed set.
            let view: &Relation = match asserted.as_ref() {
                Some(ledger) => ledger,
                None => db.relation(vocab.triple).expect("seeds exist"),
            };
            let survives = |mask: Mask, key: &[TermId]| {
                view.lookup(mask, key).iter().any(|&i| {
                    let row4: [TermId; 4] =
                        view.row(i).try_into().expect("triple/4 rows are quads");
                    !removed_set.contains(&row4)
                })
            };
            for &g in &graph_cands {
                if !survives(0b1000, &[g])
                    && db.relation(vocab.named).is_some_and(|r| r.contains(&[g]))
                {
                    stage_row(&mut deleted, vocab.named, &[g]);
                }
            }
        }

        // Delete/re-derive. A triple row keeps external support
        // while it remains in the asserted ledger (it may *also* be
        // entailed); everything else lives and dies by the rules.
        let triple_p = vocab.triple;
        let support = |pred: Sym, row: &[TermId]| {
            pred == triple_p && asserted.as_ref().is_some_and(|l| l.contains(row))
        };
        retract(program, db, &deleted, &support, options).map_err(maintenance_error)
    }
}

/// A maintenance failure as the store reports it: the store's program is
/// always positive, so a refused shape is an engine bug.
fn maintenance_error(e: MaintainError) -> SparqLogError {
    match e {
        MaintainError::Eval(e) => e.into(),
        MaintainError::Unsupported(what) => SparqLogError::Eval(EvalError::Internal(what)),
    }
}

/// Instantiates a quad template under one solution. `fresh` is the
/// blank-node freshening suffix for INSERT templates (`None` in DELETE
/// templates, where the parser already rejected blank nodes). Returns
/// `None` — dropping the quad, per SPARQL 1.1 Update §3.1.3 — when a
/// template variable is unbound or the instantiation is not a valid RDF
/// triple.
fn instantiate(
    template: &QuadPattern,
    sol: &crate::solution::Solution<'_>,
    fresh: Option<&str>,
) -> Option<GroundQuad> {
    let resolve = |tp: &TermPattern| -> Option<Term> {
        match tp {
            TermPattern::Term(Term::BlankNode(label)) => {
                fresh.map(|suffix| Term::bnode(format!("{label}{suffix}")))
            }
            TermPattern::Term(t) => Some(t.clone()),
            TermPattern::Var(v) => sol.get(v.name()).cloned(),
        }
    };
    let subject = resolve(&template.subject)?;
    let predicate = resolve(&template.predicate)?;
    let object = resolve(&template.object)?;
    if subject.is_literal() || !predicate.is_iri() {
        return None;
    }
    Some(GroundQuad {
        subject,
        predicate,
        object,
        graph: template.graph.clone(),
    })
}

/// A write session on a [`Store`]: stages triple additions, removals
/// and graph clears, applied atomically by [`Writer::commit`].
///
/// Staged changes are invisible to every reader (and to queries issued
/// through the same store) until the commit installs the new snapshot.
/// Dropping the writer without committing discards the staged changes.
#[derive(Debug)]
pub struct Writer<'a> {
    store: &'a Store,
    adds: Vec<GroundQuad>,
    removes: Vec<GroundQuad>,
    clears: Vec<ClearTarget>,
}

impl Writer<'_> {
    /// Stages a triple addition into the default graph.
    pub fn insert(&mut self, subject: Term, predicate: Term, object: Term) {
        self.insert_quad(GroundQuad {
            subject,
            predicate,
            object,
            graph: None,
        });
    }

    /// Stages a triple addition into the named graph `graph`.
    pub fn insert_in(&mut self, graph: &str, subject: Term, predicate: Term, object: Term) {
        self.insert_quad(GroundQuad {
            subject,
            predicate,
            object,
            graph: Some(Arc::from(graph)),
        });
    }

    /// Stages a quad addition.
    pub fn insert_quad(&mut self, quad: GroundQuad) {
        self.adds.push(quad);
    }

    /// Stages a triple removal from the default graph.
    pub fn remove(&mut self, subject: Term, predicate: Term, object: Term) {
        self.remove_quad(GroundQuad {
            subject,
            predicate,
            object,
            graph: None,
        });
    }

    /// Stages a triple removal from the named graph `graph`.
    pub fn remove_in(&mut self, graph: &str, subject: Term, predicate: Term, object: Term) {
        self.remove_quad(GroundQuad {
            subject,
            predicate,
            object,
            graph: Some(Arc::from(graph)),
        });
    }

    /// Stages a quad removal.
    pub fn remove_quad(&mut self, quad: GroundQuad) {
        self.removes.push(quad);
    }

    /// Stages a graph clear.
    pub fn clear(&mut self, target: ClearTarget) {
        self.clears.push(target);
    }

    /// Stages every triple of a graph into the default graph.
    pub fn add_graph(&mut self, g: &Graph) {
        for (s, p, o) in g.iter() {
            self.insert(s.clone(), p.clone(), o.clone());
        }
    }

    /// Stages a whole dataset (default and named graphs).
    pub fn add_dataset(&mut self, ds: &Dataset) {
        self.add_graph(ds.default_graph());
        for (name, graph) in ds.named_graphs() {
            for (s, p, o) in graph.iter() {
                self.insert_in(name, s.clone(), p.clone(), o.clone());
            }
        }
    }

    /// Parses a Turtle document and stages its triples into the default
    /// graph.
    pub fn add_turtle(&mut self, src: &str) -> Result<(), SparqLogError> {
        let g = sparqlog_rdf::turtle::parse(src).map_err(|e| SparqLogError::Data(e.to_string()))?;
        self.add_graph(&g);
        Ok(())
    }

    /// Parses an N-Triples document and stages its triples into the
    /// default graph.
    pub fn add_ntriples(&mut self, src: &str) -> Result<(), SparqLogError> {
        let g =
            sparqlog_rdf::ntriples::parse(src).map_err(|e| SparqLogError::Data(e.to_string()))?;
        self.add_graph(&g);
        Ok(())
    }

    /// Number of staged additions and removals (clears count as one
    /// removal each until committed).
    pub fn staged(&self) -> usize {
        self.adds.len() + self.removes.len() + self.clears.len()
    }

    /// True when nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.staged() == 0
    }

    /// Applies the staged changes atomically and installs the new
    /// snapshot. Removals apply before additions (so a quad staged for
    /// both ends up present). Returns the number of triples actually
    /// added and removed.
    pub fn commit(self) -> Result<CommitStats, SparqLogError> {
        self.store.apply(&self.adds, &self.removes, &self.clears)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subscribe::SubscriptionEvent;
    use sparqlog_sparql::parse_query;

    const EX: &str = "http://ex.org/";

    fn iri(l: &str) -> Term {
        Term::iri(format!("{EX}{l}"))
    }

    fn borders_store() -> Store {
        let store = Store::new();
        store
            .load_turtle(
                r#"@prefix ex: <http://ex.org/> .
                   ex:spain ex:borders ex:france .
                   ex:france ex:borders ex:belgium .
                   ex:belgium ex:borders ex:germany ."#,
            )
            .unwrap();
        store
    }

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn store_and_snapshot_are_send_sync() {
        assert_send_sync::<Store>();
        assert_send_sync::<Snapshot>();
    }

    #[test]
    fn writer_inserts_and_removes_triples() {
        let store = borders_store();
        let q = "PREFIX ex: <http://ex.org/> SELECT ?b WHERE { ex:spain ex:borders+ ?b }";
        assert_eq!(store.execute(q).unwrap().len(), 3);

        let mut w = store.writer();
        w.insert(iri("germany"), iri("borders"), iri("austria"));
        w.remove(iri("belgium"), iri("borders"), iri("germany"));
        assert_eq!(w.staged(), 2);
        let stats = w.commit().unwrap();
        assert_eq!(
            stats,
            CommitStats {
                added: 1,
                removed: 1
            }
        );
        assert_eq!(store.execute(q).unwrap().len(), 2, "france, belgium");

        // Duplicate adds and absent removes are no-ops.
        let mut w = store.writer();
        w.insert(iri("germany"), iri("borders"), iri("austria"));
        w.remove(iri("belgium"), iri("borders"), iri("germany"));
        assert_eq!(
            w.commit().unwrap(),
            CommitStats {
                added: 0,
                removed: 0
            }
        );
    }

    #[test]
    fn snapshots_are_version_stable() {
        let store = borders_store();
        let q = "PREFIX ex: <http://ex.org/> SELECT ?b WHERE { ?a ex:borders ?b }";
        let before = store.snapshot();
        assert_eq!(before.execute(q).unwrap().len(), 3);
        store.update("CLEAR DEFAULT").unwrap();
        assert_eq!(before.execute(q).unwrap().len(), 3, "old version intact");
        assert_eq!(store.snapshot().execute(q).unwrap().len(), 0);
    }

    /// A [`Snapshot::with_budget`] handle shares the installed snapshot
    /// rather than holding a copy of its database: while it alone is
    /// alive a commit must take the copy path (a handle that kept only the
    /// `FrozenDb` would let the commit reclaim the snapshot by move and
    /// deep-copy the store under the state lock).
    #[test]
    fn budgeted_handle_is_a_view_not_a_copy() {
        let store = Store::new();
        let mut w = store.writer();
        for i in 0..30 {
            w.insert(iri(&format!("n{i}")), iri("p"), iri(&format!("n{}", i + 1)));
        }
        w.commit().unwrap();
        let heavy = "PREFIX ex: <http://ex.org/> SELECT ?a ?b WHERE { ?a ex:p+ ?b }";
        let light = "PREFIX ex: <http://ex.org/> SELECT ?o WHERE { ex:n0 ex:p ?o }";

        let snapshot = store.snapshot();
        let h = snapshot.with_budget(Budget::new().with_max_rows(50));
        let err = h.execute(heavy).unwrap_err();
        assert!(err.is_aborted(), "{err:?}");
        assert_eq!(snapshot.execute(heavy).unwrap().len(), 465, "30·31/2 pairs");
        drop(snapshot);

        let installed = || store.state.read().unwrap().frozen.clone().unwrap();
        assert_eq!(
            Arc::strong_count(&installed()),
            3,
            "the store's, h's and this probe's"
        );
        store
            .update("PREFIX ex: <http://ex.org/> INSERT DATA { ex:n0 ex:p ex:extra }")
            .unwrap();
        assert_eq!(h.execute(light).unwrap().len(), 1, "h kept its version");
        assert_eq!(store.execute(light).unwrap().len(), 2);
        drop(h);
        assert_eq!(
            Arc::strong_count(&installed()),
            2,
            "the store's and the probe's"
        );
    }

    #[test]
    fn copy_path_commits_keep_lazily_probed_masks() {
        let store = borders_store();
        let held = store.snapshot();
        let triple = held.symbols().get(preds::TRIPLE).unwrap();
        // Probe (predicate, object) on the shared snapshot: a mask the
        // freeze did not build.
        let mask = 0b0110;
        let rel = held.database().relation(triple).unwrap();
        assert!(!rel.index_masks().contains(&mask));
        let row = rel.row(0);
        assert_eq!(rel.lookup(mask, &[row[1], row[2]]).len(), 1);
        // `held` keeps the snapshot shared, so the commit thaws a copy.
        store
            .update("PREFIX ex: <http://ex.org/> INSERT DATA { ex:spain ex:borders ex:portugal }")
            .unwrap();
        let after = store.snapshot();
        let rel = after.database().relation(triple).unwrap();
        assert!(rel.index_masks().contains(&mask), "probed mask kept");
        assert_eq!(rel.indexed_rows(mask), Some(rel.len()));
        let before = held.database().relation(triple).unwrap();
        assert_eq!(before.len() + 1, rel.len(), "the held snapshot was copied");
    }

    #[test]
    fn insert_data_and_delete_data_roundtrip() {
        let store = Store::new();
        let stats = store
            .update(
                r#"PREFIX ex: <http://ex.org/>
                   INSERT DATA { ex:a ex:p ex:b . ex:a ex:p "lit"@en .
                                 GRAPH <http://g> { ex:a ex:p ex:c } }"#,
            )
            .unwrap();
        assert_eq!(
            stats,
            CommitStats {
                added: 3,
                removed: 0
            }
        );
        assert_eq!(
            store
                .execute("PREFIX ex: <http://ex.org/> SELECT ?o WHERE { ex:a ex:p ?o }")
                .unwrap()
                .len(),
            2,
            "default graph only"
        );
        assert_eq!(
            store
                .execute(
                    "PREFIX ex: <http://ex.org/>
                     SELECT ?o WHERE { GRAPH <http://g> { ex:a ex:p ?o } }"
                )
                .unwrap()
                .len(),
            1
        );
        let stats = store
            .update(r#"PREFIX ex: <http://ex.org/> DELETE DATA { ex:a ex:p "lit"@en }"#)
            .unwrap();
        assert_eq!(
            stats,
            CommitStats {
                added: 0,
                removed: 1
            }
        );
        assert_eq!(
            store
                .execute("PREFIX ex: <http://ex.org/> SELECT ?o WHERE { ex:a ex:p ?o }")
                .unwrap()
                .len(),
            1
        );
    }

    #[test]
    fn delete_insert_where_rewrites_bindings() {
        let store = borders_store();
        // Reverse every border relation.
        let stats = store
            .update(
                r#"PREFIX ex: <http://ex.org/>
                   DELETE { ?x ex:borders ?y }
                   INSERT { ?y ex:borders ?x }
                   WHERE { ?x ex:borders ?y }"#,
            )
            .unwrap();
        assert_eq!(
            stats,
            CommitStats {
                added: 3,
                removed: 3
            }
        );
        let r = store
            .execute("PREFIX ex: <http://ex.org/> SELECT ?b WHERE { ex:germany ex:borders+ ?b }")
            .unwrap();
        assert_eq!(r.len(), 3, "chain now runs germany -> spain");
    }

    #[test]
    fn delete_where_shorthand_and_unbound_templates() {
        let store = borders_store();
        store
            .update("PREFIX ex: <http://ex.org/> DELETE WHERE { ex:spain ex:borders ?y }")
            .unwrap();
        assert_eq!(
            store
                .execute("PREFIX ex: <http://ex.org/> SELECT ?b WHERE { ex:spain ex:borders ?b }")
                .unwrap()
                .len(),
            0
        );
        // A template var the WHERE clause never binds drops those quads.
        let stats = store
            .update(
                r#"PREFIX ex: <http://ex.org/>
                   INSERT { ?x ex:tagged ?missing }
                   WHERE { ?x ex:borders ?y }"#,
            )
            .unwrap();
        assert_eq!(
            stats,
            CommitStats {
                added: 0,
                removed: 0
            }
        );
    }

    #[test]
    fn insert_templates_mint_fresh_bnodes_per_solution() {
        let store = borders_store();
        store
            .update(
                r#"PREFIX ex: <http://ex.org/>
                   INSERT { ?x ex:note _:n } WHERE { ?x ex:borders ?y }"#,
            )
            .unwrap();
        let r = store
            .execute("PREFIX ex: <http://ex.org/> SELECT DISTINCT ?n WHERE { ?x ex:note ?n }")
            .unwrap();
        assert_eq!(r.len(), 3, "one fresh bnode per solution");
    }

    #[test]
    fn entailed_classes_join_like_asserted_ones() {
        // ex:Person occurs only in entailed triples. Compatibility
        // compares values, so AND, OPTIONAL and MINUS join through it as
        // through the asserted ex:Student.
        let store = Store::new();
        store
            .load_turtle(
                "@prefix ex: <http://ex.org/> . ex:alice a ex:Student . ex:bob a ex:Student .",
            )
            .unwrap();
        store
            .add_ontology(&crate::Ontology::new().with(crate::Axiom::SubClassOf(
                format!("{EX}Student"),
                format!("{EX}Person"),
            )))
            .unwrap();
        let rows = |query: &str| {
            let results = store
                .execute(&format!("PREFIX ex: <{EX}> {query}"))
                .unwrap();
            results.solutions().unwrap().canonical(false)
        };
        let (student, person) = (format!("<{EX}Student>"), format!("<{EX}Person>"));
        let (alice, bob) = (format!("<{EX}alice>"), format!("<{EX}bob>"));
        assert_eq!(
            rows("SELECT ?c { ex:alice a ?c . ex:bob a ?c }"),
            [[&person], [&student]].map(|row| row.map(String::clone))
        );
        assert_eq!(
            rows("SELECT ?c ?y { ex:alice a ?c OPTIONAL { ?y a ?c } }"),
            [
                [&person, &alice],
                [&person, &bob],
                [&student, &alice],
                [&student, &bob]
            ]
            .map(|row| row.map(String::clone))
        );
        assert!(rows("SELECT ?c { ex:alice a ?c MINUS { ex:bob a ?c } }").is_empty());
    }

    #[test]
    fn commits_store_only_triples_named_graphs_and_endpoints() {
        let store = borders_store();
        let names = |store: &Store| {
            let snap = store.snapshot();
            let mut names: Vec<String> = (snap.database().relations())
                .map(|(p, _)| snap.symbols().resolve(p).to_string())
                .collect();
            names.sort();
            names
        };
        let expected = ["named", "subjectOrObject", "triple"];
        store
            .update(&format!(
                "PREFIX ex: <{EX}> INSERT DATA {{ GRAPH ex:g {{ ex:a ex:p \"lit\", _:b }} }}"
            ))
            .unwrap();
        assert_eq!(names(&store), expected);
        store
            .update(&format!(
                "PREFIX ex: <{EX}> DELETE DATA {{ GRAPH ex:g {{ ex:a ex:p \"lit\" }} }}"
            ))
            .unwrap();
        store
            .add_ontology(&crate::Ontology::new().with(crate::Axiom::SubClassOf(
                format!("{EX}Country"),
                format!("{EX}Place"),
            )))
            .unwrap();
        assert_eq!(names(&store), expected);
    }

    #[test]
    fn ontology_entailments_are_retracted_on_delete() {
        // The PR 4 gap: deleting the premise of a materialised
        // entailment must retract the entailed triple — the store stays
        // equivalent to reloading the surviving assertions fresh.
        let ask = "PREFIX ex: <http://ex.org/> ASK { ex:alice a ex:Person }";
        let store = Store::new();
        store
            .load_turtle(
                r#"@prefix ex: <http://ex.org/> .
                   ex:alice a ex:Student .
                   ex:bob a ex:Student ."#,
            )
            .unwrap();
        store
            .add_ontology(&crate::Ontology::new().with(crate::Axiom::SubClassOf(
                "http://ex.org/Student".into(),
                "http://ex.org/Person".into(),
            )))
            .unwrap();
        assert_eq!(store.execute(ask).unwrap(), QueryResults::Boolean(true));

        store
            .update("PREFIX ex: <http://ex.org/> DELETE DATA { ex:alice a ex:Student }")
            .unwrap();
        assert_eq!(
            store.execute(ask).unwrap(),
            QueryResults::Boolean(false),
            "entailment retracted with its premise"
        );
        // The unrelated entailment survives...
        assert_eq!(
            store
                .execute("PREFIX ex: <http://ex.org/> ASK { ex:bob a ex:Person }")
                .unwrap(),
            QueryResults::Boolean(true)
        );
        // ... and matches a fresh reload of the surviving assertions.
        let fresh = Store::new();
        fresh
            .load_turtle(
                r#"@prefix ex: <http://ex.org/> .
                   ex:bob a ex:Student ."#,
            )
            .unwrap();
        fresh
            .add_ontology(&crate::Ontology::new().with(crate::Axiom::SubClassOf(
                "http://ex.org/Student".into(),
                "http://ex.org/Person".into(),
            )))
            .unwrap();
        assert_eq!(store.fact_count(), fresh.fact_count());

        // Re-asserting brings the entailment back.
        store
            .update("PREFIX ex: <http://ex.org/> INSERT DATA { ex:alice a ex:Student }")
            .unwrap();
        assert_eq!(store.execute(ask).unwrap(), QueryResults::Boolean(true));
    }

    #[test]
    fn deleting_a_merely_entailed_triple_is_a_noop() {
        // Only assertions can be deleted: a DELETE DATA naming a triple
        // that is entailed (but not asserted) removes nothing, and the
        // entailment stays visible — fresh-reload semantics.
        let store = Store::new();
        store
            .load_turtle(
                r#"@prefix ex: <http://ex.org/> .
                   ex:alice a ex:Student ."#,
            )
            .unwrap();
        store
            .add_ontology(&crate::Ontology::new().with(crate::Axiom::SubClassOf(
                "http://ex.org/Student".into(),
                "http://ex.org/Person".into(),
            )))
            .unwrap();
        let stats = store
            .update("PREFIX ex: <http://ex.org/> DELETE DATA { ex:alice a ex:Person }")
            .unwrap();
        assert_eq!(stats.removed, 0);
        assert_eq!(
            store
                .execute("PREFIX ex: <http://ex.org/> ASK { ex:alice a ex:Person }")
                .unwrap(),
            QueryResults::Boolean(true)
        );
    }

    #[test]
    fn subscriptions_deliver_exact_deltas_in_commit_order() {
        use crate::subscribe::SubscriptionEvent;

        let store = borders_store();
        let q = store
            .prepare("PREFIX ex: <http://ex.org/> SELECT ?b WHERE { ?a ex:borders ?b }")
            .unwrap();
        let sub = store.subscribe(&q).unwrap();
        assert_eq!(sub.initial().len(), 3);
        assert_eq!(store.subscription_count(), 1);

        // An addition arrives as one added row.
        store
            .update("PREFIX ex: <http://ex.org/> INSERT DATA { ex:germany ex:borders ex:austria }")
            .unwrap();
        let Some(SubscriptionEvent::Delta(d1)) = sub.try_recv() else {
            panic!("expected a delta");
        };
        assert_eq!(d1.added.len(), 1);
        assert_eq!(d1.removed.len(), 0);

        // A commit on an unrelated predicate is prefiltered out.
        store
            .update("PREFIX ex: <http://ex.org/> INSERT DATA { ex:spain ex:capital ex:madrid }")
            .unwrap();
        assert_eq!(sub.try_recv(), None, "unrelated predicate, no delta");

        // A removal arrives as one removed row, with a later seq.
        store
            .update("PREFIX ex: <http://ex.org/> DELETE DATA { ex:spain ex:borders ex:france }")
            .unwrap();
        let Some(SubscriptionEvent::Delta(d2)) = sub.try_recv() else {
            panic!("expected a delta");
        };
        assert_eq!(d2.added.len(), 0);
        assert_eq!(d2.removed.len(), 1);
        assert!(d2.commit_seq > d1.commit_seq, "monotone commit numbers");
        assert_eq!(sub.try_recv(), None);

        // Dropping the handle deregisters it.
        drop(sub);
        store
            .update("PREFIX ex: <http://ex.org/> INSERT DATA { ex:a ex:borders ex:b }")
            .unwrap();
        assert_eq!(store.subscription_count(), 0);
    }

    #[test]
    fn lagging_subscribers_lose_oldest_deltas_and_learn_it() {
        use crate::subscribe::SubscriptionEvent;

        let store = borders_store();
        let q = store
            .prepare("PREFIX ex: <http://ex.org/> SELECT ?b WHERE { ?a ex:borders ?b }")
            .unwrap();
        let sub = store.subscribe_with_capacity(&q, 1).unwrap();
        for i in 0..3 {
            store
                .update(&format!(
                    "PREFIX ex: <http://ex.org/> INSERT DATA {{ ex:n{i} ex:borders ex:m{i} }}"
                ))
                .unwrap();
        }
        assert_eq!(sub.try_recv(), Some(SubscriptionEvent::Lagged(2)));
        let Some(SubscriptionEvent::Delta(d)) = sub.try_recv() else {
            panic!("newest delta survives");
        };
        assert_eq!(d.added.len(), 1);
        assert_eq!(sub.try_recv(), None);
    }

    #[test]
    fn subscribe_rejects_non_select_queries() {
        let store = borders_store();
        let q = store
            .prepare("PREFIX ex: <http://ex.org/> ASK { ex:spain ex:borders ex:france }")
            .unwrap();
        assert!(store.subscribe(&q).is_err());
    }

    #[test]
    fn freshened_bnode_labels_cannot_collide_with_parsed_labels() {
        // A pre-loaded bnode whose label happens to match the old
        // suffixing scheme must not merge with a freshened insert.
        let store = Store::new();
        store
            .load_turtle("@prefix ex: <http://ex.org/> . _:b!u0 ex:p ex:o .")
            .unwrap_err(); // '!' is not even lexable in a label ...
        store
            .load_turtle("@prefix ex: <http://ex.org/> . _:b_u0 ex:p ex:o .")
            .unwrap(); // ... but the old '_'-separated form is.
        store
            .update("PREFIX ex: <http://ex.org/> INSERT DATA { _:b ex:q ex:o2 }")
            .unwrap();
        let joined = store
            .execute("PREFIX ex: <http://ex.org/> SELECT ?s WHERE { ?s ex:p ex:o . ?s ex:q ex:o2 }")
            .unwrap();
        assert!(joined.is_empty(), "fresh bnode must not merge with _:b_u0");
    }

    #[test]
    fn insert_data_bnodes_are_fresh_per_request() {
        let store = Store::new();
        let req = r#"PREFIX ex: <http://ex.org/> INSERT DATA { _:b ex:p ex:o . _:b ex:q ex:o }"#;
        let first = store.update(req).unwrap();
        assert_eq!(first.added, 2);
        // Re-running the identical request mints fresh blank nodes
        // (SPARQL 1.1 Update §3.1.1) instead of deduplicating.
        let second = store.update(req).unwrap();
        assert_eq!(second.added, 2, "fresh bnodes, not duplicates");
        let subjects = store
            .execute("PREFIX ex: <http://ex.org/> SELECT DISTINCT ?s WHERE { ?s ex:p ex:o }")
            .unwrap();
        assert_eq!(subjects.len(), 2);
        // Within one request the label still denotes one node.
        let joined = store
            .execute("PREFIX ex: <http://ex.org/> SELECT ?s WHERE { ?s ex:p ex:o . ?s ex:q ex:o }")
            .unwrap();
        assert_eq!(joined.len(), 2);
    }

    #[test]
    fn removals_that_hit_nothing_take_the_cheap_path() {
        let store = borders_store();
        let before = store.snapshot().database().content_signature();
        // Absent quad + empty graph: logically a no-op commit.
        let no_op = |store: &Store| {
            let mut w = store.writer();
            w.remove(iri("spain"), iri("borders"), iri("narnia"));
            w.clear(ClearTarget::Graph(Arc::from("http://empty")));
            w.commit().unwrap()
        };
        let stats = no_op(&store);
        assert_eq!(
            stats,
            CommitStats {
                added: 0,
                removed: 0
            }
        );
        // The facts are untouched; the only signature difference the
        // commit may introduce is the index its own removal probe
        // built (profile-guided freezing).
        let after_first = store.snapshot().database().content_signature();
        let facts = |sig: &[String]| -> Vec<String> {
            sig.iter()
                .filter(|l| !l.starts_with("@index"))
                .cloned()
                .collect()
        };
        assert_eq!(
            facts(&after_first),
            facts(&before),
            "no-op commit leaves the facts identical"
        );
        // Steady state: repeating the no-op changes nothing at all.
        no_op(&store);
        assert_eq!(
            store.snapshot().database().content_signature(),
            after_first,
            "repeated no-op commit leaves the snapshot content-identical"
        );
    }

    #[test]
    fn clear_targets() {
        let store = Store::new();
        store
            .update(
                r#"PREFIX ex: <http://ex.org/>
                   INSERT DATA { ex:a ex:p 1 .
                                 GRAPH <http://g1> { ex:a ex:p 2 }
                                 GRAPH <http://g2> { ex:a ex:p 3 } }"#,
            )
            .unwrap();
        let count = |store: &Store| {
            let default = store.execute("SELECT ?o WHERE { ?s ?p ?o }").unwrap().len();
            let named = store
                .execute("SELECT ?o WHERE { GRAPH ?g { ?s ?p ?o } }")
                .unwrap()
                .len();
            (default, named)
        };
        assert_eq!(count(&store), (1, 2));
        store.update("CLEAR GRAPH <http://g1>").unwrap();
        assert_eq!(count(&store), (1, 1));
        store.update("CLEAR DEFAULT").unwrap();
        assert_eq!(count(&store), (0, 1));
        store.update("CLEAR ALL").unwrap();
        assert_eq!(count(&store), (0, 0));
    }

    #[test]
    fn sequential_operations_see_prior_effects() {
        let store = Store::new();
        store
            .update(
                r#"PREFIX ex: <http://ex.org/>
                   INSERT DATA { ex:a ex:p ex:b } ;
                   INSERT { ?y ex:q ?x } WHERE { ?x ex:p ?y } ;
                   DELETE DATA { ex:a ex:p ex:b }"#,
            )
            .unwrap();
        assert_eq!(
            store
                .execute("PREFIX ex: <http://ex.org/> SELECT ?x WHERE { ex:b ex:q ?x }")
                .unwrap()
                .len(),
            1,
            "second op saw the first op's insert"
        );
        assert_eq!(
            store
                .execute("PREFIX ex: <http://ex.org/> SELECT ?y WHERE { ex:a ex:p ?y }")
                .unwrap()
                .len(),
            0
        );
    }

    #[test]
    fn snapshot_rejects_updates_with_read_only_error() {
        let store = borders_store();
        let err = store
            .snapshot()
            .execute("PREFIX ex: <http://ex.org/> INSERT DATA { ex:x ex:p ex:y }")
            .unwrap_err();
        assert_eq!(err, SparqLogError::ReadOnly("INSERT"));
        // The store-level execute is read-only too.
        assert_eq!(
            store.execute("CLEAR ALL").unwrap_err(),
            SparqLogError::ReadOnly("CLEAR")
        );
        // ... but Store::update handles the same text.
        store
            .update("PREFIX ex: <http://ex.org/> INSERT DATA { ex:x ex:p ex:y }")
            .unwrap();
    }

    #[test]
    fn parsed_query_and_batch_apis_work_on_snapshots() {
        let store = borders_store();
        let snapshot = store.snapshot();
        let q = parse_query("PREFIX ex: <http://ex.org/> SELECT ?b WHERE { ?a ex:borders ?b }")
            .unwrap();
        assert_eq!(snapshot.execute_query(&q).unwrap().len(), 3);
        let results = snapshot.execute_batch(&[
            "PREFIX ex: <http://ex.org/> ASK { ex:spain ex:borders ex:france }",
            "not a query",
        ]);
        assert_eq!(results[0].as_ref().unwrap().len(), 1);
        assert!(results[1].is_err());
    }

    #[test]
    fn metrics_cover_queries_commits_aborts_and_subscriptions() {
        let store = borders_store(); // one load commit, 3 triples
        let reg = store.metrics();
        assert_eq!(reg.counter_value("sparqlog_store_commits_total"), Some(1));
        assert_eq!(
            reg.counter_value("sparqlog_store_rows_added_total"),
            Some(3)
        );
        assert_eq!(
            reg.counter_value("sparqlog_store_snapshot_refreshes_total"),
            Some(1)
        );
        assert_eq!(reg.counter_value("sparqlog_queries_total"), Some(0));

        let q = "PREFIX ex: <http://ex.org/> SELECT ?b WHERE { ex:spain ex:borders+ ?b }";
        store.execute(q).unwrap();
        store.execute(q).unwrap();
        assert_eq!(reg.counter_value("sparqlog_queries_total"), Some(2));
        assert_eq!(reg.counter_value("sparqlog_translations_total"), Some(1));
        assert!(
            reg.counter_value("sparqlog_eval_join_probes_total")
                .unwrap()
                > 0
        );

        // A row-capped query aborts and lands in the labelled family.
        let tight = Budget::new().with_max_rows(1);
        let err = store.snapshot().with_budget(tight).execute(q).unwrap_err();
        assert!(err.is_aborted());
        assert_eq!(reg.counter_vec_sum("sparqlog_query_aborts_total"), Some(1));
        assert_eq!(reg.counter_value("sparqlog_queries_total"), Some(2));

        // Subscriptions: a changing commit delivers one notification.
        let prepared = store
            .prepare("PREFIX ex: <http://ex.org/> SELECT ?b WHERE { ex:spain ex:borders ?b }")
            .unwrap();
        let sub = store.subscribe(&prepared).unwrap();
        store
            .update("PREFIX ex: <http://ex.org/> INSERT DATA { ex:spain ex:borders ex:andorra }")
            .unwrap();
        assert!(matches!(
            sub.recv_timeout(std::time::Duration::from_secs(5)),
            Some(SubscriptionEvent::Delta(_))
        ));
        assert_eq!(
            reg.counter_value("sparqlog_subscription_notifications_total"),
            Some(1)
        );

        // Maintained removal path.
        store
            .update("PREFIX ex: <http://ex.org/> DELETE DATA { ex:spain ex:borders ex:andorra }")
            .unwrap();
        assert_eq!(
            reg.counter_value("sparqlog_store_removals_maintained_total"),
            Some(1)
        );
        assert_eq!(
            reg.counter_value("sparqlog_store_rows_removed_total"),
            Some(1)
        );
        assert_eq!(reg.counter_value("sparqlog_store_commits_total"), Some(3));

        // The whole registry renders as valid exposition text.
        let text = reg.render_to_string();
        let samples = sparqlog_obs::MetricsRegistry::parse_exposition(&text).unwrap();
        assert!(samples
            .iter()
            .any(|(n, _, v)| n == "sparqlog_store_commits_total" && *v == 3.0));
        assert!(text.contains("sparqlog_query_aborts_total{reason=\"row_limit\"} 1"));
        assert!(text.contains("sparqlog_query_duration_us_bucket"));
    }

    #[test]
    fn profiled_execution_reports_rules_and_rounds() {
        let store = borders_store();
        let q = "PREFIX ex: <http://ex.org/> SELECT ?b WHERE { ex:spain ex:borders+ ?b }";
        let snapshot = store.snapshot();
        let (results, profile) = snapshot.execute_profiled(q).unwrap();
        assert_eq!(results.len(), 3);
        assert!(!profile.rules.is_empty());
        assert!(!profile.strata.is_empty());
        assert!(profile.rules.iter().any(|r| r.jobs > 0 && r.derived > 0));
        let rendered = profile.render();
        assert!(rendered.contains("stratum 0"), "{rendered}");
        assert!(profile.to_json().contains("\"delta_rows\""));

        // The unprofiled paths still work and return identical results.
        assert_eq!(snapshot.execute(q).unwrap(), results);
    }

    #[test]
    fn eval_metrics_advance_by_the_profiles_rounds_and_rows() {
        // The counters and the profile read the one record of a run: a
        // profiled execution advances the round and derived-row counters
        // by exactly its profile's semi-naive rounds and derived rows.
        let store = borders_store();
        let reg = store.metrics();
        let read = |name: &str| reg.counter_value(name).unwrap();
        let counters = || {
            (
                read("sparqlog_eval_rounds_total"),
                read("sparqlog_eval_rows_derived_total"),
            )
        };
        let q = "PREFIX ex: <http://ex.org/> SELECT ?b WHERE { ex:spain ex:borders+ ?b }";
        let before = counters();
        let (_, profile) = store.snapshot().execute_profiled(q).unwrap();
        let after = counters();
        let rounds = (profile.strata.iter())
            .flat_map(|s| &s.rounds)
            .filter(|r| r.round > 0)
            .count();
        let derived: u64 = profile.rules.iter().map(|r| r.derived).sum();
        assert!(rounds > 1 && derived > 0, "{}", profile.render());
        assert_eq!(after.0 - before.0, rounds as u64);
        assert_eq!(after.1 - before.1, derived);
    }

    #[test]
    fn a_probe_builds_its_base_mask_once_and_counts_it() {
        // The first probe of a mask on the snapshot's `triple` builds it
        // there and counts the build; the repeat finds it and builds
        // nothing.
        let store = Store::new();
        store
            .load_turtle("@prefix ex: <http://ex.org/> . ex:a ex:p ex:b .")
            .unwrap();
        let snapshot = store.snapshot();
        let triple = store.symbols().get(preds::TRIPLE).unwrap();
        let masks = || snapshot.database().relation(triple).unwrap().index_masks();
        let before = masks();
        let q = "PREFIX ex: <http://ex.org/> SELECT ?o WHERE { ex:a ex:p ?o }";
        let (results, first) = snapshot.execute_profiled(q).unwrap();
        assert_eq!(results.len(), 1);
        assert!(first.index_builds >= 1, "{}", first.render());
        let built: Vec<_> = masks()
            .into_iter()
            .filter(|m| !before.contains(m))
            .collect();
        // Subject, predicate and the default graph are bound.
        assert_eq!(built, vec![0b1011], "the probe's mask is on the base");
        let (_, second) = snapshot.execute_profiled(q).unwrap();
        assert_eq!(second.index_builds, 0, "{}", second.render());
    }
    #[test]
    fn repeated_update_where_shape_translates_and_plans_once() {
        let store = borders_store();
        let reg = store.metrics();
        let read = |name: &str| reg.counter_value(name).unwrap();
        let (translations, plans) = (
            read("sparqlog_translations_total"),
            read("sparqlog_plans_computed_total"),
        );
        for round in 0..100 {
            let stats = store
                .update(
                    "PREFIX ex: <http://ex.org/>
                     DELETE { ?a ex:borders ex:france } INSERT { ?a ex:borders ex:france }
                     WHERE { ?a ex:borders ex:france }",
                )
                .unwrap();
            assert_eq!(stats.removed, 1, "round {round}: spain borders france");
        }
        assert_eq!(read("sparqlog_translations_total"), translations + 1);
        assert_eq!(read("sparqlog_plans_computed_total"), plans + 1);
        assert_eq!(read("sparqlog_plan_cache_hits_total"), 99);
    }

    /// Ontology commits are O(delta), proved by counts: under an ontology
    /// with an existential axiom, an add-10 commit stages as many rows
    /// behind 20 000 asserted triples as behind 200, so does the remove-10
    /// commit taking the same triples out again, and a commit that adds
    /// and removes nothing stages none.
    #[test]
    fn ontology_commits_stage_rows_in_proportion_to_the_delta() {
        let rdf_type = || Term::iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type");
        let ontology = crate::Ontology::new()
            .with(crate::Axiom::SubClassOf(
                format!("{EX}Student"),
                format!("{EX}Person"),
            ))
            .with(crate::Axiom::SomeValuesFrom {
                class: format!("{EX}Student"),
                property: format!("{EX}enrolledIn"),
                filler: format!("{EX}Course"),
            });
        // Rows staged by an add-10 commit and by a no-op commit behind
        // `size` asserted triples.
        let staged_behind = |size: usize| {
            let store = Store::new();
            store.add_ontology(&ontology).unwrap();
            let mut w = store.writer();
            for i in 0..size {
                let (p, o) = match i % 4 {
                    0 => (rdf_type(), iri("Student")),
                    _ => (iri("knows"), iri(&format!("s{}", (i * 7) % size))),
                };
                w.insert(iri(&format!("s{i}")), p, o);
            }
            w.commit().unwrap();
            let reg = store.metrics();
            let staged = || {
                reg.counter_value("sparqlog_store_maintain_rows_staged_total")
                    .unwrap()
            };

            let before = staged();
            let mut w = store.writer();
            for k in 0..5 {
                w.insert(iri(&format!("new{k}")), rdf_type(), iri("Student"));
                w.insert(iri(&format!("new{k}")), iri("knows"), iri("s1"));
            }
            assert_eq!(w.commit().unwrap().added, 10);
            let add10 = staged() - before;

            let before = staged();
            let mut w = store.writer();
            w.insert(iri("s0"), rdf_type(), iri("Student"));
            w.remove(iri("s0"), iri("knows"), iri("nobody"));
            assert_eq!(w.commit().unwrap(), CommitStats::default());
            let noop = staged() - before;

            let before = staged();
            let mut w = store.writer();
            for k in 0..5 {
                w.remove(iri(&format!("new{k}")), rdf_type(), iri("Student"));
                w.remove(iri(&format!("new{k}")), iri("knows"), iri("s1"));
            }
            assert_eq!(w.commit().unwrap().removed, 10);
            (add10, noop, staged() - before)
        };
        let (small, small_noop, small_remove) = staged_behind(200);
        let (large, large_noop, large_remove) = staged_behind(20_000);
        assert!(small > 0);
        assert_eq!(small, large, "add10 staging is flat in the store size");
        assert_eq!(
            (small_noop, large_noop),
            (0, 0),
            "a no-op commit stages nothing"
        );
        assert!(small_remove > 0);
        assert_eq!(
            small_remove, large_remove,
            "remove10 staging is flat in the store size"
        );
    }

    /// The commit path is O(delta) by construction, proved by counts:
    /// behind one and behind 2 000 cached texts, ten-triple commits — on
    /// the zero-copy path and, with the current snapshot held, on the
    /// copy path — re-scan no relation, and every mask the cached plans
    /// probe on a stored relation is still built on the post-commit
    /// snapshot.
    #[test]
    fn commit_cost_is_flat_in_cached_texts() {
        let store = Store::new();
        {
            let mut w = store.writer();
            for i in 0..20_000 {
                w.insert(
                    iri(&format!("s{}", i / 4)),
                    iri(&format!("p{}", i % 4)),
                    iri(&format!("o{}", i % 997)),
                );
            }
            w.commit().unwrap();
        }
        let reg = store.metrics();
        let rescans = || {
            reg.counter_value("sparqlog_store_stats_rescans_total")
                .unwrap()
        };
        // One template, made a never-seen text by its LIMIT.
        let text = |n: usize| {
            format!(
                "PREFIX ex: <http://ex.org/>
                 SELECT ?o WHERE {{ ex:s7 ?p ?o }} LIMIT {}",
                1_000_000 + n
            )
        };
        // Twenty add-10 / remove-10 commit pairs; with `hold`, each
        // commit finds the installed snapshot shared and thaws a copy.
        let churn = |hold: bool| {
            let commit = |w: Writer<'_>| {
                let _held = hold.then(|| store.snapshot());
                w.commit().unwrap()
            };
            for round in 0..20 {
                let fresh: Vec<[Term; 3]> = (0..10)
                    .map(|k| {
                        [
                            iri(&format!("n{round}_{k}")),
                            iri("p9"),
                            iri(&format!("v{k}")),
                        ]
                    })
                    .collect();
                let mut w = store.writer();
                for [s, p, o] in fresh.iter().cloned() {
                    w.insert(s, p, o);
                }
                assert_eq!(commit(w).added, 10);
                let mut w = store.writer();
                for [s, p, o] in fresh.iter().cloned() {
                    w.remove(s, p, o);
                }
                assert_eq!(commit(w).removed, 10);
            }
        };
        let churn_keeps_masks = |behind: &str| {
            for hold in [false, true] {
                let before = rescans();
                churn(hold);
                assert_eq!(rescans(), before, "{behind}, held: {hold}");
                let snapshot = store.snapshot();
                let walked = snapshot.cached_plan_needs_on_base();
                assert!(!walked.is_empty());
                for (pred, mask) in walked {
                    let rel = snapshot.database().relation(pred).unwrap();
                    assert!(
                        rel.index_masks().contains(&mask),
                        "{behind}, held: {hold}: {} mask {mask:#b} not kept",
                        snapshot.symbols().resolve(pred)
                    );
                    assert_eq!(rel.indexed_rows(mask), Some(rel.len()));
                }
            }
        };

        assert_eq!(store.execute(&text(0)).unwrap().len(), 4);
        churn_keeps_masks("behind one cached text");
        for n in 1..=2_000 {
            store.execute(&text(n)).unwrap();
        }
        assert_eq!(store.snapshot().cached_translations(), 2_001);
        churn_keeps_masks("behind 2 000 cached texts");
    }

    #[test]
    fn add_ontology_keeps_masks_queries_built() {
        // A query probing `triple` by type and class in any named graph
        // builds mask 0b0110 on the snapshot — the mask the naive pass of
        // the subclass rule below probes too. An OPTIONAL's sides are each
        // read twice, so each stays a rule of its own that probes `triple`
        // with the graph free; a lone pattern would be unfolded beside
        // `named(?g)` and probe with the graph bound (0b1110). The
        // install's full evaluation writes `triple` and keeps every mask
        // it finds, maintaining each, so the query's mask survives,
        // complete.
        let store = Store::new();
        store
            .update(
                "PREFIX ex: <http://ex.org/> INSERT DATA { ex:alice a ex:Student .
                 GRAPH ex:g { ex:carol a ex:Student } }",
            )
            .unwrap();
        let in_graphs = |class: &str| {
            let q = format!(
                "PREFIX ex: <http://ex.org/> SELECT ?x ?g WHERE {{ GRAPH ?g {{ \
                 ?x a ex:{class} OPTIONAL {{ ?x a ex:Person }} }} }}"
            );
            store.execute(&q).unwrap().len()
        };
        assert_eq!(in_graphs("Student"), 1);
        let triple = store.symbols().get(preds::TRIPLE).unwrap();
        let masks = || {
            let snapshot = store.snapshot();
            let rel = snapshot.database().relation(triple).unwrap();
            for mask in rel.index_masks() {
                assert_eq!(rel.indexed_rows(mask), Some(rel.len()), "{mask:#b}");
            }
            rel.index_masks()
        };
        assert_eq!(masks(), vec![0b0110], "the query built its mask");
        store
            .add_ontology(&crate::Ontology::new().with(crate::Axiom::SubClassOf(
                "http://ex.org/Student".into(),
                "http://ex.org/Person".into(),
            )))
            .unwrap();
        assert!(masks().contains(&0b0110), "the query's mask was shed");
        assert_eq!(in_graphs("Person"), 1);
    }

    #[test]
    fn add_ontology_drops_the_masks_only_it_built() {
        // The subclass and subproperty rules probe `triple` by constant
        // predicate (and class) with the graph free: 0b0110 and 0b0010.
        // No query built them, so the install leaves `triple` without
        // them and the next commit does not maintain them either.
        let store = Store::new();
        store
            .update("PREFIX ex: <http://ex.org/> INSERT DATA { ex:alice a ex:Student ; ex:p ex:b }")
            .unwrap();
        let triple = store.symbols().get(preds::TRIPLE).unwrap();
        let masks = || {
            let snapshot = store.snapshot();
            snapshot.database().relation(triple).unwrap().index_masks()
        };
        assert_eq!(masks(), Vec::<Mask>::new());
        store
            .add_ontology(
                &crate::Ontology::new()
                    .with(crate::Axiom::SubClassOf(
                        "http://ex.org/Student".into(),
                        "http://ex.org/Person".into(),
                    ))
                    .with(crate::Axiom::SubPropertyOf(
                        "http://ex.org/p".into(),
                        "http://ex.org/q".into(),
                    )),
            )
            .unwrap();
        assert_eq!(masks(), Vec::<Mask>::new(), "the install kept its masks");
        store
            .update("PREFIX ex: <http://ex.org/> INSERT DATA { ex:bob a ex:Student ; ex:p ex:c }")
            .unwrap();
        assert_eq!(masks(), Vec::<Mask>::new());
        let people = store
            .execute("PREFIX ex: <http://ex.org/> SELECT ?x WHERE { ?x a ex:Person }")
            .unwrap();
        assert_eq!(people.len(), 2);
    }
}
