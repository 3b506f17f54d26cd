//! The evaluation engine: stratified, semi-naive, bottom-up fixpoint with
//! batched hash joins, run on the calling thread.
//!
//! This is the workspace's stand-in for the Vadalog system's reasoner. Per
//! stratum the engine runs
//!
//! 1. a *naive* first pass of every rule over the current database, then
//! 2. *semi-naive* rounds: each rule with a body atom whose predicate
//!    belongs to the current stratum is re-evaluated once per such
//!    occurrence, with that occurrence restricted to the last round's
//!    delta. Deduplication against the full relation guarantees
//!    termination on the set level; bag semantics lives entirely in the
//!    Skolem tuple-ID argument, as in the paper (§5.1).
//!
//! A *seeded* run ([`crate::delta::extend`]) skips step 1: the seed —
//! the rows the caller inserted, plus program facts new to the database —
//! is the first round's delta, so the run costs the seed's consequences,
//! not a pass over the store. Seeded programs are positive, and a
//! positive program is a single stratum, so the seed reaches every rule.
//!
//! **Batched execution.** Each round's delta is a [`RowBatch`] of flat,
//! row-major `TermId` rows, and each (rule, delta occurrence) pass is a
//! *job*: one join loop over the plan's steps that drives from its delta
//! batch and probes the relations' u64-keyed hash indexes (the hash-join
//! build side, built once by the mask's first probe and maintained
//! incrementally on insert, never rebuilt per round). Jobs emit head rows
//! into [`Staging`] buffers carrying precomputed row hashes; once every
//! job of the pass ran, the merge pushes them through the relation's
//! dedup map in job order, which doubles as the semi-naive delta filter.
//!
//! **One thread per query.** Every job of a pass runs on the calling
//! thread against the database as the pass found it: no job sees another
//! job's rows before the merge, which the stratification's read/write
//! sets make sound ([`crate::stratify::Stratification::pass_is_independent`]).
//! Concurrency lives one level up, across queries
//! ([`crate::pool::run_scoped_caught`]). A run is deterministic: the same
//! program over the same data and dictionary derives the same rows in the
//! same order and interns the same Skolem `TermId`s.
//!
//! The entire fixpoint runs on dictionary-encoded tuples: atom constants
//! are encoded once per execution (the only per-run compile step — the
//! rule plans come compiled from [`crate::plan`]), join keys and
//! environments are fixed-width [`TermId`]s, and dedup probes hash raw
//! `u64` rows. The inner join loop performs **no heap allocation** —
//! index keys live in stack buffers and tuples are borrowed slices of the
//! relations' flat storage. Constants are decoded only at the filter/arithmetic boundary
//! ([`crate::expr`]) and by the caller reading the fixpoint's relations.
//!
//! Existential head variables are Skolemised deterministically over the
//! rule's frontier, so re-deriving the same frontier binding yields the
//! same labelled null — the "restricted chase" behaviour that makes
//! ontological rules converge. Skolem terms intern once in the term
//! dictionary and compare by id; their nesting depth is precomputed, so
//! the Skolem-depth bound [`MAX_SKOLEM_DEPTH`] (the substitute for
//! Vadalog's warded-chase termination strategy) is an O(1) check.
//!
//! Every run records its breakdown into [`EvalStats`] ([`crate::profile`]):
//! per-rule, per-stratum and per-round figures, at two `Instant` reads and
//! one record update per job.

use std::borrow::Cow;
use std::cell::Cell;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::database::{row_hash, Database, IndexRef, Mask, Relation, RowBatch, Staging};
use crate::frozen::FrozenDb;
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::govern::{AbortReason, Budget};
use crate::plan::{plan_rule, ProgramPlan, RulePlan, Step};
use crate::pool::catch_job;
use crate::profile::{RoundProfile, RuleProfile, StratumProfile};
use crate::rule::{AggFunc, AtomArg, BodyItem, Program, Rule, VarId};
use crate::stats::DbStats;
use crate::stratify::{stratify, StratifyError};
use crate::symbols::{Sym, SymbolTable};
use crate::value::{Const, OrdF64, TermDict, TermId};

/// Skolem-nesting bound: a head tuple is not derived when the null it
/// invents for an existential variable nests deeper, whether the
/// evaluator mints it or a maintenance copy assigns it. Substitutes for
/// Vadalog's chase-termination strategy on cyclic existential rules;
/// other Skolem terms a rule body binds, such as T_Q's tuple IDs, are not
/// bounded.
pub const MAX_SKOLEM_DEPTH: usize = 64;

/// Evaluation options.
#[derive(Debug, Clone)]
pub struct EvalOptions {
    /// Cost-based join planning ([`crate::plan`]): plan rule bodies with
    /// the snapshot's relation statistics, or without. On by default;
    /// `false` is the statistics-blind baseline the differential tests
    /// compare against. Read by the caller that computes and caches the
    /// plan handed to [`evaluate_frozen_with_plan`] (the serving layer):
    /// with `false` it hands none, and the evaluator compiles the rules
    /// with the same planner against empty statistics.
    pub plan: bool,
    /// Magic-sets demand transformation ([`crate::magic`]): restrict
    /// recursive predicates whose consumers bind constants to the
    /// demanded tuples, when the measured demand prunes
    /// ([`crate::magic::demand_prunes`]). T_Q grows a triple pattern's
    /// own bound `p+`/`p*` from its constant itself; what is left for
    /// this pass are closures bound only after translation (a filter
    /// equality on an endpoint, a `p{1,}` range). On by default; never
    /// applies to programs without `@output` declarations
    /// (materialisation). Like [`EvalOptions::plan`] it is read by the
    /// caller that chooses the program, not by the evaluator.
    pub magic_sets: bool,
    /// Fan-out width of the serving layer's query batches
    /// (`Snapshot::execute_batch`): how many queries of a batch evaluate
    /// at once. `None` (the default) means
    /// `std::thread::available_parallelism()`. Every evaluation runs its
    /// fixpoint on its caller's thread whatever the width.
    pub threads: Option<usize>,
    /// The execution governor ([`crate::govern`]): deadline, derived-row
    /// cap, dictionary-growth cap and external cancellation, checked
    /// cooperatively at batch granularity throughout the fixpoint. The
    /// unlimited default costs one branch per check. A governed
    /// evaluation that crosses a limit fails with [`EvalError::Aborted`].
    pub budget: Budget,
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions {
            plan: true,
            magic_sets: true,
            threads: None,
            budget: Budget::default(),
        }
    }
}

impl EvalOptions {
    /// The effective fan-out width: the explicit option, else the
    /// machine's available parallelism (min 1).
    pub fn resolved_threads(&self) -> usize {
        self.threads
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
            .max(1)
    }
}

/// Statistics of one evaluation run — its whole record, kept on every
/// run ([`crate::profile`]).
#[derive(Debug, Clone, Default)]
pub struct EvalStats {
    /// Total facts derived (after dedup).
    pub derived: usize,
    /// Head-candidate rows staged by rule bodies before dedup, summed
    /// across all passes. `staged - derived` is the work spent
    /// re-deriving facts the database already held — the counter the
    /// magic-sets demand-reuse path is judged by.
    pub staged: usize,
    /// Semi-naive rounds across all strata.
    pub rounds: usize,
    /// Wall-clock time.
    pub elapsed: Duration,
    /// Join ticks across all rule jobs — one per join step entered: each
    /// row a scan binds, each filter, check or assignment passed, and
    /// each emission. The engine's "join probes" figure: proportional to
    /// join work, counted by summing the jobs' existing per-job tick
    /// counters (no hot-path cost).
    pub probes: u64,
    /// Per-rule cost, indexed like `program.rules`. Rules that never
    /// staged a row still appear (with zero counts) so the shape matches
    /// the program.
    pub rules: Vec<RuleProfile>,
    /// Per-stratum breakdown in evaluation order, with per-round delta
    /// sizes.
    pub strata: Vec<StratumProfile>,
    /// Hash-join indexes this run built: each mask, on a base or an
    /// overlay relation, is built when a job first resolves a scan of it
    /// (or a `lookup` first probes it) and then kept.
    pub index_builds: usize,
}

/// Evaluation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// Cyclic negation/aggregation.
    Stratification(String),
    /// A rule is unsafe (unbound variable in a negated atom, condition or
    /// head at evaluation position).
    Unsafe(String),
    /// The execution governor stopped the evaluation: a [`Budget`]
    /// limit was crossed or its
    /// [`CancelToken`](crate::govern::CancelToken) fired. Carries how
    /// far execution got when it stopped.
    Aborted {
        /// Which limit tripped.
        reason: AbortReason,
        /// Wall-clock time from evaluation start to the abort.
        elapsed: Duration,
        /// Rows derived when the abort was observed (merged rows, plus
        /// staged not-yet-deduplicated candidates of the in-flight pass
        /// while a row cap is armed).
        rows_derived: usize,
    },
    /// An evaluation job panicked; the panic was caught at the job
    /// boundary and carries the rendered panic message. Indicates a bug in the engine, not in the
    /// query.
    Internal(String),
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalError::Stratification(s) => write!(f, "{s}"),
            EvalError::Unsafe(s) => write!(f, "unsafe rule: {s}"),
            EvalError::Aborted {
                reason,
                elapsed,
                rows_derived,
            } => write!(
                f,
                "evaluation aborted: {reason} after {elapsed:?} with {rows_derived} rows derived"
            ),
            EvalError::Internal(msg) => write!(f, "internal evaluation error: {msg}"),
        }
    }
}

impl std::error::Error for EvalError {}

impl From<StratifyError> for EvalError {
    fn from(e: StratifyError) -> Self {
        EvalError::Stratification(e.0)
    }
}

/// Evaluates `program` against `db` to fixpoint, mutating `db` in place —
/// the materialisation entry (T_D auxiliary rules, ontology rules).
///
/// Runs `program` as given: no rewrite, and bodies compiled by
/// `plan::plan_rule` against empty statistics. Choosing the
/// program (the magic-sets rewrite) and a statistics-driven plan is the
/// caller's job, done once per query by the serving layer and handed to
/// [`evaluate_frozen_with_plan`].
pub fn evaluate(
    program: &Program,
    db: &mut Database,
    options: &EvalOptions,
) -> Result<EvalStats, EvalError> {
    execute(program, db, options, None, None)
}

/// Evaluates `program` against a frozen snapshot, collecting all
/// derivations into a fresh overlay database (shared symbol table and
/// dictionary, reads falling through to `base`) — the `&self`-style
/// evaluation entry for read-only query serving.
///
/// Any number of threads may call this concurrently on the same `base`:
/// the snapshot is never written, each call owns its overlay exclusively,
/// and the shared symbol table / term dictionary are internally
/// synchronised. Returns the overlay (from which output predicates are
/// read) alongside the run's statistics.
pub fn evaluate_frozen(
    program: &Program,
    base: &Arc<FrozenDb>,
    options: &EvalOptions,
) -> Result<(Database, EvalStats), EvalError> {
    evaluate_frozen_with_plan(program, base, options, None)
}

/// [`evaluate_frozen`] with a physical plan for `program` — the serving
/// layer's entry once its plan cache holds the (possibly magic-rewritten)
/// program and plan for the query. A plan [`plan_program`](crate::plan_program)
/// made for `program` runs as compiled: the execution plans nothing. A
/// plan made for another program is ignored, never trusted, and `None`
/// — like an ignored plan — compiles the rules against empty
/// statistics.
pub fn evaluate_frozen_with_plan(
    program: &Program,
    base: &Arc<FrozenDb>,
    options: &EvalOptions,
    plan: Option<&ProgramPlan>,
) -> Result<(Database, EvalStats), EvalError> {
    let mut db = Database::overlay(base.clone());
    let stats = execute(program, &mut db, options, plan, None)?;
    Ok((db, stats))
}

/// The one fixpoint driver behind every `evaluate*` entry and
/// [`crate::delta::extend`]: arms the budget's clock (a no-op when the
/// caller already armed it, so several evaluations of one request share
/// one clock) and runs the strata. A `seed` (the rows inserted since `db`
/// was at fixpoint) makes it a seeded run.
pub(crate) fn execute(
    program: &Program,
    db: &mut Database,
    options: &EvalOptions,
    plan: Option<&ProgramPlan>,
    seed: Option<FxHashMap<Sym, RowBatch>>,
) -> Result<EvalStats, EvalError> {
    let armed_options;
    let options = if options.budget.needs_arming() {
        armed_options = EvalOptions {
            budget: options.budget.armed(),
            ..options.clone()
        };
        &armed_options
    } else {
        options
    };
    evaluate_inner(program, db, options, plan, seed)
}

/// One evaluation job of a pass: a rule plan applied to a delta batch, or
/// a full naive pass of the rule.
struct Job<'a> {
    plan: &'a RulePlan,
    enc: &'a EncRule,
    rule: &'a Rule,
    /// Index of `rule` in the program — the record's attribution key.
    rule_idx: usize,
    /// `(body item, batch)` — the delta restriction, if any.
    delta: Option<(usize, &'a RowBatch)>,
}

fn evaluate_inner(
    program: &Program,
    db: &mut Database,
    options: &EvalOptions,
    plan: Option<&ProgramPlan>,
    mut seed: Option<FxHashMap<Sym, RowBatch>>,
) -> Result<EvalStats, EvalError> {
    let start = Instant::now();
    let symbols = db.symbols().clone();
    let dict = db.dict().clone();
    let seeded = seed.is_some();

    let mut stats = EvalStats {
        rules: vec![RuleProfile::default(); program.rules.len()],
        ..EvalStats::default()
    };
    // Load the program's bundled facts (the T_D encode boundary for
    // facts carried by the program itself).
    let mut scratch: Vec<TermId> = Vec::new();
    for (pred, tuple) in &program.facts {
        scratch.clear();
        scratch.extend(tuple.iter().map(|c| dict.encode(c)));
        if db.add_fact_ids(*pred, &scratch) {
            stats.derived += 1;
            if let Some(seed) = seed.as_mut() {
                crate::delta::stage_row(seed, *pred, &scratch);
            }
        }
    }
    // A seeded run with nothing new has nothing to derive.
    if let Some(seed) = &seed {
        if seed.values().all(RowBatch::is_empty) {
            return Ok(stats);
        }
    }

    let strat = stratify(program, &symbols)?;
    // The caller's physical plan, if it was made for this program (a
    // stale cache against a different translation is ignored, not
    // trusted). Whatever it lacks — everything, without a plan; a seeded
    // run's variants — is compiled here against empty statistics.
    let plan = plan.filter(|p| p.fits(program));
    let no_stats = DbStats::default();
    let compile = |ri: usize, pinned: Option<usize>| {
        let handed = match pinned {
            None => plan.map(|p| &p.rules[ri]),
            Some(di) => plan.and_then(|p| p.delta.get(&(ri, di))),
        };
        match handed {
            Some(rp) => Ok(Cow::Borrowed(rp)),
            None => plan_rule(ri, &program.rules[ri], &symbols, &no_stats, pinned).map(Cow::Owned),
        }
    };
    // Whole-rule plans, for the naive pass and aggregates. A seeded run
    // has neither (maintenance programs carry no aggregates): it needs
    // only the delta variants.
    let plans: Vec<Cow<'_, RulePlan>> = if seeded {
        Vec::new()
    } else {
        (0..program.rules.len())
            .map(|ri| compile(ri, None))
            .collect::<Result<_, _>>()?
    };
    let enc: Vec<EncRule> = (program.rules.iter())
        .map(|r| EncRule::new(r, &dict))
        .collect();

    let governed = !options.budget.is_unlimited();
    let ctx = Ctx {
        symbols: &symbols,
        dict: &dict,
        start,
        budget: &options.budget,
        governed,
        dict_base: if governed { dict.interned_terms() } else { 0 },
        derived: Cell::new(stats.derived),
        index_builds: Cell::new(0),
    };
    ctx.check()?;

    // Recycled per-job staging buffers (see `run_pass`).
    let mut spare: Vec<Staging> = Vec::new();

    for stratum_rules in &strat.strata {
        let stratum_start = Instant::now();
        let mut round_record: Vec<RoundProfile> = Vec::new();
        debug_assert!(
            strat.pass_is_independent(stratum_rules, program),
            "stratifier emitted a stratum whose rules are not snapshot-independent"
        );
        // Predicates whose deltas drive the semi-naive rounds: the
        // stratum's write set, plus the seed's.
        debug_assert!(!seeded || strat.strata.len() == 1);
        let mut delta_preds: FxHashSet<Sym> =
            strat.stratum_writes(stratum_rules).into_iter().collect();
        delta_preds.extend(seed.iter().flat_map(|rows| rows.keys()));

        // Aggregate rules run once, after the non-aggregate fixpoint.
        let (agg_rules, plain_rules): (Vec<usize>, Vec<usize>) = stratum_rules
            .iter()
            .partition(|&&i| program.rules[i].aggregate.is_some());
        debug_assert!(!seeded || agg_rules.is_empty());

        // Delta-first variants for the semi-naive rounds: one per body
        // occurrence of a delta predicate.
        let mut delta_plans: FxHashMap<(usize, usize), Cow<'_, RulePlan>> = FxHashMap::default();
        for &ri in &plain_rules {
            for di in program.rules[ri].positive_occurrences_of(&delta_preds) {
                delta_plans.insert((ri, di), compile(ri, Some(di))?);
            }
        }

        // --- naive first pass ---
        // All rules evaluate against the same snapshot; the merge
        // afterwards both dedups and records the fresh tuples as the first
        // delta. A rule whose derivations another rule of this pass would
        // consume still converges: those tuples are in the delta, so round
        // 1's delta-restricted variants see them.
        let mut delta: FxHashMap<Sym, RowBatch> = FxHashMap::default();
        if !seeded {
            let jobs: Vec<Job<'_>> = plain_rules
                .iter()
                .map(|&ri| Job {
                    plan: &plans[ri],
                    enc: &enc[ri],
                    rule: &program.rules[ri],
                    rule_idx: ri,
                    delta: None,
                })
                .collect();
            let round_start = Instant::now();
            let outs = run_pass(&jobs, db, &ctx, &mut spare);
            let (staged, derived) =
                merge_pass(db, &jobs, outs?, &mut delta, &mut stats, &ctx, &mut spare)?;
            round_record.push(RoundProfile {
                round: 0,
                delta_rows: 0,
                staged,
                derived,
                elapsed: round_start.elapsed(),
            });
        }

        // --- semi-naive rounds ---
        // A seeded run's first round drives from the seed.
        if let Some(seed) = seed.take() {
            delta = seed;
        }
        let mut rounds = 0usize;
        loop {
            let mut jobs: Vec<Job<'_>> = Vec::new();
            for &ri in &plain_rules {
                let rule = &program.rules[ri];
                // One variant per body occurrence of a delta predicate.
                for (item_idx, item) in rule.body.iter().enumerate() {
                    let atom_pred = match item {
                        BodyItem::Pos(a) if delta_preds.contains(&a.pred) => a.pred,
                        _ => continue,
                    };
                    let Some(batch) = delta.get(&atom_pred) else {
                        continue;
                    };
                    if batch.is_empty() {
                        continue;
                    }
                    jobs.push(Job {
                        plan: &delta_plans[&(ri, item_idx)],
                        enc: &enc[ri],
                        rule,
                        rule_idx: ri,
                        delta: Some((item_idx, batch)),
                    });
                }
            }
            // A delta no rule of the stratum reads (e.g. a predicate only
            // later strata read) gives no job: the fixpoint is reached,
            // and no round is counted.
            if jobs.is_empty() {
                break;
            }
            rounds += 1;
            stats.rounds += 1;
            ctx.check()?;
            let round_start = Instant::now();
            let outs = run_pass(&jobs, db, &ctx, &mut spare);
            let mut next: FxHashMap<Sym, RowBatch> = FxHashMap::default();
            let (staged, derived) =
                merge_pass(db, &jobs, outs?, &mut next, &mut stats, &ctx, &mut spare)?;
            round_record.push(RoundProfile {
                round: rounds,
                delta_rows: delta.values().map(RowBatch::len).sum(),
                staged,
                derived,
                elapsed: round_start.elapsed(),
            });
            drop(jobs);
            delta = next;
        }

        // --- aggregates ---
        for &ri in &agg_rules {
            let agg_start = Instant::now();
            let rule = &program.rules[ri];
            let job = Job {
                plan: &plans[ri],
                enc: &enc[ri],
                rule,
                rule_idx: ri,
                delta: None,
            };
            let mut matches = Vec::new();
            let probes = eval_rule(&job, db, &ctx, &mut |env, _| {
                matches.push(env.to_vec());
                Ok(())
            })?;
            let tuples = aggregate(rule, matches, &ctx)?;
            stats.staged += tuples.len();
            let (staged, mut derived_here) = (tuples.len(), 0usize);
            for t in tuples {
                if db.add_fact_ids(rule.head.pred, &t) {
                    stats.derived += 1;
                    derived_here += 1;
                    ctx.note_derived()?;
                }
            }
            stats.rules[ri].record(staged, derived_here, probes, agg_start.elapsed());
        }

        stats.strata.push(StratumProfile {
            rounds: round_record,
            elapsed: stratum_start.elapsed(),
        });
    }

    stats.index_builds = ctx.index_builds.get();
    stats.elapsed = start.elapsed();
    Ok(stats)
}

/// Runs one pass's jobs in order against the database as the pass found
/// it, each filling its own staging buffer, and returns the buffers in job
/// order — or the first job's error, which ends the pass.
fn run_pass(
    jobs: &[Job<'_>],
    db: &Database,
    ctx: &Ctx<'_>,
    spare: &mut Vec<Staging>,
) -> Result<Vec<Staging>, EvalError> {
    let row_cap = ctx.row_cap();
    jobs.iter()
        .map(|job| {
            // Staging buffers are recycled across passes (via `spare`), so
            // a long fixpoint reuses a handful of allocations instead of
            // growing a fresh buffer every round.
            let mut out = spare.pop().unwrap_or_default();
            out.clear();
            out.arity = job.enc.head.args.len();
            // The record's job wall time: two `Instant` reads per job.
            let job_start = Instant::now();
            let emit = &mut |env: &[Option<TermId>], ctx: &Ctx<'_>| {
                let before = out.count;
                instantiate_head(job, env, ctx, &mut out);
                // Row accounting only while a cap is armed: the ungoverned
                // emission path never touches the counter.
                match row_cap {
                    Some(cap) if out.count > before && ctx.count_derived() > cap => {
                        Err(ctx.abort(AbortReason::RowLimit))
                    }
                    _ => Ok(()),
                }
            };
            // A job that panics (an engine bug, not a query error) is
            // caught at the job boundary and becomes the evaluation's
            // `Internal` error; the overlay database unwinds normally
            // with the `Err`.
            let ticks = catch_job(|| eval_rule(job, db, ctx, emit)).unwrap_or_else(|message| {
                Err(EvalError::Internal(format!(
                    "evaluation job panicked: {message}"
                )))
            })?;
            // The job's join ticks become its probe figure, summed into
            // [`EvalStats::probes`] by the merge.
            out.ticks = ticks;
            out.nanos = job_start.elapsed().as_nanos() as u64;
            Ok(out)
        })
        .collect()
}

/// Merges a pass's staged outputs into the database in deterministic job
/// order; fresh tuples are appended to `delta`'s batches. The
/// relation's dedup map is the only per-tuple hash probe (the staging
/// buffers carry each row's hash precomputed). Returns the pass's staged
/// and fresh row counts.
fn merge_pass(
    db: &mut Database,
    jobs: &[Job<'_>],
    outs: Vec<Staging>,
    delta: &mut FxHashMap<Sym, RowBatch>,
    stats: &mut EvalStats,
    ctx: &Ctx<'_>,
    spare: &mut Vec<Staging>,
) -> Result<(usize, usize), EvalError> {
    let (mut staged, mut derived) = (0, 0);
    for (job, mut out) in jobs.iter().zip(outs) {
        staged += out.count;
        stats.probes += out.ticks;
        // Merges can dominate huge passes: keep the governor's batch
        // granularity across them (per job, not per row).
        ctx.check()?;
        let pred = job.rule.head.pred;
        let mut fresh = 0usize;
        if out.count == 0 {
            // fall through to recycling
        } else if out.arity == 0 {
            if db.add_fact_ids(pred, &[]) {
                fresh = 1;
                delta
                    .entry(pred)
                    .or_insert_with(|| RowBatch::new(0))
                    .push_row(&[]);
            }
        } else {
            // Resolve the relation and the delta batch once per job —
            // the head predicate is fixed — then run the relation's
            // batch merge.
            let batch = delta
                .entry(pred)
                .or_insert_with(|| RowBatch::new(out.arity));
            fresh = db.relation_mut(pred).merge_staged(&out, batch);
        }
        derived += fresh;
        let elapsed = Duration::from_nanos(out.nanos);
        stats.rules[job.rule_idx].record(out.count, fresh, out.ticks, elapsed);
        out.clear();
        spare.push(out);
    }
    stats.staged += staged;
    stats.derived += derived;
    // Resync the governor's row counter to the exact post-dedup total:
    // while a row cap is armed the jobs of the pass inflated it with
    // per-emission staged candidates.
    ctx.derived.set(stats.derived);
    Ok((staged, derived))
}

/// Total order used by `ORDER BY`: nulls first, then blank nodes, IRIs,
/// then literals (numerics by value). Mirrors the SPARQL `ORDER BY` term
/// ordering closely; the paper itself delegates to "the sorting strategy
/// employed by the Vadalog system" (§4.3), which is what this is.
pub fn order_cmp(a: &Const, b: &Const, symbols: &SymbolTable) -> std::cmp::Ordering {
    fn rank(c: &Const) -> u8 {
        match c {
            Const::Null => 0,
            Const::Skolem(_) => 1,
            Const::Bnode(_) => 2,
            Const::Iri(_) => 3,
            _ => 4, // literals
        }
    }
    let (ra, rb) = (rank(a), rank(b));
    if ra != rb {
        return ra.cmp(&rb);
    }
    match (a, b) {
        (Const::Iri(x), Const::Iri(y)) | (Const::Bnode(x), Const::Bnode(y)) => {
            symbols.resolve(*x).cmp(&symbols.resolve(*y))
        }
        _ => match crate::expr::value_cmp(a, b, symbols) {
            Some(o) => o,
            None => format!("{a:?}").cmp(&format!("{b:?}")),
        },
    }
}

// ------------------------------------------------------------ encoding

/// A pre-encoded atom argument: constants encode to ids once per
/// execution so the join loop compares raw `u64`s.
#[derive(Debug, Clone, Copy)]
enum EArg {
    Id(TermId),
    Var(VarId),
}

/// An atom with pre-encoded arguments.
#[derive(Debug, Clone)]
struct EncAtom {
    args: Box<[EArg]>,
}

impl EncAtom {
    fn new(args: &[AtomArg], dict: &TermDict) -> Self {
        EncAtom {
            args: (args.iter())
                .map(|arg| match arg {
                    AtomArg::Const(c) => EArg::Id(dict.encode(c)),
                    AtomArg::Var(v) => EArg::Var(*v),
                })
                .collect(),
        }
    }
}

/// A rule's atoms encoded against the store dictionary — the one part of
/// running a rule that is dictionary state, not plan, so it happens per
/// execution (once per rule, shared by all its variants).
struct EncRule {
    /// Encoded atoms and compatibility items, indexed by body item.
    body: Vec<Option<EncAtom>>,
    head: EncAtom,
}

impl EncRule {
    fn new(rule: &Rule, dict: &TermDict) -> Self {
        EncRule {
            body: (rule.body.iter())
                .map(|item| match item {
                    BodyItem::Pos(a) | BodyItem::Neg(a) => Some(EncAtom::new(&a.args, dict)),
                    BodyItem::Compat(args) => Some(EncAtom::new(args, dict)),
                    _ => None,
                })
                .collect(),
            head: EncAtom::new(&rule.head.args, dict),
        }
    }
}

// ------------------------------------------------------------ evaluation

/// Stack buffer for index keys and negation probes: relations support at
/// most 64 columns (the [`Mask`] width), so no heap fallback is needed.
const MAX_COLS: usize = 64;

struct Ctx<'a> {
    symbols: &'a SymbolTable,
    dict: &'a TermDict,
    start: Instant,
    /// The armed execution budget (see [`crate::govern`]).
    budget: &'a Budget,
    /// False when the budget is unlimited — every governed check then
    /// reduces to this single branch.
    governed: bool,
    /// Spill/Skolem terms interned when the evaluation started, the
    /// baseline for the dictionary-growth cap.
    dict_base: usize,
    /// Governed row counter: exact merged rows between passes; inflated
    /// with per-emission staged candidates during a pass while a row cap
    /// is armed (the merge resyncs it).
    derived: Cell<usize>,
    /// Indexes the run's probes built ([`EvalStats::index_builds`]),
    /// bumped only when a probe's build ran — never per row.
    index_builds: Cell<usize>,
}

impl Ctx<'_> {
    /// Whether an invented null nests within the Skolem-depth bound.
    fn within_depth(&self, id: TermId) -> bool {
        self.dict.skolem_depth(id) <= MAX_SKOLEM_DEPTH
    }

    /// The periodic cooperative check, called at batch granularity (every
    /// ~4096 join ticks, each round, each merge): only when a budget is
    /// armed — cancellation, deadline, dictionary growth and the row cap.
    fn check(&self) -> Result<(), EvalError> {
        if !self.governed {
            return Ok(());
        }
        if let Some(token) = self.budget.cancel_token() {
            if token.is_cancelled() {
                return Err(self.abort(AbortReason::Cancelled));
            }
        }
        if let Some(deadline) = self.budget.deadline() {
            if Instant::now() >= deadline {
                return Err(self.abort(AbortReason::Deadline));
            }
        }
        if let Some(max) = self.budget.max_dict_growth() {
            if self.dict.interned_terms().saturating_sub(self.dict_base) > max {
                return Err(self.abort(AbortReason::DictGrowth));
            }
        }
        if let Some(cap) = self.budget.max_rows() {
            if self.derived.get() > cap {
                return Err(self.abort(AbortReason::RowLimit));
            }
        }
        Ok(())
    }

    /// The derived-row cap, when armed. Jobs read this once per pass and
    /// count emissions only while it is `Some`, so ungoverned evaluations
    /// never touch the counter on the hot path.
    fn row_cap(&self) -> Option<usize> {
        if self.governed {
            self.budget.max_rows()
        } else {
            None
        }
    }

    /// Counts one row against the row cap and returns the new count.
    fn count_derived(&self) -> usize {
        self.derived.set(self.derived.get() + 1);
        self.derived.get()
    }

    /// Counts one accepted derivation against the row cap (aggregates).
    /// A job's emissions run the same logic against [`Ctx::row_cap`].
    fn note_derived(&self) -> Result<(), EvalError> {
        match self.row_cap() {
            Some(cap) if self.count_derived() > cap => Err(self.abort(AbortReason::RowLimit)),
            _ => Ok(()),
        }
    }

    /// The hash index for `mask` on `rel`, counting a build the call ran.
    fn index<'d>(&self, rel: &'d Relation, mask: Mask) -> IndexRef<'d> {
        let (index, built) = rel.index(mask);
        if built {
            self.index_builds.set(self.index_builds.get() + 1);
        }
        index
    }

    fn abort(&self, reason: AbortReason) -> EvalError {
        EvalError::Aborted {
            reason,
            elapsed: self.start.elapsed(),
            rows_derived: self.derived.get(),
        }
    }
}

/// A scan or check step's relation and (keyed scans only) hash index,
/// resolved once per rule pass so the probe loop never re-hashes the
/// `(pred, mask)` pair per tuple.
struct ResolvedScan<'d> {
    rel: Option<&'d Relation>,
    index: Option<IndexRef<'d>>,
}

/// Resolves every scan and check step of `plan` against the current
/// snapshot. A keyed scan's index is built here, outside the probe loop,
/// when no earlier job built its mask — before any step runs, so a
/// later step's mask is built even when an earlier step matches nothing.
/// An absent relation gets none.
fn resolve_scans<'d>(plan: &RulePlan, db: &'d Database, ctx: &Ctx<'_>) -> Vec<ResolvedScan<'d>> {
    plan.steps
        .iter()
        .map(|step| match step {
            Step::Scan { pred, mask, .. } => {
                let rel = db.relation(*pred);
                let index = rel.filter(|_| *mask != 0).map(|r| ctx.index(r, *mask));
                ResolvedScan { rel, index }
            }
            Step::Check { pred, .. } => ResolvedScan {
                rel: db.relation(*pred),
                index: None,
            },
            _ => ResolvedScan {
                rel: None,
                index: None,
            },
        })
        .collect()
}

/// Evaluates a rule body, calling `emit` with every complete environment
/// — a job stages head rows, an aggregate collects the environments.
/// `delta` optionally restricts one body occurrence to a delta batch. Returns the join ticks spent.
fn eval_rule<F>(job: &Job<'_>, db: &Database, ctx: &Ctx<'_>, emit: &mut F) -> Result<u64, EvalError>
where
    F: FnMut(&[Option<TermId>], &Ctx<'_>) -> Result<(), EvalError>,
{
    let resolved = resolve_scans(job.plan, db, ctx);
    let mut env: Vec<Option<TermId>> = vec![None; job.plan.nvars];
    let mut ticks = 0u64;
    join(job, &resolved, ctx, 0, &mut env, &mut ticks, emit)?;
    Ok(ticks)
}

/// The recursive join over the plan's steps: batch-driven at the delta
/// occurrence, hash-index probes (against the incrementally maintained
/// build side) elsewhere. Generic over the emit callback so the head
/// instantiation inlines into the innermost loop.
fn join<F>(
    job: &Job<'_>,
    resolved: &[ResolvedScan<'_>],
    ctx: &Ctx<'_>,
    step_idx: usize,
    env: &mut Vec<Option<TermId>>,
    ticks: &mut u64,
    emit: &mut F,
) -> Result<(), EvalError>
where
    F: FnMut(&[Option<TermId>], &Ctx<'_>) -> Result<(), EvalError>,
{
    *ticks += 1;
    if *ticks & 0xFFF == 0 {
        ctx.check()?;
    }
    // A compat check whose widen step saw a non-null side passes: that
    // step bound the other side and `v` to a row of `comp` already.
    let mut step_idx = step_idx;
    let step = loop {
        let Some(step) = job.plan.steps.get(step_idx) else {
            return emit(env, ctx);
        };
        match step {
            Step::Compat {
                item_idx,
                seen: Some(side),
                ..
            } if job.enc.body[*item_idx]
                .as_ref()
                .and_then(|atom| arg_value(&atom.args[*side], env))
                .is_some_and(|id| !id.is_null()) =>
            {
                step_idx += 1
            }
            step => break step,
        }
    };
    match step {
        Step::Scan {
            item_idx,
            mask,
            exists,
            ..
        } => {
            let atom = job.enc.body[*item_idx]
                .as_ref()
                .expect("scan step on non-positive item");
            // One row source: `range` of a flat row-major buffer — the
            // delta batch or the whole relation — or, through `picks`, the
            // relation rows an index bucket names.
            let narrowed;
            let (flat, arity, picks, range): (&[TermId], usize, Option<&[u32]>, _) = match job.delta
            {
                Some((di, batch)) if di == *item_idx => {
                    (batch.ids(), batch.arity(), None, 0..batch.len())
                }
                _ => {
                    let rs = &resolved[step_idx];
                    let Some(rel) = rs.rel else { return Ok(()) };
                    // Hash probe on the bound positions; the key lives in
                    // a stack buffer — the hot loop does not allocate.
                    // Bucket rows that merely collide on the 64-bit key
                    // hash fail `bind_atom` below, so results stay exact.
                    // A key variable a `compat` step left free drops out.
                    let mut key = [TermId::NULL; MAX_COLS];
                    let (mut klen, mut free) = (0, 0);
                    let keyed = |&(i, _): &(usize, _)| mask & (1 << i) != 0;
                    for (i, arg) in atom.args.iter().enumerate().filter(keyed) {
                        match arg_value(arg, env) {
                            Some(id) => {
                                key[klen] = id;
                                klen += 1;
                            }
                            None => free |= 1 << i,
                        }
                    }
                    let index = match free {
                        0 => rs.index.as_ref(),
                        _ if mask & !free == 0 => None,
                        _ => {
                            narrowed = ctx.index(rel, mask & !free);
                            Some(&narrowed)
                        }
                    };
                    match index {
                        Some(index) => {
                            let Some(bucket) = index.get(&row_hash(&key[..klen])) else {
                                return Ok(());
                            };
                            (rel.ids(), rel.arity(), Some(&bucket[..]), 0..bucket.len())
                        }
                        None => (rel.ids(), rel.arity(), None, 0..rel.len()),
                    }
                }
            };
            for k in range {
                let r = picks.map_or(k, |p| p[k] as usize);
                let Some(undo_mask) = bind_atom(atom, &flat[r * arity..(r + 1) * arity], env)
                else {
                    continue;
                };
                join(job, resolved, ctx, step_idx + 1, env, ticks, emit)?;
                unbind_atom(atom, undo_mask, env);
                if *exists {
                    break;
                }
            }
            Ok(())
        }
        Step::Check {
            item_idx, present, ..
        } => {
            let atom = job.enc.body[*item_idx]
                .as_ref()
                .expect("check step on non-atom item");
            let mut tuple = [TermId::NULL; MAX_COLS];
            for (i, arg) in atom.args.iter().enumerate() {
                tuple[i] = arg_value(arg, env)
                    .ok_or_else(|| EvalError::Unsafe("unbound check var".into()))?;
            }
            let found = resolved[step_idx]
                .rel
                .is_some_and(|r| r.contains(&tuple[..atom.args.len()]));
            if found == *present {
                join(job, resolved, ctx, step_idx + 1, env, ticks, emit)?;
            }
            Ok(())
        }
        Step::Filter { item_idx } => {
            let expr = match &job.rule.body[*item_idx] {
                BodyItem::Cond(e) => e,
                _ => unreachable!("filter step on non-condition item"),
            };
            if expr.eval_bool_ids(env, ctx.dict, ctx.symbols) {
                join(job, resolved, ctx, step_idx + 1, env, ticks, emit)?;
            }
            Ok(())
        }
        Step::Compat {
            item_idx, widen, ..
        } => {
            let atom = job.enc.body[*item_idx]
                .as_ref()
                .expect("compat step on non-compat item");
            // The rows of Def. A.2's `comp` that agree with the bound
            // sides. A null bound side leaves the other free for the next
            // scan; the check step binds `v` once both are bound.
            let null = TermId::NULL;
            let (rows, n) = match [0, 1].map(|i| arg_value(&atom.args[i], env)) {
                [Some(a), Some(b)] if a == b || a.is_null() || b.is_null() => {
                    ([[a, b, if a.is_null() { b } else { a }]; 2], 1)
                }
                [Some(_), Some(_)] => return Ok(()),
                [Some(s), None] if !s.is_null() => ([[s, s, s], [s, null, s]], 2),
                [None, Some(s)] if !s.is_null() => ([[s, s, s], [null, s, s]], 2),
                _ if *widen => return join(job, resolved, ctx, step_idx + 1, env, ticks, emit),
                _ => return Err(EvalError::Unsafe("unbound compat side".into())),
            };
            for row in &rows[..n] {
                if let Some(undo) = bind_atom(atom, row, env) {
                    join(job, resolved, ctx, step_idx + 1, env, ticks, emit)?;
                    unbind_atom(atom, undo, env);
                }
            }
            Ok(())
        }
        Step::Bind {
            item_idx,
            var,
            bounded,
        } => {
            let expr = match &job.rule.body[*item_idx] {
                BodyItem::Assign(_, e) => e,
                _ => unreachable!("bind step on non-assignment item"),
            };
            let value = expr.eval_id(env, ctx.dict, ctx.symbols);
            if let Some(v) = value.filter(|&v| !*bounded || ctx.within_depth(v)) {
                let prev = env[*var as usize].take();
                // An assignment to an already-bound variable acts as an
                // equality constraint (used by `D = "default"` style items
                // where D may be pre-bound). Encoding is canonical, so id
                // equality is term equality; differing ids may still be
                // value-equal under numeric coercion, so fall back to the
                // decoded comparison.
                let ok = match prev {
                    Some(p) => {
                        p == v
                            || crate::expr::value_eq(
                                &ctx.dict.decode(p),
                                &ctx.dict.decode(v),
                                ctx.symbols,
                            )
                    }
                    None => true,
                };
                if ok {
                    env[*var as usize] = Some(v);
                    join(job, resolved, ctx, step_idx + 1, env, ticks, emit)?;
                }
                env[*var as usize] = prev;
            }
            Ok(())
        }
    }
}

/// An argument's value under `env`; `None` for a free variable.
fn arg_value(arg: &EArg, env: &[Option<TermId>]) -> Option<TermId> {
    match arg {
        EArg::Id(id) => Some(*id),
        EArg::Var(v) => env[*v as usize],
    }
}

/// Binds an atom's variables against a tuple. Returns the mask of argument
/// positions whose variables were *newly* bound (to be undone by
/// [`unbind_atom`] after the recursive call), or `None` on mismatch (in
/// which case any partial bindings have already been rolled back).
fn bind_atom(atom: &EncAtom, tuple: &[TermId], env: &mut [Option<TermId>]) -> Option<u64> {
    if atom.args.len() != tuple.len() {
        return None;
    }
    let mut bound_here: u64 = 0;
    for (i, arg) in atom.args.iter().enumerate() {
        match arg {
            EArg::Id(id) => {
                if *id != tuple[i] {
                    unbind_atom(atom, bound_here, env);
                    return None;
                }
            }
            EArg::Var(v) => {
                let slot = &mut env[*v as usize];
                match slot {
                    Some(existing) => {
                        if *existing != tuple[i] {
                            unbind_atom(atom, bound_here, env);
                            return None;
                        }
                    }
                    None => {
                        *slot = Some(tuple[i]);
                        bound_here |= 1 << i;
                    }
                }
            }
        }
    }
    Some(bound_here)
}

/// Clears the variables bound by a preceding [`bind_atom`] call.
fn unbind_atom(atom: &EncAtom, bound_here: u64, env: &mut [Option<TermId>]) {
    for (i, arg) in atom.args.iter().enumerate() {
        if bound_here & (1 << i) != 0 {
            if let EArg::Var(v) = arg {
                env[*v as usize] = None;
            }
        }
    }
}

/// Instantiates the head atom under `env` directly into the staging
/// buffer, Skolemising existential variables over the frontier. Rolls the
/// emission back when the Skolem-depth bound is exceeded (chase
/// termination — an O(1) check: depths are precomputed at interning
/// time). The row's dedup hash is computed here, once, and carried to the
/// merge.
fn instantiate_head(job: &Job<'_>, env: &[Option<TermId>], ctx: &Ctx<'_>, out: &mut Staging) {
    // Existential Skolemisation: functor over the frontier values,
    // interned by identity (no structural Skolem terms are built).
    let mut ex_values: FxHashMap<VarId, TermId> = FxHashMap::default();
    if !job.plan.existentials.is_empty() {
        let frontier: Vec<TermId> = (job.rule)
            .frontier_vars()
            .into_iter()
            .filter_map(|v| env[v as usize])
            .collect();
        for (v, functor) in &job.plan.existentials {
            ex_values.insert(*v, ctx.dict.skolem(*functor, &frontier));
        }
    }
    let start = out.ids.len();
    for arg in &job.enc.head.args {
        let id = match arg {
            EArg::Id(id) => *id,
            EArg::Var(v) => match env[*v as usize] {
                Some(id) => id,
                // The nulls invented here are bounded, as a maintenance
                // copy's assigned nulls are at its `Bind` step; tuple IDs
                // are not.
                None => match ex_values.get(v) {
                    Some(&id) if ctx.within_depth(id) => id,
                    _ => {
                        out.ids.truncate(start);
                        return;
                    }
                },
            },
        };
        out.ids.push(id);
    }
    out.hashes.push(row_hash(&out.ids[start..]));
    out.count += 1;
}

// ------------------------------------------------------------ aggregates

fn aggregate(
    rule: &Rule,
    matches: Vec<Vec<Option<TermId>>>,
    ctx: &Ctx<'_>,
) -> Result<Vec<Vec<TermId>>, EvalError> {
    let symbols = ctx.symbols;
    let dict = ctx.dict;
    let spec = rule.aggregate.as_ref().expect("aggregate rule");
    // Group key: the head args except the result variable (as encoded
    // ids); values: the raw aggregate inputs per group, decoded — the
    // aggregate functions are an arithmetic boundary (kept individually
    // so AVG and DISTINCT can be computed exactly).
    let mut inputs: FxHashMap<Vec<TermId>, Vec<Option<Const>>> = FxHashMap::default();

    // Aggregate evaluation runs sequentially after the fixpoint and can
    // dominate on huge group counts: keep the governor's batch-granular
    // checks through both the grouping and the reduction loops.
    let mut ticks = 0u64;
    for env in &matches {
        ticks += 1;
        if ticks & 0xFFF == 0 {
            ctx.check()?;
        }
        let mut key = Vec::new();
        for arg in &rule.head.args {
            match arg {
                AtomArg::Const(c) => key.push(dict.encode(c)),
                AtomArg::Var(v) if *v == spec.result_var => {}
                AtomArg::Var(v) => key.push(env[*v as usize].unwrap_or(TermId::NULL)),
            }
        }
        let input = match &spec.input {
            None => Some(Const::Int(1)),
            Some(e) => e.eval_decoded(env, dict, symbols),
        };
        inputs.entry(key).or_default().push(input);
    }

    let mut out = Vec::new();
    for (key, vals) in inputs {
        ticks += 1;
        if ticks & 0xFFF == 0 {
            ctx.check()?;
        }
        let mut vals: Vec<Const> = vals.into_iter().flatten().collect();
        if spec.distinct {
            let mut seen = FxHashSet::default();
            vals.retain(|v| seen.insert(v.clone()));
        }
        let result = match spec.func {
            AggFunc::Count => Const::Int(vals.len() as i64),
            AggFunc::Sum => {
                let mut acc = 0f64;
                let mut all_int = true;
                for v in &vals {
                    match v.as_f64(symbols) {
                        Some(x) => {
                            if v.as_i64(symbols).is_none() {
                                all_int = false;
                            }
                            acc += x;
                        }
                        None => continue,
                    }
                }
                if all_int {
                    Const::Int(acc as i64)
                } else {
                    Const::Float(OrdF64(acc))
                }
            }
            AggFunc::Min => {
                let mut best: Option<Const> = None;
                for v in vals {
                    best = Some(match best {
                        None => v,
                        Some(b) => {
                            if order_cmp(&v, &b, symbols) == std::cmp::Ordering::Less {
                                v
                            } else {
                                b
                            }
                        }
                    });
                }
                best.unwrap_or(Const::Null)
            }
            AggFunc::Max => {
                let mut best: Option<Const> = None;
                for v in vals {
                    best = Some(match best {
                        None => v,
                        Some(b) => {
                            if order_cmp(&v, &b, symbols) == std::cmp::Ordering::Greater {
                                v
                            } else {
                                b
                            }
                        }
                    });
                }
                best.unwrap_or(Const::Null)
            }
            AggFunc::Avg => {
                let nums: Vec<f64> = vals.iter().filter_map(|v| v.as_f64(symbols)).collect();
                if nums.is_empty() {
                    Const::Int(0)
                } else {
                    Const::Float(OrdF64(nums.iter().sum::<f64>() / nums.len() as f64))
                }
            }
        };
        let result_id = dict.encode(&result);
        // Rebuild the head tuple with the result plugged in.
        let mut tuple = Vec::with_capacity(rule.head.args.len());
        let mut key_iter = key.into_iter();
        for arg in &rule.head.args {
            match arg {
                AtomArg::Const(c) => {
                    tuple.push(dict.encode(c));
                    let _ = key_iter.next();
                }
                AtomArg::Var(v) if *v == spec.result_var => tuple.push(result_id),
                AtomArg::Var(_) => tuple.push(key_iter.next().unwrap_or(TermId::NULL)),
            }
        }
        out.push(tuple);
    }
    Ok(out)
}
