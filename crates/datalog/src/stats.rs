//! Relation statistics backing the cost-based join planner.
//!
//! [`DbStats`] snapshots per-relation row counts and per-column
//! distinct-count estimates over the dictionary-encoded
//! [`TermId`](crate::value::TermId) columns. Collection is a single pass
//! over each relation's flat `Copy` rows (strided sampling above
//! [`SAMPLE_LIMIT`] rows), performed once per frozen snapshot —
//! [`FrozenDb::stats`](crate::frozen::FrozenDb::stats) memoises the
//! result behind a `OnceLock` — and carried across the store's
//! thaw/re-freeze commit path by patching: [`DbStats::refresh`] updates
//! each relation's exact row count and keeps its distinct estimates, and
//! re-scans a relation only once its count has moved more than
//! 1/[`RECOLLECT_DIVISOR`] away from the count those estimates were
//! collected at — amortised O(1) per changed row.
//!
//! The planner ([`crate::plan`]) turns these into selectivity estimates:
//! probing relation `R` with bound-position mask `m` is estimated to
//! return `rows(R) / Π_{i∈m} distinct(R, i)` tuples — the classic
//! independence assumption. [`StatsFingerprint`] records the row counts a
//! plan was based on, so a cached physical plan can detect when
//! commit-time statistics have drifted past the replan threshold.

use crate::database::{Mask, Relation};
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::rule::{BodyItem, Program};
use crate::symbols::Sym;

/// Relations with more rows than this estimate distinct counts from an
/// evenly strided sample instead of a full pass, bounding the cost of
/// statistics collection on large stores.
pub const SAMPLE_LIMIT: usize = 1 << 16;

/// Row count assumed for predicates without statistics (typically
/// intermediate IDB predicates that are still empty at planning time).
pub const UNKNOWN_ROWS: f64 = 1024.0;

/// Per-column distinct count assumed for predicates without statistics:
/// every bound position divides the estimate by this, so atoms with more
/// bound positions still order first even without data.
pub const UNKNOWN_DISTINCT: f64 = 32.0;

/// Replanning threshold: a cached plan is invalidated when a read
/// relation's row count changes by more than a factor of two, with an
/// absolute slack of this many rows so small stores don't thrash.
pub const DRIFT_SLACK_ROWS: usize = 64;

/// Carry tolerance of [`DbStats::refresh`]: a relation keeps its distinct
/// estimates across commits while its row count stays within
/// `collected_rows / RECOLLECT_DIVISOR` of the count they were collected
/// at (±1/8), and is re-scanned past that. A re-scan therefore follows at
/// least `rows / 8` changed rows.
pub const RECOLLECT_DIVISOR: usize = 8;

/// Row count and per-column distinct-count estimates of one relation.
#[derive(Debug, Clone, PartialEq)]
pub struct RelStats {
    /// Number of tuples (always exact).
    pub rows: usize,
    /// Estimated distinct values per column (length = arity), as of the
    /// last full collection.
    pub distinct: Vec<usize>,
    /// Row count at the last full collection — what `distinct` describes.
    /// Equals `rows` until [`DbStats::refresh`] patches the count.
    pub collected_rows: usize,
}

impl RelStats {
    /// Collects statistics for one relation in a single pass over its
    /// flat rows (strided sampling above [`SAMPLE_LIMIT`] rows).
    pub fn collect(rel: &Relation) -> RelStats {
        let arity = rel.arity();
        let rows = rel.len();
        let mut sets: Vec<FxHashSet<u64>> = vec![FxHashSet::default(); arity];
        let stride = rows.div_ceil(SAMPLE_LIMIT).max(1);
        let mut sampled = 0usize;
        let mut i = 0usize;
        while i < rows {
            let row = rel.row(i as u32);
            for (set, &id) in sets.iter_mut().zip(row) {
                set.insert(id.raw());
            }
            sampled += 1;
            i += stride;
        }
        let distinct = sets
            .iter()
            .map(|set| {
                let d = set.len().max(1);
                // A mostly-distinct sample (key-like column) scales to the
                // full relation; a low-cardinality column's sample already
                // saw (nearly) every value and is kept as-is.
                if sampled < rows && d * 2 > sampled {
                    (d * rows / sampled.max(1)).min(rows)
                } else {
                    d
                }
            })
            .collect();
        RelStats {
            rows,
            distinct,
            collected_rows: rows,
        }
    }

    /// True while a relation of `rows` tuples and `arity` columns may
    /// keep these distinct estimates (see [`RECOLLECT_DIVISOR`]).
    fn carries_to(&self, rows: usize, arity: usize) -> bool {
        self.distinct.len() == arity
            && rows.abs_diff(self.collected_rows) * RECOLLECT_DIVISOR <= self.collected_rows
    }

    /// Estimated number of tuples a probe with bound-position mask `mask`
    /// returns: `rows / Π distinct(i)` over the bound columns, assuming
    /// column independence. `mask = 0` estimates the full scan.
    pub fn estimate(&self, mask: Mask) -> f64 {
        let mut est = self.rows as f64;
        let mut m = mask;
        while m != 0 {
            let i = m.trailing_zeros() as usize;
            est /= self.distinct.get(i).copied().unwrap_or(1).max(1) as f64;
            m &= m - 1;
        }
        est
    }
}

/// Per-relation statistics for one database snapshot.
#[derive(Debug, Clone, Default)]
pub struct DbStats {
    rels: FxHashMap<Sym, RelStats>,
}

impl DbStats {
    /// Collects statistics over `(predicate, relation)` pairs.
    pub fn collect<'a>(rels: impl Iterator<Item = (Sym, &'a Relation)>) -> DbStats {
        DbStats {
            rels: rels.map(|(p, r)| (p, RelStats::collect(r))).collect(),
        }
    }

    /// Carries `prev` across a thaw/re-freeze cycle by patching: every
    /// relation gets its exact current row count; its distinct estimates
    /// are kept while that count is within the [`RECOLLECT_DIVISOR`]
    /// tolerance of the count they were collected at, and re-collected
    /// past it (or when the relation is new). Touches no rows of a
    /// relation it carries. Also returns how many relations it re-scanned.
    pub fn refresh<'a>(
        rels: impl Iterator<Item = (Sym, &'a Relation)>,
        prev: &DbStats,
    ) -> (DbStats, usize) {
        let mut rescans = 0;
        let rels = rels
            .map(|(p, r)| match prev.rels.get(&p) {
                Some(s) if s.carries_to(r.len(), r.arity()) => {
                    let mut s = s.clone();
                    s.rows = r.len();
                    (p, s)
                }
                _ => {
                    rescans += 1;
                    (p, RelStats::collect(r))
                }
            })
            .collect();
        (DbStats { rels }, rescans)
    }

    /// The statistics of `pred`'s relation, if present in the snapshot.
    pub fn relation(&self, pred: Sym) -> Option<&RelStats> {
        self.rels.get(&pred)
    }

    /// Number of relations covered.
    pub fn len(&self) -> usize {
        self.rels.len()
    }

    /// True if no relation has statistics.
    pub fn is_empty(&self) -> bool {
        self.rels.is_empty()
    }

    /// Estimated result cardinality of probing `pred` with bound-position
    /// mask `mask`. Predicates without statistics get the
    /// [`UNKNOWN_ROWS`] / [`UNKNOWN_DISTINCT`] defaults.
    pub fn estimate(&self, pred: Sym, mask: Mask) -> f64 {
        match self.rels.get(&pred) {
            Some(rs) => rs.estimate(mask),
            None => UNKNOWN_ROWS / UNKNOWN_DISTINCT.powi(mask.count_ones() as i32),
        }
    }

    /// A drift fingerprint over the predicates `program` reads (positive
    /// and negated body atoms): the row counts the plan was based on.
    pub fn fingerprint(&self, program: &Program) -> StatsFingerprint {
        let mut preds: Vec<Sym> = Vec::new();
        for rule in &program.rules {
            for item in &rule.body {
                if let BodyItem::Pos(a) | BodyItem::Neg(a) = item {
                    if !preds.contains(&a.pred) {
                        preds.push(a.pred);
                    }
                }
            }
        }
        preds.sort_unstable();
        StatsFingerprint {
            rows: preds
                .into_iter()
                .map(|p| (p, self.rels.get(&p).map_or(0, |s| s.rows)))
                .collect(),
        }
    }
}

/// The row counts a physical plan was computed against — the plan cache's
/// invalidation key ([`DbStats::fingerprint`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatsFingerprint {
    rows: Vec<(Sym, usize)>,
}

impl StatsFingerprint {
    /// True when any fingerprinted relation's row count in `current` has
    /// drifted past the replan threshold (factor of two, with
    /// [`DRIFT_SLACK_ROWS`] absolute slack).
    pub fn drifted(&self, current: &DbStats) -> bool {
        self.rows.iter().any(|&(p, old)| {
            let new = current.rels.get(&p).map_or(0, |s| s.rows);
            let (lo, hi) = (old.min(new), old.max(new));
            hi > 2 * lo + DRIFT_SLACK_ROWS
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Database;
    use crate::parser::parse_program;
    use crate::value::Const;

    fn db_with(rows: &[(i64, i64)]) -> (Database, Sym) {
        let mut db = Database::new();
        let p = db.symbols().intern("p");
        let rows: Vec<Vec<Const>> = rows
            .iter()
            .map(|&(a, b)| vec![Const::Int(a), Const::Int(b)])
            .collect();
        db.load_rows(p, &rows);
        (db, p)
    }

    #[test]
    fn collects_rows_and_distincts() {
        let (db, p) = db_with(&[(1, 10), (1, 20), (2, 30), (2, 40), (2, 50)]);
        let s = RelStats::collect(db.relation(p).unwrap());
        assert_eq!(s.rows, 5);
        assert_eq!(s.distinct, vec![2, 5]);
        // Probing column 0 (2 distinct values over 5 rows) ≈ 2.5 rows.
        assert!((s.estimate(0b01) - 2.5).abs() < 1e-9);
        // Probing column 1 (key-like) ≈ 1 row.
        assert!((s.estimate(0b10) - 1.0).abs() < 1e-9);
        assert!((s.estimate(0) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn unknown_predicates_get_defaults() {
        let stats = DbStats::default();
        let p = crate::symbols::SymbolTable::new().intern("q");
        assert!((stats.estimate(p, 0) - UNKNOWN_ROWS).abs() < 1e-9);
        assert!(stats.estimate(p, 0b11) < stats.estimate(p, 0b01));
    }

    #[test]
    fn refresh_patches_counts_and_rescans_past_the_tolerance() {
        let rows: Vec<(i64, i64)> = (0..80).map(|i| (i % 4, i)).collect();
        let (mut db, p) = db_with(&rows);
        let q = db.symbols().intern("q");
        db.add_fact(q, vec![Const::Int(7)]);
        let before = DbStats::collect(db.relations());

        // Ten more rows on an 80-row relation (exactly 1/8): the count is
        // patched, the estimates are carried, nothing is scanned.
        for i in 80..90 {
            db.add_fact(p, vec![Const::Int(99), Const::Int(i)]);
        }
        let (carried, rescans) = DbStats::refresh(db.relations(), &before);
        assert_eq!(rescans, 0);
        let s = carried.relation(p).unwrap();
        assert_eq!((s.rows, s.collected_rows), (90, 80));
        assert_eq!(s.distinct, before.relation(p).unwrap().distinct);
        assert_eq!(carried.relation(q), before.relation(q));

        // One row more crosses it: `p` alone is re-collected, and the
        // tolerance is measured from the last collection, not the last
        // commit, so slow growth cannot dodge it.
        db.add_fact(p, vec![Const::Int(99), Const::Int(90)]);
        let (fresh, rescans) = DbStats::refresh(db.relations(), &carried);
        assert_eq!(rescans, 1);
        let s = fresh.relation(p).unwrap();
        assert_eq!((s.rows, s.collected_rows), (91, 91));
        assert_eq!(s.distinct, vec![5, 91]);

        // A relation `prev` never saw is collected.
        let r = db.symbols().intern("r");
        db.add_fact(r, vec![Const::Int(1)]);
        let (with_r, rescans) = DbStats::refresh(db.relations(), &fresh);
        assert_eq!(rescans, 1);
        assert_eq!(with_r.relation(r).unwrap().rows, 1);
    }

    #[test]
    fn fingerprint_drift_threshold() {
        let (db, p) = db_with(&[(1, 10), (2, 20)]);
        let symbols = db.symbols().clone();
        let prog = parse_program("out(X) :- p(X, Y).\n@output(\"out\").\n", &symbols).unwrap();
        let stats = DbStats::collect(db.relations());
        let fp = stats.fingerprint(&prog);
        assert!(!fp.drifted(&stats), "identical stats never drift");

        // Small absolute growth stays under the slack.
        let (db2, _) = db_with(&[(1, 10), (2, 20), (3, 30)]);
        assert!(!fp.drifted(&DbStats::collect(db2.relations())));

        // Large growth past 2x + slack forces a replan.
        let big: Vec<(i64, i64)> = (0..200).map(|i| (i, i)).collect();
        let (db3, _) = db_with(&big);
        assert!(fp.drifted(&DbStats::collect(db3.relations())));
        let _ = p;
    }

    #[test]
    fn sampling_caps_collection_cost() {
        let mut db = Database::new();
        let p = db.symbols().intern("p");
        // The low-cardinality column's period is coprime to the sample
        // stride, so the strided sample still sees every value.
        let rows: Vec<Vec<Const>> = (0..(SAMPLE_LIMIT as i64 * 2))
            .map(|i| vec![Const::Int(i), Const::Int(i % 13)])
            .collect();
        db.load_rows(p, &rows);
        let s = RelStats::collect(db.relation(p).unwrap());
        assert_eq!(s.rows, SAMPLE_LIMIT * 2);
        // The key-like column scales to ~rows; the 13-value column is
        // seen exactly.
        assert!(s.distinct[0] > SAMPLE_LIMIT);
        assert_eq!(s.distinct[1], 13);
    }
}
