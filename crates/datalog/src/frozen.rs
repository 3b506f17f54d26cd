//! Frozen database snapshots: the read-side half of the engine's
//! mutate/query lifecycle split.
//!
//! A [`FrozenDb`] is produced by [`Database::freeze`] after loading and
//! materialisation. Freezing builds no index: instead of materialising
//! all `2^arity - 1` per-mask indexes of every relation, a snapshot keeps
//! exactly the indexes its relations already have — the masks earlier
//! probes built, carried through thaw and maintained by every insert
//! since. A mask is built on its first probe through the thread-safe
//! per-mask `OnceLock` path ([`Relation::lookup`] and the evaluator's
//! scans), and from then on belongs to the snapshot like the rest. The
//! snapshot never mutates otherwise, so every accessor takes `&self` and
//! it is shared across threads behind one `Arc`.
//!
//! A snapshot also memoises its relation statistics ([`FrozenDb::stats`])
//! — the input of the cost-based planner ([`crate::plan`]) — collected
//! once on first use and carried across the thaw/re-freeze commit path
//! by patching row counts ([`FrozenDb::warm_stats_from`]).
//!
//! Queries evaluate against a snapshot through an *overlay*
//! ([`Database::overlay`]): a fresh, initially empty database sharing the
//! snapshot's symbol table and term dictionary whose reads fall through
//! to the frozen base. Each concurrent query owns its overlay exclusively
//! (`&mut`), derives its answer predicates there, and drops it afterwards
//! — the base is never written, so any number of query threads share one
//! immutable [`FrozenDb`].

use std::sync::{Arc, OnceLock};

use crate::database::{Database, Relation};
use crate::fxhash::FxHashMap;
use crate::stats::DbStats;
use crate::symbols::{Sym, SymbolTable};
use crate::value::TermDict;

/// An immutable database snapshot, shared across threads behind an `Arc`.
///
/// Produced by [`Database::freeze`]; queried either directly (all
/// accessors take `&self`) or through per-query overlays created with
/// [`Database::overlay`]. The symbol table and term dictionary remain the
/// live, shared, thread-safe ones — query translation and evaluation keep
/// interning new symbols and Skolem IDs into them concurrently.
pub struct FrozenDb {
    symbols: Arc<SymbolTable>,
    dict: Arc<TermDict>,
    relations: FxHashMap<Sym, Relation>,
    facts: usize,
    /// Planner statistics, collected once per snapshot on first use (or
    /// warmed from a predecessor at commit time).
    stats: OnceLock<Arc<DbStats>>,
}

impl FrozenDb {
    pub(crate) fn new(
        symbols: Arc<SymbolTable>,
        dict: Arc<TermDict>,
        relations: FxHashMap<Sym, Relation>,
    ) -> Self {
        let facts = relations.values().map(Relation::len).sum();
        FrozenDb {
            symbols,
            dict,
            relations,
            facts,
            stats: OnceLock::new(),
        }
    }

    /// The shared symbol table.
    pub fn symbols(&self) -> &Arc<SymbolTable> {
        &self.symbols
    }

    /// The shared term dictionary.
    pub fn dict(&self) -> &Arc<TermDict> {
        &self.dict
    }

    /// The frozen relation for `pred`, if any facts exist.
    pub fn relation(&self, pred: Sym) -> Option<&Relation> {
        self.relations.get(&pred)
    }

    /// Iterates over `(predicate, relation)` pairs of the snapshot.
    pub fn relations(&self) -> impl Iterator<Item = (Sym, &Relation)> + '_ {
        self.relations.iter().map(|(&p, r)| (p, r))
    }

    /// Total number of facts in the snapshot.
    pub fn fact_count(&self) -> usize {
        self.facts
    }

    /// The snapshot's relation statistics (row counts, per-column
    /// distinct estimates) — the cost-based planner's input. Collected
    /// once on first use behind a `OnceLock` (cheap: one strided pass
    /// per relation) and shared from then on; the store's commit path
    /// carries it forward via [`FrozenDb::warm_stats_from`].
    pub fn stats(&self) -> Arc<DbStats> {
        self.stats
            .get_or_init(|| Arc::new(DbStats::collect(self.relations())))
            .clone()
    }

    /// The memoised statistics, if already collected — commit paths use
    /// this to carry statistics forward without forcing a collection on
    /// snapshots nobody planned against.
    pub fn stats_if_ready(&self) -> Option<Arc<DbStats>> {
        self.stats.get().cloned()
    }

    /// Seeds this snapshot's statistics from a predecessor's
    /// ([`DbStats::refresh`]: exact row counts, distinct estimates
    /// carried within the tolerance) and returns the number of relations
    /// that had to be re-scanned. Leaves already collected statistics in
    /// place (and returns 0).
    pub fn warm_stats_from(&self, prev: &DbStats) -> usize {
        let (stats, rescans) = DbStats::refresh(self.relations(), prev);
        match self.stats.set(Arc::new(stats)) {
            Ok(()) => rescans,
            Err(_) => 0,
        }
    }

    /// Melts a snapshot back into a mutable [`Database`] — the write
    /// half of the snapshot-refresh cycle (`freeze → thaw → mutate →
    /// freeze`).
    ///
    /// Every relation keeps its rows, dedup tables **and built
    /// indexes**: inserts maintain indexes incrementally, so a thawed
    /// database absorbs a delta and re-freezes without rebuilding the
    /// indexes of untouched predicates.
    ///
    /// When `this` is the last handle to the snapshot the relations are
    /// *moved* (no copy at all); while read snapshots are still live the
    /// relations are deep-copied ([`Relation::clone_for_write`]) and the
    /// readers keep serving the old snapshot untouched.
    pub fn thaw(this: Arc<FrozenDb>) -> Database {
        match Arc::try_unwrap(this) {
            Ok(owned) => Database {
                symbols: owned.symbols,
                dict: owned.dict,
                relations: owned.relations,
                base: None,
            },
            Err(shared) => Database {
                symbols: shared.symbols.clone(),
                dict: shared.dict.clone(),
                relations: shared
                    .relations
                    .iter()
                    .map(|(&p, r)| (p, r.clone_for_write()))
                    .collect(),
                base: None,
            },
        }
    }

    /// A canonical, order- and dictionary-independent rendering of the
    /// snapshot: one line per fact (decoded through the symbol table, so
    /// two snapshots with different interning histories compare equal)
    /// plus one line per built index recording its mask and an integrity
    /// count (a complete index references every row exactly once).
    ///
    /// Two snapshots with equal signatures hold the same facts with the
    /// same index completeness — the differential re-freeze suite
    /// compares an incrementally committed snapshot against a
    /// from-scratch freeze of the same data this way.
    pub fn content_signature(&self) -> Vec<String> {
        let mut lines = Vec::new();
        for (pred, rel) in self.relations() {
            let name = self.symbols.resolve(pred);
            for row in rel.iter() {
                let rendered: Vec<String> = row
                    .iter()
                    .map(|&id| self.dict.decode(id).display(&self.symbols))
                    .collect();
                lines.push(format!("{name}({})", rendered.join(",")));
            }
            for mask in rel.index_masks() {
                lines.push(format!(
                    "@index {name} mask={mask:#b} rows={}/{}",
                    rel.indexed_rows(mask).unwrap_or(0),
                    rel.len()
                ));
            }
        }
        lines.sort_unstable();
        lines
    }
}

impl std::fmt::Debug for FrozenDb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrozenDb")
            .field("relations", &self.relations.len())
            .field("facts", &self.facts)
            .finish()
    }
}

impl Database {
    /// Consumes the database into an immutable [`FrozenDb`] snapshot,
    /// shareable across threads behind the returned `Arc`.
    ///
    /// The indexes the relations already have — built by probes on this
    /// data, and maintained by every insert since — are kept, and
    /// nothing else is built: a probe on a fresh mask builds its index
    /// on first use through the thread-safe per-mask `OnceLock` path
    /// (the evaluator's scans, or [`Relation::lookup`]). A caller that
    /// wants a mask from the start builds it first
    /// ([`Relation::ensure_index`]).
    ///
    /// Any frozen base this database was overlaid on is flattened into
    /// the snapshot (local copy-on-write relations shadow their base
    /// versions).
    pub fn freeze(mut self) -> Arc<FrozenDb> {
        // Flatten an overlay: pull in base relations not shadowed locally.
        if let Some(base) = self.base.take() {
            for (pred, rel) in base.relations() {
                self.relations
                    .entry(pred)
                    .or_insert_with(|| rel.clone_for_write());
            }
        }
        Arc::new(FrozenDb::new(self.symbols, self.dict, self.relations))
    }

    /// Creates a fresh overlay database on a frozen base: empty local
    /// state, shared symbol table and term dictionary, reads falling
    /// through to `base`.
    ///
    /// Writes stay local; a write to a predicate that exists in the base
    /// first copies the base relation in (copy-on-write), so dedup and
    /// semi-naive deltas see the full fact set. Query programs generated
    /// by the SPARQL translation never trigger the copy — their head
    /// predicates are namespaced per query.
    pub fn overlay(base: Arc<FrozenDb>) -> Database {
        Database::with_base(base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Mask;
    use crate::eval::{evaluate, evaluate_frozen, EvalOptions};
    use crate::parser::parse_program;
    use crate::value::Const;

    fn edges_db() -> Database {
        let mut db = Database::new();
        let e = db.symbols().intern("edge");
        let rows: Vec<Vec<Const>> = (0..50)
            .map(|i| vec![Const::Int(i), Const::Int((i + 1) % 50)])
            .collect();
        db.load_rows(e, &rows);
        db
    }

    /// [`edges_db`] with the `edge` indexes for `masks` built.
    fn edges_db_indexed(masks: &[Mask]) -> (Database, Sym) {
        let mut db = edges_db();
        let e = db.symbols().get("edge").unwrap();
        for &mask in masks {
            assert!(db.relation_mut(e).ensure_index(mask));
        }
        (db, e)
    }

    #[test]
    fn freeze_preserves_facts_and_builds_only_named_masks() {
        let frozen = edges_db().freeze();
        assert_eq!(frozen.fact_count(), 50);
        let e = frozen.symbols().get("edge").unwrap();
        let rel = frozen.relation(e).unwrap();
        // Freezing builds nothing up front...
        assert!(rel.index_masks().is_empty(), "no masks were built");
        // ...but every lookup still answers exactly, through the lazy
        // auto-build path.
        for mask in 1u64..4 {
            let key = crate::database::project(rel.row(0), mask);
            assert_eq!(rel.lookup(mask, &key).len(), 1, "mask {mask:#b}");
        }

        // A mask built before the freeze is there from the start: a
        // borrowed-bucket hit.
        let (db, e) = edges_db_indexed(&[0b01]);
        let frozen = db.freeze();
        let rel = frozen.relation(e).unwrap();
        assert_eq!(rel.index_masks(), vec![0b01]);
        assert!(
            matches!(
                rel.lookup(0b01, &crate::database::project(rel.row(0), 0b01)),
                crate::database::Matches::Borrowed(_)
            ),
            "built mask must be kept"
        );
    }

    #[test]
    fn overlay_reads_base_and_writes_locally() {
        let frozen = edges_db().freeze();
        let e = frozen.symbols().get("edge").unwrap();
        let mut overlay = Database::overlay(frozen.clone());
        assert_eq!(overlay.relation(e).unwrap().len(), 50, "base visible");
        let p = overlay.symbols().intern("local");
        overlay.add_fact_ids(p, &[overlay.dict().encode(&Const::Int(1))]);
        assert_eq!(overlay.fact_count(), 51);
        assert!(frozen.relation(p).is_none(), "base untouched");
    }

    #[test]
    fn overlay_copy_on_write_shadows_base() {
        let frozen = edges_db().freeze();
        let e = frozen.symbols().get("edge").unwrap();
        let mut overlay = Database::overlay(frozen.clone());
        let dup = [
            overlay.dict().encode(&Const::Int(0)),
            overlay.dict().encode(&Const::Int(1)),
        ];
        // Re-inserting a base fact must dedup against the copied rows.
        assert!(!overlay.add_fact_ids(e, &dup), "already present in base");
        let fresh = [
            overlay.dict().encode(&Const::Int(999)),
            overlay.dict().encode(&Const::Int(0)),
        ];
        assert!(overlay.add_fact_ids(e, &fresh));
        assert_eq!(overlay.relation(e).unwrap().len(), 51);
        assert_eq!(frozen.relation(e).unwrap().len(), 50, "base untouched");
    }

    #[test]
    fn evaluate_frozen_matches_mutable_evaluation() {
        let prog_src = "tc(X, Y) :- edge(X, Y).\n\
                        tc(X, Z) :- edge(X, Y), tc(Y, Z).\n\
                        @output(\"tc\").\n";
        // Mutable reference run.
        let mut plain = edges_db();
        let prog = parse_program(prog_src, plain.symbols()).unwrap();
        evaluate(&prog, &mut plain, &EvalOptions::default()).unwrap();
        let tc = plain.symbols().get("tc").unwrap();
        let expected = plain.relation(tc).unwrap().len();

        // Frozen run: same program over an overlay.
        let frozen = edges_db().freeze();
        let prog2 = parse_program(prog_src, frozen.symbols()).unwrap();
        let (overlay, _) = evaluate_frozen(&prog2, &frozen, &EvalOptions::default()).unwrap();
        let tc2 = frozen.symbols().get("tc").unwrap();
        assert_eq!(overlay.relation(tc2).unwrap().len(), expected);
        assert!(
            frozen.relation(tc2).is_none(),
            "derivations stay in overlay"
        );
    }

    #[test]
    fn thaw_unique_keeps_indexes_and_absorbs_delta() {
        let (db, e) = edges_db_indexed(&[0b01, 0b10, 0b11]);
        let frozen = db.freeze();
        let sig_before = frozen.content_signature();
        let db = FrozenDb::thaw(frozen); // unique: relations are moved
                                         // Indexes survived the thaw: all three masks still built.
        assert_eq!(db.relation(e).unwrap().index_masks(), vec![1, 2, 3]);
        // Re-freezing without changes reproduces the same snapshot.
        let refrozen = db.freeze();
        assert_eq!(refrozen.content_signature(), sig_before);
        // ... and a delta keeps the indexes current through re-freeze.
        let mut db = FrozenDb::thaw(refrozen);
        let row = [
            db.dict().encode(&Const::Int(100)),
            db.dict().encode(&Const::Int(0)),
        ];
        assert!(db.add_fact_ids(e, &row));
        let again = db.freeze();
        let rel = again.relation(e).unwrap();
        assert_eq!(rel.len(), 51);
        for mask in 1u64..4 {
            assert_eq!(rel.indexed_rows(mask), Some(51), "mask {mask:#b}");
        }
    }

    #[test]
    fn lazily_built_masks_survive_thaw_and_refreeze() {
        let frozen = edges_db().freeze();
        let e = frozen.symbols().get("edge").unwrap();
        let rel = frozen.relation(e).unwrap();
        // A probe on the shared snapshot demands mask 0b10 lazily...
        let key = crate::database::project(rel.row(3), 0b10);
        assert_eq!(rel.lookup(0b10, &key).len(), 1);

        // ...and the thaw → re-freeze cycle keeps it, visible in the
        // snapshot's content signature.
        let again = FrozenDb::thaw(frozen).freeze();
        let rel = again.relation(e).unwrap();
        assert_eq!(rel.index_masks(), vec![0b10], "probed mask promoted");
        assert_eq!(rel.indexed_rows(0b10), Some(50), "complete and current");
        let name = again.symbols().resolve(e);
        assert!(
            again
                .content_signature()
                .contains(&format!("@index {name} mask=0b10 rows=50/50")),
            "signature records the promoted index"
        );
    }

    #[test]
    fn thaw_shared_leaves_live_readers_untouched() {
        let frozen = edges_db().freeze();
        let reader = frozen.clone();
        let mut db = FrozenDb::thaw(frozen); // shared: relations are copied
        let e = db.symbols().get("edge").unwrap();
        let row = [
            db.dict().encode(&Const::Int(7)),
            db.dict().encode(&Const::Int(7)),
        ];
        db.add_fact_ids(e, &row);
        assert_eq!(db.relation(e).unwrap().len(), 51);
        assert_eq!(reader.relation(e).unwrap().len(), 50, "reader unchanged");
    }

    #[test]
    fn content_signature_detects_fact_and_index_differences() {
        let a = edges_db().freeze();
        let b = edges_db().freeze();
        assert_eq!(a.content_signature(), b.content_signature());
        let mut db = edges_db();
        let e = db.symbols().get("edge").unwrap();
        let row = [
            db.dict().encode(&Const::Int(999)),
            db.dict().encode(&Const::Int(0)),
        ];
        db.add_fact_ids(e, &row);
        assert_ne!(a.content_signature(), db.freeze().content_signature());
    }

    #[test]
    fn concurrent_overlays_share_one_snapshot() {
        let frozen = edges_db().freeze();
        let counts: Vec<usize> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|k| {
                    let frozen = frozen.clone();
                    s.spawn(move || {
                        let src = format!(
                            "hop{k}(X, Z) :- edge(X, Y), edge(Y, Z).\n\
                             @output(\"hop{k}\").\n"
                        );
                        let prog = parse_program(&src, frozen.symbols()).unwrap();
                        let (db, _) =
                            evaluate_frozen(&prog, &frozen, &EvalOptions::default()).unwrap();
                        let p = frozen.symbols().get(&format!("hop{k}")).unwrap();
                        db.relation(p).map_or(0, Relation::len)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(counts.iter().all(|&c| c == 50), "{counts:?}");
    }
}
