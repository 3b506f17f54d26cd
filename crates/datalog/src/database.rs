//! The fact store: per-predicate relations over dictionary-encoded
//! tuples, with hash indexes built on demand per bound-position mask.
//!
//! Tuples are flat runs of fixed-width [`TermId`]s in one contiguous
//! buffer per relation — no per-tuple allocation, no pointer chasing in
//! the join loop. Deduplication and index probes hash raw `u64`s.
//! [`Const`]s cross the boundary only in [`Database::add_fact`] /
//! [`Database::load_rows`] (encode, at load time) and in the evaluator's
//! output collection (decode).
//!
//! This module also hosts the batch types of the batched executor:
//! [`RowBatch`] (semi-naive deltas, row-major like the relations) and
//! [`Staging`] (per-job output buffers carrying precomputed row hashes,
//! merged through [`Relation::merge_staged`]).

use std::hash::Hasher;
use std::marker::PhantomData;
use std::ops::Deref;
use std::sync::{Arc, OnceLock, PoisonError, RwLock, RwLockReadGuard};

use crate::fxhash::{FxHashMap, FxHashSet, FxHasher, PrehashedMap};
use crate::symbols::{Sym, SymbolTable};
use crate::value::{Const, TermDict, TermId};

/// A position mask: bit `i` set means argument position `i` is part of the
/// index key.
pub type Mask = u64;

/// The widest relation the engine supports: a [`Mask`] has one bit per
/// column. T_Q and the Datalog parser refuse wider atoms.
pub const MAX_ARITY: usize = Mask::BITS as usize;

/// Extracts the key columns selected by `mask` from a tuple.
pub fn project(tuple: &[TermId], mask: Mask) -> Vec<TermId> {
    let mut key = Vec::with_capacity(mask.count_ones() as usize);
    for (i, &c) in tuple.iter().enumerate() {
        if mask & (1 << i) != 0 {
            key.push(c);
        }
    }
    key
}

/// Finalizes an FxHash accumulator for use as a [`PrehashedMap`] key.
/// FxHash's last step is a multiply, which leaves the low bits weakly
/// mixed — and an identity-keyed table indexes buckets by exactly those
/// bits. One xor-shift-multiply round (the SplitMix64 tail) fixes that
/// for ~2 instructions.
#[inline]
fn mix(h: u64) -> u64 {
    let h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^ (h >> 31)
}

/// Hashes a full row of ids (the dedup key).
#[inline]
pub fn row_hash(row: &[TermId]) -> u64 {
    let mut h = FxHasher::default();
    for &id in row {
        h.write_u64(id.raw());
    }
    mix(h.finish())
}

/// Hashes the key columns of `tuple` selected by `mask`, without
/// materialising the projected key.
#[inline]
pub(crate) fn masked_hash(tuple: &[TermId], mask: Mask) -> u64 {
    let mut h = FxHasher::default();
    let mut m = mask;
    while m != 0 {
        let i = m.trailing_zeros() as usize;
        h.write_u64(tuple[i].raw());
        m &= m - 1;
    }
    mix(h.finish())
}

/// A hash index: 64-bit key hash → row indices whose key columns hash to
/// it. Distinct keys colliding on the hash simply share a bucket; probes
/// verify candidate rows against the actual key columns (the evaluator's
/// `bind_atom` re-checks every bound position anyway), so collisions cost
/// a wasted comparison, never a wrong result. Compared to boxed
/// `[TermId]` keys this removes the per-distinct-key allocation and makes
/// both build and probe a single integer hash — which the identity-keyed
/// table then uses verbatim.
pub(crate) type Index = PrehashedMap<Vec<u32>>;

/// One mask's index cell: built once initialised.
type IndexCell = Arc<OnceLock<Index>>;

/// A built hash index, borrowed from its relation. The cell handle cannot
/// outlive the `&Relation` it came from, so every handle is gone before
/// the next `&mut self` insert maintains the index.
pub(crate) struct IndexRef<'a> {
    cell: IndexCell,
    _rel: PhantomData<&'a Relation>,
}

impl Deref for IndexRef<'_> {
    type Target = Index;

    fn deref(&self) -> &Index {
        self.cell.get().expect("handed out only once built")
    }
}

/// The index bucket under one key hash.
pub struct Bucket<'a> {
    index: IndexRef<'a>,
    hash: u64,
}

impl Deref for Bucket<'_> {
    type Target = [u32];

    fn deref(&self) -> &[u32] {
        self.index.get(&self.hash).map_or(&[], Vec::as_slice)
    }
}

/// The result of an index probe: the bucket, borrowed in full, or a
/// filtered copy when a 64-bit hash collision put rows with another key
/// in it.
pub enum Matches<'a> {
    /// The index bucket, every row of which matches.
    Borrowed(Bucket<'a>),
    /// The matching rows of a bucket that also holds colliding keys.
    Owned(Vec<u32>),
}

impl Deref for Matches<'_> {
    type Target = [u32];

    fn deref(&self) -> &[u32] {
        match self {
            Matches::Borrowed(b) => b,
            Matches::Owned(v) => v,
        }
    }
}

/// A relation: a deduplicated, insertion-ordered set of fixed-arity
/// encoded tuples with hash indexes built on demand per bound-position
/// mask and maintained incrementally on insert.
///
/// These incrementally maintained per-mask indexes are the *build side*
/// of the executor's hash joins: built once, by the first probe of the
/// mask, and then kept current on every insert, rather than rebuilt per
/// semi-naive round. Probes drive from the delta batch.
#[derive(Debug, Default)]
pub struct Relation {
    /// Tuple width; fixed by the first insert.
    arity: usize,
    /// Number of tuples.
    len: usize,
    /// Flat tuple storage (`len * arity` ids).
    rows: Vec<TermId>,
    /// Dedup: tuple hash → first tuple index with that hash. Hash
    /// collisions between *distinct* rows (vanishingly rare with 64-bit
    /// hashes) chain into `seen_overflow`; equality is always confirmed
    /// against the actual rows. No per-tuple allocation, and no
    /// re-hashing: the precomputed row hash is the key.
    seen: PrehashedMap<u32>,
    seen_overflow: PrehashedMap<Vec<u32>>,
    /// One hash index per bound-position mask, built when its cell is
    /// initialised. Probes take `&self`, so a missing mask is built on
    /// first probe: concurrent readers race to its `OnceLock`, exactly
    /// one builds — *outside* the map lock, so a slow build never blocks
    /// probes of other masks — and every insert keeps it current.
    indexes: RwLock<FxHashMap<Mask, IndexCell>>,
}

impl Relation {
    /// Creates an empty relation (arity fixed by the first insert).
    pub fn new() -> Self {
        Relation::default()
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the relation holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Tuple width (0 until the first insert).
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Pre-sizes the flat storage and dedup map for `additional` more
    /// tuples of width `arity` (the bulk-load and merge fast path).
    pub fn reserve(&mut self, additional: usize, arity: usize) {
        if self.len == 0 && self.rows.is_empty() {
            self.arity = arity;
        }
        self.rows.reserve(additional * arity);
        // When the dedup table must grow at all, grow it ~8x rather than
        // hashbrown's 2x while it is small: a fixpoint relation only ever
        // grows, and the wider step cuts the entry-relocation traffic of
        // repeated resizes to a fraction. Past ~1M entries the table's
        // peak memory matters more than relocation constants, so fall
        // back to ordinary doubling there.
        if self.seen.capacity() - self.seen.len() < additional {
            let aggressive = if self.seen.len() < (1 << 20) {
                7 * self.seen.len()
            } else {
                0
            };
            self.seen.reserve(additional.max(aggressive));
        }
    }

    /// Inserts a tuple; returns `false` if it was already present.
    ///
    /// Panics if the arity differs from previously inserted tuples (a
    /// predicate's arity is fixed — mixed arities would be a programming
    /// error in the translator or a malformed program).
    pub fn insert(&mut self, tuple: &[TermId]) -> bool {
        self.insert_hashed(tuple, row_hash(tuple))
    }

    /// [`Relation::insert`] with the row hash precomputed.
    pub fn insert_hashed(&mut self, tuple: &[TermId], hash: u64) -> bool {
        debug_assert_eq!(hash, row_hash(tuple));
        self.fix_arity(tuple.len());
        if !self.append(tuple, hash) {
            return false;
        }
        self.index_rows_from(self.len - 1);
        true
    }

    /// Merges one staging buffer of emitted rows (with precomputed
    /// hashes): every fresh row is inserted and appended to
    /// `delta_batch`; duplicates are dropped. Returns the number of
    /// fresh rows.
    ///
    /// This is [`Relation::insert_hashed`] with the loop-invariant work
    /// hoisted: storage is pre-sized once, and the fresh rows — one run
    /// at the end of the storage — are indexed and copied to the delta
    /// once per batch instead of once per row.
    pub fn merge_staged(&mut self, out: &Staging, delta_batch: &mut RowBatch) -> usize {
        debug_assert!(
            out.arity > 0,
            "nullary merges are special-cased by the caller"
        );
        self.fix_arity(out.arity);
        self.reserve(out.count, out.arity);
        let start = self.len;
        for (tuple, &hash) in out.ids.chunks_exact(out.arity).zip(&out.hashes) {
            self.append(tuple, hash);
        }
        self.index_rows_from(start);
        let fresh = self.len - start;
        delta_batch
            .ids
            .extend_from_slice(&self.rows[start * self.arity..]);
        delta_batch.len += fresh;
        fresh
    }

    /// Fixes the arity at the first row and holds every later row to it
    /// (a predicate's arity is fixed — mixed arities would be a
    /// programming error in the translator or a malformed program).
    fn fix_arity(&mut self, arity: usize) {
        if self.len == 0 && self.rows.is_empty() {
            self.arity = arity;
        } else {
            assert_eq!(
                arity, self.arity,
                "arity mismatch: relation holds {}-tuples",
                self.arity
            );
        }
    }

    /// Appends `tuple` unless the dedup tables already hold it. Indexes
    /// are the caller's business ([`Relation::index_rows_from`]).
    fn append(&mut self, tuple: &[TermId], hash: u64) -> bool {
        let idx = self.len as u32;
        match self.seen.entry(hash) {
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(idx);
            }
            std::collections::hash_map::Entry::Occupied(e) => {
                if row_at(&self.rows, self.arity, *e.get()) == tuple {
                    return false;
                }
                let chain = self.seen_overflow.entry(hash).or_default();
                if chain
                    .iter()
                    .any(|&i| row_at(&self.rows, self.arity, i) == tuple)
                {
                    return false;
                }
                chain.push(idx);
            }
        }
        self.rows.extend_from_slice(tuple);
        self.len += 1;
        true
    }

    /// Adds rows `from..len` to every built index.
    fn index_rows_from(&mut self, from: usize) {
        let (rows, arity, len) = (&self.rows, self.arity, self.len as u32);
        for (mask, index) in built_mut(&mut self.indexes) {
            for i in from as u32..len {
                index_add(index, row_at(rows, arity, i), mask, i);
            }
        }
    }
    /// Membership check.
    pub fn contains(&self, tuple: &[TermId]) -> bool {
        self.contains_hashed(tuple, row_hash(tuple))
    }

    /// [`Relation::contains`] with the row hash precomputed.
    pub fn contains_hashed(&self, tuple: &[TermId], hash: u64) -> bool {
        if tuple.len() != self.arity {
            return false;
        }
        let Some(&first) = self.seen.get(&hash) else {
            return false;
        };
        if row_at(&self.rows, self.arity, first) == tuple {
            return true;
        }
        self.seen_overflow.get(&hash).is_some_and(|chain| {
            chain
                .iter()
                .any(|&i| row_at(&self.rows, self.arity, i) == tuple)
        })
    }

    /// The tuple at internal index `idx`.
    pub fn row(&self, idx: u32) -> &[TermId] {
        row_at(&self.rows, self.arity, idx)
    }

    /// The flat row storage (`len * arity` ids).
    pub(crate) fn ids(&self) -> &[TermId] {
        &self.rows
    }

    /// Iterates over all tuples in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &[TermId]> + '_ {
        (0..self.len as u32).map(move |i| self.row(i))
    }

    /// Builds the index for `mask` if missing. Returns whether it was
    /// built.
    pub fn ensure_index(&mut self, mask: Mask) -> bool {
        mask != 0 && self.index(mask).1
    }

    /// The hash index for `mask`, built here on first use, and whether
    /// this call built it (the evaluator's index-build count).
    /// Concurrent callers share one build: the map lock is held only to
    /// find or add the mask's cell, and the cell's `OnceLock` lets
    /// exactly one of them build while the rest wait for it.
    pub(crate) fn index(&self, mask: Mask) -> (IndexRef<'_>, bool) {
        let cell = read(&self.indexes).get(&mask).cloned();
        let cell = cell.unwrap_or_else(|| {
            let mut cells = self.indexes.write().unwrap_or_else(PoisonError::into_inner);
            cells.entry(mask).or_default().clone()
        });
        // Build outside the map lock: one winner per mask, the rest wait
        // on the latch.
        let mut built = false;
        cell.get_or_init(|| {
            built = true;
            self.build_index(mask)
        });
        let index = IndexRef {
            cell,
            _rel: PhantomData,
        };
        (index, built)
    }

    /// Drops every index whose mask is not in `keep`, so later inserts
    /// stop maintaining it.
    pub fn retain_indexes(&mut self, keep: &[Mask]) {
        cells(&mut self.indexes).retain(|mask, _| keep.contains(mask));
    }

    /// The bound-position masks with a built index, sorted ascending
    /// (diagnostics and the snapshot content signature).
    pub fn index_masks(&self) -> Vec<Mask> {
        let mut masks: Vec<Mask> = read(&self.indexes)
            .iter()
            .filter(|(_, cell)| cell.get().is_some())
            .map(|(&mask, _)| mask)
            .collect();
        masks.sort_unstable();
        masks
    }

    /// Total number of row references held by the index for `mask`, if
    /// built. A complete, current index references every row exactly
    /// once, so this equals [`Relation::len`] — the snapshot content
    /// signature uses that as its index-integrity check.
    pub fn indexed_rows(&self, mask: Mask) -> Option<usize> {
        let cells = read(&self.indexes);
        let index = cells.get(&mask)?.get()?;
        Some(index.values().map(Vec::len).sum())
    }

    fn build_index(&self, mask: Mask) -> Index {
        let mut index = Index::default();
        for (i, t) in self.iter().enumerate() {
            index_add(&mut index, t, mask, i as u32);
        }
        index
    }

    /// Looks up tuple indices whose `mask` columns equal `key`, building
    /// the mask's index on first use. The result borrows the index
    /// bucket; buckets are keyed by the 64-bit key hash and their rows
    /// are verified against `key`, so it is exact.
    pub fn lookup(&self, mask: Mask, key: &[TermId]) -> Matches<'_> {
        let (index, _) = self.index(mask);
        let hash = row_hash(key);
        let bucket = index.get(&hash).map_or(&[][..], Vec::as_slice);
        if bucket.iter().all(|&i| self.row_matches(i, mask, key)) {
            return Matches::Borrowed(Bucket { index, hash });
        }
        Matches::Owned(
            bucket
                .iter()
                .copied()
                .filter(|&i| self.row_matches(i, mask, key))
                .collect(),
        )
    }

    /// Removes every tuple for which `keep` returns `false`, preserving
    /// the insertion order of the retained tuples — the rebuild fallback
    /// of [`Relation::remove_rows`]. Returns the number of tuples removed.
    ///
    /// The dedup tables are rebuilt over the survivors, and so is every
    /// built index — exactly the masks the relation had, no more.
    fn retain(&mut self, mut keep: impl FnMut(&[TermId]) -> bool) -> usize {
        if self.len == 0 {
            return 0;
        }
        if self.arity == 0 {
            // A nullary relation holds at most the empty tuple.
            if !keep(&[]) {
                let removed = self.len;
                self.len = 0;
                self.seen.clear();
                self.seen_overflow.clear();
                return removed;
            }
            return 0;
        }
        let masks = self.index_masks();
        let old_rows = std::mem::take(&mut self.rows);
        let old_len = self.len;
        self.len = 0;
        self.rows.reserve(old_rows.len());
        self.seen.clear();
        self.seen_overflow.clear();
        cells(&mut self.indexes).clear();
        for tuple in old_rows.chunks_exact(self.arity) {
            if keep(tuple) {
                self.insert_hashed(tuple, row_hash(tuple));
            }
        }
        for mask in masks {
            self.ensure_index(mask);
        }
        old_len - self.len
    }

    /// Removes a batch of tuples in time proportional to the *batch*,
    /// not the relation: each present tuple is swap-removed (the last
    /// tuple moves into the vacated slot) and the dedup tables plus
    /// every built index are patched in place — O(batch × (masks + 2))
    /// hash operations, against a full O(len) rebuild. Tuples not present are ignored; the count
    /// of tuples actually removed is returned.
    ///
    /// Insertion order is **not** preserved (relations are sets; only
    /// enumeration order changes), except that batches of half the
    /// relation or more fall back to an order-preserving rebuild — one
    /// rebuild beats that many patches.
    pub fn remove_rows(&mut self, batch: &FxHashSet<Vec<TermId>>) -> usize {
        if batch.is_empty() || self.len == 0 {
            return 0;
        }
        if self.arity == 0 || batch.len() >= self.len / 2 {
            return self.retain(|t| !batch.contains(t));
        }
        let mut removed = 0usize;
        for tuple in batch {
            if self.remove_one(tuple) {
                removed += 1;
            }
        }
        removed
    }

    /// Removes a single tuple by swap-remove, patching dedup tables and
    /// built indexes. Returns `false` if the tuple is absent.
    fn remove_one(&mut self, tuple: &[TermId]) -> bool {
        if tuple.len() != self.arity {
            return false;
        }
        let hash = row_hash(tuple);
        let Some(idx) = self.locate(tuple, hash) else {
            return false;
        };
        self.dedup_remove(hash, idx);
        for (mask, index) in built_mut(&mut self.indexes) {
            bucket_remove(index, masked_hash(tuple, mask), idx);
        }
        let last = (self.len - 1) as u32;
        if idx != last {
            // Move the last tuple into the hole and repoint every
            // reference to it.
            let moved: Vec<TermId> = self.row(last).to_vec();
            let moved_hash = row_hash(&moved);
            self.dedup_repoint(moved_hash, last, idx);
            for (mask, index) in built_mut(&mut self.indexes) {
                bucket_repoint(index, masked_hash(&moved, mask), last, idx);
            }
            let a = self.arity;
            self.rows
                .copy_within(last as usize * a..(last as usize + 1) * a, idx as usize * a);
        }
        self.rows.truncate((self.len - 1) * self.arity);
        self.len -= 1;
        true
    }

    /// The internal index of `tuple`, via the dedup tables.
    fn locate(&self, tuple: &[TermId], hash: u64) -> Option<u32> {
        let &first = self.seen.get(&hash)?;
        if row_at(&self.rows, self.arity, first) == tuple {
            return Some(first);
        }
        self.seen_overflow
            .get(&hash)?
            .iter()
            .copied()
            .find(|&i| row_at(&self.rows, self.arity, i) == tuple)
    }

    /// Drops row `idx` from the dedup tables under `hash`, promoting a
    /// collision-chain entry into the primary slot when one exists.
    fn dedup_remove(&mut self, hash: u64, idx: u32) {
        match self.seen.entry(hash) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                if *e.get() == idx {
                    if let Some(chain) = self.seen_overflow.get_mut(&hash) {
                        *e.get_mut() = chain.swap_remove(0);
                        if chain.is_empty() {
                            self.seen_overflow.remove(&hash);
                        }
                    } else {
                        e.remove();
                    }
                } else if let Some(chain) = self.seen_overflow.get_mut(&hash) {
                    if let Some(pos) = chain.iter().position(|&i| i == idx) {
                        chain.swap_remove(pos);
                        if chain.is_empty() {
                            self.seen_overflow.remove(&hash);
                        }
                    }
                }
            }
            std::collections::hash_map::Entry::Vacant(_) => {}
        }
    }

    /// Rewrites the dedup reference `old` → `new` under `hash` (the
    /// swap-remove repoint for the moved last row).
    fn dedup_repoint(&mut self, hash: u64, old: u32, new: u32) {
        if let Some(first) = self.seen.get_mut(&hash) {
            if *first == old {
                *first = new;
                return;
            }
        }
        if let Some(chain) = self.seen_overflow.get_mut(&hash) {
            if let Some(slot) = chain.iter_mut().find(|i| **i == old) {
                *slot = new;
            }
        }
    }

    /// A deep copy suitable for independent mutation: rows, dedup tables
    /// and every built index are cloned. Used when an overlay database
    /// first writes to a predicate that lives in its frozen base, and
    /// when a snapshot other readers still hold thaws.
    pub fn clone_for_write(&self) -> Relation {
        let indexes = read(&self.indexes)
            .iter()
            .filter_map(|(&mask, cell)| Some((mask, Arc::new(OnceLock::from(cell.get()?.clone())))))
            .collect();
        Relation {
            arity: self.arity,
            len: self.len,
            rows: self.rows.clone(),
            seen: self.seen.clone(),
            seen_overflow: self.seen_overflow.clone(),
            indexes: RwLock::new(indexes),
        }
    }

    /// True if row `idx`'s `mask` columns equal `key` (in mask-bit order).
    fn row_matches(&self, idx: u32, mask: Mask, key: &[TermId]) -> bool {
        let row = self.row(idx);
        let mut k = 0usize;
        let mut m = mask;
        while m != 0 {
            let i = m.trailing_zeros() as usize;
            if row.get(i) != key.get(k) {
                return false;
            }
            k += 1;
            m &= m - 1;
        }
        k == key.len()
    }
}

#[inline]
fn row_at(rows: &[TermId], arity: usize, idx: u32) -> &[TermId] {
    let start = idx as usize * arity;
    &rows[start..start + arity]
}

/// The index map behind a read lock. Nothing panics while holding the
/// lock, so a poisoned one is still consistent.
fn read(
    indexes: &RwLock<FxHashMap<Mask, IndexCell>>,
) -> RwLockReadGuard<'_, FxHashMap<Mask, IndexCell>> {
    indexes.read().unwrap_or_else(PoisonError::into_inner)
}

/// The index map under `&mut` access, where no probe can hold its lock.
fn cells(indexes: &mut RwLock<FxHashMap<Mask, IndexCell>>) -> &mut FxHashMap<Mask, IndexCell> {
    indexes.get_mut().unwrap_or_else(PoisonError::into_inner)
}

/// Every built index, for maintenance under `&mut` access. Handles never
/// outlive a `&Relation` borrow, so `make_mut` never has to copy.
fn built_mut(
    indexes: &mut RwLock<FxHashMap<Mask, IndexCell>>,
) -> impl Iterator<Item = (Mask, &mut Index)> {
    cells(indexes)
        .iter_mut()
        .filter_map(|(&mask, cell)| Some((mask, Arc::make_mut(cell).get_mut()?)))
}

/// Adds a tuple to an index: hash the key columns in place, push the row
/// id into the bucket. No allocation beyond bucket growth.
fn index_add(index: &mut Index, tuple: &[TermId], mask: Mask, idx: u32) {
    index.entry(masked_hash(tuple, mask)).or_default().push(idx);
}

/// Drops row id `idx` from the bucket under `key_hash`, removing the
/// bucket when it empties. Buckets hold row ids in insertion order and
/// removals mostly hit recent rows (a commit undoing recent additions,
/// the last row a swap-remove moves), so both searches start at the back:
/// a coarse mask's bucket can hold most of the relation.
fn bucket_remove(index: &mut Index, key_hash: u64, idx: u32) {
    if let Some(bucket) = index.get_mut(&key_hash) {
        if let Some(pos) = bucket.iter().rposition(|&i| i == idx) {
            bucket.swap_remove(pos);
            if bucket.is_empty() {
                index.remove(&key_hash);
            }
        }
    }
}

/// Rewrites row id `old` → `new` in the bucket under `key_hash` (the
/// swap-remove repoint for a moved row).
fn bucket_repoint(index: &mut Index, key_hash: u64, old: u32, new: u32) {
    if let Some(bucket) = index.get_mut(&key_hash) {
        if let Some(slot) = bucket.iter_mut().rev().find(|i| **i == old) {
            *slot = new;
        }
    }
}

/// A batch of fixed-arity encoded rows, row-major in one flat buffer like
/// a [`Relation`]'s storage. The batched executor materialises each
/// semi-naive delta as one of these: a merge appends the fresh rows with
/// one copy. The length is kept apart so nullary rows count too.
#[derive(Debug, Default, Clone)]
pub struct RowBatch {
    arity: usize,
    len: usize,
    ids: Vec<TermId>,
}

impl RowBatch {
    /// Creates an empty batch of the given width.
    pub fn new(arity: usize) -> Self {
        RowBatch {
            arity,
            ..RowBatch::default()
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Row width.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Row `i`.
    pub fn row(&self, i: usize) -> &[TermId] {
        row_at(&self.ids, self.arity, i as u32)
    }

    /// Iterates over the rows in order.
    pub fn iter(&self) -> impl Iterator<Item = &[TermId]> + '_ {
        (0..self.len).map(move |i| self.row(i))
    }

    /// The flat row storage (`len * arity` ids).
    pub(crate) fn ids(&self) -> &[TermId] {
        &self.ids
    }

    /// Appends a row.
    pub fn push_row(&mut self, row: &[TermId]) {
        debug_assert_eq!(row.len(), self.arity);
        self.ids.extend_from_slice(row);
        self.len += 1;
    }
}

/// A per-job staging buffer: head rows emitted by one rule-evaluation
/// job, as a flat id buffer plus the row hashes computed at emission time
/// (reused by the sequential merge via [`Relation::merge_staged`], so no
/// row is ever hashed twice). `count` also covers nullary heads.
#[derive(Debug, Default)]
pub struct Staging {
    /// Tuple width of the emitted rows.
    pub arity: usize,
    /// Number of emitted rows.
    pub count: usize,
    /// Flat row storage (`count * arity` ids).
    pub ids: Vec<TermId>,
    /// One precomputed [`row_hash`] per emitted row.
    pub hashes: Vec<u64>,
    /// Join ticks the producing job spent filling this buffer — carried
    /// here (one store per job) so the merge can sum the evaluation's
    /// probe count without touching the hot loop.
    pub ticks: u64,
    /// Job wall time in nanoseconds, summed into the evaluation's
    /// per-rule record by the merge.
    pub nanos: u64,
}

impl Staging {
    /// Drops all rows, keeping the allocations.
    pub fn clear(&mut self) {
        self.ids.clear();
        self.hashes.clear();
        self.count = 0;
        self.ticks = 0;
        self.nanos = 0;
    }
}

/// A database: the symbol table, the term dictionary and one
/// [`Relation`] per predicate — optionally *overlaid* on a frozen,
/// read-only base snapshot ([`crate::frozen::FrozenDb`]).
///
/// Overlay semantics: reads ([`Database::relation`]) consult the local
/// relations first and fall through to the base; writes stay local, with
/// a base relation copied in on first write (copy-on-write) so dedup
/// keeps seeing the full fact set. This is what lets any number of
/// concurrent queries evaluate against one shared snapshot — each owns a
/// private overlay for its derivations.
pub struct Database {
    pub(crate) symbols: Arc<SymbolTable>,
    pub(crate) dict: Arc<TermDict>,
    pub(crate) relations: FxHashMap<Sym, Relation>,
    /// The frozen base snapshot reads fall through to, if any.
    pub(crate) base: Option<Arc<crate::frozen::FrozenDb>>,
}

impl Database {
    /// Creates an empty database with a fresh symbol table.
    pub fn new() -> Self {
        Database::with_symbols(SymbolTable::new())
    }

    /// Creates an empty database sharing an existing symbol table.
    pub fn with_symbols(symbols: Arc<SymbolTable>) -> Self {
        Database {
            symbols,
            dict: TermDict::new(),
            relations: FxHashMap::default(),
            base: None,
        }
    }

    /// Creates an empty overlay database on a frozen base (shared symbol
    /// table and dictionary; see [`Database::overlay`]).
    pub(crate) fn with_base(base: Arc<crate::frozen::FrozenDb>) -> Self {
        Database {
            symbols: base.symbols().clone(),
            dict: base.dict().clone(),
            relations: FxHashMap::default(),
            base: Some(base),
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

    /// Adds a fact given as boundary constants: encodes once, then
    /// inserts. Returns `false` on duplicates.
    pub fn add_fact(&mut self, pred: Sym, tuple: Vec<Const>) -> bool {
        let encoded: Vec<TermId> = tuple.iter().map(|c| self.dict.encode(c)).collect();
        self.add_fact_ids(pred, &encoded)
    }

    /// Adds an already-encoded fact (the evaluator's internal path).
    pub fn add_fact_ids(&mut self, pred: Sym, tuple: &[TermId]) -> bool {
        self.relation_mut(pred).insert(tuple)
    }

    /// Convenience: interns the predicate name and adds the fact.
    pub fn add_fact_str(&mut self, pred: &str, tuple: Vec<Const>) -> bool {
        let p = self.symbols.intern(pred);
        self.add_fact(p, tuple)
    }

    /// Bulk fact loading: encodes and inserts every row of `rows` into
    /// `pred`'s relation, pre-sizing storage from the iterator's size
    /// hint. Returns the number of *fresh* tuples. This is the fast path
    /// for loading a fixture without the textual Datalog parser.
    pub fn load_rows<I>(&mut self, pred: Sym, rows: I) -> usize
    where
        I: IntoIterator,
        I::Item: AsRef<[Const]>,
    {
        let iter = rows.into_iter();
        let remaining = iter.size_hint().0;
        let dict = self.dict.clone();
        let rel = self.relation_mut(pred);
        let mut scratch: Vec<TermId> = Vec::new();
        let mut fresh = 0usize;
        let mut reserved = false;
        for row in iter {
            let row = row.as_ref();
            if !reserved {
                rel.reserve(remaining.max(1), row.len());
                reserved = true;
            }
            scratch.clear();
            scratch.extend(row.iter().map(|c| dict.encode(c)));
            if rel.insert(&scratch) {
                fresh += 1;
            }
        }
        fresh
    }

    /// The relation for `pred`, if any facts exist — checking the local
    /// relations first, then the frozen base (overlay read-through).
    pub fn relation(&self, pred: Sym) -> Option<&Relation> {
        self.relations
            .get(&pred)
            .or_else(|| self.base.as_ref().and_then(|b| b.relation(pred)))
    }

    /// Mutable access, creating the relation if absent.
    ///
    /// On an overlay, a predicate that only exists in the frozen base is
    /// first copied into the local map (copy-on-write) so inserts dedup
    /// against — and scans keep seeing — the base facts. Translated query
    /// programs never hit the copy: their head predicates are namespaced
    /// per query and never collide with base predicates.
    pub fn relation_mut(&mut self, pred: Sym) -> &mut Relation {
        match self.relations.entry(pred) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::hash_map::Entry::Vacant(e) => {
                let rel = self
                    .base
                    .as_ref()
                    .and_then(|b| b.relation(pred))
                    .map(Relation::clone_for_write)
                    .unwrap_or_default();
                e.insert(rel)
            }
        }
    }

    /// Iterates over `(predicate, relation)` pairs — local relations
    /// first, then base relations not shadowed by a local copy.
    pub fn relations(&self) -> impl Iterator<Item = (Sym, &Relation)> + '_ {
        self.relations.iter().map(|(&p, r)| (p, r)).chain(
            self.base
                .iter()
                .flat_map(|b| b.relations())
                .filter(|(p, _)| !self.relations.contains_key(p)),
        )
    }

    /// Decodes an encoded tuple back to boundary constants.
    pub fn decode_tuple(&self, tuple: &[TermId]) -> Vec<Const> {
        tuple.iter().map(|&id| self.dict.decode(id)).collect()
    }

    /// Total number of facts (overlay + non-shadowed base).
    pub fn fact_count(&self) -> usize {
        self.relations().map(|(_, r)| r.len()).sum()
    }
}

impl Default for Database {
    fn default() -> Self {
        Database::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(dict: &TermDict, vals: &[i64]) -> Vec<TermId> {
        vals.iter().map(|&i| dict.encode(&Const::Int(i))).collect()
    }

    #[test]
    fn insert_dedupes() {
        let dict = TermDict::new();
        let mut r = Relation::new();
        assert!(r.insert(&ids(&dict, &[1, 2])));
        assert!(!r.insert(&ids(&dict, &[1, 2])));
        assert!(r.insert(&ids(&dict, &[2, 1])));
        assert_eq!(r.len(), 2);
        assert!(r.contains(&ids(&dict, &[1, 2])));
        assert!(!r.contains(&ids(&dict, &[3, 3])));
    }

    #[test]
    fn index_lookup() {
        let dict = TermDict::new();
        let mut r = Relation::new();
        r.insert(&ids(&dict, &[1, 10]));
        r.insert(&ids(&dict, &[1, 20]));
        r.insert(&ids(&dict, &[2, 30]));
        r.ensure_index(0b01);
        assert_eq!(r.lookup(0b01, &ids(&dict, &[1])).len(), 2);
        assert_eq!(r.lookup(0b01, &ids(&dict, &[2])).len(), 1);
        assert_eq!(r.lookup(0b01, &ids(&dict, &[9])).len(), 0);
    }

    #[test]
    fn index_updated_on_insert() {
        let dict = TermDict::new();
        let mut r = Relation::new();
        r.insert(&ids(&dict, &[1, 10]));
        r.ensure_index(0b10);
        r.insert(&ids(&dict, &[2, 10]));
        assert_eq!(r.lookup(0b10, &ids(&dict, &[10])).len(), 2);
    }

    #[test]
    fn composite_index() {
        let dict = TermDict::new();
        let mut r = Relation::new();
        r.insert(&ids(&dict, &[1, 2, 3]));
        r.insert(&ids(&dict, &[1, 2, 4]));
        r.insert(&ids(&dict, &[1, 9, 3]));
        r.ensure_index(0b011);
        assert_eq!(r.lookup(0b011, &ids(&dict, &[1, 2])).len(), 2);
        r.ensure_index(0b101);
        assert_eq!(r.lookup(0b101, &ids(&dict, &[1, 3])).len(), 2);
    }

    #[test]
    fn lookup_on_empty_relation_without_index() {
        let dict = TermDict::new();
        let r = Relation::new();
        assert!(r.lookup(0b1, &ids(&dict, &[1])).is_empty());
    }

    #[test]
    fn lookup_on_unbuilt_index_autobuilds() {
        let dict = TermDict::new();
        let mut r = Relation::new();
        r.insert(&ids(&dict, &[1, 10]));
        r.insert(&ids(&dict, &[1, 20]));
        // No ensure_index: the first probe builds the index lazily.
        assert_eq!(r.lookup(0b1, &ids(&dict, &[1])).len(), 2);
        // The auto-built index is maintained on subsequent inserts.
        r.insert(&ids(&dict, &[1, 30]));
        assert_eq!(r.lookup(0b1, &ids(&dict, &[1])).len(), 3);
        // ensure_index finds it built; probes borrow its buckets.
        r.ensure_index(0b1);
        assert!(matches!(
            r.lookup(0b1, &ids(&dict, &[1])),
            Matches::Borrowed(s) if s.len() == 3
        ));
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn mixed_arity_insert_panics() {
        let dict = TermDict::new();
        let mut r = Relation::new();
        r.insert(&ids(&dict, &[1, 2]));
        r.insert(&ids(&dict, &[1]));
    }

    #[test]
    fn retain_preserves_order_and_rebuilds_existing_indexes() {
        let dict = TermDict::new();
        let mut r = Relation::new();
        for i in 0..20i64 {
            r.insert(&ids(&dict, &[i % 4, i]));
        }
        r.ensure_index(0b01);
        r.ensure_index(0b10);
        let drop_key = ids(&dict, &[3]);
        let removed = r.retain(|row| row[0] != drop_key[0]);
        assert_eq!(removed, 5);
        assert_eq!(r.len(), 15);
        // Insertion order of survivors is intact.
        let first: Vec<TermId> = r.row(0).to_vec();
        assert_eq!(first, ids(&dict, &[0, 0]));
        // Exactly the pre-existing masks are rebuilt, and they are current.
        assert_eq!(r.index_masks(), vec![0b01, 0b10]);
        assert_eq!(r.lookup(0b01, &ids(&dict, &[3])).len(), 0);
        assert_eq!(r.lookup(0b01, &ids(&dict, &[2])).len(), 5);
        assert_eq!(r.indexed_rows(0b10), Some(15));
        // Dedup tables are rebuilt: survivors stay deduped, removed rows
        // can be re-inserted.
        assert!(!r.insert(&ids(&dict, &[0, 0])));
        assert!(r.insert(&ids(&dict, &[3, 3])));
    }

    #[test]
    fn retain_everything_is_a_noop() {
        let dict = TermDict::new();
        let mut r = Relation::new();
        for i in 0..5i64 {
            r.insert(&ids(&dict, &[i, i]));
        }
        assert_eq!(r.retain(|_| true), 0);
        assert_eq!(r.len(), 5);
    }

    #[test]
    fn database_basics() {
        let mut db = Database::new();
        assert!(db.add_fact_str("p", vec![Const::Int(1)]));
        assert!(!db.add_fact_str("p", vec![Const::Int(1)]));
        db.add_fact_str("q", vec![Const::Int(1), Const::Int(2)]);
        assert_eq!(db.fact_count(), 2);
        let p = db.symbols().get("p").unwrap();
        assert_eq!(db.relation(p).unwrap().len(), 1);
        assert!(db.relation(db.symbols().intern("zzz")).is_none());
    }

    #[test]
    fn encode_decode_roundtrip_through_db() {
        let mut db = Database::new();
        let tuple = vec![
            Const::Int(1),
            Const::Str(db.symbols().intern("x")),
            Const::Null,
        ];
        db.add_fact_str("p", tuple.clone());
        let p = db.symbols().get("p").unwrap();
        let rel = db.relation(p).unwrap();
        let row: Vec<TermId> = rel.iter().next().unwrap().to_vec();
        assert_eq!(db.decode_tuple(&row), tuple);
    }

    #[test]
    fn concurrent_lazy_lookup_builds_once_and_agrees() {
        // Regression test for the lazily auto-built index path: hammer an
        // unindexed mask from many threads at once. The OnceLock latch
        // must serve every thread the same (correct) answer, whichever
        // thread wins the build race.
        let dict = TermDict::new();
        let mut r = Relation::new();
        for i in 0..2_000i64 {
            r.insert(&ids(&dict, &[i % 50, i]));
        }
        let r = std::sync::Arc::new(r);
        let results: Vec<Vec<usize>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|k| {
                    let r = r.clone();
                    let dict = dict.clone();
                    s.spawn(move || {
                        let mut counts = Vec::new();
                        for probe in 0..50i64 {
                            let key = ids(&dict, &[(probe + k) % 50]);
                            counts.push(r.lookup(0b01, &key).len());
                        }
                        counts
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (k, counts) in results.iter().enumerate() {
            for (probe, &n) in counts.iter().enumerate() {
                assert_eq!(n, 40, "thread {k} probe {probe}: 2000/50 rows per key");
            }
        }
    }

    #[test]
    fn load_rows_bulk_path_matches_add_fact() {
        let mut a = Database::new();
        let mut b = Database::with_symbols(a.symbols().clone());
        let rows: Vec<Vec<Const>> = (0..100)
            .map(|i| vec![Const::Int(i % 30), Const::Int(i)])
            .collect();
        for row in &rows {
            a.add_fact_str("p", row.clone());
        }
        let p = b.symbols().intern("p");
        let fresh = b.load_rows(p, &rows);
        assert_eq!(fresh, 100);
        assert_eq!(b.load_rows(p, &rows), 0, "reload is a no-op");
        let (ra, rb) = (a.relation(p).unwrap(), b.relation(p).unwrap());
        assert_eq!(ra.len(), rb.len());
        let decode = |db: &Database, r: &Relation| -> Vec<Vec<Const>> {
            r.iter().map(|t| db.decode_tuple(t)).collect()
        };
        assert_eq!(decode(&a, ra), decode(&b, rb));
    }

    #[test]
    fn row_batch_roundtrip() {
        let dict = TermDict::new();
        let mut b = RowBatch::new(3);
        assert!(b.is_empty());
        let rows = [ids(&dict, &[1, 2, 3]), ids(&dict, &[4, 5, 6])];
        for r in &rows {
            b.push_row(r);
        }
        assert_eq!((b.len(), b.arity()), (2, 3));
        assert_eq!(b.row(1), rows[1]);
        assert_eq!(b.iter().collect::<Vec<_>>(), [&rows[0][..], &rows[1][..]]);
    }

    #[test]
    fn insert_hashed_and_contains_hashed_agree_with_plain() {
        let dict = TermDict::new();
        let mut r = Relation::new();
        let t1 = ids(&dict, &[7, 8]);
        let h1 = row_hash(&t1);
        assert!(r.insert_hashed(&t1, h1));
        assert!(!r.insert_hashed(&t1, h1));
        assert!(r.contains_hashed(&t1, h1));
        assert!(r.contains(&t1));
        assert!(!r.contains_hashed(&ids(&dict, &[8, 7]), row_hash(&ids(&dict, &[8, 7]))));
    }

    #[test]
    fn project_mask() {
        let dict = TermDict::new();
        let t = ids(&dict, &[1, 2, 3]);
        assert_eq!(project(&t, 0b101), vec![t[0], t[2]]);
        assert_eq!(project(&t, 0), Vec::<TermId>::new());
        assert_eq!(project(&t, 0b111), t);
    }
}
