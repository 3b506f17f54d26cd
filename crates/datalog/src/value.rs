//! Runtime values (constants) of the Datalog± engine, and the **term
//! dictionary** that encodes them into fixed-width [`TermId`]s.
//!
//! The value model is a scaled-down Vadalog: first-class RDF terms (IRIs,
//! blank nodes, plain/lang/typed literals), machine types for computed
//! values (integers, floats, booleans), the distinguished `null` constant
//! used by the SPARQL translation for unbound variables, and **Skolem
//! terms** — uninterpreted function terms used both as labelled nulls for
//! existential rules and as the tuple IDs of the paper's
//! duplicate-preservation model (§5.1).
//!
//! [`Const`] is the *boundary* representation: it enters the engine once
//! at load time (T_D) and leaves once at solution extraction (T_S).
//! Internally — fact storage, join keys, dedup, Skolemisation — the
//! engine runs entirely on [`TermId`]s: `u64`s that either encode the
//! constant inline (nulls, booleans, small integers, interned symbols)
//! or index into the shared [`TermDict`]. Encoding is canonical and
//! injective, so `TermId` equality coincides with structural [`Const`]
//! equality and tuples become flat, `Copy`-able fixed-width records.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::AtomicUsize;
use std::sync::{Arc, RwLock};

use crate::fxhash::{FxHashMap, FxHasher};
use crate::symbols::{Sym, SymbolTable};

/// A total-ordered `f64` wrapper (NaN compares greatest, -0.0 == 0.0 is
/// *not* collapsed: we compare by bits when `partial_cmp` fails).
#[derive(Debug, Clone, Copy)]
pub struct OrdF64(pub f64);

impl PartialEq for OrdF64 {
    fn eq(&self, other: &Self) -> bool {
        self.0.to_bits() == other.0.to_bits()
    }
}
impl Eq for OrdF64 {}

impl std::hash::Hash for OrdF64 {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.to_bits().hash(state);
    }
}

impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0
            .partial_cmp(&other.0)
            .unwrap_or_else(|| self.0.to_bits().cmp(&other.0.to_bits()))
    }
}

/// A Skolem term: an uninterpreted functor applied to constants.
///
/// In the paper's notation these are the tuple IDs
/// `ID = ["f1a", X, N, V2_X, V2_L, ID2, ID3]` (Figure 2). The functor is
/// the `"f1a"` label; the args are the listed values, which may themselves
/// be Skolem terms (that recursive structure is what makes the ID count
/// equal the derivation-tree count).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SkolemTerm {
    /// The uninterpreted function symbol (`"f1a"` in the paper).
    pub functor: Sym,
    /// The argument values, possibly Skolem terms themselves.
    pub args: Vec<Const>,
}

impl SkolemTerm {
    /// Maximum nesting depth of Skolem terms inside this term (a bare
    /// functor has depth 1). Used by the chase termination bound.
    pub fn depth(&self) -> usize {
        1 + self.args.iter().map(Const::skolem_depth).max().unwrap_or(0)
    }
}

/// A constant of the Datalog± engine.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Const {
    /// An IRI (interned).
    Iri(Sym),
    /// A blank node label (interned).
    Bnode(Sym),
    /// A plain string / simple literal (interned).
    Str(Sym),
    /// A language-tagged literal: (lexical, lang).
    LangStr(Sym, Sym),
    /// A datatyped literal: (lexical, datatype IRI).
    Typed(Sym, Sym),
    /// A machine integer (computed values, counts).
    Int(i64),
    /// A machine float (computed values, averages).
    Float(OrdF64),
    /// A machine boolean (e.g. the `HasResult` of ASK translation).
    Bool(bool),
    /// The distinguished `"null"` constant of the SPARQL translation
    /// (Def. A.2) — represents an unbound variable in a solution mapping.
    Null,
    /// A Skolem term / labelled null / tuple ID.
    Skolem(Arc<SkolemTerm>),
}

impl Const {
    /// Creates a Skolem constant.
    pub fn skolem(functor: Sym, args: Vec<Const>) -> Self {
        Const::Skolem(Arc::new(SkolemTerm { functor, args }))
    }

    /// Skolem nesting depth (0 for non-Skolem constants).
    pub fn skolem_depth(&self) -> usize {
        match self {
            Const::Skolem(t) => t.depth(),
            _ => 0,
        }
    }

    /// True if this constant is (or contains) a labelled null, i.e. a
    /// Skolem term. Used by the wardedness analysis tests.
    pub fn is_skolem(&self) -> bool {
        matches!(self, Const::Skolem(_))
    }

    /// True for the `null` constant.
    pub fn is_null(&self) -> bool {
        matches!(self, Const::Null)
    }

    /// The numeric value of the constant, if any: machine numbers and
    /// numeric typed literals qualify.
    pub fn as_f64(&self, symbols: &SymbolTable) -> Option<f64> {
        match self {
            Const::Int(i) => Some(*i as f64),
            Const::Float(f) => Some(f.0),
            Const::Typed(lex, dt) => {
                let dt = symbols.resolve(*dt);
                if sparqlog_xsd_is_numeric(&dt) {
                    symbols.resolve(*lex).trim().parse().ok()
                } else {
                    None
                }
            }
            _ => None,
        }
    }

    /// The integer value, if the constant is integral.
    pub fn as_i64(&self, symbols: &SymbolTable) -> Option<i64> {
        match self {
            Const::Int(i) => Some(*i),
            Const::Typed(lex, dt) => {
                let dt = symbols.resolve(*dt);
                if sparqlog_xsd_is_integer(&dt) {
                    symbols.resolve(*lex).trim().parse().ok()
                } else {
                    None
                }
            }
            _ => None,
        }
    }

    /// Renders the constant for human consumption (test assertions,
    /// debugging, benchmark output).
    pub fn display(&self, symbols: &SymbolTable) -> String {
        match self {
            Const::Iri(s) => format!("<{}>", symbols.resolve(*s)),
            Const::Bnode(s) => format!("_:{}", symbols.resolve(*s)),
            Const::Str(s) => format!("{:?}", symbols.resolve(*s)),
            Const::LangStr(lex, lang) => {
                format!("{:?}@{}", symbols.resolve(*lex), symbols.resolve(*lang))
            }
            Const::Typed(lex, dt) => {
                format!("{:?}^^<{}>", symbols.resolve(*lex), symbols.resolve(*dt))
            }
            Const::Int(i) => i.to_string(),
            Const::Float(f) => f.0.to_string(),
            Const::Bool(b) => b.to_string(),
            Const::Null => "null".to_string(),
            Const::Skolem(t) => {
                let args: Vec<String> = t.args.iter().map(|a| a.display(symbols)).collect();
                format!("[{}|{}]", symbols.resolve(t.functor), args.join(","))
            }
        }
    }
}

// Local numeric-datatype checks. Duplicated from `sparqlog-rdf` on purpose:
// the datalog crate is a freestanding substrate with no RDF dependency.
fn sparqlog_xsd_is_integer(dt: &str) -> bool {
    matches!(
        dt,
        "http://www.w3.org/2001/XMLSchema#integer"
            | "http://www.w3.org/2001/XMLSchema#long"
            | "http://www.w3.org/2001/XMLSchema#int"
            | "http://www.w3.org/2001/XMLSchema#short"
            | "http://www.w3.org/2001/XMLSchema#byte"
            | "http://www.w3.org/2001/XMLSchema#nonNegativeInteger"
    )
}

fn sparqlog_xsd_is_numeric(dt: &str) -> bool {
    sparqlog_xsd_is_integer(dt)
        || matches!(
            dt,
            "http://www.w3.org/2001/XMLSchema#decimal"
                | "http://www.w3.org/2001/XMLSchema#double"
                | "http://www.w3.org/2001/XMLSchema#float"
        )
}

impl fmt::Display for Const {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Symbol-free rendering for contexts without a table at hand.
        match self {
            Const::Int(i) => write!(f, "{i}"),
            Const::Float(x) => write!(f, "{}", x.0),
            Const::Bool(b) => write!(f, "{b}"),
            Const::Null => write!(f, "null"),
            other => write!(f, "{other:?}"),
        }
    }
}

// ------------------------------------------------------- term dictionary

/// A dictionary-encoded term: a fixed-width stand-in for a [`Const`].
///
/// The top 4 bits are a variant tag; the low 60 bits are the payload —
/// either the value itself (null, boolean, small integer, interned
/// symbol(s), float with a short bit pattern) or an index into the
/// [`TermDict`]'s spill/Skolem tables. Equality and hashing are single
/// `u64` operations, which is what makes the join/dedup hot path cheap.
///
/// `Ord` is derived for use in ordered containers but has **no semantic
/// meaning**; value ordering (`ORDER BY`, comparisons) always goes
/// through decoded [`Const`]s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(u64);

const TAG_SHIFT: u32 = 60;
const PAYLOAD_MASK: u64 = (1 << TAG_SHIFT) - 1;

const TAG_NULL: u64 = 0;
const TAG_BOOL: u64 = 1;
const TAG_INT: u64 = 2;
const TAG_IRI: u64 = 3;
const TAG_BNODE: u64 = 4;
const TAG_STR: u64 = 5;
const TAG_LANG: u64 = 6;
const TAG_TYPED: u64 = 7;
const TAG_FLOAT: u64 = 8;
const TAG_SKOLEM: u64 = 14;
const TAG_SPILL: u64 = 15;

/// Inline packing of two symbols: the first gets 32 bits, the second the
/// remaining 28. Datatype/language symbols are interned early and small,
/// so the 28-bit limit virtually never spills in practice.
const PAIR_SHIFT: u32 = 28;
const PAIR_MAX: u32 = (1 << PAIR_SHIFT) - 1;

/// Small integers encode inline as 60-bit two's complement.
const INT_MIN_INLINE: i64 = -(1 << 59);
const INT_MAX_INLINE: i64 = (1 << 59) - 1;

impl TermId {
    /// The encoding of [`Const::Null`].
    pub const NULL: TermId = TermId(0);

    #[inline]
    fn new(tag: u64, payload: u64) -> TermId {
        debug_assert!(payload <= PAYLOAD_MASK);
        TermId((tag << TAG_SHIFT) | payload)
    }

    #[inline]
    fn tag(self) -> u64 {
        self.0 >> TAG_SHIFT
    }

    #[inline]
    fn payload(self) -> u64 {
        self.0 & PAYLOAD_MASK
    }

    /// The raw bit pattern (stable only within one dictionary).
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }

    /// True for the encoding of [`Const::Null`].
    #[inline]
    pub fn is_null(self) -> bool {
        self == TermId::NULL
    }

    /// True for Skolem-term encodings (labelled nulls / tuple IDs).
    #[inline]
    pub fn is_skolem(self) -> bool {
        self.tag() == TAG_SKOLEM
    }
}

/// An interned Skolem node: the functor, the already-encoded arguments,
/// and the precomputed nesting depth (so the chase-termination check is
/// O(1) instead of a recursive walk).
#[derive(Debug)]
struct SkolemNode {
    functor: Sym,
    args: Box<[TermId]>,
    depth: u32,
}

/// Sharding of the spill/Skolem tables: the shard index lives in the low
/// bits of the payload, the per-shard table index in the high bits. A term
/// routes to its shard by content hash, so encoding stays canonical.
const SHARD_BITS: u32 = 4;
const NSHARDS: usize = 1 << SHARD_BITS;
const SHARD_MASK: u64 = NSHARDS as u64 - 1;

#[inline]
fn shard_payload(shard: usize, local: u32) -> u64 {
    ((local as u64) << SHARD_BITS) | shard as u64
}

#[derive(Debug, Default)]
struct DictShard {
    /// Constants that don't fit inline, indexed by the local spill id.
    spill: Vec<Const>,
    spill_ids: FxHashMap<Const, u32>,
    /// Interned Skolem terms, indexed by the local node id.
    skolems: Vec<SkolemNode>,
    /// functor → args → node id (nested so hits need no allocation).
    skolem_ids: FxHashMap<Sym, FxHashMap<Box<[TermId]>, u32>>,
}

/// The global term dictionary: [`Const`] ⇄ [`TermId`].
///
/// Shared (`Arc`) between the database, the evaluator and the translation
/// boundary, like the [`SymbolTable`]. Most terms encode inline and never
/// touch a lock; only the spill and Skolem tables are guarded — and those
/// are **sharded** 16 ways by content hash, so concurrent queries
/// interning Skolem tuple IDs contend only when they hash to the same
/// shard. No lock is ever held while another shard is consulted (arg
/// depths and nested decodes release before crossing shards), so the
/// sharding cannot deadlock.
///
/// The invariant the engine relies on: encoding is **canonical** — equal
/// constants always produce equal `TermId`s and distinct constants
/// distinct ones — so the evaluator may compare, hash and deduplicate
/// encoded tuples without ever decoding.
#[derive(Debug, Default)]
pub struct TermDict {
    shards: [RwLock<DictShard>; NSHARDS],
    /// Terms interned into the spill/Skolem tables since creation, for
    /// the execution governor's dictionary-growth budget
    /// ([`crate::Budget::with_max_dict_growth`]). Bumped on the insert
    /// paths only (already under a shard write lock), read with a single
    /// relaxed load.
    interned: AtomicUsize,
}

impl TermDict {
    /// Creates an empty dictionary.
    pub fn new() -> Arc<Self> {
        Arc::new(TermDict::default())
    }

    #[inline]
    fn spill_shard(c: &Const) -> usize {
        let mut h = FxHasher::default();
        c.hash(&mut h);
        (h.finish() & SHARD_MASK) as usize
    }

    #[inline]
    fn skolem_shard(functor: Sym, args: &[TermId]) -> usize {
        let mut h = FxHasher::default();
        h.write_u32(functor.0);
        for a in args {
            h.write_u64(a.raw());
        }
        (h.finish() & SHARD_MASK) as usize
    }

    /// Encodes a constant (interning into the spill/Skolem tables when it
    /// doesn't fit inline).
    pub fn encode(&self, c: &Const) -> TermId {
        match c {
            Const::Null => TermId::NULL,
            Const::Bool(b) => TermId::new(TAG_BOOL, *b as u64),
            Const::Int(i) if (INT_MIN_INLINE..=INT_MAX_INLINE).contains(i) => {
                TermId::new(TAG_INT, (*i as u64) & PAYLOAD_MASK)
            }
            Const::Iri(s) => TermId::new(TAG_IRI, s.0 as u64),
            Const::Bnode(s) => TermId::new(TAG_BNODE, s.0 as u64),
            Const::Str(s) => TermId::new(TAG_STR, s.0 as u64),
            Const::LangStr(lex, lang) if lang.0 <= PAIR_MAX => {
                TermId::new(TAG_LANG, ((lex.0 as u64) << PAIR_SHIFT) | lang.0 as u64)
            }
            Const::Typed(lex, dt) if dt.0 <= PAIR_MAX => {
                TermId::new(TAG_TYPED, ((lex.0 as u64) << PAIR_SHIFT) | dt.0 as u64)
            }
            Const::Float(f) if f.0.to_bits() & 0xF == 0 => {
                TermId::new(TAG_FLOAT, f.0.to_bits() >> 4)
            }
            Const::Skolem(t) => {
                let args: Vec<TermId> = t.args.iter().map(|a| self.encode(a)).collect();
                self.skolem(t.functor, &args)
            }
            other => self.spill(other),
        }
    }

    /// Interns (or looks up) the Skolem term `functor(args)` directly in
    /// id space — the fast path for tuple-ID generation, which never
    /// materialises a [`SkolemTerm`].
    pub fn skolem(&self, functor: Sym, args: &[TermId]) -> TermId {
        let shard = Self::skolem_shard(functor, args);
        if let Some(per_functor) = self.shards[shard].read().unwrap().skolem_ids.get(&functor) {
            if let Some(&id) = per_functor.get(args) {
                return TermId::new(TAG_SKOLEM, shard_payload(shard, id));
            }
        }
        // Nested Skolem args may live in *other* shards: compute the depth
        // before taking this shard's write lock so no two locks are ever
        // held at once (lock-order freedom ⇒ no deadlock).
        let depth = 1 + args
            .iter()
            .map(|&a| self.skolem_depth(a) as u32)
            .max()
            .unwrap_or(0);
        let mut w = self.shards[shard].write().unwrap();
        if let Some(&id) = w.skolem_ids.get(&functor).and_then(|m| m.get(args)) {
            return TermId::new(TAG_SKOLEM, shard_payload(shard, id));
        }
        let id = w.skolems.len() as u32;
        let boxed: Box<[TermId]> = args.into();
        w.skolems.push(SkolemNode {
            functor,
            args: boxed.clone(),
            depth,
        });
        w.skolem_ids.entry(functor).or_default().insert(boxed, id);
        self.interned
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        TermId::new(TAG_SKOLEM, shard_payload(shard, id))
    }

    /// Number of terms interned into the spill/Skolem tables so far — the
    /// dictionary's growth measure. Inline-encoded terms (small ints,
    /// IRIs, plain strings, ...) never count: they allocate nothing here.
    pub fn interned_terms(&self) -> usize {
        self.interned.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Skolem nesting depth of an encoded term (0 for non-Skolem terms).
    /// O(1): depths are computed once at interning time.
    pub fn skolem_depth(&self, id: TermId) -> usize {
        if !id.is_skolem() {
            return 0;
        }
        let payload = id.payload();
        let shard = (payload & SHARD_MASK) as usize;
        let local = (payload >> SHARD_BITS) as usize;
        self.shards[shard].read().unwrap().skolems[local].depth as usize
    }

    /// Decodes an id back into a constant. Panics on an id from another
    /// dictionary (like [`SymbolTable::resolve`] on a foreign symbol).
    pub fn decode(&self, id: TermId) -> Const {
        let payload = id.payload();
        let shard = (payload & SHARD_MASK) as usize;
        let local = (payload >> SHARD_BITS) as usize;
        match id.tag() {
            TAG_SPILL => self.shards[shard].read().unwrap().spill[local].clone(),
            TAG_SKOLEM => {
                // Clone the node out and release the lock before decoding
                // the args: they may live in other shards, and holding a
                // read lock across that recursion could deadlock against a
                // writer queued on this shard.
                let (functor, args) = {
                    let inner = self.shards[shard].read().unwrap();
                    let node = &inner.skolems[local];
                    (node.functor, node.args.clone())
                };
                let args: Vec<Const> = args.iter().map(|&a| self.decode(a)).collect();
                Const::skolem(functor, args)
            }
            _ => TermDict::decode_inline(id),
        }
    }

    fn decode_inline(id: TermId) -> Const {
        debug_assert!(id.tag() < TAG_SKOLEM);
        match id.tag() {
            TAG_NULL => Const::Null,
            TAG_BOOL => Const::Bool(id.payload() != 0),
            TAG_INT => Const::Int(((id.payload() << 4) as i64) >> 4),
            TAG_IRI => Const::Iri(Sym(id.payload() as u32)),
            TAG_BNODE => Const::Bnode(Sym(id.payload() as u32)),
            TAG_STR => Const::Str(Sym(id.payload() as u32)),
            TAG_LANG => Const::LangStr(
                Sym((id.payload() >> PAIR_SHIFT) as u32),
                Sym((id.payload() & PAIR_MAX as u64) as u32),
            ),
            TAG_TYPED => Const::Typed(
                Sym((id.payload() >> PAIR_SHIFT) as u32),
                Sym((id.payload() & PAIR_MAX as u64) as u32),
            ),
            TAG_FLOAT => Const::Float(OrdF64(f64::from_bits(id.payload() << 4))),
            _ => unreachable!("decode_inline on table-backed tag"),
        }
    }

    fn spill(&self, c: &Const) -> TermId {
        let shard = Self::spill_shard(c);
        if let Some(&id) = self.shards[shard].read().unwrap().spill_ids.get(c) {
            return TermId::new(TAG_SPILL, shard_payload(shard, id));
        }
        let mut w = self.shards[shard].write().unwrap();
        if let Some(&id) = w.spill_ids.get(c) {
            return TermId::new(TAG_SPILL, shard_payload(shard, id));
        }
        let id = w.spill.len() as u32;
        w.spill.push(c.clone());
        w.spill_ids.insert(c.clone(), id);
        self.interned
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        TermId::new(TAG_SPILL, shard_payload(shard, id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordf64_total_order() {
        assert!(OrdF64(1.0) < OrdF64(2.0));
        assert_eq!(OrdF64(f64::NAN), OrdF64(f64::NAN));
        assert!(OrdF64(f64::NAN) > OrdF64(f64::INFINITY));
    }

    #[test]
    fn skolem_depth() {
        let t = SymbolTable::new();
        let f = t.intern("f");
        let flat = Const::skolem(f, vec![Const::Int(1)]);
        assert_eq!(flat.skolem_depth(), 1);
        let nested = Const::skolem(f, vec![flat.clone(), Const::Int(2)]);
        assert_eq!(nested.skolem_depth(), 2);
        let deeper = Const::skolem(f, vec![nested]);
        assert_eq!(deeper.skolem_depth(), 3);
        assert_eq!(Const::Int(5).skolem_depth(), 0);
    }

    #[test]
    fn skolem_identity_is_structural() {
        let t = SymbolTable::new();
        let f = t.intern("f");
        let a = Const::skolem(f, vec![Const::Int(1), Const::Null]);
        let b = Const::skolem(f, vec![Const::Int(1), Const::Null]);
        let c = Const::skolem(f, vec![Const::Int(2), Const::Null]);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn numeric_views() {
        let t = SymbolTable::new();
        assert_eq!(Const::Int(3).as_f64(&t), Some(3.0));
        assert_eq!(Const::Float(OrdF64(2.5)).as_f64(&t), Some(2.5));
        let lex = t.intern("42");
        let dt = t.intern("http://www.w3.org/2001/XMLSchema#integer");
        let typed = Const::Typed(lex, dt);
        assert_eq!(typed.as_i64(&t), Some(42));
        assert_eq!(typed.as_f64(&t), Some(42.0));
        let s = Const::Str(t.intern("42"));
        assert_eq!(s.as_f64(&t), None, "plain strings are not numeric");
    }

    #[test]
    fn display_forms() {
        let t = SymbolTable::new();
        let iri = Const::Iri(t.intern("http://a"));
        assert_eq!(iri.display(&t), "<http://a>");
        let id = Const::skolem(t.intern("f1"), vec![Const::Int(7)]);
        assert_eq!(id.display(&t), "[f1|7]");
        assert_eq!(Const::Null.display(&t), "null");
    }

    fn sample_consts(t: &SymbolTable) -> Vec<Const> {
        let f = t.intern("f");
        let g = t.intern("g");
        let nested = Const::skolem(
            g,
            vec![
                Const::skolem(f, vec![Const::Int(1), Const::Null]),
                Const::Float(OrdF64(2.5)),
            ],
        );
        vec![
            Const::Null,
            Const::Bool(true),
            Const::Bool(false),
            Const::Int(0),
            Const::Int(-1),
            Const::Int(i64::MAX),
            Const::Int(i64::MIN),
            Const::Int(INT_MAX_INLINE),
            Const::Int(INT_MAX_INLINE + 1),
            Const::Int(INT_MIN_INLINE),
            Const::Int(INT_MIN_INLINE - 1),
            Const::Float(OrdF64(0.0)),
            Const::Float(OrdF64(-0.0)),
            Const::Float(OrdF64(2.5)),
            Const::Float(OrdF64(f64::NAN)),
            Const::Float(OrdF64(1.0 / 3.0)),
            Const::Iri(t.intern("http://a")),
            Const::Bnode(t.intern("b0")),
            Const::Str(t.intern("hello")),
            Const::LangStr(t.intern("chat"), t.intern("fr")),
            Const::Typed(
                t.intern("5"),
                t.intern("http://www.w3.org/2001/XMLSchema#integer"),
            ),
            Const::skolem(f, vec![]),
            Const::skolem(f, vec![Const::Int(1), Const::Null]),
            nested,
        ]
    }

    #[test]
    fn dict_roundtrips_every_variant() {
        let t = SymbolTable::new();
        let dict = TermDict::new();
        for c in sample_consts(&t) {
            let id = dict.encode(&c);
            assert_eq!(dict.decode(id), c, "{c:?} (id {:#x})", id.raw());
        }
    }

    #[test]
    fn dict_encoding_is_canonical() {
        let t = SymbolTable::new();
        let dict = TermDict::new();
        let consts = sample_consts(&t);
        let ids: Vec<TermId> = consts.iter().map(|c| dict.encode(c)).collect();
        for (i, a) in consts.iter().enumerate() {
            // Deterministic: re-encoding yields the same id.
            assert_eq!(dict.encode(a), ids[i], "{a:?}");
            for (j, b) in consts.iter().enumerate() {
                assert_eq!(ids[i] == ids[j], a == b, "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn dict_skolem_interning_is_by_identity() {
        let t = SymbolTable::new();
        let dict = TermDict::new();
        let f = t.intern("f");
        let one = dict.encode(&Const::Int(1));
        let a = dict.skolem(f, &[one, TermId::NULL]);
        let b = dict.skolem(f, &[one, TermId::NULL]);
        let c = dict.skolem(f, &[one]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.is_skolem());
        // Matches the structural encoding route.
        let structural = dict.encode(&Const::skolem(f, vec![Const::Int(1), Const::Null]));
        assert_eq!(a, structural);
    }

    #[test]
    fn dict_skolem_depth_is_precomputed() {
        let t = SymbolTable::new();
        let dict = TermDict::new();
        let f = t.intern("f");
        let flat = dict.skolem(f, &[dict.encode(&Const::Int(1))]);
        assert_eq!(dict.skolem_depth(flat), 1);
        let nested = dict.skolem(f, &[flat, dict.encode(&Const::Int(2))]);
        assert_eq!(dict.skolem_depth(nested), 2);
        let deeper = dict.skolem(f, &[nested]);
        assert_eq!(dict.skolem_depth(deeper), 3);
        assert_eq!(dict.skolem_depth(dict.encode(&Const::Int(5))), 0);
        assert_eq!(dict.skolem_depth(TermId::NULL), 0);
    }

    #[test]
    fn concurrent_interning_is_canonical() {
        // Hammer the sharded spill/Skolem tables from many threads: every
        // thread must agree on the id of every term (canonical encoding),
        // including nested Skolems whose args land in different shards.
        let t = SymbolTable::new();
        let dict = TermDict::new();
        let consts: Vec<Const> = sample_consts(&t);
        let per_thread: Vec<Vec<TermId>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|k| {
                    let dict = dict.clone();
                    let t = t.clone();
                    let consts = &consts;
                    s.spawn(move || {
                        let mut ids = Vec::new();
                        for round in 0..50 {
                            for (i, c) in consts.iter().enumerate() {
                                let id = dict.encode(c);
                                if (i + round + k) % 3 == 0 {
                                    // Interleave some fresh nested Skolems.
                                    let f = t.intern("conc");
                                    dict.skolem(f, &[id, TermId::NULL]);
                                }
                                if round == 0 {
                                    ids.push(id);
                                }
                            }
                        }
                        ids
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for ids in &per_thread {
            assert_eq!(ids, &per_thread[0], "all threads agree on every id");
        }
        for (c, &id) in consts.iter().zip(&per_thread[0]) {
            assert_eq!(dict.decode(id), *c);
        }
    }

    #[test]
    fn null_id_is_fixed() {
        let dict = TermDict::new();
        assert_eq!(dict.encode(&Const::Null), TermId::NULL);
        assert!(TermId::NULL.is_null());
        assert!(!dict.encode(&Const::Bool(false)).is_null());
    }
}
