//! Property-based tests of the Datalog± engine: the semi-naive fixpoint
//! against brute-force oracles on random inputs (in-tree deterministic
//! case generation — the workspace builds offline, without proptest).

use sparqlog_datalog::{
    evaluate, parser::parse_program, Const, Database, EvalOptions, OrdF64, SymbolTable, TermDict,
};

/// The decoded tuples of relation `pred`.
fn tuples(db: &Database, pred: &str) -> Vec<Vec<Const>> {
    let rel = db.relation(db.symbols().get(pred).unwrap());
    (rel.into_iter())
        .flat_map(|r| r.iter().map(|t| db.decode_tuple(t)))
        .collect()
}

/// Deterministic SplitMix64 case generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..hi`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo)
    }
}

const CASES: u64 = 64;

/// Brute-force transitive closure by repeated squaring over a set.
fn tc_oracle(edges: &[(u8, u8)]) -> std::collections::BTreeSet<(u8, u8)> {
    let mut closure: std::collections::BTreeSet<(u8, u8)> = edges.iter().copied().collect();
    loop {
        let mut added = false;
        let snapshot: Vec<(u8, u8)> = closure.iter().copied().collect();
        for &(x, y) in &snapshot {
            for &(y2, z) in &snapshot {
                if y == y2 && closure.insert((x, z)) {
                    added = true;
                }
            }
        }
        if !added {
            return closure;
        }
    }
}

fn random_pairs(rng: &mut Rng, max: u64, min_len: u64, max_len: u64) -> Vec<(u8, u8)> {
    let len = rng.range(min_len, max_len);
    (0..len)
        .map(|_| (rng.range(0, max) as u8, rng.range(0, max) as u8))
        .collect()
}

fn random_set(rng: &mut Rng, max: u64, max_len: u64) -> std::collections::BTreeSet<u8> {
    let len = rng.range(0, max_len);
    (0..len).map(|_| rng.range(0, max) as u8).collect()
}

/// Recursive fixpoint == brute-force closure on random graphs
/// (including cycles and self-loops).
#[test]
fn transitive_closure_matches_oracle() {
    let mut rng = Rng(0x7c01);
    for case in 0..CASES {
        let edges = random_pairs(&mut rng, 12, 1, 40);
        let mut src = String::new();
        for (x, y) in &edges {
            src.push_str(&format!("edge({x}, {y}).\n"));
        }
        src.push_str(
            "tc(X, Y) :- edge(X, Y).\ntc(X, Z) :- edge(X, Y), tc(Y, Z).\n@output(\"tc\").\n",
        );
        let mut db = Database::new();
        let prog = parse_program(&src, db.symbols()).unwrap();
        evaluate(&prog, &mut db, &EvalOptions::default()).unwrap();
        let got: std::collections::BTreeSet<(u8, u8)> = tuples(&db, "tc")
            .into_iter()
            .map(|t| {
                let x = match t[0] {
                    Const::Int(i) => i as u8,
                    _ => panic!(),
                };
                let y = match t[1] {
                    Const::Int(i) => i as u8,
                    _ => panic!(),
                };
                (x, y)
            })
            .collect();
        assert_eq!(got, tc_oracle(&edges), "case {case}: {edges:?}");
    }
}

/// Stratified negation == set difference.
#[test]
fn negation_matches_set_difference() {
    let mut rng = Rng(0x0e6a);
    for case in 0..CASES {
        let a = random_set(&mut rng, 30, 20);
        let b = random_set(&mut rng, 30, 20);
        let mut src = String::new();
        for x in &a {
            src.push_str(&format!("a({x}).\n"));
        }
        for x in &b {
            src.push_str(&format!("b({x}).\n"));
        }
        src.push_str("diff(X) :- a(X), not b(X).\n@output(\"diff\").\n");
        let mut db = Database::new();
        let prog = parse_program(&src, db.symbols()).unwrap();
        evaluate(&prog, &mut db, &EvalOptions::default()).unwrap();
        let got: std::collections::BTreeSet<u8> = tuples(&db, "diff")
            .into_iter()
            .map(|t| match t[0] {
                Const::Int(i) => i as u8,
                _ => panic!(),
            })
            .collect();
        let want: std::collections::BTreeSet<u8> = a.difference(&b).copied().collect();
        assert_eq!(got, want, "case {case}: a={a:?} b={b:?}");
    }
}

/// Join == nested-loop oracle, counting set semantics.
#[test]
fn binary_join_matches_oracle() {
    let mut rng = Rng(0x901f);
    for case in 0..CASES {
        let r: std::collections::BTreeSet<(u8, u8)> =
            random_pairs(&mut rng, 8, 0, 25).into_iter().collect();
        let s_rel: std::collections::BTreeSet<(u8, u8)> =
            random_pairs(&mut rng, 8, 0, 25).into_iter().collect();
        let mut src = String::new();
        for (x, y) in &r {
            src.push_str(&format!("r({x}, {y}).\n"));
        }
        for (x, y) in &s_rel {
            src.push_str(&format!("s({x}, {y}).\n"));
        }
        src.push_str("j(X, Y, Z) :- r(X, Y), s(Y, Z).\n@output(\"j\").\n");
        let mut db = Database::new();
        let prog = parse_program(&src, db.symbols()).unwrap();
        evaluate(&prog, &mut db, &EvalOptions::default()).unwrap();
        let got = tuples(&db, "j").len();
        let want = r
            .iter()
            .flat_map(|&(x, y)| {
                s_rel
                    .iter()
                    .filter(move |&&(y2, _)| y == y2)
                    .map(move |&(_, z)| (x, y, z))
            })
            .collect::<std::collections::BTreeSet<_>>()
            .len();
        assert_eq!(got, want, "case {case}");
    }
}

/// Evaluation is deterministic and idempotent: re-running the program
/// on the already-saturated database derives nothing new.
#[test]
fn fixpoint_is_idempotent() {
    let mut rng = Rng(0x1de0);
    for case in 0..CASES {
        let edges = random_pairs(&mut rng, 10, 1, 30);
        let mut src = String::new();
        for (x, y) in &edges {
            src.push_str(&format!("edge({x}, {y}).\n"));
        }
        src.push_str("p(X, Y) :- edge(X, Y).\np(X, Z) :- edge(X, Y), p(Y, Z).\n@output(\"p\").\n");
        let mut db = Database::new();
        let prog = parse_program(&src, db.symbols()).unwrap();
        evaluate(&prog, &mut db, &EvalOptions::default()).unwrap();
        let first = tuples(&db, "p").len();
        let stats = evaluate(&prog, &mut db, &EvalOptions::default()).unwrap();
        let second = tuples(&db, "p").len();
        assert_eq!(first, second, "case {case}");
        assert_eq!(stats.derived, 0, "case {case}");
    }
}

/// A random constant, with Skolem terms nesting up to `depth` levels —
/// the generator behind the dictionary round-trip property.
fn random_const(rng: &mut Rng, symbols: &SymbolTable, depth: u64) -> Const {
    let variants = if depth == 0 { 9 } else { 10 };
    match rng.range(0, variants) {
        0 => Const::Null,
        1 => Const::Bool(rng.range(0, 2) == 1),
        // Mixes small inline integers with spill-table extremes.
        2 => Const::Int(rng.next() as i64 >> rng.range(0, 64)),
        3 => Const::Float(OrdF64(f64::from_bits(rng.next()))),
        4 => Const::Iri(symbols.intern(&format!("http://n/{}", rng.range(0, 20)))),
        5 => Const::Bnode(symbols.intern(&format!("b{}", rng.range(0, 10)))),
        6 => Const::Str(symbols.intern(&format!("s{}", rng.range(0, 20)))),
        7 => Const::LangStr(
            symbols.intern(&format!("lex{}", rng.range(0, 10))),
            symbols.intern(&format!("lang{}", rng.range(0, 4))),
        ),
        8 => Const::Typed(
            symbols.intern(&format!("lit{}", rng.range(0, 10))),
            symbols.intern(&format!("http://dt/{}", rng.range(0, 4))),
        ),
        _ => {
            let functor = symbols.intern(&format!("f{}", rng.range(0, 3)));
            let nargs = rng.range(0, 4);
            let args = (0..nargs)
                .map(|_| random_const(rng, symbols, depth - 1))
                .collect();
            Const::skolem(functor, args)
        }
    }
}

/// The dictionary is lossless and canonical on random constants of every
/// variant, including nested Skolem terms: `decode(encode(t)) == t`,
/// re-encoding is stable, and id equality coincides with structural
/// equality.
#[test]
fn dict_roundtrip_random_consts() {
    let symbols = SymbolTable::new();
    let dict = TermDict::new();
    let mut rng = Rng(0xd1c7);
    let mut pool: Vec<(Const, sparqlog_datalog::TermId)> = Vec::new();
    for case in 0..2_000u64 {
        let c = random_const(&mut rng, &symbols, 3);
        let id = dict.encode(&c);
        assert_eq!(dict.decode(id), c, "case {case}: {c:?}");
        assert_eq!(
            dict.encode(&c),
            id,
            "case {case}: unstable encoding of {c:?}"
        );
        // Id equality == structural equality against a sample of
        // previously seen terms.
        for (d, did) in pool.iter().take(40) {
            assert_eq!(*did == id, *d == c, "{d:?} vs {c:?}");
        }
        pool.push((c, id));
    }
}

/// Skolem tuple IDs count derivations: projecting q(X, Y) onto X under
/// bag semantics yields one ID per (X, Y) pair.
#[test]
fn skolem_ids_count_derivations() {
    let mut rng = Rng(0x5c03);
    for case in 0..CASES {
        let pairs: std::collections::BTreeSet<(u8, u8)> =
            random_pairs(&mut rng, 6, 1, 20).into_iter().collect();
        let mut src = String::new();
        for (x, y) in &pairs {
            src.push_str(&format!("q({x}, {y}).\n"));
        }
        src.push_str("p(I, X) :- q(X, Y), I = skolem(\"f\", X, Y).\n@output(\"p\").\n");
        let mut db = Database::new();
        let prog = parse_program(&src, db.symbols()).unwrap();
        evaluate(&prog, &mut db, &EvalOptions::default()).unwrap();
        let got = tuples(&db, "p").len();
        assert_eq!(got, pairs.len(), "case {case}");
    }
}
