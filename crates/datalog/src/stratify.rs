//! Stratification of programs with negation and aggregation.
//!
//! The SPARQL translation only produces *stratified* negation: the negated
//! auxiliary predicates (`ans_opt_i`, `ans_equal_i`, `ans_ask_i`) are
//! always defined from strictly earlier subpatterns of the parse tree. The
//! stratifier verifies this structurally: negative (and aggregate) edges
//! must not occur on a cycle of the predicate dependency graph.
//!
//! Algorithm: Bellman-Ford-style relaxation of stratum numbers. `head ≥
//! body` for positive edges, `head ≥ body + 1` for negative/aggregate
//! edges. If a stratum exceeds the number of IDB predicates, negation is
//! cyclic and an error is reported.

use crate::fxhash::FxHashMap;
use crate::rule::{BodyItem, Program};
use crate::symbols::{Sym, SymbolTable};

/// A stratification error (cyclic negation or aggregation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StratifyError(pub String);

impl std::fmt::Display for StratifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "stratification error: {}", self.0)
    }
}

impl std::error::Error for StratifyError {}

/// The result: rule indices grouped by stratum, in evaluation order,
/// plus the per-rule read/write sets the evaluator uses to justify
/// running a stratum round's rules against one snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stratification {
    /// `strata[s]` = the indices (into `program.rules`) evaluated in
    /// stratum `s`.
    pub strata: Vec<Vec<usize>>,
    /// Stratum of each IDB predicate.
    pub pred_stratum: FxHashMap<Sym, usize>,
    /// `rule_reads[r]` = predicates rule `r`'s body consults.
    pub rule_reads: Vec<Vec<Sym>>,
    /// `rule_writes[r]` = the predicate rule `r` derives into.
    pub rule_writes: Vec<Sym>,
}

impl Stratification {
    /// The write set of a stratum: the predicates derived by its rules —
    /// the predicates whose deltas drive that stratum's semi-naive
    /// rounds.
    pub fn stratum_writes(&self, stratum: &[usize]) -> Vec<Sym> {
        let mut out = Vec::new();
        for &ri in stratum {
            let w = self.rule_writes[ri];
            if !out.contains(&w) {
                out.push(w);
            }
        }
        out
    }

    /// Proof obligation of the snapshot pass: rules evaluated in one pass
    /// are pairwise independent — no rule's *negated* or aggregated reads
    /// overlap the pass's write set (guaranteed by stratification), so
    /// evaluating every rule against the snapshot the pass found, then
    /// merging, is equivalent to any serial order. Returns `false` if the invariant is violated (which would
    /// be a stratifier bug).
    pub fn pass_is_independent(&self, stratum: &[usize], program: &crate::rule::Program) -> bool {
        let writes = self.stratum_writes(stratum);
        stratum.iter().all(|&ri| {
            program.rules[ri].body.iter().all(
                |item| !matches!(item, crate::rule::BodyItem::Neg(a) if writes.contains(&a.pred)),
            ) && (program.rules[ri].aggregate.is_none()
                || self.rule_reads[ri].iter().all(|p| !writes.contains(p)))
        })
    }
}

/// Computes a stratification, or reports cyclic negation/aggregation.
pub fn stratify(program: &Program, symbols: &SymbolTable) -> Result<Stratification, StratifyError> {
    let idb: Vec<Sym> = program.idb_predicates();
    let mut stratum: FxHashMap<Sym, usize> = idb.iter().map(|&p| (p, 0usize)).collect();
    let limit = idb.len() + 1;

    let mut changed = true;
    while changed {
        changed = false;
        for rule in &program.rules {
            let head = rule.head.pred;
            let head_stratum = *stratum.get(&head).unwrap_or(&0);
            let mut required = head_stratum;
            // Aggregate rules must see their (positive) body predicates
            // complete: treat every body edge as a negative edge.
            let aggregated = rule.aggregate.is_some();
            for item in &rule.body {
                match item {
                    BodyItem::Pos(a) => {
                        if let Some(&s) = stratum.get(&a.pred) {
                            let need = if aggregated { s + 1 } else { s };
                            required = required.max(need);
                        }
                    }
                    BodyItem::Neg(a) => {
                        if let Some(&s) = stratum.get(&a.pred) {
                            required = required.max(s + 1);
                        }
                    }
                    _ => {}
                }
            }
            if required > head_stratum {
                if required >= limit {
                    return Err(StratifyError(format!(
                        "predicate {} participates in a cycle through negation or aggregation",
                        symbols.resolve(head)
                    )));
                }
                stratum.insert(head, required);
                changed = true;
            }
        }
    }

    let max_stratum = stratum.values().copied().max().unwrap_or(0);
    let mut strata: Vec<Vec<usize>> = vec![Vec::new(); max_stratum + 1];
    for (i, rule) in program.rules.iter().enumerate() {
        strata[stratum[&rule.head.pred]].push(i);
    }
    let rule_reads = program.rules.iter().map(|r| r.read_preds()).collect();
    let rule_writes = program.rules.iter().map(|r| r.write_pred()).collect();
    Ok(Stratification {
        strata,
        pred_stratum: stratum,
        rule_reads,
        rule_writes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::RuleBuilder;
    use crate::symbols::SymbolTable;

    /// Builds `head(X) :- pos..., not neg...` over unary predicates.
    fn rule(symbols: &SymbolTable, head: &str, pos: &[&str], neg: &[&str]) -> crate::rule::Rule {
        let mut b = RuleBuilder::new();
        let hx = b.v("X");
        b.head(symbols.intern(head), vec![hx]);
        for p in pos {
            let x = b.v("X");
            b.pos(symbols.intern(p), vec![x]);
        }
        for n in neg {
            let x = b.v("X");
            b.neg(symbols.intern(n), vec![x]);
        }
        b.build()
    }

    #[test]
    fn positive_recursion_is_one_stratum() {
        let t = SymbolTable::new();
        let mut prog = Program::new();
        prog.rules.push(rule(&t, "tc", &["edge"], &[]));
        prog.rules.push(rule(&t, "tc", &["edge", "tc"], &[]));
        let s = stratify(&prog, &t).unwrap();
        assert_eq!(s.strata.len(), 1);
        assert_eq!(s.strata[0], vec![0, 1]);
    }

    #[test]
    fn negation_pushes_to_later_stratum() {
        let t = SymbolTable::new();
        let mut prog = Program::new();
        prog.rules.push(rule(&t, "p", &["base"], &[]));
        prog.rules.push(rule(&t, "q", &["base"], &["p"]));
        prog.rules.push(rule(&t, "r", &["q"], &[]));
        let s = stratify(&prog, &t).unwrap();
        assert_eq!(s.pred_stratum[&t.intern("p")], 0);
        assert_eq!(s.pred_stratum[&t.intern("q")], 1);
        assert_eq!(s.pred_stratum[&t.intern("r")], 1);
        assert_eq!(s.strata.len(), 2);
    }

    #[test]
    fn cyclic_negation_is_rejected() {
        let t = SymbolTable::new();
        let mut prog = Program::new();
        prog.rules.push(rule(&t, "p", &[], &["q"]));
        prog.rules.push(rule(&t, "q", &[], &["p"]));
        let err = stratify(&prog, &t).unwrap_err();
        assert!(err.0.contains("cycle"));
    }

    #[test]
    fn self_negation_is_rejected() {
        let t = SymbolTable::new();
        let mut prog = Program::new();
        prog.rules.push(rule(&t, "p", &["base"], &["p"]));
        assert!(stratify(&prog, &t).is_err());
    }

    #[test]
    fn negation_through_positive_chain_is_layered() {
        let t = SymbolTable::new();
        let mut prog = Program::new();
        prog.rules.push(rule(&t, "a", &["edb"], &[]));
        prog.rules.push(rule(&t, "b", &["a"], &[]));
        prog.rules.push(rule(&t, "c", &["edb"], &["b"]));
        prog.rules.push(rule(&t, "d", &["c"], &["a"]));
        let s = stratify(&prog, &t).unwrap();
        assert_eq!(s.pred_stratum[&t.intern("a")], 0);
        assert_eq!(s.pred_stratum[&t.intern("b")], 0);
        assert_eq!(s.pred_stratum[&t.intern("c")], 1);
        assert_eq!(s.pred_stratum[&t.intern("d")], 1);
    }

    #[test]
    fn aggregate_rule_is_layered_like_negation() {
        use crate::rule::{AggFunc, AggSpec};
        let t = SymbolTable::new();
        let mut prog = Program::new();
        prog.rules.push(rule(&t, "p", &["edb"], &[]));
        // count(X) over p into cnt
        let mut b = RuleBuilder::new();
        let (hx, hc) = (b.v("X"), b.v("C"));
        b.head(t.intern("cnt"), vec![hx, hc]);
        let bx = b.v("X");
        b.pos(t.intern("p"), vec![bx]);
        let result_var = b.var("C");
        b.aggregate(AggSpec {
            func: AggFunc::Count,
            distinct: false,
            input: None,
            result_var,
        });
        prog.rules.push(b.build());
        let s = stratify(&prog, &t).unwrap();
        assert_eq!(s.pred_stratum[&t.intern("p")], 0);
        assert_eq!(s.pred_stratum[&t.intern("cnt")], 1);
    }

    #[test]
    fn read_write_sets_and_pass_independence() {
        let t = SymbolTable::new();
        let mut prog = Program::new();
        prog.rules.push(rule(&t, "tc", &["edge"], &[]));
        prog.rules.push(rule(&t, "tc", &["edge", "tc"], &[]));
        prog.rules.push(rule(&t, "q", &["tc"], &["tc"]));
        let s = stratify(&prog, &t).unwrap();
        assert_eq!(
            s.rule_writes,
            vec![t.intern("tc"), t.intern("tc"), t.intern("q")]
        );
        assert_eq!(s.rule_reads[1], vec![t.intern("edge"), t.intern("tc")]);
        assert_eq!(s.stratum_writes(&s.strata[0]), vec![t.intern("tc")]);
        // Every stratum the stratifier produces must satisfy the snapshot
        // pass's independence invariant: negated reads never overlap
        // the stratum's writes.
        for st in &s.strata {
            assert!(s.pass_is_independent(st, &prog));
        }
        // A hand-built (invalid) stratum mixing rule 2 with the tc rules
        // violates it: rule 2 negates tc, which the stratum writes.
        assert!(!s.pass_is_independent(&[0, 1, 2], &prog));
    }

    #[test]
    fn edb_only_program_is_single_stratum() {
        let t = SymbolTable::new();
        let mut prog = Program::new();
        prog.rules.push(rule(&t, "p", &["edb1", "edb2"], &[]));
        let s = stratify(&prog, &t).unwrap();
        assert_eq!(s.strata.len(), 1);
    }
}
