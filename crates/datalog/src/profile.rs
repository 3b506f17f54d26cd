//! `EXPLAIN ANALYZE`-style per-query profiling of the semi-naive
//! fixpoint.
//!
//! Armed via [`EvalOptions::profile`](crate::EvalOptions::profile), the
//! evaluator records per-rule timings, per-round delta sizes and
//! stratum wall times into a [`QueryProfile`] returned on
//! [`EvalStats::profile`](crate::EvalStats::profile). The unprofiled
//! path pays nothing: every recording site is behind the flag, and the
//! builder only allocates when profiling is armed.
//!
//! The profile renders two ways: [`QueryProfile::render`] is the
//! human-readable breakdown (the shape of the source paper's per-query
//! timing tables), [`QueryProfile::to_json`] the machine-readable
//! sidecar the HTTP layer ships when a request asks for
//! `profile=true`.

use std::time::Duration;

use crate::rule::Program;
use crate::symbols::SymbolTable;

/// One rule's aggregate cost across every pass that evaluated it.
#[derive(Debug, Clone)]
pub struct RuleProfile {
    /// The rule, rendered in Datalog text form.
    pub rule: String,
    /// Evaluation jobs run for this rule (naive pass + delta variants +
    /// partitions).
    pub jobs: u64,
    /// Head-candidate rows staged by this rule's bodies (before dedup).
    pub staged: u64,
    /// Rows this rule actually contributed (after dedup).
    pub derived: u64,
    /// Join probes across this rule's jobs, counted like
    /// [`EvalStats::probes`](crate::EvalStats::probes).
    pub probes: u64,
    /// Wall time summed across this rule's jobs. Jobs run concurrently,
    /// so rule times can sum to more than the query's wall time.
    pub elapsed: Duration,
}

/// One semi-naive round of a stratum. Round 0 is the naive first pass
/// (its "delta" is the whole database, reported as 0 input rows).
#[derive(Debug, Clone)]
pub struct RoundProfile {
    /// Round number within the stratum (0 = naive pass).
    pub round: usize,
    /// Rows in the input delta batches driving this round.
    pub delta_rows: usize,
    /// Head-candidate rows staged by this round (before dedup).
    pub staged: usize,
    /// Fresh rows this round added (after dedup) — the next round's
    /// delta.
    pub derived: usize,
    /// Wall time of the round (jobs + sequential merge).
    pub elapsed: Duration,
}

/// One stratum of the evaluation.
#[derive(Debug, Clone)]
pub struct StratumProfile {
    /// Stratum index in evaluation order.
    pub stratum: usize,
    /// The naive pass and every semi-naive round, in order.
    pub rounds: Vec<RoundProfile>,
    /// Wall time of the stratum, including plan compilation, index
    /// builds and aggregate rules.
    pub elapsed: Duration,
}

/// The full profile of one evaluation, attached to
/// [`EvalStats::profile`](crate::EvalStats::profile) when
/// [`EvalOptions::profile`](crate::EvalOptions::profile) is set.
#[derive(Debug, Clone, Default)]
pub struct QueryProfile {
    /// Per-rule cost, indexed like `program.rules`. Rules that never
    /// staged a row still appear (with zero counts) so the shape matches
    /// the program.
    pub rules: Vec<RuleProfile>,
    /// Per-stratum breakdown with per-round delta sizes.
    pub strata: Vec<StratumProfile>,
    /// Hash-join indexes built up front for this evaluation (the build
    /// sides the planner requested that did not already exist).
    pub index_builds: usize,
    /// Total evaluation wall time.
    pub elapsed: Duration,
}

impl QueryProfile {
    /// Human-readable `EXPLAIN ANALYZE`-style rendering: strata with
    /// per-round delta sizes, then rules by descending self time.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "evaluation: {:.3} ms, {} strata, {} index build(s)\n",
            self.elapsed.as_secs_f64() * 1e3,
            self.strata.len(),
            self.index_builds
        ));
        for s in &self.strata {
            out.push_str(&format!(
                "stratum {}: {:.3} ms, {} round(s)\n",
                s.stratum,
                s.elapsed.as_secs_f64() * 1e3,
                s.rounds.len().saturating_sub(1)
            ));
            for r in &s.rounds {
                let label = if r.round == 0 {
                    "naive".to_string()
                } else {
                    format!("round {}", r.round)
                };
                out.push_str(&format!(
                    "  {label}: delta={} staged={} derived={} ({:.3} ms)\n",
                    r.delta_rows,
                    r.staged,
                    r.derived,
                    r.elapsed.as_secs_f64() * 1e3
                ));
            }
        }
        let mut by_time: Vec<&RuleProfile> = self.rules.iter().filter(|r| r.jobs > 0).collect();
        by_time.sort_by_key(|r| std::cmp::Reverse(r.elapsed));
        for r in by_time {
            out.push_str(&format!(
                "rule [{:.3} ms, {} job(s), staged={} derived={} probes={}] {}\n",
                r.elapsed.as_secs_f64() * 1e3,
                r.jobs,
                r.staged,
                r.derived,
                r.probes,
                r.rule
            ));
        }
        out
    }

    /// Compact JSON rendering (durations in microseconds) — the HTTP
    /// sidecar format. Hand-rolled like the rest of the workspace's
    /// JSON; rule texts are string-escaped.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!("\"elapsed_us\":{}", self.elapsed.as_micros()));
        out.push_str(&format!(",\"index_builds\":{}", self.index_builds));
        out.push_str(",\"strata\":[");
        for (i, s) in self.strata.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"stratum\":{},\"elapsed_us\":{},\"rounds\":[",
                s.stratum,
                s.elapsed.as_micros()
            ));
            for (j, r) in s.rounds.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"round\":{},\"delta_rows\":{},\"staged\":{},\"derived\":{},\"elapsed_us\":{}}}",
                    r.round,
                    r.delta_rows,
                    r.staged,
                    r.derived,
                    r.elapsed.as_micros()
                ));
            }
            out.push_str("]}");
        }
        out.push_str("],\"rules\":[");
        let mut first = true;
        for r in self.rules.iter().filter(|r| r.jobs > 0) {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "{{\"rule\":\"{}\",\"jobs\":{},\"staged\":{},\"derived\":{},\"elapsed_us\":{}}}",
                escape_json(&r.rule),
                r.jobs,
                r.staged,
                r.derived,
                r.elapsed.as_micros()
            ));
        }
        out.push_str("]}");
        out
    }
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Accumulates profile records during evaluation. Created only when
/// [`EvalOptions::profile`](crate::EvalOptions::profile) is armed.
#[derive(Debug)]
pub(crate) struct ProfileBuilder {
    profile: QueryProfile,
}

impl ProfileBuilder {
    pub(crate) fn new(program: &Program, symbols: &SymbolTable) -> Self {
        ProfileBuilder {
            profile: QueryProfile {
                rules: program
                    .rules
                    .iter()
                    .map(|r| RuleProfile {
                        rule: r.display(symbols),
                        jobs: 0,
                        staged: 0,
                        derived: 0,
                        probes: 0,
                        elapsed: Duration::ZERO,
                    })
                    .collect(),
                ..QueryProfile::default()
            },
        }
    }

    /// One finished job of `rule_idx`: `staged` candidates from
    /// `probes` join probes in `nanos` wall time, of which `derived`
    /// survived the merge.
    pub(crate) fn record_job(
        &mut self,
        rule_idx: usize,
        staged: usize,
        derived: usize,
        nanos: u64,
        probes: u64,
    ) {
        if let Some(r) = self.profile.rules.get_mut(rule_idx) {
            r.jobs += 1;
            r.staged += staged as u64;
            r.derived += derived as u64;
            r.probes += probes;
            r.elapsed += Duration::from_nanos(nanos);
        }
    }

    pub(crate) fn record_round(&mut self, round: RoundProfile) {
        if let Some(s) = self.profile.strata.last_mut() {
            s.rounds.push(round);
        }
    }

    pub(crate) fn begin_stratum(&mut self, stratum: usize) {
        self.profile.strata.push(StratumProfile {
            stratum,
            rounds: Vec::new(),
            elapsed: Duration::ZERO,
        });
    }

    pub(crate) fn end_stratum(&mut self, elapsed: Duration) {
        if let Some(s) = self.profile.strata.last_mut() {
            s.elapsed = elapsed;
        }
    }

    pub(crate) fn record_index_builds(&mut self, built: usize) {
        self.profile.index_builds += built;
    }

    pub(crate) fn finish(mut self, elapsed: Duration) -> QueryProfile {
        self.profile.elapsed = elapsed;
        self.profile
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_rule_text() {
        let p = QueryProfile {
            rules: vec![RuleProfile {
                rule: "p(X) :- q(X, \"a\\b\")".to_string(),
                jobs: 1,
                staged: 2,
                derived: 1,
                probes: 3,
                elapsed: Duration::from_micros(5),
            }],
            strata: vec![StratumProfile {
                stratum: 0,
                rounds: vec![RoundProfile {
                    round: 0,
                    delta_rows: 0,
                    staged: 2,
                    derived: 1,
                    elapsed: Duration::from_micros(4),
                }],
                elapsed: Duration::from_micros(5),
            }],
            index_builds: 1,
            elapsed: Duration::from_micros(6),
        };
        let json = p.to_json();
        assert!(json.contains("\\\"a\\\\b\\\""));
        assert!(json.contains("\"delta_rows\":0"));
        assert!(json.contains("\"index_builds\":1"));
        let text = p.render();
        assert!(text.contains("stratum 0"));
        assert!(text.contains("naive: delta=0 staged=2 derived=1"));
    }
}
