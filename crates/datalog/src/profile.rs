//! The evaluation's record and its `EXPLAIN ANALYZE`-style rendering.
//!
//! Every evaluation records the same breakdown into its
//! [`EvalStats`](crate::EvalStats): per rule its jobs, staged and
//! derived rows, join probes and wall time ([`RuleProfile`]), per stratum
//! and round the delta sizes and wall times ([`StratumProfile`],
//! [`RoundProfile`]), and the index builds. It costs per job, never per
//! row: two `Instant` reads and one record update per job, one entry per
//! round and stratum. A [`QueryProfile`] is that record plus the rule
//! texts, built only where a caller asks for a profile
//! (`Snapshot::execute_profiled`): the evaluator renders no rule.
//!
//! The profile renders two ways: [`QueryProfile::render`] is the
//! human-readable breakdown (the shape of the source paper's per-query
//! timing tables), [`QueryProfile::to_json`] the machine-readable
//! sidecar the HTTP layer ships when a request asks for
//! `profile=true`.

use std::time::Duration;

/// One rule's aggregate cost across every pass that evaluated it.
#[derive(Debug, Clone, Default)]
pub struct RuleProfile {
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
    /// Wall time summed across this rule's jobs.
    pub elapsed: Duration,
}

impl RuleProfile {
    /// Adds one finished job: `staged` candidates from `probes` join
    /// probes in `elapsed`, of which `derived` survived the merge.
    pub(crate) fn record(&mut self, staged: usize, derived: usize, probes: u64, elapsed: Duration) {
        self.jobs += 1;
        self.staged += staged as u64;
        self.derived += derived as u64;
        self.probes += probes;
        self.elapsed += elapsed;
    }
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
    /// The naive pass and every semi-naive round, in order. A seeded run
    /// has no naive pass.
    pub rounds: Vec<RoundProfile>,
    /// Wall time of the stratum, including plan compilation, index
    /// builds and aggregate rules.
    pub elapsed: Duration,
}

/// The profile of one evaluation: its [`EvalStats`](crate::EvalStats)
/// record plus the rule texts the renderings name.
#[derive(Debug, Clone, Default)]
pub struct QueryProfile {
    /// Per-rule cost, indexed like `program.rules`
    /// ([`EvalStats::rules`](crate::EvalStats::rules)).
    pub rules: Vec<RuleProfile>,
    /// The rule texts in Datalog form, indexed like `rules`.
    pub rule_texts: Vec<String>,
    /// Per-stratum breakdown with per-round delta sizes.
    pub strata: Vec<StratumProfile>,
    /// Hash-join indexes this evaluation's probes built
    /// ([`EvalStats::index_builds`](crate::EvalStats::index_builds)).
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
        for (i, s) in self.strata.iter().enumerate() {
            out.push_str(&format!(
                "stratum {i}: {:.3} ms, {} round(s)\n",
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
        let mut by_time: Vec<_> = self.ran().collect();
        by_time.sort_by_key(|(r, _)| std::cmp::Reverse(r.elapsed));
        for (r, text) in by_time {
            out.push_str(&format!(
                "rule [{:.3} ms, {} job(s), staged={} derived={} probes={}] {text}\n",
                r.elapsed.as_secs_f64() * 1e3,
                r.jobs,
                r.staged,
                r.derived,
                r.probes,
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
                "{{\"stratum\":{i},\"elapsed_us\":{},\"rounds\":[",
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
        for (r, text) in self.ran() {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "{{\"rule\":\"{}\",\"jobs\":{},\"staged\":{},\"derived\":{},\"elapsed_us\":{}}}",
                escape_json(text),
                r.jobs,
                r.staged,
                r.derived,
                r.elapsed.as_micros()
            ));
        }
        out.push_str("]}");
        out
    }

    /// The rules that ran a job, with their texts.
    fn ran(&self) -> impl Iterator<Item = (&RuleProfile, &String)> {
        self.rules
            .iter()
            .zip(&self.rule_texts)
            .filter(|(r, _)| r.jobs > 0)
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_rule_text() {
        let p = QueryProfile {
            rules: vec![RuleProfile {
                jobs: 1,
                staged: 2,
                derived: 1,
                probes: 3,
                elapsed: Duration::from_micros(5),
            }],
            rule_texts: vec!["p(X) :- q(X, \"a\\b\")".to_string()],
            strata: vec![StratumProfile {
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
