//! The error type of every query, load and update entry point.

use std::time::Duration;

use sparqlog_datalog::{AbortReason, EvalError};
use sparqlog_sparql::ParseError;

use crate::query_translation::TranslationError;

/// Errors surfaced by [`Store`](crate::Store) and its snapshots.
#[derive(Debug, Clone, PartialEq)]
pub enum SparqLogError {
    /// The query string could not be parsed.
    Parse(ParseError),
    /// The query parses but uses features outside the translation.
    Translation(TranslationError),
    /// Datalog evaluation failed (unsafe rule, stratification, ...).
    Eval(EvalError),
    /// The execution governor stopped the query: a
    /// [`Budget`](crate::Budget) limit was crossed or the query's
    /// [`CancelToken`](crate::CancelToken) fired. The query did not
    /// complete; no partial results are returned, and the store is
    /// unaffected.
    Aborted {
        /// Which limit tripped.
        reason: AbortReason,
        /// Wall-clock time spent in evaluation when the abort was
        /// observed.
        elapsed: Duration,
        /// How far execution got: rows derived so far (merged rows plus
        /// staged, not-yet-deduplicated candidates). Compare against the
        /// budget's row cap to judge whether the query was close to
        /// finishing or running away.
        rows_derived: usize,
    },
    /// Data loading failed.
    Data(String),
    /// A SPARQL *Update* string was passed to a read-only entry point —
    /// a query method of [`Store`](crate::Store) or a
    /// [`Snapshot`](crate::Snapshot). Carries the update keyword that was
    /// recognised; route the request through
    /// [`Store::update`](crate::Store::update) or a
    /// [`Store::writer`](crate::Store::writer) session instead.
    ReadOnly(&'static str),
    /// A [`PreparedQuery`](crate::PreparedQuery) was executed against a
    /// store other than the one that prepared it. Translated programs
    /// are tied to their store's symbol table; re-prepare on the target
    /// store.
    ForeignPrepared,
}

impl SparqLogError {
    /// True when the failure is an explicitly unsupported SPARQL feature
    /// (the paper's compliance tables report these separately from
    /// errors).
    pub fn is_unsupported(&self) -> bool {
        match self {
            SparqLogError::Parse(e) => e.unsupported,
            SparqLogError::Translation(e) => e.unsupported,
            _ => false,
        }
    }

    /// The name of the unsupported SPARQL feature, when
    /// [`Self::is_unsupported`] — carried structurally (from
    /// `ParseError::feature` / `TranslationError::feature`) so callers
    /// can branch on the feature instead of string-matching messages:
    ///
    /// ```
    /// use sparqlog::Store;
    ///
    /// let err = Store::new()
    ///     .execute("SELECT * WHERE { BIND(1 AS ?x) }")
    ///     .unwrap_err();
    /// assert_eq!(err.unsupported_feature(), Some("BIND"));
    /// ```
    pub fn unsupported_feature(&self) -> Option<&str> {
        match self {
            SparqLogError::Parse(e) => e.feature.as_deref(),
            SparqLogError::Translation(e) => e.feature.as_deref(),
            _ => None,
        }
    }

    /// True for evaluation time-outs: governor aborts on a
    /// [`Budget`](crate::Budget) deadline.
    pub fn is_timeout(&self) -> bool {
        matches!(
            self,
            SparqLogError::Aborted {
                reason: AbortReason::Deadline,
                ..
            }
        )
    }

    /// True when the execution governor aborted the query
    /// ([`SparqLogError::Aborted`]), for any reason.
    pub fn is_aborted(&self) -> bool {
        matches!(self, SparqLogError::Aborted { .. })
    }
}

impl std::fmt::Display for SparqLogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SparqLogError::Parse(e) => write!(f, "parse error: {e}"),
            SparqLogError::Translation(e) => write!(f, "translation error: {e}"),
            SparqLogError::Eval(e) => write!(f, "evaluation error: {e}"),
            SparqLogError::Aborted {
                reason,
                elapsed,
                rows_derived,
            } => write!(
                f,
                "query aborted ({reason}) after {elapsed:?} with {rows_derived} rows \
                 derived; raise the budget limit or narrow the query"
            ),
            SparqLogError::Data(e) => write!(f, "data error: {e}"),
            SparqLogError::ReadOnly(kw) => write!(
                f,
                "read-only entry point: {kw} is a SPARQL Update operation; \
                 use Store::update or a Store::writer session"
            ),
            SparqLogError::ForeignPrepared => write!(
                f,
                "prepared query belongs to a different store; re-prepare it \
                 on the store it is executed against"
            ),
        }
    }
}

impl std::error::Error for SparqLogError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SparqLogError::Parse(e) => Some(e),
            SparqLogError::Translation(e) => Some(e),
            SparqLogError::Eval(e) => Some(e),
            SparqLogError::Data(_)
            | SparqLogError::Aborted { .. }
            | SparqLogError::ReadOnly(_)
            | SparqLogError::ForeignPrepared => None,
        }
    }
}

impl From<ParseError> for SparqLogError {
    fn from(e: ParseError) -> Self {
        SparqLogError::Parse(e)
    }
}

impl From<TranslationError> for SparqLogError {
    fn from(e: TranslationError) -> Self {
        SparqLogError::Translation(e)
    }
}

impl From<EvalError> for SparqLogError {
    fn from(e: EvalError) -> Self {
        // Governor aborts are promoted to a top-level variant: they are a
        // policy outcome (limit crossed, cancellation), not an evaluation
        // defect, and callers dispatch on them (retry with a bigger
        // budget, report 408/503, ...).
        match e {
            EvalError::Aborted {
                reason,
                elapsed,
                rows_derived,
            } => SparqLogError::Aborted {
                reason,
                elapsed,
                rows_derived,
            },
            e => SparqLogError::Eval(e),
        }
    }
}
