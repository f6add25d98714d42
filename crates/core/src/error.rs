//! Error type for DeepDB core operations.
//!
//! # Error taxonomy
//!
//! Serving callers (see [`crate::serve`]) should branch on two classes:
//!
//! * **Retryable, transient** — the query was fine, the moment was not.
//!   Retrying the same request (possibly after backoff) is expected to
//!   succeed: [`DeepDbError::Overloaded`] (admission queue full — shed load
//!   or back off), [`DeepDbError::DeadlineExceeded`] (the deadline passed
//!   before the answer was ready — retry with a looser deadline), and
//!   [`DeepDbError::StalePlan`] (a maintenance epoch bump landed mid-flight;
//!   the serving layer already retries once internally, so seeing it means
//!   maintenance is churning — retry after it settles).
//! * **Caller / deployment bugs** — retrying the identical request will fail
//!   the identical way: [`DeepDbError::NotAnswerable`] and
//!   [`DeepDbError::Unsupported`] (the query itself is outside what the
//!   ensemble answers), [`DeepDbError::Storage`] and
//!   [`DeepDbError::Learning`] (bad catalog/construction input), and
//!   [`DeepDbError::QueryPanicked`] (a fault inside this query's own probe
//!   evaluation; co-batched queries were isolated from it, and the payload
//!   message names the panic — file a bug with it).

use deepdb_storage::StorageError;

/// Errors surfaced by ensemble construction, query compilation, and serving.
#[derive(Debug, Clone, PartialEq)]
pub enum DeepDbError {
    /// Underlying storage/catalog error.
    Storage(StorageError),
    /// The query references tables no RSPN (combination) can answer.
    NotAnswerable(String),
    /// The query shape is outside the supported class.
    Unsupported(String),
    /// Ensemble construction failed.
    Learning(String),
    /// A [`PreparedQuery`](crate::PreparedQuery) outlived its plan epoch:
    /// the ensemble absorbed updates or other maintenance since `prepare`, so
    /// the frozen probe artifact may no longer match the models. Re-prepare
    /// against the current ensemble. **Retryable** — the serving front-end
    /// re-prepares and retries once before surfacing this.
    StalePlan,
    /// The serving admission queue is full; the request was rejected before
    /// any work was done. **Retryable** after backoff — classic load
    /// shedding, never a statement about the query itself.
    Overloaded,
    /// The per-query deadline passed before the answer was ready (the sweep
    /// was cooperatively cancelled at a tile boundary, or the result missed
    /// its pickup window). **Retryable** with a looser deadline.
    DeadlineExceeded,
    /// Evaluation of *this* query's probes panicked (payload message
    /// inside). Co-batched queries were isolated and completed; the worker
    /// pool self-healed. **Not retryable**: the same probes will panic the
    /// same way — this is a bug report, not a load signal.
    QueryPanicked(String),
}

impl From<StorageError> for DeepDbError {
    fn from(e: StorageError) -> Self {
        DeepDbError::Storage(e)
    }
}

impl DeepDbError {
    /// Whether a caller may expect the *same* request to succeed on retry
    /// (see the module-level taxonomy).
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            Self::Overloaded | Self::DeadlineExceeded | Self::StalePlan
        )
    }
}

impl std::fmt::Display for DeepDbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Storage(e) => write!(f, "storage error: {e}"),
            Self::NotAnswerable(msg) => write!(f, "query not answerable by ensemble: {msg}"),
            Self::Unsupported(msg) => write!(f, "unsupported query: {msg}"),
            Self::Learning(msg) => write!(f, "ensemble learning failed: {msg}"),
            Self::StalePlan => write!(
                f,
                "prepared query is stale: the ensemble's plan epoch advanced \
                 (update or maintenance since prepare); re-prepare required"
            ),
            Self::Overloaded => write!(
                f,
                "serving queue is full: request rejected at admission; retry after backoff"
            ),
            Self::DeadlineExceeded => write!(
                f,
                "deadline exceeded: the query was cancelled before its answer was ready"
            ),
            Self::QueryPanicked(msg) => {
                write!(
                    f,
                    "query evaluation panicked (isolated to this query): {msg}"
                )
            }
        }
    }
}

impl std::error::Error for DeepDbError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Storage(e) => Some(e),
            _ => None,
        }
    }
}
