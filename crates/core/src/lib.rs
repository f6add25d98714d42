//! DeepDB core: Relational Sum-Product Networks, ensembles, and
//! probabilistic query compilation (the paper's primary contribution).
//!
//! * [`Rspn`] — an SPN learned over (a sample of) the full outer join of one
//!   or more tables, carrying the relational metadata (join indicators,
//!   tuple-factor columns, functional-dependency dictionaries) needed to
//!   answer relational queries (paper §3.2).
//! * [`Ensemble`] / [`EnsembleBuilder`] — base-ensemble construction from
//!   pairwise RDC table correlations plus budget-constrained ensemble
//!   optimization (paper §3.3, §5.3), direct insert/delete updates
//!   (paper §5.2) that patch each member's compiled arena **in place**
//!   (single-row and batched via `Ensemble::apply_insert_batch` — the
//!   engines are never stale, so interleaved update/query streams pay
//!   O(tree depth) per tuple, not a recompile per query), and the
//!   RDC-greedy execution strategy.
//! * [`compile`] — probabilistic query compilation of COUNT/SUM/AVG
//!   (+ GROUP BY) queries into products of expectations over the ensemble,
//!   covering the paper's Cases 1–3 including Theorems 1 and 2 (§4). All
//!   query entry points take `&Ensemble`.
//! * [`combine`] — symbolic Case-3 planning: when no single RSPN covers the
//!   query, a `CombinePlan` walks the FK graph once, registers **all**
//!   extension steps' fraction bundles on the caller's probe plan, and
//!   resolves a `Scale`/`Product`/`Divide` expression tree afterwards — the
//!   retired eager per-step loop survives only as the differential-test
//!   oracle [`combine::multi_rspn_count`].
//! * [`ProbePlan`] — deferred probe plans: call sites register probes
//!   (expectations **and** max-product MPE probes) against ensemble members
//!   and resolve typed handles after a single `execute()`, which sweeps each
//!   touched member's compiled arena exactly once — both probe kinds ride
//!   the same sweep — inline for a plan of one tile's worth of probes, with
//!   the tiles of all members shared out over the calling thread and
//!   scoped helper threads otherwise.
//! * [`cache`] — the plan cache (query shape → plan artifact, nothing else)
//!   behind the one execute path: every scalar query — one-shot,
//!   [`PreparedQuery`], served — checks a rebindable plan and its scratch
//!   out of the shape's cache entry, runs it through the one plan runner,
//!   resolves, and checks it back in.
//! * [`Estimate`] — point estimates with variances propagated per §5.1,
//!   yielding confidence intervals.
//! * ML tasks (regression via conditional expectation, classification via
//!   compiled max-product MPE) on the same models (§4.3), all on
//!   `&Ensemble` — no query path needs `&mut` — with batched entry points
//!   ([`ml::predict_classification_batch`], [`ml::predict_regression_batch`])
//!   that amortize one arena sweep over a whole batch of predictions. The
//!   recursive evaluator survives only as the differential-test oracle in
//!   `deepdb-spn`.

mod aqp;
pub mod cache;
mod checkout;
pub mod combine;
pub mod compile;
mod ensemble;
mod error;
mod estimate;
mod fd;
pub mod joinorder;
pub mod ml;
mod plan;
mod rspn;
pub mod serve;
mod shape;

pub use aqp::{execute_aqp, AqpOutput, AqpResult};
pub use cache::CacheStats;
pub use checkout::PreparedQuery;
pub use ensemble::{Ensemble, EnsembleBuilder, EnsembleParams, EnsembleStrategy};
pub use error::DeepDbError;
pub use estimate::Estimate;
pub use fd::FunctionalDependency;
pub use joinorder::JoinOrderer;
pub use plan::{MpeHandle, ProbeHandle, ProbePlan, ProbeResults};
pub use rspn::Rspn;
pub use serve::{Fault, FaultPlan, FaultSite, ServeConfig, ServeFront, ServeStats};
pub use shape::query_literals;
