//! Sum-Product Networks for DeepDB.
//!
//! A from-scratch MSPN-style stack (paper §3.1–§3.2):
//!
//! * [`rdc`] — the Randomized Dependence Coefficient used both as the
//!   column-split criterion during learning and as the table-correlation
//!   measure for ensemble construction;
//! * [`kmeans_two`] — row clustering for sum nodes (centroids are retained so
//!   the update algorithm can route new tuples);
//! * [`Leaf`] — value-frequency histograms with a NULL slot and a binning
//!   fallback for high-cardinality continuous columns;
//! * [`Spn`] — structure learning over a tree of sum, product and leaf
//!   nodes. The tree is the learner's output and the **differential-test
//!   oracle**: a recursive evaluator of `E[∏ g_c(X_c) · 1_C]` expectations
//!   and max-product MPE, and tree-only insert/delete updates;
//! * [`CompiledSpn`] / [`BatchEvaluator`] — the model at runtime: the
//!   learned tree compiled once into an arena (contiguous SoA arrays in
//!   bottom-up topological order, plus the scopes, z-normalizations and
//!   cluster centroids updates route by) and evaluated for whole batches of
//!   queries in one non-recursive sweep. Every production query path —
//!   expectations *and* max-product MPE — runs on it. Updates **patch the
//!   arena in place** ([`CompiledSpn::insert`] / [`CompiledSpn::insert_batch`]
//!   and the delete twins, paper Algorithm 1): sums route each tuple to the
//!   nearest centroid, edge counts and leaf histograms are edited directly,
//!   and per-node finalization (weight renormalization, prefix rebuilds,
//!   cached leaf modes) is folded to once per touched node per batch —
//!   O(depth + touched bins) per tuple and bitwise identical to compiling
//!   the equally updated tree. Deletes are check-then-apply: an update the
//!   routed path cannot absorb is a consistent no-op, never a partial
//!   decrement. Snapshots ([`CompiledSpn::write_to`] /
//!   [`CompiledSpn::read_from`]) are written from and decoded into the
//!   arena without building a tree;
//! * [`MaxProductEvaluator`] — the compiled **max-product** pass
//!   (classification / most-probable-explanation, paper §4.3): sum nodes
//!   take the best weighted child instead of the average, each probe tracks
//!   the target-column leaf on its winning branch, and the answer resolves
//!   against the arena's O(1) cached leaf modes. Tie-breaking is
//!   deterministic (lowest child index wins) and shared with the recursive
//!   oracle, so both agree bitwise;
//! * `kernel` (internal) — both evaluators run one shared sweep skeleton
//!   parameterized by per-node-run semiring kernels
//!   (`LeafKernel`/`SumKernel`/`ProductKernel` for (+, ×) and (max, ×)):
//!   consecutive same-kind arena nodes are dispatched as one kernel call,
//!   and each node kind has one kernel body — children outer, the tile's
//!   queries inner — that is **bitwise identical** to the recursive oracle:
//!   no FMA contraction, no reassociation, zero-skips as per-query freezes;
//! * [`WorkerPool::sweep`] — the sweep routine: one fused sweep per
//!   compiled model, leaf-value tables built into caller-owned
//!   [`SweepTables`], tiles (expectation **and** MPE probes alike) run
//!   inline — the one inline driver the evaluators use too — or drained
//!   from one tile queue by the calling thread and scoped helpers that are
//!   joined before the sweep returns; the execution engine of
//!   `deepdb-core`'s probe plans. Evaluation is `&self`-safe, and results
//!   are bitwise identical for every thread count;
//! * [`ActiveSet`] — query-scoped sub-DAG pruning: the arena caches each
//!   node's query-independent (empty-query) value per semiring, and a sweep
//!   restricted to the nodes whose scope intersects the constrained/target
//!   columns seeds the pruned boundary from those neutral tables — bitwise
//!   identical to the full sweep by construction, at a fraction of the node
//!   visits for selective queries.
//!
//! The SPN operates on an opaque `f64` matrix (NaN = NULL); the relational
//! interpretation (tables, tuple factors, join indicators) lives in
//! `deepdb-core`.

#![forbid(unsafe_code)]

mod arena;
mod batch;
mod data;
mod infer;
mod kernel;
mod kmeans;
mod leaf;
mod learn;
pub(crate) mod maxprod;
mod node;
pub mod pool;
pub mod rdc;
mod serialize;
mod update;
pub mod wire;

pub use arena::{ActiveSet, CompiledSpn};
pub use batch::{BatchEvaluator, SWEEP_TILE};
pub use data::{ColumnMeta, DataView};
pub use infer::{LeafFunc, LeafPred, Slot, SpnQuery};
pub use kmeans::{kmeans_two, KMeansResult};
pub use leaf::Leaf;
pub use learn::SpnParams;
pub use maxprod::{MaxProductEvaluator, MpeOutcome, MpeProbe};
pub use node::{Node, ProductNode, Spn, SumNode};
pub use pool::{
    default_threads, CancelFlag, SweepJob, SweepTables, TileFault, TileFaultFn, WorkerPool,
};
