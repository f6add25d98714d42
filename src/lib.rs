//! # DeepDB-rs
//!
//! A from-scratch Rust reproduction of *DeepDB: Learn from Data, not from
//! Queries!* (Hilprecht et al., VLDB 2020): data-driven learned database
//! components built on **Relational Sum-Product Networks (RSPNs)**.
//!
//! DeepDB learns an ensemble of RSPNs over (samples of) a database's tables
//! and their full outer joins, then compiles SQL-style aggregate queries
//! into products of expectations over that ensemble. One offline learning
//! pass serves:
//!
//! * **cardinality estimation** ([`compile::estimate_cardinality`]),
//! * **approximate query processing** with confidence intervals
//!   ([`execute_aqp`]),
//! * **ML tasks** — regression and classification — with no extra training
//!   ([`ml`]),
//! * and **direct updates**: inserts/deletes are absorbed by the models
//!   without retraining ([`Ensemble::apply_insert`]).
//!
//! ## Quickstart
//!
//! ```
//! use deepdb::prelude::*;
//!
//! // The paper's running example: customers and their orders.
//! let db = deepdb::storage::fixtures::paper_customer_order();
//!
//! // Offline: learn the RSPN ensemble (Figure 2).
//! let params = EnsembleParams {
//!     sample_size: 10_000,
//!     rdc_threshold: 0.0, // force the joint customer⟗orders RSPN
//!     ..EnsembleParams::default()
//! };
//! let ensemble = EnsembleBuilder::new(&db).params(params).build().unwrap();
//!
//! // Runtime: estimate |customer ⋈ orders WHERE region = EUROPE AND channel = ONLINE|.
//! // The whole query surface is `&Ensemble` — queries never mutate the models.
//! let customer = db.table_id("customer").unwrap();
//! let orders = db.table_id("orders").unwrap();
//! let q = Query::count(vec![customer, orders])
//!     .filter(customer, 2, PredOp::Cmp(CmpOp::Eq, Value::Int(0)))
//!     .filter(orders, 2, PredOp::Cmp(CmpOp::Eq, Value::Int(0)));
//! let estimate = compile::estimate_cardinality(&ensemble, &db, &q).unwrap();
//! assert!((estimate - 1.0).abs() < 0.8); // true answer: 1 (paper Q2)
//! ```
//!
//! ## Crate layout
//!
//! | Crate | Contents |
//! |---|---|
//! | [`storage`] | columnar tables, FK catalog, ground-truth executor, full-outer-join sampler |
//! | [`spn`] | RDC, k-means, leaves, SPN learning/updates; recursive oracle **and** the compiled arena/batch engine ([`spn::CompiledSpn`], [`spn::BatchEvaluator`]) |
//! | [`core_`] | RSPNs, ensembles, probabilistic query compilation, AQP, CIs, ML |
//! | [`linalg`] | dense matrices, Cholesky, symmetric eigen, CCA (for RDC) |
//! | [`nn`] | MLP + Adam + multi-set network (for the learned baselines) |
//! | [`baselines`] | Postgres-style, IBJS, sampling, MCSN, VerdictDB-, TABLESAMPLE-, WanderJoin-, DBEst-style, regression tree |
//! | [`data`] | synthetic IMDb (JOB-light), SSB, Flights generators + workloads |
//!
//! ## Inference engine
//!
//! Every probe issued by the layers above — expectation probes for
//! cardinality/AQP **and** max-product MPE probes for classification — runs
//! on the **arena-compiled** SPN: the tree is flattened into contiguous
//! struct-of-arrays storage in bottom-up topological order and whole probe
//! batches are evaluated in one non-recursive sweep
//! ([`spn::BatchEvaluator`] in the (+, ×) semiring,
//! [`spn::MaxProductEvaluator`] in (max, ×) with deterministic
//! lowest-child-wins tie-breaking and O(1) cached leaf-mode backtraces).
//! Each node kind has one sweep kernel, bitwise equal to the recursive
//! oracle for any batch size, tiling and thread count.
//! The arena is the model: learning compiles the learned tree once and
//! drops it, snapshots are written from and decoded into arenas, and
//! inserts and deletes **patch the arena in place** (O(depth) per tuple,
//! bitwise identical to compiling the equally updated tree oracle — cached
//! modes included), so the engines are never stale between updates and
//! queries. The
//! **entire query surface takes `&Ensemble`** — cardinality, AQP, and the
//! ML entry points, which ship batched forms
//! ([`ml::predict_classification_batch`], [`ml::predict_regression_batch`])
//! answering K evidence rows in one arena sweep of the touched member.
//! Multi-RSPN (Case-3) joins are planned **symbolically**
//! ([`core_::combine`]): one walk of the FK graph registers every extension
//! step's probe bundles on one fused plan, and a `Scale`/`Product`/`Divide`
//! expression tree resolves after the sweep. Both retired evaluation
//! strategies — the recursive SPN walk and the eager per-step combine loop
//! — survive **only** as differential-test oracles.

pub use deepdb_baselines as baselines;
pub use deepdb_core as core_;
pub use deepdb_data as data;
pub use deepdb_linalg as linalg;
pub use deepdb_nn as nn;
pub use deepdb_spn as spn;
pub use deepdb_storage as storage;

// Flat re-exports of the primary public API.
pub use deepdb_core::{
    compile, execute_aqp, ml, query_literals, AqpOutput, AqpResult, CacheStats, DeepDbError,
    Ensemble, EnsembleBuilder, EnsembleParams, EnsembleStrategy, Estimate, Fault, FaultPlan,
    FaultSite, FunctionalDependency, JoinOrderer, PreparedQuery, Rspn, ServeConfig, ServeFront,
    ServeStats,
};
pub use deepdb_storage::{
    execute, execute_ordered, execute_ordered_with_stats, Aggregate, CmpOp, ColumnRef, Database,
    Domain, Indexes, JoinOrder, PredOp, Predicate, Query, TableSchema, Value,
};

/// Everything needed for typical use, importable as `use deepdb::prelude::*`.
pub mod prelude {
    pub use crate::{
        compile, execute, execute_aqp, execute_ordered, execute_ordered_with_stats, query_literals,
        Aggregate, AqpOutput, CacheStats, CmpOp, ColumnRef, Database, DeepDbError, Domain,
        Ensemble, EnsembleBuilder, EnsembleParams, EnsembleStrategy, Indexes, JoinOrder,
        JoinOrderer, PredOp, PreparedQuery, Query, ServeConfig, ServeFront, TableSchema, Value,
    };
}
