//! RSPN-backed cardinality model for the storage join-order optimizer.
//!
//! [`deepdb_storage::optimizer::JoinOrderSpace`] prices every connected
//! table subset of a query through a [`CardinalityModel`]; this module
//! supplies the model the paper actually argues for — RSPN estimates. The
//! enumerator hammers repeated sub-query *shapes* (a workload's queries
//! differ in literals, not structure), so [`JoinOrderer`] keeps one
//! [`PreparedQuery`] per subset shape and answers steady-state estimates by
//! **rebinding literals only**: no planning, no translation, and no
//! allocations (the shape key is a fixed stack array, the literal buffer is
//! reused, and the bound prepared path is allocation-free by contract).
//!
//! Subset shapes that the ensemble cannot answer (no covering member, no
//! combinable FK path) are memoized as unanswerable per plan epoch and
//! priced pessimistically by their row-count product — the DP then treats
//! them as expensive, which is the conservative choice. A plan-epoch bump
//! ([`DeepDbError::StalePlan`]) re-prepares lazily on next use.
//!
//! Estimate traffic is visible in [`CacheStats::optimizer_estimates`]
//! ([`crate::CacheStats`]) — a dedicated counter, so enumerator bursts do
//! not drown the interactive hit/miss accounting.

use std::collections::HashMap;

use deepdb_storage::optimizer::{CardinalityModel, JoinOrder, JoinOrderSpace};
use deepdb_storage::{Database, PredOp, Query, TableId, Value};

use crate::checkout::PreparedQuery;
use crate::ensemble::Ensemble;
use crate::shape::for_each_literal;
use crate::DeepDbError;

/// Exact fixed-size encoding of a subset-query shape: the table subset plus
/// one packed word per predicate on those tables. No hashing tricks — two
/// shapes collide only if they are equal; shapes that do not fit (more than
/// [`MAX_WORDS`] predicates, or table/column ids out of packing range) are
/// simply not memoized and estimate cold.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct SubKey {
    /// Bitmask of the subset's table ids (ids must be < 64).
    tables: u64,
    /// Packed predicate words, in predicate order; unused tail is 0.
    words: [u64; MAX_WORDS],
    len: u8,
}

const MAX_WORDS: usize = 12;

fn pack_pred(table: TableId, column: usize, op: &PredOp) -> Option<u64> {
    if table >= 1 << 16 || column >= 1 << 16 {
        return None;
    }
    // Discriminant + shape extras (literal nullness is structural: it changes
    // how the cache translates the predicate, so it belongs in the key).
    let (disc, extra): (u64, u64) = match op {
        PredOp::Cmp(op, v) => (*op as u64, u64::from(matches!(v, Value::Null))),
        PredOp::Between(lo, hi) => (
            8,
            u64::from(matches!(lo, Value::Null)) | u64::from(matches!(hi, Value::Null)) << 1,
        ),
        PredOp::In(vs) => {
            if vs.len() >= 1 << 12 {
                return None;
            }
            let nulls = vs.iter().filter(|v| matches!(v, Value::Null)).count() as u64;
            // The NULL count binds fewer literals, so it must be exact.
            if nulls > 15 {
                return None;
            }
            (9, (vs.len() as u64) << 4 | nulls)
        }
        PredOp::IsNull => (10, 0),
        PredOp::IsNotNull => (11, 0),
    };
    Some((table as u64) << 48 | (column as u64) << 32 | disc << 16 | extra)
}

/// Build the shape key of `query` restricted to `tables`. `None` when the
/// shape does not fit the fixed encoding (caller estimates uncached).
fn subset_key(query: &Query, tables: &[TableId]) -> Option<SubKey> {
    let mut mask = 0u64;
    for &t in tables {
        if t >= 64 {
            return None;
        }
        mask |= 1 << t;
    }
    let mut words = [0u64; MAX_WORDS];
    let mut len = 0usize;
    for p in &query.predicates {
        if p.table < 64 && mask & (1 << p.table) != 0 {
            if len == MAX_WORDS {
                return None;
            }
            words[len] = pack_pred(p.table, p.column, &p.op)?;
            len += 1;
        }
    }
    Some(SubKey {
        tables: mask,
        words,
        len: len as u8,
    })
}

/// The subset query's bind vector: the query's literals restricted to
/// predicates on `tables`, in the canonical [`crate::query_literals`] order.
fn subset_literals(query: &Query, tables: &[TableId], out: &mut Vec<f64>) {
    out.clear();
    for_each_literal(&query.predicates, Some(tables), |v| out.push(v));
}

// `Ready` dominates the map and is dereferenced on every estimate; boxing it
// to shrink the rare `Unanswerable` variant would cost a pointer chase on the
// hot rebinding path for no capacity win (entries already live on the heap).
#[allow(clippy::large_enum_variant)]
enum PreparedEntry {
    Ready(PreparedQuery),
    /// The ensemble could not answer this shape at `epoch`; re-checked after
    /// the next maintenance operation (coverage can change).
    Unanswerable {
        epoch: u64,
    },
}

/// Reusable join-order planner: RSPN cardinalities through shape-memoized
/// prepared queries. One instance serves a whole workload — the shape map
/// and literal buffer persist across [`optimize`](Self::optimize) calls, so
/// repeated query shapes plan with zero estimator planning work.
#[derive(Default)]
pub struct JoinOrderer {
    map: HashMap<SubKey, PreparedEntry>,
    lits: Vec<f64>,
}

impl JoinOrderer {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of memoized subset shapes (prepared + unanswerable).
    pub fn shapes(&self) -> usize {
        self.map.len()
    }

    /// Enumerate and price the query's join-order space with RSPN
    /// estimates. One [`CardinalityModel`] call per connected subset, all
    /// recorded in [`CacheStats::optimizer_estimates`](crate::CacheStats).
    pub fn space(
        &mut self,
        ens: &Ensemble,
        db: &Database,
        query: &Query,
    ) -> Result<JoinOrderSpace, DeepDbError> {
        let mut model = RspnModel { orderer: self, ens };
        let space = JoinOrderSpace::new(db, query, &mut model)?;
        ens.plan_cache()
            .note_optimizer_estimates(space.n_estimates() as u64);
        Ok(space)
    }

    /// The estimated-best left-deep order for `query`.
    pub fn optimize(
        &mut self,
        ens: &Ensemble,
        db: &Database,
        query: &Query,
    ) -> Result<JoinOrder, DeepDbError> {
        Ok(self.space(ens, db, query)?.best())
    }

    /// Price one connected subset of `query.tables` — the estimate the DP
    /// scores candidate subplans with, exposed so callers (and the
    /// counting-allocator acceptance test) can drive the steady-state
    /// rebinding path directly. After one warm call per shape this performs
    /// zero heap allocations.
    pub fn subset_estimate(
        &mut self,
        ens: &Ensemble,
        db: &Database,
        query: &Query,
        tables: &[TableId],
    ) -> f64 {
        self.estimate_subset(ens, db, query, tables)
    }

    /// One subset estimate: rebind the shape's prepared query when warm,
    /// prepare it when cold, fall back to the pessimistic row-count product
    /// when the ensemble cannot answer the shape.
    fn estimate_subset(
        &mut self,
        ens: &Ensemble,
        db: &Database,
        query: &Query,
        tables: &[TableId],
    ) -> f64 {
        let Some(key) = subset_key(query, tables) else {
            // Shape outside the fixed encoding: estimate cold, unmemoized.
            return self
                .cold_estimate(ens, db, query, tables)
                .unwrap_or_else(|| row_product(db, tables));
        };
        subset_literals(query, tables, &mut self.lits);
        match self.map.get_mut(&key) {
            Some(PreparedEntry::Ready(pq)) => match pq.execute(ens, db, &self.lits) {
                Ok(est) => est.value.max(0.0),
                Err(DeepDbError::StalePlan) => {
                    self.map.remove(&key);
                    self.prepare_and_estimate(ens, db, query, tables, key)
                }
                Err(_) => row_product(db, tables),
            },
            Some(PreparedEntry::Unanswerable { epoch }) if *epoch == ens.plan_epoch() => {
                row_product(db, tables)
            }
            _ => self.prepare_and_estimate(ens, db, query, tables, key),
        }
    }

    /// Cold path: build the subset query, prepare it, memoize, estimate.
    fn prepare_and_estimate(
        &mut self,
        ens: &Ensemble,
        db: &Database,
        query: &Query,
        tables: &[TableId],
        key: SubKey,
    ) -> f64 {
        let sub = subset_query(query, tables);
        match ens.prepare(db, &sub) {
            Ok(mut pq) => {
                let est = pq
                    .execute(ens, db, &self.lits)
                    .map_or_else(|_| row_product(db, tables), |e| e.value.max(0.0));
                self.map.insert(key, PreparedEntry::Ready(pq));
                est
            }
            Err(_) => {
                self.map.insert(
                    key,
                    PreparedEntry::Unanswerable {
                        epoch: ens.plan_epoch(),
                    },
                );
                row_product(db, tables)
            }
        }
    }

    fn cold_estimate(
        &mut self,
        ens: &Ensemble,
        db: &Database,
        query: &Query,
        tables: &[TableId],
    ) -> Option<f64> {
        let sub = subset_query(query, tables);
        crate::compile::estimate_count(ens, db, &sub)
            .ok()
            .map(|e| e.value.max(0.0))
    }
}

/// `COUNT(*)` over the subset with the query's predicates restricted to it.
fn subset_query(query: &Query, tables: &[TableId]) -> Query {
    let mut sub = Query::count(tables.to_vec());
    sub.predicates = query
        .predicates
        .iter()
        .filter(|p| tables.contains(&p.table))
        .cloned()
        .collect();
    sub
}

/// Pessimistic fallback: the unfiltered cross-product bound along the FK
/// join is unknowable without estimates, so price the subset by its tables'
/// row-count product — large subsets look expensive, which steers the DP
/// away from orders the estimator cannot vouch for.
fn row_product(db: &Database, tables: &[TableId]) -> f64 {
    tables
        .iter()
        .map(|&t| db.table(t).n_rows().max(1) as f64)
        .product()
}

/// Adapter pairing a [`JoinOrderer`] with the ensemble it estimates
/// through, for the storage-side [`CardinalityModel`] trait.
struct RspnModel<'a> {
    orderer: &'a mut JoinOrderer,
    ens: &'a Ensemble,
}

impl CardinalityModel for RspnModel<'_> {
    fn subset_cardinality(&mut self, db: &Database, query: &Query, tables: &[TableId]) -> f64 {
        self.orderer.estimate_subset(self.ens, db, query, tables)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepdb_storage::CmpOp;

    #[test]
    fn subkey_is_exact_and_order_sensitive() {
        let q = Query::count(vec![0, 1])
            .filter(0, 2, PredOp::Cmp(CmpOp::Eq, Value::Int(5)))
            .filter(1, 1, PredOp::Between(Value::Int(1), Value::Int(9)));
        let k01 = subset_key(&q, &[0, 1]).unwrap();
        let k0 = subset_key(&q, &[0]).unwrap();
        assert_ne!(k01, k0);
        // Same shape, different literals → same key (rebind, don't replan).
        let q2 = Query::count(vec![0, 1])
            .filter(0, 2, PredOp::Cmp(CmpOp::Eq, Value::Int(7)))
            .filter(1, 1, PredOp::Between(Value::Int(3), Value::Int(4)));
        assert_eq!(subset_key(&q2, &[0, 1]).unwrap(), k01);
        // NULL literal is structural → different key.
        let q3 = Query::count(vec![0, 1])
            .filter(0, 2, PredOp::Cmp(CmpOp::Eq, Value::Null))
            .filter(1, 1, PredOp::Between(Value::Int(1), Value::Int(9)));
        assert_ne!(subset_key(&q3, &[0, 1]).unwrap(), k01);
    }

    #[test]
    fn subkey_overflow_declines_to_memoize() {
        let mut q = Query::count(vec![0]);
        for _ in 0..(MAX_WORDS + 1) {
            q = q.filter(0, 1, PredOp::IsNotNull);
        }
        assert!(subset_key(&q, &[0]).is_none());
        let q = Query::count(vec![64]);
        assert!(subset_key(&q, &[64]).is_none());
        // Equal-length IN lists bind one literal per non-NULL value, so a
        // NULL count the key cannot hold exactly must not be memoized.
        let in_list = |nulls: usize| {
            let mut vs = vec![Value::Null; nulls];
            vs.resize(20, Value::Int(1));
            Query::count(vec![0]).filter(0, 1, PredOp::In(vs))
        };
        assert!(subset_key(&in_list(15), &[0]).is_some());
        assert!(subset_key(&in_list(16), &[0]).is_none());
        assert!(subset_key(&in_list(17), &[0]).is_none());
    }

    #[test]
    fn subset_literals_follow_predicate_order() {
        let q = Query::count(vec![0, 1])
            .filter(1, 1, PredOp::Between(Value::Int(3), Value::Int(7)))
            .filter(0, 2, PredOp::Cmp(CmpOp::Eq, Value::Int(5)))
            .filter(
                1,
                3,
                PredOp::In(vec![Value::Int(2), Value::Null, Value::Int(4)]),
            );
        let mut lits = Vec::new();
        subset_literals(&q, &[1], &mut lits);
        assert_eq!(lits, vec![3.0, 7.0, 2.0, 4.0]);
        subset_literals(&q, &[0, 1], &mut lits);
        assert_eq!(lits, vec![3.0, 7.0, 5.0, 2.0, 4.0]);
        // Matches the full-query canonical extractor on the full subset.
        assert_eq!(lits, crate::shape::query_literals(&q));
    }
}
