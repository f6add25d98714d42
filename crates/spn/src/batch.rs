//! Batched expectation evaluation over the arena-compiled SPN.
//!
//! Cardinality estimation compiles one SQL query into *many* expectation
//! probes per ensemble member (count fraction, squared-moment, probability,
//! confidence-interval and GROUP BY probes). [`BatchEvaluator`] answers a
//! whole slice of [`SpnQuery`]s in a single forward sweep over the arena
//! arrays, running the (+, ×) kernels of the shared semiring skeleton in
//! [`crate::kernel`]:
//!
//! * one node-major scratch buffer of partial results (large batches are
//!   processed in fixed-size query tiles, keeping the scratch
//!   cache-resident and memory bounded); the scratch is grow-only — it is
//!   **never re-zeroed** on the hot path, since every slot is written
//!   before it is read within a sweep;
//! * leaf evaluation hoisted to a per-batch
//!   [`crate::kernel::LeafValueTable`]: predicate normalization runs once
//!   per (query, column), slots are deduplicated per column by float-bits
//!   equality, and every (leaf, distinct slot) pair is evaluated exactly
//!   once for the whole batch — the per-tile leaf kernels are pure gathers;
//! * one kernel per node kind, one call per run of consecutive same-kind
//!   nodes, with the exact arithmetic of the recursive oracle (same order,
//!   same zero-skips, no FMA contraction), so results are **bitwise
//!   identical** to it, not approximately equal.
//!
//! The evaluator is one [`SweepJob`] on the inline sweep driver of
//! [`crate::pool`] — the path [`crate::WorkerPool::sweep`] takes with one
//! thread. It owns only its leaf-value tables (the sweep scratch is the
//! calling thread's) and can be reused across arbitrary [`CompiledSpn`]s.

use crate::arena::{ActiveSet, CompiledSpn};
use crate::pool::{sweep_inline, SweepJob, SweepTables};
use crate::SpnQuery;

/// Queries evaluated per tile of a sweep. Bounds the scratch to
/// `n_nodes × SWEEP_TILE` doubles (L2-resident for realistic models) no
/// matter how large the batch is; tiles are independent — every query slot
/// reads only its own normalized slots and its own scratch column — so
/// tiling (and tile-parallel execution) never changes results.
pub const SWEEP_TILE: usize = 32;

/// Reusable leaf-value tables for batched arena evaluation.
#[derive(Debug, Clone, Default)]
pub struct BatchEvaluator {
    tables: SweepTables,
}

impl BatchEvaluator {
    pub fn new() -> Self {
        Self::default()
    }

    /// Evaluate every query against `spn`, returning one expectation per
    /// query (same order). With `active`, the sweep visits only the set's
    /// compacted runs and seeds pruned-out boundary rows from the arena's
    /// neutral table — bitwise identical to the full sweep (`None`)
    /// whenever `active` covers the union of the batch's constrained
    /// columns (see [`CompiledSpn::active_set`]). Counts as one fused sweep.
    pub fn evaluate(
        &mut self,
        spn: &CompiledSpn,
        queries: &[SpnQuery],
        active: Option<&ActiveSet>,
    ) -> Vec<f64> {
        let mut out = vec![0.0; queries.len()];
        sweep_inline([SweepJob {
            active,
            ..SweepJob::expect(spn, queries, &mut out, &mut self.tables)
        }]);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maxprod::{MaxProductEvaluator, MpeOutcome, MpeProbe};
    use crate::{
        ColumnMeta, DataView, LeafFunc, LeafPred, Spn, SpnParams, SweepJob, SweepTables, WorkerPool,
    };

    fn small_spn() -> Spn {
        let cols = vec![
            vec![0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 1.0, f64::NAN],
            vec![10.0, 20.0, 30.0, 30.0, 40.0, 10.0, 20.0, 30.0],
        ];
        let meta = vec![ColumnMeta::discrete("a"), ColumnMeta::discrete("b")];
        Spn::learn(DataView::new(&cols, &meta), &SpnParams::default())
    }

    fn probe_mix() -> Vec<SpnQuery> {
        vec![
            SpnQuery::new(2),
            SpnQuery::new(2).with_pred(0, LeafPred::eq(0.0)),
            SpnQuery::new(2).with_pred(0, LeafPred::IsNull),
            SpnQuery::new(2)
                .with_pred(1, LeafPred::ge(30.0))
                .with_func(1, LeafFunc::X),
            SpnQuery::new(2).with_func(0, LeafFunc::InvClamp1),
        ]
    }

    #[test]
    fn batch_matches_sequential_single_queries() {
        let mut spn = small_spn();
        let compiled = spn.compile();
        let queries = probe_mix();
        let mut ev = BatchEvaluator::new();
        let batch = ev.evaluate(&compiled, &queries, None);
        assert_eq!(batch.len(), queries.len());
        for (i, q) in queries.iter().enumerate() {
            let single = spn.evaluate(q);
            assert_eq!(
                batch[i].to_bits(),
                single.to_bits(),
                "query {i}: batch {} vs recursive {single}",
                batch[i]
            );
        }
    }

    #[test]
    fn boundary_batches_match_recursive_bitwise() {
        let mut spn = small_spn();
        let compiled = spn.compile();
        // Batch sizes straddling the tile boundary, plus the one- to
        // three-query batches every cardinality probe bundle sweeps.
        let base = probe_mix();
        let mut ev = BatchEvaluator::new();
        for n in [1, 2, 3, 4, 5, 31, 32, 33, 65] {
            let queries: Vec<SpnQuery> = (0..n).map(|i| base[i % base.len()].clone()).collect();
            let got: Vec<u64> = ev
                .evaluate(&compiled, &queries, None)
                .iter()
                .map(|v| v.to_bits())
                .collect();
            let want: Vec<u64> = queries.iter().map(|q| spn.evaluate(q).to_bits()).collect();
            assert_eq!(got, want, "batch size {n}");
        }
    }

    /// Degenerate structures the kernels must not mishandle: single-child
    /// sum and product runs, and an all-zero-weight sum node (every edge
    /// skipped → the node evaluates to exactly 0.0).
    #[test]
    fn degenerate_nodes_match_recursive_bitwise() {
        use crate::node::{Node, ProductNode, SumNode};
        use crate::Leaf;
        fn leaf_over(values: &[f64], col: usize) -> Leaf {
            let cols = vec![values.to_vec()];
            let meta = vec![ColumnMeta::discrete("x")];
            let data = DataView::new(&cols, &meta);
            let rows: Vec<u32> = (0..values.len() as u32).collect();
            let mut leaf = Leaf::build(&data, &rows, 0, 1000, 16);
            leaf.col = col;
            leaf
        }
        // root sum ── single-child product ── single-child sum ── leaf(col 0)
        //          └─ zero-weight leaf(col 0)        (counts [4, 0])
        let root = Node::Sum(SumNode {
            scope: vec![0],
            children: vec![
                Node::Product(ProductNode {
                    scope: vec![0],
                    children: vec![Node::Sum(SumNode {
                        scope: vec![0],
                        children: vec![Node::Leaf(leaf_over(&[1.0, 1.0, 2.0, 5.0], 0))],
                        counts: vec![4],
                        centroids: vec![vec![0.0]],
                        norm: vec![(0.0, 1.0)],
                    })],
                }),
                Node::Leaf(leaf_over(&[9.0], 0)),
            ],
            counts: vec![4, 0],
            centroids: vec![vec![-1.0], vec![1.0]],
            norm: vec![(0.0, 1.0)],
        });
        let mut spn = crate::Spn::new(root, vec![ColumnMeta::discrete("x")], 4);
        let compiled = spn.compile();
        // 33 queries straddle a tile boundary.
        let queries: Vec<SpnQuery> = (0..33)
            .map(|i| match i % 4 {
                0 => SpnQuery::new(1),
                1 => SpnQuery::new(1).with_pred(0, LeafPred::eq(1.0)),
                2 => SpnQuery::new(1).with_pred(0, LeafPred::eq(9.0)), // zero-weight branch only
                _ => SpnQuery::new(1).with_func(0, LeafFunc::X),
            })
            .collect();
        let got = BatchEvaluator::new().evaluate(&compiled, &queries, None);
        for (i, g) in got.iter().enumerate() {
            let want = spn.evaluate(&queries[i]);
            assert_eq!(
                g.to_bits(),
                want.to_bits(),
                "query {i}: {g} vs recursive {want}"
            );
        }
        // The zero-weight branch is dead: probability of its exclusive
        // value is exactly 0 on every path.
        assert_eq!(got[2].to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn evaluator_scratch_is_reusable_across_models() {
        let spn_a = small_spn();
        let cols = vec![vec![5.0, 6.0, 7.0, 5.0], vec![1.0, 1.0, 2.0, 2.0]];
        let meta = vec![ColumnMeta::discrete("x"), ColumnMeta::discrete("y")];
        let spn_b = Spn::learn(DataView::new(&cols, &meta), &SpnParams::default());
        let (ca, cb) = (spn_a.compile(), spn_b.compile());
        let mut ev = BatchEvaluator::new();
        let qa = vec![SpnQuery::new(2)];
        let qb = vec![SpnQuery::new(2).with_pred(0, LeafPred::eq(5.0))];
        assert!((ev.evaluate(&ca, &qa, None)[0] - 1.0).abs() < 1e-12);
        assert!((ev.evaluate(&cb, &qb, None)[0] - 0.5).abs() < 1e-12);
        // And back again.
        assert!((ev.evaluate(&ca, &qa, None)[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_batch_is_empty() {
        let spn = small_spn();
        let compiled = spn.compile();
        let mut ev = BatchEvaluator::new();
        assert!(ev.evaluate(&compiled, &[], None).is_empty());
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_panics() {
        let spn = small_spn();
        let compiled = spn.compile();
        BatchEvaluator::new().evaluate(&compiled, &[SpnQuery::new(3)], None);
    }

    #[test]
    fn pool_sweep_matches_sequential_bitwise_any_thread_count() {
        let spn_a = small_spn();
        let cols = vec![vec![5.0, 6.0, 7.0, 5.0], vec![1.0, 1.0, 2.0, 2.0]];
        let meta = vec![ColumnMeta::discrete("x"), ColumnMeta::discrete("y")];
        let spn_b = Spn::learn(DataView::new(&cols, &meta), &SpnParams::default());
        let (ca, cb) = (spn_a.compile(), spn_b.compile());

        // Batches larger than one tile so the parallel path actually splits.
        let base = probe_mix();
        let qa: Vec<SpnQuery> = (0..100).map(|i| base[i % base.len()].clone()).collect();
        let qb: Vec<SpnQuery> = (0..67)
            .map(|i| SpnQuery::new(2).with_pred(0, LeafPred::eq(5.0 + (i % 3) as f64)))
            .collect();

        let mut ev = BatchEvaluator::new();
        let want_a = ev.evaluate(&ca, &qa, None);
        let want_b = ev.evaluate(&cb, &qb, None);

        let pool = WorkerPool::new();
        let (mut ta, mut tb) = (SweepTables::default(), SweepTables::default());
        for threads in [1, 2, 4, 7] {
            let mut got_a = vec![0.0; qa.len()];
            let mut got_b = vec![0.0; qb.len()];
            pool.sweep(
                [
                    SweepJob::expect(&ca, &qa, &mut got_a, &mut ta),
                    SweepJob::expect(&cb, &qb, &mut got_b, &mut tb),
                ],
                threads,
            );
            assert_eq!(got_a, want_a, "model a, {threads} threads");
            assert_eq!(got_b, want_b, "model b, {threads} threads");
        }
    }

    #[test]
    fn sweep_counting_is_per_model_per_batch() {
        let spn = small_spn();
        let compiled = spn.compile();
        let queries: Vec<SpnQuery> = (0..80).map(|_| SpnQuery::new(2)).collect();
        let before = compiled.sweep_count();
        // One evaluate call = one sweep, regardless of tile count.
        BatchEvaluator::new().evaluate(&compiled, &queries, None);
        assert_eq!(compiled.sweep_count(), before + 1);
        // One pool job = one sweep, even multi-threaded.
        let pool = WorkerPool::new();
        let mut tables = SweepTables::default();
        let mut out = vec![0.0; queries.len()];
        pool.sweep(
            [SweepJob::expect(&compiled, &queries, &mut out, &mut tables)],
            4,
        );
        assert_eq!(compiled.sweep_count(), before + 2);
        // Empty jobs don't count.
        pool.sweep([SweepJob::expect(&compiled, &[], &mut [], &mut tables)], 2);
        assert_eq!(compiled.sweep_count(), before + 2);
        // A job carrying both probe kinds still counts as ONE sweep.
        let probes: Vec<MpeProbe> = (0..40)
            .map(|i| MpeProbe::new(0, SpnQuery::new(2).with_pred(1, LeafPred::ge(i as f64))))
            .collect();
        let mut mpe_out = vec![MpeOutcome::default(); probes.len()];
        pool.sweep(
            [SweepJob {
                spn: &compiled,
                queries: &queries,
                out: &mut out,
                mpe: &probes,
                mpe_out: &mut mpe_out,
                tables: &mut tables,
                cancel: None,
                fault: None,
                active: None,
            }],
            4,
        );
        assert_eq!(compiled.sweep_count(), before + 3);
    }

    #[test]
    fn mixed_sweep_matches_dedicated_evaluators_any_thread_count() {
        let mut spn = small_spn();
        let compiled = spn.compile();
        let queries = probe_mix();
        let probes: Vec<MpeProbe> = (0..70)
            .map(|i| {
                MpeProbe::new(
                    i % 2,
                    SpnQuery::new(2).with_pred(1 - i % 2, LeafPred::ge((i % 4) as f64 * 10.0)),
                )
            })
            .collect();
        let want_q = BatchEvaluator::new().evaluate(&compiled, &queries, None);
        let want_p = MaxProductEvaluator::new().evaluate(&compiled, &probes, None);
        // And both must equal the recursive oracle.
        for (p, w) in probes.iter().zip(&want_p) {
            let (score, value) = spn.mpe_outcome(p.target, &p.query);
            assert_eq!(w.value, value);
            assert_eq!(w.score.to_bits(), score.to_bits());
        }
        let pool = WorkerPool::new();
        let mut tables = SweepTables::default();
        for threads in [1, 2, 4] {
            let mut got_q = vec![0.0; queries.len()];
            let mut got_p = vec![MpeOutcome::default(); probes.len()];
            pool.sweep(
                [SweepJob {
                    spn: &compiled,
                    queries: &queries,
                    out: &mut got_q,
                    mpe: &probes,
                    mpe_out: &mut got_p,
                    tables: &mut tables,
                    cancel: None,
                    fault: None,
                    active: None,
                }],
                threads,
            );
            assert_eq!(got_q, want_q, "{threads} threads");
            assert_eq!(got_p, want_p, "{threads} threads");
        }
    }
}
