//! Compiled max-product (MPE) inference over the arena (paper §3.1
//! "Extended Inference Algorithms", served for classification in §4.3).
//!
//! Where [`crate::batch::BatchEvaluator`] sweeps the arena in the
//! (+, ×) semiring, [`MaxProductEvaluator`] sweeps it in (max, ×): sum nodes
//! take the best weighted child instead of the weighted average, and each
//! query additionally tracks **which leaf of the target column** sits on its
//! current best branch. The tracked leaf id *is* the backtrace — it is
//! propagated upward through every argmax decision, so when the sweep
//! reaches the root the winning branch's target leaf is already resolved and
//! its mode is a single O(1) lookup in the arena's cached
//! [`crate::CompiledSpn`] `leaf_mode` table (rebuilt by `commit_patch`
//! whenever updates touch a leaf). No recursion, no second top-down pass,
//! no per-visit allocation. Both semirings run the same sweep skeleton
//! ([`crate::kernel`]) and the same inline sweep driver ([`crate::pool`]).
//!
//! Determinism: at a sum node the **lowest-index child wins ties** (a later
//! child must score *strictly* higher to replace the incumbent), and the
//! frozen `count/total` mixture weight multiplies the child score in exactly
//! the order the recursive oracle in [`crate::infer`] uses — so compiled and
//! recursive MPE agree **bitwise** (score and value), which
//! `tests/prop_mpe.rs` enforces. Results are also independent of tiling and
//! thread count: a probe reads only its own slots and its own scratch
//! column.

use crate::arena::{ActiveSet, CompiledSpn};
use crate::pool::{sweep_inline, SweepJob, SweepTables};
use crate::SpnQuery;

/// One max-product probe: evidence (an [`SpnQuery`]) plus the column whose
/// most probable value is wanted. Any slot the query carries on the target
/// column itself is ignored, matching the recursive oracle.
#[derive(Debug, Clone)]
pub struct MpeProbe {
    /// Column whose mode on the best branch is returned.
    pub target: usize,
    /// Evidence conjunction (and optional moment slots) on the other columns.
    pub query: SpnQuery,
}

impl MpeProbe {
    pub fn new(target: usize, query: SpnQuery) -> Self {
        Self { target, query }
    }
}

/// Resolved max-product outcome of one probe.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MpeOutcome {
    /// Max-product likelihood of the evidence along the winning branch
    /// (0 when the evidence has no support anywhere).
    pub score: f64,
    /// Mode of the target column on the winning branch; `None` when the
    /// model holds no leaf for the target (or that leaf is empty).
    pub value: Option<f64>,
}

impl Default for MpeOutcome {
    fn default() -> Self {
        Self {
            score: 0.0,
            value: None,
        }
    }
}

/// Reusable leaf-value tables for batched arena max-product evaluation;
/// the MPE twin of [`crate::BatchEvaluator`], with the same tiling scheme
/// and sweep driver.
#[derive(Debug, Clone, Default)]
pub struct MaxProductEvaluator {
    tables: SweepTables,
}

impl MaxProductEvaluator {
    pub fn new() -> Self {
        Self::default()
    }

    /// Evaluate every probe against `spn`, returning one outcome per probe
    /// (same order). With `active`, the sweep visits only the set's
    /// compacted runs and seeds pruned-out boundary rows from the arena's
    /// neutral table — bitwise identical to the full sweep (`None`)
    /// whenever `active` covers the union of the batch's evidence columns
    /// **and every probe's target column** (see
    /// [`CompiledSpn::active_set`]). Counts as one fused sweep.
    pub fn evaluate(
        &mut self,
        spn: &CompiledSpn,
        probes: &[MpeProbe],
        active: Option<&ActiveSet>,
    ) -> Vec<MpeOutcome> {
        let mut out = vec![MpeOutcome::default(); probes.len()];
        sweep_inline([SweepJob {
            spn,
            queries: &[],
            out: &mut [],
            mpe: probes,
            mpe_out: &mut out,
            tables: &mut self.tables,
            cancel: None,
            fault: None,
            active,
        }]);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{Node, Spn, SumNode};
    use crate::{ColumnMeta, DataView, Leaf, LeafPred, SpnParams};

    fn leaf_over(values: &[f64], col: usize) -> Leaf {
        let cols = vec![values.to_vec()];
        let meta = vec![ColumnMeta::discrete("x")];
        let data = DataView::new(&cols, &meta);
        let rows: Vec<u32> = (0..values.len() as u32).collect();
        let mut leaf = Leaf::build(&data, &rows, 0, 1000, 16);
        leaf.col = col;
        leaf
    }

    /// Hand-built SPN with two *exactly tied* clusters whose target modes
    /// differ: the lowest-index child must win on both paths.
    fn tied_spn() -> Spn {
        let root = Node::Sum(SumNode {
            scope: vec![0],
            children: vec![
                Node::Leaf(leaf_over(&[7.0, 7.0, 1.0], 0)),
                Node::Leaf(leaf_over(&[3.0, 3.0, 2.0], 0)),
            ],
            counts: vec![3, 3],
            centroids: vec![vec![-1.0], vec![1.0]],
            norm: vec![(0.0, 1.0)],
        });
        Spn::new(root, vec![ColumnMeta::discrete("x")], 6)
    }

    #[test]
    fn tied_clusters_break_toward_lowest_child_on_both_paths() {
        let mut spn = tied_spn();
        let compiled = spn.compile();
        let q = SpnQuery::new(1);
        // Child 0's mode is 7, child 1's is 3; weights tie at 1/2.
        assert_eq!(spn.most_probable_value(0, &q), Some(7.0));
        assert_eq!(compiled.most_probable_value(0, &q), Some(7.0));
    }

    #[test]
    fn leaf_mode_ties_break_toward_lowest_value() {
        // 1 and 2 both appear twice: the smaller value wins.
        let leaf = leaf_over(&[2.0, 1.0, 2.0, 1.0, 5.0], 0);
        assert_eq!(leaf.mode(), Some(1.0));
    }

    /// All-zero-weight sum node: no child ever becomes the incumbent, so
    /// the score is 0 and no target leaf resolves — on the compiled path and
    /// the recursive oracle alike.
    #[test]
    fn all_zero_weight_sum_yields_empty_outcome() {
        let root = Node::Sum(SumNode {
            scope: vec![0],
            children: vec![
                Node::Leaf(leaf_over(&[7.0, 7.0], 0)),
                Node::Leaf(leaf_over(&[3.0], 0)),
            ],
            counts: vec![0, 0],
            centroids: vec![vec![-1.0], vec![1.0]],
            norm: vec![(0.0, 1.0)],
        });
        let mut spn = Spn::new(root, vec![ColumnMeta::discrete("x")], 0);
        let compiled = spn.compile();
        let probes: Vec<MpeProbe> = (0..33)
            .map(|_| MpeProbe::new(0, SpnQuery::new(1)))
            .collect();
        let want = spn.mpe_outcome(0, &SpnQuery::new(1));
        for got in MaxProductEvaluator::new().evaluate(&compiled, &probes, None) {
            assert_eq!(got.score.to_bits(), 0.0f64.to_bits());
            assert_eq!(got.value, None);
            assert_eq!((got.score.to_bits(), got.value), (want.0.to_bits(), want.1));
        }
    }

    #[test]
    fn compiled_mpe_matches_oracle_on_learned_model() {
        let cols = vec![
            vec![0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 0.0],
            vec![70.0, 80.0, 75.0, 20.0, 25.0, 30.0, 22.0, 72.0],
        ];
        let meta = vec![ColumnMeta::discrete("region"), ColumnMeta::discrete("age")];
        let mut spn = Spn::learn(DataView::new(&cols, &meta), &SpnParams::default());
        let compiled = spn.compile();
        for q in [
            SpnQuery::new(2),
            SpnQuery::new(2).with_pred(1, LeafPred::ge(60.0)),
            SpnQuery::new(2).with_pred(1, LeafPred::le(30.0)),
            // Empty support: nobody is 500 years old.
            SpnQuery::new(2).with_pred(1, LeafPred::eq(500.0)),
        ] {
            let (want_score, want_value) = spn.mpe_outcome(0, &q);
            let got = MaxProductEvaluator::new().evaluate(
                &compiled,
                &[MpeProbe::new(0, q.clone())],
                None,
            )[0];
            assert_eq!(got.value, want_value, "value for {q:?}");
            assert_eq!(got.score.to_bits(), want_score.to_bits(), "score for {q:?}");
        }
    }

    #[test]
    fn batches_straddle_tiles_and_mix_targets() {
        let cols = vec![
            vec![0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 1.0, f64::NAN],
            vec![10.0, 20.0, 30.0, 30.0, 40.0, 10.0, 20.0, 30.0],
        ];
        let meta = vec![ColumnMeta::discrete("a"), ColumnMeta::discrete("b")];
        let mut spn = Spn::learn(DataView::new(&cols, &meta), &SpnParams::default());
        let compiled = spn.compile();
        let probes: Vec<MpeProbe> = (0..75)
            .map(|i| {
                let target = i % 2;
                let evidence = 1 - target;
                MpeProbe::new(
                    target,
                    SpnQuery::new(2).with_pred(evidence, LeafPred::ge((i % 5) as f64 * 9.0)),
                )
            })
            .collect();
        let got = MaxProductEvaluator::new().evaluate(&compiled, &probes, None);
        assert_eq!(got.len(), probes.len());
        for (i, p) in probes.iter().enumerate() {
            let (score, value) = spn.mpe_outcome(p.target, &p.query);
            assert_eq!(got[i].value, value, "probe {i}");
            assert_eq!(got[i].score.to_bits(), score.to_bits(), "probe {i}");
        }
    }

    #[test]
    fn patched_arena_keeps_modes_fresh() {
        let cols = vec![vec![1.0, 1.0, 2.0], vec![5.0, 5.0, 9.0]];
        let meta = vec![ColumnMeta::discrete("a"), ColumnMeta::discrete("b")];
        let mut spn = Spn::learn(DataView::new(&cols, &meta), &SpnParams::default());
        let mut arena = spn.compile();
        assert_eq!(arena.most_probable_value(0, &SpnQuery::new(2)), Some(1.0));
        // Shift the majority to 2 through the in-place patch path.
        for _ in 0..4 {
            arena.insert(&[2.0, 9.0]);
            spn.insert(&[2.0, 9.0]);
        }
        assert_eq!(arena.most_probable_value(0, &SpnQuery::new(2)), Some(2.0));
        assert!(arena.bitwise_eq(&spn.compile()), "mode cache drifted");
    }
}
