//! Direct RSPN updates — paper Algorithm 1 (§5.2).
//!
//! An inserted (deleted) tuple traverses the model: sum nodes route it to
//! the nearest stored cluster centroid and adjust that edge's row count,
//! product nodes fan it out to every child (scope projection is implicit —
//! leaves read only their own column), and leaves adjust their value
//! histograms. The structure never changes; only weights and leaf
//! distributions do, so the [`CompiledSpn`] arena is **patched in place**:
//!
//! * [`CompiledSpn::insert`] / [`CompiledSpn::delete`] and their batched
//!   twins walk the arena from the root, edit edge counts and leaf
//!   histograms directly, and defer weight renormalization and leaf prefix
//!   rebuilds into an [`ArenaPatch`] committed once per call — O(depth +
//!   touched bins) per tuple, independent of model size;
//! * [`CompiledSpn::insert_batch`] routes the whole batch in **one
//!   traversal**, partitioning tuples at each sum node, so every touched sum
//!   is renormalized once per batch rather than once per tuple;
//! * deletes are **check-then-apply**: a read-only routing pass first
//!   verifies every routed sum count and leaf mass can absorb the decrement,
//!   and the delete becomes a consistent no-op along the whole path
//!   otherwise (never a partial decrement that leaves sum counts and leaf
//!   totals disagreeing).
//!
//! Batched and one-by-one application produce bitwise-identical models: the
//! exact integer count edits commute, leaf histogram edits land in the same
//! per-leaf order, and the deferred renormalization is a pure function of
//! the final counts.
//!
//! [`Spn::insert`] / [`Spn::delete`] / [`Spn::update`] apply the same
//! algorithm to the learner's tree; they survive as the differential oracle
//! the arena walk is tested against. Both walks route through the one
//! [`nearest_child`], so they agree bitwise.

use crate::arena::{ArenaPatch, CompiledKind};
use crate::node::{Node, Spn, SumNode};
use crate::CompiledSpn;

/// Index of the child whose centroid is nearest to `tuple` in the sum
/// node's z-space (squared Euclidean distance; NULLs map to the column mean,
/// z = 0). The lowest index wins ties. `norm` and every centroid are
/// aligned with `scope`.
fn nearest_child<'a>(
    scope: &[usize],
    norm: &[(f64, f64)],
    centroids: impl Iterator<Item = &'a [f64]>,
    tuple: &[f64],
) -> usize {
    let mut best = 0;
    let mut best_d = f64::INFINITY;
    for (i, centroid) in centroids.enumerate() {
        let mut d = 0.0;
        for (j, &col) in scope.iter().enumerate() {
            let v = tuple[col];
            let (mean, std) = norm[j];
            let z = if v.is_finite() { (v - mean) / std } else { 0.0 };
            let diff = z - centroid[j];
            d += diff * diff;
        }
        if d < best_d {
            best_d = d;
            best = i;
        }
    }
    best
}

fn tree_route(node: &SumNode, tuple: &[f64]) -> usize {
    nearest_child(
        &node.scope,
        &node.norm,
        node.centroids.iter().map(Vec::as_slice),
        tuple,
    )
}

fn tree_insert(node: &mut Node, tuple: &[f64]) {
    match node {
        Node::Leaf(leaf) => leaf.insert(tuple[leaf.col]),
        Node::Product(prod) => {
            for child in &mut prod.children {
                tree_insert(child, tuple);
            }
        }
        Node::Sum(sum) => {
            let k = tree_route(sum, tuple);
            sum.counts[k] += 1;
            tree_insert(&mut sum.children[k], tuple);
        }
    }
}

/// Read-only routing pass of the tree oracle's check-then-apply delete.
fn tree_can_delete(node: &Node, tuple: &[f64]) -> bool {
    match node {
        Node::Leaf(leaf) => leaf.can_remove(tuple[leaf.col]),
        Node::Sum(sum) => {
            let k = tree_route(sum, tuple);
            sum.counts[k] > 0 && tree_can_delete(&sum.children[k], tuple)
        }
        Node::Product(prod) => prod.children.iter().all(|c| tree_can_delete(c, tuple)),
    }
}

fn tree_delete(node: &mut Node, tuple: &[f64]) {
    match node {
        Node::Leaf(leaf) => {
            let removed = leaf.remove(tuple[leaf.col]);
            debug_assert!(removed, "delete validated by tree_can_delete");
        }
        Node::Sum(sum) => {
            let k = tree_route(sum, tuple);
            sum.counts[k] -= 1;
            tree_delete(&mut sum.children[k], tuple);
        }
        Node::Product(prod) => {
            for child in &mut prod.children {
                tree_delete(child, tuple);
            }
        }
    }
}

impl Spn {
    /// Insert one tuple (full row over all columns, NaN = NULL) into the
    /// tree — the differential oracle of [`CompiledSpn::insert`]. An arena
    /// compiled earlier does not see it.
    pub fn insert(&mut self, tuple: &[f64]) {
        assert_eq!(tuple.len(), self.n_columns(), "tuple arity mismatch");
        tree_insert(&mut self.root, tuple);
        self.n_rows += 1;
    }

    /// Delete one tuple from the tree (routed like an insert; weights
    /// decrease). Returns `false` — leaving the model untouched — if the
    /// routed path cannot absorb the delete (empty cluster or absent value).
    pub fn delete(&mut self, tuple: &[f64]) -> bool {
        assert_eq!(tuple.len(), self.n_columns(), "tuple arity mismatch");
        if !tree_can_delete(&self.root, tuple) {
            return false;
        }
        tree_delete(&mut self.root, tuple);
        self.n_rows -= 1;
        true
    }

    /// Update = delete the old tuple, insert the new one. The insert is
    /// skipped (and `false` returned) when the old tuple is not present.
    pub fn update(&mut self, old: &[f64], new: &[f64]) -> bool {
        if !self.delete(old) {
            return false;
        }
        self.insert(new);
        true
    }
}

impl CompiledSpn {
    fn check_tuple(&self, tuple: &[f64]) {
        assert_eq!(tuple.len(), self.n_columns(), "tuple arity mismatch");
    }

    /// Edge index (into `children` / `counts`) of the child of sum `node`
    /// that `tuple` routes to.
    fn route(&self, node: usize, tuple: &[f64]) -> usize {
        let offset = nearest_child(
            self.scope(node),
            self.norm(node),
            self.centroids(node),
            tuple,
        );
        self.child_start[node] as usize + offset
    }

    /// Insert a batch of tuples below `node` in one traversal: partition at
    /// sum nodes, fan out at products, apply every value at the leaves.
    fn insert_below(&mut self, node: usize, tuples: &[&[f64]], patch: &mut ArenaPatch) {
        let (s, e) = self.child_range(node);
        match self.kinds[node] {
            CompiledKind::Leaf => {
                let payload = self.leaf_of[node];
                let leaf = &mut self.leaves[payload as usize];
                for t in tuples {
                    leaf.insert(t[leaf.col]);
                }
                patch.touch_leaf(payload);
            }
            CompiledKind::Product => {
                for i in s..e {
                    self.insert_below(self.children[i] as usize, tuples, patch);
                }
            }
            CompiledKind::Sum => {
                let mut groups: Vec<Vec<&[f64]>> = vec![Vec::new(); e - s];
                for t in tuples {
                    groups[self.route(node, t) - s].push(t);
                }
                patch.touch_sum(node as u32);
                for (k, group) in groups.iter().enumerate() {
                    if group.is_empty() {
                        continue;
                    }
                    self.counts[s + k] += group.len() as u64;
                    self.insert_below(self.children[s + k] as usize, group, patch);
                }
            }
        }
    }

    /// Allocation-free single-tuple insert (the per-row hot path of
    /// `Ensemble::apply_insert`): identical routing and edits to a
    /// one-element [`CompiledSpn::insert_below`], minus the per-sum
    /// partition buffers.
    fn insert_one_below(&mut self, node: usize, tuple: &[f64], patch: &mut ArenaPatch) {
        let (s, e) = self.child_range(node);
        match self.kinds[node] {
            CompiledKind::Leaf => {
                let payload = self.leaf_of[node];
                let leaf = &mut self.leaves[payload as usize];
                leaf.insert(tuple[leaf.col]);
                patch.touch_leaf(payload);
            }
            CompiledKind::Product => {
                for i in s..e {
                    self.insert_one_below(self.children[i] as usize, tuple, patch);
                }
            }
            CompiledKind::Sum => {
                let edge = self.route(node, tuple);
                self.counts[edge] += 1;
                patch.touch_sum(node as u32);
                self.insert_one_below(self.children[edge] as usize, tuple, patch);
            }
        }
    }

    /// Read-only routing pass of the check-then-apply delete protocol: `true`
    /// iff removing `tuple` succeeds at every routed sum edge and leaf.
    /// Routing depends only on the (immutable) centroids, so the subsequent
    /// apply pass takes exactly the same path.
    fn can_delete_below(&self, node: usize, tuple: &[f64]) -> bool {
        let (s, e) = self.child_range(node);
        match self.kinds[node] {
            CompiledKind::Leaf => {
                let leaf = &self.leaves[self.leaf_of[node] as usize];
                leaf.can_remove(tuple[leaf.col])
            }
            CompiledKind::Sum => {
                let edge = self.route(node, tuple);
                self.counts[edge] > 0 && self.can_delete_below(self.children[edge] as usize, tuple)
            }
            CompiledKind::Product => self.children[s..e]
                .iter()
                .all(|&c| self.can_delete_below(c as usize, tuple)),
        }
    }

    /// Apply one delete validated by [`CompiledSpn::can_delete_below`].
    fn delete_below(&mut self, node: usize, tuple: &[f64], patch: &mut ArenaPatch) {
        let (s, e) = self.child_range(node);
        match self.kinds[node] {
            CompiledKind::Leaf => {
                let payload = self.leaf_of[node];
                let leaf = &mut self.leaves[payload as usize];
                let removed = leaf.remove(tuple[leaf.col]);
                debug_assert!(removed, "delete validated by can_delete_below");
                patch.touch_leaf(payload);
            }
            CompiledKind::Sum => {
                let edge = self.route(node, tuple);
                self.counts[edge] -= 1;
                patch.touch_sum(node as u32);
                self.delete_below(self.children[edge] as usize, tuple, patch);
            }
            CompiledKind::Product => {
                for i in s..e {
                    self.delete_below(self.children[i] as usize, tuple, patch);
                }
            }
        }
    }

    /// Insert one tuple (full row over all columns, NaN = NULL), patching
    /// the arena in place: O(depth + touched bins), no allocation on the
    /// routed walk.
    pub fn insert(&mut self, tuple: &[f64]) {
        self.check_tuple(tuple);
        let mut patch = ArenaPatch::default();
        self.insert_one_below(self.n_nodes() - 1, tuple, &mut patch);
        self.commit_patch(patch, self.n_rows() + 1);
    }

    /// Batched in-place insert: routes all `tuples` in one traversal
    /// (partitioning them at each sum node) and folds the finalization per
    /// node — one weight renormalization per touched sum and one prefix
    /// rebuild per touched leaf for the whole batch.
    pub fn insert_batch<R: AsRef<[f64]>>(&mut self, tuples: &[R]) {
        if let [tuple] = tuples {
            // Partition buffers are pure overhead for a batch of one.
            return self.insert(tuple.as_ref());
        }
        let tuples: Vec<&[f64]> = tuples.iter().map(AsRef::as_ref).collect();
        for t in &tuples {
            self.check_tuple(t);
        }
        if tuples.is_empty() {
            return;
        }
        let mut patch = ArenaPatch::default();
        self.insert_below(self.n_nodes() - 1, &tuples, &mut patch);
        self.commit_patch(patch, self.n_rows() + tuples.len() as u64);
    }

    /// Delete one tuple in place. Returns `false` (a consistent no-op) if
    /// the routed path cannot absorb the delete.
    pub fn delete(&mut self, tuple: &[f64]) -> bool {
        self.delete_batch(&[tuple]) == 1
    }

    /// Batched in-place delete; returns how many tuples were actually
    /// removed. Deletes are validated (and applied) tuple by tuple so the
    /// all-or-nothing path consistency holds even when tuples within the
    /// batch compete for the same leaf mass, but the finalization
    /// (renormalization, prefix rebuilds) is still folded to once per
    /// touched node per batch.
    pub fn delete_batch<R: AsRef<[f64]>>(&mut self, tuples: &[R]) -> usize {
        let tuples: Vec<&[f64]> = tuples.iter().map(AsRef::as_ref).collect();
        for t in &tuples {
            self.check_tuple(t);
        }
        let root = self.n_nodes() - 1;
        let mut patch = ArenaPatch::default();
        let mut applied = 0usize;
        for t in &tuples {
            if !self.can_delete_below(root, t) {
                continue;
            }
            self.delete_below(root, t, &mut patch);
            applied += 1;
        }
        self.commit_patch(patch, self.n_rows() - applied as u64);
        applied
    }
}

#[cfg(test)]
mod tests {
    use crate::{ColumnMeta, DataView, LeafPred, Spn, SpnParams, SpnQuery};

    fn lcg(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed;
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64
        }
    }

    fn clustered_data(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<ColumnMeta>) {
        let mut rng = lcg(seed);
        let mut region = Vec::new();
        let mut age = Vec::new();
        for _ in 0..n {
            if rng() < 0.3 {
                region.push(0.0);
                age.push(60.0 + (rng() * 40.0).floor());
            } else {
                region.push(1.0);
                age.push(20.0 + (rng() * 30.0).floor());
            }
        }
        (
            vec![region, age],
            vec![ColumnMeta::discrete("region"), ColumnMeta::discrete("age")],
        )
    }

    #[test]
    fn inserts_shift_probabilities_toward_new_distribution() {
        let (cols, meta) = clustered_data(4000, 1);
        let data = DataView::new(&cols, &meta);
        let mut spn = Spn::learn(data, &SpnParams::default());
        let q = SpnQuery::new(2)
            .with_pred(0, LeafPred::eq(0.0))
            .with_pred(1, LeafPred::lt(30.0));
        let before = spn.probability(&q);
        assert!(before < 0.02);
        // Insert 2000 young Europeans — the paper's motivating update case.
        for i in 0..2000 {
            spn.insert(&[0.0, 20.0 + (i % 10) as f64]);
        }
        let after = spn.probability(&q);
        // True share is 2000/6000 ≈ 0.33.
        assert!(after > 0.2, "P(EU ∧ young) after inserts = {after}");
        assert_eq!(spn.n_rows(), 6000);
    }

    #[test]
    fn insert_then_delete_restores_probabilities() {
        let (cols, meta) = clustered_data(3000, 5);
        let data = DataView::new(&cols, &meta);
        let mut spn = Spn::learn(data, &SpnParams::default());
        let q = SpnQuery::new(2).with_pred(1, LeafPred::ge(60.0));
        let before = spn.probability(&q);
        let tuples: Vec<[f64; 2]> = (0..500).map(|i| [1.0, 90.0 + (i % 5) as f64]).collect();
        for t in &tuples {
            spn.insert(t);
        }
        assert!(spn.probability(&q) > before);
        for t in &tuples {
            spn.delete(t);
        }
        let after = spn.probability(&q);
        assert!((before - after).abs() < 1e-9, "{before} vs {after}");
        assert_eq!(spn.n_rows(), 3000);
    }

    #[test]
    fn update_moves_mass_between_values() {
        let (cols, meta) = clustered_data(2000, 9);
        let data = DataView::new(&cols, &meta);
        let mut spn = Spn::learn(data, &SpnParams::default());
        let p_eu_before = spn.probability(&SpnQuery::new(2).with_pred(0, LeafPred::eq(0.0)));
        spn.update(&[0.0, 70.0], &[1.0, 25.0]);
        let p_eu_after = spn.probability(&SpnQuery::new(2).with_pred(0, LeafPred::eq(0.0)));
        assert!(p_eu_after < p_eu_before);
        assert_eq!(spn.n_rows(), 2000);
    }

    #[test]
    fn null_tuples_update_null_mass() {
        let cols = vec![vec![1.0, 2.0, 3.0, 4.0], vec![1.0, 1.0, 2.0, f64::NAN]];
        let meta = vec![ColumnMeta::discrete("a"), ColumnMeta::discrete("b")];
        let mut spn = Spn::learn(DataView::new(&cols, &meta), &SpnParams::default());
        let q = SpnQuery::new(2).with_pred(1, LeafPred::IsNull);
        let before = spn.probability(&q);
        spn.insert(&[5.0, f64::NAN]);
        let after = spn.probability(&q);
        assert!(after > before, "{after} <= {before}");
    }

    /// Regression: deleting a tuple the model does not hold used to
    /// `saturating_sub` the routed sum count (stuck at zero) while still
    /// draining the routed leaf's histogram — leaving sum counts and leaf
    /// totals inconsistent. Deletes are now all-or-nothing along the path.
    #[test]
    fn absent_tuple_delete_is_a_consistent_noop() {
        let (cols, meta) = clustered_data(1500, 3);
        let data = DataView::new(&cols, &meta);
        let mut spn = Spn::learn(data, &SpnParams::default());
        let mut arena = spn.compile();
        assert_eq!(arena.consistency_error(), None, "clean after learning");
        let q = SpnQuery::new(2).with_pred(1, LeafPred::ge(60.0));
        let before = arena.evaluate(&q);

        // Age 250 exists in no cluster: the delete must refuse entirely, on
        // the arena and the tree oracle alike.
        assert!(!arena.delete(&[0.0, 250.0]));
        assert!(!spn.delete(&[0.0, 250.0]));
        assert_eq!(arena.n_rows(), 1500);
        assert_eq!(arena.consistency_error(), None);
        assert_eq!(arena.evaluate(&q).to_bits(), before.to_bits());
        assert!(arena.bitwise_eq(&spn.compile()));

        // An update whose old tuple is absent refuses too (no blind insert).
        assert!(!spn.update(&[1.0, 250.0], &[1.0, 25.0]));
        assert_eq!(spn.n_rows(), 1500);
        assert_eq!(spn.compile().consistency_error(), None);
    }

    #[test]
    fn patched_arena_tracks_insert_and_delete() {
        let (cols, meta) = clustered_data(2500, 7);
        let data = DataView::new(&cols, &meta);
        let mut spn = Spn::learn(data, &SpnParams::default());
        let mut arena = spn.compile();
        let q = SpnQuery::new(2)
            .with_pred(0, LeafPred::eq(0.0))
            .with_pred(1, LeafPred::lt(30.0));

        for i in 0..800 {
            let t = [0.0, 20.0 + (i % 10) as f64];
            arena.insert(&t);
            spn.insert(&t);
        }
        // The arena answered without any recompilation…
        assert!(arena.evaluate(&q) > 0.1);
        // …and matches a compile of the equally updated tree bit for bit.
        assert!(arena.bitwise_eq(&spn.compile()));

        let tuples: Vec<[f64; 2]> = (0..800).map(|i| [0.0, 20.0 + (i % 10) as f64]).collect();
        assert_eq!(arena.delete_batch(&tuples), 800);
        for t in &tuples {
            assert!(spn.delete(t));
        }
        assert_eq!(arena.n_rows(), 2500);
        assert!(arena.bitwise_eq(&spn.compile()));
        assert_eq!(arena.consistency_error(), None);
    }

    /// The arena's neutral (empty-query) tables must track in-place
    /// patches: a weight-moving patch triggers a rebuild, so a pruned
    /// sweep's seeded boundary can never read pre-update values. Poisoning
    /// the cached root entries first makes the refresh observable even when
    /// the genuine neutral values happen not to move bitwise.
    #[test]
    fn neutral_tables_refresh_after_in_place_patches() {
        let (cols, meta) = clustered_data(2000, 11);
        let data = DataView::new(&cols, &meta);
        let mut spn = Spn::learn(data, &SpnParams::default());
        let mut arena = spn.compile();

        let root = arena.neutral_expect.len() - 1;
        arena.neutral_expect[root] = -123.0;
        arena.neutral_mpe[root] = -123.0;

        for i in 0..200 {
            let t = [0.0, 20.0 + (i % 10) as f64];
            arena.insert(&t);
            spn.insert(&t);
        }
        let empty = SpnQuery::new(2);
        assert_eq!(
            arena.neutral_expect[root].to_bits(),
            arena.evaluate(&empty).to_bits(),
            "neutral root must be rebuilt to the empty-query sweep value"
        );
        assert!(
            arena.bitwise_eq(&spn.compile()),
            "patched arena (neutral tables included) must match the oracle's compile"
        );
    }
}
