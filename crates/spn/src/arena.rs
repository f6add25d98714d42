//! Arena-compiled SPN: the tree flattened into contiguous struct-of-arrays
//! storage, evaluated without recursion.
//!
//! [`CompiledSpn`] is built once from an [`Spn`] and then **patched in
//! place** as updates stream in (paper Algorithm 1 never changes the
//! structure, only sum weights and leaf histograms — see [`crate::update`]'s
//! lockstep tree+arena walk). Nodes are laid out in **topological bottom-up
//! order** (every child precedes its parent, the root is last), so a single
//! forward sweep over the arrays evaluates the whole network; there is no
//! pointer chasing and no per-visit allocation.
//!
//! Sum-node counts are stored next to the frozen `count / total` mixture
//! weights; a patch adjusts the counts of the routed edges and
//! [`ArenaPatch`] defers the per-sum weight renormalization and the per-leaf
//! prefix-sum rebuild to one commit per batch — one renormalization per
//! touched sum, not per tuple. Renormalization replays the exact arithmetic
//! of [`CompiledSpn::compile`], so a patched arena is **bitwise identical**
//! to a full recompile of the patched tree (property-tested in
//! `tests/prop_update.rs`). Evaluation stays a pure `&self` operation — the
//! prerequisite for the batched evaluator in [`crate::batch`] and for
//! parallel/sharded ensembles.
//!
//! The recursive evaluator in [`crate::infer`] stays as the reference oracle;
//! differential property tests assert both paths agree. Arithmetic here
//! mirrors the recursive path operation-for-operation (same accumulation
//! order, same zero-skips), so agreement is exact, not merely approximate.
//!
//! ## Query-scoped pruning
//!
//! A query only constrains a handful of columns, so most of a wide model's
//! sub-DAG evaluates to its **query-independent** value: a marginalized leaf
//! contributes exactly `1.0`, and every inner node whose scope is disjoint
//! from the constrained columns computes the same value it would under an
//! empty query. [`CompiledSpn`] caches those values per semiring in the
//! **neutral tables** (`neutral_expect` / `neutral_mpe`, refreshed by
//! [`CompiledSpn::commit_patch`] whenever sum weights change), and
//! [`ActiveSet`] compacts the nodes that *do* depend on a given column set
//! into same-kind [`NodeRun`]s plus the boundary list of inactive children
//! whose scratch rows get seeded from the neutral table. The sweep in
//! [`crate::kernel`] then visits only active nodes; because a seeded row
//! holds bit-for-bit the value the full sweep would have computed, pruned
//! and full sweeps agree **bitwise by construction** (property-tested in
//! `tests/prop_prune.rs`).

use std::sync::atomic::{AtomicU64, Ordering};

use crate::node::{Node, Spn};
use crate::Leaf;

/// Node kind tag in the flattened arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CompiledKind {
    Sum,
    Product,
    Leaf,
}

/// A maximal run of consecutive same-kind nodes in topological order. The
/// sweep kernels in [`crate::kernel`] dispatch once per run instead of once
/// per node, so one kernel call covers every consecutive sum (or product, or
/// leaf) node. Derived from `kinds` at compile time; updates never change
/// the structure, so runs stay valid across in-place patches.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NodeRun {
    pub kind: CompiledKind,
    /// Arena ids `[start, end)` covered by this run.
    pub start: u32,
    pub end: u32,
}

/// Sentinel for "not a leaf" in the `leaf_of` array.
const NOT_A_LEAF: u32 = u32::MAX;

/// A compiled, immutable SPN in struct-of-arrays form.
///
/// Evaluation lives in [`crate::batch::BatchEvaluator`]; this type also
/// offers a convenience single-query [`CompiledSpn::evaluate`].
#[derive(Debug)]
pub struct CompiledSpn {
    /// Node kinds in bottom-up topological order; `kinds.len() - 1` is root.
    pub(crate) kinds: Vec<CompiledKind>,
    /// Per-node range `[child_start[i], child_end[i])` into `children` /
    /// `weights`; empty for leaves.
    pub(crate) child_start: Vec<u32>,
    pub(crate) child_end: Vec<u32>,
    /// Flattened child node ids (always smaller than the parent id).
    pub(crate) children: Vec<u32>,
    /// Mixture weight per child edge (`count / total` for sum children — 0.0
    /// edges are skipped, matching the recursive evaluator; 1.0 for product
    /// edges).
    pub(crate) weights: Vec<f64>,
    /// Raw row count per child edge, aligned with `weights` (mirrors
    /// `SumNode::counts`; 0 for product edges). The patch path adjusts these
    /// and re-derives `weights` with the exact arithmetic of `compile`.
    pub(crate) counts: Vec<u64>,
    /// Per-node leaf payload index into `leaves` (`NOT_A_LEAF` for inner
    /// nodes).
    pub(crate) leaf_of: Vec<u32>,
    /// Cloned leaves with prefix sums rebuilt — immutable at query time.
    pub(crate) leaves: Vec<Leaf>,
    /// Column modeled by each leaf payload (mirrors `leaves[i].col`).
    pub(crate) leaf_col: Vec<u32>,
    /// Maximal same-kind node runs in sweep order (derived from `kinds`;
    /// rebuilt by [`CompiledSpn::compile`], never touched by patches).
    pub(crate) runs: Vec<NodeRun>,
    /// Cached [`Leaf::mode`] per leaf payload (`NaN` = empty leaf), so the
    /// max-product pass resolves a winning branch's target value in O(1)
    /// instead of re-scanning the histogram. Refreshed by
    /// [`CompiledSpn::commit_patch`] alongside the prefix sums.
    pub(crate) leaf_mode: Vec<f64>,
    /// Query-independent node value per node for the (+,×) semiring: what an
    /// empty-query sweep writes into each node's scratch row. Seeds the
    /// scratch rows of pruned-out subtrees (see [`ActiveSet`]). Refreshed by
    /// [`CompiledSpn::commit_patch`] whenever sum weights change.
    pub(crate) neutral_expect: Vec<f64>,
    /// Same for the (max,×) semiring's score lane. The companion aux lane is
    /// constantly `NO_LEAF`: a pruned subtree never contains a target leaf,
    /// because the MPE target column is always part of the active column set.
    pub(crate) neutral_mpe: Vec<f64>,
    n_cols: usize,
    n_rows: u64,
    /// Fused batch sweeps executed against this arena (diagnostics; lets
    /// tests assert "one sweep per touched model per query"). A sweep is one
    /// fused pass over a whole probe batch, regardless of how many tiles or
    /// worker threads carried it out.
    sweeps: AtomicU64,
    /// Node rows written by sweep kernels so far, accumulated per tile
    /// (diagnostics, `probe_passes`-style: lets tests assert a pruned sweep
    /// visited exactly the active nodes and nothing else).
    nodes_swept: AtomicU64,
}

impl Clone for CompiledSpn {
    fn clone(&self) -> Self {
        CompiledSpn {
            kinds: self.kinds.clone(),
            child_start: self.child_start.clone(),
            child_end: self.child_end.clone(),
            children: self.children.clone(),
            weights: self.weights.clone(),
            counts: self.counts.clone(),
            leaf_of: self.leaf_of.clone(),
            leaves: self.leaves.clone(),
            leaf_col: self.leaf_col.clone(),
            runs: self.runs.clone(),
            leaf_mode: self.leaf_mode.clone(),
            neutral_expect: self.neutral_expect.clone(),
            neutral_mpe: self.neutral_mpe.clone(),
            n_cols: self.n_cols,
            n_rows: self.n_rows,
            sweeps: AtomicU64::new(self.sweeps.load(Ordering::Relaxed)),
            nodes_swept: AtomicU64::new(self.nodes_swept.load(Ordering::Relaxed)),
        }
    }
}

impl CompiledSpn {
    /// Flatten `spn` into arena form. Cost is one tree walk plus one clone of
    /// the leaf histograms; cheap enough to re-run after a batch of updates.
    pub fn compile(spn: &Spn) -> Self {
        let mut c = CompiledSpn {
            kinds: Vec::new(),
            child_start: Vec::new(),
            child_end: Vec::new(),
            children: Vec::new(),
            weights: Vec::new(),
            counts: Vec::new(),
            leaf_of: Vec::new(),
            leaves: Vec::new(),
            leaf_col: Vec::new(),
            runs: Vec::new(),
            leaf_mode: Vec::new(),
            neutral_expect: Vec::new(),
            neutral_mpe: Vec::new(),
            n_cols: spn.n_columns(),
            n_rows: spn.n_rows(),
            sweeps: AtomicU64::new(0),
            nodes_swept: AtomicU64::new(0),
        };
        c.flatten(&spn.root);
        c.build_runs();
        c.refresh_neutral();
        c
    }

    /// Recompute the per-node neutral (empty-query) values for both
    /// semirings. The recurrences mirror the sweep kernels in
    /// [`crate::kernel`] operation-for-operation with every leaf pinned to
    /// the marginalized value `1.0` — exactly what [`crate::kernel::LeafValueTable`]
    /// gathers for an unconstrained column — so a neutral entry is bitwise
    /// what a full sweep writes for a node outside the query's scope.
    pub(crate) fn refresh_neutral(&mut self) {
        let n = self.n_nodes();
        self.neutral_expect.clear();
        self.neutral_expect.resize(n, 0.0);
        self.neutral_mpe.clear();
        self.neutral_mpe.resize(n, 0.0);
        for node in 0..n {
            match self.kinds[node] {
                CompiledKind::Leaf => {
                    self.neutral_expect[node] = 1.0;
                    self.neutral_mpe[node] = 1.0;
                }
                CompiledKind::Sum => {
                    let (s, e) = self.child_range(node);
                    // (+,×): weighted accumulation, zero-weight edges skipped.
                    let mut acc = 0.0;
                    for i in s..e {
                        let w = self.weights[i];
                        if w == 0.0 {
                            continue;
                        }
                        acc += w * self.neutral_expect[self.children[i] as usize];
                    }
                    self.neutral_expect[node] = acc;
                    // (max,×): strict-greater incumbent over weighted children;
                    // an all-zero-weight sum stays at the kernel default 0.0.
                    let mut found = false;
                    let mut best = 0.0;
                    for i in s..e {
                        let w = self.weights[i];
                        if w == 0.0 {
                            continue;
                        }
                        let weighted = w * self.neutral_mpe[self.children[i] as usize];
                        if !found || weighted > best {
                            found = true;
                            best = weighted;
                        }
                    }
                    self.neutral_mpe[node] = best;
                }
                CompiledKind::Product => {
                    let (s, e) = self.child_range(node);
                    // (+,×): multiply with the kernel's zero short-circuit.
                    let mut acc = 1.0;
                    for i in s..e {
                        acc *= self.neutral_expect[self.children[i] as usize];
                        if acc == 0.0 {
                            break;
                        }
                    }
                    self.neutral_expect[node] = acc;
                    // (max,×): plain product, no short-circuit.
                    let mut accm = 1.0;
                    for i in s..e {
                        accm *= self.neutral_mpe[self.children[i] as usize];
                    }
                    self.neutral_mpe[node] = accm;
                }
            }
        }
    }

    /// Scan `kinds` into maximal same-kind runs so the sweep kernels can
    /// dispatch once per run.
    fn build_runs(&mut self) {
        self.runs.clear();
        let mut start = 0usize;
        while start < self.kinds.len() {
            let kind = self.kinds[start];
            let mut end = start + 1;
            while end < self.kinds.len() && self.kinds[end] == kind {
                end += 1;
            }
            self.runs.push(NodeRun {
                kind,
                start: start as u32,
                end: end as u32,
            });
            start = end;
        }
    }

    /// Same-kind node runs in sweep (bottom-up topological) order.
    pub(crate) fn node_runs(&self) -> &[NodeRun] {
        &self.runs
    }

    /// `[start, end)` range of a node's edges in `children` / `weights`.
    #[inline(always)]
    pub(crate) fn child_range(&self, node: usize) -> (usize, usize) {
        (
            self.child_start[node] as usize,
            self.child_end[node] as usize,
        )
    }

    /// Post-order flattening; returns the arena id of `node`.
    fn flatten(&mut self, node: &Node) -> u32 {
        match node {
            Node::Leaf(leaf) => {
                let mut leaf = leaf.clone();
                leaf.ensure_prefix();
                let payload = self.leaves.len() as u32;
                self.leaf_col.push(leaf.col as u32);
                self.leaf_mode.push(leaf.mode().unwrap_or(f64::NAN));
                self.leaves.push(leaf);
                self.push_node(
                    CompiledKind::Leaf,
                    Vec::new(),
                    Vec::new(),
                    Vec::new(),
                    payload,
                )
            }
            Node::Product(p) => {
                let ids: Vec<u32> = p.children.iter().map(|ch| self.flatten(ch)).collect();
                let weights = vec![1.0; ids.len()];
                let counts = vec![0; ids.len()];
                self.push_node(CompiledKind::Product, ids, weights, counts, NOT_A_LEAF)
            }
            Node::Sum(s) => {
                let ids: Vec<u32> = s.children.iter().map(|ch| self.flatten(ch)).collect();
                let total: u64 = s.counts.iter().sum();
                // Freeze the weights exactly as the recursive evaluator
                // computes them so both paths are bit-identical. A zeroed-out
                // sum node keeps all-zero weights and evaluates to 0.
                let weights: Vec<f64> = s
                    .counts
                    .iter()
                    .map(|&cnt| {
                        if total == 0 {
                            0.0
                        } else {
                            cnt as f64 / total as f64
                        }
                    })
                    .collect();
                self.push_node(
                    CompiledKind::Sum,
                    ids,
                    weights,
                    s.counts.clone(),
                    NOT_A_LEAF,
                )
            }
        }
    }

    fn push_node(
        &mut self,
        kind: CompiledKind,
        child_ids: Vec<u32>,
        weights: Vec<f64>,
        counts: Vec<u64>,
        payload: u32,
    ) -> u32 {
        let id = self.kinds.len() as u32;
        self.kinds.push(kind);
        self.child_start.push(self.children.len() as u32);
        self.children.extend_from_slice(&child_ids);
        self.weights.extend_from_slice(&weights);
        self.counts.extend_from_slice(&counts);
        self.child_end.push(self.children.len() as u32);
        self.leaf_of.push(payload);
        id
    }

    /// Nodes in the arena.
    pub fn n_nodes(&self) -> usize {
        self.kinds.len()
    }

    /// Leaf histograms in the arena.
    pub fn n_leaves(&self) -> usize {
        self.leaves.len()
    }

    /// Columns the underlying model covers.
    pub fn n_columns(&self) -> usize {
        self.n_cols
    }

    /// Rows represented at compile time.
    pub fn n_rows(&self) -> u64 {
        self.n_rows
    }

    /// Fused batch sweeps run against this arena so far.
    pub fn sweep_count(&self) -> u64 {
        self.sweeps.load(Ordering::Relaxed)
    }

    /// Record one fused batch sweep (called once per batch by the
    /// evaluation entry points in [`crate::batch`], not per tile).
    pub(crate) fn note_sweep(&self) {
        self.sweeps.fetch_add(1, Ordering::Relaxed);
    }

    /// Node rows written by sweep kernels against this arena so far
    /// (accumulated per tile). With pruning, a tile contributes the active
    /// node count instead of `n_nodes`, so tests can account for exactly
    /// which nodes a pruned sweep visited.
    pub fn nodes_swept(&self) -> u64 {
        self.nodes_swept.load(Ordering::Relaxed)
    }

    /// Record `n` node rows written by one tile's sweep.
    pub(crate) fn note_nodes(&self, n: u64) {
        self.nodes_swept.fetch_add(n, Ordering::Relaxed);
    }

    /// Convenience single-query evaluation (allocates a fresh scratch; for
    /// hot paths hold a [`crate::BatchEvaluator`] and batch queries).
    pub fn evaluate(&self, query: &crate::SpnQuery) -> f64 {
        crate::batch::BatchEvaluator::new().evaluate(self, std::slice::from_ref(query), None)[0]
    }

    /// Cached mode of a leaf payload (`None` for an empty leaf) — the O(1)
    /// lookup the max-product backtrace resolves winning branches against.
    pub(crate) fn leaf_mode(&self, payload: u32) -> Option<f64> {
        let m = self.leaf_mode[payload as usize];
        if m.is_nan() {
            None
        } else {
            Some(m)
        }
    }

    /// Convenience single-probe MPE: most probable value of column `target`
    /// given the evidence in `query`, on the compiled max-product path
    /// (allocates a fresh scratch; hot paths should hold a
    /// [`crate::MaxProductEvaluator`] and batch probes).
    pub fn most_probable_value(&self, target: usize, query: &crate::SpnQuery) -> Option<f64> {
        let probe = crate::MpeProbe::new(target, query.clone());
        crate::maxprod::MaxProductEvaluator::new().evaluate(
            self,
            std::slice::from_ref(&probe),
            None,
        )[0]
        .value
    }

    // -- In-place patching ---------------------------------------------------
    //
    // The update walk in `crate::update` routes tuples through the tree and
    // the arena in lockstep, calling the low-level mutators below; the
    // expensive per-node finalization (weight renormalization, leaf prefix
    // rebuilds) is deferred into an `ArenaPatch` and folded to once per
    // touched node per batch by `commit_patch`.

    /// Arena id of the `k`-th child of `node` (child order mirrors the
    /// tree's, by construction of [`CompiledSpn::compile`]).
    pub(crate) fn child_id(&self, node: u32, k: usize) -> u32 {
        self.children[self.child_start[node as usize] as usize + k]
    }

    /// Leaf payload index of a leaf node.
    pub(crate) fn leaf_payload(&self, node: u32) -> u32 {
        let payload = self.leaf_of[node as usize];
        debug_assert_ne!(payload, NOT_A_LEAF, "node {node} is not a leaf");
        payload
    }

    /// Mutable access to a leaf histogram by payload index (patching applies
    /// the same `Leaf::insert`/`Leaf::remove` as the tree copy receives, so
    /// both stay bitwise identical).
    pub(crate) fn leaf_mut(&mut self, payload: u32) -> &mut Leaf {
        &mut self.leaves[payload as usize]
    }

    /// Adjust the raw count of sum edge `(node, k)`. Weights are stale until
    /// [`CompiledSpn::commit_patch`] renormalizes the touched sums.
    pub(crate) fn sum_count_delta(&mut self, node: u32, k: usize, delta: i64) {
        debug_assert_eq!(self.kinds[node as usize], CompiledKind::Sum);
        let e = self.child_start[node as usize] as usize + k;
        self.counts[e] = (self.counts[e] as i64 + delta).max(0) as u64;
    }

    /// Recompute one sum node's weights from its counts — the same
    /// `cnt / total` arithmetic as [`CompiledSpn::compile`], so a patched
    /// arena and a recompiled one agree bitwise.
    fn renormalize_sum(&mut self, node: u32) {
        let (s, e) = (
            self.child_start[node as usize] as usize,
            self.child_end[node as usize] as usize,
        );
        let total: u64 = self.counts[s..e].iter().sum();
        for i in s..e {
            self.weights[i] = if total == 0 {
                0.0
            } else {
                self.counts[i] as f64 / total as f64
            };
        }
    }

    /// Apply the deferred finalization of a patch batch: renormalize every
    /// touched sum once, rebuild every touched leaf's prefix sums **and its
    /// cached mode** once, refresh the neutral tables if any weights moved,
    /// and sync the represented row count.
    pub(crate) fn commit_patch(&mut self, patch: ArenaPatch, n_rows: u64) {
        let weights_moved = !patch.touched_sums.is_empty();
        for node in patch.touched_sums {
            self.renormalize_sum(node);
        }
        for payload in patch.touched_leaves {
            let leaf = &mut self.leaves[payload as usize];
            leaf.ensure_prefix();
            self.leaf_mode[payload as usize] = leaf.mode().unwrap_or(f64::NAN);
        }
        // Neutral values depend only on the sum weights (every leaf pins to
        // 1.0), so leaf-only patches leave them untouched; a renormalized sum
        // can shift neutrals arbitrarily far up the DAG, so recompute whole.
        if weights_moved {
            self.refresh_neutral();
        }
        self.n_rows = n_rows;
    }

    /// Bitwise structural equality with another arena (weights compared by
    /// bit pattern; the sweep diagnostics counter is ignored). This is the
    /// acceptance check of the incremental patch path: after any update
    /// stream, the patched arena must equal a full recompile exactly.
    pub fn bitwise_eq(&self, other: &Self) -> bool {
        self.kinds == other.kinds
            && self.child_start == other.child_start
            && self.child_end == other.child_end
            && self.children == other.children
            && self.counts == other.counts
            && self.leaf_of == other.leaf_of
            && self.leaf_col == other.leaf_col
            && self.leaf_mode.len() == other.leaf_mode.len()
            && self
                .leaf_mode
                .iter()
                .zip(&other.leaf_mode)
                .all(|(a, b)| a.to_bits() == b.to_bits())
            && self.n_cols == other.n_cols
            && self.n_rows == other.n_rows
            && self.weights.len() == other.weights.len()
            && self
                .weights
                .iter()
                .zip(&other.weights)
                .all(|(a, b)| a.to_bits() == b.to_bits())
            && self.leaves.len() == other.leaves.len()
            && self
                .leaves
                .iter()
                .zip(&other.leaves)
                .all(|(a, b)| a.bitwise_eq(b))
            && self.neutral_expect.len() == other.neutral_expect.len()
            && self
                .neutral_expect
                .iter()
                .zip(&other.neutral_expect)
                .all(|(a, b)| a.to_bits() == b.to_bits())
            && self.neutral_mpe.len() == other.neutral_mpe.len()
            && self
                .neutral_mpe
                .iter()
                .zip(&other.neutral_mpe)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }

    /// Build the [`ActiveSet`] for a set of constrained/target columns: one
    /// bottom-up walk marks every node whose scope intersects `columns`
    /// (a leaf is active iff its column is listed; an inner node iff any
    /// child is), then active nodes are compacted into maximal same-kind
    /// consecutive runs and the inactive children read by active parents are
    /// collected as neutral-table seeds.
    ///
    /// `columns` may repeat and arrive in any order; out-of-range columns
    /// are ignored (they intersect no scope). An empty/irrelevant set marks
    /// nothing and the root row itself becomes the lone seed.
    pub fn active_set(&self, columns: &[usize]) -> ActiveSet {
        let n = self.n_nodes();
        let mut col_mask = vec![false; self.n_cols];
        for &c in columns {
            if c < self.n_cols {
                col_mask[c] = true;
            }
        }
        let mut active = vec![false; n];
        let mut n_active = 0u32;
        for node in 0..n {
            let is_active = match self.kinds[node] {
                CompiledKind::Leaf => col_mask[self.leaf_col[self.leaf_of[node] as usize] as usize],
                _ => {
                    let (s, e) = self.child_range(node);
                    self.children[s..e].iter().any(|&c| active[c as usize])
                }
            };
            active[node] = is_active;
            n_active += is_active as u32;
        }
        // Compact active nodes into maximal same-kind consecutive runs
        // (contiguity breaks at inactive nodes, so node ids are preserved
        // and the kernels' children-before-parent scratch split still holds).
        let mut runs = Vec::new();
        let mut node = 0usize;
        while node < n {
            if !active[node] {
                node += 1;
                continue;
            }
            let kind = self.kinds[node];
            let mut end = node + 1;
            while end < n && active[end] && self.kinds[end] == kind {
                end += 1;
            }
            runs.push(NodeRun {
                kind,
                start: node as u32,
                end: end as u32,
            });
            node = end;
        }
        // Seeds: inactive children read by at least one active parent, plus
        // the root itself when nothing at all is active (the sweep output
        // row must still be written).
        let mut seeded = vec![false; n];
        let mut seeds = Vec::new();
        for node in 0..n {
            if !active[node] {
                continue;
            }
            let (s, e) = self.child_range(node);
            for &c in &self.children[s..e] {
                let c = c as usize;
                if !active[c] && !seeded[c] {
                    seeded[c] = true;
                    seeds.push(c as u32);
                }
            }
        }
        if n_active == 0 && n > 0 {
            seeds.push(n as u32 - 1);
        }
        seeds.sort_unstable();
        ActiveSet {
            runs,
            seeds,
            n_active,
            n_nodes: n as u32,
        }
    }
}

/// The query-scoped slice of an arena: which nodes a given set of
/// constrained/target columns can actually influence, compacted for the
/// sweep. Built by [`CompiledSpn::active_set`], cached per query shape by
/// the planner, and consumed by [`crate::kernel::SweepScratch`]: seed rows
/// get their scratch filled from the neutral tables, then only the
/// compacted runs are dispatched. Structure depends only on node scopes, so
/// an `ActiveSet` stays valid across in-place patches (which never change
/// structure); the *values* seeded from the neutral tables are the part
/// [`CompiledSpn::commit_patch`] keeps fresh.
#[derive(Debug, Clone)]
pub struct ActiveSet {
    /// Maximal same-kind runs over active node ids, sweep order.
    pub(crate) runs: Vec<NodeRun>,
    /// Inactive nodes read by an active parent (deduped, ascending); their
    /// scratch rows are seeded from the neutral table before the sweep. When
    /// nothing is active this is just the root.
    pub(crate) seeds: Vec<u32>,
    n_active: u32,
    pub(crate) n_nodes: u32,
}

impl ActiveSet {
    /// Active nodes this set sweeps.
    pub fn n_active(&self) -> usize {
        self.n_active as usize
    }

    /// Boundary rows seeded from the neutral table.
    pub fn n_seeds(&self) -> usize {
        self.seeds.len()
    }

    /// Fraction of the arena a pruned sweep visits (`n_active / n_nodes`).
    pub fn active_fraction(&self) -> f64 {
        if self.n_nodes == 0 {
            return 0.0;
        }
        self.n_active as f64 / self.n_nodes as f64
    }

    /// Compacted same-kind runs over active nodes, sweep order.
    pub(crate) fn runs(&self) -> &[NodeRun] {
        &self.runs
    }

    /// Seed node ids (inactive children of active parents), ascending.
    pub(crate) fn seeds(&self) -> &[u32] {
        &self.seeds
    }
}

/// Deferred finalization of an in-place arena patch batch: records which
/// sums and leaves a batch of routed tuples touched, so renormalization and
/// prefix rebuilds run once per node per batch (not per tuple). Created by
/// the patched update entry points in [`crate::update`], consumed by
/// [`CompiledSpn::commit_patch`].
#[derive(Debug, Default)]
pub(crate) struct ArenaPatch {
    touched_sums: Vec<u32>,
    touched_leaves: Vec<u32>,
    sum_seen: std::collections::HashSet<u32>,
    leaf_seen: std::collections::HashSet<u32>,
}

impl ArenaPatch {
    pub(crate) fn touch_sum(&mut self, node: u32) {
        if self.sum_seen.insert(node) {
            self.touched_sums.push(node);
        }
    }

    pub(crate) fn touch_leaf(&mut self, payload: u32) {
        if self.leaf_seen.insert(payload) {
            self.touched_leaves.push(payload);
        }
    }
}

impl Spn {
    /// Compile this SPN into the arena representation. The result is a
    /// snapshot: later tree-only [`Spn::insert`]/[`Spn::delete`] calls do
    /// not affect it. The patched update entry points
    /// ([`Spn::insert_patch`], [`Spn::insert_batch`], …) keep an arena in
    /// sync in place, so recompilation is only needed after structural
    /// changes (or to bootstrap an arena for a freshly loaded tree).
    pub fn compile(&self) -> CompiledSpn {
        CompiledSpn::compile(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ColumnMeta, DataView, LeafFunc, LeafPred, SpnParams, SpnQuery};

    fn lcg(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed;
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64
        }
    }

    fn sample_spn(n: usize, seed: u64) -> Spn {
        let mut rng = lcg(seed);
        let mut a = Vec::with_capacity(n);
        let mut b = Vec::with_capacity(n);
        for _ in 0..n {
            if rng() < 0.3 {
                a.push(0.0);
                b.push(60.0 + (rng() * 40.0).floor());
            } else {
                a.push(1.0);
                b.push(20.0 + (rng() * 30.0).floor());
            }
        }
        let cols = vec![a, b];
        let meta = vec![ColumnMeta::discrete("a"), ColumnMeta::discrete("b")];
        Spn::learn(DataView::new(&cols, &meta), &SpnParams::default())
    }

    #[test]
    fn arena_preserves_node_count_and_topology() {
        let spn = sample_spn(3000, 7);
        let compiled = spn.compile();
        assert_eq!(compiled.n_nodes(), spn.size());
        assert_eq!(compiled.n_columns(), spn.n_columns());
        assert_eq!(compiled.n_rows(), spn.n_rows());
        // Bottom-up order: every child id is smaller than its parent's.
        for node in 0..compiled.n_nodes() {
            let (s, e) = (
                compiled.child_start[node] as usize,
                compiled.child_end[node] as usize,
            );
            for &child in &compiled.children[s..e] {
                assert!(
                    (child as usize) < node,
                    "child {child} not before parent {node}"
                );
            }
        }
        // The root is the last node.
        let root_children: std::collections::HashSet<u32> =
            compiled.children.iter().copied().collect();
        assert!(!root_children.contains(&(compiled.n_nodes() as u32 - 1)));
    }

    #[test]
    fn node_runs_partition_the_arena_by_kind() {
        let spn = sample_spn(3000, 7);
        let compiled = spn.compile();
        let mut covered = 0usize;
        for run in compiled.node_runs() {
            assert_eq!(run.start as usize, covered, "runs must be contiguous");
            assert!(run.end > run.start, "runs are non-empty");
            for node in run.start as usize..run.end as usize {
                assert_eq!(compiled.kinds[node], run.kind, "run kind mismatch");
            }
            covered = run.end as usize;
        }
        assert_eq!(covered, compiled.n_nodes(), "runs must cover every node");
        // Maximality: adjacent runs differ in kind.
        for w in compiled.node_runs().windows(2) {
            assert_ne!(w[0].kind, w[1].kind, "adjacent runs should be merged");
        }
    }

    /// Per-node scope sets computed independently of the `active_set` mark
    /// recurrence: a leaf's scope is its column, an inner node's the union
    /// of its children's.
    fn scopes(compiled: &CompiledSpn) -> Vec<std::collections::HashSet<usize>> {
        let mut scopes: Vec<std::collections::HashSet<usize>> = Vec::new();
        for node in 0..compiled.n_nodes() {
            let mut s = std::collections::HashSet::new();
            if compiled.kinds[node] == CompiledKind::Leaf {
                s.insert(compiled.leaf_col[compiled.leaf_of[node] as usize] as usize);
            } else {
                let (cs, ce) = compiled.child_range(node);
                for &c in &compiled.children[cs..ce] {
                    s.extend(scopes[c as usize].iter().copied());
                }
            }
            scopes.push(s);
        }
        scopes
    }

    #[test]
    fn active_set_accounting_invariants() {
        let spn = sample_spn(3000, 7);
        let compiled = spn.compile();
        let scopes = scopes(&compiled);
        let n = compiled.n_nodes();
        for cols in [
            vec![],
            vec![0],
            vec![1],
            vec![0, 1],
            vec![1, 1, 5], // repeats and out-of-range ignored
        ] {
            let a = compiled.active_set(&cols);
            let want: Vec<bool> = (0..n)
                .map(|node| cols.iter().any(|c| scopes[node].contains(c)))
                .collect();
            let n_active = want.iter().filter(|&&b| b).count();
            assert_eq!(a.n_active(), n_active, "cols {cols:?}");
            assert!((a.active_fraction() - n_active as f64 / n as f64).abs() < 1e-15);
            // Runs cover exactly the active nodes, same-kind, ascending.
            let mut covered = vec![false; n];
            let mut prev_end = 0u32;
            for run in a.runs() {
                assert!(run.start >= prev_end, "runs must ascend");
                assert!(run.end > run.start);
                prev_end = run.end;
                for node in run.start as usize..run.end as usize {
                    assert_eq!(compiled.kinds[node], run.kind);
                    assert!(want[node], "run covers inactive node {node}");
                    covered[node] = true;
                }
            }
            let swept = covered.iter().filter(|&&b| b).count();
            assert_eq!(swept, n_active, "runs must cover every active node once");
            // Seeds are exactly the inactive children of active parents
            // (plus the root when nothing is active), deduped.
            let mut want_seeds: Vec<u32> = (0..n)
                .filter(|&c| {
                    !want[c]
                        && (0..n).any(|p| {
                            if !want[p] {
                                return false;
                            }
                            let (s, e) = compiled.child_range(p);
                            compiled.children[s..e].contains(&(c as u32))
                        })
                })
                .map(|c| c as u32)
                .collect();
            if n_active == 0 {
                want_seeds.push(n as u32 - 1);
            }
            want_seeds.sort_unstable();
            assert_eq!(a.seeds(), want_seeds.as_slice(), "cols {cols:?}");
            // The root row is always written: either swept or seeded.
            assert!(want[n - 1] || a.seeds().contains(&(n as u32 - 1)));
        }
    }

    #[test]
    fn neutral_table_matches_empty_query_sweep() {
        let spn = sample_spn(3000, 7);
        let compiled = spn.compile();
        let empty = SpnQuery::new(2);
        let root = compiled.n_nodes() - 1;
        assert_eq!(
            compiled.neutral_expect[root].to_bits(),
            compiled.evaluate(&empty).to_bits(),
            "root neutral must be bitwise the empty-query sweep result"
        );
        // Every leaf marginalizes to exactly 1.0 in both semirings.
        for node in 0..compiled.n_nodes() {
            if compiled.kinds[node] == CompiledKind::Leaf {
                assert_eq!(compiled.neutral_expect[node], 1.0);
                assert_eq!(compiled.neutral_mpe[node], 1.0);
            }
        }
    }

    #[test]
    fn compiled_matches_recursive_on_basic_queries() {
        let mut spn = sample_spn(4000, 11);
        let compiled = spn.compile();
        let queries = vec![
            SpnQuery::new(2),
            SpnQuery::new(2).with_pred(0, LeafPred::eq(0.0)),
            SpnQuery::new(2)
                .with_pred(0, LeafPred::eq(0.0))
                .with_pred(1, LeafPred::lt(30.0)),
            SpnQuery::new(2).with_func(1, LeafFunc::X),
            SpnQuery::new(2)
                .with_func(1, LeafFunc::X2)
                .with_pred(0, LeafPred::eq(1.0)),
        ];
        for q in &queries {
            let want = spn.evaluate(q);
            let got = compiled.evaluate(q);
            assert!((got - want).abs() < 1e-12, "{got} vs {want} for {q:?}");
        }
    }

    #[test]
    fn compiled_is_a_snapshot_of_compile_time_state() {
        let mut spn = sample_spn(2000, 3);
        let compiled = spn.compile();
        let q = SpnQuery::new(2).with_pred(0, LeafPred::eq(0.0));
        let before = compiled.evaluate(&q);
        // Mutate the tree: the compiled form must not change.
        for _ in 0..500 {
            spn.insert(&[0.0, 70.0]);
        }
        assert_eq!(compiled.evaluate(&q), before);
        // Recompiling picks the updates up.
        let recompiled = spn.compile();
        assert!((recompiled.evaluate(&q) - spn.evaluate(&q)).abs() < 1e-12);
        assert!(recompiled.evaluate(&q) > before);
    }
}
