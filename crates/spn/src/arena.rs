//! The arena: a learned SPN as contiguous struct-of-arrays storage — the
//! one runtime representation of a model.
//!
//! [`CompiledSpn`] is built once from a learned [`Spn`] tree (or decoded
//! straight from a snapshot, see [`crate::serialize`]) and from then on it
//! *is* the model: queries sweep it, updates patch it, snapshots are written
//! from it. Nodes are laid out in **topological bottom-up order** (every
//! child precedes its parent, the root is last), so a single forward sweep
//! over the arrays evaluates the whole network; there is no pointer chasing
//! and no per-visit allocation.
//!
//! Besides what evaluation reads (kinds, child edges, weights, leaf
//! histograms), the arena keeps what paper Algorithm 1 needs to route an
//! update: every inner node's scope and, per sum node, the z-normalization
//! of its scope columns and one k-means centroid per child edge. Sum-edge
//! row counts sit next to the `count / total` mixture weights; an update
//! adjusts the counts of the routed edges and [`ArenaPatch`] defers the
//! per-sum weight renormalization and the per-leaf prefix-sum rebuild to
//! one commit per batch (see [`crate::update`]). Renormalization replays
//! the exact arithmetic of [`CompiledSpn::compile`], so a patched arena is
//! **bitwise identical** to compiling the equally updated tree oracle
//! (property-tested in `tests/prop_update.rs`). Evaluation stays a pure
//! `&self` operation — the prerequisite for the batched evaluator in
//! [`crate::batch`] and for parallel/sharded ensembles.
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
use crate::{ColumnMeta, Leaf};

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

/// A learned SPN in struct-of-arrays form.
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
    /// Raw row count per child edge, aligned with `weights` (0 for product
    /// edges). Updates adjust these and re-derive `weights` with the exact
    /// arithmetic of `compile`.
    pub(crate) counts: Vec<u64>,
    /// Per-node leaf payload index into `leaves` (`NOT_A_LEAF` for inner
    /// nodes).
    pub(crate) leaf_of: Vec<u32>,
    /// Leaf histograms with current prefix sums.
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
    /// Name and kind of every modeled column.
    meta: Vec<ColumnMeta>,
    /// Per-node range `[scope_off[i], scope_off[i + 1])` into `scope`: an
    /// inner node's columns in learned order (empty for leaves, whose scope
    /// is their `leaf_col`).
    scope_off: Vec<u32>,
    scope: Vec<usize>,
    /// Per-node range `[norm_off[i], norm_off[i + 1])` into `norm`: a sum
    /// node's z-normalization `(mean, std)` per scope column (empty for
    /// products and leaves).
    norm_off: Vec<u32>,
    norm: Vec<(f64, f64)>,
    /// Per-node range `[centroid_off[i], centroid_off[i + 1])` into
    /// `centroids`: a sum node's k-means centroids in z-space, one per child
    /// edge in edge order, each as long as its scope (empty otherwise).
    centroid_off: Vec<u32>,
    centroids: Vec<f64>,
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
            meta: self.meta.clone(),
            scope_off: self.scope_off.clone(),
            scope: self.scope.clone(),
            norm_off: self.norm_off.clone(),
            norm: self.norm.clone(),
            centroid_off: self.centroid_off.clone(),
            centroids: self.centroids.clone(),
            n_rows: self.n_rows,
            sweeps: AtomicU64::new(self.sweeps.load(Ordering::Relaxed)),
            nodes_swept: AtomicU64::new(self.nodes_swept.load(Ordering::Relaxed)),
        }
    }
}

impl CompiledSpn {
    /// Flatten `spn` into arena form: one post-order tree walk plus one clone
    /// of the leaf histograms.
    pub fn compile(spn: &Spn) -> Self {
        let mut c = CompiledSpn::empty(spn.meta.clone(), spn.n_rows());
        c.flatten(&spn.root);
        c.finish();
        c
    }

    /// An arena with no nodes yet, to be filled in post-order by
    /// [`CompiledSpn::push_leaf`] / [`CompiledSpn::push_inner`] and then
    /// [`CompiledSpn::finish`]ed.
    pub(crate) fn empty(meta: Vec<ColumnMeta>, n_rows: u64) -> Self {
        CompiledSpn {
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
            meta,
            scope_off: vec![0],
            scope: Vec::new(),
            norm_off: vec![0],
            norm: Vec::new(),
            centroid_off: vec![0],
            centroids: Vec::new(),
            n_rows,
            sweeps: AtomicU64::new(0),
            nodes_swept: AtomicU64::new(0),
        }
    }

    /// Derive everything that is a pure function of the stored model — sum
    /// weights from the edge counts, leaf prefix sums and cached modes, node
    /// runs, neutral tables. The one finishing step of both
    /// [`CompiledSpn::compile`] and [`CompiledSpn::read_from`], so a decoded
    /// arena equals a compiled one bitwise.
    pub(crate) fn finish(&mut self) {
        for node in 0..self.n_nodes() {
            if self.kinds[node] == CompiledKind::Sum {
                self.renormalize_sum(node as u32);
            }
        }
        self.leaf_mode.clear();
        for leaf in &mut self.leaves {
            leaf.ensure_prefix();
            self.leaf_mode.push(leaf.mode().unwrap_or(f64::NAN));
        }
        self.build_runs();
        self.refresh_neutral();
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

    /// An inner node's scope in learned order (empty for a leaf).
    pub(crate) fn scope(&self, node: usize) -> &[usize] {
        &self.scope[self.scope_off[node] as usize..self.scope_off[node + 1] as usize]
    }

    /// A sum node's per-scope-column z-normalization (empty otherwise).
    pub(crate) fn norm(&self, node: usize) -> &[(f64, f64)] {
        &self.norm[self.norm_off[node] as usize..self.norm_off[node + 1] as usize]
    }

    /// A sum node's centroids, one per child edge in edge order.
    pub(crate) fn centroids(&self, node: usize) -> impl Iterator<Item = &[f64]> {
        debug_assert_eq!(self.kinds[node], CompiledKind::Sum);
        let (s, e) = self.child_range(node);
        let d = self.scope(node).len();
        let base = self.centroid_off[node] as usize;
        (0..e - s).map(move |j| &self.centroids[base + j * d..base + (j + 1) * d])
    }

    /// Post-order flattening; returns the arena id of `node`.
    fn flatten(&mut self, node: &Node) -> u32 {
        match node {
            Node::Leaf(leaf) => self.push_leaf(leaf.clone()),
            Node::Product(p) => {
                let ids: Vec<u32> = p.children.iter().map(|ch| self.flatten(ch)).collect();
                self.push_inner(CompiledKind::Product, &p.scope, &ids, &[], &[], &[])
            }
            Node::Sum(s) => {
                let ids: Vec<u32> = s.children.iter().map(|ch| self.flatten(ch)).collect();
                debug_assert!(s.centroids.iter().all(|c| c.len() == s.scope.len()));
                self.push_inner(
                    CompiledKind::Sum,
                    &s.scope,
                    &ids,
                    &s.counts,
                    &s.norm,
                    &s.centroids.concat(),
                )
            }
        }
    }

    /// Append a leaf node (its prefix sums and mode are derived in
    /// [`CompiledSpn::finish`]); returns its arena id.
    pub(crate) fn push_leaf(&mut self, leaf: Leaf) -> u32 {
        let payload = self.leaves.len() as u32;
        self.leaf_col.push(leaf.col as u32);
        self.leaves.push(leaf);
        self.push_node(CompiledKind::Leaf, &[], &[], payload)
    }

    /// Append an inner node whose children are already in the arena.
    /// Products pass empty `counts`, `norm` and `centroids` (their edges
    /// weigh 1.0); a sum's `centroids` are its per-edge centroids
    /// concatenated. Sum weights are derived in [`CompiledSpn::finish`].
    pub(crate) fn push_inner(
        &mut self,
        kind: CompiledKind,
        scope: &[usize],
        child_ids: &[u32],
        counts: &[u64],
        norm: &[(f64, f64)],
        centroids: &[f64],
    ) -> u32 {
        self.scope.extend_from_slice(scope);
        self.norm.extend_from_slice(norm);
        self.centroids.extend_from_slice(centroids);
        self.push_node(kind, child_ids, counts, NOT_A_LEAF)
    }

    fn push_node(
        &mut self,
        kind: CompiledKind,
        child_ids: &[u32],
        counts: &[u64],
        payload: u32,
    ) -> u32 {
        let id = self.kinds.len() as u32;
        self.kinds.push(kind);
        self.child_start.push(self.children.len() as u32);
        self.children.extend_from_slice(child_ids);
        self.child_end.push(self.children.len() as u32);
        self.weights.resize(self.children.len(), 1.0);
        if counts.is_empty() {
            self.counts.resize(self.children.len(), 0);
        } else {
            self.counts.extend_from_slice(counts);
        }
        self.leaf_of.push(payload);
        self.scope_off.push(self.scope.len() as u32);
        self.norm_off.push(self.norm.len() as u32);
        self.centroid_off.push(self.centroids.len() as u32);
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

    /// Columns the model covers.
    pub fn n_columns(&self) -> usize {
        self.meta.len()
    }

    /// Name and kind of every modeled column.
    pub fn meta(&self) -> &[ColumnMeta] {
        &self.meta
    }

    /// Rows currently represented (training rows ± updates).
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

    /// Recompute one sum node's weights from its counts — the `cnt / total`
    /// arithmetic of the recursive evaluator, so a patched arena, a compiled
    /// one and the tree oracle agree bitwise. A zeroed-out sum node keeps
    /// all-zero weights and evaluates to 0.
    fn renormalize_sum(&mut self, node: u32) {
        let (s, e) = self.child_range(node as usize);
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
    /// and set the represented row count.
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

    /// Bitwise equality with another arena (floats compared by bit pattern;
    /// the sweep diagnostics counters are ignored). This is the acceptance
    /// check of the update and snapshot paths: a patched arena must equal a
    /// compile of the equally updated tree oracle, and a decoded arena the
    /// one that was written.
    pub fn bitwise_eq(&self, other: &Self) -> bool {
        fn bits_eq(a: &[f64], b: &[f64]) -> bool {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
        }
        self.kinds == other.kinds
            && self.child_start == other.child_start
            && self.child_end == other.child_end
            && self.children == other.children
            && self.counts == other.counts
            && self.leaf_of == other.leaf_of
            && self.leaf_col == other.leaf_col
            && bits_eq(&self.leaf_mode, &other.leaf_mode)
            && self.meta == other.meta
            && self.n_rows == other.n_rows
            && bits_eq(&self.weights, &other.weights)
            && self.leaves.len() == other.leaves.len()
            && self
                .leaves
                .iter()
                .zip(&other.leaves)
                .all(|(a, b)| a.bitwise_eq(b))
            && bits_eq(&self.neutral_expect, &other.neutral_expect)
            && bits_eq(&self.neutral_mpe, &other.neutral_mpe)
            && self.scope_off == other.scope_off
            && self.scope == other.scope
            && self.norm_off == other.norm_off
            && self.norm.len() == other.norm.len()
            && self
                .norm
                .iter()
                .zip(&other.norm)
                .all(|(a, b)| a.0.to_bits() == b.0.to_bits() && a.1.to_bits() == b.1.to_bits())
            && self.centroid_off == other.centroid_off
            && bits_eq(&self.centroids, &other.centroids)
    }

    /// Verify the mass bookkeeping invariant that updates must preserve
    /// (paper Algorithm 1): every node's represented row count — leaf total,
    /// sum of edge counts, or the shared count of a product's children —
    /// matches what its parent routed into it, and the root mass equals
    /// [`CompiledSpn::n_rows`]. Returns a description of the first violation
    /// in bottom-up order, or `None` when consistent. O(nodes).
    pub fn consistency_error(&self) -> Option<String> {
        let mut mass = vec![0u64; self.n_nodes()];
        for node in 0..self.n_nodes() {
            let (s, e) = self.child_range(node);
            mass[node] = match self.kinds[node] {
                CompiledKind::Leaf => self.leaves[self.leaf_of[node] as usize].total(),
                CompiledKind::Sum => {
                    for i in s..e {
                        let m = mass[self.children[i] as usize];
                        if m != self.counts[i] {
                            return Some(format!(
                                "sum node {node} child {} holds mass {m} but its count is {}",
                                i - s,
                                self.counts[i]
                            ));
                        }
                    }
                    self.counts[s..e].iter().sum()
                }
                CompiledKind::Product => {
                    let masses: Vec<u64> = self.children[s..e]
                        .iter()
                        .map(|&c| mass[c as usize])
                        .collect();
                    if masses.windows(2).any(|w| w[0] != w[1]) {
                        return Some(format!(
                            "product node {node} children disagree on mass: {masses:?}"
                        ));
                    }
                    masses.first().copied().unwrap_or(0)
                }
            };
        }
        match mass.last() {
            Some(&m) if m != self.n_rows => {
                Some(format!("root mass {m} != n_rows {}", self.n_rows))
            }
            _ => None,
        }
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
        let mut col_mask = vec![false; self.n_columns()];
        for &c in columns {
            if c < self.n_columns() {
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
    /// Compile this SPN into the arena representation. The two are
    /// independent afterwards: tree-only [`Spn::insert`]/[`Spn::delete`]
    /// calls do not affect the arena, and [`CompiledSpn::insert`] /
    /// [`CompiledSpn::delete`] do not affect the tree.
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
