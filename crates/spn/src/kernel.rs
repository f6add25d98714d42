//! Semiring sweep kernels: one tiling/scheduling skeleton, two semirings.
//!
//! The arena engine answers every production probe with the same forward
//! sweep — only the node arithmetic differs between expectation probes
//! ((+, ×), [`crate::BatchEvaluator`]) and max-product MPE probes
//! ((max, ×), [`crate::MaxProductEvaluator`]). This module factors that
//! sweep into a shared skeleton ([`SweepScratch::sweep`]) parameterized by
//! per-node-run kernel traits:
//!
//! * [`LeafKernel`] / [`SumKernel`] / [`ProductKernel`] — one method per
//!   [`CompiledKind`], dispatched once per *run* of consecutive same-kind
//!   nodes ([`CompiledSpn::node_runs`]) instead of once per node;
//! * [`Expectation`] and [`MaxProduct`] — the two semiring kernel sets.
//!
//! Each kernel has one body. An expectation inner node's loop runs children
//! outer and the tile's queries inner, using the node's own scratch row as
//! the accumulator: a sum node adds `w * child` per query (multiply then
//! add, two roundings, no FMA contraction), a product node multiplies each
//! query that is not yet ±0.0 and stops after the child that zeroes the
//! whole row. The max-product kernels walk the tile in fixed-width query
//! chunks with the children inside. Per query that is exactly the recursive
//! oracle's operation sequence, so compiled ≡ oracle holds **bitwise**,
//! under any codegen the compiler picks for the inner loops.
//!
//! Scratch rows are node-major with stride `n_q`: query `qi` of node `n`
//! lives at `values[n * n_q + qi]`. The scratch is grow-only and never
//! re-zeroed on the hot path: every slot a sweep reads was written earlier
//! in the same sweep (children precede parents in the arena's topological
//! order).
//!
//! Sweeps can be **pruned** to a query-scoped [`ActiveSet`]: scratch rows of
//! subtrees outside the constrained columns' scope are seeded from the
//! arena's neutral tables (their empty-query values — bit-for-bit what the
//! full sweep would have written, because a marginalized leaf gathers the
//! literal `1.0` the [`LeafValueTable`] stores for `None` slots), and the
//! kernels then dispatch over the ActiveSet's compacted runs only. The
//! kernels themselves are untouched: pruning changes *which* rows they
//! visit, never the arithmetic, so pruned ≡ full holds **bitwise by
//! construction** (enforced by `tests/prop_prune.rs`).
//!
//! Determinism contract (enforced by `tests/prop_batch.rs` /
//! `tests/prop_mpe.rs`): for both semirings, compiled ≡ recursive oracle
//! **bitwise**, for every tile shape and thread count, including arenas
//! patched in place by updates.

use std::ops::Range;

use crate::arena::{ActiveSet, CompiledKind, CompiledSpn};
use crate::leaf::NormPred;
use crate::maxprod::MpeProbe;
use crate::{LeafFunc, SpnQuery};

/// Queries per chunk of the max-product kernels' fixed-width accumulators.
const CHUNK: usize = 4;

/// Sentinel leaf payload id: "no target leaf on this branch".
pub(crate) const NO_LEAF: u32 = u32::MAX;

/// Compiled per-(query, column) leaf slot: moment function + normalized
/// predicate conjunction; `None` for marginalized columns.
pub(crate) type CompiledSlot = Option<(LeafFunc, NormPred)>;

/// Bits-level slot equality: equal slots make every leaf return bits-equal
/// values, so one evaluation can serve all sharers.
fn slot_bits_eq(a: &CompiledSlot, b: &CompiledSlot) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some((fa, na)), Some((fb, nb))) => fa == fb && na.bits_eq(nb),
        _ => false,
    }
}

/// Per-batch leaf-value table: every (leaf, **distinct** slot) pair is
/// evaluated exactly once, for the whole batch, before any tile sweeps.
///
/// This hoists the dominant sweep cost — [`crate::Leaf::expect_norm`] with
/// its binary searches / bin walks — out of the per-tile leaf kernels, which
/// degrade to pure gathers. Slots are deduplicated per column by float-bits
/// equality ([`slot_bits_eq`]), so the win compounds exactly where probe
/// plans fan out: GROUP BY / batched-MPE probe fans share every
/// non-grouped column's slot across **all** tiles of the batch, and a
/// column's marginalized (`None`) slots collapse to one entry. Memory is
/// one `f64` per (leaf, distinct slot) — proportional to the evaluation
/// work the table replaces, never more.
///
/// Values are the untouched `expect_norm` outputs, so every tile that
/// consults the table, inline or pooled, stays bitwise identical to direct
/// evaluation.
#[derive(Debug, Clone, Default)]
pub(crate) struct LeafValueTable {
    n_cols: usize,
    /// `n_probes × n_cols` column-local distinct-slot ids, probe-major.
    slot_ids: Vec<u32>,
    /// Per leaf payload, offset of its value block in `vals`.
    offsets: Vec<u32>,
    /// Concatenated per-leaf values, one per distinct slot of the leaf's
    /// column.
    vals: Vec<f64>,
    /// Hoisted `n_probes × n_cols` compiled slots (build scratch).
    slots: Vec<CompiledSlot>,
    /// Normalized predicates of slots the last builds emptied or cut off,
    /// buffers intact, for the next slot that needs one: a table shared by
    /// alternating probe layouts stops allocating once it has seen them all.
    spare: Vec<NormPred>,
    /// Per column, the probe index carrying the first occurrence of each
    /// distinct slot (build scratch).
    col_reps: Vec<Vec<u32>>,
}

impl LeafValueTable {
    /// Hoist + dedup + evaluate for one batch of probes against one arena.
    /// Reuses the table's allocations across builds.
    pub(crate) fn build<K: SemiringProbe>(&mut self, spn: &CompiledSpn, probes: &[K::Probe]) {
        let n_cols = spn.n_columns();
        let n_q = probes.len();
        self.n_cols = n_cols;

        // Hoist predicate normalization: once per (probe, column) per batch.
        // The recursive oracle re-normalizes at every leaf visit. Compiled
        // slots are re-assigned in place ([`NormPred::assign`]) and the
        // normalized predicate of a slot that empties is kept as a spare, so
        // a table rebuilt for a probe layout it has held before — the steady
        // state of a prepared query, or of one thread's query mix —
        // allocates nothing.
        let spare = &mut self.spare;
        let n_slots = n_q * n_cols;
        if n_slots < self.slots.len() {
            spare.extend(self.slots.drain(n_slots..).flatten().map(|(_, np)| np));
        }
        let reusable = self.slots.len();
        let compile = |s: &crate::Slot, spare: &mut Vec<NormPred>| {
            let func = s.func.unwrap_or(LeafFunc::One);
            match spare.pop() {
                Some(mut np) => {
                    np.assign(&s.preds);
                    (func, np)
                }
                None => (func, NormPred::new(&s.preds)),
            }
        };
        let mut idx = 0;
        for p in probes {
            let q = K::query(p);
            for col in 0..n_cols {
                let src = q.slot(col);
                if idx < reusable {
                    let dst = &mut self.slots[idx];
                    match (src, &mut *dst) {
                        (Some(s), Some((f, np))) => {
                            *f = s.func.unwrap_or(LeafFunc::One);
                            np.assign(&s.preds);
                        }
                        (Some(s), None) => *dst = Some(compile(s, spare)),
                        (None, _) => {
                            if let Some((_, np)) = dst.take() {
                                spare.push(np);
                            }
                        }
                    }
                } else {
                    self.slots.push(src.map(|s| compile(s, spare)));
                }
                idx += 1;
            }
        }

        // Dedup bits-identical slots per column. The scan is linear in the
        // number of *distinct* slots, which real batches keep tiny (probe
        // fans differ on one or two columns); a fully-distinct batch costs
        // no more evaluations than the un-deduplicated path did.
        self.slot_ids.clear();
        self.slot_ids.resize(n_q * n_cols, 0);
        self.col_reps.iter_mut().for_each(Vec::clear);
        self.col_reps.resize_with(n_cols, Vec::new);
        for col in 0..n_cols {
            for qi in 0..n_q {
                let slot = &self.slots[qi * n_cols + col];
                let reps = &mut self.col_reps[col];
                let id = reps
                    .iter()
                    .position(|&r| slot_bits_eq(slot, &self.slots[r as usize * n_cols + col]))
                    .unwrap_or_else(|| {
                        reps.push(qi as u32);
                        reps.len() - 1
                    });
                self.slot_ids[qi * n_cols + col] = id as u32;
            }
        }

        // One evaluation per (leaf, distinct slot of the leaf's column).
        self.offsets.clear();
        self.vals.clear();
        for (payload, leaf) in spn.leaves.iter().enumerate() {
            let col = spn.leaf_col[payload] as usize;
            self.offsets.push(self.vals.len() as u32);
            for &rq in &self.col_reps[col] {
                let val = match &self.slots[rq as usize * n_cols + col] {
                    None => 1.0,
                    Some((func, np)) => leaf.expect_norm(*func, np),
                };
                self.vals.push(val);
            }
        }
    }

    /// The value of leaf `payload` under batch-global probe `probe`'s slot
    /// on `col` (the leaf's own column).
    #[inline(always)]
    pub(crate) fn value(&self, payload: usize, probe: usize, col: usize) -> f64 {
        self.vals
            [self.offsets[payload] as usize + self.slot_ids[probe * self.n_cols + col] as usize]
    }
}

/// Everything a kernel sees during one sweep over one chunk of probes.
pub(crate) struct SweepCtx<'a, P> {
    pub spn: &'a CompiledSpn,
    pub probes: &'a [P],
    /// Queries in this chunk, which is also the row stride.
    pub n_q: usize,
    /// `n_nodes × n_q` semiring values, node-major.
    pub values: &'a mut [f64],
    /// `n_nodes × n_q` auxiliary values (target-leaf payloads for the
    /// max-product semiring; empty otherwise).
    pub aux: &'a mut [u32],
    /// Batch-wide pre-evaluated leaf values (one per (leaf, distinct slot)).
    pub table: &'a LeafValueTable,
    /// Offset of this chunk's first probe within the batch the table was
    /// built for.
    pub base: usize,
}

/// Probe shape of a semiring: how to reach the query inside a probe and how
/// to validate a probe against a model.
pub(crate) trait SemiringProbe {
    type Probe;
    /// Whether the semiring carries the auxiliary `u32` lane.
    const TRACKS_LEAF: bool;
    fn query(p: &Self::Probe) -> &SpnQuery;
    fn check(p: &Self::Probe, n_cols: usize);
    /// The arena's per-node neutral (empty-query) values for this semiring —
    /// what a pruned sweep seeds inactive boundary rows with.
    fn neutral(spn: &CompiledSpn) -> &[f64];
}

/// Kernel for a run of consecutive leaf nodes.
pub(crate) trait LeafKernel: SemiringProbe {
    fn leaf_run(ctx: &mut SweepCtx<'_, Self::Probe>, run: Range<usize>);
}

/// Kernel for a run of consecutive sum nodes.
pub(crate) trait SumKernel: SemiringProbe {
    fn sum_run(ctx: &mut SweepCtx<'_, Self::Probe>, run: Range<usize>);
}

/// Kernel for a run of consecutive product nodes.
pub(crate) trait ProductKernel: SemiringProbe {
    fn product_run(ctx: &mut SweepCtx<'_, Self::Probe>, run: Range<usize>);
}

/// A complete semiring kernel set.
pub(crate) trait Kernels: LeafKernel + SumKernel + ProductKernel {}
impl<K: LeafKernel + SumKernel + ProductKernel> Kernels for K {}

/// The (+, ×) semiring: expectation probes ([`crate::BatchEvaluator`]).
pub(crate) struct Expectation;

/// The (max, ×) semiring with target-leaf backtraces: max-product MPE
/// probes ([`crate::MaxProductEvaluator`]).
pub(crate) struct MaxProduct;

impl SemiringProbe for Expectation {
    type Probe = SpnQuery;
    const TRACKS_LEAF: bool = false;

    #[inline]
    fn query(p: &SpnQuery) -> &SpnQuery {
        p
    }

    fn check(p: &SpnQuery, n_cols: usize) {
        assert_eq!(p.n_cols(), n_cols, "query arity mismatch");
    }

    #[inline]
    fn neutral(spn: &CompiledSpn) -> &[f64] {
        &spn.neutral_expect
    }
}

impl SemiringProbe for MaxProduct {
    type Probe = MpeProbe;
    const TRACKS_LEAF: bool = true;

    #[inline]
    fn query(p: &MpeProbe) -> &SpnQuery {
        &p.query
    }

    fn check(p: &MpeProbe, n_cols: usize) {
        assert_eq!(p.query.n_cols(), n_cols, "probe arity mismatch");
        assert!(p.target < n_cols, "MPE target column out of range");
    }

    #[inline]
    fn neutral(spn: &CompiledSpn) -> &[f64] {
        &spn.neutral_mpe
    }
}

impl LeafKernel for Expectation {
    fn leaf_run(ctx: &mut SweepCtx<'_, SpnQuery>, run: Range<usize>) {
        let n_q = ctx.n_q;
        for node in run {
            let payload = ctx.spn.leaf_of[node] as usize;
            let col = ctx.spn.leaf_col[payload] as usize;
            // Pure gather: the heavy per-(leaf, distinct slot) evaluation
            // already happened once per batch in the [`LeafValueTable`].
            let row = &mut ctx.values[node * n_q..(node + 1) * n_q];
            for (qi, slot) in row.iter_mut().enumerate() {
                *slot = ctx.table.value(payload, ctx.base + qi, col);
            }
        }
    }
}

impl SumKernel for Expectation {
    fn sum_run(ctx: &mut SweepCtx<'_, SpnQuery>, run: Range<usize>) {
        let n_q = ctx.n_q;
        for node in run {
            let (s, e) = ctx.spn.child_range(node);
            let children = &ctx.spn.children[s..e];
            let weights = &ctx.spn.weights[s..e];
            // Children precede parents, so this split puts every child row
            // in `read` and this node's row at the head of `write`.
            let (read, write) = ctx.values.split_at_mut(node * n_q);
            let row = &mut write[..n_q];
            row.fill(0.0);
            for (&child, &w) in children.iter().zip(weights) {
                if w == 0.0 {
                    continue;
                }
                let c = child as usize * n_q;
                for (acc, &x) in row.iter_mut().zip(&read[c..c + n_q]) {
                    *acc += w * x;
                }
            }
        }
    }
}

impl ProductKernel for Expectation {
    fn product_run(ctx: &mut SweepCtx<'_, SpnQuery>, run: Range<usize>) {
        let n_q = ctx.n_q;
        for node in run {
            let (s, e) = ctx.spn.child_range(node);
            let (read, write) = ctx.values.split_at_mut(node * n_q);
            let row = &mut write[..n_q];
            row.fill(1.0);
            for &child in &ctx.spn.children[s..e] {
                let c = child as usize * n_q;
                // A query that reached ±0.0 stays there, sign kept: the
                // oracle's early break, per query. Once every query has
                // stopped, the remaining children are skipped.
                for (acc, &x) in row.iter_mut().zip(&read[c..c + n_q]) {
                    if *acc != 0.0 {
                        *acc *= x;
                    }
                }
                if row.iter().all(|&v| v == 0.0) {
                    break;
                }
            }
        }
    }
}

impl LeafKernel for MaxProduct {
    fn leaf_run(ctx: &mut SweepCtx<'_, MpeProbe>, run: Range<usize>) {
        let n_q = ctx.n_q;
        for node in run {
            let payload = ctx.spn.leaf_of[node] as usize;
            let col = ctx.spn.leaf_col[payload] as usize;
            let row = node * n_q;
            let scores = &mut ctx.values[row..row + n_q];
            let leaves = &mut ctx.aux[row..row + n_q];
            for (qi, probe) in ctx.probes.iter().enumerate() {
                if probe.target == col {
                    // Target leaves contribute score 1 and resolve the
                    // branch's value, exactly like the oracle.
                    scores[qi] = 1.0;
                    leaves[qi] = payload as u32;
                } else {
                    scores[qi] = ctx.table.value(payload, ctx.base + qi, col);
                    leaves[qi] = NO_LEAF;
                }
            }
        }
    }
}

impl SumKernel for MaxProduct {
    fn sum_run(ctx: &mut SweepCtx<'_, MpeProbe>, run: Range<usize>) {
        // The argmax recurrence is compare/select per query; with the chunk
        // width fixed at compile time LLVM vectorizes the chunked form.
        let n_q = ctx.n_q;
        for node in run {
            let (s, e) = ctx.spn.child_range(node);
            let children = &ctx.spn.children[s..e];
            let weights = &ctx.spn.weights[s..e];
            let row = node * n_q;
            let (read_s, write_s) = ctx.values.split_at_mut(row);
            let (read_l, write_l) = ctx.aux.split_at_mut(row);
            for q0 in (0..n_q).step_by(CHUNK) {
                let width = CHUNK.min(n_q - q0);
                let mut found = [false; CHUNK];
                let mut best_score = [0.0f64; CHUNK];
                let mut best = [NO_LEAF; CHUNK];
                for (&child, &w) in children.iter().zip(weights) {
                    if w == 0.0 {
                        continue;
                    }
                    let crow = child as usize * n_q + q0;
                    for l in 0..width {
                        // Lowest-index child wins ties: only a strictly
                        // higher weighted score replaces the incumbent.
                        let weighted = w * read_s[crow + l];
                        if !found[l] || weighted > best_score[l] {
                            found[l] = true;
                            best_score[l] = weighted;
                            best[l] = read_l[crow + l];
                        }
                    }
                }
                write_s[q0..q0 + width].copy_from_slice(&best_score[..width]);
                write_l[q0..q0 + width].copy_from_slice(&best[..width]);
            }
        }
    }
}

impl ProductKernel for MaxProduct {
    fn product_run(ctx: &mut SweepCtx<'_, MpeProbe>, run: Range<usize>) {
        let n_q = ctx.n_q;
        for node in run {
            let (s, e) = ctx.spn.child_range(node);
            let children = &ctx.spn.children[s..e];
            let row = node * n_q;
            let (read_s, write_s) = ctx.values.split_at_mut(row);
            let (read_l, write_l) = ctx.aux.split_at_mut(row);
            for q0 in (0..n_q).step_by(CHUNK) {
                let width = CHUNK.min(n_q - q0);
                let mut acc = [1.0f64; CHUNK];
                let mut leaf = [NO_LEAF; CHUNK];
                for &child in children {
                    let crow = child as usize * n_q + q0;
                    for l in 0..width {
                        // No zero-break here: the first child holding a
                        // target leaf resolves the branch value regardless
                        // of where zeros appear, matching the oracle.
                        acc[l] *= read_s[crow + l];
                        if leaf[l] == NO_LEAF {
                            leaf[l] = read_l[crow + l];
                        }
                    }
                }
                write_s[q0..q0 + width].copy_from_slice(&acc[..width]);
                write_l[q0..q0 + width].copy_from_slice(&leaf[..width]);
            }
        }
    }
}

/// Reusable scratch + the shared sweep skeleton both semirings run on.
///
/// The scratch is grow-only: buffers are enlarged when a bigger
/// (model × chunk) arrives and otherwise left untouched — the sweep never
/// re-zeroes them, because the arena's topological order guarantees every
/// slot is written before it is read within one sweep.
#[derive(Debug, Clone, Default)]
pub(crate) struct SweepScratch {
    /// `n_nodes × n_q` semiring values, node-major.
    values: Vec<f64>,
    /// `n_nodes × n_q` auxiliary values (max-product target leaves).
    aux: Vec<u32>,
    /// Offset of the root row of the most recent sweep.
    root: usize,
    /// Live queries in the most recent sweep.
    n_out: usize,
}

impl SweepScratch {
    /// One forward sweep of one chunk of `probes` over `spn` in semiring
    /// `K`, gathering leaf values from a batch-wide [`LeafValueTable`]
    /// (`base` is the chunk's offset within the batch the table was built
    /// for). With an [`ActiveSet`], only its compacted runs are swept after
    /// seeding the boundary rows from the arena's neutral table — bitwise
    /// identical to the full sweep by construction. Results land in the
    /// root row ([`SweepScratch::root_values`] / [`SweepScratch::root_aux`]).
    /// Does **not** bump the model's sweep counter — callers account for
    /// fused sweeps.
    pub(crate) fn sweep<K: Kernels>(
        &mut self,
        spn: &CompiledSpn,
        probes: &[K::Probe],
        table: &LeafValueTable,
        base: usize,
        active: Option<&ActiveSet>,
    ) {
        let n_q = probes.len();
        debug_assert!(n_q > 0, "empty chunks are handled by callers");
        let n_cols = spn.n_columns();
        for p in probes {
            K::check(p, n_cols);
        }

        let n_nodes = spn.n_nodes();
        let need = n_nodes * n_q;
        if self.values.len() < need {
            self.values.resize(need, 0.0);
        }
        let aux_need = if K::TRACKS_LEAF { need } else { 0 };
        if self.aux.len() < aux_need {
            self.aux.resize(aux_need, NO_LEAF);
        }

        let mut ctx = SweepCtx {
            spn,
            probes,
            n_q,
            values: &mut self.values[..need],
            aux: &mut self.aux[..aux_need],
            table,
            base,
        };

        // Pruned path: seed the boundary rows with their query-independent
        // values, then dispatch only the compacted active runs. Scratch
        // keeps full node-id addressing, so the kernels' child-row split
        // (`children < node`) is untouched.
        let runs = match active {
            Some(a) => {
                debug_assert_eq!(
                    a.n_nodes as usize, n_nodes,
                    "active set built for a different arena"
                );
                let neutral = K::neutral(spn);
                for &s in a.seeds() {
                    let row = s as usize * n_q;
                    ctx.values[row..row + n_q].fill(neutral[s as usize]);
                    if K::TRACKS_LEAF {
                        // A pruned subtree never holds a target leaf (the
                        // target column is always active), so the aux row is
                        // constantly "no leaf on this branch".
                        ctx.aux[row..row + n_q].fill(NO_LEAF);
                    }
                }
                a.runs()
            }
            None => spn.node_runs(),
        };

        // Single forward sweep, one kernel call per same-kind node run.
        let mut nodes = 0u64;
        for run in runs {
            let range = run.start as usize..run.end as usize;
            nodes += (run.end - run.start) as u64;
            match run.kind {
                CompiledKind::Leaf => K::leaf_run(&mut ctx, range),
                CompiledKind::Sum => K::sum_run(&mut ctx, range),
                CompiledKind::Product => K::product_run(&mut ctx, range),
            }
        }
        spn.note_nodes(nodes);

        self.root = (n_nodes - 1) * n_q;
        self.n_out = n_q;
    }

    /// Root-row semiring values of the most recent sweep, one per probe.
    pub(crate) fn root_values(&self) -> &[f64] {
        &self.values[self.root..self.root + self.n_out]
    }

    /// Root-row auxiliary values of the most recent sweep (max-product
    /// target leaves), one per probe.
    pub(crate) fn root_aux(&self) -> &[u32] {
        &self.aux[self.root..self.root + self.n_out]
    }
}
