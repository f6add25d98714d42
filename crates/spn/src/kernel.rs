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
//! * [`Expectation`] and [`MaxProduct`] — the two semiring kernel sets;
//! * [`F64Lanes`] — a portable `f64x4`-style lane type for the SIMD inner
//!   kernels. Lanes are plain `[f64; LANES]` elementwise arithmetic in a
//!   fixed order, so LLVM auto-vectorizes them while every lane remains
//!   **bitwise identical** to the scalar path (no FMA contraction, no
//!   reassociation, zero-skips expressed as lanewise freezes).
//!
//! Scratch rows are node-major with a lane-padded stride: query `qi` of node
//! `n` lives at `values[n * stride + qi]`. Padding lanes `[n_q, stride)` are
//! written by the leaf kernels (the marginalized value `1.0`) so the SIMD
//! inner kernels read deterministic values; real query lanes never depend on
//! them — lane arithmetic is elementwise. The scratch is grow-only and never
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
//! construction** (enforced by `tests/prop_prune.rs`). Batches narrower
//! than [`LANES`] route to the scalar kernels — same bitwise contract,
//! without paying lane padding for sub-lane batches.
//!
//! Determinism contract (enforced by `tests/prop_batch.rs` /
//! `tests/prop_mpe.rs`): for both semirings, SIMD ≡ scalar ≡ recursive
//! oracle **bitwise**, for every tile shape and thread count, including
//! arenas patched in place by updates.

use std::ops::Range;

use crate::arena::{ActiveSet, CompiledKind, CompiledSpn};
use crate::leaf::NormPred;
use crate::maxprod::MpeProbe;
use crate::{LeafFunc, SpnQuery};

/// Queries per SIMD lane group. Lane arithmetic is elementwise `[f64; 4]`
/// in fixed order — auto-vectorizable, bitwise equal to scalar.
pub(crate) const LANES: usize = 4;

/// Sentinel leaf payload id: "no target leaf on this branch".
pub(crate) const NO_LEAF: u32 = u32::MAX;

/// `n` rounded up to a whole number of lanes.
#[inline]
pub(crate) fn lane_padded(n: usize) -> usize {
    n.div_ceil(LANES) * LANES
}

/// Portable `f64x4`-style lane vector. All ops are elementwise in lane
/// order; none reassociate or contract (mul-then-add, never FMA), so each
/// lane computes exactly the scalar sequence.
#[derive(Debug, Clone, Copy)]
#[repr(C, align(32))]
pub(crate) struct F64Lanes(pub [f64; LANES]);

impl F64Lanes {
    #[inline(always)]
    pub fn splat(v: f64) -> Self {
        Self([v; LANES])
    }

    #[inline(always)]
    pub fn load(src: &[f64]) -> Self {
        Self(src[..LANES].try_into().expect("lane load"))
    }

    #[inline(always)]
    pub fn store(self, dst: &mut [f64]) {
        dst[..LANES].copy_from_slice(&self.0);
    }

    /// `self + w * x`, lanewise, as a separate multiply then add — bitwise
    /// equal to the scalar sum-node accumulation (no FMA contraction).
    #[inline(always)]
    pub fn add_scaled(self, w: f64, x: Self) -> Self {
        let mut out = self.0;
        for (acc, &c) in out.iter_mut().zip(&x.0) {
            *acc += w * c;
        }
        Self(out)
    }

    /// Lanewise `if acc == 0.0 { acc } else { acc * x }` — the vector form
    /// of the scalar product-node zero-skip: once a lane hits ±0.0 it is
    /// frozen (keeping its sign), exactly as the scalar early `break` leaves
    /// it.
    #[inline(always)]
    pub fn mul_keep_zero(self, x: Self) -> Self {
        let mut out = self.0;
        for (acc, &c) in out.iter_mut().zip(&x.0) {
            if *acc != 0.0 {
                *acc *= c;
            }
        }
        Self(out)
    }

    /// Every lane is ±0.0 — the whole-vector analogue of the scalar early
    /// break (all lanes frozen, remaining children can be skipped).
    #[inline(always)]
    pub fn all_zero(self) -> bool {
        self.0.iter().all(|&v| v == 0.0)
    }
}

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
/// Values are the untouched `expect_norm` outputs, so every path that
/// consults the table (SIMD, scalar, pooled tiles) stays bitwise identical
/// to direct evaluation.
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
    /// Live queries in this chunk.
    pub n_q: usize,
    /// Row stride: `n_q` rounded up to a whole number of lanes.
    pub stride: usize,
    /// `n_nodes × stride` semiring values, node-major.
    pub values: &'a mut [f64],
    /// `n_nodes × stride` auxiliary lane (target-leaf payloads for the
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
    fn leaf_run(ctx: &mut SweepCtx<'_, Self::Probe>, run: Range<usize>, simd: bool);
}

/// Kernel for a run of consecutive sum nodes.
pub(crate) trait SumKernel: SemiringProbe {
    fn sum_run(ctx: &mut SweepCtx<'_, Self::Probe>, run: Range<usize>, simd: bool);
}

/// Kernel for a run of consecutive product nodes.
pub(crate) trait ProductKernel: SemiringProbe {
    fn product_run(ctx: &mut SweepCtx<'_, Self::Probe>, run: Range<usize>, simd: bool);
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
    fn leaf_run(ctx: &mut SweepCtx<'_, SpnQuery>, run: Range<usize>, simd: bool) {
        for node in run {
            let payload = ctx.spn.leaf_of[node] as usize;
            let col = ctx.spn.leaf_col[payload] as usize;
            let row = &mut ctx.values[node * ctx.stride..(node + 1) * ctx.stride];
            // Pure gather: the heavy per-(leaf, distinct slot) evaluation
            // already happened once per batch in the [`LeafValueTable`].
            for (qi, slot) in row[..ctx.n_q].iter_mut().enumerate() {
                *slot = ctx.table.value(payload, ctx.base + qi, col);
            }
            if simd {
                // Padding lanes take the marginalized value so downstream
                // lane reads are deterministic; they never feed a real lane.
                row[ctx.n_q..].fill(1.0);
            }
        }
    }
}

impl SumKernel for Expectation {
    fn sum_run(ctx: &mut SweepCtx<'_, SpnQuery>, run: Range<usize>, simd: bool) {
        for node in run {
            let (s, e) = ctx.spn.child_range(node);
            let children = &ctx.spn.children[s..e];
            let weights = &ctx.spn.weights[s..e];
            // Children precede parents, so this split puts every child row
            // in `read` and this node's row at the head of `write`.
            let (read, write) = ctx.values.split_at_mut(node * ctx.stride);
            if simd {
                for lane0 in (0..ctx.stride).step_by(LANES) {
                    let mut acc = F64Lanes::splat(0.0);
                    for (&child, &w) in children.iter().zip(weights) {
                        if w == 0.0 {
                            continue;
                        }
                        let c = F64Lanes::load(&read[child as usize * ctx.stride + lane0..]);
                        acc = acc.add_scaled(w, c);
                    }
                    acc.store(&mut write[lane0..]);
                }
            } else {
                for (qi, slot) in write[..ctx.n_q].iter_mut().enumerate() {
                    let mut acc = 0.0;
                    for (&child, &w) in children.iter().zip(weights) {
                        if w == 0.0 {
                            continue;
                        }
                        acc += w * read[child as usize * ctx.stride + qi];
                    }
                    *slot = acc;
                }
            }
        }
    }
}

impl ProductKernel for Expectation {
    fn product_run(ctx: &mut SweepCtx<'_, SpnQuery>, run: Range<usize>, simd: bool) {
        for node in run {
            let (s, e) = ctx.spn.child_range(node);
            let children = &ctx.spn.children[s..e];
            let (read, write) = ctx.values.split_at_mut(node * ctx.stride);
            if simd {
                for lane0 in (0..ctx.stride).step_by(LANES) {
                    let mut acc = F64Lanes::splat(1.0);
                    for &child in children {
                        let c = F64Lanes::load(&read[child as usize * ctx.stride + lane0..]);
                        acc = acc.mul_keep_zero(c);
                        if acc.all_zero() {
                            break;
                        }
                    }
                    acc.store(&mut write[lane0..]);
                }
            } else {
                for (qi, slot) in write[..ctx.n_q].iter_mut().enumerate() {
                    let mut acc = 1.0;
                    for &child in children {
                        acc *= read[child as usize * ctx.stride + qi];
                        if acc == 0.0 {
                            break;
                        }
                    }
                    *slot = acc;
                }
            }
        }
    }
}

impl LeafKernel for MaxProduct {
    fn leaf_run(ctx: &mut SweepCtx<'_, MpeProbe>, run: Range<usize>, simd: bool) {
        for node in run {
            let payload = ctx.spn.leaf_of[node] as usize;
            let col = ctx.spn.leaf_col[payload] as usize;
            let row = node * ctx.stride;
            let scores = &mut ctx.values[row..row + ctx.stride];
            let leaves = &mut ctx.aux[row..row + ctx.stride];
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
            if simd {
                scores[ctx.n_q..].fill(1.0);
                leaves[ctx.n_q..].fill(NO_LEAF);
            }
        }
    }
}

impl SumKernel for MaxProduct {
    fn sum_run(ctx: &mut SweepCtx<'_, MpeProbe>, run: Range<usize>, simd: bool) {
        // The argmax recurrence is compare/select per lane; with the lane
        // count fixed at compile time LLVM vectorizes the chunked form, and
        // both forms run the identical per-lane comparison sequence.
        let span = if simd { ctx.stride } else { ctx.n_q };
        for node in run {
            let (s, e) = ctx.spn.child_range(node);
            let children = &ctx.spn.children[s..e];
            let weights = &ctx.spn.weights[s..e];
            let row = node * ctx.stride;
            let (read_s, write_s) = ctx.values.split_at_mut(row);
            let (read_l, write_l) = ctx.aux.split_at_mut(row);
            for lane0 in (0..span).step_by(LANES) {
                let width = LANES.min(span - lane0);
                let mut found = [false; LANES];
                let mut best_score = [0.0f64; LANES];
                let mut best = [NO_LEAF; LANES];
                for (&child, &w) in children.iter().zip(weights) {
                    if w == 0.0 {
                        continue;
                    }
                    let crow = child as usize * ctx.stride + lane0;
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
                write_s[lane0..lane0 + width].copy_from_slice(&best_score[..width]);
                write_l[lane0..lane0 + width].copy_from_slice(&best[..width]);
            }
        }
    }
}

impl ProductKernel for MaxProduct {
    fn product_run(ctx: &mut SweepCtx<'_, MpeProbe>, run: Range<usize>, simd: bool) {
        let span = if simd { ctx.stride } else { ctx.n_q };
        for node in run {
            let (s, e) = ctx.spn.child_range(node);
            let children = &ctx.spn.children[s..e];
            let row = node * ctx.stride;
            let (read_s, write_s) = ctx.values.split_at_mut(row);
            let (read_l, write_l) = ctx.aux.split_at_mut(row);
            for lane0 in (0..span).step_by(LANES) {
                let width = LANES.min(span - lane0);
                let mut acc = [1.0f64; LANES];
                let mut leaf = [NO_LEAF; LANES];
                for &child in children {
                    let crow = child as usize * ctx.stride + lane0;
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
                write_s[lane0..lane0 + width].copy_from_slice(&acc[..width]);
                write_l[lane0..lane0 + width].copy_from_slice(&leaf[..width]);
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
    /// `n_nodes × stride` semiring values, node-major.
    values: Vec<f64>,
    /// `n_nodes × stride` auxiliary lane (max-product target leaves).
    aux: Vec<u32>,
    /// Offset of the root row of the most recent sweep.
    root: usize,
    /// Live queries in the most recent sweep.
    n_out: usize,
}

impl SweepScratch {
    /// One forward sweep of one chunk of `probes` over `spn` in semiring
    /// `K`, scalar or SIMD, gathering leaf values from a batch-wide
    /// [`LeafValueTable`] (`base` is the chunk's offset within the batch
    /// the table was built for). With an [`ActiveSet`], only its compacted
    /// runs are swept after seeding the boundary rows from the arena's
    /// neutral table — bitwise identical to the full sweep by construction.
    /// Results land in the root row ([`SweepScratch::root_values`] /
    /// [`SweepScratch::root_aux`]). Does **not** bump the model's sweep
    /// counter — callers account for fused sweeps.
    pub(crate) fn sweep<K: Kernels>(
        &mut self,
        spn: &CompiledSpn,
        probes: &[K::Probe],
        table: &LeafValueTable,
        base: usize,
        simd: bool,
        active: Option<&ActiveSet>,
    ) {
        let n_q = probes.len();
        debug_assert!(n_q > 0, "empty chunks are handled by callers");
        let n_cols = spn.n_columns();
        for p in probes {
            K::check(p, n_cols);
        }
        // Sub-lane batches route to the scalar kernels: padding a 1-query
        // chunk to a whole lane group does 4× the work for the same bits
        // (scalar ≡ SIMD is contractual).
        let simd = simd && n_q >= LANES;

        let n_nodes = spn.n_nodes();
        let stride = lane_padded(n_q);
        let need = n_nodes * stride;
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
            stride,
            values: &mut self.values[..need],
            aux: &mut self.aux[..aux_need],
            table,
            base,
        };

        // Pruned path: seed the boundary rows with their query-independent
        // values (whole stride, padding included, so lane reads stay
        // deterministic), then dispatch only the compacted active runs.
        // Scratch keeps full node-id addressing, so the kernels' child-row
        // split (`children < node`) is untouched.
        let runs = match active {
            Some(a) => {
                debug_assert_eq!(
                    a.n_nodes as usize, n_nodes,
                    "active set built for a different arena"
                );
                let neutral = K::neutral(spn);
                for &s in a.seeds() {
                    let row = s as usize * ctx.stride;
                    ctx.values[row..row + ctx.stride].fill(neutral[s as usize]);
                    if K::TRACKS_LEAF {
                        // A pruned subtree never holds a target leaf (the
                        // target column is always active), so the aux lane is
                        // constantly "no leaf on this branch".
                        ctx.aux[row..row + ctx.stride].fill(NO_LEAF);
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
                CompiledKind::Leaf => K::leaf_run(&mut ctx, range, simd),
                CompiledKind::Sum => K::sum_run(&mut ctx, range, simd),
                CompiledKind::Product => K::product_run(&mut ctx, range, simd),
            }
        }
        spn.note_nodes(nodes);

        self.root = (n_nodes - 1) * stride;
        self.n_out = n_q;
    }

    /// Root-row semiring values of the most recent sweep, one per probe.
    pub(crate) fn root_values(&self) -> &[f64] {
        &self.values[self.root..self.root + self.n_out]
    }

    /// Root-row auxiliary lane of the most recent sweep (max-product target
    /// leaves), one per probe.
    pub(crate) fn root_aux(&self) -> &[u32] {
        &self.aux[self.root..self.root + self.n_out]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_padding_rounds_up() {
        assert_eq!(lane_padded(0), 0);
        assert_eq!(lane_padded(1), LANES);
        assert_eq!(lane_padded(LANES), LANES);
        assert_eq!(lane_padded(LANES + 1), 2 * LANES);
        assert_eq!(lane_padded(32), 32);
        assert_eq!(lane_padded(33), 36);
    }

    #[test]
    fn mul_keep_zero_freezes_signed_zero_lanes() {
        let acc = F64Lanes([0.0, -0.0, 2.0, f64::NAN]);
        let x = F64Lanes([f64::NAN, 5.0, 3.0, 2.0]);
        let out = acc.mul_keep_zero(x);
        // ±0.0 lanes freeze (sign preserved), live lanes multiply — even
        // into NaN, exactly like the scalar loop.
        assert_eq!(out.0[0].to_bits(), 0.0f64.to_bits());
        assert_eq!(out.0[1].to_bits(), (-0.0f64).to_bits());
        assert_eq!(out.0[2], 6.0);
        assert!(out.0[3].is_nan());
        assert!(!out.all_zero());
        assert!(F64Lanes([0.0, -0.0, 0.0, 0.0]).all_zero());
    }

    #[test]
    fn add_scaled_is_mul_then_add() {
        let acc = F64Lanes::splat(0.1);
        let x = F64Lanes([1.0, 2.0, 3.0, 4.0]);
        let out = acc.add_scaled(0.3, x);
        for (l, &got) in out.0.iter().enumerate() {
            let want = 0.1 + 0.3 * (l + 1) as f64;
            assert_eq!(got.to_bits(), want.to_bits(), "lane {l}");
        }
    }
}
