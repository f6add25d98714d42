//! Leaf distributions: exact value-frequency histograms with a NULL slot and
//! an equi-width binning fallback for high-cardinality continuous columns
//! (paper §3.2 — "we store each individual value and its frequency; if the
//! number of distinct values exceeds a given limit, we also use binning").

use crate::infer::{LeafFunc, LeafPred};

/// A univariate leaf over one training column.
#[derive(Debug, Clone)]
pub struct Leaf {
    /// Global column id this leaf models.
    pub col: usize,
    discrete: bool,
    null_count: u64,
    total: u64,
    kind: LeafKind,
    max_distinct_exact: usize,
    n_bins: usize,
    /// Prefix sums are rebuilt lazily after updates.
    dirty: bool,
}

#[derive(Debug, Clone)]
enum LeafKind {
    /// Sorted distinct values with counts and g-weighted prefix sums.
    Exact {
        values: Vec<f64>,
        counts: Vec<u64>,
        // prefix[i] = Σ_{j<i} g(values[j])·counts[j], one array per LeafFunc.
        cum: [Vec<f64>; 5],
    },
    /// Equi-width bins with per-bin moments and a distinct-value estimate.
    Binned {
        lo: f64,
        width: f64,
        counts: Vec<u64>,
        sums: Vec<f64>,
        sq_sums: Vec<f64>,
        distincts: Vec<u64>,
    },
}

fn apply(func: LeafFunc, v: f64) -> f64 {
    match func {
        LeafFunc::One => 1.0,
        LeafFunc::X => v,
        LeafFunc::X2 => v * v,
        LeafFunc::InvClamp1 => 1.0 / v.max(1.0),
        LeafFunc::InvSqClamp1 => {
            let c = v.max(1.0);
            1.0 / (c * c)
        }
    }
}

const FUNCS: [LeafFunc; 5] = [
    LeafFunc::One,
    LeafFunc::X,
    LeafFunc::X2,
    LeafFunc::InvClamp1,
    LeafFunc::InvSqClamp1,
];

/// Bin of `v` in an equi-width binned leaf; out-of-range values clamp to the
/// edge bins. `insert`, `can_remove`, and `remove` must agree on this
/// bit-for-bit — the check-then-apply delete protocol validates against the
/// same bin it later drains.
fn bin_index(lo: f64, width: f64, nb: usize, v: f64) -> usize {
    (((v - lo) / width) as isize).clamp(0, nb as isize - 1) as usize
}

/// Conjunction of leaf predicates normalized to one range + value sets.
/// Built once per (query, column) by the batch evaluator and reused across
/// every leaf with that column — the recursive evaluator rebuilds it per
/// leaf visit.
#[derive(Debug, Clone)]
pub(crate) struct NormPred {
    lo: f64,
    hi: f64,
    lo_strict: bool,
    hi_strict: bool,
    in_set: Option<Vec<f64>>,
    not_in: Vec<f64>,
    want_null: bool,
    want_not_null: bool,
    /// Spare buffer so [`NormPred::assign`] can drop an `In` set without
    /// losing its allocation for the next reuse of this slot.
    in_spare: Vec<f64>,
}

impl NormPred {
    pub(crate) fn new(preds: &[LeafPred]) -> Self {
        let mut np = NormPred {
            lo: f64::NEG_INFINITY,
            hi: f64::INFINITY,
            lo_strict: false,
            hi_strict: false,
            in_set: None,
            not_in: Vec::new(),
            want_null: false,
            want_not_null: false,
            in_spare: Vec::new(),
        };
        np.assign(preds);
        np
    }

    /// Re-normalize `preds` into this slot in place, reusing every buffer —
    /// the steady-state path of a reused
    /// [`crate::kernel::LeafValueTable`] allocates nothing here.
    pub(crate) fn assign(&mut self, preds: &[LeafPred]) {
        self.lo = f64::NEG_INFINITY;
        self.hi = f64::INFINITY;
        self.lo_strict = false;
        self.hi_strict = false;
        if let Some(mut set) = self.in_set.take() {
            set.clear();
            self.in_spare = set;
        }
        self.not_in.clear();
        self.want_null = false;
        self.want_not_null = false;
        for p in preds {
            match p {
                LeafPred::Range {
                    lo,
                    hi,
                    lo_incl,
                    hi_incl,
                } => {
                    if *lo > self.lo || (*lo == self.lo && !lo_incl) {
                        self.lo = *lo;
                        self.lo_strict = !lo_incl;
                    }
                    if *hi < self.hi || (*hi == self.hi && !hi_incl) {
                        self.hi = *hi;
                        self.hi_strict = !hi_incl;
                    }
                }
                LeafPred::In(vs) => match &mut self.in_set {
                    None => {
                        let mut buf = std::mem::take(&mut self.in_spare);
                        buf.clear();
                        buf.extend_from_slice(vs);
                        buf.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
                        buf.dedup();
                        self.in_set = Some(buf);
                    }
                    // Intersection: membership is set-based, so checking
                    // against the raw (unsorted) new list keeps results
                    // identical to sorting it first.
                    Some(prev) => prev.retain(|v| vs.contains(v)),
                },
                LeafPred::NotIn(vs) => self.not_in.extend_from_slice(vs),
                LeafPred::IsNull => self.want_null = true,
                LeafPred::IsNotNull => self.want_not_null = true,
            }
        }
    }

    /// Structural equality by float *bits* (NaN-safe, `±0.0`-distinguishing).
    /// Used by the sweep kernels to dedup identical per-(query, column)
    /// slots: bits-equal predicates make [`Leaf::expect_norm`] return
    /// bits-equal values, so one evaluation can serve every query sharing
    /// the slot. A false negative only costs a redundant evaluation.
    pub(crate) fn bits_eq(&self, other: &NormPred) -> bool {
        fn vec_bits_eq(a: &[f64], b: &[f64]) -> bool {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
        }
        self.lo.to_bits() == other.lo.to_bits()
            && self.hi.to_bits() == other.hi.to_bits()
            && self.lo_strict == other.lo_strict
            && self.hi_strict == other.hi_strict
            && self.want_null == other.want_null
            && self.want_not_null == other.want_not_null
            && vec_bits_eq(&self.not_in, &other.not_in)
            && match (&self.in_set, &other.in_set) {
                (None, None) => true,
                (Some(a), Some(b)) => vec_bits_eq(a, b),
                _ => false,
            }
    }

    fn value_passes(&self, v: f64) -> bool {
        if v < self.lo || (v == self.lo && self.lo_strict) {
            return false;
        }
        if v > self.hi || (v == self.hi && self.hi_strict) {
            return false;
        }
        if let Some(set) = &self.in_set {
            if !set.contains(&v) {
                return false;
            }
        }
        !self.not_in.contains(&v)
    }
}

impl Leaf {
    /// Build a leaf over `col` from the given row slice.
    pub fn build(
        data: &crate::DataView<'_>,
        rows: &[u32],
        col: usize,
        max_distinct_exact: usize,
        n_bins: usize,
    ) -> Self {
        let discrete = data.meta[col].discrete;
        let mut vals: Vec<f64> = Vec::with_capacity(rows.len());
        let mut null_count = 0u64;
        for &r in rows {
            let v = data.value(r, col);
            if v.is_finite() {
                vals.push(v);
            } else {
                null_count += 1;
            }
        }
        let total = rows.len() as u64;
        vals.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));

        // Distinct run-length encoding.
        let mut values = Vec::new();
        let mut counts: Vec<u64> = Vec::new();
        for &v in &vals {
            match values.last() {
                Some(&last) if last == v => *counts.last_mut().unwrap() += 1,
                _ => {
                    values.push(v);
                    counts.push(1);
                }
            }
        }

        let kind = if discrete || values.len() <= max_distinct_exact || values.len() < 2 {
            LeafKind::Exact {
                values,
                counts,
                cum: Default::default(),
            }
        } else {
            let lo = values[0];
            let hi = *values.last().unwrap();
            let width = ((hi - lo) / n_bins as f64).max(1e-12);
            let mut b = LeafKind::Binned {
                lo,
                width,
                counts: vec![0; n_bins],
                sums: vec![0.0; n_bins],
                sq_sums: vec![0.0; n_bins],
                distincts: vec![0; n_bins],
            };
            if let LeafKind::Binned {
                counts: bc,
                sums,
                sq_sums,
                distincts,
                ..
            } = &mut b
            {
                for (v, c) in values.iter().zip(&counts) {
                    let idx = (((v - lo) / width) as usize).min(n_bins - 1);
                    bc[idx] += c;
                    sums[idx] += v * *c as f64;
                    sq_sums[idx] += v * v * *c as f64;
                    distincts[idx] += 1;
                }
            }
            b
        };

        let mut leaf = Leaf {
            col,
            discrete,
            null_count,
            total,
            kind,
            max_distinct_exact,
            n_bins,
            dirty: true,
        };
        leaf.rebuild_prefix();
        leaf
    }

    /// The leaf's scope as a slice (always exactly one column), borrowed
    /// from `col` so [`crate::Node::scope`] never allocates.
    pub fn scope(&self) -> &[usize] {
        std::slice::from_ref(&self.col)
    }

    /// Rows this leaf was built from / currently represents.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of NULL observations.
    pub fn null_count(&self) -> u64 {
        self.null_count
    }

    fn rebuild_prefix(&mut self) {
        if let LeafKind::Exact {
            values,
            counts,
            cum,
        } = &mut self.kind
        {
            for (fi, func) in FUNCS.iter().enumerate() {
                let mut acc = 0.0;
                let arr = &mut cum[fi];
                arr.clear();
                arr.reserve(values.len() + 1);
                arr.push(0.0);
                for (v, c) in values.iter().zip(counts.iter()) {
                    acc += apply(*func, *v) * *c as f64;
                    arr.push(acc);
                }
            }
        }
        self.dirty = false;
    }

    /// `E[g(X) · 1_pred(X)]` under this leaf's empirical distribution
    /// (normalized by the total row count including NULLs). NULL rows only
    /// contribute to `IsNull` queries with `g = One`.
    pub fn expect(&mut self, func: LeafFunc, preds: &[LeafPred]) -> f64 {
        self.ensure_prefix();
        self.expect_norm(func, &NormPred::new(preds))
    }

    /// Rebuild the g-weighted prefix sums if updates invalidated them.
    pub(crate) fn ensure_prefix(&mut self) {
        if self.dirty {
            self.rebuild_prefix();
        }
    }

    /// Immutable expectation against a pre-normalized predicate. Requires the
    /// prefix sums to be current (see [`Leaf::ensure_prefix`]); this is the
    /// hot path of both the recursive and the compiled evaluator.
    pub(crate) fn expect_norm(&self, func: LeafFunc, np: &NormPred) -> f64 {
        debug_assert!(!self.dirty, "expect_norm on a dirty leaf");
        if self.total == 0 {
            return 0.0;
        }
        let total = self.total as f64;
        if np.want_null {
            // NULL fails every other constraint.
            let constrained = np.lo != f64::NEG_INFINITY
                || np.hi != f64::INFINITY
                || np.in_set.is_some()
                || np.want_not_null;
            if constrained {
                return 0.0;
            }
            return if matches!(func, LeafFunc::One) {
                self.null_count as f64 / total
            } else {
                0.0
            };
        }

        match &self.kind {
            LeafKind::Exact {
                values,
                counts,
                cum,
            } => {
                let fi = FUNCS.iter().position(|f| *f == func).unwrap();
                if let Some(set) = &np.in_set {
                    let mut acc = 0.0;
                    for &v in set {
                        // Also rejects NaN members, which the binary search's
                        // total-order fallback could otherwise match.
                        if !np.value_passes(v) {
                            continue;
                        }
                        if let Ok(i) = values.binary_search_by(|a| {
                            a.partial_cmp(&v).unwrap_or(std::cmp::Ordering::Equal)
                        }) {
                            acc += apply(func, v) * counts[i] as f64;
                        }
                    }
                    return acc / total;
                }
                // Range via prefix sums, then subtract NotIn members.
                let start = if np.lo == f64::NEG_INFINITY {
                    0
                } else if np.lo_strict {
                    values.partition_point(|&v| v <= np.lo)
                } else {
                    values.partition_point(|&v| v < np.lo)
                };
                let end = if np.hi == f64::INFINITY {
                    values.len()
                } else if np.hi_strict {
                    values.partition_point(|&v| v < np.hi)
                } else {
                    values.partition_point(|&v| v <= np.hi)
                };
                if start >= end {
                    return 0.0;
                }
                let mut acc = cum[fi][end] - cum[fi][start];
                for &v in &np.not_in {
                    if v < np.lo || v > np.hi {
                        continue;
                    }
                    if let Ok(i) = values.binary_search_by(|a| {
                        a.partial_cmp(&v).unwrap_or(std::cmp::Ordering::Equal)
                    }) {
                        if i >= start && i < end {
                            acc -= apply(func, v) * counts[i] as f64;
                        }
                    }
                }
                acc / total
            }
            LeafKind::Binned {
                lo,
                width,
                counts,
                sums,
                sq_sums,
                distincts,
            } => {
                let nb = counts.len();
                if let Some(set) = &np.in_set {
                    // Point queries on a binned leaf: approximate P(X = v) by
                    // the bin mass spread uniformly over its distinct values.
                    let mut acc = 0.0;
                    for &v in set {
                        if !np.value_passes(v) {
                            continue;
                        }
                        let idx = ((v - lo) / width) as isize;
                        if idx < 0 || idx as usize >= nb {
                            continue;
                        }
                        let idx = idx as usize;
                        if counts[idx] == 0 {
                            continue;
                        }
                        let share = counts[idx] as f64 / distincts[idx].max(1) as f64;
                        acc += apply(func, v) * share;
                    }
                    return acc / total;
                }
                // Range query: full bins use exact moments, edge bins are
                // scaled by the covered fraction (uniform-within-bin).
                let mut acc = 0.0;
                for b in 0..nb {
                    if counts[b] == 0 {
                        continue;
                    }
                    let b_lo = lo + b as f64 * width;
                    let b_hi = b_lo + width;
                    let ov_lo = np.lo.max(b_lo);
                    let ov_hi = np.hi.min(b_hi);
                    if ov_hi <= ov_lo {
                        continue;
                    }
                    let frac = ((ov_hi - ov_lo) / width).clamp(0.0, 1.0);
                    let contrib = match func {
                        LeafFunc::One => counts[b] as f64,
                        LeafFunc::X => sums[b],
                        LeafFunc::X2 => sq_sums[b],
                        LeafFunc::InvClamp1 | LeafFunc::InvSqClamp1 => {
                            // Factors are discrete and never binned; fall back
                            // to applying g at the bin mean.
                            let mean = sums[b] / counts[b] as f64;
                            apply(func, mean) * counts[b] as f64
                        }
                    };
                    let mut c = contrib * frac;
                    for &v in &np.not_in {
                        if v >= ov_lo && v < ov_hi {
                            let share = counts[b] as f64 / distincts[b].max(1) as f64;
                            c -= apply(func, v) * share;
                        }
                    }
                    acc += c;
                }
                acc / total
            }
        }
    }

    /// Most frequent value (MPE at the leaf level); `None` when empty. Ties
    /// break toward the **lowest value index** (i.e. the smallest value /
    /// lowest bin), mirroring the lowest-child-wins rule of the max-product
    /// sum nodes so MPE answers are deterministic end to end. Both the
    /// recursive oracle and the arena's cached mode table go through this
    /// one function.
    pub fn mode(&self) -> Option<f64> {
        fn argmax_first(counts: &[u64]) -> Option<usize> {
            let mut best: Option<(usize, u64)> = None;
            for (i, &c) in counts.iter().enumerate() {
                if c > 0 && best.is_none_or(|(_, bc)| c > bc) {
                    best = Some((i, c));
                }
            }
            best.map(|(i, _)| i)
        }
        match &self.kind {
            LeafKind::Exact { values, counts, .. } => argmax_first(counts).map(|i| values[i]),
            LeafKind::Binned { counts, sums, .. } => {
                argmax_first(counts).map(|i| sums[i] / counts[i] as f64)
            }
        }
    }

    /// Insert one observation (NaN = NULL). May convert an overflowing exact
    /// continuous leaf to a binned one.
    pub fn insert(&mut self, v: f64) {
        self.total += 1;
        self.dirty = true;
        if !v.is_finite() {
            self.null_count += 1;
            return;
        }
        let needs_bin_conversion = match &mut self.kind {
            LeafKind::Exact { values, counts, .. } => {
                match values
                    .binary_search_by(|a| a.partial_cmp(&v).unwrap_or(std::cmp::Ordering::Equal))
                {
                    Ok(i) => {
                        counts[i] += 1;
                        false
                    }
                    Err(i) => {
                        values.insert(i, v);
                        counts.insert(i, 1);
                        !self.discrete && values.len() > self.max_distinct_exact
                    }
                }
            }
            LeafKind::Binned {
                lo,
                width,
                counts,
                sums,
                sq_sums,
                ..
            } => {
                let idx = bin_index(*lo, *width, counts.len(), v);
                counts[idx] += 1;
                sums[idx] += v;
                sq_sums[idx] += v * v;
                false
            }
        };
        if needs_bin_conversion {
            self.convert_to_binned();
        }
    }

    /// Whether [`Leaf::remove`] of `v` would succeed right now — the
    /// read-only half of the check-then-apply delete protocol in
    /// [`crate::update`], which keeps sum counts and leaf masses consistent
    /// by refusing a delete along the *whole* routed path if any step would
    /// be a no-op.
    pub(crate) fn can_remove(&self, v: f64) -> bool {
        if !v.is_finite() {
            return self.null_count > 0;
        }
        match &self.kind {
            LeafKind::Exact { values, counts, .. } => values
                .binary_search_by(|a| a.partial_cmp(&v).unwrap_or(std::cmp::Ordering::Equal))
                .is_ok_and(|i| counts[i] > 0),
            LeafKind::Binned {
                lo, width, counts, ..
            } => counts[bin_index(*lo, *width, counts.len(), v)] > 0,
        }
    }

    /// Remove one observation. Returns false if the value was not present
    /// (the leaf is left unchanged in that case).
    pub fn remove(&mut self, v: f64) -> bool {
        if !v.is_finite() {
            if self.null_count == 0 {
                return false;
            }
            self.null_count -= 1;
            self.total -= 1;
            self.dirty = true;
            return true;
        }
        let removed = match &mut self.kind {
            LeafKind::Exact { values, counts, .. } => {
                match values
                    .binary_search_by(|a| a.partial_cmp(&v).unwrap_or(std::cmp::Ordering::Equal))
                {
                    Ok(i) if counts[i] > 0 => {
                        counts[i] -= 1;
                        if counts[i] == 0 {
                            values.remove(i);
                            counts.remove(i);
                        }
                        true
                    }
                    _ => false,
                }
            }
            LeafKind::Binned {
                lo,
                width,
                counts,
                sums,
                sq_sums,
                ..
            } => {
                let idx = bin_index(*lo, *width, counts.len(), v);
                if counts[idx] == 0 {
                    false
                } else {
                    counts[idx] -= 1;
                    sums[idx] -= v;
                    sq_sums[idx] -= v * v;
                    true
                }
            }
        };
        if removed {
            self.total -= 1;
            self.dirty = true;
        }
        removed
    }

    /// Serialize to the snapshot wire format (prefix sums are rebuilt on
    /// load, not stored).
    pub(crate) fn write_to(&self, w: &mut impl std::io::Write) -> std::io::Result<()> {
        use crate::wire::*;
        write_u32(w, self.col as u32)?;
        write_u8(w, u8::from(self.discrete))?;
        write_u64(w, self.null_count)?;
        write_u64(w, self.total)?;
        write_u32(w, self.max_distinct_exact as u32)?;
        write_u32(w, self.n_bins as u32)?;
        match &self.kind {
            LeafKind::Exact { values, counts, .. } => {
                write_u8(w, 0)?;
                write_f64s(w, values)?;
                write_u64s(w, counts)?;
            }
            LeafKind::Binned {
                lo,
                width,
                counts,
                sums,
                sq_sums,
                distincts,
            } => {
                write_u8(w, 1)?;
                write_f64(w, *lo)?;
                write_f64(w, *width)?;
                write_u64s(w, counts)?;
                write_f64s(w, sums)?;
                write_f64s(w, sq_sums)?;
                write_u64s(w, distincts)?;
            }
        }
        Ok(())
    }

    /// Deserialize from the snapshot wire format.
    pub(crate) fn read_from(r: &mut impl std::io::Read) -> std::io::Result<Self> {
        use crate::wire::*;
        let col = read_u32(r)? as usize;
        let discrete = read_u8(r)? != 0;
        let null_count = read_u64(r)?;
        let total = read_u64(r)?;
        let max_distinct_exact = read_u32(r)? as usize;
        let n_bins = read_u32(r)? as usize;
        let kind = match read_u8(r)? {
            0 => {
                let values = read_f64s(r)?;
                let counts = read_u64s(r)?;
                if values.len() != counts.len() {
                    return Err(corrupt("leaf value/count mismatch"));
                }
                LeafKind::Exact {
                    values,
                    counts,
                    cum: Default::default(),
                }
            }
            1 => {
                let lo = read_f64(r)?;
                let width = read_f64(r)?;
                let counts = read_u64s(r)?;
                let sums = read_f64s(r)?;
                let sq_sums = read_f64s(r)?;
                let distincts = read_u64s(r)?;
                if sums.len() != counts.len()
                    || sq_sums.len() != counts.len()
                    || distincts.len() != counts.len()
                {
                    return Err(corrupt("leaf bin arity"));
                }
                LeafKind::Binned {
                    lo,
                    width,
                    counts,
                    sums,
                    sq_sums,
                    distincts,
                }
            }
            _ => return Err(corrupt("leaf kind tag")),
        };
        let mut leaf = Leaf {
            col,
            discrete,
            null_count,
            total,
            kind,
            max_distinct_exact,
            n_bins,
            dirty: true,
        };
        leaf.rebuild_prefix();
        Ok(leaf)
    }

    /// Structural sanity for snapshot loading (see
    /// [`crate::CompiledSpn::read_from`]): every bound here guards a concrete
    /// panic or unbounded allocation a corrupted snapshot could otherwise
    /// trigger downstream.
    pub(crate) fn validate(&self, n_cols: usize) -> std::io::Result<()> {
        use crate::wire::corrupt;
        if self.col >= n_cols {
            return Err(corrupt("leaf column"));
        }
        // `bin_index` clamps to `n_bins - 1` (panics on 0) and exact→binned
        // conversion allocates `n_bins`-sized vectors.
        if self.n_bins == 0 || self.n_bins > 1 << 24 {
            return Err(corrupt("leaf bin count"));
        }
        let counts = match &self.kind {
            LeafKind::Exact { counts, .. } => counts,
            LeafKind::Binned { counts, .. } => {
                if counts.len() != self.n_bins {
                    return Err(corrupt("leaf bin count mismatch"));
                }
                counts
            }
        };
        // `remove` decrements a count and the total together, and bin
        // conversion re-sums the counts: both need the NULL slot plus the
        // histogram to make up exactly the total.
        let mass = counts
            .iter()
            .try_fold(self.null_count, |acc, &c| acc.checked_add(c));
        if mass != Some(self.total) {
            return Err(corrupt("leaf mass"));
        }
        Ok(())
    }

    /// Bitwise equality of the histogram state (floats compared by bit
    /// pattern; the lazy `dirty` flag and cached prefix sums are excluded —
    /// they are derived state). Used by [`crate::CompiledSpn::bitwise_eq`].
    pub(crate) fn bitwise_eq(&self, other: &Self) -> bool {
        fn bits_eq(a: &[f64], b: &[f64]) -> bool {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
        }
        if self.col != other.col
            || self.discrete != other.discrete
            || self.null_count != other.null_count
            || self.total != other.total
            || self.max_distinct_exact != other.max_distinct_exact
            || self.n_bins != other.n_bins
        {
            return false;
        }
        match (&self.kind, &other.kind) {
            (
                LeafKind::Exact {
                    values: va,
                    counts: ca,
                    ..
                },
                LeafKind::Exact {
                    values: vb,
                    counts: cb,
                    ..
                },
            ) => bits_eq(va, vb) && ca == cb,
            (
                LeafKind::Binned {
                    lo: la,
                    width: wa,
                    counts: ca,
                    sums: sa,
                    sq_sums: qa,
                    distincts: da,
                },
                LeafKind::Binned {
                    lo: lb,
                    width: wb,
                    counts: cb,
                    sums: sb,
                    sq_sums: qb,
                    distincts: db,
                },
            ) => {
                la.to_bits() == lb.to_bits()
                    && wa.to_bits() == wb.to_bits()
                    && ca == cb
                    && bits_eq(sa, sb)
                    && bits_eq(qa, qb)
                    && da == db
            }
            _ => false,
        }
    }

    fn convert_to_binned(&mut self) {
        let LeafKind::Exact { values, counts, .. } = &self.kind else {
            return;
        };
        let lo = values[0];
        let hi = *values.last().unwrap();
        let n_bins = self.n_bins;
        let width = ((hi - lo) / n_bins as f64).max(1e-12);
        let mut bc = vec![0u64; n_bins];
        let mut sums = vec![0.0; n_bins];
        let mut sq = vec![0.0; n_bins];
        let mut distincts = vec![0u64; n_bins];
        for (v, c) in values.iter().zip(counts) {
            let idx = (((v - lo) / width) as usize).min(n_bins - 1);
            bc[idx] += c;
            sums[idx] += v * *c as f64;
            sq[idx] += v * v * *c as f64;
            distincts[idx] += 1;
        }
        self.kind = LeafKind::Binned {
            lo,
            width,
            counts: bc,
            sums,
            sq_sums: sq,
            distincts,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ColumnMeta, DataView, LeafFunc, LeafPred};

    fn leaf_from(values: &[f64], discrete: bool) -> Leaf {
        let cols = vec![values.to_vec()];
        let meta = vec![if discrete {
            ColumnMeta::discrete("x")
        } else {
            ColumnMeta::continuous("x")
        }];
        let data = DataView::new(&cols, &meta);
        let rows: Vec<u32> = (0..values.len() as u32).collect();
        Leaf::build(&data, &rows, 0, 1000, 16)
    }

    /// Brute-force reference for E[g(X)·1_pred].
    fn brute(values: &[f64], func: LeafFunc, preds: &[LeafPred]) -> f64 {
        let np = super::NormPred::new(preds);
        let mut acc = 0.0;
        for &v in values {
            if !v.is_finite() {
                if np.want_null && matches!(func, LeafFunc::One) {
                    acc += 1.0;
                }
                continue;
            }
            if np.want_null {
                continue;
            }
            if np.value_passes(v) {
                acc += super::apply(func, v);
            }
        }
        acc / values.len() as f64
    }

    /// Every predicate shape a slot can take — points present and absent,
    /// strict / inclusive / unbounded / empty ranges, IN sets, `NotIn`, NULL
    /// tests, a NaN bound, `-0.0` — against brute force, on a small histogram
    /// and on a wider one that holds `0.0`.
    #[test]
    fn probabilities_match_brute_force() {
        let range = |lo: f64, hi: f64, lo_incl: bool, hi_incl: bool| LeafPred::Range {
            lo,
            hi,
            lo_incl,
            hi_incl,
        };
        let cases: Vec<Vec<LeafPred>> = vec![
            vec![],
            vec![range(2.0, 5.0, true, true)],
            vec![range(2.0, 5.0, false, false)],
            vec![LeafPred::In(vec![2.0, 9.0, 42.0])],
            vec![LeafPred::In(vec![5.0])],
            vec![LeafPred::In(vec![42.0])],
            vec![LeafPred::In(vec![f64::NAN])],
            vec![LeafPred::NotIn(vec![5.0])],
            vec![LeafPred::IsNull],
            vec![LeafPred::IsNotNull],
            vec![range(1.5, 8.5, true, true), LeafPred::NotIn(vec![3.0])],
            // Point absent from both histograms; NotIn of an absent value.
            vec![LeafPred::In(vec![400.0])],
            vec![LeafPred::NotIn(vec![4.0])],
            vec![range(3.0, 20.0, true, false)],
            vec![range(f64::NEG_INFINITY, 11.0, true, true)],
            vec![range(14.0, f64::INFINITY, false, true)],
            // Degenerate and contradictory ranges.
            vec![range(10.0, 10.0, true, true)],
            vec![range(5.0, 5.0, true, false)],
            vec![range(30.0, 2.0, true, true)],
            // A NaN bound constrains nothing; the other side still applies.
            vec![range(f64::NAN, 5.0, true, true)],
            vec![range(2.0, f64::NAN, false, true)],
            // `-0.0` compares equal to the stored `0.0`.
            vec![LeafPred::In(vec![-0.0])],
            vec![range(-0.0, 5.0, true, true)],
            vec![range(-0.0, 5.0, false, true)],
            vec![range(f64::NEG_INFINITY, -0.0, true, true)],
            vec![LeafPred::In(vec![0.0, 5.0]), range(1.0, 9.0, true, true)],
        ];
        let small = vec![1.0, 2.0, 2.0, 3.0, 5.0, 5.0, 5.0, f64::NAN, 8.0, 9.0];
        let mut wide: Vec<f64> = (0..64).map(|i| ((i * 7) % 37) as f64).collect();
        wide.push(f64::NAN);
        for vals in [small, wide] {
            let mut leaf = leaf_from(&vals, true);
            for preds in &cases {
                for func in FUNCS {
                    let got = leaf.expect(func, preds);
                    let want = brute(&vals, func, preds);
                    assert!(
                        (got - want).abs() < 1e-12,
                        "func {func:?} preds {preds:?}: got {got}, want {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn expectation_identity_without_preds_is_mean_including_null_weight() {
        let vals = vec![10.0, 20.0, f64::NAN, 30.0];
        let mut leaf = leaf_from(&vals, true);
        // E[X·1] where NULL contributes 0: 60/4.
        assert!((leaf.expect(LeafFunc::X, &[]) - 15.0).abs() < 1e-12);
        // P(not null) = 3/4 so the SQL AVG is the ratio.
        let p = leaf.expect(LeafFunc::One, &[LeafPred::IsNotNull]);
        assert!((leaf.expect(LeafFunc::X, &[]) / p - 20.0).abs() < 1e-12);
    }

    #[test]
    fn inv_clamp_behaviour_for_tuple_factors() {
        // F column with zeros must invert as 1/max(F,1).
        let vals = vec![0.0, 2.0, 2.0, 1.0];
        let mut leaf = leaf_from(&vals, true);
        let want = (1.0 + 0.5 + 0.5 + 1.0) / 4.0;
        assert!((leaf.expect(LeafFunc::InvClamp1, &[]) - want).abs() < 1e-12);
        let want_sq = (1.0 + 0.25 + 0.25 + 1.0) / 4.0;
        assert!((leaf.expect(LeafFunc::InvSqClamp1, &[]) - want_sq).abs() < 1e-12);
    }

    #[test]
    fn binned_leaf_range_queries_are_close() {
        // 10_000 distinct values force binning (limit 1000 in leaf_from).
        let vals: Vec<f64> = (0..10_000).map(|i| i as f64 + 0.5).collect();
        let mut leaf = leaf_from(&vals, false);
        let p = leaf.expect(
            LeafFunc::One,
            &[LeafPred::Range {
                lo: 0.0,
                hi: 2500.0,
                lo_incl: true,
                hi_incl: true,
            }],
        );
        assert!((p - 0.25).abs() < 0.01, "p = {p}");
        let e = leaf.expect(LeafFunc::X, &[]);
        assert!((e - 5000.0).abs() < 10.0, "mean = {e}");
    }

    #[test]
    fn binned_point_query_uses_distinct_share() {
        let vals: Vec<f64> = (0..5000).map(|i| (i % 2500) as f64).collect();
        let mut leaf = leaf_from(&vals, false);
        // Each value appears twice among 5000 rows → P ≈ 1/2500.
        let p = leaf.expect(LeafFunc::One, &[LeafPred::In(vec![1200.0])]);
        assert!((p - 1.0 / 2500.0).abs() < 2e-4, "p = {p}");
    }

    #[test]
    fn insert_and_remove_round_trip() {
        let vals = vec![1.0, 2.0, 3.0];
        let mut leaf = leaf_from(&vals, true);
        let before = leaf.expect(LeafFunc::One, &[LeafPred::In(vec![2.0])]);
        leaf.insert(2.0);
        assert!((leaf.expect(LeafFunc::One, &[LeafPred::In(vec![2.0])]) - 0.5).abs() < 1e-12);
        assert!(leaf.remove(2.0));
        assert!((leaf.expect(LeafFunc::One, &[LeafPred::In(vec![2.0])]) - before).abs() < 1e-12);
        assert!(!leaf.remove(42.0), "removing a missing value must fail");
        assert_eq!(leaf.total(), 3);
    }

    #[test]
    fn null_insert_and_remove() {
        let mut leaf = leaf_from(&[1.0, 2.0], true);
        leaf.insert(f64::NAN);
        assert_eq!(leaf.null_count(), 1);
        assert!((leaf.expect(LeafFunc::One, &[LeafPred::IsNull]) - 1.0 / 3.0).abs() < 1e-12);
        assert!(leaf.remove(f64::NAN));
        assert_eq!(leaf.null_count(), 0);
    }

    #[test]
    fn exact_leaf_converts_to_binned_on_overflow() {
        let cols = vec![(0..50).map(|i| i as f64).collect::<Vec<_>>()];
        let meta = vec![ColumnMeta::continuous("x")];
        let data = DataView::new(&cols, &meta);
        let rows: Vec<u32> = (0..50).collect();
        let mut leaf = Leaf::build(&data, &rows, 0, 50, 8);
        assert!(matches!(leaf.kind, LeafKind::Exact { .. }));
        leaf.insert(123.456); // 51st distinct value exceeds the limit
        assert!(matches!(leaf.kind, LeafKind::Binned { .. }));
        // Mass is preserved through conversion.
        assert_eq!(leaf.total(), 51);
        let p_all = leaf.expect(LeafFunc::One, &[]);
        assert!((p_all - 1.0).abs() < 1e-9);
    }

    #[test]
    fn mode_returns_most_frequent() {
        let leaf = leaf_from(&[1.0, 2.0, 2.0, 3.0], true);
        assert_eq!(leaf.mode(), Some(2.0));
    }

    #[test]
    fn contradictory_preds_are_zero() {
        let mut leaf = leaf_from(&[1.0, 2.0, 3.0], true);
        let p = leaf.expect(
            LeafFunc::One,
            &[LeafPred::Range {
                lo: 2.5,
                hi: 2.0,
                lo_incl: true,
                hi_incl: true,
            }],
        );
        assert_eq!(p, 0.0);
        let p2 = leaf.expect(LeafFunc::One, &[LeafPred::IsNull, LeafPred::IsNotNull]);
        assert_eq!(p2, 0.0);
    }
}
