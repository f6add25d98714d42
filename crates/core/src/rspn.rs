//! Relational Sum-Product Networks (paper §3.2).
//!
//! An [`Rspn`] is an SPN learned over a uniform sample of the full outer
//! join of one or more tables, plus the relational metadata needed to answer
//! database queries: which SPN column holds which table attribute, the `N_T`
//! join-indicator columns, the tuple-factor columns `F_{S←T}` (clamped for
//! edges inside the join, raw for edges leaving it), functional-dependency
//! dictionaries, and the exact full-outer-join cardinality `|J|`.

use std::collections::{BTreeSet, HashMap};

use deepdb_spn::{
    BatchEvaluator, ColumnMeta, CompiledSpn, DataView, LeafFunc, LeafPred, MaxProductEvaluator,
    MpeOutcome, MpeProbe, Spn, SpnParams, SpnQuery,
};
use deepdb_storage::{
    CmpOp, ColId, Database, ForeignKey, JoinColumnMeta, JoinColumnRole, JoinSample, PredOp,
    Predicate, TableId, Value,
};

use crate::fd::{FdDictionary, FunctionalDependency};
use crate::DeepDbError;

/// Cap on per-column distinct values tracked for GROUP BY enumeration.
const MAX_GROUP_DISTINCT: usize = 4096;

/// An SPN over a relation (single table or full outer join) with relational
/// metadata.
#[derive(Debug, Clone)]
pub struct Rspn {
    /// The learned SPN in arena form — the model itself: every query sweeps
    /// it, updates patch it **in place** (O(depth) per tuple), snapshots are
    /// written from it. Evaluation is `&self` so probe plans can sweep
    /// members from worker threads.
    compiled: CompiledSpn,
    tables: Vec<TableId>,
    columns: Vec<JoinColumnMeta>,
    full_join_count: u64,
    /// Sampling rate used at training; updates are absorbed at the same rate
    /// (paper §6.1 "the same sample rate has to be used for the updates").
    /// Values above 1 mean the training sample oversampled a small join.
    sample_rate: f64,
    data_col: HashMap<(TableId, ColId), usize>,
    indicator_col: HashMap<TableId, usize>,
    factor_col: HashMap<ForeignKey, usize>,
    /// FK edges internal to the join tree (clamped factors).
    internal_edges: Vec<ForeignKey>,
    /// FD dictionaries whose dependent column was omitted from learning.
    fds: Vec<FdDictionary>,
    /// Distinct values per SPN column (discrete data columns only).
    distincts: HashMap<usize, BTreeSet<u64>>,
    /// (mean, std) per SPN column over the training sample (NULLs ignored).
    col_stats: Vec<(f64, f64)>,
    /// Pairwise RDC between SPN columns (execution-strategy scoring).
    attr_rdc: Vec<Vec<f64>>,
    /// |J| bookkeeping went stale (multi-table incremental updates).
    join_count_dirty: bool,
}

impl Rspn {
    /// Learn an RSPN from a join sample. Columns that are FD-dependent are
    /// omitted from the SPN and answered through dictionaries instead.
    pub fn learn(
        sample: &JoinSample,
        db: &Database,
        fds: &[FunctionalDependency],
        params: &SpnParams,
    ) -> Result<Self, DeepDbError> {
        // Determine FD-dependent columns to skip (both sides must be data
        // columns of a joined table).
        let mut fd_dicts = Vec::new();
        let mut skip: Vec<usize> = Vec::new();
        for fd in fds {
            if !sample.tables.contains(&fd.table) {
                continue;
            }
            let dep_idx = sample.columns.iter().position(|c| {
                matches!(c.role, JoinColumnRole::Data { table, col } if table == fd.table && col == fd.dependent)
            });
            let det_idx = sample.columns.iter().position(|c| {
                matches!(c.role, JoinColumnRole::Data { table, col } if table == fd.table && col == fd.determinant)
            });
            if let (Some(dep), Some(_)) = (dep_idx, det_idx) {
                skip.push(dep);
                fd_dicts.push(FdDictionary::build(db, *fd));
            }
        }

        let kept: Vec<usize> = (0..sample.columns.len())
            .filter(|i| !skip.contains(i))
            .collect();
        let columns: Vec<JoinColumnMeta> =
            kept.iter().map(|&i| sample.columns[i].clone()).collect();
        let cols: Vec<Vec<f64>> = kept.iter().map(|&i| sample.data[i].clone()).collect();
        let meta: Vec<ColumnMeta> = columns
            .iter()
            .map(|c| ColumnMeta {
                name: c.name.clone(),
                discrete: c.discrete,
            })
            .collect();

        // The learner's tree is only a build step: compile it and drop it.
        let compiled = Spn::learn(DataView::new(&cols, &meta), params).compile();

        let (data_col, indicator_col, factor_col, internal_edges) = column_maps(&columns);

        // Distinct values + column stats from the training sample.
        let mut distincts: HashMap<usize, BTreeSet<u64>> = HashMap::new();
        let mut col_stats = Vec::with_capacity(cols.len());
        for (i, col) in cols.iter().enumerate() {
            let mut sum = 0.0;
            let mut sq = 0.0;
            let mut k = 0u64;
            for &v in col {
                if v.is_finite() {
                    sum += v;
                    sq += v * v;
                    k += 1;
                }
            }
            let mean = if k > 0 { sum / k as f64 } else { 0.0 };
            let var = if k > 0 {
                (sq / k as f64 - mean * mean).max(0.0)
            } else {
                0.0
            };
            col_stats.push((mean, var.sqrt()));
            if columns[i].discrete && matches!(columns[i].role, JoinColumnRole::Data { .. }) {
                if let Some(set) = distinct_domain(col) {
                    distincts.insert(i, set);
                }
            }
        }

        // Pairwise attribute RDC for the execution strategy (data cols only).
        let refs: Vec<&[f64]> = cols.iter().map(Vec::as_slice).collect();
        let rows: Vec<u32> = (0..sample.n_samples as u32).collect();
        let attr_rdc = deepdb_spn::rdc::pairwise_rdc(&refs, &rows, 1500, &params.rdc);

        Ok(Self {
            compiled,
            tables: sample.tables.clone(),
            columns,
            full_join_count: sample.full_join_count,
            sample_rate: if sample.full_join_count == 0 {
                1.0
            } else {
                // May exceed 1: small joins are deliberately oversampled, so
                // updates must insert multiple sample rows per real tuple.
                sample.n_samples as f64 / sample.full_join_count as f64
            },
            data_col,
            indicator_col,
            factor_col,
            internal_edges,
            fds: fd_dicts,
            distincts,
            col_stats,
            attr_rdc,
            join_count_dirty: false,
        })
    }

    pub fn tables(&self) -> &[TableId] {
        &self.tables
    }

    /// Exact (or incrementally maintained) full-outer-join cardinality.
    pub fn full_join_count(&self) -> u64 {
        self.full_join_count
    }

    pub fn set_full_join_count(&mut self, count: u64) {
        self.full_join_count = count;
        self.join_count_dirty = false;
    }

    pub fn bump_full_join_count(&mut self, delta: i64) {
        self.full_join_count = (self.full_join_count as i64 + delta).max(0) as u64;
    }

    pub fn mark_join_count_dirty(&mut self) {
        self.join_count_dirty = true;
    }

    pub fn join_count_dirty(&self) -> bool {
        self.join_count_dirty
    }

    pub fn sample_rate(&self) -> f64 {
        self.sample_rate
    }

    /// Number of SPN training rows (grows/shrinks with updates).
    pub fn n_training(&self) -> u64 {
        self.compiled.n_rows()
    }

    /// SPN node count (diagnostics / cost accounting).
    pub fn model_size(&self) -> usize {
        self.compiled.n_nodes()
    }

    pub fn columns(&self) -> &[JoinColumnMeta] {
        &self.columns
    }

    pub fn internal_edges(&self) -> &[ForeignKey] {
        &self.internal_edges
    }

    pub fn has_factor(&self, fk: &ForeignKey) -> bool {
        self.factor_col.contains_key(fk)
    }

    /// SPN column holding a table attribute, if modeled directly.
    pub fn data_column(&self, table: TableId, col: ColId) -> Option<usize> {
        self.data_col.get(&(table, col)).copied()
    }

    /// (mean, std) of an SPN column over the training sample.
    pub fn column_stats(&self, spn_col: usize) -> (f64, f64) {
        self.col_stats[spn_col]
    }

    /// Distinct values of a discrete data column (for GROUP BY enumeration).
    pub fn distinct_values(&self, spn_col: usize) -> Option<Vec<f64>> {
        self.distincts
            .get(&spn_col)
            .map(|s| s.iter().map(|&b| f64::from_bits(b)).collect())
    }

    /// Fresh query over this RSPN's columns.
    pub fn new_query(&self) -> SpnQuery {
        SpnQuery::new(self.columns.len())
    }

    /// The compiled arena engine every probe sweeps.
    pub(crate) fn engine(&self) -> &CompiledSpn {
        &self.compiled
    }

    /// Fused arena sweeps executed against this member's compiled engine so
    /// far (diagnostics; lets tests assert probe plans touch each member
    /// exactly once per query). Updates patch the engine in place, so the
    /// count survives them.
    pub fn probe_passes(&self) -> u64 {
        self.compiled.sweep_count()
    }

    /// Evaluate an expectation on the compiled arena engine.
    pub fn expect(&self, q: &SpnQuery) -> f64 {
        self.expect_batch(std::slice::from_ref(q))[0]
    }

    /// Evaluate a whole batch of expectations in one fused pass over the
    /// arena (one scratch buffer, predicate normalization hoisted per
    /// query, one semiring kernel per node kind) — the backbone of
    /// probabilistic query compilation, which issues several probes per SQL
    /// query. Scratch is thread-local, so this is `&self` and safe to call
    /// from probe-plan worker threads.
    pub fn expect_batch(&self, queries: &[SpnQuery]) -> Vec<f64> {
        thread_local! {
            static SCRATCH: std::cell::RefCell<BatchEvaluator> =
                std::cell::RefCell::new(BatchEvaluator::new());
        }
        SCRATCH.with(|ev| ev.borrow_mut().evaluate(self.engine(), queries, None))
    }

    /// Most probable value of an SPN column given evidence, on the compiled
    /// max-product path (`&self`, recursion-free). Classification batches
    /// should go through [`crate::ProbePlan::register_mpe`] instead, which
    /// fuses MPE probes into the same per-member sweep as expectation
    /// probes.
    pub fn most_probable_value(&self, target: usize, q: &SpnQuery) -> Option<f64> {
        self.mpe_batch(std::slice::from_ref(&MpeProbe::new(target, q.clone())))[0].value
    }

    /// Evaluate a batch of max-product probes in one fused pass over the
    /// arena — the MPE twin of [`Rspn::expect_batch`]. Scratch is
    /// thread-local, so this is `&self` and safe from worker threads.
    pub fn mpe_batch(&self, probes: &[MpeProbe]) -> Vec<MpeOutcome> {
        thread_local! {
            static SCRATCH: std::cell::RefCell<MaxProductEvaluator> =
                std::cell::RefCell::new(MaxProductEvaluator::new());
        }
        SCRATCH.with(|ev| ev.borrow_mut().evaluate(self.engine(), probes, None))
    }

    /// Require `N_T = 1` for a table (inner-join semantics, Case 1/2).
    pub fn require_present(&self, q: &mut SpnQuery, table: TableId) {
        if let Some(&col) = self.indicator_col.get(&table) {
            q.add_pred(col, LeafPred::eq(1.0));
        }
    }

    /// Translate and attach a storage predicate. Predicates on FD-dependent
    /// columns are rewritten onto their determinant. Returns an error if the
    /// column is not modeled at all.
    pub fn add_predicate(&self, q: &mut SpnQuery, pred: &Predicate) -> Result<(), DeepDbError> {
        if let Some(&col) = self.data_col.get(&(pred.table, pred.column)) {
            for lp in translate_pred(&pred.op) {
                q.add_pred(col, lp);
            }
            return Ok(());
        }
        // FD rewrite: predicate on a dependent column → IN over determinant.
        for dict in &self.fds {
            if dict.fd.table == pred.table && dict.fd.dependent == pred.column {
                let det = self
                    .data_col
                    .get(&(pred.table, dict.fd.determinant))
                    .copied()
                    .ok_or_else(|| DeepDbError::Unsupported("FD determinant not modeled".into()))?;
                q.add_pred(det, LeafPred::In(dict.translate(pred)));
                return Ok(());
            }
        }
        Err(DeepDbError::Unsupported(format!(
            "column ({}, {}) not modeled by this RSPN",
            pred.table, pred.column
        )))
    }

    /// Tuple-factor normalization set for a query over `present` tables
    /// (Theorem 1): BFS outward from the present set over the internal join
    /// tree; every edge traversed in FK-downward direction (one side → many
    /// side) contributes its `F'`.
    pub fn normalization_factor_cols(&self, present: &BTreeSet<TableId>) -> Vec<usize> {
        let mut visited: BTreeSet<TableId> = present
            .iter()
            .copied()
            .filter(|t| self.tables.contains(t))
            .collect();
        if visited.is_empty() {
            return Vec::new();
        }
        let mut factors = Vec::new();
        loop {
            let mut progressed = false;
            for fk in &self.internal_edges {
                let p_in = visited.contains(&fk.parent_table);
                let c_in = visited.contains(&fk.child_table);
                if p_in && !c_in {
                    factors.push(self.factor_col[fk]);
                    visited.insert(fk.child_table);
                    progressed = true;
                } else if c_in && !p_in {
                    visited.insert(fk.parent_table);
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
        factors
    }

    /// Raw tuple-factor column of an FK (for Theorem-2 fan-out terms).
    pub fn factor_column(&self, fk: &ForeignKey) -> Option<usize> {
        self.factor_col.get(fk).copied()
    }

    /// Execution-strategy score: sum of pairwise RDC values between the
    /// predicate columns this RSPN can handle (paper §4.1, "Execution
    /// Strategy"), plus a small per-predicate bonus so coverage breaks ties.
    pub fn strategy_score(&self, preds: &[Predicate]) -> f64 {
        let handled: Vec<usize> = preds
            .iter()
            .filter_map(|p| self.data_col.get(&(p.table, p.column)).copied())
            .collect();
        let mut score = 0.05 * handled.len() as f64;
        for i in 0..handled.len() {
            for j in (i + 1)..handled.len() {
                score += self.attr_rdc[handled[i]][handled[j]];
            }
        }
        score
    }

    /// Serialize for ensemble snapshots (lookup maps are rebuilt on load).
    pub(crate) fn write_to(&self, w: &mut impl std::io::Write) -> std::io::Result<()> {
        use deepdb_spn::wire::*;
        self.compiled.write_to(w)?;
        write_usizes(w, &self.tables)?;
        write_u32(w, self.columns.len() as u32)?;
        for c in &self.columns {
            write_str(w, &c.name)?;
            match c.role {
                JoinColumnRole::Data { table, col } => {
                    write_u8(w, 0)?;
                    write_u64(w, table as u64)?;
                    write_u64(w, col as u64)?;
                }
                JoinColumnRole::Indicator { table } => {
                    write_u8(w, 1)?;
                    write_u64(w, table as u64)?;
                }
                JoinColumnRole::TupleFactor { fk, clamped } => {
                    write_u8(w, 2)?;
                    write_u64(w, fk.child_table as u64)?;
                    write_u64(w, fk.child_col as u64)?;
                    write_u64(w, fk.parent_table as u64)?;
                    write_u64(w, fk.parent_col as u64)?;
                    write_u8(w, u8::from(clamped))?;
                }
            }
            write_u8(w, u8::from(c.discrete))?;
            write_u8(w, u8::from(c.nullable))?;
        }
        write_u64(w, self.full_join_count)?;
        write_f64(w, self.sample_rate)?;
        write_u32(w, self.fds.len() as u32)?;
        for d in &self.fds {
            d.write_to(w)?;
        }
        write_u32(w, self.distincts.len() as u32)?;
        for (&col, set) in &self.distincts {
            write_u64(w, col as u64)?;
            write_u64s(w, &set.iter().copied().collect::<Vec<_>>())?;
        }
        write_u32(w, self.col_stats.len() as u32)?;
        for &(m, s) in &self.col_stats {
            write_f64(w, m)?;
            write_f64(w, s)?;
        }
        write_u32(w, self.attr_rdc.len() as u32)?;
        for row in &self.attr_rdc {
            write_f64s(w, row)?;
        }
        write_u8(w, u8::from(self.join_count_dirty))
    }

    /// Deserialize an RSPN written by [`Rspn::write_to`].
    pub(crate) fn read_from(r: &mut impl std::io::Read) -> std::io::Result<Self> {
        use deepdb_spn::wire::*;
        let compiled = CompiledSpn::read_from(r)?;
        let tables = read_usizes(r)?;
        let n_cols = read_u32(r)? as usize;
        if n_cols > 1 << 16 {
            return Err(corrupt("rspn column count"));
        }
        let mut columns = Vec::with_capacity(n_cols);
        for _ in 0..n_cols {
            let name = read_str(r)?;
            let role = match read_u8(r)? {
                0 => JoinColumnRole::Data {
                    table: read_u64(r)? as usize,
                    col: read_u64(r)? as usize,
                },
                1 => JoinColumnRole::Indicator {
                    table: read_u64(r)? as usize,
                },
                2 => {
                    let fk = ForeignKey {
                        child_table: read_u64(r)? as usize,
                        child_col: read_u64(r)? as usize,
                        parent_table: read_u64(r)? as usize,
                        parent_col: read_u64(r)? as usize,
                    };
                    JoinColumnRole::TupleFactor {
                        fk,
                        clamped: read_u8(r)? != 0,
                    }
                }
                _ => return Err(corrupt("column role tag")),
            };
            let discrete = read_u8(r)? != 0;
            let nullable = read_u8(r)? != 0;
            columns.push(JoinColumnMeta {
                name,
                role,
                discrete,
                nullable,
            });
        }
        let full_join_count = read_u64(r)?;
        let sample_rate = read_f64(r)?;
        let n_fds = read_u32(r)? as usize;
        let fds: Vec<FdDictionary> = (0..n_fds)
            .map(|_| FdDictionary::read_from(r))
            .collect::<std::io::Result<_>>()?;
        let n_distinct = read_u32(r)? as usize;
        let mut distincts = HashMap::new();
        for _ in 0..n_distinct {
            let col = read_u64(r)? as usize;
            let set: BTreeSet<u64> = read_u64s(r)?.into_iter().collect();
            distincts.insert(col, set);
        }
        let n_stats = read_u32(r)? as usize;
        let col_stats: Vec<(f64, f64)> = (0..n_stats)
            .map(|_| Ok::<_, std::io::Error>((read_f64(r)?, read_f64(r)?)))
            .collect::<std::io::Result<_>>()?;
        let n_rdc = read_u32(r)? as usize;
        let attr_rdc: Vec<Vec<f64>> = (0..n_rdc)
            .map(|_| read_f64s(r))
            .collect::<std::io::Result<_>>()?;
        let join_count_dirty = read_u8(r)? != 0;
        // Query paths index these per model column without bounds checks of
        // their own (`strategy_score` reads `attr_rdc[i][j]`).
        let n = compiled.n_columns();
        if columns.len() != n {
            return Err(corrupt("rspn columns do not match the model"));
        }
        if col_stats.len() != n {
            return Err(corrupt("rspn column stats arity"));
        }
        if attr_rdc.len() != n || attr_rdc.iter().any(|row| row.len() != n) {
            return Err(corrupt("rspn attribute RDC arity"));
        }

        let (data_col, indicator_col, factor_col, internal_edges) = column_maps(&columns);
        Ok(Self {
            compiled,
            tables,
            columns,
            full_join_count,
            sample_rate,
            data_col,
            indicator_col,
            factor_col,
            internal_edges,
            fds,
            distincts,
            col_stats,
            attr_rdc,
            join_count_dirty,
        })
    }

    /// Absorb one full-outer-join row (paper Algorithm 1), already assembled
    /// in SPN column order, by patching the arena in place — O(depth +
    /// touched bins), no recompilation.
    pub fn insert_row(&mut self, row: &[f64]) {
        self.track_distincts(row);
        self.compiled.insert(row);
    }

    /// Absorb a batch of full-outer-join rows in one routed traversal; the
    /// finalization is folded per node (one weight renormalization per
    /// touched sum for the whole batch).
    pub fn insert_rows(&mut self, rows: &[Vec<f64>]) {
        for row in rows {
            self.track_distincts(row);
        }
        self.compiled.insert_batch(rows);
    }

    /// Remove one full-outer-join row in place. Returns `false` (a
    /// consistent no-op) if the routed path cannot absorb the delete — e.g.
    /// the tuple was never represented.
    pub fn delete_row(&mut self, row: &[f64]) -> bool {
        self.compiled.delete(row)
    }

    /// Remove a batch of rows; returns how many actually applied. The
    /// finalization is folded per batch like [`Rspn::insert_rows`].
    pub fn delete_rows(&mut self, rows: &[Vec<f64>]) -> usize {
        self.compiled.delete_batch(rows)
    }

    /// Grow the GROUP BY domains by `row`'s values. A domain that would pass
    /// [`MAX_GROUP_DISTINCT`] is dropped, as at learn time: GROUP BY then
    /// falls back instead of enumerating a truncated domain.
    fn track_distincts(&mut self, row: &[f64]) {
        for (i, &v) in row.iter().enumerate() {
            if v.is_finite() && self.columns[i].discrete {
                if let Some(set) = self.distincts.get_mut(&i) {
                    if set.insert(v.to_bits()) && set.len() > MAX_GROUP_DISTINCT {
                        self.distincts.remove(&i);
                    }
                }
            }
        }
    }
}

/// Column lookup maps derived from the column roles.
type ColumnMaps = (
    HashMap<(TableId, ColId), usize>,
    HashMap<TableId, usize>,
    HashMap<ForeignKey, usize>,
    Vec<ForeignKey>,
);

/// SPN column per data attribute, per join indicator and per tuple factor,
/// plus the FK edges internal to the join (clamped factors).
fn column_maps(columns: &[JoinColumnMeta]) -> ColumnMaps {
    let (mut data_col, mut indicator_col, mut factor_col, mut internal_edges) =
        ColumnMaps::default();
    for (i, c) in columns.iter().enumerate() {
        match c.role {
            JoinColumnRole::Data { table, col } => {
                data_col.insert((table, col), i);
            }
            JoinColumnRole::Indicator { table } => {
                indicator_col.insert(table, i);
            }
            JoinColumnRole::TupleFactor { fk, clamped } => {
                factor_col.insert(fk, i);
                if clamped {
                    internal_edges.push(fk);
                }
            }
        }
    }
    (data_col, indicator_col, factor_col, internal_edges)
}

/// Distinct finite values of a column as a GROUP BY domain, or `None` once
/// more than [`MAX_GROUP_DISTINCT`] show up: GROUP BY then falls back
/// instead of enumerating a truncated domain.
fn distinct_domain(col: &[f64]) -> Option<BTreeSet<u64>> {
    let mut set = BTreeSet::new();
    for &v in col {
        if v.is_finite() && set.insert(v.to_bits()) && set.len() > MAX_GROUP_DISTINCT {
            return None;
        }
    }
    Some(set)
}

/// Translate a storage predicate operation into leaf predicates.
/// Comparisons against NULL constants are unsatisfiable (SQL unknown) and
/// yield an empty `In` list.
pub(crate) fn translate_pred(op: &PredOp) -> Vec<LeafPred> {
    fn num(v: &Value) -> Option<f64> {
        v.as_f64()
    }
    match op {
        PredOp::IsNull => vec![LeafPred::IsNull],
        PredOp::IsNotNull => vec![LeafPred::IsNotNull],
        PredOp::Cmp(op, c) => match num(c) {
            None => vec![LeafPred::In(Vec::new())],
            Some(v) => vec![match op {
                CmpOp::Eq => LeafPred::eq(v),
                CmpOp::Ne => LeafPred::NotIn(vec![v]),
                CmpOp::Lt => LeafPred::lt(v),
                CmpOp::Le => LeafPred::le(v),
                CmpOp::Gt => LeafPred::gt(v),
                CmpOp::Ge => LeafPred::ge(v),
            }],
        },
        PredOp::In(vs) => {
            let nums: Vec<f64> = vs.iter().filter_map(num).collect();
            vec![LeafPred::In(nums)]
        }
        PredOp::Between(lo, hi) => match (num(lo), num(hi)) {
            (Some(a), Some(b)) => {
                vec![LeafPred::Range {
                    lo: a,
                    hi: b,
                    lo_incl: true,
                    hi_incl: true,
                }]
            }
            _ => vec![LeafPred::In(Vec::new())],
        },
    }
}

/// Build an expectation query for the count fraction of Theorem 1:
/// `E[1/F'(Q,J) · 1_C · ∏_{T∈Q} N_T]`, returning `(query, factor_cols)`.
pub(crate) fn count_fraction_query(
    rspn: &Rspn,
    present: &BTreeSet<TableId>,
    preds: &[Predicate],
    squared: bool,
) -> Result<(SpnQuery, Vec<usize>), DeepDbError> {
    let mut q = rspn.new_query();
    for &t in present {
        rspn.require_present(&mut q, t);
    }
    for p in preds {
        rspn.add_predicate(&mut q, p)?;
    }
    let factors = rspn.normalization_factor_cols(present);
    let func = if squared {
        LeafFunc::InvSqClamp1
    } else {
        LeafFunc::InvClamp1
    };
    for &f in &factors {
        q.set_func(f, func);
    }
    Ok((q, factors))
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepdb_storage::fixtures::paper_customer_order;
    use deepdb_storage::JoinTree;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn learn_joint(n_samples: usize) -> (Database, Rspn) {
        let db = paper_customer_order();
        let c = db.table_id("customer").unwrap();
        let o = db.table_id("orders").unwrap();
        let tree = JoinTree::new(&db, &[c, o]).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let sample = tree.sample(&db, n_samples, &mut rng);
        let rspn = Rspn::learn(&sample, &db, &[], &SpnParams::default()).unwrap();
        (db, rspn)
    }

    #[test]
    fn metadata_maps_are_complete() {
        let (db, rspn) = learn_joint(2000);
        let c = db.table_id("customer").unwrap();
        let o = db.table_id("orders").unwrap();
        assert!(rspn.data_column(c, 1).is_some(), "c_age modeled");
        assert!(rspn.data_column(c, 2).is_some(), "c_region modeled");
        assert!(rspn.data_column(o, 2).is_some(), "o_channel modeled");
        assert!(rspn.data_column(c, 0).is_none(), "keys are not modeled");
        assert_eq!(rspn.internal_edges().len(), 1);
        assert_eq!(rspn.full_join_count(), 5);
    }

    #[test]
    fn normalization_rule_matches_paper_cases() {
        let (db, rspn) = learn_joint(500);
        let c = db.table_id("customer").unwrap();
        let o = db.table_id("orders").unwrap();
        // Query on {customer} only: normalize by F'_{C←O} (paper Case 2).
        let f = rspn.normalization_factor_cols(&BTreeSet::from([c]));
        assert_eq!(f.len(), 1);
        // Query on both tables: no normalization (paper Case 1).
        let f = rspn.normalization_factor_cols(&BTreeSet::from([c, o]));
        assert!(f.is_empty());
        // Query on {orders}: upward traversal, no factor.
        let f = rspn.normalization_factor_cols(&BTreeSet::from([o]));
        assert!(f.is_empty());
    }

    #[test]
    fn count_fraction_reproduces_paper_numbers() {
        let (db, rspn) = learn_joint(40_000);
        let c = db.table_id("customer").unwrap();
        let o = db.table_id("orders").unwrap();

        // Paper Case 1 (Q2): P(ONLINE ∧ EUROPE ∧ N_O ∧ N_C) = 1/5.
        let preds = vec![
            Predicate::new(c, 2, PredOp::Cmp(CmpOp::Eq, Value::Int(0))),
            Predicate::new(o, 2, PredOp::Cmp(CmpOp::Eq, Value::Int(0))),
        ];
        let (q, _) = count_fraction_query(&rspn, &BTreeSet::from([c, o]), &preds, false).unwrap();
        let frac = rspn.expect(&q);
        let est = frac * rspn.full_join_count() as f64;
        assert!((est - 1.0).abs() < 0.2, "Q2 estimate = {est}");

        // Paper Case 2 (Q1): European customers from the joint RSPN = 2.
        let preds = vec![Predicate::new(c, 2, PredOp::Cmp(CmpOp::Eq, Value::Int(0)))];
        let (q, factors) =
            count_fraction_query(&rspn, &BTreeSet::from([c]), &preds, false).unwrap();
        assert_eq!(factors.len(), 1);
        let est = rspn.expect(&q) * rspn.full_join_count() as f64;
        assert!((est - 2.0).abs() < 0.25, "Q1 via case 2 = {est}");
    }

    #[test]
    fn distinct_values_track_training_data() {
        let (db, rspn) = learn_joint(3000);
        let c = db.table_id("customer").unwrap();
        let col = rspn.data_column(c, 2).unwrap();
        let vals = rspn.distinct_values(col).unwrap();
        assert_eq!(vals, vec![0.0, 1.0]);
    }

    #[test]
    fn insert_past_the_distinct_cap_drops_the_group_domain() {
        let (db, mut rspn) = learn_joint(500);
        let c = db.table_id("customer").unwrap();
        let col = rspn.data_column(c, 2).unwrap();
        let mut row = vec![1.0; rspn.columns.len()];
        // Below the cap a new value grows the domain.
        row[col] = 7.0;
        rspn.insert_row(&row);
        assert_eq!(rspn.distinct_values(col).unwrap(), vec![0.0, 1.0, 7.0]);
        // Fill the domain to exactly the cap.
        let set = rspn.distincts.get_mut(&col).unwrap();
        let mut v = 100.0f64;
        while set.len() < MAX_GROUP_DISTINCT {
            set.insert(v.to_bits());
            v += 1.0;
        }
        // A value already present leaves it unchanged.
        row[col] = 7.0;
        rspn.insert_row(&row);
        assert_eq!(rspn.distinct_values(col).unwrap().len(), MAX_GROUP_DISTINCT);
        // A new value past the cap drops it, as learning would have.
        row[col] = -5.0;
        rspn.insert_row(&row);
        assert_eq!(rspn.distinct_values(col), None);
    }

    /// A value first seen deep into the sample still joins the domain, and
    /// a column past the cap has none.
    #[test]
    fn group_domain_scans_the_whole_column() {
        let mut col = vec![0.0; 20_000];
        col.push(1.0);
        let want: BTreeSet<u64> = [0.0f64, 1.0].iter().map(|v| v.to_bits()).collect();
        assert_eq!(distinct_domain(&col), Some(want));
        let wide: Vec<f64> = (0..=MAX_GROUP_DISTINCT).map(|v| v as f64).collect();
        assert_eq!(distinct_domain(&wide), None);
        assert_eq!(
            distinct_domain(&wide[1..]).map(|s| s.len()),
            Some(MAX_GROUP_DISTINCT)
        );
    }

    /// Member metadata must cover exactly the model's columns: a snapshot
    /// whose per-column tables are short loads as `InvalidData`, not as a
    /// member that panics on its first multi-predicate query.
    #[test]
    fn snapshot_metadata_must_match_the_model() {
        let (_, rspn) = learn_joint(500);
        let reload = |r: &Rspn| {
            let mut buf = Vec::new();
            r.write_to(&mut buf).unwrap();
            Rspn::read_from(&mut buf.as_slice())
        };
        assert!(reload(&rspn).is_ok());

        let mut short_rdc = rspn.clone();
        short_rdc.attr_rdc.pop();
        let mut ragged_rdc = rspn.clone();
        ragged_rdc.attr_rdc[0].pop();
        let mut short_stats = rspn.clone();
        short_stats.col_stats.pop();
        let mut extra_column = rspn.clone();
        extra_column.columns.push(rspn.columns[0].clone());
        for bad in [short_rdc, ragged_rdc, short_stats, extra_column] {
            let err = reload(&bad).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
        }
    }

    #[test]
    fn predicate_translation_covers_operators() {
        assert_eq!(translate_pred(&PredOp::IsNull), vec![LeafPred::IsNull]);
        assert_eq!(
            translate_pred(&PredOp::Cmp(CmpOp::Ne, Value::Int(3))),
            vec![LeafPred::NotIn(vec![3.0])]
        );
        // Comparisons against NULL are unsatisfiable.
        assert_eq!(
            translate_pred(&PredOp::Cmp(CmpOp::Eq, Value::Null)),
            vec![LeafPred::In(vec![])]
        );
        match &translate_pred(&PredOp::Between(Value::Int(1), Value::Int(5)))[0] {
            LeafPred::Range {
                lo,
                hi,
                lo_incl,
                hi_incl,
            } => {
                assert_eq!((*lo, *hi, *lo_incl, *hi_incl), (1.0, 5.0, true, true));
            }
            other => panic!("unexpected translation {other:?}"),
        }
    }

    #[test]
    fn strategy_score_prefers_covering_rspn() {
        let (db, rspn) = learn_joint(2000);
        let c = db.table_id("customer").unwrap();
        let o = db.table_id("orders").unwrap();
        let both = vec![
            Predicate::new(c, 2, PredOp::Cmp(CmpOp::Eq, Value::Int(0))),
            Predicate::new(o, 2, PredOp::Cmp(CmpOp::Eq, Value::Int(0))),
        ];
        let one = vec![Predicate::new(c, 2, PredOp::Cmp(CmpOp::Eq, Value::Int(0)))];
        assert!(rspn.strategy_score(&both) > rspn.strategy_score(&one));
    }
}
