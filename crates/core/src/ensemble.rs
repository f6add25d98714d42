//! RSPN ensembles: base construction, budget-constrained optimization, and
//! direct updates (paper §3.3, §5.2, §5.3).

use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};

use deepdb_spn::rdc::{rdc, RdcParams};
use deepdb_spn::{SpnParams, WorkerPool};
use deepdb_storage::{
    ColId, Database, ForeignKey, JoinColumnRole, JoinTree, Query, TableId, Value,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::cache::{CacheStats, PlanCache, DEFAULT_PLAN_CACHE_CAPACITY};
use crate::checkout::PreparedQuery;
use crate::fd::FunctionalDependency;
use crate::rspn::Rspn;
use crate::DeepDbError;

/// Which RSPNs the ensemble builder creates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnsembleStrategy {
    /// One RSPN per table, no joins — the paper's "cheap strategy" (§6.1).
    SingleTables,
    /// Base ensemble (correlated FK pairs) plus budget-driven larger RSPNs.
    Relational,
}

/// Hyper-parameters of ensemble construction. Defaults follow the paper:
/// RDC threshold 0.3, budget factor 0.5.
#[derive(Debug, Clone)]
pub struct EnsembleParams {
    pub strategy: EnsembleStrategy,
    /// Correlation threshold on the table dependency value (max pairwise
    /// attribute RDC) above which a joint RSPN is learned.
    pub rdc_threshold: f64,
    /// Extra learning budget relative to the base ensemble (paper §5.3);
    /// 0 = base ensemble only.
    pub budget_factor: f64,
    /// Training-sample rows per RSPN.
    pub sample_size: usize,
    /// Rows sampled for table-correlation tests.
    pub correlation_sample: usize,
    /// Largest table count of an optimized RSPN.
    pub max_rspn_tables: usize,
    /// SPN learning parameters.
    pub spn: SpnParams,
    pub seed: u64,
}

impl Default for EnsembleParams {
    fn default() -> Self {
        Self {
            strategy: EnsembleStrategy::Relational,
            rdc_threshold: 0.3,
            budget_factor: 0.5,
            sample_size: 50_000,
            correlation_sample: 3_000,
            max_rspn_tables: 3,
            spn: SpnParams::default(),
            seed: 0xD33D,
        }
    }
}

/// Builder for [`Ensemble`].
pub struct EnsembleBuilder<'a> {
    db: &'a Database,
    params: EnsembleParams,
    fds: Vec<FunctionalDependency>,
}

impl<'a> EnsembleBuilder<'a> {
    pub fn new(db: &'a Database) -> Self {
        Self {
            db,
            params: EnsembleParams::default(),
            fds: Vec::new(),
        }
    }

    pub fn params(mut self, params: EnsembleParams) -> Self {
        self.params = params;
        self
    }

    /// Declare a functional dependency `determinant → dependent` (paper
    /// §3.2): the dependent column is answered via a dictionary.
    pub fn functional_dependency(
        mut self,
        table: TableId,
        determinant: ColId,
        dependent: ColId,
    ) -> Self {
        self.fds.push(FunctionalDependency {
            table,
            determinant,
            dependent,
        });
        self
    }

    /// Learn the ensemble (offline phase, Figure 2).
    pub fn build(self) -> Result<Ensemble, DeepDbError> {
        let db = self.db;
        let p = &self.params;
        let mut rng = StdRng::seed_from_u64(p.seed);

        // 1. Table-pair dependency values over FK edges.
        let mut dependencies: HashMap<(TableId, TableId), f64> = HashMap::new();
        if p.strategy == EnsembleStrategy::Relational {
            for fk in db.foreign_keys() {
                let pair = [fk.parent_table, fk.child_table];
                let dep = table_dependency(db, &pair, p, &mut rng)?;
                dependencies.insert(ordered(fk.parent_table, fk.child_table), dep);
            }
        }

        // 2. Plan the table sets.
        let mut planned: Vec<Vec<TableId>> = Vec::new();
        match p.strategy {
            EnsembleStrategy::SingleTables => {
                planned.extend((0..db.n_tables()).map(|t| vec![t]));
            }
            EnsembleStrategy::Relational => {
                let mut covered: BTreeSet<TableId> = BTreeSet::new();
                for fk in db.foreign_keys() {
                    let dep = dependencies[&ordered(fk.parent_table, fk.child_table)];
                    if dep >= p.rdc_threshold {
                        planned.push(vec![fk.parent_table, fk.child_table]);
                        covered.insert(fk.parent_table);
                        covered.insert(fk.child_table);
                    }
                }
                for t in 0..db.n_tables() {
                    if !covered.contains(&t) {
                        planned.push(vec![t]);
                    }
                }
            }
        }

        // Cost proxy: cols(r)² · rows(r) (paper §5.3).
        let cost = |tables: &[TableId]| -> f64 {
            let cols: usize = tables
                .iter()
                .map(|&t| db.table(t).schema().n_columns())
                .sum();
            let rows: usize = tables.iter().map(|&t| db.table(t).n_rows()).sum();
            (cols * cols) as f64 * rows.max(1) as f64
        };
        let base_cost: f64 = planned.iter().map(|ts| cost(ts)).sum();

        // 3. Ensemble optimization: larger RSPNs under the budget (§5.3).
        if p.strategy == EnsembleStrategy::Relational && p.budget_factor > 0.0 {
            let mut candidates = connected_subsets(db, 3, p.max_rspn_tables);
            candidates.retain(|c| !planned.iter().any(|existing| existing == c));
            // Mean pairwise dependency; pairs without a precomputed value are
            // measured on the candidate's own join sample.
            let mut scored: Vec<(f64, f64, Vec<TableId>)> = Vec::new();
            for cand in candidates {
                let mut mean = 0.0;
                let mut pairs = 0.0;
                let mut sample_cache: Option<HashMap<(TableId, TableId), f64>> = None;
                for i in 0..cand.len() {
                    for j in (i + 1)..cand.len() {
                        let key = ordered(cand[i], cand[j]);
                        let dep = match dependencies.get(&key) {
                            Some(&d) => d,
                            None => {
                                if sample_cache.is_none() {
                                    sample_cache =
                                        Some(candidate_dependencies(db, &cand, p, &mut rng)?);
                                }
                                *sample_cache.as_ref().unwrap().get(&key).unwrap_or(&0.0)
                            }
                        };
                        mean += dep;
                        pairs += 1.0;
                    }
                }
                if pairs > 0.0 {
                    scored.push((mean / pairs, cost(&cand), cand));
                }
            }
            // Highest mean RDC first; cheaper first among ties.
            scored.sort_by(|a, b| {
                b.0.partial_cmp(&a.0)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
            });
            let budget = p.budget_factor * base_cost;
            let mut spent = 0.0;
            for (_, c, cand) in scored {
                if spent + c > budget {
                    continue;
                }
                spent += c;
                planned.push(cand);
            }
        }

        // 4. Learn every planned RSPN.
        let mut rspns = Vec::with_capacity(planned.len());
        for (i, tables) in planned.iter().enumerate() {
            let tree = JoinTree::new(db, tables)?;
            // Sampling is with replacement: for joins smaller than the budget
            // we still draw enough rows (64× the join size, at least 4096) so
            // the empirical distribution converges to the exact one.
            let n = p
                .sample_size
                .min((tree.full_count().saturating_mul(64)).max(4096) as usize)
                .max(1);
            let mut sample_rng = StdRng::seed_from_u64(p.seed ^ (0xA11CE + i as u64));
            let sample = tree.sample(db, n, &mut sample_rng);
            let mut spn_params = p.spn.clone();
            spn_params.seed = p
                .seed
                .wrapping_add(i as u64)
                .wrapping_mul(0x9E3779B97F4A7C15);
            rspns.push(Rspn::learn(&sample, db, &self.fds, &spn_params)?);
        }

        // 5. Caches for the update path.
        let mut factor_caches: HashMap<ForeignKey, HashMap<i64, u32>> = HashMap::new();
        for fk in db.foreign_keys() {
            let factors = db.tuple_factors(fk);
            let parent = db.table(fk.parent_table);
            let pk = parent.schema().primary_key().expect("FK parents have PKs");
            let mut map = HashMap::with_capacity(parent.n_rows());
            #[allow(clippy::needless_range_loop)]
            for r in 0..parent.n_rows() {
                if let Some(k) = parent.column(pk).i64_at(r) {
                    map.insert(k, factors[r]);
                }
            }
            factor_caches.insert(*fk, map);
        }
        let mut pk_caches: HashMap<TableId, HashMap<i64, u32>> = HashMap::new();
        for t in 0..db.n_tables() {
            let table = db.table(t);
            if let Some(pk) = table.schema().primary_key() {
                let mut map = HashMap::with_capacity(table.n_rows());
                for r in 0..table.n_rows() {
                    if let Some(k) = table.column(pk).i64_at(r) {
                        map.insert(k, r as u32);
                    }
                }
                pk_caches.insert(t, map);
            }
        }

        let row_counts = (0..db.n_tables())
            .map(|t| db.table(t).n_rows() as u64)
            .collect();
        Ok(Ensemble {
            rspns,
            dependencies,
            factor_caches,
            pk_caches,
            row_counts,
            params: self.params,
            update_rng: StdRng::seed_from_u64(0x0BDA7E5),
            updates_absorbed: 0,
            rows_lost: 0,
            probe_threads: 0,
            pool: WorkerPool::new(),
            plan_epoch: AtomicU64::new(0),
            plan_cache: PlanCache::new(DEFAULT_PLAN_CACHE_CAPACITY),
        })
    }
}

/// A learned ensemble of RSPNs representing one database (Figure 2).
pub struct Ensemble {
    rspns: Vec<Rspn>,
    /// Table-pair dependency values measured during construction.
    dependencies: HashMap<(TableId, TableId), f64>,
    /// FK → (parent key → child count); maintained under updates.
    factor_caches: HashMap<ForeignKey, HashMap<i64, u32>>,
    /// Table → (pk → row id); maintained under updates.
    pk_caches: HashMap<TableId, HashMap<i64, u32>>,
    row_counts: Vec<u64>,
    params: EnsembleParams,
    update_rng: StdRng,
    updates_absorbed: u64,
    /// Sample rows an update meant to apply to a member but could not: an
    /// inserted or deleted tuple whose FK parent is not in the PK cache (no
    /// join row to assemble), or a delete the member's model refused (it
    /// never represented the row). Runtime-only, not part of snapshots.
    rows_lost: u64,
    /// Worker-thread cap for probe-plan execution; 0 = auto (available
    /// parallelism). Runtime-only, not part of snapshots.
    probe_threads: usize,
    /// Sweep fan-out: every probe-plan execution (AQP, cardinality,
    /// classification batches) sweeps through it, and threaded sweeps
    /// reuse the helper scratch it parks between calls. Runtime-only, not
    /// part of snapshots.
    pool: WorkerPool,
    /// Plan-cache invalidation epoch: bumped by every update and every
    /// coverage-/count-changing maintenance operation. Every cache key and
    /// [`crate::PreparedQuery`] embeds the epoch at creation, so stale plans
    /// can never be reused. Atomic so concurrent serving can
    /// observe (and [`Ensemble::invalidate_plans`] can bump) it through
    /// `&Ensemble`. Runtime-only, not part of snapshots.
    plan_epoch: AtomicU64,
    /// Shape-keyed LRU cache of plan artifacts, grouped templates, and
    /// member-selection preludes (see [`crate::cache`]). Runtime-only, not
    /// part of snapshots.
    plan_cache: PlanCache,
}

fn ordered(a: TableId, b: TableId) -> (TableId, TableId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Max pairwise attribute RDC between two tables over a join sample
/// (paper §3.3 — the dependency value).
fn table_dependency(
    db: &Database,
    tables: &[TableId; 2],
    p: &EnsembleParams,
    rng: &mut StdRng,
) -> Result<f64, DeepDbError> {
    let deps = candidate_dependencies(db, tables, p, rng)?;
    Ok(*deps.get(&ordered(tables[0], tables[1])).unwrap_or(&0.0))
}

/// Pairwise table dependency values over the join sample of a candidate
/// table set.
fn candidate_dependencies(
    db: &Database,
    tables: &[TableId],
    p: &EnsembleParams,
    rng: &mut StdRng,
) -> Result<HashMap<(TableId, TableId), f64>, DeepDbError> {
    let tree = JoinTree::new(db, tables)?;
    let n = p
        .correlation_sample
        .min(tree.full_count().max(1) as usize)
        .max(1);
    let sample = tree.sample(db, n, rng);
    // Attribute columns per table.
    let mut by_table: HashMap<TableId, Vec<usize>> = HashMap::new();
    for (i, c) in sample.columns.iter().enumerate() {
        if let JoinColumnRole::Data { table, .. } = c.role {
            by_table.entry(table).or_default().push(i);
        }
    }
    let rdc_params = RdcParams::default();
    let mut out = HashMap::new();
    for i in 0..tables.len() {
        for j in (i + 1)..tables.len() {
            let (a, b) = (tables[i], tables[j]);
            let mut max_rdc: f64 = 0.0;
            for &ca in by_table.get(&a).map_or(&Vec::new(), |v| v) {
                for &cb in by_table.get(&b).map_or(&Vec::new(), |v| v) {
                    let v = rdc(&sample.data[ca], &sample.data[cb], &rdc_params);
                    max_rdc = max_rdc.max(v);
                }
            }
            out.insert(ordered(a, b), max_rdc);
        }
    }
    Ok(out)
}

/// Connected subsets of the FK graph with sizes in `[min, max]`.
fn connected_subsets(db: &Database, min: usize, max: usize) -> Vec<Vec<TableId>> {
    let n = db.n_tables();
    let mut results: BTreeSet<Vec<TableId>> = BTreeSet::new();
    // Grow connected sets by BFS over the subset lattice — schemas are small
    // (≤ ~10 tables), so this is cheap.
    let mut frontier: Vec<BTreeSet<TableId>> = (0..n).map(|t| BTreeSet::from([t])).collect();
    for _ in 1..max {
        let mut next = Vec::new();
        for set in &frontier {
            for fk in db.foreign_keys() {
                for (inside, outside) in [
                    (fk.parent_table, fk.child_table),
                    (fk.child_table, fk.parent_table),
                ] {
                    if set.contains(&inside) && !set.contains(&outside) {
                        let mut grown = set.clone();
                        grown.insert(outside);
                        if grown.len() >= min {
                            results.insert(grown.iter().copied().collect());
                        }
                        if grown.len() < max {
                            next.push(grown);
                        }
                    }
                }
            }
        }
        next.sort();
        next.dedup();
        frontier = next;
        if frontier.is_empty() {
            break;
        }
    }
    results.into_iter().collect()
}

impl Ensemble {
    /// The ensemble's members. Every query path — expectations and MPE —
    /// works on `&Rspn`; there is deliberately no `rspns_mut()` (mutation
    /// goes through the update/maintenance entry points below).
    pub fn rspns(&self) -> &[Rspn] {
        &self.rspns
    }

    pub fn params(&self) -> &EnsembleParams {
        &self.params
    }

    /// Rows currently in a table (maintained under updates).
    pub fn table_rows(&self, t: TableId) -> u64 {
        self.row_counts.get(t).copied().unwrap_or(0)
    }

    /// Dependency value measured between two tables, if known.
    pub fn dependency(&self, a: TableId, b: TableId) -> Option<f64> {
        self.dependencies.get(&ordered(a, b)).copied()
    }

    /// Total number of tuples absorbed through the update path.
    pub fn updates_absorbed(&self) -> u64 {
        self.updates_absorbed
    }

    /// Sample rows updates could not apply to a member's model since this
    /// ensemble was built or loaded: the join row of a tuple whose FK parent
    /// is unknown, and deletes of rows the model never represented. Each
    /// is mass the models silently miss.
    pub fn model_rows_lost(&self) -> u64 {
        self.rows_lost
    }

    /// Sum of model sizes (diagnostics).
    pub fn total_model_size(&self) -> usize {
        self.rspns.iter().map(Rspn::model_size).sum()
    }

    /// Cap the worker threads used to execute probe plans; `0` restores the
    /// default (available parallelism).
    pub fn set_probe_threads(&mut self, threads: usize) {
        self.probe_threads = threads;
    }

    /// Worker threads probe-plan execution may use: the explicit cap from
    /// [`Ensemble::set_probe_threads`], or the host default
    /// ([`deepdb_spn::default_threads`]) when unset.
    pub fn probe_thread_budget(&self) -> usize {
        if self.probe_threads > 0 {
            self.probe_threads
        } else {
            deepdb_spn::default_threads()
        }
    }

    /// The ensemble's sweep fan-out. Probe-plan execution submits its
    /// fused sweeps here; threaded sweeps spawn scoped helpers that are
    /// joined before the sweep returns, and their evaluator scratch is
    /// kept for the next sweep.
    pub fn worker_pool(&self) -> &WorkerPool {
        &self.pool
    }

    /// Current plan-cache invalidation epoch. Bumped once per
    /// update/maintenance call; the plan cache is stamped with it and
    /// [`crate::PreparedQuery`] handles embed it.
    pub fn plan_epoch(&self) -> u64 {
        self.plan_epoch.load(Ordering::Acquire)
    }

    fn bump_plan_epoch(&self) {
        self.plan_epoch.fetch_add(1, Ordering::AcqRel);
    }

    /// Advance the plan epoch through a shared reference, invalidating every
    /// cached plan artifact and outstanding [`crate::PreparedQuery`] without
    /// touching the models — the escape hatch for external model surgery
    /// and the chaos harness's mid-flight "maintenance landed" injection.
    /// Regular maintenance (the update entry points) bumps the epoch
    /// itself; calling this as well is harmless (plans just go stale
    /// twice).
    pub fn invalidate_plans(&self) {
        self.bump_plan_epoch();
    }

    pub(crate) fn plan_cache(&self) -> &PlanCache {
        &self.plan_cache
    }

    /// Hit/miss/eviction/occupancy counters of the plan cache.
    pub fn plan_cache_stats(&self) -> CacheStats {
        self.plan_cache.stats()
    }

    /// Resize the plan cache (`0` disables caching entirely — every query
    /// plans cold, with no lookup or bind-discovery overhead). Clears all
    /// entries and counters.
    pub fn set_plan_cache_capacity(&self, capacity: usize) {
        self.plan_cache.set_capacity(capacity);
    }

    /// Prepare a scalar aggregate query for repeated execution with varying
    /// literals: planning, translation, and literal-bind discovery happen
    /// once, then [`crate::PreparedQuery::execute`] rebinds literal slots in
    /// place and sweeps with zero planning work and zero steady-state
    /// allocations. See the `checkout` module docs for the lifecycle.
    pub fn prepare(&self, db: &Database, query: &Query) -> Result<PreparedQuery, DeepDbError> {
        crate::checkout::prepare(self, db, query)
    }

    /// Insert a row into the database **and** absorb it into every affected
    /// RSPN (paper Algorithm 1 + §6.1 update protocol). The row is appended
    /// to `db` first; the model update follows, patching each affected
    /// member's arena in place, so an interleaved update/query stream pays
    /// O(tree depth) per tuple.
    pub fn apply_insert(
        &mut self,
        db: &mut Database,
        table: TableId,
        values: &[Value],
    ) -> Result<(), DeepDbError> {
        db.table_mut(table).push_row(values)?;
        self.absorb_insert(db, table, values)
    }

    /// Insert a batch of rows into one table and absorb them into the
    /// models, fanning each member's accumulated tuple batch to it in one
    /// routed traversal (one weight renormalization per touched sum node for
    /// the whole batch). Bookkeeping (PK/factor caches, |J| maintenance,
    /// sampling decisions) runs row by row in insertion order, so the result
    /// is bitwise identical to the same sequence of
    /// [`Ensemble::apply_insert`] calls. A malformed row ends the batch with
    /// its error; the rows before it stay inserted and absorbed.
    pub fn apply_insert_batch(
        &mut self,
        db: &mut Database,
        table: TableId,
        rows: &[Vec<Value>],
    ) -> Result<(), DeepDbError> {
        // One bump per call, up front: a batch that errors part-way has
        // still changed the models.
        self.bump_plan_epoch();
        let mut batches: Vec<Vec<Vec<f64>>> = vec![Vec::new(); self.rspns.len()];
        let outcome = rows.iter().try_for_each(|values| {
            db.table_mut(table).push_row(values)?;
            self.bookkeep_insert(db, table, values, &mut batches);
            Ok(())
        });
        // Also after a malformed row: the rows before it are in `db` and
        // bookkept, so the models must see them.
        self.fan_insert_batches(batches);
        outcome
    }

    /// Absorb an already-inserted row into the models. `db` must already
    /// contain the row (as its last row of `table`).
    pub fn absorb_insert(
        &mut self,
        db: &Database,
        table: TableId,
        values: &[Value],
    ) -> Result<(), DeepDbError> {
        self.bump_plan_epoch();
        let mut batches: Vec<Vec<Vec<f64>>> = vec![Vec::new(); self.rspns.len()];
        self.bookkeep_insert(db, table, values, &mut batches);
        self.fan_insert_batches(batches);
        Ok(())
    }

    /// Patch each member's tree + arena with its accumulated tuple batch.
    fn fan_insert_batches(&mut self, batches: Vec<Vec<Vec<f64>>>) {
        for (i, batch) in batches.into_iter().enumerate() {
            if !batch.is_empty() {
                self.rspns[i].insert_rows(&batch);
            }
        }
    }

    /// The non-model half of an insert: cache/|J| maintenance plus the
    /// sampled assembly of each affected member's join row(s), pushed into
    /// `batches` instead of applied immediately so callers can fold a whole
    /// batch into one model update per member.
    fn bookkeep_insert(
        &mut self,
        db: &Database,
        table: TableId,
        values: &[Value],
        batches: &mut [Vec<Vec<f64>>],
    ) {
        // (Index loop below: the body borrows `self` mutably for the RNG and
        // join-row assembly, so iterating `self.rspns` directly won't borrow.)
        self.updates_absorbed += 1;
        self.row_counts[table] += 1;
        let new_row = db.table(table).n_rows() - 1;

        // Maintain pk cache.
        if let Some(pk) = db.table(table).schema().primary_key() {
            if let Some(k) = values[pk].as_i64() {
                self.pk_caches
                    .entry(table)
                    .or_default()
                    .insert(k, new_row as u32);
            }
        }
        // Maintain factor caches; remember pre-increment factors for |J|.
        let mut old_parent_factor: HashMap<ForeignKey, u32> = HashMap::new();
        for fk in db.foreign_keys() {
            if fk.child_table == table {
                if let Some(k) = values[fk.child_col].as_i64() {
                    let entry = self
                        .factor_caches
                        .entry(*fk)
                        .or_default()
                        .entry(k)
                        .or_insert(0);
                    old_parent_factor.insert(*fk, *entry);
                    *entry += 1;
                }
            } else if fk.parent_table == table {
                if let Some(k) =
                    values[db.table(table).schema().primary_key().unwrap_or(0)].as_i64()
                {
                    self.factor_caches
                        .entry(*fk)
                        .or_default()
                        .entry(k)
                        .or_insert(0);
                }
            }
        }

        #[allow(clippy::needless_range_loop)]
        for i in 0..self.rspns.len() {
            if !self.rspns[i].tables().contains(&table) {
                continue;
            }
            // |J| bookkeeping.
            let n_tables = self.rspns[i].tables().len();
            if n_tables == 1 {
                self.rspns[i].bump_full_join_count(1);
            } else if n_tables == 2 {
                let internal = self.rspns[i].internal_edges().to_vec();
                let fk = internal[0];
                if fk.parent_table == table {
                    // New parent row appears once (NULL-padded).
                    self.rspns[i].bump_full_join_count(1);
                } else {
                    // New child row: replaces the padded row when it is the
                    // parent's first child, otherwise adds one.
                    let delta = i64::from(old_parent_factor.get(&fk).copied().unwrap_or(0) >= 1);
                    self.rspns[i].bump_full_join_count(delta);
                }
            } else {
                self.rspns[i].bump_full_join_count(1);
                self.rspns[i].mark_join_count_dirty();
            }

            // Sampled model update at the training sample rate. Rates above
            // one (oversampled small joins) insert multiple sample rows so
            // the per-tuple mass matches the training distribution.
            let copies = sampled_copies(self.rspns[i].sample_rate(), &mut self.update_rng);
            if copies > 0 {
                match self.assemble_join_row(db, i, table, values) {
                    Some(row) => batches[i].extend(std::iter::repeat_n(row, copies)),
                    None => self.rows_lost += copies as u64,
                }
            }
        }
    }

    /// Delete a row (by id) from the database **and** the models.
    pub fn apply_delete(
        &mut self,
        db: &mut Database,
        table: TableId,
        row: usize,
    ) -> Result<(), DeepDbError> {
        let values = db.table(table).row_values(row);
        // Model update first (needs parent rows still present in db).
        self.bump_plan_epoch();
        self.updates_absorbed += 1;
        self.row_counts[table] = self.row_counts[table].saturating_sub(1);

        let mut old_parent_factor: HashMap<ForeignKey, u32> = HashMap::new();
        for fk in db.foreign_keys() {
            if fk.child_table == table {
                if let Some(k) = values[fk.child_col].as_i64() {
                    if let Some(entry) = self.factor_caches.entry(*fk).or_default().get_mut(&k) {
                        old_parent_factor.insert(*fk, *entry);
                        *entry = entry.saturating_sub(1);
                    }
                }
            }
        }

        for i in 0..self.rspns.len() {
            if !self.rspns[i].tables().contains(&table) {
                continue;
            }
            let n_tables = self.rspns[i].tables().len();
            if n_tables == 1 {
                self.rspns[i].bump_full_join_count(-1);
            } else if n_tables == 2 {
                let fk = self.rspns[i].internal_edges()[0];
                if fk.parent_table == table {
                    self.rspns[i].bump_full_join_count(-1);
                } else {
                    let delta = -i64::from(old_parent_factor.get(&fk).copied().unwrap_or(0) > 1);
                    self.rspns[i].bump_full_join_count(delta);
                }
            } else {
                self.rspns[i].bump_full_join_count(-1);
                self.rspns[i].mark_join_count_dirty();
            }
            let copies = sampled_copies(self.rspns[i].sample_rate(), &mut self.update_rng);
            if copies > 0 {
                match self.assemble_join_row(db, i, table, &values) {
                    Some(join_row) => {
                        for _ in 0..copies {
                            self.rows_lost += u64::from(!self.rspns[i].delete_row(&join_row));
                        }
                    }
                    None => self.rows_lost += copies as u64,
                }
            }
        }

        // Physical delete + pk-cache repair (swap_remove moves the last row).
        if let Some(pk) = db.table(table).schema().primary_key() {
            if let Some(k) = values[pk].as_i64() {
                self.pk_caches.entry(table).or_default().remove(&k);
            }
            let last = db.table(table).n_rows() - 1;
            if row != last {
                if let Some(moved_key) = db.table(table).column(pk).i64_at(last) {
                    self.pk_caches
                        .entry(table)
                        .or_default()
                        .insert(moved_key, row as u32);
                }
            }
        }
        db.table_mut(table).swap_remove_row(row)?;
        Ok(())
    }

    /// Recompute exact full-outer-join counts for RSPNs whose incremental
    /// bookkeeping went stale (3+-table joins).
    pub fn refresh_join_counts(&mut self, db: &Database) -> Result<(), DeepDbError> {
        self.bump_plan_epoch();
        for rspn in &mut self.rspns {
            if rspn.join_count_dirty() {
                let tree = JoinTree::new(db, rspn.tables())?;
                rspn.set_full_join_count(tree.full_count());
            }
        }
        Ok(())
    }

    /// Assemble the full-outer-join row induced by inserting `values` into
    /// `table`, in the RSPN's column order: the tuple itself, its FK parents
    /// (transitively, within the RSPN's join tree), NULL elsewhere.
    fn assemble_join_row(
        &self,
        db: &Database,
        rspn_idx: usize,
        table: TableId,
        values: &[Value],
    ) -> Option<Vec<f64>> {
        let rspn = &self.rspns[rspn_idx];
        // Present tables: the tuple's table plus its ancestors via internal
        // FK edges (children of the new tuple cannot exist yet).
        let mut present: HashMap<TableId, RowSource<'_>> = HashMap::new();
        present.insert(table, RowSource::New(values));
        loop {
            let mut grown = false;
            for fk in rspn.internal_edges() {
                if present.contains_key(&fk.parent_table) {
                    continue;
                }
                let Some(child_src) = present.get(&fk.child_table) else {
                    continue;
                };
                let key = match child_src {
                    RowSource::New(vals) => vals[fk.child_col].as_i64(),
                    RowSource::Existing(t, r) => db.table(*t).column(fk.child_col).i64_at(*r),
                }?;
                let row = *self.pk_caches.get(&fk.parent_table)?.get(&key)?;
                present.insert(
                    fk.parent_table,
                    RowSource::Existing(fk.parent_table, row as usize),
                );
                grown = true;
            }
            if !grown {
                break;
            }
        }

        let mut out = Vec::with_capacity(rspn.columns().len());
        for meta in rspn.columns() {
            let v = match meta.role {
                JoinColumnRole::Data { table: t, col } => match present.get(&t) {
                    Some(RowSource::New(vals)) => vals[col].as_f64().unwrap_or(f64::NAN),
                    Some(RowSource::Existing(tt, r)) => db.table(*tt).column(col).f64_or_nan(*r),
                    None => f64::NAN,
                },
                JoinColumnRole::Indicator { table: t } => {
                    f64::from(u8::from(present.contains_key(&t)))
                }
                JoinColumnRole::TupleFactor { fk, clamped } => {
                    match present.get(&fk.parent_table) {
                        None => 1.0,
                        Some(src) => {
                            let pk_col = db
                                .table(fk.parent_table)
                                .schema()
                                .primary_key()
                                .unwrap_or(0);
                            let key = match src {
                                RowSource::New(vals) => vals[pk_col].as_i64(),
                                RowSource::Existing(t, r) => db.table(*t).column(pk_col).i64_at(*r),
                            };
                            let f = key
                                .and_then(|k| self.factor_caches.get(&fk).and_then(|m| m.get(&k)))
                                .copied()
                                .unwrap_or(0) as f64;
                            if clamped {
                                f.max(1.0)
                            } else {
                                f
                            }
                        }
                    }
                }
            };
            out.push(v);
        }
        Some(out)
    }
}

/// Number of sample-row copies one real tuple maps to at the given rate:
/// `floor(rate)` plus one more with probability `fract(rate)`.
fn sampled_copies(rate: f64, rng: &mut StdRng) -> usize {
    rate.floor() as usize + usize::from(rng.gen::<f64>() < rate.fract())
}

// ---------------------------------------------------------------------------
// Snapshots: ensembles persist like indexes (paper §2 likens offline ensemble
// creation to bulk-loading an index). Hand-rolled wire format, no serializer
// dependency. The update RNG is reseeded on load (it only drives sampling
// decisions).
// ---------------------------------------------------------------------------

const ENSEMBLE_MAGIC: &[u8; 5] = b"DENS1";

impl Ensemble {
    /// Serialize the ensemble (models, caches, and parameters).
    pub fn save(&self, w: &mut impl std::io::Write) -> std::io::Result<()> {
        use deepdb_spn::wire::*;
        w.write_all(ENSEMBLE_MAGIC)?;
        write_u32(w, self.rspns.len() as u32)?;
        for rspn in &self.rspns {
            rspn.write_to(w)?;
        }
        write_u32(w, self.dependencies.len() as u32)?;
        for (&(a, b), &v) in &self.dependencies {
            write_u64(w, a as u64)?;
            write_u64(w, b as u64)?;
            write_f64(w, v)?;
        }
        write_u32(w, self.factor_caches.len() as u32)?;
        for (fk, map) in &self.factor_caches {
            for v in [fk.child_table, fk.child_col, fk.parent_table, fk.parent_col] {
                write_u64(w, v as u64)?;
            }
            write_u32(w, map.len() as u32)?;
            for (&k, &c) in map {
                write_i64(w, k)?;
                write_u32(w, c)?;
            }
        }
        write_u32(w, self.pk_caches.len() as u32)?;
        for (&t, map) in &self.pk_caches {
            write_u64(w, t as u64)?;
            write_u32(w, map.len() as u32)?;
            for (&k, &row) in map {
                write_i64(w, k)?;
                write_u32(w, row)?;
            }
        }
        write_u64s(w, &self.row_counts)?;
        // Parameters (needed so updates behave identically after a reload).
        let p = &self.params;
        write_u8(w, u8::from(p.strategy == EnsembleStrategy::Relational))?;
        write_f64(w, p.rdc_threshold)?;
        write_f64(w, p.budget_factor)?;
        write_u64(w, p.sample_size as u64)?;
        write_u64(w, p.correlation_sample as u64)?;
        write_u64(w, p.max_rspn_tables as u64)?;
        write_f64(w, p.spn.rdc_threshold)?;
        write_f64(w, p.spn.min_instance_ratio)?;
        write_u64(w, p.spn.rdc_sample_rows as u64)?;
        write_u64(w, p.spn.max_distinct_exact as u64)?;
        write_u64(w, p.spn.n_bins as u64)?;
        write_u64(w, p.spn.kmeans_iters as u64)?;
        write_u64(w, p.spn.max_depth as u64)?;
        write_u64(w, p.spn.seed)?;
        write_u64(w, p.seed)?;
        write_u64(w, self.updates_absorbed)
    }

    /// Deserialize an ensemble written by [`Ensemble::save`].
    pub fn load(r: &mut impl std::io::Read) -> std::io::Result<Ensemble> {
        use deepdb_spn::wire::*;
        let mut magic = [0u8; 5];
        r.read_exact(&mut magic)?;
        if &magic != ENSEMBLE_MAGIC {
            return Err(corrupt("ensemble magic"));
        }
        let n_rspns = read_u32(r)? as usize;
        if n_rspns > 1 << 12 {
            return Err(corrupt("rspn count"));
        }
        let rspns: Vec<Rspn> = (0..n_rspns)
            .map(|_| Rspn::read_from(r))
            .collect::<std::io::Result<_>>()?;
        let n_deps = read_u32(r)? as usize;
        let mut dependencies = HashMap::new();
        for _ in 0..n_deps {
            let a = read_u64(r)? as usize;
            let b = read_u64(r)? as usize;
            dependencies.insert((a, b), read_f64(r)?);
        }
        let n_fc = read_u32(r)? as usize;
        let mut factor_caches = HashMap::new();
        for _ in 0..n_fc {
            let fk = ForeignKey {
                child_table: read_u64(r)? as usize,
                child_col: read_u64(r)? as usize,
                parent_table: read_u64(r)? as usize,
                parent_col: read_u64(r)? as usize,
            };
            let n = read_u32(r)? as usize;
            // Cap the preallocation: `n` is attacker-/corruption-controlled
            // (up to u32::MAX); the map still grows to the real entry count,
            // but a bit-flipped length can no longer demand gigabytes up
            // front — it just runs into EOF below.
            let mut map = HashMap::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                let k = read_i64(r)?;
                map.insert(k, read_u32(r)?);
            }
            factor_caches.insert(fk, map);
        }
        let n_pk = read_u32(r)? as usize;
        let mut pk_caches = HashMap::new();
        for _ in 0..n_pk {
            let t = read_u64(r)? as usize;
            let n = read_u32(r)? as usize;
            // Same corruption-bounded preallocation cap as factor caches.
            let mut map = HashMap::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                let k = read_i64(r)?;
                map.insert(k, read_u32(r)?);
            }
            pk_caches.insert(t, map);
        }
        let row_counts = read_u64s(r)?;
        let strategy = if read_u8(r)? != 0 {
            EnsembleStrategy::Relational
        } else {
            EnsembleStrategy::SingleTables
        };
        let rdc_threshold = read_f64(r)?;
        let budget_factor = read_f64(r)?;
        let sample_size = read_u64(r)? as usize;
        let correlation_sample = read_u64(r)? as usize;
        let max_rspn_tables = read_u64(r)? as usize;
        let mut spn = SpnParams {
            rdc_threshold: read_f64(r)?,
            min_instance_ratio: read_f64(r)?,
            rdc_sample_rows: read_u64(r)? as usize,
            ..SpnParams::default()
        };
        spn.max_distinct_exact = read_u64(r)? as usize;
        spn.n_bins = read_u64(r)? as usize;
        spn.kmeans_iters = read_u64(r)? as usize;
        spn.max_depth = read_u64(r)? as usize;
        spn.seed = read_u64(r)?;
        let seed = read_u64(r)?;
        let updates_absorbed = read_u64(r)?;
        Ok(Ensemble {
            rspns,
            dependencies,
            factor_caches,
            pk_caches,
            row_counts,
            params: EnsembleParams {
                strategy,
                rdc_threshold,
                budget_factor,
                sample_size,
                correlation_sample,
                max_rspn_tables,
                spn,
                seed,
            },
            update_rng: StdRng::seed_from_u64(seed ^ 0x0BDA7E5),
            updates_absorbed,
            rows_lost: 0,
            probe_threads: 0,
            pool: WorkerPool::new(),
            plan_epoch: AtomicU64::new(0),
            plan_cache: PlanCache::new(DEFAULT_PLAN_CACHE_CAPACITY),
        })
    }

    /// Convenience: save to a file path.
    pub fn save_to_file(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        self.save(&mut f)
    }

    /// Convenience: load from a file path.
    pub fn load_from_file(path: impl AsRef<std::path::Path>) -> std::io::Result<Ensemble> {
        let mut f = std::io::BufReader::new(std::fs::File::open(path)?);
        Ensemble::load(&mut f)
    }
}

enum RowSource<'a> {
    New(&'a [Value]),
    Existing(TableId, usize),
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepdb_storage::fixtures::{correlated_customer_order, paper_customer_order};

    fn small_params() -> EnsembleParams {
        EnsembleParams {
            sample_size: 8_000,
            correlation_sample: 1_500,
            ..EnsembleParams::default()
        }
    }

    #[test]
    fn base_ensemble_learns_joint_rspn_for_correlated_tables() {
        let db = correlated_customer_order(1500, 3);
        let ens = EnsembleBuilder::new(&db)
            .params(small_params())
            .build()
            .unwrap();
        // Region↔channel correlation is strong by construction → one joint RSPN.
        assert!(
            ens.rspns().iter().any(|r| r.tables().len() == 2),
            "expected a joint customer-orders RSPN; deps = {:?}",
            ens.dependency(0, 1)
        );
        assert!(ens.dependency(0, 1).unwrap() >= 0.3);
    }

    #[test]
    fn single_table_strategy_covers_every_table() {
        let db = correlated_customer_order(500, 5);
        let mut p = small_params();
        p.strategy = EnsembleStrategy::SingleTables;
        let ens = EnsembleBuilder::new(&db).params(p).build().unwrap();
        assert_eq!(ens.rspns().len(), db.n_tables());
        assert!(ens.rspns().iter().all(|r| r.tables().len() == 1));
    }

    #[test]
    fn connected_subsets_enumerates_chains() {
        // chain a ← b ← c: only {a,b,c} at size 3.
        let mut db = Database::new("chain");
        db.create_table(deepdb_storage::TableSchema::new("a").pk("id"))
            .unwrap();
        db.create_table(
            deepdb_storage::TableSchema::new("b")
                .pk("id")
                .col("aid", deepdb_storage::Domain::Key),
        )
        .unwrap();
        db.create_table(
            deepdb_storage::TableSchema::new("c")
                .pk("id")
                .col("bid", deepdb_storage::Domain::Key),
        )
        .unwrap();
        db.add_foreign_key("b", "aid", "a").unwrap();
        db.add_foreign_key("c", "bid", "b").unwrap();
        let subs = connected_subsets(&db, 3, 3);
        assert_eq!(subs, vec![vec![0, 1, 2]]);
    }

    #[test]
    fn inserts_update_counts_and_distributions() {
        let mut db = paper_customer_order();
        let mut params = small_params();
        params.sample_size = 5_000;
        params.rdc_threshold = 0.0; // force the joint RSPN on the tiny fixture
        let mut ens = EnsembleBuilder::new(&db).params(params).build().unwrap();
        let joint = ens
            .rspns()
            .iter()
            .position(|r| r.tables().len() == 2)
            .unwrap();
        assert_eq!(ens.rspns()[joint].full_join_count(), 5);

        let c = db.table_id("customer").unwrap();
        let o = db.table_id("orders").unwrap();
        // New customer 4 (no orders): |J| grows by 1.
        ens.apply_insert(&mut db, c, &[Value::Int(4), Value::Int(33), Value::Int(1)])
            .unwrap();
        assert_eq!(ens.rspns()[joint].full_join_count(), 6);
        assert_eq!(ens.table_rows(c), 4);
        // First order of customer 2: replaces its padded row, |J| unchanged.
        ens.apply_insert(&mut db, o, &[Value::Int(5), Value::Int(2), Value::Int(0)])
            .unwrap();
        assert_eq!(ens.rspns()[joint].full_join_count(), 6);
        // Second order of customer 2: adds a row.
        ens.apply_insert(&mut db, o, &[Value::Int(6), Value::Int(2), Value::Int(1)])
            .unwrap();
        assert_eq!(ens.rspns()[joint].full_join_count(), 7);
        // Incremental bookkeeping must match an exact recount.
        let tree = JoinTree::new(&db, &[c, o]).unwrap();
        assert_eq!(tree.full_count(), 7);
        db.validate_integrity().unwrap();
    }

    #[test]
    fn delete_reverses_insert_bookkeeping() {
        let mut db = paper_customer_order();
        let mut params = small_params();
        params.rdc_threshold = 0.0;
        let mut ens = EnsembleBuilder::new(&db).params(params).build().unwrap();
        let joint = ens
            .rspns()
            .iter()
            .position(|r| r.tables().len() == 2)
            .unwrap();
        let o = db.table_id("orders").unwrap();
        ens.apply_insert(&mut db, o, &[Value::Int(9), Value::Int(1), Value::Int(0)])
            .unwrap();
        assert_eq!(ens.rspns()[joint].full_join_count(), 6);
        let row = db.table(o).find_pk(9).unwrap();
        ens.apply_delete(&mut db, o, row).unwrap();
        assert_eq!(ens.rspns()[joint].full_join_count(), 5);
        assert_eq!(db.table(o).n_rows(), 4);
        db.validate_integrity().unwrap();
    }

    #[test]
    fn snapshot_round_trip_preserves_estimates_and_updates() {
        let db = correlated_customer_order(1200, 21);
        let mut params = small_params();
        params.rdc_threshold = 0.0;
        let original = EnsembleBuilder::new(&db).params(params).build().unwrap();

        let mut buf = Vec::new();
        original.save(&mut buf).unwrap();
        let mut restored = Ensemble::load(&mut buf.as_slice()).unwrap();

        assert_eq!(original.rspns().len(), restored.rspns().len());
        assert_eq!(original.table_rows(0), restored.table_rows(0));
        // Identical estimates through the full compilation pipeline.
        let c = db.table_id("customer").unwrap();
        let o = db.table_id("orders").unwrap();
        let q = deepdb_storage::Query::count(vec![c, o]).filter(
            c,
            2,
            deepdb_storage::PredOp::Cmp(deepdb_storage::CmpOp::Eq, Value::Int(0)),
        );
        let a = crate::compile::estimate_count(&original, &db, &q).unwrap();
        let b = crate::compile::estimate_count(&restored, &db, &q).unwrap();
        assert_eq!(a.value, b.value);
        assert_eq!(a.variance, b.variance);
        // Restored ensembles keep absorbing updates.
        let mut db2 = db.clone();
        restored
            .apply_insert(
                &mut db2,
                o,
                &[
                    Value::Int(999_999),
                    Value::Int(1),
                    Value::Int(0),
                    Value::Float(5.0),
                ],
            )
            .unwrap();
        assert_eq!(restored.table_rows(o), original.table_rows(o) + 1);
    }

    #[test]
    fn snapshot_rejects_garbage() {
        assert!(Ensemble::load(&mut &b"not a snapshot"[..]).is_err());
    }

    #[test]
    fn optimized_ensemble_respects_budget_zero() {
        let db = correlated_customer_order(800, 9);
        let mut p = small_params();
        p.budget_factor = 0.0;
        let base = EnsembleBuilder::new(&db).params(p.clone()).build().unwrap();
        // Two-table schema: optimization can add nothing anyway, but budget 0
        // must never add RSPNs beyond the base plan.
        assert!(base.rspns().iter().all(|r| r.tables().len() <= 2));
    }
}
