//! The plan cache: one execute path for every scalar query.
//!
//! PR 5 established that **planning is value-independent**: member selection
//! (`best_covering_rspn` / `best_rspn_with` / the Case-3 combine planner)
//! and predicate translation structure depend only on schema, ensemble
//! coverage, and the *columns* predicates touch — never on the literal
//! values. Production traffic repeats query **shapes** with different
//! literals, so planning is done once per shape and everything after it is
//! one cycle: **entry → checkout → run → resolve → check-in**.
//!
//! * An **entry** ([`PlanArtifact`], keyed by [`QueryShape`] in the LRU map
//!   of [`PlanCache`], owned runtime-only by [`Ensemble`]) is the frozen
//!   result of planning a shape: the registered template [`ProbePlan`], its
//!   deferred [`Resolver`], the **literal binds** mapping flat
//!   probe-literal positions back to query-literal indices, one pruning
//!   [`ActiveSet`] per touched member pinned at build time, and an idle
//!   pool of **working sets** — a plan clone plus the [`PlanScratch`]
//!   (pre-sized results, the pinned sets) it executes into. Leaf-value
//!   tables are not part of it: they are per thread and per member
//!   ([`ProbePlan::run`]), so an entry costs a few KB however it is swept.
//! * A [`Checkout`] is lookup-or-build, pop-or-clone a working set, rebind
//!   the literals in place — the only way a scalar query executes. A
//!   one-shot `estimate_*` / `execute_aqp` scalar holds its checkout for
//!   one call, a [`PreparedQuery`] until it is dropped, a `ServeFront`
//!   request hands it to its batch. A plan-cache hit therefore *is* a
//!   prepared execute: no plan clone, no result or table allocation, the
//!   cache lock taken once.
//! * **run** is the one plan runner ([`ProbePlan::run`]); **resolve** reads
//!   the working set's results through the entry's resolver; dropping the
//!   checkout **checks the working set back in** for the next holder.
//!
//! Shapes whose binds cannot be discovered (below) and ensembles with the
//! cache switched off go through the same type: their checkout owns a plan
//! built for exactly its literals, and new literals mean a new plan.
//!
//! The LRU map also memoizes **grouped templates** ([`ScalarTemplate`] for
//! GROUP BY / batched count-values, keyed on shape **plus literal bits** —
//! templates bake translated shared-predicate literals into their base
//! queries, so only exact literal matches may share one) and literal-free
//! **selection preludes** (the covering member of the count-values fast
//! path; the ML entry points' member / target column / normalization
//! factors). A side table holds the **pruning active sets**
//! ([`active_set_for`]): per `(member, constrained-column union)`, the
//! compacted sub-DAG a sweep may restrict itself to. **Bitwise contract**:
//! a pruned sweep is bitwise identical to the full sweep — pruned-away
//! nodes are seeded from the arena's cached neutral (empty-query) values,
//! exactly what the full sweep computes for nodes no probe constrains.
//! Column unions are literal-independent, so one set serves every rebind.
//!
//! # Literal binds via sentinel discovery
//!
//! Rather than trusting the translation layer to report where literals land,
//! the cache **observes** it: on a miss the artifact is built twice — once
//! with the real literals, once with every literal replaced by a
//! distinguishable sentinel `f64` ([`sentinel`], quiet bit patterns near the
//! top of the finite range). If both builds have the same plan layout
//! ([`ProbePlan::same_layout`]), the flat literal walks are diffed bitwise:
//! an unchanged slot is a plan constant (±∞ range endpoints, join-indicator
//! values, translated representatives); a slot that changed must hold
//! sentinel *i* in the sentinel build and literal *i*'s exact bits in the
//! real build, and becomes a bind `(flat position, literal index)`. Any
//! unexplained difference — value-dependent translation (e.g. the
//! functional-dependency dictionary rewrite), layout divergence, a real
//! literal colliding with the sentinel range — rejects caching for that
//! shape. **Conservative by construction**: a query either gets a provably
//! value-independent artifact or plans cold like before.
//!
//! # Invalidation
//!
//! The cache carries **one epoch stamp**. Every access presents the
//! ensemble's **plan epoch** ([`Ensemble::plan_epoch`], bumped by
//! `recompile_models` and every coverage-/count-changing maintenance
//! operation); the first access at a newer epoch drops every plan entry,
//! memoized selection and active set together and advances the stamp, which
//! only moves forward — a late reader of an older epoch finds nothing and
//! inserts nothing. Working sets die with their entry, so dead epochs pin
//! no scratch. A [`PreparedQuery`] from an old epoch fails its next
//! `execute` with [`DeepDbError::StalePlan`].

use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use deepdb_spn::{ActiveSet, CancelFlag, TileFaultFn};
use deepdb_storage::{
    Aggregate, CmpOp, ColId, ColumnRef, Database, PredOp, Predicate, Query, TableId, Value,
};

use crate::compile::{
    best_covering_rspn, register_avg, register_count, register_scalar, resolve_scalar, DeferredAvg,
    DeferredCountExpr, DeferredScalar, ScalarTemplate,
};
use crate::ensemble::Ensemble;
use crate::estimate::Estimate;
use crate::plan::{PlanScratch, ProbePlan, ProbeResults};
use crate::DeepDbError;

/// Default [`PlanCache`] capacity (entries across all tiers). `0` disables
/// caching entirely — lookups, discovery, and inserts are all skipped, so a
/// capacity-0 ensemble measures the true planned-cold path.
pub(crate) const DEFAULT_PLAN_CACHE_CAPACITY: usize = 256;

// ---------------------------------------------------------------------------
// Sentinels
// ---------------------------------------------------------------------------

/// Base bit pattern of the sentinel range: huge finite doubles (~9e307) that
/// cannot occur as translated plan constants and survive every
/// literal-preserving translation bitwise.
const SENT_BASE: u64 = 0x7FE0_0000_0000_0000;

/// Sentinel stand-in for literal `i` during bind discovery.
fn sentinel(i: u32) -> f64 {
    f64::from_bits(SENT_BASE + u64::from(i))
}

// ---------------------------------------------------------------------------
// Query shapes (cache keys)
// ---------------------------------------------------------------------------

/// Structural fingerprint of one predicate: which column it touches and the
/// operator *shape* (literal nullness included — NULL comparisons translate
/// to different probe structures), but never the literal values.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct PredShape {
    table: TableId,
    column: ColId,
    op: OpShape,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum OpShape {
    /// Comparison operator code + whether the literal is NULL.
    Cmp(u8, bool),
    /// Per-element nullness of the IN list (length implied).
    In(Vec<bool>),
    /// Nullness of the lower/upper bound.
    Between(bool, bool),
    IsNull,
    IsNotNull,
}

fn cmp_code(op: CmpOp) -> u8 {
    match op {
        CmpOp::Eq => 0,
        CmpOp::Ne => 1,
        CmpOp::Lt => 2,
        CmpOp::Le => 3,
        CmpOp::Gt => 4,
        CmpOp::Ge => 5,
    }
}

fn pred_shape(p: &Predicate) -> PredShape {
    let op = match &p.op {
        PredOp::Cmp(op, v) => OpShape::Cmp(cmp_code(*op), matches!(v, Value::Null)),
        PredOp::In(vs) => OpShape::In(vs.iter().map(|v| matches!(v, Value::Null)).collect()),
        PredOp::Between(lo, hi) => {
            OpShape::Between(matches!(lo, Value::Null), matches!(hi, Value::Null))
        }
        PredOp::IsNull => OpShape::IsNull,
        PredOp::IsNotNull => OpShape::IsNotNull,
    };
    PredShape {
        table: p.table,
        column: p.column,
        op,
    }
}

fn pred_shapes(preds: &[Predicate]) -> Vec<PredShape> {
    preds.iter().map(pred_shape).collect()
}

/// Canonical cache key: everything that determines plan structure, nothing
/// that a literal rebind can change. `literal_bits` stays empty for
/// bind-discovered artifact tiers and carries the exact literal bits for the
/// template tier (templates bake literals into their base queries).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct QueryShape {
    tag: u8,
    tables: Vec<TableId>,
    agg: (u8, TableId, ColId),
    group_cols: Vec<(TableId, ColId)>,
    preds: Vec<PredShape>,
    disjuncts: Vec<Vec<PredShape>>,
    literal_bits: Vec<u64>,
}

/// Which entry point an artifact serves (and therefore how it resolves).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ArtifactKind {
    /// `estimate_count` — plain COUNT resolution.
    Count,
    /// `estimate_avg` on the given target column.
    Avg(ColumnRef),
    /// `estimate_sum`: non-NULL COUNT × AVG on the given target column.
    Sum(ColumnRef),
    /// `execute_aqp`'s scalar path: a `(aggregate, count)` pair via
    /// [`register_scalar`] (aggregate kind read from the query).
    AqpScalar,
}

impl ArtifactKind {
    /// The single-estimate artifact a scalar `query` executes through
    /// (`prepare`, `ServeFront::serve`).
    pub(crate) fn of(query: &Query) -> Self {
        match query.aggregate {
            Aggregate::CountStar => ArtifactKind::Count,
            Aggregate::Avg(t) => ArtifactKind::Avg(t),
            Aggregate::Sum(t) => ArtifactKind::Sum(t),
        }
    }
}

fn agg_code(kind: ArtifactKind, query: &Query) -> (u8, TableId, ColId) {
    match kind {
        ArtifactKind::Count => (0, 0, 0),
        ArtifactKind::Avg(t) => (1, t.table, t.column),
        ArtifactKind::Sum(t) => (2, t.table, t.column),
        ArtifactKind::AqpScalar => match query.aggregate {
            Aggregate::CountStar => (3, 0, 0),
            Aggregate::Avg(t) => (4, t.table, t.column),
            Aggregate::Sum(t) => (5, t.table, t.column),
        },
    }
}

fn artifact_shape(query: &Query, kind: ArtifactKind, disjuncts: &[Vec<Predicate>]) -> QueryShape {
    let tag = match (kind, disjuncts.is_empty()) {
        (ArtifactKind::Count, true) => 0,
        (ArtifactKind::Count, false) => 1,
        (ArtifactKind::Avg(_), _) => 2,
        (ArtifactKind::Sum(_), _) => 3,
        (ArtifactKind::AqpScalar, _) => 4,
    };
    QueryShape {
        tag,
        tables: query.tables.clone(),
        agg: agg_code(kind, query),
        group_cols: Vec::new(),
        preds: pred_shapes(&query.predicates),
        disjuncts: disjuncts.iter().map(|d| pred_shapes(d)).collect(),
        literal_bits: Vec::new(),
    }
}

// ---------------------------------------------------------------------------
// Literal extraction / substitution
// ---------------------------------------------------------------------------

/// Read the literals of a predicate list in canonical order — predicate
/// order, within `Cmp` the value, within `Between` lo then hi, within `In`
/// the elements in order, non-NULL slots only — calling `f` on each as
/// `f64`. With `tables`, predicates on other tables are skipped (a join
/// subset's bind vector is exactly that restriction, because literal order
/// is predicate order). The one read-only walker behind [`query_literals`],
/// [`Checkout`] and the join-order enumerator.
pub(crate) fn for_each_literal(
    preds: &[Predicate],
    tables: Option<&[TableId]>,
    mut f: impl FnMut(f64),
) {
    for p in preds {
        if tables.is_some_and(|ts| !ts.contains(&p.table)) {
            continue;
        }
        match &p.op {
            PredOp::Cmp(_, v) => v.as_f64().into_iter().for_each(&mut f),
            PredOp::Between(lo, hi) => [lo, hi]
                .into_iter()
                .filter_map(Value::as_f64)
                .for_each(&mut f),
            PredOp::In(vs) => vs.iter().filter_map(Value::as_f64).for_each(&mut f),
            PredOp::IsNull | PredOp::IsNotNull => {}
        }
    }
}

/// [`for_each_literal`]'s mutable twin, for the two places that *write*
/// literal slots: the sentinel build of bind discovery and the re-plan of an
/// unbindable shape.
fn walk_pred_literals(preds: &mut [Predicate], mut f: impl FnMut(&mut Value)) {
    for p in preds {
        match &mut p.op {
            PredOp::Cmp(_, v) => {
                if !matches!(v, Value::Null) {
                    f(v);
                }
            }
            PredOp::Between(lo, hi) => {
                for v in [lo, hi] {
                    if !matches!(v, Value::Null) {
                        f(v);
                    }
                }
            }
            PredOp::In(vs) => {
                for v in vs.iter_mut() {
                    if !matches!(v, Value::Null) {
                        f(v);
                    }
                }
            }
            PredOp::IsNull | PredOp::IsNotNull => {}
        }
    }
}

/// Every non-NULL literal of the query (and disjuncts, in order) as `f64` —
/// the **bind vector** of the query's shape. This is the order
/// [`PreparedQuery::execute`] expects its `literals` argument in; the
/// convenience extractor [`query_literals`] exposes it publicly.
fn collect_all_literals(query: &Query, disjuncts: &[Vec<Predicate>]) -> Vec<f64> {
    let mut out = Vec::new();
    for_each_literal(&query.predicates, None, |v| out.push(v));
    for d in disjuncts {
        for_each_literal(d, None, |v| out.push(v));
    }
    out
}

/// The literal vector of a query in the canonical bind order (predicate
/// order; within a predicate: `Cmp` value, `Between` lo then hi, `In`
/// elements in order; NULL literals are structural, not bindable). Pass a
/// same-shaped vector to [`PreparedQuery::execute`] to rebind.
pub fn query_literals(query: &Query) -> Vec<f64> {
    collect_all_literals(query, &[])
}

/// Clone of the query (and disjuncts) with every literal replaced by its
/// sentinel — the second build of bind discovery.
fn sentinel_variant(query: &Query, disjuncts: &[Vec<Predicate>]) -> (Query, Vec<Vec<Predicate>>) {
    let mut i = 0u32;
    let mut q = query.clone();
    walk_pred_literals(&mut q.predicates, |v| {
        *v = Value::Float(sentinel(i));
        i += 1;
    });
    let ds = disjuncts
        .iter()
        .map(|d| {
            let mut d = d.clone();
            walk_pred_literals(&mut d, |v| {
                *v = Value::Float(sentinel(i));
                i += 1;
            });
            d
        })
        .collect();
    (q, ds)
}

/// Overwrite the query's literal slots with `literals` (f64-space; every
/// translation layer compares through [`Value::as_f64`], so `Float`
/// replacements behave identically to the original `Int` literals).
fn rebind_query_literals(query: &mut Query, literals: &[f64]) {
    let mut i = 0usize;
    walk_pred_literals(&mut query.predicates, |v| {
        *v = Value::Float(literals[i]);
        i += 1;
    });
    debug_assert_eq!(i, literals.len(), "literal arity mismatch");
}

// ---------------------------------------------------------------------------
// Artifact building + bind discovery
// ---------------------------------------------------------------------------

/// How a cached plan's results resolve to estimates — one variant per entry
/// point, reproducing its exact arithmetic.
pub(crate) enum Resolver {
    Count(DeferredCountExpr),
    Avg(DeferredAvg),
    Sum {
        count_nn: DeferredCountExpr,
        avg: DeferredAvg,
    },
    /// Inclusion–exclusion terms: `(sign, deferred count)` per mask.
    Disjunction(Vec<(f64, DeferredCountExpr)>),
    /// AQP scalar `(aggregate, count)` pair.
    Scalar(DeferredScalar),
}

impl Resolver {
    /// The entry point's estimate, plus — for AQP scalar artifacts only —
    /// the COUNT estimate `execute_aqp` reports beside it.
    fn resolve(&self, r: &ProbeResults) -> Result<(Estimate, Option<Estimate>), DeepDbError> {
        let single = match self {
            Resolver::Count(d) => d.resolve(r)?,
            Resolver::Avg(d) => d.resolve(r),
            Resolver::Sum { count_nn, avg } => count_nn.resolve(r)?.product(avg.resolve(r)),
            Resolver::Disjunction(terms) => {
                let mut total = Estimate::exact(0.0);
                for (sign, d) in terms {
                    total = total.add(d.resolve(r)?.scale(*sign));
                }
                total.value = total.value.max(0.0);
                total
            }
            Resolver::Scalar(d) => {
                let (agg, count) = resolve_scalar(d, r)?;
                return Ok((agg, Some(count)));
            }
        };
        Ok((single, None))
    }
}

/// Build the fully-registered plan + resolver for one entry point — exactly
/// the probe registrations the cold path performs, factored out so cache
/// hits, misses, and sentinel builds share one recipe. `validate_terms`
/// keeps the disjunction path's per-term validation on the real build only
/// (validation is value-independent, so sentinel builds may skip it).
fn build_artifact(
    ens: &Ensemble,
    db: &Database,
    query: &Query,
    kind: ArtifactKind,
    disjuncts: &[Vec<Predicate>],
    validate_terms: bool,
) -> Result<(ProbePlan, Resolver), DeepDbError> {
    let qtables: BTreeSet<TableId> = query.tables.iter().copied().collect();
    let mut plan = ProbePlan::new();
    let resolver = if !disjuncts.is_empty() {
        let k = disjuncts.len();
        let mut terms = Vec::with_capacity((1usize << k) - 1);
        for mask in 1u32..(1 << k) {
            let mut sub = query.clone();
            for (i, d) in disjuncts.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    sub.predicates.extend(d.iter().cloned());
                }
            }
            if validate_terms {
                sub.validate(db)?;
            }
            let sign = if mask.count_ones() % 2 == 1 {
                1.0
            } else {
                -1.0
            };
            let deferred = register_count(&mut plan, ens, db, &qtables, &sub.predicates)?;
            terms.push((sign, deferred));
        }
        Resolver::Disjunction(terms)
    } else {
        match kind {
            ArtifactKind::Count => Resolver::Count(register_count(
                &mut plan,
                ens,
                db,
                &qtables,
                &query.predicates,
            )?),
            ArtifactKind::Avg(target) => Resolver::Avg(register_avg(
                &mut plan,
                ens,
                &query.tables,
                &query.predicates,
                target,
            )?),
            ArtifactKind::Sum(target) => {
                let mut count_preds = query.predicates.clone();
                count_preds.push(Predicate::new(
                    target.table,
                    target.column,
                    PredOp::IsNotNull,
                ));
                let count_nn = register_count(&mut plan, ens, db, &qtables, &count_preds)?;
                let avg = register_avg(&mut plan, ens, &query.tables, &query.predicates, target)?;
                Resolver::Sum { count_nn, avg }
            }
            ArtifactKind::AqpScalar => {
                Resolver::Scalar(register_scalar(&mut plan, ens, db, query)?)
            }
        }
    };
    Ok((plan, resolver))
}

/// A plan-cache entry: the frozen artifact of planning one query shape —
/// template plan, resolver, discovered literal binds, the members' pruning
/// sets pinned at build time — plus the idle pool of working sets checked
/// in by earlier holders. Shared via `Arc`, so an entry evicted (or dropped
/// by an epoch change) while checked out lives until its last holder lets
/// go.
pub(crate) struct PlanArtifact {
    plan: ProbePlan,
    resolver: Resolver,
    /// `(flat literal position, query literal index)`, sorted by position.
    binds: Vec<(u32, u32)>,
    n_literals: usize,
    /// One per plan member, in member order (column shapes never change
    /// across rebinds, so every working set prunes with zero discovery).
    actives: Vec<Arc<ActiveSet>>,
    /// At most one working set per holder that was ever concurrent.
    idle: Mutex<Vec<WorkingSet>>,
}

/// What one execution mutates: a plan whose bound literal slots are
/// rewritten in place and the scratch its sweep writes. For a cache entry's
/// working sets the plan is a clone of the template (the derived clone keeps
/// the plan id, so the entry's resolver reads every working set's results).
struct WorkingSet {
    plan: ProbePlan,
    scratch: PlanScratch,
}

impl PlanArtifact {
    fn lock_idle(&self) -> MutexGuard<'_, Vec<WorkingSet>> {
        // Only `pop`/`push` run under this lock, so a poisoned pool is
        // intact; check-in also happens in `Drop`, which must not panic.
        self.idle.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Pop an idle working set, or clone a new one from the template.
    fn working_set(&self) -> WorkingSet {
        if let Some(w) = self.lock_idle().pop() {
            return w;
        }
        WorkingSet {
            plan: self.plan.clone(),
            scratch: PlanScratch::new(&self.plan, self.actives.clone()),
        }
    }
}

/// Diff the real build against a sentinel build to locate literal slots.
/// Returns `None` — don't cache — on any unexplained difference.
fn discover_binds(
    ens: &Ensemble,
    db: &Database,
    query: &Query,
    kind: ArtifactKind,
    disjuncts: &[Vec<Predicate>],
    plan: &ProbePlan,
    literals: &[f64],
) -> Option<Vec<(u32, u32)>> {
    let n = literals.len() as u64;
    // A real literal inside the sentinel range could masquerade as a plan
    // constant (or a bind of the wrong index) — refuse to cache.
    if literals.iter().any(|v| {
        let b = v.to_bits();
        b >= SENT_BASE && b < SENT_BASE + n
    }) {
        return None;
    }
    let (sq, sd) = sentinel_variant(query, disjuncts);
    let (sent_plan, _) = build_artifact(ens, db, &sq, kind, &sd, false).ok()?;
    if !plan.same_layout(&sent_plan) {
        return None;
    }
    let mut real = Vec::new();
    let mut sent = Vec::new();
    plan.flat_literals(&mut real);
    sent_plan.flat_literals(&mut sent);
    debug_assert_eq!(real.len(), sent.len(), "same_layout implies equal walks");
    let mut binds = Vec::new();
    for (pos, (&a, &b)) in real.iter().zip(&sent).enumerate() {
        if a.to_bits() == b.to_bits() {
            continue; // plan constant
        }
        let i = b.to_bits().wrapping_sub(SENT_BASE);
        if i >= n || a.to_bits() != literals[i as usize].to_bits() {
            return None; // value-dependent translation — not rebindable
        }
        binds.push((pos as u32, i as u32));
    }
    Some(binds)
}

// ---------------------------------------------------------------------------
// The LRU cache
// ---------------------------------------------------------------------------

/// Cache observability counters ([`Ensemble::plan_cache_stats`]).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that returned a cached artifact.
    pub hits: u64,
    /// Lookups that found nothing (cold plans).
    pub misses: u64,
    /// Entries dropped by LRU pressure.
    pub evictions: u64,
    /// Live entries across all tiers.
    pub entries: usize,
    /// Live pruning active sets (side table, dropped with the plan entries
    /// at every epoch change; see [`active_set_for`]). Not counted in `entries`/`hits`/`misses` — an
    /// active-set rebuild is one arena walk, not a cold plan.
    pub active_sets: usize,
    /// Cardinality estimates issued by the join-order enumerator
    /// (`crate::joinorder::JoinOrderer`) through prepared-query rebinding.
    /// A separate counter from `hits`/`misses`: enumerator traffic hammers
    /// a handful of shapes thousands of times, and folding it into plan
    /// hit/miss stats would drown interactive-query observability.
    pub optimizer_estimates: u64,
}

#[derive(Clone)]
pub(crate) enum CachedValue {
    Plan(Arc<PlanArtifact>),
    Template(Arc<ScalarTemplate>),
    Member(usize),
    Ml(Arc<MlPrelude>),
}

struct CacheEntry {
    value: CachedValue,
    last_used: u64,
}

struct CacheInner {
    map: HashMap<QueryShape, CacheEntry>,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    /// Pruning active sets, keyed on `(member, constrained-column union)`.
    /// A dedicated side table rather than `map` entries: an active set costs
    /// one O(nodes) arena walk to rebuild, so it must never evict a
    /// bind-discovered plan artifact (built twice + diffed) under LRU
    /// pressure, and its lookups are bookkeeping, not plan hits/misses.
    actives: HashMap<(usize, Vec<usize>), Arc<ActiveSet>>,
    /// The plan epoch everything in `map` and `actives` was built under —
    /// the cache's one invalidation stamp (see [`CacheInner::at_epoch`]).
    epoch: u64,
    optimizer_estimates: u64,
}

impl CacheInner {
    /// Bring the cache to the caller's `epoch` and report whether the caller
    /// is current. A newer epoch drops plans and active sets together, so
    /// nothing built for a retired model generation is reused or holds
    /// capacity (invalidation, not LRU pressure: `evictions` does not
    /// move). The stamp is monotonic: a late reader of an older epoch
    /// (`false`) can neither clear what current readers built nor insert.
    fn at_epoch(&mut self, epoch: u64) -> bool {
        if epoch > self.epoch {
            self.map.clear();
            self.actives.clear();
            self.epoch = epoch;
        }
        epoch == self.epoch
    }
}

/// LRU plan cache keyed on [`QueryShape`]. Counter-based recency (a lookup
/// or insert advances a logical tick); capacity 0 disables the cache —
/// callers skip lookup, discovery, and insert entirely, so the cold path is
/// measured honestly.
pub(crate) struct PlanCache {
    inner: Mutex<CacheInner>,
    /// Outside the lock: every query entry point asks [`PlanCache::enabled`]
    /// first.
    capacity: AtomicUsize,
}

impl PlanCache {
    pub(crate) fn new(capacity: usize) -> Self {
        PlanCache {
            inner: Mutex::new(CacheInner {
                map: HashMap::new(),
                tick: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
                actives: HashMap::new(),
                epoch: 0,
                optimizer_estimates: 0,
            }),
            capacity: AtomicUsize::new(capacity),
        }
    }

    fn lock(&self) -> MutexGuard<'_, CacheInner> {
        self.inner.lock().expect("plan cache poisoned")
    }

    fn capacity(&self) -> usize {
        // Publishes nothing: a racing resize is observed a lookup late.
        self.capacity.load(Ordering::Relaxed)
    }

    pub(crate) fn enabled(&self) -> bool {
        self.capacity() > 0
    }

    fn lookup(&self, epoch: u64, shape: &QueryShape) -> Option<CachedValue> {
        if !self.enabled() {
            return None;
        }
        let mut g = self.lock();
        let current = g.at_epoch(epoch);
        g.tick += 1;
        let tick = g.tick;
        match g.map.get_mut(shape).filter(|_| current) {
            Some(e) => {
                e.last_used = tick;
                let v = e.value.clone();
                g.hits += 1;
                Some(v)
            }
            None => {
                g.misses += 1;
                None
            }
        }
    }

    fn insert(&self, epoch: u64, shape: QueryShape, value: CachedValue) {
        let capacity = self.capacity();
        let mut g = self.lock();
        if capacity == 0 || !g.at_epoch(epoch) {
            return;
        }
        g.tick += 1;
        let tick = g.tick;
        if g.map.len() >= capacity && !g.map.contains_key(&shape) {
            if let Some(victim) = g
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                g.map.remove(&victim);
                g.evictions += 1;
            }
        }
        g.map.insert(
            shape,
            CacheEntry {
                value,
                last_used: tick,
            },
        );
    }

    /// Cached pruning set for `(member, columns)` at `epoch`.
    fn active_lookup(
        &self,
        epoch: u64,
        member: usize,
        columns: &[usize],
    ) -> Option<Arc<ActiveSet>> {
        let mut g = self.lock();
        if !g.at_epoch(epoch) {
            return None;
        }
        g.actives.get(&(member, columns.to_vec())).cloned()
    }

    fn active_insert(&self, epoch: u64, member: usize, columns: Vec<usize>, a: Arc<ActiveSet>) {
        let capacity = self.capacity();
        let mut g = self.lock();
        // Bounded by the artifact capacity; past it, callers just rebuild
        // (one arena walk) instead of caching — never evict.
        if g.at_epoch(epoch) && g.actives.len() < capacity {
            g.actives.insert((member, columns), a);
        }
    }

    pub(crate) fn stats(&self) -> CacheStats {
        let g = self.lock();
        CacheStats {
            hits: g.hits,
            misses: g.misses,
            evictions: g.evictions,
            entries: g.map.len(),
            active_sets: g.actives.len(),
            optimizer_estimates: g.optimizer_estimates,
        }
    }

    /// Record `n` enumerator-issued cardinality estimates (see
    /// [`CacheStats::optimizer_estimates`]).
    pub(crate) fn note_optimizer_estimates(&self, n: u64) {
        self.lock().optimizer_estimates += n;
    }

    /// Resize (0 disables). Clears all entries and counters so bench lanes
    /// and tests start from a known-cold state.
    pub(crate) fn set_capacity(&self, capacity: usize) {
        let mut g = self.lock();
        g.map.clear();
        g.tick = 0;
        g.hits = 0;
        g.misses = 0;
        g.evictions = 0;
        g.actives.clear();
        g.optimizer_estimates = 0;
        self.capacity.store(capacity, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// Checkouts: the one execute path
// ---------------------------------------------------------------------------

/// An executable plan for one query, held for as long as the holder wants to
/// execute it: lookup-or-build of the shape's entry, pop-or-clone of a
/// working set, literals rebound in place. [`Checkout::run`] then
/// [`Checkout::resolve`] is the whole execute path; dropping the checkout
/// returns the working set to its entry's idle pool.
pub(crate) struct Checkout {
    /// Plan epoch the plan was looked up or built under; a holder compares
    /// it with [`Ensemble::plan_epoch`] to detect maintenance landing
    /// mid-flight.
    pub(crate) epoch: u64,
    /// `Some` until drop moves it back into the entry's pool.
    work: Option<WorkingSet>,
    source: PlanSource,
    /// Whether drop checks the working set in. Not after a miss: most shapes
    /// of an ad-hoc stream never come back, and a working set per dead entry
    /// is memory and eviction work for nothing (≈ 3 MB and 2 µs per op on
    /// the benchmark's `card_adhoc`) — the first hit clones the one worth
    /// keeping.
    pooled: bool,
}

enum PlanSource {
    /// A working set of this cache entry (or of a private artifact, for a
    /// query prepared with the cache off): new literals are a rebind.
    Bound(Arc<PlanArtifact>),
    /// A plan built for exactly these literals — the shape's translation is
    /// value-dependent, or the cache is off: new literals are a new plan.
    Cold(Box<Resolver>),
}

impl Checkout {
    /// Check out a plan for `(query, kind, disjuncts)`, bound to the query's
    /// literals. With the cache disabled this is exactly the cold path — no
    /// lookup, no discovery, full sweeps. The caller has validated the
    /// query.
    pub(crate) fn new(
        ens: &Ensemble,
        db: &Database,
        query: &Query,
        kind: ArtifactKind,
        disjuncts: &[Vec<Predicate>],
    ) -> Result<Self, DeepDbError> {
        if ens.plan_cache().enabled() {
            Self::lookup_or_build(ens, db, query, kind, disjuncts)
        } else {
            let epoch = ens.plan_epoch();
            let (plan, resolver) = build_artifact(ens, db, query, kind, disjuncts, true)?;
            Ok(Self::cold(ens, epoch, plan, resolver))
        }
    }

    /// The bound path: a hit pops a working set and rebinds; a miss first
    /// builds the artifact, discovers its binds (see the module docs) and
    /// inserts it (a disabled cache finds and keeps nothing). An unbindable
    /// shape keeps the plan the miss already built, as a cold checkout.
    fn lookup_or_build(
        ens: &Ensemble,
        db: &Database,
        query: &Query,
        kind: ArtifactKind,
        disjuncts: &[Vec<Predicate>],
    ) -> Result<Self, DeepDbError> {
        let cache = ens.plan_cache();
        let epoch = ens.plan_epoch();
        let literals = collect_all_literals(query, disjuncts);
        let shape = artifact_shape(query, kind, disjuncts);
        let (artifact, hit) = match cache.lookup(epoch, &shape) {
            Some(CachedValue::Plan(a)) if a.n_literals == literals.len() => (a, true),
            _ => {
                let (plan, resolver) = build_artifact(ens, db, query, kind, disjuncts, true)?;
                let Some(binds) = discover_binds(ens, db, query, kind, disjuncts, &plan, &literals)
                else {
                    return Ok(Self::cold(ens, epoch, plan, resolver));
                };
                let a = Arc::new(PlanArtifact {
                    actives: plan.active_sets(ens),
                    plan,
                    resolver,
                    binds,
                    n_literals: literals.len(),
                    idle: Mutex::new(Vec::new()),
                });
                cache.insert(epoch, shape, CachedValue::Plan(Arc::clone(&a)));
                (a, false)
            }
        };
        let mut checkout = Checkout {
            epoch,
            work: Some(artifact.working_set()),
            source: PlanSource::Bound(artifact),
            pooled: hit,
        };
        checkout.rebind(&literals);
        Ok(checkout)
    }

    fn cold(ens: &Ensemble, epoch: u64, plan: ProbePlan, resolver: Resolver) -> Self {
        let scratch = plan.fresh_scratch(ens);
        Checkout {
            epoch,
            work: Some(WorkingSet { plan, scratch }),
            source: PlanSource::Cold(Box::new(resolver)),
            pooled: false,
        }
    }

    fn work(&self) -> &WorkingSet {
        self.work.as_ref().expect("working set present until drop")
    }

    fn work_mut(&mut self) -> &mut WorkingSet {
        self.work.as_mut().expect("working set present until drop")
    }

    /// Rewrite the bound literal slots in place (allocation-free). `false`
    /// for a cold checkout, whose plan the holder must rebuild instead.
    fn rebind(&mut self, literals: &[f64]) -> bool {
        let PlanSource::Bound(artifact) = &self.source else {
            return false;
        };
        let work = self.work.as_mut().expect("working set present until drop");
        work.plan.rebind_literals(&artifact.binds, literals);
        true
    }

    /// The bound plan (a serving batch absorbs its probes).
    pub(crate) fn plan(&self) -> &ProbePlan {
        &self.work().plan
    }

    /// Where a fused serving sweep demuxes this request's slice, in place of
    /// a solo [`Checkout::run`].
    pub(crate) fn results_mut(&mut self) -> &mut ProbeResults {
        &mut self.work_mut().scratch.results
    }

    /// Sweep the plan into the working set ([`ProbePlan::run`]).
    pub(crate) fn run(
        &mut self,
        ens: &Ensemble,
        threads: usize,
        cancel: Option<&CancelFlag>,
        fault: Option<&TileFaultFn<'_>>,
    ) {
        let WorkingSet { plan, scratch } = self.work_mut();
        plan.run(ens, scratch, threads, cancel, fault);
    }

    /// Resolve the last run (or demux) to the entry point's estimate, plus
    /// the COUNT estimate for [`ArtifactKind::AqpScalar`].
    pub(crate) fn resolve(&self) -> Result<(Estimate, Option<Estimate>), DeepDbError> {
        let resolver = match &self.source {
            PlanSource::Bound(artifact) => &artifact.resolver,
            PlanSource::Cold(resolver) => resolver,
        };
        resolver.resolve(&self.work().scratch.results)
    }
}

impl Drop for Checkout {
    /// Check-in. Runs on every way out, unwinding included (a serving sweep
    /// may panic under its checkout): a working set is valid in any state —
    /// the next holder rebinds every bound slot, and a run rebuilds the
    /// tables and overwrites every result — so a pooled one always goes
    /// back.
    fn drop(&mut self) {
        if let (true, PlanSource::Bound(artifact), Some(work)) =
            (self.pooled, &self.source, self.work.take())
        {
            artifact.lock_idle().push(work);
        }
    }
}

/// Cache-routed single-estimate entry point (`COUNT`/`AVG`/`SUM`/
/// disjunction). The caller has validated the query.
pub(crate) fn scalar_estimate(
    ens: &Ensemble,
    db: &Database,
    query: &Query,
    kind: ArtifactKind,
    disjuncts: &[Vec<Predicate>],
) -> Result<Estimate, DeepDbError> {
    let mut checkout = Checkout::new(ens, db, query, kind, disjuncts)?;
    checkout.run(ens, 0, None, None);
    Ok(checkout.resolve()?.0)
}

/// Cache-routed `(aggregate, count)` pair for `execute_aqp`'s scalar path.
pub(crate) fn aqp_scalar(
    ens: &Ensemble,
    db: &Database,
    query: &Query,
) -> Result<(Estimate, Estimate), DeepDbError> {
    let mut checkout = Checkout::new(ens, db, query, ArtifactKind::AqpScalar, &[])?;
    checkout.run(ens, 0, None, None);
    let (agg, count) = checkout.resolve()?;
    Ok((agg, count.expect("AQP scalar artifacts resolve a count")))
}

/// Cache-routed [`ScalarTemplate`] for GROUP BY enumeration and the
/// count-values fallback. Keyed on shape **plus exact literal bits**:
/// templates bake translated shared-predicate literals into their base
/// queries, so only bit-identical literals may share one.
pub(crate) fn grouped_template(
    ens: &Ensemble,
    db: &Database,
    shared_q: &Query,
    group_cols: &[ColumnRef],
) -> Result<Arc<ScalarTemplate>, DeepDbError> {
    let cache = ens.plan_cache();
    if !cache.enabled() {
        return Ok(Arc::new(ScalarTemplate::prepare(
            ens, db, shared_q, group_cols,
        )?));
    }
    let epoch = ens.plan_epoch();
    let shape = QueryShape {
        tag: 5,
        tables: shared_q.tables.clone(),
        agg: agg_code(ArtifactKind::AqpScalar, shared_q),
        group_cols: group_cols.iter().map(|c| (c.table, c.column)).collect(),
        preds: pred_shapes(&shared_q.predicates),
        disjuncts: Vec::new(),
        literal_bits: collect_all_literals(shared_q, &[])
            .iter()
            .map(|v| v.to_bits())
            .collect(),
    };
    if let Some(CachedValue::Template(t)) = cache.lookup(epoch, &shape) {
        return Ok(t);
    }
    let t = Arc::new(ScalarTemplate::prepare(ens, db, shared_q, group_cols)?);
    cache.insert(epoch, shape, CachedValue::Template(Arc::clone(&t)));
    Ok(t)
}

/// Cache-routed covering-member selection for the count-values fast path.
/// Selection depends only on coverage and predicate columns, so the key
/// carries no literals. An uncoverable shape is not cached (it re-checks and
/// falls through to the combined path each time).
pub(crate) fn covering_member(
    ens: &Ensemble,
    qtables: &BTreeSet<TableId>,
    selector_preds: &[Predicate],
) -> Option<usize> {
    let cache = ens.plan_cache();
    if !cache.enabled() {
        return best_covering_rspn(ens, qtables, selector_preds);
    }
    let epoch = ens.plan_epoch();
    let shape = QueryShape {
        tag: 6,
        tables: qtables.iter().copied().collect(),
        agg: (0, 0, 0),
        group_cols: Vec::new(),
        preds: pred_shapes(selector_preds),
        disjuncts: Vec::new(),
        literal_bits: Vec::new(),
    };
    if let Some(CachedValue::Member(i)) = cache.lookup(epoch, &shape) {
        return Some(i);
    }
    let idx = best_covering_rspn(ens, qtables, selector_preds)?;
    cache.insert(epoch, shape, CachedValue::Member(idx));
    Some(idx)
}

/// Cache-routed pruning [`ActiveSet`] for one ensemble member and one
/// constrained-column union. Building an active set is one O(nodes) arena
/// walk; production traffic repeats column *shapes*, so the walk is done
/// once per `(member, columns)` shape per plan epoch and shared via `Arc`.
/// Sets live in a side table of the [`PlanCache`] (so they never evict plan
/// artifacts and their lookups don't skew plan hit/miss stats) under the
/// cache's one epoch stamp: any maintenance operation (recompile, insert,
/// delete, join-count refresh) bumps the epoch, and the first access at a
/// new epoch drops every cached set along with the plans — which matters
/// because recompiles may change the arena's node count and layout.
///
/// **Bitwise contract**: a sweep pruned by the returned set is bitwise
/// identical to the full sweep for every probe whose constrained and target
/// columns are a subset of `columns` — pruned-away nodes contribute their
/// query-independent neutral values, which are exactly what the full sweep
/// computes for them (see `deepdb_spn::ActiveSet`).
pub(crate) fn active_set_for(ens: &Ensemble, member: usize, columns: &[usize]) -> Arc<ActiveSet> {
    let cache = ens.plan_cache();
    if !cache.enabled() {
        return Arc::new(ens.rspns()[member].engine().active_set(columns));
    }
    let epoch = ens.plan_epoch();
    if let Some(a) = cache.active_lookup(epoch, member, columns) {
        return a;
    }
    let a = Arc::new(ens.rspns()[member].engine().active_set(columns));
    cache.active_insert(epoch, member, columns.to_vec(), Arc::clone(&a));
    a
}

/// Member selection + target/normalization prelude of the ML entry points.
pub(crate) struct MlPrelude {
    pub(crate) idx: usize,
    pub(crate) target_col: usize,
    /// Tuple-factor normalization columns (regression only; empty for
    /// classification).
    pub(crate) factors: Vec<usize>,
}

/// Cache-routed ML prelude: skips the member scan, target-column lookup,
/// and (for regression) the normalization-factor BFS on repeated
/// `(table, target)` prediction shapes.
pub(crate) fn ml_prelude(
    ens: &Ensemble,
    table: TableId,
    target: ColId,
    regression: bool,
) -> Result<Arc<MlPrelude>, DeepDbError> {
    let cache = ens.plan_cache();
    let epoch = ens.plan_epoch();
    let shape = QueryShape {
        tag: if regression { 7 } else { 8 },
        tables: vec![table],
        agg: (0, 0, 0),
        group_cols: vec![(table, target)],
        preds: Vec::new(),
        disjuncts: Vec::new(),
        literal_bits: Vec::new(),
    };
    if cache.enabled() {
        if let Some(CachedValue::Ml(p)) = cache.lookup(epoch, &shape) {
            return Ok(p);
        }
    }
    let idx = crate::ml::rspn_for(ens, table, target)?;
    let rspn = &ens.rspns()[idx];
    let target_col = rspn
        .data_column(table, target)
        .expect("selected to contain target");
    let factors = if regression {
        rspn.normalization_factor_cols(&BTreeSet::from([table]))
    } else {
        Vec::new()
    };
    let prelude = Arc::new(MlPrelude {
        idx,
        target_col,
        factors,
    });
    if cache.enabled() {
        cache.insert(epoch, shape, CachedValue::Ml(Arc::clone(&prelude)));
    }
    Ok(prelude)
}

// ---------------------------------------------------------------------------
// Prepared queries
// ---------------------------------------------------------------------------

/// A query prepared once, executable many times with different literals.
///
/// Created by [`Ensemble::prepare`]: a [`Checkout`] the caller keeps. In the
/// bound form [`PreparedQuery::execute`] rewrites the bound literal slots of
/// its working set in place, runs one fused inline sweep per touched
/// member, and resolves — **zero planning work and zero allocations** in
/// steady state. Shapes whose binds could not be discovered
/// (value-dependent translation, e.g. functional dependency rewrites) plan
/// cold per execution.
pub struct PreparedQuery {
    epoch: u64,
    n_literals: usize,
    /// The original query, kept pristine so the serving layer can
    /// re-prepare after a [`DeepDbError::StalePlan`] (and an unbound query
    /// has something to re-plan from).
    source: Query,
    checkout: Checkout,
}

/// Prepare `query` against the ensemble: plan, translate, and discover
/// literal binds once ([`Ensemble::prepare`] delegates here).
pub(crate) fn prepare(
    ens: &Ensemble,
    db: &Database,
    query: &Query,
) -> Result<PreparedQuery, DeepDbError> {
    query.validate(db)?;
    if !query.group_by.is_empty() {
        return Err(DeepDbError::Unsupported(
            "prepare supports scalar aggregates; GROUP BY queries go through execute_aqp".into(),
        ));
    }
    // Not `Checkout::new`: with the cache disabled a prepared query still
    // discovers binds and owns a private artifact.
    let checkout = Checkout::lookup_or_build(ens, db, query, ArtifactKind::of(query), &[])?;
    Ok(PreparedQuery {
        epoch: checkout.epoch,
        n_literals: query_literals(query).len(),
        source: query.clone(),
        checkout,
    })
}

impl PreparedQuery {
    /// Execute with fresh literals (in [`query_literals`] order; same arity
    /// as the prepared query's). Returns [`DeepDbError::StalePlan`] once the
    /// ensemble's plan epoch has advanced past the prepared one.
    pub fn execute(
        &mut self,
        ens: &Ensemble,
        db: &Database,
        literals: &[f64],
    ) -> Result<Estimate, DeepDbError> {
        if ens.plan_epoch() != self.epoch {
            return Err(DeepDbError::StalePlan);
        }
        if literals.len() != self.n_literals {
            return Err(DeepDbError::Unsupported(format!(
                "prepared query binds {} literals, got {}",
                self.n_literals,
                literals.len()
            )));
        }
        if !self.checkout.rebind(literals) {
            let mut query = self.source.clone();
            rebind_query_literals(&mut query, literals);
            let kind = ArtifactKind::of(&query);
            let (plan, resolver) = build_artifact(ens, db, &query, kind, &[], true)?;
            self.checkout = Checkout::cold(ens, self.epoch, plan, resolver);
        }
        self.checkout.run(ens, 0, None, None);
        Ok(self.checkout.resolve()?.0)
    }

    /// Number of literal slots [`PreparedQuery::execute`] expects.
    pub fn n_literals(&self) -> usize {
        self.n_literals
    }

    /// Whether bind discovery succeeded: `true` means executions rebind a
    /// frozen artifact (zero planning work); `false` means the shape is
    /// value-dependent and each execution plans cold.
    pub fn is_bound(&self) -> bool {
        matches!(self.checkout.source, PlanSource::Bound(_))
    }

    /// Plan epoch this query was prepared under.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The source query this was prepared from (literals as of prepare
    /// time) — what [`crate::serve::ServeFront::serve_prepared`] re-prepares
    /// after a [`DeepDbError::StalePlan`].
    pub fn source(&self) -> &Query {
        &self.source
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ensemble::{EnsembleBuilder, EnsembleParams};
    use deepdb_spn::TileFault;
    use deepdb_storage::fixtures::correlated_customer_order;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn memo_shape(tag: u8) -> QueryShape {
        QueryShape {
            tag,
            tables: vec![0],
            agg: (0, 0, 0),
            group_cols: Vec::new(),
            preds: Vec::new(),
            disjuncts: Vec::new(),
            literal_bits: Vec::new(),
        }
    }

    /// The one epoch stamp only moves forward: a newer epoch drops
    /// everything (without counting evictions); a late reader of an older
    /// epoch finds nothing, inserts nothing and clears nothing.
    #[test]
    fn epoch_stamp_is_monotonic() {
        let cache = PlanCache::new(4);
        cache.insert(2, memo_shape(6), CachedValue::Member(0));
        assert!(cache.lookup(2, &memo_shape(6)).is_some());

        assert!(cache.lookup(1, &memo_shape(6)).is_none());
        cache.insert(1, memo_shape(7), CachedValue::Member(1));
        let cols = vec![vec![0.0, 1.0, 1.0]];
        let meta = vec![deepdb_spn::ColumnMeta::discrete("a")];
        let spn = deepdb_spn::Spn::learn(
            deepdb_spn::DataView::new(&cols, &meta),
            &deepdb_spn::SpnParams::default(),
        );
        cache.active_insert(1, 0, vec![0], Arc::new(spn.compile().active_set(&[0])));
        let s = cache.stats();
        assert_eq!((s.entries, s.active_sets), (1, 0));
        assert!(cache.lookup(2, &memo_shape(6)).is_some());

        assert!(cache.lookup(3, &memo_shape(6)).is_none());
        let s = cache.stats();
        assert_eq!((s.entries, s.evictions), (0, 0));
    }

    /// A sweep that panics under a checkout (the chaos suite's `TileStart`
    /// faults do this on the serve path) drops it mid-unwind: the working
    /// set goes back, the entry's pool is not poisoned, and the next
    /// checkout of the shape reuses the entry and answers bitwise-correctly.
    #[test]
    fn checkout_dropped_while_unwinding_leaves_its_entry_usable() {
        let db = correlated_customer_order(300, 5);
        let params = EnsembleParams {
            sample_size: 3_000,
            correlation_sample: 300,
            ..EnsembleParams::default()
        };
        let ens = EnsembleBuilder::new(&db).params(params).build().unwrap();
        let query =
            |age| Query::count(vec![0]).filter(0, 1, PredOp::Cmp(CmpOp::Le, Value::Int(age)));
        let estimate = |q: &Query| scalar_estimate(&ens, &db, q, ArtifactKind::Count, &[]).unwrap();

        ens.set_plan_cache_capacity(0);
        let want = estimate(&query(40));
        ens.set_plan_cache_capacity(8);
        estimate(&query(40));

        let fault = || Some(TileFault::Panic);
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            let mut checkout =
                Checkout::new(&ens, &db, &query(63), ArtifactKind::Count, &[]).unwrap();
            checkout.run(&ens, 1, None, Some(&fault));
        }));
        assert!(unwound.is_err(), "the injected tile panic must surface");

        let got = estimate(&query(40));
        assert_eq!(got.value.to_bits(), want.value.to_bits());
        assert_eq!(got.variance.to_bits(), want.variance.to_bits());
        let s = ens.plan_cache_stats();
        assert_eq!(
            (s.misses, s.hits, s.entries),
            (1, 2, 1),
            "the entry survived: built once, hit by the panicking and the next checkout"
        );
    }
}
