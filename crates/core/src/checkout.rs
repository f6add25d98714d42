//! Checkouts: one execute path for every scalar query.
//!
//! PR 5 established that **planning is value-independent**: member selection
//! (`best_covering_rspn` / `best_rspn_with` / the Case-3 combine planner)
//! and predicate translation structure depend only on schema, ensemble
//! coverage, and the *columns* predicates touch — never on the literal
//! values. Production traffic repeats query **shapes** with different
//! literals, so planning is done once per shape and everything after it is
//! one cycle: **entry → checkout → run → resolve → check-in**.
//!
//! * An **entry** ([`PlanArtifact`], keyed by [`crate::shape::QueryShape`]
//!   in the LRU map of [`crate::cache::PlanCache`]) is the frozen
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
//! # Literal binds via sentinel discovery
//!
//! Rather than trusting the translation layer to report where literals land,
//! the cache **observes** it: on a miss the artifact is built twice — once
//! with the real literals, once with every literal replaced by a
//! distinguishable sentinel `f64` (`shape::sentinel`, quiet bit patterns
//! near the top of the finite range). If both builds have the same plan
//! layout ([`ProbePlan::same_layout`]), the flat literal walks are diffed
//! bitwise: an unchanged slot is a plan constant (±∞ range endpoints,
//! join-indicator values, translated representatives); a slot that changed
//! must hold sentinel *i* in the sentinel build and literal *i*'s exact bits
//! in the real build, and becomes a bind `(flat position, literal index)`.
//! Any unexplained difference — value-dependent translation (e.g. the
//! functional-dependency dictionary rewrite), layout divergence, a real
//! literal colliding with the sentinel range — rejects caching for that
//! shape. **Conservative by construction**: a query either gets a provably
//! value-independent artifact or plans cold like before.

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use deepdb_spn::{ActiveSet, CancelFlag, TileFaultFn};
use deepdb_storage::{Database, PredOp, Predicate, Query, TableId};

use crate::compile::{
    register_avg, register_count, register_scalar, resolve_scalar, DeferredAvg, DeferredCountExpr,
    DeferredScalar,
};
use crate::ensemble::Ensemble;
use crate::estimate::Estimate;
use crate::plan::{PlanScratch, ProbePlan, ProbeResults};
use crate::shape::{
    artifact_shape, collect_all_literals, query_literals, rebind_query_literals, sentinel_variant,
    ArtifactKind, SENT_BASE,
};
use crate::DeepDbError;

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
    pub(crate) fn new(
        plan: ProbePlan,
        resolver: Resolver,
        binds: Vec<(u32, u32)>,
        n_literals: usize,
        actives: Vec<Arc<ActiveSet>>,
    ) -> Self {
        PlanArtifact {
            plan,
            resolver,
            binds,
            n_literals,
            actives,
            idle: Mutex::new(Vec::new()),
        }
    }

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
            Some(a) if a.n_literals == literals.len() => (a, true),
            _ => {
                let (plan, resolver) = build_artifact(ens, db, query, kind, disjuncts, true)?;
                let Some(binds) = discover_binds(ens, db, query, kind, disjuncts, &plan, &literals)
                else {
                    return Ok(Self::cold(ens, epoch, plan, resolver));
                };
                let actives = plan.active_sets(ens);
                let a = Arc::new(PlanArtifact::new(
                    plan,
                    resolver,
                    binds,
                    literals.len(),
                    actives,
                ));
                cache.insert(epoch, shape, Arc::clone(&a));
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
    use deepdb_storage::{CmpOp, Value};
    use std::panic::{catch_unwind, AssertUnwindSafe};

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
