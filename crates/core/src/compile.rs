//! Probabilistic query compilation (paper §4).
//!
//! Translates COUNT/AVG/SUM queries over FK joins into products of
//! expectations and probabilities against the RSPN ensemble:
//!
//! * **Case 1/2** — a single RSPN covers (a superset of) the query's tables:
//!   `|J| · E[1/F'(Q,J) · 1_C · ∏_{T∈Q} N_T]` (Theorem 1).
//! * **Case 3** — the query spans several RSPNs: a covered table set is
//!   extended edge by edge, multiplying either conditional count-fraction
//!   ratios (when one RSPN spans the overlap, Theorem 2) or explicit
//!   fan-out × selectivity terms built from raw tuple-factor columns (the
//!   paper's worked alternatives).
//!
//! RSPN choice is greedy by the sum of pairwise RDC values among the filter
//! columns an RSPN can handle ("Execution Strategy", §4.1), with ties broken
//! deterministically to the lowest member index (the MPE tie rule).
//!
//! Probes are **deferred, not eager**: the `register_*` functions translate
//! a (sub)query into [`deepdb_spn::SpnQuery`] probes on a [`ProbePlan`] and return typed
//! deferred estimates holding [`ProbeHandle`]s; a single
//! [`ProbePlan::execute`] then sweeps each touched RSPN member's arena once
//! and the deferred values `resolve` against the results. Each member's
//! sweep is additionally *pruned* to the sub-DAG its probes can influence:
//! the plan's constrained/target column union keys a cached
//! [`deepdb_spn::ActiveSet`] (see [`crate::cache`]) and the kernels sweep
//! only its compacted runs, bitwise identical to the full sweep. This now covers
//! Case 3 too: [`crate::combine::CombinePlan`] plans the whole multi-RSPN
//! combination symbolically and registers **every** extension step's
//! fraction bundles on the same plan, so a COUNT costs one sweep per
//! touched member no matter how many RSPNs it combines.
//! `aqp::execute_aqp` fuses the bundles of *every* GROUP BY group — combine
//! plans included — into one sharing plan, which sweeps each distinct probe
//! per member once: a bundle no group predicate reaches is swept once per
//! query, not once per group. The retired eager Case-3 loop survives
//! only as the differential-test oracle [`crate::combine::multi_rspn_count`].
//!
//! All query entry points take `&Ensemble`: the update path patches the
//! compiled engines in place, so they are never stale.

use std::borrow::Cow;
use std::collections::BTreeSet;

use deepdb_spn::{LeafFunc, LeafPred, SpnQuery};
use deepdb_storage::{Aggregate, ColumnRef, Database, Predicate, Query, TableId};

use crate::combine::{CombineExpr, CombinePlan};
use crate::ensemble::Ensemble;
use crate::estimate::Estimate;
use crate::plan::{ProbeHandle, ProbePlan, ProbeResults};
use crate::rspn::count_fraction_query;
use crate::DeepDbError;

/// Estimate `COUNT(*)` of an inner-join query (cardinality estimation /
/// COUNT AQP). Returns the point estimate with propagated variance.
pub fn estimate_count(
    ens: &Ensemble,
    db: &Database,
    query: &Query,
) -> Result<Estimate, DeepDbError> {
    query.validate(db)?;
    crate::checkout::scalar_estimate(ens, db, query, crate::shape::ArtifactKind::Count, &[])
}

/// Cardinality estimate clamped to ≥ 1 tuple (q-error convention).
pub fn estimate_cardinality(
    ens: &Ensemble,
    db: &Database,
    query: &Query,
) -> Result<f64, DeepDbError> {
    Ok(estimate_count(ens, db, query)?.value.max(1.0))
}

/// Batched point-count estimates for `query` extended with `target = v` for
/// each `v` in `values` — the workhorse behind GROUP BY domain pruning,
/// where one query fans out into one probe per candidate group value.
///
/// When a single RSPN covers the query (paper Cases 1/2) all probes are
/// registered on one [`ProbePlan`] and the member is swept **once**, tiles
/// parallelized (`|J| · E[1/F' · 1_{C ∧ target=v} · ∏N_T]` per value).
/// Otherwise every value's combine plan is registered on one sharing plan
/// (Case-3 combination is planned symbolically, so the whole batch still
/// costs one sweep per touched member, and only the steps over the target's
/// table are swept once per value).
pub fn estimate_count_values(
    ens: &Ensemble,
    db: &Database,
    query: &Query,
    target: ColumnRef,
    values: &[deepdb_storage::Value],
) -> Result<Vec<f64>, DeepDbError> {
    query.validate(db)?;
    let qtables: BTreeSet<TableId> = query.tables.iter().copied().collect();
    let eq_pred = |v: &deepdb_storage::Value| value_predicate(target.table, target.column, *v);

    // Representative predicate set for RSPN selection (the choice is
    // identical for every value: only the constant differs).
    let mut selector_preds = query.predicates.clone();
    if let Some(v) = values.first() {
        selector_preds.push(eq_pred(v));
    }
    let single = best_covering_rspn(ens, &qtables, &selector_preds).and_then(|idx| {
        // The whole batch must translate against this one RSPN. The shared
        // predicates are translated once into a base query; each value only
        // appends its own equality predicate.
        let rspn = &ens.rspns()[idx];
        let base = count_fraction_query(rspn, &qtables, &query.predicates, false)
            .ok()
            .map(|(q, _)| q)?;
        let mut plan = ProbePlan::new();
        let mut handles = Vec::with_capacity(values.len());
        for v in values {
            let mut q = base.clone();
            match rspn.add_predicate(&mut q, &eq_pred(v)) {
                Ok(()) => handles.push(plan.register(idx, q)),
                Err(_) => return None,
            }
        }
        Some((idx, plan, handles))
    });

    if let Some((idx, plan, handles)) = single {
        let j = ens.rspns()[idx].full_join_count() as f64;
        let results = plan.execute(ens);
        return Ok(handles
            .into_iter()
            .map(|h| (results[h] * j).max(0.0))
            .collect());
    }

    // Case 3 (or translation-failure) fallback: prepare the combine plan
    // once and register every value's bundle set on ONE sharing plan — one
    // fused sweep per touched member for the whole batch, each distinct
    // probe once.
    let mut count_q = query.clone();
    count_q.aggregate = Aggregate::CountStar;
    let template = ScalarTemplate::prepare(ens, db, &count_q, std::slice::from_ref(&target))?;
    let mut plan = ProbePlan::sharing();
    let mut deferred = Vec::with_capacity(values.len());
    for v in values {
        deferred.push(template.register_group(&mut plan, ens, &[eq_pred(v)])?);
    }
    let results = plan.execute(ens);
    deferred
        .iter()
        .map(|d| Ok(d.count.resolve(&results)?.value.max(0.0)))
        .collect()
}

/// Equality predicate for a concrete value; NULL group keys become `IS NULL`
/// (an `=` comparison against NULL is SQL-unknown and would drop the group).
pub(crate) fn value_predicate(
    table: TableId,
    column: deepdb_storage::ColId,
    v: deepdb_storage::Value,
) -> Predicate {
    match v {
        deepdb_storage::Value::Null => {
            Predicate::new(table, column, deepdb_storage::PredOp::IsNull)
        }
        _ => Predicate::new(
            table,
            column,
            deepdb_storage::PredOp::Cmp(deepdb_storage::CmpOp::Eq, v),
        ),
    }
}

/// Maximum number of disjuncts accepted by [`estimate_count_disjunction`]
/// (inclusion–exclusion enumerates 2^k − 1 conjunctive subqueries).
pub const MAX_DISJUNCTS: usize = 10;

/// Estimate `COUNT(*)` of a query whose WHERE clause is
/// `C ∧ (D₁ ∨ D₂ ∨ … ∨ Dₖ)` — `query.predicates` is the conjunctive part
/// `C`, each `disjuncts[i]` is one conjunction `Dᵢ` — via the
/// inclusion–exclusion principle the paper points to in §4.1:
///
/// `COUNT(∨ᵢ Dᵢ) = Σ_{∅≠S} (−1)^{|S|+1} · COUNT(∧_{i∈S} Dᵢ)`.
///
/// All 2^k − 1 conjunctive terms are registered on **one** probe plan —
/// terms needing Case-3 combination register their combine plans on the same
/// plan — so the whole disjunction costs one sweep per touched member.
/// Variances of the terms are summed (the terms reuse the same models, so
/// this over-states independence; documented approximation). The estimate is
/// clamped to ≥ 0.
pub fn estimate_count_disjunction(
    ens: &Ensemble,
    db: &Database,
    query: &Query,
    disjuncts: &[Vec<Predicate>],
) -> Result<Estimate, DeepDbError> {
    if disjuncts.is_empty() {
        return estimate_count(ens, db, query);
    }
    if disjuncts.len() > MAX_DISJUNCTS {
        return Err(DeepDbError::Unsupported(format!(
            "inclusion-exclusion supports at most {MAX_DISJUNCTS} disjuncts, got {}",
            disjuncts.len()
        )));
    }
    query.validate(db)?;
    // Term enumeration, per-term validation (disjunct predicates can
    // reference tables outside the FROM list), registration, and the signed
    // inclusion–exclusion resolution all live in the shared cache-routed
    // builder so repeated disjunction shapes reuse one plan artifact.
    crate::checkout::scalar_estimate(ens, db, query, crate::shape::ArtifactKind::Count, disjuncts)
}

/// Estimate `AVG(col)` with tuple-factor normalization (paper §4.2).
pub fn estimate_avg(ens: &Ensemble, db: &Database, query: &Query) -> Result<Estimate, DeepDbError> {
    query.validate(db)?;
    let Aggregate::Avg(target) = query.aggregate else {
        return Err(DeepDbError::Unsupported(
            "estimate_avg requires an AVG aggregate".into(),
        ));
    };
    crate::checkout::scalar_estimate(ens, db, query, crate::shape::ArtifactKind::Avg(target), &[])
}

/// Estimate `SUM(col)` = COUNT × AVG (paper §4.2). The COUNT probes (over
/// non-NULL summands) and the AVG numerator/denominator/moment probes are
/// fused into one plan — one sweep per touched member even when COUNT and
/// AVG pick different members.
pub fn estimate_sum(ens: &Ensemble, db: &Database, query: &Query) -> Result<Estimate, DeepDbError> {
    query.validate(db)?;
    let Aggregate::Sum(target) = query.aggregate else {
        return Err(DeepDbError::Unsupported(
            "estimate_sum requires a SUM aggregate".into(),
        ));
    };
    // The non-NULL COUNT restriction and the fused COUNT/AVG registration
    // live in the shared cache-routed builder.
    crate::checkout::scalar_estimate(ens, db, query, crate::shape::ArtifactKind::Sum(target), &[])
}

/// Pick the best RSPN whose tables cover all of `qtables` (greedy RDC
/// strategy; smaller RSPNs win ties to avoid needless normalization, and
/// among same-size candidates the lowest member index wins — selection is
/// reproducible across runs).
fn best_covering_rspn(
    ens: &Ensemble,
    qtables: &BTreeSet<TableId>,
    preds: &[Predicate],
) -> Option<usize> {
    let mut best: Option<(f64, isize, usize)> = None;
    for (i, rspn) in ens.rspns().iter().enumerate() {
        if !qtables.iter().all(|t| rspn.tables().contains(t)) {
            continue;
        }
        let score = rspn.strategy_score(preds);
        let size_penalty = -(rspn.tables().len() as isize);
        let key = (score, size_penalty, i);
        // Strictly-better keys only: on a full tie the first (lowest-index)
        // candidate is kept.
        if best.is_none_or(|(s, p, _)| (score, size_penalty) > (s, p)) {
            best = Some(key);
        }
    }
    best.map(|(_, _, i)| i)
}

// ---------------------------------------------------------------------------
// Deferred probe bundles: register on a ProbePlan now, resolve to Estimates
// after one fused execute().
// ---------------------------------------------------------------------------

/// Deferred `E[1/F'(Q,J) · 1_C · ∏N_T]` with variance: the point probe,
/// plus — when tuple-factor normalization is active — the probability factor
/// and the second-moment probe (three probes, same member, one sweep).
/// Fields are crate-visible so `combine.rs` can assemble the same bundle
/// shape for its Case-3 extension steps.
pub(crate) struct DeferredFraction {
    pub(crate) n: u64,
    /// The fraction probe (moment functions applied).
    pub(crate) point: ProbeHandle,
    /// `P(C ∧ ∏N_T)` — same query without the moment functions.
    pub(crate) prob: Option<ProbeHandle>,
    /// Squared-moment probe for the Koenig–Huygens variance.
    pub(crate) sq: Option<ProbeHandle>,
}

impl DeferredFraction {
    pub(crate) fn resolve(&self, r: &ProbeResults) -> Estimate {
        let n = self.n;
        let (Some(prob), Some(sq)) = (self.prob, self.sq) else {
            // No tuple-factor normalization: the fraction *is* the
            // probability (binomial variance, paper §5.1).
            let p = r[self.point].clamp(0.0, 1.0);
            if p <= 0.0 {
                return Estimate::exact(0.0);
            }
            return Estimate::probability(p, n);
        };
        let p = r[prob].clamp(0.0, 1.0);
        if p <= 0.0 {
            return Estimate::exact(0.0);
        }
        let e_g1c = r[self.point]; // E[g·1_C]
        let e_g2c = r[sq]; // E[g²·1_C]
        let n_eff = (n as f64 * p).max(1.0);
        let cond = Estimate::conditional_expectation(e_g1c / p, e_g2c / p, n_eff);
        cond.product(Estimate::probability(p, n))
    }
}

/// Register the probes of one count fraction on RSPN member `idx` (the
/// split into a binomial predicate part and a Koenig–Huygens
/// conditional-expectation part follows paper §5.1). Thin wrapper over
/// [`FractionBundle`] with no deferred group predicates.
pub(crate) fn register_fraction(
    plan: &mut ProbePlan,
    ens: &Ensemble,
    idx: usize,
    qtables: &BTreeSet<TableId>,
    preds: &[Predicate],
) -> Result<DeferredFraction, DeepDbError> {
    FractionBundle::build(ens, idx, qtables, preds, None)?.register(plan, ens, &[])
}

/// Deferred Theorem-1 count on a single covering member:
/// `|J| · E[1/F' · 1_C · ∏N_T]`.
pub(crate) struct DeferredCount {
    j: f64,
    fraction: DeferredFraction,
}

impl DeferredCount {
    pub(crate) fn resolve(&self, r: &ProbeResults) -> Estimate {
        self.fraction.resolve(r).scale(self.j)
    }
}

/// A deferred COUNT that always resolves from the plan's results: either a
/// Theorem-1 bundle on one covering member (Cases 1/2) or a symbolic
/// multi-RSPN combination (Case 3) — there is no eager arm left.
pub(crate) enum DeferredCountExpr {
    Covered(DeferredCount),
    Combined(CombineExpr),
}

impl DeferredCountExpr {
    pub(crate) fn resolve(&self, r: &ProbeResults) -> Result<Estimate, DeepDbError> {
        match self {
            DeferredCountExpr::Covered(d) => Ok(d.resolve(r)),
            DeferredCountExpr::Combined(e) => e.resolve(r),
        }
    }
}

/// Register a full COUNT estimate on `plan`: Theorem 1 when one RSPN covers
/// the query tables (Cases 1/2), otherwise the symbolic Case-3 combine plan
/// — either way every probe rides the caller's fused sweep. Translation
/// failures propagate as errors.
pub(crate) fn register_count(
    plan: &mut ProbePlan,
    ens: &Ensemble,
    db: &Database,
    qtables: &BTreeSet<TableId>,
    preds: &[Predicate],
) -> Result<DeferredCountExpr, DeepDbError> {
    CountSource::prepare(ens, db, qtables, preds, preds)?.register(plan, ens, &[])
}

/// Where a COUNT's probes come from: a single covering member's translated
/// bundle, or a planned multi-RSPN combination. Prepared once per query
/// (GROUP BY re-registers it per group with the group's value predicates).
enum CountSource {
    /// A Theorem-1 count on one covering member: `|J|` and its fraction.
    Covered {
        j: f64,
        fraction: FractionBundle,
    },
    Combined(CombinePlan),
}

impl CountSource {
    fn prepare(
        ens: &Ensemble,
        db: &Database,
        qtables: &BTreeSet<TableId>,
        shared_preds: &[Predicate],
        selector_preds: &[Predicate],
    ) -> Result<Self, DeepDbError> {
        match best_covering_rspn(ens, qtables, selector_preds) {
            Some(idx) => Ok(CountSource::Covered {
                j: ens.rspns()[idx].full_join_count() as f64,
                fraction: FractionBundle::build(ens, idx, qtables, shared_preds, None)?,
            }),
            None => Ok(CountSource::Combined(CombinePlan::build(
                ens,
                db,
                qtables,
                shared_preds,
                selector_preds,
            )?)),
        }
    }

    fn register(
        &self,
        plan: &mut ProbePlan,
        ens: &Ensemble,
        group_preds: &[Predicate],
    ) -> Result<DeferredCountExpr, DeepDbError> {
        Ok(match self {
            CountSource::Covered { j, fraction } => DeferredCountExpr::Covered(DeferredCount {
                j: *j,
                fraction: fraction.register(plan, ens, group_preds)?,
            }),
            CountSource::Combined(c) => {
                DeferredCountExpr::Combined(c.register(plan, ens, group_preds)?)
            }
        })
    }
}

/// Deferred AVG via normalized conditional expectation (paper §4.2):
/// numerator `E[A/F' · 1_C]`, denominator `E[1_{A not null}/F' · 1_C]`, and
/// the second moment `E[(A/F')²·1_C]` for the Koenig–Huygens variance.
pub(crate) struct DeferredAvg {
    n: u64,
    num: ProbeHandle,
    den: ProbeHandle,
    sq: ProbeHandle,
}

impl DeferredAvg {
    pub(crate) fn resolve(&self, r: &ProbeResults) -> Estimate {
        let (den, num, e2) = (r[self.den], r[self.num], r[self.sq]);
        if den <= 0.0 {
            return Estimate::exact(0.0);
        }
        let n_eff = (self.n as f64 * den).max(1.0);
        Estimate::conditional_expectation(num / den, e2 / den, n_eff)
    }
}

/// Register an AVG estimate: choose the RSPN containing the aggregate column
/// with the best predicate coverage; predicates on tables outside that RSPN
/// are ignored (approximation noted in the paper). Thin wrapper over
/// [`AvgTemplate`] with no deferred group predicates.
pub(crate) fn register_avg(
    plan: &mut ProbePlan,
    ens: &Ensemble,
    tables: &[TableId],
    preds: &[Predicate],
    target: ColumnRef,
) -> Result<DeferredAvg, DeepDbError> {
    AvgTemplate::build(ens, tables, preds, preds, target)?.register(plan, ens, &[])
}

/// A deferred (aggregate, count) pair for one scalar (or one GROUP BY group)
/// subquery — what `aqp` fuses across all groups of a query. Every arm,
/// Case-3 combinations included, resolves purely from the plan's results.
pub(crate) struct DeferredScalar {
    pub(crate) count: DeferredCountExpr,
    agg: DeferredAggKind,
}

pub(crate) enum DeferredAggKind {
    /// Aggregate is the COUNT itself.
    Count,
    Avg(DeferredAvg),
    Sum {
        count_nn: DeferredCountExpr,
        avg: DeferredAvg,
    },
}

/// Register all probes of one scalar aggregate query (COUNT plus the
/// aggregate's own probes) on `plan`.
pub(crate) fn register_scalar(
    plan: &mut ProbePlan,
    ens: &Ensemble,
    db: &Database,
    query: &Query,
) -> Result<DeferredScalar, DeepDbError> {
    ScalarTemplate::prepare(ens, db, query, &[])?.register_group(plan, ens, &[])
}

// ---------------------------------------------------------------------------
// Scalar templates: GROUP BY enumeration registers the same probe bundle
// once per group, with only the group-value predicates changing. A
// `ScalarTemplate` performs the member selection and translates the shared
// (non-group) predicates into base `SpnQuery`s ONCE; each group then appends
// just its own per-value predicates to the bundles that accept them (cloning
// a base only when it gains one) — O(groups × group columns) instead of
// O(groups × all predicates) translation work.
// ---------------------------------------------------------------------------

/// Pre-translated probe bases for a family of scalar queries that differ
/// only in appended group-value predicates. Built by
/// [`ScalarTemplate::prepare`]; consumed once per group via
/// [`ScalarTemplate::register_group`]. The scalar path is the degenerate
/// no-group-columns case, so both paths share one translation. Counts that
/// need Case-3 combination hold a prepared [`CombinePlan`], so even
/// multi-RSPN GROUP BY registers every group on the one shared plan.
pub(crate) struct ScalarTemplate {
    count: CountSource,
    agg: AggTemplate,
}

/// Pre-translated base queries of one count-fraction bundle on a fixed
/// member: a Theorem-1 count's (Cases 1/2) or one Case-3 step's. `accept`
/// names the tables whose GROUP BY value predicates the bundle absorbs —
/// exactly the per-step predicate filtering of the eager Case-3 loop — so
/// a bundle that absorbs none of a group's predicates registers its bases
/// as they are.
pub(crate) struct FractionBundle {
    pub(crate) idx: usize,
    n: u64,
    point: SpnQuery,
    prob: Option<SpnQuery>,
    sq: Option<SpnQuery>,
    /// `None`: every group predicate (a covering member holds them all).
    accept: Option<BTreeSet<TableId>>,
}

/// Base queries of one deferred AVG on a fixed member.
struct AvgTemplate {
    idx: usize,
    n: u64,
    num: SpnQuery,
    den: SpnQuery,
    sq: SpnQuery,
}

enum AggTemplate {
    Count,
    Avg(AvgTemplate),
    Sum {
        count_nn: CountSource,
        avg: AvgTemplate,
    },
}

impl FractionBundle {
    /// Translate the shared predicates of one fraction bundle against
    /// member `idx`: the point probe, plus — when tuple-factor
    /// normalization is active — the probability factor (same query, moment
    /// functions replaced by `One`) and the squared-moment probe. The
    /// **single source** of the point/prob/sq recipe for Theorem-1 counts
    /// (Cases 1/2) and the combine planner's per-step bundles (Case 3),
    /// which is what keeps the planned path bitwise-equal to the eager
    /// oracle.
    pub(crate) fn build(
        ens: &Ensemble,
        idx: usize,
        set: &BTreeSet<TableId>,
        preds: &[Predicate],
        accept: Option<BTreeSet<TableId>>,
    ) -> Result<Self, DeepDbError> {
        let rspn = &ens.rspns()[idx];
        let (point, factors) = count_fraction_query(rspn, set, preds, false)?;
        let (prob, sq) = if factors.is_empty() {
            (None, None)
        } else {
            let mut prob_q = point.clone();
            for &f in &factors {
                prob_q.set_func(f, LeafFunc::One);
            }
            let (sq_q, _) = count_fraction_query(rspn, set, preds, true)?;
            (Some(prob_q), Some(sq_q))
        };
        Ok(FractionBundle {
            idx,
            n: rspn.n_training(),
            point,
            prob,
            sq,
            accept,
        })
    }

    /// Register the bundle with the group predicates it accepts appended.
    pub(crate) fn register(
        &self,
        plan: &mut ProbePlan,
        ens: &Ensemble,
        group_preds: &[Predicate],
    ) -> Result<DeferredFraction, DeepDbError> {
        let rspn = &ens.rspns()[self.idx];
        let accept = |t: TableId| self.accept.as_ref().is_none_or(|a| a.contains(&t));
        let mut register = |base: &SpnQuery| -> Result<ProbeHandle, DeepDbError> {
            let q = extend_probe(rspn, base, group_preds, accept)?;
            Ok(plan.register_probe(self.idx, q))
        };
        Ok(DeferredFraction {
            n: self.n,
            point: register(&self.point)?,
            prob: self.prob.as_ref().map(&mut register).transpose()?,
            sq: self.sq.as_ref().map(&mut register).transpose()?,
        })
    }
}

/// `base` with the group predicates on the tables `accept` admits
/// translated onto it — still borrowed while none is, so a sharing plan
/// registers a probe no group predicate reaches without cloning it.
pub(crate) fn extend_probe<'q>(
    rspn: &crate::rspn::Rspn,
    base: &'q SpnQuery,
    group_preds: &[Predicate],
    accept: impl Fn(TableId) -> bool,
) -> Result<Cow<'q, SpnQuery>, DeepDbError> {
    let mut q = Cow::Borrowed(base);
    for p in group_preds.iter().filter(|p| accept(p.table)) {
        rspn.add_predicate(q.to_mut(), p)?;
    }
    Ok(q)
}

impl AvgTemplate {
    /// Member selection + shared-predicate translation of one AVG bundle
    /// (mirrors the former eager `register_avg` body). `selector_preds`
    /// drive the member choice (they include representative group
    /// predicates — scoring depends only on predicate columns, never on the
    /// group value); the base queries carry only the translated shared
    /// predicates.
    fn build(
        ens: &Ensemble,
        tables: &[TableId],
        preds: &[Predicate],
        selector_preds: &[Predicate],
        target: ColumnRef,
    ) -> Result<Self, DeepDbError> {
        let idx = best_rspn_with(ens, selector_preds, |r| {
            r.tables().contains(&target.table)
                && r.data_column(target.table, target.column).is_some()
        })
        .ok_or_else(|| {
            DeepDbError::NotAnswerable(format!(
                "no RSPN models AVG column ({}, {})",
                target.table, target.column
            ))
        })?;

        let rspn = &ens.rspns()[idx];
        let target_col = rspn
            .data_column(target.table, target.column)
            .expect("checked above");
        let present: BTreeSet<TableId> = tables
            .iter()
            .copied()
            .filter(|t| rspn.tables().contains(t))
            .collect();
        let usable: Vec<Predicate> = preds
            .iter()
            .filter(|p| rspn.tables().contains(&p.table))
            .cloned()
            .collect();

        let (mut num, _) = count_fraction_query(rspn, &present, &usable, false)?;
        num.set_func(target_col, LeafFunc::X);
        let (mut den, _) = count_fraction_query(rspn, &present, &usable, false)?;
        den.add_pred(target_col, LeafPred::IsNotNull);
        let (mut sq, _) = count_fraction_query(rspn, &present, &usable, true)?;
        sq.set_func(target_col, LeafFunc::X2);

        Ok(AvgTemplate {
            idx,
            n: rspn.n_training(),
            num,
            den,
            sq,
        })
    }

    fn register(
        &self,
        plan: &mut ProbePlan,
        ens: &Ensemble,
        group_preds: &[Predicate],
    ) -> Result<DeferredAvg, DeepDbError> {
        let rspn = &ens.rspns()[self.idx];
        // Same filter the shared predicates went through: predicates on
        // tables outside this member are ignored (documented approximation
        // of the paper's AVG translation).
        let mut register = |base: &SpnQuery| -> Result<ProbeHandle, DeepDbError> {
            let q = extend_probe(rspn, base, group_preds, |t| rspn.tables().contains(&t))?;
            Ok(plan.register_probe(self.idx, q))
        };
        Ok(DeferredAvg {
            n: self.n,
            num: register(&self.num)?,
            den: register(&self.den)?,
            sq: register(&self.sq)?,
        })
    }
}

impl ScalarTemplate {
    /// Select members and translate the shared predicates of `query` once.
    /// `group_cols` are the GROUP BY columns whose per-value predicates will
    /// be appended group by group; member selection sees representative
    /// equality predicates on them (scores depend only on the columns) —
    /// which is also what lets one [`CombinePlan`] serve every group.
    pub(crate) fn prepare(
        ens: &Ensemble,
        db: &Database,
        query: &Query,
        group_cols: &[ColumnRef],
    ) -> Result<Self, DeepDbError> {
        let qtables: BTreeSet<TableId> = query.tables.iter().copied().collect();
        let rep: Vec<Predicate> = group_cols
            .iter()
            .map(|c| value_predicate(c.table, c.column, deepdb_storage::Value::Int(0)))
            .collect();
        let selector: Vec<Predicate> = query.predicates.iter().chain(rep.iter()).cloned().collect();

        let count = CountSource::prepare(ens, db, &qtables, &query.predicates, &selector)?;
        let agg = match query.aggregate {
            Aggregate::CountStar => AggTemplate::Count,
            Aggregate::Avg(target) => AggTemplate::Avg(AvgTemplate::build(
                ens,
                &query.tables,
                &query.predicates,
                &selector,
                target,
            )?),
            Aggregate::Sum(target) => {
                let nn = Predicate::new(
                    target.table,
                    target.column,
                    deepdb_storage::PredOp::IsNotNull,
                );
                let mut nn_base = query.predicates.clone();
                nn_base.push(nn.clone());
                let mut nn_selector = selector.clone();
                nn_selector.push(nn);
                AggTemplate::Sum {
                    count_nn: CountSource::prepare(ens, db, &qtables, &nn_base, &nn_selector)?,
                    avg: AvgTemplate::build(
                        ens,
                        &query.tables,
                        &query.predicates,
                        &selector,
                        target,
                    )?,
                }
            }
        };
        Ok(ScalarTemplate { count, agg })
    }

    /// Register one group's probe bundle: the translated bases with this
    /// group's value predicates appended where a bundle accepts them. On a
    /// sharing plan a base that accepts none is not cloned and shares the
    /// slot of every other group's copy.
    pub(crate) fn register_group(
        &self,
        plan: &mut ProbePlan,
        ens: &Ensemble,
        group_preds: &[Predicate],
    ) -> Result<DeferredScalar, DeepDbError> {
        let count = self.count.register(plan, ens, group_preds)?;
        let agg = match &self.agg {
            AggTemplate::Count => DeferredAggKind::Count,
            AggTemplate::Avg(t) => DeferredAggKind::Avg(t.register(plan, ens, group_preds)?),
            AggTemplate::Sum { count_nn, avg } => DeferredAggKind::Sum {
                count_nn: count_nn.register(plan, ens, group_preds)?,
                avg: avg.register(plan, ens, group_preds)?,
            },
        };
        Ok(DeferredScalar { count, agg })
    }
}

/// Resolve a [`DeferredScalar`] into `(aggregate, count)` estimates. Every
/// arm reads the caller's probe results — there is no eager fallback path
/// left, so resolution never sweeps an arena.
pub(crate) fn resolve_scalar(
    deferred: &DeferredScalar,
    r: &ProbeResults,
) -> Result<(Estimate, Estimate), DeepDbError> {
    let count = deferred.count.resolve(r)?;
    let agg = match &deferred.agg {
        DeferredAggKind::Count => count,
        DeferredAggKind::Avg(avg) => avg.resolve(r),
        DeferredAggKind::Sum { count_nn, avg } => count_nn.resolve(r)?.product(avg.resolve(r)),
    };
    Ok((agg, count))
}

/// Best RSPN satisfying a shape filter, by strategy score. Deterministic:
/// only a strictly better score displaces the incumbent, so the lowest
/// member index wins ties (the same rule as compiled MPE tie-breaking) and
/// plan construction is reproducible across runs.
pub(crate) fn best_rspn_with(
    ens: &Ensemble,
    preds: &[Predicate],
    accept: impl Fn(&crate::rspn::Rspn) -> bool,
) -> Option<usize> {
    let mut best: Option<(f64, usize)> = None;
    for (i, rspn) in ens.rspns().iter().enumerate() {
        if !accept(rspn) {
            continue;
        }
        let handled: Vec<Predicate> = preds
            .iter()
            .filter(|p| rspn.tables().contains(&p.table))
            .cloned()
            .collect();
        let score = rspn.strategy_score(&handled);
        if best.is_none_or(|(s, _)| score > s) {
            best = Some((score, i));
        }
    }
    best.map(|(_, i)| i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ensemble::{EnsembleBuilder, EnsembleParams, EnsembleStrategy};
    use deepdb_storage::fixtures::{correlated_customer_order, paper_customer_order};
    use deepdb_storage::{execute, CmpOp, PredOp, Value};

    fn params(sample: usize) -> EnsembleParams {
        EnsembleParams {
            sample_size: sample,
            correlation_sample: 1_500,
            ..EnsembleParams::default()
        }
    }

    /// Relative check helper: estimate within `tol`× of truth.
    fn assert_close(est: f64, truth: f64, tol: f64, label: &str) {
        let q = if est > truth {
            est / truth.max(1e-9)
        } else {
            truth / est.max(1e-9)
        };
        assert!(
            q <= tol,
            "{label}: estimate {est} vs truth {truth} (q-error {q:.3})"
        );
    }

    #[test]
    fn paper_q1_and_q2_via_joint_rspn() {
        let db = paper_customer_order();
        let mut p = params(40_000);
        p.rdc_threshold = 0.0; // force the joint RSPN
        let ens = EnsembleBuilder::new(&db).params(p).build().unwrap();
        let c = db.table_id("customer").unwrap();
        let o = db.table_id("orders").unwrap();

        // Q1: European customers = 2 (answered via Case 2).
        let q1 = Query::count(vec![c]).filter(c, 2, PredOp::Cmp(CmpOp::Eq, Value::Int(0)));
        let est = estimate_count(&ens, &db, &q1).unwrap();
        assert_close(est.value, 2.0, 1.15, "Q1");

        // Q2: European online orders = 1 (Case 1).
        let q2 = Query::count(vec![c, o])
            .filter(c, 2, PredOp::Cmp(CmpOp::Eq, Value::Int(0)))
            .filter(o, 2, PredOp::Cmp(CmpOp::Eq, Value::Int(0)));
        let est = estimate_count(&ens, &db, &q2).unwrap();
        assert_close(est.value, 1.0, 1.6, "Q2");
    }

    #[test]
    fn paper_q2_via_single_table_rspns_case_3() {
        let db = paper_customer_order();
        let mut p = params(40_000);
        p.strategy = EnsembleStrategy::SingleTables;
        let ens = EnsembleBuilder::new(&db).params(p).build().unwrap();
        let c = db.table_id("customer").unwrap();
        let o = db.table_id("orders").unwrap();
        // Paper §4.1 Case 3: |C|·E(1_EU·F_{C←O})·E(1_ONLINE) = 3·(2/3)·(1/2) = 1.
        let q2 = Query::count(vec![c, o])
            .filter(c, 2, PredOp::Cmp(CmpOp::Eq, Value::Int(0)))
            .filter(o, 2, PredOp::Cmp(CmpOp::Eq, Value::Int(0)));
        let est = estimate_count(&ens, &db, &q2).unwrap();
        assert_close(est.value, 1.0, 1.3, "Q2 case 3");

        // Join count without predicates = 4 orders.
        let q = Query::count(vec![c, o]);
        let est = estimate_count(&ens, &db, &q).unwrap();
        assert_close(est.value, 4.0, 1.2, "join count case 3");
    }

    #[test]
    fn paper_q3_avg_with_factor_normalization() {
        let db = paper_customer_order();
        let mut p = params(40_000);
        p.rdc_threshold = 0.0;
        let ens = EnsembleBuilder::new(&db).params(p).build().unwrap();
        let c = db.table_id("customer").unwrap();
        // AVG(c_age | EU) over the *customer* table must be 35, not the
        // join-weighted 20·2+50 / 3 — the tuple-factor normalization of §4.2.
        let q3 = Query::count(vec![c])
            .filter(c, 2, PredOp::Cmp(CmpOp::Eq, Value::Int(0)))
            .aggregate(Aggregate::Avg(ColumnRef {
                table: c,
                column: 1,
            }));
        let est = estimate_avg(&ens, &db, &q3).unwrap();
        assert!((est.value - 35.0).abs() < 2.5, "AVG = {}", est.value);
    }

    #[test]
    fn statistical_accuracy_against_executor() {
        let db = correlated_customer_order(2500, 11);
        let ens = EnsembleBuilder::new(&db)
            .params(params(30_000))
            .build()
            .unwrap();
        let c = db.table_id("customer").unwrap();
        let o = db.table_id("orders").unwrap();

        let queries = [
            Query::count(vec![c]).filter(c, 1, PredOp::Cmp(CmpOp::Ge, Value::Int(50))),
            Query::count(vec![c, o]).filter(o, 2, PredOp::Cmp(CmpOp::Eq, Value::Int(0))),
            Query::count(vec![c, o])
                .filter(c, 2, PredOp::Cmp(CmpOp::Eq, Value::Int(0)))
                .filter(o, 2, PredOp::Cmp(CmpOp::Eq, Value::Int(1))),
            Query::count(vec![c, o])
                .filter(c, 1, PredOp::Between(Value::Int(30), Value::Int(60)))
                .filter(o, 3, PredOp::Cmp(CmpOp::Gt, Value::Float(250.0))),
        ];
        for (i, q) in queries.iter().enumerate() {
            let truth = execute(&db, q).unwrap().scalar().count as f64;
            let est = estimate_cardinality(&ens, &db, q).unwrap();
            assert_close(est, truth.max(1.0), 1.35, &format!("workload query {i}"));
        }
    }

    #[test]
    fn sum_estimate_matches_executor() {
        let db = correlated_customer_order(2000, 13);
        let ens = EnsembleBuilder::new(&db)
            .params(params(30_000))
            .build()
            .unwrap();
        let c = db.table_id("customer").unwrap();
        let o = db.table_id("orders").unwrap();
        let q = Query::count(vec![c, o])
            .filter(c, 2, PredOp::Cmp(CmpOp::Eq, Value::Int(1)))
            .aggregate(Aggregate::Sum(ColumnRef {
                table: o,
                column: 3,
            }));
        let truth = execute(&db, &q).unwrap().scalar().sum;
        let est = estimate_sum(&ens, &db, &q).unwrap();
        let rel = (est.value - truth).abs() / truth.abs().max(1.0);
        assert!(rel < 0.35, "SUM rel error {rel}: {} vs {truth}", est.value);
    }

    #[test]
    fn count_estimate_carries_confidence_interval() {
        let db = correlated_customer_order(2000, 17);
        let ens = EnsembleBuilder::new(&db)
            .params(params(20_000))
            .build()
            .unwrap();
        let c = db.table_id("customer").unwrap();
        let q = Query::count(vec![c]).filter(c, 1, PredOp::Cmp(CmpOp::Lt, Value::Int(40)));
        let truth = execute(&db, &q).unwrap().scalar().count as f64;
        let est = estimate_count(&ens, &db, &q).unwrap();
        let (lo, hi) = est.confidence_interval(0.95);
        assert!(lo <= est.value && est.value <= hi);
        assert!(
            lo <= truth && truth <= hi * 1.1,
            "CI [{lo}, {hi}] should bracket {truth}"
        );
    }

    #[test]
    fn disjunction_via_inclusion_exclusion() {
        let db = correlated_customer_order(2500, 19);
        let ens = EnsembleBuilder::new(&db)
            .params(params(25_000))
            .build()
            .unwrap();
        let c = db.table_id("customer").unwrap();
        // region = EUROPE ∨ age < 30 (overlapping disjuncts).
        let base = Query::count(vec![c]);
        let d1 = vec![Predicate::new(c, 2, PredOp::Cmp(CmpOp::Eq, Value::Int(0)))];
        let d2 = vec![Predicate::new(c, 1, PredOp::Cmp(CmpOp::Lt, Value::Int(30)))];
        let est =
            crate::compile::estimate_count_disjunction(&ens, &db, &base, &[d1.clone(), d2.clone()])
                .unwrap();
        // Exact truth via inclusion-exclusion over exact conjunctive counts.
        let count = |preds: Vec<Predicate>| {
            let mut q = Query::count(vec![c]);
            q.predicates = preds;
            execute(&db, &q).unwrap().scalar().count as f64
        };
        let truth =
            count(d1.clone()) + count(d2.clone()) - count(d1.iter().chain(&d2).cloned().collect());
        let rel = (est.value - truth).abs() / truth;
        assert!(rel < 0.1, "disjunction estimate {} vs {truth}", est.value);
        // Union is at least as large as each disjunct alone.
        let single = estimate_count(&ens, &db, &{
            let mut q = Query::count(vec![c]);
            q.predicates = d1;
            q
        })
        .unwrap();
        assert!(est.value >= single.value * 0.95);
    }

    #[test]
    fn empty_disjunct_list_falls_back_to_conjunction() {
        let db = paper_customer_order();
        let mut p = params(5_000);
        p.rdc_threshold = 0.0;
        let ens = EnsembleBuilder::new(&db).params(p).build().unwrap();
        let c = db.table_id("customer").unwrap();
        let q = Query::count(vec![c]);
        let a = estimate_count(&ens, &db, &q).unwrap();
        let b = crate::compile::estimate_count_disjunction(&ens, &db, &q, &[]).unwrap();
        assert_eq!(a.value, b.value);
    }

    #[test]
    fn impossible_predicates_estimate_near_zero() {
        let db = paper_customer_order();
        let mut p = params(5_000);
        p.rdc_threshold = 0.0;
        let ens = EnsembleBuilder::new(&db).params(p).build().unwrap();
        let c = db.table_id("customer").unwrap();
        let q = Query::count(vec![c]).filter(c, 1, PredOp::Cmp(CmpOp::Gt, Value::Int(1000)));
        let est = estimate_count(&ens, &db, &q).unwrap();
        assert!(est.value < 0.1, "impossible predicate gave {}", est.value);
    }

    /// Member selection is deterministically tie-broken: with no predicates
    /// every candidate scores 0.0, and the lowest index must win — the same
    /// rule as compiled-MPE tie-breaking, so plan construction is
    /// reproducible across runs.
    #[test]
    fn best_rspn_with_breaks_ties_to_lowest_index() {
        let db = paper_customer_order();
        let mut p = params(4_000);
        p.strategy = EnsembleStrategy::SingleTables;
        let ens = EnsembleBuilder::new(&db).params(p).build().unwrap();
        assert!(ens.rspns().len() >= 2);
        // All members accepted, all scores tied at 0.0 → member 0.
        assert_eq!(best_rspn_with(&ens, &[], |_| true), Some(0));
        // A predicate only the orders member can handle breaks the tie.
        let o = db.table_id("orders").unwrap();
        let o_pred = vec![Predicate::new(
            o,
            2,
            deepdb_storage::PredOp::Cmp(CmpOp::Eq, Value::Int(0)),
        )];
        let orders_member = ens.rspns().iter().position(|r| r.tables() == [o]).unwrap();
        assert_eq!(best_rspn_with(&ens, &o_pred, |_| true), Some(orders_member));
    }

    /// Covering-member selection ties (same score, same size) also break to
    /// the lowest index.
    #[test]
    fn best_covering_rspn_is_deterministic() {
        let db = paper_customer_order();
        let mut p = params(4_000);
        p.strategy = EnsembleStrategy::SingleTables;
        let ens = EnsembleBuilder::new(&db).params(p).build().unwrap();
        let c = db.table_id("customer").unwrap();
        let qtables = BTreeSet::from([c]);
        let picked = best_covering_rspn(&ens, &qtables, &[]);
        assert!(picked.is_some());
        for _ in 0..3 {
            assert_eq!(best_covering_rspn(&ens, &qtables, &[]), picked);
        }
    }
}
