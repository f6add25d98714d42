//! Symbolic join-combination planning for Case 3 (paper §4.1.2).
//!
//! When no single RSPN covers a query's tables, the count factorizes into a
//! product of per-edge terms: a Theorem-1 count on the start member, then —
//! per FK extension step — either a Theorem-2 conditional ratio (an RSPN
//! spans both sides of the edge) or explicit fan-out × selectivity terms
//! built from raw tuple-factor columns. Every *decision* in that
//! factorization (start member, edge order, spanning/fan-out/upward RSPN
//! choice) depends only on the schema graph, the ensemble's table coverage,
//! and the predicate *columns* — never on intermediate estimates. So the
//! whole combination can be planned once, symbolically:
//!
//! 1. **plan** — [`CombinePlan::build`] walks the FK graph exactly as the
//!    eager loop used to, but instead of evaluating each step it records a
//!    tree of [`PlanNode`]s whose leaves hold pre-translated base
//!    [`SpnQuery`] bundles (count fractions and factor-weighted ratios);
//! 2. **register** — [`CombinePlan::register`] appends a group's value
//!    predicates to the bundles whose tables they are on (GROUP BY reuses one
//!    plan for every group), and enqueues *all* bundles of *all* steps on the
//!    **caller's** [`ProbePlan`], returning a symbolic [`CombineExpr`] of
//!    `Scale`/`Product`/`Divide` nodes over the registered handles. A step's
//!    factor depends only on the group columns of its own tables, so on a
//!    sharing plan (the GROUP BY fan-outs) a bundle that accepts none of a
//!    group's predicates is registered as it is — no clone — and lands in
//!    the slot every other group's copy uses, and one that accepts some
//!    takes one slot per distinct tuple of the values it accepts;
//! 3. **resolve** — after the caller's single fused sweep per touched
//!    member, [`CombineExpr::resolve`] folds the probe results through the
//!    §5.1 variance algebra. Theorem-2 ratios with a degenerate (empty
//!    overlap) denominator resolve to a clean
//!    [`DeepDbError::NotAnswerable`] instead of propagating NaN/∞.
//!
//! The old eager per-step loop survives **only** as the differential-test
//! oracle [`multi_rspn_count`] (mirroring how the recursive SPN evaluator
//! survives as the oracle for the compiled arena): no production call path
//! reaches it, and `crates/core/tests/combine_plan.rs` proptest-enforces
//! that planned resolution is bitwise identical to it.

use std::collections::BTreeSet;

use deepdb_spn::{LeafFunc, SpnQuery};
use deepdb_storage::{Database, ForeignKey, Predicate, TableId};

use crate::compile::{
    best_rspn_with, extend_probe, register_fraction, DeferredFraction, FractionBundle,
};
use crate::ensemble::Ensemble;
use crate::estimate::Estimate;
use crate::plan::{ProbeHandle, ProbePlan, ProbeResults};
use crate::rspn::count_fraction_query;
use crate::DeepDbError;

/// Registered factor-weighted-ratio handles (the disjoint-RSPN Case-3
/// terms): `E[F_fk·…]/E[…]` fan-out, or the weighted selectivity of the
/// paper's alternative Q2 formula. Numerator, denominator, and second
/// moment ride the caller's fused sweep.
pub(crate) struct DeferredFactorRatio {
    n: u64,
    /// Weighted selectivity (`true`) vs. expected fan-out (`false`).
    weighted: bool,
    num: ProbeHandle,
    den: ProbeHandle,
    sq: ProbeHandle,
}

impl DeferredFactorRatio {
    fn resolve(&self, r: &ProbeResults) -> Estimate {
        let (num, den, e2_raw) = (r[self.num], r[self.den], r[self.sq]);
        if den <= 0.0 {
            return Estimate::exact(0.0);
        }
        let ratio = num / den;
        let n_eff = (self.n as f64 * den.min(1.0)).max(1.0);
        if self.weighted {
            // Weighted fraction in [0,1]: binomial-style variance.
            let p = ratio.clamp(0.0, 1.0);
            Estimate {
                value: ratio,
                variance: p * (1.0 - p) / n_eff,
            }
        } else {
            // Expected fan-out: Koenig–Huygens on the weighted measure.
            let e2 = e2_raw / den;
            Estimate::conditional_expectation(ratio, e2.max(ratio * ratio), n_eff)
        }
    }
}

/// Symbolic combination expression over probes already registered on the
/// caller's [`ProbePlan`]. Shapes mirror the eager oracle's fold order
/// exactly, so resolution is bitwise identical to it.
pub(crate) enum CombineExpr {
    /// A Theorem-1 count-fraction bundle on one member.
    Fraction(DeferredFraction),
    /// A raw tuple-factor ratio (fan-out or weighted selectivity).
    FactorRatio(DeferredFactorRatio),
    /// Multiply by an exact constant (the start member's `|J|`).
    Scale(f64, Box<CombineExpr>),
    Product(Box<CombineExpr>, Box<CombineExpr>),
    /// Theorem-2 conditional ratio; degenerate denominators are rejected.
    Divide(Box<CombineExpr>, Box<CombineExpr>),
}

impl CombineExpr {
    pub(crate) fn resolve(&self, r: &ProbeResults) -> Result<Estimate, DeepDbError> {
        Ok(match self {
            CombineExpr::Fraction(f) => f.resolve(r),
            CombineExpr::FactorRatio(f) => f.resolve(r),
            CombineExpr::Scale(c, e) => e.resolve(r)?.scale(*c),
            CombineExpr::Product(a, b) => a.resolve(r)?.product(b.resolve(r)?),
            CombineExpr::Divide(num, den) => theorem2_ratio(num.resolve(r)?, den.resolve(r)?)?,
        })
    }
}

/// Theorem-2 conditional ratio with the degenerate-denominator guard.
///
/// An empty numerator over an empty denominator is a genuinely empty
/// extension — the predicates admit no mass on the overlap, so the step
/// contributes an exact zero factor (this mirrors what [`Estimate::divide`]
/// always produced, bit for bit). A **non-zero** numerator over a zero, NaN,
/// or infinite denominator cannot be normalized into a conditional
/// probability; that is the case that used to leak 0/NaN/∞ garbage into the
/// product chain and now surfaces a clean
/// [`DeepDbError::NotAnswerable`] instead.
fn theorem2_ratio(num: Estimate, den: Estimate) -> Result<Estimate, DeepDbError> {
    if num.value == 0.0 && den.value.abs() < f64::EPSILON {
        return Ok(num.divide(den));
    }
    num.try_divide(den).ok_or_else(|| {
        DeepDbError::NotAnswerable(
            "Theorem-2 ratio denominator has no support (empty overlap under the given \
             predicates)"
                .into(),
        )
    })
}

/// Pre-translated base queries of one factor-weighted ratio on a fixed
/// member (see the eager `factor_weighted_ratio` for the formulas).
struct FactorRatioBundle {
    idx: usize,
    n: u64,
    weighted: bool,
    num: SpnQuery,
    den: SpnQuery,
    sq: SpnQuery,
    /// Group predicates on these tables go to num, den, AND sq (the shared
    /// base-set predicates of the ratio).
    accept_all: BTreeSet<TableId>,
    /// Group predicates on these tables go to num and sq only (the
    /// weighted-selectivity extra numerator predicates).
    accept_num: BTreeSet<TableId>,
}

impl FactorRatioBundle {
    fn build(
        ens: &Ensemble,
        idx: usize,
        set: &BTreeSet<TableId>,
        preds: &[Predicate],
        fk: &ForeignKey,
        extra_num_preds: Option<&[Predicate]>,
    ) -> Result<Self, DeepDbError> {
        // Group-value predicates follow the same routing as the shared
        // predicates of each form: the fan-out's base-set predicates go to
        // all three probes, the weighted selectivity's new-side predicates
        // to numerator and second moment only.
        let (accept_all, accept_num) = if extra_num_preds.is_none() {
            (set.clone(), BTreeSet::new())
        } else {
            (BTreeSet::new(), set.clone())
        };
        let rspn = &ens.rspns()[idx];
        let factor_col = rspn
            .factor_column(fk)
            .ok_or_else(|| DeepDbError::NotAnswerable("missing factor column".into()))?;

        let (mut num_q, _) = count_fraction_query(rspn, set, preds, false)?;
        num_q.set_func(factor_col, LeafFunc::X);
        if let Some(extra) = extra_num_preds {
            for p in extra {
                rspn.add_predicate(&mut num_q, p)?;
            }
        }
        let (mut den_q, _) = count_fraction_query(rspn, set, preds, false)?;
        if extra_num_preds.is_some() {
            // Weighted selectivity: denominator keeps the factor weight.
            den_q.set_func(factor_col, LeafFunc::X);
        }
        // Second moment of the weighted quantity for the variance.
        let (mut sq_q, _) = count_fraction_query(rspn, set, preds, true)?;
        sq_q.set_func(factor_col, LeafFunc::X2);
        if let Some(extra) = extra_num_preds {
            for p in extra {
                rspn.add_predicate(&mut sq_q, p)?;
            }
        }
        Ok(FactorRatioBundle {
            idx,
            n: rspn.n_training(),
            weighted: extra_num_preds.is_some(),
            num: num_q,
            den: den_q,
            sq: sq_q,
            accept_all,
            accept_num,
        })
    }

    fn register(
        &self,
        plan: &mut ProbePlan,
        ens: &Ensemble,
        group_preds: &[Predicate],
    ) -> Result<DeferredFactorRatio, DeepDbError> {
        let rspn = &ens.rspns()[self.idx];
        let mut register = |base: &SpnQuery, with_num: bool| -> Result<ProbeHandle, DeepDbError> {
            let accept =
                |t| self.accept_all.contains(&t) || (with_num && self.accept_num.contains(&t));
            let q = extend_probe(rspn, base, group_preds, accept)?;
            Ok(plan.register_probe(self.idx, q))
        };
        Ok(DeferredFactorRatio {
            n: self.n,
            weighted: self.weighted,
            num: register(&self.num, true)?,
            den: register(&self.den, false)?,
            sq: register(&self.sq, true)?,
        })
    }
}

/// Symbolic template tree over pre-translated bundles; [`CombinePlan`]
/// holds the root and `register` maps it into a [`CombineExpr`] with live
/// handles.
enum PlanNode {
    Fraction(FractionBundle),
    FactorRatio(FactorRatioBundle),
    Scale(f64, Box<PlanNode>),
    Product(Box<PlanNode>, Box<PlanNode>),
    Divide(Box<PlanNode>, Box<PlanNode>),
}

impl PlanNode {
    fn register(
        &self,
        plan: &mut ProbePlan,
        ens: &Ensemble,
        group_preds: &[Predicate],
    ) -> Result<CombineExpr, DeepDbError> {
        Ok(match self {
            PlanNode::Fraction(b) => CombineExpr::Fraction(b.register(plan, ens, group_preds)?),
            PlanNode::FactorRatio(b) => {
                CombineExpr::FactorRatio(b.register(plan, ens, group_preds)?)
            }
            PlanNode::Scale(c, e) => {
                CombineExpr::Scale(*c, Box::new(e.register(plan, ens, group_preds)?))
            }
            PlanNode::Product(a, b) => CombineExpr::Product(
                Box::new(a.register(plan, ens, group_preds)?),
                Box::new(b.register(plan, ens, group_preds)?),
            ),
            PlanNode::Divide(a, b) => CombineExpr::Divide(
                Box::new(a.register(plan, ens, group_preds)?),
                Box::new(b.register(plan, ens, group_preds)?),
            ),
        })
    }

    #[cfg_attr(not(test), allow(dead_code))]
    fn members(&self, out: &mut BTreeSet<usize>) {
        match self {
            PlanNode::Fraction(b) => {
                out.insert(b.idx);
            }
            PlanNode::FactorRatio(b) => {
                out.insert(b.idx);
            }
            PlanNode::Scale(_, e) => e.members(out),
            PlanNode::Product(a, b) | PlanNode::Divide(a, b) => {
                a.members(out);
                b.members(out);
            }
        }
    }
}

/// A planned Case-3 combination: built once per query (the decisions are
/// value-independent), registered once per GROUP BY group — on a sharing
/// plan each step's probes take one slot per distinct value tuple of the
/// step's own group columns.
pub(crate) struct CombinePlan {
    root: PlanNode,
    start_member: usize,
}

impl CombinePlan {
    /// Walk the FK graph once and plan the full combination.
    ///
    /// `shared_preds` are translated into the base queries; `selector_preds`
    /// drive member scoring and may additionally contain representative
    /// GROUP BY predicates (scores depend only on predicate columns, so the
    /// representative value is irrelevant — this is what makes one plan
    /// valid for every group).
    pub(crate) fn build(
        ens: &Ensemble,
        db: &Database,
        qtables: &BTreeSet<TableId>,
        shared_preds: &[Predicate],
        selector_preds: &[Predicate],
    ) -> Result<Self, DeepDbError> {
        // Start with the RSPN overlapping the query that scores best
        // (deterministic: strictly-better score wins, lowest member index
        // breaks ties — the MPE lowest-child-wins rule).
        let mut start: Option<(f64, usize)> = None;
        for (i, rspn) in ens.rspns().iter().enumerate() {
            let overlap = rspn.tables().iter().filter(|t| qtables.contains(t)).count();
            if overlap == 0 {
                continue;
            }
            let handled: Vec<Predicate> = selector_preds
                .iter()
                .filter(|p| rspn.tables().contains(&p.table))
                .cloned()
                .collect();
            let score = rspn.strategy_score(&handled) + overlap as f64;
            if start.is_none_or(|(s, _)| score > s) {
                start = Some((score, i));
            }
        }
        let (_, start_idx) = start.ok_or_else(|| {
            DeepDbError::NotAnswerable("no RSPN overlaps the query tables".into())
        })?;

        let mut covered: BTreeSet<TableId> = ens.rspns()[start_idx]
            .tables()
            .iter()
            .filter(|t| qtables.contains(t))
            .copied()
            .collect();
        let covered_preds = filter_preds(shared_preds, &covered);
        let mut root = PlanNode::Scale(
            ens.rspns()[start_idx].full_join_count() as f64,
            Box::new(PlanNode::Fraction(FractionBundle::build(
                ens,
                start_idx,
                &covered,
                &covered_preds,
                Some(covered.clone()),
            )?)),
        );

        let mut guard = 0;
        while covered != *qtables {
            guard += 1;
            if guard > qtables.len() + 2 {
                return Err(DeepDbError::NotAnswerable(format!(
                    "could not extend coverage beyond {covered:?} for query {qtables:?}"
                )));
            }
            // Find an FK edge from a covered table to an uncovered query
            // table (BTreeSet iteration makes the edge order deterministic).
            let Some((u, v, fk)) = qtables.iter().find_map(|&v| {
                if covered.contains(&v) {
                    return None;
                }
                covered
                    .iter()
                    .find_map(|&u| db.edge_between(u, v).map(|fk| (u, v, *fk)))
            }) else {
                return Err(DeepDbError::NotAnswerable(format!(
                    "query tables {qtables:?} not FK-connected through {covered:?}"
                )));
            };

            // Prefer an RSPN spanning both sides of the edge (Theorem 2 with
            // a non-empty overlap).
            let spanning = best_rspn_with(ens, selector_preds, |r| {
                r.tables().contains(&u) && r.tables().contains(&v)
            });
            if let Some(b) = spanning {
                let b_tables: BTreeSet<TableId> = ens.rspns()[b].tables().iter().copied().collect();
                let overlap: BTreeSet<TableId> = covered.intersection(&b_tables).copied().collect();
                let mut extended = overlap.clone();
                // Absorb every uncovered query table the RSPN can reach.
                for t in b_tables.iter() {
                    if qtables.contains(t) {
                        extended.insert(*t);
                    }
                }
                let num = FractionBundle::build(
                    ens,
                    b,
                    &extended,
                    &filter_preds(shared_preds, &extended),
                    Some(extended.clone()),
                )?;
                let den = FractionBundle::build(
                    ens,
                    b,
                    &overlap,
                    &filter_preds(shared_preds, &overlap),
                    Some(overlap.clone()),
                )?;
                root = PlanNode::Product(
                    Box::new(root),
                    Box::new(PlanNode::Divide(
                        Box::new(PlanNode::Fraction(num)),
                        Box::new(PlanNode::Fraction(den)),
                    )),
                );
                covered.extend(extended);
                continue;
            }

            // Disjoint RSPNs: fan-out from the covered side times
            // conditional selectivity on the new side (the paper's Q2
            // factorization).
            if fk.parent_table == u {
                // Downward: E(F(Q_cov)·F_{u←v}) / E(F(Q_cov)) from an RSPN
                // with the raw factor column, then P(preds_v) from an RSPN
                // over v.
                let a = best_rspn_with(ens, selector_preds, |r| {
                    r.tables().contains(&u) && r.has_factor(&fk)
                })
                .ok_or_else(|| {
                    DeepDbError::NotAnswerable(format!(
                        "no RSPN stores tuple factor for edge {u}->{v}"
                    ))
                })?;
                let cov_a: BTreeSet<TableId> = ens.rspns()[a]
                    .tables()
                    .iter()
                    .filter(|t| covered.contains(t))
                    .copied()
                    .collect();
                let fanout = FactorRatioBundle::build(
                    ens,
                    a,
                    &cov_a,
                    &filter_preds(shared_preds, &cov_a),
                    &fk,
                    None,
                )?;

                let b = best_rspn_with(ens, selector_preds, |r| r.tables().contains(&v))
                    .ok_or_else(|| {
                        DeepDbError::NotAnswerable(format!("no RSPN models table {v}"))
                    })?;
                let v_set = BTreeSet::from([v]);
                let v_preds: Vec<Predicate> = shared_preds
                    .iter()
                    .filter(|p| p.table == v)
                    .cloned()
                    .collect();
                let num = FractionBundle::build(ens, b, &v_set, &v_preds, Some(v_set.clone()))?;
                let den = FractionBundle::build(ens, b, &v_set, &[], Some(BTreeSet::new()))?;
                root = PlanNode::Product(
                    Box::new(PlanNode::Product(
                        Box::new(root),
                        Box::new(PlanNode::FactorRatio(fanout)),
                    )),
                    Box::new(PlanNode::Divide(
                        Box::new(PlanNode::Fraction(num)),
                        Box::new(PlanNode::Fraction(den)),
                    )),
                );
            } else {
                // Upward to the parent v: no row multiplication; weight v's
                // rows by their child counts (the paper's alternative
                // formula): E(1_{preds_v} · F_{v←u}) / E(F_{v←u}).
                let a = best_rspn_with(ens, selector_preds, |r| {
                    r.tables().contains(&v) && r.has_factor(&fk)
                })
                .ok_or_else(|| {
                    DeepDbError::NotAnswerable(format!(
                        "no RSPN stores tuple factor for edge {v}<-{u}"
                    ))
                })?;
                let v_set = BTreeSet::from([v]);
                let v_preds: Vec<Predicate> = shared_preds
                    .iter()
                    .filter(|p| p.table == v)
                    .cloned()
                    .collect();
                let ratio = FactorRatioBundle::build(ens, a, &v_set, &[], &fk, Some(&v_preds))?;
                root = PlanNode::Product(Box::new(root), Box::new(PlanNode::FactorRatio(ratio)));
            }
            covered.insert(v);
        }
        Ok(CombinePlan {
            root,
            start_member: start_idx,
        })
    }

    /// Register every bundle of every step on the caller's plan, appending
    /// this group's value predicates to the steps that absorb them (a step
    /// that absorbs none registers its bases as they are), and return the
    /// symbolic expression over the live handles.
    pub(crate) fn register(
        &self,
        plan: &mut ProbePlan,
        ens: &Ensemble,
        group_preds: &[Predicate],
    ) -> Result<CombineExpr, DeepDbError> {
        self.root.register(plan, ens, group_preds)
    }

    /// Start member chosen by the planner (diagnostics / tie-break tests).
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn start_member(&self) -> usize {
        self.start_member
    }

    /// Distinct ensemble members the planned combination touches.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn members(&self) -> BTreeSet<usize> {
        let mut out = BTreeSet::new();
        self.root.members(&mut out);
        out
    }
}

fn filter_preds(preds: &[Predicate], set: &BTreeSet<TableId>) -> Vec<Predicate> {
    preds
        .iter()
        .filter(|p| set.contains(&p.table))
        .cloned()
        .collect()
}

// ---------------------------------------------------------------------------
// Eager oracle — retired from production, retained for differential tests.
// ---------------------------------------------------------------------------

/// `E[1/F'(Q,J) · 1_C · ∏N_T]` with variance, evaluated immediately on
/// member `idx` (registration + one single-member sweep).
fn count_fraction(
    ens: &Ensemble,
    idx: usize,
    qtables: &BTreeSet<TableId>,
    preds: &[Predicate],
) -> Result<Estimate, DeepDbError> {
    let mut plan = ProbePlan::new();
    let deferred = register_fraction(&mut plan, ens, idx, qtables, preds)?;
    let results = plan.execute(ens);
    Ok(deferred.resolve(&results))
}

/// Theorem-1 estimate on one RSPN: `|J| · E[1/F' · 1_C · ∏N_T]`.
fn single_rspn_count(
    ens: &Ensemble,
    idx: usize,
    qtables: &BTreeSet<TableId>,
    preds: &[Predicate],
) -> Result<Estimate, DeepDbError> {
    let fraction = count_fraction(ens, idx, qtables, preds)?;
    let j = ens.rspns()[idx].full_join_count() as f64;
    Ok(fraction.scale(j))
}

/// **Differential-test oracle** — the retired eager Case-3 loop: extend a
/// covered table set across FK edges, evaluating each step immediately
/// (one throwaway probe plan and one sweep per step per member).
///
/// No production call path reaches this function: `estimate_count`, AQP
/// GROUP BY, SUM, and inclusion–exclusion all go through [`CombinePlan`],
/// which registers every step's bundles on one fused plan. It is kept
/// `pub` solely so `crates/core/tests/combine_plan.rs` can assert the
/// planned path resolves **bitwise** identically to step-by-step eager
/// evaluation (decision logic included: both implementations must pick the
/// same members and edges or values diverge).
pub fn multi_rspn_count(
    ens: &Ensemble,
    db: &Database,
    qtables: &BTreeSet<TableId>,
    preds: &[Predicate],
) -> Result<Estimate, DeepDbError> {
    // Start with the RSPN overlapping the query that scores best (lowest
    // index wins ties, matching the planner).
    let mut start: Option<(f64, usize)> = None;
    for (i, rspn) in ens.rspns().iter().enumerate() {
        let overlap = rspn.tables().iter().filter(|t| qtables.contains(t)).count();
        if overlap == 0 {
            continue;
        }
        let handled: Vec<Predicate> = preds
            .iter()
            .filter(|p| rspn.tables().contains(&p.table))
            .cloned()
            .collect();
        let score = rspn.strategy_score(&handled) + overlap as f64;
        if start.is_none_or(|(s, _)| score > s) {
            start = Some((score, i));
        }
    }
    let (_, start_idx) = start
        .ok_or_else(|| DeepDbError::NotAnswerable("no RSPN overlaps the query tables".into()))?;

    let mut covered: BTreeSet<TableId> = ens.rspns()[start_idx]
        .tables()
        .iter()
        .filter(|t| qtables.contains(t))
        .copied()
        .collect();
    let covered_preds: Vec<Predicate> = preds
        .iter()
        .filter(|p| covered.contains(&p.table))
        .cloned()
        .collect();
    let mut est = single_rspn_count(ens, start_idx, &covered.clone(), &covered_preds)?;

    let mut guard = 0;
    while covered != *qtables {
        guard += 1;
        if guard > qtables.len() + 2 {
            return Err(DeepDbError::NotAnswerable(format!(
                "could not extend coverage beyond {covered:?} for query {qtables:?}"
            )));
        }
        // Find an FK edge from a covered table to an uncovered query table.
        let Some((u, v, fk)) = qtables.iter().find_map(|&v| {
            if covered.contains(&v) {
                return None;
            }
            covered
                .iter()
                .find_map(|&u| db.edge_between(u, v).map(|fk| (u, v, *fk)))
        }) else {
            return Err(DeepDbError::NotAnswerable(format!(
                "query tables {qtables:?} not FK-connected through {covered:?}"
            )));
        };

        // Prefer an RSPN spanning both sides of the edge (Theorem 2 with a
        // non-empty overlap).
        let spanning = best_rspn_with(ens, preds, |r| {
            r.tables().contains(&u) && r.tables().contains(&v)
        });
        if let Some(b) = spanning {
            let b_tables: BTreeSet<TableId> = ens.rspns()[b].tables().iter().copied().collect();
            let overlap: BTreeSet<TableId> = covered.intersection(&b_tables).copied().collect();
            let mut extended = overlap.clone();
            // Absorb every uncovered query table the RSPN can reach.
            for t in b_tables.iter() {
                if qtables.contains(t) {
                    extended.insert(*t);
                }
            }
            let num_preds: Vec<Predicate> = preds
                .iter()
                .filter(|p| extended.contains(&p.table))
                .cloned()
                .collect();
            let den_preds: Vec<Predicate> = preds
                .iter()
                .filter(|p| overlap.contains(&p.table))
                .cloned()
                .collect();
            // Both fractions of the Theorem-2 ratio in one fused sweep.
            let mut plan = ProbePlan::new();
            let num = register_fraction(&mut plan, ens, b, &extended, &num_preds)?;
            let den = register_fraction(&mut plan, ens, b, &overlap, &den_preds)?;
            let results = plan.execute(ens);
            let ratio = theorem2_ratio(num.resolve(&results), den.resolve(&results))?;
            est = est.product(ratio);
            covered.extend(extended);
            continue;
        }

        // Disjoint RSPNs: fan-out from the covered side times conditional
        // selectivity on the new side (the paper's Q2 factorization).
        if fk.parent_table == u {
            // Downward: E(F(Q_cov)·F_{u←v}) / E(F(Q_cov)) from an RSPN with
            // the raw factor column, then P(preds_v) from an RSPN over v.
            let a = best_rspn_with(ens, preds, |r| r.tables().contains(&u) && r.has_factor(&fk))
                .ok_or_else(|| {
                    DeepDbError::NotAnswerable(format!(
                        "no RSPN stores tuple factor for edge {u}->{v}"
                    ))
                })?;
            let cov_a: BTreeSet<TableId> = ens.rspns()[a]
                .tables()
                .iter()
                .filter(|t| covered.contains(t))
                .copied()
                .collect();
            let a_preds: Vec<Predicate> = preds
                .iter()
                .filter(|p| cov_a.contains(&p.table))
                .cloned()
                .collect();
            let fanout = factor_weighted_ratio(ens, a, &cov_a, &a_preds, &fk, None)?;

            let b = best_rspn_with(ens, preds, |r| r.tables().contains(&v))
                .ok_or_else(|| DeepDbError::NotAnswerable(format!("no RSPN models table {v}")))?;
            let v_set = BTreeSet::from([v]);
            let v_preds: Vec<Predicate> = preds.iter().filter(|p| p.table == v).cloned().collect();
            // Selectivity numerator and denominator fused on member b.
            let mut plan = ProbePlan::new();
            let num = register_fraction(&mut plan, ens, b, &v_set, &v_preds)?;
            let den = register_fraction(&mut plan, ens, b, &v_set, &[])?;
            let results = plan.execute(ens);
            let sel = theorem2_ratio(num.resolve(&results), den.resolve(&results))?;
            est = est.product(fanout).product(sel);
        } else {
            // Upward to the parent v: no row multiplication; weight v's rows
            // by their child counts (the paper's alternative formula):
            // E(1_{preds_v} · F_{v←u}) / E(F_{v←u}).
            let a = best_rspn_with(ens, preds, |r| r.tables().contains(&v) && r.has_factor(&fk))
                .ok_or_else(|| {
                    DeepDbError::NotAnswerable(format!(
                        "no RSPN stores tuple factor for edge {v}<-{u}"
                    ))
                })?;
            let v_set = BTreeSet::from([v]);
            let v_preds: Vec<Predicate> = preds.iter().filter(|p| p.table == v).cloned().collect();
            let ratio = factor_weighted_ratio(ens, a, &v_set, &[], &fk, Some(&v_preds))?;
            est = est.product(ratio);
        }
        covered.insert(v);
    }
    Ok(est)
}

/// Raw tuple-factor ratios for the disjoint-RSPN extensions of Case 3
/// (eager-oracle form; the planned path resolves the identical arithmetic
/// through [`DeferredFactorRatio`]).
///
/// * Fan-out (`extra_num_preds = None`): `E[F(set)·F_fk·1_C] / E[F(set)·1_C]`
///   — the expected number of new-side partners per covered row.
/// * Weighted selectivity (`extra_num_preds = Some(vp)`):
///   `E[F_fk·1_{vp}·F(set)·1_C] / E[F_fk·F(set)·1_C]` — the fraction of
///   child rows whose parent satisfies `vp` (the paper's alternative Q2
///   formula).
fn factor_weighted_ratio(
    ens: &Ensemble,
    idx: usize,
    set: &BTreeSet<TableId>,
    preds: &[Predicate],
    fk: &ForeignKey,
    extra_num_preds: Option<&[Predicate]>,
) -> Result<Estimate, DeepDbError> {
    let bundle = FactorRatioBundle::build(ens, idx, set, preds, fk, extra_num_preds)?;
    let mut plan = ProbePlan::new();
    let deferred = bundle.register(&mut plan, ens, &[])?;
    let results = plan.execute(ens);
    Ok(deferred.resolve(&results))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ensemble::{EnsembleBuilder, EnsembleParams, EnsembleStrategy};
    use deepdb_storage::fixtures::paper_customer_order;
    use deepdb_storage::{CmpOp, PredOp, Value};

    fn singles_ensemble() -> (Database, Ensemble) {
        let db = paper_customer_order();
        let params = EnsembleParams {
            strategy: EnsembleStrategy::SingleTables,
            sample_size: 4_000,
            correlation_sample: 500,
            ..EnsembleParams::default()
        };
        let ens = EnsembleBuilder::new(&db).params(params).build().unwrap();
        (db, ens)
    }

    /// Start-member scoring ties (no predicates, equal overlap) break to the
    /// lowest member index — plan construction is reproducible across runs.
    #[test]
    fn start_member_ties_break_to_lowest_index() {
        let (db, ens) = singles_ensemble();
        let c = db.table_id("customer").unwrap();
        let o = db.table_id("orders").unwrap();
        let qtables = BTreeSet::from([c, o]);
        let plan = CombinePlan::build(&ens, &db, &qtables, &[], &[]).unwrap();
        // Both single-table members overlap by exactly 1 and score 0.0 on an
        // empty predicate set; the planner must pick member 0.
        assert_eq!(plan.start_member(), 0);
        // And keep picking it on every rebuild.
        for _ in 0..3 {
            let again = CombinePlan::build(&ens, &db, &qtables, &[], &[]).unwrap();
            assert_eq!(again.start_member(), plan.start_member());
        }
    }

    /// A predicate only one member can handle moves the start off the tied
    /// default.
    #[test]
    fn start_member_follows_predicate_coverage() {
        let (db, ens) = singles_ensemble();
        let c = db.table_id("customer").unwrap();
        let o = db.table_id("orders").unwrap();
        let qtables = BTreeSet::from([c, o]);
        let o_pred = vec![Predicate::new(o, 2, PredOp::Cmp(CmpOp::Eq, Value::Int(0)))];
        let plan = CombinePlan::build(&ens, &db, &qtables, &o_pred, &o_pred).unwrap();
        let orders_member = ens.rspns().iter().position(|r| r.tables() == [o]).unwrap();
        assert_eq!(plan.start_member(), orders_member);
    }

    /// Theorem-2 ratio guard: 0/0 extension steps stay a clean zero factor
    /// (bitwise what `divide` produced), while a non-zero numerator over a
    /// degenerate denominator surfaces `NotAnswerable` instead of 0/NaN/∞.
    #[test]
    fn theorem2_ratio_guards_degenerate_denominators() {
        let zero = Estimate::exact(0.0);
        let num = Estimate {
            value: 0.5,
            variance: 0.01,
        };
        // Empty-over-empty: exact zero factor, same bits as divide().
        let ok = theorem2_ratio(zero, zero).unwrap();
        let old = zero.divide(zero);
        assert_eq!(ok.value.to_bits(), old.value.to_bits());
        assert_eq!(ok.variance.to_bits(), old.variance.to_bits());
        // Non-zero numerator over empty/NaN/∞ denominators: NotAnswerable.
        for bad in [0.0, f64::NAN, f64::INFINITY] {
            match theorem2_ratio(num, Estimate::exact(bad)) {
                Err(DeepDbError::NotAnswerable(_)) => {}
                other => panic!("expected NotAnswerable for den {bad}, got {other:?}"),
            }
        }
        // Supported denominators match divide() bitwise.
        let den = Estimate {
            value: 0.25,
            variance: 0.001,
        };
        let a = theorem2_ratio(num, den).unwrap();
        let b = num.divide(den);
        assert_eq!(a.value.to_bits(), b.value.to_bits());
        assert_eq!(a.variance.to_bits(), b.variance.to_bits());
    }

    /// The planner touches both single-table members for the paper's Q2
    /// (customer fan-out + orders selectivity).
    #[test]
    fn plan_touches_every_member_of_the_combination() {
        let (db, ens) = singles_ensemble();
        let c = db.table_id("customer").unwrap();
        let o = db.table_id("orders").unwrap();
        let qtables = BTreeSet::from([c, o]);
        let plan = CombinePlan::build(&ens, &db, &qtables, &[], &[]).unwrap();
        assert_eq!(plan.members().len(), 2);
    }
}
