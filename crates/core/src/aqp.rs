//! Approximate query processing on the ensemble (paper §2, §4.2, §6.2).
//!
//! COUNT/SUM/AVG queries — optionally with GROUP BY — are answered purely
//! from the models: no table data is touched at query time. Group-by queries
//! are compiled into one estimate per group over the observed domain of the
//! grouping columns (paper §4.2) — including a NULL group for nullable
//! grouping columns — and every estimate carries the §5.1 confidence
//! interval.
//!
//! GROUP BY enumeration is **plan-fused**: every group's probe bundle
//! (count fraction, probability factor, second moment, AVG
//! numerator/denominator) is registered on one sharing [`crate::ProbePlan`],
//! so the whole result set costs exactly one fused arena sweep per touched
//! RSPN member, parallelized across the ensemble's probe-thread budget.
//! Groups whose COUNT needs Case-3 RSPN combination register their symbolic
//! [`crate::combine::CombinePlan`] bundles on the same shared plan — the
//! one-sweep-per-member invariant holds for multi-RSPN GROUP BY too.
//!
//! What a group registers: each bundle takes only the group predicates on
//! its own tables, and the plan gives bitwise-equal probes on one member one
//! slot. So a bundle that accepts none of the group's predicates is swept
//! once for the whole query, a bundle that accepts some once per distinct
//! tuple of the values it accepts, and the resolved answers are bitwise
//! those of one slot per registration.
//!
//! The whole query path runs on `&Ensemble`.

use deepdb_storage::{Aggregate, Database, Domain, Query, Value};

use crate::compile::{
    estimate_count_values, resolve_scalar, value_predicate, DeferredScalar, ScalarTemplate,
};
use crate::ensemble::Ensemble;
use crate::estimate::Estimate;
use crate::plan::ProbePlan;
use crate::DeepDbError;

/// One approximate aggregate with its confidence interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AqpResult {
    /// Point estimate of the aggregate.
    pub value: f64,
    /// Lower/upper bound of the confidence interval.
    pub ci_low: f64,
    pub ci_high: f64,
    /// Estimated number of qualifying rows (useful to spot empty groups).
    pub count_estimate: f64,
}

/// Output of [`execute_aqp`]: scalar or per-group results.
#[derive(Debug, Clone)]
pub enum AqpOutput {
    Scalar(AqpResult),
    Grouped(Vec<(Vec<Value>, AqpResult)>),
}

impl AqpOutput {
    /// Scalar accessor (first group's result for grouped output).
    pub fn scalar(&self) -> Option<AqpResult> {
        match self {
            AqpOutput::Scalar(r) => Some(*r),
            AqpOutput::Grouped(g) => g.first().map(|(_, r)| *r),
        }
    }

    pub fn groups(&self) -> &[(Vec<Value>, AqpResult)] {
        match self {
            AqpOutput::Scalar(_) => &[],
            AqpOutput::Grouped(g) => g,
        }
    }
}

/// Confidence level used for reported intervals (95%, as in the paper's
/// evaluation).
pub const CONFIDENCE: f64 = 0.95;

/// Answer an aggregate query approximately from the ensemble.
pub fn execute_aqp(ens: &Ensemble, db: &Database, query: &Query) -> Result<AqpOutput, DeepDbError> {
    query.validate(db)?;

    if query.group_by.is_empty() {
        let (agg, count) = scalar_estimates(ens, db, query)?;
        return Ok(AqpOutput::Scalar(to_result(agg, count)));
    }

    // GROUP BY: one probabilistic query per group over the observed domain
    // (paper §4.2 — "n times more expectations"). Before forming the cross
    // product of group domains, prune each domain with a cheap marginal
    // count estimate so contradictory values (e.g. cities of a filtered-out
    // nation) do not explode the enumeration. The per-value probes go
    // through `estimate_count_values`, which runs the whole domain as one
    // batched pass over the compiled arena when a single RSPN covers it.
    let mut group_domains: Vec<Vec<Value>> = Vec::new();
    for g in &query.group_by {
        let domain = group_domain(ens, db, g.table, g.column)?;
        let survivors = if query.group_by.len() > 1 && domain.len() > 8 {
            let mut mq = query.clone();
            mq.group_by.clear();
            mq.aggregate = Aggregate::CountStar;
            let target = deepdb_storage::ColumnRef {
                table: g.table,
                column: g.column,
            };
            let counts = estimate_count_values(ens, db, &mq, target, &domain)?;
            domain
                .into_iter()
                .zip(counts)
                .filter(|(_, c)| *c >= 0.5)
                .map(|(v, _)| v)
                .collect()
        } else {
            domain
        };
        if survivors.is_empty() {
            return Ok(AqpOutput::Grouped(Vec::new()));
        }
        group_domains.push(survivors);
    }

    let mut plan = ProbePlan::sharing();
    let pending = register_groups(&mut plan, ens, db, query, &group_domains)?;
    let results = plan.execute(ens);
    let mut groups = Vec::new();
    for (key, deferred) in pending {
        let (agg, count) = resolve_scalar(&deferred, &results)?;
        // Suppress groups the model considers empty (< half a row).
        if count.value >= 0.5 {
            groups.push((key, to_result(agg, count)));
        }
    }
    Ok(AqpOutput::Grouped(groups))
}

/// Enumerate every combination of the group `domains` (mixed-radix counter)
/// and register each group's probe bundle on `plan`. Member selection, the
/// translation of the shared (non-group) predicates and — for multi-RSPN
/// counts — the whole Case-3 combine plan happen once, in the template; a
/// group only appends its own value predicates to the bundles that accept
/// them. On a sharing plan a bundle no group predicate reaches (every
/// lineorder probe of an SSB query, every dimension step's denominator)
/// therefore takes one slot for the whole query, and a dimension step one
/// per distinct value of its own group columns.
fn register_groups(
    plan: &mut ProbePlan,
    ens: &Ensemble,
    db: &Database,
    query: &Query,
    domains: &[Vec<Value>],
) -> Result<Vec<(Vec<Value>, DeferredScalar)>, DeepDbError> {
    let mut shared_q = query.clone();
    shared_q.group_by.clear();
    let template = ScalarTemplate::prepare(ens, db, &shared_q, &query.group_by)?;
    let mut pending = Vec::new();
    let mut combo = vec![0usize; domains.len()];
    'outer: loop {
        let key: Vec<Value> = combo.iter().zip(domains).map(|(&i, d)| d[i]).collect();
        let group_preds: Vec<_> = query
            .group_by
            .iter()
            .zip(&key)
            .map(|(g, v)| value_predicate(g.table, g.column, *v))
            .collect();
        pending.push((key, template.register_group(plan, ens, &group_preds)?));
        // Advance the mixed-radix counter over group combinations.
        for d in 0..combo.len() {
            combo[d] += 1;
            if combo[d] < domains[d].len() {
                continue 'outer;
            }
            combo[d] = 0;
        }
        return Ok(pending);
    }
}

fn to_result(agg: Estimate, count: Estimate) -> AqpResult {
    let (ci_low, ci_high) = agg.confidence_interval(CONFIDENCE);
    AqpResult {
        value: agg.value,
        ci_low,
        ci_high,
        count_estimate: count.value,
    }
}

/// (aggregate estimate, count estimate) for a scalar query: one plan, one
/// fused sweep per touched member (COUNT and the aggregate's probes ride
/// together even when they pick different members).
fn scalar_estimates(
    ens: &Ensemble,
    db: &Database,
    query: &Query,
) -> Result<(Estimate, Estimate), DeepDbError> {
    let mut scalar_q = query.clone();
    scalar_q.group_by.clear();
    crate::checkout::aqp_scalar(ens, db, &scalar_q)
}

/// Observed domain of a grouping column, from RSPN distinct-value tracking
/// (plus a NULL group when the column is nullable — SQL groups NULLs
/// together), falling back to the catalog's categorical labels.
fn group_domain(
    ens: &Ensemble,
    db: &Database,
    table: deepdb_storage::TableId,
    column: deepdb_storage::ColId,
) -> Result<Vec<Value>, DeepDbError> {
    for rspn in ens.rspns() {
        if let Some(col) = rspn.data_column(table, column) {
            if let Some(values) = rspn.distinct_values(col) {
                let def = &db.table(table).schema().columns()[column];
                let mut as_values: Vec<Value> = values
                    .into_iter()
                    .map(|v| match def.domain {
                        Domain::Continuous => Value::Float(v),
                        _ => Value::Int(v as i64),
                    })
                    .collect();
                if rspn.columns()[col].nullable {
                    // Candidate NULL group; the model suppresses it like any
                    // other empty group if no NULLs were actually observed.
                    as_values.push(Value::Null);
                }
                return Ok(as_values);
            }
        }
    }
    // Fallback: categorical labels from the schema (plus the NULL group for
    // nullable columns, mirroring the distinct-values path above).
    let def = &db.table(table).schema().columns()[column];
    if let Domain::Categorical { labels } = &def.domain {
        let mut vals: Vec<Value> = (0..labels.len() as i64).map(Value::Int).collect();
        if def.nullable {
            vals.push(Value::Null);
        }
        return Ok(vals);
    }
    Err(DeepDbError::Unsupported(format!(
        "cannot enumerate GROUP BY domain for ({table}, {column})"
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ensemble::{EnsembleBuilder, EnsembleParams};
    use deepdb_storage::fixtures::correlated_customer_order;
    use deepdb_storage::{execute, CmpOp, ColumnRef, PredOp, Query};

    fn setup() -> (Database, Ensemble) {
        let db = correlated_customer_order(2500, 21);
        let params = EnsembleParams {
            sample_size: 30_000,
            correlation_sample: 1_500,
            ..EnsembleParams::default()
        };
        let ens = EnsembleBuilder::new(&db).params(params).build().unwrap();
        (db, ens)
    }

    /// A grouped Case-3 query on single-table members: the orders
    /// member's probes carry no group predicate (the groups are customer
    /// ages), so a sharing plan sweeps as many of them for 25 groups as for
    /// one — and the answers equal those of a plan with one slot per
    /// registration, bit for bit.
    #[test]
    fn grouped_case3_sweeps_the_fact_member_once_per_query() {
        let db = correlated_customer_order(1500, 21);
        let params = EnsembleParams {
            strategy: crate::ensemble::EnsembleStrategy::SingleTables,
            sample_size: 10_000,
            correlation_sample: 1_000,
            ..EnsembleParams::default()
        };
        let ens = EnsembleBuilder::new(&db).params(params).build().unwrap();
        let c = db.table_id("customer").unwrap();
        let o = db.table_id("orders").unwrap();
        let orders = ens.rspns().iter().position(|r| r.tables() == [o]).unwrap();
        let q = Query::count(vec![c, o])
            .filter(o, 2, PredOp::Cmp(CmpOp::Eq, Value::Int(0)))
            .aggregate(Aggregate::Sum(ColumnRef {
                table: o,
                column: 3,
            }))
            .group(c, 1);
        let ages = group_domain(&ens, &db, c, 1).unwrap();
        assert!(ages.len() >= 25, "{} ages", ages.len());

        let mut fact_probes = Vec::new();
        for n_groups in [1, 25] {
            let domains = [ages[..n_groups].to_vec()];
            let mut shared = ProbePlan::sharing();
            let pending = register_groups(&mut shared, &ens, &db, &q, &domains).unwrap();
            let mut each = ProbePlan::new();
            let baseline = register_groups(&mut each, &ens, &db, &q, &domains).unwrap();
            assert!(shared.n_probes() < each.n_probes(), "{n_groups} groups");
            fact_probes.push(shared.probes_for_member(orders));

            let (got, want) = (shared.execute(&ens), each.execute(&ens));
            for ((_, a), (_, b)) in pending.iter().zip(&baseline) {
                let (a_agg, a_count) = resolve_scalar(a, &got).unwrap();
                let (b_agg, b_count) = resolve_scalar(b, &want).unwrap();
                for (x, y) in [(a_agg, b_agg), (a_count, b_count)] {
                    assert_eq!(x.value.to_bits(), y.value.to_bits());
                    assert_eq!(x.variance.to_bits(), y.variance.to_bits());
                }
            }
        }
        assert!(fact_probes[0] > 0);
        assert_eq!(fact_probes[0], fact_probes[1], "orders probes per query");
    }

    #[test]
    fn scalar_count_with_ci() {
        let (db, ens) = setup();
        let c = db.table_id("customer").unwrap();
        let q = Query::count(vec![c]).filter(c, 2, PredOp::Cmp(CmpOp::Eq, Value::Int(0)));
        let truth = execute(&db, &q).unwrap().scalar().count as f64;
        let out = execute_aqp(&ens, &db, &q).unwrap();
        let r = out.scalar().unwrap();
        let rel = (r.value - truth).abs() / truth;
        assert!(rel < 0.1, "rel err {rel}");
        assert!(r.ci_low <= r.value && r.value <= r.ci_high);
    }

    #[test]
    fn group_by_region_matches_executor_per_group() {
        let (db, ens) = setup();
        let c = db.table_id("customer").unwrap();
        let o = db.table_id("orders").unwrap();
        let q = Query::count(vec![c, o])
            .aggregate(Aggregate::Avg(ColumnRef {
                table: o,
                column: 3,
            }))
            .group(c, 2);
        let truth = execute(&db, &q).unwrap();
        let out = execute_aqp(&ens, &db, &q).unwrap();
        let groups = out.groups();
        assert_eq!(groups.len(), truth.groups().len(), "group count");
        for (key, res) in groups {
            let t = truth
                .groups()
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, a)| a.avg().unwrap())
                .unwrap_or_else(|| panic!("missing group {key:?}"));
            let rel = (res.value - t).abs() / t.abs().max(1.0);
            assert!(
                rel < 0.12,
                "group {key:?}: {} vs {t} (rel {rel})",
                res.value
            );
        }
    }

    #[test]
    fn malformed_group_by_and_aggregate_columns_are_errors() {
        let (db, ens) = setup();
        let c = db.table_id("customer").unwrap();
        let width = db.table(c).schema().n_columns();
        for q in [
            Query::count(vec![c]).group(db.n_tables(), 0),
            Query::count(vec![c]).group(c, width),
            Query::count(vec![c]).aggregate(Aggregate::Avg(ColumnRef {
                table: c,
                column: width,
            })),
        ] {
            assert!(execute_aqp(&ens, &db, &q).is_err(), "{q:?}");
        }
    }

    #[test]
    fn grouped_counts_sum_to_total() {
        let (db, ens) = setup();
        let c = db.table_id("customer").unwrap();
        let q = Query::count(vec![c]).group(c, 2);
        let out = execute_aqp(&ens, &db, &q).unwrap();
        let total: f64 = out.groups().iter().map(|(_, r)| r.value).sum();
        let truth = db.table(c).n_rows() as f64;
        assert!((total - truth).abs() / truth < 0.05, "{total} vs {truth}");
    }

    #[test]
    fn sum_aggregate_group_by() {
        let (db, ens) = setup();
        let c = db.table_id("customer").unwrap();
        let o = db.table_id("orders").unwrap();
        let q = Query::count(vec![c, o])
            .aggregate(Aggregate::Sum(ColumnRef {
                table: o,
                column: 3,
            }))
            .group(c, 2);
        let truth = execute(&db, &q).unwrap();
        let out = execute_aqp(&ens, &db, &q).unwrap();
        for (key, res) in out.groups() {
            let t = truth
                .groups()
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, a)| a.sum)
                .unwrap();
            let rel = (res.value - t).abs() / t.abs().max(1.0);
            assert!(rel < 0.35, "group {key:?}: {} vs {t}", res.value);
        }
    }
}
