//! ML tasks on RSPNs (paper §4.3, Exp. 3): regression via conditional
//! expectation, classification via most-probable-explanation — with no
//! additional training beyond the ensemble itself.
//!
//! Every entry point takes `&Ensemble`: both probe kinds (expectations and
//! max-product MPE) run on the compiled arena engines, which updates keep
//! patched in place — there is no `&mut` query path left. Each prediction
//! registers its probes on one [`ProbePlan`], so a prediction (or a whole
//! batch of predictions — [`predict_classification_batch`] /
//! [`predict_regression_batch`], the serving-traffic shape) costs exactly
//! **one fused arena sweep per touched member**, fallback probes included.

use std::collections::BTreeSet;

use deepdb_spn::{LeafFunc, LeafPred};
use deepdb_storage::{ColId, Database, TableId, Value};

use crate::ensemble::Ensemble;
use crate::plan::{MpeHandle, ProbeHandle, ProbePlan};
use crate::DeepDbError;

/// Width (in training standard deviations) of the evidence window used when
/// conditioning on a continuous feature value.
const CONTINUOUS_EVIDENCE_SIGMA: f64 = 0.35;

/// Evidence support below this threshold triggers the unconditional
/// fallback (shared by regression and classification).
const MIN_EVIDENCE_SUPPORT: f64 = 1e-12;

/// Predict a numeric target column as `E[target | features]`.
///
/// Discrete features condition exactly; continuous features condition on a
/// ±0.35σ window around the given value. Features whose columns the chosen
/// RSPN does not model are ignored. Falls back to the unconditional mean if
/// the evidence has no support — the fallback's probes ride in the **same**
/// fused probe plan as the conditional ones, so a prediction always costs
/// exactly one arena sweep, support or not.
pub fn predict_regression(
    ens: &Ensemble,
    db: &Database,
    table: TableId,
    target: ColId,
    features: &[(ColId, Value)],
) -> Result<f64, DeepDbError> {
    let row = [features];
    Ok(predict_regression_batch(ens, db, table, target, &row)?[0])
}

/// Batched [`predict_regression`]: one fused probe plan answers every
/// evidence row, costing one arena sweep on the chosen member for the whole
/// batch (the per-row path would pay one sweep per prediction).
pub fn predict_regression_batch<R: AsRef<[(ColId, Value)]>>(
    ens: &Ensemble,
    db: &Database,
    table: TableId,
    target: ColId,
    rows: &[R],
) -> Result<Vec<f64>, DeepDbError> {
    if rows.is_empty() {
        return Ok(Vec::new());
    }
    let (idx, target_col) = rspn_for(ens, table, target)?;
    let rspn = &ens.rspns()[idx];
    // Join-normalization factor columns (paper §4.2: per-`table`-row
    // answers, not per-join-row).
    let factors = rspn.normalization_factor_cols(&BTreeSet::from([table]));

    let mut plan = ProbePlan::new();
    let mut handles: Vec<(ProbeHandle, ProbeHandle)> = Vec::with_capacity(rows.len());
    for row in rows {
        let mut q = rspn.new_query();
        rspn.require_present(&mut q, table);
        add_evidence(rspn, db, table, row.as_ref(), &mut q);
        for &f in &factors {
            q.set_func(f, LeafFunc::InvClamp1);
        }
        let mut den_q = q.clone();
        q.set_func(target_col, LeafFunc::X);
        den_q.add_pred(target_col, LeafPred::IsNotNull);
        handles.push((plan.register(idx, den_q), plan.register(idx, q)));
    }

    // Unconditional (still factor-normalized) mean, used when a row's
    // evidence has no support; registered once for the whole batch.
    let mut uq = rspn.new_query();
    uq.set_func(target_col, LeafFunc::X);
    let mut upq = rspn.new_query();
    upq.add_pred(target_col, LeafPred::IsNotNull);
    for &f in &factors {
        uq.set_func(f, LeafFunc::InvClamp1);
        upq.set_func(f, LeafFunc::InvClamp1);
    }
    let h_u_num = plan.register(idx, uq);
    let h_u_den = plan.register(idx, upq);

    let results = plan.execute(ens);
    Ok(handles
        .into_iter()
        .map(|(h_den, h_num)| {
            let (den, num) = (results[h_den], results[h_num]);
            if den <= MIN_EVIDENCE_SUPPORT {
                results[h_u_num] / results[h_u_den].max(MIN_EVIDENCE_SUPPORT)
            } else {
                num / den
            }
        })
        .collect())
}

/// Predict a categorical target via MPE given the evidence, on the compiled
/// max-product path.
pub fn predict_classification(
    ens: &Ensemble,
    db: &Database,
    table: TableId,
    target: ColId,
    features: &[(ColId, Value)],
) -> Result<Option<Value>, DeepDbError> {
    let row = [features];
    Ok(predict_classification_batch(ens, db, table, target, &row)?.remove(0))
}

/// Batched [`predict_classification`]: every evidence row registers one MPE
/// probe plus one evidence-support probe on a single plan, and a shared
/// unconditional-MPE fallback covers rows whose evidence has no support —
/// the whole batch runs in **one fused arena sweep** on the chosen member
/// (both probe kinds ride the same [`deepdb_spn::WorkerPool::sweep`] pass).
pub fn predict_classification_batch<R: AsRef<[(ColId, Value)]>>(
    ens: &Ensemble,
    db: &Database,
    table: TableId,
    target: ColId,
    rows: &[R],
) -> Result<Vec<Option<Value>>, DeepDbError> {
    if rows.is_empty() {
        return Ok(Vec::new());
    }
    let (idx, target_col) = rspn_for(ens, table, target)?;
    let rspn = &ens.rspns()[idx];

    let mut plan = ProbePlan::new();
    let mut handles: Vec<(ProbeHandle, MpeHandle)> = Vec::with_capacity(rows.len());
    for row in rows {
        let mut q = rspn.new_query();
        add_evidence(rspn, db, table, row.as_ref(), &mut q);
        // Evidence-support probe: P(evidence), fused into the same sweep.
        let h_ev = plan.register(idx, q.clone());
        let h_mpe = plan.register_mpe(idx, target_col, q);
        handles.push((h_ev, h_mpe));
    }
    // Unconditional MPE (marginal mode of the target), registered once:
    // the fallback for rows whose evidence the model gives zero mass.
    let h_fallback = plan.register_mpe(idx, target_col, rspn.new_query());

    let results = plan.execute(ens);
    Ok(handles
        .into_iter()
        .map(|(h_ev, h_mpe)| {
            let mode = if results[h_ev] > MIN_EVIDENCE_SUPPORT {
                results.mpe_value(h_mpe)
            } else {
                results.mpe_value(h_fallback)
            };
            mode.map(mode_to_value)
        })
        .collect())
}

fn mode_to_value(v: f64) -> Value {
    if v.fract() == 0.0 {
        Value::Int(v as i64)
    } else {
        Value::Float(v)
    }
}

/// The member that answers predictions of `(table, target)` and the
/// target's data column in it.
fn rspn_for(ens: &Ensemble, table: TableId, target: ColId) -> Result<(usize, usize), DeepDbError> {
    ens.rspns()
        .iter()
        .enumerate()
        .filter_map(|(i, r)| Some((i, r.data_column(table, target)?, r.columns().len())))
        // Prefer the RSPN with the most feature columns for this table.
        .max_by_key(|&(_, _, n_cols)| n_cols)
        .map(|(i, target_col, _)| (i, target_col))
        .ok_or_else(|| {
            DeepDbError::NotAnswerable(format!("no RSPN models column ({table}, {target})"))
        })
}

fn add_evidence(
    rspn: &crate::rspn::Rspn,
    db: &Database,
    table: TableId,
    features: &[(ColId, Value)],
    q: &mut deepdb_spn::SpnQuery,
) {
    for &(col, value) in features {
        let Some(spn_col) = rspn.data_column(table, col) else {
            continue;
        };
        let Some(v) = value.as_f64() else {
            q.add_pred(spn_col, LeafPred::IsNull);
            continue;
        };
        let discrete = db.table(table).schema().columns()[col].domain.is_discrete();
        if discrete {
            q.add_pred(spn_col, LeafPred::eq(v));
        } else {
            let (_, std) = rspn.column_stats(spn_col);
            let half = (std * CONTINUOUS_EVIDENCE_SIGMA).max(1e-9);
            q.add_pred(
                spn_col,
                LeafPred::Range {
                    lo: v - half,
                    hi: v + half,
                    lo_incl: true,
                    hi_incl: true,
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ensemble::{EnsembleBuilder, EnsembleParams};
    use deepdb_storage::fixtures::correlated_customer_order;

    fn setup() -> (Database, Ensemble) {
        let db = correlated_customer_order(2500, 33);
        let params = EnsembleParams {
            sample_size: 25_000,
            correlation_sample: 1_500,
            ..EnsembleParams::default()
        };
        let ens = EnsembleBuilder::new(&db).params(params).build().unwrap();
        (db, ens)
    }

    #[test]
    fn regression_tracks_conditional_means() {
        let (db, ens) = setup();
        let c = db.table_id("customer").unwrap();
        // E[age | region]: Europeans (region 0) skew older by construction.
        let age_eu = predict_regression(&ens, &db, c, 1, &[(2, Value::Int(0))]).unwrap();
        let age_asia = predict_regression(&ens, &db, c, 1, &[(2, Value::Int(1))]).unwrap();
        assert!(
            age_eu > age_asia + 10.0,
            "EU mean {age_eu} should exceed ASIA mean {age_asia}"
        );
        // Compare against the true conditional mean.
        let table = db.table(c);
        let (mut s, mut k) = (0.0, 0);
        for r in 0..table.n_rows() {
            if table.value(r, 2) == Value::Int(0) {
                s += table.column(1).f64_or_nan(r);
                k += 1;
            }
        }
        let truth = s / k as f64;
        assert!((age_eu - truth).abs() < 3.0, "{age_eu} vs {truth}");
    }

    #[test]
    fn classification_predicts_dominant_region() {
        let (db, ens) = setup();
        let c = db.table_id("customer").unwrap();
        // Old customers are predominantly European (region 0).
        let pred = predict_classification(&ens, &db, c, 2, &[(1, Value::Int(80))]).unwrap();
        assert_eq!(pred, Some(Value::Int(0)));
    }

    #[test]
    fn classification_without_support_falls_back_to_marginal_mode() {
        let (db, ens) = setup();
        let c = db.table_id("customer").unwrap();
        // Age 999 was never observed: the marginal mode of region answers.
        let fallback = predict_classification(&ens, &db, c, 2, &[(1, Value::Int(999))]).unwrap();
        let marginal = predict_classification(&ens, &db, c, 2, &[]).unwrap();
        assert_eq!(fallback, marginal);
        assert!(fallback.is_some());
    }

    #[test]
    fn classification_batch_matches_sequential_predictions() {
        let (db, ens) = setup();
        let c = db.table_id("customer").unwrap();
        let rows: Vec<Vec<(ColId, Value)>> = (0..40)
            .map(|i| vec![(1usize, Value::Int(20 + (i % 8) * 10))])
            .collect();
        let batch = predict_classification_batch(&ens, &db, c, 2, &rows).unwrap();
        for (row, got) in rows.iter().zip(&batch) {
            let want = predict_classification(&ens, &db, c, 2, row).unwrap();
            assert_eq!(*got, want, "evidence {row:?}");
        }
    }

    #[test]
    fn regression_batch_matches_sequential_predictions() {
        let (db, ens) = setup();
        let c = db.table_id("customer").unwrap();
        let rows: Vec<Vec<(ColId, Value)>> = (0..24)
            .map(|i| {
                if i % 5 == 0 {
                    vec![(2usize, Value::Int(77))] // no support → fallback
                } else {
                    vec![(2usize, Value::Int(i % 2))]
                }
            })
            .collect();
        let batch = predict_regression_batch(&ens, &db, c, 1, &rows).unwrap();
        for (row, &got) in rows.iter().zip(&batch) {
            let want = predict_regression(&ens, &db, c, 1, row).unwrap();
            assert_eq!(got.to_bits(), want.to_bits(), "evidence {row:?}");
        }
    }

    #[test]
    fn regression_without_features_returns_marginal_mean() {
        let (db, ens) = setup();
        let c = db.table_id("customer").unwrap();
        let est = predict_regression(&ens, &db, c, 1, &[]).unwrap();
        let table = db.table(c);
        let truth: f64 = (0..table.n_rows())
            .map(|r| table.column(1).f64_or_nan(r))
            .sum::<f64>()
            / table.n_rows() as f64;
        assert!((est - truth).abs() < 2.0, "{est} vs {truth}");
    }

    #[test]
    fn unsupported_column_errors() {
        let (db, ens) = setup();
        let c = db.table_id("customer").unwrap();
        // Column 0 is the primary key — not modeled.
        assert!(predict_regression(&ens, &db, c, 0, &[]).is_err());
    }
}
