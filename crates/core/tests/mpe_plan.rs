//! Acceptance tests for compiled, plan-fused MPE classification: a K-row
//! prediction batch costs exactly one arena sweep on the touched member
//! (evidence-support and fallback probes included), and results are exactly
//! identical for any probe-thread count — the serving-traffic guarantees of
//! the max-product engine.

use deepdb_core::ml::{predict_classification, predict_classification_batch};
use deepdb_core::{Ensemble, EnsembleBuilder, EnsembleParams};
use deepdb_storage::fixtures::correlated_customer_order;
use deepdb_storage::{Database, Value};

fn build() -> (Database, Ensemble) {
    let db = correlated_customer_order(2000, 21);
    let params = EnsembleParams {
        sample_size: 20_000,
        correlation_sample: 1_500,
        rdc_threshold: 0.0,
        ..EnsembleParams::default()
    };
    let ens = EnsembleBuilder::new(&db).params(params).build().unwrap();
    (db, ens)
}

/// Evidence rows mixing supported ages, unsupported ages (fallback path),
/// and empty evidence; sized well past one sweep tile (32).
fn evidence_rows(k: usize) -> Vec<Vec<(usize, Value)>> {
    (0..k)
        .map(|i| match i % 9 {
            8 => Vec::new(),
            7 => vec![(1usize, Value::Int(999))], // never observed
            m => vec![(1usize, Value::Int(20 + m as i64 * 10))],
        })
        .collect()
}

#[test]
fn classification_batch_costs_one_sweep_per_touched_member() {
    let (db, ens) = build();
    let c = db.table_id("customer").unwrap();
    let rows = evidence_rows(64);

    let before: Vec<u64> = ens.rspns().iter().map(|r| r.probe_passes()).collect();
    let preds = predict_classification_batch(&ens, &db, c, 2, &rows).unwrap();
    assert_eq!(preds.len(), rows.len());
    assert!(preds.iter().all(Option::is_some));
    let after: Vec<u64> = ens.rspns().iter().map(|r| r.probe_passes()).collect();

    let deltas: Vec<u64> = before.iter().zip(&after).map(|(b, a)| a - b).collect();
    assert_eq!(
        deltas.iter().sum::<u64>(),
        1,
        "a 64-row prediction batch must cost exactly one sweep total \
         (one per touched member); got per-member deltas {deltas:?}"
    );
}

#[test]
fn classification_batch_is_thread_count_deterministic() {
    let (db, ens) = build();
    let c = db.table_id("customer").unwrap();
    // > 32 evidence rows → > 64 fused probes, so multi-thread execution
    // actually splits the batch into several tiles.
    let rows = evidence_rows(50);

    let mut ens = ens;
    ens.set_probe_threads(1);
    let baseline = predict_classification_batch(&ens, &db, c, 2, &rows).unwrap();
    for threads in [2usize, 3, 4, 8] {
        ens.set_probe_threads(threads);
        let got = predict_classification_batch(&ens, &db, c, 2, &rows).unwrap();
        assert_eq!(
            got, baseline,
            "{threads}-thread classification diverged from 1-thread"
        );
    }
}

#[test]
fn classification_batch_matches_per_row_calls_across_snapshots() {
    let (db, ens) = build();
    let c = db.table_id("customer").unwrap();
    let rows = evidence_rows(18);
    let batch = predict_classification_batch(&ens, &db, c, 2, &rows).unwrap();

    // A snapshot round-trip (arenas decoded on load) answers identically.
    let mut buf = Vec::new();
    ens.save(&mut buf).unwrap();
    let restored = Ensemble::load(&mut buf.as_slice()).unwrap();
    for (row, want) in rows.iter().zip(&batch) {
        let got = predict_classification(&restored, &db, c, 2, row).unwrap();
        assert_eq!(got, *want, "evidence {row:?}");
    }
}
