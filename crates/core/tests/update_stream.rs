//! Core-level acceptance tests for in-place arena maintenance: an
//! interleaved update/query stream must (a) never rebuild an arena on the
//! hot path — the per-member `Rspn::probe_passes` counters survive updates
//! — and (b) produce estimates bitwise identical to the same model after a
//! snapshot round-trip (every arena written out and decoded afresh). The
//! batched ensemble entry point must match the sequential one bitwise.

use deepdb_core::{execute_aqp, Ensemble, EnsembleBuilder, EnsembleParams};
use deepdb_storage::fixtures::correlated_customer_order;
use deepdb_storage::{Aggregate, CmpOp, ColumnRef, Database, PredOp, Query, Value};

fn setup() -> (Database, Ensemble) {
    let db = correlated_customer_order(1500, 33);
    let params = EnsembleParams {
        sample_size: 12_000,
        correlation_sample: 1_000,
        rdc_threshold: 0.0, // force the joint RSPN
        ..EnsembleParams::default()
    };
    let ens = EnsembleBuilder::new(&db).params(params).build().unwrap();
    (db, ens)
}

fn snapshot_round_trip(ens: &Ensemble) -> Ensemble {
    let mut buf = Vec::new();
    ens.save(&mut buf).unwrap();
    Ensemble::load(&mut buf.as_slice()).unwrap()
}

fn workload(c: usize, o: usize) -> Vec<Query> {
    vec![
        Query::count(vec![c]).filter(c, 2, PredOp::Cmp(CmpOp::Eq, Value::Int(0))),
        Query::count(vec![c, o])
            .filter(o, 2, PredOp::Cmp(CmpOp::Eq, Value::Int(1)))
            .aggregate(Aggregate::Avg(ColumnRef {
                table: o,
                column: 3,
            })),
        Query::count(vec![c, o])
            .aggregate(Aggregate::Sum(ColumnRef {
                table: o,
                column: 3,
            }))
            .group(c, 2),
    ]
}

/// Interleaved inserts and queries: every estimate after every burst matches
/// the snapshot-decoded baseline bit for bit, and no member's arena is ever
/// rebuilt (sweep counters keep counting monotonically).
#[test]
fn interleaved_update_stream_matches_recompile_bitwise() {
    let (mut db, mut ens) = setup();
    let c = db.table_id("customer").unwrap();
    let o = db.table_id("orders").unwrap();
    let queries = workload(c, o);

    let mut next_cust = 1_000_000i64;
    let mut next_order = 2_000_000i64;
    let mut passes_floor: Vec<u64> = ens.rspns().iter().map(|r| r.probe_passes()).collect();

    for burst in 0..4 {
        // A burst of direct updates (customers and orders).
        for k in 0..40 {
            next_cust += 1;
            ens.apply_insert(
                &mut db,
                c,
                &[
                    Value::Int(next_cust),
                    Value::Int(20 + (k % 50)),
                    Value::Int(k % 2),
                ],
            )
            .unwrap();
            next_order += 1;
            ens.apply_insert(
                &mut db,
                o,
                &[
                    Value::Int(next_order),
                    Value::Int(next_cust),
                    Value::Int((k + burst) % 2),
                    Value::Float(100.0 + k as f64),
                ],
            )
            .unwrap();
        }

        // The update path must not have reset any sweep counter (a rebuilt
        // arena would have): counters only ever grow.
        let passes_now: Vec<u64> = ens.rspns().iter().map(|r| r.probe_passes()).collect();
        for (i, (&floor, &now)) in passes_floor.iter().zip(&passes_now).enumerate() {
            assert!(
                now >= floor,
                "member {i} lost probe passes after updates ({now} < {floor}): \
                 the hot path rebuilt an arena"
            );
        }

        // Queries on the patched engines ≡ queries on a decoded snapshot.
        let baseline = snapshot_round_trip(&ens);
        for (qi, q) in queries.iter().enumerate() {
            let got = execute_aqp(&ens, &db, q).unwrap();
            let want = execute_aqp(&baseline, &db, q).unwrap();
            match (&got, &want) {
                (deepdb_core::AqpOutput::Scalar(g), deepdb_core::AqpOutput::Scalar(w)) => {
                    assert_eq!(g.value.to_bits(), w.value.to_bits(), "burst {burst} q{qi}");
                    assert_eq!(g.ci_low.to_bits(), w.ci_low.to_bits());
                    assert_eq!(g.ci_high.to_bits(), w.ci_high.to_bits());
                }
                (deepdb_core::AqpOutput::Grouped(g), deepdb_core::AqpOutput::Grouped(w)) => {
                    assert_eq!(g.len(), w.len(), "burst {burst} q{qi} group count");
                    for ((gk, gr), (wk, wr)) in g.iter().zip(w.iter()) {
                        assert_eq!(gk, wk);
                        assert_eq!(gr.value.to_bits(), wr.value.to_bits());
                        assert_eq!(gr.count_estimate.to_bits(), wr.count_estimate.to_bits());
                    }
                }
                _ => panic!("shape mismatch"),
            }
        }
        passes_floor = ens.rspns().iter().map(|r| r.probe_passes()).collect();
    }
    assert_eq!(
        ens.model_rows_lost(),
        0,
        "every streamed row reached the models"
    );
}

/// Rows the models never absorbed cannot leave them: a delete of one is
/// counted, not dropped silently, and no member's training mass moves.
#[test]
fn deleting_a_row_the_model_never_absorbed_is_counted() {
    let (mut db, mut ens) = setup();
    let c = db.table_id("customer").unwrap();
    let mass: Vec<u64> = ens.rspns().iter().map(|r| r.n_training()).collect();
    assert_eq!(ens.model_rows_lost(), 0);

    // Customers of an age no trained row holds, written to the table only.
    for k in 0..8 {
        let pk = 7_000_000 + k;
        db.table_mut(c)
            .push_row(&[Value::Int(pk), Value::Int(10_000 + k), Value::Int(0)])
            .unwrap();
        let row = db.table(c).n_rows() - 1;
        ens.apply_delete(&mut db, c, row).unwrap();
    }
    assert!(
        ens.model_rows_lost() > 0,
        "refused deletes were not counted"
    );
    let after: Vec<u64> = ens.rspns().iter().map(|r| r.n_training()).collect();
    assert_eq!(after, mass, "a refused delete changed a model");
}

/// `apply_insert_batch` ≡ the same sequence of `apply_insert` calls, bitwise
/// — model state (training-row counts, |J|), bookkeeping, and estimates.
#[test]
fn batched_ensemble_updates_match_sequential_bitwise() {
    let (db, ens) = setup();
    let c = db.table_id("customer").unwrap();

    let rows: Vec<Vec<Value>> = (0..120)
        .map(|k| {
            vec![
                Value::Int(3_000_000 + k),
                Value::Int(18 + (k % 60)),
                Value::Int(k % 2),
            ]
        })
        .collect();

    let mut db_seq = db.clone();
    let mut ens_seq = snapshot_round_trip(&ens);
    for row in &rows {
        ens_seq.apply_insert(&mut db_seq, c, row).unwrap();
    }

    let mut db_batch = db.clone();
    let mut ens_batch = snapshot_round_trip(&ens);
    ens_batch
        .apply_insert_batch(&mut db_batch, c, &rows)
        .unwrap();

    assert_same_state((&ens_seq, &db_seq), (&ens_batch, &db_batch));
}

/// Model state (training-row counts, |J|), bookkeeping and every workload
/// estimate of the two ensembles agree bitwise.
fn assert_same_state(a: (&Ensemble, &Database), b: (&Ensemble, &Database)) {
    let ((ens_a, db_a), (ens_b, db_b)) = (a, b);
    let c = db_a.table_id("customer").unwrap();
    let o = db_a.table_id("orders").unwrap();
    assert_eq!(ens_a.updates_absorbed(), ens_b.updates_absorbed());
    assert_eq!(ens_a.table_rows(c), ens_b.table_rows(c));
    assert_eq!(db_a.table(c).n_rows(), db_b.table(c).n_rows());
    for (a, b) in ens_a.rspns().iter().zip(ens_b.rspns()) {
        assert_eq!(a.n_training(), b.n_training(), "model mass diverged");
        assert_eq!(a.full_join_count(), b.full_join_count());
    }
    for (qi, q) in workload(c, o).iter().enumerate() {
        let a = execute_aqp(ens_a, db_a, q).unwrap();
        let b = execute_aqp(ens_b, db_b, q).unwrap();
        match (&a, &b) {
            (deepdb_core::AqpOutput::Scalar(x), deepdb_core::AqpOutput::Scalar(y)) => {
                assert_eq!(x.value.to_bits(), y.value.to_bits(), "q{qi}");
            }
            (deepdb_core::AqpOutput::Grouped(x), deepdb_core::AqpOutput::Grouped(y)) => {
                assert_eq!(x.len(), y.len());
                for ((xk, xr), (yk, yr)) in x.iter().zip(y.iter()) {
                    assert_eq!(xk, yk);
                    assert_eq!(xr.value.to_bits(), yr.value.to_bits(), "q{qi}");
                }
            }
            _ => panic!("shape mismatch"),
        }
    }
}

/// A batch that hits a malformed row returns its error, but the rows before
/// it are in the database and bookkept — the models must have absorbed them
/// exactly as two `apply_insert` calls would.
#[test]
fn malformed_row_ends_a_batch_without_dropping_the_rows_before_it() {
    let (db, ens) = setup();
    let c = db.table_id("customer").unwrap();
    let good = |k: i64| {
        vec![
            Value::Int(5_000_000 + k),
            Value::Int(30 + k),
            Value::Int(k % 2),
        ]
    };
    let malformed = vec![Value::Int(5_000_002), Value::Int(32), Value::Float(0.5)];

    let mut db_seq = db.clone();
    let mut ens_seq = snapshot_round_trip(&ens);
    for k in 0..2 {
        ens_seq.apply_insert(&mut db_seq, c, &good(k)).unwrap();
    }

    let mut db_batch = db.clone();
    let mut ens_batch = snapshot_round_trip(&ens);
    let epoch = ens_batch.plan_epoch();
    let batch = [good(0), good(1), malformed];
    assert!(ens_batch
        .apply_insert_batch(&mut db_batch, c, &batch)
        .is_err());
    assert!(
        ens_batch.plan_epoch() > epoch,
        "plans must go stale: the models changed"
    );
    db_batch.validate_integrity().unwrap();
    assert_same_state((&ens_seq, &db_seq), (&ens_batch, &db_batch));
}

/// One insert call is one invalidation: nobody can observe the epochs in
/// between through the `&mut Ensemble` the call holds.
#[test]
fn one_epoch_bump_per_insert_call() {
    let (mut db, mut ens) = setup();
    let c = db.table_id("customer").unwrap();
    let row = |k: i64| vec![Value::Int(6_000_000 + k), Value::Int(40), Value::Int(k % 2)];

    let epoch = ens.plan_epoch();
    let batch: Vec<Vec<Value>> = (0..16).map(row).collect();
    ens.apply_insert_batch(&mut db, c, &batch).unwrap();
    assert_eq!(ens.plan_epoch(), epoch + 1, "16-row batch");
    ens.apply_insert(&mut db, c, &row(16)).unwrap();
    assert_eq!(ens.plan_epoch(), epoch + 2, "single insert");
}

/// Deleting a row that routes to drained model mass leaves the member
/// consistent (ensemble-level view of the empty-cluster fix): |J| and table
/// bookkeeping still apply, but the model is never desynchronized.
#[test]
fn ensemble_delete_keeps_models_consistent() {
    let (mut db, mut ens) = setup();
    let o = db.table_id("orders").unwrap();

    // Insert and then delete a burst of orders; the estimates must return to
    // the (bitwise) pre-insert state only if every delete routed cleanly —
    // which check-then-apply guarantees for tuples we just inserted.
    let c_tbl = db.table_id("customer").unwrap();
    let q = Query::count(vec![c_tbl, o]).filter(o, 2, PredOp::Cmp(CmpOp::Eq, Value::Int(0)));
    let before = execute_aqp(&ens, &db, &q).unwrap().scalar().unwrap();

    let mut pks = Vec::new();
    for k in 0..30 {
        let pk = 4_000_000 + k;
        ens.apply_insert(
            &mut db,
            o,
            &[
                Value::Int(pk),
                Value::Int(1 + (k % 5)),
                Value::Int(0),
                Value::Float(50.0),
            ],
        )
        .unwrap();
        pks.push(pk);
    }
    let mid = execute_aqp(&ens, &db, &q).unwrap().scalar().unwrap();
    assert!(mid.value >= before.value, "inserts must raise the count");

    for pk in pks {
        let row = db.table(o).find_pk(pk).unwrap();
        ens.apply_delete(&mut db, o, row).unwrap();
    }
    db.validate_integrity().unwrap();
    let after = execute_aqp(&ens, &db, &q).unwrap().scalar().unwrap();
    // Sampled absorption may skip some tuples, but whatever was absorbed was
    // reversed along the same routes; the estimate lands close to `before`.
    let rel = (after.value - before.value).abs() / before.value.max(1.0);
    assert!(rel < 0.05, "{} vs {}", after.value, before.value);
}
