//! Tier-1 guard for the SPN sweep kernels and the arena's update and
//! snapshot paths: batched expectation and max-product evaluation on the
//! compiled arena agree with the recursive oracle bit for bit — at batch
//! sizes on both sides of the sweep tile, with and without sub-DAG pruning,
//! and after in-place inserts and deletes walked independently on the arena
//! and the tree oracle. Every arena survives a snapshot round trip bitwise,
//! and the snapshot bytes of a fixed model are pinned. The threaded sweep
//! agrees with the inline one, surfaces a helper's panic on the calling
//! thread, and honours a cancel flag.

use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

use deepdb::spn::{
    BatchEvaluator, CancelFlag, ColumnMeta, CompiledSpn, DataView, LeafFunc, LeafPred,
    MaxProductEvaluator, MpeProbe, Spn, SpnParams, SpnQuery, SweepJob, SweepTables, TileFault,
    TileFaultFn, WorkerPool,
};

/// One- to five-probe batches (a cardinality probe bundle is one to three)
/// and batches straddling the 32-probe sweep tile.
const SIZES: [usize; 9] = [1, 2, 3, 4, 5, 31, 32, 33, 65];

/// Learn a 3-column model over `rows` seeded rows: two discrete columns
/// driven by a latent cluster id (so learning splits rows and columns) and
/// a nullable factor-like column (NaN = NULL).
fn learn(rows: usize, clusters: u64, params: &SpnParams) -> Spn {
    let mut state = 0x5EED ^ clusters;
    let mut draw = move |m: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % m
    };
    let mut cols: Vec<Vec<f64>> = vec![Vec::new(); 3];
    for _ in 0..rows {
        let c = draw(clusters);
        cols[0].push((c * 3 + draw(3)) as f64);
        cols[1].push((c * 5 + draw(5)) as f64);
        cols[2].push(if draw(7) == 0 {
            f64::NAN
        } else {
            (c % 4 + draw(2)) as f64
        });
    }
    let meta = vec![
        ColumnMeta::discrete("a"),
        ColumnMeta::discrete("b"),
        ColumnMeta::discrete("f"),
    ];
    Spn::learn(DataView::new(&cols, &meta), params)
}

fn queries() -> Vec<SpnQuery> {
    vec![
        SpnQuery::new(3),
        SpnQuery::new(3).with_pred(0, LeafPred::eq(4.0)),
        SpnQuery::new(3)
            .with_pred(1, LeafPred::ge(12.0))
            .with_func(2, LeafFunc::InvClamp1),
        SpnQuery::new(3).with_pred(2, LeafPred::IsNull),
        SpnQuery::new(3)
            .with_pred(2, LeafPred::IsNotNull)
            .with_func(2, LeafFunc::X2),
        SpnQuery::new(3)
            .with_pred(0, LeafPred::In(vec![1.0, 7.0, 99.0]))
            .with_func(1, LeafFunc::X),
        // Empty support: a value no row holds.
        SpnQuery::new(3).with_pred(1, LeafPred::eq(1000.0)),
    ]
}

fn probes() -> Vec<MpeProbe> {
    vec![
        MpeProbe::new(0, SpnQuery::new(3)),
        MpeProbe::new(1, SpnQuery::new(3).with_pred(0, LeafPred::le(5.0))),
        MpeProbe::new(2, SpnQuery::new(3).with_pred(1, LeafPred::ge(20.0))),
        MpeProbe::new(0, SpnQuery::new(3).with_pred(2, LeafPred::IsNull)),
        MpeProbe::new(1, SpnQuery::new(3).with_pred(0, LeafPred::eq(1000.0))),
    ]
}

/// Columns a batch constrains, plus MPE targets: the cover an active set
/// needs for the pruned sweep to equal the full one.
fn cover(queries: &[SpnQuery], probes: &[MpeProbe]) -> Vec<usize> {
    let mut cols = BTreeSet::new();
    for q in queries {
        cols.extend(q.active_columns());
    }
    for p in probes {
        cols.extend(p.query.active_columns());
        cols.insert(p.target);
    }
    cols.into_iter().collect()
}

fn check(spn: &mut Spn, arena: &CompiledSpn, label: &str) {
    let (qs, ps) = (queries(), probes());
    let mut ev = BatchEvaluator::new();
    let mut mp = MaxProductEvaluator::new();
    for n in SIZES {
        let batch: Vec<SpnQuery> = (0..n).map(|i| qs[i % qs.len()].clone()).collect();
        let want: Vec<u64> = batch.iter().map(|q| spn.evaluate(q).to_bits()).collect();
        let active = arena.active_set(&cover(&batch, &[]));
        for set in [None, Some(&active)] {
            let got: Vec<u64> = ev
                .evaluate(arena, &batch, set)
                .iter()
                .map(|v| v.to_bits())
                .collect();
            let pruned = set.is_some();
            assert_eq!(
                got, want,
                "{label}: expectation, {n} probes, pruned {pruned}"
            );
        }

        let batch: Vec<MpeProbe> = (0..n).map(|i| ps[i % ps.len()].clone()).collect();
        let want: Vec<(u64, Option<u64>)> = batch
            .iter()
            .map(|p| {
                let (score, value) = spn.mpe_outcome(p.target, &p.query);
                (score.to_bits(), value.map(f64::to_bits))
            })
            .collect();
        let active = arena.active_set(&cover(&[], &batch));
        for set in [None, Some(&active)] {
            let got: Vec<(u64, Option<u64>)> = mp
                .evaluate(arena, &batch, set)
                .iter()
                .map(|o| (o.score.to_bits(), o.value.map(f64::to_bits)))
                .collect();
            let pruned = set.is_some();
            assert_eq!(
                got, want,
                "{label}: max-product, {n} probes, pruned {pruned}"
            );
        }
    }
}

fn deep_params() -> SpnParams {
    SpnParams {
        min_instance_ratio: 0.01,
        ..SpnParams::default()
    }
}

/// `read_from(write_to(arena))` is the arena, bit for bit; returns the bytes.
fn assert_round_trip(arena: &CompiledSpn, label: &str) -> Vec<u8> {
    let mut bytes = Vec::new();
    arena.write_to(&mut bytes).unwrap();
    let restored = CompiledSpn::read_from(&mut bytes.as_slice()).unwrap();
    assert!(restored.bitwise_eq(arena), "{label}: snapshot round trip");
    bytes
}

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn compiled_sweeps_match_the_recursive_oracle_bitwise() {
    for (label, mut spn) in [
        ("shallow", learn(300, 3, &SpnParams::default())),
        ("deep", learn(800, 8, &deep_params())),
    ] {
        let mut arena = spn.compile();
        assert!(
            arena.n_nodes() > arena.n_leaves() + 1,
            "{label}: the model must have inner nodes to sweep"
        );
        check(&mut spn, &arena, label);
        let bytes = assert_round_trip(&arena, label);
        if label == "shallow" {
            // The `DSPN1` bytes of this fixed model, as the tree-based
            // writer produced them: the format must not drift.
            assert_eq!(
                (bytes.len(), fnv1a64(&bytes)),
                (6040, 0x1167_ffd1_0663_faf3),
                "DSPN1 bytes changed"
            );
        }
        let rows: Vec<[f64; 3]> = (0..6u32)
            .map(|k| {
                let f = if k % 3 == 0 { f64::NAN } else { 1.0 };
                [f64::from(k), f64::from(k * 5), f]
            })
            .collect();
        for row in &rows {
            spn.insert(row);
            arena.insert(row);
        }
        check(&mut spn, &arena, &format!("{label} after inserts"));
        assert_round_trip(&arena, &format!("{label} after inserts"));
        for row in &rows {
            assert!(spn.delete(row), "{label}: oracle delete");
            assert!(arena.delete(row), "{label}: arena delete");
        }
        check(&mut spn, &arena, &format!("{label} after deletes"));
        assert_round_trip(&arena, &format!("{label} after deletes"));
    }
}

/// One job per (model, batch) pair, all in one job list, with shared hooks.
fn jobs<'a>(
    models: &'a [CompiledSpn],
    batches: &'a [Vec<SpnQuery>],
    outs: &'a mut [Vec<f64>],
    tables: &'a mut [SweepTables],
    cancel: Option<&'a CancelFlag>,
    fault: Option<&'a TileFaultFn<'a>>,
) -> Vec<SweepJob<'a>> {
    outs.iter_mut()
        .zip(tables)
        .enumerate()
        .map(|(i, (out, tables))| SweepJob {
            spn: &models[i / batches.len()],
            queries: &batches[i % batches.len()],
            out,
            mpe: &[],
            mpe_out: &mut [],
            tables,
            cancel,
            fault,
            active: None,
        })
        .collect()
}

fn bits(outs: &[Vec<f64>]) -> Vec<Vec<u64>> {
    outs.iter()
        .map(|o| o.iter().map(|v| v.to_bits()).collect())
        .collect()
}

#[test]
fn threaded_sweeps_match_inline_and_surface_helper_faults() {
    let models = [
        learn(300, 3, &SpnParams::default()).compile(),
        learn(800, 8, &deep_params()).compile(),
    ];
    let qs = queries();
    // 65 and 130 probes: three and five tiles per job, sixteen in all.
    let batches: Vec<Vec<SpnQuery>> = [65, 130]
        .into_iter()
        .map(|n| (0..n).map(|i| qs[i % qs.len()].clone()).collect())
        .collect();
    let zeroed = || -> Vec<Vec<f64>> {
        models
            .iter()
            .flat_map(|_| batches.iter().map(|b| vec![0.0; b.len()]))
            .collect()
    };
    let mut ev = BatchEvaluator::new();
    let want: Vec<Vec<u64>> = models
        .iter()
        .flat_map(|m| {
            batches
                .iter()
                .map(|b| ev.evaluate(m, b, None))
                .collect::<Vec<_>>()
        })
        .map(|o| o.iter().map(|v| v.to_bits()).collect())
        .collect();

    let pool = WorkerPool::new();
    let mut tables = vec![SweepTables::default(); want.len()];
    for threads in [1, 2, 4] {
        let mut outs = zeroed();
        pool.sweep(
            jobs(&models, &batches, &mut outs, &mut tables, None, None),
            threads,
        );
        assert_eq!(bits(&outs), want, "{threads} threads");
    }

    // Make the faulty tile land on the helper: the calling thread holds its
    // first tile until the helper has taken one (a helper that never drains
    // releases it after the timeout, and then no tile panics).
    let caller = std::thread::current().id();
    let released = (Mutex::new(false), Condvar::new());
    let fault = || {
        let (lock, cv) = &released;
        let mut released = lock.lock().unwrap();
        if std::thread::current().id() == caller {
            released = cv
                .wait_timeout_while(released, Duration::from_secs(5), |r| !*r)
                .unwrap()
                .0;
            *released = true;
            None
        } else {
            *released = true;
            cv.notify_all();
            Some(TileFault::Panic)
        }
    };
    let mut outs = zeroed();
    let job_list = jobs(
        &models,
        &batches,
        &mut outs,
        &mut tables,
        None,
        Some(&fault),
    );
    let panicked = catch_unwind(AssertUnwindSafe(|| pool.sweep(job_list, 2))).is_err();
    assert!(
        panicked,
        "the helper's tile panic must surface on the caller"
    );
    // The next sweep on the same pool and tables is bitwise clean.
    let mut outs = zeroed();
    pool.sweep(
        jobs(&models, &batches, &mut outs, &mut tables, None, None),
        2,
    );
    assert_eq!(bits(&outs), want, "after a panicked sweep");

    // A pre-cancelled sweep skips every tile and still returns.
    let flag = CancelFlag::new();
    flag.cancel();
    let mut outs = zeroed();
    pool.sweep(
        jobs(&models, &batches, &mut outs, &mut tables, Some(&flag), None),
        2,
    );
    assert!(outs.iter().flatten().all(|&v| v == 0.0));
}
