//! Criterion micro-benchmarks backing the paper's latency/throughput
//! claims:
//!
//! * cardinality-estimation latency (§6.1: "µs to ms"),
//! * AQP latency (§6.2: ≤31 ms Flights, ≤293 ms SSB),
//! * RSPN update throughput (§6.1: ~55k tuples/s),
//! * SPN inference and ground-truth executor baselines for context,
//! * `batched_vs_recursive`: the arena [`BatchEvaluator`] against the
//!   recursive oracle at batch sizes 1/16/256, with a machine-readable
//!   `BENCH_spn_batch.json` summary so the perf trajectory is tracked.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use deepdb_bench::default_ensemble_params;
use deepdb_core::compile::estimate_cardinality;
use deepdb_core::{execute_aqp, EnsembleBuilder};
use deepdb_data::{flights, imdb, joblight, Scale};
use deepdb_spn::{
    BatchEvaluator, ColumnMeta, CompiledSpn, DataView, LeafFunc, LeafPred, Spn, SpnParams, SpnQuery,
};
use deepdb_storage::{execute_with_indexes, Indexes, Value};

fn bench_cardinality_latency(c: &mut Criterion) {
    let scale = Scale {
        factor: 0.2,
        seed: 42,
    };
    let db = imdb::generate(scale);
    let ens = EnsembleBuilder::new(&db)
        .params(default_ensemble_params(scale.seed))
        .build()
        .expect("ensemble");
    let workload = joblight::job_light(&db, scale.seed);
    let mut i = 0;
    c.bench_function("cardinality_estimate_joblight", |b| {
        b.iter(|| {
            let q = &workload[i % workload.len()].query;
            i += 1;
            std::hint::black_box(estimate_cardinality(&ens, &db, q).expect("estimate"))
        })
    });
    // Ground-truth executor for comparison (what the estimate replaces);
    // indexes are built once and reused, as a real system would.
    let indexes = Indexes::build(&db);
    let mut j = 0;
    c.bench_function("ground_truth_executor_joblight", |b| {
        b.iter(|| {
            let q = &workload[j % workload.len()].query;
            j += 1;
            std::hint::black_box(
                execute_with_indexes(&db, q, Some(&indexes))
                    .expect("execute")
                    .scalar()
                    .count,
            )
        })
    });
}

fn bench_aqp_latency(c: &mut Criterion) {
    let scale = Scale {
        factor: 0.2,
        seed: 42,
    };
    let db = flights::generate(scale);
    let ens = EnsembleBuilder::new(&db)
        .params(default_ensemble_params(scale.seed))
        .build()
        .expect("ensemble");
    let queries = flights::queries(&db);
    let mut i = 0;
    c.bench_function("aqp_flights_query", |b| {
        b.iter(|| {
            let q = &queries[i % queries.len()].query;
            i += 1;
            std::hint::black_box(execute_aqp(&ens, &db, q).expect("aqp"))
        })
    });
}

fn bench_update_throughput(c: &mut Criterion) {
    let scale = Scale {
        factor: 0.1,
        seed: 42,
    };
    c.bench_function("rspn_insert_order_row", |b| {
        b.iter_batched(
            || {
                let db = deepdb_storage::fixtures::correlated_customer_order(2000, 7);
                let ens = EnsembleBuilder::new(&db)
                    .params(default_ensemble_params(scale.seed))
                    .build()
                    .expect("ensemble");
                (db, ens, 1_000_000i64)
            },
            |(mut db, mut ens, base_id)| {
                let o = db.table_id("orders").unwrap();
                for k in 0..100 {
                    ens.apply_insert(
                        &mut db,
                        o,
                        &[
                            Value::Int(base_id + k),
                            Value::Int(1 + (k % 1500)),
                            Value::Int(k % 2),
                            Value::Float(99.0),
                        ],
                    )
                    .expect("insert");
                }
            },
            BatchSize::LargeInput,
        )
    });
}

/// Hierarchically clustered multi-column fixture: all columns are driven by
/// a shared latent cluster id, so column splits fail and learning recurses
/// on row splits down to the minimum slice — producing a realistically deep
/// SPN (hundreds of nodes) like the paper's IMDb/SSB models, with a
/// tuple-factor-style column so the cardinality moment slots are exercised.
fn spn_batch_fixture() -> (Spn, CompiledSpn, Vec<SpnQuery>) {
    let n = 40_000;
    let mut state = 0xBA7C4u64;
    let mut rng = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as f64 / (1u64 << 31) as f64
    };
    let mut cols: Vec<Vec<f64>> = (0..4).map(|_| Vec::with_capacity(n)).collect();
    for _ in 0..n {
        let c = (rng() * 64.0).floor(); // latent cluster 0..63
                                        // Every column tracks the latent id, so columns stay RDC-dependent
                                        // until a slice isolates one cluster — forcing deep row splits.
        cols[0].push(c * 10.0 + (rng() * 3.0).floor());
        cols[1].push(c * 7.0 + (rng() * 5.0).floor());
        cols[2].push(if rng() < 0.05 {
            f64::NAN
        } else {
            c * 3.0 + (rng() * 10.0).floor()
        });
        cols[3].push((c % 5.0) + (rng() * 2.0).floor()); // factor-like, may be 0
    }
    let meta = vec![
        ColumnMeta::discrete("region"),
        ColumnMeta::discrete("age"),
        ColumnMeta::discrete("amount"),
        ColumnMeta::discrete("factor"),
    ];
    let params = SpnParams {
        min_instance_ratio: 0.0025,
        ..SpnParams::default()
    };
    let spn = Spn::learn(DataView::new(&cols, &meta), &params);
    let compiled = spn.compile();

    // Cardinality-style probes: predicate conjunctions plus the Theorem-1
    // clamped-inverse normalization on the factor column.
    let mut queries = Vec::new();
    for v in 0..8i64 {
        queries.push(
            SpnQuery::new(4)
                .with_pred(0, LeafPred::eq((v * 80) as f64))
                .with_func(3, LeafFunc::InvClamp1),
        );
        queries.push(
            SpnQuery::new(4)
                .with_pred(0, LeafPred::ge((v * 70) as f64))
                .with_pred(1, LeafPred::le((300 + v * 10) as f64))
                .with_func(3, LeafFunc::InvClamp1),
        );
        queries.push(
            SpnQuery::new(4)
                .with_pred(1, LeafPred::lt((40 + v * 50) as f64))
                .with_pred(2, LeafPred::IsNotNull)
                .with_func(2, LeafFunc::X),
        );
        queries.push(
            SpnQuery::new(4)
                .with_pred(2, LeafPred::IsNull)
                .with_pred(0, LeafPred::le((v * 80) as f64)),
        );
    }
    (spn, compiled, queries)
}

/// Median ns per *query* over `reps` runs of `f` (which evaluates `batch`
/// queries per run).
fn median_ns_per_query(reps: usize, batch: usize, mut f: impl FnMut() -> f64) -> f64 {
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = std::time::Instant::now();
        std::hint::black_box(f());
        samples.push(t0.elapsed().as_nanos() as f64 / batch as f64);
    }
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

fn bench_batched_vs_recursive(c: &mut Criterion) {
    let (mut spn, compiled, queries) = spn_batch_fixture();
    let mut ev = BatchEvaluator::new();
    let sizes = [1usize, 16, 256];

    let mut summary = Vec::new();
    for &size in &sizes {
        let batch: Vec<SpnQuery> = (0..size)
            .map(|i| queries[i % queries.len()].clone())
            .collect();

        // The determinism contract the speedup rests on: the batched sweep
        // is bitwise equal to the recursive oracle.
        let batched = ev.evaluate(&compiled, &batch, None);
        for (i, (a, q)) in batched.iter().zip(&batch).enumerate() {
            let want = spn.evaluate(q);
            assert_eq!(a.to_bits(), want.to_bits(), "batch {size}, query {i}");
        }

        c.bench_function(&format!("batched_vs_recursive/recursive_{size}"), |b| {
            b.iter(|| {
                let mut acc = 0.0;
                for q in &batch {
                    acc += spn.evaluate(q);
                }
                acc
            })
        });
        c.bench_function(&format!("batched_vs_recursive/batched_{size}"), |b| {
            b.iter(|| ev.evaluate(&compiled, &batch, None))
        });

        // Machine-readable summary (median of 64 runs each).
        let rec_ns = median_ns_per_query(64, size, || {
            let mut acc = 0.0;
            for q in &batch {
                acc += spn.evaluate(q);
            }
            acc
        });
        let bat_ns = median_ns_per_query(64, size, || ev.evaluate(&compiled, &batch, None)[0]);
        summary.push((size, rec_ns, bat_ns));
    }

    let mut json =
        String::from("{\n  \"bench\": \"spn_batched_vs_recursive\",\n  \"model_nodes\": ");
    json.push_str(&compiled.n_nodes().to_string());
    json.push_str(",\n  \"host_parallelism\": ");
    json.push_str(
        &std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .to_string(),
    );
    json.push_str(",\n  \"results\": [\n");
    for (i, (size, rec_ns, bat_ns)) in summary.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"batch_size\": {size}, \"recursive_ns_per_query\": {rec_ns:.1}, \
             \"batched_ns_per_query\": {bat_ns:.1}, \"speedup\": {:.2}}}{}\n",
            rec_ns / bat_ns,
            if i + 1 < summary.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    // Anchor at the workspace root regardless of the bench's working dir.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_spn_batch.json");
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("could not write {path}: {e}");
    }
    println!("{json}");
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(4)).warm_up_time(std::time::Duration::from_secs(1));
    targets = bench_batched_vs_recursive, bench_cardinality_latency, bench_aqp_latency, bench_update_throughput
}
criterion_main!(benches);
