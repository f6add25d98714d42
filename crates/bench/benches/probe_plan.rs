//! `probe_plan_groupby`: the deferred probe-plan layer under a GROUP BY
//! shaped load — every group contributes its count / moment / squared-moment
//! probes to ONE fused [`ProbePlan`], which sweeps the touched RSPN member
//! once with tiles spread over 1/2/4 worker threads.
//!
//! Grids: 16 / 64 / 256 groups × 1 / 2 / 4 threads. Besides the criterion
//! rows, a machine-readable `BENCH_probe_plan.json` summary lands next to
//! `BENCH_spn_batch.json` so the plan path's perf trajectory is tracked
//! (multi-thread speedups are only meaningful on multi-core hosts; the JSON
//! records `host_parallelism` so single-core CI smoke runs are
//! interpretable). `DEEPDB_FAST=1` shrinks the model and the rep counts for
//! the CI smoke run that keeps this target from rotting.

use criterion::{criterion_group, criterion_main, Criterion};
use deepdb_core::{Ensemble, EnsembleBuilder, EnsembleParams, ProbePlan};
use deepdb_spn::{LeafFunc, LeafPred, SpnParams};
use deepdb_storage::{Database, Domain, TableSchema, Value};

fn fast() -> bool {
    std::env::var("DEEPDB_FAST").is_ok_and(|v| v == "1")
}

/// Hierarchically clustered single-table database: every column tracks a
/// shared latent cluster id, so column splits fail and SPN learning recurses
/// on row splits — producing a realistically deep model (like the paper's
/// IMDb/SSB RSPNs) whose sweeps are worth parallelizing. The `g` column
/// carries 256 distinct group values.
fn grouped_fixture() -> (Database, Ensemble, usize) {
    let n: i64 = if fast() { 6_000 } else { 40_000 };
    let mut db = Database::new("probe_plan_fixture");
    db.create_table(
        TableSchema::new("facts")
            .pk("id")
            .col("g", Domain::Discrete)
            .col("a", Domain::Discrete)
            .col("b", Domain::Discrete),
    )
    .expect("fresh catalog");

    let mut state = 0xBA7C4u64;
    let mut rng = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as f64 / (1u64 << 31) as f64
    };
    for id in 0..n {
        let c = (rng() * 64.0).floor(); // latent cluster 0..63
        let g = c * 4.0 + (rng() * 4.0).floor(); // 256 group values
        let a = c * 7.0 + (rng() * 5.0).floor();
        let b = c * 3.0 + (rng() * 10.0).floor();
        db.insert(
            "facts",
            &[
                Value::Int(id),
                Value::Int(g as i64),
                Value::Int(a as i64),
                Value::Int(b as i64),
            ],
        )
        .expect("valid row");
    }

    let params = EnsembleParams {
        sample_size: n as usize,
        correlation_sample: 500,
        spn: SpnParams {
            min_instance_ratio: 0.0025,
            ..SpnParams::default()
        },
        ..EnsembleParams::default()
    };
    let ens = EnsembleBuilder::new(&db)
        .params(params)
        .build()
        .expect("ensemble");
    let model_nodes = ens.rspns()[0].model_size();
    (db, ens, model_nodes)
}

/// One GROUP BY-shaped plan: per group, a count probe plus an X and an X²
/// moment probe on the aggregate column (what `execute_aqp` registers per
/// group for a SUM/AVG with variance).
fn build_plan(ens: &Ensemble, db: &Database, n_groups: usize) -> ProbePlan {
    let t = db.table_id("facts").expect("fixture table");
    let rspn = &ens.rspns()[0];
    let g_col = rspn.data_column(t, 1).expect("g modeled");
    let a_col = rspn.data_column(t, 2).expect("a modeled");
    let mut plan = ProbePlan::new();
    for g in 0..n_groups {
        let gv = (g % 256) as f64;
        let count_q = rspn.new_query().with_pred(g_col, LeafPred::eq(gv));
        let sum_q = rspn
            .new_query()
            .with_pred(g_col, LeafPred::eq(gv))
            .with_func(a_col, LeafFunc::X);
        let sq_q = rspn
            .new_query()
            .with_pred(g_col, LeafPred::eq(gv))
            .with_func(a_col, LeafFunc::X2);
        plan.register(0, count_q);
        plan.register(0, sum_q);
        plan.register(0, sq_q);
    }
    plan
}

/// Median ns over `reps` runs of `f`.
fn median_ns<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = std::time::Instant::now();
        std::hint::black_box(f());
        samples.push(t0.elapsed().as_nanos() as f64);
    }
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

fn bench_probe_plan_groupby(c: &mut Criterion) {
    let (db, ens, model_nodes) = grouped_fixture();
    let group_sizes = [16usize, 64, 256];
    let thread_counts = [1usize, 2, 4];
    let reps = if fast() { 9 } else { 41 };

    let mut rows = Vec::new();
    for &n_groups in &group_sizes {
        let plan = build_plan(&ens, &db, n_groups);
        let mut per_thread = Vec::new();
        for &threads in &thread_counts {
            c.bench_function(&format!("probe_plan_groupby/{n_groups}g_{threads}t"), |b| {
                b.iter(|| plan.execute_with_threads(&ens, threads))
            });
            let ns = median_ns(reps, || plan.execute_with_threads(&ens, threads));
            per_thread.push((threads, ns));
        }
        rows.push((n_groups, per_thread));
    }

    // Sanity: the plan still produces finite values end to end.
    let rspn = &ens.rspns()[0];
    let mut sanity = ProbePlan::new();
    let h = sanity.register(0, rspn.new_query());
    let results = sanity.execute_with_threads(&ens, 2);
    assert!(results.value(h).is_finite());

    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut json = String::from("{\n  \"bench\": \"probe_plan_groupby\",\n");
    json.push_str(&format!("  \"model_nodes\": {model_nodes},\n"));
    json.push_str(&format!("  \"host_parallelism\": {host},\n"));
    json.push_str("  \"results\": [\n");
    for (i, (n_groups, per_thread)) in rows.iter().enumerate() {
        let t1 = per_thread
            .iter()
            .find(|(t, _)| *t == 1)
            .map(|(_, ns)| *ns)
            .unwrap_or(f64::NAN);
        json.push_str(&format!(
            "    {{\"n_groups\": {n_groups}, \"probes\": {}, ",
            n_groups * 3
        ));
        json.push_str("\"threads\": [");
        for (j, (threads, ns)) in per_thread.iter().enumerate() {
            json.push_str(&format!(
                "{{\"threads\": {threads}, \"ns\": {ns:.0}, \"speedup_vs_1t\": {:.2}}}{}",
                t1 / ns,
                if j + 1 < per_thread.len() { ", " } else { "" }
            ));
        }
        let best = per_thread.iter().map(|(_, ns)| t1 / ns).fold(0.0, f64::max);
        json.push_str(&format!(
            "], \"best_speedup\": {best:.2}}}{}\n",
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_probe_plan.json");
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("could not write {path}: {e}");
    }
    println!("{json}");
}

criterion_group! {
    name = benches;
    config = {
        let (samples, secs) = if fast() { (5, 1) } else { (15, 3) };
        Criterion::default()
            .sample_size(samples)
            .measurement_time(std::time::Duration::from_secs(secs))
            .warm_up_time(std::time::Duration::from_millis(if fast() { 100 } else { 500 }))
    };
    targets = bench_probe_plan_groupby
}
criterion_main!(benches);
