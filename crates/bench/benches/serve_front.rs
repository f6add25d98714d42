//! `serve_front`: concurrent serving throughput/latency at 1 / 8 / 64
//! clients, load-driven fused batching vs. per-client execution.
//!
//! Two lanes over the same pool of two-table Case-3 COUNT shapes
//! (single-table RSPNs, so every query combines both members):
//!
//! * **per-client** — batching disabled (`window = 0`, `max_batch = 1`):
//!   every request plans through the cache and sweeps alone, the
//!   pre-serving behavior with admission control on top.
//! * **fused** — the default [`ServeConfig`]: a request sweeps at once
//!   while a sweep lane is free, and requests arriving while every lane is
//!   busy are merged into one shared sweep per touched member when a lane
//!   frees.
//!
//! Both lanes are asserted **bitwise identical** to the unfused
//! single-query compile path per shape before any timing. Writes
//! `BENCH_serve_front.json` with QPS and p99 latency per lane and client
//! count plus `host_parallelism`; the acceptance gate is fused ≥
//! per-client QPS at 8+ clients. `DEEPDB_FAST=1` only shortens the
//! criterion lane for the CI smoke run: the fixture learns in under 0.1 s,
//! and the gate needs the deep models and the full request counts to mean
//! anything.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion};
use deepdb_core::{
    compile, Ensemble, EnsembleBuilder, EnsembleParams, EnsembleStrategy, ServeConfig, ServeFront,
};
use deepdb_storage::fixtures::correlated_customer_order;
use deepdb_storage::{CmpOp, Database, PredOp, Query, Value};

fn fast() -> bool {
    std::env::var("DEEPDB_FAST").is_ok_and(|v| v == "1")
}

fn fixture() -> (Database, Ensemble) {
    let db = correlated_customer_order(4_000, 41);
    // Deep SPNs — a zero independence threshold treats every column pair as
    // dependent, forcing row splits down to small leaf slices, so the
    // per-member sweep is the dominant cost. That is the serving regime
    // fusion exists for; model quality is irrelevant here (bitwise
    // agreement is asserted, not accuracy), hence also the few Lloyd
    // iterations.
    let spn = deepdb_spn::SpnParams {
        rdc_threshold: 0.0,
        min_instance_ratio: 0.001,
        kmeans_iters: 4,
        ..deepdb_spn::SpnParams::default()
    };
    let params = EnsembleParams {
        strategy: EnsembleStrategy::SingleTables, // two-table COUNTs are Case 3
        sample_size: 4_000,
        correlation_sample: 500,
        spn,
        ..EnsembleParams::default()
    };
    let ens = EnsembleBuilder::new(&db)
        .params(params)
        .build()
        .expect("ensemble");
    (db, ens)
}

/// A mixed-radix shape pool: pairwise-distinct
/// cache keys, literals varying with `i`.
fn shape_query(i: usize) -> Query {
    let (cu, o) = (0usize, 1usize);
    let mut q = Query::count(vec![cu, o]);
    let age_lit = 22 + (i as i64 % 17);
    q = match i % 4 {
        0 => q.filter(cu, 1, PredOp::Cmp(CmpOp::Eq, Value::Int(age_lit))),
        1 => q.filter(cu, 1, PredOp::Cmp(CmpOp::Le, Value::Int(age_lit + 20))),
        2 => q.filter(cu, 1, PredOp::Cmp(CmpOp::Ge, Value::Int(age_lit))),
        _ => q.filter(
            cu,
            1,
            PredOp::Between(Value::Int(age_lit), Value::Int(age_lit + 15)),
        ),
    };
    q = match (i / 4) % 3 {
        0 => q,
        1 => q.filter(cu, 2, PredOp::Cmp(CmpOp::Eq, Value::Int(i as i64 % 3))),
        _ => q.filter(
            cu,
            2,
            PredOp::In(vec![
                Value::Int(i as i64 % 3),
                Value::Int((i as i64 + 1) % 3),
            ]),
        ),
    };
    if (i / 12) % 2 == 1 {
        q = q.filter(o, 2, PredOp::Cmp(CmpOp::Eq, Value::Int(i as i64 % 2)));
    }
    match (i / 24) % 3 {
        0 => q,
        1 => q.filter(o, 3, PredOp::Cmp(CmpOp::Le, Value::Float(120.0 + i as f64))),
        _ => q.filter(o, 3, PredOp::Cmp(CmpOp::Ge, Value::Float(40.0 + i as f64))),
    }
}

/// Drive `clients` synchronous clients for `per_client` requests each.
/// Returns (QPS over the whole run, p99 request latency in ns).
fn run_lane(
    front: &ServeFront<'_>,
    pool: &[Query],
    clients: usize,
    per_client: usize,
) -> (f64, f64) {
    let barrier = Barrier::new(clients + 1);
    let (mut latencies, wall) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let barrier = &barrier;
                s.spawn(move || {
                    let mut lat = Vec::with_capacity(per_client);
                    barrier.wait();
                    for r in 0..per_client {
                        let q = &pool[(c + r * clients) % pool.len()];
                        let t0 = Instant::now();
                        front.serve(q, None).expect("serve");
                        lat.push(t0.elapsed().as_nanos() as f64);
                    }
                    lat
                })
            })
            .collect();
        barrier.wait();
        let t0 = Instant::now();
        let lat: Vec<f64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        (lat, t0.elapsed().as_secs_f64())
    });
    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let p99 = latencies[((latencies.len() as f64 * 0.99) as usize).min(latencies.len() - 1)];
    let qps = (clients * per_client) as f64 / wall;
    (qps, p99)
}

fn bench_serve_front(c: &mut Criterion) {
    let (db, ens) = fixture();
    let pool: Vec<Query> = (0..64).map(shape_query).collect();
    let per_client = 200;

    let solo_cfg = ServeConfig {
        window: Duration::ZERO,
        max_batch: 1,
        ..ServeConfig::default()
    };
    // Acceptance first: both serving lanes are bitwise-identical to the
    // unfused single-query compile path on every shape.
    {
        let solo = ServeFront::with_config(&ens, &db, solo_cfg.clone());
        let fused = ServeFront::new(&ens, &db);
        for (i, q) in pool.iter().enumerate() {
            let want = compile::estimate_count(&ens, &db, q).expect("reference");
            let a = solo.serve(q, None).expect("solo");
            let b = fused.serve(q, None).expect("fused");
            assert_eq!(
                want.value.to_bits(),
                a.value.to_bits(),
                "shape {i}: per-client lane diverges"
            );
            assert_eq!(want.variance.to_bits(), a.variance.to_bits());
            assert_eq!(
                want.value.to_bits(),
                b.value.to_bits(),
                "shape {i}: fused lane diverges"
            );
            assert_eq!(want.variance.to_bits(), b.variance.to_bits());
        }
    }

    // Criterion lane: single-request serving latency through the front.
    {
        let solo = ServeFront::with_config(&ens, &db, solo_cfg.clone());
        let mut i = 0usize;
        c.bench_function("serve_front/1/serve", |b| {
            b.iter(|| {
                let q = &pool[i % pool.len()];
                i += 1;
                solo.serve(q, None).expect("serve")
            })
        });
    }

    let mut rows = Vec::new();
    for clients in [1usize, 8, 64] {
        let solo = ServeFront::with_config(&ens, &db, solo_cfg.clone());
        let (solo_qps, solo_p99) = run_lane(&solo, &pool, clients, per_client);

        // Batches size themselves from the load (whatever queues behind the
        // busy lanes), so the library default serves every client count.
        let fused = ServeFront::new(&ens, &db);
        let (fused_qps, fused_p99) = run_lane(&fused, &pool, clients, per_client);
        let fused_stats = fused.stats();

        println!(
            "serve_front/{clients}: per-client {solo_qps:.0} qps (p99 {:.0} µs), \
             fused {fused_qps:.0} qps (p99 {:.0} µs), {} batches for {} requests",
            solo_p99 / 1e3,
            fused_p99 / 1e3,
            fused_stats.batches,
            fused_stats.admitted,
        );
        rows.push((clients, solo_qps, solo_p99, fused_qps, fused_p99));
    }

    // The acceptance gate: once concurrency is real (8+ clients), fused
    // batching must not lose to per-client sweeps.
    for &(clients, solo_qps, _, fused_qps, _) in &rows {
        if clients >= 8 {
            assert!(
                fused_qps >= solo_qps,
                "{clients} clients: fused ({fused_qps:.0} qps) must be ≥ \
                 per-client ({solo_qps:.0} qps)"
            );
        }
    }

    let host = std::thread::available_parallelism().map_or(1, |x| x.get());
    let mut json = String::from("{\n  \"bench\": \"serve_front\",\n");
    json.push_str(&format!("  \"host_parallelism\": {host},\n"));
    json.push_str(&format!("  \"ensemble_members\": {},\n", ens.rspns().len()));
    json.push_str(&format!("  \"requests_per_client\": {per_client},\n"));
    json.push_str("  \"results\": [\n");
    for (i, (clients, solo_qps, solo_p99, fused_qps, fused_p99)) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"clients\": {clients}, \"per_client_qps\": {solo_qps:.0}, \
             \"per_client_p99_ns\": {solo_p99:.0}, \"fused_qps\": {fused_qps:.0}, \
             \"fused_p99_ns\": {fused_p99:.0}, \"fused_over_per_client\": {:.2}}}{}\n",
            fused_qps / solo_qps.max(1.0),
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve_front.json");
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
    targets = bench_serve_front
}
criterion_main!(benches);
