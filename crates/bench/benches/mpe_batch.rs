//! `mpe_batch`: compiled batched max-product inference (the classification
//! serving path) vs. per-row recursive MPE, at batch sizes 1/16/256.
//!
//! The compiled path sweeps the arena once per 32-probe tile with predicate
//! normalization hoisted per probe and resolves winning branches against the
//! arena's cached leaf modes; the recursive baseline walks the `Node` tree
//! per prediction, re-normalizing predicates at every leaf visit. The JSON
//! summary (`BENCH_mpe_batch.json`) records ns/prediction for the SIMD
//! compiled path, its scalar-kernel twin, and the recursive baseline per
//! batch size so the trajectory is machine-checkable; `DEEPDB_FAST=1`
//! shrinks the model and rep counts for the CI smoke run. The bench asserts
//! all paths return identical predictions (value equality, bitwise score
//! equality; SIMD ≡ scalar bitwise) before timing anything.

use criterion::{criterion_group, criterion_main, Criterion};
use deepdb_spn::{
    ColumnMeta, DataView, LeafPred, MaxProductEvaluator, MpeProbe, Spn, SpnParams, SpnQuery,
};

fn fast() -> bool {
    std::env::var("DEEPDB_FAST").is_ok_and(|v| v == "1")
}

fn lcg(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed;
    move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as f64 / (1u64 << 31) as f64
    }
}

/// Hierarchically clustered 3-column table (class, a, b track a latent
/// cluster id) so learning yields a realistically deep model; `class` is the
/// classification target, `a`/`b` carry the evidence.
fn training_data(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<ColumnMeta>) {
    let mut rng = lcg(seed);
    let (mut class, mut a, mut b) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..n {
        let c = (rng() * 16.0).floor();
        class.push(c);
        a.push(c * 7.0 + (rng() * 5.0).floor());
        b.push(c * 3.0 + (rng() * 10.0).floor());
    }
    (
        vec![class, a, b],
        vec![
            ColumnMeta::discrete("class"),
            ColumnMeta::discrete("a"),
            ColumnMeta::discrete("b"),
        ],
    )
}

/// Evidence probes drawn from the training distribution (plus a few
/// no-support rows so the zero-score path is timed too).
fn probe_batch(k: usize, seed: u64) -> Vec<MpeProbe> {
    let mut rng = lcg(seed);
    (0..k)
        .map(|i| {
            let c = (rng() * 16.0).floor();
            let mut q =
                SpnQuery::new(3).with_pred(1, LeafPred::eq(c * 7.0 + (rng() * 5.0).floor()));
            if i % 3 == 0 {
                q.add_pred(2, LeafPred::ge(c * 3.0));
            }
            if i % 17 == 0 {
                q.add_pred(2, LeafPred::eq(-5.0)); // never observed
            }
            MpeProbe::new(0, q)
        })
        .collect()
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

fn bench_mpe_batch(c: &mut Criterion) {
    let n = if fast() { 4_000 } else { 30_000 };
    let reps = if fast() { 9 } else { 31 };
    let (cols, meta) = training_data(n, 0xBEEF ^ n as u64);
    let mut spn = Spn::learn(
        DataView::new(&cols, &meta),
        &SpnParams {
            min_instance_ratio: 0.003,
            ..SpnParams::default()
        },
    );
    let arena = spn.compile();
    let model_nodes = spn.size();
    let probes = probe_batch(256, 0xD00D);

    // Acceptance first: compiled ≡ recursive on every probe, and the SIMD
    // kernels ≡ the scalar reference path bitwise.
    let mut ev = MaxProductEvaluator::new();
    let compiled_out = ev.evaluate(&arena, &probes, None);
    let scalar_out = ev.evaluate_scalar(&arena, &probes);
    for (i, p) in probes.iter().enumerate() {
        let (score, value) = spn.mpe_outcome(p.target, &p.query);
        assert_eq!(compiled_out[i].value, value, "probe {i}: paths diverged");
        assert_eq!(
            compiled_out[i].score.to_bits(),
            score.to_bits(),
            "probe {i}: scores diverged"
        );
        assert_eq!(compiled_out[i], scalar_out[i], "probe {i}: simd vs scalar");
    }

    let mut rows = Vec::new();
    for batch in [1usize, 16, 256] {
        let slice = &probes[..batch];
        c.bench_function(&format!("mpe_batch/{batch}/compiled"), |b| {
            b.iter(|| ev.evaluate(&arena, slice, None))
        });
        c.bench_function(&format!("mpe_batch/{batch}/compiled_scalar"), |b| {
            b.iter(|| ev.evaluate_scalar(&arena, slice))
        });
        c.bench_function(&format!("mpe_batch/{batch}/recursive"), |b| {
            b.iter(|| {
                slice
                    .iter()
                    .map(|p| spn.most_probable_value(p.target, &p.query))
                    .collect::<Vec<_>>()
            })
        });
        let compiled_ns = median_ns(reps, || ev.evaluate(&arena, slice, None)) / batch as f64;
        let scalar_ns = median_ns(reps, || ev.evaluate_scalar(&arena, slice)) / batch as f64;
        let recursive_ns = median_ns(reps, || {
            slice
                .iter()
                .map(|p| spn.most_probable_value(p.target, &p.query))
                .collect::<Vec<_>>()
        }) / batch as f64;
        rows.push((batch, compiled_ns, scalar_ns, recursive_ns));
    }

    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut json = String::from("{\n  \"bench\": \"mpe_batch\",\n");
    json.push_str(&format!("  \"host_parallelism\": {host},\n"));
    json.push_str(&format!("  \"model_nodes\": {model_nodes},\n"));
    json.push_str(&format!("  \"training_rows\": {n},\n"));
    json.push_str("  \"results\": [\n");
    for (i, (batch, compiled_ns, scalar_ns, recursive_ns)) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"batch\": {batch}, \"compiled_ns_per_pred\": {compiled_ns:.0}, \
             \"scalar_ns_per_pred\": {scalar_ns:.0}, \
             \"recursive_ns_per_pred\": {recursive_ns:.0}, \
             \"recursive_over_compiled\": {:.2}, \"simd_vs_scalar\": {:.2}}}{}\n",
            recursive_ns / compiled_ns.max(1.0),
            scalar_ns / compiled_ns.max(1.0),
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_mpe_batch.json");
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
    targets = bench_mpe_batch
}
criterion_main!(benches);
