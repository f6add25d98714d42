//! `update_stream`: interleaved direct updates and GROUP BY-shaped probe
//! batches, comparing **in-place arena patching** against the old dirty-flag
//! protocol (tree update + full recompile before the next query batch) at
//! two model sizes.
//!
//! The point of the patch path is architectural: per-update cost is
//! O(tree depth + touched bins) — independent of model size — while the
//! recompile baseline pays one full tree walk + arena rebuild per
//! update/query interleaving, i.e. O(model nodes). The JSON summary
//! (`BENCH_update_stream.json`) records both ns/update figures per model
//! size so the trajectory is machine-checkable; `DEEPDB_FAST=1` shrinks
//! models and rep counts for the CI smoke run.
//!
//! Each measured round inserts a tuple batch and then deletes the same batch
//! (restoring the model bit for bit, so reps are independent), with the
//! probe batch evaluated in between; the bench asserts the patched arena
//! stays bitwise identical to a full recompile throughout.

use criterion::{criterion_group, criterion_main, Criterion};
use deepdb_spn::{
    BatchEvaluator, ColumnMeta, DataView, LeafFunc, LeafPred, Spn, SpnParams, SpnQuery,
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

/// Hierarchically clustered 3-column table (group, a, b track a latent
/// cluster id) so learning recurses on row splits and yields a realistically
/// deep model; `g` carries 64 group values for the probe batches.
fn training_data(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<ColumnMeta>) {
    let mut rng = lcg(seed);
    let (mut g, mut a, mut b) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..n {
        let c = (rng() * 16.0).floor();
        g.push(c * 4.0 + (rng() * 4.0).floor());
        a.push(c * 7.0 + (rng() * 5.0).floor());
        b.push(c * 3.0 + (rng() * 10.0).floor());
    }
    (
        vec![g, a, b],
        vec![
            ColumnMeta::discrete("g"),
            ColumnMeta::discrete("a"),
            ColumnMeta::discrete("b"),
        ],
    )
}

fn learn(n: usize, min_instance_ratio: f64) -> Spn {
    let (cols, meta) = training_data(n, 0xBEEF ^ n as u64);
    let params = SpnParams {
        min_instance_ratio,
        ..SpnParams::default()
    };
    Spn::learn(DataView::new(&cols, &meta), &params)
}

/// Update batch drawn from the training distribution.
fn update_batch(k: usize, seed: u64) -> Vec<[f64; 3]> {
    let mut rng = lcg(seed);
    (0..k)
        .map(|_| {
            let c = (rng() * 16.0).floor();
            [
                c * 4.0 + (rng() * 4.0).floor(),
                c * 7.0 + (rng() * 5.0).floor(),
                c * 3.0 + (rng() * 10.0).floor(),
            ]
        })
        .collect()
}

/// GROUP BY-shaped probe batch: count + X-moment per group value.
fn probe_batch(n_groups: usize) -> Vec<SpnQuery> {
    let mut probes = Vec::with_capacity(n_groups * 2);
    for g in 0..n_groups {
        let gv = (g % 64) as f64;
        probes.push(SpnQuery::new(3).with_pred(0, LeafPred::eq(gv)));
        probes.push(
            SpnQuery::new(3)
                .with_pred(0, LeafPred::eq(gv))
                .with_func(1, LeafFunc::X),
        );
    }
    probes
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

struct Row {
    label: &'static str,
    model_nodes: usize,
    rows: usize,
    patch_ns_per_update: f64,
    recompile_ns_per_update: f64,
}

fn bench_update_stream(c: &mut Criterion) {
    let (small_n, large_n) = if fast() {
        (1_500, 6_000)
    } else {
        (8_000, 40_000)
    };
    let reps = if fast() { 7 } else { 25 };
    let batch = 64usize;
    let sizes: [(&'static str, usize, f64); 2] =
        [("small", small_n, 0.03), ("large", large_n, 0.001)];

    let probes = probe_batch(32);
    let mut rows = Vec::new();
    for (label, n, ratio) in sizes {
        // Patch path and recompile baseline start from identical models.
        let mut patched = learn(n, ratio);
        let mut baseline = patched.clone();
        let mut arena = patched.compile();
        let model_nodes = patched.size();
        let mut ev = BatchEvaluator::new();
        let tuples = update_batch(batch, 0xD00D ^ n as u64);

        // One interleaved round per rep: absorb the batch, answer the probe
        // batch, drain the batch again (restores the model exactly, so reps
        // are stable). The patch path's arena is always query-ready; the
        // baseline pays a full recompile before each probe batch.
        c.bench_function(&format!("update_stream/{label}/patch"), |b| {
            b.iter(|| {
                patched.insert_batch(&mut arena, &tuples);
                let r = ev.evaluate(&arena, &probes, None);
                patched.delete_batch(&mut arena, &tuples);
                r
            })
        });
        c.bench_function(&format!("update_stream/{label}/recompile"), |b| {
            b.iter(|| {
                for t in &tuples {
                    baseline.insert(t);
                }
                let compiled = baseline.compile();
                let r = ev.evaluate(&compiled, &probes, None);
                for t in &tuples {
                    baseline.delete(t);
                }
                r
            })
        });

        // ns per update of the *update path itself* (insert + delete pair,
        // probes excluded): patching vs. tree-update + recompile.
        let patch_ns = median_ns(reps, || {
            patched.insert_batch(&mut arena, &tuples);
            patched.delete_batch(&mut arena, &tuples)
        }) / (2 * batch) as f64;
        let recompile_ns = median_ns(reps, || {
            for t in &tuples {
                baseline.insert(t);
            }
            let mid = baseline.compile();
            for t in &tuples {
                baseline.delete(t);
            }
            (mid.n_nodes(), baseline.compile().n_nodes())
        }) / (2 * batch) as f64;

        // Acceptance: after all the churn the patched arena is still bitwise
        // identical to a recompile of its tree, and both paths agree.
        assert!(
            arena.bitwise_eq(&patched.compile()),
            "{label}: patch drifted"
        );
        let want = ev.evaluate(&baseline.compile(), &probes, None);
        let got = ev.evaluate(&arena, &probes, None);
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.to_bits(), w.to_bits(), "{label}: paths diverged");
        }

        rows.push(Row {
            label,
            model_nodes,
            rows: n,
            patch_ns_per_update: patch_ns,
            recompile_ns_per_update: recompile_ns,
        });
    }

    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut json = String::from("{\n  \"bench\": \"update_stream\",\n");
    json.push_str(&format!("  \"host_parallelism\": {host},\n"));
    json.push_str(&format!("  \"batch\": {batch},\n"));
    json.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"model\": \"{}\", \"model_nodes\": {}, \"training_rows\": {}, \
             \"patch_ns_per_update\": {:.0}, \"recompile_ns_per_update\": {:.0}, \
             \"recompile_over_patch\": {:.2}}}{}\n",
            r.label,
            r.model_nodes,
            r.rows,
            r.patch_ns_per_update,
            r.recompile_ns_per_update,
            r.recompile_ns_per_update / r.patch_ns_per_update.max(1.0),
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_update_stream.json"
    );
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
    targets = bench_update_stream
}
criterion_main!(benches);
