//! `sweep_prune`: query-scoped sub-DAG pruning vs the full arena sweep.
//!
//! Fixture: a deep/wide SPN over 24 columns (12 correlated pairs, so
//! learning produces sum splits inside each pair and product splits across
//! pairs). Two workloads over 64-query batches:
//!
//! * **selective** — every query constrains a single column, so the active
//!   sub-DAG is a thin slice of the arena (the acceptance gate is pruned
//!   ≥ 1.5× faster ns/query than the full sweep).
//! * **all_cols** — every query constrains all 24 columns, so pruning can
//!   remove (almost) nothing; the gate is "no regression" (full ≥ 0.75×
//!   pruned — a noise-tolerant bound that catches systematic slowdown).
//!
//! Pruned ≡ full is asserted **bitwise** on both workloads before any
//! timing. Writes `BENCH_sweep_prune.json` with ns/query per lane, the
//! speedup ratio, each workload's `active_fraction`, and
//! `host_parallelism`. `DEEPDB_FAST=1` shrinks the fixture and rep counts
//! for the CI smoke run.

use criterion::{criterion_group, criterion_main, Criterion};
use deepdb_spn::{
    BatchEvaluator, ColumnMeta, CompiledSpn, DataView, LeafPred, Spn, SpnParams, SpnQuery,
};

fn fast() -> bool {
    std::env::var("DEEPDB_FAST").is_ok_and(|v| v == "1")
}

const N_COLS: usize = 24;
const BATCH: usize = 64;

/// Deterministic 24-column fixture: column pair `2p, 2p+1` shares a
/// 3-cluster latent, clusters are offset by 10 so k-means separates them.
fn fixture() -> CompiledSpn {
    let n_rows = if fast() { 1_200 } else { 6_000 };
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as i64
    };
    let mut cols: Vec<Vec<f64>> = (0..N_COLS).map(|_| Vec::with_capacity(n_rows)).collect();
    for _ in 0..n_rows {
        for p in 0..N_COLS / 2 {
            let cluster = next().rem_euclid(3);
            cols[2 * p].push((cluster * 10 + next().rem_euclid(4)) as f64);
            cols[2 * p + 1].push((cluster * 10 + next().rem_euclid(5)) as f64);
        }
    }
    let meta: Vec<ColumnMeta> = (0..N_COLS)
        .map(|i| ColumnMeta::discrete(format!("c{i}")))
        .collect();
    let params = SpnParams {
        rdc_sample_rows: 600,
        ..SpnParams::default()
    };
    let spn = Spn::learn(DataView::new(&cols, &meta), &params);
    spn.compile()
}

/// Selective workload: 64 single-column equality probes on column 0.
fn selective_batch() -> Vec<SpnQuery> {
    (0..BATCH)
        .map(|i| SpnQuery::new(N_COLS).with_pred(0, LeafPred::eq(((i % 3) * 10 + i % 4) as f64)))
        .collect()
}

/// Dense workload: 64 probes constraining every column.
fn all_cols_batch() -> Vec<SpnQuery> {
    (0..BATCH)
        .map(|i| {
            let mut q = SpnQuery::new(N_COLS);
            for c in 0..N_COLS {
                q.add_pred(c, LeafPred::le((((i + c) % 3) * 10 + 4) as f64));
            }
            q
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

fn bench_sweep_prune(c: &mut Criterion) {
    let reps = if fast() { 9 } else { 31 };
    let arena = fixture();

    let workloads: Vec<(&str, Vec<SpnQuery>, Vec<usize>)> = vec![
        ("selective", selective_batch(), vec![0]),
        ("all_cols", all_cols_batch(), (0..N_COLS).collect()),
    ];

    let mut rows = Vec::new();
    for (name, queries, columns) in &workloads {
        let active = arena.active_set(columns);

        // Acceptance first: pruned ≡ full, bitwise, on every query.
        let mut ev = BatchEvaluator::new();
        let full = ev.evaluate(&arena, queries, None);
        let pruned = ev.evaluate(&arena, queries, Some(&active));
        for (i, (p, f)) in pruned.iter().zip(&full).enumerate() {
            assert_eq!(
                p.to_bits(),
                f.to_bits(),
                "{name} query {i}: pruned {p} vs full {f}"
            );
        }

        c.bench_function(&format!("sweep_prune/{name}/full"), |b| {
            b.iter(|| std::hint::black_box(ev.evaluate(&arena, queries, None)))
        });
        let full_ns = median_ns(reps, || ev.evaluate(&arena, queries, None)) / BATCH as f64;

        c.bench_function(&format!("sweep_prune/{name}/pruned"), |b| {
            b.iter(|| std::hint::black_box(ev.evaluate(&arena, queries, Some(&active))))
        });
        let pruned_ns =
            median_ns(reps, || ev.evaluate(&arena, queries, Some(&active))) / BATCH as f64;

        rows.push((*name, active.active_fraction(), full_ns, pruned_ns));
    }

    // Gates: a thin active slice must buy ≥ 1.5×; a fully-active workload
    // must not regress (the pruned dispatch's overhead stays under ~18%).
    for &(name, frac, full_ns, pruned_ns) in &rows {
        match name {
            "selective" => assert!(
                full_ns >= 1.5 * pruned_ns,
                "selective (active {frac:.3}): pruned ({pruned_ns:.0} ns) must be \
                 ≥1.5x faster than full ({full_ns:.0} ns)"
            ),
            // Noise-tolerant bound: repeated runs jitter around 1.0 on
            // loaded hosts, so the gate only catches a systematic slowdown.
            _ => assert!(
                full_ns >= 0.75 * pruned_ns,
                "all_cols (active {frac:.3}): pruned ({pruned_ns:.0} ns) must not \
                 regress vs full ({full_ns:.0} ns)"
            ),
        }
    }

    let host = std::thread::available_parallelism().map_or(1, |x| x.get());
    let mut json = String::from("{\n  \"bench\": \"sweep_prune\",\n");
    json.push_str(&format!("  \"host_parallelism\": {host},\n"));
    json.push_str(&format!("  \"n_nodes\": {},\n", arena.n_nodes()));
    json.push_str(&format!("  \"batch\": {BATCH},\n"));
    json.push_str("  \"results\": [\n");
    for (i, (name, frac, full_ns, pruned_ns)) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"workload\": \"{name}\", \"active_fraction\": {frac:.4}, \
             \"full_ns_per_query\": {full_ns:.0}, \
             \"pruned_ns_per_query\": {pruned_ns:.0}, \
             \"full_over_pruned\": {:.2}}}{}\n",
            full_ns / pruned_ns.max(1.0),
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sweep_prune.json");
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
    targets = bench_sweep_prune
}
criterion_main!(benches);
