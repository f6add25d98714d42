//! Differential property suite for query-scoped sub-DAG pruning: a sweep
//! restricted to an [`ActiveSet`]'s compacted runs (boundary rows seeded
//! from the arena's neutral tables) must be **bitwise** identical to the
//! full-arena sweep — for both the (+,×) expectation semiring and the
//! (max,×) max-product semiring, including NULL predicates, in-place
//! patched-update streams, superset active columns, and every thread/tile
//! shape the sweep routine dispatches, inline or across the pool.

use deepdb_spn::{
    BatchEvaluator, ColumnMeta, DataView, LeafFunc, LeafPred, MaxProductEvaluator, MpeOutcome,
    MpeProbe, Spn, SpnParams, SpnQuery, SweepJob, SweepTables, WorkerPool, SWEEP_TILE,
};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Learn a 3-column SPN: a small discrete column, a wider discrete column,
/// and a factor-like column where `0` encodes NULL (exercises the NULL slot
/// in pruned leaf runs).
fn learn(rows: &[(i64, i64, i64)]) -> Spn {
    let a: Vec<f64> = rows.iter().map(|&(x, _, _)| x as f64).collect();
    let b: Vec<f64> = rows.iter().map(|&(_, y, _)| y as f64).collect();
    let f: Vec<f64> = rows
        .iter()
        .map(|&(_, _, z)| if z == 0 { f64::NAN } else { z as f64 })
        .collect();
    let meta = vec![
        ColumnMeta::discrete("a"),
        ColumnMeta::discrete("b"),
        ColumnMeta::discrete("f"),
    ];
    let cols = vec![a, b, f];
    let params = SpnParams {
        rdc_sample_rows: 400,
        ..SpnParams::default()
    };
    Spn::learn(DataView::new(&cols, &meta), &params)
}

const FUNCS: [LeafFunc; 5] = [
    LeafFunc::One,
    LeafFunc::X,
    LeafFunc::X2,
    LeafFunc::InvClamp1,
    LeafFunc::InvSqClamp1,
];

/// Build one query from a list of slot specs
/// `(col, pred_kind, v1, v2, func_kind)`.
fn build_query(specs: &[(usize, i64, i64, i64, usize)]) -> SpnQuery {
    let mut q = SpnQuery::new(3);
    for &(col, kind, v1, v2, func) in specs {
        let (lo, hi) = (v1.min(v2) as f64, v1.max(v2) as f64);
        match kind {
            0 => q.add_pred(
                col,
                LeafPred::Range {
                    lo,
                    hi,
                    lo_incl: true,
                    hi_incl: v1 % 2 == 0,
                },
            ),
            1 => q.add_pred(col, LeafPred::lt(v1 as f64)),
            2 => q.add_pred(col, LeafPred::In(vec![v1 as f64, v2 as f64])),
            3 => q.add_pred(col, LeafPred::NotIn(vec![v1 as f64])),
            4 => q.add_pred(col, LeafPred::IsNull),
            _ => q.add_pred(col, LeafPred::IsNotNull),
        }
        q.set_func(col, FUNCS[func % FUNCS.len()]);
    }
    q
}

/// Union of the batch's constrained columns plus any MPE target columns —
/// the exact cover the pruning contract requires.
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

fn assert_mpe_bitwise(got: &[MpeOutcome], want: &[MpeOutcome]) {
    assert_eq!(got.len(), want.len());
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.score.to_bits(),
            w.score.to_bits(),
            "probe {}: pruned score {} vs full {}",
            i,
            g.score,
            w.score
        );
        assert_eq!(
            g.value.map(f64::to_bits),
            w.value.map(f64::to_bits),
            "probe {}: pruned value {:?} vs full {:?}",
            i,
            g.value,
            w.value
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Expectation semiring: pruned ≡ full bitwise on random SPNs ×
    /// random batches, with the active set built from the exact column
    /// cover and from an arbitrary superset (supersets only grow the
    /// active sub-DAG, never change swept values).
    #[test]
    fn pruned_expect_matches_full_bitwise(
        rows in prop::collection::vec((0i64..6, 0i64..40, 0i64..5), 20..300),
        batch in prop::collection::vec(
            prop::collection::vec((0usize..3, 0i64..6, 0i64..40, 0i64..40, 0usize..5), 0..3),
            1..80,
        ),
        extra in 0usize..3,
    ) {
        let spn = learn(&rows);
        let compiled = spn.compile();
        let queries: Vec<SpnQuery> = batch.iter().map(|specs| build_query(specs)).collect();
        let mut ev = BatchEvaluator::new();
        let full = ev.evaluate(&compiled, &queries, None);

        let exact = compiled.active_set(&cover(&queries, &[]));
        let pruned = ev.evaluate(&compiled, &queries, Some(&exact));
        for (i, (p, f)) in pruned.iter().zip(&full).enumerate() {
            prop_assert_eq!(p.to_bits(), f.to_bits(), "query {}: pruned {} vs full {}", i, p, f);
        }

        let mut sup_cols = cover(&queries, &[]);
        sup_cols.push(extra);
        let superset = compiled.active_set(&sup_cols);
        prop_assert!(superset.n_active() >= exact.n_active());
        let sup = ev.evaluate(&compiled, &queries, Some(&superset));
        for (i, (p, f)) in sup.iter().zip(&full).enumerate() {
            prop_assert_eq!(p.to_bits(), f.to_bits(), "query {} (superset cover)", i);
        }
    }

    /// Max-product semiring: pruned ≡ full bitwise (scores **and** argmax
    /// target values) when the active set covers evidence plus targets.
    #[test]
    fn pruned_maxprod_matches_full_bitwise(
        rows in prop::collection::vec((0i64..6, 0i64..40, 0i64..5), 20..300),
        probes in prop::collection::vec(
            (0usize..3, prop::collection::vec((0usize..3, 0i64..6, 0i64..40, 0i64..40, 0usize..5), 0..2)),
            1..40,
        ),
    ) {
        let spn = learn(&rows);
        let compiled = spn.compile();
        let probes: Vec<MpeProbe> = probes
            .iter()
            .map(|(t, specs)| MpeProbe::new(*t, build_query(specs)))
            .collect();
        let mut ev = MaxProductEvaluator::new();
        let full = ev.evaluate(&compiled, &probes, None);
        let active = compiled.active_set(&cover(&[], &probes));
        let pruned = ev.evaluate(&compiled, &probes, Some(&active));
        assert_mpe_bitwise(&pruned, &full);
    }

    /// Pruning survives in-place patched-update streams: the active set is
    /// built once (scopes never change under patches), the neutral tables
    /// are refreshed by `commit_patch`, and pruned ≡ full stays bitwise
    /// after every prefix of the stream — both semirings.
    #[test]
    fn pruned_matches_full_after_patched_updates(
        rows in prop::collection::vec((0i64..5, 0i64..30, 0i64..4), 30..150),
        tuples in prop::collection::vec((0i64..5, 0i64..30, 0i64..4), 1..12),
        batch in prop::collection::vec(
            prop::collection::vec((0usize..3, 0i64..6, 0i64..40, 0i64..40, 0usize..5), 0..3),
            SWEEP_TILE + 1..SWEEP_TILE + 8,
        ),
        target in 0usize..3,
    ) {
        let mut spn = learn(&rows);
        let mut arena = spn.compile();
        let queries: Vec<SpnQuery> = batch.iter().map(|specs| build_query(specs)).collect();
        let probes = vec![MpeProbe::new(target, queries[0].clone())];
        // Built before any patch: must stay valid for the whole stream.
        let active = arena.active_set(&cover(&queries, &probes));
        let mut ev = BatchEvaluator::new();
        let mut mp = MaxProductEvaluator::new();
        for &(x, y, z) in &tuples {
            let t = [x as f64, y as f64, if z == 0 { f64::NAN } else { z as f64 }];
            spn.insert(&t);
            arena.insert(&t);
            prop_assert!(arena.bitwise_eq(&spn.compile()), "patched arena diverged from the tree oracle");
            let full = ev.evaluate(&arena, &queries, None);
            let pruned = ev.evaluate(&arena, &queries, Some(&active));
            for (i, (p, f)) in pruned.iter().zip(&full).enumerate() {
                prop_assert_eq!(p.to_bits(), f.to_bits(), "query {} after patch", i);
            }
            let full_mpe = mp.evaluate(&arena, &probes, None);
            let pruned_mpe = mp.evaluate(&arena, &probes, Some(&active));
            assert_mpe_bitwise(&pruned_mpe, &full_mpe);
        }
    }

    /// Pool and inline dispatch: a fused expectation+MPE sweep carrying
    /// `SweepJob::active` must reproduce the unpruned job bitwise across
    /// thread counts (1 = the inline branch) and tile-straddling batch
    /// shapes, with one caller-owned table pair reused by every sweep.
    #[test]
    fn pool_and_inline_pruned_sweeps_match_full(
        rows in prop::collection::vec((0i64..5, 0i64..30, 0i64..4), 30..150),
        specs in prop::collection::vec((0usize..3, 0i64..6, 0i64..40, 0i64..40, 0usize..5), 4..10),
        target in 0usize..3,
    ) {
        let spn = learn(&rows);
        let compiled = spn.compile();
        let pool_q: Vec<SpnQuery> = specs
            .iter()
            .map(|s| build_query(std::slice::from_ref(s)))
            .collect();
        let pool = WorkerPool::new();
        let mut tables = SweepTables::default();
        for n in [1usize, 3, SWEEP_TILE - 1, SWEEP_TILE, SWEEP_TILE + 1] {
            let queries: Vec<SpnQuery> =
                (0..n).map(|i| pool_q[i % pool_q.len()].clone()).collect();
            let probes = vec![MpeProbe::new(target, queries[0].clone())];
            let active = compiled.active_set(&cover(&queries, &probes));

            let mut full = vec![0.0; n];
            let mut full_mpe = vec![MpeOutcome::default(); probes.len()];
            let mut pruned = vec![0.0; n];
            let mut pruned_mpe = vec![MpeOutcome::default(); probes.len()];

            for threads in [1usize, 2, 4] {
                full.fill(0.0);
                pruned.fill(0.0);
                pool.sweep(
                    [SweepJob {
                        spn: &compiled,
                        queries: &queries,
                        out: &mut full,
                        mpe: &probes,
                        mpe_out: &mut full_mpe,
                        tables: &mut tables,
                        cancel: None,
                        fault: None,
                        active: None,
                    }],
                    threads,
                );
                pool.sweep(
                    [SweepJob {
                        spn: &compiled,
                        queries: &queries,
                        out: &mut pruned,
                        mpe: &probes,
                        mpe_out: &mut pruned_mpe,
                        tables: &mut tables,
                        cancel: None,
                        fault: None,
                        active: Some(&active),
                    }],
                    threads,
                );
                for (i, (p, f)) in pruned.iter().zip(&full).enumerate() {
                    prop_assert_eq!(
                        p.to_bits(), f.to_bits(),
                        "batch {}, threads {}, query {}", n, threads, i
                    );
                }
                assert_mpe_bitwise(&pruned_mpe, &full_mpe);
            }

            // Across branches: the inline pruned sweep reproduces the last
            // (4-thread, pooled) full sweep.
            pruned.fill(0.0);
            pool.sweep(
                [SweepJob {
                    spn: &compiled,
                    queries: &queries,
                    out: &mut pruned,
                    mpe: &probes,
                    mpe_out: &mut pruned_mpe,
                    tables: &mut tables,
                    cancel: None,
                    fault: None,
                    active: Some(&active),
                }],
                1,
            );
            for (i, (p, f)) in pruned.iter().zip(&full).enumerate() {
                prop_assert_eq!(p.to_bits(), f.to_bits(), "inline batch {}, query {}", n, i);
            }
            assert_mpe_bitwise(&pruned_mpe, &full_mpe);
        }
    }
}

/// Node accounting: a pruned sweep visits exactly `n_active` nodes per
/// tile, a full sweep exactly `n_nodes` — measured through the arena's
/// `nodes_swept` counter, so a silently un-pruned dispatch cannot pass.
#[test]
fn pruned_sweep_accounts_only_active_nodes() {
    let rows: Vec<(i64, i64, i64)> = (0..240)
        .map(|i| (i % 5, (i * 7) % 30, (i % 4) + 1))
        .collect();
    let spn = learn(&rows);
    let compiled = spn.compile();
    let n_nodes = compiled.n_nodes() as u64;

    let queries: Vec<SpnQuery> = (0..SWEEP_TILE + 5)
        .map(|i| SpnQuery::new(3).with_pred(0, LeafPred::eq((i % 5) as f64)))
        .collect();
    let active = compiled.active_set(&[0]);
    assert!(
        active.n_active() > 0,
        "a constrained column must mark nodes"
    );
    assert!(
        active.n_active() < compiled.n_nodes(),
        "a single-column query over a multi-column SPN must prune something"
    );
    let tiles = queries.len().div_ceil(SWEEP_TILE) as u64;

    let mut ev = BatchEvaluator::new();
    let before = compiled.nodes_swept();
    let full = ev.evaluate(&compiled, &queries, None);
    let full_delta = compiled.nodes_swept() - before;
    assert_eq!(
        full_delta,
        tiles * n_nodes,
        "full sweep visits every node per tile"
    );

    let before = compiled.nodes_swept();
    let pruned = ev.evaluate(&compiled, &queries, Some(&active));
    let pruned_delta = compiled.nodes_swept() - before;
    assert_eq!(
        pruned_delta,
        tiles * active.n_active() as u64,
        "pruned sweep visits exactly the active nodes per tile"
    );

    for (p, f) in pruned.iter().zip(&full) {
        assert_eq!(p.to_bits(), f.to_bits());
    }
}
