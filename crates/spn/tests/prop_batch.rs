//! Differential property suite: the arena/batch engine must agree with the
//! recursive reference evaluator on randomized SPNs × randomized query
//! batches — including NULL handling (`IsNull`/`IsNotNull`), `In`/`NotIn`
//! sets, one- and two-sided ranges, and every moment slot (`X`, `X²`,
//! `InvClamp1`, `InvSqClamp1`). Agreement is **bitwise**, across
//! tile-boundary and one- to three-query batch shapes and in-place update
//! streams.

use deepdb_spn::{
    BatchEvaluator, ColumnMeta, DataView, LeafFunc, LeafPred, Spn, SpnParams, SpnQuery,
};
use proptest::prelude::*;

/// Learn a 3-column SPN: a small discrete column, a wider discrete column,
/// and a factor-like column where `0` encodes NULL (exercises the NULL slot
/// and the clamped-inverse moments).
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Batched arena evaluation ≡ recursive evaluation, query by query.
    #[test]
    fn batch_matches_recursive_on_random_spns(
        rows in prop::collection::vec((0i64..6, 0i64..40, 0i64..5), 20..300),
        // Batch sizes straddle the evaluator's internal tile width (32) so
        // the multi-tile path — the one production GROUP BY / bench batches
        // take — is differentially tested too.
        batch in prop::collection::vec(
            prop::collection::vec((0usize..3, 0i64..6, 0i64..40, 0i64..40, 0usize..5), 0..4),
            1..80,
        ),
    ) {
        let mut spn = learn(&rows);
        let compiled = spn.compile();
        let queries: Vec<SpnQuery> = batch.iter().map(|specs| build_query(specs)).collect();
        let got = BatchEvaluator::new().evaluate(&compiled, &queries, None);
        prop_assert_eq!(got.len(), queries.len());
        for (i, q) in queries.iter().enumerate() {
            let want = spn.evaluate(q);
            prop_assert_eq!(
                got[i].to_bits(), want.to_bits(),
                "query {}: batch {} vs recursive {} ({:?})", i, got[i], want, q
            );
        }
    }

    /// Compiled ≡ recursive bitwise at every tile-boundary batch size — 31,
    /// 32, 33, 65 straddle the sweep tile (32) — and at the one- to
    /// three-query batches of a cardinality probe bundle, with one shared
    /// evaluator so scratch reuse across differing strides is exercised too.
    #[test]
    fn boundary_batches_match_recursive_bitwise(
        rows in prop::collection::vec((0i64..6, 0i64..40, 0i64..5), 20..200),
        specs in prop::collection::vec((0usize..3, 0i64..6, 0i64..40, 0i64..40, 0usize..5), 4..12),
    ) {
        let mut spn = learn(&rows);
        let compiled = spn.compile();
        let pool: Vec<SpnQuery> = specs
            .iter()
            .map(|s| build_query(std::slice::from_ref(s)))
            .collect();
        let mut ev = BatchEvaluator::new();
        for n in [1usize, 2, 3, 4, 31, 32, 33, 65] {
            let queries: Vec<SpnQuery> =
                (0..n).map(|i| pool[i % pool.len()].clone()).collect();
            let got: Vec<u64> = ev
                .evaluate(&compiled, &queries, None)
                .iter()
                .map(|v| v.to_bits())
                .collect();
            let want: Vec<u64> = queries.iter().map(|q| spn.evaluate(q).to_bits()).collect();
            prop_assert_eq!(got, want, "batch size {}", n);
        }
    }

    /// The NULL slot and the clamped-inverse tuple-factor moments agree —
    /// these are the paths cardinality estimation leans on hardest.
    #[test]
    fn null_and_invclamp_slots_agree(
        rows in prop::collection::vec((0i64..4, 0i64..20, 0i64..6), 30..200),
        probe in 0i64..4,
    ) {
        let mut spn = learn(&rows);
        let compiled = spn.compile();
        let queries = vec![
            SpnQuery::new(3).with_pred(2, LeafPred::IsNull),
            SpnQuery::new(3).with_pred(2, LeafPred::IsNotNull),
            SpnQuery::new(3).with_func(2, LeafFunc::InvClamp1),
            SpnQuery::new(3).with_func(2, LeafFunc::InvSqClamp1),
            SpnQuery::new(3)
                .with_pred(0, LeafPred::eq(probe as f64))
                .with_func(2, LeafFunc::InvClamp1),
            SpnQuery::new(3)
                .with_pred(0, LeafPred::eq(probe as f64))
                .with_pred(2, LeafPred::IsNull),
        ];
        let got = BatchEvaluator::new().evaluate(&compiled, &queries, None);
        for (i, q) in queries.iter().enumerate() {
            let want = spn.evaluate(q);
            prop_assert_eq!(
                got[i].to_bits(), want.to_bits(),
                "probe {}: batch {} vs recursive {}", i, got[i], want
            );
        }
    }

    /// Recompiling after updates re-synchronizes the arena with the tree.
    #[test]
    fn recompiled_arena_tracks_updates(
        rows in prop::collection::vec((0i64..5, 0i64..30, 0i64..4), 30..150),
        tuples in prop::collection::vec((0i64..5, 0i64..30, 0i64..4), 1..10),
        probe in 0i64..5,
    ) {
        let mut spn = learn(&rows);
        for &(x, y, z) in &tuples {
            spn.insert(&[x as f64, y as f64, if z == 0 { f64::NAN } else { z as f64 }]);
        }
        let compiled = spn.compile();
        let q = SpnQuery::new(3).with_pred(0, LeafPred::eq(probe as f64));
        let got = BatchEvaluator::new().evaluate(&compiled, std::slice::from_ref(&q), None)[0];
        let want = spn.evaluate(&q);
        prop_assert_eq!(got.to_bits(), want.to_bits(), "{} vs {}", got, want);
    }

    /// Compiled ≡ recursive bitwise survives in-place patched-update
    /// streams: the arena the kernels sweep is edited by updates, never
    /// recompiled.
    #[test]
    fn patched_arena_matches_recursive_bitwise(
        rows in prop::collection::vec((0i64..5, 0i64..30, 0i64..4), 30..150),
        tuples in prop::collection::vec((0i64..5, 0i64..30, 0i64..4), 1..12),
        batch in prop::collection::vec(
            prop::collection::vec((0usize..3, 0i64..6, 0i64..40, 0i64..40, 0usize..5), 0..3),
            33..40,
        ),
    ) {
        let mut spn = learn(&rows);
        let mut arena = spn.compile();
        for &(x, y, z) in &tuples {
            let t = [x as f64, y as f64, if z == 0 { f64::NAN } else { z as f64 }];
            spn.insert(&t);
            arena.insert(&t);
        }
        prop_assert!(arena.bitwise_eq(&spn.compile()), "patched arena diverged from the tree oracle");
        let queries: Vec<SpnQuery> = batch.iter().map(|specs| build_query(specs)).collect();
        let got = BatchEvaluator::new().evaluate(&arena, &queries, None);
        for (i, g) in got.iter().enumerate() {
            let want = spn.evaluate(&queries[i]);
            prop_assert_eq!(
                g.to_bits(), want.to_bits(),
                "query {}: compiled {} vs recursive {}", i, g, want
            );
        }
    }
}
