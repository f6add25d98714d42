//! Differential property suite for **in-place arena updates**: after any
//! randomized stream of inserts / deletes / updates (including NULL tuples,
//! deletes of absent tuples, and empty-cluster deletes), the patched
//! [`CompiledSpn`] must be **bitwise identical** to the tree oracle — apply
//! the same stream to the learner's [`Spn`] tree, then compile it. Batched
//! and one-by-one application must also coincide bitwise, and the arena's
//! mass bookkeeping (sum counts vs. leaf totals) must stay consistent — the
//! regression surface of the old `saturating_sub` delete desync.

use deepdb_spn::{
    BatchEvaluator, ColumnMeta, CompiledSpn, DataView, LeafFunc, LeafPred, Spn, SpnParams, SpnQuery,
};
use proptest::prelude::*;

/// Learn a 3-column SPN: two discrete columns plus a factor-like column
/// where `0` encodes NULL (exercises NULL-slot patching).
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
        min_instance_ratio: 0.05,
        ..SpnParams::default()
    };
    Spn::learn(DataView::new(&cols, &meta), &params)
}

fn tuple(a: i64, b: i64, f: i64) -> [f64; 3] {
    [a as f64, b as f64, if f == 0 { f64::NAN } else { f as f64 }]
}

/// Probe batch covering ranges, point sets, NULL slots, and every moment.
fn probes() -> Vec<SpnQuery> {
    vec![
        SpnQuery::new(3),
        SpnQuery::new(3).with_pred(0, LeafPred::eq(1.0)),
        SpnQuery::new(3)
            .with_pred(1, LeafPred::ge(3.0))
            .with_func(1, LeafFunc::X),
        SpnQuery::new(3).with_pred(2, LeafPred::IsNull),
        SpnQuery::new(3)
            .with_pred(2, LeafPred::IsNotNull)
            .with_func(2, LeafFunc::InvClamp1),
        SpnQuery::new(3)
            .with_pred(0, LeafPred::In(vec![0.0, 2.0]))
            .with_func(1, LeafFunc::X2),
        SpnQuery::new(3).with_func(2, LeafFunc::InvSqClamp1),
    ]
}

fn assert_patch_equals_oracle(patched_arena: &CompiledSpn, oracle: &Spn) {
    let compiled = oracle.compile();
    assert!(
        patched_arena.bitwise_eq(&compiled),
        "patched arena diverged from the tree oracle (n_rows {} vs {})",
        patched_arena.n_rows(),
        compiled.n_rows()
    );
    // Belt and braces: probe results agree bit for bit too.
    let mut ev = BatchEvaluator::new();
    let q = probes();
    let got = ev.evaluate(patched_arena, &q, None);
    let want = ev.evaluate(&compiled, &q, None);
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "probe {i} diverged: {g} vs {w}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arena walk ≡ tree oracle, bitwise, across randomized
    /// insert/delete/update streams. Deletes draw from a small domain so
    /// they hit present tuples, absent tuples, and — once a cluster drains —
    /// empty clusters; both walks must agree on which deletes were no-ops.
    #[test]
    fn patched_arena_matches_recompile_bitwise(
        rows in prop::collection::vec((0i64..4, 0i64..8, 0i64..3), 20..200),
        ops in prop::collection::vec((0u8..3, 0i64..4, 0i64..8, 0i64..3), 0..80),
    ) {
        let mut oracle = learn(&rows);
        let mut arena = oracle.compile();

        for (i, &(kind, a, b, f)) in ops.iter().enumerate() {
            let t = tuple(a, b, f);
            match kind {
                0 => {
                    arena.insert(&t);
                    oracle.insert(&t);
                }
                1 => {
                    let x = arena.delete(&t);
                    let y = oracle.delete(&t);
                    prop_assert_eq!(x, y, "delete applicability diverged at op {}", i);
                }
                _ => {
                    let new = tuple((a + 1) % 4, (b + 3) % 8, (f + 1) % 3);
                    // Arena update = delete + insert.
                    let x = arena.delete(&t);
                    if x {
                        arena.insert(&new);
                    }
                    let y = oracle.update(&t, &new);
                    prop_assert_eq!(x, y, "update applicability diverged at op {}", i);
                }
            }
            prop_assert_eq!(arena.n_rows(), oracle.n_rows());
        }
        prop_assert_eq!(
            arena.consistency_error(),
            None,
            "mass bookkeeping desynced after the stream"
        );
        assert_patch_equals_oracle(&arena, &oracle);
    }

    /// Batched application ≡ one-by-one application, bitwise — for inserts
    /// (one partitioned traversal, folded renormalization) and deletes
    /// (check-then-apply per tuple, folded finalization).
    #[test]
    fn batch_equals_one_by_one_bitwise(
        rows in prop::collection::vec((0i64..4, 0i64..8, 0i64..3), 20..150),
        inserts in prop::collection::vec((0i64..4, 0i64..8, 0i64..3), 1..60),
        deletes in prop::collection::vec((0i64..4, 0i64..8, 0i64..3), 1..60),
    ) {
        let mut oracle = learn(&rows);
        let mut arena_batched = oracle.compile();
        let mut arena_stepped = oracle.compile();

        let ins: Vec<[f64; 3]> = inserts.iter().map(|&(a, b, f)| tuple(a, b, f)).collect();
        arena_batched.insert_batch(&ins);
        for t in &ins {
            arena_stepped.insert(t);
            oracle.insert(t);
        }
        prop_assert!(
            arena_batched.bitwise_eq(&arena_stepped),
            "insert_batch diverged from one-by-one inserts"
        );

        let del: Vec<[f64; 3]> = deletes.iter().map(|&(a, b, f)| tuple(a, b, f)).collect();
        let n_batched = arena_batched.delete_batch(&del);
        let mut n_stepped = 0;
        for t in &del {
            n_stepped += usize::from(arena_stepped.delete(t));
            oracle.delete(t);
        }
        prop_assert_eq!(n_batched, n_stepped, "applied-delete counts diverged");
        prop_assert!(
            arena_batched.bitwise_eq(&arena_stepped),
            "delete_batch diverged from one-by-one deletes"
        );
        prop_assert_eq!(arena_batched.consistency_error(), None);
        assert_patch_equals_oracle(&arena_batched, &oracle);
    }
}

/// Draining a cluster empty and deleting into it again must be a consistent
/// no-op along the whole routed path — the regression case for the old
/// desync, where the sum count saturated at zero while the routed leaf kept
/// losing mass.
#[test]
fn empty_cluster_delete_is_a_consistent_noop() {
    // Two well-separated clusters so routing is unambiguous.
    let rows: Vec<(i64, i64, i64)> = (0..40)
        .map(|i| if i % 4 == 0 { (0, 0, 1) } else { (3, 7, 2) })
        .collect();
    let mut oracle = learn(&rows);
    let mut arena = oracle.compile();
    let t = tuple(0, 0, 1);

    // Drain every copy of the minority tuple (10 of them), then keep going.
    let mut removed = 0;
    for _ in 0..rows.len() {
        if !arena.delete(&t) {
            break;
        }
        assert!(oracle.delete(&t));
        removed += 1;
    }
    assert_eq!(removed, 10, "exactly the present copies are removable");
    assert_eq!(arena.n_rows(), 30);

    // Further deletes along the drained path: no-ops, no partial decrements.
    let before = arena.clone();
    assert!(!arena.delete(&t));
    assert!(!arena.delete(&tuple(0, 1, 1)));
    assert!(!oracle.delete(&t));
    assert_eq!(arena.consistency_error(), None);
    assert!(
        arena.bitwise_eq(&before),
        "no-op deletes must not touch state"
    );
    assert!(arena.bitwise_eq(&oracle.compile()));
}

/// NULL tuples route, patch, and delete through the NULL slot of every leaf.
#[test]
fn null_tuples_patch_null_mass_in_place() {
    let rows: Vec<(i64, i64, i64)> = (0..60).map(|i| (i % 3, i % 5, i % 3)).collect();
    let mut oracle = learn(&rows);
    let mut arena = oracle.compile();
    let q = SpnQuery::new(3).with_pred(2, LeafPred::IsNull);
    let before = arena.evaluate(&q);

    let t = tuple(1, 2, 0); // f = 0 encodes NULL
    arena.insert(&t);
    oracle.insert(&t);
    assert!(arena.evaluate(&q) > before, "NULL mass must grow in place");
    assert!(arena.bitwise_eq(&oracle.compile()));

    assert!(arena.delete(&t));
    assert!(oracle.delete(&t));
    assert_eq!(
        arena.evaluate(&q).to_bits(),
        oracle.compile().evaluate(&q).to_bits()
    );
    assert_eq!(arena.consistency_error(), None);
}
