//! Differential property suite for compiled max-product inference: the
//! arena MPE pass ([`deepdb_spn::MaxProductEvaluator`]) must agree with the
//! recursive oracle **bitwise** (score) and exactly (value) on randomized
//! SPNs × randomized evidence — including NULL evidence, empty-support
//! targets (evidence values the model never saw), and tied clusters (small
//! discrete domains make exact weight/score ties common). Both paths share
//! one tie-break rule: the lowest-index child wins at sum nodes, the lowest
//! value wins inside a leaf. Agreement holds across tile-boundary batches
//! and after in-place patched-update streams.

use deepdb_spn::{
    ColumnMeta, DataView, LeafPred, MaxProductEvaluator, MpeProbe, Spn, SpnParams, SpnQuery,
};
use proptest::prelude::*;

/// Learn a 3-column SPN: two small discrete columns (tight domains force
/// frequent exact ties) and a nullable column where `0` encodes NULL.
fn learn(rows: &[(i64, i64, i64)]) -> Spn {
    let a: Vec<f64> = rows.iter().map(|&(x, _, _)| x as f64).collect();
    let b: Vec<f64> = rows.iter().map(|&(_, y, _)| y as f64).collect();
    let c: Vec<f64> = rows
        .iter()
        .map(|&(_, _, z)| if z == 0 { f64::NAN } else { z as f64 })
        .collect();
    let meta = vec![
        ColumnMeta::discrete("a"),
        ColumnMeta::discrete("b"),
        ColumnMeta::discrete("c"),
    ];
    let cols = vec![a, b, c];
    let params = SpnParams {
        rdc_sample_rows: 400,
        ..SpnParams::default()
    };
    Spn::learn(DataView::new(&cols, &meta), &params)
}

/// Build one evidence query from slot specs `(col, pred_kind, v)`. Values
/// range past the training domain so empty-support evidence is generated.
fn build_evidence(specs: &[(usize, i64, i64)]) -> SpnQuery {
    let mut q = SpnQuery::new(3);
    for &(col, kind, v) in specs {
        let v = v as f64;
        match kind % 6 {
            0 => {}
            1 => q.add_pred(col, LeafPred::eq(v)),
            2 => q.add_pred(col, LeafPred::le(v)),
            3 => q.add_pred(col, LeafPred::ge(v)),
            4 => q.add_pred(col, LeafPred::IsNull),
            _ => q.add_pred(col, LeafPred::IsNotNull),
        }
    }
    q
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Compiled MPE ≡ recursive oracle: exact value equality and bitwise
    /// score equality, for every target column, across batches that straddle
    /// the sweep tile width.
    #[test]
    fn compiled_mpe_matches_recursive_oracle(
        rows in prop::collection::vec((0i64..4, 0i64..6, 0i64..4), 20..250),
        batch in prop::collection::vec(
            (0usize..3, prop::collection::vec((0usize..3, 0i64..6, -2i64..9), 0..3)),
            1..70,
        ),
    ) {
        let mut spn = learn(&rows);
        let compiled = spn.compile();
        let probes: Vec<MpeProbe> = batch
            .iter()
            .map(|(target, specs)| MpeProbe::new(*target, build_evidence(specs)))
            .collect();
        let got = MaxProductEvaluator::new().evaluate(&compiled, &probes, None);
        prop_assert_eq!(got.len(), probes.len());
        for (i, p) in probes.iter().enumerate() {
            let (want_score, want_value) = spn.mpe_outcome(p.target, &p.query);
            prop_assert_eq!(
                got[i].value, want_value,
                "probe {} (target {}): compiled {:?} vs oracle {:?} for {:?}",
                i, p.target, got[i].value, want_value, p.query
            );
            prop_assert_eq!(
                got[i].score.to_bits(), want_score.to_bits(),
                "probe {} score: compiled {} vs oracle {}",
                i, got[i].score, want_score
            );
        }
    }

    /// Empty-support evidence (values outside the training domain, or
    /// contradictory NULL constraints) still agrees exactly — the winning
    /// branch under all-zero scores is the lowest-index one on both paths.
    #[test]
    fn empty_support_and_null_evidence_agree(
        rows in prop::collection::vec((0i64..3, 0i64..5, 0i64..3), 15..150),
        target in 0usize..3,
    ) {
        let mut spn = learn(&rows);
        let compiled = spn.compile();
        let ev_col = (target + 1) % 3;
        let probes = vec![
            // Value the model has never seen.
            MpeProbe::new(target, SpnQuery::new(3).with_pred(ev_col, LeafPred::eq(99.0))),
            // Contradiction: NULL and NOT NULL at once.
            MpeProbe::new(
                target,
                SpnQuery::new(3)
                    .with_pred(2, LeafPred::IsNull)
                    .with_pred(2, LeafPred::IsNotNull),
            ),
            // NULL evidence on the nullable column.
            MpeProbe::new(target, SpnQuery::new(3).with_pred(2, LeafPred::IsNull)),
        ];
        let got = MaxProductEvaluator::new().evaluate(&compiled, &probes, None);
        for (i, p) in probes.iter().enumerate() {
            let (want_score, want_value) = spn.mpe_outcome(p.target, &p.query);
            prop_assert_eq!(got[i].value, want_value, "probe {}", i);
            prop_assert_eq!(got[i].score.to_bits(), want_score.to_bits(), "probe {}", i);
        }
    }

    /// The equivalence survives in-place update streams: patched arenas keep
    /// their cached leaf modes (and hence MPE answers) in sync with the tree.
    #[test]
    fn mpe_agrees_after_patched_updates(
        rows in prop::collection::vec((0i64..3, 0i64..5, 0i64..3), 20..120),
        tuples in prop::collection::vec((0i64..3, 0i64..5, 0i64..3), 1..12),
        target in 0usize..3,
    ) {
        let mut spn = learn(&rows);
        let mut arena = spn.compile();
        for &(x, y, z) in &tuples {
            let t = [x as f64, y as f64, if z == 0 { f64::NAN } else { z as f64 }];
            spn.insert(&t);
            arena.insert(&t);
        }
        prop_assert!(arena.bitwise_eq(&spn.compile()), "patched arena diverged from the tree oracle");
        let q = SpnQuery::new(3).with_pred((target + 1) % 3, LeafPred::ge(1.0));
        let got = MaxProductEvaluator::new()
            .evaluate(&arena, &[MpeProbe::new(target, q.clone())], None)[0];
        let (want_score, want_value) = spn.mpe_outcome(target, &q);
        prop_assert_eq!(got.value, want_value);
        prop_assert_eq!(got.score.to_bits(), want_score.to_bits());
        // Compiled ≡ oracle on the patched arena, across a batch that
        // straddles the tile width.
        let probes: Vec<MpeProbe> = (0..40)
            .map(|i| MpeProbe::new(
                (target + i) % 3,
                SpnQuery::new(3).with_pred((target + i + 1) % 3, LeafPred::ge((i % 4) as f64)),
            ))
            .collect();
        let got = MaxProductEvaluator::new().evaluate(&arena, &probes, None);
        for (i, (g, p)) in got.iter().zip(&probes).enumerate() {
            let (want_score, want_value) = spn.mpe_outcome(p.target, &p.query);
            prop_assert_eq!(g.value, want_value, "probe {}: compiled vs oracle value", i);
            prop_assert_eq!(
                g.score.to_bits(), want_score.to_bits(),
                "probe {}: compiled {} vs oracle {}", i, g.score, want_score
            );
        }
    }
}
