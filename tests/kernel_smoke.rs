//! Tier-1 guard for the SPN sweep kernels: batched expectation and
//! max-product evaluation on the compiled arena agree with the recursive
//! oracle bit for bit — at batch sizes on both sides of the sweep tile,
//! with and without sub-DAG pruning, and after in-place inserts.

use std::collections::BTreeSet;

use deepdb::spn::{
    BatchEvaluator, ColumnMeta, CompiledSpn, DataView, LeafFunc, LeafPred, MaxProductEvaluator,
    MpeProbe, Spn, SpnParams, SpnQuery,
};

/// One- to five-probe batches (a cardinality probe bundle is one to three)
/// and batches straddling the 32-probe sweep tile.
const SIZES: [usize; 9] = [1, 2, 3, 4, 5, 31, 32, 33, 65];

/// Learn a 3-column model over `rows` seeded rows: two discrete columns
/// driven by a latent cluster id (so learning splits rows and columns) and
/// a nullable factor-like column (NaN = NULL).
fn learn(rows: usize, clusters: u64, params: &SpnParams) -> Spn {
    let mut state = 0x5EED ^ clusters;
    let mut draw = move |m: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % m
    };
    let mut cols: Vec<Vec<f64>> = vec![Vec::new(); 3];
    for _ in 0..rows {
        let c = draw(clusters);
        cols[0].push((c * 3 + draw(3)) as f64);
        cols[1].push((c * 5 + draw(5)) as f64);
        cols[2].push(if draw(7) == 0 {
            f64::NAN
        } else {
            (c % 4 + draw(2)) as f64
        });
    }
    let meta = vec![
        ColumnMeta::discrete("a"),
        ColumnMeta::discrete("b"),
        ColumnMeta::discrete("f"),
    ];
    Spn::learn(DataView::new(&cols, &meta), params)
}

fn queries() -> Vec<SpnQuery> {
    vec![
        SpnQuery::new(3),
        SpnQuery::new(3).with_pred(0, LeafPred::eq(4.0)),
        SpnQuery::new(3)
            .with_pred(1, LeafPred::ge(12.0))
            .with_func(2, LeafFunc::InvClamp1),
        SpnQuery::new(3).with_pred(2, LeafPred::IsNull),
        SpnQuery::new(3)
            .with_pred(2, LeafPred::IsNotNull)
            .with_func(2, LeafFunc::X2),
        SpnQuery::new(3)
            .with_pred(0, LeafPred::In(vec![1.0, 7.0, 99.0]))
            .with_func(1, LeafFunc::X),
        // Empty support: a value no row holds.
        SpnQuery::new(3).with_pred(1, LeafPred::eq(1000.0)),
    ]
}

fn probes() -> Vec<MpeProbe> {
    vec![
        MpeProbe::new(0, SpnQuery::new(3)),
        MpeProbe::new(1, SpnQuery::new(3).with_pred(0, LeafPred::le(5.0))),
        MpeProbe::new(2, SpnQuery::new(3).with_pred(1, LeafPred::ge(20.0))),
        MpeProbe::new(0, SpnQuery::new(3).with_pred(2, LeafPred::IsNull)),
        MpeProbe::new(1, SpnQuery::new(3).with_pred(0, LeafPred::eq(1000.0))),
    ]
}

/// Columns a batch constrains, plus MPE targets: the cover an active set
/// needs for the pruned sweep to equal the full one.
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

fn check(spn: &mut Spn, arena: &CompiledSpn, label: &str) {
    let (qs, ps) = (queries(), probes());
    let mut ev = BatchEvaluator::new();
    let mut mp = MaxProductEvaluator::new();
    for n in SIZES {
        let batch: Vec<SpnQuery> = (0..n).map(|i| qs[i % qs.len()].clone()).collect();
        let want: Vec<u64> = batch.iter().map(|q| spn.evaluate(q).to_bits()).collect();
        let active = arena.active_set(&cover(&batch, &[]));
        for set in [None, Some(&active)] {
            let got: Vec<u64> = ev
                .evaluate(arena, &batch, set)
                .iter()
                .map(|v| v.to_bits())
                .collect();
            let pruned = set.is_some();
            assert_eq!(
                got, want,
                "{label}: expectation, {n} probes, pruned {pruned}"
            );
        }

        let batch: Vec<MpeProbe> = (0..n).map(|i| ps[i % ps.len()].clone()).collect();
        let want: Vec<(u64, Option<u64>)> = batch
            .iter()
            .map(|p| {
                let (score, value) = spn.mpe_outcome(p.target, &p.query);
                (score.to_bits(), value.map(f64::to_bits))
            })
            .collect();
        let active = arena.active_set(&cover(&[], &batch));
        for set in [None, Some(&active)] {
            let got: Vec<(u64, Option<u64>)> = mp
                .evaluate(arena, &batch, set)
                .iter()
                .map(|o| (o.score.to_bits(), o.value.map(f64::to_bits)))
                .collect();
            let pruned = set.is_some();
            assert_eq!(
                got, want,
                "{label}: max-product, {n} probes, pruned {pruned}"
            );
        }
    }
}

#[test]
fn compiled_sweeps_match_the_recursive_oracle_bitwise() {
    let shallow = SpnParams::default();
    let deep = SpnParams {
        min_instance_ratio: 0.01,
        ..SpnParams::default()
    };
    for (label, mut spn) in [
        ("shallow", learn(300, 3, &shallow)),
        ("deep", learn(800, 8, &deep)),
    ] {
        let mut arena = spn.compile();
        assert!(
            arena.n_nodes() > arena.n_leaves() + 1,
            "{label}: the model must have inner nodes to sweep"
        );
        check(&mut spn, &arena, label);
        for k in 0..6u32 {
            let f = if k % 3 == 0 { f64::NAN } else { 1.0 };
            spn.insert_patch(&mut arena, &[f64::from(k), f64::from(k * 5), f]);
        }
        check(&mut spn, &arena, &format!("{label} after inserts"));
    }
}
