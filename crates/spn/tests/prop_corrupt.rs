//! Corrupted-snapshot fuzzing: `CompiledSpn::read_from` must treat every
//! byte stream as hostile. Truncations and bit flips of a valid snapshot
//! must either fail cleanly with a typed `InvalidData` error or yield an
//! arena that still evaluates and absorbs an insert and a delete (updates
//! route through decoded centroids) — never a panic, never an unbounded
//! allocation.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

use deepdb_spn::{ColumnMeta, CompiledSpn, DataView, LeafPred, Spn, SpnParams, SpnQuery};
use proptest::prelude::*;

/// A snapshot with both leaf kinds (exact and binned), sum and product
/// nodes, serialized once.
fn snapshot() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let mut state = 0xC0FFEE_u64;
        let mut rng = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        let n = 2000;
        let mut a = Vec::with_capacity(n);
        let mut b = Vec::with_capacity(n);
        let mut c = Vec::with_capacity(n);
        for _ in 0..n {
            let cluster = rng() < 0.5;
            a.push(if cluster {
                (rng() * 3.0).floor()
            } else {
                4.0 + (rng() * 3.0).floor()
            });
            b.push(if cluster {
                rng() * 5.0
            } else {
                40.0 + rng() * 5.0
            });
            c.push(if rng() < 0.04 { f64::NAN } else { rng() * 90.0 });
        }
        let cols = vec![a, b, c];
        let meta = vec![
            ColumnMeta::discrete("a"),
            ColumnMeta::continuous("b"),
            ColumnMeta::continuous("c"),
        ];
        let params = SpnParams {
            max_distinct_exact: 64, // force binned leaves on c
            ..SpnParams::default()
        };
        let spn = Spn::learn(DataView::new(&cols, &meta), &params);
        let mut buf = Vec::new();
        spn.compile().write_to(&mut buf).unwrap();
        buf
    })
}

/// Load `bytes` and, if it parses, exercise the model: evaluation and one
/// insert plus one delete must not panic on whatever state decoded.
fn load_and_exercise(bytes: &[u8]) -> Result<(), String> {
    catch_unwind(AssertUnwindSafe(|| {
        if let Ok(mut arena) = CompiledSpn::read_from(&mut &bytes[..]) {
            let n = arena.n_columns();
            let _ = arena.evaluate(&SpnQuery::new(n));
            if n > 0 {
                let _ = arena.evaluate(&SpnQuery::new(n).with_pred(0, LeafPred::ge(1.0)));
            }
            let row: Vec<f64> = (0..n).map(|c| c as f64).collect();
            arena.insert(&row);
            arena.delete(&row);
        }
    }))
    .map_err(|_| "panicked".to_string())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every strict prefix of a snapshot is rejected with a clean error.
    #[test]
    fn truncated_snapshots_fail_cleanly(cut_seed in 0usize..usize::MAX) {
        let buf = snapshot();
        let cut = cut_seed % buf.len();
        let truncated = &buf[..cut];
        prop_assert!(load_and_exercise(truncated).is_ok(), "panicked at cut {cut}");
        let r = CompiledSpn::read_from(&mut &truncated[..]);
        prop_assert!(r.is_err(), "strict prefix of length {cut} parsed");
    }

    /// Bit-flipped snapshots never panic and never poison evaluation: they
    /// are either rejected or load into an arena that still evaluates and
    /// updates.
    #[test]
    fn bit_flipped_snapshots_never_panic(
        flips in prop::collection::vec((0usize..usize::MAX, 0u32..8), 1..8),
        cut_seed in prop::option::of(0usize..usize::MAX),
    ) {
        let mut buf = snapshot().to_vec();
        for &(off, bit) in &flips {
            let i = off % buf.len();
            buf[i] ^= 1 << bit;
        }
        // Optionally truncate after flipping (torn + corrupted write).
        if let Some(cs) = cut_seed {
            buf.truncate(cs % (buf.len() + 1));
        }
        prop_assert!(
            load_and_exercise(&buf).is_ok(),
            "panicked on flips {flips:?} cut {cut_seed:?}"
        );
    }
}
