//! SPN snapshots: a compact hand-rolled binary format so learned models can
//! be persisted and bulk-loaded like indexes (paper §2 likens ensemble
//! creation to index building).
//!
//! The `DSPN1` format is a pre-order tree: per node its kind, then scope,
//! edge counts, centroids and z-normalization (sums), or the histogram
//! (leaves), then its children. [`CompiledSpn::write_to`] writes it straight
//! from the arena, walking from the root in stored child order;
//! [`CompiledSpn::read_from`] decodes it straight into an arena, appending
//! each node after its children — the same post-order ids as
//! [`CompiledSpn::compile`] — and derives weights, prefix sums, leaf modes,
//! runs and neutral tables through the same finishing step. No tree is
//! built on either side.

use std::io::{self, Read, Write};

use crate::arena::CompiledKind;
use crate::wire::*;
use crate::{ColumnMeta, CompiledSpn, Leaf};

const MAGIC: &[u8; 5] = b"DSPN1";

/// Deepest node nesting a snapshot may declare (the reader recurses).
const MAX_DEPTH: usize = 512;

impl CompiledSpn {
    /// Serialize the model.
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        w.write_all(MAGIC)?;
        write_u64(w, self.n_rows())?;
        write_u32(w, self.n_columns() as u32)?;
        for m in self.meta() {
            write_str(w, &m.name)?;
            write_u8(w, u8::from(m.discrete))?;
        }
        self.write_node(w, self.n_nodes() - 1)
    }

    fn write_node(&self, w: &mut impl Write, node: usize) -> io::Result<()> {
        let (s, e) = self.child_range(node);
        match self.kinds[node] {
            CompiledKind::Leaf => {
                write_u8(w, 0)?;
                return self.leaves[self.leaf_of[node] as usize].write_to(w);
            }
            CompiledKind::Sum => {
                write_u8(w, 1)?;
                write_usizes(w, self.scope(node))?;
                write_u64s(w, &self.counts[s..e])?;
                write_u32(w, (e - s) as u32)?;
                for c in self.centroids(node) {
                    write_f64s(w, c)?;
                }
                let norm = self.norm(node);
                write_u32(w, norm.len() as u32)?;
                for &(m, sd) in norm {
                    write_f64(w, m)?;
                    write_f64(w, sd)?;
                }
            }
            CompiledKind::Product => {
                write_u8(w, 2)?;
                write_usizes(w, self.scope(node))?;
            }
        }
        write_u32(w, (e - s) as u32)?;
        for &child in &self.children[s..e] {
            self.write_node(w, child as usize)?;
        }
        Ok(())
    }

    /// Deserialize a model written by [`CompiledSpn::write_to`].
    ///
    /// Every byte stream is treated as hostile: anything whose indices,
    /// arities or masses would panic (or overflow in debug builds) in
    /// evaluation or in the update walks is rejected with a clean
    /// `InvalidData` error.
    pub fn read_from(r: &mut impl Read) -> io::Result<CompiledSpn> {
        let mut magic = [0u8; 5];
        r.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(corrupt("magic"));
        }
        let n_rows = read_u64(r)?;
        let n_cols = read_u32(r)? as usize;
        if n_cols > 1 << 16 {
            return Err(corrupt("column count"));
        }
        let meta: Vec<ColumnMeta> = (0..n_cols)
            .map(|_| {
                Ok::<_, io::Error>(ColumnMeta {
                    name: read_str(r)?,
                    discrete: read_u8(r)? != 0,
                })
            })
            .collect::<io::Result<_>>()?;
        let mut arena = CompiledSpn::empty(meta, n_rows);
        arena.read_node(r, 0)?;
        arena.finish();
        // Updates decrement along routed paths; masses that do not add up
        // would underflow there.
        if let Some(e) = arena.consistency_error() {
            return Err(corrupt(&format!("mass bookkeeping: {e}")));
        }
        Ok(arena)
    }

    /// Decode one node and its subtree, appending them in post-order;
    /// returns the node's arena id.
    fn read_node(&mut self, r: &mut impl Read, depth: usize) -> io::Result<u32> {
        if depth > MAX_DEPTH {
            return Err(corrupt("node nesting"));
        }
        let n_cols = self.n_columns();
        match read_u8(r)? {
            0 => {
                let leaf = Leaf::read_from(r)?;
                leaf.validate(n_cols)?;
                Ok(self.push_leaf(leaf))
            }
            1 => {
                let scope = read_scope(r, n_cols, "sum scope column")?;
                let counts = read_u64s(r)?;
                // Weight totals are summed with plain `+` by the evaluators
                // and the update walks; they must not overflow u64.
                counts
                    .iter()
                    .try_fold(0u64, |total, &c| total.checked_add(c))
                    .ok_or_else(|| corrupt("sum counts overflow"))?;
                let n_centroids = read_u32(r)? as usize;
                let mut centroids = Vec::new();
                for _ in 0..n_centroids {
                    let c = read_f64s(r)?;
                    if c.len() != scope.len() {
                        return Err(corrupt("sum centroid arity"));
                    }
                    centroids.extend_from_slice(&c);
                }
                let n_norm = read_u32(r)? as usize;
                if n_norm != scope.len() {
                    return Err(corrupt("sum norm arity"));
                }
                let norm: Vec<(f64, f64)> = (0..n_norm)
                    .map(|_| Ok::<_, io::Error>((read_f64(r)?, read_f64(r)?)))
                    .collect::<io::Result<_>>()?;
                let n_children = read_u32(r)? as usize;
                // Updates route every tuple to one child, so a sum needs one.
                if n_children == 0 || n_children != counts.len() || n_children != n_centroids {
                    return Err(corrupt("sum node arity"));
                }
                let ids = self.read_children(r, n_children, depth)?;
                Ok(self.push_inner(CompiledKind::Sum, &scope, &ids, &counts, &norm, &centroids))
            }
            2 => {
                let scope = read_scope(r, n_cols, "product scope column")?;
                let n_children = read_u32(r)? as usize;
                if n_children > 1 << 20 {
                    return Err(corrupt("product arity"));
                }
                let ids = self.read_children(r, n_children, depth)?;
                Ok(self.push_inner(CompiledKind::Product, &scope, &ids, &[], &[], &[]))
            }
            _ => Err(corrupt("node tag")),
        }
    }

    fn read_children(&mut self, r: &mut impl Read, n: usize, depth: usize) -> io::Result<Vec<u32>> {
        (0..n).map(|_| self.read_node(r, depth + 1)).collect()
    }
}

fn read_scope(r: &mut impl Read, n_cols: usize, what: &str) -> io::Result<Vec<usize>> {
    let scope = read_usizes(r)?;
    if scope.iter().any(|&c| c >= n_cols) {
        return Err(corrupt(what));
    }
    Ok(scope)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DataView, LeafFunc, LeafPred, Spn, SpnParams, SpnQuery};

    fn lcg(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed;
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64
        }
    }

    fn sample_spn() -> Spn {
        let mut rng = lcg(3);
        let n = 3000;
        let mut a = Vec::with_capacity(n);
        let mut b = Vec::with_capacity(n);
        let mut c = Vec::with_capacity(n);
        for _ in 0..n {
            let cluster = rng() < 0.4;
            a.push(if cluster {
                (rng() * 3.0).floor()
            } else {
                3.0 + (rng() * 3.0).floor()
            });
            b.push(if cluster {
                rng() * 10.0
            } else {
                50.0 + rng() * 10.0
            });
            c.push(if rng() < 0.05 {
                f64::NAN
            } else {
                rng() * 100.0
            });
        }
        let cols = vec![a, b, c];
        let meta = vec![
            ColumnMeta::discrete("a"),
            ColumnMeta::continuous("b"),
            ColumnMeta::continuous("c"),
        ];
        // Force binning on column c by keeping the exact limit small.
        let params = SpnParams {
            max_distinct_exact: 100,
            ..SpnParams::default()
        };
        Spn::learn(DataView::new(&cols, &meta), &params)
    }

    fn round_trip(arena: &CompiledSpn) -> (Vec<u8>, CompiledSpn) {
        let mut buf = Vec::new();
        arena.write_to(&mut buf).unwrap();
        let restored = CompiledSpn::read_from(&mut buf.as_slice()).unwrap();
        (buf, restored)
    }

    #[test]
    fn snapshot_round_trip_preserves_all_queries() {
        let mut spn = sample_spn();
        let original = spn.compile();
        let (bytes, restored) = round_trip(&original);

        // The decoded arena is the written one, bit for bit, and writes the
        // same bytes again.
        assert!(restored.bitwise_eq(&original));
        assert_eq!(round_trip(&restored).0, bytes);
        assert_eq!(restored.meta()[1].name, "b");

        let queries = vec![
            SpnQuery::new(3),
            SpnQuery::new(3).with_pred(0, LeafPred::eq(2.0)),
            SpnQuery::new(3).with_pred(1, LeafPred::ge(30.0)),
            SpnQuery::new(3)
                .with_pred(0, LeafPred::In(vec![1.0, 4.0]))
                .with_func(1, LeafFunc::X),
            SpnQuery::new(3).with_pred(2, LeafPred::IsNull),
            SpnQuery::new(3)
                .with_func(2, LeafFunc::X2)
                .with_pred(0, LeafPred::le(3.0)),
        ];
        for q in &queries {
            let a = spn.evaluate(q);
            let b = restored.evaluate(q);
            assert_eq!(a.to_bits(), b.to_bits(), "query {q:?}: {a} vs {b}");
        }
    }

    /// Updates route through decoded centroids and norms: a restored arena
    /// must track the tree oracle under the same insert and delete.
    #[test]
    fn restored_model_supports_updates() {
        let mut spn = sample_spn();
        let (_, mut restored) = round_trip(&spn.compile());
        for t in [[1.0, 5.0, 50.0], [4.0, 55.0, f64::NAN]] {
            restored.insert(&t);
            spn.insert(&t);
            assert!(restored.bitwise_eq(&spn.compile()));
            assert!(restored.delete(&t));
            assert!(spn.delete(&t));
            assert!(restored.bitwise_eq(&spn.compile()));
        }
    }

    #[test]
    fn corrupt_magic_is_rejected() {
        let mut buf = Vec::new();
        sample_spn().compile().write_to(&mut buf).unwrap();
        buf[0] = b'X';
        assert!(CompiledSpn::read_from(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn truncated_snapshot_is_rejected() {
        let mut buf = Vec::new();
        sample_spn().compile().write_to(&mut buf).unwrap();
        let cut = buf.len() / 2;
        assert!(CompiledSpn::read_from(&mut &buf[..cut]).is_err());
    }

    /// Masses that do not add up would underflow in a later delete: the
    /// reader refuses them.
    #[test]
    fn inconsistent_masses_are_rejected() {
        let spn = sample_spn();
        let mut buf = Vec::new();
        spn.compile().write_to(&mut buf).unwrap();
        // n_rows sits right after the magic.
        buf[5..13].copy_from_slice(&(spn.n_rows() + 1).to_le_bytes());
        let err = CompiledSpn::read_from(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
