//! SPN node structure and the top-level [`Spn`] handle.

use crate::{ColumnMeta, Leaf};

/// Sum node: a mixture over row clusters. Weights are stored as raw counts so
/// the update algorithm can increment/decrement them; centroids and
/// normalization statistics route inserted tuples to the nearest cluster
/// (paper Algorithm 1).
#[derive(Debug, Clone)]
pub struct SumNode {
    pub scope: Vec<usize>,
    pub children: Vec<Node>,
    /// Row count per child (weights = counts / Σcounts).
    pub counts: Vec<u64>,
    /// K-means centroids in z-space, aligned with `scope`.
    pub centroids: Vec<Vec<f64>>,
    /// Per-scope-column (mean, std) of the z-transform used for `centroids`.
    pub norm: Vec<(f64, f64)>,
}

/// Product node: independent column groups.
#[derive(Debug, Clone)]
pub struct ProductNode {
    pub scope: Vec<usize>,
    pub children: Vec<Node>,
}

/// A tree-structured SPN node.
#[derive(Debug, Clone)]
pub enum Node {
    Sum(SumNode),
    Product(ProductNode),
    Leaf(Leaf),
}

impl Node {
    /// Columns this node models, borrowed (leaves store their own one-element
    /// scope, so no visit allocates).
    pub fn scope(&self) -> &[usize] {
        match self {
            Node::Sum(s) => &s.scope,
            Node::Product(p) => &p.scope,
            Node::Leaf(l) => l.scope(),
        }
    }

    /// Total node count of the subtree (structure size metric).
    pub fn size(&self) -> usize {
        match self {
            Node::Leaf(_) => 1,
            Node::Sum(s) => 1 + s.children.iter().map(Node::size).sum::<usize>(),
            Node::Product(p) => 1 + p.children.iter().map(Node::size).sum::<usize>(),
        }
    }
}

/// A learned Sum-Product Network over an opaque `f64` matrix.
#[derive(Debug, Clone)]
pub struct Spn {
    pub(crate) root: Node,
    pub(crate) meta: Vec<ColumnMeta>,
    pub(crate) n_rows: u64,
}

impl Spn {
    pub fn n_columns(&self) -> usize {
        self.meta.len()
    }

    /// Number of rows currently represented (training rows ± updates).
    pub fn n_rows(&self) -> u64 {
        self.n_rows
    }

    /// Node count (model size diagnostic).
    pub fn size(&self) -> usize {
        self.root.size()
    }

    pub(crate) fn new(root: Node, meta: Vec<ColumnMeta>, n_rows: u64) -> Self {
        Self { root, meta, n_rows }
    }
}
