//! Query shapes — the plan cache's keys — and the literal walks behind them.
//!
//! A [`QueryShape`] is everything that determines plan structure and nothing
//! a literal rebind can change. The literals themselves are read and written
//! in one canonical order, the bind order of
//! [`crate::PreparedQuery::execute`]; sentinels are their stand-ins during
//! bind discovery (see [`crate::checkout`]).

use deepdb_storage::{
    Aggregate, CmpOp, ColId, ColumnRef, PredOp, Predicate, Query, TableId, Value,
};

// ---------------------------------------------------------------------------
// Sentinels
// ---------------------------------------------------------------------------

/// Base bit pattern of the sentinel range: huge finite doubles (~9e307) that
/// cannot occur as translated plan constants and survive every
/// literal-preserving translation bitwise.
pub(crate) const SENT_BASE: u64 = 0x7FE0_0000_0000_0000;

/// Sentinel stand-in for literal `i` during bind discovery.
fn sentinel(i: u32) -> f64 {
    f64::from_bits(SENT_BASE + u64::from(i))
}

// ---------------------------------------------------------------------------
// Query shapes (cache keys)
// ---------------------------------------------------------------------------

/// Structural fingerprint of one predicate: which column it touches and the
/// operator *shape* (literal nullness included — NULL comparisons translate
/// to different probe structures), but never the literal values.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct PredShape {
    table: TableId,
    column: ColId,
    op: OpShape,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum OpShape {
    /// Comparison operator code + whether the literal is NULL.
    Cmp(u8, bool),
    /// Per-element nullness of the IN list (length implied).
    In(Vec<bool>),
    /// Nullness of the lower/upper bound.
    Between(bool, bool),
    IsNull,
    IsNotNull,
}

fn cmp_code(op: CmpOp) -> u8 {
    match op {
        CmpOp::Eq => 0,
        CmpOp::Ne => 1,
        CmpOp::Lt => 2,
        CmpOp::Le => 3,
        CmpOp::Gt => 4,
        CmpOp::Ge => 5,
    }
}

fn pred_shape(p: &Predicate) -> PredShape {
    let op = match &p.op {
        PredOp::Cmp(op, v) => OpShape::Cmp(cmp_code(*op), matches!(v, Value::Null)),
        PredOp::In(vs) => OpShape::In(vs.iter().map(|v| matches!(v, Value::Null)).collect()),
        PredOp::Between(lo, hi) => {
            OpShape::Between(matches!(lo, Value::Null), matches!(hi, Value::Null))
        }
        PredOp::IsNull => OpShape::IsNull,
        PredOp::IsNotNull => OpShape::IsNotNull,
    };
    PredShape {
        table: p.table,
        column: p.column,
        op,
    }
}

fn pred_shapes(preds: &[Predicate]) -> Vec<PredShape> {
    preds.iter().map(pred_shape).collect()
}

/// Canonical cache key: everything that determines plan structure, nothing
/// that a literal rebind can change. `agg` separates the entry points
/// ([`agg_code`]); `disjuncts` is non-empty exactly for a disjunction.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct QueryShape {
    tables: Vec<TableId>,
    agg: (u8, TableId, ColId),
    preds: Vec<PredShape>,
    disjuncts: Vec<Vec<PredShape>>,
}

/// Which entry point an artifact serves (and therefore how it resolves).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ArtifactKind {
    /// `estimate_count` — plain COUNT resolution.
    Count,
    /// `estimate_avg` on the given target column.
    Avg(ColumnRef),
    /// `estimate_sum`: non-NULL COUNT × AVG on the given target column.
    Sum(ColumnRef),
    /// `execute_aqp`'s scalar path: a `(aggregate, count)` pair via
    /// [`crate::compile::register_scalar`] (aggregate kind read from the query).
    AqpScalar,
}

impl ArtifactKind {
    /// The single-estimate artifact a scalar `query` executes through
    /// (`prepare`, `ServeFront::serve`).
    pub(crate) fn of(query: &Query) -> Self {
        match query.aggregate {
            Aggregate::CountStar => ArtifactKind::Count,
            Aggregate::Avg(t) => ArtifactKind::Avg(t),
            Aggregate::Sum(t) => ArtifactKind::Sum(t),
        }
    }
}

fn agg_code(kind: ArtifactKind, query: &Query) -> (u8, TableId, ColId) {
    match kind {
        ArtifactKind::Count => (0, 0, 0),
        ArtifactKind::Avg(t) => (1, t.table, t.column),
        ArtifactKind::Sum(t) => (2, t.table, t.column),
        ArtifactKind::AqpScalar => match query.aggregate {
            Aggregate::CountStar => (3, 0, 0),
            Aggregate::Avg(t) => (4, t.table, t.column),
            Aggregate::Sum(t) => (5, t.table, t.column),
        },
    }
}

pub(crate) fn artifact_shape(
    query: &Query,
    kind: ArtifactKind,
    disjuncts: &[Vec<Predicate>],
) -> QueryShape {
    QueryShape {
        tables: query.tables.clone(),
        agg: agg_code(kind, query),
        preds: pred_shapes(&query.predicates),
        disjuncts: disjuncts.iter().map(|d| pred_shapes(d)).collect(),
    }
}

// ---------------------------------------------------------------------------
// Literal extraction / substitution
// ---------------------------------------------------------------------------

/// Read the literals of a predicate list in canonical order — predicate
/// order, within `Cmp` the value, within `Between` lo then hi, within `In`
/// the elements in order, non-NULL slots only — calling `f` on each as
/// `f64`. With `tables`, predicates on other tables are skipped (a join
/// subset's bind vector is exactly that restriction, because literal order
/// is predicate order). The one read-only walker behind [`query_literals`],
/// [`crate::checkout::Checkout`] and the join-order enumerator.
pub(crate) fn for_each_literal(
    preds: &[Predicate],
    tables: Option<&[TableId]>,
    mut f: impl FnMut(f64),
) {
    for p in preds {
        if tables.is_some_and(|ts| !ts.contains(&p.table)) {
            continue;
        }
        match &p.op {
            PredOp::Cmp(_, v) => v.as_f64().into_iter().for_each(&mut f),
            PredOp::Between(lo, hi) => [lo, hi]
                .into_iter()
                .filter_map(Value::as_f64)
                .for_each(&mut f),
            PredOp::In(vs) => vs.iter().filter_map(Value::as_f64).for_each(&mut f),
            PredOp::IsNull | PredOp::IsNotNull => {}
        }
    }
}

/// [`for_each_literal`]'s mutable twin, for the two places that *write*
/// literal slots: the sentinel build of bind discovery and the re-plan of an
/// unbindable shape.
fn walk_pred_literals(preds: &mut [Predicate], mut f: impl FnMut(&mut Value)) {
    for p in preds {
        match &mut p.op {
            PredOp::Cmp(_, v) => {
                if !matches!(v, Value::Null) {
                    f(v);
                }
            }
            PredOp::Between(lo, hi) => {
                for v in [lo, hi] {
                    if !matches!(v, Value::Null) {
                        f(v);
                    }
                }
            }
            PredOp::In(vs) => {
                for v in vs.iter_mut() {
                    if !matches!(v, Value::Null) {
                        f(v);
                    }
                }
            }
            PredOp::IsNull | PredOp::IsNotNull => {}
        }
    }
}

/// Every non-NULL literal of the query (and disjuncts, in order) as `f64` —
/// the **bind vector** of the query's shape. This is the order
/// [`crate::PreparedQuery::execute`] expects its `literals` argument in; the
/// convenience extractor [`query_literals`] exposes it publicly.
pub(crate) fn collect_all_literals(query: &Query, disjuncts: &[Vec<Predicate>]) -> Vec<f64> {
    let mut out = Vec::new();
    for_each_literal(&query.predicates, None, |v| out.push(v));
    for d in disjuncts {
        for_each_literal(d, None, |v| out.push(v));
    }
    out
}

/// The literal vector of a query in the canonical bind order (predicate
/// order; within a predicate: `Cmp` value, `Between` lo then hi, `In`
/// elements in order; NULL literals are structural, not bindable). Pass a
/// same-shaped vector to [`crate::PreparedQuery::execute`] to rebind.
pub fn query_literals(query: &Query) -> Vec<f64> {
    collect_all_literals(query, &[])
}

/// Clone of the query (and disjuncts) with every literal replaced by its
/// sentinel — the second build of bind discovery.
pub(crate) fn sentinel_variant(
    query: &Query,
    disjuncts: &[Vec<Predicate>],
) -> (Query, Vec<Vec<Predicate>>) {
    let mut i = 0u32;
    let mut q = query.clone();
    walk_pred_literals(&mut q.predicates, |v| {
        *v = Value::Float(sentinel(i));
        i += 1;
    });
    let ds = disjuncts
        .iter()
        .map(|d| {
            let mut d = d.clone();
            walk_pred_literals(&mut d, |v| {
                *v = Value::Float(sentinel(i));
                i += 1;
            });
            d
        })
        .collect();
    (q, ds)
}

/// Overwrite the query's literal slots with `literals` (f64-space; every
/// translation layer compares through [`Value::as_f64`], so `Float`
/// replacements behave identically to the original `Int` literals).
pub(crate) fn rebind_query_literals(query: &mut Query, literals: &[f64]) {
    let mut i = 0usize;
    walk_pred_literals(&mut query.predicates, |v| {
        *v = Value::Float(literals[i]);
        i += 1;
    });
    debug_assert_eq!(i, literals.len(), "literal arity mismatch");
}
