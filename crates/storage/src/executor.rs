//! Ground-truth query execution.
//!
//! A streaming multi-way hash-join pipeline over the FK join tree: the first
//! table is scanned, every further table is attached through a hash index,
//! and aggregates are folded without materializing the join. This gives the
//! exact answers (cardinalities, aggregates) that the experiments compare
//! estimators against.
//!
//! The scan order is pluggable: [`execute`]/[`execute_with_indexes`] use the
//! listed order (BFS from the first `FROM` table, [`plan_order`]), while
//! [`execute_ordered`] takes a [`JoinOrder`] chosen by the cardinality-driven
//! optimizer ([`crate::optimizer`]). Every valid order produces the same
//! multiset of join combinations, so outputs are identical — only the number
//! of intermediate rows enumerated (and therefore runtime) changes.
//! [`execute_ordered_with_stats`] additionally reports the actual per-level
//! intermediate cardinalities, the ground truth `explain` renders next to the
//! optimizer's estimates.

use std::collections::HashMap;

use crate::optimizer::JoinOrder;
use crate::{Aggregate, ColId, Database, Indexes, Predicate, Query, StorageError, TableId, Value};

/// Accumulated aggregate state for one (group of) result row(s).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AggResult {
    /// `COUNT(*)` over qualifying join rows.
    pub count: u64,
    /// Sum of the (non-NULL) aggregate input.
    pub sum: f64,
    /// Number of non-NULL aggregate inputs (denominator of AVG).
    pub non_null: u64,
}

impl AggResult {
    /// `AVG`; `None` when no non-NULL inputs qualified.
    pub fn avg(&self) -> Option<f64> {
        (self.non_null > 0).then(|| self.sum / self.non_null as f64)
    }

    /// The value of the query's aggregate.
    pub fn value_for(&self, agg: Aggregate) -> Option<f64> {
        match agg {
            Aggregate::CountStar => Some(self.count as f64),
            Aggregate::Sum(_) => (self.count > 0).then_some(self.sum),
            Aggregate::Avg(_) => self.avg(),
        }
    }

    fn absorb(&mut self, agg_value: Option<Value>) {
        self.count += 1;
        if let Some(v) = agg_value {
            if let Some(x) = v.as_f64() {
                self.sum += x;
                self.non_null += 1;
            }
        }
    }
}

/// Result of [`execute`]: a scalar for plain aggregates, per-group results
/// for GROUP BY queries.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryOutput {
    Scalar(AggResult),
    Grouped(Vec<(Vec<Value>, AggResult)>),
}

impl QueryOutput {
    /// Scalar accessor with **contractual** grouped-sum semantics.
    ///
    /// For `Scalar` output this returns the aggregate state verbatim. For
    /// `Grouped` output the per-group states are *component-wise summed* —
    /// NULL groups included — so:
    ///
    /// * `scalar().count` is the total number of qualifying join rows, i.e.
    ///   exactly the `COUNT(*)` of the same query without its `GROUP BY`
    ///   clause (cardinality checks on grouped queries rely on this);
    /// * `scalar().sum` is the `SUM` over all groups (each group's sum is an
    ///   order-independent sum of its inputs, so for integer-valued columns
    ///   below 2^53 the total is exact regardless of grouping or join
    ///   order);
    /// * `scalar().non_null` is the total non-NULL aggregate-input count, so
    ///   `scalar().avg()` is the ungrouped `AVG` (the *row-weighted* mean of
    ///   the group means, not their unweighted mean).
    pub fn scalar(&self) -> AggResult {
        match self {
            QueryOutput::Scalar(a) => *a,
            QueryOutput::Grouped(gs) => {
                let mut total = AggResult::default();
                for (_, a) in gs {
                    total.count += a.count;
                    total.sum += a.sum;
                    total.non_null += a.non_null;
                }
                total
            }
        }
    }

    /// Group list (empty slice for scalar output).
    pub fn groups(&self) -> &[(Vec<Value>, AggResult)] {
        match self {
            QueryOutput::Scalar(_) => &[],
            QueryOutput::Grouped(g) => g,
        }
    }
}

/// One join step: attach `table` by matching `probe_col` values of an earlier
/// table against this table's `build_col`.
struct JoinStep {
    table: TableId,
    /// Index into the plan order of the already-joined table we probe from.
    from_level: usize,
    /// Column of the earlier table whose value we look up.
    probe_col: ColId,
    /// Column of the new table the hash index is built on.
    build_col: ColId,
}

/// The hash index one join step probes — the "build side" of the step.
/// Prebuilt [`Indexes`] are borrowed (never cloned): FK-side builds reuse
/// the children index, PK-side builds reuse the unique primary-key index.
/// Only when no prebuilt index matches is a private one built per query.
enum StepIndex<'a> {
    /// Borrowed prebuilt children index (build column is a child FK).
    Children(&'a HashMap<i64, Vec<u32>>),
    /// Borrowed prebuilt unique index (build column is the table's PK).
    Unique(&'a HashMap<i64, u32>),
    /// Index built for this query only.
    Owned(HashMap<i64, Vec<u32>>),
}

/// Actual per-level execution counts collected by
/// [`execute_ordered_with_stats`] — the ground truth `explain` compares the
/// optimizer's estimates against.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// The scan order that was executed.
    pub order: Vec<TableId>,
    /// `rows_per_level[k]` = number of partial join rows that survived the
    /// filters at level `k`, i.e. the exact cardinality of the filtered
    /// inner join of the first `k + 1` tables of the order (with predicates
    /// restricted to those tables). The last entry is the query's qualifying
    /// row count.
    pub rows_per_level: Vec<u64>,
}

/// Execute a query, building temporary indexes.
pub fn execute(db: &Database, q: &Query) -> Result<QueryOutput, StorageError> {
    execute_with_indexes(db, q, None)
}

/// Execute a query in the listed (BFS) table order, reusing prebuilt
/// [`Indexes`] where possible.
pub fn execute_with_indexes(
    db: &Database,
    q: &Query,
    idx: Option<&Indexes>,
) -> Result<QueryOutput, StorageError> {
    q.validate(db)?;
    let order = plan_order(db, &q.tables)?;
    run_ordered(db, q, idx, &order).map(|(out, _)| out)
}

/// Execute a query in the scan order chosen by a join-order optimizer
/// ([`crate::optimizer`]). The order must cover exactly the query's tables
/// and every prefix must stay FK-connected; any valid order returns output
/// identical to [`execute`].
pub fn execute_ordered(
    db: &Database,
    q: &Query,
    idx: Option<&Indexes>,
    order: &JoinOrder,
) -> Result<QueryOutput, StorageError> {
    q.validate(db)?;
    check_order(db, &q.tables, &order.tables)?;
    run_ordered(db, q, idx, &order.tables).map(|(out, _)| out)
}

/// [`execute_ordered`] plus the actual per-level intermediate cardinalities
/// (the `actual` column of [`crate::optimizer::explain`]).
pub fn execute_ordered_with_stats(
    db: &Database,
    q: &Query,
    idx: Option<&Indexes>,
    order: &JoinOrder,
) -> Result<(QueryOutput, ExecStats), StorageError> {
    q.validate(db)?;
    check_order(db, &q.tables, &order.tables)?;
    run_ordered(db, q, idx, &order.tables)
}

/// Validate that `order` is a permutation of `tables` whose every prefix is
/// FK-connected (each table after the first joins an earlier one).
fn check_order(db: &Database, tables: &[TableId], order: &[TableId]) -> Result<(), StorageError> {
    if order.len() != tables.len()
        || tables.iter().any(|t| !order.contains(t))
        || order.iter().any(|t| !tables.contains(t))
    {
        return Err(StorageError::InvalidQuery(format!(
            "join order {order:?} is not a permutation of the query tables {tables:?}"
        )));
    }
    for (i, &t) in order.iter().enumerate().skip(1) {
        if !order[..i].iter().any(|&u| db.edge_between(u, t).is_some()) {
            return Err(StorageError::DisconnectedJoin(format!(
                "join order {order:?}: table {t} has no FK edge to an earlier table"
            )));
        }
    }
    Ok(())
}

/// The shared execution body: stream the first table of `order`, attach every
/// further table through a hash index, fold aggregates. Counts survivors per
/// level as it goes (the counters are plain increments on rows the join
/// already enumerates, so the listed-order wrappers share this body too).
fn run_ordered(
    db: &Database,
    q: &Query,
    idx: Option<&Indexes>,
    order: &[TableId],
) -> Result<(QueryOutput, ExecStats), StorageError> {
    // Per-level predicate lists.
    let preds: Vec<Vec<&Predicate>> = order
        .iter()
        .map(|&t| q.predicates_on(t).collect())
        .collect();

    // Build hash maps for non-base tables (level ≥ 1).
    let mut steps: Vec<JoinStep> = Vec::new();
    for (level, &t) in order.iter().enumerate().skip(1) {
        let (from_level, fk) = order[..level]
            .iter()
            .enumerate()
            .find_map(|(l, &u)| db.edge_between(u, t).map(|fk| (l, fk)))
            .expect("check_order / plan_order guarantee connectivity");
        let (probe_col, build_col) = if fk.child_table == t {
            // New table is the many side: probe with the parent's PK.
            (fk.parent_col, fk.child_col)
        } else {
            // New table is the one side: probe with the child's FK value.
            (fk.child_col, fk.parent_col)
        };
        steps.push(JoinStep {
            table: t,
            from_level,
            probe_col,
            build_col,
        });
    }

    // Build side per step: borrow a prebuilt index when one matches the
    // build column (children index for FK-side builds, unique PK index for
    // parent-side builds), build a private one otherwise.
    let mut built: Vec<StepIndex> = Vec::with_capacity(steps.len());
    for step in &steps {
        if let Some(pre) = idx.and_then(|ix| ix.children_index(step.table, step.build_col)) {
            built.push(StepIndex::Children(pre));
            continue;
        }
        let table = db.table(step.table);
        if table.schema().primary_key() == Some(step.build_col) {
            if let Some(pre) = idx.and_then(|ix| ix.pk_index(step.table)) {
                built.push(StepIndex::Unique(pre));
                continue;
            }
        }
        let col = table.column(step.build_col);
        let mut map: HashMap<i64, Vec<u32>> = HashMap::new();
        for r in 0..table.n_rows() {
            if let Some(k) = col.i64_at(r) {
                map.entry(k).or_default().push(r as u32);
            }
        }
        built.push(StepIndex::Owned(map));
    }

    let agg_input = q.aggregate_input();
    let grouped = !q.group_by.is_empty();
    let mut scalar = AggResult::default();
    let mut groups: HashMap<Vec<Value>, AggResult> = HashMap::new();
    let mut rows_per_level: Vec<u64> = vec![0; order.len()];

    // Depth-first enumeration of join combinations.
    let base = db.table(order[0]);
    let mut assignment: Vec<u32> = vec![0; order.len()];
    let level_of = |t: TableId| order.iter().position(|&u| u == t).unwrap();
    let agg_level = agg_input.map(|c| (level_of(c.table), c.column));
    let group_levels: Vec<(usize, ColId)> = q
        .group_by
        .iter()
        .map(|c| (level_of(c.table), c.column))
        .collect();

    // Recursive closure via explicit stack to avoid lifetime gymnastics.
    #[allow(clippy::too_many_arguments)]
    fn recurse(
        db: &Database,
        order: &[TableId],
        steps: &[JoinStep],
        built: &[StepIndex],
        preds: &[Vec<&Predicate>],
        assignment: &mut Vec<u32>,
        level: usize,
        agg_level: Option<(usize, ColId)>,
        group_levels: &[(usize, ColId)],
        grouped: bool,
        scalar: &mut AggResult,
        groups: &mut HashMap<Vec<Value>, AggResult>,
        rows_per_level: &mut [u64],
    ) {
        if level == order.len() {
            let agg_value =
                agg_level.map(|(l, c)| db.table(order[l]).value(assignment[l] as usize, c));
            if grouped {
                let key: Vec<Value> = group_levels
                    .iter()
                    .map(|&(l, c)| db.table(order[l]).value(assignment[l] as usize, c))
                    .collect();
                groups.entry(key).or_default().absorb(agg_value);
            } else {
                scalar.absorb(agg_value);
            }
            return;
        }
        let step = &steps[level - 1];
        let from_table = db.table(order[step.from_level]);
        let from_row = assignment[step.from_level] as usize;
        let Some(key) = from_table.column(step.probe_col).i64_at(from_row) else {
            return; // NULL join key never matches (inner join)
        };
        let single;
        let matches: &[u32] = match &built[level - 1] {
            StepIndex::Children(m) => m.get(&key).map_or(&[], Vec::as_slice),
            StepIndex::Owned(m) => m.get(&key).map_or(&[], Vec::as_slice),
            StepIndex::Unique(m) => match m.get(&key) {
                Some(&r) => {
                    single = [r];
                    &single
                }
                None => &[],
            },
        };
        let table = db.table(step.table);
        'rows: for &r in matches {
            for p in &preds[level] {
                if !p.passes(&table.value(r as usize, p.column)) {
                    continue 'rows;
                }
            }
            rows_per_level[level] += 1;
            assignment[level] = r;
            recurse(
                db,
                order,
                steps,
                built,
                preds,
                assignment,
                level + 1,
                agg_level,
                group_levels,
                grouped,
                scalar,
                groups,
                rows_per_level,
            );
        }
    }

    'base_rows: for r in 0..base.n_rows() {
        for p in &preds[0] {
            if !p.passes(&base.value(r, p.column)) {
                continue 'base_rows;
            }
        }
        rows_per_level[0] += 1;
        assignment[0] = r as u32;
        recurse(
            db,
            order,
            &steps,
            &built,
            &preds,
            &mut assignment,
            1,
            agg_level,
            &group_levels,
            grouped,
            &mut scalar,
            &mut groups,
            &mut rows_per_level,
        );
    }

    let stats = ExecStats {
        order: order.to_vec(),
        rows_per_level,
    };
    let out = if grouped {
        let mut out: Vec<(Vec<Value>, AggResult)> = groups.into_iter().collect();
        // Deterministic output order for tests and reports.
        out.sort_by(|a, b| format!("{:?}", a.0).cmp(&format!("{:?}", b.0)));
        QueryOutput::Grouped(out)
    } else {
        QueryOutput::Scalar(scalar)
    };
    Ok((out, stats))
}

/// BFS ordering of the query's tables such that each table after the first
/// connects by FK to an earlier one — the "listed order" a query executes in
/// unless a [`JoinOrder`] says otherwise.
pub fn plan_order(db: &Database, tables: &[TableId]) -> Result<Vec<TableId>, StorageError> {
    let mut order = vec![tables[0]];
    let mut remaining: Vec<TableId> = tables[1..].to_vec();
    while !remaining.is_empty() {
        let pos = remaining
            .iter()
            .position(|&t| order.iter().any(|&u| db.edge_between(u, t).is_some()))
            .ok_or_else(|| {
                StorageError::DisconnectedJoin(format!("cannot order tables {tables:?}"))
            })?;
        order.push(remaining.remove(pos));
    }
    Ok(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::test_fixtures::paper_customer_order;
    use crate::{Aggregate, CmpOp, ColumnRef, PredOp, Query};

    fn ids(db: &Database) -> (TableId, TableId) {
        (
            db.table_id("customer").unwrap(),
            db.table_id("orders").unwrap(),
        )
    }

    #[test]
    fn paper_query_q1_count_european_customers() {
        let db = paper_customer_order();
        let (c, _) = ids(&db);
        let q = Query::count(vec![c]).filter(c, 2, PredOp::Cmp(CmpOp::Eq, Value::Int(0)));
        assert_eq!(execute(&db, &q).unwrap().scalar().count, 2);
    }

    #[test]
    fn paper_query_q2_join_count() {
        let db = paper_customer_order();
        let (c, o) = ids(&db);
        // European customers with online orders: only customer 1 / order 1.
        let q = Query::count(vec![c, o])
            .filter(c, 2, PredOp::Cmp(CmpOp::Eq, Value::Int(0)))
            .filter(o, 2, PredOp::Cmp(CmpOp::Eq, Value::Int(0)));
        assert_eq!(execute(&db, &q).unwrap().scalar().count, 1);
    }

    #[test]
    fn join_without_predicates_counts_all_pairs() {
        let db = paper_customer_order();
        let (c, o) = ids(&db);
        let q = Query::count(vec![c, o]);
        assert_eq!(execute(&db, &q).unwrap().scalar().count, 4);
        // Order of tables in FROM must not matter.
        let q2 = Query::count(vec![o, c]);
        assert_eq!(execute(&db, &q2).unwrap().scalar().count, 4);
    }

    #[test]
    fn paper_query_q3_avg_age_of_europeans() {
        let db = paper_customer_order();
        let (c, _) = ids(&db);
        let q = Query::count(vec![c])
            .filter(c, 2, PredOp::Cmp(CmpOp::Eq, Value::Int(0)))
            .aggregate(Aggregate::Avg(ColumnRef {
                table: c,
                column: 1,
            }));
        let out = execute(&db, &q).unwrap().scalar();
        assert_eq!(out.avg(), Some(35.0)); // (20 + 50) / 2, paper §4.2
    }

    #[test]
    fn avg_over_join_weights_by_orders() {
        let db = paper_customer_order();
        let (c, o) = ids(&db);
        // Joined AVG(c_age): customers 1 and 3 contribute twice each.
        let q = Query::count(vec![c, o]).aggregate(Aggregate::Avg(ColumnRef {
            table: c,
            column: 1,
        }));
        let out = execute(&db, &q).unwrap().scalar();
        assert_eq!(out.avg(), Some((20.0 * 2.0 + 80.0 * 2.0) / 4.0));
    }

    #[test]
    fn malformed_group_by_and_aggregate_columns_are_errors() {
        let db = paper_customer_order();
        let (c, o) = ids(&db);
        let width = db.table(c).schema().n_columns();
        for q in [
            Query::count(vec![c]).group(o, 0),
            Query::count(vec![c]).group(c, width),
            Query::count(vec![c]).aggregate(Aggregate::Avg(ColumnRef {
                table: c,
                column: width,
            })),
        ] {
            assert!(execute(&db, &q).is_err(), "{q:?}");
        }
    }

    #[test]
    fn group_by_region() {
        let db = paper_customer_order();
        let (c, _) = ids(&db);
        let q = Query::count(vec![c]).group(c, 2);
        let out = execute(&db, &q).unwrap();
        let groups = out.groups();
        assert_eq!(groups.len(), 2);
        let total: u64 = groups.iter().map(|(_, a)| a.count).sum();
        assert_eq!(total, 3);
        assert_eq!(out.scalar().count, 3);
    }

    #[test]
    fn sum_ignores_nulls() {
        let mut db = Database::new("t");
        db.create_table(
            crate::TableSchema::new("x")
                .pk("id")
                .nullable_col("v", crate::Domain::Continuous),
        )
        .unwrap();
        db.insert("x", &[Value::Int(1), Value::Float(2.0)]).unwrap();
        db.insert("x", &[Value::Int(2), Value::Null]).unwrap();
        let x = db.table_id("x").unwrap();
        let q = Query::count(vec![x]).aggregate(Aggregate::Sum(ColumnRef {
            table: x,
            column: 1,
        }));
        let out = execute(&db, &q).unwrap().scalar();
        assert_eq!(out.sum, 2.0);
        assert_eq!(out.count, 2);
        assert_eq!(out.non_null, 1);
    }

    #[test]
    fn prebuilt_indexes_give_same_answer() {
        let db = paper_customer_order();
        let (c, o) = ids(&db);
        let idx = Indexes::build(&db);
        let q = Query::count(vec![c, o]).filter(o, 2, PredOp::Cmp(CmpOp::Eq, Value::Int(1)));
        let a = execute(&db, &q).unwrap();
        let b = execute_with_indexes(&db, &q, Some(&idx)).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.scalar().count, 2);
    }

    /// The documented `QueryOutput::scalar` contract: summing grouped output
    /// component-wise (NULL groups included) reproduces the ungrouped query.
    #[test]
    fn scalar_contract_grouped_sum_equals_ungrouped() {
        let mut db = Database::new("t");
        db.create_table(
            crate::TableSchema::new("x")
                .pk("id")
                .nullable_col("g", crate::Domain::categorical(["A", "B"]))
                .nullable_col("v", crate::Domain::Continuous),
        )
        .unwrap();
        for (id, g, v) in [
            (1, Value::Int(0), Value::Float(1.5)),
            (2, Value::Int(0), Value::Null),
            (3, Value::Int(1), Value::Float(2.5)),
            (4, Value::Null, Value::Float(4.0)),
            (5, Value::Null, Value::Null),
        ] {
            db.insert("x", &[Value::Int(id), g, v]).unwrap();
        }
        let x = db.table_id("x").unwrap();
        let agg = Aggregate::Sum(ColumnRef {
            table: x,
            column: 2,
        });
        let grouped = execute(&db, &Query::count(vec![x]).aggregate(agg).group(x, 1)).unwrap();
        let ungrouped = execute(&db, &Query::count(vec![x]).aggregate(agg)).unwrap();
        // NULL group must be present — three groups: A, B, NULL.
        assert_eq!(grouped.groups().len(), 3);
        let (s, u) = (grouped.scalar(), ungrouped.scalar());
        assert_eq!(s.count, u.count);
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, u.sum);
        assert_eq!(s.sum, 8.0);
        assert_eq!(s.non_null, u.non_null);
        assert_eq!(s.non_null, 3);
        // Row-weighted AVG, not the mean of group means.
        assert_eq!(s.avg(), u.avg());
    }

    #[test]
    fn count_monotone_under_conjunction() {
        let db = paper_customer_order();
        let (c, o) = ids(&db);
        let base = Query::count(vec![c, o]);
        let narrowed =
            Query::count(vec![c, o]).filter(c, 1, PredOp::Cmp(CmpOp::Lt, Value::Int(50)));
        let a = execute(&db, &base).unwrap().scalar().count;
        let b = execute(&db, &narrowed).unwrap().scalar().count;
        assert!(b <= a);
    }
}
