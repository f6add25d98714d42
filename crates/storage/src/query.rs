//! Query representation: joins (implicit along FKs), predicates, aggregates.

use crate::{ColId, Database, PredOp, Predicate, StorageError, TableId};

/// A column reference inside a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ColumnRef {
    pub table: TableId,
    pub column: ColId,
}

/// The aggregate a query computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aggregate {
    /// `COUNT(*)`.
    CountStar,
    /// `SUM(col)` (NULLs ignored).
    Sum(ColumnRef),
    /// `AVG(col)` (NULLs ignored).
    Avg(ColumnRef),
}

/// An aggregate query over an inner equi-join of `tables` along foreign keys,
/// with a conjunction of filter `predicates` and optional `group_by` columns.
///
/// This is the query class the paper supports (§4): joins are implicit — the
/// listed tables must form a connected subtree of the database's FK graph.
#[derive(Debug, Clone)]
pub struct Query {
    pub tables: Vec<TableId>,
    pub predicates: Vec<Predicate>,
    pub aggregate: Aggregate,
    pub group_by: Vec<ColumnRef>,
}

impl Query {
    /// `SELECT COUNT(*) FROM tables WHERE …` — the cardinality-estimation
    /// query shape.
    pub fn count(tables: Vec<TableId>) -> Self {
        Self {
            tables,
            predicates: Vec::new(),
            aggregate: Aggregate::CountStar,
            group_by: Vec::new(),
        }
    }

    /// Add a predicate (builder style).
    pub fn filter(mut self, table: TableId, column: ColId, op: PredOp) -> Self {
        self.predicates.push(Predicate::new(table, column, op));
        self
    }

    /// Set the aggregate (builder style).
    pub fn aggregate(mut self, agg: Aggregate) -> Self {
        self.aggregate = agg;
        self
    }

    /// Add a group-by column (builder style).
    pub fn group(mut self, table: TableId, column: ColId) -> Self {
        self.group_by.push(ColumnRef { table, column });
        self
    }

    /// Predicates restricted to one table.
    pub fn predicates_on(&self, table: TableId) -> impl Iterator<Item = &Predicate> {
        self.predicates.iter().filter(move |p| p.table == table)
    }

    /// Column the aggregate reads, if any.
    pub fn aggregate_input(&self) -> Option<ColumnRef> {
        match self.aggregate {
            Aggregate::CountStar => None,
            Aggregate::Sum(c) | Aggregate::Avg(c) => Some(c),
        }
    }

    /// Validate that all referenced tables/columns exist — every predicate,
    /// the aggregate input and every GROUP BY column names a column of a
    /// table in the FROM list — and that the join is a connected subtree of
    /// the FK graph.
    pub fn validate(&self, db: &Database) -> Result<(), StorageError> {
        if self.tables.is_empty() {
            return Err(StorageError::InvalidQuery("query has no tables".into()));
        }
        for &t in &self.tables {
            if t >= db.n_tables() {
                return Err(StorageError::UnknownTable(format!("table id {t}")));
            }
        }
        let column_refs = self
            .predicates
            .iter()
            .map(|p| ("predicate", p.table, p.column))
            .chain(
                self.aggregate_input()
                    .map(|c| ("aggregate input", c.table, c.column)),
            )
            .chain(
                self.group_by
                    .iter()
                    .map(|g| ("GROUP BY", g.table, g.column)),
            );
        for (role, table, column) in column_refs {
            if !self.tables.contains(&table) {
                return Err(StorageError::InvalidQuery(format!(
                    "{role} on table {table} not in FROM list"
                )));
            }
            let schema = db.table(table).schema();
            if column >= schema.n_columns() {
                return Err(StorageError::UnknownColumn {
                    table: schema.name().to_string(),
                    column: format!("id {column}"),
                });
            }
        }
        // Connectivity check via BFS over FK edges restricted to the tables.
        let mut seen = vec![false; self.tables.len()];
        seen[0] = true;
        let mut frontier = vec![self.tables[0]];
        while let Some(t) = frontier.pop() {
            for (i, &u) in self.tables.iter().enumerate() {
                if !seen[i] && db.edge_between(t, u).is_some() {
                    seen[i] = true;
                    frontier.push(u);
                }
            }
        }
        if seen.iter().all(|&s| s) {
            Ok(())
        } else {
            Err(StorageError::DisconnectedJoin(format!(
                "tables {:?} are not connected by foreign keys",
                self.tables
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::test_fixtures::paper_customer_order;
    use crate::{CmpOp, Value};

    #[test]
    fn builder_and_validation() {
        let db = paper_customer_order();
        let c = db.table_id("customer").unwrap();
        let o = db.table_id("orders").unwrap();
        let q = Query::count(vec![c, o]).filter(c, 2, PredOp::Cmp(CmpOp::Eq, Value::Int(0)));
        q.validate(&db).unwrap();
        assert_eq!(q.predicates_on(c).count(), 1);
        assert_eq!(q.predicates_on(o).count(), 0);
    }

    #[test]
    fn disconnected_join_rejected() {
        let mut db = paper_customer_order();
        let island = db
            .create_table(crate::TableSchema::new("island").pk("id"))
            .unwrap();
        let c = db.table_id("customer").unwrap();
        let q = Query::count(vec![c, island]);
        assert!(matches!(
            q.validate(&db),
            Err(StorageError::DisconnectedJoin(_))
        ));
    }

    #[test]
    fn predicate_outside_from_rejected() {
        let db = paper_customer_order();
        let c = db.table_id("customer").unwrap();
        let o = db.table_id("orders").unwrap();
        let q = Query::count(vec![c]).filter(o, 2, PredOp::IsNull);
        assert!(q.validate(&db).is_err());
    }

    #[test]
    fn group_by_and_aggregate_columns_are_checked() {
        let db = paper_customer_order();
        let c = db.table_id("customer").unwrap();
        let o = db.table_id("orders").unwrap();
        let width = db.table(c).schema().n_columns();
        // GROUP BY on a table outside FROM.
        let q = Query::count(vec![c]).group(o, 0);
        assert!(matches!(
            q.validate(&db),
            Err(StorageError::InvalidQuery(_))
        ));
        // GROUP BY column out of range.
        let q = Query::count(vec![c]).group(c, width);
        assert!(matches!(
            q.validate(&db),
            Err(StorageError::UnknownColumn { .. })
        ));
        // Aggregate input column out of range.
        let q = Query::count(vec![c]).aggregate(Aggregate::Sum(ColumnRef {
            table: c,
            column: width,
        }));
        assert!(matches!(
            q.validate(&db),
            Err(StorageError::UnknownColumn { .. })
        ));
    }

    #[test]
    fn aggregate_input_extraction() {
        let db = paper_customer_order();
        let c = db.table_id("customer").unwrap();
        let q = Query::count(vec![c]).aggregate(Aggregate::Avg(ColumnRef {
            table: c,
            column: 1,
        }));
        assert_eq!(
            q.aggregate_input(),
            Some(ColumnRef {
                table: c,
                column: 1
            })
        );
        q.validate(&db).unwrap();
    }
}
