//! Columnar tables.

use crate::{ColId, ColType, StorageError, TableSchema, Value};

/// A single column: dense typed data plus an optional validity mask.
#[derive(Debug, Clone)]
pub struct Column {
    data: ColumnData,
    /// `None` means "all valid". Otherwise `validity[i] == false` marks NULL.
    validity: Option<Vec<bool>>,
}

#[derive(Debug, Clone)]
enum ColumnData {
    Int(Vec<i64>),
    Float(Vec<f64>),
}

impl Column {
    fn new(ctype: ColType) -> Self {
        let data = match ctype {
            ColType::Int => ColumnData::Int(Vec::new()),
            ColType::Float => ColumnData::Float(Vec::new()),
        };
        Self {
            data,
            validity: None,
        }
    }

    pub fn len(&self) -> usize {
        match &self.data {
            ColumnData::Int(v) => v.len(),
            ColumnData::Float(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn col_type(&self) -> ColType {
        match &self.data {
            ColumnData::Int(_) => ColType::Int,
            ColumnData::Float(_) => ColType::Float,
        }
    }

    /// Value at `row` (NULL-aware).
    pub fn value(&self, row: usize) -> Value {
        if !self.is_valid(row) {
            return Value::Null;
        }
        match &self.data {
            ColumnData::Int(v) => Value::Int(v[row]),
            ColumnData::Float(v) => Value::Float(v[row]),
        }
    }

    /// `f64` view of the value; NaN encodes NULL. Used by learners.
    pub fn f64_or_nan(&self, row: usize) -> f64 {
        if !self.is_valid(row) {
            return f64::NAN;
        }
        match &self.data {
            ColumnData::Int(v) => v[row] as f64,
            ColumnData::Float(v) => v[row],
        }
    }

    /// Integer view; `None` on NULL or type mismatch.
    pub fn i64_at(&self, row: usize) -> Option<i64> {
        if !self.is_valid(row) {
            return None;
        }
        match &self.data {
            ColumnData::Int(v) => Some(v[row]),
            ColumnData::Float(_) => None,
        }
    }

    pub fn is_valid(&self, row: usize) -> bool {
        self.validity.as_ref().is_none_or(|v| v[row])
    }

    /// Whether [`Column::push`] can store `value` (nullability is the
    /// table's concern, not the column's).
    fn check(&self, value: &Value) -> Result<(), StorageError> {
        match (&self.data, value) {
            (ColumnData::Int(_), Value::Float(_)) => Err(StorageError::TypeMismatch {
                expected: ColType::Int,
                got: ColType::Float,
            }),
            _ => Ok(()),
        }
    }

    /// Append a value that passed [`Column::check`].
    fn push(&mut self, value: &Value) {
        match (&mut self.data, value) {
            (ColumnData::Int(v), Value::Int(x)) => v.push(*x),
            (ColumnData::Float(v), Value::Float(x)) => v.push(*x),
            // Accept integer literals into float columns for ergonomics.
            (ColumnData::Float(v), Value::Int(x)) => v.push(*x as f64),
            (ColumnData::Int(v), Value::Null) => v.push(0),
            (ColumnData::Float(v), Value::Null) => v.push(f64::NAN),
            (ColumnData::Int(_), Value::Float(_)) => unreachable!("rejected by Column::check"),
        }
        let is_null = value.is_null();
        match (&mut self.validity, is_null) {
            (Some(mask), _) => mask.push(!is_null),
            (None, true) => {
                // First NULL: materialize the mask lazily.
                let mut mask = vec![true; self.len() - 1];
                mask.push(false);
                self.validity = Some(mask);
            }
            (None, false) => {}
        }
    }

    fn swap_remove(&mut self, row: usize) {
        match &mut self.data {
            ColumnData::Int(v) => {
                v.swap_remove(row);
            }
            ColumnData::Float(v) => {
                v.swap_remove(row);
            }
        }
        if let Some(mask) = &mut self.validity {
            mask.swap_remove(row);
        }
    }

    /// Iterate the column as `f64` with NaN for NULL.
    pub fn iter_f64(&self) -> impl Iterator<Item = f64> + '_ {
        (0..self.len()).map(move |i| self.f64_or_nan(i))
    }
}

/// A table: a schema plus columnar data.
#[derive(Debug, Clone)]
pub struct Table {
    schema: TableSchema,
    columns: Vec<Column>,
    n_rows: usize,
}

impl Table {
    pub fn new(schema: TableSchema) -> Self {
        let columns = schema
            .columns()
            .iter()
            .map(|c| Column::new(c.domain.col_type()))
            .collect();
        Self {
            schema,
            columns,
            n_rows: 0,
        }
    }

    pub fn schema(&self) -> &TableSchema {
        &self.schema
    }

    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    pub fn column(&self, id: ColId) -> &Column {
        &self.columns[id]
    }

    /// Value of `col` at `row`.
    pub fn value(&self, row: usize, col: ColId) -> Value {
        self.columns[col].value(row)
    }

    /// Append a full row. Check-then-apply: a rejected row leaves every
    /// column untouched.
    pub fn push_row(&mut self, values: &[Value]) -> Result<(), StorageError> {
        if values.len() != self.columns.len() {
            return Err(StorageError::ArityMismatch {
                table: self.schema.name().to_string(),
                expected: self.columns.len(),
                got: values.len(),
            });
        }
        for (idx, (col, v)) in self.columns.iter().zip(values).enumerate() {
            if v.is_null() && !self.schema.columns()[idx].nullable {
                return Err(StorageError::NullViolation {
                    table: self.schema.name().to_string(),
                    column: self.schema.columns()[idx].name.clone(),
                });
            }
            col.check(v)?;
        }
        for (col, v) in self.columns.iter_mut().zip(values) {
            col.push(v);
        }
        self.n_rows += 1;
        Ok(())
    }

    /// Remove a row by swapping in the last row (O(1); row ids are not stable
    /// across deletes — callers must rebuild indexes).
    pub fn swap_remove_row(&mut self, row: usize) -> Result<Vec<Value>, StorageError> {
        if row >= self.n_rows {
            return Err(StorageError::RowOutOfRange {
                row,
                n_rows: self.n_rows,
            });
        }
        let values = self.row_values(row);
        for col in &mut self.columns {
            col.swap_remove(row);
        }
        self.n_rows -= 1;
        Ok(values)
    }

    /// Materialize one row as values.
    pub fn row_values(&self, row: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c.value(row)).collect()
    }

    /// Resolve a primary-key value to a row id, scanning (use [`crate::Indexes`]
    /// for repeated lookups).
    pub fn find_pk(&self, key: i64) -> Option<usize> {
        let pk = self.schema.primary_key()?;
        let col = &self.columns[pk];
        (0..self.n_rows).find(|&r| col.i64_at(r) == Some(key))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Domain;

    fn customer() -> Table {
        Table::new(
            TableSchema::new("customer")
                .pk("c_id")
                .col("c_age", Domain::Discrete)
                .nullable_col("c_score", Domain::Continuous),
        )
    }

    #[test]
    fn push_and_read_back() {
        let mut t = customer();
        t.push_row(&[Value::Int(1), Value::Int(30), Value::Float(0.5)])
            .unwrap();
        t.push_row(&[Value::Int(2), Value::Int(40), Value::Null])
            .unwrap();
        assert_eq!(t.n_rows(), 2);
        assert_eq!(t.value(0, 1), Value::Int(30));
        assert!(t.value(1, 2).is_null());
        assert!(t.column(2).f64_or_nan(1).is_nan());
        assert_eq!(t.column(2).f64_or_nan(0), 0.5);
    }

    #[test]
    fn arity_and_type_checks() {
        let mut t = customer();
        assert!(matches!(
            t.push_row(&[Value::Int(1)]),
            Err(StorageError::ArityMismatch { .. })
        ));
        assert!(matches!(
            t.push_row(&[Value::Int(1), Value::Float(3.5), Value::Null]),
            Err(StorageError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn null_violation_on_non_nullable() {
        let mut t = customer();
        assert!(matches!(
            t.push_row(&[Value::Int(1), Value::Null, Value::Null]),
            Err(StorageError::NullViolation { .. })
        ));
    }

    /// A row rejected at its last value must not leave the columns before
    /// it one value longer than `n_rows`.
    #[test]
    fn rejected_row_leaves_every_column_untouched() {
        let mut t = Table::new(
            TableSchema::new("t")
                .pk("id")
                .nullable_col("score", Domain::Continuous)
                .col("age", Domain::Discrete),
        );
        t.push_row(&[Value::Int(1), Value::Float(0.5), Value::Int(30)])
            .unwrap();
        assert!(matches!(
            t.push_row(&[Value::Int(2), Value::Null, Value::Float(3.5)]),
            Err(StorageError::TypeMismatch { .. })
        ));
        assert!(matches!(
            t.push_row(&[Value::Int(3), Value::Float(1.5), Value::Null]),
            Err(StorageError::NullViolation { .. })
        ));
        assert_eq!(t.n_rows(), 1);
        for col in 0..3 {
            assert_eq!(t.column(col).len(), 1, "column {col}");
        }
        let good = [Value::Int(4), Value::Null, Value::Int(40)];
        t.push_row(&good).unwrap();
        assert_eq!(t.n_rows(), 2);
        assert_eq!(t.row_values(1), good);
        assert_eq!(
            t.row_values(0),
            [Value::Int(1), Value::Float(0.5), Value::Int(30)]
        );
    }

    #[test]
    fn swap_remove_keeps_remaining_rows() {
        let mut t = customer();
        for i in 0..3 {
            t.push_row(&[Value::Int(i), Value::Int(10 * i), Value::Float(i as f64)])
                .unwrap();
        }
        let removed = t.swap_remove_row(0).unwrap();
        assert_eq!(removed[0], Value::Int(0));
        assert_eq!(t.n_rows(), 2);
        // Last row (id 2) swapped into position 0.
        assert_eq!(t.value(0, 0), Value::Int(2));
        assert!(t.swap_remove_row(5).is_err());
    }

    #[test]
    fn find_pk_scans() {
        let mut t = customer();
        t.push_row(&[Value::Int(7), Value::Int(1), Value::Null])
            .unwrap();
        assert_eq!(t.find_pk(7), Some(0));
        assert_eq!(t.find_pk(8), None);
    }

    #[test]
    fn int_literal_coerces_into_float_column() {
        let mut t = customer();
        t.push_row(&[Value::Int(1), Value::Int(5), Value::Int(2)])
            .unwrap();
        assert_eq!(t.value(0, 2), Value::Float(2.0));
    }
}
