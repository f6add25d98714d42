//! Column-major training data view.

/// Metadata of one training column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnMeta {
    /// Display name (diagnostics only).
    pub name: String,
    /// Discrete columns get exact-match histograms; continuous columns may
    /// fall back to binning.
    pub discrete: bool,
}

impl ColumnMeta {
    pub fn discrete(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            discrete: true,
        }
    }

    pub fn continuous(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            discrete: false,
        }
    }
}

/// Borrowed column-major data: `cols[c][row]`, NaN encodes NULL.
#[derive(Debug, Clone, Copy)]
pub struct DataView<'a> {
    pub cols: &'a [Vec<f64>],
    pub meta: &'a [ColumnMeta],
}

impl<'a> DataView<'a> {
    pub fn new(cols: &'a [Vec<f64>], meta: &'a [ColumnMeta]) -> Self {
        assert_eq!(cols.len(), meta.len(), "column/metadata count mismatch");
        if let Some(first) = cols.first() {
            for c in cols {
                assert_eq!(c.len(), first.len(), "ragged columns");
            }
        }
        Self { cols, meta }
    }

    pub fn n_rows(&self) -> usize {
        self.cols.first().map_or(0, Vec::len)
    }

    pub fn n_cols(&self) -> usize {
        self.cols.len()
    }

    /// Value at (row, col); NaN = NULL.
    #[inline]
    pub fn value(&self, row: u32, col: usize) -> f64 {
        self.cols[col][row as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn view_basics() {
        let cols = vec![vec![1.0, 2.0], vec![f64::NAN, 4.0]];
        let meta = vec![ColumnMeta::discrete("a"), ColumnMeta::continuous("b")];
        let v = DataView::new(&cols, &meta);
        assert_eq!(v.n_rows(), 2);
        assert_eq!(v.n_cols(), 2);
        assert!(v.value(0, 1).is_nan());
        assert_eq!(v.value(1, 0), 2.0);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rejected() {
        let cols = vec![vec![1.0], vec![1.0, 2.0]];
        let meta = vec![ColumnMeta::discrete("a"), ColumnMeta::discrete("b")];
        let _ = DataView::new(&cols, &meta);
    }
}
