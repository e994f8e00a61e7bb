//! Columnar storage for one feature.

use crate::value::Value;

/// One feature column of a [`crate::Dataset`].
///
/// Stored densely and typed so coverage scans and statistics avoid per-cell
/// branching on [`Value`].
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// Dense numeric column.
    Numeric(Vec<f64>),
    /// Dense categorical column of vocabulary indices.
    Categorical(Vec<u32>),
}

impl Column {
    /// Creates an empty column of the same type.
    pub fn empty_like(&self) -> Column {
        match self {
            Column::Numeric(_) => Column::Numeric(Vec::new()),
            Column::Categorical(_) => Column::Categorical(Vec::new()),
        }
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        match self {
            Column::Numeric(v) => v.len(),
            Column::Categorical(v) => v.len(),
        }
    }

    /// Whether the column has no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Value of cell `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn value(&self, i: usize) -> Value {
        match self {
            Column::Numeric(v) => Value::Num(v[i]),
            Column::Categorical(v) => Value::Cat(v[i]),
        }
    }

    /// Appends a value.
    ///
    /// # Panics
    ///
    /// Panics if the value's variant does not match the column type.
    pub fn push(&mut self, value: Value) {
        match (self, value) {
            (Column::Numeric(v), Value::Num(x)) => v.push(x),
            (Column::Categorical(v), Value::Cat(c)) => v.push(c),
            (col, value) => panic!(
                "value {value:?} does not match column type {}",
                match col {
                    Column::Numeric(_) => "numeric",
                    Column::Categorical(_) => "categorical",
                }
            ),
        }
    }

    /// Appends the cells of `other` to `self`.
    ///
    /// # Panics
    ///
    /// Panics if the column types differ.
    pub fn extend_from(&mut self, other: &Column) {
        match (self, other) {
            (Column::Numeric(a), Column::Numeric(b)) => a.extend_from_slice(b),
            (Column::Categorical(a), Column::Categorical(b)) => a.extend_from_slice(b),
            _ => panic!("column type mismatch in extend_from"),
        }
    }

    /// Gathers the cells at `indices` into a new column (cells may repeat).
    pub fn gather(&self, indices: &[usize]) -> Column {
        match self {
            Column::Numeric(v) => Column::Numeric(indices.iter().map(|&i| v[i]).collect()),
            Column::Categorical(v) => Column::Categorical(indices.iter().map(|&i| v[i]).collect()),
        }
    }

    /// Numeric cells, or `None` for categorical columns.
    pub fn as_numeric(&self) -> Option<&[f64]> {
        match self {
            Column::Numeric(v) => Some(v),
            Column::Categorical(_) => None,
        }
    }

    /// Categorical cells, or `None` for numeric columns.
    pub fn as_categorical(&self) -> Option<&[u32]> {
        match self {
            Column::Categorical(v) => Some(v),
            Column::Numeric(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_value() {
        let mut c = Column::Numeric(Vec::new());
        c.push(Value::Num(1.0));
        c.push(Value::Num(2.0));
        assert_eq!(c.len(), 2);
        assert_eq!(c.value(1), Value::Num(2.0));
        assert!(!c.is_empty());
    }

    #[test]
    #[should_panic(expected = "does not match column type")]
    fn push_type_mismatch_panics() {
        let mut c = Column::Categorical(Vec::new());
        c.push(Value::Num(1.0));
    }

    #[test]
    fn gather_repeats_and_reorders() {
        let c = Column::Categorical(vec![5, 6, 7]);
        let g = c.gather(&[2, 0, 2]);
        assert_eq!(g.as_categorical().unwrap(), &[7, 5, 7]);
    }

    #[test]
    fn extend_from_concatenates() {
        let mut a = Column::Numeric(vec![1.0]);
        a.extend_from(&Column::Numeric(vec![2.0, 3.0]));
        assert_eq!(a.as_numeric().unwrap(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn extend_from_mismatch_panics() {
        let mut a = Column::Numeric(vec![1.0]);
        a.extend_from(&Column::Categorical(vec![0]));
    }

    #[test]
    fn empty_like_preserves_type() {
        assert_eq!(Column::Categorical(vec![1]).empty_like(), Column::Categorical(vec![]));
        assert_eq!(Column::Numeric(vec![1.0]).empty_like(), Column::Numeric(vec![]));
    }
}
