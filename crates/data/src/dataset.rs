//! The columnar dataset type.

use std::sync::Arc;

use rand::seq::SliceRandom;
use rand::Rng;

use crate::column::Column;
use crate::error::DataError;
use crate::schema::Schema;
use crate::value::{FeatureKind, Value};

/// A labelled tabular dataset with columnar storage.
///
/// Rows are addressed by index; columns are dense and typed (see [`Column`]).
/// The schema is reference-counted, so cloning a dataset (which FROTE's
/// augmentation loop does every iteration) shares vocabularies.
///
/// # Example
///
/// ```
/// use frote_data::{Dataset, Schema, Value};
/// let schema = Schema::builder("y", vec!["neg".into(), "pos".into()])
///     .numeric("x")
///     .build();
/// let mut ds = Dataset::new(schema);
/// ds.push_row(&[Value::Num(0.5)], 1)?;
/// assert_eq!(ds.label(0), 1);
/// assert_eq!(ds.value(0, 0), Value::Num(0.5));
/// # Ok::<(), frote_data::DataError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    schema: Arc<Schema>,
    columns: Vec<Column>,
    labels: Vec<u32>,
}

impl Dataset {
    /// Creates an empty dataset conforming to `schema`.
    pub fn new(schema: Schema) -> Self {
        Self::with_shared_schema(Arc::new(schema))
    }

    /// Creates an empty dataset sharing an existing schema handle.
    pub fn with_shared_schema(schema: Arc<Schema>) -> Self {
        let columns = schema
            .features()
            .iter()
            .map(|f| match f.kind() {
                FeatureKind::Numeric => Column::Numeric(Vec::new()),
                FeatureKind::Categorical { .. } => Column::Categorical(Vec::new()),
            })
            .collect();
        Self { schema, columns, labels: Vec::new() }
    }

    /// The dataset's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Shared handle to the schema.
    pub fn schema_handle(&self) -> Arc<Schema> {
        Arc::clone(&self.schema)
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.labels.len()
    }

    /// Whether the dataset has no rows.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of feature columns.
    pub fn n_features(&self) -> usize {
        self.columns.len()
    }

    /// Number of label classes (from the schema).
    pub fn n_classes(&self) -> usize {
        self.schema.n_classes()
    }

    /// Column `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j >= n_features()`.
    pub fn column(&self, j: usize) -> &Column {
        &self.columns[j]
    }

    /// Cell value at row `i`, column `j`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds.
    pub fn value(&self, i: usize, j: usize) -> Value {
        self.columns[j].value(i)
    }

    /// Label of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n_rows()`.
    pub fn label(&self, i: usize) -> u32 {
        self.labels[i]
    }

    /// All labels in row order.
    pub fn labels(&self) -> &[u32] {
        &self.labels
    }

    /// Sets the label of row `i`.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::LabelOutOfRange`] if `label` is not a valid class.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n_rows()`.
    pub fn set_label(&mut self, i: usize, label: u32) -> Result<(), DataError> {
        if (label as usize) >= self.schema.n_classes() {
            return Err(DataError::LabelOutOfRange { label, n_classes: self.schema.n_classes() });
        }
        self.labels[i] = label;
        Ok(())
    }

    /// Cell value at row `i`, column `j` — a borrowed-view alias of
    /// [`Dataset::value`] for hot loops that address the columnar store
    /// directly instead of materializing rows.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds.
    pub fn cell(&self, i: usize, j: usize) -> Value {
        self.value(i, j)
    }

    /// Materializes row `i` as a vector of values.
    ///
    /// Allocates; batch paths should prefer [`Dataset::row_into`] with a
    /// reused scratch buffer, or [`Dataset::cell`] for single cells.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n_rows()`.
    pub fn row(&self, i: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c.value(i)).collect()
    }

    /// Writes row `i` into `out` (cleared first), reusing its allocation —
    /// the allocation-free counterpart of [`Dataset::row`] for inner loops.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n_rows()`.
    pub fn row_into(&self, i: usize, out: &mut Vec<Value>) {
        out.clear();
        out.extend(self.columns.iter().map(|c| c.value(i)));
    }

    /// Appends a row.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::SchemaMismatch`] if the arity or any cell type
    /// does not match the schema, or [`DataError::LabelOutOfRange`] for an
    /// invalid label. On error the dataset is unchanged.
    pub fn push_row(&mut self, row: &[Value], label: u32) -> Result<(), DataError> {
        if row.len() != self.columns.len() {
            return Err(DataError::SchemaMismatch {
                detail: format!("expected {} cells, got {}", self.columns.len(), row.len()),
            });
        }
        for (j, (&v, f)) in row.iter().zip(self.schema.features()).enumerate() {
            if !v.matches_kind(f.kind()) {
                return Err(DataError::SchemaMismatch {
                    detail: format!("cell {j} ({}) has wrong type or out-of-vocab index", f.name()),
                });
            }
        }
        if (label as usize) >= self.schema.n_classes() {
            return Err(DataError::LabelOutOfRange { label, n_classes: self.schema.n_classes() });
        }
        for (col, &v) in self.columns.iter_mut().zip(row) {
            col.push(v);
        }
        self.labels.push(label);
        Ok(())
    }

    /// Appends all rows of `other`.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::SchemaMismatch`] if the schemas differ.
    pub fn extend_from(&mut self, other: &Dataset) -> Result<(), DataError> {
        if self.schema != other.schema {
            return Err(DataError::SchemaMismatch {
                detail: "schemas differ in extend_from".into(),
            });
        }
        for (a, b) in self.columns.iter_mut().zip(&other.columns) {
            a.extend_from(b);
        }
        self.labels.extend_from_slice(&other.labels);
        Ok(())
    }

    /// Gathers the rows at `indices` (repeats allowed) into a new dataset.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn gather(&self, indices: &[usize]) -> Dataset {
        Dataset {
            schema: Arc::clone(&self.schema),
            columns: self.columns.iter().map(|c| c.gather(indices)).collect(),
            labels: indices.iter().map(|&i| self.labels[i]).collect(),
        }
    }

    /// Per-class row counts, indexed by class.
    pub fn class_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.schema.n_classes()];
        for &l in &self.labels {
            counts[l as usize] += 1;
        }
        counts
    }

    /// The most frequent class (ties broken by lowest index), or `None` if
    /// the dataset is empty.
    pub fn majority_class(&self) -> Option<u32> {
        if self.is_empty() {
            return None;
        }
        let counts = self.class_counts();
        counts
            .iter()
            .enumerate()
            .max_by_key(|&(i, &c)| (c, std::cmp::Reverse(i)))
            .map(|(i, _)| i as u32)
    }

    /// Row indices whose label equals `class`.
    pub fn indices_of_class(&self, class: u32) -> Vec<usize> {
        (0..self.n_rows()).filter(|&i| self.labels[i] == class).collect()
    }

    /// Draws a bootstrap sample (with replacement) of `n` row indices.
    pub fn bootstrap_indices<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Vec<usize> {
        (0..n).map(|_| rng.random_range(0..self.n_rows())).collect()
    }

    /// A uniformly shuffled permutation of `0..n_rows()`.
    pub fn shuffled_indices<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.n_rows()).collect();
        idx.shuffle(rng);
        idx
    }

    /// Iterator over `(row, label)` pairs, materializing each row.
    pub fn iter(&self) -> impl Iterator<Item = (Vec<Value>, u32)> + '_ {
        (0..self.n_rows()).map(move |i| (self.row(i), self.labels[i]))
    }

    /// A human-readable summary: shape, per-class counts, and per-feature
    /// ranges/cardinalities. Intended for examples and debugging sessions.
    pub fn describe(&self) -> String {
        use crate::stats::NumericStats;
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{} rows x {} features ({} numeric / {} categorical), {} classes",
            self.n_rows(),
            self.n_features(),
            self.schema.n_numeric(),
            self.schema.n_categorical(),
            self.n_classes()
        );
        for (c, count) in self.class_counts().iter().enumerate() {
            let _ = writeln!(out, "  class {:<16} {count}", self.schema.class_name(c as u32));
        }
        for (j, f) in self.schema.features().iter().enumerate() {
            match &self.columns[j] {
                Column::Numeric(v) => {
                    let s = NumericStats::of(v);
                    let _ = writeln!(
                        out,
                        "  {:<20} numeric  [{:.3}, {:.3}] mean {:.3} std {:.3}",
                        f.name(),
                        s.min,
                        s.max,
                        s.mean,
                        s.std
                    );
                }
                Column::Categorical(_) => {
                    let card = f.kind().cardinality().expect("categorical has cardinality");
                    let _ = writeln!(out, "  {:<20} nominal  {card} categories", f.name());
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn demo() -> Dataset {
        let schema = Schema::builder("y", vec!["a".into(), "b".into(), "c".into()])
            .numeric("x1")
            .categorical("x2", vec!["p".into(), "q".into()])
            .build();
        let mut ds = Dataset::new(schema);
        ds.push_row(&[Value::Num(1.0), Value::Cat(0)], 0).unwrap();
        ds.push_row(&[Value::Num(2.0), Value::Cat(1)], 1).unwrap();
        ds.push_row(&[Value::Num(3.0), Value::Cat(0)], 1).unwrap();
        ds
    }

    #[test]
    fn basic_shape() {
        let ds = demo();
        assert_eq!(ds.n_rows(), 3);
        assert_eq!(ds.n_features(), 2);
        assert_eq!(ds.n_classes(), 3);
        assert_eq!(ds.row(1), vec![Value::Num(2.0), Value::Cat(1)]);
        assert_eq!(ds.label(2), 1);
    }

    #[test]
    fn push_row_validates_arity() {
        let mut ds = demo();
        let err = ds.push_row(&[Value::Num(1.0)], 0).unwrap_err();
        assert!(matches!(err, DataError::SchemaMismatch { .. }));
        assert_eq!(ds.n_rows(), 3, "failed push must not mutate");
    }

    #[test]
    fn push_row_validates_types_and_vocab() {
        let mut ds = demo();
        assert!(ds.push_row(&[Value::Cat(0), Value::Cat(0)], 0).is_err());
        assert!(ds.push_row(&[Value::Num(0.0), Value::Cat(9)], 0).is_err());
        assert!(ds.push_row(&[Value::Num(0.0), Value::Cat(0)], 7).is_err());
    }

    #[test]
    fn class_counts_and_majority() {
        let ds = demo();
        assert_eq!(ds.class_counts(), vec![1, 2, 0]);
        assert_eq!(ds.majority_class(), Some(1));
        assert_eq!(ds.indices_of_class(1), vec![1, 2]);
        let empty = Dataset::new(ds.schema().clone());
        assert_eq!(empty.majority_class(), None);
    }

    #[test]
    fn majority_ties_break_low() {
        let schema = Schema::builder("y", vec!["a".into(), "b".into()]).numeric("x").build();
        let mut ds = Dataset::new(schema);
        ds.push_row(&[Value::Num(0.0)], 1).unwrap();
        ds.push_row(&[Value::Num(0.0)], 0).unwrap();
        assert_eq!(ds.majority_class(), Some(0));
    }

    #[test]
    fn gather_and_extend() {
        let ds = demo();
        let g = ds.gather(&[2, 2, 0]);
        assert_eq!(g.n_rows(), 3);
        assert_eq!(g.label(0), 1);
        assert_eq!(g.row(2), ds.row(0));

        let mut a = ds.gather(&[0]);
        a.extend_from(&g).unwrap();
        assert_eq!(a.n_rows(), 4);
    }

    #[test]
    fn extend_schema_mismatch() {
        let mut ds = demo();
        let other =
            Dataset::new(Schema::builder("z", vec!["a".into(), "b".into()]).numeric("w").build());
        assert!(ds.extend_from(&other).is_err());
    }

    #[test]
    fn set_label_roundtrip() {
        let mut ds = demo();
        ds.set_label(0, 2).unwrap();
        assert_eq!(ds.label(0), 2);
        assert!(ds.set_label(0, 3).is_err());
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let ds = demo();
        let mut r1 = StdRng::seed_from_u64(7);
        let mut r2 = StdRng::seed_from_u64(7);
        assert_eq!(ds.bootstrap_indices(5, &mut r1), ds.bootstrap_indices(5, &mut r2));
        let mut r1 = StdRng::seed_from_u64(7);
        let mut r2 = StdRng::seed_from_u64(7);
        assert_eq!(ds.shuffled_indices(&mut r1), ds.shuffled_indices(&mut r2));
    }

    #[test]
    fn iter_yields_all_rows() {
        let ds = demo();
        let collected: Vec<_> = ds.iter().collect();
        assert_eq!(collected.len(), 3);
        assert_eq!(collected[0].1, 0);
    }

    #[test]
    fn describe_summarizes_shape_and_columns() {
        let ds = demo();
        let text = ds.describe();
        assert!(text.contains("3 rows x 2 features (1 numeric / 1 categorical), 3 classes"));
        assert!(text.contains("x1"));
        assert!(text.contains("numeric"));
        assert!(text.contains("2 categories"));
        assert!(text.contains("class a"));
    }
}
