//! A dense, flat, row-major feature matrix.
//!
//! The encoded data plane of the workspace: one contiguous `Vec<f64>` with a
//! fixed row stride, so batch scoring walks cache lines instead of chasing a
//! pointer per row (the `Vec<Vec<f64>>` layout it replaces). Rows are read as
//! borrowed `&[f64]` views and appended whole ([`FeatureMatrix::push_row`]).

use std::ops::Index;

/// A dense row-major `f64` matrix with a fixed row width. See the module
/// docs above for the layout rationale.
///
/// # Example
///
/// ```
/// use frote_data::FeatureMatrix;
/// let mut m = FeatureMatrix::new(2);
/// m.push_row(&[1.0, 2.0]);
/// m.push_row(&[3.0, 4.0]);
/// assert_eq!(m.n_rows(), 2);
/// assert_eq!(m.row(1), &[3.0, 4.0]);
/// assert_eq!(&m[0], &[1.0, 2.0]);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FeatureMatrix {
    data: Vec<f64>,
    width: usize,
    rows: usize,
}

impl FeatureMatrix {
    /// Creates an empty matrix whose rows will have `width` columns.
    pub fn new(width: usize) -> Self {
        FeatureMatrix { data: Vec::new(), width, rows: 0 }
    }

    /// [`FeatureMatrix::new`] with storage pre-allocated for `rows` rows.
    pub fn with_capacity(width: usize, rows: usize) -> Self {
        FeatureMatrix { data: Vec::with_capacity(width * rows), width, rows: 0 }
    }

    /// Builds a matrix from `width` and its raw row-major backing storage.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` is not a multiple of `width` (a `width` of 0
    /// requires empty data).
    pub fn from_raw(width: usize, data: Vec<f64>) -> Self {
        let rows = if width == 0 {
            assert!(data.is_empty(), "width-0 matrix cannot hold data");
            0
        } else {
            assert_eq!(data.len() % width, 0, "data length must be a multiple of the width");
            data.len() / width
        };
        FeatureMatrix { data, width, rows }
    }

    /// A matrix of `rows` zero-width rows — the encoded shape of a
    /// feature-less schema, where row count still matters.
    pub fn zero_width(rows: usize) -> Self {
        FeatureMatrix { data: Vec::new(), width: 0, rows }
    }

    /// Builds a matrix from nested rows (all rows must share one length).
    ///
    /// # Panics
    ///
    /// Panics if row lengths are inconsistent.
    pub fn from_rows(rows: Vec<Vec<f64>>) -> Self {
        let width = rows.first().map_or(0, Vec::len);
        let mut m = FeatureMatrix::with_capacity(width, rows.len());
        for row in &rows {
            m.push_row(row);
        }
        m
    }

    /// Row stride (number of columns).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.rows
    }

    /// Whether the matrix has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Row `i` as a borrowed slice view.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n_rows()`.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row {i} out of bounds ({} rows)", self.rows);
        &self.data[i * self.width..(i + 1) * self.width]
    }

    /// Mutable view of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n_rows()`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(i < self.rows, "row {i} out of bounds ({} rows)", self.rows);
        &mut self.data[i * self.width..(i + 1) * self.width]
    }

    /// Iterator over row views in order (zero-width rows yield empty
    /// slices, one per row).
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &[f64]> + '_ {
        (0..self.rows).map(move |i| &self.data[i * self.width..(i + 1) * self.width])
    }

    /// The flat row-major backing slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable access to the flat backing slice (e.g. to zero an
    /// accumulator matrix between passes).
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != width()`.
    pub fn push_row(&mut self, row: &[f64]) {
        assert_eq!(row.len(), self.width, "row length must equal the matrix width");
        self.data.extend_from_slice(row);
        self.rows += 1;
    }

    /// Appends every row of `other`.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn extend_from(&mut self, other: &FeatureMatrix) {
        assert_eq!(self.width, other.width, "matrix widths must match");
        self.data.extend_from_slice(&other.data);
        self.rows += other.rows;
    }

    /// Clears all rows, keeping the allocation and width.
    pub fn clear(&mut self) {
        self.data.clear();
        self.rows = 0;
    }
}

impl Index<usize> for FeatureMatrix {
    type Output = [f64];

    fn index(&self, i: usize) -> &[f64] {
        self.row(i)
    }
}

impl From<Vec<Vec<f64>>> for FeatureMatrix {
    fn from(rows: Vec<Vec<f64>>) -> Self {
        FeatureMatrix::from_rows(rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_view() {
        let mut m = FeatureMatrix::new(3);
        assert!(m.is_empty());
        m.push_row(&[1.0, 2.0, 3.0]);
        m.push_row(&[4.0, 5.0, 6.0]);
        assert_eq!(m.n_rows(), 2);
        assert_eq!(m.width(), 3);
        assert_eq!(m.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(&m[1], &[4.0, 5.0, 6.0]);
        assert_eq!(m.as_slice(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let rows: Vec<&[f64]> = m.rows().collect();
        assert_eq!(rows, vec![&[1.0, 2.0, 3.0][..], &[4.0, 5.0, 6.0][..]]);
    }

    #[test]
    fn from_rows_and_raw_round_trip() {
        let nested = vec![vec![1.0, 2.0], vec![3.0, 4.0]];
        let m = FeatureMatrix::from_rows(nested.clone());
        let raw = FeatureMatrix::from_raw(2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m, raw);
        let via_from: FeatureMatrix = nested.into();
        assert_eq!(via_from, m);
    }

    #[test]
    fn extend_and_clear() {
        let mut a = FeatureMatrix::from_rows(vec![vec![1.0], vec![2.0]]);
        let b = FeatureMatrix::from_rows(vec![vec![3.0]]);
        a.extend_from(&b);
        assert_eq!(a.n_rows(), 3);
        assert_eq!(a.row(2), &[3.0]);
        a.clear();
        assert!(a.is_empty());
        assert_eq!(a.width(), 1);
    }

    #[test]
    fn row_mut_writes_through() {
        let mut m = FeatureMatrix::from_rows(vec![vec![0.0, 0.0]]);
        m.row_mut(0)[1] = 9.0;
        assert_eq!(m.row(0), &[0.0, 9.0]);
    }

    #[test]
    fn empty_and_zero_width() {
        let m = FeatureMatrix::new(0);
        assert_eq!(m.n_rows(), 0);
        assert!(m.rows().next().is_none());
        let m = FeatureMatrix::from_rows(Vec::new());
        assert_eq!(m.width(), 0);
        // Zero-width rows still count as rows.
        let mut m = FeatureMatrix::zero_width(3);
        assert_eq!(m.n_rows(), 3);
        assert_eq!(m.rows().len(), 3);
        assert_eq!(m.row(2), &[] as &[f64]);
        m.push_row(&[]);
        assert_eq!(m.n_rows(), 4);
        assert_eq!(m.rows().count(), 4);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn row_oob_panics() {
        FeatureMatrix::new(2).row(0);
    }

    #[test]
    #[should_panic(expected = "must equal the matrix width")]
    fn push_wrong_width_panics() {
        FeatureMatrix::new(2).push_row(&[1.0]);
    }

    #[test]
    #[should_panic(expected = "multiple of the width")]
    fn from_raw_ragged_panics() {
        FeatureMatrix::from_raw(2, vec![1.0, 2.0, 3.0]);
    }
}
