//! A dense, flat, row-major feature matrix.
//!
//! The encoded data plane of the workspace: one contiguous `Vec<f64>` with a
//! fixed row stride, so batch scoring walks cache lines instead of chasing a
//! pointer per row (the `Vec<Vec<f64>>` layout it replaces). A matrix is
//! built whole from its backing storage ([`FeatureMatrix::from_raw`]) and its
//! rows are read as borrowed `&[f64]` views.

use std::ops::Index;

/// A dense row-major `f64` matrix with a fixed row width. See the module
/// docs above for the layout rationale.
///
/// # Example
///
/// ```
/// use frote_data::FeatureMatrix;
/// let m = FeatureMatrix::from_raw(2, vec![1.0, 2.0, 3.0, 4.0]);
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
}

impl Index<usize> for FeatureMatrix {
    type Output = [f64];

    fn index(&self, i: usize) -> &[f64] {
        self.row(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_raw_and_view() {
        assert!(FeatureMatrix::from_raw(3, Vec::new()).is_empty());
        let m = FeatureMatrix::from_raw(3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m.n_rows(), 2);
        assert_eq!(m.width(), 3);
        assert_eq!(m.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(&m[1], &[4.0, 5.0, 6.0]);
        assert_eq!(m.as_slice(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let rows: Vec<&[f64]> = m.rows().collect();
        assert_eq!(rows, vec![&[1.0, 2.0, 3.0][..], &[4.0, 5.0, 6.0][..]]);
    }

    #[test]
    fn row_mut_writes_through() {
        let mut m = FeatureMatrix::from_raw(2, vec![0.0, 0.0]);
        m.row_mut(0)[1] = 9.0;
        assert_eq!(m.row(0), &[0.0, 9.0]);
    }

    #[test]
    fn empty_and_zero_width() {
        let m = FeatureMatrix::from_raw(0, Vec::new());
        assert_eq!(m.n_rows(), 0);
        assert_eq!(m.width(), 0);
        assert!(m.rows().next().is_none());
        // Zero-width rows still count as rows.
        let m = FeatureMatrix::zero_width(3);
        assert_eq!(m.n_rows(), 3);
        assert_eq!(m.rows().len(), 3);
        assert_eq!(m.row(2), &[] as &[f64]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn row_oob_panics() {
        FeatureMatrix::from_raw(2, Vec::new()).row(0);
    }

    #[test]
    #[should_panic(expected = "multiple of the width")]
    fn from_raw_ragged_panics() {
        FeatureMatrix::from_raw(2, vec![1.0, 2.0, 3.0]);
    }
}
