//! Feature encoding: standardized numeric + one-hot categorical.
//!
//! Linear models (`frote-ml::logreg`) and the online-learning selection proxy
//! operate on dense `f64` vectors. [`Encoder`] fits column means/stds on a
//! training dataset and then maps any schema-compatible row to a vector:
//! numeric columns are z-scored (constant columns map to 0), categorical
//! columns expand to one-hot blocks.
//!
//! Batch encoding is matrix-first: [`Encoder::encode_dataset`] fills a flat
//! row-major [`FeatureMatrix`] in parallel across `frote_par::threads()`
//! threads, cell-for-cell identical to per-row [`Encoder::encode`] at any
//! thread count.

use crate::column::Column;
use crate::dataset::Dataset;
use crate::matrix::FeatureMatrix;
use crate::stats::NumericStats;
use crate::value::{FeatureKind, Value};

/// Rows per parallel block when batch-encoding. Block boundaries never
/// affect results, only the schedule.
const ENCODE_BLOCK: usize = 512;

/// A fitted feature encoder. See the [module docs](self).
///
/// Equality compares the fitted parameters (means/stds/cardinalities).
#[derive(Debug, Clone, PartialEq)]
pub struct Encoder {
    cols: Vec<ColEncoder>,
    width: usize,
}

#[derive(Debug, Clone, PartialEq)]
enum ColEncoder {
    Numeric { mean: f64, std: f64 },
    OneHot { cardinality: usize },
}

impl Encoder {
    /// Fits an encoder to the columns of `ds`.
    ///
    /// Works on empty datasets too (numeric columns then standardize as
    /// identity minus zero mean).
    pub fn fit(ds: &Dataset) -> Encoder {
        let mut cols = Vec::with_capacity(ds.n_features());
        let mut width = 0;
        for j in 0..ds.n_features() {
            let enc = match (ds.column(j), ds.schema().feature(j).kind()) {
                (Column::Numeric(v), _) => {
                    let s = NumericStats::of(v);
                    width += 1;
                    ColEncoder::Numeric { mean: s.mean, std: s.std }
                }
                (Column::Categorical(_), FeatureKind::Categorical { categories }) => {
                    width += categories.len();
                    ColEncoder::OneHot { cardinality: categories.len() }
                }
                _ => unreachable!("dataset column/schema kind mismatch"),
            };
            cols.push(enc);
        }
        Encoder { cols, width }
    }

    /// Output vector width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Width of the leading run of numeric columns: encoded cells
    /// `0..numeric_prefix_width()` are z-scored numbers, one per column,
    /// and the first one-hot block (if any) starts right after them.
    /// Equals [`Encoder::width`] for all-numeric schemas and 0 when the
    /// first column is categorical.
    pub fn numeric_prefix_width(&self) -> usize {
        self.cols.iter().take_while(|c| matches!(c, ColEncoder::Numeric { .. })).count()
    }

    /// Encodes one cell into `out`. The single source of truth for the
    /// encoding arithmetic — every batch path funnels through it, which is
    /// what keeps matrix and per-row encodings bit-identical.
    fn encode_cell(enc: &ColEncoder, v: Value, out: &mut Vec<f64>) {
        match (enc, v) {
            (ColEncoder::Numeric { mean, std }, Value::Num(x)) => {
                out.push(if *std > 0.0 { (x - mean) / std } else { x - mean });
            }
            (ColEncoder::OneHot { cardinality }, Value::Cat(c)) => {
                let start = out.len();
                out.resize(start + cardinality, 0.0);
                out[start + c as usize] = 1.0;
            }
            _ => panic!("row cell kind does not match encoder"),
        }
    }

    /// Encodes one row into `out`, which is cleared first.
    ///
    /// # Panics
    ///
    /// Panics if the row's arity or cell kinds do not match the fitted
    /// dataset's schema.
    pub fn encode_into(&self, row: &[Value], out: &mut Vec<f64>) {
        assert_eq!(row.len(), self.cols.len(), "row arity mismatch");
        out.clear();
        out.reserve(self.width);
        for (enc, &v) in self.cols.iter().zip(row) {
            Self::encode_cell(enc, v, out);
        }
    }

    /// Encodes one row into a fresh vector.
    pub fn encode(&self, row: &[Value]) -> Vec<f64> {
        let mut out = Vec::new();
        self.encode_into(row, &mut out);
        out
    }

    /// Appends the encoding of dataset row `i` to `buf`, reading the
    /// columnar store directly (no `Vec<Value>` row materialization).
    fn encode_ds_row(&self, ds: &Dataset, i: usize, buf: &mut Vec<f64>) {
        for (j, enc) in self.cols.iter().enumerate() {
            Self::encode_cell(enc, ds.cell(i, j), buf);
        }
    }

    /// Encodes every row of `ds` as a dense row-major [`FeatureMatrix`], in
    /// parallel across `frote_par::threads()` threads. Cell-for-cell
    /// identical to per-row [`Encoder::encode`] at any thread count.
    ///
    /// # Panics
    ///
    /// Panics if `ds`'s schema does not match the fitted dataset's.
    pub fn encode_dataset(&self, ds: &Dataset) -> FeatureMatrix {
        assert_eq!(ds.n_features(), self.cols.len(), "row arity mismatch");
        if self.width == 0 {
            // Feature-less schemas still have rows; keep the count.
            return FeatureMatrix::zero_width(ds.n_rows());
        }
        let data: Vec<f64> = frote_par::par_blocks_map(ds.n_rows(), ENCODE_BLOCK, |_, rows| {
            let mut buf = Vec::with_capacity(rows.len() * self.width);
            for i in rows {
                self.encode_ds_row(ds, i, &mut buf);
            }
            buf
        });
        FeatureMatrix::from_raw(self.width, data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Schema;

    fn demo() -> Dataset {
        let schema = Schema::builder("y", vec!["a".into(), "b".into()])
            .numeric("x")
            .categorical("c", vec!["u".into(), "v".into(), "w".into()])
            .build();
        let mut ds = Dataset::new(schema);
        ds.push_row(&[Value::Num(1.0), Value::Cat(0)], 0).unwrap();
        ds.push_row(&[Value::Num(3.0), Value::Cat(2)], 1).unwrap();
        ds
    }

    #[test]
    fn width_counts_onehot_blocks() {
        let enc = Encoder::fit(&demo());
        assert_eq!(enc.width(), 1 + 3);
    }

    #[test]
    fn numeric_prefix_stops_at_the_first_onehot_block() {
        assert_eq!(Encoder::fit(&demo()).numeric_prefix_width(), 1);
        let schema = Schema::builder("y", vec!["a".into(), "b".into()])
            .numeric("x0")
            .numeric("x1")
            .categorical("c", vec!["u".into()])
            .numeric("x2")
            .build();
        let enc = Encoder::fit(&Dataset::new(schema));
        assert_eq!((enc.numeric_prefix_width(), enc.width()), (2, 4));
        let schema = Schema::builder("y", vec!["a".into(), "b".into()])
            .categorical("c", vec!["u".into(), "v".into()])
            .numeric("x")
            .build();
        assert_eq!(Encoder::fit(&Dataset::new(schema)).numeric_prefix_width(), 0);
    }

    #[test]
    fn zscore_and_onehot() {
        let ds = demo();
        let enc = Encoder::fit(&ds);
        let v = enc.encode(&ds.row(0));
        // mean 2, std 1 -> z = -1
        assert!((v[0] + 1.0).abs() < 1e-12);
        assert_eq!(&v[1..], &[1.0, 0.0, 0.0]);
        let v = enc.encode(&ds.row(1));
        assert!((v[0] - 1.0).abs() < 1e-12);
        assert_eq!(&v[1..], &[0.0, 0.0, 1.0]);
    }

    #[test]
    fn constant_column_maps_to_zero() {
        let schema = Schema::builder("y", vec!["a".into(), "b".into()]).numeric("x").build();
        let mut ds = Dataset::new(schema);
        ds.push_row(&[Value::Num(5.0)], 0).unwrap();
        ds.push_row(&[Value::Num(5.0)], 1).unwrap();
        let enc = Encoder::fit(&ds);
        assert_eq!(enc.encode(&ds.row(0)), vec![0.0]);
    }

    #[test]
    fn encode_dataset_matches_per_row_encode() {
        let ds = demo();
        let enc = Encoder::fit(&ds);
        let m = enc.encode_dataset(&ds);
        assert_eq!(m.n_rows(), 2);
        assert_eq!(m.width(), 4);
        for i in 0..ds.n_rows() {
            assert_eq!(m.row(i), enc.encode(&ds.row(i)).as_slice());
        }
        // Three `ENCODE_BLOCK`s, the last one partial, at any thread count.
        let ds = crate::synth::DatasetKind::Adult
            .generate(&crate::synth::SynthConfig { n_rows: 1300, ..Default::default() });
        let enc = Encoder::fit(&ds);
        let per_row: Vec<f64> = (0..ds.n_rows()).flat_map(|i| enc.encode(&ds.row(i))).collect();
        for t in [1usize, 2, 4] {
            let m = frote_par::test_support::with_threads(t, || enc.encode_dataset(&ds));
            assert_eq!(m.as_slice(), per_row.as_slice(), "encode drifted at FROTE_THREADS={t}");
        }
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_mismatch_panics() {
        let enc = Encoder::fit(&demo());
        enc.encode(&[Value::Num(0.0)]);
    }
}
