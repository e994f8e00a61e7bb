//! The black-box training contract FROTE assumes.
//!
//! The [`Classifier`] trait is batch-first: implementations provide the
//! allocation-free [`Classifier::predict_proba_into`], and the provided
//! batch methods ([`Classifier::predict_dataset`],
//! [`Classifier::predict_rows`]) walk the columnar store with reused scratch
//! buffers, in parallel across `frote_par::threads()` threads. Results are
//! bit-identical to a serial per-row loop at any thread count.

use frote_data::{Dataset, Value};

/// Rows per parallel block when batch-predicting. Boundaries only affect the
/// schedule, never the result.
pub(crate) const PREDICT_BLOCK: usize = 256;

/// A trained classifier over raw (mixed-type) rows.
///
/// Implementations must be `Send + Sync` so models can be evaluated from
/// benchmark harnesses without ceremony.
pub trait Classifier: Send + Sync {
    /// Number of classes the model can emit.
    fn n_classes(&self) -> usize;

    /// Class probabilities for one row (sums to 1), written into `out`
    /// (cleared first). The batch paths call this with a reused buffer, so
    /// implementations should not allocate beyond what the model requires.
    fn predict_proba_into(&self, row: &[Value], out: &mut Vec<f64>);

    /// Class probabilities for one row as a fresh vector.
    fn predict_proba(&self, row: &[Value]) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.n_classes());
        self.predict_proba_into(row, &mut out);
        out
    }

    /// Hard prediction: the argmax of [`Classifier::predict_proba`] (ties to
    /// the lowest class). Implementations may override with a faster path.
    fn predict(&self, row: &[Value]) -> u32 {
        let mut p = Vec::with_capacity(self.n_classes());
        self.predict_proba_into(row, &mut p);
        argmax(&p)
    }

    /// Hard predictions for every row of a dataset, computed in parallel
    /// over row blocks with a reused row scratch (no `Dataset::row`
    /// allocation per row). Identical to mapping [`Classifier::predict`]
    /// over materialized rows, at any `FROTE_THREADS`.
    fn predict_dataset(&self, ds: &Dataset) -> Vec<u32> {
        frote_par::par_blocks_map(ds.n_rows(), PREDICT_BLOCK, |_, rows| {
            let mut row = Vec::with_capacity(ds.n_features());
            let mut out = Vec::with_capacity(rows.len());
            for i in rows {
                ds.row_into(i, &mut row);
                out.push(self.predict(&row));
            }
            out
        })
    }

    /// Hard predictions for the dataset rows listed in `rows` (in that
    /// order) — the batch path for coverage-partitioned scoring. Same
    /// scratch-reuse and parallelism guarantees as
    /// [`Classifier::predict_dataset`].
    fn predict_rows(&self, ds: &Dataset, rows: &[usize]) -> Vec<u32> {
        frote_par::par_chunks_map(rows, PREDICT_BLOCK, |_, chunk| {
            let mut row = Vec::with_capacity(ds.n_features());
            let mut out = Vec::with_capacity(chunk.len());
            for &i in chunk {
                ds.row_into(i, &mut row);
                out.push(self.predict(&row));
            }
            out
        })
    }
}

/// The argument of [`TrainAlgorithm::train_cached`]. It holds nothing:
/// every fit encodes or bins its dataset from scratch.
#[derive(Debug, Default)]
pub struct TrainCache;

/// A training algorithm: dataset in, classifier out (paper §3.2 treats it as
/// a black box, possibly proprietary).
pub trait TrainAlgorithm: Send + Sync {
    /// Trains a model on `ds`.
    ///
    /// # Panics
    ///
    /// Implementations panic on empty datasets — FROTE never trains on an
    /// empty `D̂` by construction.
    fn train(&self, ds: &Dataset) -> Box<dyn Classifier>;

    /// Trains on `ds`. Defers to [`TrainAlgorithm::train`]; no trainer in
    /// the workspace overrides it.
    fn train_cached(&self, ds: &Dataset, cache: &mut TrainCache) -> Box<dyn Classifier> {
        let _ = cache;
        self.train(ds)
    }

    /// Short display name ("LR", "RF", "LGBM" in the paper's tables).
    fn name(&self) -> &str;
}

/// Argmax with ties to the lowest index.
///
/// # Panics
///
/// Panics if `xs` is empty.
pub(crate) fn argmax(xs: &[f64]) -> u32 {
    assert!(!xs.is_empty(), "argmax of empty slice");
    let mut best = 0;
    for (i, &x) in xs.iter().enumerate().skip(1) {
        if x > xs[best] {
            best = i;
        }
    }
    best as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use frote_data::{Schema, Value};

    struct Constant(u32, usize);
    impl Classifier for Constant {
        fn n_classes(&self) -> usize {
            self.1
        }
        fn predict_proba_into(&self, _row: &[Value], out: &mut Vec<f64>) {
            out.clear();
            out.resize(self.1, 0.0);
            out[self.0 as usize] = 1.0;
        }
    }

    #[test]
    fn default_predict_is_argmax_of_proba() {
        let c = Constant(2, 4);
        assert_eq!(c.predict(&[]), 2);
        assert_eq!(c.predict_proba(&[]), vec![0.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn predict_dataset_maps_rows() {
        let schema = Schema::builder("y", vec!["a".into(), "b".into()]).numeric("x").build();
        let mut ds = Dataset::new(schema);
        ds.push_row(&[Value::Num(0.0)], 0).unwrap();
        ds.push_row(&[Value::Num(1.0)], 1).unwrap();
        let c = Constant(1, 2);
        assert_eq!(c.predict_dataset(&ds), vec![1, 1]);
        assert_eq!(c.predict_rows(&ds, &[1, 0, 1]), vec![1, 1, 1]);
    }

    #[test]
    fn batch_predictions_match_serial_at_any_thread_count() {
        let schema = Schema::builder("y", vec!["a".into(), "b".into()]).numeric("x").build();
        let mut ds = Dataset::new(schema);
        for i in 0..600 {
            ds.push_row(&[Value::Num(i as f64)], (i % 2) as u32).unwrap();
        }
        let c = Constant(0, 2);
        let serial: Vec<u32> = (0..ds.n_rows()).map(|i| c.predict(&ds.row(i))).collect();
        for t in [1usize, 4] {
            let batch = frote_par::test_support::with_threads(t, || c.predict_dataset(&ds));
            assert_eq!(batch, serial, "FROTE_THREADS={t}");
        }
    }

    #[test]
    fn argmax_ties_low() {
        assert_eq!(argmax(&[0.5, 0.5]), 0);
        assert_eq!(argmax(&[0.1, 0.7, 0.2]), 1);
    }

    #[test]
    #[should_panic(expected = "empty slice")]
    fn argmax_empty_panics() {
        argmax(&[]);
    }

    #[test]
    fn classifier_is_object_safe() {
        fn _take(_: &dyn Classifier) {}
        fn _take_alg(_: &dyn TrainAlgorithm) {}
    }
}
