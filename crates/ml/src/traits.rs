//! The black-box training contract FROTE assumes.
//!
//! The [`Classifier`] trait is batch-first: implementations provide the
//! allocation-free [`Classifier::predict_proba_into`], and the provided
//! batch methods ([`Classifier::predict_dataset`],
//! [`Classifier::predict_rows`]) walk the columnar store with reused scratch
//! buffers, in parallel across `frote_par::threads()` threads. Results are
//! bit-identical to a serial per-row loop at any thread count.

use frote_data::{BinnedCache, Dataset, EncodedCache, Value};

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

/// Reusable training state shared across repeated [`TrainAlgorithm`] calls
/// on an append-only dataset — FROTE's retrain loop hands each run one of
/// these so histogram-mode tree trainers bin the base rows once and only
/// bin what each iteration appends, and the logistic-regression trainer
/// likewise encodes base rows once and scores straight off the cached
/// [`frote_data::EncodedCache`] matrix. Exact-mode tree trainers ignore it.
#[derive(Debug, Default)]
pub struct TrainCache {
    binned: Option<BinnedCache>,
    encoded: Option<EncodedCache>,
}

impl TrainCache {
    /// An empty cache (nothing binned or encoded yet).
    pub fn new() -> Self {
        TrainCache::default()
    }

    /// The binned view of `ds` at the given bin budget — fitted on first
    /// use, then kept in sync incrementally (appended rows are binned;
    /// a changed fit or a different budget re-bins from scratch).
    pub fn binned(&mut self, ds: &Dataset, max_bins: usize) -> &BinnedCache {
        let reusable = self.binned.as_ref().is_some_and(|c| c.binner().max_bins() == max_bins);
        if reusable {
            self.binned.as_mut().expect("checked above").sync(ds);
        } else {
            self.binned = Some(BinnedCache::fit(ds, max_bins));
        }
        self.binned.as_ref().expect("just filled")
    }

    /// The encoded view of `ds` — fitted on first use, then kept in sync
    /// incrementally (appended rows are encoded; a moved encoder fit
    /// re-encodes from scratch). Exact by construction: after this call,
    /// `encoder()` equals `Encoder::fit(ds)` and `matrix()` equals a fresh
    /// `encode_dataset(ds)` bit for bit.
    pub fn encoded(&mut self, ds: &Dataset) -> &EncodedCache {
        match &mut self.encoded {
            Some(cache) => {
                cache.sync(ds);
            }
            slot @ None => *slot = Some(EncodedCache::fit(ds)),
        }
        self.encoded.as_ref().expect("just filled")
    }

    /// Drops cached rows past the first `rows` (a rejected candidate batch
    /// is un-binned and un-encoded without touching the surviving prefix).
    pub fn truncate(&mut self, rows: usize) {
        if let Some(c) = &mut self.binned {
            c.truncate(rows);
        }
        if let Some(c) = &mut self.encoded {
            c.truncate(rows);
        }
    }
}

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

    /// Trains on `ds`, reusing `cache` across calls on the same append-only
    /// dataset. The default ignores the cache and defers to
    /// [`TrainAlgorithm::train`]; histogram-mode tree trainers override it
    /// (and implement `train` by calling this with a throwaway cache — an
    /// override must therefore never call the default `train_cached`).
    /// Results are bit-identical to `train` either way.
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
