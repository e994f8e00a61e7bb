//! Timing decorators for the black-box training contract.
//!
//! The traced runs measure layers from outside the program: a
//! [`TimedTrainer`] wraps any [`TrainAlgorithm`] and a [`TimedClassifier`]
//! wraps every model it returns. Both delegate every call unchanged (the
//! wrapped trainer's `train_cached` calls the inner `train_cached`, the
//! wrapped model's `predict` calls the inner `predict`), so results are
//! bit-identical to the bare trainer; the decorators only read the clock.

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use frote_data::{Dataset, Value};
use frote_ml::{Classifier, TrainAlgorithm, TrainCache};

/// One completed training call.
#[derive(Debug, Clone)]
pub struct TrainEvent {
    /// When the call entered the inner trainer.
    pub start: Instant,
    /// When the inner trainer returned.
    pub end: Instant,
    /// Rows of the dataset trained on.
    pub rows: usize,
}

impl TrainEvent {
    /// Duration of the call in seconds.
    pub fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// Everything the decorators recorded since the last [`Probe::take`].
#[derive(Debug, Default)]
pub struct ProbeLog {
    /// Training calls in call order.
    pub trains: Vec<TrainEvent>,
    /// Batch predict calls (`predict_dataset` + `predict_rows`).
    pub predict_calls: u64,
    /// Rows predicted by those calls.
    pub predict_rows: u64,
    /// Seconds spent inside those calls.
    pub predict_s: f64,
}

/// Shared sink the decorators write into.
#[derive(Debug, Default)]
pub struct Probe {
    log: Mutex<ProbeLog>,
}

impl Probe {
    /// A fresh, empty probe.
    pub fn new() -> Arc<Probe> {
        Arc::new(Probe::default())
    }

    fn log(&self) -> MutexGuard<'_, ProbeLog> {
        self.log.lock().expect("probe lock is never held across a panic")
    }

    /// Returns everything recorded so far and starts a new log.
    pub fn take(&self) -> ProbeLog {
        std::mem::take(&mut *self.log())
    }
}

/// A [`TrainAlgorithm`] that times every call into the wrapped trainer.
pub struct TimedTrainer {
    inner: Box<dyn TrainAlgorithm>,
    probe: Arc<Probe>,
}

impl TimedTrainer {
    /// Wraps `inner`, recording into `probe`.
    pub fn new(inner: Box<dyn TrainAlgorithm>, probe: &Arc<Probe>) -> TimedTrainer {
        TimedTrainer { inner, probe: Arc::clone(probe) }
    }

    fn timed(
        &self,
        ds: &Dataset,
        fit: impl FnOnce() -> Box<dyn Classifier>,
    ) -> Box<dyn Classifier> {
        let start = Instant::now();
        let model = fit();
        let end = Instant::now();
        self.probe.log().trains.push(TrainEvent { start, end, rows: ds.n_rows() });
        Box::new(TimedClassifier { inner: model, probe: Arc::clone(&self.probe) })
    }
}

impl TrainAlgorithm for TimedTrainer {
    fn train(&self, ds: &Dataset) -> Box<dyn Classifier> {
        self.timed(ds, || self.inner.train(ds))
    }

    fn train_cached(&self, ds: &Dataset, cache: &mut TrainCache) -> Box<dyn Classifier> {
        self.timed(ds, || self.inner.train_cached(ds, cache))
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// A [`Classifier`] that times the batch predict paths of the wrapped model.
pub struct TimedClassifier {
    inner: Box<dyn Classifier>,
    probe: Arc<Probe>,
}

impl TimedClassifier {
    fn timed(&self, rows: usize, predict: impl FnOnce() -> Vec<u32>) -> Vec<u32> {
        let start = Instant::now();
        let out = predict();
        let secs = start.elapsed().as_secs_f64();
        let mut log = self.probe.log();
        log.predict_calls += 1;
        log.predict_rows += rows as u64;
        log.predict_s += secs;
        out
    }
}

impl Classifier for TimedClassifier {
    fn n_classes(&self) -> usize {
        self.inner.n_classes()
    }

    fn predict_proba_into(&self, row: &[Value], out: &mut Vec<f64>) {
        self.inner.predict_proba_into(row, out);
    }

    fn predict(&self, row: &[Value]) -> u32 {
        self.inner.predict(row)
    }

    fn predict_dataset(&self, ds: &Dataset) -> Vec<u32> {
        self.timed(ds.n_rows(), || self.inner.predict_dataset(ds))
    }

    fn predict_rows(&self, ds: &Dataset, rows: &[usize]) -> Vec<u32> {
        self.timed(rows.len(), || self.inner.predict_rows(ds, rows))
    }
}
