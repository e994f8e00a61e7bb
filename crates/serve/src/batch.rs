//! Request micro-batching: many concurrent score requests, one
//! `predict_rows` call.
//!
//! Connection handlers never score; they [`Batcher::submit`] validated row
//! sets and block on a reply channel. A single batching worker drains the
//! queue: it takes the oldest job as the batch leader, pulls every queued
//! job targeting the *same model entry* up to the row budget, concatenates
//! the rows into one dataset, resolves the entry's current snapshot
//! **once**, and scores the whole batch with one
//! [`frote_ml::Classifier::predict_rows`] call over the `frote-par` pool.
//! While the worker is busy scoring batch *k*, arrivals queue up and form
//! batch *k+1* — classic leader-based batching with no artificial delay
//! window, so an idle server adds one handoff of latency and a busy server
//! amortizes scoring across every waiting request.
//!
//! Because a batch is scored against exactly one snapshot, every response
//! is consistent with exactly one published generation — the invariant the
//! snapshot-swap integration test pins bit-for-bit.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

use frote_data::Dataset;
use frote_obs::{Counter, Gauge, Histogram};

use crate::registry::ModelEntry;
use crate::ServeError;

/// Score requests accepted into the queue. Fixed workloads produce fixed
/// totals, so the invariance test pins this like an output hash.
static REQUESTS: Counter = Counter::new("serve.requests");
/// Rows scored across all batches — also workload-determined.
static ROWS_SCORED: Counter = Counter::new("serve.rows_scored");
/// Micro-batches executed. Batch composition depends on arrival timing,
/// so the count legitimately varies run to run.
static BATCHES: Counter = Counter::thread_variant("serve.batches");
/// High-water rows aggregated into one micro-batch.
static BATCH_ROWS_MAX: Gauge = Gauge::thread_variant("serve.batch_rows_max");
/// High-water queue depth (jobs waiting when a batch was formed).
static QUEUE_DEPTH: Gauge = Gauge::thread_variant("serve.queue_depth");
/// Requests shed by admission control: the queue was at capacity, the
/// caller got a structured `503 Overloaded`. Depends on arrival timing.
static SHED_REQUESTS: Counter = Counter::thread_variant("serve.shed_requests");
/// Wall-clock of one micro-batch: snapshot resolve + concat + predict +
/// reply fan-out.
static BATCH_SPAN: Histogram = Histogram::new("serve.batch_ns");

/// Default row budget per micro-batch.
pub const DEFAULT_MAX_BATCH_ROWS: usize = 4096;

/// Default bound on queued jobs before admission control sheds
/// ([`ServeError::Overloaded`] → `503` + `Retry-After`). Keyed on the same
/// queue the `serve.queue_depth` gauge watches.
pub const DEFAULT_MAX_QUEUE_DEPTH: usize = 128;

/// One scored batch's slice for one request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScoreResponse {
    /// Generation of the snapshot the batch was scored against.
    pub generation: u64,
    /// Hard predictions, one per submitted row, in submission order.
    pub predictions: Vec<u32>,
}

struct Job {
    rows: Dataset,
    entry: Arc<ModelEntry>,
    reply: mpsc::Sender<ScoreResponse>,
}

struct Shared {
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
    open: AtomicBool,
    max_batch_rows: usize,
    max_queue_depth: usize,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The micro-batching scorer: a queue plus one worker thread.
pub struct Batcher {
    shared: Arc<Shared>,
    worker: Mutex<Option<JoinHandle<()>>>,
}

impl Batcher {
    /// Starts a batcher with the given per-batch row budget and queue
    /// depth bound (each clamped to at least 1).
    pub fn start(max_batch_rows: usize, max_queue_depth: usize) -> Batcher {
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            open: AtomicBool::new(true),
            max_batch_rows: max_batch_rows.max(1),
            max_queue_depth: max_queue_depth.max(1),
        });
        let worker_shared = Arc::clone(&shared);
        let worker = std::thread::Builder::new()
            .name("frote-serve-batcher".to_string())
            .spawn(move || batch_loop(&worker_shared))
            .expect("spawn batcher thread");
        Batcher { shared, worker: Mutex::new(Some(worker)) }
    }

    /// Submits `rows` (already parsed and guard-checked) for scoring
    /// against `entry`'s current snapshot and blocks until the containing
    /// micro-batch completes.
    ///
    /// # Errors
    ///
    /// [`ServeError::Overloaded`] when the queue is at its depth bound
    /// (admission control: shed at the door, never queue unboundedly);
    /// [`ServeError::Unavailable`] when the batcher is shut down, or the
    /// scoring worker dropped the reply without answering (an injected
    /// batch fault or a model panic — the worker itself lives on).
    pub fn submit(
        &self,
        entry: Arc<ModelEntry>,
        rows: Dataset,
    ) -> Result<ScoreResponse, ServeError> {
        if !self.shared.open.load(Ordering::Acquire) {
            return Err(ServeError::Unavailable);
        }
        let (reply, done) = mpsc::channel();
        {
            let mut queue = lock(&self.shared.queue);
            if queue.len() >= self.shared.max_queue_depth {
                SHED_REQUESTS.inc();
                return Err(ServeError::Overloaded);
            }
            REQUESTS.inc();
            queue.push_back(Job { rows, entry, reply });
            QUEUE_DEPTH.set_max(queue.len() as f64);
        }
        self.shared.available.notify_one();
        done.recv().map_err(|_| ServeError::Unavailable)
    }

    /// Closes the queue and joins the worker. Jobs already queued are
    /// drained (scored and answered) before the worker exits; submissions
    /// after this call get [`ServeError::Unavailable`].
    pub fn shutdown(&self) {
        self.shared.open.store(false, Ordering::Release);
        self.shared.available.notify_all();
        if let Some(worker) = lock(&self.worker).take() {
            let _ = worker.join();
        }
    }
}

impl Drop for Batcher {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn batch_loop(shared: &Shared) {
    loop {
        let batch = {
            let mut queue = lock(&shared.queue);
            loop {
                if !queue.is_empty() {
                    break;
                }
                if !shared.open.load(Ordering::Acquire) {
                    return;
                }
                queue = shared.available.wait(queue).unwrap_or_else(|e| e.into_inner());
            }
            take_batch(&mut queue, shared.max_batch_rows)
        };
        let _span = BATCH_SPAN.span();
        // The whole batch execution is unwind-guarded: an injected drain
        // fault or panic fails *this batch's* requests (their replies are
        // dropped -> structured 503 at the boundary) and the worker loops
        // on — the batcher never dies mid-chaos.
        let _ = catch_unwind(AssertUnwindSafe(|| {
            if frote_faults::point("serve.batch.drain").is_err() {
                return;
            }
            run_batch(batch);
        }));
    }
}

/// Pops the leader plus every queued job for the same model entry, up to
/// the row budget (the leader is taken even if it alone exceeds it).
fn take_batch(queue: &mut VecDeque<Job>, max_batch_rows: usize) -> Vec<Job> {
    let leader = queue.pop_front().expect("caller checked non-empty");
    let mut rows = leader.rows.n_rows();
    let mut batch = vec![leader];
    let mut i = 0;
    while i < queue.len() {
        let candidate = &queue[i];
        if Arc::ptr_eq(&candidate.entry, &batch[0].entry)
            && rows + candidate.rows.n_rows() <= max_batch_rows
        {
            let job = queue.remove(i).expect("index in bounds");
            rows += job.rows.n_rows();
            batch.push(job);
        } else {
            i += 1;
        }
    }
    batch
}

fn run_batch(batch: Vec<Job>) {
    let entry = Arc::clone(&batch[0].entry);
    // ONE snapshot resolution per batch: every row in the batch is scored
    // against the same published generation.
    let snapshot = entry.current();
    let total_rows: usize = batch.iter().map(|j| j.rows.n_rows()).sum();
    BATCHES.inc();
    BATCH_ROWS_MAX.set_max(total_rows as f64);

    let scored = catch_unwind(AssertUnwindSafe(|| -> Result<Vec<u32>, ServeError> {
        frote_faults::point("serve.batch.predict")?;
        let mut combined = Dataset::with_shared_schema(Arc::clone(snapshot.schema()));
        for job in &batch {
            combined.extend_from(&job.rows).expect("schema pinned by the entry");
        }
        let indices: Vec<usize> = (0..combined.n_rows()).collect();
        Ok(snapshot.model().predict_rows(&combined, &indices))
    }));
    let Ok(Ok(predictions)) = scored else {
        // A model panic or injected predict fault must not kill the
        // batcher: dropping the replies fails the affected requests with
        // `Unavailable` (a structured 503 at the boundary); the worker
        // lives on. Validated input should never get here un-injected.
        return;
    };
    ROWS_SCORED.add(total_rows as u64);

    let mut offset = 0;
    for job in batch {
        let n = job.rows.n_rows();
        let slice = predictions[offset..offset + n].to_vec();
        offset += n;
        // A handler that timed out / disconnected just drops its receiver;
        // that is not the batcher's problem.
        let _ =
            job.reply.send(ScoreResponse { generation: snapshot.generation(), predictions: slice });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boundary::RowGuard;
    use crate::registry::{ModelRegistry, Snapshot};
    use frote_data::synth::{DatasetKind, SynthConfig};
    use frote_ml::tree::{DecisionTreeTrainer, TreeParams};

    fn setup() -> (ModelRegistry, Arc<ModelEntry>, Dataset) {
        let ds = DatasetKind::Car.generate(&SynthConfig { n_rows: 200, ..Default::default() });
        let trainer =
            DecisionTreeTrainer::new(TreeParams { max_depth: 4, ..Default::default() }, 7);
        let guard = RowGuard::not_null(ds.schema()).unwrap();
        let registry = ModelRegistry::new();
        let entry = registry.register("car", Snapshot::fit(&trainer, &ds, guard), None);
        (registry, entry, ds)
    }

    fn probe(ds: &Dataset, range: std::ops::Range<usize>) -> Dataset {
        ds.gather(&range.collect::<Vec<_>>())
    }

    #[test]
    fn batched_predictions_match_direct_predict_rows() {
        let (_registry, entry, ds) = setup();
        let batcher = Batcher::start(DEFAULT_MAX_BATCH_ROWS, DEFAULT_MAX_QUEUE_DEPTH);
        let rows = probe(&ds, 0..32);
        let resp = batcher.submit(Arc::clone(&entry), rows.clone()).unwrap();
        assert_eq!(resp.generation, 1);
        let indices: Vec<usize> = (0..rows.n_rows()).collect();
        let direct = entry.current().model().predict_rows(&rows, &indices);
        assert_eq!(resp.predictions, direct);
    }

    #[test]
    fn concurrent_submissions_all_answered_consistently() {
        let (_registry, entry, ds) = setup();
        let batcher = Arc::new(Batcher::start(DEFAULT_MAX_BATCH_ROWS, DEFAULT_MAX_QUEUE_DEPTH));
        let expected = {
            let indices: Vec<usize> = (0..ds.n_rows()).collect();
            entry.current().model().predict_rows(&ds, &indices)
        };
        std::thread::scope(|scope| {
            for t in 0..8 {
                let batcher = Arc::clone(&batcher);
                let entry = Arc::clone(&entry);
                let ds = &ds;
                let expected = &expected;
                scope.spawn(move || {
                    for k in 0..5 {
                        let start = (t * 17 + k * 7) % (ds.n_rows() - 8);
                        let rows = probe(ds, start..start + 8);
                        let resp = batcher.submit(Arc::clone(&entry), rows).unwrap();
                        assert_eq!(resp.predictions, expected[start..start + 8].to_vec());
                    }
                });
            }
        });
    }

    #[test]
    fn shutdown_rejects_new_and_drains_old() {
        let (_registry, entry, ds) = setup();
        let batcher = Batcher::start(DEFAULT_MAX_BATCH_ROWS, DEFAULT_MAX_QUEUE_DEPTH);
        batcher.shutdown();
        let err = batcher.submit(entry, probe(&ds, 0..4)).unwrap_err();
        assert!(matches!(err, ServeError::Unavailable));
    }

    #[test]
    fn take_batch_groups_same_entry_within_budget() {
        let (registry, entry_a, ds) = setup();
        let trainer =
            DecisionTreeTrainer::new(TreeParams { max_depth: 3, ..Default::default() }, 7);
        let entry_b = registry.register(
            "car-b",
            Snapshot::fit(&trainer, &ds, RowGuard::not_null(ds.schema()).unwrap()),
            None,
        );
        let (tx, _rx) = mpsc::channel();
        let mut queue: VecDeque<Job> = VecDeque::new();
        for entry in [&entry_a, &entry_b, &entry_a, &entry_a] {
            queue.push_back(Job {
                rows: probe(&ds, 0..4),
                entry: Arc::clone(entry),
                reply: tx.clone(),
            });
        }
        // Budget admits leader + one follower; the second same-entry
        // follower stays queued, and the other entry's job is untouched.
        let batch = take_batch(&mut queue, 8);
        assert_eq!(batch.len(), 2);
        assert!(batch.iter().all(|j| Arc::ptr_eq(&j.entry, &entry_a)));
        assert_eq!(queue.len(), 2);
        assert!(Arc::ptr_eq(&queue[0].entry, &entry_b));
        assert!(Arc::ptr_eq(&queue[1].entry, &entry_a));
    }
}
