//! A std-only scoped thread pool.
//!
//! Workers are long-lived OS threads popping type-erased jobs off one shared
//! queue. Borrowed (non-`'static`) closures are admitted through [`Scope`],
//! which guarantees — even under panics — that every spawned task finishes
//! before the scope returns, making the lifetime erasure sound (the same
//! construction as the classic `scoped_threadpool` crate and
//! `std::thread::scope`).
//!
//! Threads blocked in [`Scope`]'s wait *help*: they execute queued jobs
//! (possibly belonging to other scopes) instead of idling, so a scope
//! opened from inside a task cannot deadlock the pool.
//!
//! Every task runs with a thread-local *in-task* flag set. The crate's
//! data-parallel helpers check it (see [`crate::serial`]) and run their
//! serial path inside a task: a random forest trained inside a parallel
//! experiment run fits its trees inline, because the outer fan-out already
//! keeps every worker busy and nested tasks would only add queue traffic.

use std::cell::Cell;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use frote_obs::{Counter, Gauge};

type Job = Box<dyn FnOnce() + Send + 'static>;

// Pool metrics (see frote-obs). All thread-variant: task counts track the
// chunking (which scales with the thread count) and steals/depth track the
// schedule itself.
static TASKS: Counter = Counter::thread_variant("par.tasks");
static STEALS: Counter = Counter::thread_variant("par.steals");
static SCOPE_DEPTH: Gauge = Gauge::thread_variant("par.scope_depth");

/// Concurrently live scopes, feeding the `par.scope_depth` high-water mark.
/// Always maintained (one relaxed op per coarse-grained scope) so toggling
/// metrics mid-run can never unbalance it.
static LIVE_SCOPES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set while this thread runs a pool task; see [`in_task`].
    static IN_TASK: Cell<bool> = const { Cell::new(false) };
}

/// Whether the calling thread is inside a pool task: on a worker running
/// one, or on a thread running one while it helps in a scope's wait.
pub(crate) fn in_task() -> bool {
    IN_TASK.with(Cell::get)
}

/// Sets the in-task flag for its lifetime and restores the previous value
/// on drop, so an unwinding task cannot leave its thread flagged — a thread
/// that helped run a panicking task must still parallelize later top-level
/// calls.
struct TaskFlag(bool);

impl TaskFlag {
    fn enter() -> TaskFlag {
        TaskFlag(IN_TASK.with(|f| f.replace(true)))
    }
}

impl Drop for TaskFlag {
    fn drop(&mut self) {
        IN_TASK.with(|f| f.set(self.0));
    }
}

struct Shared {
    /// Pending jobs + the shutdown flag.
    queue: Mutex<(VecDeque<Job>, bool)>,
    /// Signalled on job submission and on shutdown.
    available: Condvar,
}

/// A fixed-size pool of worker threads executing scoped jobs.
pub struct ThreadPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl ThreadPool {
    /// Spawns a pool with `n` workers (at least one).
    pub fn new(n: usize) -> Self {
        let shared = Arc::new(Shared {
            queue: Mutex::new((VecDeque::new(), false)),
            available: Condvar::new(),
        });
        let workers = (0..n.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("frote-par-{i}"))
                    .spawn(move || worker_loop(&shared, i))
                    .expect("spawn pool worker")
            })
            .collect();
        ThreadPool { shared, workers }
    }

    /// Number of worker threads.
    pub fn n_workers(&self) -> usize {
        self.workers.len()
    }

    fn submit(&self, job: Job) {
        let mut guard = self.shared.queue.lock().expect("pool queue poisoned");
        guard.0.push_back(job);
        drop(guard);
        self.shared.available.notify_one();
    }

    fn try_pop(&self) -> Option<Job> {
        self.shared.queue.lock().expect("pool queue poisoned").0.pop_front()
    }

    /// Runs `f` with a [`Scope`] on which borrowed tasks can be spawned.
    /// Returns `f`'s value once every spawned task has completed.
    ///
    /// # Panics
    ///
    /// If `f` or any spawned task panics, the panic is resumed on the calling
    /// thread — but only after all tasks of the scope have finished, so
    /// borrowed data is never used after free.
    pub fn scope<'env, F, R>(&self, f: F) -> R
    where
        F: for<'scope> FnOnce(&'scope Scope<'scope, 'env>) -> R,
    {
        let depth = LIVE_SCOPES.fetch_add(1, Ordering::Relaxed) + 1;
        SCOPE_DEPTH.set_max(depth as f64);
        let scope = Scope {
            pool: self,
            state: Arc::new(ScopeState::default()),
            _env: PhantomData,
            _scope: PhantomData,
        };
        let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));
        scope.wait_helping();
        LIVE_SCOPES.fetch_sub(1, Ordering::Relaxed);
        let task_panic = scope.state.panic.lock().expect("panic slot poisoned").take();
        match result {
            Err(payload) => resume_unwind(payload),
            Ok(value) => {
                if let Some(payload) = task_panic {
                    resume_unwind(payload);
                }
                value
            }
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shared.queue.lock().expect("pool queue poisoned").1 = true;
        self.shared.available.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

fn worker_loop(shared: &Shared, index: usize) {
    // Resolved once per worker thread; the set of names is bounded by the
    // pool size, and executions only count while metrics are enabled.
    let executed = frote_obs::leaked_counter(
        format!("par.worker.{index}.tasks"),
        frote_obs::Variance::ThreadVariant,
    );
    loop {
        let job = {
            let mut guard = shared.queue.lock().expect("pool queue poisoned");
            loop {
                if let Some(job) = guard.0.pop_front() {
                    break job;
                }
                if guard.1 {
                    return;
                }
                guard = shared.available.wait(guard).expect("pool queue poisoned");
            }
        };
        // Jobs never unwind: Scope::spawn wraps the user closure in
        // catch_unwind and stores the payload for the scope owner.
        job();
        executed.inc();
    }
}

#[derive(Default)]
struct ScopeState {
    /// Tasks spawned but not yet finished.
    pending: Mutex<usize>,
    done: Condvar,
    /// First captured task panic, resumed by `scope` after the wait.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

/// A spawning handle tied to one [`ThreadPool::scope`] invocation. Tasks may
/// borrow anything that outlives the scope (`'env`).
pub struct Scope<'scope, 'env: 'scope> {
    pool: &'scope ThreadPool,
    state: Arc<ScopeState>,
    _env: PhantomData<&'env mut &'env ()>,
    _scope: PhantomData<&'scope mut &'scope ()>,
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Queues `f` for execution on the pool.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'env,
    {
        TASKS.inc();
        *self.state.pending.lock().expect("scope state poisoned") += 1;
        let state = Arc::clone(&self.state);
        let task: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
            let body = move || {
                let _flag = TaskFlag::enter();
                f()
            };
            if let Err(payload) = catch_unwind(AssertUnwindSafe(body)) {
                let mut slot = state.panic.lock().expect("panic slot poisoned");
                slot.get_or_insert(payload);
            }
            let mut pending = state.pending.lock().expect("scope state poisoned");
            *pending -= 1;
            if *pending == 0 {
                state.done.notify_all();
            }
        });
        // SAFETY: `scope` (and `wait_helping`) block until `pending == 0`,
        // i.e. until this closure has run to completion, before control
        // returns past `'env`'s region — so erasing the lifetime to `'static`
        // never lets the closure outlive its borrows.
        let task: Job = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Box<dyn FnOnce() + Send>>(task)
        };
        self.pool.submit(task);
    }

    /// Blocks until every task of this scope has finished, executing queued
    /// pool jobs (of any scope) while waiting.
    fn wait_helping(&self) {
        loop {
            if let Some(job) = self.pool.try_pop() {
                STEALS.inc();
                job();
                continue;
            }
            let pending = self.state.pending.lock().expect("scope state poisoned");
            if *pending == 0 {
                return;
            }
            // A job may land in the queue while we sleep on this scope's
            // condvar; the timeout bounds how long we could miss it, and the
            // loop re-polls the queue, so nested scopes cannot deadlock.
            let (guard, _) = self
                .state
                .done
                .wait_timeout(pending, Duration::from_millis(1))
                .expect("scope state poisoned");
            if *guard == 0 {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    #[test]
    fn scope_runs_borrowed_tasks() {
        let pool = ThreadPool::new(4);
        let mut results = vec![0usize; 8];
        pool.scope(|s| {
            for (i, slot) in results.iter_mut().enumerate() {
                s.spawn(move || *slot = i * i);
            }
        });
        assert_eq!(results, vec![0, 1, 4, 9, 16, 25, 36, 49]);
    }

    #[test]
    fn scope_returns_closure_value() {
        let pool = ThreadPool::new(2);
        let hits = AtomicUsize::new(0);
        let out = pool.scope(|s| {
            for _ in 0..5 {
                s.spawn(|| {
                    hits.fetch_add(1, Ordering::Relaxed);
                });
            }
            "done"
        });
        assert_eq!(out, "done");
        assert_eq!(hits.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn task_panic_propagates_after_all_tasks_finish() {
        let pool = ThreadPool::new(2);
        let finished = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                s.spawn(|| panic!("boom"));
                for _ in 0..4 {
                    s.spawn(|| {
                        finished.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }));
        assert!(result.is_err(), "task panic must propagate");
        assert_eq!(finished.load(Ordering::Relaxed), 4, "siblings still ran to completion");
        // The pool remains usable after a panicked scope.
        let ok = pool.scope(|_| 1 + 1);
        assert_eq!(ok, 2);
    }

    #[test]
    fn nested_scopes_do_not_deadlock() {
        let pool = ThreadPool::new(2);
        let total = AtomicUsize::new(0);
        pool.scope(|outer| {
            for _ in 0..4 {
                outer.spawn(|| {
                    // Each outer task opens its own scope on the same pool;
                    // with only 2 workers this requires waiting threads to
                    // help execute queued jobs.
                    pool.scope(|inner| {
                        for _ in 0..4 {
                            inner.spawn(|| {
                                total.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    });
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn drop_joins_workers() {
        let pool = ThreadPool::new(3);
        assert_eq!(pool.n_workers(), 3);
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let counter = Arc::clone(&counter);
            pool.scope(move |s| {
                for _ in 0..10 {
                    let counter = Arc::clone(&counter);
                    s.spawn(move || {
                        counter.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }
        drop(pool); // must not hang
        assert_eq!(counter.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn zero_workers_clamped_to_one() {
        let pool = ThreadPool::new(0);
        assert_eq!(pool.n_workers(), 1);
        let v = pool.scope(|s| {
            s.spawn(|| {});
            7
        });
        assert_eq!(v, 7);
    }

    /// Runs `body` on the calling thread if `caller` is it; on any other
    /// thread, waits until the caller has run `body`. Spawned twice on a
    /// one-worker pool, it makes the scope's owner run at least one copy in
    /// its helping wait, whatever the schedule.
    fn on_caller(caller: std::thread::ThreadId, ran: &AtomicBool, body: impl FnOnce()) {
        if std::thread::current().id() == caller {
            ran.store(true, Ordering::SeqCst);
            body();
        } else {
            while !ran.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
        }
    }

    #[test]
    fn panicking_nested_tasks_restore_the_in_task_flag() {
        let pool = ThreadPool::new(1);
        let caller = std::thread::current().id();
        let outer_ran = AtomicBool::new(false);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| {
                        on_caller(caller, &outer_ran, || {
                            assert!(in_task());
                            // One flag per nested scope: with a shared one,
                            // the worker could run both tasks of a later
                            // scope once an earlier scope had set it.
                            let inner_ran = AtomicBool::new(false);
                            let nested = std::panic::catch_unwind(AssertUnwindSafe(|| {
                                pool.scope(|s| {
                                    for _ in 0..2 {
                                        s.spawn(|| {
                                            on_caller(caller, &inner_ran, || panic!("inner"))
                                        });
                                    }
                                })
                            }));
                            assert!(nested.is_err(), "the inner task ran here and panicked");
                            assert!(in_task(), "the inner panic restored the outer task's flag");
                            panic!("outer");
                        })
                    });
                }
            })
        }));
        // A failed assertion inside a task would also unwind the scope, so
        // require the payload of the deliberate panic.
        let payload = result.expect_err("the outer task ran here and panicked");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"outer"));
        assert!(!in_task(), "a thread that ran panicking tasks is no longer flagged");
        assert!(
            crate::test_support::with_threads(4, || !crate::serial()),
            "later top-level calls still parallelize"
        );
    }
}
