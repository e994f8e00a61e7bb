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
//! opened from inside a task cannot deadlock the pool. Because the scope's
//! owner always runs tasks too, the global pool starts one worker fewer
//! than the threads it serves (see `global_pool` in the crate root).
//!
//! ## Spin, then park
//!
//! Inside one FROTE edit the parallel calls are fine-grained — one scope
//! per LR gradient iteration, per GBDT round, per forest fit and per
//! predict — and follow each other with a short serial gap. A worker
//! parked on a condvar between them takes p50 20–50 µs and p99 0.3–6 ms to
//! wake on a 2-vCPU host, often on the caller's vCPU, which made two
//! threads barely faster than one. So idle threads first *spin* for
//! [`SPIN_WINDOW`]:
//!
//! - an idle worker polls the atomic queued-job count (`spin_loop`, then
//!   `yield_now`); when the window expires it registers as a sleeper under
//!   the queue lock and parks. `submit` pushes under the same lock and
//!   calls `notify_one` only when a sleeper is registered, so a job pushed
//!   while the worker is between its last poll and its park is found by the
//!   worker's re-check under the lock — no wake-up is lost.
//! - a scope owner with nothing left to help with polls its scope's atomic
//!   `pending` count and the queue for the same window, then falls back to
//!   a timed condvar wait. Tasks decrement `pending` with `Release`; only
//!   the last one takes the scope's lock, and it notifies only an owner
//!   that went to sleep.
//!
//! Only scheduling changes with the window, never which closure computes
//! which output, so results do not depend on it.
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
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use frote_obs::{Counter, Gauge};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// How long an idle thread polls for work before it blocks. It is sized
/// from the gap between consecutive top-level parallel calls of a FROTE
/// edit (the serial work between two scopes): on the medium Adult slice
/// that gap measured p50 3 µs, p90 ~200 µs, p99 ~560 µs, and 98% of gaps
/// were within 0.5 ms, so a worker stays hot across nearly all of them. A
/// 5 ms window was measured to slow `serve-mixed` publishes (spinning
/// workers took CPU from the request threads).
pub const SPIN_WINDOW: Duration = Duration::from_micros(500);

/// Busy-wait polls before an idle thread starts yielding its core each
/// poll instead.
const SPIN_POLLS: u32 = 64;

// Pool metrics (see frote-obs). All thread-variant: task counts track the
// chunking (which scales with the thread count) and steals, parks, spin
// hits and depth track the schedule itself.
static TASKS: Counter = Counter::thread_variant("par.tasks");
static STEALS: Counter = Counter::thread_variant("par.steals");
static PARKS: Counter = Counter::thread_variant("par.parks");
static SPIN_HITS: Counter = Counter::thread_variant("par.spin_hits");
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

/// Polls `ready` until it holds (returns `true`) or [`SPIN_WINDOW`] has
/// passed (returns `false`): [`SPIN_POLLS`] busy-wait polls, then one
/// `yield_now` per poll so an oversubscribed core goes to runnable threads.
fn spin_until(mut ready: impl FnMut() -> bool) -> bool {
    let start = Instant::now();
    let mut polls = 0u32;
    loop {
        if ready() {
            return true;
        }
        if polls < SPIN_POLLS {
            polls += 1;
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
            if start.elapsed() >= SPIN_WINDOW {
                return false;
            }
        }
    }
}

/// The queue lock's contents.
struct Queue {
    jobs: VecDeque<Job>,
    /// Workers registered as parked (or about to park) on `available`.
    sleepers: usize,
    shutdown: bool,
}

struct Shared {
    queue: Mutex<Queue>,
    /// `queue.jobs.len()`, readable without the lock: what spinning threads
    /// poll. Only a hint — jobs themselves travel through the mutex, which
    /// orders them — so it publishes nothing and is accessed `Relaxed`.
    queued: AtomicUsize,
    /// Signalled on submission (when a sleeper exists) and on shutdown.
    available: Condvar,
}

impl Shared {
    fn lock(&self) -> std::sync::MutexGuard<'_, Queue> {
        self.queue.lock().expect("pool queue poisoned")
    }

    /// Pops the front job; the caller holds the queue lock.
    fn pop(&self, queue: &mut Queue) -> Option<Job> {
        let job = queue.jobs.pop_front()?;
        self.queued.fetch_sub(1, Ordering::Relaxed);
        Some(job)
    }

    /// Pops the front job, taking the lock only when the queue looks
    /// non-empty.
    fn try_pop(&self) -> Option<Job> {
        if self.queued.load(Ordering::Relaxed) == 0 {
            return None;
        }
        self.pop(&mut self.lock())
    }
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
            queue: Mutex::new(Queue { jobs: VecDeque::new(), sleepers: 0, shutdown: false }),
            queued: AtomicUsize::new(0),
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
        let mut queue = self.shared.lock();
        queue.jobs.push_back(job);
        self.shared.queued.fetch_add(1, Ordering::Relaxed);
        // Read under the lock a parking worker registers under: either it
        // registered before this push (and is woken here), or it re-checks
        // the queue after it (and finds the job).
        let wake = queue.sleepers > 0;
        drop(queue);
        if wake {
            self.shared.available.notify_one();
        }
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
        // Spinning workers see the flag when their window expires; parked
        // ones are woken here.
        self.shared.lock().shutdown = true;
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
        let Some(job) = shared.try_pop().or_else(|| next_job_after_idle(shared)) else {
            return;
        };
        // Jobs never unwind: Scope::spawn wraps the user closure in
        // catch_unwind and stores the payload for the scope owner.
        job();
        executed.inc();
    }
}

/// Waits for the next job once the queue has been seen empty: spins for
/// [`SPIN_WINDOW`], then parks. `None` means the pool shut down.
fn next_job_after_idle(shared: &Shared) -> Option<Job> {
    let mut job = None;
    if spin_until(|| {
        job = shared.try_pop();
        job.is_some()
    }) {
        SPIN_HITS.inc();
        return job;
    }
    let mut queue = shared.lock();
    queue.sleepers += 1;
    let job = loop {
        if let Some(job) = shared.pop(&mut queue) {
            break Some(job);
        }
        if queue.shutdown {
            break None;
        }
        PARKS.inc();
        queue = shared.available.wait(queue).expect("pool queue poisoned");
    };
    queue.sleepers -= 1;
    job
}

#[derive(Default)]
struct ScopeState {
    /// Tasks spawned but not yet finished. Decremented with `Release` by
    /// each finishing task; the owner's `Acquire` load that reads 0 makes
    /// every task's writes visible before `scope` returns.
    pending: AtomicUsize,
    /// Whether the owner sleeps on `done`. The owner sets it under the lock
    /// after re-checking `pending`; the last finishing task reads it under
    /// the lock and notifies only a sleeping owner, so a spinning owner
    /// costs the task no wake syscall.
    sleeping: Mutex<bool>,
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
        self.state.pending.fetch_add(1, Ordering::Relaxed);
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
            if state.pending.fetch_sub(1, Ordering::Release) == 1 {
                // The owner re-checks `pending` under this lock before it
                // sleeps, so this notify cannot fall between its check and
                // its wait.
                if *state.sleeping.lock().expect("scope lock poisoned") {
                    state.done.notify_one();
                }
            }
        });
        // SAFETY: `scope` (and `wait_helping`) block until `pending == 0`,
        // i.e. until this closure has run `f` to completion, before control
        // returns past `'env`'s region — so erasing the lifetime to `'static`
        // never lets the closure outlive its borrows. What the closure does
        // after the decrement touches only the `Arc`-owned `state`.
        let task: Job = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Box<dyn FnOnce() + Send>>(task)
        };
        self.pool.submit(task);
    }

    fn finished(&self) -> bool {
        self.state.pending.load(Ordering::Acquire) == 0
    }

    /// Blocks until every task of this scope has finished, executing queued
    /// pool jobs (of any scope) while waiting. Once the queue is empty it
    /// spins for [`SPIN_WINDOW`], then sleeps on the scope's condvar; it
    /// spins again only after it has run another job.
    fn wait_helping(&self) {
        let shared = &*self.pool.shared;
        let mut spun = false;
        loop {
            if let Some(job) = shared.try_pop() {
                STEALS.inc();
                job();
                spun = false;
                continue;
            }
            if self.finished() {
                return;
            }
            if !spun {
                spun = true;
                if spin_until(|| self.finished() || shared.queued.load(Ordering::Relaxed) > 0) {
                    continue;
                }
            }
            let mut sleeping = self.state.sleeping.lock().expect("scope lock poisoned");
            if self.finished() {
                return;
            }
            // A job may land in the queue while we sleep on this scope's
            // condvar; the timeout bounds how long we could miss it, and the
            // loop re-polls the queue, so nested scopes cannot deadlock.
            *sleeping = true;
            let (mut sleeping, _) = self
                .state
                .done
                .wait_timeout(sleeping, Duration::from_millis(1))
                .expect("scope lock poisoned");
            *sleeping = false;
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
        for workers in [1, 2] {
            let pool = ThreadPool::new(workers);
            let total = AtomicUsize::new(0);
            pool.scope(|outer| {
                for _ in 0..4 {
                    outer.spawn(|| {
                        // Each outer task opens its own scope on the same
                        // pool; with fewer workers than outer tasks this
                        // requires waiting threads to help execute queued
                        // jobs.
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
            assert_eq!(total.load(Ordering::Relaxed), 16, "{workers} worker(s)");
        }
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

    /// Spawns each task about one [`SPIN_WINDOW`] after the worker went
    /// idle — when it stops spinning and parks — sweeping the delay across
    /// the transition, so pushes race the worker's last poll and its
    /// registration as a sleeper. The scope's owner does not help while
    /// its closure waits, so only the worker can run the task: a wake-up
    /// lost in the transition strands it until the deadline.
    #[test]
    fn spawns_racing_the_spin_to_park_transition_are_not_lost() {
        let pool = ThreadPool::new(1);
        let idle_since = Mutex::new(Instant::now());
        for round in 0..1500u32 {
            let since = *idle_since.lock().unwrap();
            let delay =
                SPIN_WINDOW - Duration::from_micros(3) + Duration::from_nanos(50) * (round % 120);
            while since.elapsed() < delay {
                std::hint::spin_loop();
            }
            let ran = AtomicBool::new(false);
            let stranded = pool.scope(|s| {
                s.spawn(|| {
                    ran.store(true, Ordering::SeqCst);
                    *idle_since.lock().unwrap() = Instant::now();
                });
                let deadline = Instant::now() + Duration::from_secs(2);
                while !ran.load(Ordering::SeqCst) {
                    if Instant::now() > deadline {
                        return true;
                    }
                    std::hint::spin_loop();
                }
                false
            });
            assert!(!stranded, "round {round}: a spawn {delay:?} after the worker idled was lost");
        }
    }

    #[test]
    fn drop_joins_spinning_and_parked_workers_promptly() {
        for park in [false, true] {
            let pool = ThreadPool::new(2);
            pool.scope(|s| {
                for _ in 0..4 {
                    s.spawn(|| {});
                }
            });
            if park {
                while pool.shared.lock().sleepers < pool.n_workers() {
                    std::thread::yield_now();
                }
            }
            let start = Instant::now();
            drop(pool);
            assert!(
                start.elapsed() < Duration::from_secs(2),
                "drop took {:?} with {} workers",
                start.elapsed(),
                if park { "parked" } else { "spinning" }
            );
        }
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
