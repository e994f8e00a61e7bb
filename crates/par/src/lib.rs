//! # frote-par
//!
//! The deterministic parallel-execution runtime of the FROTE reproduction.
//!
//! The workspace's hot paths — batch kNN, SMOTE-style generation, rule
//! coverage scans, per-tree ensemble fitting, experiment fan-out — are
//! embarrassingly parallel, but the build environment has no `rayon`.
//! This crate provides the std-only substrate:
//!
//! - a scoped [`pool::ThreadPool`] (shared lazily as one global pool),
//! - data-parallel helpers [`par_map`] / [`par_map_mut`] /
//!   [`par_chunks_map`] / [`par_blocks_map`] and the fork-join primitives [`join`] / [`scope`],
//! - [`SeedSplit`], which derives independent per-item RNG streams from one
//!   seed so randomized loops stay bit-identical at any thread count,
//! - a single thread-count resolver [`threads`]:
//!   `FROTE_THREADS` env var → [`set_threads`] override →
//!   `std::thread::available_parallelism()`.
//!
//! ## Scheduling
//!
//! [`par_map`] hands items out dynamically: it starts one task per thread,
//! and each task claims the next unclaimed index until none are left, so
//! items of uneven cost never leave a thread idle behind a static share.
//!
//! Parallelism is applied once, at the outermost call. A helper called from
//! inside a pool task (see [`serial`]) runs its serial path: an experiment
//! that fans its runs out over the pool trains each run's random forest
//! with its trees fitted inline, instead of queueing nested tasks that
//! contend for the same workers and buy no speedup.
//!
//! Inside one FROTE edit there is no outer fan-out, and the parallel calls
//! are fine-grained — one per LR gradient iteration, GBDT round, forest fit
//! and predict — so the pool keeps its threads hot between them:
//!
//! - the caller of a helper runs tasks too, so the global pool starts
//!   `max(hw, threads) − 1` workers (at least one; see [`pool_workers`]);
//! - idle workers and waiting scope owners spin for
//!   [`pool::SPIN_WINDOW`] (0.5 ms, sized from the measured gap between
//!   consecutive parallel calls of an edit) before they park, because a
//!   parked worker took p50 20–50 µs and p99 0.3–6 ms to wake on a 2-vCPU
//!   host. The protocol is described in [`pool`].
//!
//! Neither adds a knob: no environment variable or flag beyond the thread
//! count resolved by [`threads`].
//!
//! ## Determinism contract
//!
//! Every helper in this crate returns results in input order and applies the
//! caller's closure once per item, so for pure closures the output is
//! byte-identical to a serial loop regardless of `FROTE_THREADS`. Randomized
//! closures keep the same guarantee by drawing from a per-item
//! [`SeedSplit::stream`] instead of one shared sequential RNG. When
//! [`threads`] resolves to 1, every helper degrades to a plain serial loop
//! and the pool is never even started. Because the serial path computes the
//! same outputs, running nested helpers inline changes no result either.

#![warn(missing_docs)]

pub mod pool;
mod seed;

pub use pool::{Scope, ThreadPool};
pub use seed::SeedSplit;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

use pool::in_task;

/// Process-wide override set by [`set_threads`] (0 = unset).
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Resolves the thread count used by every parallel helper:
///
/// 1. the `FROTE_THREADS` environment variable (if set to a positive
///    integer),
/// 2. the [`set_threads`] config override (e.g. a `--threads` CLI flag),
/// 3. `std::thread::available_parallelism()`, read once per process.
///
/// A result of 1 means "run serially"; helpers then never touch the pool.
pub fn threads() -> usize {
    if let Ok(v) = std::env::var("FROTE_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    match THREAD_OVERRIDE.load(Ordering::Relaxed) {
        0 => hardware_threads(),
        n => n,
    }
}

/// `std::thread::available_parallelism()`, cached: on Linux each call reads
/// the cgroup CPU quota files, ~24 µs on a 2-vCPU host, and `par_map`
/// resolves [`threads`] twice per call — uncached, about half the time of
/// one LR gradient iteration on the medium Adult slice.
fn hardware_threads() -> usize {
    static HW: OnceLock<usize> = OnceLock::new();
    *HW.get_or_init(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
}

/// Whether the parallel helpers run their serial path when called here:
/// inside a pool task (nested parallelism runs inline), or when [`threads`]
/// resolves to 1. The task check comes first, so nested calls never read
/// the environment.
pub fn serial() -> bool {
    in_task() || threads() <= 1
}

/// Sets the config-level thread override (clamped to at least 1). The
/// `FROTE_THREADS` environment variable still takes precedence, so operators
/// can pin reproduction runs without touching CLI flags.
pub fn set_threads(n: usize) {
    THREAD_OVERRIDE.store(n.max(1), Ordering::Relaxed);
}

/// Clears the [`set_threads`] override (mainly for tests).
pub fn clear_threads_override() {
    THREAD_OVERRIDE.store(0, Ordering::Relaxed);
}

/// The lazily-started global pool shared by all helpers. Sized once, at
/// first parallel use, to one less than the larger of the machine's
/// parallelism and the resolved thread count (capped defensively; at least
/// one worker): the thread that opens a scope runs its tasks too, so the
/// spinning pool plus that caller put no more runnable threads than cores
/// on the machine. Correctness never depends on the worker count, only how
/// many tasks run truly concurrently.
fn global_pool() -> &'static ThreadPool {
    static POOL: OnceLock<ThreadPool> = OnceLock::new();
    POOL.get_or_init(|| ThreadPool::new(hardware_threads().max(threads()).min(64) - 1))
}

/// Number of worker threads in the global pool, starting it if it has not
/// started yet (sized from [`threads`] at that moment).
pub fn pool_workers() -> usize {
    global_pool().n_workers()
}

/// Runs `a` and `b`, potentially in parallel, and returns both results.
/// `a` runs on the calling thread; `b` is offloaded unless [`serial`].
/// Panics in either closure propagate (after both have stopped running).
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    if serial() {
        let ra = a();
        let rb = b();
        return (ra, rb);
    }
    let mut rb: Option<RB> = None;
    let ra = global_pool().scope(|s| {
        s.spawn(|| rb = Some(b()));
        a()
    });
    (ra, rb.expect("joined task completed"))
}

/// Runs `f` with a [`Scope`] on the global pool; see [`ThreadPool::scope`].
/// With [`threads`] == 1 the scope still works — tasks just queue to the
/// single global worker — so callers need no serial special case, though the
/// dedicated helpers below avoid the pool entirely in that regime.
pub fn scope<'env, F, R>(f: F) -> R
where
    F: for<'scope> FnOnce(&'scope Scope<'scope, 'env>) -> R,
{
    global_pool().scope(f)
}

/// Applies `f` to every element, in parallel, returning results in input
/// order — byte-identical to `items.iter().map(f).collect()` for pure `f`.
///
/// Items are claimed one at a time from a shared counter by
/// `min(threads(), items.len())` tasks, so a slow item delays only the task
/// that claimed it. Which task runs an item depends on the schedule, but
/// every output lands in its item's slot, so the result never does.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    if items.len() <= 1 || serial() {
        return items.iter().map(f).collect();
    }
    // The counter only hands out indices; outputs are published through
    // the `parts` mutex and the scope's join, so `Relaxed` suffices.
    let next = AtomicUsize::new(0);
    let parts: Mutex<Vec<Vec<(usize, U)>>> = Mutex::new(Vec::new());
    global_pool().scope(|s| {
        for _ in 0..threads().min(items.len()) {
            s.spawn(|| {
                let mut done = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(item) = items.get(i) else { break };
                    done.push((i, f(item)));
                }
                parts.lock().expect("par_map parts poisoned").push(done);
            });
        }
    });
    let mut slots: Vec<Option<U>> = std::iter::repeat_with(|| None).take(items.len()).collect();
    for (i, out) in parts.into_inner().expect("par_map parts poisoned").into_iter().flatten() {
        slots[i] = Some(out);
    }
    slots.into_iter().map(|out| out.expect("every item claimed once")).collect()
}

/// [`par_map`] over mutable items: applies `f(index, item)` to every
/// element, in parallel, and returns the results in input order. Each item
/// is handed to exactly one call, so for closures that depend only on their
/// index and item, the items and outputs end up byte-identical to a serial
/// loop regardless of `FROTE_THREADS`.
pub fn par_map_mut<T, U, F>(items: &mut [T], f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(usize, &mut T) -> U + Sync,
{
    if items.len() <= 1 || serial() {
        return items.iter_mut().enumerate().map(|(i, item)| f(i, item)).collect();
    }
    // `par_map` lends items out shared; each lock is taken once, by the one
    // call that claimed its index, so it never contends.
    let cells: Vec<(usize, Mutex<&mut T>)> =
        items.iter_mut().enumerate().map(|(i, item)| (i, Mutex::new(item))).collect();
    par_map(&cells, |(i, cell)| f(*i, &mut cell.lock().expect("par_map_mut item poisoned")))
}

/// Splits `items` into fixed-size chunks of `chunk_size`, applies
/// `f(chunk_index, chunk)` to each in parallel, and concatenates the
/// per-chunk outputs in chunk order.
///
/// Chunk boundaries depend only on `chunk_size` — never on the thread
/// count — so closures may key per-chunk behaviour (e.g. a
/// [`SeedSplit::stream`] per chunk) on `chunk_index` and remain
/// thread-count-invariant. Chunks are scheduled by [`par_map`].
///
/// # Panics
///
/// Panics if `chunk_size == 0`.
pub fn par_chunks_map<T, U, F>(items: &[T], chunk_size: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &[T]) -> Vec<U> + Sync,
{
    assert!(chunk_size > 0, "par_chunks_map: chunk_size must be positive");
    if items.len() <= chunk_size || serial() {
        let mut out = Vec::new();
        for (ci, chunk) in items.chunks(chunk_size).enumerate() {
            out.extend(f(ci, chunk));
        }
        return out;
    }
    let chunks: Vec<(usize, &[T])> = items.chunks(chunk_size).enumerate().collect();
    par_map(&chunks, |&(ci, chunk)| f(ci, chunk)).into_iter().flatten().collect()
}

/// The index-range counterpart of [`par_chunks_map`], for scans over
/// `0..n` with no backing slice (columnar datasets): splits the range into
/// fixed `block_size` blocks, applies `f(block_index, range)` to each in
/// parallel, and concatenates the outputs in block order. Block boundaries
/// depend only on `block_size`, so results are thread-count-invariant, and
/// nothing of size `n` is materialized.
///
/// # Panics
///
/// Panics if `block_size == 0`.
pub fn par_blocks_map<U, F>(n: usize, block_size: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize, core::ops::Range<usize>) -> Vec<U> + Sync,
{
    assert!(block_size > 0, "par_blocks_map: block_size must be positive");
    if n <= block_size || serial() {
        let mut out = Vec::new();
        for (bi, start) in (0..n).step_by(block_size).enumerate() {
            out.extend(f(bi, start..(start + block_size).min(n)));
        }
        return out;
    }
    // One descriptor per block (n / block_size entries, never O(n)).
    let blocks: Vec<(usize, usize)> = (0..n).step_by(block_size).enumerate().collect();
    par_map(&blocks, |&(bi, start)| f(bi, start..(start + block_size).min(n)))
        .into_iter()
        .flatten()
        .collect()
}

/// Test support: safely rebinding `FROTE_THREADS` within one process.
///
/// Environment mutation is process-global, so every determinism test that
/// compares thread counts must serialize its rebinding through one shared
/// lock — this module owns that lock for the whole workspace, so suites in
/// the same binary can't race each other.
pub mod test_support {
    use std::sync::Mutex;

    static ENV_LOCK: Mutex<()> = Mutex::new(());

    /// Restores the prior `FROTE_THREADS` binding on drop, so a panicking
    /// closure (a failed assertion) cannot leak the override into later
    /// tests of the same binary.
    struct Restore(Option<String>);

    impl Drop for Restore {
        fn drop(&mut self) {
            match self.0.take() {
                Some(v) => std::env::set_var("FROTE_THREADS", v),
                None => std::env::remove_var("FROTE_THREADS"),
            }
        }
    }

    /// Runs `f` with `FROTE_THREADS` bound to `value` (restored afterwards,
    /// even on panic). Calls serialize on a process-wide lock.
    pub fn with_threads_var<R>(value: &str, f: impl FnOnce() -> R) -> R {
        let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let _restore = Restore(std::env::var("FROTE_THREADS").ok());
        std::env::set_var("FROTE_THREADS", value);
        f()
    }

    /// [`with_threads_var`] for a numeric thread count.
    pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
        with_threads_var(&n.to_string(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with_env_threads<R>(n: &str, f: impl FnOnce() -> R) -> R {
        test_support::with_threads_var(n, f)
    }

    #[test]
    fn threads_resolver_priority() {
        with_env_threads("3", || {
            clear_threads_override();
            assert_eq!(threads(), 3, "env wins");
            set_threads(5);
            assert_eq!(threads(), 3, "env beats override");
        });
        with_env_threads("not-a-number", || {
            set_threads(5);
            assert_eq!(threads(), 5, "invalid env falls through to override");
            clear_threads_override();
            assert!(threads() >= 1, "falls back to available parallelism");
        });
    }

    #[test]
    fn par_map_matches_serial_at_any_thread_count() {
        let items: Vec<u64> = (0..257).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        for t in ["1", "2", "7"] {
            let par = with_env_threads(t, || par_map(&items, |&x| x * x + 1));
            assert_eq!(par, serial, "FROTE_THREADS={t}");
        }
    }

    #[test]
    fn par_map_mut_updates_every_item_once_at_any_thread_count() {
        for t in ["1", "2", "7"] {
            let mut items: Vec<u64> = (0..257).collect();
            let out = with_env_threads(t, || {
                par_map_mut(&mut items, |i, x| {
                    *x = *x * 3 + i as u64;
                    *x + 1
                })
            });
            let want: Vec<u64> = (0..257).map(|x| x * 4).collect();
            assert_eq!(items, want, "FROTE_THREADS={t}");
            assert_eq!(out, want.iter().map(|x| x + 1).collect::<Vec<_>>(), "FROTE_THREADS={t}");
        }
    }

    #[test]
    fn par_chunks_map_matches_serial_and_passes_chunk_index() {
        let items: Vec<u32> = (0..100).collect();
        let serial: Vec<(usize, u32)> = items
            .chunks(7)
            .enumerate()
            .flat_map(|(ci, c)| c.iter().map(move |&x| (ci, x * 2)))
            .collect();
        for t in ["1", "4"] {
            let par = with_env_threads(t, || {
                par_chunks_map(&items, 7, |ci, chunk| chunk.iter().map(|&x| (ci, x * 2)).collect())
            });
            assert_eq!(par, serial, "FROTE_THREADS={t}");
        }
    }

    #[test]
    fn join_returns_both_and_runs_in_either_mode() {
        for t in ["1", "4"] {
            let (a, b) = with_env_threads(t, || join(|| 2 + 2, || "ok".to_string()));
            assert_eq!(a, 4);
            assert_eq!(b, "ok");
        }
    }

    #[test]
    fn empty_and_single_inputs() {
        let empty: Vec<u8> = Vec::new();
        assert!(par_map(&empty, |&x| x).is_empty());
        assert_eq!(par_map(&[9u8], |&x| x + 1), vec![10]);
        assert!(par_chunks_map(&empty, 4, |_, c| c.to_vec()).is_empty());
    }

    #[test]
    #[should_panic(expected = "chunk_size must be positive")]
    fn zero_chunk_size_panics() {
        par_chunks_map(&[1, 2, 3], 0, |_, c| c.to_vec());
    }

    #[test]
    fn par_blocks_map_matches_serial_and_passes_block_index() {
        let serial: Vec<(usize, usize)> = (0..100)
            .step_by(7)
            .enumerate()
            .flat_map(|(bi, s)| (s..(s + 7).min(100)).map(move |i| (bi, i * 3)))
            .collect();
        for t in ["1", "4"] {
            let par = with_env_threads(t, || {
                par_blocks_map(100, 7, |bi, rows| rows.map(|i| (bi, i * 3)).collect())
            });
            assert_eq!(par, serial, "FROTE_THREADS={t}");
        }
        assert!(par_blocks_map(0, 5, |_, r| r.collect::<Vec<_>>()).is_empty());
    }

    #[test]
    #[should_panic(expected = "block_size must be positive")]
    fn zero_block_size_panics() {
        par_blocks_map(3, 0, |_, r| r.collect::<Vec<_>>());
    }

    #[test]
    fn par_map_propagates_panics() {
        let result = std::panic::catch_unwind(|| {
            with_env_threads("4", || {
                par_map(&[1, 2, 3, 4, 5, 6, 7, 8], |&x| {
                    if x == 5 {
                        panic!("item exploded");
                    }
                    x
                })
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn scope_on_global_pool() {
        let mut slots = vec![0usize; 4];
        with_env_threads("4", || {
            scope(|s| {
                for (i, slot) in slots.iter_mut().enumerate() {
                    s.spawn(move || *slot = i + 1);
                }
            });
        });
        assert_eq!(slots, vec![1, 2, 3, 4]);
    }
}
