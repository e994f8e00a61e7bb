//! Loom-free stress tests for the pool: many small scopes in tight
//! succession, panic propagation under load, clean shutdown, and the
//! invariant that makes `Scope::spawn`'s lifetime erasure sound.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use frote_par::ThreadPool;

#[test]
fn many_small_scopes_complete_and_stay_ordered() {
    let pool = ThreadPool::new(4);
    for round in 0..500 {
        let mut slots = vec![0usize; 5];
        pool.scope(|s| {
            for (i, slot) in slots.iter_mut().enumerate() {
                s.spawn(move || *slot = round + i);
            }
        });
        let expect: Vec<usize> = (0..5).map(|i| round + i).collect();
        assert_eq!(slots, expect, "round {round}");
    }
}

#[test]
fn interleaved_scopes_from_many_threads() {
    let pool = Arc::new(ThreadPool::new(3));
    let total = Arc::new(AtomicUsize::new(0));
    let handles: Vec<_> = (0..6)
        .map(|_| {
            let pool = Arc::clone(&pool);
            let total = Arc::clone(&total);
            std::thread::spawn(move || {
                for _ in 0..100 {
                    pool.scope(|s| {
                        for _ in 0..3 {
                            let total = Arc::clone(&total);
                            s.spawn(move || {
                                total.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    });
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("driver thread");
    }
    assert_eq!(total.load(Ordering::Relaxed), 6 * 100 * 3);
}

#[test]
fn panics_propagate_without_poisoning_the_pool() {
    let pool = ThreadPool::new(2);
    let survivors = AtomicUsize::new(0);
    for round in 0..50 {
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                s.spawn(|| panic!("round {round} bomb"));
                s.spawn(|| {
                    survivors.fetch_add(1, Ordering::Relaxed);
                });
            });
        }));
        assert!(result.is_err(), "round {round}: panic must propagate");
    }
    // Every non-panicking sibling still ran, and the pool still works.
    assert_eq!(survivors.load(Ordering::Relaxed), 50);
    assert_eq!(pool.scope(|_| 42), 42);
}

#[test]
fn shutdown_with_queued_work_drains_before_join() {
    // Drop the pool immediately after a scope that queued plenty of work;
    // scope waits for its tasks, so drop only has to join idle workers.
    for _ in 0..20 {
        let pool = ThreadPool::new(2);
        let hits = AtomicUsize::new(0);
        pool.scope(|s| {
            for _ in 0..64 {
                s.spawn(|| {
                    hits.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(hits.load(Ordering::Relaxed), 64);
        drop(pool); // must not hang or leak workers
    }
}

#[test]
fn deep_nesting_does_not_deadlock() {
    let pool = ThreadPool::new(2);
    fn nest(pool: &ThreadPool, depth: usize, counter: &AtomicUsize) {
        if depth == 0 {
            counter.fetch_add(1, Ordering::Relaxed);
            return;
        }
        pool.scope(|s| {
            for _ in 0..2 {
                s.spawn(move || nest(pool, depth - 1, counter));
            }
        });
    }
    let counter = AtomicUsize::new(0);
    nest(&pool, 5, &counter);
    assert_eq!(counter.load(Ordering::Relaxed), 32);
}

/// `Scope::spawn` erases its tasks' lifetimes, which is sound only if
/// `scope` returns after every task has finished — also when a sibling
/// panicked. Here each task borrows a stack slot and writes it only after
/// the scope body has returned and a nested scope of its own has finished,
/// i.e. while `scope` is waiting. A scope that returned early (for example
/// on the sibling's panic) would leave a task running and its write
/// missing, or landing on a dead stack frame.
#[test]
fn scope_outlives_late_borrowing_writes_despite_a_panicking_sibling() {
    let pool = ThreadPool::new(3);
    for round in 0..100 {
        let running = AtomicUsize::new(0);
        let body_returned = AtomicBool::new(false);
        let mut slots = vec![0usize; 6];
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                s.spawn(|| panic!("round {round} sibling"));
                for (i, slot) in slots.iter_mut().enumerate() {
                    let (running, body_returned, pool) = (&running, &body_returned, &pool);
                    s.spawn(move || {
                        running.fetch_add(1, Ordering::SeqCst);
                        while !body_returned.load(Ordering::SeqCst) {
                            std::thread::yield_now();
                        }
                        let inner = AtomicUsize::new(0);
                        pool.scope(|s| {
                            for _ in 0..2 {
                                s.spawn(|| {
                                    inner.fetch_add(1, Ordering::SeqCst);
                                });
                            }
                        });
                        *slot = round * 100 + i + inner.load(Ordering::SeqCst);
                        running.fetch_sub(1, Ordering::SeqCst);
                    });
                }
                body_returned.store(true, Ordering::SeqCst);
            });
        }));
        assert!(result.is_err(), "round {round}: the sibling's panic must propagate");
        assert_eq!(running.load(Ordering::SeqCst), 0, "round {round}: a task outlived its scope");
        let expect: Vec<usize> = (0..6).map(|i| round * 100 + i + 2).collect();
        assert_eq!(slots, expect, "round {round}: a late write is missing");
    }
}
