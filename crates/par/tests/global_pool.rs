//! The global pool's size. A binary of its own, so this test is the first
//! to start the process-wide pool and fixes the thread count it is sized
//! from.

use frote_par::test_support::with_threads;

#[test]
fn global_pool_leaves_one_thread_to_the_caller() {
    let hw = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let threads = 3;
    let workers = with_threads(threads, || {
        // The pool starts at its first parallel use, sized from `threads()`.
        assert_eq!(frote_par::par_map(&[1, 2, 3, 4], |&x| x * 2), vec![2, 4, 6, 8]);
        frote_par::pool_workers()
    });
    assert_eq!(workers, hw.max(threads) - 1, "max(hw = {hw}, threads = {threads}) - 1");
}
