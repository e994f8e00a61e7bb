//! Property tests for the runtime's determinism contract: helper outputs are
//! bit-identical across `FROTE_THREADS ∈ {1, 2, 7}`, including randomized
//! closures driven by per-item [`SeedSplit`] streams.

use frote_par::test_support::with_threads;
use frote_par::{par_chunks_map, par_map, SeedSplit};
use proptest::prelude::*;
use rand::Rng;

const THREAD_COUNTS: [usize; 3] = [1, 2, 7];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Pure closures: par_map output equals the serial map at every thread
    /// count, bit for bit.
    #[test]
    fn par_map_bit_identical_across_thread_counts(
        items in proptest::collection::vec(-1.0e6..1.0e6f64, 0..200),
    ) {
        let f = |&x: &f64| (x.sin() * 1e9).to_bits();
        let reference: Vec<u64> = items.iter().map(f).collect();
        for t in THREAD_COUNTS {
            let got = with_threads(t, || par_map(&items, f));
            prop_assert_eq!(&got, &reference, "FROTE_THREADS={}", t);
        }
    }

    /// Randomized closures: per-item SeedSplit streams make outputs
    /// thread-count-invariant even though every item draws random numbers.
    #[test]
    fn seeded_par_map_bit_identical_across_thread_counts(
        seed in 0u64..u64::MAX,
        n in 0usize..150,
    ) {
        let split = SeedSplit::new(seed);
        let items: Vec<u64> = (0..n as u64).collect();
        let f = |&i: &u64| {
            let mut rng = split.stream(i);
            let a: f64 = rng.random();
            let b: f64 = rng.random_range(-3.0..3.0);
            (a.to_bits(), b.to_bits())
        };
        let reference: Vec<(u64, u64)> = items.iter().map(f).collect();
        for t in THREAD_COUNTS {
            let got = with_threads(t, || par_map(&items, f));
            prop_assert_eq!(&got, &reference, "FROTE_THREADS={}", t);
        }
    }

    /// Fixed-size chunking: chunk boundaries and chunk indices seen by the
    /// closure are independent of the thread count.
    #[test]
    fn par_chunks_map_bit_identical_across_thread_counts(
        seed in 0u64..u64::MAX,
        n in 0usize..300,
        chunk in 1usize..40,
    ) {
        let split = SeedSplit::new(seed);
        let items: Vec<u32> = (0..n as u32).collect();
        let f = |ci: usize, chunk: &[u32]| -> Vec<u64> {
            let mut rng = split.stream(ci as u64);
            chunk.iter().map(|&x| u64::from(x) ^ rng.next_u64()).collect()
        };
        use rand::RngCore;
        let mut reference = Vec::new();
        for (ci, c) in items.chunks(chunk).enumerate() {
            reference.extend(f(ci, c));
        }
        for t in THREAD_COUNTS {
            let got = with_threads(t, || par_chunks_map(&items, chunk, f));
            prop_assert_eq!(&got, &reference, "FROTE_THREADS={}", t);
        }
    }

    /// The index-range variant obeys the same contract: fixed block
    /// boundaries, block-order concatenation, thread-count-invariant.
    #[test]
    fn par_blocks_map_bit_identical_across_thread_counts(
        seed in 0u64..u64::MAX,
        n in 0usize..500,
        block in 1usize..64,
    ) {
        use rand::RngCore;
        let split = SeedSplit::new(seed);
        let f = |bi: usize, rows: std::ops::Range<usize>| -> Vec<u64> {
            let mut rng = split.stream(bi as u64);
            rows.map(|i| i as u64 ^ rng.next_u64()).collect()
        };
        let mut reference = Vec::new();
        for (bi, start) in (0..n).step_by(block).enumerate() {
            reference.extend(f(bi, start..(start + block).min(n)));
        }
        for t in THREAD_COUNTS {
            let got = with_threads(t, || frote_par::par_blocks_map(n, block, f));
            prop_assert_eq!(&got, &reference, "FROTE_THREADS={}", t);
        }
    }
}

#[test]
fn join_results_match_serial_execution() {
    let compute = || {
        frote_par::join(
            || (0..1000u64).map(|i| i.wrapping_mul(i)).sum::<u64>(),
            || (0..1000u64).map(|i| i.rotate_left(7)).fold(0, u64::wrapping_add),
        )
    };
    let reference = with_threads(1, compute);
    for t in [2, 7] {
        assert_eq!(with_threads(t, compute), reference, "FROTE_THREADS={t}");
    }
}

/// Items of very uneven cost: with dynamic claiming, which thread runs
/// which item depends on the timing, but every output must still land in
/// its item's slot.
#[test]
fn par_map_with_uneven_item_costs_keeps_input_order() {
    let items: Vec<u64> = (0..24).collect();
    let f = |&i: &u64| {
        std::thread::sleep(std::time::Duration::from_millis(i * 7 % 5));
        i * i + 3
    };
    let reference: Vec<u64> = items.iter().map(f).collect();
    for t in [2, 4, 7] {
        assert_eq!(with_threads(t, || par_map(&items, f)), reference, "FROTE_THREADS={t}");
    }
}
