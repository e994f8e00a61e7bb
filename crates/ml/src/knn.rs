//! Brute-force k-nearest-neighbour search over mixed-type rows.
//!
//! FROTE's generator looks up neighbours *within a rule's base population*
//! (not the whole dataset), so candidate sets are typically small and a
//! linear scan with a bounded max-heap is both simple and fast. The paper's
//! scikit-learn `ball_tree` is an exact search too, so a tree index would
//! change speed, not results; this scan is the workspace's only kNN.
//!
//! A `NaN` cell (the CSV reader accepts one) makes that candidate's distance
//! `NaN`; such candidates rank after every numeric distance instead of
//! panicking the comparison.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use frote_data::{Dataset, Value};

use crate::distance::MixedDistance;

/// One neighbour hit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Row index (into the dataset the query ran over).
    pub index: usize,
    /// Distance to the query.
    pub distance: f64,
}

/// Max-heap entry ordered by distance.
struct HeapItem(Neighbor);

impl PartialEq for HeapItem {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}
impl Eq for HeapItem {}
impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        by_distance(&self.0, &other.0)
    }
}

/// Ascending distance with every `NaN` (of either sign) after every number,
/// ties — `NaN`s included — by ascending index. `partial_cmp` fails only on
/// a `NaN`; it is kept for the numbers because this comparison runs on every
/// heap step, where `total_cmp` measured about 30% slower.
fn by_distance(a: &Neighbor, b: &Neighbor) -> Ordering {
    a.distance
        .partial_cmp(&b.distance)
        .unwrap_or_else(|| a.distance.is_nan().cmp(&b.distance.is_nan()))
        .then_with(|| a.index.cmp(&b.index))
}

/// Candidates per distance block: squared distances for a whole block are
/// computed feature-major by [`MixedDistance::mixed_sq_dist_block`] before
/// any heap bookkeeping. Block boundaries never affect results — every
/// candidate's accumulator folds features in the same order regardless.
const SCAN_BLOCK: usize = 256;

/// Finds the `k` nearest rows to `query` among `candidates` (row indices of
/// `ds`), excluding any candidate equal to `exclude` (pass `usize::MAX` to
/// keep all).
///
/// Results are sorted by ascending distance, ties by ascending index, `NaN`
/// distances last. Returns fewer than `k` when there are fewer candidates.
pub fn k_nearest(
    ds: &Dataset,
    query: &[Value],
    candidates: &[usize],
    k: usize,
    exclude: usize,
    dist: &MixedDistance,
) -> Vec<Neighbor> {
    // Candidate rows are read straight from the columnar store by the block
    // kernel; neither side of the comparison materializes a row.
    scan(candidates, k, exclude, |chunk, out| dist.mixed_sq_dist_block(ds, query, chunk, out))
}

/// Convenience: neighbours of row `i` of `ds` among `candidates`, excluding
/// itself. Fully index-based — no row is ever materialized.
pub fn k_nearest_of_row(
    ds: &Dataset,
    i: usize,
    candidates: &[usize],
    k: usize,
    dist: &MixedDistance,
) -> Vec<Neighbor> {
    scan(candidates, k, i, |chunk, out| dist.mixed_sq_dist_block_rows(ds, i, chunk, out))
}

/// The shared bounded-heap scan: squared distances arrive per block from
/// the mixed-distance kernel, take their square root (so ordering and ties
/// match the historical per-candidate scan bit for bit), and feed the
/// max-heap in candidate order.
fn scan(
    candidates: &[usize],
    k: usize,
    exclude: usize,
    block_sq_dists: impl Fn(&[usize], &mut Vec<f64>),
) -> Vec<Neighbor> {
    if k == 0 {
        return Vec::new();
    }
    let mut heap: BinaryHeap<HeapItem> = BinaryHeap::with_capacity(k + 1);
    let mut sq = Vec::with_capacity(SCAN_BLOCK.min(candidates.len()));
    for chunk in candidates.chunks(SCAN_BLOCK) {
        block_sq_dists(chunk, &mut sq);
        for (&c, &dd) in chunk.iter().zip(&sq) {
            if c == exclude {
                continue;
            }
            heap.push(HeapItem(Neighbor { index: c, distance: dd.sqrt() }));
            if heap.len() > k {
                heap.pop();
            }
        }
    }
    let mut out: Vec<Neighbor> = heap.into_iter().map(|h| h.0).collect();
    out.sort_by(by_distance);
    out
}

/// [`k_nearest_of_row`] for a batch of query rows, scanned in parallel
/// across `frote_par::threads()` threads. Per-row results are identical to
/// serial calls, in `rows` order, at any thread count.
pub fn k_nearest_of_rows(
    ds: &Dataset,
    rows: &[usize],
    candidates: &[usize],
    k: usize,
    dist: &MixedDistance,
) -> Vec<Vec<Neighbor>> {
    frote_par::par_map(rows, |&i| k_nearest_of_row(ds, i, candidates, k, dist))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::MixedMetric;
    use frote_data::{Schema, Value};

    fn line_ds(n: usize) -> Dataset {
        let schema = Schema::builder("y", vec!["a".into(), "b".into()]).numeric("x").build();
        let mut ds = Dataset::new(schema);
        for i in 0..n {
            ds.push_row(&[Value::Num(i as f64)], (i % 2) as u32).unwrap();
        }
        ds
    }

    #[test]
    fn finds_closest_on_a_line() {
        let ds = line_ds(10);
        let dist = MixedDistance::fit(&ds, MixedMetric::SmoteNc);
        let all: Vec<usize> = (0..10).collect();
        let hits = k_nearest_of_row(&ds, 5, &all, 3, &dist);
        let idx: Vec<usize> = hits.iter().map(|h| h.index).collect();
        assert_eq!(idx, vec![4, 6, 3]); // dist 1,1,2 — tie 4/6 broken by index
        assert!(hits[0].distance <= hits[1].distance);
        assert!(hits[1].distance <= hits[2].distance);
    }

    #[test]
    fn respects_candidate_subset() {
        let ds = line_ds(10);
        let dist = MixedDistance::fit(&ds, MixedMetric::SmoteNc);
        let cands = vec![0, 9];
        let hits = k_nearest_of_row(&ds, 5, &cands, 5, &dist);
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].index, 9); // |5-9|=4 < |5-0|=5
    }

    #[test]
    fn excludes_self() {
        let ds = line_ds(5);
        let dist = MixedDistance::fit(&ds, MixedMetric::SmoteNc);
        let all: Vec<usize> = (0..5).collect();
        let hits = k_nearest_of_row(&ds, 2, &all, 10, &dist);
        assert_eq!(hits.len(), 4);
        assert!(hits.iter().all(|h| h.index != 2));
    }

    #[test]
    fn k_zero_and_empty_candidates() {
        let ds = line_ds(5);
        let dist = MixedDistance::fit(&ds, MixedMetric::SmoteNc);
        assert!(k_nearest_of_row(&ds, 0, &[1, 2], 0, &dist).is_empty());
        assert!(k_nearest_of_row(&ds, 0, &[], 3, &dist).is_empty());
    }

    #[test]
    fn batch_rows_match_single_rows() {
        let ds = line_ds(30);
        let dist = MixedDistance::fit(&ds, MixedMetric::SmoteNc);
        let all: Vec<usize> = (0..30).collect();
        let rows: Vec<usize> = vec![0, 7, 15, 29];
        let batch = k_nearest_of_rows(&ds, &rows, &all, 4, &dist);
        assert_eq!(batch.len(), rows.len());
        for (&i, hits) in rows.iter().zip(&batch) {
            assert_eq!(hits, &k_nearest_of_row(&ds, i, &all, 4, &dist));
        }
    }

    #[test]
    fn scan_is_thread_count_invariant() {
        let ds = line_ds(200);
        let dist = MixedDistance::fit(&ds, MixedMetric::SmoteNc);
        // Unsorted candidates with duplicates.
        let cands: Vec<usize> = (0..200).rev().chain(0..50).collect();
        for (query, k) in [(0usize, 5), (100, 7), (199, 200)] {
            let flat = k_nearest_of_row(&ds, query, &cands, k, &dist);
            for threads in [1usize, 2, 4] {
                let hits = frote_par::test_support::with_threads(threads, || {
                    k_nearest_of_row(&ds, query, &cands, k, &dist)
                });
                assert_eq!(hits, flat, "kNN drifted: query={query} k={k} threads={threads}");
            }
        }
    }

    #[test]
    fn nan_cells_rank_last_instead_of_panicking() {
        let mut ds = line_ds(5);
        let dist = MixedDistance::fit(&ds, MixedMetric::SmoteNc);
        ds.push_row(&[Value::Num(f64::NAN)], 0).unwrap();
        let all: Vec<usize> = (0..6).collect();
        // A NaN candidate row sorts after every numeric distance.
        let hits = k_nearest_of_row(&ds, 2, &all, 5, &dist);
        let idx: Vec<usize> = hits.iter().map(|h| h.index).collect();
        assert_eq!(idx, vec![1, 3, 0, 4, 5]);
        assert!(hits[4].distance.is_nan());
        // A NaN query cell makes every distance NaN: all tie, so by index.
        for query in [f64::NAN, -f64::NAN] {
            let hits = k_nearest(&ds, &[Value::Num(query)], &all, 3, usize::MAX, &dist);
            assert_eq!(hits.iter().map(|h| h.index).collect::<Vec<_>>(), vec![0, 1, 2]);
            assert!(hits.iter().all(|h| h.distance.is_nan()));
        }
    }

    #[test]
    fn query_row_not_in_dataset() {
        let ds = line_ds(4);
        let dist = MixedDistance::fit(&ds, MixedMetric::SmoteNc);
        let all: Vec<usize> = (0..4).collect();
        let hits = k_nearest(&ds, &[Value::Num(1.4)], &all, 2, usize::MAX, &dist);
        assert_eq!(hits[0].index, 1);
        assert_eq!(hits[1].index, 2);
    }
}
