//! Per-fit value ranks: the sort keys of the exact split search.
//!
//! The exact split search ([`crate::tree`], [`crate::gbdt`]) scans a node's
//! rows in ascending order of one numeric feature, rows with equal values in
//! the node's current order: the sequence a stable `sort_by(partial_cmp)`
//! yields. Rather than sorting `f64`s, a fit ranks each numeric column once
//! ([`RankTable::new`]; cells equal under `partial_cmp` share a dense `u32`
//! rank, so `-0.0` ties `0.0`) and orders rows by rank with a stable LSD
//! counting sort ([`RankTable::sort_rows`]), one 8-bit digit of the rank
//! per pass. Stability makes the result that same sequence, ties included,
//! so anything accumulated along it (GBDT's `left_sum`) is bit-identical to
//! the comparison sort's, at `O(passes · (rows + 256))` with no
//! comparisons.
//!
//! Random-forest and decision-tree nodes sort their rows this way at every
//! node, since a bootstrap root repeats rows. A GBDT fit sorts each column
//! once, for the root that every one of its trees shares, and splits those
//! lists down each tree instead.

use frote_data::{Column, Dataset};

/// Rank bits consumed per counting-sort pass.
const DIGIT_BITS: u32 = 8;

/// Counting-sort buckets per pass.
const BUCKETS: usize = 1 << DIGIT_BITS;

/// Dense value ranks of one numeric column.
#[derive(Debug)]
struct ColumnRanks {
    /// `ranks[row]`: the number of distinct smaller values in the column.
    /// NaN cells hold `nan_rank`.
    ranks: Vec<u32>,
    /// One past the largest rank of a non-NaN cell.
    nan_rank: u32,
    /// Whether any cell is NaN.
    has_nan: bool,
}

impl ColumnRanks {
    fn new(x: &[f64]) -> Self {
        let mut order: Vec<u32> =
            (0..x.len() as u32).filter(|&i| !x[i as usize].is_nan()).collect();
        order.sort_unstable_by(|&a, &b| x[a as usize].total_cmp(&x[b as usize]));
        let has_nan = order.len() < x.len();
        let mut ranks = vec![0; x.len()];
        let mut rank = 0u32;
        for (k, &i) in order.iter().enumerate() {
            // `total_cmp` orders -0.0 just before 0.0; `>` ties them.
            if k > 0 && x[i as usize] > x[order[k - 1] as usize] {
                rank += 1;
            }
            ranks[i as usize] = rank;
        }
        let nan_rank = if order.is_empty() { 0 } else { rank + 1 };
        if has_nan {
            for (r, v) in ranks.iter_mut().zip(x) {
                if v.is_nan() {
                    *r = nan_rank;
                }
            }
        }
        ColumnRanks { ranks, nan_rank, has_nan }
    }
}

/// Dense ranks of every numeric column of a dataset, built once per fit and
/// shared read-only by every tree the fit grows.
#[derive(Debug)]
pub(crate) struct RankTable {
    /// Per feature; `None` for categorical columns.
    columns: Vec<Option<ColumnRanks>>,
}

impl RankTable {
    /// Ranks every numeric column of `ds`.
    ///
    /// # Panics
    ///
    /// Panics if `ds` has more than `u32::MAX` rows.
    pub(crate) fn new(ds: &Dataset) -> Self {
        assert!(u32::try_from(ds.n_rows()).is_ok(), "rank table rows fit in u32");
        let columns = (0..ds.n_features())
            .map(|f| match ds.column(f) {
                Column::Numeric(x) => Some(ColumnRanks::new(x)),
                Column::Categorical(_) => None,
            })
            .collect();
        RankTable { columns }
    }

    /// `rows` in ascending order of `feature`'s value; rows with equal
    /// values (and repeated rows, as bootstrap samples pass) keep their
    /// order in `rows`.
    ///
    /// # Panics
    ///
    /// Panics if `feature` is categorical, or if two or more rows are
    /// given and one of them is NaN in `feature` (such a node has no
    /// order, as it had none under `partial_cmp`).
    pub(crate) fn sort_rows(&self, feature: usize, rows: &[usize]) -> Vec<usize> {
        let col = self.columns[feature].as_ref().expect("rank table covers numeric features");
        let ranks = &col.ranks;
        if rows.len() < 2 {
            return rows.to_vec();
        }
        assert!(
            !col.has_nan || rows.iter().all(|&i| ranks[i] != col.nan_rank),
            "finite feature values"
        );
        // Each row travels under its rank as `rank << 32 | row`, so the
        // passes read their input sequentially.
        let mut keys: Vec<u64> =
            rows.iter().map(|&i| (u64::from(ranks[i]) << 32) | i as u64).collect();
        let mut spare = vec![0; rows.len()];
        let max_key = u64::from(col.nan_rank.saturating_sub(1)) << 32;
        let mut shift = 32;
        loop {
            let digit = |k: u64| ((k >> shift) as usize) & (BUCKETS - 1);
            let mut starts = [0usize; BUCKETS + 1];
            for &k in &keys {
                starts[digit(k) + 1] += 1;
            }
            for d in 0..BUCKETS {
                starts[d + 1] += starts[d];
            }
            for &k in &keys {
                let d = digit(k);
                spare[starts[d]] = k;
                starts[d] += 1;
            }
            std::mem::swap(&mut keys, &mut spare);
            shift += DIGIT_BITS;
            if shift == u64::BITS || max_key >> shift == 0 {
                return keys.iter().map(|&k| k as u32 as usize).collect();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use frote_data::{Schema, Value};

    fn numeric_ds(xs: &[f64]) -> Dataset {
        let schema = Schema::builder("y", vec!["a".into(), "b".into()]).numeric("x").build();
        let mut ds = Dataset::new(schema);
        for &x in xs {
            ds.push_row(&[Value::Num(x)], 0).unwrap();
        }
        ds
    }

    /// The order the exact search used to build at every node.
    fn stable_sorted(xs: &[f64], rows: &[usize]) -> Vec<usize> {
        let mut sorted = rows.to_vec();
        sorted.sort_by(|&a, &b| xs[a].partial_cmp(&xs[b]).unwrap());
        sorted
    }

    #[test]
    fn equal_values_share_a_dense_rank() {
        let xs = [3.0, -0.0, 7.5, 0.0, 3.0, -1.0, f64::INFINITY, f64::NEG_INFINITY];
        let table = RankTable::new(&numeric_ds(&xs));
        let col = table.columns[0].as_ref().unwrap();
        assert_eq!(col.ranks, vec![3, 2, 4, 2, 3, 1, 5, 0]);
        assert_eq!(col.nan_rank, 6);
        assert!(!col.has_nan);
    }

    #[test]
    fn counting_sort_matches_the_stable_comparison_sort() {
        // 700 distinct values need two digit passes; the repeats, the
        // signed zeros and the permuted, duplicated row list exercise
        // stability.
        let xs: Vec<f64> = (0..1500)
            .map(|i| match i % 7 {
                0 => -0.0,
                1 => 0.0,
                _ => ((i * 7919) % 700) as f64 - 350.0,
            })
            .collect();
        let table = RankTable::new(&numeric_ds(&xs));
        let rows: Vec<usize> = (0..3000).map(|k| (k * 613) % xs.len()).collect();
        assert_eq!(table.sort_rows(0, &rows), stable_sorted(&xs, &rows));
        assert_eq!(table.sort_rows(0, &rows[..1]), rows[..1].to_vec());
        assert!(table.sort_rows(0, &[]).is_empty());
    }

    #[test]
    fn nan_cells_rank_last_and_sort_only_alone() {
        let xs = [2.0, f64::NAN, 1.0];
        let table = RankTable::new(&numeric_ds(&xs));
        let col = table.columns[0].as_ref().unwrap();
        assert_eq!(col.ranks, vec![1, 2, 0]);
        assert!(col.has_nan);
        assert_eq!(table.sort_rows(0, &[1]), vec![1]);
        assert_eq!(table.sort_rows(0, &[0, 2]), vec![2, 0]);
    }

    #[test]
    #[should_panic(expected = "finite feature values")]
    fn nan_cell_in_a_multi_row_node_panics() {
        let table = RankTable::new(&numeric_ds(&[2.0, f64::NAN, 1.0]));
        table.sort_rows(0, &[0, 1]);
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    //! Adversarial exact-search nodes for the oracle properties in `tree`
    //! and `gbdt`.

    use frote_data::{Dataset, Schema, Value};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use crate::tree::{numeric, partition_in_place, SplitTest};

    /// The numeric features of [`arb_node`]'s dataset: heavy ties over five
    /// values including both signed zeros, a constant column, up to 400
    /// distinct values (past the classification search's threshold
    /// thinning, and often across two counting-sort digits), and signed zeros
    /// around ±1. Feature 4 is categorical.
    pub(crate) const NUMERIC_FEATURES: [usize; 4] = [0, 1, 2, 3];

    const TIES: [f64; 5] = [-0.0, 0.0, 1.0, -2.5, 3.0];
    const ZEROS: [f64; 4] = [-0.0, 0.0, -1.0, 1.0];
    /// Residual-like targets whose sums depend on the order of addition.
    const TARGETS: [f64; 6] = [0.1, 0.7, -0.3, 1.0 / 3.0, -2.0 / 7.0, 1e-3];

    /// One exact-search node: its dataset, its rows in node order, and
    /// per-dataset-row regression targets.
    pub(crate) struct Node {
        pub(crate) ds: Dataset,
        pub(crate) rows: Vec<usize>,
        pub(crate) targets: Vec<f64>,
    }

    prop_compose! {
        /// A node whose rows come in one of four orders: ascending, a
        /// bootstrap sample (repeated rows), a shuffle, or the right child
        /// of a partition (which the Lomuto partition leaves permuted). In
        /// two cases of three one numeric feature is in focus: every other
        /// column is constant, so that feature alone sets the split and
        /// its score.
        pub(crate) fn arb_node()(
            cells in proptest::collection::vec(
                (0usize..5, 0u32..1000, 0usize..4, 0u32..4, 0u32..3, 0usize..6),
                2..400,
            ),
            order in 0u8..4,
            focus in 0usize..6,
            seed in 0u64..1 << 32,
        ) -> Node {
            let cells: Vec<(usize, u32, usize, u32, u32, usize)> = cells;
            let schema = Schema::builder("y", vec!["a".into(), "b".into(), "c".into()])
                .numeric("ties")
                .numeric("constant")
                .numeric("wide")
                .numeric("zeros")
                .categorical("k", vec!["p".into(), "q".into(), "r".into(), "s".into()])
                .build();
            let mut ds = Dataset::new(schema);
            let mut targets = Vec::with_capacity(cells.len());
            let all = focus >= NUMERIC_FEATURES.len();
            let cell = |f: usize, x: f64| Value::Num(if all || focus == f { x } else { 7.0 });
            for &(t, w, z, k, y, g) in &cells {
                let row = [
                    cell(0, TIES[t]),
                    Value::Num(7.0),
                    cell(2, f64::from(w) * 0.37 - 50.0),
                    cell(3, ZEROS[z]),
                    Value::Cat(if all { k } else { 0 }),
                ];
                ds.push_row(&row, y).unwrap();
                targets.push(TARGETS[g]);
            }
            let n = ds.n_rows();
            let mut rng = StdRng::seed_from_u64(seed);
            let rows = match order {
                0 => (0..n).collect(),
                1 => ds.bootstrap_indices(n, &mut rng),
                2 => ds.shuffled_indices(&mut rng),
                _ => {
                    let mut rows: Vec<usize> = (0..n).collect();
                    let pivot = numeric(&ds, 2)[rng.random_range(0..n)];
                    let test = SplitTest::NumLe { feature: 2, threshold: pivot };
                    let mid = partition_in_place(&ds, &mut rows, &test);
                    let right = rows.split_off(mid);
                    if right.is_empty() { rows } else { right }
                }
            };
            Node { ds, rows, targets }
        }
    }
}
