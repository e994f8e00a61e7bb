//! CART decision trees over mixed-type rows.
//!
//! Numeric features split as `x <= t`; categorical features split one-vs-rest
//! as `x == c`. Split quality is Gini impurity reduction. Trees serve both as
//! the standalone `DecisionTreeTrainer` and as the base learner for
//! [`crate::forest`] (with per-node feature subsampling) and
//! [`crate::gbdt`] (a regression variant lives there).
//!
//! The split search is exact: [`DecisionTree::fit`] ranks each numeric
//! column once per fit and orders every node's rows by a stable counting
//! sort on those ranks (the `rank` module).

use frote_data::{Column, Dataset, FeatureMatrix, Value};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::rank::RankTable;
use crate::traits::{argmax, Classifier, TrainAlgorithm};

/// Maximum number of candidate thresholds evaluated per numeric feature per
/// node; larger value sets are thinned to quantiles (the histogram trick
/// LightGBM popularized).
const MAX_THRESHOLDS: usize = 32;

/// Hyper-parameters shared by single trees and ensembles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeParams {
    /// Maximum tree depth (root = depth 0). The paper trains RF with
    /// `max_depth = 3`.
    pub max_depth: usize,
    /// Minimum rows required to attempt a split.
    pub min_samples_split: usize,
    /// Minimum rows in each child of a split.
    pub min_samples_leaf: usize,
    /// Number of features sampled per node (`None` = all features).
    pub max_features: Option<usize>,
}

impl Default for TreeParams {
    fn default() -> Self {
        TreeParams { max_depth: 8, min_samples_split: 2, min_samples_leaf: 1, max_features: None }
    }
}

/// A split test on one feature.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SplitTest {
    /// Go left when `x[feature] <= threshold`.
    NumLe {
        /// Feature index.
        feature: usize,
        /// Threshold.
        threshold: f64,
    },
    /// Go left when `x[feature] == category`.
    CatEq {
        /// Feature index.
        feature: usize,
        /// Category index.
        category: u32,
    },
}

impl SplitTest {
    /// Whether `row` goes to the left child.
    pub fn goes_left(&self, row: &[Value]) -> bool {
        match *self {
            SplitTest::NumLe { feature, threshold } => row[feature].expect_num() <= threshold,
            SplitTest::CatEq { feature, category } => row[feature].expect_cat() == category,
        }
    }

    pub(crate) fn goes_left_in(&self, ds: &Dataset, i: usize) -> bool {
        match *self {
            SplitTest::NumLe { feature, threshold } => {
                ds.value(i, feature).expect_num() <= threshold
            }
            SplitTest::CatEq { feature, category } => ds.value(i, feature).expect_cat() == category,
        }
    }
}

#[derive(Debug, Clone)]
enum Node {
    Leaf { dist: Vec<f64> },
    Split { test: SplitTest, left: usize, right: usize },
}

impl Node {
    fn split_feature(&self) -> Option<usize> {
        match self {
            Node::Leaf { .. } => None,
            Node::Split { test, .. } => Some(match *test {
                SplitTest::NumLe { feature, .. } | SplitTest::CatEq { feature, .. } => feature,
            }),
        }
    }
}

/// A trained classification tree.
#[derive(Debug, Clone)]
pub struct DecisionTree {
    nodes: Vec<Node>,
    n_classes: usize,
    n_features: usize,
}

impl DecisionTree {
    /// Fits a tree on the rows of `ds` indexed by `indices` (duplicates
    /// allowed — bootstrap samples pass repeats).
    ///
    /// # Panics
    ///
    /// Panics if `indices` is empty.
    pub fn fit(ds: &Dataset, indices: &[usize], params: &TreeParams, rng: &mut StdRng) -> Self {
        Self::fit_ranked(ds, &RankTable::new(ds), indices, params, rng)
    }

    /// [`DecisionTree::fit`] over a caller-built rank table of `ds`, so a
    /// forest ranks its columns once for all its trees.
    pub(crate) fn fit_ranked(
        ds: &Dataset,
        ranks: &RankTable,
        indices: &[usize],
        params: &TreeParams,
        rng: &mut StdRng,
    ) -> Self {
        assert!(!indices.is_empty(), "cannot fit a tree on zero rows");
        let mut tree = DecisionTree {
            nodes: Vec::new(),
            n_classes: ds.n_classes(),
            n_features: ds.n_features(),
        };
        let mut idx = indices.to_vec();
        tree.grow(ds, ranks, &mut idx, 0, params, rng);
        tree
    }

    /// Number of nodes (leaves + splits).
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Split counts per feature — a simple structural importance measure
    /// (how often each feature was chosen to split).
    pub fn feature_split_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.n_features];
        for node in &self.nodes {
            if let Some(f) = node.split_feature() {
                counts[f] += 1;
            }
        }
        counts
    }

    fn grow(
        &mut self,
        ds: &Dataset,
        ranks: &RankTable,
        indices: &mut [usize],
        depth: usize,
        params: &TreeParams,
        rng: &mut StdRng,
    ) -> usize {
        let dist = class_distribution(ds, indices, self.n_classes);
        let pure = dist.iter().filter(|&&p| p > 0.0).count() <= 1;
        if depth >= params.max_depth || indices.len() < params.min_samples_split || pure {
            self.nodes.push(Node::Leaf { dist });
            return self.nodes.len() - 1;
        }
        let features = self.candidate_features(params, rng);
        let best =
            find_best_split(ds, ranks, indices, &features, self.n_classes, params.min_samples_leaf);
        match best {
            None => {
                self.nodes.push(Node::Leaf { dist });
                self.nodes.len() - 1
            }
            Some(test) => {
                // Partition indices in place.
                let mid = partition_in_place(ds, indices, &test);
                if mid == 0 || mid == indices.len() {
                    self.nodes.push(Node::Leaf { dist });
                    return self.nodes.len() - 1;
                }
                let (left_idx, right_idx) = indices.split_at_mut(mid);
                let left = self.grow(ds, ranks, left_idx, depth + 1, params, rng);
                let right = self.grow(ds, ranks, right_idx, depth + 1, params, rng);
                self.nodes.push(Node::Split { test, left, right });
                self.nodes.len() - 1
            }
        }
    }

    fn candidate_features(&self, params: &TreeParams, rng: &mut StdRng) -> Vec<usize> {
        let mut features: Vec<usize> = (0..self.n_features).collect();
        if let Some(m) = params.max_features {
            let m = m.clamp(1, self.n_features);
            features.shuffle(rng);
            features.truncate(m);
        }
        features
    }

    pub(crate) fn leaf_dist(&self, row: &[Value]) -> &[f64] {
        let mut node = self.nodes.len() - 1; // root is pushed last
        loop {
            match &self.nodes[node] {
                Node::Leaf { dist } => return dist,
                Node::Split { test, left, right } => {
                    node = if test.goes_left(row) { *left } else { *right };
                }
            }
        }
    }

    /// Leaf distribution for a row already in `ds`, traversed straight off
    /// the columnar store (no row materialization).
    pub(crate) fn leaf_dist_in(&self, ds: &Dataset, i: usize) -> &[f64] {
        let mut node = self.nodes.len() - 1;
        loop {
            match &self.nodes[node] {
                Node::Leaf { dist } => return dist,
                Node::Split { test, left, right } => {
                    node = if test.goes_left_in(ds, i) { *left } else { *right };
                }
            }
        }
    }
}

impl Classifier for DecisionTree {
    fn n_classes(&self) -> usize {
        self.n_classes
    }

    fn predict_proba_into(&self, row: &[Value], out: &mut Vec<f64>) {
        assert_eq!(row.len(), self.n_features, "row arity mismatch");
        out.clear();
        out.extend_from_slice(self.leaf_dist(row));
    }

    fn predict(&self, row: &[Value]) -> u32 {
        assert_eq!(row.len(), self.n_features, "row arity mismatch");
        argmax(self.leaf_dist(row))
    }

    /// Index-based traversal over the columnar store, in parallel — no
    /// `Dataset::row` allocation per row.
    fn predict_dataset(&self, ds: &Dataset) -> Vec<u32> {
        assert_eq!(ds.n_features(), self.n_features, "row arity mismatch");
        frote_par::par_blocks_map(ds.n_rows(), crate::traits::PREDICT_BLOCK, |_, rows| {
            rows.map(|i| argmax(self.leaf_dist_in(ds, i))).collect()
        })
    }

    fn predict_rows(&self, ds: &Dataset, rows: &[usize]) -> Vec<u32> {
        assert_eq!(ds.n_features(), self.n_features, "row arity mismatch");
        frote_par::par_chunks_map(rows, crate::traits::PREDICT_BLOCK, |_, chunk| {
            chunk.iter().map(|&i| argmax(self.leaf_dist_in(ds, i))).collect()
        })
    }
}

/// Trainer wrapper implementing [`TrainAlgorithm`].
#[derive(Debug, Clone)]
pub struct DecisionTreeTrainer {
    params: TreeParams,
    seed: u64,
}

impl DecisionTreeTrainer {
    /// Creates a trainer with explicit parameters and RNG seed (used only
    /// when `max_features` is set).
    pub fn new(params: TreeParams, seed: u64) -> Self {
        DecisionTreeTrainer { params, seed }
    }

    /// The tree parameters.
    pub fn params(&self) -> &TreeParams {
        &self.params
    }
}

impl Default for DecisionTreeTrainer {
    fn default() -> Self {
        DecisionTreeTrainer { params: TreeParams::default(), seed: 42 }
    }
}

impl TrainAlgorithm for DecisionTreeTrainer {
    fn train(&self, ds: &Dataset) -> Box<dyn Classifier> {
        assert!(!ds.is_empty(), "cannot train on an empty dataset");
        let indices: Vec<usize> = (0..ds.n_rows()).collect();
        let mut rng = StdRng::seed_from_u64(self.seed);
        Box::new(DecisionTree::fit(ds, &indices, &self.params, &mut rng))
    }

    fn name(&self) -> &str {
        "DT"
    }
}

/// Class histogram normalized to probabilities.
pub(crate) fn class_distribution(ds: &Dataset, indices: &[usize], n_classes: usize) -> Vec<f64> {
    let mut counts = vec![0.0; n_classes];
    for &i in indices {
        counts[ds.label(i) as usize] += 1.0;
    }
    let total: f64 = counts.iter().sum();
    if total > 0.0 {
        for c in &mut counts {
            *c /= total;
        }
    }
    counts
}

/// Moves the rows `test` sends left to the front of `indices` and returns
/// how many there are. Lomuto-style: the left rows keep their order, the
/// right rows come out permuted.
pub(crate) fn partition_in_place(ds: &Dataset, indices: &mut [usize], test: &SplitTest) -> usize {
    match *test {
        SplitTest::NumLe { feature, threshold } => {
            let x = numeric(ds, feature);
            partition_by(indices, |i| x[i] <= threshold)
        }
        SplitTest::CatEq { feature, category } => {
            let x = categorical(ds, feature);
            partition_by(indices, |i| x[i] == category)
        }
    }
}

fn partition_by(indices: &mut [usize], goes_left: impl Fn(usize) -> bool) -> usize {
    let mut mid = 0;
    for i in 0..indices.len() {
        if goes_left(indices[i]) {
            indices.swap(i, mid);
            mid += 1;
        }
    }
    mid
}

/// The cells of numeric feature `f`.
pub(crate) fn numeric(ds: &Dataset, f: usize) -> &[f64] {
    ds.column(f).as_numeric().expect("numeric feature")
}

/// The cells of categorical feature `f`.
pub(crate) fn categorical(ds: &Dataset, f: usize) -> &[u32] {
    ds.column(f).as_categorical().expect("categorical feature")
}

/// Gini impurity of a count vector with the given total (0 for empty sets).
fn gini(counts: &[f64], total: f64) -> f64 {
    if total <= 0.0 {
        return 0.0;
    }
    1.0 - counts.iter().map(|&c| (c / total) * (c / total)).sum::<f64>()
}

/// Finds the Gini-optimal split over `features`, or `None` if no split
/// improves impurity while respecting `min_leaf`.
fn find_best_split(
    ds: &Dataset,
    ranks: &RankTable,
    indices: &[usize],
    features: &[usize],
    n_classes: usize,
    min_leaf: usize,
) -> Option<SplitTest> {
    let n = indices.len() as f64;
    let mut parent_counts = vec![0.0; n_classes];
    for &i in indices {
        parent_counts[ds.label(i) as usize] += 1.0;
    }
    let parent_gini = gini(&parent_counts, n);
    let mut best: Option<(f64, SplitTest)> = None;
    for &f in features {
        let candidate = match ds.column(f) {
            Column::Numeric(_) => {
                best_numeric_split(ds, ranks, indices, f, &parent_counts, n_classes, min_leaf)
            }
            Column::Categorical(_) => {
                best_categorical_split(ds, indices, f, &parent_counts, n_classes, min_leaf)
            }
        };
        if let Some((child_gini, test)) = candidate {
            let gain = parent_gini - child_gini;
            if gain > 1e-12 && best.as_ref().is_none_or(|(bg, _)| child_gini < *bg) {
                best = Some((child_gini, test));
            }
        }
    }
    best.map(|(_, t)| t)
}

fn best_numeric_split(
    ds: &Dataset,
    ranks: &RankTable,
    indices: &[usize],
    feature: usize,
    parent_counts: &[f64],
    n_classes: usize,
    min_leaf: usize,
) -> Option<(f64, SplitTest)> {
    let x = numeric(ds, feature);
    let labels = ds.labels();
    let sorted = ranks.sort_rows(feature, indices);
    let n = sorted.len();
    // Candidate cut positions: boundaries between distinct values, thinned to
    // at most MAX_THRESHOLDS quantile positions.
    let mut boundaries: Vec<usize> = (1..n).filter(|&i| x[sorted[i]] > x[sorted[i - 1]]).collect();
    if boundaries.is_empty() {
        return None;
    }
    if boundaries.len() > MAX_THRESHOLDS {
        let step = boundaries.len() as f64 / MAX_THRESHOLDS as f64;
        boundaries = (0..MAX_THRESHOLDS).map(|k| boundaries[(k as f64 * step) as usize]).collect();
        boundaries.dedup();
    }
    let mut left_counts = vec![0.0; n_classes];
    let mut cursor = 0usize;
    let mut best: Option<(f64, SplitTest)> = None;
    for &b in &boundaries {
        while cursor < b {
            left_counts[labels[sorted[cursor]] as usize] += 1.0;
            cursor += 1;
        }
        if b < min_leaf || n - b < min_leaf {
            continue;
        }
        let left_total = b as f64;
        let right_total = (n - b) as f64;
        let right_counts: Vec<f64> =
            parent_counts.iter().zip(&left_counts).map(|(p, l)| p - l).collect();
        let child = (left_total * gini(&left_counts, left_total)
            + right_total * gini(&right_counts, right_total))
            / n as f64;
        if best.as_ref().is_none_or(|(bg, _)| child < *bg) {
            let threshold = 0.5 * (x[sorted[b - 1]] + x[sorted[b]]);
            best = Some((child, SplitTest::NumLe { feature, threshold }));
        }
    }
    best
}

fn best_categorical_split(
    ds: &Dataset,
    indices: &[usize],
    feature: usize,
    parent_counts: &[f64],
    n_classes: usize,
    min_leaf: usize,
) -> Option<(f64, SplitTest)> {
    let cardinality = ds
        .schema()
        .feature(feature)
        .kind()
        .cardinality()
        .expect("categorical column has cardinality");
    // One flat row of per-class counts per category.
    let mut counts = FeatureMatrix::from_raw(n_classes, vec![0.0; n_classes * cardinality]);
    let mut totals = vec![0.0; cardinality];
    let x = categorical(ds, feature);
    let labels = ds.labels();
    for &i in indices {
        let c = x[i] as usize;
        counts.row_mut(c)[labels[i] as usize] += 1.0;
        totals[c] += 1.0;
    }
    let n = indices.len() as f64;
    let mut best: Option<(f64, SplitTest)> = None;
    for (c, &left_total) in totals.iter().enumerate() {
        let right_total = n - left_total;
        if (left_total as usize) < min_leaf || (right_total as usize) < min_leaf {
            continue;
        }
        let right_counts: Vec<f64> =
            parent_counts.iter().zip(counts.row(c)).map(|(p, l)| p - l).collect();
        let child = (left_total * gini(counts.row(c), left_total)
            + right_total * gini(&right_counts, right_total))
            / n;
        if best.as_ref().is_none_or(|(bg, _)| child < *bg) {
            best = Some((child, SplitTest::CatEq { feature, category: c as u32 }));
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rank::test_support::{arb_node, NUMERIC_FEATURES};
    use crate::traits::TrainCache;
    use frote_data::synth::{DatasetKind, SynthConfig};
    use frote_data::{Schema, Value};

    fn xor_ds() -> Dataset {
        // Band concept: class 1 iff 60 <= x1 < 140 — needs two chained
        // numeric splits, learnable greedily at depth 2 (unlike true XOR,
        // whose first greedy split has zero Gini gain by symmetry).
        let schema =
            Schema::builder("y", vec!["a".into(), "b".into()]).numeric("x1").numeric("x2").build();
        let mut ds = Dataset::new(schema);
        for i in 0..200 {
            let x = i as f64;
            let label = u32::from((60.0..140.0).contains(&x));
            ds.push_row(&[Value::Num(x), Value::Num(-x)], label).unwrap();
        }
        ds
    }

    #[test]
    fn learns_band_with_depth_two() {
        let ds = xor_ds();
        let trainer =
            DecisionTreeTrainer::new(TreeParams { max_depth: 2, ..Default::default() }, 0);
        let model = trainer.train(&ds);
        let preds = model.predict_dataset(&ds);
        let acc = crate::metrics::accuracy(&preds, ds.labels());
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn depth_zero_is_majority_vote() {
        let ds = xor_ds();
        let trainer =
            DecisionTreeTrainer::new(TreeParams { max_depth: 0, ..Default::default() }, 0);
        let model = trainer.train(&ds);
        let p = model.predict_proba(&ds.row(0));
        assert_eq!(p.len(), 2);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        // Majority class constant prediction.
        let first = model.predict(&ds.row(0));
        assert!(model.predict_dataset(&ds).iter().all(|&x| x == first));
    }

    #[test]
    fn categorical_splits_learn_planted_rule() {
        let ds = DatasetKind::Car.generate(&SynthConfig { n_rows: 800, ..Default::default() });
        let trainer =
            DecisionTreeTrainer::new(TreeParams { max_depth: 6, ..Default::default() }, 1);
        let model = trainer.train(&ds);
        let acc = crate::metrics::accuracy(&model.predict_dataset(&ds), ds.labels());
        assert!(acc > 0.75, "accuracy {acc}");
    }

    #[test]
    fn pure_node_stops_early() {
        let schema = Schema::builder("y", vec!["a".into(), "b".into()]).numeric("x").build();
        let mut ds = Dataset::new(schema);
        for i in 0..10 {
            ds.push_row(&[Value::Num(i as f64)], 0).unwrap();
        }
        let model = DecisionTreeTrainer::default().train(&ds);
        assert_eq!(model.predict(&[Value::Num(3.0)]), 0);
    }

    #[test]
    fn min_samples_leaf_respected() {
        let ds = xor_ds();
        let params = TreeParams { min_samples_leaf: 80, max_depth: 10, ..Default::default() };
        let mut rng = StdRng::seed_from_u64(0);
        let idx: Vec<usize> = (0..ds.n_rows()).collect();
        let tree = DecisionTree::fit(&ds, &idx, &params, &mut rng);
        // With 200 rows and min leaf 80, at most one split is possible.
        assert!(tree.n_nodes() <= 3, "nodes {}", tree.n_nodes());
    }

    #[test]
    fn feature_subsampling_still_trains() {
        let ds = xor_ds();
        let params = TreeParams { max_features: Some(1), max_depth: 4, ..Default::default() };
        let mut rng = StdRng::seed_from_u64(5);
        let idx: Vec<usize> = (0..ds.n_rows()).collect();
        let tree = DecisionTree::fit(&ds, &idx, &params, &mut rng);
        assert!(tree.n_nodes() >= 1);
    }

    #[test]
    #[should_panic(expected = "zero rows")]
    fn empty_fit_panics() {
        let ds = xor_ds();
        let mut rng = StdRng::seed_from_u64(0);
        DecisionTree::fit(&ds, &[], &TreeParams::default(), &mut rng);
    }

    #[test]
    fn cached_training_matches_uncached_across_appends() {
        let mut ds = xor_ds();
        let trainer = DecisionTreeTrainer::new(TreeParams::default(), 0);
        let mut cache = TrainCache;
        for round in 0..3 {
            let cached = trainer.train_cached(&ds, &mut cache);
            let fresh = trainer.train(&ds);
            assert_eq!(cached.predict_dataset(&ds), fresh.predict_dataset(&ds), "round {round}");
            for i in 0..20 {
                ds.push_row(&[Value::Num((i * 10) as f64), Value::Num(-(i as f64))], i % 2)
                    .unwrap();
            }
        }
    }

    /// The per-node comparison-sort search the rank table replaced, kept
    /// verbatim as the oracle for [`best_numeric_split`].
    fn sorted_best_numeric_split(
        ds: &Dataset,
        indices: &[usize],
        feature: usize,
        parent_counts: &[f64],
        n_classes: usize,
        min_leaf: usize,
    ) -> Option<(f64, SplitTest)> {
        let mut pairs: Vec<(f64, u32)> =
            indices.iter().map(|&i| (ds.value(i, feature).expect_num(), ds.label(i))).collect();
        pairs.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite feature values"));
        let n = pairs.len();
        let mut boundaries: Vec<usize> = (1..n).filter(|&i| pairs[i].0 > pairs[i - 1].0).collect();
        if boundaries.is_empty() {
            return None;
        }
        if boundaries.len() > MAX_THRESHOLDS {
            let step = boundaries.len() as f64 / MAX_THRESHOLDS as f64;
            boundaries =
                (0..MAX_THRESHOLDS).map(|k| boundaries[(k as f64 * step) as usize]).collect();
            boundaries.dedup();
        }
        let mut left_counts = vec![0.0; n_classes];
        let mut cursor = 0usize;
        let mut best: Option<(f64, SplitTest)> = None;
        for &b in &boundaries {
            while cursor < b {
                left_counts[pairs[cursor].1 as usize] += 1.0;
                cursor += 1;
            }
            if b < min_leaf || n - b < min_leaf {
                continue;
            }
            let left_total = b as f64;
            let right_total = (n - b) as f64;
            let right_counts: Vec<f64> =
                parent_counts.iter().zip(&left_counts).map(|(p, l)| p - l).collect();
            let child = (left_total * gini(&left_counts, left_total)
                + right_total * gini(&right_counts, right_total))
                / n as f64;
            if best.as_ref().is_none_or(|(bg, _)| child < *bg) {
                let threshold = 0.5 * (pairs[b - 1].0 + pairs[b].0);
                best = Some((child, SplitTest::NumLe { feature, threshold }));
            }
        }
        best
    }

    /// A numeric split as bits: `SplitTest`'s `PartialEq` has `-0.0 == 0.0`.
    fn split_bits(split: Option<(f64, SplitTest)>) -> Option<(u64, usize, u64)> {
        split.map(|(child, test)| match test {
            SplitTest::NumLe { feature, threshold } => {
                (child.to_bits(), feature, threshold.to_bits())
            }
            SplitTest::CatEq { .. } => panic!("numeric search returned {test:?}"),
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The counting-sort search picks the comparison sort's split, bit
        /// for bit, on ties, signed zeros, constant columns, bootstrap
        /// repeats and partition-permuted node orders.
        #[test]
        fn numeric_split_matches_the_sort_oracle(node in arb_node(), min_leaf in 1usize..6) {
            let (ds, rows) = (&node.ds, &node.rows);
            let ranks = RankTable::new(ds);
            let k = ds.n_classes();
            let mut parent = vec![0.0; k];
            for &i in rows {
                parent[ds.label(i) as usize] += 1.0;
            }
            for f in NUMERIC_FEATURES {
                let got = best_numeric_split(ds, &ranks, rows, f, &parent, k, min_leaf);
                let want = sorted_best_numeric_split(ds, rows, f, &parent, k, min_leaf);
                assert_eq!(split_bits(got), split_bits(want), "feature {f}");
            }
        }
    }

    #[test]
    fn proba_sums_to_one() {
        let ds = DatasetKind::Nursery.generate(&SynthConfig { n_rows: 300, ..Default::default() });
        let model = DecisionTreeTrainer::default().train(&ds);
        for i in 0..20 {
            let p = model.predict_proba(&ds.row(i));
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }
}
