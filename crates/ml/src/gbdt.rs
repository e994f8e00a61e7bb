//! Gradient-boosted decision trees — the LightGBM stand-in.
//!
//! Boosting runs multiclass softmax: each round fits one shallow regression
//! tree per class to the softmax gradient residuals, with Newton leaf values
//! (`sum(residual) / sum(p * (1 - p))`) and shrinkage, which is the same
//! additive-model formulation LightGBM uses. [`SplitMode::Histogram`] opts
//! into LightGBM's histogram engineering too: the dataset is quantized once
//! per fit and every tree of every round searches splits over gradient
//! histograms (see [`crate::histogram`]); GBDT is the only family with a
//! histogram search. The default exact search ranks each numeric column
//! once per fit and orders every node's rows by a stable counting sort on
//! those ranks (the `rank` module).

use frote_data::{BinnedCache, BinnedMatrix, Binner, Column, Dataset, FeatureMatrix, Value};

use crate::histogram::{HistContext, SplitMode};
use crate::kernels;
use crate::rank::RankTable;
use crate::traits::{argmax, Classifier, TrainAlgorithm, TrainCache, PREDICT_BLOCK};
use crate::tree::{categorical, partition_in_place, SplitTest};

/// GBDT hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GbdtParams {
    /// Boosting rounds.
    pub n_rounds: usize,
    /// Shrinkage (learning rate).
    pub learning_rate: f64,
    /// Depth of each regression tree.
    pub max_depth: usize,
    /// Minimum rows per leaf.
    pub min_samples_leaf: usize,
    /// How splits are searched: exact (default; per-fit value ranks and a
    /// counting sort per node) or the quantized histogram engine.
    pub split_mode: SplitMode,
}

impl Default for GbdtParams {
    fn default() -> Self {
        GbdtParams {
            n_rounds: 50,
            learning_rate: 0.2,
            max_depth: 3,
            min_samples_leaf: 5,
            // Exact unless the process-wide `--split-mode` override is set.
            split_mode: crate::histogram::default_split_mode(),
        }
    }
}

#[derive(Debug, Clone)]
enum RegNode {
    Leaf { value: f64 },
    Split { test: SplitTest, left: usize, right: usize },
}

/// A regression tree fitted to gradient residuals.
#[derive(Debug, Clone)]
struct RegressionTree {
    nodes: Vec<RegNode>,
}

impl RegressionTree {
    /// Fits on rows `indices` of `ds` with per-row `targets` (residuals) and
    /// `hessians` (for Newton leaf values), both indexed by *dataset row*;
    /// `ranks` is the fit's rank table of `ds`.
    fn fit(
        ds: &Dataset,
        ranks: &RankTable,
        indices: &mut [usize],
        targets: &[f64],
        hessians: &[f64],
        params: &GbdtParams,
    ) -> Self {
        let mut tree = RegressionTree { nodes: Vec::new() };
        tree.grow(ds, ranks, indices, targets, hessians, 0, params);
        tree
    }

    #[allow(clippy::too_many_arguments)] // `fit`'s inputs plus the depth
    fn grow(
        &mut self,
        ds: &Dataset,
        ranks: &RankTable,
        indices: &mut [usize],
        targets: &[f64],
        hessians: &[f64],
        depth: usize,
        params: &GbdtParams,
    ) -> usize {
        if depth >= params.max_depth || indices.len() < 2 * params.min_samples_leaf {
            self.nodes.push(RegNode::Leaf { value: newton_value(indices, targets, hessians) });
            return self.nodes.len() - 1;
        }
        match best_regression_split(ds, ranks, indices, targets, params.min_samples_leaf) {
            None => {
                self.nodes.push(RegNode::Leaf { value: newton_value(indices, targets, hessians) });
                self.nodes.len() - 1
            }
            Some((_, test)) => {
                let mid = partition_in_place(ds, indices, &test);
                if mid == 0 || mid == indices.len() {
                    self.nodes
                        .push(RegNode::Leaf { value: newton_value(indices, targets, hessians) });
                    return self.nodes.len() - 1;
                }
                let (li, ri) = indices.split_at_mut(mid);
                let left = self.grow(ds, ranks, li, targets, hessians, depth + 1, params);
                let right = self.grow(ds, ranks, ri, targets, hessians, depth + 1, params);
                self.nodes.push(RegNode::Split { test, left, right });
                self.nodes.len() - 1
            }
        }
    }

    /// Histogram-mode twin of [`RegressionTree::fit`]: gradient/count
    /// histograms per node, sibling subtraction, raw-value thresholds from
    /// the bin edges. Regression trees never subsample features, so
    /// subtraction always applies.
    fn fit_hist(
        ctx: &HistContext,
        indices: &mut [usize],
        targets: &[f64],
        hessians: &[f64],
        params: &GbdtParams,
    ) -> Self {
        let mut tree = RegressionTree { nodes: Vec::new() };
        tree.grow_hist(ctx, indices, targets, hessians, 0, params, None);
        tree
    }

    #[allow(clippy::too_many_arguments)] // mirrors `grow` plus the carried histogram
    fn grow_hist(
        &mut self,
        ctx: &HistContext,
        indices: &mut [usize],
        targets: &[f64],
        hessians: &[f64],
        depth: usize,
        params: &GbdtParams,
        hist: Option<Vec<f64>>,
    ) -> usize {
        if depth >= params.max_depth || indices.len() < 2 * params.min_samples_leaf {
            self.nodes.push(RegNode::Leaf { value: newton_value(indices, targets, hessians) });
            return self.nodes.len() - 1;
        }
        let hist = hist.unwrap_or_else(|| ctx.reg_hist(targets, indices));
        let total = kernels::gather_sum(targets, indices);
        let best = ctx.find_best_regression_split(
            &hist,
            indices.len() as f64,
            total,
            params.min_samples_leaf,
        );
        match best {
            None => {
                self.nodes.push(RegNode::Leaf { value: newton_value(indices, targets, hessians) });
                self.nodes.len() - 1
            }
            Some(split) => {
                let mut mid = 0;
                for i in 0..indices.len() {
                    if ctx.goes_left(indices[i], split) {
                        indices.swap(i, mid);
                        mid += 1;
                    }
                }
                if mid == 0 || mid == indices.len() {
                    self.nodes
                        .push(RegNode::Leaf { value: newton_value(indices, targets, hessians) });
                    return self.nodes.len() - 1;
                }
                let test = ctx.to_split_test(split);
                let (li, ri) = indices.split_at_mut(mid);
                // Build the smaller child's histogram directly; derive the
                // larger sibling's by subtraction from the parent's — but
                // only when the children can still split (`depth + 1` below
                // the cap), else they leaf out without reading a histogram.
                let (lh, rh) = if depth + 1 < params.max_depth {
                    let mut sibling = hist;
                    if li.len() <= ri.len() {
                        let lh = ctx.reg_hist(targets, li);
                        HistContext::subtract_hist(&mut sibling, &lh);
                        (Some(lh), Some(sibling))
                    } else {
                        let rh = ctx.reg_hist(targets, ri);
                        HistContext::subtract_hist(&mut sibling, &rh);
                        (Some(sibling), Some(rh))
                    }
                } else {
                    (None, None)
                };
                let left = self.grow_hist(ctx, li, targets, hessians, depth + 1, params, lh);
                let right = self.grow_hist(ctx, ri, targets, hessians, depth + 1, params, rh);
                self.nodes.push(RegNode::Split { test, left, right });
                self.nodes.len() - 1
            }
        }
    }

    fn predict(&self, row: &[Value]) -> f64 {
        let mut node = self.nodes.len() - 1;
        loop {
            match &self.nodes[node] {
                RegNode::Leaf { value } => return *value,
                RegNode::Split { test, left, right } => {
                    node = if test.goes_left(row) { *left } else { *right };
                }
            }
        }
    }
}

fn newton_value(indices: &[usize], targets: &[f64], hessians: &[f64]) -> f64 {
    let g = kernels::gather_sum(targets, indices);
    let h = kernels::gather_sum(hessians, indices);
    if h.abs() < 1e-12 {
        0.0
    } else {
        (g / h).clamp(-4.0, 4.0)
    }
}

/// Variance-reduction split search (numeric `<=` and categorical one-vs-rest,
/// as in the classification tree): the best split with its score, if it
/// beats not splitting.
fn best_regression_split(
    ds: &Dataset,
    ranks: &RankTable,
    indices: &[usize],
    targets: &[f64],
    min_leaf: usize,
) -> Option<(f64, SplitTest)> {
    let n = indices.len() as f64;
    let total = kernels::gather_sum(targets, indices);
    let mut best: Option<(f64, SplitTest)> = None;
    for f in 0..ds.n_features() {
        match ds.column(f) {
            Column::Numeric(x) => {
                let sorted = ranks.sort_rows(f, indices);
                let m = sorted.len();
                let mut left_sum = 0.0;
                for b in 1..m {
                    let (lo, hi) = (sorted[b - 1], sorted[b]);
                    left_sum += targets[lo];
                    if x[hi] <= x[lo] || b < min_leaf || m - b < min_leaf {
                        continue;
                    }
                    // Maximizing sum-of-squares gain == minimizing SSE.
                    let right_sum = total - left_sum;
                    let score =
                        left_sum * left_sum / b as f64 + right_sum * right_sum / (n - b as f64);
                    if best.as_ref().is_none_or(|(s, _)| score > *s) {
                        let threshold = 0.5 * (x[lo] + x[hi]);
                        best = Some((score, SplitTest::NumLe { feature: f, threshold }));
                    }
                }
            }
            Column::Categorical(_) => {
                let card = ds
                    .schema()
                    .feature(f)
                    .kind()
                    .cardinality()
                    .expect("categorical has cardinality");
                let mut sums = vec![0.0; card];
                let mut counts = vec![0usize; card];
                let x = categorical(ds, f);
                for &i in indices {
                    let c = x[i] as usize;
                    sums[c] += targets[i];
                    counts[c] += 1;
                }
                for c in 0..card {
                    if counts[c] < min_leaf || indices.len() - counts[c] < min_leaf {
                        continue;
                    }
                    let right_sum = total - sums[c];
                    let score = sums[c] * sums[c] / counts[c] as f64
                        + right_sum * right_sum / (n - counts[c] as f64);
                    if best.as_ref().is_none_or(|(s, _)| score > *s) {
                        best = Some((score, SplitTest::CatEq { feature: f, category: c as u32 }));
                    }
                }
            }
        }
    }
    // Require real improvement over the no-split score.
    let base = total * total / n;
    best.filter(|(s, _)| *s > base + 1e-9)
}

/// A trained gradient-boosted model.
#[derive(Debug, Clone)]
pub struct Gbdt {
    /// `rounds[r][class]` trees.
    rounds: Vec<Vec<RegressionTree>>,
    base_score: Vec<f64>,
    learning_rate: f64,
    n_classes: usize,
}

impl Gbdt {
    /// Fits a boosted model to `ds`. In [`SplitMode::Histogram`] the dataset
    /// is quantized once and every tree of every round shares the codes —
    /// the biggest win of the mode, since boosting fits
    /// `n_rounds × n_classes` trees over one fixed dataset.
    ///
    /// # Panics
    ///
    /// Panics if `ds` is empty.
    pub fn fit(ds: &Dataset, params: &GbdtParams) -> Self {
        match params.split_mode.max_bins() {
            None => Self::fit_impl(ds, params, None),
            Some(max_bins) => {
                let binned = BinnedCache::fit(ds, max_bins);
                Self::fit_impl(ds, params, Some((binned.binner(), binned.codes())))
            }
        }
    }

    /// [`Gbdt::fit`] with the binning reused from a caller-held
    /// [`TrainCache`] (FROTE's retrain loop bins only the appended rows).
    pub fn fit_cached(ds: &Dataset, params: &GbdtParams, cache: &mut TrainCache) -> Self {
        match params.split_mode.max_bins() {
            None => Self::fit_impl(ds, params, None),
            Some(max_bins) => {
                let binned = cache.binned(ds, max_bins);
                Self::fit_impl(ds, params, Some((binned.binner(), binned.codes())))
            }
        }
    }

    fn fit_impl(
        ds: &Dataset,
        params: &GbdtParams,
        binned: Option<(&Binner, &BinnedMatrix)>,
    ) -> Self {
        assert!(!ds.is_empty(), "cannot train on an empty dataset");
        let ctx = binned.map(|(binner, codes)| HistContext::new(binner, codes));
        // Exact fits rank every numeric column once; all the fit's trees
        // share the table.
        let ranks = ctx.is_none().then(|| RankTable::new(ds));
        let n = ds.n_rows();
        let k = ds.n_classes();
        // Base score: log prior per class.
        let counts = ds.class_counts();
        let base_score: Vec<f64> =
            counts.iter().map(|&c| (((c as f64) + 1.0) / ((n + k) as f64)).ln()).collect();
        // One flat matrix per quantity: `scores` is row-per-instance
        // (width k); `residuals`/`hessians` are row-per-class (width n) so
        // each regression tree borrows its class's row as a plain slice.
        let mut scores = FeatureMatrix::from_raw(k, base_score.repeat(n));
        let mut rounds = Vec::with_capacity(params.n_rounds);
        let mut probs = vec![0.0; k];
        let mut residuals = FeatureMatrix::from_raw(n, vec![0.0; n * k]);
        let mut hessians = FeatureMatrix::from_raw(n, vec![0.0; n * k]);
        for _ in 0..params.n_rounds {
            for i in 0..n {
                kernels::softmax_into(scores.row(i), &mut probs);
                let y = ds.label(i) as usize;
                for (c, &p) in probs.iter().enumerate() {
                    residuals.row_mut(c)[i] = f64::from(c == y) - p;
                    hessians.row_mut(c)[i] = (p * (1.0 - p)).max(1e-6);
                }
            }
            // Within a round the per-class trees depend only on the
            // residuals computed above, so they fit in parallel; the score
            // updates are applied afterwards (class columns are disjoint,
            // so the result is identical to the interleaved serial order).
            let classes: Vec<usize> = (0..k).collect();
            let round_trees = frote_par::par_map(&classes, |&c| {
                let mut idx: Vec<usize> = (0..n).collect();
                let (targets, hessians) = (residuals.row(c), hessians.row(c));
                match &ctx {
                    Some(ctx) => RegressionTree::fit_hist(ctx, &mut idx, targets, hessians, params),
                    None => {
                        let ranks = ranks.as_ref().expect("exact fits build a rank table");
                        RegressionTree::fit(ds, ranks, &mut idx, targets, hessians, params)
                    }
                }
            });
            for (c, tree) in round_trees.iter().enumerate() {
                for i in 0..n {
                    scores.row_mut(i)[c] += params.learning_rate * tree.predict_in(ds, i);
                }
            }
            rounds.push(round_trees);
        }
        Gbdt { rounds, base_score, learning_rate: params.learning_rate, n_classes: k }
    }

    /// Number of boosting rounds performed.
    pub fn n_rounds(&self) -> usize {
        self.rounds.len()
    }

    fn raw_scores_into(&self, row: &[Value], out: &mut Vec<f64>) {
        out.clear();
        out.extend_from_slice(&self.base_score);
        for round in &self.rounds {
            for (c, tree) in round.iter().enumerate() {
                out[c] += self.learning_rate * tree.predict(row);
            }
        }
    }

    /// [`Gbdt::raw_scores_into`] for a row already in `ds`, traversed
    /// straight off the columnar store.
    fn raw_scores_in_into(&self, ds: &Dataset, i: usize, out: &mut Vec<f64>) {
        out.clear();
        out.extend_from_slice(&self.base_score);
        for round in &self.rounds {
            for (c, tree) in round.iter().enumerate() {
                out[c] += self.learning_rate * tree.predict_in(ds, i);
            }
        }
    }
}

impl RegressionTree {
    /// Prediction for a row already in `ds` (avoids materializing it).
    fn predict_in(&self, ds: &Dataset, i: usize) -> f64 {
        let mut node = self.nodes.len() - 1;
        loop {
            match &self.nodes[node] {
                RegNode::Leaf { value } => return *value,
                RegNode::Split { test, left, right } => {
                    node = if test.goes_left_in(ds, i) { *left } else { *right };
                }
            }
        }
    }
}

impl Classifier for Gbdt {
    fn n_classes(&self) -> usize {
        self.n_classes
    }

    fn predict_proba_into(&self, row: &[Value], out: &mut Vec<f64>) {
        let mut s = Vec::with_capacity(self.n_classes);
        self.raw_scores_into(row, &mut s);
        out.clear();
        out.resize(self.n_classes, 0.0);
        kernels::softmax_into(&s, out);
    }

    fn predict(&self, row: &[Value]) -> u32 {
        let mut s = Vec::with_capacity(self.n_classes);
        self.raw_scores_into(row, &mut s);
        argmax(&s)
    }

    /// Index-based ensemble traversal in parallel over row blocks — no
    /// `Dataset::row` allocation per row.
    fn predict_dataset(&self, ds: &Dataset) -> Vec<u32> {
        frote_par::par_blocks_map(ds.n_rows(), PREDICT_BLOCK, |_, rows| {
            let mut s = Vec::with_capacity(self.n_classes);
            let mut out = Vec::with_capacity(rows.len());
            for i in rows {
                self.raw_scores_in_into(ds, i, &mut s);
                out.push(argmax(&s));
            }
            out
        })
    }

    fn predict_rows(&self, ds: &Dataset, rows: &[usize]) -> Vec<u32> {
        frote_par::par_chunks_map(rows, PREDICT_BLOCK, |_, chunk| {
            let mut s = Vec::with_capacity(self.n_classes);
            let mut out = Vec::with_capacity(chunk.len());
            for &i in chunk {
                self.raw_scores_in_into(ds, i, &mut s);
                out.push(argmax(&s));
            }
            out
        })
    }
}

/// Trainer wrapper implementing [`TrainAlgorithm`]. The paper's "LGBM".
#[derive(Debug, Clone, Default)]
pub struct GbdtTrainer {
    params: GbdtParams,
}

impl GbdtTrainer {
    /// Creates a trainer with explicit parameters.
    pub fn new(params: GbdtParams) -> Self {
        GbdtTrainer { params }
    }

    /// The parameters.
    pub fn params(&self) -> &GbdtParams {
        &self.params
    }
}

impl TrainAlgorithm for GbdtTrainer {
    fn train(&self, ds: &Dataset) -> Box<dyn Classifier> {
        Box::new(Gbdt::fit(ds, &self.params))
    }

    fn train_cached(&self, ds: &Dataset, cache: &mut TrainCache) -> Box<dyn Classifier> {
        Box::new(Gbdt::fit_cached(ds, &self.params, cache))
    }

    fn name(&self) -> &str {
        "LGBM"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::accuracy;
    use crate::rank::test_support::arb_node;
    use frote_data::synth::{DatasetKind, SynthConfig};
    use frote_data::Schema;

    #[test]
    fn fits_nonlinear_planted_concepts() {
        for kind in [DatasetKind::Car, DatasetKind::Mushroom] {
            let ds = kind.generate(&SynthConfig { n_rows: 600, ..Default::default() });
            let model = GbdtTrainer::default().train(&ds);
            let acc = accuracy(&model.predict_dataset(&ds), ds.labels());
            assert!(acc > 0.8, "{}: accuracy {acc}", kind.name());
        }
    }

    #[test]
    fn fits_numeric_xor() {
        let schema =
            Schema::builder("y", vec!["a".into(), "b".into()]).numeric("x1").numeric("x2").build();
        let mut ds = Dataset::new(schema);
        for i in 0..400 {
            let x = f64::from(i % 2 == 0) * 2.0 - 1.0;
            let y = f64::from((i / 2) % 2 == 0) * 2.0 - 1.0;
            let jitter = (i as f64) * 1e-5;
            let label = u32::from((x > 0.0) != (y > 0.0));
            ds.push_row(&[Value::Num(x + jitter), Value::Num(y - jitter)], label).unwrap();
        }
        let model = Gbdt::fit(&ds, &GbdtParams::default());
        let acc = accuracy(&model.predict_dataset(&ds), ds.labels());
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn proba_normalized() {
        let ds = DatasetKind::Nursery.generate(&SynthConfig { n_rows: 300, ..Default::default() });
        let model = GbdtTrainer::default().train(&ds);
        for i in 0..10 {
            let p = model.predict_proba(&ds.row(i));
            assert_eq!(p.len(), 4);
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            assert!(p.iter().all(|&q| q >= 0.0));
        }
    }

    #[test]
    fn more_rounds_do_not_hurt_train_accuracy() {
        let ds = DatasetKind::Car.generate(&SynthConfig { n_rows: 400, ..Default::default() });
        let small = Gbdt::fit(&ds, &GbdtParams { n_rounds: 3, ..Default::default() });
        let large = Gbdt::fit(&ds, &GbdtParams { n_rounds: 40, ..Default::default() });
        let a_small = accuracy(&small.predict_dataset(&ds), ds.labels());
        let a_large = accuracy(&large.predict_dataset(&ds), ds.labels());
        assert!(a_large + 1e-9 >= a_small, "{a_small} -> {a_large}");
        assert_eq!(large.n_rounds(), 40);
    }

    #[test]
    fn histogram_mode_matches_exact_quality() {
        for kind in [DatasetKind::Car, DatasetKind::WineQuality] {
            let ds = kind.generate(&SynthConfig { n_rows: 500, ..Default::default() });
            let hist_params = GbdtParams {
                n_rounds: 10,
                split_mode: SplitMode::histogram(),
                ..Default::default()
            };
            let exact_params = GbdtParams { n_rounds: 10, ..Default::default() };
            let hist = Gbdt::fit(&ds, &hist_params);
            let exact = Gbdt::fit(&ds, &exact_params);
            let acc_hist = accuracy(&hist.predict_dataset(&ds), ds.labels());
            let acc_exact = accuracy(&exact.predict_dataset(&ds), ds.labels());
            assert!(
                acc_hist + 0.05 >= acc_exact,
                "{}: histogram {acc_hist} vs exact {acc_exact}",
                kind.name()
            );
        }
    }

    #[test]
    fn histogram_mode_cached_matches_fresh() {
        let ds =
            DatasetKind::WineQuality.generate(&SynthConfig { n_rows: 300, ..Default::default() });
        let params =
            GbdtParams { n_rounds: 5, split_mode: SplitMode::histogram(), ..Default::default() };
        let mut cache = crate::traits::TrainCache::new();
        let cached = Gbdt::fit_cached(&ds, &params, &mut cache);
        let fresh = Gbdt::fit(&ds, &params);
        assert_eq!(cached.predict_dataset(&ds), fresh.predict_dataset(&ds));
    }

    /// The per-node comparison-sort search the rank table replaced, kept
    /// verbatim (bar returning the score too) as the oracle for
    /// [`best_regression_split`].
    fn sorted_best_regression_split(
        ds: &Dataset,
        indices: &[usize],
        targets: &[f64],
        min_leaf: usize,
    ) -> Option<(f64, SplitTest)> {
        let n = indices.len() as f64;
        let total = kernels::gather_sum(targets, indices);
        let mut best: Option<(f64, SplitTest)> = None;
        for f in 0..ds.n_features() {
            match ds.column(f) {
                Column::Numeric(_) => {
                    let mut pairs: Vec<(f64, f64)> = indices
                        .iter()
                        .map(|&i| (ds.value(i, f).expect_num(), targets[i]))
                        .collect();
                    pairs.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
                    let mut left_sum = 0.0;
                    for b in 1..pairs.len() {
                        left_sum += pairs[b - 1].1;
                        if pairs[b].0 <= pairs[b - 1].0
                            || b < min_leaf
                            || pairs.len() - b < min_leaf
                        {
                            continue;
                        }
                        let right_sum = total - left_sum;
                        let score =
                            left_sum * left_sum / b as f64 + right_sum * right_sum / (n - b as f64);
                        if best.as_ref().is_none_or(|(s, _)| score > *s) {
                            let threshold = 0.5 * (pairs[b - 1].0 + pairs[b].0);
                            best = Some((score, SplitTest::NumLe { feature: f, threshold }));
                        }
                    }
                }
                Column::Categorical(_) => {
                    let card = ds
                        .schema()
                        .feature(f)
                        .kind()
                        .cardinality()
                        .expect("categorical has cardinality");
                    let mut sums = vec![0.0; card];
                    let mut counts = vec![0usize; card];
                    for &i in indices {
                        let c = ds.value(i, f).expect_cat() as usize;
                        sums[c] += targets[i];
                        counts[c] += 1;
                    }
                    for c in 0..card {
                        if counts[c] < min_leaf || indices.len() - counts[c] < min_leaf {
                            continue;
                        }
                        let right_sum = total - sums[c];
                        let score = sums[c] * sums[c] / counts[c] as f64
                            + right_sum * right_sum / (n - counts[c] as f64);
                        if best.as_ref().is_none_or(|(s, _)| score > *s) {
                            best =
                                Some((score, SplitTest::CatEq { feature: f, category: c as u32 }));
                        }
                    }
                }
            }
        }
        let base = total * total / n;
        best.filter(|(s, _)| *s > base + 1e-9)
    }

    /// A scored split as bits: `SplitTest`'s `PartialEq` has `-0.0 == 0.0`,
    /// and the score's bits pin the order `left_sum` added the targets in.
    fn split_bits(split: Option<(f64, SplitTest)>) -> Option<(u64, usize, u64)> {
        split.map(|(score, test)| match test {
            SplitTest::NumLe { feature, threshold } => {
                (score.to_bits(), feature, threshold.to_bits())
            }
            SplitTest::CatEq { feature, category } => {
                (score.to_bits(), feature, u64::from(category))
            }
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The counting-sort search picks the comparison sort's split, bit
        /// for bit, on ties, signed zeros, constant columns, bootstrap
        /// repeats and partition-permuted node orders, with targets whose
        /// sums depend on the order they are added in.
        #[test]
        fn regression_split_matches_the_sort_oracle(node in arb_node(), min_leaf in 1usize..6) {
            let ranks = RankTable::new(&node.ds);
            let got = best_regression_split(&node.ds, &ranks, &node.rows, &node.targets, min_leaf);
            let want = sorted_best_regression_split(&node.ds, &node.rows, &node.targets, min_leaf);
            assert_eq!(split_bits(got), split_bits(want));
        }
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_train_panics() {
        let schema = Schema::builder("y", vec!["a".into(), "b".into()]).numeric("x").build();
        Gbdt::fit(&Dataset::new(schema), &GbdtParams::default());
    }

    #[test]
    fn name_matches_paper() {
        assert_eq!(GbdtTrainer::default().name(), "LGBM");
    }
}
