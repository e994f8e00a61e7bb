//! Gradient-boosted decision trees — the LightGBM stand-in.
//!
//! Boosting runs multiclass softmax: each round fits one shallow regression
//! tree per class to the softmax gradient residuals, with Newton leaf values
//! (`sum(residual) / sum(p * (1 - p))`) and shrinkage, which is the same
//! additive-model formulation LightGBM uses. [`SplitMode::Histogram`] opts
//! into LightGBM's histogram engineering too: the dataset is quantized once
//! per fit and every tree of every round searches splits over gradient
//! histograms (see [`crate::histogram`]); GBDT is the only family with a
//! histogram search.
//!
//! The default exact search sorts each numeric column once per fit, in the
//! order of the rows `0..n` that every tree's root holds (the `rank`
//! module's counting sort). Each split then partitions the node's sorted
//! lists along with its rows, as SLIQ does (Mehta et al., EDBT 1996), so no
//! node sorts: each child's lists come out as the stable sort of its own
//! rows would order them, so `left_sum` adds in the same order and fits
//! are bit-identical to sorting at every node.
//!
//! In both modes the partition records the value of the leaf each row
//! lands in, and scores update from those values, as LightGBM's do, rather
//! than by walking each new tree per row. One row-parallel pass per round
//! adds them and writes the next softmax residuals and hessians. Every
//! floating-point add keeps its operand order, so fits are bit-identical at
//! any `FROTE_THREADS`.

use std::ops::Range;

use frote_data::{Binner, Column, Dataset, FeatureMatrix, Value};

use crate::histogram::{HistContext, SplitMode};
use crate::kernels;
use crate::rank::RankTable;
use crate::traits::{argmax, Classifier, TrainAlgorithm, PREDICT_BLOCK};
use crate::tree::{numeric, partition_in_place, SplitTest};

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
    /// How splits are searched: exact (default; columns sorted once per fit
    /// and split down each tree) or the quantized histogram engine.
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

/// Marks a row of a just-partitioned node that went to the left child in
/// [`TreeWorkspace::slot`].
const LEFT: u32 = u32::MAX;

/// The exact search's per-fit inputs, shared read-only by every tree of
/// the fit: each numeric column's rows, sorted once, and where each
/// categorical feature's per-category tallies sit. Both are empty when the
/// root does not search, so no node does.
struct ExactColumns<'a> {
    ds: &'a Dataset,
    /// The numeric features in feature order, each with whether two of its
    /// cells are equal; list `l` below belongs to `numeric[l]`.
    numeric: Vec<(usize, bool)>,
    /// `root[l * n..(l + 1) * n]`: rows `0..n` ascending by list `l`'s
    /// feature, equal values in row order — every root's sorted lists,
    /// since every root holds `0..n` in that order.
    root: Vec<u32>,
    /// The categorical columns in feature order, each with its range of
    /// [`TreeWorkspace::cat_sums`] (one slot per category).
    categorical: Vec<(&'a [u32], Range<usize>)>,
}

impl<'a> ExactColumns<'a> {
    /// Sorts every numeric column of `ds` once and lays out the
    /// categorical tallies, unless `params` make the root a leaf.
    ///
    /// # Panics
    ///
    /// Panics with "finite feature values" if the root searches, `ds` has
    /// two or more rows and a numeric cell is NaN: the inputs on which the
    /// per-node sort panicked at the root.
    fn new(ds: &'a Dataset, params: &GbdtParams) -> Self {
        let n = ds.n_rows();
        let (mut numeric, mut root, mut categorical) = (Vec::new(), Vec::new(), Vec::new());
        if searches(n, 0, params) {
            let ranks = RankTable::new(ds);
            let rows: Vec<usize> = (0..n).collect();
            let mut slots = 0;
            for f in 0..ds.n_features() {
                match ds.column(f) {
                    Column::Numeric(x) => {
                        let sorted = ranks.sort_rows(f, &rows);
                        numeric.push((f, sorted.windows(2).any(|w| x[w[0]] == x[w[1]])));
                        root.extend(sorted.iter().map(|&i| i as u32));
                    }
                    Column::Categorical(x) => {
                        let card = cardinality(ds, f);
                        categorical.push((&x[..], slots..slots + card));
                        slots += card;
                    }
                }
            }
        }
        ExactColumns { ds, numeric, root, categorical }
    }

    /// The variance-reduction split search (numeric `<=` and categorical
    /// one-vs-rest, as in the classification tree) of the node holding
    /// `ws.rows[node]`: the best split, if it beats not splitting. Numeric
    /// features scan the node's sorted lists, so `left_sum` adds the
    /// targets in the order a stable sort of the node's rows yields.
    fn best_split(
        &self,
        ws: &mut TreeWorkspace,
        node: Range<usize>,
        targets: &[f64],
        min_leaf: usize,
    ) -> Option<SplitTest> {
        let n_rows = self.ds.n_rows();
        let rows = &ws.rows[node.clone()];
        let n = rows.len() as f64;
        let total = kernels::gather_sum(targets, rows);
        let (sums, counts) = (&mut ws.cat_sums, &mut ws.cat_counts);
        sums.fill(0.0);
        counts.fill(0);
        // One pass tallies every categorical feature. Each category's slot
        // still adds its rows' targets in node order, and the features'
        // independent add chains overlap.
        for &i in rows {
            let t = targets[i];
            for (x, slots) in &self.categorical {
                let s = slots.start + x[i] as usize;
                sums[s] += t;
                counts[s] += 1;
            }
        }
        let mut best: Option<(f64, SplitTest)> = None;
        let mut list = 0;
        let mut tallies = self.categorical.iter();
        for f in 0..self.ds.n_features() {
            match self.ds.column(f) {
                Column::Numeric(x) => {
                    let sorted = &ws.sorted[list * n_rows..][node.clone()];
                    list += 1;
                    let m = sorted.len();
                    let mut left_sum = 0.0;
                    for b in 1..m {
                        let (lo, hi) = (sorted[b - 1] as usize, sorted[b] as usize);
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
                    let (_, slots) = tallies.next().expect("a tally per categorical feature");
                    let (sums, counts) = (&sums[slots.clone()], &counts[slots.clone()]);
                    for c in 0..slots.len() {
                        if counts[c] < min_leaf || rows.len() - counts[c] < min_leaf {
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
        // Require real improvement over the no-split score.
        let base = total * total / n;
        best.filter(|(s, _)| *s > base + 1e-9).map(|(_, test)| test)
    }

    /// Splits each sorted list of the node holding `ws.rows[node]`, whose
    /// rows were just partitioned at `split`, into its children's lists.
    /// The left child's list is the parent's left rows in list order: the
    /// partition kept the left rows in node order, so equal values already
    /// sit in the left child's node order. The partition permuted the
    /// right rows, so in a column with equal values each run of them is
    /// put back in the right child's node order.
    fn split_lists(&self, ws: &mut TreeWorkspace, node: Range<usize>, split: usize) {
        let n_rows = self.ds.n_rows();
        let TreeWorkspace { rows, sorted, slot, spare, .. } = ws;
        let right_rows = &rows[split..node.end];
        for &i in &rows[node.start..split] {
            slot[i] = LEFT;
        }
        for (at, &i) in right_rows.iter().enumerate() {
            slot[i] = at as u32;
        }
        for (l, &(f, ties)) in self.numeric.iter().enumerate() {
            let list = &mut sorted[l * n_rows..][node.clone()];
            spare.clear();
            let mut left = 0;
            for r in 0..list.len() {
                let i = list[r];
                if slot[i as usize] == LEFT {
                    list[left] = i;
                    left += 1;
                } else {
                    spare.push(i);
                }
            }
            let right = &mut list[left..];
            right.copy_from_slice(spare);
            if ties {
                let x = numeric(self.ds, f);
                let mut start = 0;
                while start < right.len() {
                    let v = x[right[start] as usize];
                    let end =
                        start + right[start..].iter().take_while(|&&i| x[i as usize] == v).count();
                    if end - start > 1 {
                        let run = &mut right[start..end];
                        for i in run.iter_mut() {
                            *i = slot[*i as usize];
                        }
                        run.sort_unstable();
                        for i in run.iter_mut() {
                            *i = right_rows[*i as usize] as u32;
                        }
                    }
                    start = end;
                }
            }
        }
    }
}

/// One class's buffers for growing its trees, reused by every round.
struct TreeWorkspace {
    /// The rows in node order: `0..n` at the root; each node holds a range,
    /// which its split partitions in place.
    rows: Vec<usize>,
    /// Exact search: [`ExactColumns::root`]'s lists, which each split
    /// partitions like `rows`, so a node's lists are the same range of each.
    sorted: Vec<u32>,
    /// Exact search, after a partition: each right row's position in the
    /// right child's node order; [`LEFT`] for left rows.
    slot: Vec<u32>,
    /// Exact search: the right rows of the list being split.
    spare: Vec<u32>,
    /// `leaf[i]`: the value of the leaf that the latest tree put row `i` in.
    leaf: Vec<f64>,
    /// Exact search: per-category target sums and row counts of the node
    /// being searched, in the slots of [`ExactColumns::categorical`].
    cat_sums: Vec<f64>,
    cat_counts: Vec<usize>,
}

impl TreeWorkspace {
    fn new(ds: &Dataset, search: &Search) -> Self {
        let n = ds.n_rows();
        let (sorted, slot, spare, tally) = match search {
            Search::Exact(lists) => {
                let tally = lists.categorical.last().map_or(0, |(_, slots)| slots.end);
                (lists.root.clone(), vec![0; n], Vec::with_capacity(n), tally)
            }
            Search::Histogram(_) => (Vec::new(), Vec::new(), Vec::new(), 0),
        };
        TreeWorkspace {
            rows: Vec::with_capacity(n),
            sorted,
            slot,
            spare,
            leaf: vec![0.0; n],
            cat_sums: vec![0.0; tally],
            cat_counts: vec![0; tally],
        }
    }

    /// Readies the buffers for a new tree: every root holds `0..n`.
    fn reset(&mut self, search: &Search) {
        self.rows.clear();
        self.rows.extend(0..self.leaf.len());
        if let Search::Exact(lists) = search {
            self.sorted.copy_from_slice(&lists.root);
        }
    }
}

/// Whether a node of `len` rows at `depth` searches for a split rather
/// than becoming a leaf outright.
fn searches(len: usize, depth: usize, params: &GbdtParams) -> bool {
    depth < params.max_depth && len >= 2 * params.min_samples_leaf
}

/// How one fit's trees search for splits.
enum Search<'a> {
    /// Exact thresholds, scanned along the fit's sorted columns.
    Exact(ExactColumns<'a>),
    /// Gradient histograms over the fit's bin codes: per-node histograms,
    /// sibling subtraction, raw-value thresholds from the bin edges.
    /// Regression trees never subsample features, so subtraction always
    /// applies. A row's code is `<= b` exactly when its value is `<=` bin
    /// edge `b`, so the partition sends each row where the stored raw-value
    /// test does.
    Histogram(HistContext<'a>),
}

impl Search<'_> {
    /// Fits a regression tree on all rows with per-row `targets`
    /// (residuals) and `hessians` (for Newton leaf values), recording in
    /// `ws.leaf` the value of the leaf each row lands in.
    fn fit_tree(
        &self,
        ws: &mut TreeWorkspace,
        targets: &[f64],
        hessians: &[f64],
        params: &GbdtParams,
    ) -> RegressionTree {
        ws.reset(self);
        let mut tree = RegressionTree { nodes: Vec::new() };
        let root = 0..ws.rows.len();
        match self {
            Search::Exact(exact) => tree.grow(exact, ws, root, targets, hessians, 0, params),
            Search::Histogram(ctx) => {
                tree.grow_hist(ctx, ws, root, targets, hessians, 0, params, None)
            }
        };
        tree
    }
}

impl RegressionTree {
    #[allow(clippy::too_many_arguments)] // `fit_tree`'s inputs plus the node
    fn grow(
        &mut self,
        exact: &ExactColumns,
        ws: &mut TreeWorkspace,
        node: Range<usize>,
        targets: &[f64],
        hessians: &[f64],
        depth: usize,
        params: &GbdtParams,
    ) -> usize {
        if !searches(node.len(), depth, params) {
            return self.push_leaf(ws, node, targets, hessians);
        }
        let Some(test) = exact.best_split(ws, node.clone(), targets, params.min_samples_leaf)
        else {
            return self.push_leaf(ws, node, targets, hessians);
        };
        let mid = partition_in_place(exact.ds, &mut ws.rows[node.clone()], &test);
        if mid == 0 || mid == node.len() {
            return self.push_leaf(ws, node, targets, hessians);
        }
        let split = node.start + mid;
        if searches(mid, depth + 1, params) || searches(node.len() - mid, depth + 1, params) {
            exact.split_lists(ws, node.clone(), split);
        }
        let left = self.grow(exact, ws, node.start..split, targets, hessians, depth + 1, params);
        let right = self.grow(exact, ws, split..node.end, targets, hessians, depth + 1, params);
        self.nodes.push(RegNode::Split { test, left, right });
        self.nodes.len() - 1
    }

    #[allow(clippy::too_many_arguments)] // mirrors `grow` plus the carried histogram
    fn grow_hist(
        &mut self,
        ctx: &HistContext,
        ws: &mut TreeWorkspace,
        node: Range<usize>,
        targets: &[f64],
        hessians: &[f64],
        depth: usize,
        params: &GbdtParams,
        hist: Option<Vec<f64>>,
    ) -> usize {
        if !searches(node.len(), depth, params) {
            return self.push_leaf(ws, node, targets, hessians);
        }
        let indices = &mut ws.rows[node.clone()];
        let hist = hist.unwrap_or_else(|| ctx.reg_hist(targets, indices));
        let total = kernels::gather_sum(targets, indices);
        let best = ctx.find_best_regression_split(
            &hist,
            indices.len() as f64,
            total,
            params.min_samples_leaf,
        );
        let Some(split) = best else {
            return self.push_leaf(ws, node, targets, hessians);
        };
        let mut mid = 0;
        for i in 0..indices.len() {
            if ctx.goes_left(indices[i], split) {
                indices.swap(i, mid);
                mid += 1;
            }
        }
        if mid == 0 || mid == indices.len() {
            return self.push_leaf(ws, node, targets, hessians);
        }
        let test = ctx.to_split_test(split);
        let (li, ri) = indices.split_at(mid);
        // Build the smaller child's histogram directly; derive the larger
        // sibling's by subtraction from the parent's — but only when the
        // children can still split (`depth + 1` below the cap), else they
        // leaf out without reading a histogram.
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
        let split = node.start + mid;
        let left =
            self.grow_hist(ctx, ws, node.start..split, targets, hessians, depth + 1, params, lh);
        let right =
            self.grow_hist(ctx, ws, split..node.end, targets, hessians, depth + 1, params, rh);
        self.nodes.push(RegNode::Split { test, left, right });
        self.nodes.len() - 1
    }

    /// Pushes the Newton leaf of the node holding `ws.rows[node]` and
    /// records its value for each of those rows.
    fn push_leaf(
        &mut self,
        ws: &mut TreeWorkspace,
        node: Range<usize>,
        targets: &[f64],
        hessians: &[f64],
    ) -> usize {
        let rows = &ws.rows[node];
        let value = newton_value(rows, targets, hessians);
        for &i in rows {
            ws.leaf[i] = value;
        }
        self.nodes.push(RegNode::Leaf { value });
        self.nodes.len() - 1
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

/// The number of categories of categorical feature `f`.
fn cardinality(ds: &Dataset, f: usize) -> usize {
    ds.schema().feature(f).kind().cardinality().expect("categorical has cardinality")
}

/// Rows per block of the per-round pass. Rows are independent there, so
/// the block size sets the schedule only, never a result.
const ROW_BLOCK: usize = 256;

/// One block of rows in the per-round pass: the block's rows of the score
/// matrix (width k), and of each class's residual and hessian rows.
struct RowBlock<'a> {
    rows: Range<usize>,
    scores: &'a mut [f64],
    residuals: Vec<&'a mut [f64]>,
    hessians: Vec<&'a mut [f64]>,
}

/// The per-round pass over fixed row blocks, in parallel: adds each row's
/// `learning_rate`-scaled leaf values from the previous round's trees
/// (`previous`, one workspace per class) to its scores, then writes its
/// softmax residuals and hessians for the round's trees.
fn residual_pass(
    labels: &[u32],
    scores: &mut FeatureMatrix,
    residuals: &mut [f64],
    hessians: &mut [f64],
    previous: Option<(&[TreeWorkspace], f64)>,
) {
    let (n, k) = (labels.len(), scores.width());
    let mut blocks: Vec<RowBlock> = scores
        .as_mut_slice()
        .chunks_mut(ROW_BLOCK * k)
        .enumerate()
        .map(|(b, scores)| RowBlock {
            rows: b * ROW_BLOCK..b * ROW_BLOCK + scores.len() / k,
            scores,
            residuals: Vec::with_capacity(k),
            hessians: Vec::with_capacity(k),
        })
        .collect();
    for (residuals, hessians) in residuals.chunks_mut(n).zip(hessians.chunks_mut(n)) {
        let parts = residuals.chunks_mut(ROW_BLOCK).zip(hessians.chunks_mut(ROW_BLOCK));
        for (block, (r, h)) in blocks.iter_mut().zip(parts) {
            block.residuals.push(r);
            block.hessians.push(h);
        }
    }
    frote_par::par_map_mut(&mut blocks, |_, block| {
        if let Some((previous, learning_rate)) = previous {
            for (c, ws) in previous.iter().enumerate() {
                let leaf = &ws.leaf[block.rows.clone()];
                for (s, &v) in block.scores.chunks_exact_mut(k).zip(leaf) {
                    s[c] += learning_rate * v;
                }
            }
        }
        // Every row's softmax first, then one sweep per class that writes
        // its residuals and hessians.
        let mut probs = block.scores.to_vec();
        for p in probs.chunks_exact_mut(k) {
            kernels::softmax_in_place(p);
        }
        let labels = &labels[block.rows.clone()];
        let classes = block.residuals.iter_mut().zip(&mut block.hessians);
        for (c, (residuals, hessians)) in classes.enumerate() {
            for (j, (p, &y)) in probs.chunks_exact(k).zip(labels).enumerate() {
                let p = p[c];
                residuals[j] = f64::from(c == y as usize) - p;
                hessians[j] = (p * (1.0 - p)).max(1e-6);
            }
        }
    });
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
        assert!(!ds.is_empty(), "cannot train on an empty dataset");
        let binned = params.split_mode.max_bins().map(|max_bins| {
            let binner = Binner::fit(ds, max_bins);
            let codes = binner.bin_dataset(ds);
            (binner, codes)
        });
        let search = match &binned {
            Some((binner, codes)) => Search::Histogram(HistContext::new(binner, codes)),
            // Exact fits sort every numeric column once; every tree starts
            // from those lists.
            None => Search::Exact(ExactColumns::new(ds, params)),
        };
        let n = ds.n_rows();
        let k = ds.n_classes();
        // Base score: log prior per class.
        let counts = ds.class_counts();
        let base_score: Vec<f64> =
            counts.iter().map(|&c| (((c as f64) + 1.0) / ((n + k) as f64)).ln()).collect();
        // `scores` is row-per-instance (width k); `residuals`/`hessians`
        // are class-major (n per class) so each regression tree borrows its
        // class's part as a plain slice.
        let mut scores = FeatureMatrix::from_raw(k, base_score.repeat(n));
        let mut residuals = vec![0.0; n * k];
        let mut hessians = vec![0.0; n * k];
        let mut workspaces: Vec<TreeWorkspace> =
            (0..k).map(|_| TreeWorkspace::new(ds, &search)).collect();
        let mut rounds = Vec::with_capacity(params.n_rounds);
        for r in 0..params.n_rounds {
            let previous = (r > 0).then_some((&workspaces[..], params.learning_rate));
            residual_pass(ds.labels(), &mut scores, &mut residuals, &mut hessians, previous);
            // Within a round the per-class trees depend only on the
            // residuals computed above, so they fit in parallel; each
            // records its rows' leaf values for the next round's pass.
            let round_trees = frote_par::par_map_mut(&mut workspaces, |c, ws| {
                let class = c * n..(c + 1) * n;
                search.fit_tree(ws, &residuals[class.clone()], &hessians[class], params)
            });
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
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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

    /// The per-node counting-sort search that the per-fit sorted lists
    /// replaced, kept verbatim (bar returning the score too) as the oracle
    /// for whole-tree fits; [`sorted_best_regression_split`] is its own
    /// oracle.
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
                    let card = cardinality(ds, f);
                    let mut sums = vec![0.0; card];
                    let mut counts = vec![0usize; card];
                    let x = crate::tree::categorical(ds, f);
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

    /// The exact tree as grown before the per-fit sorted lists: each node
    /// sorts its rows afresh through [`best_regression_split`].
    #[allow(clippy::too_many_arguments)]
    fn grow_by_node_sort(
        tree: &mut RegressionTree,
        ds: &Dataset,
        ranks: &RankTable,
        indices: &mut [usize],
        targets: &[f64],
        hessians: &[f64],
        depth: usize,
        params: &GbdtParams,
    ) -> usize {
        let leaf = |tree: &mut RegressionTree, indices: &[usize]| {
            tree.nodes.push(RegNode::Leaf { value: newton_value(indices, targets, hessians) });
            tree.nodes.len() - 1
        };
        if !searches(indices.len(), depth, params) {
            return leaf(tree, indices);
        }
        let Some((_, test)) =
            best_regression_split(ds, ranks, indices, targets, params.min_samples_leaf)
        else {
            return leaf(tree, indices);
        };
        let mid = partition_in_place(ds, indices, &test);
        if mid == 0 || mid == indices.len() {
            return leaf(tree, indices);
        }
        let (li, ri) = indices.split_at_mut(mid);
        let left = grow_by_node_sort(tree, ds, ranks, li, targets, hessians, depth + 1, params);
        let right = grow_by_node_sort(tree, ds, ranks, ri, targets, hessians, depth + 1, params);
        tree.nodes.push(RegNode::Split { test, left, right });
        tree.nodes.len() - 1
    }

    /// Per-row hessians for [`arb_node`]'s targets: positive, and with sums
    /// that depend on the order of addition too.
    fn hessians_of(targets: &[f64]) -> Vec<f64> {
        targets.iter().map(|t| t * t + 0.1).collect()
    }

    /// Fits one exact tree from the per-fit sorted lists, and one by
    /// sorting at every node; returns both and the first's row leaf values.
    fn exact_tree_both_ways(
        ds: &Dataset,
        targets: &[f64],
        params: &GbdtParams,
    ) -> (RegressionTree, RegressionTree, Vec<f64>) {
        let hessians = hessians_of(targets);
        let search = Search::Exact(ExactColumns::new(ds, params));
        let mut ws = TreeWorkspace::new(ds, &search);
        let got = search.fit_tree(&mut ws, targets, &hessians, params);
        let mut want = RegressionTree { nodes: Vec::new() };
        let mut rows: Vec<usize> = (0..ds.n_rows()).collect();
        let ranks = RankTable::new(ds);
        grow_by_node_sort(&mut want, ds, &ranks, &mut rows, targets, &hessians, 0, params);
        (got, want, ws.leaf)
    }

    /// Partitions the node holding `ws.rows[node]` on a random row's value
    /// of a random feature, splits its sorted lists, and recurses `depth`
    /// levels, checking at every node that each list is the node's rows
    /// sorted afresh: ascending by value, equal values in node order.
    fn check_split_lists(
        exact: &ExactColumns,
        ws: &mut TreeWorkspace,
        ranks: &RankTable,
        node: Range<usize>,
        depth: usize,
        rng: &mut StdRng,
    ) {
        let (ds, n) = (exact.ds, exact.ds.n_rows());
        for (l, &(f, _)) in exact.numeric.iter().enumerate() {
            let list: Vec<usize> =
                ws.sorted[l * n..][node.clone()].iter().map(|&i| i as usize).collect();
            assert_eq!(list, ranks.sort_rows(f, &ws.rows[node.clone()]), "feature {f}");
        }
        if depth == 0 || node.len() < 2 {
            return;
        }
        let f = rng.random_range(0..ds.n_features());
        let pivot = ws.rows[node.start + rng.random_range(0..node.len())];
        let test = match ds.column(f) {
            Column::Numeric(x) => SplitTest::NumLe { feature: f, threshold: x[pivot] },
            Column::Categorical(x) => SplitTest::CatEq { feature: f, category: x[pivot] },
        };
        let split = node.start + partition_in_place(ds, &mut ws.rows[node.clone()], &test);
        exact.split_lists(ws, node.clone(), split);
        check_split_lists(exact, ws, ranks, node.start..split, depth - 1, rng);
        check_split_lists(exact, ws, ranks, split..node.end, depth - 1, rng);
    }

    /// Every row's partition-recorded leaf value, bit for bit, against
    /// walking the tree's stored tests.
    fn assert_leaves_match_prediction(tree: &RegressionTree, ds: &Dataset, leaf: &[f64]) {
        for (i, value) in leaf.iter().enumerate() {
            assert_eq!(value.to_bits(), tree.predict_in(ds, i).to_bits(), "row {i}");
        }
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

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// A whole exact tree grown from the per-fit sorted lists matches
        /// the tree grown by sorting at every node, bit for bit (the
        /// `Debug` form prints every threshold and leaf value in shortest
        /// round-trip form), on heavy ties, signed zeros and constant
        /// columns, at depths that split the lists several times; and each
        /// row's recorded leaf value is the one the tree predicts for it.
        #[test]
        fn exact_tree_matches_the_node_sort_oracle(
            node in arb_node(),
            max_depth in 1usize..7,
            min_samples_leaf in 1usize..6,
        ) {
            let params = GbdtParams { max_depth, min_samples_leaf, ..GbdtParams::default() };
            let (got, want, leaf) = exact_tree_both_ways(&node.ds, &node.targets, &params);
            assert_eq!(format!("{got:?}"), format!("{want:?}"));
            assert_leaves_match_prediction(&got, &node.ds, &leaf);
        }

        /// Splitting a node's sorted lists as its rows partition yields each
        /// child's rows sorted afresh, ties in the child's node order, down
        /// random partitions of every kind.
        #[test]
        fn split_lists_match_a_fresh_sort_of_each_child(node in arb_node(), seed in 0u64..1 << 32) {
            let params = GbdtParams { min_samples_leaf: 1, ..GbdtParams::default() };
            let search = Search::Exact(ExactColumns::new(&node.ds, &params));
            let mut ws = TreeWorkspace::new(&node.ds, &search);
            ws.reset(&search);
            let Search::Exact(exact) = &search else { unreachable!() };
            let ranks = RankTable::new(&node.ds);
            let mut rng = StdRng::seed_from_u64(seed);
            check_split_lists(exact, &mut ws, &ranks, 0..node.ds.n_rows(), 4, &mut rng);
        }

        /// Histogram trees record the leaf values that prediction walks to:
        /// a row's code is `<= b` exactly when its value is `<=` edge `b`.
        #[test]
        fn histogram_leaf_values_match_prediction(
            node in arb_node(),
            max_bins in 2usize..70,
            max_depth in 1usize..7,
        ) {
            let params = GbdtParams {
                max_depth,
                min_samples_leaf: 1,
                split_mode: SplitMode::Histogram { max_bins },
                ..GbdtParams::default()
            };
            let binner = Binner::fit(&node.ds, max_bins);
            let codes = binner.bin_dataset(&node.ds);
            let search = Search::Histogram(HistContext::new(&binner, &codes));
            let mut ws = TreeWorkspace::new(&node.ds, &search);
            let hessians = hessians_of(&node.targets);
            let tree = search.fit_tree(&mut ws, &node.targets, &hessians, &params);
            assert_leaves_match_prediction(&tree, &node.ds, &ws.leaf);
        }
    }

    #[test]
    #[should_panic(expected = "finite feature values")]
    fn nan_cell_panics_when_the_root_searches() {
        let schema = Schema::builder("y", vec!["a".into(), "b".into()]).numeric("x").build();
        let mut ds = Dataset::new(schema);
        for (i, x) in [1.0, f64::NAN, 2.0, 3.0].into_iter().enumerate() {
            ds.push_row(&[Value::Num(x)], (i % 2) as u32).unwrap();
        }
        // Four rows and leaves of one row: the root searches.
        Gbdt::fit(&ds, &GbdtParams { min_samples_leaf: 1, ..GbdtParams::default() });
    }

    #[test]
    fn nan_cell_is_never_read_when_the_root_is_a_leaf() {
        let schema = Schema::builder("y", vec!["a".into(), "b".into()]).numeric("x").build();
        let mut ds = Dataset::new(schema);
        ds.push_row(&[Value::Num(f64::NAN)], 0).unwrap();
        ds.push_row(&[Value::Num(1.0)], 1).unwrap();
        // Two rows cannot fill two leaves of five.
        let model = Gbdt::fit(&ds, &GbdtParams { n_rounds: 2, ..GbdtParams::default() });
        assert_eq!(model.n_rounds(), 2);
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
