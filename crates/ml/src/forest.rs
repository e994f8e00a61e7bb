//! Random forests: bagged CART trees with feature subsampling.
//!
//! Stand-in for scikit-learn's `RandomForestClassifier`; the paper trains it
//! with default settings except `max_depth = 3`, which
//! [`RandomForestTrainer::default`] mirrors (100 trees, sqrt-features).

use frote_data::{BinnedCache, BinnedMatrix, Binner, Dataset, Value};
use frote_par::SeedSplit;

#[allow(unused_imports)] // doc links
use crate::histogram::SplitMode;
use crate::rank::RankTable;
use crate::traits::{Classifier, TrainAlgorithm, TrainCache};
use crate::tree::{DecisionTree, TreeParams};

/// Random forest hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ForestParams {
    /// Number of trees.
    pub n_trees: usize,
    /// Per-tree parameters. `max_features = None` here means "sqrt of the
    /// feature count", resolved at train time (scikit-learn's default).
    pub tree: TreeParams,
}

impl Default for ForestParams {
    fn default() -> Self {
        ForestParams { n_trees: 100, tree: TreeParams { max_depth: 3, ..Default::default() } }
    }
}

/// A trained random forest.
#[derive(Debug, Clone)]
pub struct RandomForest {
    trees: Vec<DecisionTree>,
    n_classes: usize,
}

impl RandomForest {
    /// Fits a forest on `ds`. The exact search ranks the numeric columns
    /// once and every tree sorts its nodes by the shared ranks; in
    /// [`SplitMode::Histogram`] the dataset is quantized once and every
    /// tree trains over the shared codes.
    ///
    /// # Panics
    ///
    /// Panics if `ds` is empty or `params.n_trees == 0`.
    pub fn fit(ds: &Dataset, params: &ForestParams, seed: u64) -> Self {
        // GOSS degenerates to plain histogram mode here (no gradients).
        match params.tree.split_mode.max_bins() {
            None => Self::fit_impl(ds, params, seed, None),
            Some(max_bins) => {
                let binned = BinnedCache::fit(ds, max_bins);
                Self::fit_impl(ds, params, seed, Some((binned.binner(), binned.codes())))
            }
        }
    }

    /// [`RandomForest::fit`] with the binning reused from a caller-held
    /// [`TrainCache`] (FROTE's retrain loop bins only the appended rows).
    pub fn fit_cached(
        ds: &Dataset,
        params: &ForestParams,
        seed: u64,
        cache: &mut TrainCache,
    ) -> Self {
        match params.tree.split_mode.max_bins() {
            None => Self::fit_impl(ds, params, seed, None),
            Some(max_bins) => {
                let binned = cache.binned(ds, max_bins);
                Self::fit_impl(ds, params, seed, Some((binned.binner(), binned.codes())))
            }
        }
    }

    fn fit_impl(
        ds: &Dataset,
        params: &ForestParams,
        seed: u64,
        binned: Option<(&Binner, &BinnedMatrix)>,
    ) -> Self {
        assert!(!ds.is_empty(), "cannot train on an empty dataset");
        assert!(params.n_trees > 0, "forest needs at least one tree");
        let mut tree_params = params.tree;
        if tree_params.max_features.is_none() {
            let m = (ds.n_features() as f64).sqrt().round().max(1.0) as usize;
            tree_params.max_features = Some(m);
        }
        // Each tree owns an independent RNG stream derived from the forest
        // seed, so trees can be fitted in parallel while the ensemble stays
        // bit-identical at any `FROTE_THREADS`.
        let split = SeedSplit::new(seed);
        let ranks = binned.is_none().then(|| RankTable::new(ds));
        let tree_ids: Vec<u64> = (0..params.n_trees as u64).collect();
        let trees = frote_par::par_map(&tree_ids, |&t| {
            let mut rng = split.stream(t);
            let sample = ds.bootstrap_indices(ds.n_rows(), &mut rng);
            match binned {
                None => {
                    let ranks = ranks.as_ref().expect("exact fits build a rank table");
                    DecisionTree::fit_ranked(ds, ranks, &sample, &tree_params, &mut rng)
                }
                Some((binner, codes)) => {
                    DecisionTree::fit_hist(ds, binner, codes, &sample, &tree_params, &mut rng)
                }
            }
        });
        RandomForest { trees, n_classes: ds.n_classes() }
    }

    /// Number of trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// Averaged-vote prediction for a row already in `ds`, accumulated into
    /// the caller's scratch.
    fn vote_in(&self, ds: &Dataset, i: usize, acc: &mut [f64]) -> u32 {
        acc.fill(0.0);
        for tree in &self.trees {
            for (a, p) in acc.iter_mut().zip(tree.leaf_dist_in(ds, i)) {
                *a += p;
            }
        }
        let n = self.trees.len() as f64;
        for a in acc.iter_mut() {
            *a /= n;
        }
        crate::traits::argmax(acc)
    }

    /// Normalized split-frequency feature importances: the fraction of all
    /// splits across the forest taken on each feature. Sums to 1 when the
    /// forest contains at least one split; all-zero for stump forests.
    pub fn feature_importances(&self, n_features: usize) -> Vec<f64> {
        let mut counts = vec![0usize; n_features];
        for tree in &self.trees {
            for (f, c) in tree.feature_split_counts().iter().enumerate() {
                counts[f] += c;
            }
        }
        let total: usize = counts.iter().sum();
        if total == 0 {
            return vec![0.0; n_features];
        }
        counts.into_iter().map(|c| c as f64 / total as f64).collect()
    }
}

impl Classifier for RandomForest {
    fn n_classes(&self) -> usize {
        self.n_classes
    }

    fn predict_proba_into(&self, row: &[Value], out: &mut Vec<f64>) {
        out.clear();
        out.resize(self.n_classes, 0.0);
        for tree in &self.trees {
            for (a, p) in out.iter_mut().zip(tree.leaf_dist(row)) {
                *a += p;
            }
        }
        let n = self.trees.len() as f64;
        for a in out.iter_mut() {
            *a /= n;
        }
    }

    /// Accumulates per-tree leaf distributions straight off the columnar
    /// store, in parallel over row blocks — no per-row or per-tree
    /// allocation.
    fn predict_dataset(&self, ds: &Dataset) -> Vec<u32> {
        frote_par::par_blocks_map(ds.n_rows(), crate::traits::PREDICT_BLOCK, |_, rows| {
            let mut acc = vec![0.0; self.n_classes];
            let mut out = Vec::with_capacity(rows.len());
            for i in rows {
                out.push(self.vote_in(ds, i, &mut acc));
            }
            out
        })
    }

    fn predict_rows(&self, ds: &Dataset, rows: &[usize]) -> Vec<u32> {
        frote_par::par_chunks_map(rows, crate::traits::PREDICT_BLOCK, |_, chunk| {
            let mut acc = vec![0.0; self.n_classes];
            let mut out = Vec::with_capacity(chunk.len());
            for &i in chunk {
                out.push(self.vote_in(ds, i, &mut acc));
            }
            out
        })
    }
}

/// Trainer wrapper implementing [`TrainAlgorithm`]. The paper's "RF".
#[derive(Debug, Clone)]
pub struct RandomForestTrainer {
    params: ForestParams,
    seed: u64,
}

impl RandomForestTrainer {
    /// Creates a trainer with explicit parameters and seed.
    pub fn new(params: ForestParams, seed: u64) -> Self {
        RandomForestTrainer { params, seed }
    }

    /// The forest parameters.
    pub fn params(&self) -> &ForestParams {
        &self.params
    }
}

impl Default for RandomForestTrainer {
    fn default() -> Self {
        // 30 trees rather than scikit-learn's 100 keeps FROTE's inner
        // retraining loop tractable at reproduction scale while preserving
        // the ensemble behaviour; the paper's headline setting (max_depth=3)
        // is kept.
        RandomForestTrainer { params: ForestParams { n_trees: 30, ..Default::default() }, seed: 42 }
    }
}

impl TrainAlgorithm for RandomForestTrainer {
    fn train(&self, ds: &Dataset) -> Box<dyn Classifier> {
        Box::new(RandomForest::fit(ds, &self.params, self.seed))
    }

    fn train_cached(&self, ds: &Dataset, cache: &mut TrainCache) -> Box<dyn Classifier> {
        Box::new(RandomForest::fit_cached(ds, &self.params, self.seed, cache))
    }

    fn name(&self) -> &str {
        "RF"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::accuracy;
    use frote_data::synth::{DatasetKind, SynthConfig};

    #[test]
    fn beats_chance_on_planted_concepts() {
        for kind in [DatasetKind::Car, DatasetKind::Mushroom] {
            let ds = kind.generate(&SynthConfig { n_rows: 600, ..Default::default() });
            let model = RandomForestTrainer::default().train(&ds);
            let acc = accuracy(&model.predict_dataset(&ds), ds.labels());
            // Depth-3 forests (the paper's setting) cap fit quality on the
            // 4-class Car concept; chance is ~0.25 (Car) / ~0.5 (Mushroom).
            assert!(acc > 0.6, "{}: accuracy {acc}", kind.name());
        }
    }

    #[test]
    fn proba_is_normalized_average() {
        let ds = DatasetKind::Car.generate(&SynthConfig { n_rows: 200, ..Default::default() });
        let forest = RandomForest::fit(&ds, &ForestParams { n_trees: 5, ..Default::default() }, 7);
        assert_eq!(forest.n_trees(), 5);
        for i in 0..10 {
            let p = forest.predict_proba(&ds.row(i));
            assert_eq!(p.len(), 4);
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let ds = DatasetKind::Car.generate(&SynthConfig { n_rows: 150, ..Default::default() });
        let a = RandomForest::fit(&ds, &ForestParams { n_trees: 3, ..Default::default() }, 9);
        let b = RandomForest::fit(&ds, &ForestParams { n_trees: 3, ..Default::default() }, 9);
        let pa = a.predict_dataset(&ds);
        let pb = b.predict_dataset(&ds);
        assert_eq!(pa, pb);
    }

    #[test]
    fn histogram_forest_is_deterministic_and_learns() {
        let ds = DatasetKind::Car.generate(&SynthConfig { n_rows: 400, ..Default::default() });
        let params = ForestParams {
            n_trees: 10,
            tree: TreeParams {
                max_depth: 3,
                split_mode: crate::histogram::SplitMode::histogram(),
                ..Default::default()
            },
        };
        let a = RandomForest::fit(&ds, &params, 5);
        let mut cache = crate::traits::TrainCache::new();
        let b = RandomForest::fit_cached(&ds, &params, 5, &mut cache);
        let pa = a.predict_dataset(&ds);
        assert_eq!(pa, b.predict_dataset(&ds), "cached and fresh binning agree");
        let acc = accuracy(&pa, ds.labels());
        assert!(acc > 0.6, "accuracy {acc}");
    }

    #[test]
    #[should_panic(expected = "at least one tree")]
    fn zero_trees_panics() {
        let ds = DatasetKind::Car.generate(&SynthConfig { n_rows: 50, ..Default::default() });
        RandomForest::fit(&ds, &ForestParams { n_trees: 0, ..Default::default() }, 0);
    }

    #[test]
    fn name_matches_paper() {
        assert_eq!(RandomForestTrainer::default().name(), "RF");
    }

    #[test]
    fn importances_concentrate_on_the_signal_feature() {
        use frote_data::{Schema, Value};
        // Feature 0 fully determines the label; feature 1 is noise.
        let schema = Schema::builder("y", vec!["a".into(), "b".into()])
            .numeric("signal")
            .numeric("noise")
            .build();
        let mut ds = Dataset::new(schema);
        for i in 0..200 {
            let x = i as f64;
            let noise = ((i * 7919) % 100) as f64;
            ds.push_row(&[Value::Num(x), Value::Num(noise)], u32::from(x >= 100.0)).unwrap();
        }
        let forest = RandomForest::fit(
            &ds,
            &ForestParams {
                n_trees: 15,
                tree: TreeParams { max_depth: 3, max_features: Some(2), ..Default::default() },
            },
            3,
        );
        let imp = forest.feature_importances(2);
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(imp[0] > 0.8, "signal importance {imp:?}");
    }

    #[test]
    fn stump_forest_has_zero_importances() {
        let ds = DatasetKind::Car.generate(&SynthConfig { n_rows: 100, ..Default::default() });
        let forest = RandomForest::fit(
            &ds,
            &ForestParams { n_trees: 3, tree: TreeParams { max_depth: 0, ..Default::default() } },
            0,
        );
        assert_eq!(forest.feature_importances(6), vec![0.0; 6]);
    }
}
