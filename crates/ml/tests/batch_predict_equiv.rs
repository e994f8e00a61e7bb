//! Batch-vs-single equivalence for every model family: the overridden
//! `predict_dataset` fast paths (encode-once scoring, index-based tree
//! traversal) and the provided `predict_rows` must agree exactly with
//! per-row `predict` over materialized rows, at 1 and 4 threads.

use frote_data::synth::{DatasetKind, SynthConfig};
use frote_ml::forest::{ForestParams, RandomForestTrainer};
use frote_ml::gbdt::{GbdtParams, GbdtTrainer};
use frote_ml::logreg::LogisticRegressionTrainer;
use frote_ml::tree::DecisionTreeTrainer;
use frote_ml::TrainAlgorithm;
use frote_par::test_support::with_threads;

#[test]
fn predict_dataset_matches_per_row_predict_for_all_families() {
    let trainers: Vec<Box<dyn TrainAlgorithm>> = vec![
        Box::new(LogisticRegressionTrainer::default()),
        Box::new(DecisionTreeTrainer::default()),
        Box::new(RandomForestTrainer::new(ForestParams { n_trees: 7, ..Default::default() }, 3)),
        Box::new(GbdtTrainer::new(GbdtParams { n_rounds: 5, ..Default::default() })),
    ];
    for kind in [DatasetKind::Car, DatasetKind::WineQuality, DatasetKind::Adult] {
        let ds = kind.generate(&SynthConfig { n_rows: 600, ..Default::default() });
        for trainer in &trainers {
            let model = trainer.train(&ds);
            let per_row: Vec<u32> = (0..ds.n_rows()).map(|i| model.predict(&ds.row(i))).collect();
            let subset: Vec<usize> = (0..ds.n_rows()).step_by(3).collect();
            let subset_per_row: Vec<u32> = subset.iter().map(|&i| per_row[i]).collect();
            for t in [1usize, 4] {
                let batch = with_threads(t, || model.predict_dataset(&ds));
                assert_eq!(
                    batch,
                    per_row,
                    "{} on {}: predict_dataset diverged at {t} threads",
                    trainer.name(),
                    kind.name()
                );
                let rows = with_threads(t, || model.predict_rows(&ds, &subset));
                assert_eq!(
                    rows,
                    subset_per_row,
                    "{} on {}: predict_rows diverged at {t} threads",
                    trainer.name(),
                    kind.name()
                );
            }
        }
    }
}

#[test]
fn predict_proba_into_matches_predict_proba() {
    let ds = DatasetKind::Car.generate(&SynthConfig { n_rows: 200, ..Default::default() });
    let trainers: Vec<Box<dyn TrainAlgorithm>> = vec![
        Box::new(LogisticRegressionTrainer::default()),
        Box::new(RandomForestTrainer::new(ForestParams { n_trees: 5, ..Default::default() }, 1)),
        Box::new(GbdtTrainer::new(GbdtParams { n_rounds: 3, ..Default::default() })),
    ];
    for trainer in &trainers {
        let model = trainer.train(&ds);
        let mut scratch = Vec::new();
        for i in (0..ds.n_rows()).step_by(17) {
            let row = ds.row(i);
            model.predict_proba_into(&row, &mut scratch);
            assert_eq!(scratch, model.predict_proba(&row), "{} row {i}", trainer.name());
            assert!((scratch.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }
}
