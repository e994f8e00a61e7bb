//! Property-based tests over the model substrate: every model family must
//! uphold the `Classifier` contract FROTE depends on (normalized
//! probabilities, argmax consistency, determinism), regardless of the
//! training data drawn.

use frote_data::{Dataset, Schema, Value};
use frote_ml::forest::{ForestParams, RandomForestTrainer};
use frote_ml::gbdt::{GbdtParams, GbdtTrainer};
use frote_ml::logreg::{LogRegParams, LogisticRegressionTrainer};
use frote_ml::tree::{DecisionTreeTrainer, TreeParams};
use frote_ml::TrainAlgorithm;
use proptest::prelude::*;

fn schema() -> Schema {
    Schema::builder("y", vec!["a".into(), "b".into(), "c".into()])
        .numeric("x0")
        .categorical("k", vec!["p".into(), "q".into()])
        .build()
}

prop_compose! {
    fn arb_dataset()(rows in proptest::collection::vec(
        (-20.0..20.0f64, 0u32..2, 0u32..3), 10..40,
    )) -> Dataset {
        let mut ds = Dataset::new(schema());
        for (x, k, y) in rows {
            ds.push_row(&[Value::Num(x), Value::Cat(k)], y).unwrap();
        }
        ds
    }
}

/// Small/fast versions of all four trainers.
fn trainers() -> Vec<(&'static str, Box<dyn TrainAlgorithm>)> {
    vec![
        (
            "LR",
            Box::new(LogisticRegressionTrainer::new(LogRegParams {
                max_iter: 30,
                ..Default::default()
            })),
        ),
        (
            "DT",
            Box::new(DecisionTreeTrainer::new(
                TreeParams { max_depth: 4, ..Default::default() },
                0,
            )),
        ),
        (
            "RF",
            Box::new(RandomForestTrainer::new(
                ForestParams { n_trees: 4, ..Default::default() },
                0,
            )),
        ),
        ("LGBM", Box::new(GbdtTrainer::new(GbdtParams { n_rounds: 4, ..Default::default() }))),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Probabilities are a distribution and predict == argmax(proba) for
    /// every family on every dataset.
    #[test]
    fn classifier_contract_holds(ds in arb_dataset()) {
        for (name, trainer) in trainers() {
            let model = trainer.train(&ds);
            prop_assert_eq!(model.n_classes(), 3, "{}", name);
            for i in (0..ds.n_rows()).step_by(3) {
                let row = ds.row(i);
                let p = model.predict_proba(&row);
                prop_assert_eq!(p.len(), 3, "{}", name);
                let sum: f64 = p.iter().sum();
                prop_assert!((sum - 1.0).abs() < 1e-6, "{name}: proba sums to {sum}");
                prop_assert!(p.iter().all(|&q| (0.0..=1.0 + 1e-9).contains(&q)),
                    "{name}: out-of-range probability {p:?}");
                // predict agrees with the argmax of proba (ties to lowest).
                let argmax = p
                    .iter()
                    .enumerate()
                    .max_by(|(i, a), (j, b)| {
                        a.partial_cmp(b).unwrap().then(j.cmp(i))
                    })
                    .map(|(i, _)| i as u32)
                    .unwrap();
                prop_assert_eq!(model.predict(&row), argmax, "{}", name);
            }
        }
    }

    /// Training twice on the same data yields identical predictions
    /// (FROTE's acceptance test depends on deterministic retraining).
    #[test]
    fn training_is_deterministic(ds in arb_dataset()) {
        for (name, trainer) in trainers() {
            let a = trainer.train(&ds);
            let b = trainer.train(&ds);
            for i in (0..ds.n_rows()).step_by(5) {
                prop_assert_eq!(
                    a.predict(&ds.row(i)),
                    b.predict(&ds.row(i)),
                    "{} not deterministic", name
                );
            }
        }
    }
}
