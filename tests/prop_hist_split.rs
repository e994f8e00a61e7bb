//! Property pins for histogram GBDT, at any bin budget: training is
//! bit-identical across thread counts (fixed-order block reduction).

use frote_data::{Dataset, Schema, Value};
use frote_ml::gbdt::{Gbdt, GbdtParams, GbdtTrainer};
use frote_ml::{Classifier, SplitMode, TrainAlgorithm};
use proptest::prelude::*;

fn schema() -> Schema {
    Schema::builder("y", vec!["a".into(), "b".into(), "c".into()])
        .numeric("x0")
        .numeric("x1")
        .categorical("k", vec!["p".into(), "q".into(), "r".into(), "s".into()])
        .build()
}

prop_compose! {
    /// Small mixed rows whose numeric cells take at most 16 distinct
    /// values, so budgets below 16 genuinely merge values into bins.
    fn arb_coarse_dataset()(rows in proptest::collection::vec(
        (0u8..16, 0u8..12, 0u32..4, 0u32..3), 12..80,
    )) -> Dataset {
        let mut ds = Dataset::new(schema());
        for (x0, x1, k, y) in rows {
            ds.push_row(
                &[Value::Num(f64::from(x0) * 1.5 - 3.0), Value::Num(f64::from(x1)), Value::Cat(k)],
                y,
            )
            .unwrap();
        }
        ds
    }
}

proptest! {
    /// For any budget: thread-count invariance.
    #[test]
    fn histogram_training_is_deterministic_at_any_budget(
        ds in arb_coarse_dataset(),
        max_bins in 2usize..32,
    ) {
        let trainer = GbdtTrainer::new(GbdtParams {
            n_rounds: 3,
            split_mode: SplitMode::Histogram { max_bins },
            ..Default::default()
        });
        let preds_at = |threads: usize| {
            frote_par::test_support::with_threads(threads, || {
                trainer.train(&ds).predict_dataset(&ds)
            })
        };
        let serial = preds_at(1);
        prop_assert_eq!(&preds_at(2), &serial, "FROTE_THREADS=2 drifted");
        prop_assert_eq!(&preds_at(4), &serial, "FROTE_THREADS=4 drifted");
    }

    /// Probabilities, not just labels, are bit-identical across threads.
    #[test]
    fn histogram_gbdt_is_thread_count_invariant(ds in arb_coarse_dataset()) {
        let params = GbdtParams {
            n_rounds: 3,
            split_mode: SplitMode::histogram(),
            ..Default::default()
        };
        let scores_at = |threads: usize| {
            frote_par::test_support::with_threads(threads, || {
                let model = Gbdt::fit(&ds, &params);
                (0..ds.n_rows()).flat_map(|i| model.predict_proba(&ds.row(i))).collect::<Vec<f64>>()
            })
        };
        let serial = scores_at(1);
        for t in [2usize, 4] {
            let par = scores_at(t);
            let bitwise = serial.iter().zip(&par).all(|(a, b)| a.to_bits() == b.to_bits());
            prop_assert!(bitwise, "GBDT probabilities drifted at FROTE_THREADS={}", t);
        }
    }
}
