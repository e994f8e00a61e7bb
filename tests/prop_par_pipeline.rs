//! End-to-end determinism of the parallelized pipeline: for a fixed seed,
//! SMOTE generation, experiment runs, and the full FROTE loop produce
//! byte-identical outputs under `FROTE_THREADS ∈ {1, 2, 4, 7}`.
//!
//! This is the acceptance gate for the `frote-par` runtime: parallelism may
//! only change wall-clock, never results.

use frote::{Frote, FroteConfig, SelectionStrategy};
use frote_data::synth::{DatasetKind, SynthConfig};
use frote_eval::runner::{fan_out, run_once, run_seed, RunResult, RunSpec};
use frote_eval::setup::prepare;
use frote_eval::{ModelKind, Scale};
use frote_ml::forest::{ForestParams, RandomForestTrainer};
use frote_par::test_support::with_threads;
use frote_rules::parse::parse_rule;
use frote_rules::FeedbackRuleSet;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The acceptance criterion: the FROTE pipeline's augmented dataset
/// (selected + generated instances) and final report are byte-identical
/// under `FROTE_THREADS=1` and `FROTE_THREADS=4`.
#[test]
fn frote_pipeline_byte_identical_at_1_and_4_threads() {
    let run = || {
        let ds = DatasetKind::Car.generate(&SynthConfig { n_rows: 300, ..Default::default() });
        let rule = parse_rule("safety = low AND buying = low => acc", ds.schema()).unwrap();
        let frs = FeedbackRuleSet::new(vec![rule]);
        let trainer =
            RandomForestTrainer::new(ForestParams { n_trees: 10, ..Default::default() }, 42);
        let config = FroteConfig {
            iteration_limit: 4,
            instances_per_iteration: Some(15),
            selection: SelectionStrategy::Random,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(9);
        let out = Frote::new(config).run(&ds, &trainer, &frs, &mut rng).unwrap();
        (out.dataset, format!("{:?}", out.report))
    };
    let (ds_serial, report_serial) = with_threads(1, run);
    let (ds_par, report_par) = with_threads(4, run);
    assert_eq!(ds_serial, ds_par, "augmented dataset differs between 1 and 4 threads");
    assert_eq!(
        report_serial.as_bytes(),
        report_par.as_bytes(),
        "FROTE report differs between 1 and 4 threads"
    );
}

/// The IP selection strategy exercises borderline triage (batched kNN) on
/// top of generation; it must be equally thread-count-invariant.
#[test]
fn frote_ip_selection_identical_across_thread_counts() {
    let run = || {
        let ds = DatasetKind::Mushroom.generate(&SynthConfig { n_rows: 250, ..Default::default() });
        let rule = parse_rule("bruises = bruises-1 => poisonous", ds.schema()).unwrap();
        let frs = FeedbackRuleSet::new(vec![rule]);
        let trainer =
            RandomForestTrainer::new(ForestParams { n_trees: 6, ..Default::default() }, 1);
        let config = FroteConfig {
            iteration_limit: 2,
            instances_per_iteration: Some(10),
            selection: SelectionStrategy::Ip,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(4);
        let out = Frote::new(config).run(&ds, &trainer, &frs, &mut rng).unwrap();
        format!("{:?}{:?}", out.dataset, out.report)
    };
    let reference = with_threads(1, run);
    for t in [2, 7] {
        assert_eq!(with_threads(t, run), reference, "FROTE_THREADS={t}");
    }
}

/// The experiment fan-out (whose jobs train models) regroups identical
/// per-cell results at any thread count. The cells have different run
/// counts and one skipped run each, so regrouping must keep cell
/// boundaries and run order, and drop exactly the `None`s.
#[test]
fn fan_out_identical_across_thread_counts() {
    let setup = prepare(DatasetKind::Car, Scale::Smoke, 42);
    let rf = RunSpec::new(ModelKind::Rf, Scale::Smoke);
    let lr = RunSpec { tcf: 0.0, ..RunSpec::new(ModelKind::Lr, Scale::Smoke) };
    let cells = [((rf, 77), 3), ((lr, 91), 2)];
    // Run 1 of every cell is skipped, as a degenerate draw would be.
    let job = |(spec, base): &(RunSpec, u64), r: usize| {
        (r != 1).then(|| run_once(&setup, spec, run_seed(*base, r))).flatten()
    };
    let serial: Vec<Vec<RunResult>> = with_threads(1, || {
        cells.iter().map(|(cell, runs)| (0..*runs).filter_map(|r| job(cell, r)).collect()).collect()
    });
    assert_eq!(serial.iter().map(Vec::len).collect::<Vec<_>>(), [2, 1], "no run degenerates");
    for t in [1, 2, 4] {
        assert_eq!(with_threads(t, || fan_out(&cells, job)), serial, "fan_out, FROTE_THREADS={t}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// SMOTE generation is bit-identical across thread counts for arbitrary
    /// seeds and batch sizes.
    #[test]
    fn smote_bit_identical_across_thread_counts(seed in 0u64..10_000, n_new in 0usize..120) {
        use frote_smote::{Smote, SmoteParams};
        let run = || {
            let ds = DatasetKind::WineQuality
                .generate(&SynthConfig { n_rows: 150, ..Default::default() });
            let minority = (0..ds.n_classes() as u32)
                .min_by_key(|&c| ds.indices_of_class(c).len())
                .unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            Smote::new(SmoteParams::default()).generate(&ds, minority, n_new, &mut rng)
        };
        let reference = with_threads(1, run);
        for t in [2usize, 7] {
            prop_assert_eq!(with_threads(t, run), reference.clone(), "FROTE_THREADS={}", t);
        }
    }
}
