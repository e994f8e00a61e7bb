//! Golden pipeline pin: the FROTE loop's full output (augmented dataset +
//! report) is byte-identical to the seed implementation, at 1 and 4 threads.
//!
//! The exact-mode hashes below were captured from the pre-refactor seed
//! tree; neither the dense-data-plane refactor nor the quantized training
//! plane may move them. Histogram GBDT (`SplitMode::Histogram`, opt-in) is
//! pinned separately at 1, 2, and 4 threads — its outputs legitimately
//! differ from exact mode, but must be bit-identical across thread counts
//! and across changes. FNV-1a is used because its value is defined by the
//! algorithm alone (unlike `DefaultHasher`, which is only stable within one
//! std release).

use frote::{Frote, FroteConfig, SelectionStrategy};
use frote_data::synth::{DatasetKind, SynthConfig};
use frote_ml::forest::{ForestParams, RandomForestTrainer};
use frote_ml::logreg::LogisticRegressionTrainer;
use frote_ml::{SplitMode, TrainAlgorithm};
use frote_par::test_support::with_threads;
use frote_rules::parse::parse_rule;
use frote_rules::FeedbackRuleSet;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One deterministic end-to-end run over the mixed Car scenario with the
/// random strategy (the paper's default).
fn run_random() -> u64 {
    let ds = DatasetKind::Car.generate(&SynthConfig { n_rows: 300, ..Default::default() });
    let rule = parse_rule("safety = low AND buying = low => acc", ds.schema()).unwrap();
    let frs = FeedbackRuleSet::new(vec![rule]);
    let trainer = RandomForestTrainer::new(ForestParams { n_trees: 10, ..Default::default() }, 42);
    let config = FroteConfig {
        iteration_limit: 4,
        instances_per_iteration: Some(15),
        selection: SelectionStrategy::Random,
        ..Default::default()
    };
    let mut rng = StdRng::seed_from_u64(9);
    let out = Frote::new(config).run(&ds, &trainer, &frs, &mut rng).unwrap();
    fnv1a(format!("{:?}|{:?}", out.dataset, out.report).as_bytes())
}

/// A numeric-heavy scenario through the online-proxy strategy, which
/// exercises the encoder + logistic-regression path end to end.
fn run_online() -> u64 {
    let ds = DatasetKind::WineQuality.generate(&SynthConfig { n_rows: 250, ..Default::default() });
    let rule = parse_rule("alcohol >= 12 => 8", ds.schema()).unwrap();
    let frs = FeedbackRuleSet::new(vec![rule]);
    let trainer = RandomForestTrainer::new(ForestParams { n_trees: 8, ..Default::default() }, 7);
    let config = FroteConfig {
        iteration_limit: 3,
        instances_per_iteration: Some(12),
        selection: SelectionStrategy::OnlineProxy,
        ..Default::default()
    };
    let mut rng = StdRng::seed_from_u64(21);
    let out = Frote::new(config).run(&ds, &trainer, &frs, &mut rng).unwrap();
    fnv1a(format!("{:?}|{:?}", out.dataset, out.report).as_bytes())
}

/// The numeric WineQuality online-proxy scenario retrained by histogram
/// GBDT at a coarse 16-bin budget: every retrain bins its `D̂` afresh.
/// Quantization genuinely differs from the exact search here, so the run
/// carries its own golden.
fn run_hist_gbdt() -> u64 {
    use frote_ml::gbdt::{GbdtParams, GbdtTrainer};
    let ds = DatasetKind::WineQuality.generate(&SynthConfig { n_rows: 250, ..Default::default() });
    let rule = parse_rule("alcohol >= 12 => 8", ds.schema()).unwrap();
    let frs = FeedbackRuleSet::new(vec![rule]);
    let trainer = GbdtTrainer::new(GbdtParams {
        n_rounds: 8,
        split_mode: SplitMode::Histogram { max_bins: 16 },
        ..Default::default()
    });
    let config = FroteConfig {
        iteration_limit: 3,
        instances_per_iteration: Some(12),
        selection: SelectionStrategy::OnlineProxy,
        ..Default::default()
    };
    let mut rng = StdRng::seed_from_u64(21);
    let out = Frote::new(config).run(&ds, &trainer, &frs, &mut rng).unwrap();
    fnv1a(format!("{:?}|{:?}", out.dataset, out.report).as_bytes())
}

/// A two-rule Nursery scenario through the Eq. 5 integer program
/// (`SelectionStrategy::Ip`): borderline kNN weights against the current
/// model's predictions, the simplex and the rounding repair, end to end.
fn run_ip() -> u64 {
    let ds = DatasetKind::Nursery.generate(&SynthConfig { n_rows: 300, ..Default::default() });
    let frs = FeedbackRuleSet::new(vec![
        parse_rule("finance = inconv AND children = more => not_recom", ds.schema()).unwrap(),
        parse_rule("finance = convenient AND health = priority => spec_prior", ds.schema())
            .unwrap(),
    ]);
    let trainer = RandomForestTrainer::new(ForestParams { n_trees: 10, ..Default::default() }, 42);
    let config = FroteConfig {
        iteration_limit: 8,
        instances_per_iteration: Some(16),
        selection: SelectionStrategy::Ip,
        ..Default::default()
    };
    let mut rng = StdRng::seed_from_u64(5);
    let out = Frote::new(config).run(&ds, &trainer, &frs, &mut rng).unwrap();
    fnv1a(format!("{:?}|{:?}", out.dataset, out.report).as_bytes())
}

/// The Nursery scenario through joint base+neighbour selection
/// (`SelectionStrategy::JointNeighbors`): the LR proxy scores pair
/// midpoints and the generator interpolates towards the pinned neighbour.
fn run_joint() -> u64 {
    let ds = DatasetKind::Nursery.generate(&SynthConfig { n_rows: 300, ..Default::default() });
    let rule =
        parse_rule("finance = inconv AND children = more => not_recom", ds.schema()).unwrap();
    let frs = FeedbackRuleSet::new(vec![rule]);
    let trainer = RandomForestTrainer::new(ForestParams { n_trees: 10, ..Default::default() }, 42);
    let config = FroteConfig {
        iteration_limit: 8,
        instances_per_iteration: Some(12),
        selection: SelectionStrategy::JointNeighbors,
        ..Default::default()
    };
    let mut rng = StdRng::seed_from_u64(13);
    let out = Frote::new(config).run(&ds, &trainer, &frs, &mut rng).unwrap();
    fnv1a(format!("{:?}|{:?}", out.dataset, out.report).as_bytes())
}

/// The all-categorical Car scenario with random selection, retrained by
/// `trainer`: appending rows never moves a one-hot encoding or categorical
/// bin codes, so this is the schema on which a retrain could reuse the
/// encoding or binning of the rows it saw before. Returns the output hash
/// and the (accepted, rejected) iteration counts.
fn run_categorical(trainer: &dyn TrainAlgorithm, seed: u64) -> (u64, usize, usize) {
    let ds = DatasetKind::Car.generate(&SynthConfig { n_rows: 300, ..Default::default() });
    let rule = parse_rule("persons = more AND safety = med => good", ds.schema()).unwrap();
    let frs = FeedbackRuleSet::new(vec![rule]);
    let config = FroteConfig {
        iteration_limit: 6,
        instances_per_iteration: Some(15),
        selection: SelectionStrategy::Random,
        ..Default::default()
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let out = Frote::new(config).run(&ds, trainer, &frs, &mut rng).unwrap();
    let accepted = out.report.iterations.iter().filter(|r| r.accepted).count();
    let rejected = out.report.iterations.len() - accepted;
    (fnv1a(format!("{:?}|{:?}", out.dataset, out.report).as_bytes()), accepted, rejected)
}

/// Captured from the seed (pre-refactor) tree; see the module docs.
const GOLDEN_RANDOM: u64 = 0x3d16_ce7c_f8d3_ed96;
const GOLDEN_ONLINE: u64 = 0x95e7_5f49_4078_f82e;
/// Captured before histogram classification trees were deleted, and
/// unchanged by the deletion.
const GOLDEN_HIST_GBDT: u64 = 0x9751_6ca2_7a95_6712;
/// Captured before base-instance selections were memoized: the memo must
/// reproduce the recomputed selections byte for byte.
const GOLDEN_IP: u64 = 0xb987_5e83_8dd6_56b2;
const GOLDEN_JOINT: u64 = 0xdea4_86bc_0bd4_d0a1;
/// Captured while LR and histogram GBDT still reused encodings and bin
/// codes across retrains; a fit that encodes and bins from scratch must
/// reproduce them byte for byte.
const GOLDEN_CATEGORICAL_LR: u64 = 0x3333_108b_9356_18c2;
const GOLDEN_CATEGORICAL_HIST_GBDT: u64 = 0x455c_073a_3c61_449f;

#[test]
fn pipeline_output_pinned_at_1_and_4_threads() {
    for t in [1usize, 4] {
        let (a, b) = with_threads(t, || (run_random(), run_online()));
        assert_eq!(a, GOLDEN_RANDOM, "random-strategy pipeline drifted at {t} threads");
        assert_eq!(b, GOLDEN_ONLINE, "online-proxy pipeline drifted at {t} threads");
    }
}

#[test]
fn categorical_pipeline_pinned_at_1_and_4_threads() {
    use frote_ml::gbdt::{GbdtParams, GbdtTrainer};
    let lr = LogisticRegressionTrainer::default();
    let gbdt = GbdtTrainer::new(GbdtParams {
        n_rounds: 8,
        split_mode: SplitMode::Histogram { max_bins: 16 },
        ..Default::default()
    });
    for t in [1usize, 4] {
        let (lr_run, gbdt_run) =
            with_threads(t, || (run_categorical(&lr, 4), run_categorical(&gbdt, 4)));
        // Both runs must accept and reject, or they would not cover the
        // retrain after a rollback.
        assert_eq!(
            lr_run,
            (GOLDEN_CATEGORICAL_LR, 3, 3),
            "categorical LR pipeline drifted at {t} threads: {:#018x}",
            lr_run.0
        );
        assert_eq!(
            gbdt_run,
            (GOLDEN_CATEGORICAL_HIST_GBDT, 1, 5),
            "categorical histogram-GBDT pipeline drifted at {t} threads: {:#018x}",
            gbdt_run.0
        );
    }
}

#[test]
fn histogram_pipeline_pinned_at_1_2_and_4_threads() {
    for t in [1usize, 2, 4] {
        let h = with_threads(t, run_hist_gbdt);
        assert_eq!(
            h, GOLDEN_HIST_GBDT,
            "histogram-GBDT pipeline drifted at {t} threads: {h:#018x}"
        );
    }
}

#[test]
fn ip_and_joint_selection_pinned_at_1_and_4_threads() {
    for t in [1usize, 4] {
        let (ip, joint) = with_threads(t, || (run_ip(), run_joint()));
        assert_eq!(ip, GOLDEN_IP, "IP-selection pipeline drifted at {t} threads: {ip:#018x}");
        assert_eq!(
            joint, GOLDEN_JOINT,
            "joint-selection pipeline drifted at {t} threads: {joint:#018x}"
        );
    }
}
