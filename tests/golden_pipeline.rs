//! Golden pipeline pin: the FROTE loop's full output (augmented dataset +
//! report) is byte-identical to the seed implementation, at 1 and 4 threads.
//!
//! The exact-mode hashes below were captured from the pre-refactor (PR 2)
//! tree; neither the dense-data-plane refactor nor the quantized training
//! plane may move them. Histogram mode (`SplitMode::Histogram`, opt-in) is
//! pinned separately at 1, 2, and 4 threads — its outputs legitimately
//! differ from exact mode, but must be bit-identical across thread counts
//! and across PRs. FNV-1a is used because its value is defined by the
//! algorithm alone (unlike `DefaultHasher`, which is only stable within one
//! std release).

use frote::{Frote, FroteConfig, SelectionStrategy};
use frote_data::synth::{DatasetKind, SynthConfig};
use frote_data::Dataset;
use frote_ml::forest::{ForestParams, RandomForestTrainer};
use frote_ml::logreg::LogisticRegressionTrainer;
use frote_ml::tree::TreeParams;
use frote_ml::{Classifier, SplitMode, TrainAlgorithm};
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

/// The mixed Car scenario again, but retraining through the quantized
/// histogram plane (RF trees over shared bin codes, binned incrementally by
/// the loop's `TrainCache`). Car is pure-categorical, and categorical
/// histogram search is arithmetically identical to the exact search — so
/// this run must reproduce the *exact-mode* golden byte for byte.
fn run_hist_categorical() -> u64 {
    let ds = DatasetKind::Car.generate(&SynthConfig { n_rows: 300, ..Default::default() });
    let rule = parse_rule("safety = low AND buying = low => acc", ds.schema()).unwrap();
    let frs = FeedbackRuleSet::new(vec![rule]);
    let tree =
        TreeParams { max_depth: 3, split_mode: SplitMode::histogram(), ..Default::default() };
    let trainer = RandomForestTrainer::new(ForestParams { n_trees: 10, tree }, 42);
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

/// The numeric WineQuality scenario through a coarse 16-bin histogram RF —
/// quantization genuinely differs from the exact search here, so this run
/// carries its own golden.
fn run_hist_numeric() -> u64 {
    let ds = DatasetKind::WineQuality.generate(&SynthConfig { n_rows: 250, ..Default::default() });
    let rule = parse_rule("alcohol >= 12 => 8", ds.schema()).unwrap();
    let frs = FeedbackRuleSet::new(vec![rule]);
    let tree = TreeParams {
        max_depth: 3,
        split_mode: SplitMode::Histogram { max_bins: 16 },
        ..Default::default()
    };
    let trainer = RandomForestTrainer::new(ForestParams { n_trees: 8, tree }, 7);
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

/// GOSS-mode GBDT training pinned end to end: the per-round row subsets
/// come from per-row-block `SeedSplit` streams, so the fit must be
/// bit-identical at any thread count.
fn run_goss() -> u64 {
    use frote_ml::gbdt::{Gbdt, GbdtParams};
    let ds = DatasetKind::WineQuality.generate(&SynthConfig { n_rows: 250, ..Default::default() });
    let params = GbdtParams {
        n_rounds: 8,
        split_mode: SplitMode::parse("goss:16:300:200:11").expect("valid goss spec"),
        ..Default::default()
    };
    let model = Gbdt::fit(&ds, &params);
    fnv1a(format!("{:?}", model.predict_dataset(&ds)).as_bytes())
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

/// Captured from the seed (pre-refactor) tree; see the module docs.
const GOLDEN_RANDOM: u64 = 0x3d16_ce7c_f8d3_ed96;
const GOLDEN_ONLINE: u64 = 0x95e7_5f49_4078_f82e;
/// Captured at PR 4 (first histogram-mode release).
const GOLDEN_HIST_NUMERIC: u64 = 0x53e4_4701_4ba3_c2e6;
/// Captured at PR 8 (first GOSS release).
const GOLDEN_GOSS: u64 = 0xc87e_7f3b_cfc3_9443;
/// Captured before base-instance selections were memoized: the memo must
/// reproduce the recomputed selections byte for byte.
const GOLDEN_IP: u64 = 0xb987_5e83_8dd6_56b2;
const GOLDEN_JOINT: u64 = 0xdea4_86bc_0bd4_d0a1;

#[test]
fn pipeline_output_pinned_at_1_and_4_threads() {
    for t in [1usize, 4] {
        let (a, b) = with_threads(t, || (run_random(), run_online()));
        assert_eq!(a, GOLDEN_RANDOM, "random-strategy pipeline drifted at {t} threads");
        assert_eq!(b, GOLDEN_ONLINE, "online-proxy pipeline drifted at {t} threads");
    }
}

/// Forces the default `train_cached` → `train` path, disabling the LR
/// trainer's [`frote_data::EncodedCache`] reuse — the reference the cached
/// run must reproduce byte for byte.
struct UncachedLr(LogisticRegressionTrainer);

impl TrainAlgorithm for UncachedLr {
    fn train(&self, ds: &Dataset) -> Box<dyn Classifier> {
        self.0.train(ds)
    }

    fn name(&self) -> &str {
        self.0.name()
    }
}

/// The numeric WineQuality scenario with **LR as the training algorithm**
/// (not just the selection proxy): every retrain goes through
/// `TrainAlgorithm::train_cached`, so the run exercises the loop's
/// `EncodedCache` appends and rejection rollbacks end to end.
fn run_lr(trainer: &dyn TrainAlgorithm) -> u64 {
    let ds = DatasetKind::WineQuality.generate(&SynthConfig { n_rows: 250, ..Default::default() });
    let rule = parse_rule("alcohol >= 12 => 8", ds.schema()).unwrap();
    let frs = FeedbackRuleSet::new(vec![rule]);
    let config = FroteConfig {
        iteration_limit: 3,
        instances_per_iteration: Some(12),
        selection: SelectionStrategy::OnlineProxy,
        ..Default::default()
    };
    let mut rng = StdRng::seed_from_u64(21);
    let out = Frote::new(config).run(&ds, trainer, &frs, &mut rng).unwrap();
    fnv1a(format!("{:?}|{:?}", out.dataset, out.report).as_bytes())
}

#[test]
fn lr_cached_training_matches_uncached_at_1_and_4_threads() {
    let cached = LogisticRegressionTrainer::default();
    let uncached = UncachedLr(LogisticRegressionTrainer::default());
    for t in [1usize, 4] {
        let (a, b) = with_threads(t, || (run_lr(&cached), run_lr(&uncached)));
        assert_eq!(a, b, "LR train_cached drifted from the uncached path at {t} threads");
    }
}

#[test]
fn goss_training_pinned_at_1_2_and_4_threads() {
    for t in [1usize, 2, 4] {
        let h = with_threads(t, run_goss);
        assert_eq!(h, GOLDEN_GOSS, "GOSS-mode GBDT drifted at {t} threads: {h:#018x}");
    }
}

#[test]
fn histogram_pipeline_pinned_at_1_2_and_4_threads() {
    for t in [1usize, 2, 4] {
        let (cat, num) = with_threads(t, || (run_hist_categorical(), run_hist_numeric()));
        assert_eq!(
            cat, GOLDEN_RANDOM,
            "categorical histogram run must equal the exact-mode golden at {t} threads"
        );
        assert_eq!(
            num, GOLDEN_HIST_NUMERIC,
            "histogram-mode pipeline drifted at {t} threads: {num:#018x}"
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
