//! The per-run experimental pipeline shared by all experiments.

use frote::objective::{paper_j, ObjectiveValue};
use frote::{Frote, FroteConfig, LabelPolicy, ModStrategy, SelectionStrategy};
use frote_data::Dataset;
use frote_rules::FeedbackRuleSet;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::models::ModelKind;
use crate::protocol::tcf_split;
use crate::scale::Scale;
use crate::setup::{draw_conflict_free_frs, BenchmarkSetup};

/// Everything that varies across the paper's experimental cells.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunSpec {
    /// Model family.
    pub model: ModelKind,
    /// Experiment scale.
    pub scale: Scale,
    /// Feedback rule set size `|F|`.
    pub frs_size: usize,
    /// Training coverage fraction `tcf`.
    pub tcf: f64,
    /// Input modification strategy.
    pub mod_strategy: ModStrategy,
    /// Base-instance selection strategy.
    pub selection: SelectionStrategy,
    /// Labelling of generated instances.
    pub label_policy: LabelPolicy,
}

impl RunSpec {
    /// The defaults shared by most experiments: `relabel`, `random`,
    /// deterministic labels, `tcf = 0.2`, `|F| = 3`.
    pub fn new(model: ModelKind, scale: Scale) -> RunSpec {
        RunSpec {
            model,
            scale,
            frs_size: 3,
            tcf: 0.2,
            mod_strategy: ModStrategy::Relabel,
            selection: SelectionStrategy::Random,
            label_policy: LabelPolicy::FromRule,
        }
    }
}

/// Held-out-test measurements of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Test objective of the model trained on the unmodified training set.
    pub initial: ObjectiveValue,
    /// Test objective after the modification strategy (the paper's
    /// `relabel` / `none` / `drop` midpoint).
    pub modified: ObjectiveValue,
    /// Test objective after FROTE's augmentation.
    pub final_: ObjectiveValue,
    /// Synthetic instances added.
    pub instances_added: usize,
    /// Training rows before augmentation.
    pub train_rows: usize,
    /// The rules actually drawn (may be fewer than requested).
    pub frs_len: usize,
}

impl RunResult {
    /// `ΔJ` of augmentation over the initial model (Table 3's metric).
    pub fn delta_j(&self) -> f64 {
        self.final_.j - self.initial.j
    }

    /// `ΔMRA` over the initial model.
    pub fn delta_mra(&self) -> f64 {
        self.final_.mra - self.initial.mra
    }

    /// `ΔF1` over the initial model.
    pub fn delta_f1(&self) -> f64 {
        self.final_.f1 - self.initial.f1
    }

    /// Instances added as a fraction of the training set (Table 4's
    /// `Δ#Ins/|D|`).
    pub fn added_fraction(&self) -> f64 {
        self.instances_added as f64 / self.train_rows.max(1) as f64
    }
}

/// A run with its FRS, split and RNG drawn but no training done yet —
/// lets experiments that need mid-run access to the test set (Figure 9)
/// drive FROTE themselves.
pub struct PreparedRun {
    /// The conflict-free FRS drawn for this run.
    pub frs: FeedbackRuleSet,
    /// Training split.
    pub train: Dataset,
    /// Held-out test split.
    pub test: Dataset,
    /// The run's RNG, positioned after the draws.
    pub rng: StdRng,
}

/// Draws the FRS and the tcf split for one run. `None` when the draw/split
/// degenerates (no rules, empty or tiny split) — callers simply skip the
/// run, as the paper skips configurations where no conflict-free FRS exists.
pub fn prepare_run(setup: &BenchmarkSetup, spec: &RunSpec, run_seed: u64) -> Option<PreparedRun> {
    let mut rng = StdRng::seed_from_u64(run_seed);
    let frs = draw_conflict_free_frs(setup, spec.frs_size, &mut rng);
    if frs.is_empty() {
        return None;
    }
    let (train, test) = tcf_split(&setup.dataset, &frs, spec.tcf, &mut rng);
    if train.n_rows() < 20 || test.is_empty() {
        return None;
    }
    Some(PreparedRun { frs, train, test, rng })
}

/// The FROTE configuration a spec implies (the runner applies the
/// modification strategy itself, so FROTE always receives `ModStrategy::None`).
pub fn frote_config(setup: &BenchmarkSetup, spec: &RunSpec) -> FroteConfig {
    FroteConfig {
        iteration_limit: spec.scale.iteration_limit(),
        instances_per_iteration: Some(spec.scale.eta(setup.kind)),
        selection: spec.selection,
        label_policy: spec.label_policy,
        mod_strategy: ModStrategy::None,
        ..Default::default()
    }
}

/// Runs one experimental cell instance: draw FRS → tcf split → train initial
/// → modify → FROTE → score everything on the test set.
///
/// Returns `None` when the draw/split degenerates; see [`prepare_run`].
pub fn run_once(setup: &BenchmarkSetup, spec: &RunSpec, run_seed: u64) -> Option<RunResult> {
    let PreparedRun { frs, train, test, mut rng } = prepare_run(setup, spec, run_seed)?;
    let trainer = spec.model.trainer(spec.scale);

    let initial_model = trainer.train(&train);
    let initial = paper_j(initial_model.as_ref(), &test, &frs);

    let modified_ds = spec.mod_strategy.apply(&train, &frs);
    if modified_ds.n_rows() < 20 {
        return None;
    }
    let modified_model = trainer.train(&modified_ds);
    let modified = paper_j(modified_model.as_ref(), &test, &frs);

    let config = frote_config(setup, spec);
    let out = Frote::new(config).run(&modified_ds, trainer.as_ref(), &frs, &mut rng).ok()?;
    let final_ = paper_j(out.model.as_ref(), &test, &frs);

    Some(RunResult {
        initial,
        modified,
        final_,
        instances_added: out.report.instances_added,
        train_rows: train.n_rows(),
        frs_len: frs.len(),
    })
}

/// The seed of run `run` of a cell whose runs start at `base_seed`.
pub fn run_seed(base_seed: u64, run: usize) -> u64 {
    base_seed.wrapping_add(run as u64 * 1001)
}

/// Runs every experimental cell's runs as one flat job list and returns,
/// per cell, the non-degenerate results in run order.
///
/// Cell `c` is `(context, runs)`; its jobs are `job(&context, r)` for
/// `r in 0..runs`, and a job returning `None` is skipped. Runs are
/// independent — each is a pure function of its cell and run index — so
/// all jobs of an experiment share one [`frote_par::par_map`], whose
/// dynamic claiming keeps every thread busy across cells of uneven cost.
/// The regrouped results are identical to the serial loop at any thread
/// count.
pub fn fan_out<C, R, F>(cells: &[(C, usize)], job: F) -> Vec<Vec<R>>
where
    C: Sync,
    R: Send,
    F: Fn(&C, usize) -> Option<R> + Sync,
{
    let jobs: Vec<(usize, usize)> = cells
        .iter()
        .enumerate()
        .flat_map(|(c, &(_, runs))| (0..runs).map(move |r| (c, r)))
        .collect();
    let results = frote_par::par_map(&jobs, |&(c, r)| job(&cells[c].0, r));
    let mut grouped: Vec<Vec<R>> = cells.iter().map(|_| Vec::new()).collect();
    for (&(c, _), result) in jobs.iter().zip(results) {
        grouped[c].extend(result);
    }
    grouped
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::prepare;
    use frote_data::synth::DatasetKind;

    #[test]
    fn run_once_produces_consistent_measurements() {
        let setup = prepare(DatasetKind::Car, Scale::Smoke, 42);
        let spec = RunSpec::new(ModelKind::Rf, Scale::Smoke);
        let result = run_once(&setup, &spec, 1).expect("run should not degenerate");
        assert!(result.frs_len >= 1);
        assert!(result.train_rows >= 20);
        // All objective values are probabilities-like in [0, 1].
        for v in [result.initial, result.modified, result.final_] {
            assert!((0.0..=1.0).contains(&v.j), "j {}", v.j);
            assert!((0.0..=1.0).contains(&v.mra));
            assert!((0.0..=1.0).contains(&v.f1));
        }
        assert!(result.added_fraction() >= 0.0);
    }

    #[test]
    fn runs_are_deterministic() {
        let setup = prepare(DatasetKind::Car, Scale::Smoke, 42);
        let spec = RunSpec::new(ModelKind::Rf, Scale::Smoke);
        let a = run_once(&setup, &spec, 5);
        let b = run_once(&setup, &spec, 5);
        assert_eq!(a, b);
    }

    #[test]
    fn prepare_run_exposes_split_and_frs() {
        let setup = prepare(DatasetKind::Car, Scale::Smoke, 42);
        let spec = RunSpec::new(ModelKind::Rf, Scale::Smoke);
        let p = prepare_run(&setup, &spec, 2).unwrap();
        assert!(!p.frs.is_empty());
        assert_eq!(p.train.n_rows() + p.test.n_rows(), setup.dataset.n_rows());
    }

    #[test]
    fn fan_out_groups_by_cell_and_skips_none() {
        let setup = prepare(DatasetKind::Car, Scale::Smoke, 42);
        let spec = RunSpec::new(ModelKind::Rf, Scale::Smoke);
        let cells = [(100u64, 2), (200, 0), (300, 1)];
        let grouped = fan_out(&cells, |&base, r| {
            (r == 0).then(|| run_once(&setup, &spec, run_seed(base, r))).flatten()
        });
        assert_eq!(grouped.len(), 3);
        assert_eq!(grouped[0], vec![run_once(&setup, &spec, 100).unwrap()]);
        assert!(grouped[1].is_empty());
        assert_eq!(grouped[2], vec![run_once(&setup, &spec, 300).unwrap()]);
    }
}
