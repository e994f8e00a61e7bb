//! Table 6: probabilistic rules mitigating an over-confident expert.
//!
//! Protocol (supplement B): a *single* feedback rule, `tcf = 0`, LR model,
//! and — crucially — the rule is **wrong**: the test distribution stays the
//! original one. Generated-instance labels follow the calibrated policy
//! with confidence `p ∈ {0.4, 0.6, 0.8, 1.0}`. Because the rule is not in
//! effect, MRA here measures agreement with the *original* labels within
//! the rule's coverage, and `J̄` combines that with the outside-coverage F1.

use frote::generate::LabelPolicy;
use frote::{Frote, FroteConfig, ModStrategy};
use frote_data::synth::DatasetKind;
use frote_data::Dataset;
use frote_ml::{metrics, Classifier};
use frote_rules::FeedbackRuleSet;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::aggregate::Summary;
use crate::models::ModelKind;
use crate::protocol::tcf_split;
use crate::render;
use crate::runner::fan_out;
use crate::scale::Scale;
use crate::setup::{draw_conflict_free_frs, prepare, BenchmarkSetup};

/// The confidence grid of Table 6.
pub const P_GRID: [f64; 4] = [0.4, 0.6, 0.8, 1.0];

/// Aggregates for one (dataset, p) cell.
#[derive(Debug, Clone)]
pub struct ProbabilisticCell {
    /// Dataset.
    pub kind: DatasetKind,
    /// Rule confidence `p`.
    pub p: f64,
    /// `Δmra` (agreement with original labels inside coverage).
    pub delta_mra: Summary,
    /// `ΔJ` under the original-label objective.
    pub delta_j: Summary,
}

/// "Wrong-expert" objective: accuracy against *original* labels inside the
/// coverage, macro-F1 outside, coverage-weighted.
fn truth_objective(model: &dyn Classifier, test: &Dataset, frs: &FeedbackRuleSet) -> (f64, f64) {
    let coverage = frs.coverage(test);
    let outside = frs.outside_coverage(test);
    let cov_preds = model.predict_rows(test, &coverage);
    let cov_labels: Vec<u32> = coverage.iter().map(|&i| test.label(i)).collect();
    let mra = metrics::accuracy(&cov_preds, &cov_labels);
    let out_preds = model.predict_rows(test, &outside);
    let out_labels: Vec<u32> = outside.iter().map(|&i| test.label(i)).collect();
    let f1 = metrics::macro_f1(&out_preds, &out_labels, test.n_classes());
    let n = test.n_rows().max(1) as f64;
    let j = (coverage.len() as f64 / n) * mra + (outside.len() as f64 / n) * f1;
    (mra, j)
}

/// One run at confidence `p`: `(Δmra, ΔJ)` of FROTE over the initial
/// model, or `None` when the draw or split degenerates or FROTE fails.
fn probabilistic_run(
    setup: &BenchmarkSetup,
    p: f64,
    scale: Scale,
    run: usize,
) -> Option<(f64, f64)> {
    let mut rng = StdRng::seed_from_u64(50_000 + run as u64 * 23);
    let frs = draw_conflict_free_frs(setup, 1, &mut rng);
    if frs.is_empty() {
        return None;
    }
    let (train, test) = tcf_split(&setup.dataset, &frs, 0.0, &mut rng);
    if train.n_rows() < 20 || test.is_empty() {
        return None;
    }
    let trainer = ModelKind::Lr.trainer(scale);
    let initial_model = trainer.train(&train);
    let (mra0, j0) = truth_objective(initial_model.as_ref(), &test, &frs);

    let config = FroteConfig {
        iteration_limit: scale.iteration_limit(),
        instances_per_iteration: Some(scale.eta(setup.kind)),
        mod_strategy: ModStrategy::None, // tcf = 0: nothing to relabel
        label_policy: LabelPolicy::Calibrated { p },
        ..Default::default()
    };
    let out = Frote::new(config).run(&train, trainer.as_ref(), &frs, &mut rng).ok()?;
    let (mra1, j1) = truth_objective(out.model.as_ref(), &test, &frs);
    Some((mra1 - mra0, j1 - j0))
}

/// Runs the experiment for the given datasets (the paper uses Mushroom,
/// Wine, and Breast Cancer with LR).
pub fn run_datasets(kinds: &[DatasetKind], scale: Scale) -> Vec<ProbabilisticCell> {
    let setups: Vec<BenchmarkSetup> = kinds.iter().map(|&kind| prepare(kind, scale, 42)).collect();
    let cells: Vec<((&BenchmarkSetup, f64), usize)> =
        setups.iter().flat_map(|setup| P_GRID.map(|p| ((setup, p), scale.runs()))).collect();
    let results = fan_out(&cells, |&(setup, p), run| probabilistic_run(setup, p, scale, run));
    cells
        .iter()
        .zip(results)
        .map(|(&((setup, p), _), deltas)| {
            let dmra: Vec<f64> = deltas.iter().map(|d| d.0).collect();
            let dj: Vec<f64> = deltas.iter().map(|d| d.1).collect();
            ProbabilisticCell {
                kind: setup.kind,
                p,
                delta_mra: Summary::of(&dmra),
                delta_j: Summary::of(&dj),
            }
        })
        .collect()
}

/// Renders Table 6.
pub fn render_cells(cells: &[ProbabilisticCell]) -> String {
    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            vec![
                c.kind.name().to_string(),
                format!("p = {:.1}", c.p),
                c.delta_mra.display(),
                c.delta_j.display(),
            ]
        })
        .collect();
    render::table(
        "Table 6: probabilistic rules under a wrong expert (LR, |F| = 1, tcf = 0)",
        &["Dataset", "Probability", "Δmra", "ΔJ"],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_probabilistic_sweep() {
        let cells = run_datasets(&[DatasetKind::Mushroom], Scale::Smoke);
        assert_eq!(cells.len(), P_GRID.len());
        let text = render_cells(&cells);
        assert!(text.contains("p = 0.4"));
        assert!(text.contains("p = 1.0"));
    }
}
