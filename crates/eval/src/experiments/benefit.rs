//! Figure 2 (and supplement Figures 4–8): the benefit of augmentation.
//!
//! For each model and training-coverage fraction, compares the held-out-test
//! `J̄` of (1) the model trained on the initial training set, (2) after the
//! modification strategy, and (3) after FROTE completes augmentation, pooling
//! runs over `|F| ∈ {1, 3, 5}` as in the paper's box plots.

use frote::ModStrategy;
use frote_data::synth::DatasetKind;

use crate::aggregate::BoxStats;
use crate::models::ModelKind;
use crate::render;
use crate::runner::{fan_out, run_once, run_seed, RunSpec};
use crate::scale::Scale;
use crate::setup::prepare;

/// The tcf grid of the paper's Figure 2.
pub const TCF_GRID: [f64; 7] = [0.0, 0.05, 0.1, 0.15, 0.2, 0.3, 0.4];

/// The rule-set sizes each cell pools.
const FRS_SIZES: [usize; 3] = [1, 3, 5];

/// One Figure 2 cell: box statistics of the three measurement points plus
/// the supplement's paired differences (Figures 4–8 plot `mod − imp` and
/// `final − imp`).
#[derive(Debug, Clone)]
pub struct BenefitCell {
    /// Training coverage fraction.
    pub tcf: f64,
    /// Model family.
    pub model: ModelKind,
    /// Box stats of the initial-model test `J̄`.
    pub initial: Option<BoxStats>,
    /// Box stats after the modification strategy.
    pub modified: Option<BoxStats>,
    /// Box stats after FROTE.
    pub final_: Option<BoxStats>,
    /// Per-run `modified − initial` (the supplement's `mod-imp`).
    pub mod_improvement: Option<BoxStats>,
    /// Per-run `final − modified` (the supplement's `final-imp`).
    pub final_improvement: Option<BoxStats>,
    /// Pooled run count.
    pub runs: usize,
}

/// Runs the experiment for one dataset and mod strategy over the given tcf
/// grid, pooling `|F| ∈ {1, 3, 5}` (each with `scale.runs()` draws).
pub fn run_dataset(
    kind: DatasetKind,
    scale: Scale,
    mod_strategy: ModStrategy,
    tcf_grid: &[f64],
) -> Vec<BenefitCell> {
    let setup = prepare(kind, scale, 42);
    let mut specs = Vec::new();
    for &model in &ModelKind::ALL {
        for &tcf in tcf_grid {
            for (fi, &frs_size) in FRS_SIZES.iter().enumerate() {
                let spec = RunSpec { frs_size, tcf, mod_strategy, ..RunSpec::new(model, scale) };
                let seed =
                    10_000 + fi as u64 * 97 + (tcf * 1000.0) as u64 * 13 + model_tag(model) * 7;
                specs.push(((spec, seed), scale.runs()));
            }
        }
    }
    let results = fan_out(&specs, |(spec, seed), r| run_once(&setup, spec, run_seed(*seed, r)));
    specs
        .chunks(FRS_SIZES.len())
        .zip(results.chunks(FRS_SIZES.len()))
        .map(|(cell, pooled)| {
            let ((spec, _), _) = cell[0];
            let mut initial = Vec::new();
            let mut modified = Vec::new();
            let mut final_ = Vec::new();
            let mut mod_improvement = Vec::new();
            let mut final_improvement = Vec::new();
            for r in pooled.iter().flatten() {
                initial.push(r.initial.j);
                modified.push(r.modified.j);
                final_.push(r.final_.j);
                mod_improvement.push(r.modified.j - r.initial.j);
                final_improvement.push(r.final_.j - r.modified.j);
            }
            BenefitCell {
                tcf: spec.tcf,
                model: spec.model,
                runs: initial.len(),
                initial: BoxStats::of(&initial),
                modified: BoxStats::of(&modified),
                final_: BoxStats::of(&final_),
                mod_improvement: BoxStats::of(&mod_improvement),
                final_improvement: BoxStats::of(&final_improvement),
            }
        })
        .collect()
}

fn model_tag(m: ModelKind) -> u64 {
    match m {
        ModelKind::Lr => 1,
        ModelKind::Rf => 2,
        ModelKind::Lgbm => 3,
    }
}

/// Renders the cells as the figure's data table (one row per model × tcf,
/// medians with box stats).
pub fn render_cells(kind: DatasetKind, mod_strategy: ModStrategy, cells: &[BenefitCell]) -> String {
    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            let show = |b: &Option<BoxStats>| {
                b.map(|s| format!("{:.3} [{}]", s.median, s.display()))
                    .unwrap_or_else(|| "-".to_string())
            };
            let show_med = |b: &Option<BoxStats>| {
                b.map(|s| format!("{:+.3}", s.median)).unwrap_or_else(|| "-".to_string())
            };
            vec![
                c.model.name().to_string(),
                format!("{:.2}", c.tcf),
                c.runs.to_string(),
                show(&c.initial),
                show(&c.modified),
                show(&c.final_),
                show_med(&c.mod_improvement),
                show_med(&c.final_improvement),
            ]
        })
        .collect();
    render::table(
        &format!(
            "Figure 2 data: {} ({} strategy) — J̄ median [lo/q1/med/q3/hi]",
            kind.name(),
            mod_strategy.name()
        ),
        &["Model", "tcf", "runs", "initial", mod_strategy.name(), "final", "mod-imp", "final-imp"],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_cells_have_expected_shape() {
        let cells = run_dataset(DatasetKind::Car, Scale::Smoke, ModStrategy::Relabel, &[0.0, 0.2]);
        // 3 models x 2 tcf values.
        assert_eq!(cells.len(), 6);
        for c in &cells {
            assert!(c.runs > 0, "cell with zero runs");
        }
        let text = render_cells(DatasetKind::Car, ModStrategy::Relabel, &cells);
        assert!(text.contains("Figure 2 data"));
        assert!(text.contains("LGBM"));
    }
}
