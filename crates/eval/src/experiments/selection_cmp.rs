//! Tables 3, 4, and 5: `random` vs `IP` base-instance selection.
//!
//! Table 3 reports `ΔJ` (final − initial) for both strategies over all
//! datasets × models; Table 4 adds `Δ#Ins/|D|` (augmentation used); Table 5
//! splits `ΔMRA` and `ΔF-Score`.

use frote::SelectionStrategy;
use frote_data::synth::DatasetKind;

use crate::aggregate::Summary;
use crate::models::ModelKind;
use crate::render;
use crate::runner::{fan_out, run_once, run_seed, RunResult, RunSpec};
use crate::scale::Scale;
use crate::setup::{prepare, BenchmarkSetup};

/// Aggregates for one (dataset, model, strategy) cell.
#[derive(Debug, Clone)]
pub struct SelectionCell {
    /// Dataset.
    pub kind: DatasetKind,
    /// Model family.
    pub model: ModelKind,
    /// Selection strategy.
    pub strategy: SelectionStrategy,
    /// `ΔJ` mean ± std.
    pub delta_j: Summary,
    /// `ΔMRA` mean ± std.
    pub delta_mra: Summary,
    /// `ΔF1` mean ± std.
    pub delta_f1: Summary,
    /// `Δ#Ins/|D|` mean ± std.
    pub added_fraction: Summary,
}

/// Runs both strategies for the given datasets. The paper pools runs across
/// its tcf/|F| grid; here each cell pools `scale.runs()` draws at the shared
/// defaults (`tcf = 0.2`, `|F| = 3`) per strategy.
pub fn run_datasets(kinds: &[DatasetKind], scale: Scale) -> Vec<SelectionCell> {
    let setups: Vec<BenchmarkSetup> = kinds.iter().map(|&kind| prepare(kind, scale, 42)).collect();
    let mut specs = Vec::new();
    for setup in &setups {
        for &model in &ModelKind::ALL {
            for strategy in [SelectionStrategy::Random, SelectionStrategy::Ip] {
                let spec = RunSpec { selection: strategy, ..RunSpec::new(model, scale) };
                specs.push(((setup, spec), scale.runs()));
            }
        }
    }
    let results = fan_out(&specs, |(setup, spec), r| run_once(setup, spec, run_seed(30_000, r)));
    specs
        .iter()
        .zip(results)
        .map(|(((setup, spec), _), results)| {
            let summary =
                |f: fn(&RunResult) -> f64| Summary::of(&results.iter().map(f).collect::<Vec<_>>());
            SelectionCell {
                kind: setup.kind,
                model: spec.model,
                strategy: spec.selection,
                delta_j: summary(RunResult::delta_j),
                delta_mra: summary(RunResult::delta_mra),
                delta_f1: summary(RunResult::delta_f1),
                added_fraction: summary(RunResult::added_fraction),
            }
        })
        .collect()
}

fn pair(
    cells: &[SelectionCell],
    kind: DatasetKind,
    model: ModelKind,
) -> (Option<&SelectionCell>, Option<&SelectionCell>) {
    let find = |s: SelectionStrategy| {
        cells.iter().find(|c| c.kind == kind && c.model == model && c.strategy == s)
    };
    (find(SelectionStrategy::Random), find(SelectionStrategy::Ip))
}

/// Renders Table 3 (`ΔJ` random vs IP).
pub fn render_table3(kinds: &[DatasetKind], cells: &[SelectionCell]) -> String {
    let mut rows = Vec::new();
    for &kind in kinds {
        for &model in &ModelKind::ALL {
            let (r, i) = pair(cells, kind, model);
            rows.push(vec![
                kind.name().to_string(),
                model.name().to_string(),
                r.map(|c| c.delta_j.display()).unwrap_or_default(),
                i.map(|c| c.delta_j.display()).unwrap_or_default(),
            ]);
        }
    }
    render::table(
        "Table 3: ΔJ̄ of random vs IP base-instance selection",
        &["Dataset", "Model", "ΔJ (random)", "ΔJ (IP)"],
        &rows,
    )
}

/// Renders Table 4 (adds the augmentation used).
pub fn render_table4(kinds: &[DatasetKind], cells: &[SelectionCell]) -> String {
    let mut rows = Vec::new();
    for &kind in kinds {
        for &model in &ModelKind::ALL {
            let (r, i) = pair(cells, kind, model);
            rows.push(vec![
                kind.name().to_string(),
                model.name().to_string(),
                r.map(|c| c.delta_j.display()).unwrap_or_default(),
                i.map(|c| c.delta_j.display()).unwrap_or_default(),
                r.map(|c| c.added_fraction.display()).unwrap_or_default(),
                i.map(|c| c.added_fraction.display()).unwrap_or_default(),
            ]);
        }
    }
    render::table(
        "Table 4: ΔJ̄ and Δ#Ins/|D| for random and IP selection",
        &["Dataset", "Model", "ΔJ (random)", "ΔJ (IP)", "Δ#Ins/|D| (random)", "Δ#Ins/|D| (IP)"],
        &rows,
    )
}

/// Renders Table 5 (`ΔMRA` / `ΔF1` split).
pub fn render_table5(kinds: &[DatasetKind], cells: &[SelectionCell]) -> String {
    let mut rows = Vec::new();
    for &kind in kinds {
        for &model in &ModelKind::ALL {
            let (r, i) = pair(cells, kind, model);
            rows.push(vec![
                kind.name().to_string(),
                model.name().to_string(),
                i.map(|c| c.delta_mra.display()).unwrap_or_default(),
                r.map(|c| c.delta_mra.display()).unwrap_or_default(),
                i.map(|c| c.delta_f1.display()).unwrap_or_default(),
                r.map(|c| c.delta_f1.display()).unwrap_or_default(),
            ]);
        }
    }
    render::table(
        "Table 5: ΔMRA and ΔF-Score for IP and random selection",
        &["Dataset", "Model", "ΔMRA (IP)", "ΔMRA (random)", "ΔF (IP)", "ΔF (random)"],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_comparison_produces_both_strategies() {
        let kinds = [DatasetKind::Car];
        let cells = run_datasets(&kinds, Scale::Smoke);
        assert_eq!(cells.len(), 6); // 1 dataset x 3 models x 2 strategies
        let t3 = render_table3(&kinds, &cells);
        assert!(t3.contains("ΔJ (IP)"));
        let t4 = render_table4(&kinds, &cells);
        assert!(t4.contains("Δ#Ins/|D|"));
        let t5 = render_table5(&kinds, &cells);
        assert!(t5.contains("ΔMRA"));
    }
}
