//! Tables 2, 7 and 8: FROTE vs the Overlay baseline (Daly et al. 2021).
//!
//! The paper's protocol: binary datasets only; 3 rules per run; both the
//! coverage and outside-coverage populations split 50/50 into train/test;
//! `ΔJ`/`ΔMRA`/`ΔF` measured against the initial model on the test set,
//! 50 runs.

use frote::objective::{paper_j, paper_j_by, ObjectiveValue};
use frote::{Frote, FroteConfig, ModStrategy};
use frote_data::synth::DatasetKind;
use frote_overlay::{Overlay, OverlayMode};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::aggregate::Summary;
use crate::models::ModelKind;
use crate::protocol::overlay_split;
use crate::render;
use crate::runner::{fan_out, RunSpec};
use crate::scale::Scale;
use crate::setup::{draw_conflict_free_frs_with_origins, prepare, BenchmarkSetup};

/// Per-(dataset, model) comparison aggregates.
#[derive(Debug, Clone)]
pub struct OverlayCell {
    /// Dataset.
    pub kind: DatasetKind,
    /// Model family.
    pub model: ModelKind,
    /// `ΔJ` for Overlay-Soft / Overlay-Hard / FROTE.
    pub delta_j: [Summary; 3],
    /// `ΔMRA` in the same order.
    pub delta_mra: [Summary; 3],
    /// `ΔF-Score` in the same order.
    pub delta_f: [Summary; 3],
}

/// One run of the comparison: the test objectives of Overlay-Soft,
/// Overlay-Hard and FROTE, in that order, each minus the initial model's
/// (so `j` is `ΔJ`). `None` when the draw or split degenerates or FROTE
/// fails.
fn overlay_run(
    setup: &BenchmarkSetup,
    model: ModelKind,
    scale: Scale,
    run: usize,
) -> Option<[ObjectiveValue; 3]> {
    let mut rng = StdRng::seed_from_u64(40_000 + run as u64 * 17);
    let (frs, origins) = draw_conflict_free_frs_with_origins(setup, 3, &mut rng);
    if frs.is_empty() {
        return None;
    }
    let triggers: Vec<Option<frote_rules::Clause>> = origins.into_iter().map(Some).collect();
    let (train, test) = overlay_split(&setup.dataset, &frs, &mut rng);
    if train.n_rows() < 20 || test.is_empty() {
        return None;
    }
    let trainer = model.trainer(scale);
    let initial_model = trainer.train(&train);
    let initial = paper_j(initial_model.as_ref(), &test, &frs);

    // Overlay (both modes) wraps the initial model. The patch layer
    // triggers on the ORIGINAL explanation-rule regions in addition to the
    // feedback clauses (Daly et al.'s design), which is what costs it
    // outside-coverage F-score when the feedback deviates from the model.
    let soft = Overlay::with_triggers(
        initial_model.as_ref(),
        frs.clone(),
        triggers.clone(),
        OverlayMode::Soft,
        &train,
    );
    // Both layers are scored like a model (`J̄` over the same test rows).
    let soft_v = paper_j_by(&test, &frs, |d, rows| soft.predict_rows(d, rows));
    let hard = Overlay::with_triggers(
        initial_model.as_ref(),
        frs.clone(),
        triggers,
        OverlayMode::Hard,
        &train,
    );
    let hard_v = paper_j_by(&test, &frs, |d, rows| hard.predict_rows(d, rows));

    // FROTE retrains (relabel strategy, random selection).
    let spec = RunSpec::new(model, scale);
    let modified = ModStrategy::Relabel.apply(&train, &frs);
    let config = FroteConfig {
        iteration_limit: scale.iteration_limit(),
        instances_per_iteration: Some(scale.eta(setup.kind)),
        mod_strategy: ModStrategy::None,
        selection: spec.selection,
        ..Default::default()
    };
    let out = Frote::new(config).run(&modified, trainer.as_ref(), &frs, &mut rng).ok()?;
    let frote_v = paper_j(out.model.as_ref(), &test, &frs);

    Some([soft_v, hard_v, frote_v].map(|v| ObjectiveValue {
        mra: v.mra - initial.mra,
        f1: v.f1 - initial.f1,
        j: v.j - initial.j,
    }))
}

/// Runs the comparison for the given (binary) datasets.
pub fn run_datasets(kinds: &[DatasetKind], scale: Scale) -> Vec<OverlayCell> {
    let setups: Vec<BenchmarkSetup> = kinds
        .iter()
        .map(|&kind| {
            assert!(kind.is_binary(), "the Overlay comparison uses binary datasets");
            prepare(kind, scale, 42)
        })
        .collect();
    let cells: Vec<((&BenchmarkSetup, ModelKind), usize)> = setups
        .iter()
        .flat_map(|setup| ModelKind::ALL.map(|model| ((setup, model), scale.overlay_runs())))
        .collect();
    let results = fan_out(&cells, |&(setup, model), run| overlay_run(setup, model, scale, run));
    cells
        .iter()
        .zip(results)
        .map(|(&((setup, model), _), deltas)| {
            let per_slot = |metric: fn(&ObjectiveValue) -> f64| {
                std::array::from_fn(|slot| {
                    Summary::of(&deltas.iter().map(|d| metric(&d[slot])).collect::<Vec<_>>())
                })
            };
            OverlayCell {
                kind: setup.kind,
                model,
                delta_j: per_slot(|v| v.j),
                delta_mra: per_slot(|v| v.mra),
                delta_f: per_slot(|v| v.f1),
            }
        })
        .collect()
}

/// Renders Table 2 / Table 7 (`ΔJ` columns).
pub fn render_delta_j(title: &str, cells: &[OverlayCell]) -> String {
    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            vec![
                c.kind.name().to_string(),
                c.model.name().to_string(),
                c.delta_j[0].display(),
                c.delta_j[1].display(),
                c.delta_j[2].display(),
            ]
        })
        .collect();
    render::table(
        title,
        &["Dataset", "Model", "ΔJ Overlay-Soft", "ΔJ Overlay-Hard", "ΔJ FROTE"],
        &rows,
    )
}

/// Renders Table 8 (`ΔMRA` and `ΔF-Score` split).
pub fn render_mra_f(cells: &[OverlayCell]) -> String {
    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            vec![
                c.kind.name().to_string(),
                c.model.name().to_string(),
                c.delta_mra[0].display(),
                c.delta_mra[1].display(),
                c.delta_mra[2].display(),
                c.delta_f[0].display(),
                c.delta_f[1].display(),
                c.delta_f[2].display(),
            ]
        })
        .collect();
    render::table(
        "Table 8: ΔMRA / ΔF-Score — Overlay-Soft, Overlay-Hard, FROTE",
        &[
            "Dataset",
            "Model",
            "ΔMRA Soft",
            "ΔMRA Hard",
            "ΔMRA FROTE",
            "ΔF Soft",
            "ΔF Hard",
            "ΔF FROTE",
        ],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_comparison_runs_on_a_binary_dataset() {
        let cells = run_datasets(&[DatasetKind::Mushroom], Scale::Smoke);
        assert_eq!(cells.len(), 3);
        let t2 = render_delta_j("Table 2 (smoke)", &cells);
        assert!(t2.contains("Overlay-Hard"));
        let t8 = render_mra_f(&cells);
        assert!(t8.contains("ΔMRA"));
    }

    #[test]
    #[should_panic(expected = "binary datasets")]
    fn multiclass_datasets_rejected() {
        run_datasets(&[DatasetKind::Car], Scale::Smoke);
    }
}
