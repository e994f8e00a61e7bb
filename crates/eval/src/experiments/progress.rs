//! Figure 9: augmentation progress — held-out-test `J̄` as a function of the
//! number of synthetic instances added, per model and `tcf`.
//!
//! Each accepted Algorithm 1 iteration retrains a candidate model; the
//! observer hook scores that candidate on the held-out test set immediately,
//! exactly as the paper evaluates intermediate models.

use frote::objective::paper_j;
use frote::{Frote, ModStrategy};
use frote_data::synth::DatasetKind;

use crate::models::ModelKind;
use crate::render;
use crate::runner::{fan_out, frote_config, prepare_run, RunSpec};
use crate::scale::Scale;
use crate::setup::{prepare, BenchmarkSetup};

/// One progress curve.
#[derive(Debug, Clone)]
pub struct ProgressCurve {
    /// Model family.
    pub model: ModelKind,
    /// Training coverage fraction.
    pub tcf: f64,
    /// `(instances added, mean test J̄)` points, averaged across runs by
    /// accepted-iteration ordinal; point 0 is the pre-augmentation model.
    pub points: Vec<(usize, f64)>,
}

/// One run's trace: `(instances added, test J̄)` after every accepted
/// iteration, starting from the modified model. `None` when the draw or
/// split degenerates or FROTE fails.
fn progress_run(setup: &BenchmarkSetup, spec: &RunSpec, run: usize) -> Option<Vec<(usize, f64)>> {
    let seed = 60_000 + run as u64 * 41 + (spec.tcf * 100.0) as u64;
    let mut prepared = prepare_run(setup, spec, seed)?;
    let trainer = spec.model.trainer(spec.scale);
    let modified = ModStrategy::Relabel.apply(&prepared.train, &prepared.frs);
    if modified.n_rows() < 20 {
        return None;
    }
    let start_model = trainer.train(&modified);
    let start_j = paper_j(start_model.as_ref(), &prepared.test, &prepared.frs).j;
    let mut trace = vec![(0usize, start_j)];
    let config = frote_config(setup, spec);
    let test = prepared.test.clone();
    let frs = prepared.frs.clone();
    Frote::new(config)
        .run_with_observer(
            &modified,
            trainer.as_ref(),
            &frs,
            &mut prepared.rng,
            |candidate, record| {
                if record.accepted {
                    let j = paper_j(candidate, &test, &frs).j;
                    trace.push((record.total_added, j));
                }
            },
        )
        .ok()?;
    Some(trace)
}

/// Runs the experiment on one dataset (the paper uses Adult with `|F| = 3`,
/// relabel, random selection).
pub fn run_dataset(kind: DatasetKind, scale: Scale, tcf_grid: &[f64]) -> Vec<ProgressCurve> {
    let setup = prepare(kind, scale, 42);
    let specs: Vec<(RunSpec, usize)> = ModelKind::ALL
        .iter()
        .flat_map(|&model| {
            tcf_grid
                .iter()
                .map(move |&tcf| (RunSpec { tcf, ..RunSpec::new(model, scale) }, scale.runs()))
        })
        .collect();
    let traces = fan_out(&specs, |spec, run| progress_run(&setup, spec, run));
    specs
        .iter()
        .zip(traces)
        .map(|((spec, _), traces)| ProgressCurve {
            model: spec.model,
            tcf: spec.tcf,
            points: average_traces(&traces),
        })
        .collect()
}

/// Pointwise average of traces by ordinal position.
fn average_traces(traces: &[Vec<(usize, f64)>]) -> Vec<(usize, f64)> {
    let max_len = traces.iter().map(Vec::len).max().unwrap_or(0);
    let mut out = Vec::with_capacity(max_len);
    for i in 0..max_len {
        let pts: Vec<(usize, f64)> = traces.iter().filter_map(|t| t.get(i).copied()).collect();
        if pts.is_empty() {
            break;
        }
        let added = pts.iter().map(|p| p.0).sum::<usize>() / pts.len();
        let j = pts.iter().map(|p| p.1).sum::<f64>() / pts.len() as f64;
        out.push((added, j));
    }
    out
}

/// Renders all curves as plottable series blocks.
pub fn render_curves(kind: DatasetKind, curves: &[ProgressCurve]) -> String {
    let mut out = format!("Figure 9 data: augmentation progress on {}\n", kind.name());
    for c in curves {
        let pts: Vec<(f64, f64)> = c.points.iter().map(|&(a, j)| (a as f64, j)).collect();
        out.push_str(&render::series(&format!("{} tcf={:.2}", c.model.name(), c.tcf), &pts));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_progress_has_curves() {
        let curves = run_dataset(DatasetKind::Car, Scale::Smoke, &[0.0, 0.2]);
        assert_eq!(curves.len(), 6);
        let with_points = curves.iter().filter(|c| c.points.len() > 1).count();
        assert!(with_points > 0, "no curve accumulated accepted iterations");
        let text = render_curves(DatasetKind::Car, &curves);
        assert!(text.contains("Figure 9"));
    }

    #[test]
    fn average_traces_is_pointwise() {
        let a = vec![(0, 0.0), (10, 1.0)];
        let b = vec![(0, 1.0), (20, 2.0), (30, 3.0)];
        let avg = average_traces(&[a, b]);
        assert_eq!(avg[0], (0, 0.5));
        assert_eq!(avg[1], (15, 1.5));
        assert_eq!(avg[2], (30, 3.0));
    }
}
