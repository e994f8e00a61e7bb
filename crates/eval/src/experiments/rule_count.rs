//! Figure 3 (and supplement Figure 10): effect of the feedback rule set
//! size, `|F| ∈ {8, 10, 15, 20}` at `tcf = 0.2`.

use frote_data::synth::DatasetKind;

use crate::aggregate::BoxStats;
use crate::models::ModelKind;
use crate::render;
use crate::runner::{fan_out, run_once, run_seed, RunSpec};
use crate::scale::Scale;
use crate::setup::prepare;

/// The FRS-size grid of the paper's Figure 3.
pub const SIZE_GRID: [usize; 4] = [8, 10, 15, 20];

/// One Figure 3 cell.
#[derive(Debug, Clone)]
pub struct RuleCountCell {
    /// Requested rule set size.
    pub frs_size: usize,
    /// Model family.
    pub model: ModelKind,
    /// Initial / modified / final box stats of test `J̄`.
    pub initial: Option<BoxStats>,
    /// After the relabel strategy.
    pub modified: Option<BoxStats>,
    /// After FROTE.
    pub final_: Option<BoxStats>,
    /// Non-degenerate run count.
    pub runs: usize,
    /// Mean number of rules actually drawn (conflict-free draws may fall
    /// short of the request — the paper reports the same caveat).
    pub mean_drawn: f64,
}

/// Runs the experiment on one dataset.
pub fn run_dataset(kind: DatasetKind, scale: Scale, sizes: &[usize]) -> Vec<RuleCountCell> {
    let setup = prepare(kind, scale, 42);
    let specs: Vec<(RunSpec, usize)> = ModelKind::ALL
        .iter()
        .flat_map(|&model| {
            sizes.iter().map(move |&frs_size| {
                (RunSpec { frs_size, tcf: 0.2, ..RunSpec::new(model, scale) }, scale.runs())
            })
        })
        .collect();
    let results = fan_out(&specs, |spec, r| {
        run_once(&setup, spec, run_seed(20_000 + spec.frs_size as u64 * 31, r))
    });
    specs
        .iter()
        .zip(results)
        .map(|((spec, _), results)| {
            let initial: Vec<f64> = results.iter().map(|r| r.initial.j).collect();
            let modified: Vec<f64> = results.iter().map(|r| r.modified.j).collect();
            let final_: Vec<f64> = results.iter().map(|r| r.final_.j).collect();
            let mean_drawn = if results.is_empty() {
                0.0
            } else {
                results.iter().map(|r| r.frs_len as f64).sum::<f64>() / results.len() as f64
            };
            RuleCountCell {
                frs_size: spec.frs_size,
                model: spec.model,
                runs: results.len(),
                mean_drawn,
                initial: BoxStats::of(&initial),
                modified: BoxStats::of(&modified),
                final_: BoxStats::of(&final_),
            }
        })
        .collect()
}

/// Renders the cells.
pub fn render_cells(kind: DatasetKind, cells: &[RuleCountCell]) -> String {
    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            let show = |b: &Option<BoxStats>| {
                b.map(|s| format!("{:.3}", s.median)).unwrap_or_else(|| "-".to_string())
            };
            vec![
                c.model.name().to_string(),
                c.frs_size.to_string(),
                format!("{:.1}", c.mean_drawn),
                c.runs.to_string(),
                show(&c.initial),
                show(&c.modified),
                show(&c.final_),
            ]
        })
        .collect();
    render::table(
        &format!("Figure 3 data: {} — median J̄ vs |F| (tcf = 0.2)", kind.name()),
        &["Model", "|F| req", "|F| drawn", "runs", "initial", "relabel", "final"],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_produces_cells() {
        let cells = run_dataset(DatasetKind::Car, Scale::Smoke, &[8]);
        assert_eq!(cells.len(), 3);
        for c in &cells {
            // Smoke pools are small; draws may return fewer than 8 rules but
            // must return some.
            assert!(c.mean_drawn > 0.0 || c.runs == 0);
        }
        let text = render_cells(DatasetKind::Car, &cells);
        assert!(text.contains("Figure 3 data"));
    }
}
