//! Ablation: the supplement's online-learning proxy selection strategy vs
//! random and IP. The supplement judged the full evaluation-based variant
//! impractical; this measures what the O(|P|) proxy variant buys.

use frote::SelectionStrategy;
use frote_bench::CliOptions;
use frote_data::synth::DatasetKind;
use frote_eval::aggregate::Summary;
use frote_eval::runner::{fan_out, run_once, run_seed, RunSpec};
use frote_eval::setup::{prepare, BenchmarkSetup};
use frote_eval::{render, ModelKind};

fn main() {
    let opts = CliOptions::from_env();
    let kinds = [DatasetKind::Car, DatasetKind::Mushroom, DatasetKind::Contraceptive];
    let strategies = [
        SelectionStrategy::Random,
        SelectionStrategy::Ip,
        SelectionStrategy::OnlineProxy,
        SelectionStrategy::JointNeighbors,
    ];
    let setups: Vec<BenchmarkSetup> =
        kinds.iter().map(|&kind| prepare(kind, opts.scale, 42)).collect();
    let mut cells = Vec::new();
    for setup in &setups {
        for model in [ModelKind::Rf, ModelKind::Lr] {
            for selection in strategies {
                let spec = RunSpec { selection, ..RunSpec::new(model, opts.scale) };
                cells.push(((setup, spec), opts.scale.runs()));
            }
        }
    }
    let results = fan_out(&cells, |(setup, spec), r| run_once(setup, spec, run_seed(70_000, r)));
    let rows: Vec<Vec<String>> = cells
        .chunks(strategies.len())
        .zip(results.chunks(strategies.len()))
        .map(|(row, results)| {
            let ((setup, spec), _) = row[0];
            let mut cols = vec![setup.kind.name().to_string(), spec.model.name().to_string()];
            for results in results {
                let dj: Vec<f64> = results.iter().map(|r| r.delta_j()).collect();
                cols.push(Summary::of(&dj).display());
            }
            cols
        })
        .collect();
    println!(
        "{}",
        render::table(
            "Ablation: ΔJ̄ by selection strategy (random / IP / online proxy / joint)",
            &["Dataset", "Model", "ΔJ random", "ΔJ IP", "ΔJ online", "ΔJ joint"],
            &rows,
        )
    );
    opts.emit_metrics();
}
