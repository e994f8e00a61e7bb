//! Runs every table/figure reproduction in sequence (smoke scale by
//! default) and prints each rendered table.

use frote::ModStrategy;
use frote_bench::CliOptions;
use frote_data::synth::DatasetKind;
use frote_eval::experiments::{
    benefit, overlay_cmp, probabilistic, progress, rule_count, selection_cmp, table1,
};
use frote_eval::Scale;

fn main() {
    let opts = CliOptions::from_env();
    let scale = opts.scale;
    println!("== FROTE reproduction: all experiments ({} scale) ==\n", scale.name());

    println!("{}", table1::run(scale));

    let fig2_kinds = match scale {
        Scale::Paper | Scale::Medium => {
            vec![DatasetKind::Adult, DatasetKind::WineQuality, DatasetKind::Contraceptive]
        }
        Scale::Smoke => vec![DatasetKind::Car, DatasetKind::Mushroom],
    };
    let tcf_grid: &[f64] = match scale {
        Scale::Paper | Scale::Medium => &benefit::TCF_GRID,
        Scale::Smoke => &[0.0, 0.2],
    };
    for kind in fig2_kinds {
        let cells = benefit::run_dataset(kind, scale, ModStrategy::Relabel, tcf_grid);
        println!("{}", benefit::render_cells(kind, ModStrategy::Relabel, &cells));
    }

    let binary = [DatasetKind::BreastCancer, DatasetKind::Mushroom];
    let cells = overlay_cmp::run_datasets(&binary, scale);
    println!("{}", overlay_cmp::render_delta_j("Table 2: ΔJ̄ vs Overlay", &cells));

    let cells = rule_count::run_dataset(DatasetKind::BreastCancer, scale, &rule_count::SIZE_GRID);
    println!("{}", rule_count::render_cells(DatasetKind::BreastCancer, &cells));

    let sel_kinds = match scale {
        Scale::Paper | Scale::Medium => DatasetKind::ALL.to_vec(),
        Scale::Smoke => vec![DatasetKind::Car, DatasetKind::Mushroom],
    };
    let cells = selection_cmp::run_datasets(&sel_kinds, scale);
    println!("{}", selection_cmp::render_table3(&sel_kinds, &cells));
    println!("{}", selection_cmp::render_table4(&sel_kinds, &cells));
    println!("{}", selection_cmp::render_table5(&sel_kinds, &cells));

    let cells = probabilistic::run_datasets(&[DatasetKind::Mushroom], scale);
    println!("{}", probabilistic::render_cells(&cells));

    let adult = overlay_cmp::run_datasets(&[DatasetKind::Adult], scale);
    println!("{}", overlay_cmp::render_delta_j("Table 7: ΔJ̄ vs Overlay on Adult", &adult));
    println!("{}", overlay_cmp::render_mra_f(&adult));

    let fig9_kind = match scale {
        Scale::Paper | Scale::Medium => DatasetKind::Adult,
        Scale::Smoke => DatasetKind::Car,
    };
    let curves = progress::run_dataset(fig9_kind, scale, &[0.0, 0.2]);
    print!("{}", progress::render_curves(fig9_kind, &curves));
    opts.emit_metrics();
}
