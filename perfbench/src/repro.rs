//! `repro-smoke`: the `repro_all` experiment sequence at smoke scale.
//!
//! The experiments draw their own inputs from the reproduction's fixed
//! protocol seeds, so every run does the same work and renders the same
//! tables; `--seed` only rotates the order of the calls. A pass makes the
//! nine experiment calls `repro_all` makes; `work_s` is the median pass
//! time and the steps are the single calls. `step_p50_ms` is the geometric
//! mean of each call's median: the calls take from under a second to
//! several, and a median across them flips between neighbouring calls.

use std::time::Instant;

use frote::ModStrategy;
use frote_data::synth::DatasetKind;
use frote_eval::experiments::{
    benefit, overlay_cmp, probabilistic, progress, rule_count, selection_cmp, table1,
};
use frote_eval::setup::prepare;
use frote_eval::Scale;

use crate::stats::{digest_str, geomean, median, quantile, ratio};
use crate::{Options, Outcome};

const S: Scale = Scale::Smoke;

/// FNV digest of the nine rendered outputs, concatenated in call order.
const PINNED_DIGEST: u64 = 0xbebd_8908_fd99_b2c3;

/// Setup repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// The datasets the sequence prepares a §5.1 rule pool for.
const PREPARED: &[DatasetKind] =
    &[DatasetKind::Car, DatasetKind::Mushroom, DatasetKind::BreastCancer, DatasetKind::Adult];

fn fig2(kind: DatasetKind) -> String {
    let cells = benefit::run_dataset(kind, S, ModStrategy::Relabel, &[0.0, 0.2]);
    benefit::render_cells(kind, ModStrategy::Relabel, &cells)
}

/// An experiment call: its name and what it renders.
type Call = (&'static str, fn() -> String);

/// The calls `repro_all` makes at smoke scale, in its order.
const CALLS: &[Call] = &[
    ("table1", || table1::run(S)),
    ("fig2_car", || fig2(DatasetKind::Car)),
    ("fig2_mushroom", || fig2(DatasetKind::Mushroom)),
    ("table2", || {
        let binary = [DatasetKind::BreastCancer, DatasetKind::Mushroom];
        overlay_cmp::render_delta_j(
            "Table 2: ΔJ̄ vs Overlay",
            &overlay_cmp::run_datasets(&binary, S),
        )
    }),
    ("fig3", || {
        let kind = DatasetKind::BreastCancer;
        rule_count::render_cells(kind, &rule_count::run_dataset(kind, S, &rule_count::SIZE_GRID))
    }),
    ("table3_5", || {
        let kinds = [DatasetKind::Car, DatasetKind::Mushroom];
        let cells = selection_cmp::run_datasets(&kinds, S);
        [
            selection_cmp::render_table3(&kinds, &cells),
            selection_cmp::render_table4(&kinds, &cells),
            selection_cmp::render_table5(&kinds, &cells),
        ]
        .concat()
    }),
    ("table6", || {
        probabilistic::render_cells(&probabilistic::run_datasets(&[DatasetKind::Mushroom], S))
    }),
    ("table7_8", || {
        let adult = overlay_cmp::run_datasets(&[DatasetKind::Adult], S);
        let title = "Table 7: ΔJ̄ vs Overlay on Adult";
        overlay_cmp::render_delta_j(title, &adult) + &overlay_cmp::render_mra_f(&adult)
    }),
    ("fig9", || {
        progress::render_curves(
            DatasetKind::Car,
            &progress::run_dataset(DatasetKind::Car, S, &[0.0, 0.2]),
        )
    }),
];

/// One pass: every call, starting at `first`; returns the per-call
/// seconds and rendered outputs, both in canonical order.
fn pass(first: usize) -> (Vec<f64>, Vec<String>) {
    let mut secs = vec![0.0; CALLS.len()];
    let mut outputs = vec![String::new(); CALLS.len()];
    for k in 0..CALLS.len() {
        let i = (first + k) % CALLS.len();
        let t = Instant::now();
        outputs[i] = (CALLS[i].1)();
        secs[i] = t.elapsed().as_secs_f64();
    }
    (secs, outputs)
}

/// Runs `repro-smoke`.
pub fn run(opts: &Options) -> Outcome {
    let mut outcome = Outcome::default();
    let mut setup_s = Vec::new();
    let mut prepare_ms = Vec::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        for &kind in PREPARED {
            std::hint::black_box(prepare(kind, S, 42));
        }
        let secs = t.elapsed().as_secs_f64();
        setup_s.push(secs);
        prepare_ms.push(secs * 1e3 / PREPARED.len() as f64);
    }
    outcome.set("setup_s", median(&setup_s));
    outcome.set("setup.prepare_ms", median(&prepare_ms));

    let first = (opts.seed % CALLS.len() as u64) as usize;
    let budget = if opts.trace { opts.seconds / 2.0 } else { opts.seconds };
    let mut pass_s = Vec::new();
    let mut call_s: Vec<Vec<f64>> = vec![Vec::new(); CALLS.len()];
    let begin = Instant::now();
    // Whole passes only, and only while one more still fits the budget.
    while pass_s.last().is_none_or(|last| begin.elapsed().as_secs_f64() + last <= budget) {
        let (secs, outputs) = pass(first);
        check(&outputs, &mut outcome);
        pass_s.push(secs.iter().sum::<f64>());
        for (all, s) in call_s.iter_mut().zip(&secs) {
            all.push(*s);
        }
    }
    let work_s = median(&pass_s);
    let steps: Vec<f64> = call_s.iter().flatten().map(|s| s * 1e3).collect();
    outcome.set("work_s", work_s);
    outcome.set("step_p50_ms", geomean(call_s.iter().map(|s| median(s) * 1e3)));
    outcome.set("step_p99_ms", quantile(&steps, 0.99));
    for ((name, _), secs) in CALLS.iter().zip(&call_s) {
        outcome.set(&format!("experiment.{name}_s"), median(secs));
    }
    println!("# passes: {} (median {work_s:.3} s)", pass_s.len());

    if opts.trace {
        frote_obs::reset();
        frote_obs::set_metrics_enabled(true);
        let (secs, outputs) = pass(first);
        frote_obs::set_metrics_enabled(false);
        check(&outputs, &mut outcome);
        outcome.counter_ratios();
        outcome.set("trace.overhead_pct", 100.0 * (ratio(secs.iter().sum(), work_s) - 1.0));
    }
    outcome
}

/// The rendered tables must match the pinned digest: the sequence is
/// bit-deterministic at any thread count.
fn check(outputs: &[String], outcome: &mut Outcome) {
    let digest = digest_str(&outputs.concat());
    println!("# digest: fnv={digest:016x}");
    for ((name, _), out) in CALLS.iter().zip(outputs) {
        outcome.check(out.is_empty().then(|| format!("{name}: rendered nothing")));
    }
    if digest != PINNED_DIGEST {
        outcome
            .fail(format!("rendered tables digest {digest:016x} != pinned {PINNED_DIGEST:016x}"));
    }
}
