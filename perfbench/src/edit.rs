//! The edit workloads: seeded FROTE edits (Algorithm 1) at medium scale.
//!
//! A pass runs every edit of the workload once, on a fixed slice drawn by
//! the paper's §5.1 protocol (`frote_eval::setup::prepare` plus one
//! `prepare_run` draw per edit); `--seed` rotates the order of the edits.
//! `work_s` is the geometric mean, over the model families, of each
//! family's median time per pass (for one family, the median pass time);
//! the steps are the FROTE iterations, timed from one observer callback to
//! the next, and `step_p50_ms` is the same geometric mean of each family's
//! median step.

use std::hash::Hasher;
use std::sync::Arc;
use std::time::Instant;

use frote::preselect::BasePopulation;
use frote::{
    Frote, FroteConfig, FroteOutput, LabelPolicy, ModStrategy, SelectCache, SelectionStrategy,
};
use frote_bench::benchgate::FnvHasher;
use frote_data::synth::DatasetKind;
use frote_data::Dataset;
use frote_eval::runner::{frote_config, prepare_run};
use frote_eval::setup::prepare;
use frote_eval::{ModelKind, RunSpec, Scale};
use frote_ml::{Classifier, TrainAlgorithm};
use frote_opt::SelectionProblem;
use frote_rules::FeedbackRuleSet;
use frote_smote::borderline_weights;
use rand::rngs::StdRng;

use crate::probe::{Probe, TimedTrainer, TrainEvent};
use crate::stats::{geomean, hash_dataset, hash_report, median, quantile, ratio};
use crate::{Options, Outcome};

/// One edit workload: a dataset, the model families edited, the
/// selection strategy, and the rule-set sizes drawn.
pub struct EditWorkload {
    name: &'static str,
    kind: DatasetKind,
    families: &'static [ModelKind],
    selection: SelectionStrategy,
    frs_sizes: &'static [usize],
    edits_per_size: usize,
    /// Seed of the fixed slice the edits run on; `--seed` only rotates the
    /// order of the edits within a pass.
    slice_seed: u64,
    /// FNV digest of each edit's final `D̂` plus its report, in canonical
    /// edit order.
    pinned: &'static [u64],
}

/// `edit-medium`: Adult, |F| = 3, tcf 0.2, relabel, random selection, one
/// edit per family on a fixed slice. An edit's length depends on which
/// candidates its random stream gets accepted (the loop stops once the
/// quota fills), so seeded inputs would move one edit's time by ±30%; the
/// slice is pinned instead and the seed rotates the family order.
pub const MEDIUM: EditWorkload = EditWorkload {
    name: "edit-medium",
    kind: DatasetKind::Adult,
    families: &[ModelKind::Lr, ModelKind::Lgbm, ModelKind::Rf],
    selection: SelectionStrategy::Random,
    frs_sizes: &[3],
    edits_per_size: 1,
    slice_seed: 3,
    pinned: &[0xce9b_c097_045e_39b8, 0x0f6b_a880_777d_ff97, 0x8e81_2e21_4a70_b471],
};

/// `edit-ip`: Nursery, RF, IP selection (the paper's Table 3), |F| in
/// {3, 15}, three draws each, on a fixed slice: seeded draws move the
/// training-set size, and with it the IP's working set and peak memory,
/// by up to 3×.
pub const IP: EditWorkload = EditWorkload {
    name: "edit-ip",
    kind: DatasetKind::Nursery,
    families: &[ModelKind::Rf],
    selection: SelectionStrategy::Ip,
    frs_sizes: &[3, 15],
    edits_per_size: 3,
    slice_seed: 3,
    pinned: &[
        0x3dc1_483a_0055_b48b,
        0xa912_09f4_d124_b5a8,
        0xb7a4_772d_7b03_a42f,
        0x4883_f70c_8e7a_2857,
        0x8fd4_cefe_93e6_dbdb,
        0xaed8_1ab7_d2aa_9a60,
    ],
};

/// Setup repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Draw attempts per edit before the workload gives up on a seed.
const MAX_DRAWS: u64 = 64;

/// Lowest share of an edit's wall time the traced layers must cover.
const MIN_ATTRIBUTED: f64 = 0.95;

/// One prepared edit: everything `Frote::run` takes.
struct EditInput {
    /// Position in the workload's canonical edit order.
    index: usize,
    family: ModelKind,
    frs: FeedbackRuleSet,
    /// The modified training set: the edit's input `D̂`.
    input: Dataset,
    config: FroteConfig,
    /// The run's RNG, positioned after the draws.
    rng: StdRng,
}

impl EditInput {
    fn label(&self) -> String {
        format!("{} |F|={} rows={}", self.family.name(), self.frs.len(), self.input.n_rows())
    }
}

/// One timed edit.
struct EditRun {
    out: FroteOutput,
    start: Instant,
    end: Instant,
    /// Observer callback times, one per iteration.
    iterations: Vec<Instant>,
}

impl EditRun {
    fn wall_s(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }

    fn digest(&self) -> u64 {
        let mut h = FnvHasher::new();
        hash_dataset(&self.out.dataset, &mut h);
        hash_report(&self.out.report, &mut h);
        h.finish()
    }
}

/// Prepares the slice and draws every edit's inputs; also returns the
/// seconds `prepare` took.
fn setup(w: &EditWorkload, seed: u64) -> Result<(Vec<EditInput>, f64), String> {
    let t = Instant::now();
    let bench = prepare(w.kind, Scale::Medium, seed);
    let prepare_s = t.elapsed().as_secs_f64();
    let mut inputs = Vec::new();
    for (s, &size) in w.frs_sizes.iter().enumerate() {
        for e in 0..w.edits_per_size {
            let ordinal = (s * w.edits_per_size + e) as u64;
            let spec = |model| RunSpec {
                frs_size: size,
                selection: w.selection,
                ..RunSpec::new(model, Scale::Medium)
            };
            // The draw depends only on the seed and the cell, so every
            // family edits the same rule set and split.
            let draw = (0..MAX_DRAWS).find_map(|attempt| {
                let run_seed = seed.wrapping_mul(1_000_003).wrapping_add(ordinal * 7_919 + attempt);
                let p = prepare_run(&bench, &spec(w.families[0]), run_seed)?;
                let input = ModStrategy::Relabel.apply(&p.train, &p.frs);
                (input.n_rows() >= 20).then_some((p, input))
            });
            let Some((p, input)) = draw else {
                return Err(format!("{}: no usable draw for |F|={size} at seed {seed}", w.name));
            };
            for &family in w.families {
                inputs.push(EditInput {
                    index: inputs.len(),
                    family,
                    frs: p.frs.clone(),
                    input: input.clone(),
                    config: frote_config(&bench, &spec(family)),
                    rng: p.rng.clone(),
                });
            }
        }
    }
    Ok((inputs, prepare_s))
}

fn run_edit(input: &EditInput, trainer: &dyn TrainAlgorithm) -> Result<EditRun, String> {
    let mut rng = input.rng.clone();
    let mut iterations = Vec::with_capacity(input.config.iteration_limit);
    let start = Instant::now();
    let out = Frote::new(input.config)
        .run_with_observer(&input.input, trainer, &input.frs, &mut rng, |_, _| {
            iterations.push(Instant::now());
        })
        .map_err(|e| format!("{}: edit failed: {e}", input.label()))?;
    Ok(EditRun { out, start, end: Instant::now(), iterations })
}

/// Checks the paper's invariants on one edit's output.
fn check_edit(input: &EditInput, run: &EditRun) -> Option<String> {
    let (out, base) = (&run.out, input.input.n_rows());
    if out.dataset.n_rows() != base + out.report.instances_added {
        return Some(format!("{}: D̂ row accounting is off", input.label()));
    }
    for i in base..out.dataset.n_rows() {
        let row = out.dataset.row(i);
        let label = out.dataset.label(i);
        let covered =
            input.frs.iter().any(|r| r.dist().mode() == label && r.clause().satisfied_by(&row));
        if !covered {
            return Some(format!(
                "{}: synthetic row {i} satisfies no rule of its class",
                input.label()
            ));
        }
    }
    let mut floor = out.report.initial.j;
    for r in out.report.iterations.iter().filter(|r| r.accepted) {
        if r.candidate.j <= floor {
            return Some(format!(
                "{}: iteration {} accepted a non-improving D̂",
                input.label(),
                r.iteration
            ));
        }
        floor = r.candidate.j;
    }
    None
}

/// Time split of one traced edit (seconds).
#[derive(Debug, Default, Clone, Copy)]
struct Attribution {
    wall: f64,
    train: f64,
    objective: f64,
    other: f64,
    iterations: usize,
    predicted: f64,
}

impl Attribution {
    fn attributed_share(&self) -> f64 {
        ratio(self.train + self.objective + self.other, self.wall)
    }
}

/// Splits a traced edit into train (inside the trainer), objective (train
/// return to observer callback) and loop remainder (observer return to the
/// next train start; before the first loop iteration it also covers the
/// initial objective and preselect). Time before the first fit and after
/// the last callback stays unattributed.
///
/// The cost model `T_edit = T_setup + τ·(T_train(|D̂|) + T_obj + T_other)`
/// is calibrated on the initial fit (seconds per row) and the first loop
/// iterations only, then predicts the whole edit.
fn attribute(run: &EditRun, trains: &[TrainEvent]) -> Option<Attribution> {
    let obs = &run.iterations;
    if trains.len() != obs.len() + 1 {
        return None;
    }
    let secs = |a: Instant, b: Instant| (b - a).as_secs_f64();
    let mut att = Attribution { wall: run.wall_s(), iterations: obs.len(), ..Default::default() };
    att.train = trains.iter().map(TrainEvent::secs).sum();
    let mut objective = Vec::with_capacity(obs.len());
    let mut other = Vec::with_capacity(obs.len());
    for (i, &o) in obs.iter().enumerate() {
        objective.push(secs(trains[i + 1].end, o));
        other.push(secs(if i == 0 { trains[0].end } else { obs[i - 1] }, trains[i + 1].start));
    }
    att.objective = objective.iter().sum();
    att.other = other.iter().sum();

    let per_row = trains[0].secs() / trains[0].rows.max(1) as f64;
    let t_setup = secs(run.start, trains[0].end);
    let t_obj = objective.first().copied().unwrap_or(0.0);
    let t_other = other.get(1).or(other.first()).copied().unwrap_or(0.0);
    let t_train: f64 = trains[1..].iter().map(|t| per_row * t.rows as f64).sum();
    att.predicted = t_setup + t_train + obs.len() as f64 * (t_obj + t_other);
    Some(att)
}

/// Direct calls into the selection, kNN, IP, generation and preselect
/// layers on one `D̂` with its model (milliseconds each).
#[derive(Debug, Default, Clone, Copy)]
struct LayerTimes {
    preselect: f64,
    select_ip: f64,
    knn: f64,
    ip_solve: f64,
    generate: f64,
}

fn probe_layers(input: &EditInput, ds: &Dataset, model: &dyn Classifier) -> LayerTimes {
    let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
    let (k, frs) = (input.config.k, &input.frs);
    let eta = input.config.instances_per_iteration.unwrap_or(1);
    let mut rng = input.rng.clone();
    let mut lt = LayerTimes::default();

    let t = Instant::now();
    let bp = BasePopulation::pre_select(ds, frs, k);
    lt.preselect = ms(t);

    let t = Instant::now();
    let base = SelectionStrategy::Ip.select(
        ds,
        frs,
        &bp,
        eta,
        k,
        model,
        &mut SelectCache::new(),
        &mut rng,
    );
    lt.select_ip = ms(t);

    let viable = bp.viable(k);
    if !viable.is_empty() {
        let mut union: Vec<usize> =
            viable.iter().flat_map(|&r| bp.population(r).members.iter().copied()).collect();
        union.sort_unstable();
        union.dedup();
        let predicted = model.predict_dataset(ds);
        let t = Instant::now();
        let weights = borderline_weights(ds, &predicted, &union);
        lt.knn = ms(t);
        let coverage = viable
            .iter()
            .map(|&r| {
                let members = &bp.population(r).members;
                members
                    .iter()
                    .map(|row| union.binary_search(row).expect("member of union"))
                    .collect()
            })
            .collect();
        let lower = k + 1;
        let problem =
            SelectionProblem::new(weights, coverage, lower, (eta / viable.len()).max(lower));
        let t = Instant::now();
        std::hint::black_box(problem.solve());
        lt.ip_solve = ms(t);
    }

    let t = Instant::now();
    let generator = frote::generate::Generator::new(ds, frs, &bp, k, LabelPolicy::FromRule);
    std::hint::black_box(generator.generate(&base, &mut rng));
    lt.generate = ms(t);
    lt
}

/// Runs every edit once and returns the summed edit wall time; `probe`
/// switches on the traced variant.
fn run_pass(
    inputs: &[EditInput],
    probe: Option<&Arc<Probe>>,
    outcome: &mut Outcome,
    mut each: impl FnMut(&EditInput, &EditRun),
) -> f64 {
    let mut edit_s = 0.0;
    for input in inputs {
        let bare = input.family.trainer(Scale::Medium);
        let result = match probe {
            Some(p) => run_edit(input, &TimedTrainer::new(bare, p)),
            None => run_edit(input, bare.as_ref()),
        };
        match result {
            Ok(run) => {
                edit_s += run.wall_s();
                outcome.check(check_edit(input, &run));
                each(input, &run);
            }
            Err(e) => outcome.check(Some(e)),
        }
    }
    edit_s
}

/// Runs an edit workload.
pub fn run(w: &EditWorkload, opts: &Options) -> Outcome {
    let mut outcome = Outcome::default();
    let mut setup_s = Vec::new();
    let mut prepare_ms = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        match setup(w, w.slice_seed) {
            Ok((inputs, prep)) => {
                setup_s.push(t.elapsed().as_secs_f64());
                prepare_ms.push(prep * 1e3);
                prepared = Some(inputs);
            }
            Err(e) => {
                outcome.check(Some(e));
                return outcome;
            }
        }
    }
    let mut inputs = prepared.expect("at least one setup ran");
    let n = inputs.len();
    inputs.rotate_left((opts.seed % n as u64) as usize);
    outcome.set("setup_s", median(&setup_s));
    outcome.set("setup.prepare_ms", median(&prepare_ms));
    for input in &inputs {
        println!("# edit: {}", input.label());
    }

    // Untraced passes: the end-to-end numbers (and the trace baseline).
    let budget = if opts.trace { opts.seconds / 2.0 } else { opts.seconds };
    let mut digests: Vec<Option<u64>> = vec![None; inputs.len()];
    let mut pass_s = Vec::new();
    let mut steps_ms = Vec::new();
    let mut family_s: Vec<(ModelKind, f64)> = Vec::new();
    // Per family, the summed time of its edits in each pass, and the
    // times of its iterations.
    let mut family_pass_s: Vec<Vec<f64>> = vec![Vec::new(); w.families.len()];
    let mut family_steps_ms: Vec<Vec<f64>> = vec![Vec::new(); w.families.len()];
    let begin = Instant::now();
    // Whole passes only, and only while one more still fits the budget.
    while pass_s.last().is_none_or(|last| begin.elapsed().as_secs_f64() + last <= budget) {
        let mut mismatches = Vec::new();
        let mut this_pass = vec![0.0; w.families.len()];
        let secs = run_pass(&inputs, None, &mut outcome, |input, run| {
            let d = run.digest();
            if *digests[input.index].get_or_insert(d) != d {
                mismatches.push(format!("{}: D̂ digest changed between passes", input.label()));
            }
            let steps = run.iterations.windows(2).map(|p| (p[1] - p[0]).as_secs_f64() * 1e3);
            let steps: Vec<f64> = steps.collect();
            steps_ms.extend(&steps);
            family_s.push((input.family, run.wall_s()));
            if let Some(f) = w.families.iter().position(|&f| f == input.family) {
                this_pass[f] += run.wall_s();
                family_steps_ms[f].extend(steps);
            }
        });
        mismatches.into_iter().for_each(|m| outcome.fail(m));
        pass_s.push(secs);
        family_pass_s.iter_mut().zip(this_pass).for_each(|(all, s)| all.push(s));
    }
    for (i, d) in digests.iter().enumerate() {
        let d = d.unwrap_or(0);
        println!("# digest: edit={i} fnv={d:016x}");
        if w.pinned.get(i) != Some(&d) {
            outcome
                .fail(format!("{}: edit {i} digest {d:016x} differs from the pinned one", w.name));
        }
    }
    // The geometric mean weights the families equally: a 2x slowdown of
    // any one family's edits moves `work_s` by 2^(1/families), however
    // small its share of the pass. The step median is taken the same way,
    // since a pooled median of fast RF and slow LGBM iterations would sit
    // in the gap between the two.
    let work_s = geomean(family_pass_s.iter().map(|s| median(s)));
    let pass_median = median(&pass_s);
    outcome.set("work_s", work_s);
    outcome.set("step_p50_ms", geomean(family_steps_ms.iter().map(|s| median(s))));
    outcome.set("step_p99_ms", quantile(&steps_ms, 0.99));
    for (family, name) in [
        (ModelKind::Lr, "edit.lr_s"),
        (ModelKind::Lgbm, "edit.lgbm_s"),
        (ModelKind::Rf, "edit.rf_s"),
    ] {
        let times: Vec<f64> =
            family_s.iter().filter(|(f, _)| *f == family).map(|(_, s)| *s).collect();
        outcome.set(name, median(&times));
    }
    println!(
        "# passes: {} (median {pass_median:.3} s, family geometric mean {work_s:.3} s), \
         {} iterations",
        pass_s.len(),
        steps_ms.len()
    );
    for (family, times) in w.families.iter().zip(&family_pass_s) {
        println!("# family: {} per-pass seconds {times:.3?}", family.name());
    }
    if opts.trace {
        traced(w, &inputs, pass_median, &mut outcome);
    }
    outcome
}

/// The traced pass: decorators on, `frote-obs` metrics on, then direct
/// layer calls on every edit's input and final `D̂`.
fn traced(w: &EditWorkload, inputs: &[EditInput], untraced_s: f64, outcome: &mut Outcome) {
    let probe = Probe::new();
    frote_obs::reset();
    frote_obs::set_metrics_enabled(true);
    let mut edits: Vec<(ModelKind, Attribution, Vec<TrainEvent>)> = Vec::new();
    let mut layers = Vec::new();
    let (mut predict_calls, mut predict_rows, mut predict_s) = (0u64, 0u64, 0.0);
    let mut unattributed = Vec::new();
    run_pass(inputs, Some(&probe), outcome, |input, run| {
        let log = probe.take();
        predict_calls += log.predict_calls;
        predict_rows += log.predict_rows;
        predict_s += log.predict_s;
        match attribute(run, &log.trains) {
            Some(att) => {
                println!(
                    "# attribution: {} wall={:.3}s train={:.3} objective={:.3} other={:.3} \
                     unattributed={:.4} model_pred={:.3}s",
                    input.label(),
                    att.wall,
                    att.train,
                    att.objective,
                    att.other,
                    1.0 - att.attributed_share(),
                    att.predicted,
                );
                unattributed.push((input.label(), 1.0 - att.attributed_share()));
                edits.push((input.family, att, log.trains));
            }
            None => unattributed.push((input.label(), 1.0)),
        }
        // The direct layer calls stay out of the loop's counters.
        frote_obs::set_metrics_enabled(false);
        let initial = input.family.trainer(Scale::Medium).train(&input.input);
        layers.push(probe_layers(input, &input.input, initial.as_ref()));
        layers.push(probe_layers(input, &run.out.dataset, run.out.model.as_ref()));
        probe.take();
        frote_obs::set_metrics_enabled(true);
    });
    frote_obs::set_metrics_enabled(false);
    outcome.counter_ratios();

    for (label, share) in &unattributed {
        if *share > 1.0 - MIN_ATTRIBUTED {
            outcome.fail(format!(
                "{}: {label}: only {:.1}% of edit time attributed",
                w.name,
                100.0 * (1.0 - share)
            ));
        }
    }
    let sum = |f: &dyn Fn(&Attribution) -> f64| edits.iter().map(|(_, a, _)| f(a)).sum::<f64>();
    let (wall, train, iters) = (sum(&|a| a.wall), sum(&|a| a.train), sum(&|a| a.iterations as f64));
    let fits: Vec<&TrainEvent> = edits.iter().flat_map(|(_, _, t)| t).collect();
    outcome.set("train.calls", fits.len() as f64);
    outcome.set("train.share", ratio(train, wall));
    outcome.set(
        "train.rows_per_fit",
        ratio(fits.iter().map(|t| t.rows as f64).sum(), fits.len() as f64),
    );
    for (family, name) in [
        (ModelKind::Lr, "train.lr.ms_per_fit"),
        (ModelKind::Lgbm, "train.lgbm.ms_per_fit"),
        (ModelKind::Rf, "train.rf.ms_per_fit"),
    ] {
        let times: Vec<f64> = edits
            .iter()
            .filter(|(f, _, _)| *f == family)
            .flat_map(|(_, _, t)| t.iter().map(TrainEvent::secs))
            .collect();
        outcome.set(name, ratio(times.iter().sum::<f64>() * 1e3, times.len() as f64));
    }
    outcome.set("objective.ms_per_iter", ratio(sum(&|a| a.objective) * 1e3, iters));
    outcome.set("loop_other.ms_per_iter", ratio(sum(&|a| a.other) * 1e3, iters));
    outcome.set("predict.calls", predict_calls as f64);
    outcome.set("predict.rows", predict_rows as f64);
    outcome.set("predict.ms", predict_s * 1e3);
    let worst = unattributed.iter().map(|(_, s)| *s).fold(0.0, f64::max);
    outcome.set("edit.unattributed_share", worst);
    outcome.set("model.t_edit_pred_s", sum(&|a| a.predicted));
    outcome.set("model.t_edit_meas_s", wall);
    let mean =
        |f: &dyn Fn(&LayerTimes) -> f64| ratio(layers.iter().map(f).sum(), layers.len() as f64);
    outcome.set("preselect.ms", mean(&|l| l.preselect));
    outcome.set("select.ip.ms", mean(&|l| l.select_ip));
    outcome.set("knn.borderline.ms", mean(&|l| l.knn));
    outcome.set("ip.solve.ms", mean(&|l| l.ip_solve));
    outcome.set("generate.ms", mean(&|l| l.generate));
    outcome.set("trace.overhead_pct", 100.0 * (ratio(wall, untraced_s) - 1.0));
}
