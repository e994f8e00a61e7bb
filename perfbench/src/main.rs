//! `perfbench`: the repository's end-to-end benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! One process runs one workload (see `README.md` for what each covers
//! and why). With `--trace 0` it measures the end-to-end metrics with no
//! instrumentation; with `--trace 1` it runs the same work untraced and
//! then traced — timing decorators around the trainer and its models,
//! direct calls into single layers, and the `frote-obs` counters — and
//! reports the per-layer metrics plus the tracing overhead. Every run
//! checks its outputs. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.

mod edit;
mod probe;
mod repro;
mod serve;
mod stats;

use std::collections::BTreeMap;
use std::process::ExitCode;

#[global_allocator]
static HEAP: stats::PeakHeap = stats::PeakHeap;

/// End-to-end metrics every workload reports with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("work_s", "s"), ("step_p50_ms", "ms"), ("peak_heap_mb", "MB")];

/// Per-layer metrics every workload reports with `--trace 1`; a layer the
/// workload does not exercise reads 0. The step p99 is reported here rather
/// than end to end: on a 2-vCPU VM whose host steals CPU time, sub-ms
/// tails moved several-fold between consecutive runs, far past any bound.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("step_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("edit.lr_s", "s"),
    ("edit.lgbm_s", "s"),
    ("edit.rf_s", "s"),
    ("train.calls", "count"),
    ("train.share", "ratio"),
    ("train.rows_per_fit", "rows"),
    ("train.lr.ms_per_fit", "ms"),
    ("train.lgbm.ms_per_fit", "ms"),
    ("train.rf.ms_per_fit", "ms"),
    ("objective.ms_per_iter", "ms"),
    ("predict.calls", "count"),
    ("predict.rows", "count"),
    ("predict.ms", "ms"),
    ("loop_other.ms_per_iter", "ms"),
    ("edit.unattributed_share", "ratio"),
    ("model.t_edit_pred_s", "s"),
    ("model.t_edit_meas_s", "s"),
    ("select.ip.ms", "ms"),
    ("knn.borderline.ms", "ms"),
    ("ip.solve.ms", "ms"),
    ("generate.ms", "ms"),
    ("preselect.ms", "ms"),
    ("setup.prepare_ms", "ms"),
    ("experiment.table1_s", "s"),
    ("experiment.fig2_car_s", "s"),
    ("experiment.fig2_mushroom_s", "s"),
    ("experiment.table2_s", "s"),
    ("experiment.fig3_s", "s"),
    ("experiment.table3_5_s", "s"),
    ("experiment.table6_s", "s"),
    ("experiment.table7_8_s", "s"),
    ("experiment.fig9_s", "s"),
    ("frote.accept_ratio", "ratio"),
    ("encoded_cache.rebuild_ratio", "ratio"),
    ("rule_engine.compiles_per_eval", "ratio"),
    ("hist.bins_zeroed_per_node", "ratio"),
    ("serve.parse_us", "us"),
    ("serve.guard_us", "us"),
    ("serve.predict_us", "us"),
    ("serve.request_p50_us", "us"),
    ("serve.batch_p50_us", "us"),
    ("serve.rows_per_batch", "rows"),
    ("serve.shed", "count"),
    ("serve.timeouts", "count"),
    ("serve.max_rps_p99_le_10ms", "1/s"),
    ("serve.closed_loop_rps_1conn", "1/s"),
    ("serve.closed_loop_rps_nconn", "1/s"),
    ("loadgen.late_p99_ms", "ms"),
    ("publish.train_ms", "ms"),
    ("publish.other_ms", "ms"),
    ("publish.failures", "count"),
    ("trace.overhead_pct", "%"),
];

/// Workload names, in `BENCHMARK.json` order.
const WORKLOADS: &[&str] = &["edit-medium", "edit-ip", "serve-mixed", "repro-smoke"];

/// Command-line options.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (edits, requests, publishes, experiment calls).
    pub attempted: u64,
    /// Operations that failed or whose output check failed.
    pub failed: u64,
    /// Output-check failures, one line each.
    pub problems: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
}

impl Outcome {
    /// Records metric `name`.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Counts one attempted operation; `problem` marks it failed.
    pub fn check(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.fail(p);
        }
    }

    /// Counts one failed operation (already counted as attempted).
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        self.problems.push(problem);
    }

    /// Records the per-layer ratios read from the `frote-obs` counters.
    pub fn counter_ratios(&mut self) {
        let snap = frote_obs::snapshot();
        let c = |name: &str| snap.counter(name).unwrap_or(0) as f64;
        let syncs = c("encoded_cache.sync.noop")
            + c("encoded_cache.sync.append")
            + c("encoded_cache.sync.rebuild");
        let evals = c("rule_engine.eval_raw") + c("rule_engine.eval_binned");
        self.set("frote.accept_ratio", stats::ratio(c("frote.accepted"), c("frote.iterations")));
        self.set(
            "encoded_cache.rebuild_ratio",
            stats::ratio(c("encoded_cache.sync.rebuild"), syncs),
        );
        self.set(
            "rule_engine.compiles_per_eval",
            stats::ratio(c("rule_engine.clauses_compiled"), evals),
        );
        self.set(
            "hist.bins_zeroed_per_node",
            stats::ratio(c("hist.bins_zeroed"), c("hist.nodes_built")),
        );
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload {{{}}} --seed N --seconds S --trace 0|1",
        WORKLOADS.join(",")
    );
    ExitCode::from(2)
}

fn parse_options() -> Option<Options> {
    let mut opts = Options { workload: String::new(), seed: 0, seconds: 10.0, trace: false };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next()?;
        match flag.as_str() {
            "--workload" => opts.workload = value,
            "--seed" => opts.seed = value.parse().ok()?,
            "--seconds" => opts.seconds = value.parse().ok().filter(|s: &f64| *s > 0.0)?,
            "--trace" => opts.trace = matches!(value.as_str(), "1" | "true"),
            _ => return None,
        }
    }
    WORKLOADS.contains(&opts.workload.as_str()).then_some(opts)
}

/// The checked-out revision, read from `.git` when the working directory
/// is a git checkout.
fn git_revision() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}")).unwrap_or(head),
            None => head,
        },
        None => "none (not a git checkout)".to_string(),
    }
}

fn json_metrics(outcome: &Outcome, list: &[(&str, &str)]) -> Result<String, String> {
    let mut parts = Vec::with_capacity(list.len());
    for &(name, unit) in list {
        let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        parts.push(format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"));
    }
    Ok(parts.join(", "))
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("perfbench: refusing to time a debug build; build with --release");
        return ExitCode::from(2);
    }
    let Some(opts) = parse_options() else {
        return usage();
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    frote_par::set_threads(nproc);
    frote_obs::set_metrics_enabled(false);
    println!(
        "# host: nproc={nproc} threads={} split_mode={} profile=release rev={}",
        frote_par::threads(),
        frote_ml::default_split_mode().name(),
        git_revision(),
    );
    println!(
        "# run: workload={} seed={} seconds={} trace={}",
        opts.workload,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace)
    );

    let mut outcome = match opts.workload.as_str() {
        "edit-medium" => edit::run(&edit::MEDIUM, &opts),
        "edit-ip" => edit::run(&edit::IP, &opts),
        "serve-mixed" => serve::run(&opts),
        "repro-smoke" => repro::run(&opts),
        _ => unreachable!("validated by parse_options"),
    };
    outcome.set("peak_heap_mb", stats::peak_heap_mb());
    outcome.set("peak_rss_mb", stats::peak_rss_mb());

    for problem in &outcome.problems {
        println!("# FAILED: {problem}");
    }
    let list = if opts.trace { PER_LAYER } else { END_TO_END };
    if !opts.trace {
        if let Some((name, _)) =
            list.iter().find(|(n, _)| outcome.metrics.get(*n).is_none_or(|v| *v <= 0.0))
        {
            eprintln!("perfbench: end-to-end metric {name} was not measured");
            return ExitCode::FAILURE;
        }
    }
    let metrics = match json_metrics(&outcome, list) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if outcome.attempted == 0 {
        eprintln!("perfbench: the workload attempted no operation");
        return ExitCode::FAILURE;
    }
    let correct = outcome.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.attempted, outcome.failed,
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every metric the program prints is declared in `BENCHMARK.json` with
    /// the same unit, and the file declares no other metric.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let all: Vec<_> = END_TO_END.iter().chain(PER_LAYER).collect();
        assert_eq!(json.matches("\"unit\":").count(), all.len());
        for (name, unit) in all {
            let at = json.find(&format!("\"name\": \"{name}\"")).expect("metric declared");
            let rest = &json[at..];
            let u = rest.find("\"unit\":").expect("a unit follows the name");
            assert!(rest[u..].starts_with(&format!("\"unit\": \"{unit}\"")), "{name}: {unit}");
        }
    }
}
