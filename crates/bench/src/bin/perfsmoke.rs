//! Perf smoke: times the parallelized hot paths at 1 and N threads and
//! writes a `BENCH_*.json` record (default: `benchgate::default_bench_file`
//! at the repository root; override with `--out <path>`), including an end-of-run
//! `frote-obs` metrics snapshot whose thread-invariant counters `benchdiff`
//! gates like output hashes.
//!
//! Probes cover the `frote-par` runtime (SMOTE generation, one full FROTE
//! iteration), the dense data plane (batch encoding into `FeatureMatrix`,
//! batch `predict_dataset` scoring for the RF / LGBM / LR families), the
//! quantized training plane (DT / GBDT fits in exact vs histogram split
//! mode), the numeric kernel layer (`lr_fit` blocked
//! logistic-regression training, `knn_batch` brute mixed-distance scans,
//! `rf_hist_subsample` compact candidate histograms), and the compiled
//! columnar rule engine (`rule_coverage` clause scans, `rule_quality_scan`
//! whole-set quality assessment — each against its row-at-a-time
//! interpreted twin, with the two sides' digests asserted equal). Every
//! serial/parallel pair cross-checks the determinism contract — the outputs
//! must match exactly — and records a *stable* FNV-1a output digest so
//! `benchdiff` can gate later runs against this one. Timings are recorded,
//! not gated: single-core CI hosts will legitimately report ~1× speedups,
//! and the reduction kernels are chain-bound by the byte-identical contract
//! (`f64` sums cannot be reassociated), so their single-thread gains are
//! modest by design — the parallel gradient and the cache reuse are where
//! the training-loop time goes.
//!
//! PR 9 adds the serving plane: a `serve` section with `serve_latency`
//! (sequential single-client request p50/p99 over the wire) and a
//! `serve_sweep_rows{1,16,128}` batch-size sweep under 4 concurrent
//! clients, every probe's responses digest-asserted bit-identical to a
//! direct `predict_rows` call on the same rows. `benchdiff` hard-gates the
//! response digests and warns on latency movement.

use std::hash::{Hash, Hasher};
use std::time::Instant;

use frote::{Frote, FroteConfig, SelectionStrategy};
use frote_bench::benchgate::{default_bench_file, FnvHasher};
use frote_bench::CliOptions;
use frote_data::encode::Encoder;
use frote_data::synth::{DatasetKind, SynthConfig};
use frote_data::{Binner, Dataset, FeatureMatrix, Value};
use frote_ml::distance::{MixedDistance, MixedMetric};
use frote_ml::forest::{ForestParams, RandomForestTrainer};
use frote_ml::gbdt::{Gbdt, GbdtParams, GbdtTrainer};
use frote_ml::histogram::subsample_hist_probe;
use frote_ml::knn::k_nearest_of_rows;
use frote_ml::logreg::{LogRegParams, LogisticRegression, LogisticRegressionTrainer};
use frote_ml::tree::{DecisionTreeTrainer, TreeParams};
use frote_ml::{Classifier, SplitMode, TrainAlgorithm};
use frote_rules::parse::parse_rule;
use frote_rules::quality::{assess_all, assess_interpreted, RuleQuality};
use frote_rules::{Clause, FeedbackRule, FeedbackRuleSet, Op, Predicate};
use frote_smote::{Smote, SmoteParams};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::Serialize;

/// One hot path's serial/parallel timing pair.
#[derive(Debug, Serialize)]
struct BenchRecord {
    name: String,
    serial_ms: f64,
    parallel_ms: f64,
    speedup: f64,
    /// Whether the serial and parallel outputs were bit-identical.
    identical: bool,
    /// Stable FNV-1a digest of the probe's output (hex) — the value
    /// `benchdiff` gates across runs.
    output_fnv: String,
}

/// One baseline-vs-optimized comparison of serial (single-thread) legs:
/// exact vs histogram training, the pre-kernel scalar LR loop vs the
/// kernel/blocked fit, the full-layout vs compact candidate histograms.
#[derive(Debug, Serialize)]
struct ModeComparison {
    name: String,
    baseline_ms: f64,
    optimized_ms: f64,
    speedup: f64,
}

impl ModeComparison {
    fn new(name: &str, baseline_ms: f64, optimized_ms: f64) -> Self {
        ModeComparison {
            name: name.to_string(),
            baseline_ms,
            optimized_ms,
            speedup: baseline_ms / optimized_ms,
        }
    }
}

/// One serve-path probe: request latencies over the wire through the
/// micro-batcher, with the responses digest-asserted against a direct
/// `predict_rows` call on the same rows.
#[derive(Debug, Serialize)]
struct ServeRecord {
    name: String,
    requests: usize,
    rows_per_request: usize,
    concurrency: usize,
    p50_ms: f64,
    p99_ms: f64,
    /// Whether the wire responses were bit-identical to direct scoring
    /// (always asserted; recorded for `benchdiff`).
    matches_direct: bool,
    /// Stable FNV-1a digest of all response labels in request order.
    response_fnv: String,
    /// Fraction of score attempts shed by admission control — only the
    /// PR 10 `serve_overload` probe; `None` for the latency probes.
    /// Timing-dependent, so `benchdiff` treats drift as warn-only.
    shed_rate: Option<f64>,
}

/// The whole perf-smoke report.
#[derive(Debug, Serialize)]
struct PerfSmoke {
    host_parallelism: usize,
    threads_compared: Vec<usize>,
    benches: Vec<BenchRecord>,
    mode_comparisons: Vec<ModeComparison>,
    /// Serve-path probes: latency percentiles + response digests of the
    /// PR 9 serving plane (`serve_latency`, the batch-size sweep).
    serve: Vec<ServeRecord>,
    /// End-of-run `frote-obs` snapshot: the interior counters (cache
    /// appends, FROTE accepts, histogram nodes, …) behind the timings.
    /// `benchdiff` gates the thread-invariant counters like output hashes.
    metrics: frote_obs::MetricsSnapshot,
    note: String,
}

/// Drives a capacity-2 batch queue past saturation under an injected
/// 25ms drain delay and measures the shed rate plus per-request completion
/// latency (retries included). Every request retries its way to a `200`,
/// so the digest is deterministic and gate-comparable; the shed rate is
/// arrival-timing-dependent and recorded warn-only.
///
/// Runs with `frote-obs` metrics *disabled*: a shed request is parsed and
/// guard-checked before admission control turns it away, so the engine's
/// thread-invariant counters (`rule_engine.eval_raw`, …) would otherwise
/// move with the timing-dependent shed count and flake the hard gate. The
/// probe's own record (latencies, shed rate, response digest) is computed
/// locally and unaffected.
fn run_overload_probe(
    workload: &frote_serve::Workload,
    serve_ds: &frote_data::Dataset,
    direct_model: &dyn frote_ml::Classifier,
) -> ServeRecord {
    use std::hash::Hash as _;
    use std::hash::Hasher as _;

    const REQUESTS: usize = 64;
    const ROWS: usize = 8;
    const CONCURRENCY: usize = 8;

    frote_obs::set_metrics_enabled(false);
    frote_faults::set_spec(Some("serve.batch.drain:delay:1000:21:25")).expect("valid delay spec");
    let guard = frote_serve::RowGuard::not_null(serve_ds.schema()).expect("guard compiles");
    let snapshot = frote_serve::Snapshot::fit(&*workload.trainer(), serve_ds, guard);
    let registry = std::sync::Arc::new(frote_serve::ModelRegistry::new());
    registry.register(workload.name(), snapshot, None);
    let config = frote_serve::ServeConfig {
        workers: CONCURRENCY,
        max_queue_depth: 2,
        ..frote_serve::ServeConfig::default()
    };
    let server = std::sync::Arc::new(
        frote_serve::Server::bind(&config, registry).expect("bind overload loopback"),
    );
    let accept = {
        let server = std::sync::Arc::clone(&server);
        std::thread::spawn(move || server.run())
    };
    let addr = server.local_addr().to_string();

    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::scope(|scope| {
        for worker in 0..CONCURRENCY {
            let tx = tx.clone();
            let addr = addr.clone();
            scope.spawn(move || {
                let mut client =
                    frote_serve::Client::connect(&addr).expect("connect overload client");
                let mut backoff = frote_serve::Backoff::new(
                    0x0DD + worker as u64,
                    std::time::Duration::from_millis(2),
                    std::time::Duration::from_millis(40),
                );
                let mut i = worker;
                while i < REQUESTS {
                    let body = workload.probe_body(serve_ds, i * ROWS, ROWS);
                    let start = Instant::now();
                    let mut sheds = 0usize;
                    let labels = loop {
                        let resp = client
                            .request("POST", &format!("/score/{}", workload.name()), &body)
                            .expect("overload request transports");
                        match resp.status {
                            200 => {
                                break frote_serve::client::parse_score_body(&resp.body)
                                    .expect("well-formed 200 body")
                                    .1
                            }
                            503 => {
                                sheds += 1;
                                std::thread::sleep(backoff.next_delay(None));
                            }
                            other => panic!("overload probe: unexpected status {other}"),
                        }
                    };
                    let ms = start.elapsed().as_secs_f64() * 1e3;
                    tx.send((i, ms, sheds, labels)).expect("collector alive");
                    i += CONCURRENCY;
                }
            });
        }
    });
    drop(tx);
    frote_faults::set_spec(None).expect("disarm");

    let mut slots: Vec<Option<(f64, usize, Vec<String>)>> = (0..REQUESTS).map(|_| None).collect();
    for (i, ms, sheds, labels) in rx {
        slots[i] = Some((ms, sheds, labels));
    }
    let responses: Vec<(f64, usize, Vec<String>)> =
        slots.into_iter().map(|s| s.expect("every request answered")).collect();
    let total_sheds: usize = responses.iter().map(|(_, sheds, _)| *sheds).sum();
    let attempts = REQUESTS + total_sheds;
    let mut wire = FnvHasher::new();
    let mut direct = FnvHasher::new();
    for (i, (_, _, labels)) in responses.iter().enumerate() {
        let indices: Vec<usize> = (0..ROWS).map(|k| (i * ROWS + k) % serve_ds.n_rows()).collect();
        for &p in &direct_model.predict_rows(serve_ds, &indices) {
            serve_ds.schema().class_name(p).hash(&mut direct);
        }
        for label in labels {
            label.hash(&mut wire);
        }
    }
    let matches_direct = wire.finish() == direct.finish();
    assert!(matches_direct, "serve_overload: retried responses diverged from direct predict_rows");
    let mut latencies: Vec<f64> = responses.iter().map(|(ms, _, _)| *ms).collect();
    latencies.sort_by(f64::total_cmp);
    let pct = |p: f64| latencies[((latencies.len() as f64 - 1.0) * p).round() as usize];

    server.trigger_shutdown();
    accept.join().expect("overload accept loop joins");
    frote_obs::set_metrics_enabled(true);

    ServeRecord {
        name: "serve_overload".to_string(),
        requests: REQUESTS,
        rows_per_request: ROWS,
        concurrency: CONCURRENCY,
        p50_ms: pct(0.50),
        p99_ms: pct(0.99),
        matches_direct,
        response_fnv: format!("{:016x}", wire.finish()),
        shed_rate: Some(total_sheds as f64 / attempts as f64),
    }
}

/// Best-of-`reps` wall-clock in milliseconds plus the output digest.
fn time_best(reps: usize, mut f: impl FnMut() -> u64) -> (f64, u64) {
    let mut best = f64::INFINITY;
    let mut digest = 0;
    for _ in 0..reps {
        let start = Instant::now();
        digest = f();
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    (best, digest)
}

fn record(name: &str, threads: usize, reps: usize, mut f: impl FnMut() -> u64) -> BenchRecord {
    frote_par::set_threads(1);
    let (serial_ms, serial_digest) = time_best(reps, &mut f);
    frote_par::set_threads(threads);
    let (parallel_ms, parallel_digest) = time_best(reps, &mut f);
    frote_par::set_threads(1);
    BenchRecord {
        name: name.to_string(),
        serial_ms,
        parallel_ms,
        speedup: serial_ms / parallel_ms,
        identical: serial_digest == parallel_digest,
        output_fnv: format!("{parallel_digest:016x}"),
    }
}

fn hash_of<T: Hash>(value: &T) -> u64 {
    let mut h = FnvHasher::new();
    value.hash(&mut h);
    h.finish()
}

fn hash_f64s(values: &[f64]) -> u64 {
    let mut h = FnvHasher::new();
    for v in values {
        v.to_bits().hash(&mut h);
    }
    h.finish()
}

/// The pre-kernel (PR 3/4 era) logistic-regression training loop, verbatim:
/// scalar dot products and one sequential gradient chain over all rows.
/// Kept only as the measured baseline of the `lr_fit` mode comparison —
/// production training lives in `frote_ml::logreg` on the kernel layer.
/// Ends with the same encode + whole-dataset scoring pass the optimized
/// leg's `predict_dataset` performs, so the two legs time identical work.
fn naive_scalar_lr_fit(ds: &Dataset, params: &LogRegParams) -> u64 {
    let encoder = Encoder::fit(ds);
    let x = encoder.encode_dataset(ds);
    let labels = ds.labels();
    let (n, d, k) = (x.n_rows(), encoder.width(), ds.n_classes());
    let mut weights = FeatureMatrix::from_raw(d + 1, vec![0.0; (d + 1) * k]);
    let mut probs = vec![0.0; k];
    let mut grads = FeatureMatrix::from_raw(d + 1, vec![0.0; (d + 1) * k]);
    for _ in 0..params.max_iter {
        grads.as_mut_slice().fill(0.0);
        for (xi, &yi) in x.rows().zip(labels) {
            for (o, w) in probs.iter_mut().zip(weights.rows()) {
                let mut z = w[d];
                for (wj, xj) in w[..d].iter().zip(xi) {
                    z += wj * xj;
                }
                *o = z;
            }
            let max = probs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let mut sum = 0.0;
            for o in probs.iter_mut() {
                *o = (*o - max).exp();
                sum += *o;
            }
            for o in probs.iter_mut() {
                *o /= sum;
            }
            for (c, &p) in probs.iter().enumerate() {
                let g = grads.row_mut(c);
                let err = p - f64::from(c as u32 == yi);
                for (gj, &xj) in g.iter_mut().zip(xi) {
                    *gj += err * xj;
                }
                g[d] += err;
            }
        }
        let inv_n = 1.0 / n as f64;
        let mut max_grad: f64 = 0.0;
        for c in 0..k {
            let (w, g) = (weights.row_mut(c), grads.row(c));
            for (j, (wj, &gj)) in w.iter_mut().zip(g).enumerate() {
                let reg = if j < d { params.l2 * *wj } else { 0.0 };
                let step = gj * inv_n + reg;
                max_grad = max_grad.max(step.abs());
                *wj -= params.learning_rate * step;
            }
        }
        if max_grad < params.tol {
            break;
        }
    }
    // The scoring pass of the optimized leg, scalar-style: encode once,
    // softmax-argmax every row.
    let x = encoder.encode_dataset(ds);
    let mut h = FnvHasher::new();
    for xi in x.rows() {
        for (o, w) in probs.iter_mut().zip(weights.rows()) {
            let mut z = w[d];
            for (wj, xj) in w[..d].iter().zip(xi) {
                z += wj * xj;
            }
            *o = z;
        }
        let max = probs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mut sum = 0.0;
        for o in probs.iter_mut() {
            *o = (*o - max).exp();
            sum += *o;
        }
        for o in probs.iter_mut() {
            *o /= sum;
        }
        let mut best = 0usize;
        for (c, &p) in probs.iter().enumerate().skip(1) {
            if p > probs[best] {
                best = c;
            }
        }
        (best as u32).hash(&mut h);
    }
    h.finish()
}

fn main() {
    // `FROTE_THREADS` outranks `set_threads` in the resolver, which would
    // pin both sides of every comparison; this binary owns its thread count.
    std::env::remove_var("FROTE_THREADS");
    let opts = CliOptions::from_env();
    // Interior counters feed the record's `metrics` section. Recording is
    // observation-only — every digest asserted below is pinned by the
    // determinism contract whether the registry is on or off.
    frote_obs::set_metrics_enabled(true);
    let threads = opts.threads.unwrap_or(4);
    let host = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!("perfsmoke: serial vs {threads} threads (host parallelism {host})");

    let mut benches = Vec::new();

    // 1. SMOTE generation on an all-numeric synthetic dataset.
    let ds = DatasetKind::WineQuality.generate(&SynthConfig { n_rows: 1500, ..Default::default() });
    let minority = (0..ds.n_classes() as u32)
        .min_by_key(|&c| ds.indices_of_class(c).len())
        .expect("has classes");
    let smote = Smote::new(SmoteParams::default());
    benches.push(record("smote_generation", threads, 3, || {
        let mut rng = StdRng::seed_from_u64(7);
        let out = smote.generate(&ds, minority, 1500, &mut rng).expect("generation succeeds");
        hash_of(&format!("{out:?}"))
    }));

    // 2. Rule-coverage scan over a wide synthetic dataset: the compiled
    // columnar engine (`frote_rules::engine`, what `Clause::coverage` now
    // runs on) against the row-at-a-time interpreter it replaced. Both
    // scans must return the same rows, so the digests double as a
    // correctness cross-check.
    let mut mode_comparisons = Vec::new();
    let big = DatasetKind::Adult.generate(&SynthConfig { n_rows: 40_000, ..Default::default() });
    let clause = Clause::new(vec![
        Predicate::new(0, Op::Ge, Value::Num(30.0)),
        Predicate::new(0, Op::Lt, Value::Num(60.0)),
    ]);
    let rule_cov = record("rule_coverage", threads, 5, || hash_of(&clause.coverage(&big)));
    frote_par::set_threads(1);
    let (interp_cov_ms, interp_cov_digest) =
        time_best(5, || hash_of(&clause.coverage_interpreted(&big)));
    assert_eq!(
        format!("{interp_cov_digest:016x}"),
        rule_cov.output_fnv,
        "compiled and interpreted rule-coverage scans diverged"
    );
    mode_comparisons.push(ModeComparison::new("rule_coverage", interp_cov_ms, rule_cov.serial_ms));
    benches.push(rule_cov);

    // 3. Encode throughput: the whole Adult table into one FeatureMatrix.
    let encoder = Encoder::fit(&big);
    benches.push(record("encode_dataset", threads, 5, || {
        let m = encoder.encode_dataset(&big);
        hash_f64s(m.as_slice())
    }));

    // 4. Batch predict_dataset throughput per model family (train once at a
    // pinned thread count so every timing scores the same model).
    let scoring = DatasetKind::Adult.generate(&SynthConfig { n_rows: 8000, ..Default::default() });
    frote_par::set_threads(1);
    let rf = RandomForestTrainer::new(ForestParams { n_trees: 20, ..Default::default() }, 42)
        .train(&scoring);
    let lgbm = GbdtTrainer::new(GbdtParams { n_rounds: 10, ..Default::default() }).train(&scoring);
    let lr = LogisticRegressionTrainer::default().train(&scoring);
    for (name, model) in
        [("predict_dataset_rf", &rf), ("predict_dataset_lgbm", &lgbm), ("predict_dataset_lr", &lr)]
    {
        benches.push(record(name, threads, 3, || hash_of(&model.predict_dataset(&scoring))));
    }

    // 5. Tree training in exact vs histogram split mode, on a numeric-heavy
    // table where the exact search's per-node row ordering dominates. The
    // serial legs feed the mode comparison; the serial/parallel pair of each
    // mode additionally pins the histogram engine's thread-determinism.
    let fit_ds =
        DatasetKind::WineQuality.generate(&SynthConfig { n_rows: 6000, ..Default::default() });
    let dt_fit = |mode: SplitMode| {
        let params = TreeParams { max_depth: 8, split_mode: mode, ..Default::default() };
        let model = DecisionTreeTrainer::new(params, 42).train(&fit_ds);
        hash_of(&model.predict_dataset(&fit_ds))
    };
    let gbdt_fit = |mode: SplitMode| {
        let params = GbdtParams { n_rounds: 6, split_mode: mode, ..Default::default() };
        let model: Box<dyn frote_ml::Classifier> = Box::new(Gbdt::fit(&fit_ds, &params));
        hash_of(&model.predict_dataset(&fit_ds))
    };
    let dt_exact = record("dt_fit_exact", threads, 2, || dt_fit(SplitMode::Exact));
    let dt_hist = record("dt_fit_hist", threads, 2, || dt_fit(SplitMode::histogram()));
    mode_comparisons.push(ModeComparison::new("dt_fit", dt_exact.serial_ms, dt_hist.serial_ms));
    benches.push(dt_exact);
    benches.push(dt_hist);
    let gbdt_exact = record("gbdt_fit_exact", threads, 2, || gbdt_fit(SplitMode::Exact));
    let gbdt_hist = record("gbdt_fit_hist", threads, 2, || gbdt_fit(SplitMode::histogram()));
    mode_comparisons.push(ModeComparison::new(
        "gbdt_fit",
        gbdt_exact.serial_ms,
        gbdt_hist.serial_ms,
    ));
    benches.push(gbdt_exact);
    benches.push(gbdt_hist);

    // 6. The PR 5 kernel layer. `lr_fit`: the blocked/kernel logistic-
    // regression fit, gated on its prediction digest and compared against
    // the pre-kernel scalar gradient loop (reimplemented below as the
    // measured baseline). The two arrange their f64 sums differently
    // (blocked fixed-order vs one sequential chain), so only timings are
    // compared here — the kernel path's own thread-determinism is what the
    // serial/parallel digest pair pins.
    let lr_params = LogRegParams { max_iter: 60, ..Default::default() };
    let lr_fit = record("lr_fit", threads, 3, || {
        let model = LogisticRegression::fit(&fit_ds, &lr_params);
        hash_of(&model.predict_dataset(&fit_ds))
    });
    frote_par::set_threads(1);
    let (naive_lr_ms, _) = time_best(3, || naive_scalar_lr_fit(&fit_ds, &lr_params));
    mode_comparisons.push(ModeComparison::new("lr_fit", naive_lr_ms, lr_fit.serial_ms));
    benches.push(lr_fit);

    // 7. `rule_quality_scan`: whole-set rule quality (support, confidence,
    // recall, lift) for a multi-rule WineQuality feedback set. Every
    // coverage scan inside `assess_all` runs on the compiled engine; the
    // interpreted row-at-a-time twin is the measured baseline. Identical
    // metrics are required, so the digests double as a correctness
    // cross-check.
    let wine_frs = FeedbackRuleSet::new(vec![
        // High-alcohol, low-volatile-acidity wines score well...
        FeedbackRule::deterministic(
            Clause::new(vec![
                Predicate::new(10, Op::Ge, Value::Num(12.6)),
                Predicate::new(1, Op::Lt, Value::Num(0.25)),
            ]),
            5,
        ),
        FeedbackRule::deterministic(
            Clause::new(vec![
                Predicate::new(10, Op::Ge, Value::Num(11.5)),
                Predicate::new(7, Op::Lt, Value::Num(0.994)),
            ]),
            4,
        ),
        // ...while high volatile acidity and residual sugar drag scores down.
        FeedbackRule::deterministic(
            Clause::new(vec![
                Predicate::new(1, Op::Gt, Value::Num(0.35)),
                Predicate::new(2, Op::Lt, Value::Num(0.3)),
            ]),
            1,
        ),
        FeedbackRule::deterministic(
            Clause::new(vec![
                Predicate::new(3, Op::Gt, Value::Num(9.0)),
                Predicate::new(5, Op::Le, Value::Num(40.0)),
            ]),
            2,
        ),
    ]);
    wine_frs.validate(fit_ds.schema()).expect("wine rules are valid");
    let hash_quality = |qs: &[RuleQuality]| {
        let mut h = FnvHasher::new();
        for q in qs {
            (q.support as u64).hash(&mut h);
            q.coverage.to_bits().hash(&mut h);
            q.confidence.to_bits().hash(&mut h);
            q.recall.to_bits().hash(&mut h);
            q.lift.to_bits().hash(&mut h);
        }
        h.finish()
    };
    let quality_scan = record("rule_quality_scan", threads, 5, || {
        hash_quality(&assess_all(wine_frs.rules(), &fit_ds))
    });
    frote_par::set_threads(1);
    let (interp_q_ms, interp_q_digest) = time_best(5, || {
        let qs: Vec<RuleQuality> =
            wine_frs.rules().iter().map(|r| assess_interpreted(r, &fit_ds)).collect();
        hash_quality(&qs)
    });
    assert_eq!(
        format!("{interp_q_digest:016x}"),
        quality_scan.output_fnv,
        "compiled and interpreted rule-quality scans diverged"
    );
    mode_comparisons.push(ModeComparison::new(
        "rule_quality_scan",
        interp_q_ms,
        quality_scan.serial_ms,
    ));
    benches.push(quality_scan);

    // 8. `knn_batch`: brute-force mixed-distance kNN over the columnar
    // store — the block distance kernel under a parallel query fan-out.
    let knn_rows: Vec<usize> = (0..scoring.n_rows()).step_by(16).collect();
    let knn_cands: Vec<usize> = (0..scoring.n_rows()).collect();
    let dist = MixedDistance::fit(&scoring, MixedMetric::SmoteNc);
    benches.push(record("knn_batch", threads, 2, || {
        let hits = k_nearest_of_rows(&scoring, &knn_rows, &knn_cands, 10, &dist);
        let mut h = FnvHasher::new();
        for n in hits.iter().flatten() {
            (n.index as u64).hash(&mut h);
            n.distance.to_bits().hash(&mut h);
        }
        h.finish()
    }));

    // 9. `rf_hist_subsample`: per-node candidate-feature class histograms
    // for forest-like nodes (√F sampled features, 500-row nodes — the
    // deep-node regime where the full buffer's zero/reduce cost dominates
    // the accumulate) on the wide Adult table, compact layout vs the
    // pre-compact full-buffer baseline. Both layouts must produce identical
    // counts, so the digests double as a correctness cross-check.
    let binner = Binner::fit(&scoring, 64);
    let codes = binner.bin_dataset(&scoring);
    let mut node_rng = StdRng::seed_from_u64(99);
    let m = (scoring.n_features() as f64).sqrt().round().max(1.0) as usize;
    let nodes: Vec<(Vec<usize>, Vec<usize>)> = (0..400)
        .map(|_| {
            let indices: Vec<usize> =
                (0..500).map(|_| node_rng.random_range(0..scoring.n_rows())).collect();
            let mut features: Vec<usize> = (0..scoring.n_features()).collect();
            features.shuffle(&mut node_rng);
            features.truncate(m);
            (indices, features)
        })
        .collect();
    let hist_nodes = |compact: bool| {
        let mut h = FnvHasher::new();
        for (indices, features) in &nodes {
            let hist = subsample_hist_probe(
                &binner,
                &codes,
                scoring.labels(),
                indices,
                features,
                scoring.n_classes(),
                compact,
            );
            for v in &hist {
                v.to_bits().hash(&mut h);
            }
        }
        h.finish()
    };
    let rf_hist = record("rf_hist_subsample", threads, 3, || hist_nodes(true));
    frote_par::set_threads(1);
    let (full_ms, full_digest) = time_best(3, || hist_nodes(false));
    assert_eq!(
        format!("{full_digest:016x}"),
        rf_hist.output_fnv,
        "compact and full-layout candidate histograms diverged"
    );
    mode_comparisons.push(ModeComparison::new("rf_hist_subsample", full_ms, rf_hist.serial_ms));
    benches.push(rf_hist);

    // 10. One FROTE iteration end to end (select → generate → retrain).
    let car = DatasetKind::Car.generate(&SynthConfig { n_rows: 400, ..Default::default() });
    let rule = parse_rule("safety = low AND buying = low => acc", car.schema()).expect("rule");
    let frs = FeedbackRuleSet::new(vec![rule]);
    let trainer = RandomForestTrainer::new(ForestParams { n_trees: 16, ..Default::default() }, 42);
    let config =
        FroteConfig { iteration_limit: 1, instances_per_iteration: Some(40), ..Default::default() };
    benches.push(record("frote_iteration", threads, 2, || {
        let mut rng = StdRng::seed_from_u64(42);
        let out = Frote::new(config).run(&car, &trainer, &frs, &mut rng).expect("frote runs");
        hash_of(&format!("{:?}{:?}", out.dataset, out.report))
    }));

    // 11. Three FROTE iterations with the online-proxy selector under
    // histogram-mode RF retrains on the categorical Car table — the
    // configuration that drives all three incremental caches (encoded,
    // binned, rule-mask) through their *append* paths (categorical
    // encoder/binner fits don't move when rows are appended, so syncs
    // stay incremental instead of rebuilding), giving the `metrics`
    // section below nonzero `*.sync.append` counters for `benchdiff`
    // to gate.
    let hist_trainer = RandomForestTrainer::new(
        ForestParams {
            n_trees: 8,
            tree: TreeParams {
                max_depth: 6,
                split_mode: SplitMode::histogram(),
                ..Default::default()
            },
        },
        42,
    );
    let online_config = FroteConfig {
        iteration_limit: 3,
        instances_per_iteration: Some(30),
        selection: SelectionStrategy::OnlineProxy,
        ..Default::default()
    };
    benches.push(record("frote_loop_online_hist", threads, 2, || {
        let mut rng = StdRng::seed_from_u64(42);
        let out =
            Frote::new(online_config).run(&car, &hist_trainer, &frs, &mut rng).expect("frote runs");
        hash_of(&format!("{:?}{:?}", out.dataset, out.report))
    }));

    // 12. The PR 9 serving plane: an in-process server on an ephemeral
    // loopback port, scored over the wire through the micro-batcher.
    // `serve_latency` measures sequential single-client request latency;
    // the sweep drives 4 concurrent clients at growing rows-per-request so
    // batches actually aggregate. Every probe's responses are collected in
    // request order and digest-asserted bit-identical to a direct
    // `predict_rows` call on the same rows — the wire, the boundary
    // validation, and the batcher must be prediction-transparent.
    frote_par::set_threads(threads);
    let workload = frote_serve::workload::by_name("wine-rf").expect("cataloged workload");
    let serve_ds = workload.dataset();
    let direct_model = workload.trainer().train(&serve_ds);
    let serve = {
        let guard = frote_serve::RowGuard::not_null(serve_ds.schema()).expect("guard compiles");
        let snapshot = frote_serve::Snapshot::fit(&*workload.trainer(), &serve_ds, guard);
        let registry = std::sync::Arc::new(frote_serve::ModelRegistry::new());
        registry.register(workload.name(), snapshot, None);
        let server = std::sync::Arc::new(
            frote_serve::Server::bind(&frote_serve::ServeConfig::default(), registry)
                .expect("bind loopback"),
        );
        let accept = {
            let server = std::sync::Arc::clone(&server);
            std::thread::spawn(move || server.run())
        };
        let addr = server.local_addr().to_string();

        let run_probe = |name: &str, requests: usize, rows: usize, concurrency: usize| {
            let (tx, rx) = std::sync::mpsc::channel();
            std::thread::scope(|scope| {
                for worker in 0..concurrency {
                    let tx = tx.clone();
                    let addr = addr.clone();
                    let serve_ds = &serve_ds;
                    scope.spawn(move || {
                        let mut client =
                            frote_serve::Client::connect(&addr).expect("connect probe client");
                        let mut i = worker;
                        while i < requests {
                            let body = workload.probe_body(serve_ds, i * rows, rows);
                            let start = Instant::now();
                            let (_generation, labels) = client
                                .score(workload.name(), &body)
                                .expect("score request succeeds");
                            let ms = start.elapsed().as_secs_f64() * 1e3;
                            tx.send((i, ms, labels)).expect("collector alive");
                            i += concurrency;
                        }
                    });
                }
            });
            drop(tx);
            let mut slots: Vec<Option<(f64, Vec<String>)>> = (0..requests).map(|_| None).collect();
            for (i, ms, labels) in rx {
                slots[i] = Some((ms, labels));
            }
            let responses: Vec<(f64, Vec<String>)> =
                slots.into_iter().map(|s| s.expect("every request answered")).collect();
            let mut wire = FnvHasher::new();
            let mut direct = FnvHasher::new();
            for (i, (_, labels)) in responses.iter().enumerate() {
                let indices: Vec<usize> =
                    (0..rows).map(|k| (i * rows + k) % serve_ds.n_rows()).collect();
                for &p in &direct_model.predict_rows(&serve_ds, &indices) {
                    serve_ds.schema().class_name(p).hash(&mut direct);
                }
                for label in labels {
                    label.hash(&mut wire);
                }
            }
            let matches_direct = wire.finish() == direct.finish();
            assert!(matches_direct, "{name}: wire responses diverged from direct predict_rows");
            let mut latencies: Vec<f64> = responses.iter().map(|(ms, _)| *ms).collect();
            latencies.sort_by(f64::total_cmp);
            let pct = |p: f64| {
                let k = ((latencies.len() as f64 - 1.0) * p).round() as usize;
                latencies[k]
            };
            ServeRecord {
                name: name.to_string(),
                requests,
                rows_per_request: rows,
                concurrency,
                p50_ms: pct(0.50),
                p99_ms: pct(0.99),
                matches_direct,
                response_fnv: format!("{:016x}", wire.finish()),
                shed_rate: None,
            }
        };

        let mut serve = vec![run_probe("serve_latency", 120, 8, 1)];
        for rows in [1usize, 16, 128] {
            serve.push(run_probe(&format!("serve_sweep_rows{rows}"), 40, rows, 4));
        }
        server.trigger_shutdown();
        accept.join().expect("accept loop joins");

        // 13. The PR 10 overload probe: a deliberately tiny server (batch
        // queue depth 2) with an injected 25ms drain delay, driven by 8
        // clients at once — admission control must shed with structured
        // `503` + `Retry-After`, and clients retry each shed request until
        // it succeeds, so the response set (and its digest) is exactly the
        // fault-free one: the shed path costs retries, never answers.
        serve.push(run_overload_probe(&workload, &serve_ds, &*direct_model));
        serve
    };
    frote_par::set_threads(1);

    for b in &benches {
        println!(
            "  {:<22} serial {:>8.2} ms | {} threads {:>8.2} ms | speedup {:>5.2}x | identical {} | fnv {}",
            b.name, b.serial_ms, threads, b.parallel_ms, b.speedup, b.identical, b.output_fnv
        );
        assert!(b.identical, "{}: serial and parallel outputs diverged", b.name);
    }
    for m in &mode_comparisons {
        println!(
            "  {:<22} baseline {:>8.2} ms | optimized {:>8.2} ms | speedup {:>5.2}x",
            m.name, m.baseline_ms, m.optimized_ms, m.speedup
        );
    }
    for s in &serve {
        println!(
            "  {:<22} {:>3} reqs x {:>3} rows @ c{} | p50 {:>7.2} ms | p99 {:>7.2} ms | direct-match {} | fnv {}",
            s.name, s.requests, s.rows_per_request, s.concurrency, s.p50_ms, s.p99_ms,
            s.matches_direct, s.response_fnv
        );
    }

    let report = PerfSmoke {
        host_parallelism: host,
        threads_compared: vec![1, threads],
        benches,
        mode_comparisons,
        serve,
        metrics: frote_obs::snapshot(),
        note: "speedups are recorded, not gated; single-core hosts report ~1x parallel speedups"
            .to_string(),
    };
    // `--out` wins, then `BENCH_FILE`/committed default at the repo root.
    let path = opts.out.unwrap_or_else(|| {
        format!("{}/../../{}", env!("CARGO_MANIFEST_DIR"), default_bench_file())
    });
    let json = serde_json::to_string_pretty(&report).expect("serializable report");
    std::fs::write(&path, json + "\n").expect("write the bench record");
    println!("wrote {path}");
}
