//! The zero-perturbation contract of `frote-obs`, proven end to end:
//!
//! 1. The golden pipeline hashes are **byte-identical with metrics on** —
//!    recording observes the computation, it never participates in it.
//! 2. Counters tagged `invariant` (and invariant gauges) are **pinned to
//!    committed values at 1, 2, and 4 worker threads** — they count work
//!    the determinism contract pins, not how the schedule happened to
//!    distribute it, so a moved count is a behaviour change. The pins cover
//!    the `frote.*`, `*_cache.*`, `hist.*`, `rule_engine.*`, `lr.*`,
//!    `select.memo_*` and `serve.*` families. `thread_variant` metrics
//!    (`par.*`, batch counts, latency histograms) are exempt by their tag.
//!
//! Everything lives in ONE `#[test]` because the metrics registry is
//! process-global: concurrent tests in the same binary would interleave
//! their counts. Integration-test binaries are separate processes, so the
//! rest of the suite is unaffected.

use std::sync::Arc;

use frote::{Frote, FroteConfig, SelectionStrategy};
use frote_data::synth::{DatasetKind, SynthConfig};
use frote_ml::forest::{ForestParams, RandomForestTrainer};
use frote_ml::SplitMode;
use frote_par::test_support::with_threads;
use frote_rules::parse::parse_rule;
use frote_rules::FeedbackRuleSet;
use frote_serve::{Client, ModelRegistry, ServeConfig, Server};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The mixed Car scenario of `tests/golden_pipeline.rs`, verbatim.
fn run_random() -> u64 {
    let ds = DatasetKind::Car.generate(&SynthConfig { n_rows: 300, ..Default::default() });
    let rule = parse_rule("safety = low AND buying = low => acc", ds.schema()).unwrap();
    let frs = FeedbackRuleSet::new(vec![rule]);
    let trainer = RandomForestTrainer::new(ForestParams { n_trees: 10, ..Default::default() }, 42);
    let config = FroteConfig {
        iteration_limit: 4,
        instances_per_iteration: Some(15),
        selection: SelectionStrategy::Random,
        ..Default::default()
    };
    let mut rng = StdRng::seed_from_u64(9);
    let out = Frote::new(config).run(&ds, &trainer, &frs, &mut rng).unwrap();
    fnv1a(format!("{:?}|{:?}", out.dataset, out.report).as_bytes())
}

/// The histogram-GBDT scenario of `tests/golden_pipeline.rs`, verbatim —
/// online-proxy selection plus quantized GBDT retrains, so the run drives
/// the encoded, binned and rule-mask caches and the histogram plane,
/// sibling subtraction included.
fn run_hist_gbdt() -> u64 {
    use frote_ml::gbdt::{GbdtParams, GbdtTrainer};
    let ds = DatasetKind::WineQuality.generate(&SynthConfig { n_rows: 250, ..Default::default() });
    let rule = parse_rule("alcohol >= 12 => 8", ds.schema()).unwrap();
    let frs = FeedbackRuleSet::new(vec![rule]);
    let trainer = GbdtTrainer::new(GbdtParams {
        n_rounds: 8,
        split_mode: SplitMode::Histogram { max_bins: 16 },
        ..Default::default()
    });
    let config = FroteConfig {
        iteration_limit: 3,
        instances_per_iteration: Some(12),
        selection: SelectionStrategy::OnlineProxy,
        ..Default::default()
    };
    let mut rng = StdRng::seed_from_u64(21);
    let out = Frote::new(config).run(&ds, &trainer, &frs, &mut rng).unwrap();
    fnv1a(format!("{:?}|{:?}", out.dataset, out.report).as_bytes())
}

/// The two-rule Nursery IP scenario of `tests/golden_pipeline.rs`,
/// verbatim: 8 iterations, so the run stops at `τ`, and one accept, so the
/// selection memo both misses and hits.
fn run_ip() -> u64 {
    let ds = DatasetKind::Nursery.generate(&SynthConfig { n_rows: 300, ..Default::default() });
    let frs = FeedbackRuleSet::new(vec![
        parse_rule("finance = inconv AND children = more => not_recom", ds.schema()).unwrap(),
        parse_rule("finance = convenient AND health = priority => spec_prior", ds.schema())
            .unwrap(),
    ]);
    let trainer = RandomForestTrainer::new(ForestParams { n_trees: 10, ..Default::default() }, 42);
    let config = FroteConfig {
        iteration_limit: 8,
        instances_per_iteration: Some(16),
        selection: SelectionStrategy::Ip,
        ..Default::default()
    };
    let mut rng = StdRng::seed_from_u64(5);
    let out = Frote::new(config).run(&ds, &trainer, &frs, &mut rng).unwrap();
    fnv1a(format!("{:?}|{:?}", out.dataset, out.report).as_bytes())
}

/// A fixed request sequence through an in-process `wine-rf` server: six
/// 8-row scores, one rule publish (a FROTE edit plus a retrain), six more
/// scores. One client sends them in order, so the batcher never holds more
/// than one request and nothing is shed. That matters: a shed request is
/// parsed and guard-checked before it is turned away, so shedding would
/// move `rule_engine.*` with the timing.
fn run_serve() {
    let workload = frote_serve::workload::by_name("wine-rf").unwrap();
    let ds = workload.dataset();
    let refitter = workload.refitter(false);
    let registry = Arc::new(ModelRegistry::new());
    registry.register(
        workload.name(),
        refitter.initial_snapshot().unwrap(),
        Some(Box::new(refitter)),
    );
    let server = Arc::new(Server::bind(&ServeConfig::default(), registry).unwrap());
    let accept = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.run())
    };
    let mut client = Client::connect(&server.local_addr().to_string()).unwrap();
    for i in 0..12 {
        if i == 6 {
            let generation = client.publish(workload.name(), Some("alcohol >= 12 => 8")).unwrap();
            assert_eq!(generation, 2, "the one publish is generation 2");
        }
        let body = workload.probe_body(&ds, i * 8, 8);
        let (generation, labels) = client.score(workload.name(), &body).unwrap();
        assert_eq!(generation, if i < 6 { 1 } else { 2 }, "request {i}");
        assert_eq!(labels.len(), 8, "request {i}");
    }
    drop(client);
    server.trigger_shutdown();
    accept.join().unwrap();
}

/// Must match `tests/golden_pipeline.rs`.
const GOLDEN_RANDOM: u64 = 0x3d16_ce7c_f8d3_ed96;
const GOLDEN_HIST_GBDT: u64 = 0x9751_6ca2_7a95_6712;
const GOLDEN_IP: u64 = 0xb987_5e83_8dd6_56b2;

/// The nonzero invariant metrics of [`run_ip`] alone. Gauges are pinned by
/// their bits; `frote.objective` holds the last FROTE run's final J.
const IP_PINS: &[(&str, u64)] = &[
    ("frote.accepted", 1),
    ("frote.iterations", 8),
    ("frote.rejected", 7),
    ("frote.rows_appended", 16),
    ("frote.rows_truncated", 112),
    ("frote.synthetic_rows", 128),
    ("rule_engine.clauses_compiled", 12),
    ("rule_engine.eval_raw", 12),
    ("rule_mask_cache.appended_rows", 128),
    ("rule_mask_cache.sync.append", 8),
    ("rule_mask_cache.sync.noop", 1),
    ("rule_mask_cache.sync.rebuild", 1),
    ("rule_mask_cache.sync.rebuild.first_fit", 1),
    ("rule_mask_cache.truncated_rows", 112),
    ("rule_mask_cache.truncates", 7),
    ("select.memo_hits", 6),
    ("select.memo_misses", 2),
    ("frote.objective", 0x3fe9_a15b_deee_9eda),
];

/// The nonzero invariant metrics of [`run_random`] and [`run_hist_gbdt`],
/// run in that order.
const PIPELINE_PINS: &[(&str, u64)] = &[
    ("binned_cache.sync.rebuild", 3),
    ("binned_cache.sync.rebuild.fit_changed", 2),
    ("binned_cache.sync.rebuild.stale_fit", 1),
    ("binned_cache.truncated_rows", 24),
    ("binned_cache.truncates", 2),
    ("encoded_cache.sync.noop", 1),
    ("encoded_cache.sync.rebuild", 1),
    ("encoded_cache.sync.rebuild.fit_changed", 1),
    ("frote.accepted", 3),
    ("frote.iterations", 7),
    ("frote.rejected", 4),
    ("frote.rows_appended", 42),
    ("frote.rows_truncated", 54),
    ("frote.synthetic_rows", 96),
    ("hist.bins_zeroed", 311_520),
    ("hist.nodes_built", 885),
    ("hist.sibling_subtractions", 661),
    ("lr.fits", 2),
    ("lr.iterations", 100),
    ("lr.max_iter_stops", 2),
    ("rule_engine.clauses_compiled", 14),
    ("rule_engine.eval_raw", 14),
    ("rule_mask_cache.appended_rows", 96),
    ("rule_mask_cache.sync.append", 7),
    ("rule_mask_cache.sync.noop", 2),
    ("rule_mask_cache.sync.rebuild", 2),
    ("rule_mask_cache.sync.rebuild.first_fit", 2),
    ("rule_mask_cache.truncated_rows", 54),
    ("rule_mask_cache.truncates", 4),
    ("select.memo_hits", 1),
    ("select.memo_misses", 2),
    ("frote.objective", 0x3fed_85d0_87ab_e302),
];

/// The nonzero invariant metrics of [`run_serve`].
const SERVE_PINS: &[(&str, u64)] = &[
    ("frote.accepted", 2),
    ("frote.iterations", 2),
    ("frote.rows_appended", 50),
    ("frote.synthetic_rows", 50),
    ("rule_engine.clauses_compiled", 11),
    ("rule_engine.eval_raw", 20),
    ("rule_mask_cache.appended_rows", 50),
    ("rule_mask_cache.sync.append", 2),
    ("rule_mask_cache.sync.noop", 1),
    ("rule_mask_cache.sync.rebuild", 1),
    ("rule_mask_cache.sync.rebuild.first_fit", 1),
    ("serve.requests", 12),
    ("serve.rows_scored", 96),
    ("serve.swaps", 2),
    ("frote.objective", 0x3fe6_40a1_0a13_1f23),
];

/// The nonzero `invariant`-tagged slice of a snapshot: counter values plus
/// gauge bits, in snapshot (name) order — the payload that may not move
/// with the thread count. Zeros are dropped because metrics registered by
/// an earlier leg read zero after `reset`.
fn invariant_slice(snap: &frote_obs::MetricsSnapshot) -> Vec<(&str, u64)> {
    snap.counters
        .iter()
        .filter(|c| c.variance == "invariant")
        .map(|c| (c.name.as_str(), c.value))
        .chain(
            snap.gauges
                .iter()
                .filter(|g| g.variance == "invariant")
                .map(|g| (g.name.as_str(), g.value.to_bits())),
        )
        .filter(|&(_, v)| v != 0)
        .collect()
}

/// Asserts the registry's invariant slice equals `pins`.
fn assert_pinned(leg: &str, threads: usize, pins: &[(&str, u64)]) -> frote_obs::MetricsSnapshot {
    let snap = frote_obs::snapshot();
    assert_eq!(
        invariant_slice(&snap),
        pins,
        "invariant metrics of the {leg} leg moved (at {threads} threads)"
    );
    snap
}

#[test]
fn metrics_on_preserves_goldens_and_invariant_counters_across_threads() {
    // (a) Reference leg: metrics forced off. The goldens must hold, and —
    // trivially — no counts may accumulate.
    frote_obs::set_metrics_enabled(false);
    frote_obs::reset();
    let (a, b) = with_threads(2, || (run_random(), run_hist_gbdt()));
    assert_eq!(a, GOLDEN_RANDOM, "golden drifted with metrics off");
    assert_eq!(b, GOLDEN_HIST_GBDT, "histogram golden drifted with metrics off");
    assert_eq!(
        frote_obs::snapshot().counter("frote.iterations"),
        None,
        "a disabled registry must record nothing"
    );

    // (b) Metrics forced on, same scenarios at 1, 2, and 4 threads: the
    // hashes stay byte-identical to the metrics-off leg, and each leg's
    // invariant-tagged metrics equal its committed pins at every thread
    // count.
    frote_obs::set_metrics_enabled(true);
    for t in [1usize, 2, 4] {
        // The IP scenario alone first, so the memo counters read one run.
        frote_obs::reset();
        let ip = with_threads(t, run_ip);
        assert_eq!(ip, GOLDEN_IP, "recording perturbed the IP golden at {t} threads");
        let snap = assert_pinned("IP", t, IP_PINS);
        let count = |name| snap.counter(name).unwrap_or(0);
        // One memo lookup per iteration; a miss only on the first iteration
        // and after an accept.
        let (hits, misses) = (count("select.memo_hits"), count("select.memo_misses"));
        assert_eq!(hits + misses, count("frote.iterations"));
        assert!(misses <= count("frote.accepted") + 1, "{misses} memo misses at {t} threads");

        frote_obs::reset();
        let hashes = with_threads(t, || [run_random(), run_hist_gbdt()]);
        assert_eq!(
            hashes,
            [GOLDEN_RANDOM, GOLDEN_HIST_GBDT],
            "recording perturbed a golden at {t} threads"
        );
        let snap = assert_pinned("pipeline", t, PIPELINE_PINS);
        // The proxy fits cap at 50 iterations; each stops there or early.
        let count = |name| snap.counter(name).unwrap_or(0);
        assert!(count("lr.max_iter_stops") <= count("lr.fits"));
        assert!(count("lr.iterations") <= 50 * count("lr.fits"));

        frote_obs::reset();
        with_threads(t, run_serve);
        let snap = assert_pinned("serve", t, SERVE_PINS);
        assert_eq!(snap.counter("serve.shed_requests").unwrap_or(0), 0, "a request was shed");
    }
    frote_obs::clear_metrics_override();
}
