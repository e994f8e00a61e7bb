//! The zero-perturbation contract of `frote-obs`, proven end to end:
//!
//! 1. The golden pipeline hashes are **byte-identical with metrics on** —
//!    recording observes the computation, it never participates in it.
//! 2. Counters tagged `invariant` (and invariant gauges) are **identical at
//!    1, 2, and 4 worker threads** — they count work the determinism
//!    contract pins, not how the schedule happened to distribute it.
//!    `thread_variant` metrics (`par.*`, latency histograms) are exempt by
//!    their tag, which is exactly the split `benchdiff` gates on.
//!
//! Everything lives in ONE `#[test]` because the metrics registry is
//! process-global: concurrent tests in the same binary would interleave
//! their counts. Integration-test binaries are separate processes, so the
//! rest of the suite is unaffected.

use frote::{Frote, FroteConfig, SelectionStrategy};
use frote_data::synth::{DatasetKind, SynthConfig};
use frote_ml::forest::{ForestParams, RandomForestTrainer};
use frote_ml::tree::TreeParams;
use frote_ml::SplitMode;
use frote_par::test_support::with_threads;
use frote_rules::parse::parse_rule;
use frote_rules::FeedbackRuleSet;
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

/// The numeric histogram-mode scenario of `tests/golden_pipeline.rs`,
/// verbatim — online-proxy selection plus quantized RF retrains, so the run
/// drives the encoded, binned, and rule-mask caches and the histogram plane.
fn run_hist_numeric() -> u64 {
    let ds = DatasetKind::WineQuality.generate(&SynthConfig { n_rows: 250, ..Default::default() });
    let rule = parse_rule("alcohol >= 12 => 8", ds.schema()).unwrap();
    let frs = FeedbackRuleSet::new(vec![rule]);
    let tree = TreeParams {
        max_depth: 3,
        split_mode: SplitMode::Histogram { max_bins: 16 },
        ..Default::default()
    };
    let trainer = RandomForestTrainer::new(ForestParams { n_trees: 8, tree }, 7);
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

/// Must match `tests/golden_pipeline.rs`.
const GOLDEN_RANDOM: u64 = 0x3d16_ce7c_f8d3_ed96;
const GOLDEN_HIST_NUMERIC: u64 = 0x53e4_4701_4ba3_c2e6;
const GOLDEN_IP: u64 = 0xb987_5e83_8dd6_56b2;

/// The `invariant`-tagged slice of a snapshot: counter values plus gauge
/// bits, in snapshot (name) order — the payload that may not move with the
/// thread count.
fn invariant_slice(snap: &frote_obs::MetricsSnapshot) -> Vec<(String, u64)> {
    snap.counters
        .iter()
        .filter(|c| c.variance == "invariant")
        .map(|c| (c.name.clone(), c.value))
        .chain(
            snap.gauges
                .iter()
                .filter(|g| g.variance == "invariant")
                .map(|g| (g.name.clone(), g.value.to_bits())),
        )
        .collect()
}

#[test]
fn metrics_on_preserves_goldens_and_invariant_counters_across_threads() {
    // (a) Reference leg: metrics forced off. The goldens must hold, and —
    // trivially — no counts may accumulate.
    frote_obs::set_metrics_enabled(false);
    frote_obs::reset();
    let (a, b) = with_threads(2, || (run_random(), run_hist_numeric()));
    assert_eq!(a, GOLDEN_RANDOM, "golden drifted with metrics off");
    assert_eq!(b, GOLDEN_HIST_NUMERIC, "histogram golden drifted with metrics off");
    assert_eq!(
        frote_obs::snapshot().counter("frote.iterations"),
        None,
        "a disabled registry must record nothing"
    );

    // (b) Metrics forced on, same scenarios at 1, 2, and 4 threads: the
    // hashes stay byte-identical to the metrics-off leg, and the
    // invariant-tagged metrics are identical at every thread count.
    frote_obs::set_metrics_enabled(true);
    let mut reference: Option<Vec<(String, u64)>> = None;
    let mut ip_reference: Option<Vec<(String, u64)>> = None;
    for t in [1usize, 2, 4] {
        // The IP scenario alone first, so the memo counters read one run.
        frote_obs::reset();
        let ip = with_threads(t, run_ip);
        assert_eq!(ip, GOLDEN_IP, "recording perturbed the IP golden at {t} threads");
        let snap = frote_obs::snapshot();
        let count = |name| snap.counter(name).unwrap_or(0);
        let (hits, misses) = (count("select.memo_hits"), count("select.memo_misses"));
        assert_eq!(count("frote.iterations"), 8, "the IP run stops at τ");
        assert!(hits > 0 && misses > 0, "memo hits {hits}, misses {misses} at {t} threads");
        // One lookup per iteration; a miss only on the first iteration and
        // after an accept.
        assert_eq!(hits + misses, count("frote.iterations"));
        assert!(misses <= count("frote.accepted") + 1, "{misses} memo misses at {t} threads");
        // Metrics registered by an earlier leg read zero after `reset`.
        let mut invariant = invariant_slice(&snap);
        invariant.retain(|&(_, v)| v != 0);
        match &ip_reference {
            None => ip_reference = Some(invariant),
            Some(want) => assert_eq!(
                want, &invariant,
                "invariant-tagged metrics of the IP run moved between thread counts (at {t})"
            ),
        }

        frote_obs::reset();
        let (a, b) = with_threads(t, || (run_random(), run_hist_numeric()));
        assert_eq!(a, GOLDEN_RANDOM, "recording perturbed the golden at {t} threads");
        assert_eq!(
            b, GOLDEN_HIST_NUMERIC,
            "recording perturbed the histogram golden at {t} threads"
        );
        let snap = frote_obs::snapshot();
        // The runs actually counted interior work — accepted iterations,
        // cache appends, histogram nodes, the online proxy's LR fits and
        // their gradient steps — not just zeros matching zeros.
        for name in [
            "frote.iterations",
            "frote.accepted",
            "hist.nodes_built",
            "rule_mask_cache.sync.append",
            "lr.fits",
            "lr.iterations",
        ] {
            assert!(
                snap.counter(name).unwrap_or(0) > 0,
                "{name} stayed zero at {t} threads — instrumentation not reached"
            );
        }
        // The proxy fits cap at 50 iterations; each stops there or early.
        let fits = snap.counter("lr.fits").unwrap_or(0);
        let stops = snap.counter("lr.max_iter_stops").unwrap_or(0);
        assert!(stops <= fits, "{stops} max_iter stops for {fits} LR fits");
        assert!(snap.counter("lr.iterations").unwrap_or(0) <= 50 * fits);
        let invariant = invariant_slice(&snap);
        match &reference {
            None => reference = Some(invariant),
            Some(want) => assert_eq!(
                want, &invariant,
                "invariant-tagged metrics moved between thread counts (at {t} threads)"
            ),
        }
    }
    frote_obs::clear_metrics_override();
}
