//! Zero-perturbation observability for the FROTE reproduction.
//!
//! This crate provides a process-global metrics registry — atomic
//! [`Counter`]s, [`Gauge`]s, fixed-bucket latency [`Histogram`]s with
//! lock-free `u64` bins, and RAII [`SpanTimer`]s — plus a lightweight
//! structured event [`trace`] (a bounded ring buffer of typed events).
//! [`snapshot_json`] prints the registry with the crate's own small
//! [`json`] writer, which `frote_eval::export` shares.
//!
//! # Gating
//!
//! Everything is off by default and compiled down to a single relaxed
//! atomic load per call site when disabled. Two independent switches:
//!
//! - metrics: `FROTE_METRICS=1` in the environment, or
//!   [`set_metrics_enabled`] as a process-default override (the same
//!   pattern as `frote_par::set_threads` / `frote_ml::set_default_split_mode`);
//! - trace: `FROTE_TRACE=1`, or [`trace::set_trace_enabled`].
//!
//! # Determinism contract
//!
//! Instrumentation is observation-only: no instrumented code path may
//! branch on a metric value, so every golden output is byte-identical
//! with metrics on or off. Counters and gauges carry a [`Variance`]
//! tag: `Invariant` values must be identical at any `FROTE_THREADS`
//! (they are pinned by the `obs_invariance` integration suite), while
//! `ThreadVariant` values (per-worker task counts, steal counts, span
//! timings) may legitimately differ run to run.
//!
//! # Adding a metric
//!
//! Declare a `static` and bump it; registration is lazy on first use:
//!
//! ```
//! static ROWS_SCANNED: frote_obs::Counter = frote_obs::Counter::new("demo.rows_scanned");
//! ROWS_SCANNED.add(128);
//! ```

pub mod json;
pub mod trace;

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Gating
// ---------------------------------------------------------------------------

const FORCE_UNSET: u8 = 0;
const FORCE_OFF: u8 = 1;
const FORCE_ON: u8 = 2;

static METRICS_FORCE: AtomicU8 = AtomicU8::new(FORCE_UNSET);

pub(crate) fn env_flag(name: &str) -> bool {
    std::env::var(name).is_ok_and(|v| {
        let v = v.trim();
        !v.is_empty() && v != "0"
    })
}

fn metrics_env() -> bool {
    static CACHE: OnceLock<bool> = OnceLock::new();
    *CACHE.get_or_init(|| env_flag("FROTE_METRICS"))
}

/// Whether metric recording is currently on.
///
/// Resolution order: a [`set_metrics_enabled`] override wins, otherwise
/// the `FROTE_METRICS` environment variable (read once per process).
#[inline]
pub fn metrics_enabled() -> bool {
    match METRICS_FORCE.load(Ordering::Relaxed) {
        FORCE_ON => true,
        FORCE_OFF => false,
        _ => metrics_env(),
    }
}

/// Process-default override for metric recording, taking precedence
/// over `FROTE_METRICS`. Mirrors `frote_par::set_threads`.
pub fn set_metrics_enabled(on: bool) {
    METRICS_FORCE.store(if on { FORCE_ON } else { FORCE_OFF }, Ordering::Relaxed);
}

/// Drop any [`set_metrics_enabled`] override and fall back to the
/// environment. Primarily for tests.
pub fn clear_metrics_override() {
    METRICS_FORCE.store(FORCE_UNSET, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Variance tags
// ---------------------------------------------------------------------------

/// How a metric is allowed to vary under the determinism contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variance {
    /// Identical at any `FROTE_THREADS`; pinned by the invariance suite.
    Invariant,
    /// May differ across thread counts or runs (scheduling, timing).
    ThreadVariant,
}

impl Variance {
    /// Tag as it appears in the snapshot schema.
    pub fn tag(self) -> &'static str {
        match self {
            Variance::Invariant => "invariant",
            Variance::ThreadVariant => "thread_variant",
        }
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

#[derive(Default)]
struct Registry {
    counters: Mutex<Vec<&'static Counter>>,
    gauges: Mutex<Vec<&'static Gauge>>,
    histograms: Mutex<Vec<&'static Histogram>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // Metrics are plain data; a panic mid-update cannot leave them in a
    // state worth poisoning over.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

// ---------------------------------------------------------------------------
// Counter
// ---------------------------------------------------------------------------

/// A monotonically increasing `u64` counter.
///
/// Declare as a `static`; the counter registers itself with the global
/// registry the first time it is bumped while metrics are enabled.
pub struct Counter {
    name: &'static str,
    variance: Variance,
    value: AtomicU64,
    registered: AtomicBool,
}

impl Counter {
    /// A thread-invariant counter (the default: totals must match at
    /// any `FROTE_THREADS`).
    pub const fn new(name: &'static str) -> Self {
        Self::with_variance(name, Variance::Invariant)
    }

    /// A counter whose value legitimately depends on the thread count
    /// (e.g. steals, per-worker task totals).
    pub const fn thread_variant(name: &'static str) -> Self {
        Self::with_variance(name, Variance::ThreadVariant)
    }

    const fn with_variance(name: &'static str, variance: Variance) -> Self {
        Counter { name, variance, value: AtomicU64::new(0), registered: AtomicBool::new(false) }
    }

    /// Add `n`; a no-op while metrics are disabled.
    #[inline]
    pub fn add(&'static self, n: u64) {
        if !metrics_enabled() {
            return;
        }
        self.touch();
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Add 1; a no-op while metrics are disabled.
    #[inline]
    pub fn inc(&'static self) {
        self.add(1);
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Metric name as it appears in snapshots.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Variance tag.
    pub fn variance(&self) -> Variance {
        self.variance
    }

    fn touch(&'static self) {
        if !self.registered.load(Ordering::Relaxed)
            && !self.registered.swap(true, Ordering::Relaxed)
        {
            lock(&registry().counters).push(self);
        }
    }
}

/// A counter allocated at runtime (leaked to get `'static`), for
/// dynamically named series like per-worker task counts. Repeated calls
/// with the same name return the same counter; the set of names is
/// expected to be small and bounded (worker indices).
pub fn leaked_counter(name: String, variance: Variance) -> &'static Counter {
    static BY_NAME: OnceLock<Mutex<Vec<&'static Counter>>> = OnceLock::new();
    let mut known = lock(BY_NAME.get_or_init(Mutex::default));
    if let Some(c) = known.iter().find(|c| c.name == name) {
        return c;
    }
    let name: &'static str = Box::leak(name.into_boxed_str());
    let counter: &'static Counter = Box::leak(Box::new(Counter::with_variance(name, variance)));
    known.push(counter);
    counter
}

// ---------------------------------------------------------------------------
// Gauge
// ---------------------------------------------------------------------------

/// A last-value `f64` gauge (stored as IEEE bits in an `AtomicU64`).
pub struct Gauge {
    name: &'static str,
    variance: Variance,
    bits: AtomicU64,
    registered: AtomicBool,
}

impl Gauge {
    /// A thread-invariant gauge.
    pub const fn new(name: &'static str) -> Self {
        Self::with_variance(name, Variance::Invariant)
    }

    /// A gauge whose value may depend on the thread count.
    pub const fn thread_variant(name: &'static str) -> Self {
        Self::with_variance(name, Variance::ThreadVariant)
    }

    const fn with_variance(name: &'static str, variance: Variance) -> Self {
        Gauge { name, variance, bits: AtomicU64::new(0), registered: AtomicBool::new(false) }
    }

    /// Store `v`; a no-op while metrics are disabled.
    #[inline]
    pub fn set(&'static self, v: f64) {
        if !metrics_enabled() {
            return;
        }
        self.touch();
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Raise the gauge to `v` if larger. Only meaningful for
    /// non-negative values (the bit-level `fetch_max` matches IEEE
    /// ordering there); a no-op while metrics are disabled.
    #[inline]
    pub fn set_max(&'static self, v: f64) {
        debug_assert!(v >= 0.0, "Gauge::set_max requires non-negative values");
        if !metrics_enabled() {
            return;
        }
        self.touch();
        self.bits.fetch_max(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn value(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    /// Metric name as it appears in snapshots.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Variance tag.
    pub fn variance(&self) -> Variance {
        self.variance
    }

    fn touch(&'static self) {
        if !self.registered.load(Ordering::Relaxed)
            && !self.registered.swap(true, Ordering::Relaxed)
        {
            lock(&registry().gauges).push(self);
        }
    }
}

// ---------------------------------------------------------------------------
// Histogram + SpanTimer
// ---------------------------------------------------------------------------

/// Number of latency buckets per [`Histogram`].
pub const HIST_BUCKETS: usize = 24;

/// Lower bound of bucket 0 in nanoseconds; bucket `b` counts durations
/// in `[256 << (b-1), 256 << b)` ns (bucket 0 is `< 256` ns, the last
/// bucket is open-ended). 24 power-of-two buckets span 256 ns to ~2 s.
pub const HIST_BASE_NS: u64 = 256;

/// A fixed-bucket latency histogram with lock-free `u64` bins.
///
/// Timings are inherently run-variant, so histograms are always tagged
/// `thread_variant` in snapshots and never gated.
pub struct Histogram {
    name: &'static str,
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
    registered: AtomicBool,
}

impl Histogram {
    /// A new histogram; like counters, registration is lazy.
    pub const fn new(name: &'static str) -> Self {
        Histogram {
            name,
            buckets: [const { AtomicU64::new(0) }; HIST_BUCKETS],
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    /// Record one duration in nanoseconds; a no-op while disabled.
    #[inline]
    pub fn record_ns(&'static self, ns: u64) {
        if !metrics_enabled() {
            return;
        }
        self.touch();
        self.buckets[Self::bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Bucket index a duration of `ns` nanoseconds falls into.
    pub fn bucket_index(ns: u64) -> usize {
        let mut b = 0usize;
        let mut bound = HIST_BASE_NS;
        while b + 1 < HIST_BUCKETS && ns >= bound {
            bound <<= 1;
            b += 1;
        }
        b
    }

    /// Start an RAII span; the elapsed time is recorded on drop. When
    /// metrics are disabled the timer never reads the clock.
    #[inline]
    pub fn span(&'static self) -> SpanTimer {
        SpanTimer { hist: self, start: metrics_enabled().then(Instant::now) }
    }

    /// Total recorded spans.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded durations in nanoseconds.
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns.load(Ordering::Relaxed)
    }

    /// Metric name as it appears in snapshots.
    pub fn name(&self) -> &'static str {
        self.name
    }

    fn touch(&'static self) {
        if !self.registered.load(Ordering::Relaxed)
            && !self.registered.swap(true, Ordering::Relaxed)
        {
            lock(&registry().histograms).push(self);
        }
    }
}

/// RAII timer returned by [`Histogram::span`]; records on drop.
pub struct SpanTimer {
    hist: &'static Histogram,
    start: Option<Instant>,
}

impl Drop for SpanTimer {
    fn drop(&mut self) {
        if let Some(start) = self.start.take() {
            let ns = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            self.hist.record_ns(ns);
        }
    }
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

/// Point-in-time value of one counter.
#[derive(Debug, Clone)]
pub struct CounterSnapshot {
    /// Metric name.
    pub name: String,
    /// `"invariant"` or `"thread_variant"`.
    pub variance: String,
    /// Counter value.
    pub value: u64,
}

/// Point-in-time value of one gauge.
#[derive(Debug, Clone)]
pub struct GaugeSnapshot {
    /// Metric name.
    pub name: String,
    /// `"invariant"` or `"thread_variant"`.
    pub variance: String,
    /// Gauge value.
    pub value: f64,
}

/// Point-in-time state of one latency histogram.
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: String,
    /// Always `"thread_variant"`: timings are never thread-invariant.
    pub variance: String,
    /// Total recorded spans.
    pub count: u64,
    /// Sum of recorded durations in nanoseconds.
    pub sum_ns: u64,
    /// Per-bucket counts (see [`HIST_BASE_NS`] for the bucket layout).
    pub buckets: Vec<u64>,
}

/// All registered metrics at a point in time, sorted by name.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Counters, sorted by name.
    pub counters: Vec<CounterSnapshot>,
    /// Gauges, sorted by name.
    pub gauges: Vec<GaugeSnapshot>,
    /// Latency histograms, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Look up a counter value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|c| c.name == name).map(|c| c.value)
    }

    /// Look up a gauge value by name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }
}

/// Snapshot every registered metric, sorted by name for stable output.
pub fn snapshot() -> MetricsSnapshot {
    let mut counters: Vec<CounterSnapshot> = lock(&registry().counters)
        .iter()
        .map(|c| CounterSnapshot {
            name: c.name.to_string(),
            variance: c.variance.tag().to_string(),
            value: c.value(),
        })
        .collect();
    counters.sort_by(|a, b| a.name.cmp(&b.name));

    let mut gauges: Vec<GaugeSnapshot> = lock(&registry().gauges)
        .iter()
        .map(|g| GaugeSnapshot {
            name: g.name.to_string(),
            variance: g.variance.tag().to_string(),
            value: g.value(),
        })
        .collect();
    gauges.sort_by(|a, b| a.name.cmp(&b.name));

    let mut histograms: Vec<HistogramSnapshot> = lock(&registry().histograms)
        .iter()
        .map(|h| HistogramSnapshot {
            name: h.name.to_string(),
            variance: Variance::ThreadVariant.tag().to_string(),
            count: h.count(),
            sum_ns: h.sum_ns(),
            buckets: h.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
        })
        .collect();
    histograms.sort_by(|a, b| a.name.cmp(&b.name));

    MetricsSnapshot { counters, gauges, histograms }
}

/// Pretty-printed JSON of [`snapshot`].
pub fn snapshot_json() -> String {
    snapshot_to_json(&snapshot())
}

fn snapshot_to_json(snap: &MetricsSnapshot) -> String {
    use json::Value::{Array, Num, Object, Str, UInt};
    let named = |name, variance, value| {
        Object(vec![("name", Str(name)), ("variance", Str(variance)), ("value", value)])
    };
    let counters = snap.counters.iter().map(|c| named(&c.name, &c.variance, UInt(c.value)));
    let gauges = snap.gauges.iter().map(|g| named(&g.name, &g.variance, Num(g.value)));
    let histograms = snap.histograms.iter().map(|h| {
        Object(vec![
            ("name", Str(&h.name)),
            ("variance", Str(&h.variance)),
            ("count", UInt(h.count)),
            ("sum_ns", UInt(h.sum_ns)),
            ("buckets", Array(h.buckets.iter().map(|&b| UInt(b)).collect())),
        ])
    });
    json::to_string_pretty(&Object(vec![
        ("counters", Array(counters.collect())),
        ("gauges", Array(gauges.collect())),
        ("histograms", Array(histograms.collect())),
    ]))
}

/// Human-readable end-of-run summary table of every registered metric.
pub fn summary_table() -> String {
    let snap = snapshot();
    let mut out = String::new();
    out.push_str(&format!(
        "{:<42} {:>16}  {}\n{}\n",
        "metric",
        "value",
        "variance",
        "-".repeat(72)
    ));
    for c in &snap.counters {
        out.push_str(&format!("{:<42} {:>16}  {}\n", c.name, c.value, c.variance));
    }
    for g in &snap.gauges {
        out.push_str(&format!("{:<42} {:>16.6}  {}\n", g.name, g.value, g.variance));
    }
    for h in &snap.histograms {
        let mean_us = if h.count == 0 { 0.0 } else { h.sum_ns as f64 / h.count as f64 / 1_000.0 };
        out.push_str(&format!(
            "{:<42} {:>9} spans  mean {:.1}us  {}\n",
            h.name, h.count, mean_us, h.variance
        ));
    }
    out
}

/// Zero every registered metric (registration is kept) and clear the
/// event trace. Used between runs by tests and the benchmark harness.
pub fn reset() {
    for c in lock(&registry().counters).iter() {
        c.value.store(0, Ordering::Relaxed);
    }
    for g in lock(&registry().gauges).iter() {
        g.bits.store(0, Ordering::Relaxed);
    }
    for h in lock(&registry().histograms).iter() {
        for b in &h.buckets {
            b.store(0, Ordering::Relaxed);
        }
        h.count.store(0, Ordering::Relaxed);
        h.sum_ns.store(0, Ordering::Relaxed);
    }
    trace::clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    // Metrics state is process-global; every test in this binary that
    // toggles it must hold this lock so the suite stays race-free under
    // the default parallel test runner.
    fn test_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn counters_are_inert_when_disabled_and_count_when_enabled() {
        let _guard = test_lock();
        static C: Counter = Counter::new("test.inert");
        set_metrics_enabled(false);
        C.inc();
        C.add(41);
        assert_eq!(C.value(), 0, "disabled counters must not move");
        set_metrics_enabled(true);
        C.inc();
        C.add(41);
        assert_eq!(C.value(), 42);
        assert!(
            snapshot().counter("test.inert").is_some(),
            "first enabled bump registers the counter"
        );
        set_metrics_enabled(false);
        clear_metrics_override();
    }

    #[test]
    fn gauge_set_and_set_max() {
        let _guard = test_lock();
        static G: Gauge = Gauge::new("test.gauge");
        set_metrics_enabled(true);
        G.set(1.5);
        assert_eq!(G.value(), 1.5);
        G.set_max(0.5);
        assert_eq!(G.value(), 1.5, "set_max must not lower the gauge");
        G.set_max(2.25);
        assert_eq!(G.value(), 2.25);
        set_metrics_enabled(false);
        clear_metrics_override();
    }

    #[test]
    fn histogram_buckets_and_span_timer() {
        let _guard = test_lock();
        static H: Histogram = Histogram::new("test.hist");
        set_metrics_enabled(true);
        H.record_ns(0);
        H.record_ns(HIST_BASE_NS);
        H.record_ns(u64::MAX);
        {
            let _span = H.span();
        }
        assert_eq!(H.count(), 4);
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(HIST_BASE_NS - 1), 0);
        assert_eq!(Histogram::bucket_index(HIST_BASE_NS), 1);
        assert_eq!(Histogram::bucket_index(u64::MAX), HIST_BUCKETS - 1);
        set_metrics_enabled(false);
        clear_metrics_override();
    }

    #[test]
    fn reset_zeroes_but_keeps_registration() {
        let _guard = test_lock();
        static C: Counter = Counter::new("test.reset");
        set_metrics_enabled(true);
        C.add(7);
        reset();
        assert_eq!(C.value(), 0);
        let snap = snapshot();
        assert_eq!(
            snap.counter("test.reset"),
            Some(0),
            "reset keeps the metric registered at zero"
        );
        set_metrics_enabled(false);
        clear_metrics_override();
    }

    #[test]
    fn leaked_counters_dedupe_by_name() {
        let _guard = test_lock();
        let a = leaked_counter("test.worker.0.tasks".to_string(), Variance::ThreadVariant);
        let b = leaked_counter("test.worker.0.tasks".to_string(), Variance::ThreadVariant);
        assert!(std::ptr::eq(a, b), "same name must yield the same counter");
        assert_eq!(a.variance(), Variance::ThreadVariant);
    }

    #[test]
    fn snapshot_json_is_valid_and_sorted() {
        let _guard = test_lock();
        static C1: Counter = Counter::new("test.json.b");
        static C2: Counter = Counter::new("test.json.a");
        set_metrics_enabled(true);
        C1.inc();
        C2.inc();
        let snap = snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|c| c.name.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted, "snapshot counters are name-sorted");
        let json = snapshot_json();
        let a = json.find("\"test.json.a\"").expect("counter a is in the JSON");
        let b = json.find("\"test.json.b\"").expect("counter b is in the JSON");
        assert!(a < b, "the JSON keeps the snapshot's name order");
        assert!(json.starts_with("{\n  \"counters\": [\n") && json.ends_with("\n}"), "{json}");
        assert!(!summary_table().is_empty());
        set_metrics_enabled(false);
        clear_metrics_override();
    }

    /// Exact bytes of the snapshot JSON: field order, 2-space indent,
    /// integral vs fractional vs non-finite gauges, empty arrays and the
    /// string escapes all stay as `--metrics-out` has always written them.
    #[test]
    fn snapshot_json_pins_exact_bytes() {
        let gauge = |name: &str, value| GaugeSnapshot {
            name: name.to_string(),
            variance: "invariant".to_string(),
            value,
        };
        let histogram = |name: &str, count, buckets| HistogramSnapshot {
            name: name.to_string(),
            variance: "thread_variant".to_string(),
            count,
            sum_ns: 1_234_567 * count,
            buckets,
        };
        let snap = MetricsSnapshot {
            counters: vec![CounterSnapshot {
                name: "c.\"q\"\\\u{1}\t größe".to_string(),
                variance: "thread_variant".to_string(),
                value: 9_007_199_254_740_991,
            }],
            gauges: vec![
                gauge("g.integral", 3.0),
                gauge("g.fractional", 0.25),
                gauge("g.nan", f64::NAN),
                gauge("g.inf", f64::INFINITY),
            ],
            histograms: vec![histogram("h.empty", 0, vec![]), histogram("h.full", 7, vec![0, 7])],
        };
        let expected = r#"{
  "counters": [
    {
      "name": "c.\"q\"\\\u0001\t größe",
      "variance": "thread_variant",
      "value": 9007199254740991
    }
  ],
  "gauges": [
    {
      "name": "g.integral",
      "variance": "invariant",
      "value": 3
    },
    {
      "name": "g.fractional",
      "variance": "invariant",
      "value": 0.25
    },
    {
      "name": "g.nan",
      "variance": "invariant",
      "value": null
    },
    {
      "name": "g.inf",
      "variance": "invariant",
      "value": null
    }
  ],
  "histograms": [
    {
      "name": "h.empty",
      "variance": "thread_variant",
      "count": 0,
      "sum_ns": 0,
      "buckets": []
    },
    {
      "name": "h.full",
      "variance": "thread_variant",
      "count": 7,
      "sum_ns": 8641969,
      "buckets": [
        0,
        7
      ]
    }
  ]
}"#;
        assert_eq!(snapshot_to_json(&snap), expected);
        assert_eq!(
            snapshot_to_json(&MetricsSnapshot::default()),
            "{\n  \"counters\": [],\n  \"gauges\": [],\n  \"histograms\": []\n}"
        );
    }

    // The writer's layout rules, checked directly.

    #[test]
    fn pretty_format_indents_nested_containers() {
        use json::Value::{Array, Num, Object, Str};
        let v = Object(vec![
            ("dataset", Str("Car")),
            ("n", Num(30.0)),
            ("xs", Array(vec![Num(0.5), Num(1.0)])),
        ]);
        assert_eq!(
            json::to_string_pretty(&v),
            "{\n  \"dataset\": \"Car\",\n  \"n\": 30,\n  \"xs\": [\n    0.5,\n    1\n  ]\n}"
        );
    }

    #[test]
    fn floats_round_trip_exactly() {
        for x in [0.1, 1.0 / 3.0, 1e-12, 123456.789, -0.007, 1e300, f64::MAX, f64::MIN_POSITIVE] {
            let text = json::to_string_pretty(&json::Value::Num(x));
            assert_eq!(text.parse::<f64>(), Ok(x), "{text}");
        }
    }
}
