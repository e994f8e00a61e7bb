//! The CI bench-regression gate behind the `benchdiff` binary.
//!
//! Compares a fresh perfsmoke record against the committed baseline:
//! **output hashes are gated** (a probe whose stable FNV digest moved, or
//! whose serial/parallel outputs diverged, fails the job) while **timings
//! are warn-only** — shared CI runners make wall-clock too noisy to gate,
//! so the delta table is printed for humans instead.
//!
//! Since PR 7 the record also carries a `metrics` section (the `frote-obs`
//! snapshot taken at the end of the perfsmoke run). Its **thread-invariant
//! counters are gated like output hashes** — they count interior work
//! (cache appends, FROTE accepts, histogram nodes) that is pinned by the
//! determinism contract, so a moved count is a behaviour change. Counters
//! tagged `thread_variant`, gauges, and latency histograms are
//! timing-adjacent and stay warn-only.

use frote_obs::MetricsSnapshot;
use serde::{Deserialize, Serialize};

/// FNV-1a as a [`std::hash::Hasher`] — the canonical stable digest shared
/// by the producer (`perfsmoke` records `output_fnv` with it) and this
/// gate. `DefaultHasher` is only stable within one std build, which is
/// useless for a cross-run comparison.
#[derive(Debug)]
pub struct FnvHasher(u64);

impl Default for FnvHasher {
    fn default() -> Self {
        FnvHasher(0xcbf2_9ce4_8422_2325)
    }
}

impl FnvHasher {
    /// A hasher at the FNV-1a offset basis.
    pub fn new() -> Self {
        FnvHasher::default()
    }
}

impl std::hash::Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// The bench-record filename in force: the `BENCH_FILE` environment
/// variable (which CI sets once for every step) or this PR generation's
/// committed default. Shared by `perfsmoke` (writer) and `benchdiff`
/// (reader) so the name is wired in exactly one place.
pub fn default_bench_file() -> String {
    std::env::var("BENCH_FILE").unwrap_or_else(|_| "BENCH_pr12.json".to_string())
}

/// The per-probe fields the gate reads (a subset of perfsmoke's record, so
/// older committed baselines without `output_fnv` still parse).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GateRecord {
    /// Probe name (the join key between baseline and fresh runs).
    pub name: String,
    /// Serial wall-clock, milliseconds.
    pub serial_ms: f64,
    /// Parallel wall-clock, milliseconds.
    pub parallel_ms: f64,
    /// Whether the run's serial and parallel outputs were bit-identical.
    pub identical: bool,
    /// Stable FNV-1a output digest (absent in pre-gate baselines).
    pub output_fnv: Option<String>,
}

/// One serve-path probe's fields the gate reads (since PR 9): latency
/// percentiles of scoring over the wire, plus the response digest that
/// `perfsmoke` asserts equal to a direct `predict_rows` call.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServeGateRecord {
    /// Probe name (`serve_latency`, `serve_sweep_rows64`, …).
    pub name: String,
    /// Median request latency, milliseconds (warn-only).
    pub p50_ms: f64,
    /// 99th-percentile request latency, milliseconds (warn-only).
    pub p99_ms: f64,
    /// Whether the over-the-wire responses matched a direct
    /// `predict_rows` call bit for bit (hard-gated).
    pub matches_direct: bool,
    /// Stable FNV-1a digest of all response labels (hard-gated).
    pub response_fnv: Option<String>,
    /// Fraction of score attempts shed by admission control (PR 10
    /// overload probe only; timing-dependent, so warn-only). Absent in
    /// pre-PR 10 baselines and on the latency probes.
    pub shed_rate: Option<f64>,
}

/// The slice of a `BENCH_*.json` file the gate consumes.
#[derive(Debug, Deserialize)]
pub struct GateFile {
    /// All probe records.
    pub benches: Vec<GateRecord>,
    /// The `frote-obs` snapshot of the run (absent in pre-PR 7 baselines).
    pub metrics: Option<MetricsSnapshot>,
    /// Serve-path probes (absent in pre-PR 9 baselines).
    pub serve: Option<Vec<ServeGateRecord>>,
}

/// The gate's verdict: a human delta table, warn-only notes, and the
/// failures that should break the job.
#[derive(Debug)]
pub struct GateOutcome {
    /// Per-probe timing delta lines (warn-only).
    pub table: Vec<String>,
    /// Informational notes (added/removed probes, incomparable hashes).
    pub notes: Vec<String>,
    /// Hard failures: determinism breaks and output-hash regressions.
    pub failures: Vec<String>,
}

impl GateOutcome {
    /// Whether the gate passes.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

fn delta_pct(old: f64, new: f64) -> String {
    if old <= 0.0 {
        return "    n/a".to_string();
    }
    format!("{:+6.1}%", (new - old) / old * 100.0)
}

/// Compares a fresh record against the committed baseline. Identical-output
/// and hash mismatches populate `failures`; everything timing-shaped is
/// advisory.
pub fn compare(old: &GateFile, new: &GateFile) -> GateOutcome {
    let mut outcome = GateOutcome { table: Vec::new(), notes: Vec::new(), failures: Vec::new() };
    outcome.table.push(format!(
        "{:<22} {:>10} {:>10} {:>8} {:>10} {:>10} {:>8}",
        "probe", "old ser", "new ser", "Δser", "old par", "new par", "Δpar"
    ));
    for rec in &new.benches {
        if !rec.identical {
            outcome.failures.push(format!(
                "{}: serial and parallel outputs diverged in the fresh run",
                rec.name
            ));
        }
        match old.benches.iter().find(|o| o.name == rec.name) {
            None => outcome.notes.push(format!("{}: new probe (no baseline)", rec.name)),
            Some(o) => {
                outcome.table.push(format!(
                    "{:<22} {:>8.2}ms {:>8.2}ms {:>8} {:>8.2}ms {:>8.2}ms {:>8}",
                    rec.name,
                    o.serial_ms,
                    rec.serial_ms,
                    delta_pct(o.serial_ms, rec.serial_ms),
                    o.parallel_ms,
                    rec.parallel_ms,
                    delta_pct(o.parallel_ms, rec.parallel_ms),
                ));
                match (&o.output_fnv, &rec.output_fnv) {
                    (Some(old_fnv), Some(new_fnv)) if old_fnv != new_fnv => {
                        outcome.failures.push(format!(
                            "{}: output hash changed ({old_fnv} -> {new_fnv}) — behaviour \
                             regression, or an intentional change that needs a regenerated \
                             baseline",
                            rec.name
                        ));
                    }
                    (None, _) | (_, None) => outcome.notes.push(format!(
                        "{}: baseline has no output hash; gating starts next run",
                        rec.name
                    )),
                    _ => {}
                }
            }
        }
    }
    for o in &old.benches {
        if !new.benches.iter().any(|r| r.name == o.name) {
            outcome.notes.push(format!("{}: probe removed since the baseline", o.name));
        }
    }
    match (&old.serve, &new.serve) {
        (_, None) => {}
        (None, Some(n)) => {
            outcome
                .notes
                .push("baseline has no serve section; serve gating starts next run".to_string());
            // Digest gating needs a baseline, but a wire/direct divergence
            // is a determinism break in the fresh run alone.
            compare_serve(&[], n, &mut outcome);
        }
        (Some(o), Some(n)) => compare_serve(o, n, &mut outcome),
    }
    match (&old.metrics, &new.metrics) {
        (_, None) => outcome
            .notes
            .push("fresh run carries no metrics section; interior counters not gated".to_string()),
        (None, Some(_)) => outcome
            .notes
            .push("baseline has no metrics section; metric gating starts next run".to_string()),
        (Some(o), Some(n)) => compare_metrics(o, n, &mut outcome),
    }
    outcome
}

/// Diffs the serve-path probes into `outcome`: a response digest that is
/// not bit-identical to direct `predict_rows` (or that moved against the
/// baseline) is a hard failure; latency percentiles are warn-only, same
/// rationale as the bench timings.
fn compare_serve(old: &[ServeGateRecord], new: &[ServeGateRecord], outcome: &mut GateOutcome) {
    for rec in new {
        if !rec.matches_direct {
            outcome.failures.push(format!(
                "{}: wire responses diverged from direct predict_rows in the fresh run",
                rec.name
            ));
        }
        let Some(o) = old.iter().find(|o| o.name == rec.name) else {
            outcome.notes.push(format!("{}: new serve probe (no baseline)", rec.name));
            continue;
        };
        match (&o.response_fnv, &rec.response_fnv) {
            (Some(old_fnv), Some(new_fnv)) if old_fnv != new_fnv => {
                outcome.failures.push(format!(
                    "{}: serve response digest changed ({old_fnv} -> {new_fnv}) — behaviour \
                     regression, or an intentional change that needs a regenerated baseline",
                    rec.name
                ));
            }
            (None, _) | (_, None) => outcome.notes.push(format!(
                "{}: baseline has no serve response digest; gating starts next run",
                rec.name
            )),
            _ => {}
        }
        outcome.table.push(format!(
            "{:<22} p50 {:>8.2}ms -> {:>8.2}ms {:>8}   p99 {:>8.2}ms -> {:>8.2}ms {:>8}",
            rec.name,
            o.p50_ms,
            rec.p50_ms,
            delta_pct(o.p50_ms, rec.p50_ms),
            o.p99_ms,
            rec.p99_ms,
            delta_pct(o.p99_ms, rec.p99_ms),
        ));
        // Shed rate is arrival-timing-dependent: drift is a warning, not a
        // gate — but a probe that stopped shedding entirely (or started
        // from zero) usually means the overload harness changed shape.
        if let (Some(old_rate), Some(new_rate)) = (o.shed_rate, rec.shed_rate) {
            if (new_rate - old_rate).abs() > 0.15 {
                outcome.notes.push(format!(
                    "{}: shed rate drifted {:.2} -> {:.2} (warn-only)",
                    rec.name, old_rate, new_rate
                ));
            }
        }
    }
    for o in old {
        if !new.iter().any(|r| r.name == o.name) {
            outcome.notes.push(format!("{}: serve probe removed since the baseline", o.name));
        }
    }
}

/// Diffs the two runs' metric snapshots into `outcome`. Thread-invariant
/// counter mismatches are hard failures (same contract as the output
/// hashes); everything timing-adjacent — `thread_variant` counters, gauges,
/// latency histograms — lands in the warn-only notes.
fn compare_metrics(old: &MetricsSnapshot, new: &MetricsSnapshot, outcome: &mut GateOutcome) {
    for c in &new.counters {
        let Some(o) = old.counters.iter().find(|o| o.name == c.name) else {
            outcome.notes.push(format!("{}: new counter (no baseline)", c.name));
            continue;
        };
        if o.value == c.value {
            continue;
        }
        if o.variance == "invariant" && c.variance == "invariant" {
            outcome.failures.push(format!(
                "{}: invariant counter changed ({} -> {}) — behaviour regression, or an \
                 intentional change that needs a regenerated baseline",
                c.name, o.value, c.value
            ));
        } else {
            outcome.notes.push(format!(
                "{}: thread-variant counter moved ({} -> {}); warn-only",
                c.name, o.value, c.value
            ));
        }
    }
    for o in &old.counters {
        if !new.counters.iter().any(|c| c.name == o.name) {
            outcome.notes.push(format!("{}: counter removed since the baseline", o.name));
        }
    }
    for g in &new.gauges {
        if let Some(o) = old.gauges.iter().find(|o| o.name == g.name) {
            if o.value.to_bits() != g.value.to_bits() {
                outcome.notes.push(format!(
                    "{}: gauge moved ({} -> {}); warn-only",
                    g.name, o.value, g.value
                ));
            }
        }
    }
    for h in &new.histograms {
        if let Some(o) = old.histograms.iter().find(|o| o.name == h.name) {
            if o.count != h.count {
                outcome.notes.push(format!(
                    "{}: histogram span count moved ({} -> {}); warn-only",
                    h.name, o.count, h.count
                ));
            }
        }
    }
}

/// Picks the baseline `BENCH_*.json` in `dir`: the highest-numbered
/// `BENCH_pr<N>.json` (lexicographic fallback for other names) that is not
/// `exclude`. Returns `None` when the directory holds no candidate.
pub fn discover_baseline(dir: &std::path::Path, exclude: &str) -> Option<std::path::PathBuf> {
    let mut candidates: Vec<(u64, String)> = std::fs::read_dir(dir)
        .ok()?
        .filter_map(|e| e.ok())
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json") && n != exclude)
        .map(|n| {
            let digits: String =
                n.trim_start_matches("BENCH_pr").chars().take_while(char::is_ascii_digit).collect();
            (digits.parse().unwrap_or(0), n)
        })
        .collect();
    candidates.sort();
    candidates.pop().map(|(_, n)| dir.join(n))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &str, fnv: Option<&str>, identical: bool) -> GateRecord {
        GateRecord {
            name: name.to_string(),
            serial_ms: 10.0,
            parallel_ms: 5.0,
            identical,
            output_fnv: fnv.map(str::to_string),
        }
    }

    #[test]
    fn fnv_hasher_matches_known_vectors() {
        use std::hash::Hasher;
        assert_eq!(FnvHasher::new().finish(), 0xcbf2_9ce4_8422_2325, "offset basis");
        let mut h = FnvHasher::new();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c, "FNV-1a of \"a\"");
    }

    #[test]
    fn clean_run_passes() {
        let old = GateFile { serve: None, metrics: None, benches: vec![rec("a", Some("1"), true)] };
        let new = GateFile { serve: None, metrics: None, benches: vec![rec("a", Some("1"), true)] };
        let out = compare(&old, &new);
        assert!(out.passed(), "{:?}", out.failures);
        assert_eq!(out.table.len(), 2, "header + one probe");
    }

    #[test]
    fn hash_mismatch_fails() {
        let old = GateFile { serve: None, metrics: None, benches: vec![rec("a", Some("1"), true)] };
        let new = GateFile { serve: None, metrics: None, benches: vec![rec("a", Some("2"), true)] };
        let out = compare(&old, &new);
        assert!(!out.passed());
        assert!(out.failures[0].contains("output hash changed"), "{}", out.failures[0]);
    }

    #[test]
    fn determinism_break_fails_even_without_baseline() {
        let old = GateFile { serve: None, metrics: None, benches: Vec::new() };
        let new =
            GateFile { serve: None, metrics: None, benches: vec![rec("a", Some("1"), false)] };
        let out = compare(&old, &new);
        assert!(!out.passed());
        assert!(out.failures[0].contains("diverged"));
    }

    #[test]
    fn missing_baseline_hash_warns_only() {
        let old = GateFile { serve: None, metrics: None, benches: vec![rec("a", None, true)] };
        let new = GateFile { serve: None, metrics: None, benches: vec![rec("a", Some("2"), true)] };
        let out = compare(&old, &new);
        assert!(out.passed(), "pre-gate baselines must not fail the job");
        assert!(out.notes.iter().any(|n| n.contains("gating starts next run")));
    }

    #[test]
    fn added_and_removed_probes_are_notes() {
        let old =
            GateFile { serve: None, metrics: None, benches: vec![rec("gone", Some("1"), true)] };
        let new =
            GateFile { serve: None, metrics: None, benches: vec![rec("fresh", Some("2"), true)] };
        let out = compare(&old, &new);
        assert!(out.passed());
        assert!(out.notes.iter().any(|n| n.contains("new probe")));
        assert!(out.notes.iter().any(|n| n.contains("removed")));
    }

    #[test]
    fn timing_regressions_never_fail() {
        let mut slow = rec("a", Some("1"), true);
        slow.serial_ms = 1000.0;
        slow.parallel_ms = 900.0;
        let old = GateFile { serve: None, metrics: None, benches: vec![rec("a", Some("1"), true)] };
        let new = GateFile { serve: None, metrics: None, benches: vec![slow] };
        let out = compare(&old, &new);
        assert!(out.passed(), "timings are warn-only");
        assert!(out.table[1].contains('%'));
    }

    fn serve_rec(name: &str, fnv: Option<&str>, matches_direct: bool) -> ServeGateRecord {
        ServeGateRecord {
            name: name.to_string(),
            p50_ms: 1.0,
            p99_ms: 2.0,
            matches_direct,
            response_fnv: fnv.map(str::to_string),
            shed_rate: None,
        }
    }

    fn with_serve(records: Vec<ServeGateRecord>) -> GateFile {
        GateFile { serve: Some(records), metrics: None, benches: vec![rec("a", Some("1"), true)] }
    }

    #[test]
    fn serve_digest_change_fails() {
        let old = with_serve(vec![serve_rec("serve_latency", Some("1"), true)]);
        let new = with_serve(vec![serve_rec("serve_latency", Some("2"), true)]);
        let out = compare(&old, &new);
        assert!(!out.passed());
        assert!(out.failures[0].contains("serve response digest changed"), "{}", out.failures[0]);
    }

    #[test]
    fn serve_direct_divergence_fails_even_without_baseline() {
        let old = GateFile { serve: None, metrics: None, benches: vec![rec("a", Some("1"), true)] };
        let new = with_serve(vec![serve_rec("serve_latency", Some("1"), false)]);
        let out = compare(&old, &new);
        assert!(!out.passed());
        assert!(
            out.failures[0].contains("diverged from direct predict_rows"),
            "{}",
            out.failures[0]
        );
    }

    #[test]
    fn missing_baseline_serve_section_warns_only() {
        let old = GateFile { serve: None, metrics: None, benches: vec![rec("a", Some("1"), true)] };
        let new = with_serve(vec![serve_rec("serve_latency", Some("1"), true)]);
        let out = compare(&old, &new);
        assert!(out.passed(), "pre-PR 9 baselines must not fail the job: {:?}", out.failures);
        assert!(out.notes.iter().any(|n| n.contains("serve gating starts next run")));
    }

    #[test]
    fn serve_latency_regressions_never_fail() {
        let mut slow = serve_rec("serve_latency", Some("1"), true);
        slow.p50_ms = 50.0;
        slow.p99_ms = 500.0;
        let old = with_serve(vec![serve_rec("serve_latency", Some("1"), true)]);
        let new = with_serve(vec![slow]);
        let out = compare(&old, &new);
        assert!(out.passed(), "serve latencies are warn-only: {:?}", out.failures);
    }

    #[test]
    fn shed_rate_drift_warns_but_never_fails() {
        let mut was = serve_rec("serve_overload", Some("1"), true);
        was.shed_rate = Some(0.60);
        let mut now = serve_rec("serve_overload", Some("1"), true);
        now.shed_rate = Some(0.10);
        let out = compare(&with_serve(vec![was]), &with_serve(vec![now]));
        assert!(out.passed(), "shed rate is warn-only: {:?}", out.failures);
        assert!(out.notes.iter().any(|n| n.contains("shed rate drifted")), "{:?}", out.notes);

        // Small drift stays silent; a digest change still hard-fails even
        // with matching shed rates.
        let mut was = serve_rec("serve_overload", Some("1"), true);
        was.shed_rate = Some(0.50);
        let mut now = serve_rec("serve_overload", Some("2"), true);
        now.shed_rate = Some(0.55);
        let out = compare(&with_serve(vec![was]), &with_serve(vec![now]));
        assert!(!out.passed(), "overload digest is hard-gated");
        assert!(!out.notes.iter().any(|n| n.contains("shed rate drifted")), "{:?}", out.notes);
    }

    fn counter(name: &str, variance: &str, value: u64) -> frote_obs::CounterSnapshot {
        frote_obs::CounterSnapshot { name: name.to_string(), variance: variance.to_string(), value }
    }

    fn with_metrics(counters: Vec<frote_obs::CounterSnapshot>) -> GateFile {
        GateFile {
            serve: None,
            benches: vec![rec("a", Some("1"), true)],
            metrics: Some(MetricsSnapshot { counters, ..Default::default() }),
        }
    }

    #[test]
    fn invariant_counter_change_fails() {
        let old = with_metrics(vec![counter("frote.accepted", "invariant", 3)]);
        let new = with_metrics(vec![counter("frote.accepted", "invariant", 2)]);
        let out = compare(&old, &new);
        assert!(!out.passed());
        assert!(out.failures[0].contains("invariant counter changed"), "{}", out.failures[0]);
    }

    #[test]
    fn thread_variant_counter_change_warns_only() {
        let old = with_metrics(vec![counter("par.tasks", "thread_variant", 100)]);
        let new = with_metrics(vec![counter("par.tasks", "thread_variant", 250)]);
        let out = compare(&old, &new);
        assert!(out.passed(), "{:?}", out.failures);
        assert!(out.notes.iter().any(|n| n.contains("warn-only")), "{:?}", out.notes);
    }

    #[test]
    fn matching_metrics_pass_silently() {
        let old = with_metrics(vec![counter("frote.accepted", "invariant", 3)]);
        let new = with_metrics(vec![counter("frote.accepted", "invariant", 3)]);
        let out = compare(&old, &new);
        assert!(out.passed());
        assert!(out.notes.is_empty(), "{:?}", out.notes);
    }

    #[test]
    fn missing_baseline_metrics_warns_only() {
        let old = GateFile { serve: None, metrics: None, benches: vec![rec("a", Some("1"), true)] };
        let new = with_metrics(vec![counter("frote.accepted", "invariant", 3)]);
        let out = compare(&old, &new);
        assert!(out.passed(), "pre-PR 7 baselines must not fail the job");
        assert!(out.notes.iter().any(|n| n.contains("metric gating starts next run")));
    }

    #[test]
    fn added_and_removed_counters_are_notes() {
        let old = with_metrics(vec![counter("gone", "invariant", 1)]);
        let new = with_metrics(vec![counter("fresh", "invariant", 2)]);
        let out = compare(&old, &new);
        assert!(out.passed());
        assert!(out.notes.iter().any(|n| n.contains("new counter")));
        assert!(out.notes.iter().any(|n| n.contains("counter removed")));
    }

    #[test]
    fn gate_file_parses_with_metrics_section() {
        let parsed: GateFile = serde_json::from_str(
            r#"{"benches":[{"name":"a","serial_ms":1.0,"parallel_ms":2.0,"identical":true}],
                "metrics":{"counters":[{"name":"frote.accepted","variance":"invariant",
                "value":3}],"gauges":[],"histograms":[]}}"#,
        )
        .expect("parses with metrics");
        let metrics = parsed.metrics.expect("metrics present");
        assert_eq!(metrics.counter("frote.accepted"), Some(3));
    }

    #[test]
    fn gate_file_parses_with_and_without_hashes() {
        let with: GateFile = serde_json::from_str(
            r#"{"benches":[{"name":"a","serial_ms":1.0,"parallel_ms":2.0,"speedup":0.5,
                "identical":true,"output_fnv":"deadbeef"}],"note":"x"}"#,
        )
        .expect("parses");
        assert_eq!(with.benches[0].output_fnv.as_deref(), Some("deadbeef"));
        let without: GateFile = serde_json::from_str(
            r#"{"benches":[{"name":"a","serial_ms":1.0,"parallel_ms":2.0,"identical":true}]}"#,
        )
        .expect("parses without output_fnv");
        assert_eq!(without.benches[0].output_fnv, None);
    }

    #[test]
    fn baseline_discovery_prefers_highest_pr_number() {
        let dir = std::env::temp_dir().join("frote-benchgate-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        for name in ["BENCH_pr2.json", "BENCH_pr10.json", "BENCH_pr4.json"] {
            std::fs::write(dir.join(name), "{}").unwrap();
        }
        let found = discover_baseline(&dir, "BENCH_pr10.json").expect("found");
        assert!(found.ends_with("BENCH_pr4.json"), "{found:?}");
        let found = discover_baseline(&dir, "BENCH_pr4.json").expect("found");
        assert!(found.ends_with("BENCH_pr10.json"), "numeric, not lexicographic: {found:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
