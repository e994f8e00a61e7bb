//! Histogram split search over quantized bin codes, for boosted trees.
//!
//! The training-side counterpart of [`frote_data::binned`]: instead of
//! ranking raw `f64` columns, GBDT in [`SplitMode::Histogram`] builds
//! per-feature gradient histograms with one linear pass over a node's rows
//! (in parallel over fixed row blocks, reduced in block order so results
//! are bit-identical at any `FROTE_THREADS`), scans bin boundaries for the
//! best variance-reduction split, and derives each larger sibling's
//! histogram by subtraction from its parent. Split tests are emitted as
//! raw-value [`SplitTest`]s (bin edges double as thresholds), so
//! histogram-trained models predict on unbinned rows exactly like
//! exact-mode models.
//!
//! Wide schemas additionally build feature-parallel (each parallel task
//! owns a block of features and its whole bin slice — zero shared writes),
//! which preserves the per-slot reduction order exactly and is therefore
//! bit-identical too.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

use frote_data::{BinnedMatrix, Binner};
use frote_obs::Counter;

use crate::tree::SplitTest;

/// Rows per parallel block when building node histograms. Partial
/// histograms are reduced in block order, so boundaries never affect the
/// result, only the schedule.
const HIST_BLOCK: usize = 1024;

/// Candidate-feature count from which class/gradient histograms build
/// feature-parallel (each task owns a feature block and its bin slice)
/// instead of only row-parallel. Both layouts reduce every bin slot in the
/// same order, so the gate is a pure scheduling heuristic.
const FEATURE_PAR_MIN: usize = 16;

/// Features per parallel task in the feature-parallel build.
const FEATURE_BLOCK: usize = 8;

// Histogram-plane metrics (see frote-obs). All thread-invariant: node
// counts, subtraction hits and zeroed-bin totals are functions of the data
// and the fixed HIST_BLOCK chunking, never of the schedule.
static NODES_BUILT: Counter = Counter::new("hist.nodes_built");
static SIBLING_SUBTRACTIONS: Counter = Counter::new("hist.sibling_subtractions");
static BINS_ZEROED: Counter = Counter::new("hist.bins_zeroed");

/// Default bin budget of [`SplitMode::histogram`]: double the exact search's
/// per-node threshold cap, and small enough for `u8` codes.
pub const DEFAULT_MAX_BINS: usize = 64;

/// How GBDT searches for splits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SplitMode {
    /// Raw-value search with quantile-thinned thresholds: each numeric
    /// column is ranked once per fit and every node orders its rows by a
    /// stable counting sort on those ranks. The seed behaviour, bit for
    /// bit, and the default (golden pins depend on it).
    #[default]
    Exact,
    /// Quantized histogram search over a shared [`BinnedMatrix`].
    Histogram {
        /// Per-feature bin budget (at least 2).
        max_bins: usize,
    },
}

impl SplitMode {
    /// Histogram mode with the [`DEFAULT_MAX_BINS`] budget.
    pub fn histogram() -> SplitMode {
        SplitMode::Histogram { max_bins: DEFAULT_MAX_BINS }
    }

    /// Per-feature bin budget, when on the histogram plane.
    pub fn max_bins(self) -> Option<usize> {
        match self {
            SplitMode::Exact => None,
            SplitMode::Histogram { max_bins } => Some(max_bins),
        }
    }

    /// Parses `"exact"`, `"histogram"` or `"histogram:<max_bins>"`
    /// (case-insensitive).
    pub fn parse(s: &str) -> Option<SplitMode> {
        let lower = s.to_ascii_lowercase();
        match lower.as_str() {
            "exact" => Some(SplitMode::Exact),
            "histogram" => Some(SplitMode::histogram()),
            _ => {
                let bins: usize = lower.strip_prefix("histogram:")?.parse().ok()?;
                (bins >= 2).then_some(SplitMode::Histogram { max_bins: bins })
            }
        }
    }

    /// Display form accepted back by [`SplitMode::parse`].
    pub fn name(self) -> String {
        match self {
            SplitMode::Exact => "exact".to_string(),
            SplitMode::Histogram { max_bins } => format!("histogram:{max_bins}"),
        }
    }
}

/// Process-wide default split mode picked up by `GbdtParams::default`
/// (0 = exact, n >= 2 = histogram with `max_bins` n) — the `--split-mode`
/// counterpart of `frote_par::set_threads`.
static SPLIT_MODE_DEFAULT: AtomicUsize = AtomicUsize::new(0);

/// Sets the process-wide default [`SplitMode`] that freshly constructed
/// `GbdtParams` (and every LGBM trainer built from their defaults) pick up —
/// how the repro binaries' `--split-mode` flag reaches trainers constructed
/// deep inside the experiment harness. Explicitly constructed params, and
/// the exact-only LR and RF families, are unaffected.
pub fn set_default_split_mode(mode: SplitMode) {
    let encoded = match mode {
        SplitMode::Exact => 0,
        SplitMode::Histogram { max_bins } => {
            assert!(max_bins >= 2, "max_bins must be at least 2");
            max_bins
        }
    };
    SPLIT_MODE_DEFAULT.store(encoded, Ordering::Relaxed);
}

/// The process-wide default [`SplitMode`] (see [`set_default_split_mode`]);
/// [`SplitMode::Exact`] unless overridden.
pub fn default_split_mode() -> SplitMode {
    match SPLIT_MODE_DEFAULT.load(Ordering::Relaxed) {
        0 => SplitMode::Exact,
        n => SplitMode::Histogram { max_bins: n },
    }
}

/// A chosen split in bin space. Converted to a raw-value [`SplitTest`] for
/// the stored tree via [`HistContext::to_split_test`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum BinSplit {
    /// Go left when `code(row, feature) <= bin` (numeric boundary).
    NumLe { feature: usize, bin: usize },
    /// Go left when `code(row, feature) == bin` (categorical one-vs-rest).
    CatEq { feature: usize, bin: usize },
}

/// Shared per-fit view of the quantized plane: the fitted binner, the code
/// matrix, and the flat histogram layout (per-feature bin offsets).
pub(crate) struct HistContext<'a> {
    binner: &'a Binner,
    codes: &'a BinnedMatrix,
    /// `offsets[f]` = first flat bin slot of feature `f`.
    offsets: Vec<usize>,
    /// Total bin slots across all features.
    total_bins: usize,
}

impl<'a> HistContext<'a> {
    /// Builds the layout for one fit. The codes must come from `binner`.
    pub(crate) fn new(binner: &'a Binner, codes: &'a BinnedMatrix) -> Self {
        assert_eq!(binner.n_features(), codes.width(), "binner/codes width mismatch");
        let mut offsets = Vec::with_capacity(binner.n_features());
        let mut total = 0usize;
        for f in 0..binner.n_features() {
            offsets.push(total);
            total += binner.n_bins(f);
        }
        HistContext { binner, codes, offsets, total_bins: total }
    }

    pub(crate) fn n_features(&self) -> usize {
        self.binner.n_features()
    }

    pub(crate) fn n_bins(&self, f: usize) -> usize {
        self.binner.n_bins(f)
    }

    #[inline]
    fn slot(&self, i: usize, f: usize) -> usize {
        self.offsets[f] + self.codes.code(i, f)
    }

    /// Whether the row goes to the left child of `split`.
    #[inline]
    pub(crate) fn goes_left(&self, i: usize, split: BinSplit) -> bool {
        match split {
            BinSplit::NumLe { feature, bin } => self.codes.code(i, feature) <= bin,
            BinSplit::CatEq { feature, bin } => self.codes.code(i, feature) == bin,
        }
    }

    /// Converts a bin-space split into the raw-value test stored in trees.
    pub(crate) fn to_split_test(&self, split: BinSplit) -> SplitTest {
        match split {
            BinSplit::NumLe { feature, bin } => {
                SplitTest::NumLe { feature, threshold: self.binner.threshold(feature, bin) }
            }
            BinSplit::CatEq { feature, bin } => SplitTest::CatEq { feature, category: bin as u32 },
        }
    }

    /// Per-(feature, bin) `(count, target-sum)` pairs for the node's rows,
    /// as one flat `total_bins * 2` buffer (stride 2), built in parallel
    /// over fixed row blocks. Gradient sums are floats, so the fixed-order
    /// block reduction is what keeps them thread-count-invariant.
    pub(crate) fn reg_hist(&self, targets: &[f64], indices: &[usize]) -> Vec<f64> {
        NODES_BUILT.inc();
        // Adds row `i` to the slots of `features` in a buffer whose first
        // element is flat element `base`.
        let accumulate = |i: usize, features: Range<usize>, base: usize, h: &mut [f64]| {
            let t = targets[i];
            for f in features {
                let s = self.slot(i, f) * 2 - base;
                h[s] += 1.0;
                h[s + 1] += t;
            }
        };
        if self.n_features() >= FEATURE_PAR_MIN && indices.len() > HIST_BLOCK {
            self.build_hist_featpar(indices, accumulate)
        } else {
            self.build_hist(indices, self.total_bins * 2, |i, h| {
                accumulate(i, 0..self.n_features(), 0, h)
            })
        }
    }

    fn build_hist(
        &self,
        indices: &[usize],
        size: usize,
        accumulate: impl Fn(usize, &mut [f64]) + Sync,
    ) -> Vec<f64> {
        let parts = frote_par::par_chunks_map(indices, HIST_BLOCK, |_, chunk| {
            BINS_ZEROED.add(size as u64);
            let mut h = vec![0.0; size];
            for &i in chunk {
                accumulate(i, &mut h);
            }
            vec![h]
        });
        let mut parts = parts.into_iter();
        let mut acc = parts.next().unwrap_or_else(|| {
            BINS_ZEROED.add(size as u64);
            vec![0.0; size]
        });
        for part in parts {
            for (a, p) in acc.iter_mut().zip(&part) {
                *a += p;
            }
        }
        acc
    }

    /// Feature-parallel build for wide schemas: each parallel task owns a
    /// block of features and that block's whole slice of bin slots, so
    /// there are zero shared writes. Within a block the rows are chunked by
    /// the same fixed [`HIST_BLOCK`] as the row-parallel build and the
    /// first chunk accumulates straight into the zeroed output buffer, so
    /// every slot sees the exact per-chunk addition sequence of
    /// [`HistContext::build_hist`] — bit-identical, including signed zeros.
    fn build_hist_featpar(
        &self,
        indices: &[usize],
        accumulate: impl Fn(usize, Range<usize>, usize, &mut [f64]) + Sync,
    ) -> Vec<f64> {
        let n_features = self.n_features();
        // First flat element of feature `f` (`n_features` = one past the end).
        let start = |f: usize| 2 * self.offsets.get(f).copied().unwrap_or(self.total_bins);
        let blocks: Vec<Range<usize>> = (0..n_features)
            .step_by(FEATURE_BLOCK)
            .map(|f| f..(f + FEATURE_BLOCK).min(n_features))
            .collect();
        let parts = frote_par::par_map(&blocks, |block| {
            let base = start(block.start);
            let len = start(block.end) - base;
            BINS_ZEROED.add(len as u64);
            let mut acc = vec![0.0; len];
            let mut chunks = indices.chunks(HIST_BLOCK);
            if let Some(chunk) = chunks.next() {
                for &i in chunk {
                    accumulate(i, block.clone(), base, &mut acc);
                }
            }
            let mut part = vec![0.0; len];
            for chunk in chunks {
                BINS_ZEROED.add(len as u64);
                part.fill(0.0);
                for &i in chunk {
                    accumulate(i, block.clone(), base, &mut part);
                }
                crate::kernels::add_assign(&mut acc, &part);
            }
            acc
        });
        let mut out = Vec::with_capacity(start(n_features));
        for part in parts {
            out.extend_from_slice(&part);
        }
        out
    }

    /// `parent -= child` elementwise: after the call, `parent` holds the
    /// sibling's histogram. Counts stay exact; gradient sums stay
    /// deterministic (both operands are).
    pub(crate) fn subtract_hist(parent: &mut [f64], child: &[f64]) {
        SIBLING_SUBTRACTIONS.inc();
        for (p, c) in parent.iter_mut().zip(child) {
            *p -= c;
        }
    }

    /// Variance-reduction split from a regression histogram — the quantized
    /// mirror of the exact `best_regression_split`: maximize
    /// `left² / left_n + right² / right_n`, strict-`>` first-wins
    /// tie-breaking, and the same `base + 1e-9` improvement filter.
    pub(crate) fn find_best_regression_split(
        &self,
        hist: &[f64],
        n: f64,
        total: f64,
        min_leaf: usize,
    ) -> Option<BinSplit> {
        let mut best: Option<(f64, BinSplit)> = None;
        for f in 0..self.n_features() {
            let bins = self.n_bins(f);
            let base = self.offsets[f];
            if self.binner.is_numeric(f) {
                let mut left_n = 0.0;
                let mut left_sum = 0.0;
                for b in 0..bins.saturating_sub(1) {
                    left_n += hist[(base + b) * 2];
                    left_sum += hist[(base + b) * 2 + 1];
                    if (left_n as usize) < min_leaf || ((n - left_n) as usize) < min_leaf {
                        continue;
                    }
                    let right_sum = total - left_sum;
                    let score = left_sum * left_sum / left_n + right_sum * right_sum / (n - left_n);
                    if best.as_ref().is_none_or(|(s, _)| score > *s) {
                        best = Some((score, BinSplit::NumLe { feature: f, bin: b }));
                    }
                }
            } else {
                for b in 0..bins {
                    let bin_n = hist[(base + b) * 2];
                    let bin_sum = hist[(base + b) * 2 + 1];
                    if (bin_n as usize) < min_leaf || ((n - bin_n) as usize) < min_leaf {
                        continue;
                    }
                    let right_sum = total - bin_sum;
                    let score = bin_sum * bin_sum / bin_n + right_sum * right_sum / (n - bin_n);
                    if best.as_ref().is_none_or(|(s, _)| score > *s) {
                        best = Some((score, BinSplit::CatEq { feature: f, bin: b }));
                    }
                }
            }
        }
        let base_score = total * total / n;
        best.filter(|(s, _)| *s > base_score + 1e-9).map(|(_, s)| s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use frote_data::synth::{DatasetKind, SynthConfig};
    use frote_data::{Dataset, Schema, Value};

    fn two_feature_ds() -> Dataset {
        let schema = Schema::builder("y", vec!["a".into(), "b".into()])
            .numeric("x")
            .categorical("k", vec!["p".into(), "q".into(), "r".into()])
            .build();
        let mut ds = Dataset::new(schema);
        for i in 0..30 {
            let label = u32::from(i >= 15);
            ds.push_row(&[Value::Num(i as f64), Value::Cat(i % 3)], label).unwrap();
        }
        ds
    }

    #[test]
    fn split_mode_parse_round_trip() {
        assert_eq!(SplitMode::parse("exact"), Some(SplitMode::Exact));
        assert_eq!(SplitMode::parse("HISTOGRAM"), Some(SplitMode::histogram()));
        assert_eq!(SplitMode::parse("histogram:128"), Some(SplitMode::Histogram { max_bins: 128 }));
        assert_eq!(SplitMode::parse("histogram:1"), None, "budget below 2 rejected");
        assert_eq!(SplitMode::parse("sorted"), None);
        for mode in [SplitMode::Exact, SplitMode::Histogram { max_bins: 77 }] {
            assert_eq!(SplitMode::parse(&mode.name()), Some(mode));
        }
        assert_eq!(SplitMode::histogram().max_bins(), Some(DEFAULT_MAX_BINS));
        assert_eq!(SplitMode::Exact.max_bins(), None);
    }

    #[test]
    fn hist_build_is_thread_count_invariant() {
        let ds =
            DatasetKind::WineQuality.generate(&SynthConfig { n_rows: 3000, ..Default::default() });
        let binner = Binner::fit(&ds, 32);
        let codes = binner.bin_dataset(&ds);
        let ctx = HistContext::new(&binner, &codes);
        let indices: Vec<usize> = (0..ds.n_rows()).collect();
        let targets: Vec<f64> = (0..ds.n_rows()).map(|i| (i as f64) * 0.1 - 3.0).collect();
        let serial = frote_par::test_support::with_threads(1, || ctx.reg_hist(&targets, &indices));
        for t in [2usize, 4] {
            let par = frote_par::test_support::with_threads(t, || ctx.reg_hist(&targets, &indices));
            let bitwise_equal = serial.iter().zip(&par).all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(bitwise_equal, "gradient histogram drifted at FROTE_THREADS={t}");
        }
    }

    /// A wide (20 numeric features) dataset big enough to cross the
    /// `HIST_BLOCK` and `FEATURE_PAR_MIN` gates.
    fn wide_ds(n_rows: usize) -> Dataset {
        let mut builder = Schema::builder("y", vec!["a".into(), "b".into(), "c".into()]);
        for f in 0..20 {
            builder = builder.numeric(format!("x{f}"));
        }
        let mut ds = Dataset::new(builder.build());
        let mut row = vec![Value::Num(0.0); 20];
        for i in 0..n_rows {
            for (f, cell) in row.iter_mut().enumerate() {
                let v = ((i * 31 + f * 17 + 7) % 997) as f64 * 0.25 - 50.0;
                *cell = Value::Num(v);
            }
            ds.push_row(&row, (i % 3) as u32).unwrap();
        }
        ds
    }

    #[test]
    fn feature_parallel_builds_match_row_parallel_bitwise() {
        let ds = wide_ds(2500);
        let binner = Binner::fit(&ds, 32);
        let codes = binner.bin_dataset(&ds);
        let ctx = HistContext::new(&binner, &codes);
        let indices: Vec<usize> = (0..ds.n_rows()).rev().collect();
        let targets: Vec<f64> = (0..ds.n_rows()).map(|i| (i as f64).sin() * 3.0).collect();
        assert!(ctx.n_features() >= FEATURE_PAR_MIN && indices.len() > HIST_BLOCK, "gates crossed");
        // Row-parallel reference built through the plain block-order path.
        let reg_ref = ctx.build_hist(&indices, ctx.total_bins * 2, |i, h| {
            let t = targets[i];
            for f in 0..ctx.n_features() {
                let s = ctx.slot(i, f) * 2;
                h[s] += 1.0;
                h[s + 1] += t;
            }
        });
        for t in [1usize, 2, 4] {
            let reg_par =
                frote_par::test_support::with_threads(t, || ctx.reg_hist(&targets, &indices));
            let bitwise = reg_ref.iter().zip(&reg_par).all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(bitwise, "feature-parallel gradient hist drifted at FROTE_THREADS={t}");
        }
    }

    #[test]
    fn sibling_subtraction_recovers_the_complement() {
        let ds = two_feature_ds();
        let binner = Binner::fit(&ds, 16);
        let codes = binner.bin_dataset(&ds);
        let ctx = HistContext::new(&binner, &codes);
        // Integer targets: every sum and difference is exact.
        let targets: Vec<f64> = (0..ds.n_rows()).map(|i| (i % 7) as f64 - 3.0).collect();
        let all: Vec<usize> = (0..ds.n_rows()).collect();
        let (left, right): (Vec<usize>, Vec<usize>) = all.iter().partition(|&&i| i < 10);
        let mut parent = ctx.reg_hist(&targets, &all);
        let left_h = ctx.reg_hist(&targets, &left);
        let right_h = ctx.reg_hist(&targets, &right);
        HistContext::subtract_hist(&mut parent, &left_h);
        assert_eq!(parent, right_h, "exact counts and sums: subtraction is lossless");
    }

    #[test]
    fn best_split_finds_the_planted_boundary() {
        // The target is +1 on category q and -1 elsewhere: only the
        // one-vs-rest categorical split separates it.
        let ds = two_feature_ds();
        let binner = Binner::fit(&ds, 64);
        let codes = binner.bin_dataset(&ds);
        let ctx = HistContext::new(&binner, &codes);
        let indices: Vec<usize> = (0..ds.n_rows()).collect();
        let targets: Vec<f64> =
            (0..ds.n_rows()).map(|i| if i % 3 == 1 { 1.0 } else { -1.0 }).collect();
        let hist = ctx.reg_hist(&targets, &indices);
        let split =
            ctx.find_best_regression_split(&hist, 30.0, -10.0, 1).expect("clean boundary exists");
        assert_eq!(ctx.to_split_test(split), SplitTest::CatEq { feature: 1, category: 1 });
    }

    #[test]
    fn pure_nodes_yield_no_split() {
        let ds = two_feature_ds();
        let binner = Binner::fit(&ds, 16);
        let codes = binner.bin_dataset(&ds);
        let ctx = HistContext::new(&binner, &codes);
        let indices: Vec<usize> = (0..ds.n_rows()).collect();
        let targets = vec![0.5; ds.n_rows()];
        let hist = ctx.reg_hist(&targets, &indices);
        assert_eq!(ctx.find_best_regression_split(&hist, 30.0, 15.0, 1), None);
    }

    #[test]
    fn regression_split_prefers_the_value_step() {
        let ds = two_feature_ds();
        let binner = Binner::fit(&ds, 64);
        let codes = binner.bin_dataset(&ds);
        let ctx = HistContext::new(&binner, &codes);
        let indices: Vec<usize> = (0..ds.n_rows()).collect();
        let targets: Vec<f64> = (0..ds.n_rows()).map(|i| if i < 15 { -1.0 } else { 1.0 }).collect();
        let hist = ctx.reg_hist(&targets, &indices);
        let split =
            ctx.find_best_regression_split(&hist, 30.0, 0.0, 1).expect("step target has a split");
        assert_eq!(split, BinSplit::NumLe { feature: 0, bin: 14 });
    }

    // The set/get round trip of the process-wide default lives in
    // `frote-bench`'s CliOptions tests: flipping the global here would race
    // the trainer tests of this binary, which read it via
    // `GbdtParams::default`.
}
