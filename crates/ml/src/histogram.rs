//! Histogram split search over quantized bin codes.
//!
//! The training-side counterpart of [`frote_data::binned`]: instead of
//! sorting raw `f64` columns at every node, trees in
//! [`SplitMode::Histogram`] build per-feature class/gradient histograms with
//! one linear pass over the node's rows (in parallel over fixed row blocks,
//! reduced in block order so results are bit-identical at any
//! `FROTE_THREADS`), scan bin boundaries for the best split, and derive each
//! larger sibling's histogram by subtraction from its parent. Split tests
//! are emitted as raw-value [`SplitTest`]s (bin edges double as thresholds),
//! so histogram-trained models predict on unbinned rows exactly like
//! exact-mode models.
//!
//! With a bin budget at least as large as the number of distinct values,
//! the histogram search evaluates the same candidate partitions in the same
//! order as the exact search and therefore reproduces its decisions node for
//! node (pinned by `tests/prop_hist_split.rs`).
//!
//! Wide schemas additionally build feature-parallel (each parallel task
//! owns a block of features and its whole bin slice — zero shared writes),
//! which preserves the per-slot reduction order exactly and is therefore
//! bit-identical too.

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

/// GOSS (gradient-based one-side sampling) knobs for
/// [`SplitMode::Goss`]. Fractions are stored in permille so the mode stays
/// `Copy + Eq + Hash` like every other [`SplitMode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GossParams {
    /// Permille (`0..=1000`) of rows kept outright — the largest
    /// `|gradient|` rows (LightGBM's `a`).
    pub top_permille: u16,
    /// Permille (`0..=1000`) of the *remaining* rows sampled uniformly
    /// (LightGBM's `b`). Must be positive.
    pub rest_permille: u16,
    /// Base seed of the per-row-block `SeedSplit` sampling streams.
    pub seed: u64,
}

impl GossParams {
    /// LightGBM's defaults: keep the top 20% by `|gradient|`, sample 10% of
    /// the rest.
    pub const fn new(seed: u64) -> GossParams {
        GossParams { top_permille: 200, rest_permille: 100, seed }
    }

    /// `a`: fraction of rows kept outright.
    pub fn top_fraction(self) -> f64 {
        f64::from(self.top_permille) / 1000.0
    }

    /// `b`: sampling fraction over the non-top rows.
    pub fn rest_fraction(self) -> f64 {
        f64::from(self.rest_permille) / 1000.0
    }

    /// `(1 - a) / b`: the weight amplifier applied to sampled small-gradient
    /// rows so histogram totals stay unbiased.
    pub fn amplify(self) -> f64 {
        (1.0 - self.top_fraction()) / self.rest_fraction()
    }

    fn valid(self) -> bool {
        self.top_permille <= 1000 && self.rest_permille >= 1 && self.rest_permille <= 1000
    }
}

/// How tree trainers search for splits.
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
    /// Histogram search plus GOSS row sampling on the boosting gradient
    /// plane: each round keeps the top `a·N` rows by `|gradient|`, samples
    /// `b·N` of the rest deterministically per row block, and upweights the
    /// sampled rows by `(1 - a) / b`. Classification trees (which have no
    /// gradients) train exactly like [`SplitMode::Histogram`].
    Goss {
        /// Per-feature bin budget (at least 2).
        max_bins: usize,
        /// Row-sampling fractions and seed.
        goss: GossParams,
    },
}

impl SplitMode {
    /// Histogram mode with the [`DEFAULT_MAX_BINS`] budget.
    pub fn histogram() -> SplitMode {
        SplitMode::Histogram { max_bins: DEFAULT_MAX_BINS }
    }

    /// GOSS mode with the [`DEFAULT_MAX_BINS`] budget and default fractions.
    pub fn goss(seed: u64) -> SplitMode {
        SplitMode::Goss { max_bins: DEFAULT_MAX_BINS, goss: GossParams::new(seed) }
    }

    /// Whether this mode trains on the quantized histogram plane.
    pub fn is_histogram(self) -> bool {
        matches!(self, SplitMode::Histogram { .. } | SplitMode::Goss { .. })
    }

    /// Per-feature bin budget, when on the histogram plane.
    pub fn max_bins(self) -> Option<usize> {
        match self {
            SplitMode::Exact => None,
            SplitMode::Histogram { max_bins } | SplitMode::Goss { max_bins, .. } => Some(max_bins),
        }
    }

    /// Parses `"exact"`, `"histogram"`, `"histogram:<max_bins>"`, `"goss"`,
    /// or `"goss:<max_bins>:<top_permille>:<rest_permille>:<seed>"`
    /// (case-insensitive).
    pub fn parse(s: &str) -> Option<SplitMode> {
        let lower = s.to_ascii_lowercase();
        match lower.as_str() {
            "exact" => Some(SplitMode::Exact),
            "histogram" => Some(SplitMode::histogram()),
            "goss" => Some(SplitMode::goss(0)),
            _ => {
                if let Some(rest) = lower.strip_prefix("goss:") {
                    let parts: Vec<&str> = rest.split(':').collect();
                    let [bins, top, rest_p, seed] = parts.as_slice() else { return None };
                    let max_bins: usize = bins.parse().ok()?;
                    let goss = GossParams {
                        top_permille: top.parse().ok()?,
                        rest_permille: rest_p.parse().ok()?,
                        seed: seed.parse().ok()?,
                    };
                    return (max_bins >= 2 && goss.valid())
                        .then_some(SplitMode::Goss { max_bins, goss });
                }
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
            SplitMode::Goss { max_bins, goss } => format!(
                "goss:{max_bins}:{}:{}:{}",
                goss.top_permille, goss.rest_permille, goss.seed
            ),
        }
    }
}

/// Process-wide default split mode picked up by `TreeParams::default` /
/// `GbdtParams::default` (0 = exact, n >= 2 = histogram with `max_bins` n) —
/// the `--split-mode` counterpart of `frote_par::set_threads`.
static SPLIT_MODE_DEFAULT: AtomicUsize = AtomicUsize::new(0);

/// Sets the process-wide default [`SplitMode`] that freshly constructed
/// `TreeParams` / `GbdtParams` (and everything built from their defaults)
/// pick up — how the repro binaries' `--split-mode` flag reaches trainers
/// constructed deep inside the experiment harness. Explicitly constructed
/// params are unaffected.
pub fn set_default_split_mode(mode: SplitMode) {
    let encoded = match mode {
        SplitMode::Exact => 0,
        SplitMode::Histogram { max_bins } => {
            assert!(max_bins >= 2, "max_bins must be at least 2");
            max_bins
        }
        SplitMode::Goss { .. } => {
            panic!("GOSS cannot be the process-wide default; set it on the params explicitly")
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

    /// Compact candidate layout for a node's sampled `features`: the flat
    /// bin offset of each candidate (parallel to `features`, in the given —
    /// possibly shuffled — order) and the total candidate slot count. Under
    /// RF's √F per-node subsampling this is what lets a node allocate, zero,
    /// and reduce only the sampled features' bins instead of the full
    /// `total_bins × n_classes` buffer; with `features = 0..n_features()`
    /// it degenerates to the full layout (`offsets() == candidate offsets`),
    /// which is what keeps sibling subtraction valid.
    pub(crate) fn candidate_layout(&self, features: &[usize]) -> (Vec<usize>, usize) {
        debug_assert!(
            {
                let mut seen = vec![false; self.n_features()];
                features.iter().all(|&f| !std::mem::replace(&mut seen[f], true))
            },
            "candidate features must be distinct"
        );
        let mut offsets = Vec::with_capacity(features.len());
        let mut total = 0usize;
        for &f in features {
            offsets.push(total);
            total += self.n_bins(f);
        }
        (offsets, total)
    }

    /// Per-(candidate-feature, bin, class) counts for the node's rows over
    /// `features`, as one flat compact buffer laid out by
    /// [`HistContext::candidate_layout`] — only the sampled features'
    /// `Σ n_bins(f) × n_classes` slots exist, so nothing is allocated,
    /// zeroed, or reduced for unsampled features. Built in parallel over
    /// fixed row blocks and reduced in block order (bit-identical at any
    /// thread count; counts are exact integers).
    pub(crate) fn class_hist(
        &self,
        labels: &[u32],
        indices: &[usize],
        features: &[usize],
        n_classes: usize,
    ) -> Vec<f64> {
        let (offsets, total) = self.candidate_layout(features);
        let size = total * n_classes;
        NODES_BUILT.inc();
        let hist = if features.len() >= FEATURE_PAR_MIN && indices.len() > HIST_BLOCK {
            let mut starts: Vec<usize> = offsets.iter().map(|o| o * n_classes).collect();
            starts.push(size);
            self.build_hist_featpar(indices, &starts, |i, positions, base, h| {
                let y = labels[i] as usize;
                for p in positions {
                    let f = features[p];
                    h[(offsets[p] + self.codes.code(i, f)) * n_classes + y - base] += 1.0;
                }
            })
        } else {
            self.build_hist(indices, size, |i, h| {
                let y = labels[i] as usize;
                for (p, &f) in features.iter().enumerate() {
                    h[(offsets[p] + self.codes.code(i, f)) * n_classes + y] += 1.0;
                }
            })
        };
        // Every sampled feature's bins partition the node's rows; together
        // with the compact allocation this proves no slot outside the
        // sampled features' blocks was ever written (there are none).
        debug_assert!(
            features.iter().enumerate().all(|(p, &f)| {
                let block =
                    &hist[offsets[p] * n_classes..(offsets[p] + self.n_bins(f)) * n_classes];
                block.iter().sum::<f64>() == indices.len() as f64
            }),
            "candidate histogram blocks must each count every node row exactly once"
        );
        hist
    }

    /// Per-(feature, bin) `(count, target-sum)` pairs for the node's rows,
    /// as one flat `total_bins * 2` buffer (stride 2), built like
    /// [`HistContext::class_hist`]. Gradient sums are floats, so the
    /// fixed-order block reduction is what keeps them thread-count-invariant.
    pub(crate) fn reg_hist(&self, targets: &[f64], indices: &[usize]) -> Vec<f64> {
        let size = self.total_bins * 2;
        NODES_BUILT.inc();
        if self.n_features() >= FEATURE_PAR_MIN && indices.len() > HIST_BLOCK {
            let mut starts: Vec<usize> = self.offsets.iter().map(|o| o * 2).collect();
            starts.push(size);
            self.build_hist_featpar(indices, &starts, |i, positions, base, h| {
                let t = targets[i];
                for f in positions {
                    let s = self.slot(i, f) * 2 - base;
                    h[s] += 1.0;
                    h[s + 1] += t;
                }
            })
        } else {
            self.build_hist(indices, size, |i, h| {
                let t = targets[i];
                for f in 0..self.n_features() {
                    let s = self.slot(i, f) * 2;
                    h[s] += 1.0;
                    h[s + 1] += t;
                }
            })
        }
    }

    /// [`HistContext::reg_hist`] with a per-row weight plane (the GOSS
    /// `(1 - a) / b` amplifier): counts accumulate `w`, target sums `w·t`.
    /// With all weights at `1.0` this is NOT bit-guaranteed to equal
    /// `reg_hist` (the multiply may round differently from the plain add
    /// path is a non-issue — `1.0 * t == t` exactly — but the dispatch
    /// differs), so the unweighted path stays the default everywhere GOSS
    /// is off.
    pub(crate) fn reg_hist_weighted(
        &self,
        targets: &[f64],
        weights: &[f64],
        indices: &[usize],
    ) -> Vec<f64> {
        let size = self.total_bins * 2;
        NODES_BUILT.inc();
        self.build_hist(indices, size, |i, h| {
            let w = weights[i];
            let wt = w * targets[i];
            for f in 0..self.n_features() {
                let s = self.slot(i, f) * 2;
                h[s] += w;
                h[s + 1] += wt;
            }
        })
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
    /// block of candidate positions and that block's whole slice of bin
    /// slots (`starts` maps position → first flat slot; `starts.len()` is
    /// positions + 1), so there are zero shared writes. Within a block the
    /// rows are chunked by the same fixed [`HIST_BLOCK`] as the row-parallel
    /// build and the first chunk accumulates straight into the zeroed
    /// output buffer, so every slot sees the exact per-chunk addition
    /// sequence of [`HistContext::build_hist`] — bit-identical, including
    /// signed zeros.
    fn build_hist_featpar(
        &self,
        indices: &[usize],
        starts: &[usize],
        accumulate: impl Fn(usize, std::ops::Range<usize>, usize, &mut [f64]) + Sync,
    ) -> Vec<f64> {
        let n_pos = starts.len() - 1;
        let size = *starts.last().unwrap();
        let blocks: Vec<std::ops::Range<usize>> =
            (0..n_pos).step_by(FEATURE_BLOCK).map(|p| p..(p + FEATURE_BLOCK).min(n_pos)).collect();
        let parts = frote_par::par_map(&blocks, |block| {
            let base = starts[block.start];
            let len = starts[block.end] - base;
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
        let mut out = Vec::with_capacity(size);
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

    /// Gini-optimal split over `features` read from a compact candidate
    /// histogram (the [`HistContext::class_hist`] layout) — the quantized
    /// mirror of the exact `find_best_split`: same candidate order (features
    /// as given; boundaries ascending), same strict-`<` tie-breaking, same
    /// `min_leaf` and minimum-gain filters. The layout remap cannot move a
    /// decision: each feature's block holds the same counts at the same
    /// within-feature positions as the full layout did.
    pub(crate) fn find_best_split(
        &self,
        hist: &[f64],
        features: &[usize],
        parent_counts: &[f64],
        n_classes: usize,
        min_leaf: usize,
    ) -> Option<BinSplit> {
        let (offsets, total) = self.candidate_layout(features);
        debug_assert_eq!(hist.len(), total * n_classes, "histogram/layout size mismatch");
        let n: f64 = parent_counts.iter().sum();
        let parent_gini = gini(parent_counts, n);
        let mut best: Option<(f64, BinSplit)> = None;
        let mut left_counts = vec![0.0; n_classes];
        for (p, &f) in features.iter().enumerate() {
            let bins = self.n_bins(f);
            let base = offsets[p];
            let feature_best = if self.binner.is_numeric(f) {
                self.best_numeric(hist, f, base, bins, parent_counts, &mut left_counts, min_leaf, n)
            } else {
                self.best_categorical(hist, f, base, bins, parent_counts, min_leaf, n)
            };
            if let Some((child_gini, split)) = feature_best {
                let gain = parent_gini - child_gini;
                if gain > 1e-12 && best.as_ref().is_none_or(|(bg, _)| child_gini < *bg) {
                    best = Some((child_gini, split));
                }
            }
        }
        best.map(|(_, s)| s)
    }

    /// Scans the numeric boundaries of feature `f` left to right,
    /// accumulating per-class counts — one pass over `bins * n_classes`
    /// histogram slots instead of a sort of the node's rows.
    #[allow(clippy::too_many_arguments)] // flat hot-loop state, called from one site
    fn best_numeric(
        &self,
        hist: &[f64],
        feature: usize,
        base: usize,
        bins: usize,
        parent_counts: &[f64],
        left_counts: &mut [f64],
        min_leaf: usize,
        n: f64,
    ) -> Option<(f64, BinSplit)> {
        let n_classes = parent_counts.len();
        left_counts.fill(0.0);
        let mut left_total = 0.0;
        let mut best: Option<(f64, BinSplit)> = None;
        for b in 0..bins.saturating_sub(1) {
            let row = &hist[(base + b) * n_classes..(base + b + 1) * n_classes];
            for (l, &c) in left_counts.iter_mut().zip(row) {
                *l += c;
                left_total += c;
            }
            if (left_total as usize) < min_leaf || ((n - left_total) as usize) < min_leaf {
                continue;
            }
            let right_total = n - left_total;
            let right_counts: Vec<f64> =
                parent_counts.iter().zip(left_counts.iter()).map(|(p, l)| p - l).collect();
            let child = (left_total * gini(left_counts, left_total)
                + right_total * gini(&right_counts, right_total))
                / n;
            if best.as_ref().is_none_or(|(bg, _)| child < *bg) {
                best = Some((child, BinSplit::NumLe { feature, bin: b }));
            }
        }
        best
    }

    /// One-vs-rest scan over categorical bins — identical arithmetic to the
    /// exact categorical search (categories are already bins).
    #[allow(clippy::too_many_arguments)] // flat hot-loop state, called from one site
    fn best_categorical(
        &self,
        hist: &[f64],
        feature: usize,
        base: usize,
        bins: usize,
        parent_counts: &[f64],
        min_leaf: usize,
        n: f64,
    ) -> Option<(f64, BinSplit)> {
        let n_classes = parent_counts.len();
        let mut best: Option<(f64, BinSplit)> = None;
        for b in 0..bins {
            let row = &hist[(base + b) * n_classes..(base + b + 1) * n_classes];
            let left_total: f64 = row.iter().sum();
            let right_total = n - left_total;
            if (left_total as usize) < min_leaf || (right_total as usize) < min_leaf {
                continue;
            }
            let right_counts: Vec<f64> =
                parent_counts.iter().zip(row).map(|(p, l)| p - l).collect();
            let child = (left_total * gini(row, left_total)
                + right_total * gini(&right_counts, right_total))
                / n;
            if best.as_ref().is_none_or(|(bg, _)| child < *bg) {
                best = Some((child, BinSplit::CatEq { feature, bin: b }));
            }
        }
        best
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

/// Gini impurity of a count vector with the given total (0 for empty sets) —
/// shared with the exact search so both modes score identically.
pub(crate) fn gini(counts: &[f64], total: f64) -> f64 {
    if total <= 0.0 {
        return 0.0;
    }
    1.0 - counts.iter().map(|&c| (c / total) * (c / total)).sum::<f64>()
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
        assert_eq!(SplitMode::parse("GOSS"), Some(SplitMode::goss(0)));
        assert_eq!(
            SplitMode::parse("goss:32:300:150:7"),
            Some(SplitMode::Goss {
                max_bins: 32,
                goss: GossParams { top_permille: 300, rest_permille: 150, seed: 7 },
            })
        );
        assert_eq!(SplitMode::parse("goss:1:200:100:0"), None, "budget below 2 rejected");
        assert_eq!(SplitMode::parse("goss:32:200:0:0"), None, "zero sampling fraction rejected");
        assert_eq!(SplitMode::parse("goss:32:1001:100:0"), None, "fraction above 1 rejected");
        for mode in [
            SplitMode::Exact,
            SplitMode::Histogram { max_bins: 77 },
            SplitMode::goss(41),
            SplitMode::Goss {
                max_bins: 8,
                goss: GossParams { top_permille: 250, rest_permille: 125, seed: 3 },
            },
        ] {
            assert_eq!(SplitMode::parse(&mode.name()), Some(mode));
        }
        assert!(SplitMode::goss(0).is_histogram());
        assert_eq!(SplitMode::goss(0).max_bins(), Some(DEFAULT_MAX_BINS));
        assert_eq!(SplitMode::Exact.max_bins(), None);
        let amp = GossParams::new(0).amplify();
        assert!((amp - 8.0).abs() < 1e-12, "(1 - 0.2) / 0.1 = 8, got {amp}");
    }

    #[test]
    fn class_hist_counts_every_row_once() {
        let ds = two_feature_ds();
        let binner = Binner::fit(&ds, 16);
        let codes = binner.bin_dataset(&ds);
        let ctx = HistContext::new(&binner, &codes);
        let indices: Vec<usize> = (0..ds.n_rows()).collect();
        let features: Vec<usize> = (0..ds.n_features()).collect();
        let hist = ctx.class_hist(ds.labels(), &indices, &features, 2);
        // Every feature's bins partition the rows.
        for f in 0..ctx.n_features() {
            let total: f64 = (0..ctx.n_bins(f))
                .flat_map(|b| (0..2).map(move |c| (b, c)))
                .map(|(b, c)| hist[(ctx.offsets[f] + b) * 2 + c])
                .sum();
            assert_eq!(total, ds.n_rows() as f64, "feature {f}");
        }
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
        let features: Vec<usize> = (0..ds.n_features()).collect();
        let targets: Vec<f64> = (0..ds.n_rows()).map(|i| (i as f64).sin() * 3.0).collect();
        assert!(features.len() >= FEATURE_PAR_MIN && indices.len() > HIST_BLOCK, "gates crossed");
        // Row-parallel references built through the plain block-order path.
        let (offsets, total) = ctx.candidate_layout(&features);
        let class_ref = ctx.build_hist(&indices, total * 3, |i, h| {
            let y = ds.labels()[i] as usize;
            for (p, &f) in features.iter().enumerate() {
                h[(offsets[p] + ctx.codes.code(i, f)) * 3 + y] += 1.0;
            }
        });
        let reg_ref = ctx.build_hist(&indices, ctx.total_bins * 2, |i, h| {
            let t = targets[i];
            for f in 0..ctx.n_features() {
                let s = ctx.slot(i, f) * 2;
                h[s] += 1.0;
                h[s + 1] += t;
            }
        });
        for t in [1usize, 2, 4] {
            let (class_par, reg_par) = frote_par::test_support::with_threads(t, || {
                (
                    ctx.class_hist(ds.labels(), &indices, &features, 3),
                    ctx.reg_hist(&targets, &indices),
                )
            });
            assert_eq!(class_par, class_ref, "class hist drifted at FROTE_THREADS={t}");
            let bitwise = reg_ref.iter().zip(&reg_par).all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(bitwise, "feature-parallel gradient hist drifted at FROTE_THREADS={t}");
        }
    }

    #[test]
    fn class_hist_is_thread_count_invariant() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let ds = DatasetKind::Adult.generate(&SynthConfig { n_rows: 900, ..Default::default() });
        let k = ds.n_classes();
        let binner = Binner::fit(&ds, 32);
        let codes = binner.bin_dataset(&ds);
        let ctx = HistContext::new(&binner, &codes);
        let features: Vec<usize> = (0..ds.n_features()).collect();
        let mut rng = StdRng::seed_from_u64(5);
        // Bootstrap-style (unsorted, repeated) and sorted node index lists.
        let bootstrap: Vec<usize> = (0..500).map(|_| rng.random_range(0..ds.n_rows())).collect();
        let sorted: Vec<usize> = (0..ds.n_rows()).step_by(2).collect();
        for indices in [&bootstrap, &sorted] {
            let baseline = ctx.class_hist(ds.labels(), indices, &features, k);
            for threads in [1usize, 2, 4] {
                let par = frote_par::test_support::with_threads(threads, || {
                    ctx.class_hist(ds.labels(), indices, &features, k)
                });
                assert_eq!(par, baseline, "class hist drifted at threads={threads}");
            }
        }
    }

    #[test]
    fn weighted_reg_hist_scales_counts_and_sums() {
        let ds = two_feature_ds();
        let binner = Binner::fit(&ds, 16);
        let codes = binner.bin_dataset(&ds);
        let ctx = HistContext::new(&binner, &codes);
        let indices: Vec<usize> = (0..ds.n_rows()).collect();
        let targets: Vec<f64> = (0..ds.n_rows()).map(|i| i as f64 * 0.5).collect();
        let weights = vec![2.0; ds.n_rows()];
        let unweighted = ctx.reg_hist(&targets, &indices);
        let weighted = ctx.reg_hist_weighted(&targets, &weights, &indices);
        // Weight 2 is a power of two: scaling is exact.
        for (w, u) in weighted.iter().zip(&unweighted) {
            assert_eq!(*w, u * 2.0);
        }
    }

    #[test]
    fn sibling_subtraction_recovers_the_complement() {
        let ds = two_feature_ds();
        let binner = Binner::fit(&ds, 16);
        let codes = binner.bin_dataset(&ds);
        let ctx = HistContext::new(&binner, &codes);
        let features: Vec<usize> = (0..ds.n_features()).collect();
        let all: Vec<usize> = (0..ds.n_rows()).collect();
        let (left, right): (Vec<usize>, Vec<usize>) = all.iter().partition(|&&i| i < 10);
        let mut parent = ctx.class_hist(ds.labels(), &all, &features, 2);
        let left_h = ctx.class_hist(ds.labels(), &left, &features, 2);
        let right_h = ctx.class_hist(ds.labels(), &right, &features, 2);
        HistContext::subtract_hist(&mut parent, &left_h);
        assert_eq!(parent, right_h, "counts are exact integers: subtraction is lossless");
    }

    #[test]
    fn best_split_finds_the_planted_boundary() {
        let ds = two_feature_ds();
        let binner = Binner::fit(&ds, 64);
        let codes = binner.bin_dataset(&ds);
        let ctx = HistContext::new(&binner, &codes);
        let indices: Vec<usize> = (0..ds.n_rows()).collect();
        let features: Vec<usize> = (0..ds.n_features()).collect();
        let hist = ctx.class_hist(ds.labels(), &indices, &features, 2);
        let split = ctx
            .find_best_split(&hist, &features, &[15.0, 15.0], 2, 1)
            .expect("clean boundary exists");
        let test = ctx.to_split_test(split);
        match test {
            SplitTest::NumLe { feature, threshold } => {
                assert_eq!(feature, 0);
                assert!((threshold - 14.5).abs() < 1e-12, "threshold {threshold}");
            }
            other => panic!("expected the numeric boundary, got {other:?}"),
        }
    }

    #[test]
    fn pure_nodes_yield_no_split() {
        let ds = two_feature_ds();
        let binner = Binner::fit(&ds, 16);
        let codes = binner.bin_dataset(&ds);
        let ctx = HistContext::new(&binner, &codes);
        let indices: Vec<usize> = (0..10).collect(); // all label 0
        let features: Vec<usize> = (0..ds.n_features()).collect();
        let hist = ctx.class_hist(ds.labels(), &indices, &features, 2);
        assert_eq!(ctx.find_best_split(&hist, &features, &[10.0, 0.0], 2, 1), None);
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

    /// The pre-compact class histogram, verbatim: every feature's slots
    /// exist and the whole `total_bins × n_classes` buffer is zeroed and
    /// block-reduced, though only `features`' slots are written. The
    /// reference the compact candidate layout is checked against.
    fn full_layout_hist(
        ctx: &HistContext,
        labels: &[u32],
        indices: &[usize],
        features: &[usize],
        n_classes: usize,
    ) -> Vec<f64> {
        ctx.build_hist(indices, ctx.total_bins * n_classes, |i, h| {
            let y = labels[i] as usize;
            for &f in features {
                h[ctx.slot(i, f) * n_classes + y] += 1.0;
            }
        })
    }

    /// The pre-compact split search, verbatim: scan `features` against the
    /// full-layout histogram with `offsets[f]` bases. The compact search
    /// must reproduce its decisions exactly.
    fn full_layout_best_split(
        ctx: &HistContext,
        full: &[f64],
        features: &[usize],
        parent_counts: &[f64],
        min_leaf: usize,
    ) -> Option<BinSplit> {
        let n_classes = parent_counts.len();
        let n: f64 = parent_counts.iter().sum();
        let parent_gini = gini(parent_counts, n);
        let mut best: Option<(f64, BinSplit)> = None;
        let mut left_counts = vec![0.0; n_classes];
        for &f in features {
            let bins = ctx.n_bins(f);
            let base = ctx.offsets[f];
            let feature_best = if ctx.binner.is_numeric(f) {
                ctx.best_numeric(full, f, base, bins, parent_counts, &mut left_counts, min_leaf, n)
            } else {
                ctx.best_categorical(full, f, base, bins, parent_counts, min_leaf, n)
            };
            if let Some((child_gini, split)) = feature_best {
                let gain = parent_gini - child_gini;
                if gain > 1e-12 && best.as_ref().is_none_or(|(bg, _)| child_gini < *bg) {
                    best = Some((child_gini, split));
                }
            }
        }
        best.map(|(_, s)| s)
    }

    #[test]
    fn compact_candidate_hist_matches_full_layout() {
        use rand::rngs::StdRng;
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};
        for kind in [DatasetKind::WineQuality, DatasetKind::Adult] {
            let ds = kind.generate(&SynthConfig { n_rows: 800, ..Default::default() });
            let k = ds.n_classes();
            let binner = Binner::fit(&ds, 32);
            let codes = binner.bin_dataset(&ds);
            let ctx = HistContext::new(&binner, &codes);
            let mut rng = StdRng::seed_from_u64(17);
            for node in 0..25 {
                // A forest-like node: a bootstrap row sample and a shuffled
                // √F candidate feature subset.
                let indices: Vec<usize> =
                    (0..400).map(|_| rng.random_range(0..ds.n_rows())).collect();
                let mut features: Vec<usize> = (0..ds.n_features()).collect();
                features.shuffle(&mut rng);
                features.truncate((ds.n_features() as f64).sqrt().round().max(1.0) as usize);
                let compact = ctx.class_hist(ds.labels(), &indices, &features, k);
                let full = full_layout_hist(&ctx, ds.labels(), &indices, &features, k);
                // The sampled features' blocks of the full buffer, in
                // candidate order.
                let full: Vec<f64> = features
                    .iter()
                    .flat_map(|&f| &full[ctx.offsets[f] * k..(ctx.offsets[f] + ctx.n_bins(f)) * k])
                    .copied()
                    .collect();
                assert_eq!(compact, full, "{}: node {node} layouts disagree", kind.name());
            }
        }
    }

    #[test]
    fn compact_split_search_matches_full_layout_on_seeded_forest_nodes() {
        use rand::rngs::StdRng;
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};
        for kind in [DatasetKind::WineQuality, DatasetKind::Car, DatasetKind::Adult] {
            let ds = kind.generate(&SynthConfig { n_rows: 600, ..Default::default() });
            let k = ds.n_classes();
            let binner = Binner::fit(&ds, 32);
            let codes = binner.bin_dataset(&ds);
            let ctx = HistContext::new(&binner, &codes);
            let mut rng = StdRng::seed_from_u64(29);
            for node in 0..40 {
                let indices: Vec<usize> =
                    (0..300).map(|_| rng.random_range(0..ds.n_rows())).collect();
                let mut features: Vec<usize> = (0..ds.n_features()).collect();
                features.shuffle(&mut rng);
                features.truncate(rng.random_range(1..=ds.n_features()));
                let mut parent_counts = vec![0.0; k];
                for &i in &indices {
                    parent_counts[ds.label(i) as usize] += 1.0;
                }
                let compact_hist = ctx.class_hist(ds.labels(), &indices, &features, k);
                let compact = ctx.find_best_split(&compact_hist, &features, &parent_counts, k, 2);
                // Full-layout reference: pre-compact build + pre-compact scan.
                let full_hist = full_layout_hist(&ctx, ds.labels(), &indices, &features, k);
                let full = full_layout_best_split(&ctx, &full_hist, &features, &parent_counts, 2);
                assert_eq!(compact, full, "{}: node {node} split drifted", kind.name());
            }
        }
    }

    // The set/get round trip of the process-wide default lives in
    // `frote-bench`'s CliOptions tests: flipping the global here would race
    // the trainer tests of this binary, which read it via
    // `TreeParams::default`.
}
