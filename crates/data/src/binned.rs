//! Quantized feature codes: the histogram-training data plane.
//!
//! Histogram GBDT training (LightGBM's core systems trick) replaces per-node
//! sorts of raw `f64` columns with scans over small per-feature bin codes.
//! [`Binner`] fits per-feature quantile bin edges once per dataset; a
//! [`BinnedMatrix`] holds every row's codes in one flat row-major buffer of
//! `u8` (or `u16`, when any feature needs more than 256 bins); and
//! [`BinnedCache`] keeps the codes incrementally in sync with a growing
//! dataset, mirroring [`crate::EncodedCache`] for the encoded plane.
//!
//! The quantization is *exactly consistent* with raw-value split tests: bin
//! edges double as split thresholds, and for every value `v` and boundary
//! `b`, `bin(v) <= b` holds iff `v <= edges[b]` — so a tree trained on codes
//! routes raw rows identically at predict time.

use std::sync::OnceLock;

use crate::column::Column;
use crate::dataset::Dataset;
use crate::sync::{CacheCounters, IncrementalCache, Plane};
use crate::value::{FeatureKind, Value};

/// Rows per parallel block when batch-binning. Block boundaries never affect
/// the codes, only the schedule.
const BIN_BLOCK: usize = 1024;

/// Per-feature binning rule.
#[derive(Debug, Clone, PartialEq)]
enum FeatBins {
    /// Quantile-edged numeric bins: code = number of edges `< v`, so codes
    /// `0..=b` are exactly the values `v <= edges[b]`. `reps[b]` is a
    /// representative value inside bin `b` (used for diagnostics and
    /// decoding; thresholds come from `edges`).
    Numeric { edges: Vec<f64>, reps: Vec<f64> },
    /// Categorical features are already discrete: code = category index.
    Categorical { cardinality: usize },
}

/// A fitted per-feature quantile binner. See the [module docs](self).
///
/// Equality compares the fitted edges (and the bin budget), so callers can
/// detect when a refit on a grown dataset left the binning unchanged —
/// always, for pure-categorical schemas.
#[derive(Debug, Clone, PartialEq)]
pub struct Binner {
    feats: Vec<FeatBins>,
    max_bins: usize,
}

impl Binner {
    /// Fits quantile bin edges to every column of `ds`. Numeric features get
    /// at most `max_bins` bins (when the column has fewer distinct values,
    /// one bin per distinct value, with edges at the midpoints between
    /// adjacent distinct values — the same thresholds the exact split search
    /// evaluates); categorical features keep one bin per category.
    ///
    /// # Panics
    ///
    /// Panics if `max_bins < 2` or if any categorical cardinality exceeds
    /// `u16::MAX + 1` (the widest supported code).
    pub fn fit(ds: &Dataset, max_bins: usize) -> Binner {
        assert!(max_bins >= 2, "max_bins must be at least 2");
        assert!(max_bins <= (u16::MAX as usize) + 1, "max_bins exceeds u16 code space");
        // Quantile edge fitting sorts each numeric column independently, so
        // the fit is feature-parallel; `par_map` preserves feature order,
        // keeping the edges bit-identical to the old serial loop.
        let feature_ids: Vec<usize> = (0..ds.n_features()).collect();
        let feats = frote_par::par_map(&feature_ids, |&j| {
            match (ds.column(j), ds.schema().feature(j).kind()) {
                (Column::Numeric(v), _) => fit_numeric(v, max_bins),
                (Column::Categorical(_), FeatureKind::Categorical { categories }) => {
                    assert!(
                        categories.len() <= (u16::MAX as usize) + 1,
                        "categorical cardinality exceeds u16 code space"
                    );
                    FeatBins::Categorical { cardinality: categories.len() }
                }
                _ => unreachable!("dataset column/schema kind mismatch"),
            }
        });
        Binner { feats, max_bins }
    }

    /// Number of features.
    pub fn n_features(&self) -> usize {
        self.feats.len()
    }

    /// The bin budget this binner was fitted with.
    pub fn max_bins(&self) -> usize {
        self.max_bins
    }

    /// Number of bins for feature `f` (`edges + 1` for numeric features,
    /// the cardinality for categorical ones; at least 1).
    pub fn n_bins(&self, f: usize) -> usize {
        match &self.feats[f] {
            FeatBins::Numeric { edges, .. } => edges.len() + 1,
            FeatBins::Categorical { cardinality } => (*cardinality).max(1),
        }
    }

    /// Whether feature `f` is numeric (split as `<= threshold`) rather than
    /// categorical (split as `== bin`).
    pub fn is_numeric(&self, f: usize) -> bool {
        matches!(self.feats[f], FeatBins::Numeric { .. })
    }

    /// The split threshold at numeric boundary `b`: rows coded `0..=b` are
    /// exactly the rows with raw value `<= threshold(f, b)`.
    ///
    /// # Panics
    ///
    /// Panics if `f` is categorical or `b` is not a boundary (`>= n_bins-1`).
    pub fn threshold(&self, f: usize, b: usize) -> f64 {
        match &self.feats[f] {
            FeatBins::Numeric { edges, .. } => edges[b],
            FeatBins::Categorical { .. } => panic!("categorical feature has no thresholds"),
        }
    }

    /// A representative raw value inside numeric bin `b` (for diagnostics /
    /// decoding; bins without fitted mass reuse their nearest edge).
    ///
    /// # Panics
    ///
    /// Panics if `f` is categorical or `b >= n_bins(f)`.
    pub fn representative(&self, f: usize, b: usize) -> f64 {
        match &self.feats[f] {
            FeatBins::Numeric { reps, .. } => reps[b],
            FeatBins::Categorical { .. } => panic!("categorical feature has no representatives"),
        }
    }

    /// The fitted numeric bin edges of feature `f` (`None` for categorical
    /// features). Edges are sorted; code = number of edges `< v`, so
    /// `bin(v) <= b ⟺ v <= edges[b]`.
    pub fn numeric_edges(&self, f: usize) -> Option<&[f64]> {
        match &self.feats[f] {
            FeatBins::Numeric { edges, .. } => Some(edges),
            FeatBins::Categorical { .. } => None,
        }
    }

    /// Bin code of one cell value.
    ///
    /// # Panics
    ///
    /// Panics if the value's kind does not match the fitted column, if a
    /// numeric value is `NaN` (`partition_point` over the edges would
    /// silently map it into bin 0, inventing an ordering IEEE comparisons
    /// deny — [`Binner::fit`] already rejects `NaN` training values), or if
    /// a categorical value lies outside the fitted vocabulary (an
    /// out-of-range code would silently land in another feature's
    /// histogram range downstream).
    pub fn bin_value(&self, f: usize, v: Value) -> u16 {
        match (&self.feats[f], v) {
            (FeatBins::Numeric { edges, .. }, Value::Num(x)) => {
                assert!(!x.is_nan(), "cannot bin NaN: the binned plane holds finite values only");
                edges.partition_point(|&e| e < x) as u16
            }
            (FeatBins::Categorical { cardinality }, Value::Cat(c)) => {
                assert!(
                    (c as usize) < *cardinality,
                    "category {c} outside the fitted vocabulary ({cardinality} categories)"
                );
                c as u16
            }
            _ => panic!("cell kind does not match the fitted binner"),
        }
    }

    /// Appends the codes of dataset row `i` to `out`.
    fn bin_ds_row(&self, ds: &Dataset, i: usize, out: &mut Vec<u16>) {
        for (j, _) in self.feats.iter().enumerate() {
            out.push(self.bin_value(j, ds.cell(i, j)));
        }
    }

    /// Whether `u8` codes suffice for every feature of this binner.
    fn fits_u8(&self) -> bool {
        (0..self.n_features()).all(|f| self.n_bins(f) <= 256)
    }

    /// Bins every row of `ds` into a flat row-major [`BinnedMatrix`], in
    /// parallel across `frote_par::threads()` threads. Cell-for-cell
    /// identical to per-cell [`Binner::bin_value`] at any thread count.
    ///
    /// # Panics
    ///
    /// Panics if `ds`'s schema does not match the fitted dataset's.
    pub fn bin_dataset(&self, ds: &Dataset) -> BinnedMatrix {
        assert_eq!(ds.n_features(), self.n_features(), "row arity mismatch");
        let width = self.n_features();
        if width == 0 {
            return BinnedMatrix { codes: Codes::U8(Vec::new()), width: 0, rows: ds.n_rows() };
        }
        let data: Vec<u16> = frote_par::par_blocks_map(ds.n_rows(), BIN_BLOCK, |_, rows| {
            let mut buf = Vec::with_capacity(rows.len() * width);
            for i in rows {
                self.bin_ds_row(ds, i, &mut buf);
            }
            buf
        });
        let codes = if self.fits_u8() {
            Codes::U8(data.into_iter().map(|c| c as u8).collect())
        } else {
            Codes::U16(data)
        };
        BinnedMatrix { rows: codes.len() / width, codes, width }
    }

    /// Appends the codes of `ds`'s rows `matrix.n_rows()..ds.n_rows()` to
    /// `matrix` — the incremental path for datasets that only grow. Binning
    /// base rows and then appending the tail is bit-identical to binning the
    /// concatenated dataset, as long as the edges are unchanged.
    ///
    /// # Panics
    ///
    /// Panics if the matrix width differs from the feature count, or if the
    /// matrix already has more rows than `ds`.
    pub fn append(&self, ds: &Dataset, matrix: &mut BinnedMatrix) {
        assert_eq!(matrix.width(), self.n_features(), "matrix width must equal the feature count");
        assert!(matrix.n_rows() <= ds.n_rows(), "matrix has more rows than the dataset");
        let mut buf = Vec::with_capacity(self.n_features());
        for i in matrix.n_rows()..ds.n_rows() {
            buf.clear();
            self.bin_ds_row(ds, i, &mut buf);
            matrix.push_row(&buf);
        }
    }
}

/// Quantile-edge fit for one numeric column: one bin per distinct value when
/// the budget allows (edges at midpoints between adjacent distinct values,
/// matching the exact split search's candidate thresholds), else `max_bins`
/// evenly spaced quantile cuts — the same thinning rule the exact search
/// applies per node.
fn fit_numeric(values: &[f64], max_bins: usize) -> FeatBins {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite feature values"));
    let boundaries: Vec<usize> = (1..sorted.len()).filter(|&i| sorted[i] > sorted[i - 1]).collect();
    let picked: Vec<usize> = if boundaries.len() < max_bins {
        boundaries
    } else {
        let want = max_bins - 1;
        let step = boundaries.len() as f64 / want as f64;
        let mut p: Vec<usize> = (0..want).map(|k| boundaries[(k as f64 * step) as usize]).collect();
        p.dedup();
        p
    };
    let edges: Vec<f64> = picked.iter().map(|&i| 0.5 * (sorted[i - 1] + sorted[i])).collect();
    // Representative per bin: the midpoint of its bounding edges; the outer
    // bins fall back to the observed extremes (or the lone edge when empty).
    let reps: Vec<f64> = if edges.is_empty() {
        vec![sorted.first().copied().unwrap_or(0.0)]
    } else {
        let lo = sorted.first().copied().unwrap_or(edges[0]);
        let hi = sorted.last().copied().unwrap_or(edges[edges.len() - 1]);
        (0..=edges.len())
            .map(|b| {
                let lower = if b == 0 { lo } else { edges[b - 1] };
                let upper = if b == edges.len() { hi } else { edges[b] };
                0.5 * (lower + upper)
            })
            .collect()
    };
    FeatBins::Numeric { edges, reps }
}

/// Flat row-major bin-code storage: `u8` when every feature fits in 256
/// bins, `u16` otherwise.
#[derive(Debug, Clone, PartialEq)]
enum Codes {
    U8(Vec<u8>),
    U16(Vec<u16>),
}

impl Codes {
    fn len(&self) -> usize {
        match self {
            Codes::U8(v) => v.len(),
            Codes::U16(v) => v.len(),
        }
    }

    fn truncate(&mut self, len: usize) {
        match self {
            Codes::U8(v) => v.truncate(len),
            Codes::U16(v) => v.truncate(len),
        }
    }
}

/// A dense row-major matrix of per-feature bin codes. See the
/// [module docs](self).
///
/// # Example
///
/// ```
/// use frote_data::{Binner, Dataset, Schema, Value};
/// let schema = Schema::builder("y", vec!["a".into(), "b".into()]).numeric("x").build();
/// let mut ds = Dataset::new(schema);
/// for i in 0..4 {
///     ds.push_row(&[Value::Num(i as f64)], 0).unwrap();
/// }
/// let binner = Binner::fit(&ds, 16);
/// let codes = binner.bin_dataset(&ds);
/// assert_eq!(codes.n_rows(), 4);
/// assert_eq!((0..4).map(|i| codes.code(i, 0)).collect::<Vec<_>>(), vec![0, 1, 2, 3]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BinnedMatrix {
    codes: Codes,
    width: usize,
    rows: usize,
}

impl BinnedMatrix {
    /// Row stride (number of features).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.rows
    }

    /// Whether the matrix has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Bits per stored code (8 or 16).
    pub fn code_width(&self) -> usize {
        match self.codes {
            Codes::U8(_) => 8,
            Codes::U16(_) => 16,
        }
    }

    /// Bin code at row `i`, feature `j`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds.
    #[inline]
    pub fn code(&self, i: usize, j: usize) -> usize {
        assert!(i < self.rows, "row {i} out of bounds ({} rows)", self.rows);
        assert!(j < self.width, "feature {j} out of bounds ({} features)", self.width);
        match &self.codes {
            Codes::U8(v) => v[i * self.width + j] as usize,
            Codes::U16(v) => v[i * self.width + j] as usize,
        }
    }

    /// Appends one row of codes.
    ///
    /// # Panics
    ///
    /// Panics if the arity differs or a code exceeds the storage width.
    pub fn push_row(&mut self, row: &[u16]) {
        assert_eq!(row.len(), self.width, "row length must equal the matrix width");
        match &mut self.codes {
            Codes::U8(v) => {
                for &c in row {
                    assert!(c <= u8::MAX as u16, "code {c} exceeds the u8 storage width");
                    v.push(c as u8);
                }
            }
            Codes::U16(v) => v.extend_from_slice(row),
        }
        self.rows += 1;
    }

    /// Drops all rows past the first `rows` (no-op when already shorter).
    pub fn truncate_rows(&mut self, rows: usize) {
        if rows < self.rows {
            self.codes.truncate(rows * self.width);
            self.rows = rows;
        }
    }
}

impl Plane for Binner {
    type Rows = BinnedMatrix;
    const FAULT_SITE: &'static str = "data.cache.binned.append";

    fn counters() -> &'static CacheCounters {
        static COUNTERS: OnceLock<CacheCounters> = OnceLock::new();
        COUNTERS.get_or_init(|| CacheCounters::new("binned_cache"))
    }

    fn refit(&self, ds: &Dataset) -> Binner {
        Binner::fit(ds, self.max_bins)
    }

    fn build(&self, ds: &Dataset) -> BinnedMatrix {
        self.bin_dataset(ds)
    }

    fn append(&self, ds: &Dataset, rows: &mut BinnedMatrix) {
        Binner::append(self, ds, rows);
    }

    fn n_rows(rows: &BinnedMatrix) -> usize {
        rows.n_rows()
    }

    fn truncate_rows(rows: &mut BinnedMatrix, n: usize) {
        rows.truncate_rows(n);
    }
}

/// An incrementally maintained binned view of a growing dataset: the fitted
/// [`Binner`] plus the full [`BinnedMatrix`] of codes, kept in sync by
/// appending only new rows whenever growth leaves the fitted edges unchanged
/// (always, for pure-categorical schemas) and re-binning otherwise — the
/// quantized twin of [`crate::EncodedCache`].
///
/// Exact by construction (see [`IncrementalCache`]): after
/// [`IncrementalCache::sync`], `binner()` equals `Binner::fit(ds, max_bins)`
/// and `codes()` equals `binner().bin_dataset(ds)` bit for bit.
pub type BinnedCache = IncrementalCache<Binner>;

impl BinnedCache {
    /// Fits the binner to `ds` and bins every row.
    pub fn fit(ds: &Dataset, max_bins: usize) -> BinnedCache {
        IncrementalCache::new(Binner::fit(ds, max_bins), ds)
    }

    /// The current binner fit.
    pub fn binner(&self) -> &Binner {
        &self.fit
    }

    /// The bin codes, one row per dataset row as of the last sync.
    pub fn codes(&self) -> &BinnedMatrix {
        &self.rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::{RebuildReason, SyncOutcome};
    use crate::Schema;

    fn mixed() -> Dataset {
        let schema = Schema::builder("y", vec!["a".into(), "b".into()])
            .numeric("x")
            .categorical("c", vec!["u".into(), "v".into(), "w".into()])
            .build();
        let mut ds = Dataset::new(schema);
        for i in 0..12 {
            ds.push_row(&[Value::Num(f64::from(i % 6)), Value::Cat(i % 3)], i % 2).unwrap();
        }
        ds
    }

    #[test]
    fn one_bin_per_distinct_value_under_budget() {
        let ds = mixed();
        let binner = Binner::fit(&ds, 16);
        assert_eq!(binner.n_bins(0), 6, "6 distinct values -> 6 bins");
        assert_eq!(binner.n_bins(1), 3, "cardinality bins for categoricals");
        assert!(binner.is_numeric(0));
        assert!(!binner.is_numeric(1));
        // Edges are the midpoints between adjacent distinct values.
        for b in 0..5 {
            assert!((binner.threshold(0, b) - (b as f64 + 0.5)).abs() < 1e-12);
        }
    }

    #[test]
    fn binning_is_threshold_consistent() {
        // bin(v) <= b  iff  v <= edges[b], for every value and boundary.
        let ds = mixed();
        let binner = Binner::fit(&ds, 4);
        for i in 0..ds.n_rows() {
            let v = ds.cell(i, 0).expect_num();
            let code = binner.bin_value(0, Value::Num(v)) as usize;
            for b in 0..binner.n_bins(0) - 1 {
                assert_eq!(code <= b, v <= binner.threshold(0, b), "v={v} b={b}");
            }
        }
    }

    #[test]
    fn quantile_thinning_caps_bin_count() {
        let schema = Schema::builder("y", vec!["a".into(), "b".into()]).numeric("x").build();
        let mut ds = Dataset::new(schema);
        for i in 0..500 {
            ds.push_row(&[Value::Num(i as f64)], 0).unwrap();
        }
        let binner = Binner::fit(&ds, 32);
        assert!(binner.n_bins(0) <= 32);
        assert!(binner.n_bins(0) >= 16, "quantile cuts should use most of the budget");
        // Codes stay sorted with values.
        let codes: Vec<u16> = (0..500).map(|i| binner.bin_value(0, Value::Num(i as f64))).collect();
        assert!(codes.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn representatives_sit_inside_their_bins() {
        let ds = mixed();
        let binner = Binner::fit(&ds, 4);
        for b in 0..binner.n_bins(0) {
            let rep = binner.representative(0, b);
            assert_eq!(binner.bin_value(0, Value::Num(rep)) as usize, b, "rep {rep} bin {b}");
        }
    }

    #[test]
    fn u8_codes_until_a_feature_needs_more() {
        let ds = mixed();
        assert_eq!(Binner::fit(&ds, 64).bin_dataset(&ds).code_width(), 8);
        let schema = Schema::builder("y", vec!["a".into(), "b".into()]).numeric("x").build();
        let mut wide = Dataset::new(schema);
        for i in 0..600 {
            wide.push_row(&[Value::Num(i as f64)], 0).unwrap();
        }
        let m = Binner::fit(&wide, 512).bin_dataset(&wide);
        assert_eq!(m.code_width(), 16);
        assert_eq!(
            m.code(599, 0),
            Binner::fit(&wide, 512).bin_value(0, Value::Num(599.0)) as usize
        );
    }

    #[test]
    fn append_equals_binning_the_concatenated_dataset() {
        // Satellite pin: bin base rows, append synthetic rows -> identical to
        // binning the concatenated dataset when the edges are unchanged.
        let base = mixed();
        let binner = Binner::fit(&base, 8);
        let mut grown = base.clone();
        for i in 0..7 {
            grown.push_row(&[Value::Num((i % 6) as f64), Value::Cat((i + 1) % 3)], 1).unwrap();
        }
        assert_eq!(Binner::fit(&grown, 8), binner, "appended values hit existing bins");
        let mut incremental = binner.bin_dataset(&base);
        binner.append(&grown, &mut incremental);
        assert_eq!(incremental, binner.bin_dataset(&grown));
    }

    #[test]
    fn cache_incremental_on_categorical_schema() {
        let schema = Schema::builder("y", vec!["a".into(), "b".into()])
            .categorical("k", vec!["p".into(), "q".into()])
            .build();
        let mut ds = Dataset::new(schema);
        ds.push_row(&[Value::Cat(0)], 0).unwrap();
        let mut cache = BinnedCache::fit(&ds, 16);
        ds.push_row(&[Value::Cat(1)], 1).unwrap();
        assert_eq!(
            cache.sync_unfaulted(&ds),
            SyncOutcome::Appended { rows: 1 },
            "categorical bins never change: append path"
        );
        assert_eq!(cache.codes(), &cache.binner().bin_dataset(&ds));
    }

    #[test]
    fn injected_append_fault_degrades_to_rebuild() {
        let ds0 = mixed();
        let mut cache = BinnedCache::fit(&ds0, 16);
        let mut ds = ds0.clone();
        // Repeat an existing row: edges stay put, so this is normally an
        // append — the injected fault forces the rebuild detour.
        let row: Vec<Value> = (0..ds0.n_features()).map(|j| ds0.cell(0, j)).collect();
        ds.push_row(&row, ds0.labels()[0]).unwrap();
        frote_faults::test_support::with_spec(Some("data.cache.binned.append:err:1000:2"), || {
            assert_eq!(cache.sync(&ds), SyncOutcome::Rebuilt(RebuildReason::Injected));
        });
        assert_eq!(cache.codes(), &cache.binner().bin_dataset(&ds));
        ds.push_row(&row, ds0.labels()[0]).unwrap();
        assert_eq!(cache.sync_unfaulted(&ds), SyncOutcome::Appended { rows: 1 }, "fault cleared");
    }

    #[test]
    fn cache_rebins_when_edges_move() {
        let mut ds = mixed();
        let mut cache = BinnedCache::fit(&ds, 16);
        ds.push_row(&[Value::Num(100.0), Value::Cat(0)], 0).unwrap();
        assert_eq!(
            cache.sync_unfaulted(&ds),
            SyncOutcome::Rebuilt(RebuildReason::FitChanged),
            "new distinct value: edges move, full re-bin"
        );
        assert_eq!(cache.binner(), &Binner::fit(&ds, 16));
        assert_eq!(cache.codes(), &cache.binner().bin_dataset(&ds));
    }

    #[test]
    fn cache_truncate_drops_rejected_rows() {
        let ds = mixed();
        let mut cache = BinnedCache::fit(&ds, 16);
        cache.truncate(5);
        assert_eq!(cache.codes().n_rows(), 5);
        assert_eq!(
            cache.sync_unfaulted(&ds),
            SyncOutcome::Appended { rows: 7 },
            "unchanged edges survive the stale-fit re-check: append path"
        );
        assert_eq!(cache.codes(), &cache.binner().bin_dataset(&ds));
    }

    #[test]
    fn truncate_after_rebin_restores_the_original_fit() {
        // A candidate row moves the bin edges (full re-bin), then is
        // rejected: truncate must leave the cache able to recover the
        // original binner on the next sync, even though the row counts
        // already match.
        let ds = mixed();
        let mut cache = BinnedCache::fit(&ds, 16);
        let mut candidate = ds.clone();
        candidate.push_row(&[Value::Num(100.0), Value::Cat(0)], 0).unwrap();
        assert_eq!(
            cache.sync_unfaulted(&candidate),
            SyncOutcome::Rebuilt(RebuildReason::FitChanged),
            "edges moved: full re-bin"
        );
        cache.truncate(ds.n_rows());
        assert_eq!(
            cache.sync_unfaulted(&ds),
            SyncOutcome::Rebuilt(RebuildReason::StaleFit),
            "rollback left edges fitted on dropped rows"
        );
        assert_eq!(cache.binner(), &Binner::fit(&ds, 16), "fit restored after rollback");
        assert_eq!(cache.codes(), &cache.binner().bin_dataset(&ds));
    }

    #[test]
    fn constant_and_empty_columns_get_one_bin() {
        let schema = Schema::builder("y", vec!["a".into(), "b".into()]).numeric("x").build();
        let mut ds = Dataset::new(schema.clone());
        assert_eq!(Binner::fit(&ds, 8).n_bins(0), 1, "empty column");
        ds.push_row(&[Value::Num(5.0)], 0).unwrap();
        ds.push_row(&[Value::Num(5.0)], 1).unwrap();
        let binner = Binner::fit(&ds, 8);
        assert_eq!(binner.n_bins(0), 1, "constant column");
        assert_eq!(binner.bin_value(0, Value::Num(5.0)), 0);
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn tiny_budget_panics() {
        Binner::fit(&mixed(), 1);
    }

    #[test]
    #[should_panic(expected = "outside the fitted vocabulary")]
    fn out_of_vocabulary_category_panics() {
        // Fitted on a 2-category schema; binning a same-arity dataset with
        // a wider vocabulary must fail loudly, not corrupt histograms.
        let narrow = Schema::builder("y", vec!["a".into(), "b".into()])
            .categorical("k", vec!["p".into(), "q".into()])
            .build();
        let mut ds = Dataset::new(narrow);
        ds.push_row(&[Value::Cat(0)], 0).unwrap();
        let binner = Binner::fit(&ds, 8);
        let wide = Schema::builder("y", vec!["a".into(), "b".into()])
            .categorical("k", vec!["p".into(), "q".into(), "r".into(), "s".into()])
            .build();
        let mut other = Dataset::new(wide);
        other.push_row(&[Value::Cat(3)], 0).unwrap();
        binner.bin_dataset(&other);
    }

    #[test]
    #[should_panic(expected = "cannot bin NaN")]
    fn nan_value_panics_instead_of_landing_in_bin_zero() {
        // Satellite pin: `partition_point(|e| e < NaN)` is 0 because every
        // IEEE comparison against NaN is false — without the guard a NaN
        // cell would silently masquerade as the smallest bin.
        let ds = mixed();
        let binner = Binner::fit(&ds, 8);
        binner.bin_value(0, Value::Num(f64::NAN));
    }

    #[test]
    fn numeric_edges_expose_the_fitted_thresholds() {
        let ds = mixed();
        let binner = Binner::fit(&ds, 16);
        let edges = binner.numeric_edges(0).unwrap();
        assert_eq!(edges.len(), binner.n_bins(0) - 1);
        for (b, &e) in edges.iter().enumerate() {
            assert_eq!(e, binner.threshold(0, b));
        }
        assert!(binner.numeric_edges(1).is_none(), "categorical features have no edges");
    }

    #[test]
    #[should_panic(expected = "u8 storage width")]
    fn narrow_matrix_rejects_wide_codes() {
        let ds = mixed();
        let mut m = Binner::fit(&ds, 8).bin_dataset(&ds);
        m.push_row(&[300, 0]);
    }
}
