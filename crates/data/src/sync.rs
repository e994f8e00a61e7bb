//! The append-or-rebuild policy shared by the incremental caches.
//!
//! [`EncodedCache`](crate::EncodedCache) and
//! [`BinnedCache`](crate::BinnedCache) are both an [`IncrementalCache`]
//! over a fitted [`Plane`]: a fit (an [`Encoder`](crate::Encoder) or a
//! [`Binner`](crate::Binner)) plus the rows it produced from a growing
//! dataset. [`IncrementalCache::sync`] refits on the grown dataset and, when
//! the fit held, appends only the new rows; otherwise it rebuilds.
//! [`SyncOutcome`] reports which path was taken and — for the slow path —
//! *why*, so a silent full-rebuild regression shows up in metrics and can be
//! asserted on in tests. The rule plane's `RuleMaskCache` reports through
//! the same vocabulary but has no fit to go stale, so it keeps its own sync.

use std::fmt;

use crate::dataset::Dataset;

/// Why a cache sync had to rebuild from scratch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RebuildReason {
    /// The cache held no rows yet; the first sync always builds in full.
    FirstFit,
    /// Refitting on the grown dataset produced different parameters
    /// (e.g. appended rows moved a numeric mean/std), invalidating the
    /// cached encodings.
    FitChanged,
    /// A prior truncate marked the fit stale (it may have been computed
    /// on since-dropped rows) and the re-checked fit did not match.
    StaleFit,
    /// An injected fault (`frote-faults`) poisoned the append fast path;
    /// the cache degraded to a full rebuild rather than trusting a
    /// possibly-partial append. Output stays bit-identical — only the cost
    /// changes.
    Injected,
}

/// How a cache sync brought itself up to date with the dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncOutcome {
    /// Nothing to do: row counts matched and the fit was known-fresh.
    Unchanged,
    /// Fast path: fitted parameters held, only the `rows` new rows were
    /// encoded/binned/evaluated and appended.
    Appended {
        /// Number of rows appended (may be 0 when a stale-fit re-check
        /// confirmed the fit without any growth).
        rows: usize,
    },
    /// Slow path: the whole cache was rebuilt, for the given reason.
    Rebuilt(RebuildReason),
}

impl SyncOutcome {
    /// Whether the sync avoided a full rebuild.
    pub fn is_incremental(&self) -> bool {
        !matches!(self, SyncOutcome::Rebuilt(_))
    }
}

/// The metric bundle every incremental cache reports into, so all three
/// caches share one naming scheme (`<prefix>.sync.noop`,
/// `<prefix>.sync.append`, `<prefix>.sync.rebuild[.reason]`,
/// `<prefix>.appended_rows`, `<prefix>.truncates`,
/// `<prefix>.truncated_rows`). All counters are thread-invariant: sync
/// decisions depend only on dataset contents, never on scheduling.
pub struct CacheCounters {
    noop: &'static frote_obs::Counter,
    append: &'static frote_obs::Counter,
    rebuild: &'static frote_obs::Counter,
    rebuild_first_fit: &'static frote_obs::Counter,
    rebuild_fit_changed: &'static frote_obs::Counter,
    rebuild_stale_fit: &'static frote_obs::Counter,
    rebuild_injected: &'static frote_obs::Counter,
    appended_rows: &'static frote_obs::Counter,
    truncates: &'static frote_obs::Counter,
    truncated_rows: &'static frote_obs::Counter,
}

impl CacheCounters {
    /// Build (once, at first use) the counter bundle for a cache
    /// `prefix` such as `"encoded_cache"`.
    pub fn new(prefix: &str) -> CacheCounters {
        let c = |suffix: &str| {
            frote_obs::leaked_counter(format!("{prefix}.{suffix}"), frote_obs::Variance::Invariant)
        };
        CacheCounters {
            noop: c("sync.noop"),
            append: c("sync.append"),
            rebuild: c("sync.rebuild"),
            rebuild_first_fit: c("sync.rebuild.first_fit"),
            rebuild_fit_changed: c("sync.rebuild.fit_changed"),
            rebuild_stale_fit: c("sync.rebuild.stale_fit"),
            rebuild_injected: c("sync.rebuild.injected"),
            appended_rows: c("appended_rows"),
            truncates: c("truncates"),
            truncated_rows: c("truncated_rows"),
        }
    }

    /// Count one sync under the path it took.
    pub fn record_sync(&self, outcome: &SyncOutcome) {
        match outcome {
            SyncOutcome::Unchanged => self.noop.inc(),
            SyncOutcome::Appended { rows } => {
                self.append.inc();
                self.appended_rows.add(*rows as u64);
            }
            SyncOutcome::Rebuilt(reason) => {
                self.rebuild.inc();
                match reason {
                    RebuildReason::FirstFit => self.rebuild_first_fit.inc(),
                    RebuildReason::FitChanged => self.rebuild_fit_changed.inc(),
                    RebuildReason::StaleFit => self.rebuild_stale_fit.inc(),
                    RebuildReason::Injected => self.rebuild_injected.inc(),
                }
            }
        }
    }

    /// Count one truncate that dropped `dropped` rows.
    pub fn record_truncate(&self, dropped: usize) {
        self.truncates.inc();
        self.truncated_rows.add(dropped as u64);
    }
}

/// One fitted plane an [`IncrementalCache`] keeps in sync: the fit type
/// itself, with the rows it produces as [`Plane::Rows`].
///
/// Equality of two fits must mean "the rows they produce are identical", so
/// a refit equal to the previous fit proves the cached rows still valid.
pub trait Plane: PartialEq + fmt::Debug + Clone {
    /// The rows built from a dataset (one per dataset row).
    type Rows: fmt::Debug + Clone;

    /// Failpoint consulted before every append (see `frote-faults`); when
    /// it fires, the sync degrades to a full rebuild.
    const FAULT_SITE: &'static str;

    /// The counter bundle this plane's syncs and truncates report into.
    fn counters() -> &'static CacheCounters;

    /// Fits `ds` with the same settings as `self` (e.g. the bin budget).
    fn refit(&self, ds: &Dataset) -> Self;

    /// Builds the rows of every dataset row.
    fn build(&self, ds: &Dataset) -> Self::Rows;

    /// Appends the rows of `ds`'s rows `n_rows(rows)..ds.n_rows()`.
    fn append(&self, ds: &Dataset, rows: &mut Self::Rows);

    /// Number of rows held.
    fn n_rows(rows: &Self::Rows) -> usize;

    /// Drops all rows past the first `n`.
    fn truncate_rows(rows: &mut Self::Rows, n: usize);
}

/// A fitted [`Plane`] plus its rows, kept in sync with a dataset that only
/// grows (FROTE's `D̂`) or rolls back to a prefix.
///
/// The cache is exact by construction: after [`IncrementalCache::sync`], the
/// fit equals a fresh fit of the dataset and the rows equal a fresh build,
/// bit for bit — callers trade no determinism for the saved work.
#[derive(Debug, Clone)]
pub struct IncrementalCache<P: Plane> {
    pub(crate) fit: P,
    pub(crate) rows: P::Rows,
    /// Set by [`IncrementalCache::truncate`]: the fit may have been computed
    /// on since-dropped rows, so the next sync must re-check it even when
    /// the row counts already match.
    stale_fit: bool,
}

impl<P: Plane> IncrementalCache<P> {
    /// Builds every row of `ds` under `fit`, which must be a fit of `ds`.
    pub(crate) fn new(fit: P, ds: &Dataset) -> Self {
        let rows = fit.build(ds);
        IncrementalCache { fit, rows, stale_fit: false }
    }

    /// Brings the cache in sync with `ds`, whose leading rows must be
    /// unchanged since the last sync (FROTE's loop only ever appends).
    /// Returns [`SyncOutcome::Appended`] when the refit held and only new
    /// rows were built, [`SyncOutcome::Rebuilt`] (with the reason) when the
    /// whole cache was rebuilt.
    pub fn sync(&mut self, ds: &Dataset) -> SyncOutcome {
        let outcome = self.sync_inner(ds);
        P::counters().record_sync(&outcome);
        outcome
    }

    fn sync_inner(&mut self, ds: &Dataset) -> SyncOutcome {
        if !self.stale_fit && ds.n_rows() == P::n_rows(&self.rows) {
            return SyncOutcome::Unchanged; // even the refit can be skipped
        }
        let was_stale = std::mem::take(&mut self.stale_fit);
        let refit = self.fit.refit(ds);
        if refit != self.fit {
            self.fit = refit;
            self.rows = self.fit.build(ds);
            return SyncOutcome::Rebuilt(if was_stale {
                RebuildReason::StaleFit
            } else {
                RebuildReason::FitChanged
            });
        }
        if frote_faults::point(P::FAULT_SITE).is_err() {
            // An injected fault poisoned the append fast path: degrade to a
            // full rebuild — bit-identical output, only the cost changes.
            self.rows = self.fit.build(ds);
            return SyncOutcome::Rebuilt(RebuildReason::Injected);
        }
        let appended = ds.n_rows() - P::n_rows(&self.rows);
        self.fit.append(ds, &mut self.rows);
        SyncOutcome::Appended { rows: appended }
    }

    /// Drops cached rows past the first `rows` (rejecting a candidate batch
    /// without rebuilding the survivors). The surviving rows stay valid —
    /// they depend only on the fit — but the fit itself may have been
    /// computed on the dropped rows, so the next sync re-checks it.
    pub fn truncate(&mut self, rows: usize) {
        let held = P::n_rows(&self.rows);
        if rows < held {
            self.stale_fit = true;
            P::counters().record_truncate(held - rows);
        }
        P::truncate_rows(&mut self.rows, rows);
    }
}

#[cfg(test)]
impl<P: Plane> IncrementalCache<P> {
    /// [`IncrementalCache::sync`] serialized against the tests that arm the
    /// append failpoints: the armed table is process-wide, so an unlocked
    /// sync in a concurrent test could take another test's injected fault.
    pub(crate) fn sync_unfaulted(&mut self, ds: &Dataset) -> SyncOutcome {
        frote_faults::test_support::with_spec(None, || self.sync(ds))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BinnedCache, EncodedCache, Schema, Value};

    #[test]
    fn incremental_covers_unchanged_and_appended() {
        assert!(SyncOutcome::Unchanged.is_incremental());
        assert!(SyncOutcome::Appended { rows: 3 }.is_incremental());
        assert!(!SyncOutcome::Rebuilt(RebuildReason::FitChanged).is_incremental());
        assert!(!SyncOutcome::Rebuilt(RebuildReason::StaleFit).is_incremental());
        assert!(!SyncOutcome::Rebuilt(RebuildReason::FirstFit).is_incremental());
    }

    /// Mixed numeric + categorical rows with small-integer values, so the
    /// encoder's mean/std and the binner's edges are exact.
    fn base() -> Dataset {
        let schema = Schema::builder("y", vec!["a".into(), "b".into()])
            .numeric("x")
            .categorical("c", vec!["u".into(), "v".into(), "w".into()])
            .build();
        let mut ds = Dataset::new(schema);
        for i in 0..6u32 {
            ds.push_row(&[Value::Num(f64::from(i % 3)), Value::Cat(i % 3)], i % 2).unwrap();
        }
        ds
    }

    /// `base` repeated `times` times. Repeating every row keeps the
    /// population mean/std and the distinct values, so neither fit moves.
    fn repeated(base: &Dataset, times: usize) -> Dataset {
        let mut ds = base.clone();
        for _ in 1..times {
            for i in 0..base.n_rows() {
                ds.push_row(&base.row(i), base.label(i)).unwrap();
            }
        }
        ds
    }

    enum Step<'a> {
        Sync(&'a Dataset, SyncOutcome),
        FaultedSync(&'a Dataset, SyncOutcome),
        Truncate(usize),
    }

    /// Runs one plane through the shared script: after every sync the cache
    /// must report the expected outcome and equal a fresh fit of the synced
    /// dataset.
    fn run_script<P: Plane>(fresh: impl Fn(&Dataset) -> IncrementalCache<P>)
    where
        P::Rows: PartialEq,
    {
        use RebuildReason::*;
        use SyncOutcome::*;
        let base = base();
        let n = base.n_rows();
        let doubled = repeated(&base, 2);
        let tripled = repeated(&base, 3);
        // A new numeric extreme moves both fits.
        let mut moved = doubled.clone();
        moved.push_row(&[Value::Num(100.0), Value::Cat(0)], 0).unwrap();
        let script = [
            ("first fit, nothing new", Step::Sync(&base, Unchanged)),
            ("fit holds: append", Step::Sync(&doubled, Appended { rows: n })),
            ("fit moves: rebuild", Step::Sync(&moved, Rebuilt(FitChanged))),
            ("roll the extreme back", Step::Truncate(2 * n)),
            ("re-check finds a fit of dropped rows", Step::Sync(&doubled, Rebuilt(StaleFit))),
            ("roll back to the base", Step::Truncate(n)),
            ("re-check confirms the fit", Step::Sync(&base, Appended { rows: 0 })),
            ("roll back into the base", Step::Truncate(n / 2)),
            (
                "re-check confirms and appends",
                Step::Sync(&doubled, Appended { rows: 2 * n - n / 2 }),
            ),
            ("injected append fault", Step::FaultedSync(&tripled, Rebuilt(Injected))),
        ];
        let mut cache = fresh(&base);
        for (what, step) in script {
            let (ds, outcome, expected) = match step {
                Step::Sync(ds, expected) => (ds, cache.sync_unfaulted(ds), expected),
                Step::FaultedSync(ds, expected) => {
                    let spec = format!("{}:err:1000:2", P::FAULT_SITE);
                    let outcome =
                        frote_faults::test_support::with_spec(Some(&spec), || cache.sync(ds));
                    (ds, outcome, expected)
                }
                Step::Truncate(rows) => {
                    cache.truncate(rows);
                    assert_eq!(P::n_rows(&cache.rows), rows, "{what}");
                    continue;
                }
            };
            assert_eq!(outcome, expected, "{what}");
            let reference = fresh(ds);
            assert_eq!(cache.fit, reference.fit, "{what}: fit differs from a fresh fit");
            assert_eq!(cache.rows, reference.rows, "{what}: rows differ from a fresh build");
        }
    }

    #[test]
    fn both_planes_follow_one_sync_policy() {
        run_script(EncodedCache::fit);
        run_script(|ds| BinnedCache::fit(ds, 16));
    }
}
