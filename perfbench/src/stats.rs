//! Small numeric and process helpers: quantiles, FNV digests, peak heap
//! and peak RSS.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use frote::FroteReport;
use frote_bench::benchgate::FnvHasher;
use frote_data::{Dataset, Value};

/// Nearest-rank quantile `p` (in `[0, 1]`) of `values`; 0 when empty.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (nearest-rank) of `values`; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Geometric mean of `values`; 0 when empty or when a value is not
/// positive.
pub fn geomean(values: impl Iterator<Item = f64>) -> f64 {
    let (mut log_sum, mut n) = (0.0, 0);
    for v in values {
        if v <= 0.0 {
            return 0.0;
        }
        log_sum += v.ln();
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        (log_sum / f64::from(n)).exp()
    }
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Folds every cell and label of `ds` into `h`.
pub fn hash_dataset(ds: &Dataset, h: &mut FnvHasher) {
    ds.n_rows().hash(h);
    ds.n_features().hash(h);
    let mut row = Vec::with_capacity(ds.n_features());
    for i in 0..ds.n_rows() {
        ds.row_into(i, &mut row);
        for cell in &row {
            match *cell {
                Value::Num(x) => (0u8, x.to_bits()).hash(h),
                Value::Cat(c) => (1u8, u64::from(c)).hash(h),
            }
        }
        ds.label(i).hash(h);
    }
}

/// Folds every objective value and iteration record of `report` into `h`.
pub fn hash_report(report: &FroteReport, h: &mut FnvHasher) {
    for v in [report.initial, report.final_objective] {
        (v.j.to_bits(), v.mra.to_bits(), v.f1.to_bits()).hash(h);
    }
    report.instances_added.hash(h);
    for r in &report.iterations {
        (r.iteration, r.accepted, r.proposed, r.total_added).hash(h);
        (r.candidate.j.to_bits(), r.candidate.mra.to_bits(), r.candidate.f1.to_bits()).hash(h);
    }
}

/// FNV-1a digest of a string.
pub fn digest_str(text: &str) -> u64 {
    let mut h = FnvHasher::new();
    text.hash(&mut h);
    h.finish()
}

/// The system allocator, counting the bytes live on the heap and their
/// peak. Unlike `VmHWM`, the peak does not depend on which malloc arena a
/// thread happened to allocate in, so it reads the same on every run of
/// the same work.
pub struct PeakHeap;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let now = LIVE.fetch_add(bytes, Relaxed) + bytes;
    if now > PEAK.load(Relaxed) {
        PEAK.fetch_max(now, Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to `System`; the counters only
// observe the sizes.
unsafe impl GlobalAlloc for PeakHeap {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Relaxed);
            grew(new_size);
        }
        p
    }
}

/// The peak of the bytes live on the heap, in MiB.
pub fn peak_heap_mb() -> f64 {
    PEAK.load(Relaxed) as f64 / (1024.0 * 1024.0)
}

/// The process's peak resident set (`VmHWM`) in MiB, or 0 when the
/// platform does not expose `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 0.99), 5.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(median(&[]), 0.0);
        assert!((geomean([1.0, 4.0, 16.0].into_iter()) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(std::iter::empty()), 0.0);
    }
}
