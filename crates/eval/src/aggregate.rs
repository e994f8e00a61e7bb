//! Aggregation across runs: mean ± std and box-plot statistics.

/// Mean/std summary of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (0 for n < 2).
    pub std: f64,
    /// Sample size.
    pub n: usize,
}

impl Summary {
    /// Summarizes `values` (0-mean/0-std for empty input).
    pub fn of(values: &[f64]) -> Summary {
        let n = values.len();
        if n == 0 {
            return Summary { mean: 0.0, std: 0.0, n: 0 };
        }
        let mean = values.iter().sum::<f64>() / n as f64;
        let std = if n < 2 {
            0.0
        } else {
            let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (n - 1) as f64;
            var.sqrt()
        };
        Summary { mean, std, n }
    }

    /// Formats as `0.025 ± 0.039` with 3 decimals (the paper's table style).
    pub fn display(&self) -> String {
        format!("{:.3} ± {:.3}", self.mean, self.std)
    }
}

/// Box-plot statistics: median, quartiles, and 1.5·IQR whiskers clipped to
/// the data (the paper's figures use standard box plots).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoxStats {
    /// Lower whisker.
    pub lo: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Upper whisker.
    pub hi: f64,
}

impl BoxStats {
    /// Computes box statistics; returns `None` for empty input. `NaN`s
    /// sort after every number, so they only reach the statistics whose
    /// ranks fall among them.
    pub fn of(values: &[f64]) -> Option<BoxStats> {
        if values.is_empty() {
            return None;
        }
        let mut sorted = values.to_vec();
        // A stable sort on `partial_cmp`: equal numbers (±0 included) keep
        // their input order. It fails only on a NaN, which ranks last.
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or_else(|| a.is_nan().cmp(&b.is_nan())));
        let q = |p: f64| -> f64 {
            let idx = p * (sorted.len() - 1) as f64;
            let lo = idx.floor() as usize;
            let hi = idx.ceil() as usize;
            let frac = idx - lo as f64;
            sorted[lo] * (1.0 - frac) + sorted[hi] * frac
        };
        let q1 = q(0.25);
        let median = q(0.5);
        let q3 = q(0.75);
        let iqr = q3 - q1;
        let lo_fence = q1 - 1.5 * iqr;
        let hi_fence = q3 + 1.5 * iqr;
        let lo = sorted.iter().copied().find(|&v| v >= lo_fence).unwrap_or(sorted[0]);
        let hi = sorted
            .iter()
            .rev()
            .copied()
            .find(|&v| v <= hi_fence)
            .unwrap_or(sorted[sorted.len() - 1]);
        Some(BoxStats { lo, q1, median, q3, hi })
    }

    /// Compact rendering `lo/q1/med/q3/hi` with 3 decimals.
    pub fn display(&self) -> String {
        format!("{:.3}/{:.3}/{:.3}/{:.3}/{:.3}", self.lo, self.q1, self.median, self.q3, self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_known_values() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.mean, 2.5);
        assert!((s.std - (5.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert_eq!(s.n, 4);
        assert_eq!(s.display(), "2.500 ± 1.291");
    }

    #[test]
    fn summary_edge_cases() {
        assert_eq!(Summary::of(&[]).n, 0);
        let s = Summary::of(&[5.0]);
        assert_eq!(s.mean, 5.0);
        assert_eq!(s.std, 0.0);
    }

    #[test]
    fn box_stats_median_and_quartiles() {
        let vals: Vec<f64> = (1..=9).map(f64::from).collect();
        let b = BoxStats::of(&vals).unwrap();
        assert_eq!(b.median, 5.0);
        assert_eq!(b.q1, 3.0);
        assert_eq!(b.q3, 7.0);
        assert_eq!(b.lo, 1.0);
        assert_eq!(b.hi, 9.0);
    }

    #[test]
    fn box_stats_whiskers_clip_outliers() {
        let mut vals: Vec<f64> = (1..=9).map(f64::from).collect();
        vals.push(100.0); // far outlier
        let b = BoxStats::of(&vals).unwrap();
        assert!(b.hi < 100.0, "hi {}", b.hi);
    }

    #[test]
    fn box_stats_empty() {
        assert!(BoxStats::of(&[]).is_none());
    }

    #[test]
    fn box_stats_rank_nan_last_and_keep_signed_zero_order() {
        let b = BoxStats::of(&[3.0, f64::NAN, 1.0, 2.0]).unwrap();
        assert_eq!((b.lo, b.q1, b.median), (1.0, 1.75, 2.5));
        assert!(b.q3.is_nan() && b.hi.is_nan());
        assert!(BoxStats::of(&[-0.0, 0.0]).unwrap().lo.is_sign_negative());
        assert!(BoxStats::of(&[0.0, -0.0]).unwrap().lo.is_sign_positive());
    }
}
