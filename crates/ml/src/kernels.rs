//! Blocked, autovectorizer-friendly `f64` kernels over contiguous slices —
//! the numeric inner loops shared by every model family.
//!
//! PR 3 put every hot structure on flat [`frote_data::FeatureMatrix`] rows;
//! this module is the compute half of that bargain: the innermost
//! arithmetic — dot products, softmax, gradient accumulation — lives here
//! once, instead of being re-spelled at every call site. Logistic regression calls [`dot_from`] and [`axpy`] on the
//! dense numeric prefix of each encoded row only; its one-hot tail is read
//! through a per-fit index of nonzero cells (see `crate::logreg`).
//!
//! ## Determinism contract
//!
//! Every kernel is **bit-identical to its naive sequential reference loop**
//! (pinned by `crates/ml/tests/prop_kernels.rs`), and therefore bit-identical
//! to the scalar code it replaced — rewiring a call site onto a kernel can
//! never move a golden hash. Concretely:
//!
//! - Reductions ([`dot`], [`gather_sum`]) fold left in element order. The
//!   4-lane block structure applies to the *products*: the four multiplies
//!   of a block are independent (one SIMD multiply for the autovectorizer,
//!   four parallel scalar multiplies for the scheduler), while the adds
//!   keep the single sequential chain —
//!   `f64` addition is not associative, so a 4-accumulator reduction would
//!   reassociate the sum and break the byte-identical contract.
//! - Elementwise kernels ([`axpy`], [`add_assign`], [`softmax_into`]) have
//!   no cross-element data flow at all, so the autovectorizer is free to
//!   use full-width SIMD without any ordering caveat.
//!
//! Parallel callers (the logistic-regression gradient, histogram builds)
//! get thread-count invariance on top by accumulating fixed-size blocks
//! with these kernels and reducing the per-block partials **in block
//! order** via [`add_assign`] — block boundaries depend only on the block
//! size, never on `FROTE_THREADS`.
//!
//! ## Adding a kernel
//!
//! 1. Write the naive scalar loop first; that loop *is* the semantics.
//! 2. Restructure for the autovectorizer (unroll products, keep sum chains)
//!    without reassociating any floating-point reduction.
//! 3. Pin `kernel == naive` bit-for-bit in `tests/prop_kernels.rs`
//!    (including the empty and length-1 cases) before rewiring call sites.

/// Elements per unrolled block. Four `f64`s fill one AVX2 register; the
/// value is a structural constant, not a tuning knob — changing it must not
/// (and cannot) change any kernel's result.
const LANES: usize = 4;

/// Dot product `Σ a[i]·b[i]`, folding left from `0.0` in element order.
///
/// # Panics
///
/// Panics if the slices' lengths differ.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    dot_from(0.0, a, b)
}

/// Dot product accumulated onto `init` — `init + Σ a[i]·b[i]` with the adds
/// folding left in element order, exactly like the naive loop
/// `let mut acc = init; for i { acc += a[i] * b[i]; }`. Scoring kernels use
/// this to fold a bias term into the chain without an extra reassociation.
///
/// # Panics
///
/// Panics if the slices' lengths differ.
pub fn dot_from(init: f64, a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot operands must share a length");
    let mut acc = init;
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    for (x, y) in ca.by_ref().zip(cb.by_ref()) {
        // Independent products, sequential adds: see the module docs.
        let p0 = x[0] * y[0];
        let p1 = x[1] * y[1];
        let p2 = x[2] * y[2];
        let p3 = x[3] * y[3];
        acc = acc + p0 + p1 + p2 + p3;
    }
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        acc += x * y;
    }
    acc
}

/// `y[i] += alpha · x[i]` — the BLAS `axpy`. Purely elementwise, so the
/// autovectorizer emits full-width SIMD with no ordering caveat.
///
/// # Panics
///
/// Panics if the slices' lengths differ.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy operands must share a length");
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// `acc[i] += x[i]` — the fixed-order block reduction primitive: parallel
/// partials are merged by folding them into the accumulator in block order.
///
/// # Panics
///
/// Panics if the slices' lengths differ.
pub fn add_assign(acc: &mut [f64], x: &[f64]) {
    assert_eq!(acc.len(), x.len(), "add_assign operands must share a length");
    for (a, &v) in acc.iter_mut().zip(x) {
        *a += v;
    }
}

/// Gather-sum `Σ xs[idx[i]]`, folding left from `0.0` in index order — the
/// residual/hessian sums of tree leaf values.
///
/// # Panics
///
/// Panics if any index is out of bounds.
pub fn gather_sum(xs: &[f64], idx: &[usize]) -> f64 {
    let mut acc = 0.0;
    let mut ci = idx.chunks_exact(LANES);
    for c in ci.by_ref() {
        // Independent gathers, sequential adds.
        let g0 = xs[c[0]];
        let g1 = xs[c[1]];
        let g2 = xs[c[2]];
        let g3 = xs[c[3]];
        acc = acc + g0 + g1 + g2 + g3;
    }
    for &i in ci.remainder() {
        acc += xs[i];
    }
    acc
}

/// In-place numerically-stable softmax: subtract the max, exponentiate,
/// normalize. The op order (max fold, then one exp-and-sum pass, then one
/// divide pass) matches the scalar implementations this kernel replaced in
/// `logreg` and `gbdt` exactly.
///
/// The first score equal to a finite max writes `1.0` without calling
/// `exp`: its shifted value is `±0` and `exp(±0)` is exactly 1, so the
/// result is bit-identical while binary models make half the `exp` calls.
/// The max is found with `>`, which skips NaN like `f64::max` and may keep
/// the other sign of a zero max; no output depends on that sign. A max of
/// `±inf` shifts to NaN, so then every entry still goes through `exp`.
pub fn softmax_in_place(out: &mut [f64]) {
    let (mut max, mut at) = (f64::NEG_INFINITY, out.len());
    for (i, &o) in out.iter().enumerate() {
        if o > max {
            (max, at) = (o, i);
        }
    }
    if !max.is_finite() {
        at = out.len();
    }
    // Splitting the pass at the max (rather than testing every entry)
    // keeps the loop free of a data-dependent branch.
    let (below, from_max) = out.split_at_mut(at);
    let mut sum = exp_shifted_sum(below, max, 0.0);
    if let Some((top, above)) = from_max.split_first_mut() {
        *top = 1.0;
        sum = exp_shifted_sum(above, max, sum + 1.0);
    }
    for o in out.iter_mut() {
        *o /= sum;
    }
}

/// `xs[i] = exp(xs[i] − max)` in place, each result added to `sum` in
/// element order; returns the sum.
fn exp_shifted_sum(xs: &mut [f64], max: f64, mut sum: f64) -> f64 {
    for o in xs {
        *o = (*o - max).exp();
        sum += *o;
    }
    sum
}

/// [`softmax_in_place`] of `scores`, written into `out`.
///
/// # Panics
///
/// Panics if the slices' lengths differ.
pub fn softmax_into(scores: &[f64], out: &mut [f64]) {
    out.copy_from_slice(scores);
    softmax_in_place(out);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_known_values() {
        assert_eq!(dot(&[], &[]), 0.0);
        assert_eq!(dot(&[2.0], &[3.0]), 6.0);
        assert_eq!(dot(&[1.0, 2.0, 3.0, 4.0, 5.0], &[1.0; 5]), 15.0);
        assert_eq!(dot_from(10.0, &[1.0, 2.0], &[3.0, 4.0]), 21.0);
    }

    #[test]
    fn axpy_known_values() {
        let mut y = vec![1.0, 2.0, 3.0];
        axpy(2.0, &[1.0, 1.0, 1.0], &mut y);
        assert_eq!(y, vec![3.0, 4.0, 5.0]);
    }

    #[test]
    fn add_assign_known_values() {
        let mut acc = vec![1.0, 2.0];
        add_assign(&mut acc, &[3.0, 4.0]);
        assert_eq!(acc, vec![4.0, 6.0]);
    }

    #[test]
    fn gather_sum_follows_index_order() {
        let xs = [1.0, 10.0, 100.0, 1000.0, 10000.0];
        assert_eq!(gather_sum(&xs, &[]), 0.0);
        assert_eq!(gather_sum(&xs, &[4, 0, 2, 1, 3]), 11111.0);
        assert_eq!(gather_sum(&xs, &[1, 1, 1]), 30.0, "duplicates count");
    }

    #[test]
    fn softmax_normalizes_and_is_shift_invariant() {
        let mut out = vec![0.0; 3];
        softmax_into(&[1.0, 2.0, 3.0], &mut out);
        assert!((out.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(out[2] > out[1] && out[1] > out[0]);
        let mut shifted = vec![0.0; 3];
        softmax_into(&[1001.0, 1002.0, 1003.0], &mut shifted);
        for (a, b) in out.iter().zip(&shifted) {
            assert_eq!(a.to_bits(), b.to_bits(), "max subtraction makes shifts exact");
        }
    }

    #[test]
    #[should_panic(expected = "share a length")]
    fn dot_length_mismatch_panics() {
        dot(&[1.0], &[1.0, 2.0]);
    }
}
