//! The numeric-kernel determinism contract, pinned bit-for-bit.
//!
//! Every kernel in `frote_ml::kernels` must equal its naive sequential
//! reference loop **exactly** (`to_bits` equality, not epsilon closeness) on
//! arbitrary finite inputs including the empty and length-1 cases — that is
//! what makes rewiring call sites onto the kernels a no-op for the golden
//! pipeline hashes. Softmax is also pinned on ties with the max, all-equal
//! scores and infinite entries, where the kernel skips `exp` for the max.
//! On top, the blocked logistic-regression gradient (which runs the kernels
//! on each row's dense numeric prefix and parallelizes over row blocks)
//! must be invariant to `FROTE_THREADS` 1/2/4, because its per-block
//! partials are reduced in block order.

use frote_data::{Dataset, Schema, Value};
use frote_ml::kernels;
use frote_ml::logreg::{LogRegParams, LogisticRegression};
use frote_par::test_support::with_threads;
use proptest::prelude::*;

// ---- naive reference loops: the semantics the kernels must reproduce ----

fn naive_dot(init: f64, a: &[f64], b: &[f64]) -> f64 {
    let mut acc = init;
    for (x, y) in a.iter().zip(b) {
        acc += x * y;
    }
    acc
}

fn naive_gather_sum(xs: &[f64], idx: &[usize]) -> f64 {
    let mut acc = 0.0;
    for &i in idx {
        acc += xs[i];
    }
    acc
}

fn naive_softmax(scores: &[f64]) -> Vec<f64> {
    let max = scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mut out: Vec<f64> = scores.iter().map(|&s| (s - max).exp()).collect();
    let sum: f64 = out.iter().sum();
    for o in &mut out {
        *o /= sum;
    }
    out
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// NaN-free values spanning several magnitudes, so reassociation would be
/// caught (`(a + b) + c != a + (b + c)` is the common case here, not the
/// exception).
fn finite() -> impl Strategy<Value = f64> {
    prop_oneof![-1e6..1e6f64, -1.0..1.0f64, -1e-6..1e-6f64]
}

/// A pair of equal-length slices, lengths 0..=65 (covering empty, 1, the
/// 4-lane blocks, and every remainder) — two draws truncated to the shorter.
fn slice_pair() -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
    (proptest::collection::vec(finite(), 0..=65), proptest::collection::vec(finite(), 0..=65))
        .prop_map(|(mut a, mut b)| {
            let len = a.len().min(b.len());
            a.truncate(len);
            b.truncate(len);
            (a, b)
        })
}

proptest! {
    #[test]
    fn dot_equals_naive_bit_for_bit((a, b) in slice_pair(), init in finite()) {
        prop_assert_eq!(kernels::dot(&a, &b).to_bits(), naive_dot(0.0, &a, &b).to_bits());
        prop_assert_eq!(
            kernels::dot_from(init, &a, &b).to_bits(),
            naive_dot(init, &a, &b).to_bits()
        );
    }

    #[test]
    fn axpy_equals_naive_bit_for_bit((x, y) in slice_pair(), alpha in finite()) {
        let mut kernel = y.clone();
        kernels::axpy(alpha, &x, &mut kernel);
        let mut naive = y.clone();
        for (yi, &xi) in naive.iter_mut().zip(&x) {
            *yi += alpha * xi;
        }
        prop_assert_eq!(bits(&kernel), bits(&naive));
    }

    #[test]
    fn add_assign_equals_naive_bit_for_bit((x, y) in slice_pair()) {
        let mut add = y.clone();
        kernels::add_assign(&mut add, &x);
        let naive_add: Vec<f64> = y.iter().zip(&x).map(|(a, b)| a + b).collect();
        prop_assert_eq!(bits(&add), bits(&naive_add));
    }

    #[test]
    fn gather_sum_equals_naive_bit_for_bit(
        xs in proptest::collection::vec(finite(), 1..=65),
        idx in proptest::collection::vec(0usize..65, 0..=65),
    ) {
        let idx: Vec<usize> = idx.into_iter().map(|i| i % xs.len()).collect();
        prop_assert_eq!(
            kernels::gather_sum(&xs, &idx).to_bits(),
            naive_gather_sum(&xs, &idx).to_bits()
        );
    }

    #[test]
    fn softmax_equals_naive_bit_for_bit(
        scores in proptest::collection::vec(-700.0..700.0f64, 1..=65),
    ) {
        let mut out = vec![0.0; scores.len()];
        kernels::softmax_into(&scores, &mut out);
        prop_assert_eq!(bits(&out), bits(&naive_softmax(&scores)));
    }

    /// Random scores with the max copied into other slots and some entries
    /// set to `-inf`: ties with the max skip `exp`, `-inf` entries do not.
    #[test]
    fn softmax_with_forced_ties_equals_naive_bit_for_bit(
        scores in proptest::collection::vec(-700.0..700.0f64, 1..=17),
        edits in proptest::collection::vec((0usize..17, 0u8..3), 0..=6),
    ) {
        let mut scores = scores;
        let max = scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        for &(at, what) in &edits {
            let at = at % scores.len();
            scores[at] = match what {
                0 => max,
                1 => f64::NEG_INFINITY,
                _ => scores[at],
            };
        }
        let mut out = vec![0.0; scores.len()];
        kernels::softmax_into(&scores, &mut out);
        prop_assert_eq!(nan_aware_bits(&out), nan_aware_bits(&naive_softmax(&scores)));
    }
}

/// [`bits`] with every NaN mapped to `None`: degenerate inputs (all `-inf`,
/// an infinite max) give NaN in both the kernel and the naive loop, and the
/// contract is about which cells are NaN, not their payloads.
fn nan_aware_bits(xs: &[f64]) -> Vec<Option<u64>> {
    xs.iter().map(|x| (!x.is_nan()).then(|| x.to_bits())).collect()
}

/// The softmax edge cases the `exp` skip must get right, each pinned
/// against the naive loop that calls `exp` on every entry.
#[test]
fn softmax_ties_and_infinities_equal_naive_bit_for_bit() {
    let inf = f64::INFINITY;
    let cases: &[&[f64]] = &[
        &[7.0],
        &[2.0, 2.0, -1.0],
        &[0.5, 3.0, 3.0, 1.0],
        &[1.5, 1.5, 1.5],
        &[0.0, 0.0],
        &[0.0, -0.0],
        &[-0.0, 0.0, -0.0],
        &[-inf, 0.0, 1.0],
        &[-inf, 2.0, 2.0],
        &[-inf, -inf, 4.0],
        &[-inf, -inf],
        &[inf, 1.0],
        &[inf, inf],
    ];
    for &scores in cases {
        let mut out = vec![0.0; scores.len()];
        kernels::softmax_into(scores, &mut out);
        assert_eq!(nan_aware_bits(&out), nan_aware_bits(&naive_softmax(scores)), "{scores:?}");
    }
    // Ties share the probability exactly, and -inf entries get exactly 0.
    let mut out = vec![0.0; 4];
    kernels::softmax_into(&[-inf, 3.0, 3.0, -inf], &mut out);
    assert_eq!(bits(&out), bits(&[0.0, 0.5, 0.5, 0.0]));
}

// ---- blocked-reduction thread invariance ----

/// A numeric dataset large enough to span several LR gradient blocks
/// (512 rows each), so the fixed-order block reduction is actually
/// exercised across thread counts.
fn multi_block_ds() -> Dataset {
    let schema = Schema::builder("y", vec!["a".into(), "b".into(), "c".into()])
        .numeric("x0")
        .numeric("x1")
        .numeric("x2")
        .build();
    let mut ds = Dataset::new(schema);
    for i in 0..1700 {
        let x0 = (i as f64 * 0.37).sin() * 3.0;
        let x1 = (i as f64 * 0.11).cos() * 5.0;
        let x2 = ((i * 7919) % 100) as f64 / 10.0;
        let label = ((x0 + x1 > 0.0) as u32) + ((x2 > 5.0) as u32);
        ds.push_row(&[Value::Num(x0), Value::Num(x1), Value::Num(x2)], label).unwrap();
    }
    ds
}

#[test]
fn lr_blocked_gradient_is_invariant_to_thread_count() {
    let ds = multi_block_ds();
    let params = LogRegParams { max_iter: 40, ..Default::default() };
    let reference = with_threads(1, || LogisticRegression::fit(&ds, &params));
    let encoded = reference.encoder().encode_dataset(&ds);
    let mut expect = Vec::new();
    let mut got = Vec::new();
    for t in [2usize, 4] {
        let model = with_threads(t, || LogisticRegression::fit(&ds, &params));
        for i in (0..ds.n_rows()).step_by(97) {
            reference.predict_proba_encoded(encoded.row(i), &mut expect);
            model.predict_proba_encoded(encoded.row(i), &mut got);
            let same = expect.iter().zip(&got).all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "FROTE_THREADS={t} row {i}: {expect:?} vs {got:?}");
        }
    }
}
