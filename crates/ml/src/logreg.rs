//! Multinomial logistic regression on one-hot encoded features.
//!
//! Stand-in for scikit-learn's `LogisticRegression`; the paper trains it with
//! default settings except `max_iter = 500`, mirrored by
//! [`LogisticRegressionTrainer::default`]. Training is full-batch gradient
//! descent on the softmax cross-entropy with L2 regularization; features are
//! z-scored and one-hot encoded by `frote_data::encode::Encoder`, so a fixed
//! step size is well behaved.
//!
//! ## Sparse training
//!
//! Most encoded cells are one-hot zeros: 12 of Adult's 56 are nonzero per
//! row, 21 of Mushroom's 116, 6 of Car's 21 and 8 of Nursery's 27. The fit
//! therefore reads each row in two parts. The leading run of numeric
//! columns ([`Encoder::numeric_prefix_width`]) is dense and goes through
//! [`kernels::dot_from`] and [`kernels::axpy`]; the rest is read through a
//! per-fit index of its nonzero cells, in column order. Skipping a zero
//! cell is exact: it adds `±0` to a score chain (which can only flip the
//! sign of a zero score, and softmax does not see that sign) and `±0` to
//! a gradient slot that starts at `+0` and can never become `-0`. Weights
//! are therefore bit-identical to the dense loop as long as no cell is NaN
//! and no weight overflows (a NaN or infinite factor times a skipped zero
//! is NaN, not `±0`). A NaN cell makes every score NaN; the dense loop
//! then spreads NaN into the weights of columns that are zero in every
//! row, this one leaves them at 0, and predictions agree either way
//! (pinned in the tests).
//!
//! The row loop is compiled three ways and picked once per fit: with no
//! tail at all (all-numeric schemas, which then run exactly the dense
//! loop), with a tail of one-hot cells only (each exactly 1.0, so its
//! value is not read), and with a general tail.
//!
//! Per fit, the dense loop before against this one (synthetic data,
//! release build, 2-vCPU host; both loops built into one binary, fits
//! alternating, one thread, median of the per-pair ratios): Adult (1,700
//! rows, 500 iterations) 0.58–0.60×, Mushroom (480 rows, 120 iterations)
//! 0.50×, Car (1,700 rows, k = 4) 0.78–0.83×, Nursery (1,700 rows, k = 4)
//! 0.79×, and the all-numeric BreastCancer (569 rows) 0.98–1.02× and
//! WineQuality (1,700 rows, k = 7) 0.97–0.98×.

use frote_data::encode::Encoder;
use frote_data::{Dataset, FeatureMatrix, Value};
use frote_obs::Counter;

use crate::kernels;
use crate::traits::{argmax, Classifier, TrainAlgorithm, PREDICT_BLOCK};

/// Rows per parallel block of the full-batch gradient pass. The per-block
/// partial gradients are reduced in block order, so the block size — never
/// the thread count — defines the summation structure: results are
/// bit-identical at any `FROTE_THREADS`, and fits of at most one block
/// reproduce the pre-kernel sequential accumulation exactly.
const LR_BLOCK: usize = 512;

/// Completed fits.
static FITS: Counter = Counter::new("lr.fits");
/// Gradient-descent iterations run, summed over fits.
static ITERATIONS: Counter = Counter::new("lr.iterations");
/// Fits that ran all `max_iter` iterations without reaching `tol`.
static MAX_ITER_STOPS: Counter = Counter::new("lr.max_iter_stops");

/// Logistic regression hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogRegParams {
    /// Gradient-descent iterations (paper: 500).
    pub max_iter: usize,
    /// Step size.
    pub learning_rate: f64,
    /// L2 regularization strength.
    pub l2: f64,
    /// Early-stop when the gradient's infinity norm falls below this.
    pub tol: f64,
}

impl Default for LogRegParams {
    fn default() -> Self {
        LogRegParams { max_iter: 500, learning_rate: 0.5, l2: 1e-4, tol: 1e-6 }
    }
}

/// A trained multinomial logistic regression model.
#[derive(Debug, Clone)]
pub struct LogisticRegression {
    encoder: Encoder,
    /// Flat row-major weights: row `class`, columns `0..width` features with
    /// the bias last (stride `width + 1`).
    weights: FeatureMatrix,
    n_classes: usize,
}

impl LogisticRegression {
    /// Fits the model to `ds`: encodes once into a [`FeatureMatrix`] and
    /// runs full-batch gradient descent over its row views.
    ///
    /// # Panics
    ///
    /// Panics if `ds` is empty.
    pub fn fit(ds: &Dataset, params: &LogRegParams) -> Self {
        assert!(!ds.is_empty(), "cannot train on an empty dataset");
        let encoder = Encoder::fit(ds);
        let x = encoder.encode_dataset(ds);
        Self::fit_encoded(encoder, &x, ds.labels(), ds.n_classes(), params)
    }

    /// Fits from a pre-encoded matrix, for callers that also read the
    /// matrix (the selection proxy scores its rows). `encoder` must be the
    /// fit that produced `x`; given that, the result is bit-identical to
    /// [`LogisticRegression::fit`].
    ///
    /// # Panics
    ///
    /// Panics if `x` is empty or `labels.len() != x.n_rows()`.
    pub fn fit_encoded(
        encoder: Encoder,
        x: &FeatureMatrix,
        labels: &[u32],
        n_classes: usize,
        params: &LogRegParams,
    ) -> Self {
        assert!(!x.is_empty(), "cannot train on an empty dataset");
        assert_eq!(x.width(), encoder.width(), "matrix width must equal the encoder width");
        assert_eq!(labels.len(), x.n_rows(), "one label per encoded row");
        let n = x.n_rows();
        let d = encoder.width();
        let k = n_classes;
        let tail = TailIndex::build(x, encoder.numeric_prefix_width());
        let mut weights = FeatureMatrix::from_raw(d + 1, vec![0.0; (d + 1) * k]);
        let mut grads = FeatureMatrix::from_raw(d + 1, vec![0.0; (d + 1) * k]);
        let mut iterations = 0;
        let mut converged = false;
        while iterations < params.max_iter && !converged {
            iterations += 1;
            // Per-block partial gradients over fixed LR_BLOCK row blocks,
            // reduced in block order below — the PR 4 histogram pattern, so
            // the fit is bit-identical at any `FROTE_THREADS`.
            let parts = frote_par::par_blocks_map(n, LR_BLOCK, |_, rows| {
                // No tail cells at all (an all-numeric schema): the row loop
                // compiles without the per-row index reads, which cost
                // all-numeric fits about 5% when left in. A tail whose
                // cells are all exactly 1.0 (one-hot cells only, as when no
                // numeric column follows a categorical one) is not read.
                let block = match (tail.cols.is_empty(), tail.ones) {
                    (true, _) => block_gradient::<false, false>,
                    (false, false) => block_gradient::<true, false>,
                    (false, true) => block_gradient::<true, true>,
                };
                vec![block(&weights, x, &tail, labels, rows)]
            });
            grads.as_mut_slice().fill(0.0);
            for part in &parts {
                kernels::add_assign(grads.as_mut_slice(), part);
            }
            let inv_n = 1.0 / n as f64;
            let mut max_grad: f64 = 0.0;
            for c in 0..k {
                let (w, g) = (weights.row_mut(c), grads.row(c));
                for (j, (wj, &gj)) in w.iter_mut().zip(g).enumerate() {
                    let reg = if j < d { params.l2 * *wj } else { 0.0 };
                    let step = gj * inv_n + reg;
                    max_grad = max_grad.max(step.abs());
                    *wj -= params.learning_rate * step;
                }
            }
            converged = max_grad < params.tol;
        }
        FITS.inc();
        ITERATIONS.add(iterations as u64);
        if !converged {
            MAX_ITER_STOPS.inc();
        }
        LogisticRegression { encoder, weights, n_classes: k }
    }

    /// The encoder fitted alongside the weights.
    pub fn encoder(&self) -> &Encoder {
        &self.encoder
    }

    /// [`Classifier::predict_proba_into`] with a caller-provided encode
    /// scratch, for tight loops that score many rows (no allocation per
    /// call).
    pub fn predict_proba_scratch(&self, row: &[Value], scratch: &mut Vec<f64>, out: &mut Vec<f64>) {
        self.scores_into(row, scratch, out);
    }

    /// Class probabilities for one **pre-encoded** feature row (e.g. a
    /// [`FeatureMatrix`] view from the encoder that fitted this model).
    /// Bit-identical to encoding the raw row and calling
    /// [`Classifier::predict_proba_into`].
    ///
    /// # Panics
    ///
    /// Panics if `x`'s length differs from the fitted encoder width.
    pub fn predict_proba_encoded(&self, x: &[f64], out: &mut Vec<f64>) {
        assert_eq!(x.len(), self.encoder.width(), "encoded row width mismatch");
        out.clear();
        out.resize(self.n_classes, 0.0);
        softmax_scores(&self.weights, x, out);
    }

    fn scores_into(&self, row: &[Value], scratch: &mut Vec<f64>, out: &mut Vec<f64>) {
        self.encoder.encode_into(row, scratch);
        out.clear();
        out.resize(self.n_classes, 0.0);
        softmax_scores(&self.weights, scratch, out);
    }
}

/// The nonzero cells of every encoded row's sparse tail (columns
/// `prefix..width`), as column indices in column order: row `i`'s are
/// `cols[offsets[i]..offsets[i + 1]]`. Built once per fit. A `-0.0` cell
/// counts as zero and a NaN cell as nonzero, so the index keeps every cell
/// whose product could be anything but `±0`.
struct TailIndex {
    prefix: usize,
    cols: Vec<u32>,
    offsets: Vec<usize>,
    /// Every indexed cell is exactly 1.0, so `w · x == w` for each of them.
    ones: bool,
}

impl TailIndex {
    fn build(x: &FeatureMatrix, prefix: usize) -> TailIndex {
        assert!(u32::try_from(x.width()).is_ok(), "encoded width must fit in u32");
        fn nonzero(row: &[f64], prefix: usize) -> impl Iterator<Item = u32> + '_ {
            let tail = row.iter().enumerate().skip(prefix);
            tail.filter(|&(_, &v)| v != 0.0).map(|(j, _)| j as u32)
        }
        // Sized exactly up front: the index lives beside the fit's matrix.
        let nnz = x.rows().map(|row| nonzero(row, prefix).count()).sum();
        let mut cols = Vec::with_capacity(nnz);
        let mut offsets = Vec::with_capacity(x.n_rows() + 1);
        offsets.push(0);
        let mut ones = true;
        for row in x.rows() {
            let start = cols.len();
            cols.extend(nonzero(row, prefix));
            ones &= cols[start..].iter().all(|&j| row[j as usize] == 1.0);
            offsets.push(cols.len());
        }
        TailIndex { prefix, cols, offsets, ones }
    }

    fn row(&self, i: usize) -> &[u32] {
        &self.cols[self.offsets[i]..self.offsets[i + 1]]
    }
}

/// One block's partial gradient, `Σ (p − 1[y = c]) · [x, 1]` over `rows`,
/// laid out like the weights. Scores are the dense chain
/// `z = w[d]; z += w[j] * x[j]` in column order with the zero tail cells
/// left out (module docs). `TAIL = false` reads whole rows through the
/// kernels and never touches the index; the fit picks it when the index
/// is empty. `ONES = true` requires [`TailIndex::ones`].
fn block_gradient<const TAIL: bool, const ONES: bool>(
    weights: &FeatureMatrix,
    x: &FeatureMatrix,
    tail: &TailIndex,
    labels: &[u32],
    rows: std::ops::Range<usize>,
) -> Vec<f64> {
    let (d, k) = (x.width(), weights.n_rows());
    // Without a tail the prefix is the whole row; an empty prefix
    // (all-categorical schemas) skips the kernel calls, whose fixed cost is
    // comparable to a whole short tail.
    let p = if TAIL { tail.prefix } else { d };
    let dense = !TAIL || p > 0;
    let mut part = vec![0.0; (d + 1) * k];
    let mut probs = vec![0.0; k];
    for i in rows {
        let xi = x.row(i);
        let nz = if TAIL { tail.row(i) } else { &[] };
        for (o, w) in probs.iter_mut().zip(weights.rows()) {
            let mut z = if dense { kernels::dot_from(w[d], &w[..p], &xi[..p]) } else { w[d] };
            for &j in nz {
                z += w[j as usize] * if ONES { 1.0 } else { xi[j as usize] };
            }
            *o = z;
        }
        kernels::softmax_in_place(&mut probs);
        let yi = labels[i];
        for (c, (&pc, g)) in probs.iter().zip(part.chunks_exact_mut(d + 1)).enumerate() {
            let err = pc - f64::from(c as u32 == yi);
            if dense {
                kernels::axpy(err, &xi[..p], &mut g[..p]);
            }
            for &j in nz {
                g[j as usize] += err * if ONES { 1.0 } else { xi[j as usize] };
            }
            g[d] += err;
        }
    }
    part
}

fn softmax_scores(weights: &FeatureMatrix, x: &[f64], out: &mut [f64]) {
    let d = x.len();
    for (o, w) in out.iter_mut().zip(weights.rows()) {
        // Fold the bias in as the accumulator's initial value — the same
        // chain the scalar loop used (`z = w[d]; z += wj * xj; ...`).
        *o = kernels::dot_from(w[d], &w[..d], x);
    }
    kernels::softmax_in_place(out);
}

impl Classifier for LogisticRegression {
    fn n_classes(&self) -> usize {
        self.n_classes
    }

    fn predict_proba_into(&self, row: &[Value], out: &mut Vec<f64>) {
        let mut scratch = Vec::with_capacity(self.encoder.width());
        self.scores_into(row, &mut scratch, out);
    }

    fn predict(&self, row: &[Value]) -> u32 {
        let mut scratch = Vec::with_capacity(self.encoder.width());
        let mut probs = Vec::with_capacity(self.n_classes);
        self.scores_into(row, &mut scratch, &mut probs);
        argmax(&probs)
    }

    /// Scratch-reusing subset scoring: one row buffer, one encode buffer,
    /// and one probability buffer per parallel chunk.
    fn predict_rows(&self, ds: &Dataset, rows: &[usize]) -> Vec<u32> {
        frote_par::par_chunks_map(rows, PREDICT_BLOCK, |_, chunk| {
            let mut row = Vec::with_capacity(ds.n_features());
            let mut scratch = Vec::with_capacity(self.encoder.width());
            let mut probs = Vec::with_capacity(self.n_classes);
            let mut out = Vec::with_capacity(chunk.len());
            for &i in chunk {
                ds.row_into(i, &mut row);
                self.scores_into(&row, &mut scratch, &mut probs);
                out.push(argmax(&probs));
            }
            out
        })
    }

    /// Encodes the dataset once and scores matrix row views in parallel —
    /// no per-row encode or `Dataset::row` allocation.
    fn predict_dataset(&self, ds: &Dataset) -> Vec<u32> {
        let x = self.encoder.encode_dataset(ds);
        frote_par::par_blocks_map(x.n_rows(), PREDICT_BLOCK, |_, rows| {
            let mut probs = vec![0.0; self.n_classes];
            let mut out = Vec::with_capacity(rows.len());
            for i in rows {
                softmax_scores(&self.weights, x.row(i), &mut probs);
                out.push(argmax(&probs));
            }
            out
        })
    }
}

/// Trainer wrapper implementing [`TrainAlgorithm`]. The paper's "LR".
#[derive(Debug, Clone, Default)]
pub struct LogisticRegressionTrainer {
    params: LogRegParams,
}

impl LogisticRegressionTrainer {
    /// Creates a trainer with explicit parameters.
    pub fn new(params: LogRegParams) -> Self {
        LogisticRegressionTrainer { params }
    }

    /// The parameters.
    pub fn params(&self) -> &LogRegParams {
        &self.params
    }
}

impl TrainAlgorithm for LogisticRegressionTrainer {
    fn train(&self, ds: &Dataset) -> Box<dyn Classifier> {
        Box::new(LogisticRegression::fit(ds, &self.params))
    }

    fn name(&self) -> &str {
        "LR"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::accuracy;
    use frote_data::synth::{DatasetKind, SynthConfig};
    use frote_data::{Schema, Value};
    use frote_par::test_support::with_threads;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn separable() -> Dataset {
        let schema = Schema::builder("y", vec!["neg".into(), "pos".into()])
            .numeric("x1")
            .numeric("x2")
            .build();
        let mut ds = Dataset::new(schema);
        for i in 0..100 {
            let t = i as f64 / 10.0;
            ds.push_row(&[Value::Num(t), Value::Num(t + 1.0)], 1).unwrap();
            ds.push_row(&[Value::Num(t), Value::Num(t - 1.0)], 0).unwrap();
        }
        ds
    }

    #[test]
    fn separates_linear_data() {
        let ds = separable();
        let model = LogisticRegressionTrainer::default().train(&ds);
        let acc = accuracy(&model.predict_dataset(&ds), ds.labels());
        assert!(acc > 0.98, "accuracy {acc}");
    }

    #[test]
    fn multiclass_on_planted_concept() {
        let ds =
            DatasetKind::Contraceptive.generate(&SynthConfig { n_rows: 800, ..Default::default() });
        let model = LogisticRegressionTrainer::default().train(&ds);
        let acc = accuracy(&model.predict_dataset(&ds), ds.labels());
        // Concept is partly non-linear; LR should still clearly beat chance (1/3).
        assert!(acc > 0.5, "accuracy {acc}");
    }

    #[test]
    fn probabilities_normalized_and_monotone() {
        let ds = separable();
        let model = LogisticRegression::fit(&ds, &LogRegParams::default());
        let p_pos = model.predict_proba(&[Value::Num(5.0), Value::Num(9.0)]);
        let p_neg = model.predict_proba(&[Value::Num(5.0), Value::Num(1.0)]);
        assert!((p_pos.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(p_pos[1] > p_neg[1]);
    }

    #[test]
    fn early_stopping_on_converged_problem() {
        // A constant-label dataset converges immediately: bias dominates.
        let schema = Schema::builder("y", vec!["a".into(), "b".into()]).numeric("x").build();
        let mut ds = Dataset::new(schema);
        for i in 0..20 {
            ds.push_row(&[Value::Num(i as f64)], 1).unwrap();
        }
        let model = LogisticRegression::fit(&ds, &LogRegParams::default());
        assert_eq!(model.predict(&[Value::Num(3.0)]), 1);
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_train_panics() {
        let schema = Schema::builder("y", vec!["a".into(), "b".into()]).numeric("x").build();
        LogisticRegression::fit(&Dataset::new(schema), &LogRegParams::default());
    }

    #[test]
    fn name_matches_paper() {
        assert_eq!(LogisticRegressionTrainer::default().name(), "LR");
    }

    /// The dense fit as it was before the sparse tail index, verbatim
    /// except that the since-deleted `kernels::grad_update` is spelled out
    /// as its body and softmax is the loop that calls `exp` on every
    /// score: the oracle the sparse fit must match bit for bit.
    fn dense_fit_oracle(
        encoder: Encoder,
        x: &FeatureMatrix,
        labels: &[u32],
        n_classes: usize,
        params: &LogRegParams,
    ) -> LogisticRegression {
        let n = x.n_rows();
        let d = encoder.width();
        let k = n_classes;
        let mut weights = FeatureMatrix::from_raw(d + 1, vec![0.0; (d + 1) * k]);
        let mut grads = FeatureMatrix::from_raw(d + 1, vec![0.0; (d + 1) * k]);
        for _ in 0..params.max_iter {
            let parts = frote_par::par_blocks_map(n, LR_BLOCK, |_, rows| {
                let mut part = vec![0.0; (d + 1) * k];
                let mut probs = vec![0.0; k];
                for i in rows {
                    let xi = x.row(i);
                    dense_softmax_scores(&weights, xi, &mut probs);
                    let yi = labels[i];
                    for (c, &p) in probs.iter().enumerate() {
                        let err = p - f64::from(c as u32 == yi);
                        let g = &mut part[c * (d + 1)..(c + 1) * (d + 1)];
                        let (coef, bias) = g.split_at_mut(xi.len());
                        kernels::axpy(err, xi, coef);
                        bias[0] += err;
                    }
                }
                vec![part]
            });
            grads.as_mut_slice().fill(0.0);
            for part in &parts {
                kernels::add_assign(grads.as_mut_slice(), part);
            }
            let inv_n = 1.0 / n as f64;
            let mut max_grad: f64 = 0.0;
            for c in 0..k {
                let (w, g) = (weights.row_mut(c), grads.row(c));
                for (j, (wj, &gj)) in w.iter_mut().zip(g).enumerate() {
                    let reg = if j < d { params.l2 * *wj } else { 0.0 };
                    let step = gj * inv_n + reg;
                    max_grad = max_grad.max(step.abs());
                    *wj -= params.learning_rate * step;
                }
            }
            if max_grad < params.tol {
                break;
            }
        }
        LogisticRegression { encoder, weights, n_classes: k }
    }

    fn dense_softmax_scores(weights: &FeatureMatrix, x: &[f64], out: &mut [f64]) {
        let d = x.len();
        for (o, w) in out.iter_mut().zip(weights.rows()) {
            *o = kernels::dot_from(w[d], &w[..d], x);
        }
        let max = out.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mut sum = 0.0;
        for o in out.iter_mut() {
            *o = (*o - max).exp();
            sum += *o;
        }
        for o in out.iter_mut() {
            *o /= sum;
        }
    }

    fn weight_bits(model: &LogisticRegression) -> Vec<u64> {
        model.weights.as_slice().iter().map(|w| w.to_bits()).collect()
    }

    /// A dataset with one column per `(shape, levels)` spec, in the given
    /// order: shape 0 is a spread of numbers, 1 a constant column (encodes
    /// to `+0.0`), 2 a "mirror" column `±0.0, h, -h, ...` whose mean is
    /// exactly `0.0` for most lengths (cells equal to the mean, and
    /// `-0.0 - 0.0` encodes to `-0.0`), and 3 a categorical with `levels`
    /// levels (1 is a single-level column; with more, some may go unseen).
    fn arb_dataset(cols: &[(u8, u32)], n: usize, n_classes: usize, seed: u64) -> Dataset {
        let classes = (0..n_classes).map(|c| format!("y{c}")).collect();
        let mut builder = Schema::builder("y", classes);
        for (f, &(shape, levels)) in cols.iter().enumerate() {
            builder = match shape {
                3 => builder
                    .categorical(format!("c{f}"), (0..levels).map(|l| l.to_string()).collect()),
                _ => builder.numeric(format!("x{f}")),
            };
        }
        let mut ds = Dataset::new(builder.build());
        let mut rng = StdRng::seed_from_u64(seed);
        let mirror: Vec<f64> = cols.iter().map(|_| rng.random_range(0.5..4.0)).collect();
        for i in 0..n {
            let row: Vec<Value> = cols
                .iter()
                .zip(&mirror)
                .map(|(&(shape, levels), &h)| match shape {
                    0 => Value::Num(rng.random_range(-5.0..5.0)),
                    1 => Value::Num(h),
                    2 => Value::Num(match i % 3 {
                        0 if rng.random_range(0..2) == 0 => -0.0,
                        0 => 0.0,
                        1 => h,
                        _ => -h,
                    }),
                    _ => Value::Cat(rng.random_range(0..levels)),
                })
                .collect();
            ds.push_row(&row, rng.random_range(0..n_classes as u32)).unwrap();
        }
        ds
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The sparse-tail fit reproduces every weight of the dense oracle,
        /// bit for bit, at FROTE_THREADS 1, 2 and 4: numeric columns before
        /// and after one-hot blocks, constant and mirror columns, single-
        /// level categoricals, and one to three gradient blocks.
        #[test]
        fn sparse_fit_matches_the_dense_oracle(
            cols in proptest::collection::vec((0u8..4, 1u32..5), 1..=5),
            n in 1usize..=3 * LR_BLOCK,
            n_classes in 2usize..=4,
            max_iter in 1usize..=6,
            seed in 0u64..1 << 32,
        ) {
            let ds = arb_dataset(&cols, n, n_classes, seed);
            let params = LogRegParams { max_iter, ..Default::default() };
            let encoder = Encoder::fit(&ds);
            let x = encoder.encode_dataset(&ds);
            let want = dense_fit_oracle(encoder.clone(), &x, ds.labels(), n_classes, &params);
            for t in [1usize, 2, 4] {
                let got = with_threads(t, || {
                    LogisticRegression::fit_encoded(encoder.clone(), &x, ds.labels(), n_classes, &params)
                });
                assert_eq!(
                    weight_bits(&got),
                    weight_bits(&want),
                    "FROTE_THREADS={t}, columns {cols:?}, {n} rows"
                );
            }
        }
    }

    #[test]
    fn nan_cell_predictions_match_the_dense_oracle() {
        // A NaN numeric cell (CSV parses "NaN") makes the column's mean, and
        // so every encoded cell of it, NaN: every score is NaN. The dense
        // loop multiplied that NaN error by the zero cells too, so the
        // weights of a one-hot level no row has went NaN there; the sparse
        // fit never touches them and leaves them at 0. Predictions agree.
        let schema = Schema::builder("y", vec!["a".into(), "b".into(), "c".into()])
            .categorical("k", vec!["p".into(), "q".into(), "unseen".into()])
            .numeric("x")
            .build();
        let mut ds = Dataset::new(schema);
        for i in 0..40u32 {
            let x = if i == 7 { f64::NAN } else { f64::from(i) * 0.5 };
            ds.push_row(&[Value::Cat(i % 2), Value::Num(x)], i % 3).unwrap();
        }
        let params = LogRegParams { max_iter: 20, ..Default::default() };
        let got = LogisticRegression::fit(&ds, &params);
        let encoder = Encoder::fit(&ds);
        let x = encoder.encode_dataset(&ds);
        let want = dense_fit_oracle(encoder, &x, ds.labels(), 3, &params);
        assert_eq!(got.predict_dataset(&ds), want.predict_dataset(&ds));
        for i in 0..ds.n_rows() {
            let (a, b) = (got.predict_proba(&ds.row(i)), want.predict_proba(&ds.row(i)));
            assert!(a.iter().chain(&b).all(|p| p.is_nan()), "row {i}: {a:?} vs {b:?}");
        }
        // The weights agree, as NaN or bit for bit, except the unseen level's.
        const UNSEEN: usize = 2;
        for c in 0..3 {
            for (j, (&g, &w)) in got.weights.row(c).iter().zip(want.weights.row(c)).enumerate() {
                if j == UNSEEN {
                    assert_eq!(g.to_bits(), 0.0f64.to_bits(), "class {c}");
                    assert!(w.is_nan(), "class {c}");
                } else {
                    let same = g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan());
                    assert!(same, "class {c} column {j}: {g} vs {w}");
                }
            }
        }
    }
}
