//! Classic SMOTE and SMOTE-NC.

use frote_data::stats::CategoricalStats;
use frote_data::{Dataset, FeatureKind, Value};
use frote_ml::distance::{MixedDistance, MixedMetric};
use frote_ml::knn::{k_nearest_of_row, Neighbor};
use frote_par::SeedSplit;
use rand::seq::IndexedRandom;
use rand::Rng;

use crate::error::SmoteError;

/// Shared oversampling parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SmoteParams {
    /// Number of nearest neighbours (the paper and Chawla et al. use 5).
    pub k: usize,
}

impl Default for SmoteParams {
    fn default() -> Self {
        SmoteParams { k: 5 }
    }
}

/// Classic SMOTE over all-numeric datasets (Chawla et al. 2002).
///
/// Synthetic points are convex combinations of a random minority base
/// instance and one of its `k` same-class nearest neighbours
/// (the paper's Eq. 6: `f_v = x_i^f + (x_j^f - x_i^f) * w`, `w ~ U(0,1)`).
#[derive(Debug, Clone)]
pub struct Smote {
    params: SmoteParams,
}

impl Smote {
    /// Creates the oversampler.
    pub fn new(params: SmoteParams) -> Self {
        Smote { params }
    }

    /// Generates `n_new` synthetic rows of class `class`.
    ///
    /// # Errors
    ///
    /// - [`SmoteError::CategoricalFeatures`] if the dataset has nominal
    ///   columns,
    /// - [`SmoteError::UnknownClass`] for an out-of-range class,
    /// - [`SmoteError::NotEnoughInstances`] if the class has fewer than
    ///   `k + 1` rows.
    pub fn generate<R: Rng + ?Sized>(
        &self,
        ds: &Dataset,
        class: u32,
        n_new: usize,
        rng: &mut R,
    ) -> Result<Dataset, SmoteError> {
        if ds.schema().n_categorical() > 0 {
            return Err(SmoteError::CategoricalFeatures);
        }
        generate_impl(ds, class, n_new, self.params.k, rng)
    }
}

/// SMOTE-NC over mixed numeric/nominal datasets (Chawla et al. 2002 §6.1).
///
/// Numeric features interpolate as in classic SMOTE; nominal features take
/// the majority value among the `k` nearest neighbours; distances use the
/// SMOTE-NC median-std metric.
#[derive(Debug, Clone)]
pub struct SmoteNc {
    params: SmoteParams,
}

impl SmoteNc {
    /// Creates the oversampler.
    pub fn new(params: SmoteParams) -> Self {
        SmoteNc { params }
    }

    /// Generates `n_new` synthetic rows of class `class`.
    ///
    /// # Errors
    ///
    /// As [`Smote::generate`], except categorical features are supported.
    pub fn generate<R: Rng + ?Sized>(
        &self,
        ds: &Dataset,
        class: u32,
        n_new: usize,
        rng: &mut R,
    ) -> Result<Dataset, SmoteError> {
        generate_impl(ds, class, n_new, self.params.k, rng)
    }
}

fn generate_impl<R: Rng + ?Sized>(
    ds: &Dataset,
    class: u32,
    n_new: usize,
    k: usize,
    rng: &mut R,
) -> Result<Dataset, SmoteError> {
    if (class as usize) >= ds.n_classes() {
        return Err(SmoteError::UnknownClass { class });
    }
    let members = ds.indices_of_class(class);
    if members.len() < k + 1 {
        return Err(SmoteError::NotEnoughInstances { available: members.len(), required: k + 1 });
    }
    let dist = MixedDistance::fit(ds, MixedMetric::SmoteNc);
    // Each synthetic row owns an independent RNG stream derived from one
    // draw of the caller's generator, so rows synthesize in parallel and the
    // output is bit-identical at any `FROTE_THREADS` (including the serial
    // fallback at 1 thread).
    let split = SeedSplit::from_rng(rng);
    let row_ids: Vec<u64> = (0..n_new as u64).collect();
    let rows = frote_par::par_map(&row_ids, |&t| {
        let mut rng = split.stream(t);
        let &base = members.choose(&mut rng).expect("non-empty members");
        let neighbors = k_nearest_of_row(ds, base, &members, k, &dist);
        let &Neighbor { index: neighbor, .. } =
            neighbors.choose(&mut rng).expect("k >= 1 neighbours exist");
        interpolate_row(ds, base, neighbor, &neighbors, &mut rng)
    });
    let mut out = Dataset::with_shared_schema(ds.schema_handle());
    for row in rows {
        out.push_row(&row, class).expect("synthesized row matches schema");
    }
    Ok(out)
}

/// Builds one synthetic row between `base` and `neighbor`; nominal features
/// take the majority among `neighbors`.
pub(crate) fn interpolate_row<R: Rng + ?Sized>(
    ds: &Dataset,
    base: usize,
    neighbor: usize,
    neighbors: &[Neighbor],
    rng: &mut R,
) -> Vec<Value> {
    let mut row = Vec::with_capacity(ds.n_features());
    for j in 0..ds.n_features() {
        match ds.schema().feature(j).kind() {
            FeatureKind::Numeric => {
                let a = ds.value(base, j).expect_num();
                let b = ds.value(neighbor, j).expect_num();
                let w: f64 = rng.random::<f64>();
                row.push(Value::Num(a + (b - a) * w));
            }
            FeatureKind::Categorical { categories } => {
                let values: Vec<u32> =
                    neighbors.iter().map(|n| ds.value(n.index, j).expect_cat()).collect();
                let stats = CategoricalStats::of(&values, categories.len());
                row.push(Value::Cat(stats.mode().expect("non-empty vocabulary")));
            }
        }
    }
    row
}

#[cfg(test)]
mod tests {
    use super::*;
    use frote_data::{Schema, Value};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn numeric_ds() -> Dataset {
        let schema = Schema::builder("y", vec!["maj".into(), "min".into()])
            .numeric("x1")
            .numeric("x2")
            .build();
        let mut ds = Dataset::new(schema);
        for i in 0..40 {
            ds.push_row(&[Value::Num(i as f64), Value::Num(100.0 - i as f64)], 0).unwrap();
        }
        for i in 0..10 {
            ds.push_row(&[Value::Num(50.0 + i as f64), Value::Num(50.0 + i as f64)], 1).unwrap();
        }
        ds
    }

    #[test]
    fn synthetic_points_lie_in_minority_bounding_box() {
        let ds = numeric_ds();
        let mut rng = StdRng::seed_from_u64(42);
        let out = Smote::new(SmoteParams::default()).generate(&ds, 1, 100, &mut rng).unwrap();
        assert_eq!(out.n_rows(), 100);
        for i in 0..out.n_rows() {
            let x1 = out.value(i, 0).expect_num();
            let x2 = out.value(i, 1).expect_num();
            assert!((50.0..=59.0).contains(&x1), "x1 {x1}");
            assert!((50.0..=59.0).contains(&x2), "x2 {x2}");
            assert_eq!(out.label(i), 1);
        }
    }

    #[test]
    fn classic_rejects_categorical() {
        let schema = Schema::builder("y", vec!["a".into(), "b".into()])
            .categorical("k", vec!["p".into(), "q".into()])
            .build();
        let ds = Dataset::new(schema);
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(
            Smote::new(SmoteParams::default()).generate(&ds, 0, 5, &mut rng),
            Err(SmoteError::CategoricalFeatures)
        );
    }

    #[test]
    fn too_small_class_errors() {
        let ds = numeric_ds();
        let mut rng = StdRng::seed_from_u64(0);
        let smote = Smote::new(SmoteParams { k: 20 });
        assert_eq!(
            smote.generate(&ds, 1, 5, &mut rng),
            Err(SmoteError::NotEnoughInstances { available: 10, required: 21 })
        );
        assert_eq!(smote.generate(&ds, 7, 5, &mut rng), Err(SmoteError::UnknownClass { class: 7 }));
    }

    #[test]
    fn smotenc_handles_mixed_features() {
        let schema = Schema::builder("y", vec!["maj".into(), "min".into()])
            .numeric("x")
            .categorical("k", vec!["p".into(), "q".into(), "r".into()])
            .build();
        let mut ds = Dataset::new(schema);
        for i in 0..30 {
            ds.push_row(&[Value::Num(i as f64), Value::Cat(0)], 0).unwrap();
        }
        for i in 0..10 {
            // Minority cluster mostly category 2.
            let c = if i % 5 == 0 { 1 } else { 2 };
            ds.push_row(&[Value::Num(100.0 + i as f64), Value::Cat(c)], 1).unwrap();
        }
        let mut rng = StdRng::seed_from_u64(7);
        let out = SmoteNc::new(SmoteParams::default()).generate(&ds, 1, 50, &mut rng).unwrap();
        assert_eq!(out.n_rows(), 50);
        for i in 0..out.n_rows() {
            let x = out.value(i, 0).expect_num();
            assert!((100.0..=109.0).contains(&x));
            // Majority-of-neighbours should heavily favour category 2.
        }
        let twos = (0..out.n_rows()).filter(|&i| out.value(i, 1).expect_cat() == 2).count();
        assert!(twos > 25, "majority category underrepresented: {twos}");
    }

    #[test]
    fn determinism_per_seed() {
        let ds = numeric_ds();
        let s = Smote::new(SmoteParams::default());
        let a = s.generate(&ds, 1, 20, &mut StdRng::seed_from_u64(5)).unwrap();
        let b = s.generate(&ds, 1, 20, &mut StdRng::seed_from_u64(5)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn generation_is_thread_invariant() {
        // The kNN scans under the generator must not move a bit: synthetic
        // rows are identical at any thread count.
        let ds = numeric_ds();
        let s = Smote::new(SmoteParams::default());
        let baseline = s.generate(&ds, 1, 40, &mut StdRng::seed_from_u64(9)).unwrap();
        for threads in [1usize, 2, 4] {
            let out = frote_par::test_support::with_threads(threads, || {
                s.generate(&ds, 1, 40, &mut StdRng::seed_from_u64(9)).unwrap()
            });
            assert_eq!(out, baseline, "SMOTE drifted at threads={threads}");
        }
    }

    #[test]
    fn zero_new_rows_is_fine() {
        let ds = numeric_ds();
        let mut rng = StdRng::seed_from_u64(1);
        let out = Smote::new(SmoteParams::default()).generate(&ds, 1, 0, &mut rng).unwrap();
        assert!(out.is_empty());
    }
}
