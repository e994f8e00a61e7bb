//! Property-based tests for the data and ML substrates: dataset/encoder
//! invariants, split partitions, distance metric axioms, SMOTE convexity,
//! metric identities, simplex optimality.

use frote_data::encode::Encoder;
use frote_data::split::{split_indices, stratified_split};
use frote_data::{Dataset, Schema, Value};
use frote_ml::distance::{MixedDistance, MixedMetric};
use frote_ml::metrics::{accuracy, macro_f1, ConfusionMatrix};
use frote_opt::{LinearProgram, LpOutcome};
use frote_smote::{Smote, SmoteParams};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn schema() -> Schema {
    Schema::builder("y", vec!["a".into(), "b".into()])
        .numeric("x0")
        .numeric("x1")
        .categorical("k", vec!["p".into(), "q".into(), "r".into()])
        .build()
}

prop_compose! {
    fn arb_dataset()(rows in proptest::collection::vec(
        (-10.0..10.0f64, -10.0..10.0f64, 0u32..3, 0u32..2), 8..50,
    )) -> Dataset {
        let mut ds = Dataset::new(schema());
        for (x0, x1, k, y) in rows {
            ds.push_row(&[Value::Num(x0), Value::Num(x1), Value::Cat(k)], y).unwrap();
        }
        ds
    }
}

proptest! {
    /// gather + row materialization agree cell-for-cell.
    #[test]
    fn gather_preserves_cells(ds in arb_dataset(), seed in 0u64..100) {
        let mut rng = StdRng::seed_from_u64(seed);
        let idx = ds.bootstrap_indices(ds.n_rows(), &mut rng);
        let g = ds.gather(&idx);
        for (pos, &i) in idx.iter().enumerate() {
            prop_assert_eq!(g.row(pos), ds.row(i));
            prop_assert_eq!(g.label(pos), ds.label(i));
        }
    }

    /// Encoded vectors have the advertised width, z-scored numerics, and
    /// exactly one hot index per categorical block.
    #[test]
    fn encoder_shape_invariants(ds in arb_dataset()) {
        let enc = Encoder::fit(&ds);
        prop_assert_eq!(enc.width(), 2 + 3);
        for i in 0..ds.n_rows() {
            let v = enc.encode(&ds.row(i));
            prop_assert_eq!(v.len(), enc.width());
            let hot: f64 = v[2..].iter().sum();
            prop_assert!((hot - 1.0).abs() < 1e-12);
            prop_assert!(v[2..].iter().all(|&x| x == 0.0 || x == 1.0));
        }
        // Column means of the standardized block are ~0.
        let encoded = enc.encode_dataset(&ds);
        for j in 0..2 {
            let mean: f64 =
                encoded.rows().map(|r| r[j]).sum::<f64>() / encoded.n_rows() as f64;
            prop_assert!(mean.abs() < 1e-9, "column {j} mean {mean}");
        }
    }

    /// The matrix batch encoder agrees cell-for-cell with per-row encoding,
    /// at 1 and 4 threads.
    #[test]
    fn encode_dataset_matches_per_row(ds in arb_dataset()) {
        let enc = Encoder::fit(&ds);
        for t in [1usize, 4] {
            let m = frote_par::test_support::with_threads(t, || enc.encode_dataset(&ds));
            prop_assert_eq!(m.n_rows(), ds.n_rows());
            prop_assert_eq!(m.width(), enc.width());
            for i in 0..ds.n_rows() {
                let per_row = enc.encode(&ds.row(i));
                prop_assert_eq!(m.row(i), per_row.as_slice(), "row {} at {} threads", i, t);
            }
        }
    }

    /// The quantized plane mirrors the encoded one: batch binning is
    /// thread-count-invariant and codes round-trip through `bin_value`.
    #[test]
    fn binned_matrix_batch_equivalence(
        ds in arb_dataset(),
        max_bins in 2usize..32,
    ) {
        let binner = frote_data::Binner::fit(&ds, max_bins);
        let full = binner.bin_dataset(&ds);
        prop_assert_eq!(full.n_rows(), ds.n_rows());
        for t in [1usize, 4] {
            let m = frote_par::test_support::with_threads(t, || binner.bin_dataset(&ds));
            prop_assert_eq!(&m, &full, "binning drifted at {} threads", t);
        }
        for i in 0..ds.n_rows() {
            for j in 0..ds.n_features() {
                prop_assert_eq!(
                    full.code(i, j),
                    binner.bin_value(j, ds.cell(i, j)) as usize,
                    "cell ({}, {})", i, j
                );
            }
        }
    }

    /// Splits partition the index set with the requested sizes.
    #[test]
    fn split_partition(n in 2usize..200, frac in 0.0..1.0f64, seed in 0u64..100) {
        let idx: Vec<usize> = (0..n).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let s = split_indices(&idx, frac, &mut rng);
        prop_assert_eq!(s.train.len(), (frac * n as f64).round() as usize);
        let mut merged = s.train.clone();
        merged.extend(&s.test);
        merged.sort_unstable();
        prop_assert_eq!(merged, idx);
    }

    /// Stratified splits preserve per-class totals.
    #[test]
    fn stratified_totals(ds in arb_dataset(), seed in 0u64..50) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (tr, te) = stratified_split(&ds, 0.7, &mut rng);
        let total = ds.class_counts();
        let merged: Vec<usize> = tr
            .class_counts()
            .iter()
            .zip(te.class_counts())
            .map(|(a, b)| a + b)
            .collect();
        prop_assert_eq!(merged, total);
    }

    /// Distance axioms: identity, symmetry, triangle inequality.
    #[test]
    fn distance_axioms(ds in arb_dataset(), metric_pick in proptest::bool::ANY) {
        let metric = if metric_pick { MixedMetric::SmoteNc } else { MixedMetric::Heom };
        let d = MixedDistance::fit(&ds, metric);
        let n = ds.n_rows().min(8);
        for i in 0..n {
            prop_assert_eq!(d.distance_between(&ds, i, i), 0.0);
            for j in 0..n {
                let dij = d.distance_between(&ds, i, j);
                prop_assert!((dij - d.distance_between(&ds, j, i)).abs() < 1e-12);
                for k in 0..n {
                    let dik = d.distance_between(&ds, i, k);
                    let dkj = d.distance_between(&ds, k, j);
                    prop_assert!(dij <= dik + dkj + 1e-9,
                        "triangle violated: d({i},{j})={dij} > {dik}+{dkj}");
                }
            }
        }
    }

    /// SMOTE points lie inside the axis-aligned bounding box of the minority
    /// class (convex combinations cannot escape it).
    #[test]
    fn smote_convexity(seed in 0u64..200, n_new in 1usize..30) {
        let schema = Schema::builder("y", vec!["maj".into(), "min".into()])
            .numeric("a")
            .numeric("b")
            .build();
        let mut ds = Dataset::new(schema);
        let mut rng = StdRng::seed_from_u64(seed);
        use rand::Rng;
        for _ in 0..20 {
            ds.push_row(&[
                Value::Num(rng.random_range(-5.0..5.0)),
                Value::Num(rng.random_range(-5.0..5.0)),
            ], 0).unwrap();
        }
        let (mut lo_a, mut hi_a) = (f64::INFINITY, f64::NEG_INFINITY);
        let (mut lo_b, mut hi_b) = (f64::INFINITY, f64::NEG_INFINITY);
        for _ in 0..10 {
            let a = rng.random_range(10.0..20.0);
            let b = rng.random_range(-20.0..-10.0);
            lo_a = lo_a.min(a); hi_a = hi_a.max(a);
            lo_b = lo_b.min(b); hi_b = hi_b.max(b);
            ds.push_row(&[Value::Num(a), Value::Num(b)], 1).unwrap();
        }
        let out = Smote::new(SmoteParams { k: 3 })
            .generate(&ds, 1, n_new, &mut rng)
            .unwrap();
        for i in 0..out.n_rows() {
            let a = out.value(i, 0).expect_num();
            let b = out.value(i, 1).expect_num();
            prop_assert!((lo_a..=hi_a).contains(&a));
            prop_assert!((lo_b..=hi_b).contains(&b));
        }
    }

    /// Metric identities: accuracy equals diagonal mass; macro-F1 of perfect
    /// predictions is 1; per-class F1 stays in [0, 1].
    #[test]
    fn metric_identities(labels in proptest::collection::vec(0u32..3, 1..80), shift in 0u32..3) {
        let preds: Vec<u32> = labels.iter().map(|&l| (l + shift) % 3).collect();
        let acc = accuracy(&preds, &labels);
        let m = ConfusionMatrix::new(&preds, &labels, 3);
        let diag: usize = (0..3).map(|c| m.true_positives(c)).sum();
        prop_assert!((acc - diag as f64 / labels.len() as f64).abs() < 1e-12);
        if shift == 0 {
            prop_assert_eq!(macro_f1(&preds, &labels, 3), 1.0);
        }
        for c in 0..3 {
            prop_assert!((0.0..=1.0).contains(&m.f1(c)));
        }
    }

    /// Simplex optimal solutions are feasible and at least as good as any
    /// sampled feasible point (local optimality probe).
    #[test]
    fn simplex_dominates_random_feasible_points(
        c0 in -3.0..3.0f64, c1 in -3.0..3.0f64,
        b0 in 1.0..10.0f64, b1 in 1.0..10.0f64,
        probes in proptest::collection::vec((0.0..1.0f64, 0.0..1.0f64), 10),
    ) {
        // max c.x s.t. x0 + x1 <= b0, 2x0 + x1 <= b1, x in R+^2.
        let lp = LinearProgram::new(vec![c0, c1])
            .constraint(vec![1.0, 1.0], b0)
            .constraint(vec![2.0, 1.0], b1);
        match lp.solve() {
            LpOutcome::Optimal { x, value } => {
                prop_assert!(x[0] + x[1] <= b0 + 1e-7);
                prop_assert!(2.0 * x[0] + x[1] <= b1 + 1e-7);
                prop_assert!(x[0] >= -1e-9 && x[1] >= -1e-9);
                for (u, v) in probes {
                    // Scale the probe into the feasible region.
                    let p0 = u * b0.min(b1 / 2.0);
                    let p1 = v * (b0 - p0).min(b1 - 2.0 * p0).max(0.0);
                    let probe_val = c0 * p0 + c1 * p1;
                    prop_assert!(value >= probe_val - 1e-6,
                        "probe ({p0},{p1}) value {probe_val} beats optimum {value}");
                }
            }
            other => prop_assert!(false, "bounded LP reported {other:?}"),
        }
    }
}
