//! The paper's objective: MRA, outside-coverage F1, `Ĵ` and `J̄`.
//!
//! The true objective (paper Eq. 3) weights each rule's disagreement by its
//! coverage probability and adds the outside-coverage loss. Two estimators
//! are provided:
//!
//! - [`empirical_j`] — the `Ĵ` used *inside* the augmentation loop: a plain
//!   `0.5·MRA + 0.5·F1` combination evaluated on the current active dataset
//!   (§5.1: "we simply use a 0.5-0.5 weighting ... because the test set
//!   coverage probabilities are not known to FROTE"). Returned as the
//!   *complement* `J̄ = 1 − J`; FROTE minimizes the loss, reports the
//!   complement. It reads coverage from the loop's synced
//!   [`RuleMaskCache`] instead of re-scanning the rules.
//! - [`paper_j`] — the held-out-test metric of the figures/tables: MRA terms
//!   weighted by empirical rule-coverage probabilities, plus the F1 term
//!   weighted by the outside-coverage probability. [`paper_j_by`] is the
//!   same metric for any row predictor (the Overlay baseline is not a
//!   [`Classifier`]).

use frote_data::Dataset;
use frote_ml::{metrics, Classifier};
use frote_rules::{FeedbackRuleSet, RuleMaskCache};

/// Weights of the internal `Ĵ` combination.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObjectiveWeights {
    /// Weight on the model-rule-agreement term.
    pub mra: f64,
    /// Weight on the outside-coverage F1 term.
    pub f1: f64,
}

impl Default for ObjectiveWeights {
    fn default() -> Self {
        ObjectiveWeights { mra: 0.5, f1: 0.5 }
    }
}

/// The two components of an objective evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObjectiveValue {
    /// Model-rule agreement over the rules' (first-match) coverage; 1.0 when
    /// the coverage is empty.
    pub mra: f64,
    /// Macro-F1 over the outside-coverage population; 1.0 when empty.
    pub f1: f64,
    /// The combined complement `J̄` (higher is better).
    pub j: f64,
}

/// Model-rule agreement of `model` over the covered rows of `ds`, or `None`
/// when nothing is covered. The first-match attribution is read from
/// `masks`, a [`RuleMaskCache`] compiled from `frs` and synced to `ds`.
///
/// Uses first-match rule attribution (disjoint effective coverages, §3.2).
/// For a deterministic rule the agreement of a covered row is
/// `1{prediction == class}`; for a probabilistic rule it is the probability
/// `π(prediction)` — the expectation of the 0-1 agreement under `Y ~ π`.
///
/// # Panics
///
/// Panics if the cache's synced row count differs from `ds.n_rows()`.
pub fn mra_opt(
    model: &dyn Classifier,
    ds: &Dataset,
    frs: &FeedbackRuleSet,
    masks: &RuleMaskCache,
) -> Option<f64> {
    assert_eq!(masks.rows(), ds.n_rows(), "rule-mask cache is out of sync with the dataset");
    let mut total = 0usize;
    let mut agreement = 0.0;
    for (r, rows) in masks.attributed_coverage().iter().enumerate() {
        let rule = frs.rule(r);
        // Batch-predict the rule's coverage in one parallel pass.
        let preds = model.predict_rows(ds, rows);
        for pred in preds {
            agreement += rule.dist().prob(pred);
            total += 1;
        }
    }
    (total > 0).then(|| agreement / total as f64)
}

/// Macro-F1 of `model` over the rows of `ds` *outside* the rules' coverage,
/// against the dataset's own labels; 1.0 when empty. The outside rows are
/// read from `masks`, synced to `ds`.
///
/// # Panics
///
/// Panics if the cache's synced row count differs from `ds.n_rows()`.
pub fn outside_f1(model: &dyn Classifier, ds: &Dataset, masks: &RuleMaskCache) -> f64 {
    assert_eq!(masks.rows(), ds.n_rows(), "rule-mask cache is out of sync with the dataset");
    f1_over_rows(|d, rows| model.predict_rows(d, rows), ds, &masks.outside_coverage())
}

/// Macro-F1 of a row predictor over an explicit row list.
fn f1_over_rows(
    predict_rows: impl Fn(&Dataset, &[usize]) -> Vec<u32>,
    ds: &Dataset,
    rows: &[usize],
) -> f64 {
    let preds = predict_rows(ds, rows);
    let labels: Vec<u32> = rows.iter().map(|&i| ds.label(i)).collect();
    metrics::macro_f1(&preds, &labels, ds.n_classes())
}

/// The internal estimator `Ĵ` (complement form, higher is better) over
/// `masks`, a [`RuleMaskCache`] compiled from `frs` and synced to `ds`.
///
/// Empty coverage scores the MRA term **0**, not vacuously 1: the loop's
/// candidate datasets carry their synthetic instances inside coverage, and
/// the difficult `tcf = 0` case *starts* with empty coverage — a vacuous 1.0
/// would make the initial objective unbeatable and deadlock Algorithm 1,
/// whereas the paper reports its largest gains exactly there (Figure 2).
///
/// # Panics
///
/// Panics if the cache's synced row count differs from `ds.n_rows()`.
pub fn empirical_j(
    model: &dyn Classifier,
    ds: &Dataset,
    frs: &FeedbackRuleSet,
    weights: &ObjectiveWeights,
    masks: &RuleMaskCache,
) -> ObjectiveValue {
    let mra = mra_opt(model, ds, frs, masks).unwrap_or(0.0);
    let f1 = outside_f1(model, ds, masks);
    let wsum = weights.mra + weights.f1;
    let j = if wsum > 0.0 { (weights.mra * mra + weights.f1 * f1) / wsum } else { 0.0 };
    ObjectiveValue { mra, f1, j }
}

/// The paper's held-out-test metric `J̄` (§5.1 "Metrics"): rule-coverage
/// probabilities estimated on `ds` weight the MRA terms; the remaining mass
/// weights the outside-coverage F1. Empty coverage scores the MRA term
/// vacuously 1.0, and an empty `ds` scores 1.0 throughout.
pub fn paper_j(model: &dyn Classifier, ds: &Dataset, frs: &FeedbackRuleSet) -> ObjectiveValue {
    paper_j_by(ds, frs, |d, rows| model.predict_rows(d, rows))
}

/// [`paper_j`] for any row predictor: `predict_rows(ds, rows)` returns the
/// predicted class of each listed row, in order. The rules are scanned
/// once; attribution and outside coverage both read that one evaluation.
pub fn paper_j_by(
    ds: &Dataset,
    frs: &FeedbackRuleSet,
    predict_rows: impl Fn(&Dataset, &[usize]) -> Vec<u32>,
) -> ObjectiveValue {
    let n = ds.n_rows();
    if n == 0 {
        return ObjectiveValue { mra: 1.0, f1: 1.0, j: 1.0 };
    }
    let masks = frs.scan(ds);
    let mut j = 0.0;
    let mut covered_rows = 0usize;
    let mut agreement_total = 0.0;
    for (r, rows) in masks.attributed_coverage().iter().enumerate() {
        if rows.is_empty() {
            continue;
        }
        let rule = frs.rule(r);
        let mut agree = 0.0;
        for pred in predict_rows(ds, rows) {
            agree += rule.dist().prob(pred);
        }
        agreement_total += agree;
        covered_rows += rows.len();
        let rule_mra = agree / rows.len() as f64;
        let prob = rows.len() as f64 / n as f64;
        j += prob * rule_mra;
    }
    let f1 = f1_over_rows(&predict_rows, ds, &masks.outside_coverage());
    let outside_prob = (n - covered_rows) as f64 / n as f64;
    j += outside_prob * f1;
    let mra = if covered_rows == 0 { 1.0 } else { agreement_total / covered_rows as f64 };
    ObjectiveValue { mra, f1, j }
}

#[cfg(test)]
mod tests {
    use super::*;
    use frote_data::{Schema, Value};
    use frote_ml::Classifier;
    use frote_rules::{Clause, FeedbackRule, LabelDist, Op, Predicate};

    /// Model: class 1 iff x >= 5.
    struct Threshold;
    impl Classifier for Threshold {
        fn n_classes(&self) -> usize {
            2
        }
        fn predict_proba_into(&self, row: &[Value], out: &mut Vec<f64>) {
            out.clear();
            if row[0].expect_num() >= 5.0 {
                out.extend_from_slice(&[0.0, 1.0]);
            } else {
                out.extend_from_slice(&[1.0, 0.0]);
            }
        }
    }

    fn ds() -> Dataset {
        let schema = Schema::builder("y", vec!["a".into(), "b".into()]).numeric("x").build();
        let mut d = Dataset::new(schema);
        for i in 0..10 {
            d.push_row(&[Value::Num(i as f64)], u32::from(i >= 5)).unwrap();
        }
        d
    }

    fn rule(class: u32) -> FeedbackRuleSet {
        // covers x < 4 (rows 0..4)
        FeedbackRuleSet::new(vec![FeedbackRule::new(
            Clause::new(vec![Predicate::new(0, Op::Lt, Value::Num(4.0))]),
            LabelDist::Deterministic(class),
        )])
    }

    #[test]
    fn mra_counts_agreement_within_coverage() {
        let m = Threshold;
        let d = ds();
        // Rule says covered rows are class 0; model predicts 0 there -> MRA 1.
        let frs = rule(0);
        assert_eq!(mra_opt(&m, &d, &frs, &frs.scan(&d)), Some(1.0));
        // Rule says class 1; model disagrees on all 4 covered rows -> MRA 0.
        let frs = rule(1);
        assert_eq!(mra_opt(&m, &d, &frs, &frs.scan(&d)), Some(0.0));
    }

    #[test]
    fn mra_probabilistic_uses_expected_agreement() {
        let m = Threshold;
        let frs = FeedbackRuleSet::new(vec![FeedbackRule::new(
            Clause::new(vec![Predicate::new(0, Op::Lt, Value::Num(4.0))]),
            LabelDist::probabilistic(vec![0.7, 0.3]).unwrap(),
        )]);
        // Model predicts 0 on the coverage; expected agreement 0.7.
        let d = ds();
        assert!((mra_opt(&m, &d, &frs, &frs.scan(&d)).unwrap() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn empty_coverage_is_vacuous() {
        let m = Threshold;
        let frs = FeedbackRuleSet::new(vec![FeedbackRule::new(
            Clause::new(vec![Predicate::new(0, Op::Gt, Value::Num(100.0))]),
            LabelDist::Deterministic(1),
        )]);
        let d = ds();
        assert_eq!(mra_opt(&m, &d, &frs, &frs.scan(&d)), None);
        let v = paper_j(&m, &d, &frs);
        assert_eq!(v.mra, 1.0);
    }

    #[test]
    fn outside_f1_ignores_coverage() {
        let m = Threshold;
        // Model is perfect on the true labels; outside F1 should be 1.
        let d = ds();
        assert_eq!(outside_f1(&m, &d, &rule(1).scan(&d)), 1.0);
    }

    #[test]
    fn empirical_j_weighted_combination() {
        let m = Threshold;
        let (d, frs) = (ds(), rule(1));
        let v = empirical_j(&m, &d, &frs, &ObjectiveWeights::default(), &frs.scan(&d));
        assert_eq!(v.mra, 0.0);
        assert_eq!(v.f1, 1.0);
        assert!((v.j - 0.5).abs() < 1e-12);
    }

    #[test]
    fn paper_j_weights_by_coverage_probability() {
        let m = Threshold;
        // Coverage = 4/10 rows with MRA 0, outside = 6/10 with F1 1.
        let v = paper_j(&m, &ds(), &rule(1));
        assert!((v.j - 0.6).abs() < 1e-12, "j = {}", v.j);
        // And with an agreeing rule the metric is perfect.
        let v = paper_j(&m, &ds(), &rule(0));
        assert!((v.j - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_dataset_paper_j() {
        let m = Threshold;
        let schema = Schema::builder("y", vec!["a".into(), "b".into()]).numeric("x").build();
        let empty = Dataset::new(schema);
        let v = paper_j(&m, &empty, &rule(0));
        assert_eq!(v.j, 1.0);
    }

    #[test]
    fn paper_j_by_scores_an_empty_test_set_as_one() {
        // The Overlay baseline is scored through `paper_j_by`; an empty
        // test set reads 1.0 throughout, never 0/0.
        let schema = Schema::builder("y", vec!["a".into(), "b".into()]).numeric("x").build();
        let empty = Dataset::new(schema);
        let v = paper_j_by(&empty, &rule(0), |_, rows| vec![0; rows.len()]);
        assert_eq!(v, ObjectiveValue { mra: 1.0, f1: 1.0, j: 1.0 });
    }

    #[test]
    fn masked_objective_equals_rescanning() {
        // A cache synced the loop's way (a prefix, then the appended tail)
        // gives the same objective as a one-shot scan of the whole dataset.
        let m = Threshold;
        let d = ds();
        let prefix = d.gather(&(0..6).collect::<Vec<_>>());
        let w = ObjectiveWeights::default();
        for frs in [rule(0), rule(1)] {
            let mut masks = RuleMaskCache::compile(&frs, d.schema()).unwrap();
            masks.sync(&prefix);
            masks.sync(&d);
            let fresh = frs.scan(&d);
            assert_eq!(mra_opt(&m, &d, &frs, &masks), mra_opt(&m, &d, &frs, &fresh));
            assert_eq!(outside_f1(&m, &d, &masks), outside_f1(&m, &d, &fresh));
            assert_eq!(
                empirical_j(&m, &d, &frs, &w, &masks),
                empirical_j(&m, &d, &frs, &w, &fresh)
            );
        }
    }

    #[test]
    fn paper_j_by_scores_any_row_predictor() {
        let d = ds();
        for frs in [rule(0), rule(1)] {
            let by_model = paper_j_by(&d, &frs, |d, rows| Threshold.predict_rows(d, rows));
            assert_eq!(by_model, paper_j(&Threshold, &d, &frs));
        }
        // A constant-1 predictor agrees with rule(1) on all of its coverage.
        let ones = |_: &Dataset, rows: &[usize]| vec![1; rows.len()];
        assert_eq!(paper_j_by(&d, &rule(1), ones).mra, 1.0);
        assert_eq!(paper_j_by(&d, &rule(0), ones).mra, 0.0);
    }

    #[test]
    #[should_panic(expected = "out of sync")]
    fn masked_objective_rejects_stale_cache() {
        let m = Threshold;
        let d = ds();
        let frs = rule(0);
        let masks = RuleMaskCache::compile(&frs, d.schema()).unwrap(); // never synced
        empirical_j(&m, &d, &frs, &ObjectiveWeights::default(), &masks);
    }

    #[test]
    fn zero_weights_are_safe() {
        let m = Threshold;
        let (d, frs) = (ds(), rule(0));
        let v = empirical_j(&m, &d, &frs, &ObjectiveWeights { mra: 0.0, f1: 0.0 }, &frs.scan(&d));
        assert_eq!(v.j, 0.0);
    }
}
