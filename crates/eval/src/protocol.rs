//! Train/test splitting protocols (§5.1 "FRS selection and train-test
//! splitting").

use frote_data::split::split_indices;
use frote_data::Dataset;
use frote_rules::FeedbackRuleSet;
use rand::rngs::StdRng;

/// The main protocol: the outside-coverage population splits 80/20 into
/// train/test; a `tcf` fraction of the coverage population joins the
/// training side and the remainder the test side. `tcf = 0` models a brand
/// new rule with no support in training data.
pub fn tcf_split(
    ds: &Dataset,
    frs: &FeedbackRuleSet,
    tcf: f64,
    rng: &mut StdRng,
) -> (Dataset, Dataset) {
    split_with_fractions(ds, frs, tcf, 0.8, rng)
}

/// The Overlay-comparison protocol: both populations split 50/50.
pub fn overlay_split(ds: &Dataset, frs: &FeedbackRuleSet, rng: &mut StdRng) -> (Dataset, Dataset) {
    split_with_fractions(ds, frs, 0.5, 0.5, rng)
}

fn split_with_fractions(
    ds: &Dataset,
    frs: &FeedbackRuleSet,
    coverage_train_fraction: f64,
    outside_train_fraction: f64,
    rng: &mut StdRng,
) -> (Dataset, Dataset) {
    let masks = frs.scan(ds);
    let coverage = masks.coverage();
    let outside = masks.outside_coverage();
    let outside_split = split_indices(&outside, outside_train_fraction, rng);
    let coverage_split = split_indices(&coverage, coverage_train_fraction, rng);
    let mut train = outside_split.train;
    train.extend(coverage_split.train);
    let mut test = outside_split.test;
    test.extend(coverage_split.test);
    (ds.gather(&train), ds.gather(&test))
}

#[cfg(test)]
mod tests {
    use super::*;
    use frote_data::{Schema, Value};
    use frote_rules::{Clause, FeedbackRule, LabelDist, Op, Predicate};
    use rand::SeedableRng;

    fn ds() -> Dataset {
        let schema = Schema::builder("y", vec!["a".into(), "b".into()]).numeric("x").build();
        let mut d = Dataset::new(schema);
        for i in 0..100 {
            d.push_row(&[Value::Num(i as f64)], u32::from(i >= 50)).unwrap();
        }
        d
    }

    fn frs() -> FeedbackRuleSet {
        // Coverage: x < 20 (20 rows).
        FeedbackRuleSet::new(vec![FeedbackRule::new(
            Clause::new(vec![Predicate::new(0, Op::Lt, Value::Num(20.0))]),
            LabelDist::Deterministic(1),
        )])
    }

    #[test]
    fn tcf_zero_puts_no_coverage_in_train() {
        let d = ds();
        let f = frs();
        let mut rng = StdRng::seed_from_u64(1);
        let (train, test) = tcf_split(&d, &f, 0.0, &mut rng);
        assert_eq!(f.coverage(&train).len(), 0);
        assert_eq!(f.coverage(&test).len(), 20);
        // Outside coverage split 80/20.
        assert_eq!(train.n_rows(), 64);
        assert_eq!(test.n_rows(), 16 + 20);
    }

    #[test]
    fn tcf_fraction_lands_in_train() {
        let d = ds();
        let f = frs();
        let mut rng = StdRng::seed_from_u64(2);
        let (train, test) = tcf_split(&d, &f, 0.4, &mut rng);
        assert_eq!(f.coverage(&train).len(), 8); // 0.4 * 20
        assert_eq!(f.coverage(&test).len(), 12);
        assert_eq!(train.n_rows() + test.n_rows(), 100);
    }

    #[test]
    fn overlay_split_is_half_half() {
        let d = ds();
        let f = frs();
        let mut rng = StdRng::seed_from_u64(3);
        let (train, test) = overlay_split(&d, &f, &mut rng);
        assert_eq!(f.coverage(&train).len(), 10);
        assert_eq!(f.coverage(&test).len(), 10);
        assert_eq!(train.n_rows(), 50);
        assert_eq!(test.n_rows(), 50);
    }

    #[test]
    fn split_partitions_rows() {
        let d = ds();
        let f = frs();
        let mut rng = StdRng::seed_from_u64(4);
        let (train, test) = tcf_split(&d, &f, 0.2, &mut rng);
        assert_eq!(train.n_rows() + test.n_rows(), d.n_rows());
    }
}
