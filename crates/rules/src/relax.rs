//! Rule relaxation: the paper's Algorithm 2 (`PreSelectBP`) inner loop.
//!
//! FROTE's generator needs at least `k + 1` covered instances per rule. When
//! a rule has less coverage, its clause is relaxed to a *maximal partial
//! rule*: the version with the fewest condition deletions that attains the
//! largest support. The search is a level-by-level greedy BFS — at each level
//! the condition whose removal yields maximum coverage is deleted — exactly
//! as in Algorithm 2 (lines 7–22); removing the last condition yields the
//! empty clause covering all of `D`.

use frote_data::Dataset;

use crate::clause::Clause;

/// Result of relaxing one rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Relaxed {
    /// The (possibly) relaxed clause.
    pub clause: Clause,
    /// Its coverage count over the dataset used for relaxation.
    pub support: usize,
    /// Number of conditions deleted (0 means the rule was already wide
    /// enough).
    pub deleted: usize,
}

impl Relaxed {
    /// Whether any condition was deleted.
    pub fn was_relaxed(&self) -> bool {
        self.deleted > 0
    }
}

/// Relaxes `clause` until it covers at least `min_support` rows of `ds`,
/// deleting greedily max-coverage conditions one level at a time.
///
/// Returns the relaxed clause along with its support and the number of
/// deletions. If the original clause already has enough support it is
/// returned unchanged. If even the empty clause cannot reach `min_support`
/// (i.e. `ds.n_rows() < min_support`), the empty clause is returned with
/// support `ds.n_rows()` — callers decide how to handle datasets that are
/// too small (FROTE's PreSelectBP skips such rules).
pub fn relax_clause(clause: &Clause, ds: &Dataset, min_support: usize) -> Relaxed {
    let mut current = clause.clone();
    let mut support = current.coverage_count(ds);
    let mut deleted = 0;
    while support < min_support && !current.is_empty() {
        // Algorithm 2, lines 8-20: try removing each remaining condition,
        // keep the removal with maximum support.
        let mut best: Option<(usize, usize)> = None; // (condition index, support)
        for idx in 0..current.len() {
            let candidate = current.without(idx);
            let s = if candidate.is_empty() { ds.n_rows() } else { candidate.coverage_count(ds) };
            if best.is_none_or(|(_, bs)| s > bs) {
                best = Some((idx, s));
            }
        }
        let (idx, s) = best.expect("non-empty clause has at least one condition");
        current = current.without(idx);
        support = s;
        deleted += 1;
    }
    Relaxed { clause: current, support, deleted }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::LabelDist;
    use crate::predicate::{Op, Predicate};
    use crate::rule::FeedbackRule;
    use frote_data::{Dataset, Schema, Value};

    fn schema() -> Schema {
        Schema::builder("y", vec!["a".into(), "b".into()])
            .numeric("x")
            .categorical("k", vec!["p".into(), "q".into()])
            .build()
    }

    /// 10 rows: x = 0..9, k = q only for x >= 8.
    fn ds() -> Dataset {
        let mut d = Dataset::new(schema());
        for i in 0..10 {
            let k = u32::from(i >= 8);
            d.push_row(&[Value::Num(i as f64), Value::Cat(k)], 0).unwrap();
        }
        d
    }

    fn rule(preds: Vec<Predicate>) -> FeedbackRule {
        FeedbackRule::new(Clause::new(preds), LabelDist::Deterministic(1))
    }

    #[test]
    fn no_relaxation_when_support_suffices() {
        let r = rule(vec![Predicate::new(0, Op::Lt, Value::Num(6.0))]);
        let out = relax_clause(r.clause(), &ds(), 5);
        assert!(!out.was_relaxed());
        assert_eq!(out.support, 6);
        assert_eq!(&out.clause, r.clause());
    }

    #[test]
    fn drops_the_most_restrictive_condition_first() {
        // "x < 2 AND k = q" covers 0 rows; dropping "k = q" covers 2 rows,
        // dropping "x < 2" covers 2 rows; tie — greedy picks the first-best.
        // With min_support 2 one deletion suffices either way.
        let r = rule(vec![
            Predicate::new(0, Op::Lt, Value::Num(2.0)),
            Predicate::new(1, Op::Eq, Value::Cat(1)),
        ]);
        let out = relax_clause(r.clause(), &ds(), 2);
        assert_eq!(out.deleted, 1);
        assert_eq!(out.support, 2);
        assert_eq!(out.clause.len(), 1);
    }

    #[test]
    fn greedy_prefers_max_coverage_removal() {
        // "x >= 9 AND k = p" covers 0 rows (x=9 has k=q).
        // Dropping "x >= 9" leaves "k = p" covering 8 rows;
        // dropping "k = p" leaves "x >= 9" covering 1 row.
        let r = rule(vec![
            Predicate::new(0, Op::Ge, Value::Num(9.0)),
            Predicate::new(1, Op::Eq, Value::Cat(0)),
        ]);
        let out = relax_clause(r.clause(), &ds(), 6);
        assert_eq!(out.deleted, 1);
        assert_eq!(out.support, 8);
        assert_eq!(out.clause.predicates()[0], Predicate::new(1, Op::Eq, Value::Cat(0)));
    }

    #[test]
    fn full_relaxation_reaches_empty_clause() {
        let r = rule(vec![Predicate::new(0, Op::Ge, Value::Num(100.0))]);
        let out = relax_clause(r.clause(), &ds(), 10);
        assert!(out.clause.is_empty());
        assert_eq!(out.support, 10);
        assert_eq!(out.deleted, 1);
    }

    #[test]
    fn impossible_support_returns_empty_clause_with_all_rows() {
        let r = rule(vec![Predicate::new(0, Op::Ge, Value::Num(100.0))]);
        let out = relax_clause(r.clause(), &ds(), 500);
        assert!(out.clause.is_empty());
        assert_eq!(out.support, 10);
    }

    #[test]
    fn relaxation_only_deletes_conditions() {
        let r = rule(vec![
            Predicate::new(0, Op::Ge, Value::Num(9.0)),
            Predicate::new(1, Op::Eq, Value::Cat(0)),
        ]);
        let out = relax_clause(r.clause(), &ds(), 6);
        assert!(out.clause.subset_of(r.clause()));
    }

    #[test]
    fn relaxation_never_decreases_support_below_original() {
        let r = rule(vec![
            Predicate::new(0, Op::Lt, Value::Num(3.0)),
            Predicate::new(1, Op::Eq, Value::Cat(1)),
        ]);
        let original_support = r.coverage_count(&ds());
        let out = relax_clause(r.clause(), &ds(), 4);
        assert!(out.support >= original_support);
    }
}
