//! Feedback rules `R = (s, π)`.

use std::fmt;

use frote_data::{Dataset, Schema, Value};

use crate::clause::Clause;
use crate::dist::LabelDist;
use crate::error::RuleError;

/// A feedback rule: IF the clause holds THEN the label follows the
/// distribution (paper §3.1).
#[derive(Debug, Clone, PartialEq)]
pub struct FeedbackRule {
    clause: Clause,
    dist: LabelDist,
}

impl FeedbackRule {
    /// Creates a rule from a clause and a label distribution.
    pub fn new(clause: Clause, dist: LabelDist) -> Self {
        FeedbackRule { clause, dist }
    }

    /// Convenience constructor for the common deterministic case.
    pub fn deterministic(clause: Clause, class: u32) -> Self {
        FeedbackRule { clause, dist: LabelDist::Deterministic(class) }
    }

    /// The rule's clause `s`.
    pub fn clause(&self) -> &Clause {
        &self.clause
    }

    /// The rule's label distribution `π`.
    pub fn dist(&self) -> &LabelDist {
        &self.dist
    }

    /// Replaces the clause, keeping the distribution (used by relaxation).
    pub fn with_clause(&self, clause: Clause) -> FeedbackRule {
        FeedbackRule { clause, dist: self.dist.clone() }
    }

    /// Whether the rule covers `row`.
    pub fn covers(&self, row: &[Value]) -> bool {
        self.clause.satisfied_by(row)
    }

    /// Row indices of `ds` covered by the rule (paper Eq. 1).
    pub fn coverage(&self, ds: &Dataset) -> Vec<usize> {
        self.clause.coverage(ds)
    }

    /// Number of covered rows.
    pub fn coverage_count(&self, ds: &Dataset) -> usize {
        self.clause.coverage_count(ds)
    }

    /// Whether a label agrees with the rule: for deterministic rules the
    /// label must equal the class; for probabilistic rules any class with
    /// positive probability agrees.
    pub fn label_agrees(&self, label: u32) -> bool {
        self.dist.prob(label) > 0.0
    }

    /// Validates the clause and distribution against `schema`.
    ///
    /// # Errors
    ///
    /// Returns the first [`RuleError`] found.
    pub fn validate(&self, schema: &Schema) -> Result<(), RuleError> {
        self.clause.validate(schema)?;
        self.dist.validate(schema.n_classes())
    }

    /// Renders with feature/category/class names. Deterministic rules print
    /// in the parser's grammar, `<clause> => <class>`, so
    /// [`crate::parse::parse_rule`] reads them back; probabilistic rules
    /// have no parser syntax and print their distribution as
    /// `<clause> => <label> ~ [<class>: <p>, ...]`.
    pub fn display_with<'a>(&'a self, schema: &'a Schema) -> impl fmt::Display + 'a {
        struct D<'a>(&'a FeedbackRule, &'a Schema);
        impl fmt::Display for D<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{} => ", self.0.clause.display_with(self.1))?;
                match &self.0.dist {
                    LabelDist::Deterministic(c) => f.write_str(self.1.class_name(*c)),
                    LabelDist::Probabilistic(p) => {
                        write!(f, "{} ~ [", self.1.label_name())?;
                        for (i, q) in p.iter().enumerate() {
                            if i > 0 {
                                f.write_str(", ")?;
                            }
                            write!(f, "{}: {q:.2}", self.1.class_name(i as u32))?;
                        }
                        f.write_str("]")
                    }
                }
            }
        }
        D(self, schema)
    }
}

impl fmt::Display for FeedbackRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "IF {} THEN {:?}", self.clause, self.dist)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::{Op, Predicate};
    use frote_data::Schema;

    fn schema() -> Schema {
        Schema::builder("approved", vec!["no".into(), "yes".into()])
            .numeric("age")
            .categorical("job", vec!["eng".into(), "law".into()])
            .build()
    }

    fn rule() -> FeedbackRule {
        FeedbackRule::deterministic(
            Clause::new(vec![Predicate::new(0, Op::Lt, Value::Num(29.0))]),
            1,
        )
    }

    #[test]
    fn covers_and_coverage() {
        let mut ds = Dataset::new(schema());
        ds.push_row(&[Value::Num(20.0), Value::Cat(0)], 0).unwrap();
        ds.push_row(&[Value::Num(40.0), Value::Cat(0)], 1).unwrap();
        let r = rule();
        assert!(r.covers(&ds.row(0)));
        assert!(!r.covers(&ds.row(1)));
        assert_eq!(r.coverage(&ds), vec![0]);
        assert_eq!(r.coverage_count(&ds), 1);
    }

    #[test]
    fn label_agreement() {
        let r = rule();
        assert!(r.label_agrees(1));
        assert!(!r.label_agrees(0));
        let p = FeedbackRule::new(
            Clause::always_true(),
            LabelDist::probabilistic(vec![0.3, 0.7]).unwrap(),
        );
        assert!(p.label_agrees(0) && p.label_agrees(1));
    }

    #[test]
    fn validate_checks_clause_and_dist() {
        let s = schema();
        assert!(rule().validate(&s).is_ok());
        let bad_class = FeedbackRule::deterministic(Clause::always_true(), 5);
        assert!(bad_class.validate(&s).is_err());
        let bad_clause = FeedbackRule::deterministic(
            Clause::new(vec![Predicate::new(0, Op::Ne, Value::Num(1.0))]),
            0,
        );
        assert!(bad_clause.validate(&s).is_err());
    }

    #[test]
    fn with_clause_keeps_dist() {
        let r = rule().with_clause(Clause::always_true());
        assert_eq!(r.dist(), &LabelDist::Deterministic(1));
        assert!(r.clause().is_empty());
    }

    #[test]
    fn display_with_names() {
        let s = schema();
        assert_eq!(rule().display_with(&s).to_string(), "age < 29 => yes");
        let p = FeedbackRule::new(
            Clause::always_true(),
            LabelDist::probabilistic(vec![0.25, 0.75]).unwrap(),
        );
        assert_eq!(p.display_with(&s).to_string(), "TRUE => approved ~ [no: 0.25, yes: 0.75]");
    }
}
