//! Clauses: conjunctions of predicates, with coverage and satisfiability.

use std::fmt;

use frote_data::{Dataset, FeatureKind, Schema, Value};

use crate::engine::CompiledClause;
use crate::error::RuleError;
use crate::predicate::{Op, Predicate};

/// A conjunction of predicates. The empty clause is always true (it covers
/// the entire domain), matching the paper's Algorithm 2 where deleting every
/// condition yields coverage `|D|`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Clause {
    predicates: Vec<Predicate>,
}

impl Clause {
    /// Creates a clause from predicates.
    pub fn new(predicates: Vec<Predicate>) -> Self {
        Clause { predicates }
    }

    /// The always-true clause.
    pub fn always_true() -> Self {
        Clause { predicates: Vec::new() }
    }

    /// The predicates of the conjunction.
    pub fn predicates(&self) -> &[Predicate] {
        &self.predicates
    }

    /// Number of predicates.
    pub fn len(&self) -> usize {
        self.predicates.len()
    }

    /// Whether the clause has no predicates (always true).
    pub fn is_empty(&self) -> bool {
        self.predicates.is_empty()
    }

    /// Whether `row` satisfies every predicate.
    ///
    /// # Panics
    ///
    /// Panics if a predicate's feature index exceeds the row arity or kinds
    /// mismatch; validate against the schema first for error handling.
    pub fn satisfied_by(&self, row: &[Value]) -> bool {
        self.predicates.iter().all(|p| p.eval_row(row))
    }

    /// Row indices of `ds` covered by this clause (paper Eq. 1), swept by
    /// the columnar engine ([`CompiledClause`]).
    ///
    /// # Panics
    ///
    /// Panics with the [`RuleError`] text if the clause fails validation
    /// against `ds`'s schema; use [`CompiledClause::compile`] for a
    /// `Result`.
    pub fn coverage(&self, ds: &Dataset) -> Vec<usize> {
        self.compiled(ds).coverage(ds)
    }

    /// Number of covered rows, by popcount without materializing indices
    /// (panics as [`Clause::coverage`]).
    pub fn coverage_count(&self, ds: &Dataset) -> usize {
        self.compiled(ds).coverage_count(ds)
    }

    fn compiled(&self, ds: &Dataset) -> CompiledClause {
        CompiledClause::compile(self, ds.schema())
            .unwrap_or_else(|e| panic!("clause `{self}` does not compile: {e}"))
    }

    /// The conjunction of `self` and `other`.
    pub fn and(&self, other: &Clause) -> Clause {
        let mut predicates = self.predicates.clone();
        predicates.extend_from_slice(&other.predicates);
        Clause { predicates }
    }

    /// A copy with the predicate at `index` removed (Algorithm 2's condition
    /// deletion).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn without(&self, index: usize) -> Clause {
        let mut predicates = self.predicates.clone();
        predicates.remove(index);
        Clause { predicates }
    }

    /// Whether every predicate of `self` also appears in `other` (used to
    /// check that relaxation only deletes conditions).
    pub fn subset_of(&self, other: &Clause) -> bool {
        self.predicates.iter().all(|p| other.predicates.contains(p))
    }

    /// Validates every predicate against `schema`.
    ///
    /// # Errors
    ///
    /// Returns the first [`RuleError`] found.
    pub fn validate(&self, schema: &Schema) -> Result<(), RuleError> {
        self.predicates.iter().try_for_each(|p| p.validate(schema))
    }

    /// Analytic satisfiability over the domain described by `schema`:
    /// whether *some* assignment of feature values satisfies the clause.
    ///
    /// Used for conflict detection (paper §3.1): two rules conflict when the
    /// conjunction of their clauses is satisfiable and their label
    /// distributions differ. Numeric features check interval consistency;
    /// categorical features check that required equalities do not contradict
    /// each other or the exclusions, and that exclusions leave at least one
    /// category.
    pub fn satisfiable(&self, schema: &Schema) -> bool {
        for j in 0..schema.n_features() {
            let preds: Vec<&Predicate> =
                self.predicates.iter().filter(|p| p.feature() == j).collect();
            if preds.is_empty() {
                continue;
            }
            match schema.feature(j).kind() {
                FeatureKind::Numeric => {
                    if !numeric_feasible(&preds) {
                        return false;
                    }
                }
                FeatureKind::Categorical { categories } => {
                    if !categorical_feasible(&preds, categories.len()) {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Renders with feature/category names.
    pub fn display_with<'a>(&'a self, schema: &'a Schema) -> impl fmt::Display + 'a {
        struct D<'a>(&'a Clause, &'a Schema);
        impl fmt::Display for D<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                if self.0.predicates.is_empty() {
                    return f.write_str("TRUE");
                }
                for (i, p) in self.0.predicates.iter().enumerate() {
                    if i > 0 {
                        f.write_str(" AND ")?;
                    }
                    write!(f, "{}", p.display_with(self.1))?;
                }
                Ok(())
            }
        }
        D(self, schema)
    }
}

impl fmt::Display for Clause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.predicates.is_empty() {
            return f.write_str("TRUE");
        }
        for (i, p) in self.predicates.iter().enumerate() {
            if i > 0 {
                f.write_str(" AND ")?;
            }
            write!(f, "{p}")?;
        }
        Ok(())
    }
}

impl FromIterator<Predicate> for Clause {
    fn from_iter<T: IntoIterator<Item = Predicate>>(iter: T) -> Self {
        Clause { predicates: iter.into_iter().collect() }
    }
}

/// Interval feasibility for numeric predicates on one feature.
fn numeric_feasible(preds: &[&Predicate]) -> bool {
    // Track (lo, lo_strict), (hi, hi_strict) and required equalities.
    let mut lo = f64::NEG_INFINITY;
    let mut lo_strict = false;
    let mut hi = f64::INFINITY;
    let mut hi_strict = false;
    let mut eq: Option<f64> = None;
    for p in preds {
        let v = p.value().expect_num();
        match p.op() {
            Op::Eq => match eq {
                Some(e) if e != v => return false,
                _ => eq = Some(v),
            },
            Op::Gt => {
                if v > lo || (v == lo && !lo_strict) {
                    lo = v;
                    lo_strict = true;
                }
            }
            Op::Ge => {
                if v > lo {
                    lo = v;
                    lo_strict = false;
                }
            }
            Op::Lt => {
                if v < hi || (v == hi && !hi_strict) {
                    hi = v;
                    hi_strict = true;
                }
            }
            Op::Le => {
                if v < hi {
                    hi = v;
                    hi_strict = false;
                }
            }
            Op::Ne => unreachable!("Ne is not allowed on numeric features"),
        }
    }
    if let Some(e) = eq {
        let above = e > lo || (e == lo && !lo_strict);
        let below = e < hi || (e == hi && !hi_strict);
        return above && below;
    }
    lo < hi || (lo == hi && !lo_strict && !hi_strict)
}

/// Feasibility for categorical predicates on one feature.
fn categorical_feasible(preds: &[&Predicate], cardinality: usize) -> bool {
    let mut required: Option<u32> = None;
    let mut excluded: Vec<u32> = Vec::new();
    for p in preds {
        let c = p.value().expect_cat();
        match p.op() {
            Op::Eq => match required {
                Some(r) if r != c => return false,
                _ => required = Some(c),
            },
            Op::Ne => excluded.push(c),
            _ => unreachable!("only Eq/Ne are allowed on categorical features"),
        }
    }
    match required {
        Some(r) => !excluded.contains(&r),
        None => {
            excluded.sort_unstable();
            excluded.dedup();
            excluded.len() < cardinality
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use frote_data::Schema;

    fn schema() -> Schema {
        Schema::builder("y", vec!["a".into(), "b".into()])
            .numeric("age")
            .categorical("job", vec!["eng".into(), "law".into(), "med".into()])
            .build()
    }

    fn demo_dataset() -> Dataset {
        let mut ds = Dataset::new(schema());
        ds.push_row(&[Value::Num(24.0), Value::Cat(0)], 0).unwrap();
        ds.push_row(&[Value::Num(35.0), Value::Cat(1)], 1).unwrap();
        ds.push_row(&[Value::Num(28.0), Value::Cat(0)], 1).unwrap();
        ds
    }

    fn age_lt(t: f64) -> Predicate {
        Predicate::new(0, Op::Lt, Value::Num(t))
    }

    #[test]
    fn large_dataset_coverage_matches_row_filter() {
        // 6000 rows crosses the engine's parallel threshold, so with
        // FROTE_THREADS > 1 this runs the blocked parallel sweep; either
        // path must equal the brute filter, in row order.
        let mut ds = Dataset::new(schema());
        for i in 0..6000 {
            ds.push_row(&[Value::Num((i % 97) as f64), Value::Cat((i % 2) as u32)], 0).unwrap();
        }
        let c = Clause::new(vec![age_lt(13.0), Predicate::new(1, Op::Eq, Value::Cat(1))]);
        let brute: Vec<usize> = (0..ds.n_rows()).filter(|&i| c.satisfied_by(&ds.row(i))).collect();
        assert_eq!(c.coverage(&ds), brute);
        assert_eq!(c.coverage_count(&ds), brute.len());
        assert!(!brute.is_empty());
    }

    #[test]
    fn coverage_matches_manual_filter() {
        let ds = demo_dataset();
        let c = Clause::new(vec![age_lt(30.0), Predicate::new(1, Op::Eq, Value::Cat(0))]);
        assert_eq!(c.coverage(&ds), vec![0, 2]);
        assert_eq!(c.coverage_count(&ds), 2);
    }

    #[test]
    fn empty_clause_covers_everything() {
        let ds = demo_dataset();
        assert_eq!(Clause::always_true().coverage(&ds).len(), 3);
        assert!(Clause::always_true().satisfied_by(&ds.row(0)));
    }

    #[test]
    fn and_and_without() {
        let c = Clause::new(vec![age_lt(30.0)]);
        let d = Clause::new(vec![Predicate::new(1, Op::Ne, Value::Cat(2))]);
        let both = c.and(&d);
        assert_eq!(both.len(), 2);
        assert_eq!(both.without(1), c);
        assert!(c.subset_of(&both));
        assert!(!both.subset_of(&c));
    }

    #[test]
    fn numeric_satisfiability() {
        let s = schema();
        // age < 10 AND age > 20 -> unsat
        let c = Clause::new(vec![age_lt(10.0), Predicate::new(0, Op::Gt, Value::Num(20.0))]);
        assert!(!c.satisfiable(&s));
        // age < 20 AND age > 10 -> sat
        let c = Clause::new(vec![age_lt(20.0), Predicate::new(0, Op::Gt, Value::Num(10.0))]);
        assert!(c.satisfiable(&s));
        // age >= 10 AND age <= 10 -> sat (point)
        let c = Clause::new(vec![
            Predicate::new(0, Op::Ge, Value::Num(10.0)),
            Predicate::new(0, Op::Le, Value::Num(10.0)),
        ]);
        assert!(c.satisfiable(&s));
        // age > 10 AND age <= 10 -> unsat
        let c = Clause::new(vec![
            Predicate::new(0, Op::Gt, Value::Num(10.0)),
            Predicate::new(0, Op::Le, Value::Num(10.0)),
        ]);
        assert!(!c.satisfiable(&s));
        // age = 15 inside (10, 20) -> sat; = 25 outside -> unsat
        let mk = |e: f64| {
            Clause::new(vec![
                Predicate::new(0, Op::Eq, Value::Num(e)),
                Predicate::new(0, Op::Gt, Value::Num(10.0)),
                Predicate::new(0, Op::Lt, Value::Num(20.0)),
            ])
        };
        assert!(mk(15.0).satisfiable(&s));
        assert!(!mk(25.0).satisfiable(&s));
    }

    #[test]
    fn categorical_satisfiability() {
        let s = schema();
        // job = eng AND job = law -> unsat
        let c = Clause::new(vec![
            Predicate::new(1, Op::Eq, Value::Cat(0)),
            Predicate::new(1, Op::Eq, Value::Cat(1)),
        ]);
        assert!(!c.satisfiable(&s));
        // job = eng AND job != eng -> unsat
        let c = Clause::new(vec![
            Predicate::new(1, Op::Eq, Value::Cat(0)),
            Predicate::new(1, Op::Ne, Value::Cat(0)),
        ]);
        assert!(!c.satisfiable(&s));
        // job != eng AND job != law -> sat (med remains)
        let c = Clause::new(vec![
            Predicate::new(1, Op::Ne, Value::Cat(0)),
            Predicate::new(1, Op::Ne, Value::Cat(1)),
        ]);
        assert!(c.satisfiable(&s));
        // excluding all three categories -> unsat
        let c = Clause::new(vec![
            Predicate::new(1, Op::Ne, Value::Cat(0)),
            Predicate::new(1, Op::Ne, Value::Cat(1)),
            Predicate::new(1, Op::Ne, Value::Cat(2)),
        ]);
        assert!(!c.satisfiable(&s));
    }

    #[test]
    fn compile_returns_error_for_mismatched_parsed_rule() {
        // Regression: a rule parsed against one schema but evaluated
        // against a dataset with a different layout used to panic inside
        // `Predicate::eval` mid-scan. Compiling against the dataset's
        // schema surfaces a `RuleError` instead.
        let other = Schema::builder("y", vec!["a".into(), "b".into()])
            .categorical("age", vec!["young".into(), "old".into()])
            .numeric("job")
            .build();
        let clause = crate::parse::parse_clause("age < 30", &schema()).unwrap();
        assert!(matches!(
            CompiledClause::compile(&clause, &other),
            Err(RuleError::ValueKindMismatch { .. } | RuleError::OperatorNotAllowed { .. })
        ));
        // Against the valid schema the compiled scan covers ages 24 and 28.
        let good = demo_dataset();
        let compiled = CompiledClause::compile(&clause, good.schema()).unwrap();
        assert_eq!(compiled.coverage(&good), vec![0, 2]);
        assert_eq!(compiled.coverage_count(&good), 2);
    }

    #[test]
    #[should_panic(expected = "value kind does not match feature \"job\"")]
    fn coverage_panics_with_the_rule_error_of_a_clause_that_does_not_compile() {
        // Category code 9 is outside `job`'s three-word vocabulary: the scan
        // reports the compile error instead of silently covering nothing.
        let c = Clause::new(vec![Predicate::new(1, Op::Eq, Value::Cat(9))]);
        c.coverage(&demo_dataset());
    }

    #[test]
    #[should_panic(expected = "operator != is not allowed on feature \"age\"")]
    fn coverage_count_panics_with_the_rule_error_of_a_clause_that_does_not_compile() {
        let c = Clause::new(vec![Predicate::new(0, Op::Ne, Value::Num(30.0))]);
        c.coverage_count(&demo_dataset());
    }

    #[test]
    fn nan_cells_are_never_covered_by_any_numeric_operator() {
        // Pinned NaN semantics: IEEE comparisons against NaN are false, so
        // a NaN cell is outside every numeric predicate's coverage — in
        // the single-row check and the compiled engine alike.
        let mut ds = Dataset::new(schema());
        ds.push_row(&[Value::Num(f64::NAN), Value::Cat(0)], 0).unwrap();
        ds.push_row(&[Value::Num(24.0), Value::Cat(0)], 0).unwrap();
        for op in [Op::Eq, Op::Gt, Op::Ge, Op::Lt, Op::Le] {
            let c = Clause::new(vec![Predicate::new(0, op, Value::Num(24.0))]);
            assert!(!c.coverage(&ds).contains(&0), "{op:?} covered the NaN row");
            assert!(!c.satisfied_by(&ds.row(0)), "{op:?} single-row check");
        }
        // A NaN *threshold* likewise covers nothing.
        let c = Clause::new(vec![Predicate::new(0, Op::Ge, Value::Num(f64::NAN))]);
        assert!(c.coverage(&ds).is_empty());
        assert!(!c.satisfied_by(&ds.row(1)));
    }

    #[test]
    fn validate_propagates_predicate_errors() {
        let s = schema();
        let ok = Clause::new(vec![age_lt(10.0)]);
        assert!(ok.validate(&s).is_ok());
        let bad = Clause::new(vec![Predicate::new(0, Op::Ne, Value::Num(1.0))]);
        assert!(bad.validate(&s).is_err());
    }

    #[test]
    fn display() {
        let s = schema();
        let c = Clause::new(vec![age_lt(30.0), Predicate::new(1, Op::Eq, Value::Cat(2))]);
        assert_eq!(c.display_with(&s).to_string(), "age < 30 AND job = med");
        assert_eq!(Clause::always_true().to_string(), "TRUE");
    }

    #[test]
    fn from_iterator() {
        let c: Clause = vec![age_lt(1.0)].into_iter().collect();
        assert_eq!(c.len(), 1);
    }
}
