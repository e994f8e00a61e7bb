//! Predicates: `(attribute, operator, value)` conditions.

use std::fmt;

use frote_data::{FeatureKind, Schema, Value};

use crate::error::RuleError;

/// Comparison operator of a predicate.
///
/// The paper allows `{=, !=}` on categorical attributes and
/// `{=, >, >=, <, <=}` on numeric attributes (§3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// Equal.
    Eq,
    /// Not equal (categorical only).
    Ne,
    /// Strictly greater (numeric only).
    Gt,
    /// Greater or equal (numeric only).
    Ge,
    /// Strictly less (numeric only).
    Lt,
    /// Less or equal (numeric only).
    Le,
}

impl Op {
    /// The operator produced by the §5.1 "reverse the operator" perturbation
    /// (`!=` <-> `=`, `<=` <-> `>=`, `<` <-> `>`).
    pub fn reversed(self) -> Op {
        match self {
            Op::Eq => Op::Ne,
            Op::Ne => Op::Eq,
            Op::Gt => Op::Lt,
            Op::Ge => Op::Le,
            Op::Lt => Op::Gt,
            Op::Le => Op::Ge,
        }
    }

    /// Whether the operator is allowed on the given feature kind.
    pub fn allowed_on(self, kind: &FeatureKind) -> bool {
        match kind {
            FeatureKind::Numeric => !matches!(self, Op::Ne),
            FeatureKind::Categorical { .. } => matches!(self, Op::Eq | Op::Ne),
        }
    }

    /// Symbol used by [`fmt::Display`] and the parser.
    pub fn symbol(self) -> &'static str {
        match self {
            Op::Eq => "=",
            Op::Ne => "!=",
            Op::Gt => ">",
            Op::Ge => ">=",
            Op::Lt => "<",
            Op::Le => "<=",
        }
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// One condition on one feature.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Predicate {
    feature: usize,
    op: Op,
    value: Value,
}

impl Predicate {
    /// Creates a predicate on feature index `feature`.
    pub fn new(feature: usize, op: Op, value: Value) -> Self {
        Predicate { feature, op, value }
    }

    /// Feature index the predicate constrains.
    pub fn feature(&self) -> usize {
        self.feature
    }

    /// The comparison operator.
    pub fn op(&self) -> Op {
        self.op
    }

    /// The comparison value.
    pub fn value(&self) -> Value {
        self.value
    }

    /// Evaluates the predicate against a cell value of the same feature.
    ///
    /// Numeric comparisons follow IEEE 754: any comparison involving a
    /// `NaN` cell (or a `NaN` predicate value) is `false`, so a `NaN` row
    /// is never covered by any numeric operator. This is pinned by tests
    /// and mirrored exactly by the columnar engine
    /// ([`crate::CompiledClause`]).
    ///
    /// # Panics
    ///
    /// Panics if the cell/predicate value kinds mismatch (e.g. numeric
    /// comparison against a categorical cell). Use [`Predicate::validate`]
    /// up-front to surface such errors as `Result`s — the pre-validated
    /// scans ([`crate::Clause::try_coverage`],
    /// [`crate::CompiledClause::compile`]) do this once per ruleset so
    /// parsed/expert-submitted rules cannot panic mid-scan.
    pub fn eval(&self, cell: Value) -> bool {
        match (self.op, cell, self.value) {
            (Op::Eq, Value::Num(a), Value::Num(b)) => a == b,
            (Op::Gt, Value::Num(a), Value::Num(b)) => a > b,
            (Op::Ge, Value::Num(a), Value::Num(b)) => a >= b,
            (Op::Lt, Value::Num(a), Value::Num(b)) => a < b,
            (Op::Le, Value::Num(a), Value::Num(b)) => a <= b,
            (Op::Eq, Value::Cat(a), Value::Cat(b)) => a == b,
            (Op::Ne, Value::Cat(a), Value::Cat(b)) => a != b,
            (op, cell, value) => {
                panic!("predicate {op:?} cannot compare cell {cell:?} with {value:?}")
            }
        }
    }

    /// Evaluates against a full row.
    ///
    /// # Panics
    ///
    /// Panics if `feature` is out of range for the row, or on kind mismatch.
    pub fn eval_row(&self, row: &[Value]) -> bool {
        self.eval(row[self.feature])
    }

    /// Checks the predicate is well-formed under `schema`: known feature,
    /// operator allowed on the feature kind, value of the right kind and (for
    /// categoricals) inside the vocabulary.
    ///
    /// # Errors
    ///
    /// Returns a [`RuleError`] describing the first problem found.
    pub fn validate(&self, schema: &Schema) -> Result<(), RuleError> {
        if self.feature >= schema.n_features() {
            return Err(RuleError::UnknownFeature { index: self.feature });
        }
        let kind = schema.feature(self.feature).kind();
        if !self.op.allowed_on(kind) {
            return Err(RuleError::OperatorNotAllowed {
                op: self.op,
                feature: schema.feature(self.feature).name().to_string(),
            });
        }
        if !self.value.matches_kind(kind) {
            return Err(RuleError::ValueKindMismatch {
                feature: schema.feature(self.feature).name().to_string(),
            });
        }
        Ok(())
    }

    /// Renders with feature/category names from `schema`.
    pub fn display_with<'a>(&'a self, schema: &'a Schema) -> impl fmt::Display + 'a {
        struct D<'a>(&'a Predicate, &'a Schema);
        impl fmt::Display for D<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                let p = self.0;
                let name = self.1.feature(p.feature).name();
                match (p.value, self.1.feature(p.feature).kind()) {
                    (Value::Cat(c), FeatureKind::Categorical { categories }) => {
                        write!(f, "{name} {} {}", p.op, categories[c as usize])
                    }
                    (v, _) => write!(f, "{name} {} {v}", p.op),
                }
            }
        }
        D(self, schema)
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{} {} {}", self.feature, self.op, self.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use frote_data::Schema;

    fn schema() -> Schema {
        Schema::builder("y", vec!["a".into(), "b".into()])
            .numeric("age")
            .categorical("job", vec!["eng".into(), "law".into()])
            .build()
    }

    #[test]
    fn numeric_ops() {
        let p = Predicate::new(0, Op::Lt, Value::Num(29.0));
        assert!(p.eval(Value::Num(24.0)));
        assert!(!p.eval(Value::Num(29.0)));
        assert!(Predicate::new(0, Op::Le, Value::Num(29.0)).eval(Value::Num(29.0)));
        assert!(Predicate::new(0, Op::Ge, Value::Num(29.0)).eval(Value::Num(29.0)));
        assert!(!Predicate::new(0, Op::Gt, Value::Num(29.0)).eval(Value::Num(29.0)));
        assert!(Predicate::new(0, Op::Eq, Value::Num(29.0)).eval(Value::Num(29.0)));
    }

    #[test]
    fn categorical_ops() {
        assert!(Predicate::new(1, Op::Eq, Value::Cat(0)).eval(Value::Cat(0)));
        assert!(Predicate::new(1, Op::Ne, Value::Cat(0)).eval(Value::Cat(1)));
        assert!(!Predicate::new(1, Op::Ne, Value::Cat(0)).eval(Value::Cat(0)));
    }

    #[test]
    fn nan_cell_fails_every_numeric_operator() {
        // Pinned IEEE semantics: NaN cells (and NaN predicate values) make
        // every numeric comparison false — the row is never covered.
        for op in [Op::Eq, Op::Gt, Op::Ge, Op::Lt, Op::Le] {
            assert!(
                !Predicate::new(0, op, Value::Num(1.0)).eval(Value::Num(f64::NAN)),
                "{op:?} on a NaN cell must be false"
            );
            assert!(
                !Predicate::new(0, op, Value::Num(f64::NAN)).eval(Value::Num(1.0)),
                "{op:?} with a NaN value must be false"
            );
            assert!(
                !Predicate::new(0, op, Value::Num(f64::NAN)).eval(Value::Num(f64::NAN)),
                "{op:?} NaN vs NaN must be false"
            );
        }
    }

    #[test]
    fn eval_row_uses_feature_index() {
        let p = Predicate::new(1, Op::Eq, Value::Cat(1));
        assert!(p.eval_row(&[Value::Num(0.0), Value::Cat(1)]));
    }

    #[test]
    fn reversal_is_involutive_and_matches_paper() {
        for op in [Op::Eq, Op::Ne, Op::Gt, Op::Ge, Op::Lt, Op::Le] {
            assert_eq!(op.reversed().reversed(), op);
        }
        assert_eq!(Op::Ne.reversed(), Op::Eq);
        assert_eq!(Op::Le.reversed(), Op::Ge);
    }

    #[test]
    fn validate_catches_problems() {
        let s = schema();
        assert!(Predicate::new(0, Op::Lt, Value::Num(1.0)).validate(&s).is_ok());
        assert!(matches!(
            Predicate::new(9, Op::Lt, Value::Num(1.0)).validate(&s),
            Err(RuleError::UnknownFeature { index: 9 })
        ));
        // Ne on numeric not allowed.
        assert!(Predicate::new(0, Op::Ne, Value::Num(1.0)).validate(&s).is_err());
        // Lt on categorical not allowed.
        assert!(Predicate::new(1, Op::Lt, Value::Cat(0)).validate(&s).is_err());
        // Wrong value kind.
        assert!(Predicate::new(0, Op::Eq, Value::Cat(0)).validate(&s).is_err());
        // Out-of-vocab category.
        assert!(Predicate::new(1, Op::Eq, Value::Cat(5)).validate(&s).is_err());
    }

    #[test]
    #[should_panic(expected = "cannot compare")]
    fn kind_mismatch_panics_on_eval() {
        Predicate::new(0, Op::Lt, Value::Num(1.0)).eval(Value::Cat(0));
    }

    #[test]
    fn display_with_names() {
        let s = schema();
        let p = Predicate::new(1, Op::Ne, Value::Cat(1));
        assert_eq!(p.display_with(&s).to_string(), "job != law");
        let q = Predicate::new(0, Op::Ge, Value::Num(30.0));
        assert_eq!(q.display_with(&s).to_string(), "age >= 30");
        assert_eq!(q.to_string(), "x0 >= 30");
    }
}
