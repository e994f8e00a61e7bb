//! Serve-time input validation: the rule engine as the constraint layer.
//!
//! Request bodies are parsed against the target model's schema — one row
//! per line, comma-separated cells, categorical cells by category name,
//! numeric cells as decimal floats (the same rendering [`frote_data::csv`]
//! uses, minus the label column). Wrong arity, unknown categories, and
//! unparsable numeric cells surface [`ServeError::Row`] with the offending
//! line number before anything else runs.
//!
//! Rows that *parse* are then swept through a [`RowGuard`]: schema
//! constraints (`dfq_not_null` / `dfq_in_range` style) compiled onto the
//! PR 6 columnar engine's [`RowMask`] sweeps via the fallible
//! [`CompiledClause::compile`] path. A NaN cell fails every numeric
//! predicate by the engine's pinned NaN semantics, so `x >= -inf` is
//! exactly "x is not null" — the guard rejects such rows with a structured
//! [`ServeError::RowsRejected`] instead of letting them panic a worker
//! later (e.g. in `Binner::bin_value`, which panics on NaN by contract).

use std::sync::Arc;

use frote_data::stats::NumericStats;
use frote_data::{Dataset, FeatureKind, Schema, Value};
use frote_rules::{Clause, CompiledClause, Op, Predicate, RowMask};

use crate::ServeError;

/// Parses a request body into a scoring [`Dataset`] over `schema`.
///
/// Labels are not part of the wire format; parsed rows carry class 0 (the
/// label column is never read on the predict path).
///
/// # Errors
///
/// [`ServeError::Row`] naming the first malformed row (1-based): wrong
/// arity, unknown category, or unparsable numeric cell. An empty body (no
/// non-blank lines) is an error — a score request must carry rows.
pub fn parse_rows(schema: &Arc<Schema>, body: &str) -> Result<Dataset, ServeError> {
    let mut ds = Dataset::with_shared_schema(Arc::clone(schema));
    let mut row = Vec::with_capacity(schema.n_features());
    for (lineno, line) in body.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let lineno = lineno + 1;
        row.clear();
        let cells: Vec<&str> = line.split(',').collect();
        if cells.len() != schema.n_features() {
            return Err(ServeError::Row {
                line: lineno,
                detail: format!(
                    "wrong arity: expected {} cells, got {}",
                    schema.n_features(),
                    cells.len()
                ),
            });
        }
        for (j, cell) in cells.iter().enumerate() {
            let meta = schema.feature(j);
            match meta.kind() {
                FeatureKind::Numeric => {
                    // NaN parses on purpose: null-ness is the *guard's*
                    // finding, with rule provenance, not a parse error.
                    let x: f64 = cell.trim().parse().map_err(|_| ServeError::Row {
                        line: lineno,
                        detail: format!("feature {:?}: unparsable numeric {cell:?}", meta.name()),
                    })?;
                    row.push(Value::Num(x));
                }
                FeatureKind::Categorical { categories } => {
                    let cell = cell.trim();
                    let code = categories.iter().position(|c| c == cell).ok_or_else(|| {
                        ServeError::Row {
                            line: lineno,
                            detail: format!(
                                "feature {:?}: unknown category {cell:?} (vocabulary: {categories:?})",
                                meta.name()
                            ),
                        }
                    })?;
                    row.push(Value::Cat(code as u32));
                }
            }
        }
        ds.push_row(&row, 0)
            .map_err(|e| ServeError::Row { line: lineno, detail: e.to_string() })?;
    }
    if ds.is_empty() {
        return Err(ServeError::BadRequest { detail: "empty request: no rows".to_string() });
    }
    Ok(ds)
}

/// A compiled serve-time constraint: rows failing it are rejected at the
/// boundary, with the guard's display form in the error.
///
/// Construction goes through [`CompiledClause::compile`] — the fallible
/// pre-validation path — so a guard that does not fit the schema surfaces
/// a [`frote_rules::RuleError`] at build time, never a mid-scan panic.
#[derive(Debug, Clone)]
pub struct RowGuard {
    compiled: CompiledClause,
    display: String,
}

impl RowGuard {
    /// A `dfq_not_null`-style guard: every numeric feature must be non-NaN.
    ///
    /// Compiles `feature >= -inf` per numeric feature; by the engine's NaN
    /// trichotomy (every comparison on a NaN cell is false) the conjunction
    /// is true exactly for rows with no NaN cells. Categorical cells cannot
    /// be null post-parse, so they contribute no predicate.
    ///
    /// # Errors
    ///
    /// Propagates [`frote_rules::RuleError`] from
    /// [`CompiledClause::compile`] (unreachable for a well-formed schema,
    /// but the error is kept).
    pub fn not_null(schema: &Schema) -> Result<RowGuard, ServeError> {
        let preds = numeric_features(schema)
            .map(|j| Predicate::new(j, Op::Ge, Value::Num(f64::NEG_INFINITY)))
            .collect();
        RowGuard::from_clause(Clause::new(preds), schema)
    }

    /// A `dfq_in_range`-style guard: non-null plus every numeric feature
    /// inside the `[min, max]` observed on the training dataset `fit` —
    /// the serve-time twin of a data-quality range constraint.
    ///
    /// # Errors
    ///
    /// As [`RowGuard::not_null`].
    pub fn in_range(schema: &Schema, fit: &Dataset) -> Result<RowGuard, ServeError> {
        let mut preds = Vec::new();
        for j in numeric_features(schema) {
            let values = fit.column(j).as_numeric().expect("numeric feature has numeric column");
            let stats = NumericStats::of(values);
            preds.push(Predicate::new(j, Op::Ge, Value::Num(stats.min)));
            preds.push(Predicate::new(j, Op::Le, Value::Num(stats.max)));
        }
        RowGuard::from_clause(Clause::new(preds), schema)
    }

    /// Compiles an arbitrary constraint clause into a guard.
    ///
    /// # Errors
    ///
    /// Propagates [`frote_rules::RuleError`] from
    /// [`CompiledClause::compile`].
    pub fn from_clause(clause: Clause, schema: &Schema) -> Result<RowGuard, ServeError> {
        let display = clause.display_with(schema).to_string();
        let compiled = CompiledClause::compile(&clause, schema)?;
        Ok(RowGuard { compiled, display })
    }

    /// The guard constraint in rule syntax (used in rejection messages).
    pub fn display(&self) -> &str {
        &self.display
    }

    /// The satisfied-rows mask over `ds` — one columnar sweep, parallel
    /// past the engine's block threshold.
    pub fn mask(&self, ds: &Dataset) -> RowMask {
        self.compiled.eval(ds)
    }

    /// Checks every row of `ds`, returning the indices of rejected rows as
    /// a structured error.
    ///
    /// # Errors
    ///
    /// [`ServeError::RowsRejected`] listing every row whose cells violate
    /// the guard.
    pub fn check(&self, ds: &Dataset) -> Result<(), ServeError> {
        let mask = self.mask(ds);
        if mask.count() == ds.n_rows() {
            return Ok(());
        }
        Err(ServeError::RowsRejected {
            rows: mask.inverted().indices(),
            guard: self.display.clone(),
        })
    }
}

/// Renders `indices` of `ds` in the wire row format [`parse_rows`]
/// accepts — the exact inverse: numeric cells via `f64`'s shortest
/// round-trip `Display`, categorical cells by name. Load generators and
/// perf probes use this to build request bodies whose parsed form is
/// bit-identical to the source rows.
pub fn render_rows(ds: &Dataset, indices: &[usize]) -> String {
    let schema = ds.schema();
    let mut out = String::new();
    for &i in indices {
        for j in 0..schema.n_features() {
            if j > 0 {
                out.push(',');
            }
            match ds.cell(i, j) {
                Value::Num(x) => out.push_str(&format!("{x}")),
                Value::Cat(c) => match schema.feature(j).kind() {
                    FeatureKind::Categorical { categories } => {
                        out.push_str(&categories[c as usize]);
                    }
                    FeatureKind::Numeric => unreachable!("Cat value in numeric column"),
                },
            }
        }
        out.push('\n');
    }
    out
}

fn numeric_features(schema: &Schema) -> impl Iterator<Item = usize> + '_ {
    (0..schema.n_features()).filter(|&j| schema.feature(j).kind().is_numeric())
}

#[cfg(test)]
mod tests {
    use super::*;
    use frote_data::Schema;

    fn schema() -> Arc<Schema> {
        Arc::new(
            Schema::builder("y", vec!["no".into(), "yes".into()])
                .numeric("age")
                .categorical("job", vec!["eng".into(), "law".into()])
                .build(),
        )
    }

    #[test]
    fn parses_well_formed_rows() {
        let s = schema();
        let ds = parse_rows(&s, "30,eng\n41.5,law\n").unwrap();
        assert_eq!(ds.n_rows(), 2);
        assert_eq!(ds.cell(1, 0), Value::Num(41.5));
        assert_eq!(ds.cell(1, 1), Value::Cat(1));
    }

    #[test]
    fn wrong_arity_is_row_error() {
        let err = parse_rows(&schema(), "30,eng\n41.5\n").unwrap_err();
        assert_eq!(
            std::mem::discriminant(&err),
            std::mem::discriminant(&ServeError::Row { line: 0, detail: String::new() })
        );
        assert!(err.to_string().contains("row 2"), "got {err}");
        assert!(err.to_string().contains("arity"), "got {err}");
    }

    #[test]
    fn unknown_category_is_row_error() {
        let err = parse_rows(&schema(), "30,ceo\n").unwrap_err();
        assert!(err.to_string().contains("unknown category"), "got {err}");
    }

    #[test]
    fn unparsable_numeric_is_row_error() {
        let err = parse_rows(&schema(), "thirty,eng\n").unwrap_err();
        assert!(err.to_string().contains("unparsable numeric"), "got {err}");
    }

    #[test]
    fn empty_body_is_bad_request() {
        let err = parse_rows(&schema(), "\n\n").unwrap_err();
        assert!(matches!(err, ServeError::BadRequest { .. }), "got {err:?}");
    }

    #[test]
    fn not_null_guard_rejects_nan_rows_only() {
        let s = schema();
        let ds = parse_rows(&s, "30,eng\nNaN,law\n7,law\n").unwrap();
        let guard = RowGuard::not_null(&s).unwrap();
        let err = guard.check(&ds).unwrap_err();
        match err {
            ServeError::RowsRejected { rows, guard } => {
                assert_eq!(rows, vec![1]);
                assert!(guard.contains("age"), "guard display names the feature: {guard}");
            }
            other => panic!("expected RowsRejected, got {other:?}"),
        }
        let clean = parse_rows(&s, "30,eng\n").unwrap();
        guard.check(&clean).unwrap();
    }

    #[test]
    fn in_range_guard_rejects_out_of_range() {
        let s = schema();
        let fit = parse_rows(&s, "10,eng\n20,law\n").unwrap();
        let guard = RowGuard::in_range(&s, &fit).unwrap();
        guard.check(&parse_rows(&s, "15,eng\n").unwrap()).unwrap();
        let err = guard.check(&parse_rows(&s, "15,eng\n99,law\n").unwrap()).unwrap_err();
        assert!(matches!(err, ServeError::RowsRejected { ref rows, .. } if rows == &vec![1]));
        // NaN also fails the range guard: comparisons on NaN are all false.
        let err = guard.check(&parse_rows(&s, "NaN,eng\n").unwrap()).unwrap_err();
        assert!(matches!(err, ServeError::RowsRejected { .. }));
    }

    #[test]
    fn render_rows_roundtrips_through_parse_rows() {
        let s = schema();
        let ds = parse_rows(&s, "30,eng\n41.5,law\n0.1234567890123456,eng\n").unwrap();
        let body = render_rows(&ds, &[0, 1, 2]);
        let back = parse_rows(&s, &body).unwrap();
        assert_eq!(back.n_rows(), ds.n_rows());
        for i in 0..ds.n_rows() {
            for j in 0..s.n_features() {
                assert_eq!(back.cell(i, j), ds.cell(i, j), "row {i} col {j}");
            }
        }
    }

    #[test]
    fn all_categorical_schema_guard_is_vacuous() {
        let s = Arc::new(
            Schema::builder("y", vec!["a".into(), "b".into()])
                .categorical("color", vec!["red".into(), "blue".into()])
                .build(),
        );
        let guard = RowGuard::not_null(&s).unwrap();
        guard.check(&parse_rows(&s, "red\nblue\n").unwrap()).unwrap();
    }
}
