//! Differential property tests for the compiled columnar rule engine
//! (`frote_rules::engine`) against a row filter.
//!
//! The single-row checks (`Predicate::eval` / `Clause::satisfied_by` and
//! `FeedbackRuleSet::first_covering`) are the executable specification: the
//! oracle below filters rows with them one at a time, and the compiled
//! bitmask engine must agree with it on every row of every dataset,
//! including rows holding IEEE NaN cells and thresholds that land exactly
//! on (or one ULP off) the values in the data. Thread invariance is pinned
//! separately on a dataset large enough to cross the engine's parallel
//! threshold.

use frote_data::{Dataset, Schema, Value};
use frote_rules::{
    Clause, CompiledClause, FeedbackRule, FeedbackRuleSet, Op, Predicate, RuleMaskCache,
};
use proptest::prelude::*;

/// Schema used throughout: two numeric, one 4-way categorical feature.
fn schema() -> Schema {
    Schema::builder("y", vec!["a".into(), "b".into(), "c".into()])
        .numeric("x0")
        .numeric("x1")
        .categorical("k", vec!["p".into(), "q".into(), "r".into(), "s".into()])
        .build()
}

/// Numeric values on a coarse grid so row values and thresholds collide
/// often — exact ties are where comparison bugs live.
fn arb_grid_value() -> impl Strategy<Value = f64> {
    (-8i32..=8).prop_map(|i| f64::from(i) * 0.5)
}

/// A grid value, or NaN with ~1/8 probability.
fn arb_cell() -> impl Strategy<Value = f64> {
    (0u8..8, arb_grid_value()).prop_map(|(w, v)| if w == 0 { f64::NAN } else { v })
}

prop_compose! {
    fn arb_row()(x0 in arb_cell(), x1 in arb_cell(), k in 0u32..4) -> Vec<Value> {
        vec![Value::Num(x0), Value::Num(x1), Value::Cat(k)]
    }
}

fn build_dataset(rows: Vec<(Vec<Value>, u32)>) -> Dataset {
    let mut ds = Dataset::new(schema());
    for (row, label) in rows {
        ds.push_row(&row, label).unwrap();
    }
    ds
}

/// Dataset with NaN cells sprinkled in.
fn arb_dataset(max_rows: usize) -> impl Strategy<Value = Dataset> {
    proptest::collection::vec((arb_row(), 0u32..3), 1..max_rows).prop_map(build_dataset)
}

/// Thresholds sit on the value grid or one ULP to either side of it, so
/// they routinely hit row values exactly and straddle them minimally.
fn arb_threshold() -> impl Strategy<Value = f64> {
    (arb_grid_value(), -1i32..=1).prop_map(|(v, shift)| match shift {
        -1 => v.next_down(),
        1 => v.next_up(),
        _ => v,
    })
}

fn arb_predicate() -> impl Strategy<Value = Predicate> {
    prop_oneof![
        (
            0usize..2,
            arb_threshold(),
            prop_oneof![Just(Op::Lt), Just(Op::Le), Just(Op::Gt), Just(Op::Ge), Just(Op::Eq)]
        )
            .prop_map(|(f, v, op)| Predicate::new(f, op, Value::Num(v))),
        (0u32..4, prop_oneof![Just(Op::Eq), Just(Op::Ne)]).prop_map(|(c, op)| Predicate::new(
            2,
            op,
            Value::Cat(c)
        )),
    ]
}

fn arb_clause(max_preds: usize) -> impl Strategy<Value = Clause> {
    proptest::collection::vec(arb_predicate(), 0..max_preds).prop_map(Clause::new)
}

fn arb_ruleset(max_rules: usize) -> impl Strategy<Value = FeedbackRuleSet> {
    proptest::collection::vec((arb_clause(3), 0u32..3), 0..max_rules).prop_map(|rules| {
        FeedbackRuleSet::new(
            rules.into_iter().map(|(c, y)| FeedbackRule::deterministic(c, y)).collect(),
        )
    })
}

/// The row-filter oracle for a clause: rows whose cells satisfy it.
fn clause_rows(clause: &Clause, ds: &Dataset) -> Vec<usize> {
    (0..ds.n_rows()).filter(|&i| clause.satisfied_by(&ds.row(i))).collect()
}

/// The row-filter oracle for a rule set: `(coverage, outside coverage,
/// first-match attribution)` from `first_covering`, one row at a time.
fn set_rows(frs: &FeedbackRuleSet, ds: &Dataset) -> (Vec<usize>, Vec<usize>, Vec<Vec<usize>>) {
    let (mut covered, mut outside) = (Vec::new(), Vec::new());
    let mut attributed = vec![Vec::new(); frs.len()];
    for i in 0..ds.n_rows() {
        match frs.first_covering(&ds.row(i)) {
            Some(r) => {
                covered.push(i);
                attributed[r].push(i);
            }
            None => outside.push(i),
        }
    }
    (covered, outside, attributed)
}

proptest! {
    /// The compiled raw-plane mask agrees with `satisfied_by` on every
    /// single row — including rows with NaN cells — and its extracted
    /// index list equals the row filter.
    #[test]
    fn compiled_clause_matches_interpreter_per_row(
        ds in arb_dataset(48),
        clause in arb_clause(4),
    ) {
        let compiled = CompiledClause::compile(&clause, ds.schema()).unwrap();
        let mask = compiled.eval(&ds);
        prop_assert_eq!(mask.len(), ds.n_rows());
        for i in 0..ds.n_rows() {
            prop_assert_eq!(
                mask.get(i),
                clause.satisfied_by(&ds.row(i)),
                "row {} of {}: clause {}", i, ds.n_rows(), clause
            );
        }
        let oracle = clause_rows(&clause, &ds);
        prop_assert_eq!(mask.count(), oracle.len());
        prop_assert_eq!(mask.indices(), oracle.clone());
        prop_assert_eq!(clause.coverage(&ds), oracle.clone());
        prop_assert_eq!(clause.coverage_count(&ds), oracle.len());
    }

    /// Whole-set scans: the one-shot scan's coverage, outside coverage,
    /// and first-match attribution agree with the row filter, and so do the
    /// set facades built on it.
    #[test]
    fn compiled_ruleset_matches_interpreted_scans(
        ds in arb_dataset(48),
        frs in arb_ruleset(4),
    ) {
        let (covered, outside, attributed) = set_rows(&frs, &ds);
        let scan = frs.scan(&ds);
        prop_assert_eq!(scan.coverage(), covered.clone());
        prop_assert_eq!(scan.outside_coverage(), outside.clone());
        prop_assert_eq!(scan.attributed_coverage(), attributed.clone());
        prop_assert_eq!(frs.coverage(&ds), covered);
        prop_assert_eq!(frs.outside_coverage(&ds), outside);
        prop_assert_eq!(frs.attributed_coverage(&ds), attributed);
    }

    /// Incremental mask maintenance: syncing a prefix, appending the rest
    /// row by row, truncating back, and re-syncing always matches a fresh
    /// full evaluation — the append/truncate plane never drifts.
    #[test]
    fn mask_cache_incremental_sync_matches_fresh(
        rows in proptest::collection::vec((arb_row(), 0u32..3), 2..40),
        frs in arb_ruleset(4),
        split_num in 0usize..100,
    ) {
        let split = 1 + split_num % (rows.len() - 1);
        let prefix = build_dataset(rows[..split].to_vec());
        let full = build_dataset(rows.clone());

        let mut cache = RuleMaskCache::compile(&frs, full.schema()).unwrap();
        cache.sync(&prefix);
        prop_assert_eq!(cache.rows(), split);
        cache.sync(&full);
        prop_assert_eq!(cache.rows(), full.n_rows());

        let mut fresh = RuleMaskCache::compile(&frs, full.schema()).unwrap();
        fresh.sync(&full);
        prop_assert_eq!(cache.masks(), fresh.masks(), "append drifted from full eval");
        let (covered, outside, attributed) = set_rows(&frs, &full);
        prop_assert_eq!(cache.coverage(), covered);
        prop_assert_eq!(cache.outside_coverage(), outside);
        prop_assert_eq!(cache.attributed_coverage(), attributed);

        // Roll back to the prefix: exact, not approximate.
        cache.truncate(split);
        let mut at_prefix = RuleMaskCache::compile(&frs, prefix.schema()).unwrap();
        at_prefix.sync(&prefix);
        prop_assert_eq!(cache.masks(), at_prefix.masks(), "truncate left stale bits");
    }
}

/// A deterministic dataset large enough to cross the engine's parallel
/// scan threshold (4096 rows), with NaN cells on a fixed stride.
fn large_dataset(n: usize) -> Dataset {
    let mut ds = Dataset::new(schema());
    for i in 0..n {
        let x0 = if i % 97 == 0 { f64::NAN } else { (i % 17) as f64 * 0.5 - 4.0 };
        let x1 = ((i * 7) % 23) as f64 * 0.25 - 2.0;
        ds.push_row(&[Value::Num(x0), Value::Num(x1), Value::Cat((i % 4) as u32)], (i % 3) as u32)
            .unwrap();
    }
    ds
}

/// The parallel block scan is bit-identical to the serial scan — and to
/// the row filter — at every thread count.
#[test]
fn parallel_scan_is_thread_invariant() {
    use frote_par::test_support::with_threads;
    let ds = large_dataset(10_000);
    let clauses = [
        Clause::new(vec![Predicate::new(0, Op::Le, Value::Num(1.5))]),
        Clause::new(vec![
            Predicate::new(0, Op::Gt, Value::Num(-2.0)),
            Predicate::new(1, Op::Lt, Value::Num(2.25)),
            Predicate::new(2, Op::Eq, Value::Cat(1)),
        ]),
        Clause::new(vec![Predicate::new(1, Op::Ge, Value::Num(f64::NAN))]),
        Clause::new(vec![]),
    ];
    for clause in &clauses {
        let compiled = CompiledClause::compile(clause, ds.schema()).unwrap();
        let reference = with_threads(1, || compiled.eval(&ds));
        assert_eq!(reference.indices(), clause_rows(clause, &ds), "clause {clause}");
        for t in [2, 4, 8] {
            let par = with_threads(t, || compiled.eval(&ds));
            assert_eq!(par, reference, "FROTE_THREADS={t}, clause {clause}");
        }
    }
}
