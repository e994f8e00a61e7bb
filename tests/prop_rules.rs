//! Property-based tests for the rules engine: coverage semantics, relaxation
//! invariants, conflict detection consistency, parser round-trips.

use frote_data::{Dataset, Schema, Value};
use frote_rules::relax::relax_clause;
use frote_rules::{Clause, FeedbackRule, FeedbackRuleSet, LabelDist, Op, Predicate};
use proptest::prelude::*;

/// Schema used throughout: two numeric, one 4-way categorical feature.
fn schema() -> Schema {
    Schema::builder("y", vec!["a".into(), "b".into(), "c".into()])
        .numeric("x0")
        .numeric("x1")
        .categorical("k", vec!["p".into(), "q".into(), "r".into(), "s".into()])
        .build()
}

prop_compose! {
    fn arb_row()(x0 in -50.0..50.0f64, x1 in -50.0..50.0f64, k in 0u32..4) -> Vec<Value> {
        vec![Value::Num(x0), Value::Num(x1), Value::Cat(k)]
    }
}

fn arb_dataset(max_rows: usize) -> impl Strategy<Value = Dataset> {
    proptest::collection::vec((arb_row(), 0u32..3), 1..max_rows).prop_map(|rows| {
        let mut ds = Dataset::new(schema());
        for (row, label) in rows {
            ds.push_row(&row, label).unwrap();
        }
        ds
    })
}

fn arb_predicate() -> impl Strategy<Value = Predicate> {
    prop_oneof![
        (
            0usize..2,
            -40.0..40.0f64,
            prop_oneof![Just(Op::Lt), Just(Op::Le), Just(Op::Gt), Just(Op::Ge)]
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

proptest! {
    /// Coverage equals the brute-force row filter.
    #[test]
    fn coverage_matches_row_filter(ds in arb_dataset(40), clause in arb_clause(4)) {
        let cov = clause.coverage(&ds);
        let brute: Vec<usize> =
            (0..ds.n_rows()).filter(|&i| clause.satisfied_by(&ds.row(i))).collect();
        prop_assert_eq!(cov, brute);
        prop_assert_eq!(clause.coverage_count(&ds),
            (0..ds.n_rows()).filter(|&i| clause.satisfied_by(&ds.row(i))).count());
    }

    /// Conjunction coverage is the intersection of the parts' coverages.
    #[test]
    fn and_is_intersection(ds in arb_dataset(40), a in arb_clause(3), b in arb_clause(3)) {
        let both = a.and(&b);
        let cov_a = a.coverage(&ds);
        let cov_b = b.coverage(&ds);
        let expected: Vec<usize> =
            cov_a.iter().copied().filter(|i| cov_b.contains(i)).collect();
        prop_assert_eq!(both.coverage(&ds), expected);
    }

    /// If a clause has empirical coverage it must be analytically satisfiable.
    #[test]
    fn covered_implies_satisfiable(ds in arb_dataset(40), clause in arb_clause(4)) {
        if !clause.coverage(&ds).is_empty() {
            prop_assert!(clause.satisfiable(&schema()));
        }
    }

    /// Relaxation: never reduces support, never adds conditions, reaches the
    /// requested minimum support whenever the dataset allows it.
    #[test]
    fn relaxation_invariants(ds in arb_dataset(40), clause in arb_clause(4), k in 1usize..8) {
        let min_support = k + 1;
        let before = clause.coverage_count(&ds);
        let out = relax_clause(&clause, &ds, min_support);
        prop_assert!(out.support >= before);
        prop_assert!(out.clause.subset_of(&clause));
        prop_assert_eq!(out.support, out.clause.coverage_count(&ds));
        if ds.n_rows() >= min_support {
            prop_assert!(out.support >= min_support,
                "support {} < {} with {} rows", out.support, min_support, ds.n_rows());
        } else {
            prop_assert!(out.clause.is_empty() || out.support == before.max(out.support));
        }
        prop_assert!(out.deleted <= clause.len());
    }

    /// Conflict detection is consistent with empirical overlap: two rules
    /// with different deterministic classes and overlapping *empirical*
    /// coverage must be flagged as conflicting.
    #[test]
    fn empirical_overlap_implies_conflict(
        ds in arb_dataset(40),
        a in arb_clause(3),
        b in arb_clause(3),
    ) {
        let frs = FeedbackRuleSet::new(vec![
            FeedbackRule::deterministic(a.clone(), 0),
            FeedbackRule::deterministic(b.clone(), 1),
        ]);
        let cov_a = a.coverage(&ds);
        let cov_b = b.coverage(&ds);
        let overlap = cov_a.iter().any(|i| cov_b.contains(i));
        if overlap {
            prop_assert!(!frs.is_conflict_free(&schema()),
                "empirical overlap but no analytic conflict: {} vs {}", a, b);
        }
    }

    /// Attributed coverage partitions the union coverage.
    #[test]
    fn attribution_partitions_coverage(
        ds in arb_dataset(40),
        a in arb_clause(3),
        b in arb_clause(3),
        c in arb_clause(3),
    ) {
        let frs = FeedbackRuleSet::new(vec![
            FeedbackRule::deterministic(a, 0),
            FeedbackRule::deterministic(b, 0),
            FeedbackRule::deterministic(c, 0),
        ]);
        let attributed = frs.attributed_coverage(&ds);
        let mut merged: Vec<usize> = attributed.concat();
        merged.sort_unstable();
        // No duplicates: the per-rule sets are disjoint.
        let mut dedup = merged.clone();
        dedup.dedup();
        prop_assert_eq!(&merged, &dedup);
        prop_assert_eq!(merged, frs.coverage(&ds));
    }

    /// DropLater resolution always yields a conflict-free set that is a
    /// subsequence of the input.
    #[test]
    fn drop_later_resolution_invariants(
        clauses in proptest::collection::vec((arb_clause(3), 0u32..3), 1..5),
    ) {
        use frote_rules::ConflictResolution;
        let rules: Vec<FeedbackRule> = clauses
            .into_iter()
            .map(|(c, y)| FeedbackRule::deterministic(c, y))
            .collect();
        let frs = FeedbackRuleSet::new(rules.clone());
        let resolved = frs.resolve_conflicts(&schema(), ConflictResolution::DropLater);
        prop_assert!(resolved.is_conflict_free(&schema()));
        // Subsequence check.
        let mut cursor = 0;
        for r in resolved.rules() {
            let pos = rules[cursor..].iter().position(|orig| orig == r);
            prop_assert!(pos.is_some(), "resolved rule not from the input");
            cursor += pos.unwrap() + 1;
        }
    }

    /// The label distribution mixture has the same support union and sums
    /// to 1.
    #[test]
    fn mixtures_are_distributions(a in 0u32..3, b in 0u32..3) {
        let da = LabelDist::deterministic(a);
        let db = LabelDist::deterministic(b);
        let m = da.mixture(&db, 3);
        let total: f64 = (0..3).map(|c| m.prob(c)).sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        prop_assert!(m.prob(a) >= 0.5 - 1e-9);
        prop_assert!(m.prob(b) >= 0.5 - 1e-9 || a != b);
    }

    /// Display + parse round-trips deterministic rules (modulo float
    /// formatting, which Rust prints losslessly).
    #[test]
    fn parse_display_roundtrip(clause in arb_clause(3), class in 0u32..3) {
        let s = schema();
        let rule = FeedbackRule::deterministic(clause, class);
        prop_assume!(rule.validate(&s).is_ok());
        let text = rule.display_with(&s).to_string();
        let rebuilt = frote_rules::parse::parse_rule(&text, &s).unwrap();
        prop_assert_eq!(rebuilt.clause().coverage_count(&demo_probe(&s)),
            rule.clause().coverage_count(&demo_probe(&s)));
        prop_assert_eq!(rebuilt.dist(), rule.dist());
    }
}

/// A fixed probe dataset for semantic comparison of parsed clauses.
fn demo_probe(s: &Schema) -> Dataset {
    let mut ds = Dataset::new(s.clone());
    let mut v = -50.0;
    for i in 0..60 {
        ds.push_row(
            &[Value::Num(v), Value::Num(-v * 0.7), Value::Cat((i % 4) as u32)],
            (i % 3) as u32,
        )
        .unwrap();
        v += 1.7;
    }
    ds
}

/// A schema with non-ASCII feature, category and class names, so the
/// parser's byte-offset slicing meets multi-byte text on both the accept
/// and the reject paths.
fn unicode_schema() -> Schema {
    Schema::builder("y", vec!["a".into(), "b".into(), "ç".into()])
        .numeric("x0")
        .numeric("größe")
        .categorical("k", vec!["p".into(), "q".into(), "日本".into()])
        .build()
}

/// Names, connectives, the arrow, every operator, numbers (`NaN` and `inf`
/// among them) and non-ASCII words: the alphabet of arbitrary rule text.
const RULE_TOKENS: &[&str] = &[
    "x0", "x1", "größe", "k", "y", "p", "q", "日本", "a", "b", "ç", "TRUE", "AND", "and", "aNd",
    "=>", "=", "!=", ">", ">=", "<", "<=", "0", "-3.5", "1e3", "1e400", "-0", "NaN", "inf", "-inf",
    "é", "naïve", "ß", "\u{a0}", "",
];

/// Arbitrary text over [`RULE_TOKENS`]: each token is followed by a space
/// or glued to the next one.
fn arb_token_text(max_tokens: usize) -> impl Strategy<Value = String> {
    proptest::collection::vec((0..RULE_TOKENS.len(), proptest::bool::ANY), 0..max_tokens).prop_map(
        |tokens| {
            tokens
                .into_iter()
                .map(|(t, glue)| format!("{}{}", RULE_TOKENS[t], if glue { "" } else { " " }))
                .collect()
        },
    )
}

/// One slot of rule-shaped text: usually a token that fits the slot, one
/// time in four any token of [`RULE_TOKENS`].
fn arb_slot(fits: &'static [&'static str]) -> impl Strategy<Value = &'static str> {
    (0..fits.len(), 0..RULE_TOKENS.len(), 0u32..4).prop_map(move |(i, j, wild)| {
        if wild == 0 {
            RULE_TOKENS[j]
        } else {
            fits[i]
        }
    })
}

/// Rule-shaped text, `name op value (AND name op value)* => class`, shaped
/// often enough to parse and wrong often enough to reach every error path;
/// one time in four with a second `=> a` tail.
fn arb_rule_text() -> impl Strategy<Value = String> {
    let predicate = (
        arb_slot(&["x0", "größe", "k"]),
        arb_slot(&["=", "!=", ">", ">=", "<", "<="]),
        arb_slot(&["0", "-3.5", "1e3", "1e400", "-0", "NaN", "inf", "-inf", "p", "q", "日本"]),
    )
        .prop_map(|(name, op, value)| format!("{name} {op} {value}"));
    (
        proptest::collection::vec(predicate, 1..4),
        arb_slot(&["AND", "and", "aNd"]),
        arb_slot(&["a", "b", "ç"]),
        0u32..4,
    )
        .prop_map(|(predicates, and, class, twice)| {
            let tail = if twice == 0 { " => a" } else { "" };
            format!("{} => {class}{tail}", predicates.join(&format!(" {and} ")))
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// `parse_rule` over arbitrary text never panics, every rule it accepts
    /// has finite thresholds, and its display parses back to a rule
    /// displaying the same text.
    #[test]
    fn parse_rule_total_and_display_stable(
        text in prop_oneof![arb_token_text(10), arb_rule_text()],
    ) {
        let s = unicode_schema();
        if let Ok(rule) = frote_rules::parse::parse_rule(&text, &s) {
            for p in rule.clause().predicates() {
                if let Value::Num(x) = p.value() {
                    prop_assert!(x.is_finite(), "{text:?} parsed with threshold {x}");
                }
            }
            let shown = rule.display_with(&s).to_string();
            let again = frote_rules::parse::parse_rule(&shown, &s);
            prop_assert!(again.is_ok(), "{text:?} parsed, but its display {shown:?} did not");
            prop_assert_eq!(again.unwrap().display_with(&s).to_string(), shown, "from {:?}", text);
        }
    }
}
