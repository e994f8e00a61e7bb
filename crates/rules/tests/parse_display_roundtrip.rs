//! Round-trips between the rule parser and the schema-aware renderers:
//! any rule built programmatically, printed with `display_with`, must parse
//! back to an equal rule — across all operators, feature kinds, and float
//! values (Rust's shortest-round-trip float printing guarantees exactness).

use frote_rules::parse::{parse_clause, parse_predicate, parse_rule};
use frote_rules::{Clause, FeedbackRule, Op, Predicate};

use frote_data::{Schema, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn schema() -> Schema {
    Schema::builder("approved", vec!["no".into(), "yes".into(), "review".into()])
        .numeric("age")
        .numeric("income")
        .categorical("job", vec!["eng".into(), "teacher".into(), "retired".into()])
        .categorical("region", vec!["north".into(), "south".into()])
        .build()
}

fn random_predicate(rng: &mut StdRng) -> Predicate {
    if rng.random_bool(0.5) {
        // Numeric: features 0-1, any comparison operator, "ugly" floats.
        let feature = rng.random_range(0..2usize);
        let op = [Op::Eq, Op::Gt, Op::Ge, Op::Lt, Op::Le][rng.random_range(0..5usize)];
        let value = match rng.random_range(0..4u32) {
            0 => rng.random_range(-1000.0..1000.0),
            1 => rng.random_range(-1.0..1.0) / 3.0,
            2 => (rng.random_range(-50.0..50.0f64)).round(),
            _ => rng.random_range(0.0..1e-6),
        };
        Predicate::new(feature, op, Value::Num(value))
    } else {
        // Categorical: features 2-3 with their real vocabulary sizes.
        let (feature, n_cats) = if rng.random_bool(0.5) { (2, 3) } else { (3, 2) };
        let op = if rng.random_bool(0.5) { Op::Eq } else { Op::Ne };
        Predicate::new(feature, op, Value::Cat(rng.random_range(0..n_cats)))
    }
}

#[test]
fn random_rules_round_trip() {
    let s = schema();
    let mut rng = StdRng::seed_from_u64(0x9A25E);
    for case in 0..500 {
        let n_preds = rng.random_range(1..5usize);
        let clause = Clause::new((0..n_preds).map(|_| random_predicate(&mut rng)).collect());
        let class = rng.random_range(0..3u32);
        let rule = FeedbackRule::deterministic(clause, class);
        rule.validate(&s).expect("generated rules are valid");
        let text = rule.display_with(&s).to_string();
        let back = parse_rule(&text, &s).unwrap_or_else(|e| panic!("case {case}: `{text}`: {e}"));
        assert_eq!(back, rule, "case {case}: `{text}`");
    }
}

#[test]
fn single_predicates_round_trip_through_all_operators() {
    let s = schema();
    for op in [Op::Eq, Op::Gt, Op::Ge, Op::Lt, Op::Le] {
        let p = Predicate::new(1, op, Value::Num(-42.125));
        let text = format!("{}", p.display_with(&s));
        assert_eq!(parse_predicate(&text, &s).unwrap(), p, "`{text}`");
    }
    for op in [Op::Eq, Op::Ne] {
        let p = Predicate::new(2, op, Value::Cat(1));
        let text = format!("{}", p.display_with(&s));
        assert_eq!(parse_predicate(&text, &s).unwrap(), p, "`{text}`");
    }
}

#[test]
fn empty_clause_renders_and_parses_as_true() {
    let s = schema();
    let clause = Clause::new(vec![]);
    let text = format!("{}", clause.display_with(&s));
    assert_eq!(text, "TRUE");
    assert_eq!(parse_clause(&text, &s).unwrap(), clause);
}

#[test]
fn shortest_float_printing_is_exact() {
    let s = schema();
    // Floats whose decimal expansions are infinite in binary; the printed
    // shortest form must still parse to the identical bit pattern.
    for &v in &[0.1, 0.2, 0.3, 1.0 / 3.0, 2.0f64.sqrt(), std::f64::consts::PI, 1e-300] {
        let p = Predicate::new(0, Op::Le, Value::Num(v));
        let text = format!("{}", p.display_with(&s));
        let back = parse_predicate(&text, &s).unwrap();
        assert_eq!(back, p, "`{text}`");
    }
}

/// Textual rules are authored against one schema but may later be applied
/// to a dataset whose schema drifted (columns dropped, vocabularies
/// shrunk, a categorical re-encoded as numeric). Such predicates *parse*
/// fine — the parser only knows the authoring schema — but must be caught
/// by `validate` / `CompiledClause::compile` / `FeedbackRuleSet::try_new`
/// instead of panicking inside `Predicate::eval` at scan time.
#[test]
fn parsed_rules_can_fail_validation_against_a_drifted_schema() {
    use frote_data::Dataset;
    use frote_rules::{CompiledClause, RuleError};

    let authoring = schema();
    // Serving schema drift: "job" became numeric (a seniority score),
    // "region" lost its "south" category, and "income" was dropped —
    // renumbering features after it.
    let serving = Schema::builder("approved", vec!["no".into(), "yes".into(), "review".into()])
        .numeric("age")
        .numeric("income")
        .numeric("job")
        .build();
    let shrunk = Schema::builder("approved", vec!["no".into(), "yes".into(), "review".into()])
        .numeric("age")
        .numeric("income")
        .categorical("job", vec!["eng".into(), "teacher".into(), "retired".into()])
        .categorical("region", vec!["north".into()])
        .build();

    // Unknown feature: "region" (index 3) does not exist in `serving`.
    let clause = parse_clause("region = north", &authoring).unwrap();
    assert!(matches!(clause.validate(&serving), Err(RuleError::UnknownFeature { index: 3 })));
    assert!(CompiledClause::compile(&clause, &serving).is_err());

    // Operator drift: Ne parsed on categorical "job" is not allowed once
    // the serving schema holds it as numeric.
    let clause = parse_clause("job != eng", &authoring).unwrap();
    assert!(matches!(clause.validate(&serving), Err(RuleError::OperatorNotAllowed { .. })));
    assert!(CompiledClause::compile(&clause, &serving).is_err());

    // Out-of-vocabulary category: "south" (code 1) parsed fine but the
    // shrunk vocabulary only holds "north".
    let clause = parse_clause("region = south", &authoring).unwrap();
    assert!(matches!(clause.validate(&shrunk), Err(RuleError::ValueKindMismatch { .. })));
    assert!(CompiledClause::compile(&clause, &shrunk).is_err());

    // Compiling against a dataset built on the drifted schema, or
    // ingesting the rule into a set for it, surfaces the same error as a
    // Result before any scan runs.
    let mut ds = Dataset::new(serving.clone());
    ds.push_row(&[Value::Num(30.0), Value::Num(50_000.0), Value::Num(3.0)], 1).unwrap();
    let clause = parse_clause("job = teacher", &authoring).unwrap();
    assert!(CompiledClause::compile(&clause, ds.schema()).is_err());
    let rule = FeedbackRule::deterministic(clause, 1);
    assert!(frote_rules::FeedbackRuleSet::try_new(vec![rule], ds.schema()).is_err());

    // And the same clauses validate (and compile) cleanly against the
    // schema they were authored for — the failures above are drift, not
    // over-strictness.
    for text in ["region = north", "job != eng", "region = south", "job = teacher"] {
        let clause = parse_clause(text, &authoring).unwrap();
        assert!(clause.validate(&authoring).is_ok(), "`{text}`");
        assert!(CompiledClause::compile(&clause, &authoring).is_ok(), "`{text}`");
    }
}

#[test]
fn parse_rejects_what_display_never_produces() {
    let s = schema();
    for bad in [
        "age < 29",             // missing => class
        "age < 29 => maybe",    // unknown class
        "height < 29 => yes",   // unknown feature
        "job > eng => yes",     // ordering operator on categorical
        "job = plumber => yes", // unknown category
        "age < abc => yes",     // non-numeric value
        "age < 29 AND => yes",  // dangling AND
        "=> yes",               // empty clause text
    ] {
        assert!(parse_rule(bad, &s).is_err(), "`{bad}` should not parse");
    }
}
