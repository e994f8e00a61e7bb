//! Textual rule parsing.
//!
//! Rules "semantically resemble natural language" (paper §3.1); this module
//! lets examples and tests write them that way:
//!
//! ```
//! use frote_data::Schema;
//! use frote_rules::parse::parse_rule;
//!
//! let schema = Schema::builder("approved", vec!["no".into(), "yes".into()])
//!     .numeric("age")
//!     .categorical("marital", vec!["single".into(), "married".into()])
//!     .build();
//! let rule = parse_rule("age < 29 AND marital = single => yes", &schema)?;
//! assert_eq!(rule.clause().len(), 2);
//! # Ok::<(), frote_rules::RuleError>(())
//! ```
//!
//! Grammar: `predicate (AND predicate)* => class`, where a predicate is
//! `feature OP value` with `OP` one of `=`, `!=`, `>`, `>=`, `<`, `<=`.
//! Only deterministic rules are expressible in text; build probabilistic
//! rules programmatically with [`crate::LabelDist::probabilistic`].

use frote_data::{FeatureKind, Schema, Value};

use crate::clause::Clause;
use crate::error::RuleError;
use crate::predicate::{Op, Predicate};
use crate::rule::FeedbackRule;

/// Parses a deterministic rule like `"age < 29 AND job = eng => yes"`.
///
/// # Errors
///
/// Returns [`RuleError::Parse`] on malformed syntax and the usual validation
/// errors for unknown features, categories, classes, or illegal operators.
pub fn parse_rule(text: &str, schema: &Schema) -> Result<FeedbackRule, RuleError> {
    let (clause_text, class_text) = text.rsplit_once("=>").ok_or_else(|| RuleError::Parse {
        detail: "missing `=>` between clause and class".into(),
    })?;
    let class_name = class_text.trim();
    let class = schema
        .class_index(class_name)
        .ok_or_else(|| RuleError::Parse { detail: format!("unknown class {class_name:?}") })?;
    let clause = parse_clause(clause_text, schema)?;
    let rule = FeedbackRule::deterministic(clause, class);
    rule.validate(schema)?;
    Ok(rule)
}

/// Parses a conjunction like `"age < 29 AND job = eng"`. The literal `TRUE`
/// (any case) denotes the empty, always-true clause.
///
/// # Errors
///
/// Returns [`RuleError::Parse`] on malformed predicates or unknown names.
pub fn parse_clause(text: &str, schema: &Schema) -> Result<Clause, RuleError> {
    let text = text.trim();
    if text.eq_ignore_ascii_case("true") {
        return Ok(Clause::always_true());
    }
    let mut predicates = Vec::new();
    for part in split_and(text) {
        predicates.push(parse_predicate(part, schema)?);
    }
    Ok(Clause::new(predicates))
}

/// Splits on the keyword `AND` (case-insensitive, whole word).
fn split_and(text: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut rest = text;
    loop {
        let lower = rest.to_ascii_lowercase();
        match find_word(&lower, "and") {
            Some(pos) => {
                parts.push(rest[..pos].trim());
                rest = &rest[pos + 3..];
            }
            None => {
                parts.push(rest.trim());
                return parts;
            }
        }
    }
}

fn find_word(haystack: &str, word: &str) -> Option<usize> {
    let bytes = haystack.as_bytes();
    let mut start = 0;
    while let Some(pos) = haystack[start..].find(word) {
        let abs = start + pos;
        let before_ok = abs == 0 || bytes[abs - 1].is_ascii_whitespace();
        let after = abs + word.len();
        let after_ok = after == bytes.len() || bytes[after].is_ascii_whitespace();
        if before_ok && after_ok {
            return Some(abs);
        }
        start = abs + word.len();
    }
    None
}

/// Parses one predicate like `"age >= 30"` or `"job != law"`.
///
/// # Errors
///
/// Returns [`RuleError::Parse`] or a validation error.
pub fn parse_predicate(text: &str, schema: &Schema) -> Result<Predicate, RuleError> {
    // Longest operators first so ">=" doesn't parse as ">".
    const OPS: [(&str, Op); 6] = [
        (">=", Op::Ge),
        ("<=", Op::Le),
        ("!=", Op::Ne),
        (">", Op::Gt),
        ("<", Op::Lt),
        ("=", Op::Eq),
    ];
    let (op_pos, op_str, op) = OPS
        .iter()
        .filter_map(|&(s, o)| text.find(s).map(|p| (p, s, o)))
        .min_by_key(|&(p, s, _)| (p, std::cmp::Reverse(s.len())))
        .ok_or_else(|| RuleError::Parse { detail: format!("no operator in {text:?}") })?;
    let name = text[..op_pos].trim();
    let value_text = text[op_pos + op_str.len()..].trim();
    let feature = schema
        .feature_index(name)
        .ok_or_else(|| RuleError::UnknownFeatureName { name: name.to_string() })?;
    let value = match schema.feature(feature).kind() {
        FeatureKind::Numeric => {
            // `f64::from_str` also accepts `NaN`, `inf` and literals that
            // overflow to infinity (`1e400`); none is a usable threshold.
            let x = value_text.parse::<f64>().ok().filter(|x| x.is_finite()).ok_or_else(|| {
                RuleError::Parse { detail: format!("bad numeric value {value_text:?}") }
            })?;
            Value::Num(x)
        }
        FeatureKind::Categorical { categories } => {
            let c = categories.iter().position(|c| c == value_text).ok_or_else(|| {
                RuleError::Parse {
                    detail: format!("unknown category {value_text:?} for feature {name:?}"),
                }
            })?;
            Value::Cat(c as u32)
        }
    };
    let p = Predicate::new(feature, op, value);
    p.validate(schema)?;
    Ok(p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::LabelDist;

    fn schema() -> Schema {
        Schema::builder("approved", vec!["no".into(), "yes".into()])
            .numeric("age")
            .categorical("marital", vec!["single".into(), "married".into()])
            .numeric("income")
            .build()
    }

    #[test]
    fn full_rule_roundtrip() {
        let s = schema();
        let r = parse_rule("age < 29 AND marital = single AND income > 150 => yes", &s).unwrap();
        assert_eq!(r.clause().len(), 3);
        assert_eq!(r.dist(), &LabelDist::Deterministic(1));
        let text = r.display_with(&s).to_string();
        assert_eq!(text, "age < 29 AND marital = single AND income > 150 => yes");
        assert_eq!(parse_rule(&text, &s).unwrap(), r);
    }

    #[test]
    fn operators_parse_longest_first() {
        let s = schema();
        let p = parse_predicate("age >= 30", &s).unwrap();
        assert_eq!(p.op(), Op::Ge);
        let p = parse_predicate("marital != married", &s).unwrap();
        assert_eq!(p.op(), Op::Ne);
        assert_eq!(p.value(), Value::Cat(1));
    }

    #[test]
    fn true_clause() {
        let s = schema();
        let r = parse_rule("TRUE => no", &s).unwrap();
        assert!(r.clause().is_empty());
    }

    #[test]
    fn case_insensitive_and() {
        let s = schema();
        let c = parse_clause("age < 10 and income > 5", &s).unwrap();
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn error_cases() {
        let s = schema();
        assert!(matches!(parse_rule("age < 29", &s), Err(RuleError::Parse { .. })));
        assert!(matches!(parse_rule("age < 29 => maybe", &s), Err(RuleError::Parse { .. })));
        assert!(matches!(
            parse_rule("height < 29 => yes", &s),
            Err(RuleError::UnknownFeatureName { .. })
        ));
        assert!(parse_rule("age < abc => yes", &s).is_err());
        assert!(parse_rule("marital = widowed => yes", &s).is_err());
        // Illegal operator on categorical is caught by validation.
        assert!(parse_rule("marital > single => yes", &s).is_err());
    }

    #[test]
    fn non_finite_thresholds_are_parse_errors() {
        let s = schema();
        for value in
            ["NaN", "nan", "inf", "-inf", "+inf", "infinity", "-Infinity", "1e400", "-1e400"]
        {
            let text = format!("age < {value} => yes");
            assert!(
                matches!(parse_rule(&text, &s), Err(RuleError::Parse { .. })),
                "{text:?} must not parse"
            );
        }
        // Finite extremes and subnormal underflow still parse.
        for value in ["1.7976931348623157e308", "-1e308", "1e-400", "-0"] {
            assert!(parse_rule(&format!("age < {value} => yes"), &s).is_ok(), "{value}");
        }
    }

    #[test]
    fn feature_names_containing_and_are_safe() {
        let s = Schema::builder("y", vec!["a".into(), "b".into()])
            .numeric("sand") // contains "and" as substring, not a word
            .build();
        let c = parse_clause("sand > 3", &s).unwrap();
        assert_eq!(c.len(), 1);
    }
}
