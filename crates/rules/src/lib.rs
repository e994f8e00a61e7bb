//! # frote-rules
//!
//! Feedback rules for the FROTE (MLSys 2022) reproduction: predicates,
//! clauses, deterministic and probabilistic rules, rule sets with coverage
//! and conflict handling, rule relaxation (the paper's Algorithm 2 helper),
//! the §5.1 rule-perturbation protocol, and a small textual rule parser.
//!
//! A feedback rule `R = (s, π)` states: IF the clause `s` holds THEN the
//! label is distributed according to `π` (paper §3.1). Clauses are
//! conjunctions of `(attribute, operator, value)` predicates; categorical
//! attributes allow `{=, !=}`, numeric attributes allow `{=, >, >=, <, <=}`.
//!
//! Every coverage scan runs on the compiled columnar [`engine`]: a clause
//! compiles to per-column predicate plans ([`CompiledClause`]) and a rule
//! set to a [`RuleMaskCache`] of per-rule [`RowMask`]s. The single-row
//! checks ([`Clause::satisfied_by`], [`FeedbackRuleSet::first_covering`])
//! serve generation and the Overlay baseline, which test one row at a
//! time.
//!
//! ```
//! use frote_data::{Schema, Dataset, Value};
//! use frote_rules::{Clause, FeedbackRule, LabelDist, Op, Predicate};
//!
//! let schema = Schema::builder("approved", vec!["no".into(), "yes".into()])
//!     .numeric("age")
//!     .categorical("marital", vec!["single".into(), "married".into()])
//!     .build();
//!
//! // "age < 29 AND marital = single => yes"
//! let rule = FeedbackRule::new(
//!     Clause::new(vec![
//!         Predicate::new(0, Op::Lt, Value::Num(29.0)),
//!         Predicate::new(1, Op::Eq, Value::Cat(0)),
//!     ]),
//!     LabelDist::deterministic(1),
//! );
//!
//! let mut ds = Dataset::new(schema);
//! ds.push_row(&[Value::Num(24.0), Value::Cat(0)], 0)?;
//! ds.push_row(&[Value::Num(44.0), Value::Cat(0)], 0)?;
//! assert_eq!(rule.coverage(&ds), vec![0]);
//! # Ok::<(), frote_data::DataError>(())
//! ```

#![warn(missing_docs)]

mod clause;
mod dist;
pub mod engine;
mod error;
pub mod parse;
pub mod perturb;
mod predicate;
pub mod relax;
mod rule;
mod ruleset;

pub use clause::Clause;
pub use dist::LabelDist;
pub use engine::{CompiledClause, MaskSync, RowMask, RuleMaskCache};
pub use error::RuleError;
pub use predicate::{Op, Predicate};
pub use rule::FeedbackRule;
pub use ruleset::{ConflictResolution, FeedbackRuleSet};
