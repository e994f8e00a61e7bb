//! Feedback rule sets: coverage union, conflict detection and resolution.

use frote_data::{Dataset, Schema, Value};

use crate::engine::RuleMaskCache;
use crate::error::RuleError;
use crate::rule::FeedbackRule;

/// How to resolve conflicting rules (paper §3.1 lists three options; the
/// third — asking the experts — is out of scope for a library).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConflictResolution {
    /// Drop the later rule of each conflicting pair (a degenerate but safe
    /// form of "removal of the intersection" when clause negation is not
    /// representable as a conjunction).
    DropLater,
    /// Create a new, more specific rule for the intersection carrying the
    /// even mixture of the two distributions; the intersection rule takes
    /// precedence over both originals (paper's option 2). Coverage
    /// attribution becomes first-match in specificity order.
    IntersectionMixture,
}

/// An ordered set of feedback rules (FRS).
///
/// Rules are kept in priority order: [`FeedbackRuleSet::first_covering`]
/// returns the earliest rule covering a row, which makes the *effective*
/// coverages disjoint as the paper's problem formalization assumes (§3.2).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FeedbackRuleSet {
    rules: Vec<FeedbackRule>,
}

impl FeedbackRuleSet {
    /// Creates a rule set from rules in priority order.
    pub fn new(rules: Vec<FeedbackRule>) -> Self {
        FeedbackRuleSet { rules }
    }

    /// The empty rule set.
    pub fn empty() -> Self {
        FeedbackRuleSet { rules: Vec::new() }
    }

    /// The rules in priority order.
    pub fn rules(&self) -> &[FeedbackRule] {
        &self.rules
    }

    /// Rule at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    pub fn rule(&self, index: usize) -> &FeedbackRule {
        &self.rules[index]
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether the set has no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Appends a rule with lowest priority.
    pub fn push(&mut self, rule: FeedbackRule) {
        self.rules.push(rule);
    }

    /// Validated construction: every rule is checked against `schema` and
    /// lowered through the engine's compile path
    /// ([`RuleMaskCache::compile`]) before the set exists, so
    /// expert-submitted or parsed rules are rejected with a [`RuleError`]
    /// before they can reach any scan.
    ///
    /// # Errors
    ///
    /// The first [`RuleError`] of validation or compilation, or
    /// [`RuleError::ConflictingRules`] when the rules conflict under
    /// first-match attribution.
    pub fn try_new(rules: Vec<FeedbackRule>, schema: &Schema) -> Result<Self, RuleError> {
        let set = FeedbackRuleSet { rules };
        RuleMaskCache::compile(&set, schema)?;
        set.require_effectively_conflict_free(schema)?;
        Ok(set)
    }

    /// Validated ingestion of one rule: `rule` is checked against `schema`,
    /// compiled, and the grown set re-checked for effective conflicts; on
    /// any failure the set is left unchanged.
    ///
    /// # Errors
    ///
    /// As [`FeedbackRuleSet::try_new`], for the candidate rule / grown set.
    pub fn try_push(&mut self, rule: FeedbackRule, schema: &Schema) -> Result<(), RuleError> {
        rule.validate(schema)?;
        crate::engine::CompiledClause::compile(rule.clause(), schema)?;
        self.rules.push(rule);
        match self.require_effectively_conflict_free(schema) {
            Ok(()) => Ok(()),
            Err(e) => {
                self.rules.pop();
                Err(e)
            }
        }
    }

    /// Iterates over the rules.
    pub fn iter(&self) -> std::slice::Iter<'_, FeedbackRule> {
        self.rules.iter()
    }

    /// Compiles the set against `ds`'s schema and evaluates every row once:
    /// the one mask evaluation that union coverage, outside coverage and
    /// first-match attribution all read. Callers that need more than one of
    /// them scan once and query the returned [`RuleMaskCache`].
    ///
    /// # Panics
    ///
    /// Panics with the [`RuleError`] text if a rule fails validation
    /// against `ds`'s schema; build the set with
    /// [`FeedbackRuleSet::try_new`] (or use [`RuleMaskCache::compile`]) for
    /// a `Result`.
    pub fn scan(&self, ds: &Dataset) -> RuleMaskCache {
        let mut masks = RuleMaskCache::compile(self, ds.schema())
            .unwrap_or_else(|e| panic!("rule set does not compile: {e}"));
        masks.eval_all(ds);
        masks
    }

    /// Union coverage over `ds` (paper Eq. 2): sorted, deduplicated row
    /// indices covered by at least one rule (panics as
    /// [`FeedbackRuleSet::scan`]).
    pub fn coverage(&self, ds: &Dataset) -> Vec<usize> {
        self.scan(ds).coverage()
    }

    /// Complement of [`FeedbackRuleSet::coverage`] over `ds`.
    pub fn outside_coverage(&self, ds: &Dataset) -> Vec<usize> {
        self.scan(ds).outside_coverage()
    }

    /// Index of the first (highest-priority) rule covering `row`.
    pub fn first_covering(&self, row: &[Value]) -> Option<usize> {
        self.rules.iter().position(|r| r.covers(row))
    }

    /// Validates every rule against `schema`.
    ///
    /// # Errors
    ///
    /// Returns the first [`RuleError`] found.
    pub fn validate(&self, schema: &Schema) -> Result<(), RuleError> {
        self.rules.iter().try_for_each(|r| r.validate(schema))
    }

    /// All conflicting pairs `(i, j)`, `i < j`: clause conjunction is
    /// satisfiable over the domain but the distributions differ (paper §3.1).
    pub fn conflicts(&self, schema: &Schema) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for i in 0..self.rules.len() {
            for j in i + 1..self.rules.len() {
                if self.rules_conflict(i, j, schema) {
                    out.push((i, j));
                }
            }
        }
        out
    }

    fn rules_conflict(&self, i: usize, j: usize, schema: &Schema) -> bool {
        let (a, b) = (&self.rules[i], &self.rules[j]);
        a.dist() != b.dist() && a.clause().and(b.clause()).satisfiable(schema)
    }

    /// Whether the set has no conflicts.
    pub fn is_conflict_free(&self, schema: &Schema) -> bool {
        self.conflicts(schema).is_empty()
    }

    /// Conflicts that survive first-match priority attribution: a raw
    /// conflict `(i, j)` is *masked* when a rule `k <= i` carries a clause
    /// semantically equal to the pair's intersection `clause_i AND clause_j`
    /// (same predicate set). Attribution then hands every overlap row to
    /// that dedicated intersection rule before the lower-priority member is
    /// consulted — exactly the structure
    /// [`ConflictResolution::IntersectionMixture`] creates, realizing the
    /// paper's "exclude the intersection from the two original rules"
    /// without clause negation. A merely-overlapping earlier rule does NOT
    /// mask: the conflict is then a real modelling ambiguity.
    pub fn effective_conflicts(&self, schema: &Schema) -> Vec<(usize, usize)> {
        let eq = |a: &crate::Clause, b: &crate::Clause| a.subset_of(b) && b.subset_of(a);
        self.conflicts(schema)
            .into_iter()
            .filter(|&(i, j)| {
                let overlap = self.rules[i].clause().and(self.rules[j].clause());
                // A fully-shadowed duplicate clause (rule j identical to the
                // would-be intersection rule) is user error, not resolution.
                if eq(self.rules[j].clause(), &overlap) {
                    return true;
                }
                !(0..=i).any(|k| eq(self.rules[k].clause(), &overlap))
            })
            .collect()
    }

    /// Errors with the first conflict that survives first-match attribution
    /// (see [`FeedbackRuleSet::effective_conflicts`]).
    ///
    /// # Errors
    ///
    /// Returns [`RuleError::ConflictingRules`] naming the first surviving
    /// pair.
    pub fn require_effectively_conflict_free(&self, schema: &Schema) -> Result<(), RuleError> {
        match self.effective_conflicts(schema).first() {
            Some(&(first, second)) => Err(RuleError::ConflictingRules { first, second }),
            None => Ok(()),
        }
    }

    /// Produces a conflict-free rule set using `strategy`.
    ///
    /// With [`ConflictResolution::IntersectionMixture`], for each conflicting
    /// pair a new rule `s1 AND s2 -> (π1+π2)/2` is prepended (higher
    /// priority); under first-match attribution this excludes the
    /// intersection from both originals, realizing the paper's option 2
    /// without clause negation. The intersection pass runs once and keeps
    /// every rule: wherever two rules of the result still overlap,
    /// first-match attribution lets the earlier one win.
    pub fn resolve_conflicts(
        &self,
        schema: &Schema,
        strategy: ConflictResolution,
    ) -> FeedbackRuleSet {
        match strategy {
            ConflictResolution::DropLater => self.resolve_drop_later(schema),
            ConflictResolution::IntersectionMixture => {
                let conflicts = self.conflicts(schema);
                if conflicts.is_empty() {
                    return self.clone();
                }
                let mut intersections = Vec::new();
                for &(i, j) in &conflicts {
                    let clause = self.rules[i].clause().and(self.rules[j].clause());
                    let dist =
                        self.rules[i].dist().mixture(self.rules[j].dist(), schema.n_classes());
                    intersections.push(FeedbackRule::new(clause, dist));
                }
                let mut rules = intersections;
                rules.extend(self.rules.iter().cloned());
                FeedbackRuleSet { rules }
            }
        }
    }

    fn resolve_drop_later(&self, schema: &Schema) -> FeedbackRuleSet {
        let mut kept: Vec<FeedbackRule> = Vec::new();
        for rule in &self.rules {
            let conflicts_with_kept = kept.iter().any(|k| {
                k.dist() != rule.dist() && k.clause().and(rule.clause()).satisfiable(schema)
            });
            if !conflicts_with_kept {
                kept.push(rule.clone());
            }
        }
        FeedbackRuleSet { rules: kept }
    }

    /// Effective (first-match) coverage attribution per rule over `ds`:
    /// `out[r]` lists the rows whose *first* covering rule is `r`. The
    /// resulting sets are disjoint, matching §3.2's assumption (panics as
    /// [`FeedbackRuleSet::scan`]).
    pub fn attributed_coverage(&self, ds: &Dataset) -> Vec<Vec<usize>> {
        self.scan(ds).attributed_coverage()
    }
}

impl FromIterator<FeedbackRule> for FeedbackRuleSet {
    fn from_iter<T: IntoIterator<Item = FeedbackRule>>(iter: T) -> Self {
        FeedbackRuleSet { rules: iter.into_iter().collect() }
    }
}

impl<'a> IntoIterator for &'a FeedbackRuleSet {
    type Item = &'a FeedbackRule;
    type IntoIter = std::slice::Iter<'a, FeedbackRule>;
    fn into_iter(self) -> Self::IntoIter {
        self.rules.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clause::Clause;
    use crate::dist::LabelDist;
    use crate::predicate::{Op, Predicate};

    fn schema() -> Schema {
        Schema::builder("y", vec!["a".into(), "b".into()])
            .numeric("x")
            .categorical("k", vec!["p".into(), "q".into()])
            .build()
    }

    fn ds() -> Dataset {
        let mut d = Dataset::new(schema());
        for (x, k, y) in [(1.0, 0, 0), (5.0, 1, 1), (9.0, 0, 1), (3.0, 1, 0)] {
            d.push_row(&[Value::Num(x), Value::Cat(k)], y).unwrap();
        }
        d
    }

    fn lt(t: f64) -> Clause {
        Clause::new(vec![Predicate::new(0, Op::Lt, Value::Num(t))])
    }

    fn ge(t: f64) -> Clause {
        Clause::new(vec![Predicate::new(0, Op::Ge, Value::Num(t))])
    }

    #[test]
    fn union_coverage_dedups() {
        let frs = FeedbackRuleSet::new(vec![
            FeedbackRule::deterministic(lt(4.0), 1),
            FeedbackRule::deterministic(lt(6.0), 1),
        ]);
        assert_eq!(frs.coverage(&ds()), vec![0, 1, 3]);
        assert_eq!(frs.outside_coverage(&ds()), vec![2]);
    }

    #[test]
    fn first_covering_respects_order() {
        let frs = FeedbackRuleSet::new(vec![
            FeedbackRule::deterministic(lt(4.0), 1),
            FeedbackRule::deterministic(lt(6.0), 0),
        ]);
        let d = ds();
        assert_eq!(frs.first_covering(&d.row(0)), Some(0));
        assert_eq!(frs.first_covering(&d.row(1)), Some(1));
        assert_eq!(frs.first_covering(&d.row(2)), None);
    }

    #[test]
    fn conflict_detection() {
        let s = schema();
        // Overlapping clauses, different classes -> conflict.
        let frs = FeedbackRuleSet::new(vec![
            FeedbackRule::deterministic(lt(5.0), 1),
            FeedbackRule::deterministic(lt(3.0), 0),
        ]);
        assert_eq!(frs.conflicts(&s), vec![(0, 1)]);
        assert!(!frs.is_conflict_free(&s));
        assert!(matches!(
            frs.require_effectively_conflict_free(&s),
            Err(RuleError::ConflictingRules { first: 0, second: 1 })
        ));

        // Disjoint clauses -> no conflict even with different classes.
        let frs = FeedbackRuleSet::new(vec![
            FeedbackRule::deterministic(lt(3.0), 1),
            FeedbackRule::deterministic(ge(3.0), 0),
        ]);
        assert!(frs.is_conflict_free(&s));

        // Same distribution -> no conflict even when overlapping.
        let frs = FeedbackRuleSet::new(vec![
            FeedbackRule::deterministic(lt(5.0), 1),
            FeedbackRule::deterministic(lt(3.0), 1),
        ]);
        assert!(frs.is_conflict_free(&s));
    }

    #[test]
    fn drop_later_resolution() {
        let s = schema();
        let frs = FeedbackRuleSet::new(vec![
            FeedbackRule::deterministic(lt(5.0), 1),
            FeedbackRule::deterministic(lt(3.0), 0),
            FeedbackRule::deterministic(ge(8.0), 0),
        ]);
        let resolved = frs.resolve_conflicts(&s, ConflictResolution::DropLater);
        assert_eq!(resolved.len(), 2);
        assert!(resolved.is_conflict_free(&s));
        // The non-conflicting third rule survives.
        assert_eq!(resolved.rule(1).clause(), &ge(8.0));
    }

    #[test]
    fn effective_conflicts_masked_by_intersection_rule() {
        let s = schema();
        let frs = FeedbackRuleSet::new(vec![
            FeedbackRule::deterministic(lt(5.0), 1),
            FeedbackRule::deterministic(lt(3.0), 0),
        ]);
        assert_eq!(frs.effective_conflicts(&s), vec![(0, 1)]);
        let resolved = frs.resolve_conflicts(&s, ConflictResolution::IntersectionMixture);
        // Raw conflicts remain (clauses overlap) but the mixture rule masks
        // them under first-match attribution.
        assert!(!resolved.conflicts(&s).is_empty());
        assert!(resolved.effective_conflicts(&s).is_empty());
        assert!(resolved.require_effectively_conflict_free(&s).is_ok());
    }

    #[test]
    fn intersection_mixture_resolution() {
        let s = schema();
        let frs = FeedbackRuleSet::new(vec![
            FeedbackRule::deterministic(lt(5.0), 1),
            FeedbackRule::deterministic(lt(3.0), 0),
        ]);
        let resolved = frs.resolve_conflicts(&s, ConflictResolution::IntersectionMixture);
        assert_eq!(resolved.len(), 3);
        // The intersection rule has top priority and a 50/50 mixture.
        let inter = resolved.rule(0);
        assert_eq!(inter.dist(), &LabelDist::Probabilistic(vec![0.5, 0.5]));
        // A row in the intersection attributes to the mixture rule.
        let d = ds();
        assert_eq!(resolved.first_covering(&d.row(0)), Some(0)); // x=1 < 3
                                                                 // A row in only the first rule attributes to it (now index 1).
        assert_eq!(resolved.first_covering(&d.row(3)), Some(1)); // x=3 in [3,5)
    }

    #[test]
    fn attributed_coverage_is_disjoint_partition_of_coverage() {
        let frs = FeedbackRuleSet::new(vec![
            FeedbackRule::deterministic(lt(4.0), 1),
            FeedbackRule::deterministic(lt(6.0), 1),
        ]);
        let d = ds();
        let attr = frs.attributed_coverage(&d);
        assert_eq!(attr[0], vec![0, 3]);
        assert_eq!(attr[1], vec![1]);
        let mut all: Vec<usize> = attr.concat();
        all.sort_unstable();
        assert_eq!(all, frs.coverage(&d));
    }

    #[test]
    fn collections_conveniences() {
        let frs: FeedbackRuleSet =
            vec![FeedbackRule::deterministic(lt(1.0), 0)].into_iter().collect();
        assert_eq!(frs.len(), 1);
        assert_eq!((&frs).into_iter().count(), 1);
        let mut frs = frs;
        frs.push(FeedbackRule::deterministic(ge(1.0), 1));
        assert_eq!(frs.iter().count(), 2);
        assert!(!frs.is_empty());
        assert!(FeedbackRuleSet::empty().is_empty());
    }

    #[test]
    fn validate_propagates() {
        let s = schema();
        let bad = FeedbackRuleSet::new(vec![FeedbackRule::deterministic(Clause::always_true(), 7)]);
        assert!(bad.validate(&s).is_err());
    }

    #[test]
    fn compiled_scans_pre_validate_instead_of_panicking() {
        let d = ds();
        // A kind-mismatched rule (numeric comparison against the
        // categorical feature) errors up front instead of panicking
        // mid-scan.
        let bad = FeedbackRule::deterministic(
            Clause::new(vec![Predicate::new(1, Op::Lt, Value::Num(1.0))]),
            0,
        );
        let bad_set = FeedbackRuleSet::new(vec![bad.clone()]);
        assert!(RuleMaskCache::compile(&bad_set, d.schema()).is_err());
        assert!(FeedbackRuleSet::try_new(vec![bad], d.schema()).is_err());

        // Valid sets: every set scan agrees with the single-row check.
        let good = FeedbackRuleSet::try_new(
            vec![FeedbackRule::deterministic(lt(4.0), 1), FeedbackRule::deterministic(lt(6.0), 1)],
            d.schema(),
        )
        .unwrap();
        let (mut covered, mut outside) = (Vec::new(), Vec::new());
        let mut attributed = vec![Vec::new(); good.len()];
        for i in 0..d.n_rows() {
            match good.first_covering(&d.row(i)) {
                Some(r) => {
                    covered.push(i);
                    attributed[r].push(i);
                }
                None => outside.push(i),
            }
        }
        assert_eq!(good.coverage(&d), covered);
        assert_eq!(good.outside_coverage(&d), outside);
        assert_eq!(good.attributed_coverage(&d), attributed);
    }

    #[test]
    #[should_panic(expected = "value kind does not match feature \"k\"")]
    fn set_scan_panics_with_the_rule_error_of_a_rule_that_does_not_compile() {
        // Category code 5 is outside `k`'s two-word vocabulary: the scan
        // reports the compile error instead of silently covering nothing.
        let frs = FeedbackRuleSet::new(vec![FeedbackRule::deterministic(
            Clause::new(vec![Predicate::new(1, Op::Eq, Value::Cat(5))]),
            0,
        )]);
        frs.coverage(&ds());
    }

    #[test]
    fn every_set_scan_panics_with_the_rule_error() {
        let d = ds();
        let frs = FeedbackRuleSet::new(vec![
            FeedbackRule::deterministic(lt(4.0), 1),
            FeedbackRule::deterministic(Clause::always_true(), 7),
        ]);
        let scans: [&dyn Fn(); 4] = [
            &|| drop(frs.scan(&d)),
            &|| drop(frs.coverage(&d)),
            &|| drop(frs.outside_coverage(&d)),
            &|| drop(frs.attributed_coverage(&d)),
        ];
        for scan in scans {
            let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(scan))
                .expect_err("a rule with an unknown class must not scan");
            let text = payload.downcast_ref::<String>().expect("formatted panic message");
            assert!(text.contains("unknown class index 7"), "{text}");
        }
    }

    #[test]
    fn try_new_rejects_malformed_and_conflicting_sets() {
        let s = schema();
        // Kind mismatch caught at ingestion, not mid-scan.
        let bad = FeedbackRule::deterministic(
            Clause::new(vec![Predicate::new(1, Op::Lt, Value::Num(1.0))]),
            0,
        );
        assert!(FeedbackRuleSet::try_new(vec![bad], &s).is_err());
        // Same-coverage rules with different classes conflict.
        let r1 = FeedbackRule::deterministic(lt(4.0), 0);
        let r2 = FeedbackRule::deterministic(lt(4.0), 1);
        assert!(matches!(
            FeedbackRuleSet::try_new(vec![r1.clone(), r2.clone()], &s),
            Err(RuleError::ConflictingRules { .. })
        ));
        // A well-formed set passes.
        let ok = FeedbackRuleSet::try_new(vec![r1], &s).unwrap();
        assert_eq!(ok.len(), 1);
    }

    #[test]
    fn try_push_leaves_set_unchanged_on_failure() {
        let s = schema();
        let mut frs =
            FeedbackRuleSet::try_new(vec![FeedbackRule::deterministic(lt(4.0), 0)], &s).unwrap();
        // Unknown feature index: rejected, set unchanged.
        let unknown = FeedbackRule::deterministic(
            Clause::new(vec![Predicate::new(9, Op::Lt, Value::Num(1.0))]),
            0,
        );
        assert!(frs.try_push(unknown, &s).is_err());
        assert_eq!(frs.len(), 1);
        // Conflicting rule: rejected after the conflict re-check, set
        // rolled back.
        let conflicting = FeedbackRule::deterministic(lt(4.0), 1);
        assert!(matches!(frs.try_push(conflicting, &s), Err(RuleError::ConflictingRules { .. })));
        assert_eq!(frs.len(), 1);
        // A compatible rule lands.
        frs.try_push(FeedbackRule::deterministic(ge(6.0), 1), &s).unwrap();
        assert_eq!(frs.len(), 2);
    }
}
