//! # frote-overlay
//!
//! The Overlay baseline (Daly et al. 2021, "User driven model adjustment via
//! boolean rule explanations") that FROTE is compared against in the paper's
//! Table 2 and supplement Tables 7–8.
//!
//! Overlay is a *post-processing layer*: the underlying model is never
//! retrained. When a prediction request arrives, Overlay checks whether a
//! feedback rule covers the point and, if so:
//!
//! - **Hard constraints** ([`OverlayMode::Hard`]): return the feedback
//!   rule's class outright.
//! - **Soft constraints** ([`OverlayMode::Soft`]): transform the point into
//!   the model's own region for the rule's class and return the model's
//!   prediction on the transformed point, letting the model keep a say.
//!
//! Daly et al. derive the soft transformation from mappings between the
//! model's original explanation rules and the edited feedback rules. This
//! reproduction learns an equivalent data-driven transformation: features
//! constrained by the rule's clause stay fixed (they define the user's
//! region), while the remaining features are replaced by a *prototype* —
//! per-feature median/mode of the training points the model already assigns
//! to the target class. When the model never predicts the class, the
//! transformation has nothing to anchor to and Soft falls back to the raw
//! model prediction — reproducing the paper's finding that Overlay degrades
//! when feedback rules "differ too significantly from the underlying model".

#![warn(missing_docs)]

use frote_data::{Column, Dataset, Value};
use frote_ml::Classifier;
use frote_rules::{Clause, FeedbackRuleSet};

/// Hard vs. soft constraint handling (paper §5.2 "Comparison with the
/// existing work").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverlayMode {
    /// Feedback rules override the model inside their coverage.
    Hard,
    /// Covered inputs are transformed toward the model's region for the
    /// rule's class; the model's prediction on the transformed input wins.
    Soft,
}

/// The Overlay post-processing layer wrapping a trained model.
pub struct Overlay<'a> {
    model: &'a dyn Classifier,
    frs: FeedbackRuleSet,
    mode: OverlayMode,
    /// Trigger clauses aligned with the rules: the patch for rule `r` fires
    /// when the input matches the feedback clause **or** `triggers[r]`. In
    /// Daly et al. the trigger is the *original* model-explanation rule the
    /// user edited — the layer keys on the model's own region, which is what
    /// makes the patch misfire when the feedback deviates strongly. Empty
    /// triggers (the [`Overlay::new`] path) fall back to feedback clauses
    /// only.
    triggers: Vec<Option<Clause>>,
    /// `prototypes[c]` is the per-feature prototype of model-class `c`, or
    /// `None` when the model predicts `c` nowhere on the reference data.
    prototypes: Vec<Option<Vec<Value>>>,
}

impl<'a> Overlay<'a> {
    /// Builds an overlay over `model` with feedback rules `frs`, learning
    /// soft-transformation prototypes from `reference` (the training data).
    pub fn new(
        model: &'a dyn Classifier,
        frs: FeedbackRuleSet,
        mode: OverlayMode,
        reference: &Dataset,
    ) -> Self {
        let triggers = vec![None; frs.len()];
        Self::with_triggers(model, frs, triggers, mode, reference)
    }

    /// Builds an overlay whose rule `r` additionally fires on rows matching
    /// `triggers[r]` (the original explanation rule the user edited; see the
    /// field docs).
    ///
    /// # Panics
    ///
    /// Panics if `triggers.len() != frs.len()`.
    pub fn with_triggers(
        model: &'a dyn Classifier,
        frs: FeedbackRuleSet,
        triggers: Vec<Option<Clause>>,
        mode: OverlayMode,
        reference: &Dataset,
    ) -> Self {
        assert_eq!(triggers.len(), frs.len(), "one trigger slot per rule");
        let prototypes = match mode {
            OverlayMode::Hard => vec![None; model.n_classes()],
            OverlayMode::Soft => build_prototypes(model, reference),
        };
        Overlay { model, frs, mode, triggers, prototypes }
    }

    /// Index of the first rule whose feedback clause or trigger matches.
    fn applicable_rule(&self, row: &[Value]) -> Option<usize> {
        (0..self.frs.len()).find(|&r| {
            self.frs.rule(r).covers(row)
                || self.triggers[r].as_ref().is_some_and(|t| t.satisfied_by(row))
        })
    }

    /// The constraint mode.
    pub fn mode(&self) -> OverlayMode {
        self.mode
    }

    /// The wrapped rule set.
    pub fn rules(&self) -> &FeedbackRuleSet {
        &self.frs
    }

    /// Predicts with post-processing applied.
    pub fn predict(&self, row: &[Value]) -> u32 {
        match self.applicable_rule(row) {
            None => self.model.predict(row),
            Some(r) => {
                let rule = self.frs.rule(r);
                let target = rule.dist().mode();
                match self.mode {
                    OverlayMode::Hard => target,
                    OverlayMode::Soft => match self.transform(row, rule.clause(), target) {
                        Some(t) => self.model.predict(&t),
                        None => self.model.predict(row),
                    },
                }
            }
        }
    }

    /// Predictions for the dataset rows listed in `rows` (in that order),
    /// with a reused row scratch.
    pub fn predict_rows(&self, ds: &Dataset, rows: &[usize]) -> Vec<u32> {
        let mut row = Vec::with_capacity(ds.n_features());
        rows.iter()
            .map(|&i| {
                ds.row_into(i, &mut row);
                self.predict(&row)
            })
            .collect()
    }

    /// Predictions for a whole dataset, computed in parallel over row
    /// blocks with a reused row scratch (identical to the serial per-row
    /// loop at any `FROTE_THREADS`).
    pub fn predict_dataset(&self, ds: &Dataset) -> Vec<u32> {
        frote_par::par_blocks_map(ds.n_rows(), 256, |_, rows| {
            let mut row = Vec::with_capacity(ds.n_features());
            let mut out = Vec::with_capacity(rows.len());
            for i in rows {
                ds.row_into(i, &mut row);
                out.push(self.predict(&row));
            }
            out
        })
    }

    /// Soft transformation: keep clause-constrained features, replace the
    /// rest with the target class's prototype.
    fn transform(
        &self,
        row: &[Value],
        clause: &frote_rules::Clause,
        target: u32,
    ) -> Option<Vec<Value>> {
        let proto = self.prototypes.get(target as usize)?.as_ref()?;
        let constrained: Vec<bool> = {
            let mut c = vec![false; row.len()];
            for p in clause.predicates() {
                c[p.feature()] = true;
            }
            c
        };
        Some(
            row.iter()
                .zip(proto)
                .zip(&constrained)
                .map(|((&orig, &p), &keep)| if keep { orig } else { p })
                .collect(),
        )
    }
}

/// Per-class prototypes under the model's own predictions: medians of
/// numeric features, modes of categorical features.
fn build_prototypes(model: &dyn Classifier, reference: &Dataset) -> Vec<Option<Vec<Value>>> {
    let predicted = model.predict_dataset(reference);
    (0..model.n_classes() as u32)
        .map(|c| {
            let members: Vec<usize> =
                (0..reference.n_rows()).filter(|&i| predicted[i] == c).collect();
            if members.is_empty() {
                return None;
            }
            let proto = (0..reference.n_features())
                .map(|j| match reference.column(j) {
                    Column::Numeric(v) => {
                        let mut vals: Vec<f64> = members.iter().map(|&i| v[i]).collect();
                        vals.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
                        Value::Num(vals[vals.len() / 2])
                    }
                    Column::Categorical(v) => {
                        let card = reference
                            .schema()
                            .feature(j)
                            .kind()
                            .cardinality()
                            .expect("categorical");
                        let mut counts = vec![0usize; card];
                        for &i in &members {
                            counts[v[i] as usize] += 1;
                        }
                        let mode = counts
                            .iter()
                            .enumerate()
                            .max_by_key(|&(i, &c)| (c, std::cmp::Reverse(i)))
                            .map(|(i, _)| i as u32)
                            .expect("non-empty vocabulary");
                        Value::Cat(mode)
                    }
                })
                .collect();
            Some(proto)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use frote_data::Schema;
    use frote_rules::{Clause, FeedbackRule, LabelDist, Op, Predicate};

    /// A stub model: class 1 iff x >= 10.
    struct Threshold;
    impl Classifier for Threshold {
        fn n_classes(&self) -> usize {
            2
        }
        fn predict_proba_into(&self, row: &[Value], out: &mut Vec<f64>) {
            out.clear();
            if row[0].expect_num() >= 10.0 {
                out.extend_from_slice(&[0.0, 1.0]);
            } else {
                out.extend_from_slice(&[1.0, 0.0]);
            }
        }
    }

    fn reference() -> Dataset {
        let schema = Schema::builder("y", vec!["neg".into(), "pos".into()])
            .numeric("x")
            .numeric("z")
            .build();
        let mut ds = Dataset::new(schema);
        for i in 0..20 {
            let x = i as f64;
            ds.push_row(&[Value::Num(x), Value::Num(100.0 + x)], u32::from(x >= 10.0)).unwrap();
        }
        ds
    }

    fn rule_x_lt_5_is_pos() -> FeedbackRuleSet {
        FeedbackRuleSet::new(vec![FeedbackRule::new(
            Clause::new(vec![Predicate::new(0, Op::Lt, Value::Num(5.0))]),
            LabelDist::Deterministic(1),
        )])
    }

    #[test]
    fn hard_overrides_inside_coverage() {
        let model = Threshold;
        let ds = reference();
        let ov = Overlay::new(&model, rule_x_lt_5_is_pos(), OverlayMode::Hard, &ds);
        assert_eq!(ov.predict(&[Value::Num(2.0), Value::Num(0.0)]), 1); // overridden
        assert_eq!(ov.predict(&[Value::Num(7.0), Value::Num(0.0)]), 0); // outside rule
        assert_eq!(ov.predict(&[Value::Num(15.0), Value::Num(0.0)]), 1); // model
        assert_eq!(ov.mode(), OverlayMode::Hard);
        assert_eq!(ov.rules().len(), 1);
    }

    #[test]
    fn soft_keeps_constrained_features() {
        // Soft: x stays (it is clause-constrained), z is replaced by the
        // class-1 prototype median. The model only looks at x, so the rule
        // deviates too much and the model still answers 0 — exactly the
        // "rules too divergent" failure mode of the paper.
        let model = Threshold;
        let ds = reference();
        let ov = Overlay::new(&model, rule_x_lt_5_is_pos(), OverlayMode::Soft, &ds);
        assert_eq!(ov.predict(&[Value::Num(2.0), Value::Num(0.0)]), 0);
    }

    #[test]
    fn soft_wins_when_model_supports_class_via_unconstrained_features() {
        // A model that looks at z: class 1 iff z >= 110. A rule constraining
        // only x lets the prototype z (median of predicted-1 points) flip
        // the prediction.
        struct ZModel;
        impl Classifier for ZModel {
            fn n_classes(&self) -> usize {
                2
            }
            fn predict_proba_into(&self, row: &[Value], out: &mut Vec<f64>) {
                out.clear();
                if row[1].expect_num() >= 110.0 {
                    out.extend_from_slice(&[0.0, 1.0]);
                } else {
                    out.extend_from_slice(&[1.0, 0.0]);
                }
            }
        }
        let model = ZModel;
        let ds = reference();
        let ov = Overlay::new(&model, rule_x_lt_5_is_pos(), OverlayMode::Soft, &ds);
        // Covered point with small z: prototype z for class 1 is >= 110.
        assert_eq!(ov.predict(&[Value::Num(2.0), Value::Num(0.0)]), 1);
    }

    #[test]
    fn soft_falls_back_when_model_never_predicts_class() {
        struct AlwaysZero;
        impl Classifier for AlwaysZero {
            fn n_classes(&self) -> usize {
                2
            }
            fn predict_proba_into(&self, _row: &[Value], out: &mut Vec<f64>) {
                out.clear();
                out.extend_from_slice(&[1.0, 0.0]);
            }
        }
        let model = AlwaysZero;
        let ds = reference();
        let ov = Overlay::new(&model, rule_x_lt_5_is_pos(), OverlayMode::Soft, &ds);
        // No prototype for class 1 exists; prediction falls back to model.
        assert_eq!(ov.predict(&[Value::Num(2.0), Value::Num(0.0)]), 0);
    }

    #[test]
    fn predict_dataset_maps_rows() {
        let model = Threshold;
        let ds = reference();
        let ov = Overlay::new(&model, rule_x_lt_5_is_pos(), OverlayMode::Hard, &ds);
        let preds = ov.predict_dataset(&ds);
        assert_eq!(preds.len(), ds.n_rows());
        assert_eq!(preds[0], 1); // x=0 covered, overridden
        assert_eq!(preds[6], 0);
    }

    #[test]
    fn triggers_extend_the_patch_region() {
        use frote_rules::{Op, Predicate};
        let model = Threshold;
        let ds = reference();
        // Feedback rule covers x < 5; the original explanation rule the user
        // edited covered x < 12 — the patch keys on both regions.
        let trigger = Clause::new(vec![Predicate::new(0, Op::Lt, Value::Num(12.0))]);
        let ov = Overlay::with_triggers(
            &model,
            rule_x_lt_5_is_pos(),
            vec![Some(trigger)],
            OverlayMode::Hard,
            &ds,
        );
        // Inside the feedback clause: overridden.
        assert_eq!(ov.predict(&[Value::Num(2.0), Value::Num(0.0)]), 1);
        // Outside the feedback clause but inside the trigger: ALSO
        // overridden — the misfire that costs Overlay outside-coverage
        // F-score in the paper's Table 8.
        assert_eq!(ov.predict(&[Value::Num(8.0), Value::Num(0.0)]), 1);
        // Outside both: the raw model.
        assert_eq!(ov.predict(&[Value::Num(15.0), Value::Num(0.0)]), 1);
        assert_eq!(ov.predict(&[Value::Num(13.0), Value::Num(0.0)]), 1);
    }

    #[test]
    #[should_panic(expected = "one trigger slot per rule")]
    fn trigger_arity_checked() {
        let model = Threshold;
        let ds = reference();
        Overlay::with_triggers(&model, rule_x_lt_5_is_pos(), vec![], OverlayMode::Hard, &ds);
    }

    #[test]
    fn empty_ruleset_is_identity() {
        let model = Threshold;
        let ds = reference();
        let ov = Overlay::new(&model, FeedbackRuleSet::empty(), OverlayMode::Hard, &ds);
        for i in 0..ds.n_rows() {
            assert_eq!(ov.predict(&ds.row(i)), model.predict(&ds.row(i)));
        }
    }
}
