//! The FROTE augmentation loop (paper Algorithm 1).

use frote_data::Dataset;
use frote_ml::{Classifier, TrainAlgorithm};
use frote_obs::{Counter, Gauge, Histogram};
use frote_rules::FeedbackRuleSet;
use rand::rngs::StdRng;

use crate::error::FroteError;
use crate::generate::{Generator, LabelPolicy};
use crate::modstrategy::ModStrategy;
use crate::objective::{empirical_j, ObjectiveWeights};
use crate::preselect::BasePopulation;
use crate::report::{FroteReport, IterationRecord};
use crate::select::{SelectCache, SelectionStrategy};

// Loop metrics (see frote-obs). The counters and the objective gauge are
// thread-invariant: accept/reject decisions and `Ĵ` are pinned bit-identical
// at any `FROTE_THREADS` by the determinism contract. Only the span timings
// vary run to run.
static ITERATIONS: Counter = Counter::new("frote.iterations");
static ACCEPTED: Counter = Counter::new("frote.accepted");
static REJECTED: Counter = Counter::new("frote.rejected");
static SYNTHETIC_ROWS: Counter = Counter::new("frote.synthetic_rows");
static ROWS_APPENDED: Counter = Counter::new("frote.rows_appended");
static ROWS_TRUNCATED: Counter = Counter::new("frote.rows_truncated");
static OBJECTIVE: Gauge = Gauge::new("frote.objective");
static ITERATION_SPAN: Histogram = Histogram::new("frote.iteration_ns");

/// Configuration of a FROTE run. Defaults mirror the paper's experimental
/// setup (§5.1): `q = 0.5`, `τ = 200`, `k = 5`, `random` selection,
/// `relabel` modification, 0.5/0.5 objective weighting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FroteConfig {
    /// Oversampling fraction `q`: the augmentation quota relative to `|D|`.
    pub oversampling_fraction: f64,
    /// Iteration limit `τ`: how many times the user is willing to run the
    /// training algorithm.
    pub iteration_limit: usize,
    /// Nearest-neighbour count `k` for generation and relaxation.
    pub k: usize,
    /// Instances generated per iteration `η`. `None` derives the paper's
    /// `q·|D|/τ` (line 1 of Algorithm 1); the paper also overrides this per
    /// dataset (e.g. 200 for Adult, 20 for Breast Cancer).
    pub instances_per_iteration: Option<usize>,
    /// Base-instance selection strategy (line 7).
    pub selection: SelectionStrategy,
    /// Input-dataset modification strategy applied before the loop.
    pub mod_strategy: ModStrategy,
    /// Weights of the internal objective `Ĵ`.
    pub weights: ObjectiveWeights,
    /// Labelling of generated instances.
    pub label_policy: LabelPolicy,
}

impl Default for FroteConfig {
    fn default() -> Self {
        FroteConfig {
            oversampling_fraction: 0.5,
            iteration_limit: 200,
            k: 5,
            instances_per_iteration: None,
            selection: SelectionStrategy::Random,
            mod_strategy: ModStrategy::Relabel,
            weights: ObjectiveWeights::default(),
            label_policy: LabelPolicy::FromRule,
        }
    }
}

/// The FROTE editor. Construct with [`Frote::new`] or [`Frote::builder`],
/// then call [`Frote::run`].
#[derive(Debug, Clone)]
pub struct Frote {
    config: FroteConfig,
}

/// Output of a FROTE run.
pub struct FroteOutput {
    /// The augmented dataset `D̂` — retraining on it yields the edited model.
    pub dataset: Dataset,
    /// The model trained on the final `D̂` (the last retrain of the loop).
    pub model: Box<dyn Classifier>,
    /// Progress trace.
    pub report: FroteReport,
}

impl Frote {
    /// Creates an editor from a full configuration.
    pub fn new(config: FroteConfig) -> Self {
        Frote { config }
    }

    /// Starts a builder with the paper's defaults.
    pub fn builder() -> FroteBuilder {
        FroteBuilder { config: FroteConfig::default() }
    }

    /// The configuration in use.
    pub fn config(&self) -> &FroteConfig {
        &self.config
    }

    /// Runs Algorithm 1: modifies `input` per the mod strategy, then
    /// iteratively generates rule-constrained synthetic instances, keeping a
    /// candidate dataset only when retraining on it improves the empirical
    /// objective.
    ///
    /// # Errors
    ///
    /// - [`FroteError::EmptyDataset`] / [`FroteError::EmptyRuleSet`] on empty
    ///   inputs (including a `drop` strategy that empties the dataset),
    /// - [`FroteError::Rules`] if the FRS fails validation or has conflicts,
    /// - [`FroteError::InvalidConfig`] for non-positive `τ`/`k` or a negative
    ///   `q`,
    /// - [`FroteError::DatasetTooSmall`] when `|D| < k + 1`.
    pub fn run(
        &self,
        input: &Dataset,
        algorithm: &dyn TrainAlgorithm,
        frs: &FeedbackRuleSet,
        rng: &mut StdRng,
    ) -> Result<FroteOutput, FroteError> {
        self.run_with_observer(input, algorithm, frs, rng, |_, _| {})
    }

    /// Like [`Frote::run`], but invokes `observer` after every iteration with
    /// the candidate model and the iteration record. Used by the evaluation
    /// harness to track held-out-test objectives during augmentation (the
    /// paper's Figure 9).
    ///
    /// # Errors
    ///
    /// As [`Frote::run`].
    pub fn run_with_observer<F>(
        &self,
        input: &Dataset,
        algorithm: &dyn TrainAlgorithm,
        frs: &FeedbackRuleSet,
        rng: &mut StdRng,
        mut observer: F,
    ) -> Result<FroteOutput, FroteError>
    where
        F: FnMut(&dyn Classifier, &IterationRecord),
    {
        let cfg = &self.config;
        if input.is_empty() {
            return Err(FroteError::EmptyDataset);
        }
        if frs.is_empty() {
            return Err(FroteError::EmptyRuleSet);
        }
        frs.validate(input.schema())?;
        frs.require_effectively_conflict_free(input.schema())?;
        if cfg.iteration_limit == 0 {
            return Err(FroteError::InvalidConfig {
                detail: "iteration limit must be >= 1".into(),
            });
        }
        if cfg.k == 0 {
            return Err(FroteError::InvalidConfig { detail: "k must be >= 1".into() });
        }
        if cfg.oversampling_fraction < 0.0 {
            return Err(FroteError::InvalidConfig {
                detail: "oversampling fraction must be non-negative".into(),
            });
        }

        // Line 1: η ← q|D|/τ (unless overridden), D̂ ← D (after modification).
        let quota = (cfg.oversampling_fraction * input.n_rows() as f64).round() as usize;
        let eta =
            cfg.instances_per_iteration.unwrap_or_else(|| (quota / cfg.iteration_limit).max(1));
        let mut active = cfg.mod_strategy.apply(input, frs);
        if active.is_empty() {
            return Err(FroteError::EmptyDataset);
        }
        if active.n_rows() < cfg.k + 1 {
            return Err(FroteError::DatasetTooSmall { rows: active.n_rows(), required: cfg.k + 1 });
        }

        // Lines 2-4: initial model, objective, base population. The rule
        // set is compiled onto the columnar engine once — every objective
        // evaluation reads coverage from incrementally synced bitmasks.
        let mut select_cache = SelectCache::new();
        let mut model = algorithm.train(&active);
        let initial = {
            let masks = select_cache.rule_masks(frs, &active);
            empirical_j(model.as_ref(), &active, frs, &cfg.weights, masks)
        };
        let mut best = initial;
        let mut bp = BasePopulation::pre_select(&active, frs, cfg.k);

        // Lines 5-18: the augmentation loop. D̂, the model and the base
        // population change only on an accept, so the select cache replays
        // the last rng-free selection (line 7) after every reject: IP's kNN
        // weights and simplex run once per accept, not once per iteration.
        let mut iterations = Vec::new();
        let mut total_added = 0usize;
        let mut i = 0usize;
        while i < cfg.iteration_limit && total_added <= quota {
            let _span = ITERATION_SPAN.span();
            let base = cfg.selection.select(
                &active,
                frs,
                &bp,
                eta,
                cfg.k,
                model.as_ref(),
                &mut select_cache,
                rng,
            );
            if base.is_empty() {
                break; // no viable rule populations — nothing can be generated
            }
            let synthetic = {
                let generator = Generator::new(&active, frs, &bp, cfg.k, cfg.label_policy);
                generator.generate(&base, rng)
            };
            if synthetic.is_empty() {
                break;
            }
            let mut candidate = active.clone();
            candidate.extend_from(&synthetic).expect("generator preserves the schema");
            let candidate_model = algorithm.train(&candidate);
            // Line 11 (Ĵ_D̂(M_D', F)) is read as "the empirical objective
            // over the current candidate dataset": with tcf = 0 the only
            // rule-covered instances in existence are the synthetic ones in
            // D', so evaluating over the pre-augmentation D̂ would leave the
            // MRA term empty forever and no candidate could be accepted.
            let candidate_j = {
                let masks = select_cache.rule_masks(frs, &candidate);
                empirical_j(candidate_model.as_ref(), &candidate, frs, &cfg.weights, masks)
            };
            let accepted = candidate_j.j > best.j;
            let record = IterationRecord {
                iteration: i,
                accepted,
                proposed: synthetic.n_rows(),
                candidate: candidate_j,
                total_added: total_added + if accepted { synthetic.n_rows() } else { 0 },
            };
            observer(candidate_model.as_ref(), &record);
            ITERATIONS.inc();
            SYNTHETIC_ROWS.add(synthetic.n_rows() as u64);
            if accepted {
                ACCEPTED.inc();
                ROWS_APPENDED.add(synthetic.n_rows() as u64);
                OBJECTIVE.set(candidate_j.j);
                active = candidate;
                model = candidate_model;
                best = candidate_j;
                total_added += synthetic.n_rows();
                bp = BasePopulation::pre_select(&active, frs, cfg.k);
            } else {
                REJECTED.inc();
                ROWS_TRUNCATED.add(synthetic.n_rows() as u64);
                // Roll the rule-mask plane back to the surviving rows so the
                // next candidate's rows replace the rejected ones.
                select_cache.truncate_rule_masks(active.n_rows());
            }
            iterations.push(record);
            i += 1;
        }

        let final_objective = {
            let masks = select_cache.rule_masks(frs, &active);
            empirical_j(model.as_ref(), &active, frs, &cfg.weights, masks)
        };
        Ok(FroteOutput {
            dataset: active,
            model,
            report: FroteReport {
                initial,
                iterations,
                final_objective,
                instances_added: total_added,
            },
        })
    }
}

/// Builder for [`Frote`]; see [`Frote::builder`].
#[derive(Debug, Clone)]
pub struct FroteBuilder {
    config: FroteConfig,
}

impl FroteBuilder {
    /// Sets the oversampling fraction `q`.
    pub fn oversampling_fraction(mut self, q: f64) -> Self {
        self.config.oversampling_fraction = q;
        self
    }

    /// Sets the iteration limit `τ`.
    pub fn iteration_limit(mut self, tau: usize) -> Self {
        self.config.iteration_limit = tau;
        self
    }

    /// Sets the neighbour count `k`.
    pub fn k(mut self, k: usize) -> Self {
        self.config.k = k;
        self
    }

    /// Overrides the per-iteration generation count `η`.
    pub fn instances_per_iteration(mut self, eta: usize) -> Self {
        self.config.instances_per_iteration = Some(eta);
        self
    }

    /// Sets the selection strategy.
    pub fn selection(mut self, s: SelectionStrategy) -> Self {
        self.config.selection = s;
        self
    }

    /// Sets the input modification strategy.
    pub fn mod_strategy(mut self, m: ModStrategy) -> Self {
        self.config.mod_strategy = m;
        self
    }

    /// Sets the objective weights.
    pub fn weights(mut self, w: ObjectiveWeights) -> Self {
        self.config.weights = w;
        self
    }

    /// Sets the label policy for generated instances.
    pub fn label_policy(mut self, p: LabelPolicy) -> Self {
        self.config.label_policy = p;
        self
    }

    /// Finalizes the editor.
    pub fn build(self) -> Frote {
        Frote { config: self.config }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use frote_data::synth::{DatasetKind, SynthConfig};
    use frote_data::{Schema, Value};
    use frote_ml::forest::{ForestParams, RandomForestTrainer};
    use frote_rules::{parse::parse_rule, Clause, FeedbackRule, LabelDist};
    use rand::SeedableRng;

    fn fast_trainer() -> RandomForestTrainer {
        RandomForestTrainer::new(ForestParams { n_trees: 8, ..Default::default() }, 42)
    }

    fn quick_config() -> FroteConfig {
        FroteConfig { iteration_limit: 6, instances_per_iteration: Some(20), ..Default::default() }
    }

    #[test]
    fn improves_objective_on_planted_scenario() {
        let ds = DatasetKind::Car.generate(&SynthConfig { n_rows: 400, ..Default::default() });
        // A rule that contradicts the planted concept: low safety -> "acc".
        let rule = parse_rule("safety = low AND buying = low => acc", ds.schema()).unwrap();
        let frs = FeedbackRuleSet::new(vec![rule]);
        let mut rng = StdRng::seed_from_u64(42);
        let out = Frote::new(quick_config()).run(&ds, &fast_trainer(), &frs, &mut rng).unwrap();
        // Relabel + augmentation: final objective must not be worse than the
        // initial one (Algorithm 1 never accepts a worse dataset).
        assert!(out.report.final_objective.j + 1e-9 >= out.report.initial.j);
        assert_eq!(out.dataset.n_rows(), 400 + out.report.instances_added, "row accounting");
    }

    #[test]
    fn never_accepts_a_worse_candidate() {
        let ds = DatasetKind::Car.generate(&SynthConfig { n_rows: 300, ..Default::default() });
        let rule = parse_rule("safety = med => good", ds.schema()).unwrap();
        let frs = FeedbackRuleSet::new(vec![rule]);
        let mut rng = StdRng::seed_from_u64(7);
        let out = Frote::new(quick_config()).run(&ds, &fast_trainer(), &frs, &mut rng).unwrap();
        let mut floor = out.report.initial.j;
        for r in &out.report.iterations {
            if r.accepted {
                assert!(r.candidate.j > floor, "accepted non-improving iteration {r:?}");
                floor = r.candidate.j;
            }
        }
    }

    #[test]
    fn respects_quota_and_iteration_limit() {
        let ds = DatasetKind::Car.generate(&SynthConfig { n_rows: 300, ..Default::default() });
        let rule = parse_rule("safety = high => vgood", ds.schema()).unwrap();
        let frs = FeedbackRuleSet::new(vec![rule]);
        let config = FroteConfig {
            oversampling_fraction: 0.1,
            iteration_limit: 4,
            instances_per_iteration: Some(10),
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(1);
        let out = Frote::new(config).run(&ds, &fast_trainer(), &frs, &mut rng).unwrap();
        assert!(out.report.n_iterations() <= 4);
        // Quota is 30; the loop stops once total exceeds it, so at most one
        // extra batch of 10 can slip in.
        assert!(out.report.instances_added <= 40);
    }

    #[test]
    fn validation_errors() {
        let ds = DatasetKind::Car.generate(&SynthConfig { n_rows: 100, ..Default::default() });
        let rule = parse_rule("safety = high => vgood", ds.schema()).unwrap();
        let frs = FeedbackRuleSet::new(vec![rule.clone()]);
        let trainer = fast_trainer();
        let mut rng = StdRng::seed_from_u64(0);

        let empty = Dataset::new(ds.schema().clone());
        assert!(matches!(
            Frote::new(quick_config()).run(&empty, &trainer, &frs, &mut rng),
            Err(FroteError::EmptyDataset)
        ));
        assert!(matches!(
            Frote::new(quick_config()).run(&ds, &trainer, &FeedbackRuleSet::empty(), &mut rng),
            Err(FroteError::EmptyRuleSet)
        ));
        let bad_cfg = FroteConfig { iteration_limit: 0, ..Default::default() };
        assert!(matches!(
            Frote::new(bad_cfg).run(&ds, &trainer, &frs, &mut rng),
            Err(FroteError::InvalidConfig { .. })
        ));
        let bad_cfg = FroteConfig { oversampling_fraction: -0.5, ..Default::default() };
        assert!(matches!(
            Frote::new(bad_cfg).run(&ds, &trainer, &frs, &mut rng),
            Err(FroteError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn conflicting_rules_rejected() {
        let ds = DatasetKind::Car.generate(&SynthConfig { n_rows: 100, ..Default::default() });
        let frs = FeedbackRuleSet::new(vec![
            parse_rule("safety = high => vgood", ds.schema()).unwrap(),
            parse_rule("safety = high => unacc", ds.schema()).unwrap(),
        ]);
        let mut rng = StdRng::seed_from_u64(0);
        assert!(matches!(
            Frote::new(quick_config()).run(&ds, &fast_trainer(), &frs, &mut rng),
            Err(FroteError::Rules(_))
        ));
    }

    #[test]
    fn tiny_dataset_rejected() {
        let schema = Schema::builder("y", vec!["a".into(), "b".into()]).numeric("x").build();
        let mut tiny = Dataset::new(schema);
        for i in 0..3 {
            tiny.push_row(&[Value::Num(i as f64)], 0).unwrap();
        }
        let frs = FeedbackRuleSet::new(vec![FeedbackRule::new(
            Clause::always_true(),
            LabelDist::Deterministic(1),
        )]);
        let mut rng = StdRng::seed_from_u64(0);
        assert!(matches!(
            Frote::new(quick_config()).run(&tiny, &fast_trainer(), &frs, &mut rng),
            Err(FroteError::DatasetTooSmall { rows: 3, required: 6 })
        ));
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let ds = DatasetKind::Mushroom.generate(&SynthConfig { n_rows: 300, ..Default::default() });
        let rule = parse_rule("bruises = bruises-1 => poisonous", ds.schema()).unwrap();
        let frs = FeedbackRuleSet::new(vec![rule]);
        let trainer = fast_trainer();
        let a = Frote::new(quick_config())
            .run(&ds, &trainer, &frs, &mut StdRng::seed_from_u64(9))
            .unwrap();
        let b = Frote::new(quick_config())
            .run(&ds, &trainer, &frs, &mut StdRng::seed_from_u64(9))
            .unwrap();
        assert_eq!(a.dataset, b.dataset);
        assert_eq!(a.report, b.report);
    }

    #[test]
    fn builder_roundtrip() {
        let frote = Frote::builder()
            .oversampling_fraction(0.3)
            .iteration_limit(12)
            .k(3)
            .instances_per_iteration(7)
            .selection(SelectionStrategy::Ip)
            .mod_strategy(ModStrategy::Drop)
            .weights(ObjectiveWeights { mra: 0.7, f1: 0.3 })
            .label_policy(LabelPolicy::Calibrated { p: 0.8 })
            .build();
        let c = frote.config();
        assert_eq!(c.oversampling_fraction, 0.3);
        assert_eq!(c.iteration_limit, 12);
        assert_eq!(c.k, 3);
        assert_eq!(c.instances_per_iteration, Some(7));
        assert_eq!(c.selection, SelectionStrategy::Ip);
        assert_eq!(c.mod_strategy, ModStrategy::Drop);
    }

    #[test]
    fn synthetic_rows_satisfy_their_rules() {
        let ds = DatasetKind::Car.generate(&SynthConfig { n_rows: 300, ..Default::default() });
        let rule = parse_rule("safety = low => vgood", ds.schema()).unwrap();
        let frs = FeedbackRuleSet::new(vec![rule.clone()]);
        let mut rng = StdRng::seed_from_u64(11);
        let out = Frote::new(quick_config()).run(&ds, &fast_trainer(), &frs, &mut rng).unwrap();
        // All appended rows (beyond the original 300) satisfy the rule's
        // clause and carry its class.
        let class = rule.dist().mode();
        for i in 300..out.dataset.n_rows() {
            assert!(rule.clause().satisfied_by(&out.dataset.row(i)));
            assert_eq!(out.dataset.label(i), class);
        }
    }
}
