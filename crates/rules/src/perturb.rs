//! The §5.1 rule-perturbation protocol.
//!
//! The paper generates realistic feedback rules by extracting a rule-set
//! explanation of an initial model (BRCG; our stand-in lives in
//! `frote-induct`) and perturbing those rules "to simulate users providing
//! feedback that deviates from the model's predictions". For each seed rule,
//! three perturbations are applied:
//!
//! 1. a random predicate's operator is reversed (`=` <-> `!=`, `<=` <-> `>=`,
//!    `<` <-> `>`),
//! 2. the selected predicate's value is re-drawn from the training data
//!    (categorical: a random *other* category; numeric: uniform within the
//!    column's observed min..max),
//! 3. a random condition from another rule is appended.
//!
//! Candidates are kept only when their coverage satisfies
//! `0.05 <= |cov(s, D)| / |D| < 0.25`, until the pool has the requested
//! number of rules.

use frote_data::stats::DatasetStats;
use frote_data::{Dataset, FeatureKind, Schema, Value};
use rand::seq::IndexedRandom;
use rand::Rng;

use crate::clause::Clause;
use crate::predicate::{Op, Predicate};
use crate::rule::FeedbackRule;

/// Parameters of the perturbation protocol.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerturbConfig {
    /// Number of rules to generate (the paper uses 100 per dataset).
    pub pool_size: usize,
    /// Inclusive lower bound on relative coverage (paper: 0.05).
    pub min_coverage: f64,
    /// Exclusive upper bound on relative coverage (paper: 0.25).
    pub max_coverage: f64,
    /// Candidate attempts before giving up (the synthetic concepts always
    /// admit pools well under this bound).
    pub max_tries: usize,
}

impl Default for PerturbConfig {
    fn default() -> Self {
        PerturbConfig { pool_size: 100, min_coverage: 0.05, max_coverage: 0.25, max_tries: 50_000 }
    }
}

/// Generates a pool of perturbed feedback rules from `seed_rules`, each
/// paired with the index of the seed rule it was perturbed from. The
/// Overlay baseline needs this mapping: Daly et al.'s patch layer triggers
/// on the *original* explanation rule's region, not only on the edited
/// feedback rule's.
///
/// Each produced rule is deterministic with a class drawn uniformly from the
/// classes *other than* its seed rule's class — the "deviates from the
/// model's predictions" part of the protocol. Returns fewer than
/// `config.pool_size` rules only if `config.max_tries` is exhausted (tiny or
/// degenerate datasets).
///
/// # Panics
///
/// Panics if `seed_rules` is empty, a seed rule has an empty clause, or the
/// schema has fewer than two classes.
pub fn generate_pool_with_provenance<R: Rng + ?Sized>(
    seed_rules: &[FeedbackRule],
    ds: &Dataset,
    schema: &Schema,
    config: &PerturbConfig,
    rng: &mut R,
) -> Vec<(FeedbackRule, usize)> {
    assert!(!seed_rules.is_empty(), "perturbation needs at least one seed rule");
    assert!(schema.n_classes() >= 2, "perturbation needs at least two classes");
    let stats = DatasetStats::of(ds);
    // Pool of conditions for perturbation 3: all predicates of all seeds.
    let condition_pool: Vec<Predicate> =
        seed_rules.iter().flat_map(|r| r.clause().predicates().iter().copied()).collect();

    let lo = (config.min_coverage * ds.n_rows() as f64).ceil() as usize;
    let hi = (config.max_coverage * ds.n_rows() as f64).ceil() as usize;

    let mut pool = Vec::with_capacity(config.pool_size);
    let mut tries = 0;
    while pool.len() < config.pool_size && tries < config.max_tries {
        tries += 1;
        let seed_idx = rng.random_range(0..seed_rules.len());
        let seed = &seed_rules[seed_idx];
        if seed.clause().is_empty() {
            panic!("seed rules must have non-empty clauses");
        }
        let clause = perturb_clause(seed.clause(), &condition_pool, schema, &stats, rng);
        if clause.validate(schema).is_err() {
            continue;
        }
        let cov = clause.coverage_count(ds);
        if cov < lo || cov >= hi.max(lo + 1) {
            continue;
        }
        // Pick a class deviating from the seed's.
        let seed_class = seed.dist().mode();
        let n = schema.n_classes() as u32;
        let offset = rng.random_range(1..n);
        let class = (seed_class + offset) % n;
        pool.push((FeedbackRule::deterministic(clause, class), seed_idx));
    }
    pool
}

/// Applies the three §5.1 perturbations to one clause.
pub fn perturb_clause<R: Rng + ?Sized>(
    clause: &Clause,
    condition_pool: &[Predicate],
    schema: &Schema,
    stats: &DatasetStats,
    rng: &mut R,
) -> Clause {
    let mut preds: Vec<Predicate> = clause.predicates().to_vec();
    if preds.is_empty() {
        return clause.clone();
    }
    // 1. Reverse a random predicate's operator.
    let idx = rng.random_range(0..preds.len());
    let p = preds[idx];
    let new_op = reverse_for_kind(p.op(), schema.feature(p.feature()).kind());

    // 2. Re-draw the value of the selected predicate from the data.
    let new_value = redraw_value(&p, schema, stats, rng);
    preds[idx] = Predicate::new(p.feature(), new_op, new_value);

    // 3. Append a random condition from another rule (skipping conditions on
    // the feature we just touched, to avoid immediate contradictions).
    let candidates: Vec<&Predicate> = condition_pool
        .iter()
        .filter(|c| c.feature() != p.feature() && !preds.contains(c))
        .collect();
    if let Some(extra) = candidates.choose(rng) {
        preds.push(**extra);
    }
    Clause::new(preds)
}

/// Operator reversal restricted to operators legal on the feature kind:
/// numeric `=` has no legal reverse (`!=` is categorical-only), so it flips
/// to a random inequality instead.
fn reverse_for_kind(op: Op, kind: &FeatureKind) -> Op {
    let reversed = op.reversed();
    if reversed.allowed_on(kind) {
        reversed
    } else {
        // Numeric Eq -> Ne is disallowed; pick Ge (deterministic choice keeps
        // the protocol reproducible).
        Op::Ge
    }
}

fn redraw_value<R: Rng + ?Sized>(
    p: &Predicate,
    schema: &Schema,
    stats: &DatasetStats,
    rng: &mut R,
) -> Value {
    match schema.feature(p.feature()).kind() {
        FeatureKind::Categorical { categories } => {
            let current = p.value().as_cat().unwrap_or(0);
            let k = categories.len() as u32;
            if k <= 1 {
                return Value::Cat(current);
            }
            let offset = rng.random_range(1..k);
            Value::Cat((current + offset) % k)
        }
        FeatureKind::Numeric => {
            let s = stats.numeric(p.feature());
            match s {
                Some(s) if s.range() > 0.0 => Value::Num(rng.random_range(s.min..s.max)),
                Some(s) => Value::Num(s.min),
                None => p.value(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::LabelDist;
    use frote_data::synth::{DatasetKind, SynthConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (Dataset, Vec<FeedbackRule>) {
        let ds = DatasetKind::Car.generate(&SynthConfig { n_rows: 600, ..Default::default() });
        // Hand-written seed rules mimicking induction output.
        let r1 = FeedbackRule::deterministic(
            Clause::new(vec![Predicate::new(5, Op::Eq, Value::Cat(0))]),
            0,
        );
        let r2 = FeedbackRule::deterministic(
            Clause::new(vec![
                Predicate::new(0, Op::Eq, Value::Cat(3)),
                Predicate::new(3, Op::Ne, Value::Cat(0)),
            ]),
            1,
        );
        (ds, vec![r1, r2])
    }

    /// The pool's rules without their provenance.
    fn generate_rules(
        seeds: &[FeedbackRule],
        ds: &Dataset,
        schema: &Schema,
        cfg: &PerturbConfig,
        rng: &mut StdRng,
    ) -> Vec<FeedbackRule> {
        generate_pool_with_provenance(seeds, ds, schema, cfg, rng)
            .into_iter()
            .map(|(rule, _)| rule)
            .collect()
    }

    #[test]
    fn pool_respects_coverage_bounds() {
        let (ds, seeds) = setup();
        let schema = ds.schema().clone();
        let mut rng = StdRng::seed_from_u64(42);
        let cfg = PerturbConfig { pool_size: 20, ..Default::default() };
        let pool = generate_rules(&seeds, &ds, &schema, &cfg, &mut rng);
        assert_eq!(pool.len(), 20);
        let n = ds.n_rows() as f64;
        for rule in &pool {
            let c = rule.coverage_count(&ds) as f64 / n;
            assert!((0.05..0.25).contains(&c), "coverage {c} out of range");
            rule.validate(&schema).unwrap();
        }
    }

    #[test]
    fn pool_classes_deviate_from_seed() {
        let (ds, seeds) = setup();
        let schema = ds.schema().clone();
        let mut rng = StdRng::seed_from_u64(7);
        let cfg = PerturbConfig { pool_size: 30, ..Default::default() };
        let pool = generate_rules(&seeds, &ds, &schema, &cfg, &mut rng);
        // Every rule must be deterministic and reference a valid class.
        for rule in &pool {
            assert!(matches!(rule.dist(), LabelDist::Deterministic(_)));
        }
    }

    #[test]
    fn pool_generation_is_deterministic() {
        let (ds, seeds) = setup();
        let schema = ds.schema().clone();
        let cfg = PerturbConfig { pool_size: 10, ..Default::default() };
        let a = generate_rules(&seeds, &ds, &schema, &cfg, &mut StdRng::seed_from_u64(3));
        let b = generate_rules(&seeds, &ds, &schema, &cfg, &mut StdRng::seed_from_u64(3));
        assert_eq!(a, b);
    }

    #[test]
    fn perturb_clause_changes_something() {
        let (ds, seeds) = setup();
        let schema = ds.schema().clone();
        let stats = DatasetStats::of(&ds);
        let pool: Vec<Predicate> =
            seeds.iter().flat_map(|r| r.clause().predicates().to_vec()).collect();
        let mut rng = StdRng::seed_from_u64(1);
        let out = perturb_clause(seeds[0].clause(), &pool, &schema, &stats, &mut rng);
        assert_ne!(&out, seeds[0].clause());
    }

    #[test]
    fn numeric_seed_rules_work() {
        let ds =
            DatasetKind::WineQuality.generate(&SynthConfig { n_rows: 800, ..Default::default() });
        let schema = ds.schema().clone();
        let seeds = vec![FeedbackRule::deterministic(
            Clause::new(vec![Predicate::new(10, Op::Ge, Value::Num(11.0))]),
            4,
        )];
        let mut rng = StdRng::seed_from_u64(5);
        let cfg = PerturbConfig { pool_size: 10, ..Default::default() };
        let pool = generate_rules(&seeds, &ds, &schema, &cfg, &mut rng);
        assert!(!pool.is_empty());
        for r in &pool {
            r.validate(&schema).unwrap();
        }
    }

    #[test]
    #[should_panic(expected = "at least one seed rule")]
    fn empty_seeds_panic() {
        let (ds, _) = setup();
        let schema = ds.schema().clone();
        let mut rng = StdRng::seed_from_u64(0);
        generate_rules(&[], &ds, &schema, &PerturbConfig::default(), &mut rng);
    }

    #[test]
    fn provenance_indices_reference_seeds() {
        let (ds, seeds) = setup();
        let schema = ds.schema().clone();
        let mut rng = StdRng::seed_from_u64(9);
        let cfg = PerturbConfig { pool_size: 15, ..Default::default() };
        let pool = generate_pool_with_provenance(&seeds, &ds, &schema, &cfg, &mut rng);
        assert_eq!(pool.len(), 15);
        for (rule, seed_idx) in &pool {
            assert!(*seed_idx < seeds.len(), "provenance out of range");
            rule.validate(&schema).unwrap();
        }
        // Both seeds should be used across a pool of this size.
        let used: std::collections::HashSet<usize> = pool.iter().map(|&(_, s)| s).collect();
        assert!(used.len() >= 2, "only one seed ever used: {used:?}");
    }

    #[test]
    fn reverse_for_kind_keeps_legal_ops() {
        let num = FeatureKind::Numeric;
        assert_eq!(reverse_for_kind(Op::Le, &num), Op::Ge);
        assert_eq!(reverse_for_kind(Op::Eq, &num), Op::Ge); // Ne illegal on numeric
        let cat = FeatureKind::Categorical { categories: vec!["a".into(), "b".into()] };
        assert_eq!(reverse_for_kind(Op::Eq, &cat), Op::Ne);
    }
}
