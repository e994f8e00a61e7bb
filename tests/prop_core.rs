//! Property-based tests for FROTE's core: generation invariants, objective
//! bounds, mod-strategy semantics, and the selection IP against brute force.

use frote::generate::{Generator, LabelPolicy};
use frote::objective::{empirical_j, ObjectiveWeights};
use frote::preselect::BasePopulation;
use frote::select::BaseInstance;
use frote::ModStrategy;
use frote_data::{Dataset, Schema, Value};
use frote_ml::Classifier;
use frote_opt::SelectionProblem;
use frote_rules::{Clause, FeedbackRule, FeedbackRuleSet, Op, Predicate};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn schema() -> Schema {
    Schema::builder("y", vec!["a".into(), "b".into()])
        .numeric("x0")
        .numeric("x1")
        .categorical("k", vec!["p".into(), "q".into(), "r".into()])
        .build()
}

prop_compose! {
    fn arb_dataset()(rows in proptest::collection::vec(
        (-30.0..30.0f64, -30.0..30.0f64, 0u32..3, 0u32..2), 12..60,
    )) -> Dataset {
        let mut ds = Dataset::new(schema());
        for (x0, x1, k, y) in rows {
            ds.push_row(&[Value::Num(x0), Value::Num(x1), Value::Cat(k)], y).unwrap();
        }
        ds
    }
}

fn arb_rule_clause() -> impl Strategy<Value = Clause> {
    // Mixed windows and categorical constraints, always satisfiable.
    (
        -20.0..0.0f64,
        1.0..20.0f64,
        0u32..3,
        prop_oneof![Just(Op::Eq), Just(Op::Ne)],
        proptest::bool::ANY,
        proptest::bool::ANY,
    )
        .prop_map(|(lo, width, cat, cat_op, use_lo, use_cat)| {
            let mut preds = Vec::new();
            if use_lo {
                preds.push(Predicate::new(0, Op::Gt, Value::Num(lo)));
            }
            preds.push(Predicate::new(0, Op::Le, Value::Num(lo + width)));
            if use_cat {
                preds.push(Predicate::new(2, cat_op, Value::Cat(cat)));
            }
            Clause::new(preds)
        })
}

/// A fixed stub classifier for objective properties.
struct Stub;
impl Classifier for Stub {
    fn n_classes(&self) -> usize {
        2
    }
    fn predict_proba_into(&self, row: &[Value], out: &mut Vec<f64>) {
        out.clear();
        if row[0].expect_num() > 0.0 {
            out.extend_from_slice(&[0.1, 0.9]);
        } else {
            out.extend_from_slice(&[0.9, 0.1]);
        }
    }
}

proptest! {
    /// Every generated instance satisfies its rule's original clause and
    /// carries the rule's class — regardless of how narrow the rule is
    /// relative to the data.
    #[test]
    fn generated_instances_satisfy_rules(
        ds in arb_dataset(),
        clause in arb_rule_clause(),
        seed in 0u64..500,
    ) {
        let frs = FeedbackRuleSet::new(vec![FeedbackRule::deterministic(clause.clone(), 1)]);
        let bp = BasePopulation::pre_select(&ds, &frs, 3);
        prop_assume!(!bp.population(0).members.is_empty());
        let generator = Generator::new(&ds, &frs, &bp, 3, LabelPolicy::FromRule);
        let mut rng = StdRng::seed_from_u64(seed);
        let base: Vec<BaseInstance> = bp.population(0).members
            .iter()
            .take(8)
            .map(|&row| BaseInstance::new(0, row))
            .collect();
        let out = generator.generate(&base, &mut rng);
        for i in 0..out.n_rows() {
            prop_assert!(clause.satisfied_by(&out.row(i)),
                "violating row {:?} for clause {}", out.row(i), clause);
            prop_assert_eq!(out.label(i), 1);
        }
    }

    /// The empirical objective is always within [0, 1] and equals the
    /// weighted average of its parts.
    #[test]
    fn objective_bounds(ds in arb_dataset(), clause in arb_rule_clause()) {
        let frs = FeedbackRuleSet::new(vec![FeedbackRule::deterministic(clause, 1)]);
        let w = ObjectiveWeights::default();
        let v = empirical_j(&Stub, &ds, &frs, &w, &frs.scan(&ds));
        prop_assert!((0.0..=1.0).contains(&v.j));
        prop_assert!((0.0..=1.0).contains(&v.mra));
        prop_assert!((0.0..=1.0).contains(&v.f1));
        let expected = 0.5 * v.mra + 0.5 * v.f1;
        // When coverage is empty, empirical_j substitutes 0 for the MRA term
        // while reporting the substituted value itself.
        prop_assert!((v.j - expected).abs() < 1e-9);
    }

    /// Relabel and drop leave no disagreeing covered instance behind, and
    /// never touch outside-coverage rows.
    #[test]
    fn mod_strategies_remove_disagreements(ds in arb_dataset(), clause in arb_rule_clause()) {
        let frs = FeedbackRuleSet::new(vec![FeedbackRule::deterministic(clause, 1)]);
        for strategy in [ModStrategy::Relabel, ModStrategy::Drop] {
            let out = strategy.apply(&ds, &frs);
            for (r, rows) in frs.attributed_coverage(&out).iter().enumerate() {
                for &i in rows {
                    prop_assert!(frs.rule(r).label_agrees(out.label(i)),
                        "{} left a disagreement", strategy.name());
                }
            }
        }
        // None is the identity.
        prop_assert_eq!(ModStrategy::None.apply(&ds, &frs), ds);
    }

    /// Drop removes exactly the disagreeing covered rows.
    #[test]
    fn drop_cardinality(ds in arb_dataset(), clause in arb_rule_clause()) {
        let frs = FeedbackRuleSet::new(vec![FeedbackRule::deterministic(clause, 1)]);
        let disagreeing = frs
            .attributed_coverage(&ds)
            .iter()
            .enumerate()
            .map(|(r, rows)| {
                rows.iter().filter(|&&i| !frs.rule(r).label_agrees(ds.label(i))).count()
            })
            .sum::<usize>();
        let out = ModStrategy::Drop.apply(&ds, &frs);
        prop_assert_eq!(out.n_rows(), ds.n_rows() - disagreeing);
    }

    /// The IP heuristic always returns a selection that satisfies the bounds
    /// whenever the exact solver proves the instance feasible.
    #[test]
    fn ip_heuristic_feasible_when_exact_is(
        weights in proptest::collection::vec(0.5..5.0f64, 8..14),
        masks in proptest::collection::vec(0u32..8, 2..4),
        lower in 1usize..3,
        extra in 0usize..4,
    ) {
        let p = weights.len();
        let coverage: Vec<Vec<usize>> = masks
            .iter()
            .map(|&m| (0..p).filter(|i| !(i + m as usize).is_multiple_of(3)).collect())
            .collect();
        let upper = lower + extra;
        let prob = SelectionProblem::new(weights, coverage, lower, upper);
        let exact = prob.solve_exact();
        let heur = prob.solve();
        match exact {
            Some(ex) => {
                prop_assert!(heur.feasible);
                prop_assert!(prob.is_feasible(&heur.selected));
                prop_assert!(heur.weight <= ex.weight + 1e-9);
            }
            None => prop_assert!(!heur.feasible),
        }
    }
}
