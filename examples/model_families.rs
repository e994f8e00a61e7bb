//! The black-box contract in action: FROTE edits the paper's three model
//! families — linear, bagged trees and boosted trees — through the same
//! `TrainAlgorithm` interface, with no model-specific code anywhere in the
//! editing loop (paper §3.2: the algorithm "can thus be used with any
//! classification algorithm that takes training data as input and produces
//! a classifier as output").
//!
//! ```sh
//! cargo run --release --example model_families
//! ```

use frote::objective::paper_j;
use frote::{Frote, FroteConfig};
use frote_data::split::train_test_split;
use frote_data::synth::{DatasetKind, SynthConfig};
use frote_ml::forest::RandomForestTrainer;
use frote_ml::gbdt::GbdtTrainer;
use frote_ml::logreg::LogisticRegressionTrainer;
use frote_ml::TrainAlgorithm;
use frote_rules::parse::parse_rule;
use frote_rules::FeedbackRuleSet;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let ds =
        DatasetKind::Contraceptive.generate(&SynthConfig { n_rows: 1000, ..Default::default() });
    let mut rng = StdRng::seed_from_u64(42);
    let (train, test) = train_test_split(&ds, 0.7, &mut rng);

    let rule = parse_rule("wife-age < 28 AND wife-education = wedu3 => long-term", ds.schema())?;
    println!("feedback rule: {}\n", rule.display_with(ds.schema()));
    let frs = FeedbackRuleSet::new(vec![rule]);

    let families: Vec<Box<dyn TrainAlgorithm>> = vec![
        Box::new(LogisticRegressionTrainer::default()),
        Box::new(RandomForestTrainer::default()),
        Box::new(GbdtTrainer::default()),
    ];

    println!(
        "{:<6} {:>10} {:>10} {:>10} {:>10} {:>8}",
        "model", "MRA before", "MRA after", "F1 before", "F1 after", "added"
    );
    for trainer in families {
        let before_model = trainer.train(&train);
        let before = paper_j(before_model.as_ref(), &test, &frs);
        let config = FroteConfig {
            iteration_limit: 10,
            instances_per_iteration: Some(60),
            ..Default::default()
        };
        let mut run_rng = StdRng::seed_from_u64(42);
        let out = Frote::new(config).run(&train, trainer.as_ref(), &frs, &mut run_rng)?;
        let after = paper_j(out.model.as_ref(), &test, &frs);
        println!(
            "{:<6} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>8}",
            trainer.name(),
            before.mra,
            after.mra,
            before.f1,
            after.f1,
            out.report.instances_added
        );
    }
    println!("\nsame loop, same rules, three model families — zero model-specific code.");
    Ok(())
}
