//! Schema-matched synthetic generators for the paper's eight UCI datasets.
//!
//! The FROTE evaluation (Table 1) uses Adult, Breast Cancer, Nursery, Wine
//! Quality (white), Mushroom, Contraceptive, Car, and Splice. This environment
//! has no dataset downloads, so each generator reproduces the *schema* of its
//! dataset (instance count, numeric/nominal feature split, class count — the
//! properties Table 1 reports) and plants a learnable rule-based concept with
//! label noise, so that:
//!
//! - models trained on the data have real structure to learn,
//! - rule-set explanations extracted from those models have meaningful
//!   coverage, and
//! - FROTE's editing dynamics (decision boundaries movable by augmentation)
//!   are exercised on the same code paths as the paper's experiments.
//!
//! ```
//! use frote_data::synth::{DatasetKind, SynthConfig};
//! let ds = DatasetKind::Car.generate(&SynthConfig { n_rows: 200, ..Default::default() });
//! assert_eq!(ds.n_rows(), 200);
//! assert_eq!(ds.schema().n_classes(), 4);
//! ```

mod concept;
mod feature;
mod specs;

pub use concept::{ConceptCond, ConceptRule, PlantedConcept};
pub use feature::FeatureGen;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::dataset::Dataset;
use crate::schema::Schema;

/// Which of the paper's eight benchmark datasets to synthesize.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetKind {
    /// Adult census income — 45222 rows, 12 features (4 numeric / 8 nominal), 2 classes.
    Adult,
    /// Breast Cancer (Wisconsin diagnostic) — 569 rows, 30 numeric features, 2 classes.
    BreastCancer,
    /// Nursery — 12958 rows, 8 nominal features, 4 classes.
    Nursery,
    /// Wine Quality (white) — 4898 rows, 11 numeric features, 7 classes.
    WineQuality,
    /// Mushroom — 8124 rows, 21 nominal features, 2 classes.
    Mushroom,
    /// Contraceptive method choice — 1473 rows, 9 features (2/7), 3 classes.
    Contraceptive,
    /// Car evaluation — 1728 rows, 6 nominal features, 4 classes.
    Car,
    /// Splice-junction gene sequences — 3190 rows, 60 nominal features, 3 classes.
    Splice,
}

impl DatasetKind {
    /// All eight kinds in the paper's Table 1 order.
    pub const ALL: [DatasetKind; 8] = [
        DatasetKind::Adult,
        DatasetKind::BreastCancer,
        DatasetKind::Nursery,
        DatasetKind::WineQuality,
        DatasetKind::Mushroom,
        DatasetKind::Contraceptive,
        DatasetKind::Car,
        DatasetKind::Splice,
    ];

    /// Short display name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            DatasetKind::Adult => "Adult",
            DatasetKind::BreastCancer => "Breast Cancer",
            DatasetKind::Nursery => "Nursery",
            DatasetKind::WineQuality => "Wine Quality (white)",
            DatasetKind::Mushroom => "Mushroom",
            DatasetKind::Contraceptive => "Contraceptive",
            DatasetKind::Car => "Car",
            DatasetKind::Splice => "Splice",
        }
    }

    /// The paper's instance count for this dataset (Table 1).
    pub fn paper_n_rows(self) -> usize {
        match self {
            DatasetKind::Adult => 45222,
            DatasetKind::BreastCancer => 569,
            DatasetKind::Nursery => 12958,
            DatasetKind::WineQuality => 4898,
            DatasetKind::Mushroom => 8124,
            DatasetKind::Contraceptive => 1473,
            DatasetKind::Car => 1728,
            DatasetKind::Splice => 3190,
        }
    }

    /// Whether the dataset is binary (used by the Overlay comparison, which
    /// the paper restricts to binary datasets).
    pub fn is_binary(self) -> bool {
        matches!(self, DatasetKind::Adult | DatasetKind::BreastCancer | DatasetKind::Mushroom)
    }

    /// The generator spec (schema + feature generators + planted concept).
    pub fn spec(self) -> SynthSpec {
        match self {
            DatasetKind::Adult => specs::adult(),
            DatasetKind::BreastCancer => specs::breast_cancer(),
            DatasetKind::Nursery => specs::nursery(),
            DatasetKind::WineQuality => specs::wine_quality(),
            DatasetKind::Mushroom => specs::mushroom(),
            DatasetKind::Contraceptive => specs::contraceptive(),
            DatasetKind::Car => specs::car(),
            DatasetKind::Splice => specs::splice(),
        }
    }

    /// Generates the dataset under `config`.
    pub fn generate(self, config: &SynthConfig) -> Dataset {
        let spec = self.spec();
        spec.generate(config)
    }
}

/// Generation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SynthConfig {
    /// Number of rows to generate. `0` means use the paper's Table 1 count
    /// when generating through [`DatasetKind::generate`].
    pub n_rows: usize,
    /// Probability of replacing the concept label with a uniformly random
    /// other class (label noise).
    pub noise: f64,
    /// RNG seed. The paper runs with seed 42; the eval harness derives
    /// per-run streams from it.
    pub seed: u64,
}

impl Default for SynthConfig {
    fn default() -> Self {
        SynthConfig { n_rows: 0, noise: 0.08, seed: 42 }
    }
}

/// A complete generator spec: schema, per-feature samplers, planted concept.
#[derive(Debug, Clone)]
pub struct SynthSpec {
    schema: Schema,
    feature_gens: Vec<FeatureGen>,
    concept: PlantedConcept,
    paper_n_rows: usize,
}

impl SynthSpec {
    /// Builds a spec; used by the per-dataset constructors in this module and
    /// available for custom scenarios (see the `policy_update` example).
    ///
    /// # Panics
    ///
    /// Panics if `feature_gens.len() != schema.n_features()` or the concept
    /// references an out-of-range feature or class.
    pub fn new(
        schema: Schema,
        feature_gens: Vec<FeatureGen>,
        concept: PlantedConcept,
        paper_n_rows: usize,
    ) -> Self {
        assert_eq!(
            feature_gens.len(),
            schema.n_features(),
            "one feature generator per schema feature"
        );
        concept.validate(&schema);
        SynthSpec { schema, feature_gens, concept, paper_n_rows }
    }

    /// The schema this spec generates.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The planted labelling concept.
    pub fn concept(&self) -> &PlantedConcept {
        &self.concept
    }

    /// A copy of this spec with a different labelling concept (same schema
    /// and feature generators) — pair with
    /// [`PlantedConcept::with_rule_class`] to synthesize matched pre-/post-
    /// policy-change datasets.
    ///
    /// # Panics
    ///
    /// Panics if the concept does not validate against the schema.
    pub fn with_concept(&self, concept: PlantedConcept) -> SynthSpec {
        concept.validate(&self.schema);
        SynthSpec { concept, ..self.clone() }
    }

    /// Generates a dataset under `config` (`n_rows == 0` uses the paper
    /// count).
    pub fn generate(&self, config: &SynthConfig) -> Dataset {
        let n = if config.n_rows == 0 { self.paper_n_rows } else { config.n_rows };
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut ds = Dataset::new(self.schema.clone());
        let n_classes = self.schema.n_classes() as u32;
        let mut row = Vec::with_capacity(self.feature_gens.len());
        for _ in 0..n {
            row.clear();
            for g in &self.feature_gens {
                row.push(g.sample(&mut rng));
            }
            let mut label = self.concept.label(&row);
            if n_classes > 1 && rng.random::<f64>() < config.noise {
                let shift = rng.random_range(1..n_classes);
                label = (label + shift) % n_classes;
            }
            ds.push_row(&row, label).expect("spec-generated row matches schema");
        }
        ds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_eight_generate_with_correct_shapes() {
        let cfg = SynthConfig { n_rows: 120, ..Default::default() };
        for kind in DatasetKind::ALL {
            let ds = kind.generate(&cfg);
            assert_eq!(ds.n_rows(), 120, "{}", kind.name());
            let spec = kind.spec();
            assert_eq!(ds.schema(), spec.schema());
        }
    }

    #[test]
    fn table1_shapes_match_paper() {
        // (#numeric, #nominal, #classes) from Table 1.
        let expected = [
            (DatasetKind::Adult, 4, 8, 2),
            (DatasetKind::BreastCancer, 30, 0, 2),
            (DatasetKind::Nursery, 0, 8, 4),
            (DatasetKind::WineQuality, 11, 0, 7),
            (DatasetKind::Mushroom, 0, 21, 2),
            (DatasetKind::Contraceptive, 2, 7, 3),
            (DatasetKind::Car, 0, 6, 4),
            (DatasetKind::Splice, 0, 60, 3),
        ];
        for (kind, n_num, n_cat, n_classes) in expected {
            let s = kind.spec();
            assert_eq!(s.schema().n_numeric(), n_num, "{}", kind.name());
            assert_eq!(s.schema().n_categorical(), n_cat, "{}", kind.name());
            assert_eq!(s.schema().n_classes(), n_classes, "{}", kind.name());
        }
    }

    #[test]
    fn default_row_counts_match_table1() {
        for kind in DatasetKind::ALL {
            // Generate with n_rows=0 for the two smallest datasets only (the
            // big ones are exercised at paper scale by the bench binaries).
            if kind.paper_n_rows() < 2000 {
                let ds = kind.generate(&SynthConfig::default());
                assert_eq!(ds.n_rows(), kind.paper_n_rows());
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = SynthConfig { n_rows: 50, ..Default::default() };
        let a = DatasetKind::Mushroom.generate(&cfg);
        let b = DatasetKind::Mushroom.generate(&cfg);
        assert_eq!(a, b);
        let c = DatasetKind::Mushroom.generate(&SynthConfig { seed: 7, ..cfg });
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn labels_correlate_with_concept() {
        // With zero noise every label equals the concept label.
        let cfg = SynthConfig { n_rows: 300, noise: 0.0, ..Default::default() };
        let spec = DatasetKind::Car.spec();
        let ds = spec.generate(&cfg);
        for i in 0..ds.n_rows() {
            assert_eq!(ds.label(i), spec.concept().label(&ds.row(i)));
        }
    }

    #[test]
    fn every_class_appears_somewhere() {
        // At moderate sizes every dataset should touch all its classes; this
        // guards against degenerate concepts.
        let cfg = SynthConfig { n_rows: 3000, ..Default::default() };
        for kind in DatasetKind::ALL {
            let ds = kind.generate(&cfg);
            let counts = ds.class_counts();
            let present = counts.iter().filter(|&&c| c > 0).count();
            assert!(
                present >= ds.n_classes().min(3),
                "{} produced too few classes: {counts:?}",
                kind.name()
            );
        }
    }

    #[test]
    fn concept_edit_changes_only_the_edited_region() {
        let spec = DatasetKind::Car.spec();
        // Edit the first planted rule's class (low safety: unacc -> acc).
        let edited_concept = spec.concept().with_rule_class(0, 1);
        let edited = spec.with_concept(edited_concept);
        let cfg = SynthConfig { n_rows: 500, noise: 0.0, ..Default::default() };
        let before = spec.generate(&cfg);
        let after = edited.generate(&cfg);
        assert_eq!(before.n_rows(), after.n_rows());
        for i in 0..before.n_rows() {
            // Same seed => identical features.
            assert_eq!(before.row(i), after.row(i));
            let in_region = spec.concept().rules()[0].matches(&before.row(i));
            if in_region {
                assert_eq!(before.label(i), 0);
                assert_eq!(after.label(i), 1);
            } else {
                assert_eq!(before.label(i), after.label(i));
            }
        }
    }

    #[test]
    fn binary_flags() {
        assert!(DatasetKind::Mushroom.is_binary());
        assert!(!DatasetKind::Car.is_binary());
    }
}
