//! # frote
//!
//! FROTE — Feedback Rule-Driven Oversampling for Editing Models (Alkan et
//! al., MLSys 2022) — reproduced in Rust.
//!
//! Given an initial dataset `D`, a black-box training algorithm `A`, and a
//! conflict-free feedback rule set `F`, FROTE pre-processes and augments `D`
//! with rule-constrained SMOTE-style synthetic instances so that retraining
//! on the augmented `D̂` aligns the model with the rules (high model-rule
//! agreement) without sacrificing performance outside the rules' coverage
//! (paper Eq. 3). The README's Layout section lists the system's crates.
//!
//! The crate follows the paper's structure:
//!
//! - [`objective`] — the empirical objective `Ĵ` and the coverage-weighted
//!   test metric `J̄` (§3.2),
//! - [`ModStrategy`] — the `none` / `relabel` / `drop` input-dataset choices
//!   (§5.1),
//! - [`preselect`] — `PreSelectBP` with rule relaxation (Algorithm 2),
//! - [`select`] — `random` and `IP` base-instance selection (§4.1) plus the
//!   supplement's online-learning proxy,
//! - [`generate`] — rule-constrained synthetic instance generation
//!   (§4.2 + supplement A),
//! - [`Frote`] — the augmentation loop (Algorithm 1).
//!
//! # Example
//!
//! ```
//! use frote::{Frote, FroteConfig};
//! use frote_data::synth::{DatasetKind, SynthConfig};
//! use frote_ml::forest::RandomForestTrainer;
//! use frote_rules::{parse::parse_rule, FeedbackRuleSet};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let ds = DatasetKind::Car.generate(&SynthConfig { n_rows: 300, ..Default::default() });
//! let rule = parse_rule("safety = high AND persons = 4 => vgood", ds.schema())?;
//! let frs = FeedbackRuleSet::new(vec![rule]);
//!
//! let config = FroteConfig { iteration_limit: 5, ..Default::default() };
//! let mut rng = StdRng::seed_from_u64(42);
//! let out = Frote::new(config).run(&ds, &RandomForestTrainer::default(), &frs, &mut rng)?;
//! assert!(out.dataset.n_rows() >= ds.n_rows());
//! # Ok::<(), frote::FroteError>(())
//! ```

#![warn(missing_docs)]

mod error;
mod frote;
pub mod generate;
mod modstrategy;
pub mod objective;
pub mod preselect;
mod report;
pub mod select;

pub use error::FroteError;
pub use frote::{Frote, FroteBuilder, FroteConfig, FroteOutput};
pub use generate::LabelPolicy;
pub use modstrategy::ModStrategy;
pub use objective::ObjectiveWeights;
pub use report::{FroteReport, IterationRecord};
pub use select::{SelectCache, SelectionStrategy};
