//! # frote-induct
//!
//! Boolean rule-set induction for the FROTE (MLSys 2022) reproduction — the
//! stand-in for BRCG (Dash et al. 2018, "Boolean decision rules via column
//! generation"), which the paper uses to extract a rule-set explanation of
//! the initial model before perturbing it into feedback rules (§5.1).
//!
//! BRCG solves an IP by column generation; at reproduction scale a greedy
//! sequential-covering learner with beam search over conjunctions produces
//! rule sets of the same form (DNF over `(feature, op, value)` predicates
//! with few conditions) and feeds the identical downstream protocol, which
//! only needs *plausible, model-derived* rules to perturb.
//!
//! ```
//! use frote_data::synth::{DatasetKind, SynthConfig};
//! use frote_induct::{InductParams, RuleInducer};
//! use frote_ml::{forest::RandomForestTrainer, TrainAlgorithm};
//!
//! let ds = DatasetKind::Car.generate(&SynthConfig { n_rows: 400, ..Default::default() });
//! let model = RandomForestTrainer::default().train(&ds);
//! let rules = RuleInducer::new(InductParams::default()).explain(&ds, model.as_ref());
//! assert!(!rules.is_empty());
//! // Every rule is a valid clause over the schema with a deterministic class.
//! for r in &rules {
//!     r.validate(ds.schema()).unwrap();
//! }
//! ```

#![warn(missing_docs)]

mod beam;
mod inducer;

pub use beam::CandidatePool;
pub use inducer::{InductParams, RuleInducer};
