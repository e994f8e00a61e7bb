//! # frote-repro
//!
//! Umbrella crate for the FROTE (MLSys 2022) reproduction. It re-exports the
//! public surface of every workspace crate so examples and integration tests
//! can address the whole system through one import:
//!
//! ```
//! use frote_repro::prelude::*;
//! ```
//!
//! The individual crates are:
//!
//! - [`data`] — columnar mixed-type tabular datasets and synthetic generators
//! - [`rules`] — feedback rules, coverage, conflicts, relaxation
//! - [`ml`] — hand-rolled classifiers (LR, decision tree, RF, GBDT, kNN)
//! - [`smote`] — SMOTE / SMOTE-NC / Borderline-SMOTE substrates
//! - [`induct`] — greedy boolean rule-set induction (BRCG stand-in)
//! - [`opt`] — simplex LP solver and the base-instance-selection IP
//! - [`overlay`] — the Overlay post-processing baseline (Daly et al. 2021)
//! - [`par`] — deterministic parallel-execution runtime (thread pool + seed
//!   splitting + the `FROTE_THREADS` resolver)
//! - [`obs`] — zero-perturbation metrics registry + structured event trace
//! - [`faults`] — deterministic failpoint injection (`FROTE_FAULTS`)
//! - [`core`] — the FROTE algorithm itself
//! - [`eval`] — the experiment harness reproducing every table and figure
//! - [`serve`] — the serving plane: micro-batched scoring over std-only
//!   TCP/HTTP with atomic model snapshot swaps

pub use frote as core;
pub use frote_data as data;
pub use frote_eval as eval;
pub use frote_faults as faults;
pub use frote_induct as induct;
pub use frote_ml as ml;
pub use frote_obs as obs;
pub use frote_opt as opt;
pub use frote_overlay as overlay;
pub use frote_par as par;
pub use frote_rules as rules;
pub use frote_serve as serve;
pub use frote_smote as smote;

/// Commonly used items across the workspace, re-exported for convenience.
pub mod prelude {
    pub use frote::{
        Frote, FroteBuilder, FroteConfig, FroteReport, ModStrategy, SelectionStrategy,
    };
    pub use frote_data::{Column, Dataset, Encoder, FeatureKind, FeatureMatrix, Schema, Value};
    pub use frote_ml::{Classifier, TrainAlgorithm};
    pub use frote_rules::{Clause, FeedbackRule, FeedbackRuleSet, LabelDist, Op, Predicate};
}
