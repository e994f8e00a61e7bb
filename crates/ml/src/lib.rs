//! # frote-ml
//!
//! Hand-rolled classification substrate for the FROTE (MLSys 2022)
//! reproduction. The paper evaluates FROTE with scikit-learn's Logistic
//! Regression and Random Forest plus LightGBM; this crate provides faithful
//! Rust stand-ins (the offline build links no Python or C++ library)
//! together with the nearest-neighbour machinery SMOTE-style generation
//! needs and the metrics the evaluation reports:
//!
//! - [`Classifier`] / [`TrainAlgorithm`] — the black-box training contract
//!   FROTE assumes (§3.2: "any classification algorithm that takes training
//!   data as input and produces a classifier as output"),
//! - [`logreg`] — multinomial logistic regression (paper setting:
//!   `max_iter = 500`),
//! - [`tree`] / [`forest`] — CART decision trees and random forests (paper
//!   setting: `max_depth = 3`),
//! - [`gbdt`] — gradient-boosted trees, the LightGBM stand-in,
//! - [`histogram`] — the quantized histogram split search shared by the
//!   tree families (opt-in per trainer via [`SplitMode`]),
//! - [`kernels`] — the blocked, autovectorizer-friendly `f64` kernels every
//!   numeric inner loop (distances, softmax, gradients) runs on,
//! - [`knn`] / [`distance`] — exact brute-force mixed-type nearest
//!   neighbours (the results scikit-learn's `ball_tree` returns),
//! - [`metrics`] — accuracy, confusion matrices, and F1 scores.
//!
//! ```
//! use frote_data::synth::{DatasetKind, SynthConfig};
//! use frote_ml::{forest::RandomForestTrainer, metrics, TrainAlgorithm};
//!
//! let ds = DatasetKind::Car.generate(&SynthConfig { n_rows: 300, ..Default::default() });
//! let model = RandomForestTrainer::default().train(&ds);
//! let preds: Vec<u32> = (0..ds.n_rows()).map(|i| model.predict(&ds.row(i))).collect();
//! let acc = frote_ml::metrics::accuracy(&preds, ds.labels());
//! assert!(acc > 0.5);
//! ```

#![warn(missing_docs)]

pub mod distance;
mod error;
pub mod forest;
pub mod gbdt;
pub mod histogram;
pub mod kernels;
pub mod knn;
pub mod logreg;
pub mod metrics;
mod rank;
mod traits;
pub mod tree;

pub use error::MlError;
pub use histogram::{default_split_mode, set_default_split_mode, GossParams, SplitMode};
pub use traits::{Classifier, TrainAlgorithm, TrainCache};
