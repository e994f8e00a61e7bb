//! # frote-data
//!
//! Columnar, mixed-type tabular dataset substrate for the FROTE (MLSys 2022)
//! reproduction.
//!
//! The FROTE paper evaluates on eight UCI tabular benchmarks with a mix of
//! numeric and nominal attributes (its Table 1). This crate provides:
//!
//! - [`Value`], [`FeatureKind`], [`Schema`] — typed cell values and dataset
//!   schemas with categorical vocabularies,
//! - [`Dataset`] and [`Column`] — a columnar store with cheap coverage scans
//!   and per-column statistics,
//! - [`FeatureMatrix`] — the flat row-major encoded data plane shared by the
//!   batch scoring and nearest-neighbour paths,
//! - [`encode`] — one-hot + standardization encoding into [`FeatureMatrix`]
//!   for linear models and distance computations (incrementally appendable
//!   via [`EncodedCache`]),
//! - [`binned`] — quantized per-feature bin codes ([`Binner`] /
//!   [`BinnedMatrix`] / [`BinnedCache`]) for histogram GBDT training,
//! - [`sync`] — the append-or-rebuild policy both incremental caches share
//!   ([`IncrementalCache`] over a fitted [`sync::Plane`]),
//! - [`split`] — deterministic train/test splitting utilities,
//! - [`csv`] — a small typed CSV reader/writer,
//! - [`synth`] — schema-matched synthetic generators for the eight UCI
//!   datasets (the reproduction's substitute for the UCI downloads, which an
//!   offline build cannot fetch).
//!
//! # Example
//!
//! ```
//! use frote_data::{Dataset, Schema, Value};
//!
//! let schema = Schema::builder("label", vec!["no".into(), "yes".into()])
//!     .numeric("age")
//!     .categorical("marital", vec!["single".into(), "married".into()])
//!     .build();
//! let mut ds = Dataset::new(schema);
//! ds.push_row(&[Value::Num(37.0), Value::Cat(1)], 0).unwrap();
//! ds.push_row(&[Value::Num(24.0), Value::Cat(0)], 1).unwrap();
//! assert_eq!(ds.n_rows(), 2);
//! assert_eq!(ds.class_counts(), vec![1, 1]);
//! ```

#![warn(missing_docs)]

pub mod binned;
mod column;
pub mod csv;
mod dataset;
pub mod encode;
mod error;
mod matrix;
mod schema;
pub mod split;
pub mod stats;
pub mod sync;
pub mod synth;
mod value;

pub use binned::{BinnedCache, BinnedMatrix, Binner};
pub use column::Column;
pub use dataset::Dataset;
pub use encode::{EncodedCache, Encoder};
pub use error::DataError;
pub use matrix::FeatureMatrix;
pub use schema::{FeatureMeta, Schema, SchemaBuilder};
pub use sync::{IncrementalCache, RebuildReason, SyncOutcome};
pub use value::{FeatureKind, Value};
