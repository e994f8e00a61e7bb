//! # frote-bench
//!
//! Benchmark harness for the FROTE reproduction:
//!
//! - **binaries** (`src/bin/`) regenerate every table and figure of the
//!   paper (`table1`, `figure2`, `table2`, `figure3`, `table3`, `table4`,
//!   `table5`, `table6`, `table7_8`, `figure9`, `figure10`,
//!   `ablation_online`, `repro_all`). All accept
//!   `--scale {smoke,paper}` (default `smoke`).
//! - **`loadgen`** drives a running `frote-serve` with a fixed request
//!   schedule and checks every response against local predictions.
//! - [`benchgate::FnvHasher`] is the stable digest the separate
//!   `perfbench` package pins its outputs with.

#![warn(missing_docs)]

pub mod benchgate;
pub mod cli;

pub use cli::CliOptions;
