//! # frote-bench
//!
//! Benchmark harness for the FROTE reproduction:
//!
//! - **binaries** (`src/bin/`) regenerate every table and figure of the
//!   paper (`table1`, `figure2`, `table2`, `figure3`, `table3`, `table4`,
//!   `table5`, `table6`, `table7_8`, `figure9`, `figure10`,
//!   `ablation_online`, `repro_all`). All accept
//!   `--scale {smoke,paper}` (default `smoke`).
//! - **`perfsmoke`** times the parallelized hot paths and writes a
//!   digest-gated `BENCH_*.json` record; **`benchdiff`** ([`benchgate`])
//!   compares two records. End-to-end timings live in the separate
//!   `perfbench` package.

#![warn(missing_docs)]

pub mod benchgate;
pub mod cli;

pub use cli::CliOptions;
