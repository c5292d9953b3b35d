//! Experiment harness regenerating every figure of the paper.
//!
//! Each figure has a binary in `src/bin/` (`fig1` ... `fig7`, `lemma41`)
//! that runs the corresponding experiment and prints the series as a
//! markdown table (and CSV with `--csv`).
//!
//! ## Scaling
//!
//! The paper runs up to `N = 64000` jobs on `M = 20` machines with 10
//! sampled job sets per point. This reproduction defaults to `N = 16000` on
//! `M = 5` — the same jobs-per-machine load (3200), so the comparative
//! shapes are preserved — sized for a single-core machine. Every binary
//! accepts `--paper` to run at the paper's full scale, and `--samples`,
//! `--machines`, `--factor` to tune individual knobs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod harness;

pub use cli::Args;
pub use harness::{awct_summaries, comparison_algorithms, default_trace, Scale, TracePool};
