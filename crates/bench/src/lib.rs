//! Experiment harness regenerating every figure of the paper.
//!
//! [`figures::FIGURES`] holds each paper figure (`fig1` ... `fig7`,
//! `lemma41`) and extension experiment as one row, and the `figures`
//! binary runs a row by name, printing markdown tables (`--csv` for CSV,
//! `--paper` for the paper's full scale). The `obs` and
//! `chaos` binaries write JSON reports.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod figures;
pub mod harness;

pub use cli::{exit_usage, Args};
pub use harness::TracePool;
