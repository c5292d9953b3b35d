//! Library backing the `mris` command-line tool.
//!
//! `mris help` is the one list of its commands and their flags: it is
//! rendered from the same per-command flag declarations that parsing
//! checks, so a flag a command does not declare is refused, never ignored.
//!
//! The logic lives here (testable); `main.rs` is a thin wrapper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod commands;
mod schedule_io;

pub use commands::{run, CliError};
pub use mris_core::registry::{algorithm_by_name, known_algorithms};
pub use schedule_io::{parse_schedule_csv, schedule_to_csv};
