//! Metrics and statistics for scheduling experiments.
//!
//! Covers everything the paper's evaluation reports:
//!
//! * [`Summary`] — mean and 95% confidence interval over repeated sampled
//!   job sets (Section 7.1 plots the mean of 10 samples with a shaded 95%
//!   CI).
//! * [`Cdf`] — empirical distribution of queuing delays (Figure 5).
//! * [`Percentiles`] — the shared p50/p95/p99 summary for latency-style
//!   reports (service decision latencies, timeline query latencies).
//! * [`Table`] — plain-text/CSV/markdown series output for the figure
//!   regeneration binaries.
//! * [`utilization_profile`] / [`render_utilization`] — resource usage over
//!   time for schedule visualizations (Figure 7).
//! * [`awct_lower_bound`] / [`makespan_lower_bound`] — provable lower
//!   bounds on the optimum, for empirical competitive-ratio estimates.
//! * [`fairness_report`] / [`jains_index`] — slowdown-fairness metrics
//!   (Section 7.5.2 reads the delay CDF as a fairness story).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bounds;
mod cdf;
mod fairness;
mod render;
mod summary;
mod table;

pub use bounds::{awct_lower_bound, makespan_lower_bound, total_weighted_completion_lower_bound};
pub use cdf::{Cdf, Percentiles};
pub use fairness::{fairness_report, jains_index, slowdowns, FairnessReport};
pub use render::{render_utilization, utilization_profile};
pub use summary::Summary;
pub use table::Table;
