//! MRIS: Multi-Resource Interval Scheduling (Algorithm 1 of the paper).
//!
//! MRIS is a deterministic online algorithm for non-preemptive scheduling of
//! multi-resource jobs on `M` identical machines that is `8R(1 + eps)`-
//! competitive for the average weighted completion time (Theorem 6.8) and —
//! simultaneously — for the makespan (Lemma 6.9).
//!
//! The algorithm runs in iterations over a geometric time grid
//! `gamma_k = gamma_0 * alpha^k` (`alpha = 2` in the paper):
//!
//! 1. at wall-clock `gamma_k`, collect `J_k`, the unscheduled jobs with
//!    `r_j <= gamma_k` and `p_j <= gamma_k`;
//! 2. select `B_k ⊆ J_k` of maximum weight subject to total *volume*
//!    `sum v_j <= zeta_k = R * M * gamma_k` (problem **P1**), using a
//!    constraint-approximate knapsack ([`mris_knapsack::Cadp`] by default,
//!    [`mris_knapsack::GreedyConstraint`] for `MRIS-GREEDY`);
//! 3. place `B_k` with the Priority-Queue makespan subroutine
//!    (`ClusterTimelines::place_batch`): jobs in heuristic order, each at
//!    the earliest feasible instant `>= gamma_k` on any machine,
//!    *backfilling* into gaps left by earlier iterations.
//!
//! See [`Mris`] for the scheduler and [`MrisConfig`] for the knobs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod algorithm;
mod backfill;
mod config;
mod epoch;
pub mod online;
pub mod registry;

pub use algorithm::{IterationStats, Mris};
pub use backfill::batch_makespan_bound;
pub use config::{KnapsackChoice, MrisConfig};
pub use online::MrisOnline;
pub use registry::{
    algorithm_by_name, algorithm_for_workload, algorithms_by_names, comparison_algorithms,
    known_algorithms, online_policy_by_name, online_policy_for_workload, online_policy_on,
};
