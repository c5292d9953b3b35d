//! # MRIS — Multi-Resource Interval Scheduling
//!
//! A faithful, production-quality reproduction of *Fan & Liang, "Online
//! Non-preemptive Multi-Resource Scheduling for Weighted Completion Time on
//! Multiple Machines", ICPP 2024*.
//!
//! Jobs with heterogeneous multi-resource demands (CPU, memory, storage,
//! network, ...) arrive online and must be scheduled **non-preemptively** on
//! `M` identical machines, each of which can run any set of jobs whose
//! summed demands fit its per-resource capacity. The objective is the
//! average weighted completion time (AWCT).
//!
//! The crate provides:
//!
//! * [`Mris`](mris_core::Mris) — the paper's `8R(1 + eps)`-competitive
//!   online algorithm (geometric intervals + constraint-approximate knapsack
//!   + Priority-Queue makespan scheduling with backfilling);
//! * the baselines it is evaluated against: the
//!   [Priority-Queue family](mris_schedulers::Pq),
//!   [Tetris](mris_schedulers::Tetris), [BF-EXEC](mris_schedulers::BfExec),
//!   and [CA-PQ](mris_schedulers::CaPq);
//! * the substrates: exact fixed-point types ([`mris_types`]), a
//!   discrete-event cluster simulator ([`mris_sim`]), knapsack solvers
//!   ([`mris_knapsack`]), an Azure-like trace and arrival generator
//!   ([`mris_trace`]), and experiment metrics ([`mris_metrics`]);
//! * a long-running scheduling daemon ([`mris_service`]) wrapping any
//!   registered policy behind admission control (including multi-tenant
//!   quotas and weighted-fair sharing), epoch batching, pluggable clocks,
//!   and per-epoch telemetry;
//! * a TCP front door ([`mris_net`]) exposing the daemon over a
//!   length-prefixed CRC-framed wire protocol with token-authenticated
//!   tenants — bit-identical to the in-process service.
//!
//! ## Quickstart
//!
//! ```
//! use mris::prelude::*;
//!
//! // Three jobs over two resources (say CPU and memory).
//! let jobs = vec![
//!     Job::from_fractions(JobId(0), 0.0, 8.0, 1.0, &[1.0, 1.0]), // blocker
//!     Job::from_fractions(JobId(1), 0.5, 1.0, 2.0, &[0.4, 0.2]),
//!     Job::from_fractions(JobId(2), 0.5, 1.0, 2.0, &[0.5, 0.3]),
//! ];
//! let instance = Instance::new(jobs, 2).unwrap();
//!
//! let schedule = Mris::default().schedule(&instance, /* machines = */ 1);
//! schedule.validate(&instance).unwrap();
//! println!("AWCT = {:.3}", schedule.awct(&instance));
//! ```
//!
//! See `examples/` for trace-driven comparisons and DESIGN.md /
//! EXPERIMENTS.md for the experiment inventory reproducing every figure of
//! the paper.

#![forbid(unsafe_code)]

pub use mris_core as core;
pub use mris_core::registry;
pub use mris_knapsack as knapsack;
pub use mris_metrics as metrics;
pub use mris_net as net;
pub use mris_obs as obs;
pub use mris_schedulers as schedulers;
pub use mris_service as service;
pub use mris_sim as sim;
pub use mris_trace as trace;
pub use mris_types as types;

/// The most commonly used items across the workspace.
pub mod prelude {
    pub use mris_core::registry::{algorithm_by_name, algorithm_for_workload, known_algorithms};
    pub use mris_core::{KnapsackChoice, Mris, MrisConfig};
    pub use mris_schedulers::{BfExec, CaPq, Pq, Scheduler, SortHeuristic, Tetris};
    pub use mris_types::{
        ClusterSpec, Instance, InstanceBuilder, Job, JobId, MachineSpec, Schedule, SchedulingError,
        Time,
    };
}
