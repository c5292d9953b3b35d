//! Core types for the MRIS multi-resource scheduling library.
//!
//! This crate defines the shared vocabulary used by every other crate in the
//! workspace, reproducing the model of *Fan & Liang, "Online Non-preemptive
//! Multi-Resource Scheduling for Weighted Completion Time on Multiple
//! Machines", ICPP 2024*:
//!
//! * [`Job`] — a job `j` with release time `r_j`, processing time `p_j`,
//!   weight `w_j`, and a demand `d_{jl}` for each of `R` resources.
//! * [`Instance`] — a validated collection of jobs sharing one resource
//!   dimensionality, with the paper's normalization (`p_j >= 1`,
//!   `d_{jl} <= 1`, unit machine capacity).
//! * [`Schedule`] — an assignment of `(machine, start time)` to jobs, with
//!   exact feasibility validation and the paper's objective functions
//!   (average weighted completion time, makespan, queuing delay).
//!
//! # Fixed-point resource arithmetic
//!
//! Resource demands are stored as fixed-point [`Amount`] values with machine
//! capacity [`CAPACITY`] (= 1.0). Summing `f64` fractions accumulates error
//! that can flip feasibility checks near a full machine; integer amounts make
//! "does this set of jobs fit?" exact. Times remain `f64` ([`Time`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod codec;
mod error;
mod fault;
mod instance;
mod job;
mod machine;
mod resource;
mod schedule;
mod tenant;

pub use codec::{Codec, Decoder, Encoder};
pub use error::{
    closest_match, AdmissionError, CodecError, ConfigError, DurabilityError, InstanceError,
    NetError, RegistryError, RestoreError, SchedulingError, TenantQuotaKind, WorkloadFeature,
};
pub use fault::{FaultEvent, FaultTarget, RestartSemantics};
pub use instance::{Instance, InstanceBuilder, InstanceStats};
pub use job::{Job, JobId};
pub use machine::{ClusterSpec, MachineSpec};
pub use resource::{
    amount_from_fraction, fraction, saturating_add_demands, Amount, DemandVec, CAPACITY,
};
pub use schedule::{Assignment, Schedule, ScheduleError};
pub use tenant::TenantId;

/// Simulation time. Normalized instances measure time in multiples of the
/// minimum processing time, so `p_j >= 1.0` for every job.
pub type Time = f64;

/// Commonly used items, for glob-importing in examples and downstream crates.
pub mod prelude {
    pub use crate::{
        Amount, Assignment, ClusterSpec, Instance, InstanceBuilder, InstanceError, Job, JobId,
        MachineSpec, Schedule, SchedulingError, Time, CAPACITY,
    };
}
