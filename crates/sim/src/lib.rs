//! Discrete-event cluster simulation substrate for MRIS and its baselines.
//!
//! The paper evaluates schedulers on a simulated cluster of `M` identical
//! machines with `R` unit-capacity resources. Two execution styles are
//! needed:
//!
//! * **Online event-driven simulation** ([`run_online`], [`OnlinePolicy`],
//!   [`ClusterState`]) — for the Priority-Queue family, Tetris, and BF-EXEC,
//!   which react to job arrival/completion events and start jobs *now*.
//! * **Committed-schedule timelines** ([`MachineTimeline`],
//!   [`ClusterTimelines`]) — for MRIS and CA-PQ, which construct schedule
//!   fragments ahead of wall-clock time and need *earliest-fit backfilling*
//!   queries ("the earliest instant `>= t` at which this job fits for its
//!   whole duration, given everything committed so far").
//! * **Fault injection** ([`FaultPlan`], [`run_online_chaos`]) — a
//!   deterministic chaos layer that fails machines mid-run, kills their
//!   in-flight jobs, re-releases them as fresh arrivals, and audits every
//!   run with an invariant checker ([`FaultLog::verify`]).
//!
//! What happens at one instant is defined once, by [`EventKernel`];
//! [`run_driver`] (configured through [`RunOptions`]: fault plan, restart
//! semantics) feeds it the release-sorted jobs of an instance, and
//! `mris-service` feeds it an admission-controlled queue. The kernel
//! reports every instant through one [`EventSink`]; the driver's
//! [`EventSnapshot`]s and the service's telemetry and journal are folds over
//! it. The classic entry points [`run_online`] and [`run_online_chaos`] are
//! thin wrappers over [`run_driver`]; [`run_driver_observed`] adds a
//! per-event observer.
//!
//! All resource arithmetic is exact fixed-point (`mris_types::Amount`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
mod driver;
mod fault;
mod kernel;
mod online;
mod precedence;
mod timeline;

pub use cluster::ClusterState;
pub use driver::{run_driver, run_driver_observed, EventSnapshot, RunOptions};
pub use fault::{
    run_online_chaos, suggested_horizon, ChaosOutcome, ChaosViolation, CompletionRecord,
    FailureRecord, FaultLog, FaultPlan, PoissonFaultConfig, RackBurstConfig,
};
pub use kernel::{EventKernel, EventSink, KernelParts, PendingFaults};
pub use online::{run_online, Dispatcher, OnlinePolicy};
pub use precedence::PrecedenceGate;
pub use timeline::{ClusterTimelines, MachineTimeline};

use mris_types::Time;

/// A totally ordered `f64` time for use in heaps and sorted containers
/// (orders by IEEE `total_cmp`; schedulers only produce finite times).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OrdTime(pub Time);

impl Eq for OrdTime {}

impl PartialOrd for OrdTime {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdTime {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ord_time_orders_totally() {
        let mut v = vec![OrdTime(3.0), OrdTime(-1.0), OrdTime(0.0)];
        v.sort();
        assert_eq!(v, vec![OrdTime(-1.0), OrdTime(0.0), OrdTime(3.0)]);
    }
}
