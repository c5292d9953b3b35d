//! Baseline online schedulers from the paper.
//!
//! * The **Priority-Queue (PQ) family** (Section 4): on every event, scan the
//!   pending queue in a heuristic order and start every job that fits. Seven
//!   sorting heuristics from Section 7.3 are provided ([`SortHeuristic`]).
//!   Lemma 4.1 shows this whole class is `Omega(N)`-competitive, which the
//!   `mris-trace` adversarial generator demonstrates experimentally.
//! * **Tetris** (Grandl et al., SIGCOMM '14), adapted to the non-preemptive
//!   setting as in Section 7.2: machines pick pending jobs by an alignment
//!   (packing) score combined with a smallest-volume-first term.
//! * **BF-EXEC** (NoroozOliaee et al.): best-fit machine selection on
//!   arrival, shortest-job-first backfill of the freed machine on departure.
//! * **CA-PQ**: the "collect all" extreme — waits (with oracle knowledge of
//!   the last release time) until every job has arrived, then runs offline
//!   PQ. Serves as the worst-case patience reference in Section 7.
//!
//! All of them implement the crate's [`Scheduler`] trait, as does MRIS in
//! `mris-core`, so experiments can treat algorithms uniformly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bfexec;
mod capq;
mod heuristic;
mod pending;
mod pq;
mod tetris;

pub use bfexec::{BfExec, BfExecPolicy};
pub use capq::{CaPq, CaPqPolicy};
pub use heuristic::SortHeuristic;
pub use pq::{Pq, PqPolicy};
pub use tetris::{Tetris, TetrisPolicy};

use mris_sim::{run_online, OnlinePolicy};
use mris_types::{ClusterSpec, Instance, Schedule, SchedulingError};

/// A complete scheduling algorithm: consumes an instance and produces a full
/// schedule on the machines described by a [`ClusterSpec`].
///
/// A scheduler *is* its [`OnlinePolicy`] run through the event-driven
/// engine: implementors write [`Scheduler::policy`], which builds the
/// stateful policy for one run, and every batch entry point below is a
/// provided method over [`run_online`]. The trait exists so experiments and
/// benches can compare algorithms uniformly, and so the registry can hand
/// the same policy to the fault-injection driver and the service.
///
/// The historical [`Scheduler::try_schedule`] shape (`num_machines`
/// identical unit machines) wraps `ClusterSpec::uniform`. Callers that treat
/// a scheduling failure as a bug (experiments, benches) use
/// [`Scheduler::schedule`] / [`Scheduler::schedule_on`], which panic with
/// the algorithm's name on error.
///
/// Capability flags ([`Scheduler::supports_precedence`],
/// [`Scheduler::supports_heterogeneous`]) default to `false`; the registry
/// consults them before handing an algorithm an instance it would schedule
/// silently wrong, surfacing `RegistryError::Unsupported` instead.
pub trait Scheduler {
    /// Human-readable algorithm name (appears in experiment reports).
    fn name(&self) -> String;

    /// A fresh policy for one run over `instance` on `cluster`. Policies
    /// are stateful; build one per run.
    fn policy(&self, instance: &Instance, cluster: &ClusterSpec) -> Box<dyn OnlinePolicy>;

    /// Produces a complete schedule of `instance` on the machines of
    /// `cluster`, surfacing policy bugs as typed errors.
    fn try_schedule_on(
        &self,
        instance: &Instance,
        cluster: &ClusterSpec,
    ) -> Result<Schedule, SchedulingError> {
        run_online(instance, cluster, self.policy(instance, cluster).as_mut())
    }

    /// [`Scheduler::try_schedule_on`] on `num_machines` identical unit
    /// machines — the pre-`ClusterSpec` call shape, kept as a wrapper.
    fn try_schedule(
        &self,
        instance: &Instance,
        num_machines: usize,
    ) -> Result<Schedule, SchedulingError> {
        self.try_schedule_on(instance, &ClusterSpec::uniform(num_machines))
    }

    /// Infallible convenience wrapper around [`Scheduler::try_schedule`].
    ///
    /// # Panics
    ///
    /// Panics (naming the algorithm) if the underlying policy fails; every
    /// shipped algorithm is work-conserving and never does.
    fn schedule(&self, instance: &Instance, num_machines: usize) -> Schedule {
        self.schedule_on(instance, &ClusterSpec::uniform(num_machines))
    }

    /// Infallible convenience wrapper around [`Scheduler::try_schedule_on`].
    ///
    /// # Panics
    ///
    /// Panics (naming the algorithm) if the underlying policy fails.
    fn schedule_on(&self, instance: &Instance, cluster: &ClusterSpec) -> Schedule {
        match self.try_schedule_on(instance, cluster) {
            Ok(s) => s,
            Err(e) => panic!("{} failed to schedule: {e}", self.name()),
        }
    }

    /// True if the algorithm honors precedence edges (directly or via the
    /// driver's arrival gating). Defaults to `false`: an algorithm must opt
    /// in before the registry will hand it a DAG instance.
    fn supports_precedence(&self) -> bool {
        false
    }

    /// True if the algorithm is meaningful on non-uniform clusters
    /// (per-machine speeds/capacities). Defaults to `false`.
    fn supports_heterogeneous(&self) -> bool {
        false
    }
}

// The forwarders carry what an implementor can define; `try_schedule`,
// `schedule` and `schedule_on` are provided wrappers over these.

impl<S: Scheduler + ?Sized> Scheduler for &S {
    fn name(&self) -> String {
        (**self).name()
    }

    fn policy(&self, instance: &Instance, cluster: &ClusterSpec) -> Box<dyn OnlinePolicy> {
        (**self).policy(instance, cluster)
    }

    fn try_schedule_on(
        &self,
        instance: &Instance,
        cluster: &ClusterSpec,
    ) -> Result<Schedule, SchedulingError> {
        (**self).try_schedule_on(instance, cluster)
    }

    fn supports_precedence(&self) -> bool {
        (**self).supports_precedence()
    }

    fn supports_heterogeneous(&self) -> bool {
        (**self).supports_heterogeneous()
    }
}

impl<S: Scheduler + ?Sized> Scheduler for Box<S> {
    fn name(&self) -> String {
        (**self).name()
    }

    fn policy(&self, instance: &Instance, cluster: &ClusterSpec) -> Box<dyn OnlinePolicy> {
        (**self).policy(instance, cluster)
    }

    fn try_schedule_on(
        &self,
        instance: &Instance,
        cluster: &ClusterSpec,
    ) -> Result<Schedule, SchedulingError> {
        (**self).try_schedule_on(instance, cluster)
    }

    fn supports_precedence(&self) -> bool {
        (**self).supports_precedence()
    }

    fn supports_heterogeneous(&self) -> bool {
        (**self).supports_heterogeneous()
    }
}
