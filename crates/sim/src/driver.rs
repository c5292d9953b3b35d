//! The batch driver: an [`EventKernel`] fed from an instance's own jobs.
//!
//! [`run_driver`] sorts the jobs by `(release, id)`, advances the simulated
//! clock to the earliest of the next release, completion, fault event and
//! policy wakeup, and at each instant lets the kernel settle, hands it the
//! jobs released by then, and lets it decide — see [`EventKernel`] for what
//! happens, and in which order, within the instant.
//! [`run_online`](crate::run_online) and
//! [`run_online_chaos`](crate::run_online_chaos) are thin wrappers,
//! configured through [`RunOptions`]:
//!
//! * **fault-free** is simply the default options (no fault plan);
//! * **chaos** attaches a [`FaultPlan`] and
//!   [`RestartSemantics`].

use std::borrow::Cow;

use mris_types::{ClusterSpec, Instance, JobId, RestartSemantics, Schedule, SchedulingError, Time};

use crate::fault::{ChaosOutcome, FaultLog, FaultPlan};
use crate::kernel::{EventKernel, EventSink};
use crate::OnlinePolicy;

/// Configuration for one [`run_driver`] run, built fluently:
///
/// ```
/// use mris_sim::{FaultPlan, RunOptions};
/// use mris_types::RestartSemantics;
///
/// let fault_free = RunOptions::new();
/// let plan = FaultPlan::none();
/// let chaos = RunOptions::new()
///     .with_faults(&plan)
///     .with_restart(RestartSemantics::WeightAging { factor: 2.0 });
/// # let _ = (fault_free, chaos);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct RunOptions<'a> {
    plan: Option<&'a FaultPlan>,
    restart: RestartSemantics,
}

impl Default for RunOptions<'_> {
    fn default() -> Self {
        RunOptions {
            plan: None,
            restart: RestartSemantics::FullRestart,
        }
    }
}

impl<'a> RunOptions<'a> {
    /// Fault-free defaults: no failures, [`RestartSemantics::FullRestart`]
    /// (irrelevant without failures).
    pub fn new() -> Self {
        Self::default()
    }

    /// Replays `plan` during the run. An empty plan is equivalent to the
    /// default.
    pub fn with_faults(mut self, plan: &'a FaultPlan) -> Self {
        self.plan = Some(plan);
        self
    }

    /// What happens to a killed job's weight when it is re-released.
    ///
    /// # Panics
    ///
    /// If a [`RestartSemantics::WeightAging`] factor is not finite and
    /// non-negative.
    pub fn with_restart(mut self, restart: RestartSemantics) -> Self {
        if let RestartSemantics::WeightAging { factor } = restart {
            assert!(
                factor.is_finite() && factor >= 0.0,
                "weight-aging factor {factor} must be finite and non-negative"
            );
        }
        self.restart = restart;
        self
    }

    /// The attached fault plan, if any.
    pub fn plan(&self) -> Option<&'a FaultPlan> {
        self.plan
    }

    /// The restart semantics.
    pub fn restart(&self) -> RestartSemantics {
        self.restart
    }
}

/// The run after one processed event, as [`run_driver_observed`] reports
/// it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EventSnapshot {
    /// Event time.
    pub time: Time,
    /// Jobs currently running across the cluster.
    pub running: usize,
    /// Placements so far (cumulative; a killed job placed again counts
    /// twice).
    pub placed: usize,
    /// Jobs released so far (cumulative).
    pub released: usize,
}

/// The driver's fold over the kernel's record: placements so far.
struct Placements(usize);

impl EventSink for Placements {
    fn placed(&mut self, _job: JobId, _machine: u32, _start: Time) {
        self.0 += 1;
    }
}

/// Runs `policy` over `instance` on the machines described by `cluster`
/// under `options`, calling `observer` with an [`EventSnapshot`] after
/// every processed event. The snapshot's placement count is folded from
/// the kernel's [`EventSink`] record, like every per-event count.
///
/// `cluster` is anything convertible to a [`ClusterSpec`]: a bare machine
/// count gives the historical uniform cluster; an explicit spec gives each
/// machine its own speed and capacities (a job started on machine `m`
/// completes after `p_j / speed_m` wall time, and fit checks use `m`'s own
/// capacity vector).
///
/// This is the single batch loop behind [`run_online`](crate::run_online)
/// and [`run_online_chaos`](crate::run_online_chaos). It advances the
/// simulated clock to the earliest of: the next arrival, the next
/// completion, the next fault event (failure or recovery), and the policy's
/// [`next_wakeup`](OnlinePolicy::next_wakeup); what happens at that instant
/// is the [`EventKernel`]'s.
///
/// For instances with precedence edges the driver withholds a released job
/// from [`OnlinePolicy::on_arrivals`] until every predecessor has
/// completed; the job is delivered at the completion event that opens its
/// gate (or at its release time, whichever is later). Policies therefore
/// never see a job they may not start, and run DAG workloads unmodified.
///
/// # Errors
///
/// Returns a [`SchedulingError`] if the policy strands jobs (leaves them
/// unplaced after the last event) or violates placement rules — see
/// [`Dispatcher::place`](crate::Dispatcher::place) — or, on a heterogeneous
/// cluster, if some job's demand exceeds every machine's capacity
/// ([`SchedulingError::UnplaceableJob`]).
pub fn run_driver_observed<P: OnlinePolicy + ?Sized>(
    instance: &Instance,
    cluster: impl Into<ClusterSpec>,
    policy: &mut P,
    options: RunOptions<'_>,
    mut observer: impl FnMut(&EventSnapshot),
) -> Result<ChaosOutcome, SchedulingError> {
    let spec: ClusterSpec = cluster.into();
    let num_machines = spec.len();
    if instance.is_empty() {
        return Ok(ChaosOutcome {
            schedule: Schedule::new(0, num_machines),
            log: FaultLog::new(0),
        });
    }
    // On a restricted-capacity cluster a job can exceed every machine; the
    // instance-level bound (demand <= CAPACITY) only covers uniform specs.
    // Reject up front instead of stranding at the end of the run.
    if !spec.is_uniform() {
        for j in instance.jobs() {
            let placeable = (0..num_machines).any(|m| {
                j.demands
                    .iter()
                    .enumerate()
                    .all(|(r, &d)| d <= spec.capacity(m, r))
            });
            if !placeable {
                return Err(SchedulingError::UnplaceableJob { job: j.id });
            }
        }
    }
    let by_release = |&a: &JobId, &b: &JobId| {
        instance
            .job(a)
            .release
            .total_cmp(&instance.job(b).release)
            .then(a.cmp(&b))
    };
    let mut arrivals: Vec<JobId> = instance.jobs().iter().map(|j| j.id).collect();
    arrivals.sort_by(by_release);
    let mut next_arrival = 0usize;

    let plan_events = options.plan.map(FaultPlan::events).unwrap_or(&[]);
    let mut kernel = EventKernel::new(Cow::Borrowed(instance), &spec, plan_events, options.restart);
    let gated = kernel.gate().is_active();
    let mut deliver: Vec<JobId> = Vec::new();
    let mut placed = Placements(0);

    loop {
        let arr_t = arrivals.get(next_arrival).map(|&j| instance.job(j).release);
        let Some(now) = kernel.next_event_time(arr_t, policy.next_wakeup()) else {
            break;
        };
        kernel.settle(now, policy, &mut placed)?;

        let first = next_arrival;
        while next_arrival < arrivals.len() && instance.job(arrivals[next_arrival]).release <= now {
            next_arrival += 1;
        }
        let released = &arrivals[first..next_arrival];
        if !gated {
            kernel.decide(now, released, policy, &mut placed)?;
        } else {
            // Gated delivery: withhold released jobs with incomplete
            // predecessors; deliver the ones whose gates this event's
            // completions opened alongside fresh ready arrivals, ordered by
            // (release, id) to preserve the `on_arrivals` contract.
            deliver.clear();
            for &j in released {
                if kernel.ready_or_hold(j) {
                    deliver.push(j);
                }
            }
            // A gate re-armed by the kernel's defensive revoke path can
            // leave an opened entry whose release is still in the future;
            // the sweep above delivers it at its release instead.
            deliver.extend(
                kernel
                    .opened()
                    .iter()
                    .filter(|&&j| instance.job(j).release <= now),
            );
            deliver.sort_by(by_release);
            kernel.decide(now, &deliver, policy, &mut placed)?;
        }
        observer(&EventSnapshot {
            time: now,
            running: kernel.cluster().num_running(),
            placed: placed.0,
            released: next_arrival,
        });
    }

    if !kernel.schedule().is_complete() {
        let unplaced = instance.len() - kernel.schedule().assignments().count();
        return Err(SchedulingError::StrandedJobs { unplaced });
    }
    Ok(kernel.into_outcome())
}

/// [`run_driver_observed`] without an observer.
pub fn run_driver<P: OnlinePolicy + ?Sized>(
    instance: &Instance,
    cluster: impl Into<ClusterSpec>,
    policy: &mut P,
    options: RunOptions<'_>,
) -> Result<ChaosOutcome, SchedulingError> {
    run_driver_observed(instance, cluster, policy, options, |_| {})
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Dispatcher;
    use mris_types::{FaultEvent, FaultTarget, Job, Time};

    /// Minimal work-conserving FIFO policy for driver tests.
    struct Fifo {
        pending: Vec<JobId>,
    }

    impl OnlinePolicy for Fifo {
        fn on_arrivals(&mut self, _now: Time, arrived: &[JobId], _inst: &Instance) {
            self.pending.extend_from_slice(arrived);
        }

        fn dispatch(
            &mut self,
            d: &mut Dispatcher<'_>,
            _freed: &[usize],
        ) -> Result<(), SchedulingError> {
            let mut remaining = Vec::with_capacity(self.pending.len());
            for &job in &self.pending {
                let demands = &d.instance().job(job).demands;
                if let Some(m) = d.cluster().first_fit(demands) {
                    d.place(m, job)?;
                } else {
                    remaining.push(job);
                }
            }
            self.pending = remaining;
            Ok(())
        }
    }

    fn inst(jobs: Vec<Job>) -> Instance {
        Instance::new(jobs, 1).unwrap()
    }

    #[test]
    fn options_default_is_fault_free_full_restart() {
        let o = RunOptions::new();
        assert!(o.plan().is_none());
        assert_eq!(o.restart(), RestartSemantics::FullRestart);
    }

    #[test]
    #[should_panic(expected = "weight-aging factor")]
    fn options_reject_bad_aging_factor() {
        let _ = RunOptions::new().with_restart(RestartSemantics::WeightAging { factor: f64::NAN });
    }

    #[test]
    fn empty_plan_equals_no_plan() {
        let instance = inst(
            (0..6)
                .map(|i| Job::from_fractions(JobId(i), (i % 3) as f64, 2.0, 1.0, &[0.6]))
                .collect(),
        );
        let none = FaultPlan::none();
        let a = run_driver(
            &instance,
            2,
            &mut Fifo { pending: vec![] },
            RunOptions::new(),
        )
        .unwrap();
        let b = run_driver(
            &instance,
            2,
            &mut Fifo { pending: vec![] },
            RunOptions::new().with_faults(&none),
        )
        .unwrap();
        assert_eq!(a.schedule, b.schedule);
        assert_eq!(a.log, b.log);
    }

    #[test]
    fn honors_policy_wakeups_without_faults() {
        // A policy that refuses to place anything until its self-scheduled
        // wakeup at t = 5 — under the old fault-free loop (arrivals and
        // completions only) this run would deadlock-strand; the unified
        // driver must fire the wakeup.
        struct Sleeper {
            pending: Vec<JobId>,
            wake: Time,
        }
        impl OnlinePolicy for Sleeper {
            fn on_arrivals(&mut self, _now: Time, arrived: &[JobId], _inst: &Instance) {
                self.pending.extend_from_slice(arrived);
            }
            fn dispatch(
                &mut self,
                d: &mut Dispatcher<'_>,
                _freed: &[usize],
            ) -> Result<(), SchedulingError> {
                if d.now() < self.wake {
                    return Ok(());
                }
                for job in self.pending.drain(..) {
                    let m = d
                        .cluster()
                        .first_fit(&d.instance().job(job).demands)
                        .unwrap();
                    d.place(m, job)?;
                }
                Ok(())
            }
            fn next_wakeup(&self) -> Option<Time> {
                (!self.pending.is_empty()).then_some(self.wake)
            }
        }
        let instance = inst(vec![Job::from_fractions(JobId(0), 0.0, 1.0, 1.0, &[0.5])]);
        let outcome = run_driver(
            &instance,
            1,
            &mut Sleeper {
                pending: vec![],
                wake: 5.0,
            },
            RunOptions::new(),
        )
        .unwrap();
        assert_eq!(outcome.schedule.get(JobId(0)).unwrap().start, 5.0);
    }

    #[test]
    fn fault_free_run_borrows_instance_without_cloning() {
        // Indirect but effective: weight aging under an empty plan must not
        // alter observable weights, and the run must succeed end to end.
        let instance = inst(vec![Job::from_fractions(JobId(0), 0.0, 1.0, 3.0, &[0.5])]);
        let outcome = run_driver(
            &instance,
            1,
            &mut Fifo { pending: vec![] },
            RunOptions::new().with_restart(RestartSemantics::WeightAging { factor: 2.0 }),
        )
        .unwrap();
        assert!(outcome.schedule.is_complete());
        assert_eq!(instance.job(JobId(0)).weight, 3.0);
    }

    #[test]
    fn observer_fires_under_chaos_options() {
        let instance = inst(vec![
            Job::from_fractions(JobId(0), 0.0, 4.0, 1.0, &[0.5]),
            Job::from_fractions(JobId(1), 0.5, 1.0, 1.0, &[0.4]),
        ]);
        let plan = FaultPlan::from_events(vec![FaultEvent {
            at: 1.0,
            downtime: 2.0,
            target: FaultTarget::Machine(0),
        }]);
        let mut times = Vec::new();
        let outcome = run_driver_observed(
            &instance,
            1,
            &mut Fifo { pending: vec![] },
            RunOptions::new().with_faults(&plan),
            |snap| times.push(snap.time),
        )
        .unwrap();
        assert!(outcome.schedule.is_complete());
        assert!(!times.is_empty());
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }
}
