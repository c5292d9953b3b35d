//! Event-driven online simulation driver.
//!
//! Reproduces the execution model of Section 4: the simulated wall clock
//! jumps between *events* (job arrivals and completions); at every event the
//! policy inspects the pending jobs and the instantaneous cluster state and
//! may start any feasible subset immediately.

use mris_types::{
    ClusterSpec, CodecError, Decoder, Encoder, Instance, JobId, Schedule, SchedulingError, Time,
};

use crate::precedence::PrecedenceGate;
use crate::ClusterState;

/// Static label value for the dispatcher rejection counter.
fn rejection_reason(e: &SchedulingError) -> &'static str {
    match e {
        SchedulingError::InvalidMachine { .. } => "invalid_machine",
        SchedulingError::MachineDown { .. } => "machine_down",
        SchedulingError::PlacedBeforeRelease { .. } => "before_release",
        SchedulingError::DoesNotFit { .. } => "does_not_fit",
        SchedulingError::AlreadyPlaced { .. } => "already_placed",
        SchedulingError::StrandedJobs { .. } => "stranded",
        SchedulingError::UnassignedCompletion { .. } => "unassigned_completion",
        SchedulingError::PredecessorIncomplete { .. } => "predecessor_incomplete",
        SchedulingError::UnplaceableJob { .. } => "unplaceable",
    }
}

/// The placement interface handed to an [`OnlinePolicy`] at each event.
///
/// Placements take effect immediately (`S_j = now`): capacity is consumed at
/// once, so feasibility checks for subsequent placements within the same
/// event see earlier placements.
pub struct Dispatcher<'a> {
    cluster: &'a mut ClusterState,
    schedule: &'a mut Schedule,
    instance: &'a Instance,
    now: Time,
    /// Every successful placement of this event as `(job, machine)`, in
    /// placement order.
    placed: &'a mut Vec<(JobId, u32)>,
    gate: Option<&'a PrecedenceGate>,
}

impl<'a> Dispatcher<'a> {
    /// Builds a dispatcher for one event at `now` that appends its
    /// placements to `placed`; only the [`EventKernel`](crate::EventKernel)
    /// does.
    pub(crate) fn new(
        cluster: &'a mut ClusterState,
        schedule: &'a mut Schedule,
        instance: &'a Instance,
        now: Time,
        placed: &'a mut Vec<(JobId, u32)>,
    ) -> Self {
        Dispatcher {
            cluster,
            schedule,
            instance,
            now,
            placed,
            gate: None,
        }
    }

    /// Attaches a precedence gate: placements of jobs with incomplete
    /// predecessors are rejected with
    /// [`SchedulingError::PredecessorIncomplete`]. The kernel attaches the
    /// gate only for instances that carry precedence edges.
    pub(crate) fn set_gate(&mut self, gate: &'a PrecedenceGate) {
        self.gate = Some(gate);
    }

    /// The current simulated time.
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// The instance being scheduled. Returned at the dispatcher's own
    /// lifetime so callers can hold it across [`Dispatcher::place`] calls.
    #[inline]
    pub fn instance(&self) -> &'a Instance {
        self.instance
    }

    /// Read access to the instantaneous cluster state.
    #[inline]
    pub fn cluster(&self) -> &ClusterState {
        self.cluster
    }

    /// Starts `job` on `machine` right now.
    ///
    /// Returns a typed [`SchedulingError`] if `machine` is out of range or
    /// currently failed, the job has not been released, does not fit on
    /// `machine`, or was already placed — all policy bugs, surfaced as
    /// errors so the caller can attribute them instead of aborting the
    /// process.
    pub fn place(&mut self, machine: usize, job: JobId) -> Result<(), SchedulingError> {
        self.place_inner(machine, job).inspect_err(|e| {
            mris_obs::counter_add_labeled(
                "mris_dispatcher_rejections_total",
                ("reason", rejection_reason(e)),
                1,
            );
        })
    }

    fn place_inner(&mut self, machine: usize, job: JobId) -> Result<(), SchedulingError> {
        if machine >= self.cluster.num_machines() {
            return Err(SchedulingError::InvalidMachine {
                machine,
                num_machines: self.cluster.num_machines(),
            });
        }
        if !self.cluster.is_up(machine) {
            return Err(SchedulingError::MachineDown { machine });
        }
        let j = self.instance.job(job);
        if j.release > self.now {
            return Err(SchedulingError::PlacedBeforeRelease {
                job,
                release: j.release,
                now: self.now,
            });
        }
        if let Some(gate) = self.gate {
            if !gate.is_ready(job) {
                let pred = gate
                    .first_incomplete_pred(job, self.instance)
                    .expect("gated job must have an incomplete predecessor");
                return Err(SchedulingError::PredecessorIncomplete { job, pred });
            }
        }
        if !self.cluster.fits(machine, &j.demands) {
            return Err(SchedulingError::DoesNotFit { job, machine });
        }
        self.schedule
            .assign(job, machine, self.now)
            .map_err(|_| SchedulingError::AlreadyPlaced { job })?;
        self.cluster.start(machine, j, self.now);
        self.placed.push((job, machine as u32));
        mris_obs::counter_add("mris_dispatcher_placements_total", 1);
        Ok(())
    }
}

/// An online scheduling policy driven by [`run_online`].
///
/// The policy owns its pending-job bookkeeping: the driver announces
/// arrivals, and at every event (arrival and/or completion) asks the policy
/// to dispatch. Jobs the policy places must be removed from its own pending
/// structures.
pub trait OnlinePolicy: Send {
    /// Called when jobs arrive (release time reached), before `dispatch` at
    /// the same event. `arrived` is ordered by release, ties by id.
    fn on_arrivals(&mut self, now: Time, arrived: &[JobId], instance: &Instance);

    /// Called at every event after completions and arrivals are applied.
    /// `freed_machines` lists machines on which a job just completed
    /// (sorted, deduplicated; empty for pure-arrival events).
    ///
    /// Placement failures from [`Dispatcher::place`] should be propagated
    /// with `?`; the driver aborts the run and surfaces the error.
    fn dispatch(
        &mut self,
        dispatcher: &mut Dispatcher<'_>,
        freed_machines: &[usize],
    ) -> Result<(), SchedulingError>;

    /// Fault hook: `machine` failed at `now` and will recover at
    /// `recover_at`; `killed` lists the jobs that were running on it (sorted
    /// by id). The driver re-releases killed jobs itself (they arrive again
    /// through [`OnlinePolicy::on_arrivals`]); this hook is for policies
    /// with *additional* per-machine state — MRIS uses it to truncate the
    /// failed machine's committed timeline and re-plan orphaned
    /// committed-but-unstarted jobs. Default: no-op, so fault-oblivious
    /// policies run unmodified under [`crate::run_online_chaos`].
    fn on_machine_failed(
        &mut self,
        _now: Time,
        _machine: usize,
        _recover_at: Time,
        _killed: &[JobId],
        _instance: &Instance,
    ) {
    }

    /// Fault hook: `machine` came back up at `now`. The driver also lists
    /// recovered machines in `freed_machines` at the same event's
    /// [`OnlinePolicy::dispatch`] call, so incremental policies re-examine
    /// them without extra work here. Default: no-op.
    fn on_machine_recovered(&mut self, _now: Time, _machine: usize, _instance: &Instance) {}

    /// The next time this policy wants a dispatch event even if no arrival,
    /// completion, or fault event occurs then. MRIS uses this to run its
    /// interval boundaries `gamma_k` as scheduled; pure event-driven
    /// policies return `None` (the default). Times at or before the current
    /// event are ignored by the driver.
    fn next_wakeup(&self) -> Option<Time> {
        None
    }

    /// Encodes the policy's replay-relevant state into `e`, canonically,
    /// from the [`Codec`](mris_types::Codec) values it holds where it can;
    /// returns `true` if the policy supports it. The service durability
    /// layer stores it in every snapshot, and restoring from a snapshot
    /// hands it back to [`OnlinePolicy::decode_durable_state`]. A policy
    /// without this hook (the default, returning `false`) can only be
    /// restored by replaying its journal from genesis; a snapshot supplied
    /// for it is refused.
    ///
    /// Canonical means: derived caches, scratch buffers, and probe-order
    /// heuristics are excluded, and unordered containers are emitted in a
    /// sorted order, so two policies with equal observable behavior encode
    /// identically.
    fn encode_durable_state(&self, _e: &mut Encoder) -> bool {
        false
    }

    /// The inverse of [`OnlinePolicy::encode_durable_state`]: replaces the
    /// state of this freshly constructed policy (built for the same
    /// instance and cluster as the encoding one) with the one `d` reads,
    /// where `instance` holds the working weights at the time of the
    /// encoding. A policy is a trait object, so it decodes in place rather
    /// than building a new value as a [`Codec`](mris_types::Codec) does.
    /// Returns `Ok(false)` if the policy has no decoder (the default).
    /// Decoders check every job and machine index, and refuse bytes that
    /// another policy or configuration wrote where they can tell; the
    /// caller checks that every byte was read, then re-encodes the decoded
    /// state and compares it with the bytes, so anything a decoder accepts
    /// that does not round-trip is caught there.
    fn decode_durable_state(
        &mut self,
        _d: &mut Decoder<'_>,
        _instance: &Instance,
    ) -> Result<bool, CodecError> {
        Ok(false)
    }
}

/// Runs `policy` over `instance` on the cluster described by `cluster` —
/// a bare machine count (the historical uniform cluster) or an explicit
/// [`ClusterSpec`] with per-machine speeds and capacities — and returns the
/// complete schedule.
///
/// Thin wrapper over the unified event-loop driver
/// ([`crate::run_driver`]) with fault-free defaults (no fault plan) — see
/// [`crate::run_driver_observed`] for the full event-loop semantics.
///
/// # Errors
///
/// Returns a [`SchedulingError`] if the policy strands jobs (leaves them
/// unplaced after the last event) or violates placement rules — see
/// [`Dispatcher::place`]. Any work-conserving policy places every job: when
/// the cluster drains, all pending jobs fit an idle machine.
pub fn run_online<P: OnlinePolicy + ?Sized>(
    instance: &Instance,
    cluster: impl Into<ClusterSpec>,
    policy: &mut P,
) -> Result<Schedule, SchedulingError> {
    crate::run_driver(instance, cluster, policy, crate::RunOptions::new())
        .map(|outcome| outcome.schedule)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mris_types::Job;

    /// A trivial FIFO policy: place pending jobs in arrival order on the
    /// first machine that fits.
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

    fn inst(jobs: Vec<Job>, r: usize) -> Instance {
        Instance::new(jobs, r).unwrap()
    }

    #[test]
    fn fifo_serializes_conflicting_jobs() {
        let instance = inst(
            vec![
                Job::from_fractions(JobId(0), 0.0, 2.0, 1.0, &[0.8]),
                Job::from_fractions(JobId(1), 0.0, 3.0, 1.0, &[0.8]),
                Job::from_fractions(JobId(2), 1.0, 1.0, 1.0, &[0.1]),
            ],
            1,
        );
        let mut policy = Fifo { pending: vec![] };
        let s = run_online(&instance, 1, &mut policy).unwrap();
        s.validate(&instance).unwrap();
        assert_eq!(s.get(JobId(0)).unwrap().start, 0.0);
        assert_eq!(s.get(JobId(1)).unwrap().start, 2.0);
        // Job 2 fits alongside job 0 at its arrival.
        assert_eq!(s.get(JobId(2)).unwrap().start, 1.0);
    }

    #[test]
    fn multiple_machines_used_in_order() {
        let instance = inst(
            vec![
                Job::from_fractions(JobId(0), 0.0, 5.0, 1.0, &[1.0]),
                Job::from_fractions(JobId(1), 0.0, 5.0, 1.0, &[1.0]),
            ],
            1,
        );
        let s = run_online(&instance, 2, &mut Fifo { pending: vec![] }).unwrap();
        s.validate(&instance).unwrap();
        assert_eq!(s.get(JobId(0)).unwrap().machine, 0);
        assert_eq!(s.get(JobId(1)).unwrap().machine, 1);
        assert_eq!(s.makespan(&instance), 5.0);
    }

    #[test]
    fn observer_sees_monotone_progress() {
        let instance = inst(
            (0..8)
                .map(|i| Job::from_fractions(JobId(i), (i % 3) as f64, 2.0, 1.0, &[0.6]))
                .collect(),
            1,
        );
        let mut snapshots = Vec::new();
        let s = crate::run_driver_observed(
            &instance,
            2,
            &mut Fifo { pending: vec![] },
            crate::RunOptions::new(),
            |snap| snapshots.push(*snap),
        )
        .unwrap()
        .schedule;
        s.validate(&instance).unwrap();
        assert!(!snapshots.is_empty());
        for w in snapshots.windows(2) {
            assert!(w[0].time <= w[1].time);
            assert!(w[0].placed <= w[1].placed);
            assert!(w[0].released <= w[1].released);
        }
        let last = snapshots.last().unwrap();
        assert_eq!(last.placed, instance.len());
        assert_eq!(last.released, instance.len());
        assert_eq!(last.running, 0);
    }

    #[test]
    fn empty_instance_yields_empty_schedule() {
        let instance = inst(vec![], 1);
        let s = run_online(&instance, 3, &mut Fifo { pending: vec![] }).unwrap();
        assert!(s.is_complete());
        assert_eq!(s.num_jobs(), 0);
    }

    #[test]
    fn premature_placement_is_a_typed_error() {
        struct Premature;
        impl OnlinePolicy for Premature {
            fn on_arrivals(&mut self, _now: Time, _arrived: &[JobId], _inst: &Instance) {}
            fn dispatch(
                &mut self,
                d: &mut Dispatcher<'_>,
                _freed: &[usize],
            ) -> Result<(), SchedulingError> {
                // Job 1 is released at t = 2 but the first event is at t = 0.
                d.place(0, JobId(1))
            }
        }
        let instance = inst(
            vec![
                Job::from_fractions(JobId(0), 0.0, 1.0, 1.0, &[0.1]),
                Job::from_fractions(JobId(1), 2.0, 1.0, 1.0, &[0.1]),
            ],
            1,
        );
        let err = run_online(&instance, 1, &mut Premature).unwrap_err();
        assert_eq!(
            err,
            SchedulingError::PlacedBeforeRelease {
                job: JobId(1),
                release: 2.0,
                now: 0.0
            }
        );
    }

    #[test]
    fn overfull_placement_is_a_typed_error() {
        struct Cram;
        impl OnlinePolicy for Cram {
            fn on_arrivals(&mut self, _now: Time, _arrived: &[JobId], _inst: &Instance) {}
            fn dispatch(
                &mut self,
                d: &mut Dispatcher<'_>,
                _freed: &[usize],
            ) -> Result<(), SchedulingError> {
                d.place(0, JobId(0))?;
                d.place(0, JobId(1)) // 0.7 + 0.7 > capacity
            }
        }
        let instance = inst(
            vec![
                Job::from_fractions(JobId(0), 0.0, 1.0, 1.0, &[0.7]),
                Job::from_fractions(JobId(1), 0.0, 1.0, 1.0, &[0.7]),
            ],
            1,
        );
        let err = run_online(&instance, 1, &mut Cram).unwrap_err();
        assert_eq!(
            err,
            SchedulingError::DoesNotFit {
                job: JobId(1),
                machine: 0
            }
        );
    }

    #[test]
    fn out_of_range_machine_is_a_typed_error() {
        struct WrongMachine;
        impl OnlinePolicy for WrongMachine {
            fn on_arrivals(&mut self, _now: Time, _arrived: &[JobId], _inst: &Instance) {}
            fn dispatch(
                &mut self,
                d: &mut Dispatcher<'_>,
                _freed: &[usize],
            ) -> Result<(), SchedulingError> {
                // The cluster has machines 0 and 1; machine 2 is a policy bug
                // and must surface as a typed error, not an index panic.
                d.place(2, JobId(0))
            }
        }
        let instance = inst(
            vec![Job::from_fractions(JobId(0), 0.0, 1.0, 1.0, &[0.1])],
            1,
        );
        let err = run_online(&instance, 2, &mut WrongMachine).unwrap_err();
        assert_eq!(
            err,
            SchedulingError::InvalidMachine {
                machine: 2,
                num_machines: 2
            }
        );
    }

    #[test]
    fn placement_on_down_machine_is_a_typed_error() {
        let instance = inst(
            vec![Job::from_fractions(JobId(0), 0.0, 1.0, 1.0, &[0.1])],
            1,
        );
        let mut cluster = ClusterState::new(2, 1);
        cluster.fail_machine(0);
        let mut schedule = Schedule::new(1, 2);
        let mut placed = Vec::new();
        let mut d = Dispatcher::new(&mut cluster, &mut schedule, &instance, 0.0, &mut placed);
        assert_eq!(
            d.place(0, JobId(0)).unwrap_err(),
            SchedulingError::MachineDown { machine: 0 }
        );
        // The healthy machine still accepts the job.
        d.place(1, JobId(0)).unwrap();
    }

    #[test]
    fn duplicate_placement_is_a_typed_error() {
        struct Twice;
        impl OnlinePolicy for Twice {
            fn on_arrivals(&mut self, _now: Time, _arrived: &[JobId], _inst: &Instance) {}
            fn dispatch(
                &mut self,
                d: &mut Dispatcher<'_>,
                _freed: &[usize],
            ) -> Result<(), SchedulingError> {
                d.place(0, JobId(0))?;
                d.place(1, JobId(0))
            }
        }
        let instance = inst(
            vec![Job::from_fractions(JobId(0), 0.0, 1.0, 1.0, &[0.1])],
            1,
        );
        let err = run_online(&instance, 2, &mut Twice).unwrap_err();
        assert_eq!(err, SchedulingError::AlreadyPlaced { job: JobId(0) });
    }

    #[test]
    fn stranding_jobs_is_a_typed_error() {
        struct Lazy;
        impl OnlinePolicy for Lazy {
            fn on_arrivals(&mut self, _now: Time, _arrived: &[JobId], _inst: &Instance) {}
            fn dispatch(
                &mut self,
                _d: &mut Dispatcher<'_>,
                _freed: &[usize],
            ) -> Result<(), SchedulingError> {
                Ok(())
            }
        }
        let instance = inst(
            (0..3)
                .map(|i| Job::from_fractions(JobId(i), 0.0, 1.0, 1.0, &[0.1]))
                .collect(),
            1,
        );
        let err = run_online(&instance, 1, &mut Lazy).unwrap_err();
        assert_eq!(err, SchedulingError::StrandedJobs { unplaced: 3 });
    }

    #[test]
    fn arrivals_delivered_in_release_order() {
        struct Recorder {
            seen: Vec<(Time, JobId)>,
            fifo: Fifo,
        }
        impl OnlinePolicy for Recorder {
            fn on_arrivals(&mut self, now: Time, arrived: &[JobId], inst: &Instance) {
                for &j in arrived {
                    self.seen.push((now, j));
                }
                self.fifo.on_arrivals(now, arrived, inst);
            }
            fn dispatch(
                &mut self,
                d: &mut Dispatcher<'_>,
                freed: &[usize],
            ) -> Result<(), SchedulingError> {
                self.fifo.dispatch(d, freed)
            }
        }
        let instance = inst(
            vec![
                Job::from_fractions(JobId(0), 2.0, 1.0, 1.0, &[0.1]),
                Job::from_fractions(JobId(1), 0.0, 1.0, 1.0, &[0.1]),
                Job::from_fractions(JobId(2), 2.0, 1.0, 1.0, &[0.1]),
            ],
            1,
        );
        let mut rec = Recorder {
            seen: vec![],
            fifo: Fifo { pending: vec![] },
        };
        let s = run_online(&instance, 1, &mut rec).unwrap();
        s.validate(&instance).unwrap();
        assert_eq!(
            rec.seen,
            vec![(0.0, JobId(1)), (2.0, JobId(0)), (2.0, JobId(2))]
        );
    }
}
