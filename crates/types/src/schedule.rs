//! Schedules: assignments of jobs to machines and start times, plus the
//! paper's objective functions and an exact feasibility validator.

use crate::instance::Instance;
use crate::job::JobId;
use crate::machine::ClusterSpec;
use crate::Time;

/// One job's placement: which machine it runs on and when it starts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Assignment {
    /// The placed job.
    pub job: JobId,
    /// Machine index in `0..M`.
    pub machine: usize,
    /// Start time `S_j`. The job occupies its demands during `[start, start + p_j)`.
    pub start: Time,
}

/// A schedule produced by some algorithm: a (possibly partial) map from jobs
/// to [`Assignment`]s on `M` machines.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    slots: Vec<Option<(u32, Time)>>,
    num_machines: usize,
}

/// A schedule failed validation (see [`Schedule::validate`]).
#[derive(Debug, Clone, PartialEq)]
pub enum ScheduleError {
    /// A job was assigned twice.
    DoubleAssignment(JobId),
    /// The machine index is out of `0..M`.
    MachineOutOfRange {
        /// Offending job.
        job: JobId,
        /// The invalid machine index.
        machine: usize,
    },
    /// A job id outside the schedule's job range was assigned.
    UnknownJob(JobId),
    /// A job has no assignment but validation requires a complete schedule.
    Unassigned(JobId),
    /// A job starts before its release time (violates the online model).
    StartsBeforeRelease {
        /// Offending job.
        job: JobId,
        /// The assigned start.
        start: Time,
        /// The job's release time.
        release: Time,
    },
    /// A job's start time is not finite.
    NonFiniteStart(JobId),
    /// The summed demand of concurrently running jobs exceeds a machine's
    /// capacity for some resource at some instant.
    CapacityExceeded {
        /// Machine on which the violation occurs.
        machine: usize,
        /// Resource index that overflows.
        resource: usize,
        /// An instant at which the violation holds.
        at: Time,
    },
    /// A job starts before one of its precedence predecessors completes.
    PrecedenceViolated {
        /// The predecessor whose completion was not awaited.
        pred: JobId,
        /// The prematurely started successor.
        succ: JobId,
    },
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScheduleError::DoubleAssignment(j) => write!(f, "job {j} assigned twice"),
            ScheduleError::MachineOutOfRange { job, machine } => {
                write!(f, "job {job} assigned to out-of-range machine {machine}")
            }
            ScheduleError::UnknownJob(j) => write!(f, "job {j} is not part of this schedule"),
            ScheduleError::Unassigned(j) => write!(f, "job {j} was never assigned"),
            ScheduleError::StartsBeforeRelease {
                job,
                start,
                release,
            } => write!(
                f,
                "job {job} starts at {start} before its release {release}"
            ),
            ScheduleError::NonFiniteStart(j) => write!(f, "job {j} has a non-finite start time"),
            ScheduleError::CapacityExceeded {
                machine,
                resource,
                at,
            } => write!(
                f,
                "machine {machine} exceeds capacity of resource {resource} at time {at}"
            ),
            ScheduleError::PrecedenceViolated { pred, succ } => {
                write!(
                    f,
                    "job {succ} starts before its predecessor {pred} completes"
                )
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

impl Schedule {
    /// An empty schedule for `num_jobs` jobs on `num_machines` machines.
    pub fn new(num_jobs: usize, num_machines: usize) -> Self {
        Schedule {
            slots: vec![None; num_jobs],
            num_machines,
        }
    }

    /// Number of machines `M` this schedule targets.
    #[inline]
    pub fn num_machines(&self) -> usize {
        self.num_machines
    }

    /// Number of jobs the schedule covers (assigned or not).
    #[inline]
    pub fn num_jobs(&self) -> usize {
        self.slots.len()
    }

    /// Records an assignment. Fails if the job is out of range, already
    /// assigned, or the machine index is invalid.
    pub fn assign(&mut self, job: JobId, machine: usize, start: Time) -> Result<(), ScheduleError> {
        if machine >= self.num_machines {
            return Err(ScheduleError::MachineOutOfRange { job, machine });
        }
        let slot = self
            .slots
            .get_mut(job.index())
            .ok_or(ScheduleError::UnknownJob(job))?;
        if slot.is_some() {
            return Err(ScheduleError::DoubleAssignment(job));
        }
        *slot = Some((machine as u32, start));
        Ok(())
    }

    /// Removes and returns `job`'s assignment, if it had one. Used by the
    /// fault-injection layer when a machine failure kills an in-flight job
    /// and it must be re-released as a fresh arrival. Out-of-range jobs
    /// return `None`.
    pub fn unassign(&mut self, job: JobId) -> Option<Assignment> {
        self.slots
            .get_mut(job.index())
            .and_then(Option::take)
            .map(|(machine, start)| Assignment {
                job,
                machine: machine as usize,
                start,
            })
    }

    /// The assignment of `job`, if it has one.
    #[inline]
    pub fn get(&self, job: JobId) -> Option<Assignment> {
        self.slots
            .get(job.index())
            .copied()
            .flatten()
            .map(|(machine, start)| Assignment {
                job,
                machine: machine as usize,
                start,
            })
    }

    /// Whether every job has been assigned.
    pub fn is_complete(&self) -> bool {
        self.slots.iter().all(Option::is_some)
    }

    /// Iterates over all recorded assignments, in job-id order.
    pub fn assignments(&self) -> impl Iterator<Item = Assignment> + '_ {
        self.slots.iter().enumerate().filter_map(|(i, slot)| {
            slot.map(|(machine, start)| Assignment {
                job: JobId(i as u32),
                machine: machine as usize,
                start,
            })
        })
    }

    /// `C_j = S_j + p_j` for an assigned job.
    pub fn completion_time(&self, instance: &Instance, job: JobId) -> Option<Time> {
        self.get(job).map(|a| a.start + instance.job(job).proc_time)
    }

    /// Total weighted completion time `sum_j w_j C_j` over assigned jobs.
    pub fn total_weighted_completion(&self, instance: &Instance) -> f64 {
        self.assignments()
            .map(|a| {
                let j = instance.job(a.job);
                j.weight * (a.start + j.proc_time)
            })
            .sum()
    }

    /// Total weighted completion time with per-machine speeds applied
    /// (`C_j = S_j + p_j / s_m`). Bit-identical to
    /// [`total_weighted_completion`](Self::total_weighted_completion) on
    /// uniform clusters (`p / 1.0 == p` exactly).
    pub fn total_weighted_completion_on(&self, instance: &Instance, spec: &ClusterSpec) -> f64 {
        self.assignments()
            .map(|a| {
                let j = instance.job(a.job);
                j.weight * (a.start + spec.effective_time(a.machine, j.proc_time))
            })
            .sum()
    }

    /// Average weighted completion time on a heterogeneous cluster.
    pub fn awct_on(&self, instance: &Instance, spec: &ClusterSpec) -> f64 {
        if instance.is_empty() {
            return 0.0;
        }
        self.total_weighted_completion_on(instance, spec) / instance.len() as f64
    }

    /// Average weighted completion time `(1/N) sum_j w_j C_j` — the paper's
    /// primary objective. `N` is the instance size, so a partial schedule is
    /// penalized by its missing jobs contributing zero (callers should
    /// validate completeness first).
    pub fn awct(&self, instance: &Instance) -> f64 {
        if instance.is_empty() {
            return 0.0;
        }
        self.total_weighted_completion(instance) / instance.len() as f64
    }

    /// Makespan `max_j C_j` over assigned jobs (0 if nothing is assigned).
    pub fn makespan(&self, instance: &Instance) -> Time {
        self.assignments()
            .map(|a| a.start + instance.job(a.job).proc_time)
            .fold(0.0, f64::max)
    }

    /// Queuing delay `S_j - r_j` per assigned job, in job-id order
    /// (Section 7.5.2).
    pub fn queuing_delays(&self, instance: &Instance) -> Vec<Time> {
        self.assignments()
            .map(|a| a.start - instance.job(a.job).release)
            .collect()
    }

    /// Validates the schedule against the paper's model:
    ///
    /// 1. every job is assigned exactly once to a machine in `0..M`,
    /// 2. `S_j >= r_j` with finite starts,
    /// 3. at every instant, the fixed-point demand sum of concurrently
    ///    running jobs on each machine is at most
    ///    [`CAPACITY`](crate::CAPACITY) per resource,
    /// 4. no job starts before any of its precedence predecessors
    ///    completes.
    ///
    /// The capacity check sweeps each machine's start/end events with exact
    /// integer sums; a job ending at `t` frees capacity for one starting at
    /// `t` (occupancy intervals are half-open `[S_j, C_j)`).
    pub fn validate(&self, instance: &Instance) -> Result<(), ScheduleError> {
        self.validate_impl(instance, None)
    }

    /// [`validate`](Self::validate) against a heterogeneous cluster: job
    /// occupancy is `[S_j, S_j + p_j / s_m)` and per-machine capacities
    /// replace the global one. Identical to `validate` for uniform specs.
    pub fn validate_on(
        &self,
        instance: &Instance,
        spec: &ClusterSpec,
    ) -> Result<(), ScheduleError> {
        assert_eq!(
            spec.len(),
            self.num_machines,
            "cluster spec machine count must match the schedule"
        );
        self.validate_impl(instance, Some(spec))
    }

    fn validate_impl(
        &self,
        instance: &Instance,
        spec: Option<&ClusterSpec>,
    ) -> Result<(), ScheduleError> {
        let num_resources = instance.num_resources();
        let eff = |machine: usize, p: Time| match spec {
            Some(s) => s.effective_time(machine, p),
            None => p,
        };
        // Per-job checks and event collection per machine.
        let mut events: Vec<Vec<(Time, bool, JobId)>> = vec![Vec::new(); self.num_machines];
        for (i, slot) in self.slots.iter().enumerate() {
            let job = JobId(i as u32);
            let Some((machine, start)) = *slot else {
                return Err(ScheduleError::Unassigned(job));
            };
            if !start.is_finite() {
                return Err(ScheduleError::NonFiniteStart(job));
            }
            let release = instance.job(job).release;
            if start < release {
                return Err(ScheduleError::StartsBeforeRelease {
                    job,
                    start,
                    release,
                });
            }
            let m = machine as usize;
            let end = start + eff(m, instance.job(job).proc_time);
            events[m].push((start, true, job));
            events[m].push((end, false, job));
        }
        // Precedence: a successor may not start before its predecessor's
        // (machine-speed-adjusted) completion.
        for &(pred, succ) in instance.edges() {
            let pa = self.get(pred).ok_or(ScheduleError::Unassigned(pred))?;
            let sa = self.get(succ).ok_or(ScheduleError::Unassigned(succ))?;
            let pred_end = pa.start + eff(pa.machine, instance.job(pred).proc_time);
            if sa.start < pred_end {
                return Err(ScheduleError::PrecedenceViolated { pred, succ });
            }
        }
        // Sweep each machine; ends sort before starts at equal times.
        let mut usage = vec![0u64; num_resources];
        for (machine, mut evs) in events.into_iter().enumerate() {
            usage.fill(0);
            evs.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
            // After the sort, at equal time all `false` (end) events precede
            // `true` (start) events because `false < true`.
            for (at, is_start, job) in evs {
                let demands = &instance.job(job).demands;
                if is_start {
                    for (l, (u, d)) in usage.iter_mut().zip(demands.iter()).enumerate() {
                        *u += d;
                        let cap = match spec {
                            Some(s) => s.capacity(machine, l),
                            None => crate::resource::CAPACITY,
                        };
                        if *u > cap {
                            return Err(ScheduleError::CapacityExceeded {
                                machine,
                                resource: l,
                                at,
                            });
                        }
                    }
                } else {
                    for (u, d) in usage.iter_mut().zip(demands.iter()) {
                        *u -= d;
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Job;

    fn instance() -> Instance {
        Instance::new(
            vec![
                Job::from_fractions(JobId(0), 0.0, 2.0, 1.0, &[0.6]),
                Job::from_fractions(JobId(1), 0.0, 2.0, 3.0, &[0.6]),
                Job::from_fractions(JobId(2), 1.0, 1.0, 1.0, &[0.4]),
            ],
            1,
        )
        .unwrap()
    }

    #[test]
    fn assign_and_metrics() {
        let inst = instance();
        let mut s = Schedule::new(3, 1);
        s.assign(JobId(0), 0, 0.0).unwrap();
        s.assign(JobId(1), 0, 2.0).unwrap();
        s.assign(JobId(2), 0, 1.0).unwrap();
        assert!(s.is_complete());
        s.validate(&inst).unwrap();
        // C = [2, 4, 2]; weights [1, 3, 1] => total = 2 + 12 + 2 = 16.
        assert!((s.total_weighted_completion(&inst) - 16.0).abs() < 1e-9);
        assert!((s.awct(&inst) - 16.0 / 3.0).abs() < 1e-9);
        assert!((s.makespan(&inst) - 4.0).abs() < 1e-9);
        assert_eq!(s.queuing_delays(&inst), vec![0.0, 2.0, 0.0]);
    }

    #[test]
    fn validate_rejects_capacity_violation() {
        let inst = instance();
        let mut s = Schedule::new(3, 1);
        // Jobs 0 and 1 overlap: 0.6 + 0.6 > 1.
        s.assign(JobId(0), 0, 0.0).unwrap();
        s.assign(JobId(1), 0, 1.0).unwrap();
        s.assign(JobId(2), 0, 4.0).unwrap();
        assert!(matches!(
            s.validate(&inst).unwrap_err(),
            ScheduleError::CapacityExceeded {
                machine: 0,
                resource: 0,
                ..
            }
        ));
    }

    #[test]
    fn touching_intervals_are_feasible() {
        let inst = instance();
        let mut s = Schedule::new(3, 1);
        // Job 1 starts exactly when job 0 ends: feasible (half-open).
        s.assign(JobId(0), 0, 0.0).unwrap();
        s.assign(JobId(1), 0, 2.0).unwrap();
        s.assign(JobId(2), 0, 1.0).unwrap();
        s.validate(&inst).unwrap();
    }

    #[test]
    fn validate_rejects_early_start() {
        let inst = instance();
        let mut s = Schedule::new(3, 1);
        s.assign(JobId(0), 0, 0.0).unwrap();
        s.assign(JobId(1), 0, 2.0).unwrap();
        s.assign(JobId(2), 0, 0.5).unwrap(); // release is 1.0
        assert!(matches!(
            s.validate(&inst).unwrap_err(),
            ScheduleError::StartsBeforeRelease { .. }
        ));
    }

    #[test]
    fn validate_rejects_incomplete() {
        let inst = instance();
        let mut s = Schedule::new(3, 1);
        s.assign(JobId(0), 0, 0.0).unwrap();
        assert!(matches!(
            s.validate(&inst).unwrap_err(),
            ScheduleError::Unassigned(JobId(1))
        ));
    }

    #[test]
    fn assign_errors() {
        let mut s = Schedule::new(2, 2);
        s.assign(JobId(0), 0, 0.0).unwrap();
        assert!(matches!(
            s.assign(JobId(0), 1, 1.0).unwrap_err(),
            ScheduleError::DoubleAssignment(JobId(0))
        ));
        assert!(matches!(
            s.assign(JobId(1), 2, 0.0).unwrap_err(),
            ScheduleError::MachineOutOfRange { machine: 2, .. }
        ));
        assert!(matches!(
            s.assign(JobId(9), 0, 0.0).unwrap_err(),
            ScheduleError::UnknownJob(JobId(9))
        ));
    }

    #[test]
    fn unassign_frees_the_slot() {
        let mut s = Schedule::new(2, 2);
        s.assign(JobId(0), 1, 3.0).unwrap();
        let a = s.unassign(JobId(0)).unwrap();
        assert_eq!((a.machine, a.start), (1, 3.0));
        assert!(s.get(JobId(0)).is_none());
        assert!(s.unassign(JobId(0)).is_none());
        assert!(s.unassign(JobId(7)).is_none());
        // The slot is reusable after unassignment.
        s.assign(JobId(0), 0, 5.0).unwrap();
        assert_eq!(s.get(JobId(0)).unwrap().start, 5.0);
    }

    #[test]
    fn multi_machine_validation_is_independent() {
        let inst = Instance::new(
            vec![
                Job::from_fractions(JobId(0), 0.0, 2.0, 1.0, &[0.9]),
                Job::from_fractions(JobId(1), 0.0, 2.0, 1.0, &[0.9]),
            ],
            1,
        )
        .unwrap();
        let mut s = Schedule::new(2, 2);
        s.assign(JobId(0), 0, 0.0).unwrap();
        s.assign(JobId(1), 1, 0.0).unwrap();
        s.validate(&inst).unwrap();
    }
}
