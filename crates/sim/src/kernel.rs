//! The event kernel shared by the batch driver and `mris-service`; see
//! [`EventKernel`].

use std::borrow::Cow;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use mris_types::{
    ClusterSpec, Codec, CodecError, Decoder, Encoder, FaultEvent, FaultTarget, Instance, JobId,
    RestartSemantics, Schedule, SchedulingError, Time,
};

use crate::fault::{ChaosOutcome, CompletionRecord, FailureRecord, FaultLog};
use crate::precedence::PrecedenceGate;
use crate::{ClusterState, Dispatcher, OnlinePolicy, OrdTime};

/// Receives what the kernel did at one instant, in the order it did it.
/// This is the one record of a run: callers count and journal what they
/// need from it, and nothing else reports per event. Every method defaults
/// to a no-op.
pub trait EventSink {
    /// `job` ran to completion on `machine`.
    fn completed(&mut self, _job: JobId, _machine: usize) {}

    /// The last predecessor of held job `job` completed; it is listed by
    /// [`EventKernel::opened`] until the next `settle`.
    fn gate_opened(&mut self, _job: JobId) {}

    /// `machine` came back up at `now`.
    fn recovered(&mut self, _now: Time, _machine: usize) {}

    /// `machine` failed at `now` until `recover_at`, killing `killed`
    /// (sorted by id), which will be re-released at this instant's `decide`.
    fn failed(&mut self, _now: Time, _machine: usize, _recover_at: Time, _killed: &[JobId]) {}

    /// `job` was started on `machine` at `start`, in placement order.
    fn placed(&mut self, _job: JobId, _machine: u32, _start: Time) {}
}

/// Pending fault-queue entries. Variant order matters: `Recover < Fail`,
/// so at a shared instant recoveries fire before failures. Within a kind,
/// the payload (machine index / plan index) breaks ties deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum FaultKind {
    Recover(usize),
    Fail(usize),
}

/// What the kernel holds pending between its calls: the fault queue, and
/// the jobs killed at this instant's `settle` that its `decide`
/// re-releases (none between events).
#[derive(Debug, Clone, Default)]
pub struct PendingFaults {
    queue: BinaryHeap<Reverse<(OrdTime, FaultKind)>>,
    re_released: Vec<JobId>,
}

/// The fault-queue entries in sorted order — per entry the time bits, a
/// kind byte (0 recover, 1 fail) and the machine or plan index — then the
/// re-released jobs, each list prefixed by its `u64` count. The context is
/// `(jobs, machines, strikes)`: entries must name a machine or a planned
/// strike the kernel has, and jobs must be in range.
impl Codec for PendingFaults {
    type Context<'a> = (usize, usize, usize);

    fn encode(&self, e: &mut Encoder) {
        let mut faults: Vec<(u64, u8, u64)> = self
            .queue
            .iter()
            .map(|&Reverse((t, kind))| match kind {
                FaultKind::Recover(m) => (t.0.to_bits(), 0u8, m as u64),
                FaultKind::Fail(i) => (t.0.to_bits(), 1u8, i as u64),
            })
            .collect();
        faults.sort_unstable();
        e.u64(faults.len() as u64);
        for (t, k, p) in faults {
            e.u64(t);
            e.u8(k);
            e.u64(p);
        }
        e.u64(self.re_released.len() as u64);
        for j in &self.re_released {
            e.u32(j.0);
        }
    }

    fn decode(
        d: &mut Decoder<'_>,
        (jobs, machines, strikes): (usize, usize, usize),
    ) -> Result<Self, CodecError> {
        let count = d.count(17)?;
        let mut queue = BinaryHeap::with_capacity(count);
        let mut prev = None;
        for _ in 0..count {
            let key @ (at, kind, payload) = (d.u64()?, d.u8()?, d.u64()?);
            if prev.is_some_and(|p| p >= key) {
                return Err(d.malformed("fault-queue entries out of canonical order"));
            }
            prev = Some(key);
            let kind = match (kind, payload) {
                (0, m) if m < machines as u64 => FaultKind::Recover(m as usize),
                (1, i) if i < strikes as u64 => FaultKind::Fail(i as usize),
                _ => {
                    return Err(d.malformed(format!(
                        "fault-queue entry ({kind}, {payload}) names no machine or plan event"
                    )))
                }
            };
            queue.push(Reverse((OrdTime(f64::from_bits(at)), kind)));
        }
        let count = d.count(4)?;
        let re_released = d.vec(count, |d| d.job(jobs))?;
        Ok(PendingFaults { queue, re_released })
    }
}

/// A kernel's durable state, each part decoded by its [`Codec`] against
/// the kernel's own instance, machines and plan, for
/// [`EventKernel::restore`].
#[derive(Debug)]
pub struct KernelParts {
    /// The instant of the last `settle`.
    pub last_event: Time,
    /// The fault queue and re-released jobs.
    pub faults: PendingFaults,
    /// The live cluster.
    pub cluster: ClusterState,
    /// The placements.
    pub schedule: Schedule,
    /// The audit trail.
    pub log: FaultLog,
    /// The precedence gate.
    pub gate: PrecedenceGate,
}

/// The one place that says what happens at instant `t`.
///
/// The kernel owns everything an event mutates — the live
/// [`ClusterState`], the [`Schedule`], the [`FaultLog`], the working
/// [`Instance`] (weight aging rewrites it), the [`PrecedenceGate`] and the
/// pending fault queue. Its callers own only where arrivals come from:
/// [`run_driver`](crate::run_driver) feeds it the release-sorted job slice,
/// `mris-service` feeds it an admission-controlled delivery queue. Each
/// instant is two calls with the caller's delivery in between:
///
/// 1. [`settle`](EventKernel::settle) — **completions** due at `t` (a job
///    finishing exactly at `t` survives a failure at `t`; each completion
///    may open successors' precedence gates), then **recoveries**, then
///    **failures** (a machine recovering at `t` can be struck again at `t`;
///    a strike on a down or out-of-range machine is absorbed). A failure
///    kills every job running on the machine; killed jobs lose all progress
///    and are queued for re-release with weights per the
///    [`RestartSemantics`].
/// 2. the caller collects the arrivals due at `t`, asking
///    [`ready_or_hold`](EventKernel::ready_or_hold) for each and re-offering
///    the jobs listed by [`opened`](EventKernel::opened) when it chooses;
/// 3. [`decide`](EventKernel::decide) — the **arrivals** (one
///    `on_arrivals`), then this instant's **re-releases** (a second
///    `on_arrivals`, sorted by id), then exactly **one dispatch**, then in
///    debug builds the per-event audit (no completed run overlaps a
///    downtime of its machine; nothing runs on a down machine).
///
/// What the kernel did is reported through an [`EventSink`], in that same
/// order: `completed`*, `gate_opened`*, (`recovered` | `failed`)*,
/// `placed`*; neither call returns a count. The sink is a type parameter,
/// so the calls a sink ignores compile to nothing.
pub struct EventKernel<'a> {
    /// Borrowed until weight aging first rewrites a weight, so the
    /// fault-free batch path never clones the instance.
    work: Cow<'a, Instance>,
    cluster: ClusterState,
    schedule: Schedule,
    log: FaultLog,
    gate: PrecedenceGate,
    plan: Vec<FaultEvent>,
    restart: RestartSemantics,
    faults: PendingFaults,
    last_event: Time,
    /// Held jobs whose gates this instant's completions opened.
    opened: Vec<JobId>,
    // Per-event scratch.
    freed: Vec<usize>,
    completed: Vec<(JobId, usize)>,
    placed: Vec<(JobId, u32)>,
    /// First completion record of the current event, for the debug audit.
    audit_from: usize,
}

impl<'a> EventKernel<'a> {
    /// An idle kernel over `instance` on the machines of `spec`, with the
    /// strikes of `plan` (sorted by time, as [`crate::FaultPlan`] keeps
    /// them) pending. Callers validate the [`RestartSemantics`] factor
    /// ([`RunOptions::with_restart`](crate::RunOptions::with_restart), the
    /// service's config check).
    pub fn new(
        instance: Cow<'a, Instance>,
        spec: &ClusterSpec,
        plan: &[FaultEvent],
        restart: RestartSemantics,
    ) -> Self {
        EventKernel {
            cluster: ClusterState::with_spec(spec, instance.num_resources()),
            schedule: Schedule::new(instance.len(), spec.len()),
            log: FaultLog::new(instance.len()),
            gate: PrecedenceGate::new(&instance),
            faults: PendingFaults {
                queue: plan
                    .iter()
                    .enumerate()
                    .map(|(i, e)| Reverse((OrdTime(e.at), FaultKind::Fail(i))))
                    .collect(),
                re_released: Vec::new(),
            },
            plan: plan.to_vec(),
            restart,
            work: instance,
            last_event: f64::NEG_INFINITY,
            opened: Vec::new(),
            freed: Vec::new(),
            completed: Vec::new(),
            placed: Vec::new(),
            audit_from: 0,
        }
    }

    /// The working instance: the caller's, with aged weights.
    #[inline]
    pub fn instance(&self) -> &Instance {
        &self.work
    }

    /// The live cluster.
    #[inline]
    pub fn cluster(&self) -> &ClusterState {
        &self.cluster
    }

    /// Placements so far (a killed job's placement is withdrawn).
    #[inline]
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// The audit trail so far.
    #[inline]
    pub fn log(&self) -> &FaultLog {
        &self.log
    }

    /// The precedence gate (inert for edge-free instances).
    #[inline]
    pub fn gate(&self) -> &PrecedenceGate {
        &self.gate
    }

    /// The fault queue and the jobs killed but not yet re-released.
    #[inline]
    pub fn pending_faults(&self) -> &PendingFaults {
        &self.faults
    }

    /// The instant of the last `settle`; `-inf` before the first.
    #[inline]
    pub fn last_event(&self) -> Time {
        self.last_event
    }

    /// Held jobs whose gates the last `settle` opened, ascending per
    /// completed predecessor.
    #[inline]
    pub fn opened(&self) -> &[JobId] {
        &self.opened
    }

    /// The earliest of the caller's next `arrival`, the next completion,
    /// the next fault event, and the policy's `wakeup` (ignored unless
    /// strictly after the last event); `None` when nothing is pending.
    pub fn next_event_time(&self, arrival: Option<Time>, wakeup: Option<Time>) -> Option<Time> {
        let completion = self.cluster.next_completion();
        let fault = self.faults.queue.peek().map(|&Reverse((t, _))| t.0);
        let wake = wakeup.filter(|&t| t > self.last_event);
        let mut next = f64::INFINITY;
        for t in [arrival, completion, fault, wake].into_iter().flatten() {
            next = next.min(t);
        }
        next.is_finite().then_some(next)
    }

    /// Whether released job `job` may be delivered to the policy now. If a
    /// predecessor is still outstanding the job is held instead, and will
    /// be listed by [`EventKernel::opened`] once the last one completes.
    pub fn ready_or_hold(&mut self, job: JobId) -> bool {
        let ready = self.gate.is_ready(job);
        if !ready {
            self.gate.hold(job);
        }
        ready
    }

    /// First half of the instant `now`: completions, recoveries, failures.
    ///
    /// # Errors
    ///
    /// [`SchedulingError::UnassignedCompletion`] if a completing job has no
    /// placement — completions are ordered before the failures that
    /// unassign jobs at the same instant, so this means that ordering
    /// regressed.
    pub fn settle<P: OnlinePolicy + ?Sized, S: EventSink>(
        &mut self,
        now: Time,
        policy: &mut P,
        sink: &mut S,
    ) -> Result<(), SchedulingError> {
        self.last_event = now;
        self.freed.clear();
        self.completed.clear();
        self.opened.clear();
        self.cluster
            .complete_due_recorded(now, &self.work, &mut self.completed);
        self.audit_from = self.log.completions.len();
        for &(job, machine) in &self.completed {
            let Some(a) = self.schedule.get(job) else {
                return Err(SchedulingError::UnassignedCompletion { job, machine });
            };
            let p = self.work.job(job).proc_time;
            self.log.completions.push(CompletionRecord {
                job,
                machine,
                start: a.start,
                // Exact `p / 1.0 == p` on uniform clusters.
                end: a.start + self.cluster.effective_time(machine, p),
            });
            self.gate.complete(job, &self.work, &mut self.opened);
            self.freed.push(machine);
            sink.completed(job, machine);
        }
        for &job in &self.opened {
            sink.gate_opened(job);
        }

        while let Some(&Reverse((t, kind))) = self.faults.queue.peek() {
            if t.0 > now {
                break;
            }
            self.faults.queue.pop();
            match kind {
                FaultKind::Recover(machine) => {
                    self.cluster.recover_machine(machine);
                    // Listed as freed so incremental policies re-examine it.
                    self.freed.push(machine);
                    self.log.recoveries.push((now, machine));
                    mris_obs::counter_add("mris_chaos_recoveries_total", 1);
                    policy.on_machine_recovered(now, machine, &self.work);
                    sink.recovered(now, machine);
                }
                FaultKind::Fail(idx) => {
                    let event = self.plan[idx];
                    let Some(machine) = resolve_fault_target(event.target, &self.cluster) else {
                        mris_obs::counter_add("mris_chaos_absorbed_strikes_total", 1);
                        continue;
                    };
                    let killed = self.cluster.fail_machine(machine);
                    let recover_at = now + event.downtime;
                    for &job in &killed {
                        self.schedule.unassign(job);
                        self.log.re_releases[job.index()] += 1;
                        if let RestartSemantics::WeightAging { factor } = self.restart {
                            self.work.to_mut().scale_weight(job, factor);
                        }
                        // Re-arm gates downstream of the killed job. Only
                        // running jobs can be killed and completions are
                        // processed first at a shared instant, so a killed
                        // job was never marked complete and this is a no-op
                        // today; it keeps the gate sound if the ordering
                        // ever changes. Started successors are never
                        // recalled (non-preemptive).
                        for s in self.gate.revoke(job, &self.work) {
                            if self.schedule.get(s).is_none() {
                                self.gate.hold(s);
                            }
                        }
                        self.faults.re_released.push(job);
                    }
                    self.faults
                        .queue
                        .push(Reverse((OrdTime(recover_at), FaultKind::Recover(machine))));
                    mris_obs::counter_add("mris_chaos_failures_total", 1);
                    mris_obs::counter_add("mris_chaos_re_releases_total", killed.len() as u64);
                    policy.on_machine_failed(now, machine, recover_at, &killed, &self.work);
                    sink.failed(now, machine, recover_at, &killed);
                    self.log.failures.push(FailureRecord {
                        at: now,
                        machine,
                        recover_at,
                        killed,
                    });
                }
            }
        }
        Ok(())
    }

    /// Second half of the instant `now`: delivers `arrivals` (which the
    /// caller ordered, and vetted through
    /// [`ready_or_hold`](EventKernel::ready_or_hold)), then the jobs killed
    /// by this instant's `settle`, then asks `policy` for one dispatch.
    ///
    /// # Errors
    ///
    /// Whatever placement-rule violation the policy's dispatch raised.
    pub fn decide<P: OnlinePolicy + ?Sized, S: EventSink>(
        &mut self,
        now: Time,
        arrivals: &[JobId],
        policy: &mut P,
        sink: &mut S,
    ) -> Result<(), SchedulingError> {
        self.freed.sort_unstable();
        self.freed.dedup();
        if !arrivals.is_empty() {
            policy.on_arrivals(now, arrivals, &self.work);
        }
        let re_released = &mut self.faults.re_released;
        if !re_released.is_empty() {
            re_released.sort_unstable();
            policy.on_arrivals(now, re_released, &self.work);
            re_released.clear();
        }

        self.placed.clear();
        {
            let mut dispatcher = Dispatcher::new(
                &mut self.cluster,
                &mut self.schedule,
                &self.work,
                now,
                &mut self.placed,
            );
            if self.gate.is_active() {
                dispatcher.set_gate(&self.gate);
            }
            policy.dispatch(&mut dispatcher, &self.freed)?;
        }
        for &(job, machine) in &self.placed {
            // The dispatcher starts jobs at `now`.
            sink.placed(job, machine, now);
        }

        #[cfg(debug_assertions)]
        self.audit();
        Ok(())
    }

    /// Completions recorded this event must not overlap any downtime so far
    /// (future failures cannot overlap them: a failure at `t >= now` starts
    /// at or after every end recorded by `now`), and no job may be running
    /// on a down machine.
    #[cfg(debug_assertions)]
    fn audit(&self) {
        for rec in &self.log.completions[self.audit_from..] {
            for fail in &self.log.failures {
                assert!(
                    !(rec.machine == fail.machine && rec.start < fail.recover_at && fail.at < rec.end),
                    "chaos invariant violated: {} ran [{}, {}) across downtime [{}, {}) on machine {}",
                    rec.job,
                    rec.start,
                    rec.end,
                    fail.at,
                    fail.recover_at,
                    rec.machine
                );
            }
        }
        for (_, m, job) in self.cluster.running_jobs() {
            assert!(
                self.cluster.is_up(m),
                "chaos invariant violated: {job} is running on down machine {m}"
            );
        }
    }

    /// Replaces this fresh kernel's state with `parts`, re-applying the
    /// weight aging their log records, and checks the parts against each
    /// other (errors at `d`'s offset): `weights`, the encoded working
    /// weights, must be the caller's aged by the logged kills; every running
    /// job must be placed where and when it runs; and each down machine
    /// must have exactly one pending recovery. The event loop relies on
    /// each check to stay panic-free. A kernel whose restore failed is
    /// discarded.
    pub fn restore(
        &mut self,
        parts: KernelParts,
        weights: &[f64],
        d: &Decoder<'_>,
    ) -> Result<(), CodecError> {
        let (cluster, schedule, log) = (&parts.cluster, &parts.schedule, &parts.log);
        let n = self.work.len();
        if weights.len() != n || log.re_releases.len() != n || schedule.num_jobs() != n {
            return Err(d.malformed("one weight, kill count and placement per job expected"));
        }
        let aging = match self.restart {
            RestartSemantics::WeightAging { factor } => Some(factor),
            RestartSemantics::FullRestart => None,
        };
        for (i, &want) in weights.iter().enumerate() {
            let job = JobId(i as u32);
            if let Some(factor) = aging {
                for _ in 0..log.re_releases[i] {
                    let w = self.work.job(job).weight * factor;
                    if !(w.is_finite() && w >= 0.0) {
                        return Err(d.malformed(format!("aged weight of {job} is invalid")));
                    }
                    self.work.to_mut().scale_weight(job, factor);
                }
            }
            if self.work.job(job).weight.to_bits() != want.to_bits() {
                return Err(d.malformed(format!(
                    "weight of {job} is not its weight aged by its kills"
                )));
            }
        }
        for (t, m, job) in cluster.running_jobs() {
            let placed = schedule.get(job).is_some_and(|a| {
                a.machine == m
                    && (a.start + cluster.effective_time(m, self.work.job(job).proc_time)).to_bits()
                        == t.to_bits()
            });
            if !placed {
                return Err(d.malformed(format!("running {job} is not placed where it runs")));
            }
        }
        let mut recovering = vec![false; cluster.num_machines()];
        for &Reverse((_, kind)) in &parts.faults.queue {
            if let FaultKind::Recover(m) = kind {
                if recovering[m] || cluster.is_up(m) {
                    return Err(d.malformed(format!("recovery of machine {m} is not pending")));
                }
                recovering[m] = true;
            }
        }
        if (0..recovering.len()).any(|m| !recovering[m] && !cluster.is_up(m)) {
            return Err(d.malformed("a down machine has no pending recovery"));
        }
        self.last_event = parts.last_event;
        self.faults = parts.faults;
        self.cluster = parts.cluster;
        self.schedule = parts.schedule;
        self.log = parts.log;
        self.gate = parts.gate;
        Ok(())
    }

    /// Adds `events` to the fault plan after construction, as if they had
    /// been appended to it: they fire after every planned strike at the
    /// same instant, in the given order.
    pub fn add_fault_events(&mut self, events: &[FaultEvent]) {
        for e in events {
            self.faults
                .queue
                .push(Reverse((OrdTime(e.at), FaultKind::Fail(self.plan.len()))));
            self.plan.push(*e);
        }
    }

    /// Ends the run: the schedule (every job's last placement) and the
    /// audit trail, which debug builds verify first.
    pub fn into_outcome(self) -> ChaosOutcome {
        #[cfg(debug_assertions)]
        self.log
            .verify()
            .expect("chaos invariant violated at end of run");
        ChaosOutcome {
            schedule: self.schedule,
            log: self.log,
        }
    }
}

/// Resolves a [`FaultTarget`] against the instantaneous cluster state:
/// `Machine(m)` hits `m` iff it is in range and up; `Busiest` picks the up
/// machine running the most jobs (lowest index wins ties). `None` means the
/// strike is absorbed.
fn resolve_fault_target(target: FaultTarget, cluster: &ClusterState) -> Option<usize> {
    match target {
        FaultTarget::Machine(m) => (m < cluster.num_machines() && cluster.is_up(m)).then_some(m),
        FaultTarget::Busiest => {
            let mut counts = vec![0usize; cluster.num_machines()];
            for (_, m, _) in cluster.running_jobs() {
                counts[m] += 1;
            }
            let mut best: Option<usize> = None;
            for (m, &count) in counts.iter().enumerate() {
                if cluster.is_up(m) && best.is_none_or(|b| count > counts[b]) {
                    best = Some(m);
                }
            }
            best
        }
    }
}
