//! The event kernel shared by the batch driver and `mris-service`; see
//! [`EventKernel`].

use std::borrow::Cow;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use mris_types::{
    ClusterSpec, CodecError, Decoder, FaultEvent, FaultTarget, Instance, JobId, RestartSemantics,
    Schedule, SchedulingError, Time,
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
    fault_q: BinaryHeap<Reverse<(OrdTime, FaultKind)>>,
    last_event: Time,
    /// Killed at this instant's `settle`, delivered by its `decide`.
    re_released: Vec<JobId>,
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
            fault_q: plan
                .iter()
                .enumerate()
                .map(|(i, e)| Reverse((OrdTime(e.at), FaultKind::Fail(i))))
                .collect(),
            plan: plan.to_vec(),
            restart,
            work: instance,
            last_event: f64::NEG_INFINITY,
            re_released: Vec::new(),
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
        let fault = self.fault_q.peek().map(|&Reverse((t, _))| t.0);
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

        while let Some(&Reverse((t, kind))) = self.fault_q.peek() {
            if t.0 > now {
                break;
            }
            self.fault_q.pop();
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
                        self.re_released.push(job);
                    }
                    self.fault_q
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
        if !self.re_released.is_empty() {
            self.re_released.sort_unstable();
            policy.on_arrivals(now, &self.re_released, &self.work);
            self.re_released.clear();
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

    /// Appends the pending fault state to `out` in canonical (sorted,
    /// little-endian) form: the fault-queue entry count, then per entry the
    /// time bits, a kind byte (0 recover, 1 fail) and the machine / plan
    /// index; then the count and ids of jobs killed but not yet re-released
    /// (none between events).
    pub fn durable_fault_bytes(&self, out: &mut Vec<u8>) {
        let mut faults: Vec<(u64, u8, u64)> = self
            .fault_q
            .iter()
            .map(|&Reverse((t, kind))| match kind {
                FaultKind::Recover(m) => (t.0.to_bits(), 0u8, m as u64),
                FaultKind::Fail(i) => (t.0.to_bits(), 1u8, i as u64),
            })
            .collect();
        faults.sort_unstable();
        out.extend_from_slice(&(faults.len() as u64).to_le_bytes());
        for (t, k, p) in faults {
            out.extend_from_slice(&t.to_le_bytes());
            out.push(k);
            out.extend_from_slice(&p.to_le_bytes());
        }
        out.extend_from_slice(&(self.re_released.len() as u64).to_le_bytes());
        for j in &self.re_released {
            out.extend_from_slice(&j.0.to_le_bytes());
        }
    }

    // Restoring from a snapshot. A kernel is rebuilt section by section,
    // in the order its owner's state encoding interleaves them: each
    // `load_*` is the inverse of one section's encoder and fills a freshly
    // constructed kernel, and `finish_load` checks the sections against
    // each other. Each checks what the event loop relies on to stay
    // panic-free — indices in range, counters that later events decrement
    // consistent with what they count — so a hostile snapshot is a typed
    // error. A kernel whose load failed is discarded.

    /// The inverse of [`EventKernel::durable_fault_bytes`]. Fault-queue
    /// entries must name machines and plan events this kernel has.
    pub fn load_fault_bytes(&mut self, d: &mut Decoder<'_>) -> Result<(), CodecError> {
        let count = d.count(17)?;
        let mut fault_q = BinaryHeap::with_capacity(count);
        for _ in 0..count {
            let at = d.f64()?;
            let kind = match (d.u8()?, d.u64()?) {
                (0, m) if m < self.cluster.num_machines() as u64 => FaultKind::Recover(m as usize),
                (1, i) if i < self.plan.len() as u64 => FaultKind::Fail(i as usize),
                (kind, payload) => {
                    return Err(d.malformed(format!(
                        "fault-queue entry ({kind}, {payload}) names no machine or plan event"
                    )))
                }
            };
            fault_q.push(Reverse((OrdTime(at), kind)));
        }
        let count = d.count(4)?;
        let mut re_released = Vec::with_capacity(count);
        for _ in 0..count {
            re_released.push(d.job(self.work.len())?);
        }
        self.fault_q = fault_q;
        self.re_released = re_released;
        Ok(())
    }

    /// The inverse of [`ClusterState::durable_bytes`] on the live cluster.
    pub fn load_cluster_bytes(&mut self, d: &mut Decoder<'_>) -> Result<(), CodecError> {
        self.cluster.load_durable(d, &self.work)
    }

    /// The inverse of the run section — [`Schedule::encode`] of
    /// [`EventKernel::schedule`], then [`FaultLog::encode`] of
    /// [`EventKernel::log`] — on this kernel's jobs and machines.
    pub fn load_run_bytes(&mut self, d: &mut Decoder<'_>) -> Result<(), CodecError> {
        let (jobs, machines) = (self.work.len(), self.cluster.num_machines());
        self.schedule = Schedule::decode(d, jobs, machines)?;
        self.log = FaultLog::decode(d, jobs, machines)?;
        Ok(())
    }

    /// The inverse of [`PrecedenceGate::durable_bytes_if_active`].
    pub fn load_gate_bytes(&mut self, d: &mut Decoder<'_>) -> Result<(), CodecError> {
        self.gate.load_durable_if_active(d, &self.work)
    }

    /// Completes a load: sets the last event to `last_event`, re-applies
    /// the weight aging the fault log records, and checks the sections
    /// against each other. `weights` (the encoded working weights) must be
    /// exactly what aging the caller's weights by the logged kills gives;
    /// every running job must be placed where and when it runs; and the
    /// pending recoveries must be exactly one per down machine.
    pub fn finish_load(
        &mut self,
        last_event: Time,
        weights: &[f64],
        d: &Decoder<'_>,
    ) -> Result<(), CodecError> {
        let aging = match self.restart {
            RestartSemantics::WeightAging { factor } => Some(factor),
            RestartSemantics::FullRestart => None,
        };
        if weights.len() != self.work.len() {
            return Err(d.malformed("one weight per job expected"));
        }
        for (i, &want) in weights.iter().enumerate() {
            let job = JobId(i as u32);
            let mut w = self.work.job(job).weight;
            if let Some(factor) = aging {
                for _ in 0..self.log.re_releases[i] {
                    w *= factor;
                    if !(w.is_finite() && w >= 0.0) {
                        return Err(d.malformed(format!("aged weight of {job} is invalid")));
                    }
                }
            }
            if w.to_bits() != want.to_bits() {
                return Err(d.malformed(format!(
                    "weight of {job} is not its weight aged by its kills"
                )));
            }
        }
        for (t, m, job) in self.cluster.running_jobs() {
            let placed = self.schedule.get(job).is_some_and(|a| {
                a.machine == m
                    && (a.start + self.cluster.effective_time(m, self.work.job(job).proc_time))
                        .to_bits()
                        == t.to_bits()
            });
            if !placed {
                return Err(d.malformed(format!("running {job} is not placed where it runs")));
            }
        }
        let mut recovering = vec![false; self.cluster.num_machines()];
        for &Reverse((_, kind)) in &self.fault_q {
            if let FaultKind::Recover(m) = kind {
                if recovering[m] || self.cluster.is_up(m) {
                    return Err(d.malformed(format!("recovery of machine {m} is not pending")));
                }
                recovering[m] = true;
            }
        }
        if (0..recovering.len()).any(|m| !recovering[m] && !self.cluster.is_up(m)) {
            return Err(d.malformed("a down machine has no pending recovery"));
        }
        if let Some(factor) = aging {
            for i in 0..weights.len() {
                for _ in 0..self.log.re_releases[i] {
                    self.work.to_mut().scale_weight(JobId(i as u32), factor);
                }
            }
        }
        self.last_event = last_event;
        Ok(())
    }

    /// Adds `events` to the fault plan after construction, as if they had
    /// been appended to it: they fire after every planned strike at the
    /// same instant, in the given order.
    pub fn add_fault_events(&mut self, events: &[FaultEvent]) {
        for e in events {
            self.fault_q
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
