//! The deterministic service event loop.
//!
//! [`Service`] wraps any [`OnlinePolicy`] behind a submission interface with
//! explicit admission control and replays an optional [`FaultPlan`]. What
//! happens at one instant — and in which order — is the
//! [`EventKernel`]'s, the same one [`mris_sim::run_driver`] runs; the
//! service owns only what surrounds it: admission and tenant accounting,
//! the delivery queue with its epoch quantisation, the clock, telemetry,
//! and the durability boundary. Under its [`crate::SimClock`] a drained
//! service therefore reproduces the batch driver bit-for-bit (the
//! conservativity suite pins this). Submissions admitted at the same
//! delivery instant coalesce into one arrival batch.

use std::borrow::Cow;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use mris_metrics::Percentiles;
use mris_sim::{
    ChaosOutcome, ClusterState, EventKernel, EventSink, FaultLog, FaultPlan, KernelParts,
    OnlinePolicy, OrdTime, PendingFaults, PrecedenceGate,
};
use mris_types::{
    fraction, AdmissionError, Amount, ClusterSpec, Codec, CodecError, ConfigError, Decoder,
    DurabilityError, Instance, JobId, RestartSemantics, RestoreError, Schedule, SchedulingError,
    TenantId, Time,
};

use crate::clock::Clock;
use crate::codec::Encoder;
use crate::journal::{
    config_fingerprint, Durability, DurabilityConfig, DurabilitySink, JournalRecord, JournalWriter,
    RejectReason,
};
use crate::snapshot::SnapshotStore;
use crate::telemetry::{EpochRecord, ServiceSummary, TelemetrySink};
use crate::tenant::{over_budget, Tenancy, TenantSpec, TenantStat};

/// Static configuration of a [`Service`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Cluster size.
    pub num_machines: usize,
    /// Decision interval: admitted submissions are delivered to the policy
    /// at the next multiple of `epoch` after they become ready
    /// (`max(submit time, release)`). `0.0` (the default) delivers
    /// per-event, which is what conservativity with the batch drivers
    /// requires.
    pub epoch: Time,
    /// Queue-depth watermark: a submission arriving while `queue_watermark`
    /// admitted jobs are still waiting for delivery is rejected with
    /// [`AdmissionError::QueueFull`].
    pub queue_watermark: usize,
    /// Resource-load watermark as a multiple of one machine's capacity: a
    /// submission that would push the *queued* (undelivered) demand of some
    /// resource above `load_watermark * num_machines` is rejected with
    /// [`AdmissionError::DemandInfeasible`]. `f64::INFINITY` (the default)
    /// disables load shedding.
    pub load_watermark: f64,
    /// Weight treatment for fault-killed jobs.
    pub restart: RestartSemantics,
    /// Machine failures to replay during the run.
    pub fault_plan: FaultPlan,
    /// Tenant table for multi-tenant admission. Empty (the default) runs
    /// the single-tenant path with zero per-tenant bookkeeping — byte-
    /// identical to a build without tenancy.
    pub tenants: Vec<TenantSpec>,
    /// Global queue depth at or above which the weighted-fair
    /// (deficit-round-robin) gate is consulted for multi-tenant
    /// admissions. `usize::MAX` (the default) disables the fair gate;
    /// ignored when `tenants` is empty.
    pub fair_watermark: usize,
}

impl ServiceConfig {
    /// A permissive configuration: per-event delivery, effectively unbounded
    /// queue, no load shedding, full restarts, no faults.
    pub fn new(num_machines: usize) -> Self {
        ServiceConfig {
            num_machines,
            epoch: 0.0,
            queue_watermark: usize::MAX,
            load_watermark: f64::INFINITY,
            restart: RestartSemantics::FullRestart,
            fault_plan: FaultPlan::none(),
            tenants: Vec::new(),
            fair_watermark: usize::MAX,
        }
    }

    /// Starts a validated configuration with [`ServiceConfigBuilder`]
    /// defaults (the same as [`ServiceConfig::new`]). Unlike `new`, the
    /// builder's [`build`](ServiceConfigBuilder::build) rejects nonsensical
    /// values with a typed [`ConfigError`] instead of panicking later.
    pub fn builder(num_machines: usize) -> ServiceConfigBuilder {
        ServiceConfigBuilder {
            cfg: ServiceConfig::new(num_machines),
        }
    }

    /// When a submission (or a reopened held job) that becomes ready at
    /// `ready` is delivered: the next multiple of `epoch`, or at once when
    /// delivery is per-event.
    fn delivery_time(&self, ready: Time) -> Time {
        if self.epoch > 0.0 {
            (ready / self.epoch).ceil() * self.epoch
        } else {
            ready
        }
    }

    /// The typed validation behind both the builder and
    /// [`Service::new`].
    pub(crate) fn check(&self) -> Result<(), ConfigError> {
        if self.queue_watermark == 0 {
            return Err(ConfigError::ZeroQueueWatermark);
        }
        if self.num_machines == 0 {
            return Err(ConfigError::NoMachines);
        }
        if !(self.epoch.is_finite() && self.epoch >= 0.0) {
            return Err(ConfigError::InvalidEpoch { value: self.epoch });
        }
        if self.load_watermark.is_nan() || self.load_watermark <= 0.0 {
            return Err(ConfigError::InvalidLoadWatermark {
                value: self.load_watermark,
            });
        }
        if let RestartSemantics::WeightAging { factor } = self.restart {
            if !(factor.is_finite() && factor >= 0.0) {
                return Err(ConfigError::InvalidAgingFactor { value: factor });
            }
        }
        for (i, t) in self.tenants.iter().enumerate() {
            if t.name.is_empty() {
                return Err(ConfigError::InvalidTenant {
                    tenant: i,
                    detail: "name must be non-empty".into(),
                });
            }
            if !(t.weight.is_finite() && t.weight > 0.0) {
                return Err(ConfigError::InvalidTenant {
                    tenant: i,
                    detail: format!("weight must be finite and > 0, got {}", t.weight),
                });
            }
            if t.queue_watermark == 0 {
                return Err(ConfigError::InvalidTenant {
                    tenant: i,
                    detail: "queue_watermark 0 would shed every submission".into(),
                });
            }
            if t.load_watermark.is_nan() || t.load_watermark <= 0.0 {
                return Err(ConfigError::InvalidTenant {
                    tenant: i,
                    detail: format!("load_watermark must be positive, got {}", t.load_watermark),
                });
            }
            if self.tenants[..i].iter().any(|o| o.name == t.name) {
                return Err(ConfigError::InvalidTenant {
                    tenant: i,
                    detail: format!("duplicate tenant name '{}'", t.name),
                });
            }
        }
        Ok(())
    }
}

/// Fluent, validated construction of a [`ServiceConfig`].
///
/// Obtained from [`ServiceConfig::builder`]. Setters are chainable;
/// [`build`](ServiceConfigBuilder::build) returns a typed [`ConfigError`]
/// for invalid values, so daemon front ends can turn a bad flag into a
/// clean exit instead of a panic deep in the event loop.
#[derive(Debug, Clone)]
pub struct ServiceConfigBuilder {
    cfg: ServiceConfig,
}

impl ServiceConfigBuilder {
    /// Sets the decision interval (`0.0` = per-event delivery).
    pub fn epoch(mut self, epoch: Time) -> Self {
        self.cfg.epoch = epoch;
        self
    }

    /// Sets the queue-depth watermark.
    pub fn queue_watermark(mut self, watermark: usize) -> Self {
        self.cfg.queue_watermark = watermark;
        self
    }

    /// Sets the resource-load watermark (multiples of one machine).
    pub fn load_watermark(mut self, watermark: f64) -> Self {
        self.cfg.load_watermark = watermark;
        self
    }

    /// Sets the restart semantics for fault-killed jobs.
    pub fn restart(mut self, restart: RestartSemantics) -> Self {
        self.cfg.restart = restart;
        self
    }

    /// Sets the fault plan to replay.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.cfg.fault_plan = plan;
        self
    }

    /// Sets the tenant table for multi-tenant admission.
    pub fn tenants(mut self, tenants: Vec<TenantSpec>) -> Self {
        self.cfg.tenants = tenants;
        self
    }

    /// Sets the contention threshold for the weighted-fair gate.
    pub fn fair_watermark(mut self, watermark: usize) -> Self {
        self.cfg.fair_watermark = watermark;
        self
    }

    /// Validates and returns the configuration.
    pub fn build(self) -> Result<ServiceConfig, ConfigError> {
        self.cfg.check()?;
        Ok(self.cfg)
    }
}

/// What the service ultimately did with one job of the instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum JobOutcome {
    /// Never offered to the admission controller.
    NotSubmitted,
    /// Shed at admission; the policy never saw it.
    Rejected(AdmissionError),
    /// Admitted and not yet completed (queued, pending, or running).
    Accepted,
    /// Ran to completion.
    Completed,
}

/// One tag byte — 0 not submitted, 3 accepted, 4 completed — or a
/// rejection's [`AdmissionError::encode`] (tags 1, 2 and 5), for snapshots
/// and the wire alike; a rejection-free ledger is one byte a job. A decoded
/// rejection must be one the ledger records, never an invalid offer.
impl Codec for JobOutcome {
    type Context<'a> = ();

    fn encode(&self, e: &mut Encoder) {
        match self {
            JobOutcome::NotSubmitted => e.u8(0),
            JobOutcome::Rejected(err) => err.encode(e),
            JobOutcome::Accepted => e.u8(3),
            JobOutcome::Completed => e.u8(4),
        }
    }

    fn decode(d: &mut Decoder<'_>, (): ()) -> Result<Self, CodecError> {
        Ok(match d.u8()? {
            0 => JobOutcome::NotSubmitted,
            3 => JobOutcome::Accepted,
            4 => JobOutcome::Completed,
            tag => match AdmissionError::decode_tagged(tag, d)? {
                err if err.is_invalid_offer() => {
                    return Err(d.malformed(format!("{err} is not a ledger outcome")))
                }
                err => JobOutcome::Rejected(err),
            },
        })
    }
}

/// The result of draining a [`Service`]: the completed placements, the fault
/// audit trail, the per-job ledger, and the run summary.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceReport {
    /// Final placement of every completed job (rejected jobs are absent).
    pub schedule: Schedule,
    /// Failure/recovery/re-release/completion audit trail.
    pub log: FaultLog,
    /// Per-job outcome, indexed by job id.
    pub outcomes: Vec<JobOutcome>,
    /// End-of-run accounting (also pushed to the telemetry sink).
    pub summary: ServiceSummary,
    /// Per-tenant accounting; empty on the single-tenant path.
    pub tenants: Vec<TenantStat>,
}

/// How many jobs are in each ledger state, mid-run ([`Service::counts`]).
/// `submitted == accepted + rejected`; `completed` of the `accepted` have
/// run to completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LedgerCounts {
    /// Jobs offered so far.
    pub submitted: usize,
    /// Offers admitted (queued, running, or completed).
    pub accepted: usize,
    /// Offers shed by admission control, whatever the reason.
    pub rejected: usize,
    /// Jobs run to completion.
    pub completed: usize,
}

/// The service's fold over the kernel's record of one instant: the per-job
/// outcome ledger, the instant's counts for its [`EpochRecord`] and, when
/// durability is on, the journal. Record order within an event is the
/// kernel's call order.
struct Ledger<'s> {
    outcomes: &'s mut [JobOutcome],
    dur: Option<&'s mut Durability>,
    completions: usize,
    re_releases: usize,
    placements: usize,
}

impl Ledger<'_> {
    #[inline]
    fn emit(&mut self, make: impl FnOnce() -> JournalRecord) {
        if let Some(d) = self.dur.as_deref_mut() {
            d.emit(make());
        }
    }
}

impl EventSink for Ledger<'_> {
    fn completed(&mut self, job: JobId, machine: usize) {
        self.outcomes[job.index()] = JobOutcome::Completed;
        self.completions += 1;
        self.emit(|| JournalRecord::Complete {
            job: job.0,
            machine: machine as u32,
        });
    }

    fn gate_opened(&mut self, job: JobId) {
        self.emit(|| JournalRecord::PrecedenceReady { job: job.0 });
    }

    fn recovered(&mut self, now: Time, machine: usize) {
        self.emit(|| JournalRecord::Recover {
            machine: machine as u32,
            at: now,
        });
    }

    fn failed(&mut self, now: Time, machine: usize, recover_at: Time, killed: &[JobId]) {
        self.emit(|| JournalRecord::Fail {
            machine: machine as u32,
            at: now,
            recover_at,
        });
        self.re_releases += killed.len();
        for &job in killed {
            self.outcomes[job.index()] = JobOutcome::Accepted;
            self.emit(|| JournalRecord::ReRelease { job: job.0 });
        }
    }

    fn placed(&mut self, job: JobId, machine: u32, start: Time) {
        self.placements += 1;
        self.emit(|| JournalRecord::Place {
            job: job.0,
            machine,
            start,
        });
    }
}

/// A long-running scheduling service around one [`OnlinePolicy`].
///
/// Jobs come from a fixed [`Instance`] (the catalog of everything that may
/// be submitted); callers submit job ids over time via
/// [`Service::submit_at`] (or [`Service::submit`] at the clock's current
/// now) and finally [`Service::drain`] the loop, which runs the remaining
/// events to quiescence and returns the [`ServiceReport`] plus the
/// telemetry sink.
pub struct Service<C: Clock, S: TelemetrySink> {
    pub(crate) cfg: ServiceConfig,
    pub(crate) clock: C,
    sink: S,
    policy: Box<dyn OnlinePolicy>,
    /// Pristine copy for metrics; the kernel's working copy is what aging
    /// mutates.
    original: Instance,
    /// Cluster, schedule, fault log, precedence gate and fault queue, and
    /// the one definition of what an event does to them.
    pub(crate) kernel: EventKernel<'static>,
    pub(crate) outcomes: Vec<JobOutcome>,
    /// Admitted, undelivered submissions ordered by (delivery time,
    /// submission sequence) — matches the batch drivers' (release, id)
    /// arrival order when jobs are submitted in id order.
    queue: BinaryHeap<Reverse<(OrdTime, u64, JobId)>>,
    /// Exact fixed-point per-resource demand of the queued jobs.
    queued_demand: Vec<Amount>,
    /// The tenant table; empty on the single-tenant path.
    tenancy: Tenancy,
    seq: u64,
    /// Original admission sequence of each currently-held job, indexed by
    /// job id, so a gate-opened job re-enters the delivery queue with its
    /// admission-order tiebreak intact. Empty for edge-free instances.
    held_seq: Vec<u64>,
    /// Scratch: the arrival batch of the current event.
    deliver_buf: Vec<JobId>,
    /// Write-ahead journal / replay verifier, when durability is on.
    /// Boxed: durability is off by default and the hot loop should not
    /// carry its footprint.
    pub(crate) dur: Option<Box<Durability>>,
    // Counters and telemetry state.
    submitted: usize,
    accepted: usize,
    rejected_queue_full: usize,
    rejected_infeasible: usize,
    /// Jobs whose outcome is [`JobOutcome::Completed`]; a killed job was
    /// running, never completed, so this only grows.
    completed: usize,
    max_queue_depth: usize,
    epochs: usize,
    decision_ns: Vec<u64>,
    started: std::time::Instant,
}

impl<C: Clock, S: TelemetrySink> Service<C, S> {
    /// Builds a service over `instance` with the given policy, clock, and
    /// telemetry sink.
    ///
    /// # Errors
    ///
    /// A typed [`ConfigError`] if the configuration is invalid (see
    /// [`ServiceConfig`] field docs) — surfaced to the caller instead of
    /// killing the daemon.
    pub fn new(
        instance: Instance,
        policy: Box<dyn OnlinePolicy>,
        cfg: ServiceConfig,
        clock: C,
        sink: S,
    ) -> Result<Self, ConfigError> {
        cfg.check()?;
        let n = instance.len();
        let r = instance.num_resources();
        let held_seq = if instance.has_precedence() {
            vec![0u64; n]
        } else {
            Vec::new()
        };
        Ok(Service {
            kernel: EventKernel::new(
                Cow::Owned(instance.clone()),
                &ClusterSpec::uniform(cfg.num_machines),
                cfg.fault_plan.events(),
                cfg.restart,
            ),
            outcomes: vec![JobOutcome::NotSubmitted; n],
            queue: BinaryHeap::new(),
            queued_demand: vec![0; r],
            tenancy: Tenancy::new(&cfg.tenants, cfg.num_machines, n, r),
            seq: 0,
            held_seq,
            deliver_buf: Vec::new(),
            dur: None,
            submitted: 0,
            accepted: 0,
            rejected_queue_full: 0,
            rejected_infeasible: 0,
            completed: 0,
            max_queue_depth: 0,
            epochs: 0,
            decision_ns: Vec::new(),
            started: std::time::Instant::now(),
            original: instance,
            cfg,
            clock,
            sink,
            policy,
        })
    }

    /// Attaches a write-ahead journal (and snapshot store) to a pristine
    /// service. Durability is off by default; with it on, every admission
    /// decision and event outcome is framed, checksummed, and flushed at
    /// the configured cadence, and [`Service::restore`] can rebuild the
    /// exact service from the journal after a crash.
    ///
    /// # Errors
    ///
    /// [`DurabilityError::AttachAfterStart`] if the service has already
    /// admitted a submission or processed an event — those could never be
    /// replayed.
    pub fn attach_journal(
        &mut self,
        dcfg: DurabilityConfig,
        out: Box<dyn std::io::Write + Send>,
        snapshots: Box<dyn SnapshotStore + Send>,
    ) -> Result<(), DurabilityError> {
        if self.submitted > 0 || self.epochs > 0 || self.dur.is_some() {
            return Err(DurabilityError::AttachAfterStart {
                events: self.epochs,
                submitted: self.submitted,
            });
        }
        let fingerprint = config_fingerprint(&self.original, &self.cfg, &dcfg);
        let writer = JournalWriter::new(out, fingerprint);
        self.dur = Some(Box::new(Durability::new(
            dcfg,
            fingerprint,
            DurabilitySink::Journal { writer, snapshots },
        )));
        Ok(())
    }

    /// The first durability failure (journal or snapshot IO), if any.
    /// Durability failures never abort the event loop — the scheduler's
    /// non-preemptive commitments outrank the audit trail — so operators
    /// poll this.
    pub fn durability_error(&self) -> Option<DurabilityError> {
        self.dur.as_ref().and_then(|d| d.error.clone())
    }

    /// Emits one record into the attached journal/verifier, if any.
    #[inline]
    fn emit(&mut self, make: impl FnOnce() -> JournalRecord) {
        if let Some(d) = self.dur.as_deref_mut() {
            d.emit(make());
        }
    }

    /// The service's current time.
    pub fn now(&self) -> Time {
        self.clock.now()
    }

    /// Admitted submissions still waiting for delivery to the policy.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// The current outcome of `job`, or `None` for an id past the
    /// instance.
    pub fn checked_outcome(&self, job: JobId) -> Option<JobOutcome> {
        self.outcomes.get(job.index()).copied()
    }

    /// The current outcome of `job`; panics for an id past the instance.
    /// The job-path benchmark (`benchmark/`) calls this shape; everything
    /// else calls [`Service::checked_outcome`].
    pub fn outcome(&self, job: JobId) -> JobOutcome {
        self.outcomes[job.index()]
    }

    /// The ledger's running counts — how many jobs sit in each
    /// [`JobOutcome`] right now, kept by the loop instead of walked.
    pub fn counts(&self) -> LedgerCounts {
        LedgerCounts {
            submitted: self.submitted,
            accepted: self.accepted,
            rejected: self.rejected(),
            completed: self.completed,
        }
    }

    /// Offers shed so far, by any gate.
    fn rejected(&self) -> usize {
        self.rejected_queue_full + self.rejected_infeasible + self.tenancy.quota_rejected()
    }

    /// Per-tenant accounting so far — the mid-run view of
    /// [`ServiceReport::tenants`]. Empty on the single-tenant path.
    pub fn tenant_stats(&self) -> Vec<TenantStat> {
        self.tenancy.stats()
    }

    /// Submits `job` at the clock's current time without advancing it —
    /// the threaded front-end's entry point. See [`Service::submit_at`].
    pub fn submit(&mut self, job: JobId) -> Result<(), AdmissionError> {
        self.submit_as(job, TenantId::DEFAULT)
    }

    /// [`Service::submit`] on behalf of `tenant`.
    pub fn submit_as(&mut self, job: JobId, tenant: TenantId) -> Result<(), AdmissionError> {
        self.check_offer(job, tenant)?;
        let now = self.clock.now();
        self.admit(now, job, tenant)
    }

    /// Advances the service to time `t` (processing every event due
    /// strictly before it) and then offers `job` to the admission
    /// controller.
    ///
    /// The outer error is fatal — the policy violated a placement rule
    /// while catching up. The inner result is the admission decision;
    /// rejections are recorded in the job's [`JobOutcome`] and are normal
    /// operation, not failures. An offer of a job out of range for the
    /// instance, or already submitted, is refused before the clock moves
    /// ([`AdmissionError::is_invalid_offer`]).
    pub fn submit_at(
        &mut self,
        t: Time,
        job: JobId,
    ) -> Result<Result<(), AdmissionError>, SchedulingError> {
        self.submit_at_as(t, job, TenantId::DEFAULT)
    }

    /// [`Service::submit_at`] on behalf of `tenant`, which must be in the
    /// configured tenant table (or the default one on a single-tenant
    /// service).
    pub fn submit_at_as(
        &mut self,
        t: Time,
        job: JobId,
        tenant: TenantId,
    ) -> Result<Result<(), AdmissionError>, SchedulingError> {
        if let Err(err) = self.check_offer(job, tenant) {
            return Ok(Err(err));
        }
        while let Some(next) = self.next_event_time() {
            if next >= t {
                break;
            }
            let now = self.clock.advance_to(next);
            self.process_event(now)?;
        }
        let now = self.clock.advance_to(t);
        Ok(self.admit(now, job, tenant))
    }

    /// Refuses an offer that names no job or tenant the service can take:
    /// a job out of range or already offered, or an unknown tenant. Every
    /// entry point calls it before the clock moves or any count changes.
    fn check_offer(&self, job: JobId, tenant: TenantId) -> Result<(), AdmissionError> {
        match self.outcomes.get(job.index()) {
            Some(JobOutcome::NotSubmitted) => {}
            Some(_) => return Err(AdmissionError::AlreadySubmitted { job }),
            None => {
                let jobs = self.outcomes.len();
                return Err(AdmissionError::UnknownJob { job, jobs });
            }
        }
        self.tenancy.check_tenant(tenant)
    }

    /// The admission gates, in the one order they run: global queue depth
    /// (`queue_watermark`) → the tenant's queue depth → global queued
    /// demand (`load_watermark`) → the tenant's queued demand → the
    /// weighted-fair share (on a queue at or above `fair_watermark`). The
    /// first that fires is the rejection recorded. On admission, returns
    /// the deficit credit the fair gate spends (0 uncontended or
    /// single-tenant, where the tenant gates pass).
    fn gate(&self, job: JobId, tenant: TenantId) -> Result<u64, AdmissionError> {
        let depth = self.queue.len();
        let watermark = self.cfg.queue_watermark;
        if depth >= watermark {
            return Err(AdmissionError::QueueFull { depth, watermark });
        }
        let quota = |kind| AdmissionError::TenantQuota { tenant, kind };
        self.tenancy.depth_gate(tenant).map_err(quota)?;
        let j = self.kernel.instance().job(job);
        let budget = self.cfg.load_watermark * self.cfg.num_machines as f64;
        if let Some((resource, queued)) = over_budget(&self.queued_demand, &j.demands, budget) {
            return Err(AdmissionError::DemandInfeasible {
                job,
                resource,
                queued: fraction(queued),
                budget,
            });
        }
        let contended = depth >= self.cfg.fair_watermark;
        (self.tenancy)
            .demand_and_fair_gates(tenant, j, contended)
            .map_err(quota)
    }

    /// Records a rejection: its kind's count, the tenant's, the ledger
    /// outcome and the journal's `Reject`.
    fn reject(&mut self, now: Time, job: JobId, tenant: TenantId, err: AdmissionError) {
        let reason = RejectReason::of(&err);
        match reason {
            RejectReason::QueueFull => {
                self.rejected_queue_full += 1;
                mris_obs::counter_add("mris_service_rejected_queue_full_total", 1);
            }
            RejectReason::LoadShed => {
                self.rejected_infeasible += 1;
                mris_obs::counter_add("mris_service_rejected_infeasible_total", 1);
            }
            RejectReason::TenantQuota => {}
        }
        self.tenancy
            .reject(tenant, reason == RejectReason::TenantQuota);
        self.outcomes[job.index()] = JobOutcome::Rejected(err);
        self.emit(|| JournalRecord::Reject {
            at: now,
            job: job.0,
            reason,
            tenant: tenant.0,
        });
    }

    /// The admission decision on an offer [`Service::check_offer`] passed.
    fn admit(&mut self, now: Time, job: JobId, tenant: TenantId) -> Result<(), AdmissionError> {
        self.submitted += 1;
        let spend = self
            .gate(job, tenant)
            .inspect_err(|&err| self.reject(now, job, tenant, err))?;
        let j = self.kernel.instance().job(job);
        let deliver = self.cfg.delivery_time(now.max(j.release));
        for (q, &d) in self.queued_demand.iter_mut().zip(j.demands.iter()) {
            *q += d;
        }
        self.tenancy.charge(tenant, job, j, spend);
        self.queue.push(Reverse((OrdTime(deliver), self.seq, job)));
        self.seq += 1;
        self.accepted += 1;
        mris_obs::counter_add("mris_service_admitted_total", 1);
        self.max_queue_depth = self.max_queue_depth.max(self.queue.len());
        self.outcomes[job.index()] = JobOutcome::Accepted;
        self.emit(|| JournalRecord::Admit {
            at: now,
            job: job.0,
            tenant: tenant.0,
        });
        Ok(())
    }

    /// Replays one decision event at the recorded time `at` — the restore
    /// driver's stepper. The recorded time is used verbatim, as the original
    /// run's `SimClock` read it; replay must not re-quantize it.
    pub(crate) fn replay_event(&mut self, at: Time) -> Result<(), SchedulingError> {
        self.clock.advance_to(at);
        self.process_event(at)
    }

    /// Replays one admission decision at the recorded time `at` on behalf
    /// of the recorded `tenant`. The decision itself is re-derived (and
    /// cross-checked by the replay verifier), so the return value mirrors
    /// the original's.
    pub(crate) fn replay_admit(
        &mut self,
        at: Time,
        job: JobId,
        tenant: TenantId,
    ) -> Result<(), AdmissionError> {
        self.check_offer(job, tenant)?;
        self.clock.advance_to(at);
        self.admit(at, job, tenant)
    }

    /// The time of the next pending event (delivery, completion, fault, or
    /// policy wakeup), or `None` when the service is quiescent.
    pub fn next_event_time(&self) -> Option<Time> {
        let delivery = self.queue.peek().map(|&Reverse((t, _, _))| t.0);
        self.kernel
            .next_event_time(delivery, self.policy.next_wakeup())
    }

    /// Advances the clock to the next pending event and processes it.
    /// Returns `false` if the service was already quiescent.
    ///
    /// # Errors
    ///
    /// Propagates placement-rule violations from the policy.
    pub fn step(&mut self) -> Result<bool, SchedulingError> {
        match self.next_event_time() {
            None => Ok(false),
            Some(next) => {
                let now = self.clock.advance_to(next);
                self.process_event(now)?;
                Ok(true)
            }
        }
    }

    /// One decision event at `now`: the kernel settles (completions, fault
    /// events), the deliveries due are popped off the queue, the kernel
    /// decides (arrivals, re-releases, a single dispatch), then telemetry,
    /// whose counts the [`Ledger`] folded from the kernel's record.
    /// Everything due at or before `now` is handled.
    fn process_event(&mut self, now: Time) -> Result<(), SchedulingError> {
        let policy = &mut *self.policy;
        let mut ledger = Ledger {
            outcomes: &mut self.outcomes,
            dur: self.dur.as_deref_mut(),
            completions: 0,
            re_releases: 0,
            placements: 0,
        };
        ledger.emit(|| JournalRecord::Event { at: now });
        self.kernel.settle(now, policy, &mut ledger)?;
        // Held jobs whose last predecessor just completed re-enter the
        // delivery queue at this instant (epoch-quantized, like admission)
        // under their original sequence, so they are delivered in
        // admission order alongside any originals due now.
        if !self.kernel.opened().is_empty() {
            let deliver = self.cfg.delivery_time(now);
            for &job in self.kernel.opened() {
                self.queue
                    .push(Reverse((OrdTime(deliver), self.held_seq[job.index()], job)));
            }
        }

        // Deliveries due.
        self.deliver_buf.clear();
        let mut delivered_cost = 0;
        while let Some(&Reverse((t, s, job))) = self.queue.peek() {
            if t.0 > now {
                break;
            }
            self.queue.pop();
            if !self.kernel.ready_or_hold(job) {
                // Released but a predecessor is still outstanding: withheld
                // from the policy. Queued-demand and tenant accounting stay
                // charged — the job is still admitted-and-undelivered — and
                // the sequence is kept for the re-enqueue on gate open.
                self.held_seq[job.index()] = s;
                continue;
            }
            let j = self.kernel.instance().job(job);
            for (q, &d) in self.queued_demand.iter_mut().zip(j.demands.iter()) {
                *q -= d;
            }
            delivered_cost += self.tenancy.discharge(job, j);
            self.deliver_buf.push(job);
        }
        self.tenancy.credit(delivered_cost);
        let arrivals = self.deliver_buf.len();
        // Reading the monotonic clock twice per event is measurable against
        // sub-microsecond decisions, so latency is sampled: every event while
        // observability is installed, every 4th event otherwise. Percentiles
        // in the summary are over the sampled events.
        let timed = mris_obs::enabled() || self.epochs.is_multiple_of(4);
        let decision_started = timed.then(std::time::Instant::now);
        self.kernel
            .decide(now, &self.deliver_buf, policy, &mut ledger)?;
        let decision_ns = decision_started.map(|t| t.elapsed().as_nanos() as u64);
        let Ledger {
            completions,
            re_releases,
            placements,
            ..
        } = ledger;
        self.completed += completions;
        if let Some(ns) = decision_ns {
            self.decision_ns.push(ns);
        }
        if mris_obs::enabled() {
            mris_obs::counter_add("mris_service_epochs_total", 1);
            mris_obs::histogram_record(
                "mris_service_epoch_batch_size",
                (arrivals + re_releases) as f64,
            );
            mris_obs::histogram_record(
                "mris_service_decision_latency_seconds",
                decision_ns.unwrap_or(0) as f64 * 1e-9,
            );
        }

        // Telemetry.
        let record = EpochRecord {
            epoch: self.epochs,
            time: now,
            queue_depth: self.queue.len(),
            arrivals,
            re_releases,
            placements,
            completions,
            running: self.kernel.cluster().num_running(),
            rejections_total: self.rejected(),
            decision_ns: decision_ns.unwrap_or(0),
        };
        self.epochs += 1;
        self.sink.epoch(&record);

        // Durability boundary: snapshot if due, flush at cadence. The
        // state encoding is computed only where a snapshot is written.
        if let Some(mut d) = self.dur.take() {
            d.event_end(now, |e| self.encode_durable_state(e));
            self.dur = Some(d);
        }
        Ok(())
    }

    /// Appends the canonical encoding of the full committed service state
    /// to `e` — the snapshot payload, which [`Service::load_durable_state`]
    /// decodes and restore re-encodes to check the decoding. Unordered
    /// containers are emitted sorted; wall-clock-only fields (the
    /// decision-latency samples, the start `Instant`) and scratch buffers
    /// are excluded because they differ between an original run and its
    /// replay without affecting any scheduling decision.
    pub(crate) fn encode_durable_state(&self, e: &mut Encoder) {
        e.f64(self.kernel.last_event());
        e.u64(self.submitted as u64);
        e.u64(self.accepted as u64);
        e.u64(self.rejected_queue_full as u64);
        e.u64(self.rejected_infeasible as u64);
        e.u64(self.max_queue_depth as u64);
        e.u64(self.epochs as u64);
        e.u64(self.seq);
        e.u64(self.outcomes.len() as u64);
        for o in &self.outcomes {
            o.encode(e);
        }
        // Weight aging mutates the working instance; the rest of it is static.
        for j in self.kernel.instance().jobs() {
            e.f64(j.weight);
        }
        let mut queue: Vec<(u64, u64, u32)> = self
            .queue
            .iter()
            .map(|&Reverse((t, s, j))| (t.0.to_bits(), s, j.0))
            .collect();
        queue.sort_unstable();
        e.u64(queue.len() as u64);
        for (t, s, j) in queue {
            e.u64(t);
            e.u64(s);
            e.u32(j);
        }
        e.u64(self.queued_demand.len() as u64);
        for &d in &self.queued_demand {
            e.u64(d);
        }
        self.kernel.pending_faults().encode(e);
        self.kernel.cluster().encode(e);
        self.kernel.schedule().encode(e);
        self.kernel.log().encode(e);
        let mut sub = Encoder::new();
        let encoded = self.policy.encode_durable_state(&mut sub);
        e.u8(encoded as u8);
        e.u64(sub.len() as u64);
        e.bytes(sub.as_bytes());
        self.tenancy.encode(e);
        // Precedence section: empty for edge-free instances, as before DAGs.
        self.kernel.gate().encode(e);
        for &s in &self.held_seq {
            e.u64(s);
        }
    }

    /// The inverse of [`Service::encode_durable_state`]: replaces this
    /// freshly built service's state (ledger, delivery queue, tenants, the
    /// kernel's, and the policy's) with the one `state` encodes. `events`
    /// is the number of events the journal recorded before the snapshot,
    /// which the state must agree with.
    ///
    /// Beyond decoding, the sections are checked against each other
    /// wherever the event loop later relies on them — the ledger's counts
    /// against its outcomes, queued demand against the queue, each
    /// tenant's accounting against its jobs — so a decoded state is one
    /// whose continuation cannot underflow a counter or index out of range.
    ///
    /// # Errors
    ///
    /// [`RestoreError::Snapshot`] for bytes that do not decode or do not
    /// agree; [`RestoreError::SnapshotUnsupported`] when the snapshot holds
    /// no policy state or the policy cannot decode its own.
    pub(crate) fn load_durable_state(
        &mut self,
        state: &[u8],
        events: u64,
    ) -> Result<(), RestoreError> {
        let policy = self
            .load_sections(state, events)
            .map_err(RestoreError::Snapshot)?
            .ok_or(RestoreError::SnapshotUnsupported)?;
        let mut d = Decoder::new(policy);
        match self
            .policy
            .decode_durable_state(&mut d, self.kernel.instance())
        {
            Ok(true) => d.finish().map_err(RestoreError::Snapshot),
            Ok(false) => Err(RestoreError::SnapshotUnsupported),
            Err(e) => Err(RestoreError::Snapshot(e)),
        }
    }

    /// Everything of [`Service::load_durable_state`] but the policy, whose
    /// bytes it returns (`None` if the policy wrote none).
    fn load_sections<'b>(
        &mut self,
        state: &'b [u8],
        events: u64,
    ) -> Result<Option<&'b [u8]>, CodecError> {
        let n = self.original.len();
        let r = self.original.num_resources();
        let m = self.cfg.num_machines;
        let mut d = Decoder::new(state);
        let last_event = d.f64()?;
        let submitted = d.u64()?;
        let accepted = d.u64()?;
        let rejected_queue_full = d.u64()?;
        let rejected_infeasible = d.u64()?;
        let max_queue_depth = d.u64()?;
        let epochs = d.u64()?;
        let seq = d.u64()?;
        if epochs != events {
            return Err(d.malformed(format!(
                "state counts {epochs} events, the journal {events}"
            )));
        }
        d.expect_count(n, "outcome count")?;
        let outcomes = d.vec(n, |d| JobOutcome::decode(d, ()))?;
        let weights = d.vec(n, Decoder::f64)?;
        let count = d.count(20)?;
        let mut queue = Vec::with_capacity(count);
        let mut prev = None;
        let mut queued = vec![false; n];
        for _ in 0..count {
            let key = (d.u64()?, d.u64()?);
            let job = d.unique_job(&mut queued)?;
            if prev.is_some_and(|p| p >= key) {
                return Err(d.malformed("delivery queue out of canonical order"));
            }
            prev = Some(key);
            queue.push(Reverse((OrdTime(f64::from_bits(key.0)), key.1, job)));
        }
        d.expect_count(r, "queued demand width")?;
        let queued_demand = d.vec(r, Decoder::u64)?;
        let faults = PendingFaults::decode(&mut d, (n, m, self.cfg.fault_plan.events().len()))?;
        let spec = ClusterSpec::uniform(m);
        let cluster = ClusterState::decode(&mut d, (&spec, self.kernel.instance()))?;
        let schedule = Schedule::decode(&mut d, (n, m))?;
        let log = FaultLog::decode(&mut d, (n, m))?;
        let has_policy = d.bool()?;
        let len = d.count(1)?;
        let policy = d.bytes(len)?;
        self.tenancy.decode_into(&mut d)?;
        let gate = PrecedenceGate::decode(&mut d, self.kernel.instance())?;
        for s in &mut self.held_seq {
            *s = d.u64()?;
        }
        let parts = KernelParts {
            last_event,
            faults,
            cluster,
            schedule,
            log,
            gate,
        };
        self.kernel.restore(parts, &weights, &d)?;
        let end = d.offset();
        d.finish()?;
        let bad = |detail: &str| CodecError::Malformed {
            offset: end,
            detail: detail.to_string(),
        };

        // The ledger's counters are its outcomes, counted. A decoded
        // rejection is never an invalid offer, so it has a gate's reason.
        let mut tally = [0u64; 6];
        for o in &outcomes {
            tally[match o {
                JobOutcome::NotSubmitted => 0,
                JobOutcome::Accepted => 1,
                JobOutcome::Completed => 2,
                JobOutcome::Rejected(err) => 3 + RejectReason::of(err) as usize,
            }] += 1;
        }
        let [not_submitted, open, completed, queue_full, infeasible, tenant_quota] = tally;
        if submitted != n as u64 - not_submitted
            || accepted != open + completed
            || seq != accepted
            || rejected_queue_full != queue_full
            || rejected_infeasible != infeasible
            || self.tenancy.quota_rejected() as u64 != tenant_quota
        {
            return Err(bad("ledger counters disagree with the outcomes"));
        }
        // Undelivered jobs — queued, or held at the gate — are open and
        // unplaced, and their demand is what the queue is charged with.
        let gate = self.kernel.gate();
        let undelivered: Vec<JobId> = (0..n as u32)
            .map(JobId)
            .filter(|&j| queued[j.index()] || gate.is_held(j))
            .collect();
        let mut demand = vec![0; r];
        for &j in &undelivered {
            if queued[j.index()] && gate.is_held(j)
                || outcomes[j.index()] != JobOutcome::Accepted
                || self.kernel.schedule().get(j).is_some()
            {
                return Err(bad("an undelivered job is not open, or is placed"));
            }
            for (q, &dem) in demand
                .iter_mut()
                .zip(self.kernel.instance().job(j).demands.iter())
            {
                *q += dem;
            }
        }
        if demand != queued_demand {
            return Err(bad("queued demand disagrees with the undelivered jobs"));
        }
        for (_, _, job) in self.kernel.cluster().running_jobs() {
            if outcomes[job.index()] != JobOutcome::Accepted {
                return Err(bad("a running job is not open"));
            }
        }
        (self.tenancy)
            .check_jobs(self.kernel.instance(), &outcomes, &undelivered)
            .map_err(bad)?;

        self.clock.advance_to(last_event);
        self.outcomes = outcomes;
        self.queue = BinaryHeap::from(queue);
        self.queued_demand = queued_demand;
        self.seq = seq;
        self.submitted = submitted as usize;
        self.accepted = accepted as usize;
        self.rejected_queue_full = rejected_queue_full as usize;
        self.rejected_infeasible = rejected_infeasible as usize;
        self.completed = completed as usize;
        self.max_queue_depth = max_queue_depth as usize;
        self.epochs = epochs as usize;
        Ok(has_policy.then_some(policy))
    }

    /// Runs the loop to quiescence, enforces that every accepted job
    /// completed, verifies the fault log, emits the summary to the sink,
    /// and returns the report together with the sink.
    ///
    /// # Errors
    ///
    /// [`SchedulingError::StrandedJobs`] if the policy left accepted jobs
    /// incomplete, or any placement-rule violation raised while draining.
    pub fn drain(mut self) -> Result<(ServiceReport, S), SchedulingError> {
        while let Some(next) = self.next_event_time() {
            let now = self.clock.advance_to(next);
            self.process_event(now)?;
        }
        let stranded = self.accepted - self.completed;
        if stranded > 0 {
            return Err(SchedulingError::StrandedJobs { unplaced: stranded });
        }
        let ChaosOutcome { schedule, log } = self.kernel.into_outcome();
        if let Some(d) = self.dur.as_deref_mut() {
            let at = self.clock.now();
            d.emit(JournalRecord::Close { at });
            d.flush();
        }
        let completed = self.completed;
        let wall_seconds = self.started.elapsed().as_secs_f64();
        let awct = if completed > 0 {
            schedule.total_weighted_completion(&self.original) / completed as f64
        } else {
            0.0
        };
        let latency: Vec<f64> = self.decision_ns.iter().map(|&ns| ns as f64).collect();
        let summary = ServiceSummary {
            submitted: self.submitted,
            accepted: self.accepted,
            rejected_queue_full: self.rejected_queue_full,
            rejected_infeasible: self.rejected_infeasible,
            completed,
            epochs: self.epochs,
            max_queue_depth: self.max_queue_depth,
            failures: log.failures.len(),
            awct,
            makespan: schedule.makespan(&self.original),
            drained_at: self.clock.now(),
            wall_seconds,
            // Guard against a zero-resolution timer on pathological hosts.
            throughput_jobs_per_sec: completed as f64 / wall_seconds.max(1e-9),
            decision_latency_us: Percentiles::of(&latency).map(|p| p.scaled(1_000.0)),
        };
        self.sink.summary(&summary);
        Ok((
            ServiceReport {
                schedule,
                log,
                outcomes: self.outcomes,
                summary,
                tenants: self.tenancy.stats(),
            },
            self.sink,
        ))
    }
}

#[cfg(test)]
mod config_tests {
    use super::*;

    #[test]
    fn builder_defaults_match_new() {
        let built = ServiceConfig::builder(3).build().unwrap();
        let direct = ServiceConfig::new(3);
        assert_eq!(built.num_machines, direct.num_machines);
        assert_eq!(built.epoch, direct.epoch);
        assert_eq!(built.queue_watermark, direct.queue_watermark);
        assert_eq!(built.load_watermark, direct.load_watermark);
    }

    #[test]
    fn builder_sets_every_field() {
        let cfg = ServiceConfig::builder(2)
            .epoch(0.5)
            .queue_watermark(16)
            .load_watermark(4.0)
            .restart(RestartSemantics::WeightAging { factor: 0.5 })
            .fault_plan(FaultPlan::none())
            .build()
            .unwrap();
        assert_eq!(cfg.epoch, 0.5);
        assert_eq!(cfg.queue_watermark, 16);
        assert_eq!(cfg.load_watermark, 4.0);
        assert!(matches!(
            cfg.restart,
            RestartSemantics::WeightAging { factor } if factor == 0.5
        ));
    }

    #[test]
    fn builder_rejects_invalid_values() {
        assert!(matches!(
            ServiceConfig::builder(0).build(),
            Err(ConfigError::NoMachines)
        ));
        assert!(matches!(
            ServiceConfig::builder(1).epoch(f64::NAN).build(),
            Err(ConfigError::InvalidEpoch { .. })
        ));
        assert!(matches!(
            ServiceConfig::builder(1).epoch(-1.0).build(),
            Err(ConfigError::InvalidEpoch { .. })
        ));
        assert!(matches!(
            ServiceConfig::builder(1).queue_watermark(0).build(),
            Err(ConfigError::ZeroQueueWatermark)
        ));
        assert!(matches!(
            ServiceConfig::builder(1).load_watermark(0.0).build(),
            Err(ConfigError::InvalidLoadWatermark { .. })
        ));
        assert!(matches!(
            ServiceConfig::builder(1)
                .restart(RestartSemantics::WeightAging { factor: -0.1 })
                .build(),
            Err(ConfigError::InvalidAgingFactor { .. })
        ));
    }
}
