//! Error types for instance construction and online scheduling.

use crate::{JobId, TenantId};

/// A problem instance failed validation (see [`Instance::new`](crate::Instance::new)).
#[derive(Debug, Clone, PartialEq)]
pub enum InstanceError {
    /// A job's demand vector length does not match the instance's resource count.
    DemandDimensionMismatch {
        /// Offending job.
        job: JobId,
        /// Expected number of resources.
        expected: usize,
        /// Observed demand vector length.
        found: usize,
    },
    /// A job's demand for some resource exceeds machine capacity; it could
    /// never be scheduled.
    DemandExceedsCapacity {
        /// Offending job.
        job: JobId,
        /// Resource index with the oversized demand.
        resource: usize,
    },
    /// A job's processing time is not strictly positive and finite.
    InvalidProcTime {
        /// Offending job.
        job: JobId,
        /// The invalid value.
        value: f64,
    },
    /// A job's release time is negative or not finite.
    InvalidRelease {
        /// Offending job.
        job: JobId,
        /// The invalid value.
        value: f64,
    },
    /// A job's weight is negative or not finite.
    InvalidWeight {
        /// Offending job.
        job: JobId,
        /// The invalid value.
        value: f64,
    },
    /// A job's `id` field does not equal its index in the job list.
    MisnumberedJob {
        /// Index at which the job was found.
        index: usize,
        /// The id the job carried.
        found: JobId,
    },
    /// The instance declares zero resource types; the model requires `R >= 1`.
    NoResources,
    /// A precedence edge references a job outside the instance, or is a
    /// self-edge.
    PrecedenceOutOfRange {
        /// The edge's predecessor endpoint.
        pred: JobId,
        /// The edge's successor endpoint.
        succ: JobId,
        /// Number of jobs in the instance (valid ids are `0..num_jobs`).
        num_jobs: usize,
    },
    /// The precedence edges contain a cycle; no execution order exists.
    PrecedenceCycle {
        /// A job on (or behind) the cycle, the smallest id among them.
        job: JobId,
    },
}

impl std::fmt::Display for InstanceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InstanceError::DemandDimensionMismatch {
                job,
                expected,
                found,
            } => write!(
                f,
                "job {job} has {found} demand entries, instance has {expected} resources"
            ),
            InstanceError::DemandExceedsCapacity { job, resource } => write!(
                f,
                "job {job} demands more than machine capacity for resource {resource}"
            ),
            InstanceError::InvalidProcTime { job, value } => {
                write!(f, "job {job} has non-positive processing time {value}")
            }
            InstanceError::InvalidRelease { job, value } => {
                write!(f, "job {job} has invalid release time {value}")
            }
            InstanceError::InvalidWeight { job, value } => {
                write!(f, "job {job} has invalid weight {value}")
            }
            InstanceError::MisnumberedJob { index, found } => {
                write!(f, "job at index {index} carries id {found}")
            }
            InstanceError::NoResources => write!(f, "instance declares zero resource types"),
            InstanceError::PrecedenceOutOfRange {
                pred,
                succ,
                num_jobs,
            } => write!(
                f,
                "precedence edge ({pred}, {succ}) is invalid for an instance of {num_jobs} jobs"
            ),
            InstanceError::PrecedenceCycle { job } => {
                write!(f, "precedence edges form a cycle through {job}")
            }
        }
    }
}

impl std::error::Error for InstanceError {}

/// The scheduling service's admission controller rejected a submission.
///
/// Admission control is *explicit load-shedding*: a submission is either
/// accepted (and then guaranteed to complete) or rejected with one of these
/// typed reasons — never silently dropped. The last three variants are
/// offers that name no job or tenant the service can take; they are refused
/// before the clock moves or any count changes, and are never recorded in
/// the ledger (see [`AdmissionError::is_invalid_offer`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdmissionError {
    /// The submission queue is at or above its depth watermark.
    QueueFull {
        /// Queue depth observed at submission time.
        depth: usize,
        /// The configured depth watermark (submissions are shed at
        /// `depth >= watermark`).
        watermark: usize,
    },
    /// Admitting the job would push the queued demand for some resource
    /// beyond the configured load watermark — the cluster cannot absorb it
    /// at an acceptable backlog.
    DemandInfeasible {
        /// The rejected job.
        job: JobId,
        /// Resource index whose budget the job would overflow.
        resource: usize,
        /// Queued demand for that resource (machine-capacity fractions)
        /// before the submission.
        queued: f64,
        /// The configured budget (`load_watermark * num_machines`).
        budget: f64,
    },
    /// A multi-tenant quota rejected the submission: the submitting tenant
    /// exhausted its own share even though the global watermarks may still
    /// have room. Never produced by a single-tenant service.
    TenantQuota {
        /// The tenant whose quota was exhausted.
        tenant: TenantId,
        /// Which per-tenant limit fired.
        kind: TenantQuotaKind,
    },
    /// The offered job is not in the served instance.
    UnknownJob {
        /// The offered job.
        job: JobId,
        /// How many jobs the instance has.
        jobs: usize,
    },
    /// The offered job was offered before; a job is offered at most once.
    AlreadySubmitted {
        /// The offered job.
        job: JobId,
    },
    /// The offer names a tenant the service does not have (any tenant but
    /// the default one, on a single-tenant service).
    UnknownTenant {
        /// The named tenant.
        tenant: TenantId,
        /// How many tenants the service has (0 single-tenant).
        tenants: usize,
    },
}

impl AdmissionError {
    /// Whether the offer itself was invalid — an unknown job or tenant, or
    /// a repeated job — rather than shed by admission control.
    pub fn is_invalid_offer(&self) -> bool {
        matches!(
            self,
            AdmissionError::UnknownJob { .. }
                | AdmissionError::AlreadySubmitted { .. }
                | AdmissionError::UnknownTenant { .. }
        )
    }
}

/// Which per-tenant admission limit rejected a submission
/// (see [`AdmissionError::TenantQuota`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TenantQuotaKind {
    /// The tenant's own queue-depth watermark is at capacity.
    QueueDepth {
        /// Jobs the tenant already has queued.
        depth: usize,
        /// The tenant's configured depth watermark.
        watermark: usize,
    },
    /// The tenant's queued-demand budget cannot absorb the job.
    QueuedDemand {
        /// The tenant's queued demand (machine-capacity fractions) on the
        /// binding resource before the submission.
        queued: f64,
        /// The tenant's configured demand budget.
        budget: f64,
    },
    /// The weighted-fair (deficit-round-robin) gate refused the submission:
    /// the global queue is contended and the tenant has spent its deficit
    /// credit faster than its weight share earns it back.
    FairShare {
        /// The tenant's deficit credit (demand ticks) at submission time.
        deficit: u64,
        /// The job's cost (demand ticks) the credit could not cover.
        cost: u64,
    },
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionError::QueueFull { depth, watermark } => write!(
                f,
                "submission queue full: depth {depth} at watermark {watermark}"
            ),
            AdmissionError::DemandInfeasible {
                job,
                resource,
                queued,
                budget,
            } => write!(
                f,
                "demand infeasible: {job} would push queued demand for resource {resource} \
                 past {budget:.3} (currently {queued:.3})"
            ),
            AdmissionError::TenantQuota { tenant, kind } => match kind {
                TenantQuotaKind::QueueDepth { depth, watermark } => write!(
                    f,
                    "{tenant} queue full: depth {depth} at tenant watermark {watermark}"
                ),
                TenantQuotaKind::QueuedDemand { queued, budget } => write!(
                    f,
                    "{tenant} demand quota exhausted: queued {queued:.3} of budget {budget:.3}"
                ),
                TenantQuotaKind::FairShare { deficit, cost } => write!(
                    f,
                    "{tenant} over fair share: deficit {deficit} ticks cannot cover cost {cost}"
                ),
            },
            AdmissionError::UnknownJob { job, jobs } => {
                write!(f, "unknown job {job} (instance has {jobs} jobs)")
            }
            AdmissionError::AlreadySubmitted { job } => write!(f, "{job} was already submitted"),
            AdmissionError::UnknownTenant { tenant, tenants } => {
                write!(f, "unknown {tenant} (service has {tenants} tenants)")
            }
        }
    }
}

impl std::error::Error for AdmissionError {}

/// A scheduling policy violated a placement rule, or an algorithm failed to
/// produce a complete schedule. Surfaced as a typed error instead of a
/// process abort so callers can attribute the failure to the offending
/// policy and input.
#[derive(Debug, Clone, PartialEq)]
pub enum SchedulingError {
    /// A policy started a job before its release time.
    PlacedBeforeRelease {
        /// Offending job.
        job: JobId,
        /// The job's release time.
        release: f64,
        /// The simulated time of the premature placement.
        now: f64,
    },
    /// A policy referenced a machine index outside the cluster.
    InvalidMachine {
        /// The out-of-range machine index.
        machine: usize,
        /// Number of machines in the cluster (valid indices are
        /// `0..num_machines`).
        num_machines: usize,
    },
    /// A policy started a job on a machine that is currently failed. Down
    /// machines hold no capacity, so accepting the placement would silently
    /// corrupt cluster accounting; the fault-aware event loop surfaces the
    /// attempt instead.
    MachineDown {
        /// The failed machine the policy chose.
        machine: usize,
    },
    /// A policy started a job on a machine lacking capacity for it.
    DoesNotFit {
        /// Offending job.
        job: JobId,
        /// Machine the policy chose.
        machine: usize,
    },
    /// A policy started the same job twice.
    AlreadyPlaced {
        /// Offending job.
        job: JobId,
    },
    /// The event loop drained with jobs still unplaced: the policy stranded
    /// them (a work-conserving policy places every job once the cluster
    /// empties).
    StrandedJobs {
        /// Number of jobs left unplaced.
        unplaced: usize,
    },
    /// A job's completion event fired with no assignment backing it in the
    /// schedule. The event loops order completions before the fault events
    /// that unassign jobs at the same tick, so this indicates a
    /// completion/re-release ordering bug in the driver — surfaced as a
    /// typed error (the run's ledger and audit log stay intact) instead of
    /// a process abort.
    UnassignedCompletion {
        /// The job whose completion had no assignment.
        job: JobId,
        /// The machine the completion event claimed the job ran on.
        machine: usize,
    },
    /// A policy started a job whose precedence predecessor has not
    /// completed yet. The drivers withhold gated jobs from `on_arrivals`,
    /// so a policy can only trip this by placing a job it was never told
    /// about.
    PredecessorIncomplete {
        /// The prematurely placed job.
        job: JobId,
        /// An incomplete predecessor gating it.
        pred: JobId,
    },
    /// The instance cannot run on the given cluster: some job's demand
    /// exceeds every machine's capacity, so no feasible placement exists.
    /// Only reachable on heterogeneous clusters — instance validation
    /// already bounds demands by the reference [`CAPACITY`](crate::CAPACITY).
    UnplaceableJob {
        /// The job no machine can hold.
        job: JobId,
    },
}

impl std::fmt::Display for SchedulingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedulingError::PlacedBeforeRelease { job, release, now } => write!(
                f,
                "policy placed {job} at time {now} before its release {release}"
            ),
            SchedulingError::InvalidMachine {
                machine,
                num_machines,
            } => write!(
                f,
                "policy referenced machine {machine}, but the cluster has {num_machines} machines"
            ),
            SchedulingError::MachineDown { machine } => write!(
                f,
                "policy placed a job on machine {machine}, which is currently failed"
            ),
            SchedulingError::DoesNotFit { job, machine } => write!(
                f,
                "policy placed {job} on machine {machine} without sufficient capacity"
            ),
            SchedulingError::AlreadyPlaced { job } => {
                write!(f, "policy placed {job} twice")
            }
            SchedulingError::StrandedJobs { unplaced } => write!(
                f,
                "online policy stranded {unplaced} jobs: no events remain but the schedule is incomplete"
            ),
            SchedulingError::UnassignedCompletion { job, machine } => write!(
                f,
                "{job} completed on machine {machine} with no recorded assignment (completion/re-release ordering bug)"
            ),
            SchedulingError::PredecessorIncomplete { job, pred } => write!(
                f,
                "policy placed {job} before its predecessor {pred} completed"
            ),
            SchedulingError::UnplaceableJob { job } => write!(
                f,
                "{job} demands more than any machine in the cluster can hold"
            ),
        }
    }
}

impl std::error::Error for SchedulingError {}

/// An algorithm name failed to resolve against the registry.
///
/// Carries the rejected name, the registry's known-name listing (so the
/// message stays self-describing, as the old stringly-typed error was), and
/// an optional did-you-mean suggestion computed by edit distance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// No registered algorithm matches the requested name.
    UnknownAlgorithm {
        /// The name as the caller supplied it.
        name: String,
        /// Closest registered name by edit distance, when one is near enough.
        suggestion: Option<String>,
        /// The registry's documented names, for the error message.
        known: Vec<&'static str>,
    },
    /// The name used a recognised family prefix (`pq-`, `mris-`) but the
    /// heuristic suffix does not parse.
    UnknownHeuristic {
        /// The name as the caller supplied it.
        name: String,
        /// The parse failure reported by the heuristic parser.
        detail: String,
    },
    /// The algorithm resolved, but it does not support a feature the
    /// workload requires (precedence edges, heterogeneous machines).
    /// Surfaced as a typed error so an unsupported (algorithm, workload)
    /// pair cannot silently produce a wrong schedule.
    Unsupported {
        /// The resolved algorithm's registry name.
        algorithm: String,
        /// The workload feature it lacks.
        feature: WorkloadFeature,
    },
}

/// A workload capability a scheduler may or may not declare
/// (see [`RegistryError::Unsupported`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadFeature {
    /// The instance carries precedence edges.
    Precedence,
    /// The cluster has non-unit machine speeds or reduced capacities.
    HeterogeneousMachines,
}

impl std::fmt::Display for WorkloadFeature {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkloadFeature::Precedence => write!(f, "precedence-constrained jobs"),
            WorkloadFeature::HeterogeneousMachines => write!(f, "heterogeneous machines"),
        }
    }
}

impl RegistryError {
    /// Builds an [`RegistryError::UnknownAlgorithm`] for `name`, picking a
    /// did-you-mean suggestion from `candidates` by Levenshtein distance.
    pub fn unknown_algorithm<I, S>(name: &str, known: Vec<&'static str>, candidates: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let suggestion = closest_match(name, candidates.into_iter().map(Into::into));
        RegistryError::UnknownAlgorithm {
            name: name.to_string(),
            suggestion,
            known,
        }
    }
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::UnknownAlgorithm {
                name,
                suggestion,
                known,
            } => {
                write!(f, "unknown algorithm '{name}'")?;
                if let Some(s) = suggestion {
                    write!(f, " (did you mean '{s}'?)")?;
                }
                write!(f, "; known: {}", known.join(", "))
            }
            RegistryError::UnknownHeuristic { name, detail } => {
                write!(f, "unknown heuristic in '{name}': {detail}")
            }
            RegistryError::Unsupported { algorithm, feature } => {
                write!(f, "algorithm '{algorithm}' does not support {feature}")
            }
        }
    }
}

impl std::error::Error for RegistryError {}

/// Case-insensitive Levenshtein distance between two short names.
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().flat_map(|c| c.to_lowercase()).collect();
    let b: Vec<char> = b.chars().flat_map(|c| c.to_lowercase()).collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// The candidate closest to `target` by edit distance, if any is within a
/// third of the target's length (minimum slack 2). Used for did-you-mean
/// suggestions in [`RegistryError`].
pub fn closest_match<I>(target: &str, candidates: I) -> Option<String>
where
    I: IntoIterator<Item = String>,
{
    let budget = (target.chars().count() / 3).max(2);
    candidates
        .into_iter()
        .map(|c| (edit_distance(target, &c), c))
        .filter(|(d, _)| *d <= budget)
        .min_by(|(da, a), (db, b)| da.cmp(db).then_with(|| a.cmp(b)))
        .map(|(_, c)| c)
}

/// A service configuration failed validation (see `ServiceConfig::builder`
/// in `mris-service`).
///
/// The builder surfaces these instead of panicking so daemons can reject a
/// bad config at startup with a proper exit message.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// The cluster must have at least one machine.
    NoMachines,
    /// The scheduling epoch is negative or not finite. (Zero is legal and
    /// means per-event scheduling.)
    InvalidEpoch {
        /// The invalid value.
        value: f64,
    },
    /// A queue watermark of zero sheds every submission.
    ZeroQueueWatermark,
    /// The load watermark must be a positive number.
    InvalidLoadWatermark {
        /// The invalid value.
        value: f64,
    },
    /// The re-release aging factor is negative or not finite.
    InvalidAgingFactor {
        /// The invalid value.
        value: f64,
    },
    /// A tenant specification in the config's tenant table is invalid.
    InvalidTenant {
        /// Index of the offending tenant in the table.
        tenant: usize,
        /// What was wrong with it.
        detail: String,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::NoMachines => write!(f, "service config: num_machines must be positive"),
            ConfigError::InvalidEpoch { value } => {
                write!(
                    f,
                    "service config: epoch must be finite and >= 0, got {value}"
                )
            }
            ConfigError::ZeroQueueWatermark => write!(
                f,
                "service config: queue_watermark 0 would shed every submission"
            ),
            ConfigError::InvalidLoadWatermark { value } => write!(
                f,
                "service config: load_watermark must be positive, got {value}"
            ),
            ConfigError::InvalidAgingFactor { value } => write!(
                f,
                "service config: aging factor must be finite and >= 0, got {value}"
            ),
            ConfigError::InvalidTenant { tenant, detail } => {
                write!(f, "service config: tenant {tenant}: {detail}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// A durability artifact (journal or snapshot) failed to decode.
///
/// Every variant names the byte offset at which decoding stopped, so a
/// corrupted file is diagnosable without a hex dump. Corruption is always a
/// typed rejection — never a panic, never silent partial state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The file does not start with the expected magic bytes.
    BadMagic {
        /// The four bytes found where the magic was expected.
        found: [u8; 4],
    },
    /// The file's format version is newer than this build understands.
    UnsupportedVersion {
        /// The version tag found in the header.
        found: u32,
        /// The newest version this build can decode.
        supported: u32,
    },
    /// The input ended before a complete header, frame, or field.
    Truncated {
        /// Byte offset at which more input was needed.
        offset: usize,
        /// Bytes the decoder needed at that offset.
        needed: usize,
        /// Bytes actually remaining.
        remaining: usize,
    },
    /// A frame's CRC-32 checksum does not match its payload.
    ChecksumMismatch {
        /// Byte offset of the corrupted frame.
        offset: usize,
        /// Checksum stored in the frame.
        stored: u32,
        /// Checksum computed over the payload.
        computed: u32,
    },
    /// A length or tag field holds a structurally impossible value.
    Malformed {
        /// Byte offset of the offending field.
        offset: usize,
        /// What the decoder found there.
        detail: String,
    },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::BadMagic { found } => {
                write!(f, "bad magic bytes {found:02x?}")
            }
            CodecError::UnsupportedVersion { found, supported } => write!(
                f,
                "format version {found} is newer than supported version {supported}"
            ),
            CodecError::Truncated {
                offset,
                needed,
                remaining,
            } => write!(
                f,
                "truncated at byte {offset}: needed {needed} bytes, {remaining} remain"
            ),
            CodecError::ChecksumMismatch {
                offset,
                stored,
                computed,
            } => write!(
                f,
                "checksum mismatch at byte {offset}: stored {stored:#010x}, computed {computed:#010x}"
            ),
            CodecError::Malformed { offset, detail } => {
                write!(f, "malformed field at byte {offset}: {detail}")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// The durability subsystem of a running service failed.
///
/// Journal-append IO failures are held here (queryable on the service)
/// rather than aborting the event loop: the scheduler keeps its
/// non-preemptive commitments even when the disk under the journal
/// misbehaves, and the operator decides whether to keep flying blind.
#[derive(Debug, Clone, PartialEq)]
pub enum DurabilityError {
    /// A journal can only be attached to a pristine service — events that
    /// predate the journal could never be replayed.
    AttachAfterStart {
        /// Events the service had already processed.
        events: usize,
        /// Submissions it had already admitted.
        submitted: usize,
    },
    /// Writing or flushing the journal failed.
    JournalIo {
        /// The `std::io::Error` rendered to a string (io errors are not
        /// `Clone`/`PartialEq`).
        detail: String,
    },
    /// Persisting a snapshot failed.
    SnapshotIo {
        /// The underlying error rendered to a string.
        detail: String,
    },
}

impl std::fmt::Display for DurabilityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurabilityError::AttachAfterStart { events, submitted } => write!(
                f,
                "journal attached after start: {events} events processed, {submitted} submitted"
            ),
            DurabilityError::JournalIo { detail } => write!(f, "journal io failed: {detail}"),
            DurabilityError::SnapshotIo { detail } => write!(f, "snapshot io failed: {detail}"),
        }
    }
}

impl std::error::Error for DurabilityError {}

/// `Service::restore` (in `mris-service`) could not rebuild a crashed
/// service from its journal and snapshot.
#[derive(Debug, Clone, PartialEq)]
pub enum RestoreError {
    /// The journal failed to decode before any record could be replayed
    /// (header-level corruption; tail corruption degrades gracefully).
    Journal(CodecError),
    /// The snapshot container failed to decode.
    Snapshot(CodecError),
    /// The journal or snapshot was written under a different instance,
    /// service config, or durability config than the one being restored.
    FingerprintMismatch {
        /// Fingerprint stored in the artifact.
        stored: u64,
        /// Fingerprint of the restoring configuration.
        expected: u64,
    },
    /// Replay produced a different record than the journal holds — the
    /// journal does not describe a run of this service build.
    Divergence {
        /// Sequence number of the first mismatching record.
        lsn: u64,
        /// Human-readable expected-vs-produced description.
        detail: String,
    },
    /// The state decoded from the snapshot does not re-encode to the
    /// snapshot's own bytes.
    SnapshotStateMismatch {
        /// The snapshot's sequence number.
        lsn: u64,
    },
    /// A snapshot was supplied for a policy that cannot be restored from
    /// one: the snapshot holds no policy state, or the policy has no
    /// decoder for it. Restore never falls back to replaying from genesis
    /// behind the caller's back; retry without the snapshot.
    SnapshotUnsupported,
    /// The surviving journal ends before the snapshot's sequence number:
    /// the records needed to reach the snapshot's horizon are gone.
    JournalBehindSnapshot {
        /// The snapshot's sequence number.
        lsn: u64,
        /// Records the journal actually holds.
        records: u64,
    },
    /// The journal's record at the snapshot's sequence number is not the
    /// snapshot's mark, or the snapshot's state disagrees with the journal
    /// before it — the snapshot belongs to a different run or cadence.
    SnapshotUnmatched {
        /// The snapshot's sequence number.
        lsn: u64,
        /// Records the journal holds.
        replayed: u64,
    },
    /// A degraded-mode outage was requested at or before the replayed
    /// horizon; the synthetic failures would rewrite already-replayed
    /// history.
    OutageTooEarly {
        /// The requested outage instant.
        at: f64,
        /// The time replay resumed the service at.
        resumed_at: f64,
    },
    /// The policy violated a placement rule during replay (the journal
    /// encodes an impossible run for this policy).
    Scheduling(SchedulingError),
    /// The restoring service configuration is itself invalid.
    Config(ConfigError),
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreError::Journal(e) => write!(f, "journal unreadable: {e}"),
            RestoreError::Config(e) => write!(f, "restore configuration invalid: {e}"),
            RestoreError::Snapshot(e) => write!(f, "snapshot unreadable: {e}"),
            RestoreError::FingerprintMismatch { stored, expected } => write!(
                f,
                "configuration fingerprint mismatch: artifact {stored:#018x}, restoring {expected:#018x}"
            ),
            RestoreError::Divergence { lsn, detail } => {
                write!(f, "replay diverged from journal at record {lsn}: {detail}")
            }
            RestoreError::SnapshotStateMismatch { lsn } => write!(
                f,
                "re-derived state at record {lsn} differs from the stored snapshot"
            ),
            RestoreError::JournalBehindSnapshot { lsn, records } => write!(
                f,
                "journal holds {records} records but the snapshot was taken at record {lsn}"
            ),
            RestoreError::SnapshotUnsupported => write!(
                f,
                "the policy cannot be restored from a snapshot (no durable state decoder)"
            ),
            RestoreError::SnapshotUnmatched { lsn, replayed } => write!(
                f,
                "snapshot at record {lsn} does not match the journal's {replayed} records"
            ),
            RestoreError::OutageTooEarly { at, resumed_at } => write!(
                f,
                "degraded outage at {at} precedes the replayed horizon {resumed_at}"
            ),
            RestoreError::Scheduling(e) => write!(f, "replay hit a scheduling error: {e}"),
        }
    }
}

impl std::error::Error for RestoreError {}

impl From<SchedulingError> for RestoreError {
    fn from(e: SchedulingError) -> Self {
        RestoreError::Scheduling(e)
    }
}

impl From<ConfigError> for RestoreError {
    fn from(e: ConfigError) -> Self {
        RestoreError::Config(e)
    }
}

/// A `mris-net` wire-protocol operation failed.
///
/// Transport failures (`Io`, `Closed`) and protocol failures (`Codec`,
/// `FingerprintMismatch`, …) are distinguished so clients can decide
/// between retrying and giving up. IO errors are rendered to strings —
/// `std::io::Error` is neither `Clone` nor `PartialEq`.
#[derive(Debug, Clone, PartialEq)]
pub enum NetError {
    /// A socket read/write failed.
    Io {
        /// The underlying `std::io::Error`, rendered.
        detail: String,
    },
    /// A frame or message failed to decode.
    Codec(CodecError),
    /// The server rejected the connection's authentication token.
    AuthFailed,
    /// The client and server disagree on the configuration fingerprint —
    /// they are not looking at the same instance/config world.
    FingerprintMismatch {
        /// Fingerprint the server reported.
        server: u64,
        /// Fingerprint the client expected.
        client: u64,
    },
    /// The server reported a request-level failure (e.g. a rejected drain).
    Remote {
        /// The server's rendering of the failure.
        detail: String,
    },
    /// The peer answered with a response type the request does not admit.
    UnexpectedResponse {
        /// What arrived instead.
        detail: String,
    },
    /// The connection was closed before the exchange completed.
    Closed,
    /// A payload too large for one frame was refused before any byte of
    /// it was written.
    FrameTooLarge {
        /// The payload's length in bytes.
        len: u64,
        /// The largest payload a frame carries.
        cap: u32,
    },
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io { detail } => write!(f, "net io failed: {detail}"),
            NetError::Codec(e) => write!(f, "net frame corrupt: {e}"),
            NetError::AuthFailed => write!(f, "authentication failed: unknown tenant token"),
            NetError::FingerprintMismatch { server, client } => write!(
                f,
                "configuration fingerprint mismatch: server {server:#018x}, client {client:#018x}"
            ),
            NetError::Remote { detail } => write!(f, "server reported an error: {detail}"),
            NetError::UnexpectedResponse { detail } => {
                write!(f, "unexpected response: {detail}")
            }
            NetError::Closed => write!(f, "connection closed mid-exchange"),
            NetError::FrameTooLarge { len, cap } => {
                write!(f, "a {len}-byte payload exceeds the {cap}-byte frame cap")
            }
        }
    }
}

impl std::error::Error for NetError {}

impl From<CodecError> for NetError {
    fn from(e: CodecError) -> Self {
        NetError::Codec(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closest_match_finds_near_names() {
        let known = ["mris", "tetris", "bf-exec", "pq-wsjf"];
        let got = closest_match("tetriss", known.iter().map(|s| s.to_string()));
        assert_eq!(got.as_deref(), Some("tetris"));
        // Far-off garbage yields no suggestion.
        assert_eq!(
            closest_match("zzzzzzzzzz", known.iter().map(|s| s.to_string())),
            None
        );
    }

    #[test]
    fn registry_error_message_lists_known_names() {
        let e = RegistryError::unknown_algorithm(
            "mrs",
            vec!["mris", "tetris"],
            ["mris".to_string(), "tetris".to_string()],
        );
        let msg = e.to_string();
        assert!(msg.contains("mris") && msg.contains("tetris"), "{msg}");
        assert!(msg.contains("did you mean 'mris'"), "{msg}");
        assert!(msg.contains("unknown algorithm"), "{msg}");
    }

    #[test]
    fn config_errors_render() {
        let e = ConfigError::InvalidEpoch { value: f64::NAN };
        assert!(e.to_string().contains("epoch"));
        assert!(ConfigError::NoMachines.to_string().contains("num_machines"));
    }
}
