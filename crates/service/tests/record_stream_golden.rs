//! Golden for what a run reports about itself: every per-event record of a
//! service run and of a batch run, hashed.
//!
//! The event kernel reports each instant through its `EventSink`; the
//! service's telemetry and journal and the batch driver's `EventSnapshot`s
//! are what its callers make of that report. Pinned here, so that changing
//! how they are derived cannot change what they say:
//!
//! 1. a faulted DAG service run with two tenants, weight aging and epoch
//!    batching: every `EpochRecord` (`decision_ns` zeroed, it is wall
//!    time), the summary's simulated-time fields, the journal bytes, every
//!    snapshot the run writes, and the span events the run emits (names and
//!    fields; durations are wall time);
//! 2. the `EventSnapshot` sequence `run_driver_observed` reports for a
//!    faulted DAG run on related machines (speeds 2/1/0.5);
//! 3. a two-tenant run that sheds through all five admission gates — the
//!    global queue-depth and queued-demand watermarks, and the tenant
//!    queue-depth, queued-demand and weighted-fair gates: the journal,
//!    every snapshot, the outcome ledger and the tenant stats.
//!
//! The service half runs on a uniform cluster because `Service` builds
//! `ClusterSpec::uniform`. The obs subscriber is process-wide, so this file
//! holds nothing else, and every test holds the install guard so that
//! none's spans land in another's capture.

use std::sync::Arc;

use mris_core::registry::{online_policy_by_name, online_policy_on};
use mris_obs::{JsonlEventSink, Obs};
use mris_rng::Rng;
use mris_service::{
    fnv64, DurabilityConfig, Encoder, EpochRecord, MemorySink, MemorySnapshots, Service,
    ServiceConfig, ServiceSummary, SharedBuf, SimClock, TenantSpec,
};
use mris_sim::{run_driver_observed, FaultPlan, RunOptions};
use mris_types::{
    AdmissionError, ClusterSpec, Codec, FaultEvent, FaultTarget, Instance, InstanceBuilder, JobId,
    RestartSemantics, TenantId, TenantQuotaKind,
};

/// A seeded random DAG of `n` jobs over two resources: forward edges only,
/// releases spread so that successors are often released before their
/// predecessors complete.
fn dag(seed: u64, n: usize) -> Instance {
    let mut rng = Rng::new(seed);
    let mut b = InstanceBuilder::new(2);
    for _ in 0..n {
        let demands = [rng.gen_range(0.05..=0.7), rng.gen_range(0.05..=0.7)];
        b.push_job(
            rng.gen_range(0.0..20.0),
            rng.gen_range(0.5..6.0),
            rng.gen_range(1.0..4.0),
            &demands,
        );
    }
    for succ in 1..n {
        for _ in 0..rng.gen_range(0..=2usize) {
            let pred = rng.gen_range(0..succ);
            b.edge(JobId(pred as u32), JobId(succ as u32));
        }
    }
    b.build().expect("forward edges are acyclic")
}

fn strike(at: f64, downtime: f64, target: FaultTarget) -> FaultEvent {
    FaultEvent {
        at,
        downtime,
        target,
    }
}

/// Strikes on fixed machines, on the busiest one, and one on a machine
/// that is already down (absorbed).
fn plan() -> FaultPlan {
    FaultPlan::from_events(vec![
        strike(3.0, 2.0, FaultTarget::Machine(1)),
        strike(7.5, 1.5, FaultTarget::Busiest),
        strike(12.0, 4.0, FaultTarget::Machine(3)),
        strike(13.0, 1.0, FaultTarget::Machine(3)),
        strike(18.0, 3.0, FaultTarget::Busiest),
    ])
}

fn epoch_bytes(e: &mut Encoder, r: &EpochRecord) {
    for v in [
        r.epoch,
        r.queue_depth,
        r.arrivals,
        r.re_releases,
        r.placements,
        r.completions,
        r.running,
        r.rejections_total,
    ] {
        e.u64(v as u64);
    }
    e.f64(r.time);
}

/// The summary's simulated-time fields: not `wall_seconds`, the throughput
/// or the decision latency.
fn summary_bytes(e: &mut Encoder, s: &ServiceSummary) {
    for v in [
        s.submitted,
        s.accepted,
        s.rejected_queue_full,
        s.rejected_infeasible,
        s.completed,
        s.epochs,
        s.max_queue_depth,
        s.failures,
    ] {
        e.u64(v as u64);
    }
    for v in [s.awct, s.makespan, s.drained_at] {
        e.f64(v);
    }
}

/// One JSONL span event without its `duration_s` field.
fn without_duration(line: &str) -> String {
    match line.find(",\"duration_s\":") {
        Some(at) => {
            let rest = &line[at + 1..];
            let end = rest.find([',', '}']).expect("a field ends");
            format!("{}{}", &line[..at], &rest[end..])
        }
        None => line.to_string(),
    }
}

/// Captured at the commit before the service's per-event counts came from
/// its sink.
const TELEMETRY_HASH: u64 = 0xbf89_906a_0145_c723;
const JOURNAL_HASH: u64 = 0x568a_fae0_0a73_789d;
const SPANS_HASH: u64 = 0xa0dd_65eb_ed80_450e;
/// Every snapshot the service run writes, each length-prefixed: the
/// snapshot container and state bytes (`SNAPSHOT_VERSION` 3).
const SNAPSHOTS_HASH: u64 = 0xfa8f_b9cd_f9e0_8f41;
const DRIVER_HASH: u64 = 0x5bdd_3fb2_371c_a687;

#[test]
fn service_records_are_pinned() {
    const MACHINES: usize = 4;
    let instance = dag(30, 80);
    // Beta only ever submits jobs without successors, so a rejection never
    // strands a successor behind its gate.
    let beta = |job: JobId| instance.successors(job).is_empty() && job.0 % 2 == 1;
    let cfg = ServiceConfig::builder(MACHINES)
        .epoch(0.25)
        .fault_plan(plan())
        .restart(RestartSemantics::WeightAging { factor: 1.5 })
        .tenants(vec![
            TenantSpec::new("alpha", "tok-a", 2.0),
            TenantSpec::new("beta", "tok-b", 1.0).queue_watermark(2),
        ])
        .build()
        .expect("valid service config");
    let policy = online_policy_by_name("mris", &instance, MACHINES).expect("mris resolves");
    let mut service = Service::new(
        instance.clone(),
        policy,
        cfg,
        SimClock::new(),
        MemorySink::default(),
    )
    .expect("valid service config");
    let journal = SharedBuf::new();
    let snapshots = MemorySnapshots::new();
    service
        .attach_journal(
            DurabilityConfig {
                flush_every: 2,
                snapshot_every: 8,
            },
            Box::new(journal.clone()),
            Box::new(snapshots.clone()),
        )
        .expect("a fresh service takes a journal");

    let spans = SharedBuf::new();
    let obs = Arc::new(Obs::with_sink(Box::new(JsonlEventSink::new(spans.clone()))));
    let guard = mris_obs::install_guard(obs);
    let mut order: Vec<JobId> = instance.jobs().iter().map(|j| j.id).collect();
    order.sort_by(|&a, &b| {
        instance
            .job(a)
            .release
            .total_cmp(&instance.job(b).release)
            .then(a.cmp(&b))
    });
    for job in order {
        let tenant = TenantId(beta(job) as u32);
        let _ = service
            .submit_at_as(instance.job(job).release, job, tenant)
            .expect("MRIS breaks no placement rule");
    }
    let (report, sink) = service.drain().expect("every admitted job completes");
    drop(guard);

    assert!(report.log.total_kills() > 0, "no strike killed a job");
    assert!(report.tenants[1].rejected > 0, "beta was never shed");
    assert!(
        sink.epochs.iter().any(|r| r.re_releases > 0),
        "no event re-released a job"
    );

    let mut e = Encoder::new();
    for r in &sink.epochs {
        epoch_bytes(&mut e, r);
    }
    summary_bytes(
        &mut e,
        sink.summary.as_ref().expect("drain emits a summary"),
    );
    let telemetry = fnv64(e.as_bytes());
    let journal = fnv64(&journal.contents());
    let written = snapshots.all();
    assert!(
        written.len() > 1,
        "the run wrote {} snapshots",
        written.len()
    );
    e.clear();
    for snap in &written {
        e.u64(snap.len() as u64);
        e.bytes(snap);
    }
    let snaps = fnv64(e.as_bytes());
    let span_text = String::from_utf8(spans.contents()).expect("span events are UTF-8");
    let span_lines: Vec<String> = span_text.lines().map(without_duration).collect();
    assert!(!span_lines.is_empty(), "the run emitted no span");
    let spans = fnv64(span_lines.join("\n").as_bytes());
    assert_eq!(
        (telemetry, journal, snaps, spans),
        (TELEMETRY_HASH, JOURNAL_HASH, SNAPSHOTS_HASH, SPANS_HASH),
        "{} epoch records, {} snapshots, {} span events: telemetry {telemetry:#018x}, \
         journal {journal:#018x}, snapshots {snaps:#018x}, spans {spans:#018x}",
        sink.epochs.len(),
        written.len(),
        span_lines.len(),
    );
}

#[test]
fn driver_snapshots_are_pinned() {
    let instance = dag(31, 60);
    let cluster = ClusterSpec::related(6, &[2.0, 1.0, 0.5]);
    let mut policy = online_policy_on("mris", &instance, &cluster).expect("mris resolves");
    let plan = plan();
    let options = RunOptions::new()
        .with_faults(&plan)
        .with_restart(RestartSemantics::WeightAging { factor: 2.0 });
    // Serialises with the service test; this subscriber has no sink.
    let guard = mris_obs::install_guard(Arc::new(Obs::new()));
    let mut e = Encoder::new();
    let mut snapshots = 0usize;
    let outcome = run_driver_observed(&instance, cluster, policy.as_mut(), options, |s| {
        e.f64(s.time);
        e.u64(s.running as u64);
        e.u64(s.placed as u64);
        e.u64(s.released as u64);
        snapshots += 1;
    })
    .expect("MRIS places every job");
    drop(guard);
    assert!(outcome.log.total_kills() > 0, "no strike killed a job");
    let hash = fnv64(e.as_bytes());
    assert_eq!(
        hash, DRIVER_HASH,
        "{snapshots} snapshots: driver {hash:#018x}"
    );
}

/// Captured before admission's gates and rejection record were one each.
/// The watermarks are set so that some offers would be shed by two gates
/// at once: swapping any two adjacent gates changes what is recorded.
const GATES_JOURNAL_HASH: u64 = 0xaa3d_4a0f_7829_b94d;
const GATES_SNAPSHOTS_HASH: u64 = 0xa2a3_184f_52a4_33ff;
const GATES_LEDGER_HASH: u64 = 0xe09d_e450_3d6d_0031;

#[test]
fn admission_gates_are_pinned() {
    const MACHINES: usize = 2;
    // Bursts of twelve jobs released together, so the queue fills between
    // one-unit delivery epochs; no edges, so a rejection strands nothing.
    let mut rng = Rng::new(43);
    let mut b = InstanceBuilder::new(2);
    for i in 0..120 {
        let demands = [rng.gen_range(0.05..=0.9), rng.gen_range(0.05..=0.9)];
        b.push_job(
            (i / 12) as f64 * 2.0,
            rng.gen_range(0.5..3.0),
            rng.gen_range(1.0..4.0),
            &demands,
        );
    }
    let instance = b.build().expect("valid jobs");
    let cfg = ServiceConfig::builder(MACHINES)
        .epoch(1.0)
        .queue_watermark(6)
        .load_watermark(1.8)
        .fair_watermark(3)
        .tenants(vec![
            TenantSpec::new("alpha", "tok-a", 2.0),
            TenantSpec::new("beta", "tok-b", 1.0)
                .queue_watermark(2)
                .load_watermark(0.6),
        ])
        .build()
        .expect("valid service config");
    let policy = online_policy_by_name("pq-wsjf", &instance, MACHINES).expect("pq-wsjf resolves");
    let mut service = Service::new(
        instance.clone(),
        policy,
        cfg,
        SimClock::new(),
        MemorySink::default(),
    )
    .expect("valid service config");
    let journal = SharedBuf::new();
    let snapshots = MemorySnapshots::new();
    service
        .attach_journal(
            DurabilityConfig {
                flush_every: 1,
                snapshot_every: 3,
            },
            Box::new(journal.clone()),
            Box::new(snapshots.clone()),
        )
        .expect("a fresh service takes a journal");
    let guard = mris_obs::install_guard(Arc::new(Obs::new()));
    for j in instance.jobs() {
        let tenant = TenantId(j.id.0 % 2);
        let _ = service
            .submit_at_as(j.release, j.id, tenant)
            .expect("PQ-WSJF breaks no placement rule");
    }
    let (report, _) = service.drain().expect("every admitted job completes");
    drop(guard);

    let mut kinds = [0usize; 5];
    for o in &report.outcomes {
        if let mris_service::JobOutcome::Rejected(err) = o {
            kinds[match err {
                AdmissionError::QueueFull { .. } => 0,
                AdmissionError::DemandInfeasible { .. } => 1,
                AdmissionError::TenantQuota { kind, .. } => match kind {
                    TenantQuotaKind::QueueDepth { .. } => 2,
                    TenantQuotaKind::QueuedDemand { .. } => 3,
                    TenantQuotaKind::FairShare { .. } => 4,
                },
                other => panic!("the ledger records an invalid offer: {other}"),
            }] += 1;
        }
    }
    assert!(
        kinds.iter().all(|&k| k > 0),
        "queue full, infeasible, tenant depth, tenant demand, fair share: {kinds:?}"
    );

    let journal = fnv64(&journal.contents());
    let written = snapshots.all();
    assert!(
        written.len() > 1,
        "the run wrote {} snapshots",
        written.len()
    );
    let mut e = Encoder::new();
    for snap in &written {
        e.u64(snap.len() as u64);
        e.bytes(snap);
    }
    let snaps = fnv64(e.as_bytes());
    e.clear();
    for o in &report.outcomes {
        o.encode(&mut e);
    }
    for t in &report.tenants {
        e.u64(t.name.len() as u64);
        e.bytes(t.name.as_bytes());
        e.f64(t.weight);
        e.u64(t.admitted);
        e.u64(t.rejected);
        e.u64(t.admitted_cost);
    }
    let ledger = fnv64(e.as_bytes());
    assert_eq!(
        (journal, snaps, ledger),
        (GATES_JOURNAL_HASH, GATES_SNAPSHOTS_HASH, GATES_LEDGER_HASH),
        "{kinds:?} rejections, {} snapshots: journal {journal:#018x}, \
         snapshots {snaps:#018x}, ledger {ledger:#018x}",
        written.len(),
    );
}
