//! Precedence (DAG) workloads through the service event loop.
//!
//! The precedence gate lives in the event kernel the service shares with
//! the batch driver (one kernel, two configurations): a successor is
//! withheld from the policy until every predecessor has completed. The
//! service's own part is how a reopened job re-enters its delivery queue
//! (original admission sequence, epoch-quantised) and the journal record of
//! each gate opening (`PrecedenceReady`, v3), from which a crash-restored
//! service re-derives the identical continuation.
//!
//! Pinned here, over randomized DAG instances:
//!
//! 1. no successor ever starts before a predecessor completes, for every
//!    precedence-capable registered policy;
//! 2. wakeup-free baselines are bit-identical to `run_online` on DAGs;
//! 3. a journaled DAG run parses, contains `PrecedenceReady` records when
//!    gates actually held jobs, and restores bit-identically — both from
//!    the full journal and from every event-boundary truncation.

use mris_core::registry::online_policy_by_name;
use mris_rng::Rng;
use mris_service::{
    truncate_at_event, DurabilityConfig, JobOutcome, JournalRecord, MemorySink, MemorySnapshots,
    RestoreOptions, Service, ServiceConfig, ServiceReport, SharedBuf, SimClock,
};
use mris_sim::run_online;
use mris_types::{Instance, InstanceBuilder, JobId};

/// Precedence-capable registered policies (ca-pq opts out: its clairvoyant
/// arrival oracle cannot see gate-release times).
const DAG_POLICIES: [&str; 5] = ["mris", "pq-wsjf", "pq-wsvf", "tetris", "bf-exec"];
/// The subset without wakeups, comparable against `run_online` directly.
const EVENT_DRIVEN: [&str; 4] = ["pq-wsjf", "pq-wsvf", "tetris", "bf-exec"];

/// A seeded random DAG: forward edges only (acyclic by construction), with
/// early releases so successors are routinely released before their
/// predecessors complete — the case that exercises the gate.
fn gen_dag(rng: &mut Rng) -> (usize, Instance) {
    let r = rng.gen_range(1..=2usize);
    let n = rng.gen_range(3..=12usize);
    let mut b = InstanceBuilder::new(r);
    for _ in 0..n {
        let demands: Vec<f64> = (0..r).map(|_| rng.gen_range(0.05..=1.0)).collect();
        b.push_job(
            rng.gen_range(0.0..4.0),
            rng.gen_range(0.5..6.0),
            rng.gen_range(0.0..4.0),
            &demands,
        );
    }
    for pred in 0..n {
        for succ in (pred + 1)..n {
            if rng.gen_range(0.0..1.0) < 0.25 {
                b.edge(JobId(pred as u32), JobId(succ as u32));
            }
        }
    }
    let machines = rng.gen_range(1..=3usize);
    (machines, b.build().expect("forward edges are acyclic"))
}

/// Jobs in the canonical (release, id) submission order.
fn submission_order(instance: &Instance) -> Vec<JobId> {
    let mut order: Vec<JobId> = instance.jobs().iter().map(|j| j.id).collect();
    order.sort_by(|&a, &b| {
        instance
            .job(a)
            .release
            .total_cmp(&instance.job(b).release)
            .then(a.cmp(&b))
    });
    order
}

/// Runs a permissive service over `instance`; optionally journaled.
fn run_service(
    name: &str,
    instance: &Instance,
    machines: usize,
    journal: Option<(&SharedBuf, &MemorySnapshots)>,
) -> ServiceReport {
    let policy = online_policy_by_name(name, instance, machines).expect("known policy");
    let mut svc = Service::new(
        instance.clone(),
        policy,
        ServiceConfig::new(machines),
        SimClock::new(),
        MemorySink::default(),
    )
    .expect("valid service config");
    if let Some((buf, snaps)) = journal {
        svc.attach_journal(
            DurabilityConfig {
                flush_every: 1,
                snapshot_every: 4,
            },
            Box::new(buf.clone()),
            Box::new(snaps.clone()),
        )
        .expect("journal attaches to a fresh service");
    }
    for job in submission_order(instance) {
        let _ = svc
            .submit_at(instance.job(job).release, job)
            .expect("policy error on DAG run");
    }
    let (report, _sink) = svc.drain().expect("drain");
    report
}

/// Every edge holds in the drained schedule: `start(succ) >= end(pred)`.
fn assert_edges_respected(name: &str, case: usize, instance: &Instance, report: &ServiceReport) {
    for &(pred, succ) in instance.edges() {
        let p = report
            .schedule
            .get(pred)
            .unwrap_or_else(|| panic!("{name} case {case}: predecessor {pred} unscheduled"));
        let s = report
            .schedule
            .get(succ)
            .unwrap_or_else(|| panic!("{name} case {case}: successor {succ} unscheduled"));
        let end = p.start + instance.job(pred).proc_time;
        assert!(
            s.start >= end,
            "{name} case {case}: {succ} starts at {} before {pred} completes at {end}",
            s.start
        );
    }
}

#[test]
fn service_respects_precedence_on_dags() {
    let mut rng = Rng::new(11).substream("service-dag");
    for case in 0..24 {
        let (machines, instance) = gen_dag(&mut rng);
        for name in DAG_POLICIES {
            let report = run_service(name, &instance, machines, None);
            report
                .schedule
                .validate(&instance)
                .unwrap_or_else(|e| panic!("{name} case {case}: invalid schedule: {e}"));
            assert_edges_respected(name, case, &instance, &report);
            assert!(
                report
                    .outcomes
                    .iter()
                    .all(|o| matches!(o, JobOutcome::Completed)),
                "{name} case {case}: not every job completed"
            );
        }
    }
}

#[test]
fn service_matches_run_online_on_dags() {
    let mut rng = Rng::new(13).substream("service-dag-online");
    for case in 0..24 {
        let (machines, instance) = gen_dag(&mut rng);
        for name in EVENT_DRIVEN {
            let report = run_service(name, &instance, machines, None);
            let mut policy =
                online_policy_by_name(name, &instance, machines).expect("known policy");
            let online = run_online(&instance, machines, policy.as_mut())
                .unwrap_or_else(|e| panic!("{name} case {case} run_online: {e}"));
            assert_eq!(
                report.schedule, online,
                "{name} case {case}: service diverged from run_online on a DAG"
            );
        }
    }
}

/// A chain `0 -> 1 -> 2` with simultaneous releases: 1 and 2 are released
/// long before their predecessors complete, so both are held and reopened
/// — the journal must carry a `PrecedenceReady` record for each.
fn chain_instance() -> Instance {
    let mut b = InstanceBuilder::new(1);
    for _ in 0..3 {
        b.push_job(0.0, 2.0, 1.0, &[0.4]);
    }
    b.edge(JobId(0), JobId(1));
    b.edge(JobId(1), JobId(2));
    b.build().expect("chain is acyclic")
}

#[test]
fn dag_journal_records_gate_openings() {
    let instance = chain_instance();
    let buf = SharedBuf::new();
    let snaps = MemorySnapshots::new();
    let report = run_service("pq-wsjf", &instance, 2, Some((&buf, &snaps)));
    assert_edges_respected("pq-wsjf", 0, &instance, &report);

    let parsed = mris_service::parse_journal(&buf.contents()).expect("journal parses");
    assert_eq!(parsed.version, 3, "DAG journals are written as v3");
    let ready: Vec<u32> = parsed
        .records
        .iter()
        .filter_map(|r| match r {
            JournalRecord::PrecedenceReady { job } => Some(*job),
            _ => None,
        })
        .collect();
    assert_eq!(
        ready,
        vec![1, 2],
        "each held chain link is reopened exactly once, in order"
    );
}

#[test]
fn dag_crash_restart_is_bit_identical() {
    let mut rng = Rng::new(7).substream("dag-crash");
    for case in 0..8 {
        let (machines, instance) = gen_dag(&mut rng);
        let buf = SharedBuf::new();
        let snaps = MemorySnapshots::new();
        let golden = run_service("pq-wsjf", &instance, machines, Some((&buf, &snaps)));
        let journal = buf.contents();
        let cfg = ServiceConfig::new(machines);
        let dcfg = DurabilityConfig {
            flush_every: 1,
            snapshot_every: 4,
        };
        if golden.summary.epochs < 2 {
            continue;
        }
        for cut in 1..golden.summary.epochs {
            let valid = truncate_at_event(&journal, cut).expect("event boundary exists");
            let truncated = &journal[..valid];
            let policy = online_policy_by_name("pq-wsjf", &instance, machines).expect("known");
            let (mut svc, _restore) = Service::restore(
                instance.clone(),
                policy,
                cfg.clone(),
                dcfg,
                SimClock::new(),
                MemorySink::default(),
                truncated,
                None,
                RestoreOptions::default(),
            )
            .expect("restore from truncated DAG journal");
            for job in submission_order(&instance) {
                if svc.checked_outcome(job) != Some(JobOutcome::NotSubmitted) {
                    continue;
                }
                let _ = svc
                    .submit_at(instance.job(job).release, job)
                    .expect("resubmission");
            }
            let (report, _sink) = svc.drain().expect("post-restore drain");
            assert_eq!(
                report.schedule, golden.schedule,
                "case {case} cut {cut}: schedule diverged after DAG restore"
            );
            assert_eq!(
                report.summary.awct.to_bits(),
                golden.summary.awct.to_bits(),
                "case {case} cut {cut}: AWCT bits diverged after DAG restore"
            );
            assert_eq!(
                report.outcomes, golden.outcomes,
                "case {case} cut {cut}: outcome ledger diverged after DAG restore"
            );
        }
    }
}
