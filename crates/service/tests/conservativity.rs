//! Conservativity of the service: one kernel, two configurations.
//!
//! The service and the batch driver run the same `mris_sim::EventKernel`;
//! they differ in where arrivals come from (an admission-controlled
//! delivery queue vs the release-sorted jobs of the instance), in the sink
//! (outcome ledger + journal vs none) and in the clock. What the service
//! adds *around* the kernel — admission, queue order, epoch quantisation,
//! telemetry — must not change a single placement. Pinned here, over
//! randomized instances:
//!
//! 1. A permissive service under `SimClock` (jobs submitted at their
//!    release times, per-event delivery) produces a bit-identical
//!    schedule and AWCT to the batch scheduler resolved from the registry,
//!    for **every** comparison algorithm — including MRIS, whose `gamma_k`
//!    wakeups both configurations honor.
//! 2. For policies without wakeups (all baselines), the service is also
//!    bit-identical to `run_online` directly.
//! 3. Two service runs with the same seed are byte-identical (replay).
//! 4. Under a fault plan and either restart semantics, on edge-free and DAG
//!    instances, the service and `run_driver` agree on schedule, `FaultLog`
//!    and error text.

use mris_core::registry::{algorithm_by_name, online_policy_by_name};
use mris_rng::prop::{check, Config};
use mris_rng::{prop_assert, prop_assert_eq, Rng};
use mris_service::{JobOutcome, MemorySink, Service, ServiceConfig, ServiceReport, SimClock};
use mris_sim::{run_driver, run_online, FaultLog, FaultPlan, RunOptions};
use mris_types::{
    FaultEvent, FaultTarget, Instance, InstanceBuilder, Job, JobId, RestartSemantics, Schedule,
};

const SCHEDULERS: [&str; 6] = ["mris", "pq-wsjf", "pq-wsvf", "tetris", "bf-exec", "ca-pq"];
/// Baselines whose `next_wakeup` is `None`, comparable against `run_online`.
const EVENT_DRIVEN: [&str; 5] = ["pq-wsjf", "pq-wsvf", "tetris", "bf-exec", "ca-pq"];

/// One generated job row: release, proc time, weight, demands.
type Row = (f64, f64, f64, Vec<f64>);

/// `(machines, resources, rows)`.
type Case = (usize, usize, Vec<Row>);

fn gen_case(rng: &mut Rng) -> Case {
    let r = rng.gen_range(1..=2usize);
    let n = rng.gen_range(2..=12usize);
    let rows = (0..n)
        .map(|_| {
            (
                rng.gen_range(0.0..10.0),
                rng.gen_range(0.5..6.0),
                rng.gen_range(0.0..4.0),
                (0..r).map(|_| rng.gen_range(0.0..=1.0)).collect(),
            )
        })
        .collect();
    (rng.gen_range(1..=3usize), r, rows)
}

fn build_case(case: &Case) -> Option<(usize, Instance)> {
    let (machines, r, rows) = case;
    if rows.len() < 2
        || !(1..=2).contains(r)
        || !(1..=3).contains(machines)
        || rows.iter().any(|(_, _, _, d)| d.len() != *r)
    {
        return None;
    }
    let jobs = rows
        .iter()
        .map(|(rel, p, w, d)| Job::from_fractions(JobId(0), *rel, *p, *w, d))
        .collect();
    let instance = Instance::from_unnumbered(jobs, *r).ok()?;
    Some((*machines, instance))
}

/// Runs a permissive service over `instance`, submitting every job at its
/// release time in (release, id) order — the same arrival order the batch
/// drivers synthesize.
fn run_service(name: &str, instance: &Instance, machines: usize) -> Result<ServiceReport, String> {
    run_service_with(name, instance, ServiceConfig::new(machines))
        .map_err(|e| format!("{name} service: {e}"))
}

/// [`run_service`] under an explicit configuration (fault plan, restart
/// semantics); errors come back as the bare `SchedulingError` text.
fn run_service_with(
    name: &str,
    instance: &Instance,
    cfg: ServiceConfig,
) -> Result<ServiceReport, String> {
    let policy = online_policy_by_name(name, instance, cfg.num_machines)
        .expect("registry resolves comparison names");
    let mut service = Service::new(
        instance.clone(),
        policy,
        cfg,
        SimClock::new(),
        MemorySink::default(),
    )
    .expect("valid service config");
    let mut order: Vec<JobId> = instance.jobs().iter().map(|j| j.id).collect();
    order.sort_by(|&a, &b| {
        instance
            .job(a)
            .release
            .total_cmp(&instance.job(b).release)
            .then(a.cmp(&b))
    });
    for job in order {
        service
            .submit_at(instance.job(job).release, job)
            .map_err(|e| e.to_string())?
            .expect("permissive config never rejects");
    }
    let (report, _sink) = service.drain().map_err(|e| e.to_string())?;
    Ok(report)
}

/// Service == batch scheduler, bit for bit, for every comparison algorithm.
#[test]
fn service_matches_batch_for_all_algorithms() {
    check(
        "service vs batch conservativity",
        &Config::with_cases(48),
        gen_case,
        |case| {
            let Some((machines, instance)) = build_case(case) else {
                return Ok(());
            };
            for name in SCHEDULERS {
                let batch = algorithm_by_name(name)
                    .expect("registry resolves comparison names")
                    .try_schedule(&instance, machines)
                    .map_err(|e| format!("{name} batch: {e}"))?;
                let report = run_service(name, &instance, machines)?;
                prop_assert_eq!(&report.schedule, &batch, "{name} diverged from batch");
                prop_assert_eq!(
                    report.schedule.awct(&instance).to_bits(),
                    batch.awct(&instance).to_bits(),
                    "{name} AWCT bits diverged"
                );
                prop_assert!(
                    report
                        .outcomes
                        .iter()
                        .all(|o| matches!(o, JobOutcome::Completed)),
                    "{name} left non-completed outcomes"
                );
                prop_assert_eq!(report.summary.completed, instance.len(), "{name} count");
                prop_assert_eq!(report.summary.failures, 0usize, "{name} phantom failure");
            }
            Ok(())
        },
    );
}

/// For wakeup-free baselines the service is also identical to `run_online`.
#[test]
fn service_matches_run_online_for_event_driven_policies() {
    check(
        "service vs run_online conservativity",
        &Config::with_cases(48),
        gen_case,
        |case| {
            let Some((machines, instance)) = build_case(case) else {
                return Ok(());
            };
            for name in EVENT_DRIVEN {
                let mut policy = online_policy_by_name(name, &instance, machines)
                    .expect("registry resolves comparison names");
                let online = run_online(&instance, machines, policy.as_mut())
                    .map_err(|e| format!("{name} run_online: {e}"))?;
                let report = run_service(name, &instance, machines)?;
                prop_assert_eq!(&report.schedule, &online, "{name} diverged from run_online");
            }
            Ok(())
        },
    );
}

/// Same inputs, two service runs: byte-identical schedules and summaries.
#[test]
fn service_replay_is_bit_for_bit() {
    check(
        "service replay determinism",
        &Config::with_cases(32),
        gen_case,
        |case| {
            let Some((machines, instance)) = build_case(case) else {
                return Ok(());
            };
            for name in ["mris", "tetris"] {
                let first = run_service(name, &instance, machines)?;
                let second = run_service(name, &instance, machines)?;
                prop_assert_eq!(&first.schedule, &second.schedule, "{name} schedule");
                prop_assert_eq!(&first.log, &second.log, "{name} log");
                prop_assert_eq!(
                    first.summary.awct.to_bits(),
                    second.summary.awct.to_bits(),
                    "{name} AWCT bits"
                );
            }
            Ok(())
        },
    );
}

/// Policies that run DAG instances (ca-pq opts out of precedence).
const FAULT_POLICIES: [&str; 4] = ["mris", "pq-wsjf", "tetris", "bf-exec"];

/// One strike: `(at, downtime, target)`; a target `>= machines` means
/// "busiest machine at fire time".
type Strike = (f64, f64, usize);

/// `(case, forward edges, strikes, aging factor)`; factor `0.0` selects
/// [`RestartSemantics::FullRestart`].
type FaultCase = (Case, Vec<(usize, usize)>, Vec<Strike>, f64);

fn gen_fault_case(rng: &mut Rng) -> FaultCase {
    let case = gen_case(rng);
    let n = case.2.len();
    let mut edges = Vec::new();
    if rng.gen_range(0.0..1.0) < 0.5 {
        for pred in 0..n {
            for succ in (pred + 1)..n {
                if rng.gen_range(0.0..1.0) < 0.2 {
                    edges.push((pred, succ));
                }
            }
        }
    }
    let strikes = (0..rng.gen_range(1..=5usize))
        .map(|_| {
            (
                rng.gen_range(0.0..25.0),
                rng.gen_range(0.25..6.0),
                rng.gen_range(0..=case.0),
            )
        })
        .collect();
    let factor = if rng.gen_range(0.0..1.0) < 0.5 {
        0.0
    } else {
        rng.gen_range(0.5..3.0)
    };
    (case, edges, strikes, factor)
}

/// The kernel's two configurations under the same fault plan and restart
/// semantics: `Service` fed by submissions ≡ `run_driver` fed by the
/// release-sorted slice, on schedule, `FaultLog`, and error text.
#[test]
fn service_matches_run_driver_under_faults() {
    check(
        "service vs run_driver fault conservativity",
        &Config::with_cases(96),
        gen_fault_case,
        |(case, edges, strikes, factor)| {
            let Some((machines, plain)) = build_case(case) else {
                return Ok(());
            };
            let mut b = InstanceBuilder::new(plain.num_resources());
            for j in plain.jobs() {
                b.push(j.clone());
            }
            for &(pred, succ) in edges {
                b.edge(JobId(pred as u32), JobId(succ as u32));
            }
            // Shrinking can orphan an edge endpoint; skip those candidates.
            let Ok(instance) = b.build() else {
                return Ok(());
            };
            let plan = FaultPlan::from_events(
                strikes
                    .iter()
                    .map(|&(at, downtime, target)| FaultEvent {
                        at,
                        downtime,
                        target: if target < machines {
                            FaultTarget::Machine(target)
                        } else {
                            FaultTarget::Busiest
                        },
                    })
                    .collect(),
            );
            let restart = if *factor > 0.0 {
                RestartSemantics::WeightAging { factor: *factor }
            } else {
                RestartSemantics::FullRestart
            };
            for name in FAULT_POLICIES {
                let mut policy = online_policy_by_name(name, &instance, machines)
                    .expect("registry resolves comparison names");
                let batch: Result<(Schedule, FaultLog), String> = run_driver(
                    &instance,
                    machines,
                    policy.as_mut(),
                    RunOptions::new().with_faults(&plan).with_restart(restart),
                )
                .map(|o| (o.schedule, o.log))
                .map_err(|e| e.to_string());
                let mut cfg = ServiceConfig::new(machines);
                cfg.fault_plan = plan.clone();
                cfg.restart = restart;
                let served = run_service_with(name, &instance, cfg).map(|r| (r.schedule, r.log));
                prop_assert_eq!(&served, &batch, "{name} diverged from run_driver");
            }
            Ok(())
        },
    );
}
