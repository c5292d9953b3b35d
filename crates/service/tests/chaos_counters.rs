//! A faulted service publishes the `mris_chaos_*` counters.
//!
//! The counters are incremented by the event kernel, so the service gets
//! them the same way the batch driver does; before the two loops were one,
//! the service's copy published none and `mris serve --metrics-path` under
//! a fault plan reported zero failures.
//!
//! Alone in its file: the subscriber is process-wide, and a fault run in a
//! sibling test thread would count into it.

use std::sync::Arc;

use mris_core::registry::online_policy_by_name;
use mris_service::{MemorySink, Service, ServiceConfig, SimClock};
use mris_sim::FaultPlan;
use mris_types::{FaultEvent, FaultTarget, Instance, Job, JobId};

#[test]
fn faulted_service_counters_match_its_fault_log() {
    let machines = 2;
    let jobs = (0..24)
        .map(|i| {
            let i = i as f64;
            Job::from_fractions(JobId(0), i * 0.5, 2.0 + (i % 3.0), 1.0 + (i % 4.0), &[0.45])
        })
        .collect();
    let instance = Instance::from_unnumbered(jobs, 1).unwrap();
    let strike = |at, target| FaultEvent {
        at,
        downtime: 1.5,
        target,
    };
    let plan = FaultPlan::from_events(vec![
        strike(1.0, FaultTarget::Machine(0)),
        strike(2.0, FaultTarget::Machine(0)), // still down: absorbed
        strike(4.0, FaultTarget::Busiest),
        strike(6.0, FaultTarget::Machine(9)), // out of range: absorbed
        strike(9.0, FaultTarget::Machine(1)),
    ]);
    let mut cfg = ServiceConfig::new(machines);
    cfg.fault_plan = plan.clone();

    let obs = Arc::new(mris_obs::Obs::new());
    let guard = mris_obs::install_guard(obs.clone());
    let policy = online_policy_by_name("pq-wsjf", &instance, machines).unwrap();
    let mut service = Service::new(
        instance.clone(),
        policy,
        cfg,
        SimClock::new(),
        MemorySink::default(),
    )
    .unwrap();
    for j in instance.jobs() {
        service.submit_at(j.release, j.id).unwrap().unwrap();
    }
    let (report, _sink) = service.drain().unwrap();
    drop(guard);

    let counter = |name| obs.registry().counter_value(name, None).unwrap_or(0);
    let log = &report.log;
    assert!(log.total_kills() > 0, "the plan must actually kill work");
    assert_eq!(
        counter("mris_chaos_failures_total"),
        log.failures.len() as u64
    );
    assert_eq!(
        counter("mris_chaos_recoveries_total"),
        log.recoveries.len() as u64
    );
    assert_eq!(
        counter("mris_chaos_re_releases_total"),
        log.total_re_releases()
    );
    assert_eq!(
        counter("mris_chaos_absorbed_strikes_total"),
        (plan.len() - log.failures.len()) as u64
    );
    assert_eq!(counter("mris_chaos_absorbed_strikes_total"), 2);
}
