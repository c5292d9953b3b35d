//! A faulted service publishes the `mris_chaos_*` counters, and its
//! admission counters equal its ledger.
//!
//! The chaos counters are incremented by the event kernel, so the service
//! gets them the same way the batch driver does; before the two loops were
//! one, the service's copy published none and `mris serve --metrics-path`
//! under a fault plan reported zero failures. The admission counters
//! (`mris_service_*` and the per-tenant `mris_tenant_*`) are bumped where
//! admission records its decision; the run sheds through both global
//! watermarks and a tenant quota so that every one of them is exercised.
//!
//! Alone in its file: the subscriber is process-wide, and a fault run in a
//! sibling test thread would count into it.

use std::sync::Arc;

use mris_core::registry::online_policy_by_name;
use mris_service::{JobOutcome, MemorySink, Service, ServiceConfig, SimClock, TenantSpec};
use mris_sim::FaultPlan;
use mris_types::{AdmissionError, FaultEvent, FaultTarget, Instance, Job, JobId, TenantId};

#[test]
fn faulted_service_counters_match_its_fault_log() {
    let machines = 2;
    let jobs = (0..24)
        .map(|i| {
            let i = i as f64;
            let demand = 0.3 + 0.15 * (i % 4.0);
            Job::from_fractions(
                JobId(0),
                i * 0.5,
                2.0 + (i % 3.0),
                1.0 + (i % 4.0),
                &[demand],
            )
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
    cfg.epoch = 5.0;
    cfg.queue_watermark = 5;
    cfg.load_watermark = 1.2;
    cfg.tenants = vec![
        TenantSpec::new("alpha", "tok-a", 1.0),
        TenantSpec::new("beta", "tok-b", 1.0).queue_watermark(2),
    ];
    let tenant_of = |job: JobId| TenantId(job.0 % 2);

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
        let _ = service
            .submit_at_as(j.release, j.id, tenant_of(j.id))
            .unwrap();
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

    let summary = &report.summary;
    assert!(summary.rejected_queue_full > 0 && summary.rejected_infeasible > 0);
    assert_eq!(
        counter("mris_service_admitted_total"),
        summary.accepted as u64
    );
    assert_eq!(
        counter("mris_service_rejected_queue_full_total"),
        summary.rejected_queue_full as u64
    );
    assert_eq!(
        counter("mris_service_rejected_infeasible_total"),
        summary.rejected_infeasible as u64
    );
    let mut quota = 0;
    for (t, (stat, name)) in report.tenants.iter().zip(["alpha", "beta"]).enumerate() {
        let labeled = |family| {
            (obs.registry())
                .counter_value(family, Some(("tenant", name)))
                .unwrap_or(0)
        };
        let (mut admitted, mut rejected, mut demand) = (0, 0, 0);
        for j in instance
            .jobs()
            .iter()
            .filter(|j| tenant_of(j.id).index() == t)
        {
            match report.outcomes[j.id.index()] {
                JobOutcome::Completed => {
                    admitted += 1;
                    demand += j.demands.iter().sum::<u64>();
                }
                JobOutcome::Rejected(err) => {
                    rejected += 1;
                    quota += matches!(err, AdmissionError::TenantQuota { .. }) as usize;
                }
                other => panic!("a drained job is {other:?}"),
            }
        }
        assert_eq!(
            (stat.admitted, stat.rejected),
            (admitted, rejected),
            "{name}"
        );
        assert_eq!(labeled("mris_tenant_admitted_total"), admitted, "{name}");
        assert_eq!(labeled("mris_tenant_rejected_total"), rejected, "{name}");
        assert_eq!(labeled("mris_tenant_queued_demand_total"), demand, "{name}");
    }
    assert!(quota > 0, "no tenant quota fired");
}
