//! Admission-control properties: no silent drops, watermark-consistent
//! rejections, and a consistent ledger — with and without machine faults
//! and epoch batching.

use mris_core::registry::online_policy_by_name;
use mris_rng::prop::{check, Config};
use mris_rng::{prop_assert, prop_assert_eq, Rng};
use mris_service::{JobOutcome, MemorySink, Service, ServiceConfig, SimClock, TenantSpec};
use mris_sim::{suggested_horizon, FaultPlan, PoissonFaultConfig};
use mris_types::{AdmissionError, Instance, Job, JobId, TenantId};

const POLICIES: [&str; 3] = ["mris", "tetris", "pq-wsjf"];

/// One generated job row: release, proc time, weight, demands.
type Row = (f64, f64, f64, Vec<f64>);

/// `((policy idx, machines, resources, queue watermark),
/// (epoch selector, load-watermark selector, fault seed — 0 disables
/// faults), rows)`.
type Case = ((usize, usize, usize, usize), (u8, u8, u64), Vec<Row>);

fn gen_case(rng: &mut Rng) -> Case {
    let r = rng.gen_range(1..=2usize);
    let n = rng.gen_range(4..=16usize);
    let rows = (0..n)
        .map(|_| {
            (
                rng.gen_range(0.0..8.0),
                rng.gen_range(0.5..4.0),
                rng.gen_range(0.0..4.0),
                (0..r).map(|_| rng.gen_range(0.05..=1.0)).collect(),
            )
        })
        .collect();
    (
        (
            rng.gen_range(0..POLICIES.len()),
            rng.gen_range(1..=3usize),
            r,
            rng.gen_range(1..=5usize),
        ),
        (
            rng.gen_range(0..=2usize) as u8,
            rng.gen_range(0..=2usize) as u8,
            rng.gen_range(0..u64::MAX),
        ),
        rows,
    )
}

#[allow(clippy::type_complexity)]
fn build_case(case: &Case) -> Option<(&'static str, usize, ServiceConfig, Instance)> {
    let ((policy_idx, machines, r, watermark), (epoch_sel, load_sel, fault_seed), rows) = case;
    if rows.len() < 2
        || !(1..=2).contains(r)
        || !(1..=3).contains(machines)
        || *policy_idx >= POLICIES.len()
        || *watermark == 0
        || rows.iter().any(|(_, _, _, d)| d.len() != *r)
    {
        return None;
    }
    let jobs = rows
        .iter()
        .map(|(rel, p, w, d)| Job::from_fractions(JobId(0), *rel, *p, *w, d))
        .collect();
    let instance = Instance::from_unnumbered(jobs, *r).ok()?;
    let mut cfg = ServiceConfig::new(*machines);
    cfg.queue_watermark = *watermark;
    cfg.epoch = match epoch_sel % 3 {
        0 => 0.0,
        1 => 0.5,
        _ => 1.25,
    };
    cfg.load_watermark = match load_sel % 3 {
        0 => f64::INFINITY,
        1 => 2.0,
        _ => 0.75,
    };
    if *fault_seed != 0 {
        let horizon = suggested_horizon(&instance, *machines);
        cfg.fault_plan = FaultPlan::poisson(&PoissonFaultConfig {
            seed: *fault_seed,
            num_machines: *machines,
            horizon,
            mtbf: horizon,
            mttr: 0.05 * horizon,
        });
    }
    Some((POLICIES[*policy_idx], *machines, cfg, instance))
}

/// Every submitted job ends `Completed` or `Rejected` — never silently
/// dropped — and every rejection is consistent with its watermark.
#[test]
fn no_silent_drops_and_watermark_consistent_rejections() {
    check(
        "admission ledger",
        &Config::with_cases(64),
        gen_case,
        |case| {
            let Some((name, machines, cfg, instance)) = build_case(case) else {
                return Ok(());
            };
            let queue_watermark = cfg.queue_watermark;
            let load_watermark = cfg.load_watermark;
            let epoch = cfg.epoch;
            let had_faults = !cfg.fault_plan.is_empty();
            let policy = online_policy_by_name(name, &instance, machines)
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
            let mut live_results = Vec::new();
            for job in order {
                let admission = service
                    .submit_at(instance.job(job).release, job)
                    .map_err(|e| format!("{name} service: {e}"))?;
                live_results.push((job, admission));
                // The running counts are the ledger walk they replaced,
                // at every step — kills put jobs back to `Accepted`.
                let mut walked = [0usize; 4];
                for j in 0..instance.len() {
                    match service
                        .checked_outcome(JobId(j as u32))
                        .expect("a job of the instance")
                    {
                        JobOutcome::NotSubmitted => continue,
                        JobOutcome::Rejected(_) => walked[2] += 1,
                        JobOutcome::Accepted => walked[1] += 1,
                        JobOutcome::Completed => {
                            walked[1] += 1;
                            walked[3] += 1;
                        }
                    }
                    walked[0] += 1;
                }
                let c = service.counts();
                prop_assert_eq!(
                    [c.submitted, c.accepted, c.rejected, c.completed],
                    walked,
                    "counts vs walk after {job}"
                );
            }
            let (report, sink) = service.drain().map_err(|e| format!("{name} drain: {e}"))?;

            // The ledger partitions: every job Completed or Rejected.
            let mut completed = 0usize;
            let mut rejected = 0usize;
            for (i, outcome) in report.outcomes.iter().enumerate() {
                match outcome {
                    JobOutcome::Completed => completed += 1,
                    JobOutcome::Rejected(err) => {
                        rejected += 1;
                        match *err {
                            AdmissionError::QueueFull { depth, watermark } => {
                                prop_assert_eq!(watermark, queue_watermark, "j{i} watermark");
                                prop_assert!(depth >= watermark, "j{i}: depth below watermark");
                            }
                            AdmissionError::DemandInfeasible { budget, queued, .. } => {
                                prop_assert!(
                                    load_watermark.is_finite(),
                                    "j{i}: load shed with shedding disabled"
                                );
                                let expect = load_watermark * machines as f64;
                                prop_assert_eq!(budget.to_bits(), expect.to_bits(), "j{i} budget");
                                prop_assert!(queued >= 0.0 && queued <= budget, "j{i} queued");
                            }
                            AdmissionError::TenantQuota { .. } => {
                                return Err(format!(
                                    "j{i}: tenant quota fired on a single-tenant service"
                                ));
                            }
                            invalid => {
                                return Err(format!("j{i}: the ledger holds {invalid}"));
                            }
                        }
                        // Rejected jobs were never scheduled.
                        prop_assert!(
                            report.schedule.get(JobId(i as u32)).is_none(),
                            "j{i} rejected yet scheduled"
                        );
                    }
                    JobOutcome::NotSubmitted | JobOutcome::Accepted => {
                        return Err(format!("j{i} silently dropped: {outcome:?}"));
                    }
                }
            }
            prop_assert_eq!(completed + rejected, instance.len(), "ledger partition");

            // The live admission results agree with the final ledger.
            for (job, admission) in live_results {
                match (admission, report.outcomes[job.index()]) {
                    (Ok(()), JobOutcome::Completed) => {}
                    (Err(a), JobOutcome::Rejected(b)) if a == b => {}
                    (a, b) => return Err(format!("{job}: live {a:?} vs ledger {b:?}")),
                }
            }

            // Accepted jobs respect epoch delivery: no start before the
            // first epoch boundary at or after the release.
            if epoch > 0.0 {
                for a in report.schedule.assignments() {
                    let release = instance.job(a.job).release;
                    let deliver = (release / epoch).ceil() * epoch;
                    prop_assert!(
                        a.start >= deliver - 1e-9,
                        "{} started {} before its delivery epoch {deliver}",
                        a.job,
                        a.start
                    );
                }
            }

            // Summary bookkeeping adds up, and the fault log is sound.
            let s = &report.summary;
            prop_assert_eq!(s.submitted, instance.len(), "submitted");
            prop_assert_eq!(s.accepted, completed, "accepted == completed");
            prop_assert_eq!(s.completed, completed, "completed counter vs ledger");
            prop_assert_eq!(
                s.rejected_queue_full + s.rejected_infeasible,
                rejected,
                "rejection split"
            );
            prop_assert!(s.max_queue_depth <= queue_watermark, "depth over watermark");
            prop_assert_eq!(s.epochs, sink.epochs.len(), "epoch count vs sink");
            if !had_faults {
                prop_assert_eq!(s.failures, 0usize, "phantom failures");
            }
            report
                .log
                .verify()
                .map_err(|v| format!("{name}: fault-log violation: {v}"))?;

            // Telemetry is monotone where it must be.
            for w in sink.epochs.windows(2) {
                prop_assert!(w[0].time <= w[1].time, "epoch time regression");
                prop_assert!(
                    w[0].rejections_total <= w[1].rejections_total,
                    "rejection counter regression"
                );
            }
            Ok(())
        },
    );
}

/// A watermark of `usize::MAX` and infinite load budget never reject, and
/// a tiny queue with clustered arrivals must reject — the watermark is
/// live, not decorative.
#[test]
fn watermarks_actually_bind() {
    // 8 jobs all released at t = 0 into a queue of depth 2: exactly 2 are
    // admitted (the queue drains only at delivery events), 6 are shed.
    let jobs: Vec<Job> = (0..8)
        .map(|i| Job::from_fractions(JobId(i), 0.0, 2.0, 1.0, &[0.4]))
        .collect();
    let instance = Instance::new(jobs, 1).unwrap();
    let mut cfg = ServiceConfig::new(2);
    cfg.queue_watermark = 2;
    let policy = online_policy_by_name("tetris", &instance, 2).unwrap();
    let mut service = Service::new(
        instance.clone(),
        policy,
        cfg,
        SimClock::new(),
        MemorySink::default(),
    )
    .expect("valid service config");
    let mut accepted = 0;
    for j in instance.jobs() {
        if service.submit_at(j.release, j.id).unwrap().is_ok() {
            accepted += 1;
        }
    }
    assert_eq!(accepted, 2, "queue watermark admitted too many");
    let (report, _) = service.drain().unwrap();
    assert_eq!(report.summary.completed, 2);
    assert_eq!(report.summary.rejected_queue_full, 6);

    // The permissive default accepts everything.
    let policy = online_policy_by_name("tetris", &instance, 2).unwrap();
    let mut service = Service::new(
        instance.clone(),
        policy,
        ServiceConfig::new(2),
        SimClock::new(),
        MemorySink::default(),
    )
    .expect("valid service config");
    for j in instance.jobs() {
        service.submit_at(j.release, j.id).unwrap().unwrap();
    }
    let (report, _) = service.drain().unwrap();
    assert_eq!(report.summary.completed, 8);
    assert_eq!(report.summary.rejected_queue_full, 0);
}

/// Load shedding rejects exactly the submissions whose demand would push
/// queued load past the budget, with a typed error naming the resource.
#[test]
fn load_watermark_sheds_by_resource() {
    // Budget: 0.5 * 1 machine = 0.5 capacity of queued demand. Jobs demand
    // 0.3 each: the first queues, the second would reach 0.6 > 0.5.
    let jobs: Vec<Job> = (0..3)
        .map(|i| Job::from_fractions(JobId(i), 0.0, 1.0, 1.0, &[0.3]))
        .collect();
    let instance = Instance::new(jobs, 1).unwrap();
    let mut cfg = ServiceConfig::new(1);
    cfg.load_watermark = 0.5;
    let policy = online_policy_by_name("tetris", &instance, 1).unwrap();
    let mut service = Service::new(
        instance.clone(),
        policy,
        cfg,
        SimClock::new(),
        MemorySink::default(),
    )
    .expect("valid service config");
    assert!(service.submit_at(0.0, JobId(0)).unwrap().is_ok());
    let err = service.submit_at(0.0, JobId(1)).unwrap().unwrap_err();
    match err {
        AdmissionError::DemandInfeasible {
            job,
            resource,
            queued,
            budget,
        } => {
            assert_eq!(job, JobId(1));
            assert_eq!(resource, 0);
            assert!((queued - 0.3).abs() < 1e-9, "queued {queued}");
            assert!((budget - 0.5).abs() < 1e-9, "budget {budget}");
        }
        other => panic!("expected DemandInfeasible, got {other:?}"),
    }
    let (report, _) = service.drain().unwrap();
    assert_eq!(report.summary.rejected_infeasible, 1);
    // Job 2 was never submitted; its slot says so.
    assert!(matches!(report.outcomes[2], JobOutcome::NotSubmitted));
    assert_eq!(report.summary.completed, 1);
}

/// A completion and a failure striking the same machine at the same tick
/// compose in that order: the finishing job survives — never re-released —
/// and the service surfaces no `UnassignedCompletion`. This pins the
/// completions-before-faults event ordering that the typed error in
/// `process_event` now guards (the old code `expect`ed the assignment and
/// aborted the process if the ordering ever regressed).
#[test]
fn same_tick_completion_beats_failure() {
    use mris_sim::FaultPlan as Plan;
    use mris_types::{FaultEvent, FaultTarget};
    // One machine: job 0 runs [0, 2) and finishes exactly when the strike
    // lands at t = 2; job 1 arrives mid-run and rides out the downtime.
    let jobs = vec![
        Job::from_fractions(JobId(0), 0.0, 2.0, 1.0, &[0.9]),
        Job::from_fractions(JobId(1), 0.5, 1.0, 1.0, &[0.9]),
    ];
    let instance = Instance::new(jobs, 1).unwrap();
    let mut cfg = ServiceConfig::new(1);
    cfg.fault_plan = Plan::from_events(vec![FaultEvent {
        at: 2.0,
        downtime: 1.0,
        target: FaultTarget::Machine(0),
    }]);
    let policy = online_policy_by_name("tetris", &instance, 1).unwrap();
    let mut service = Service::new(
        instance.clone(),
        policy,
        cfg,
        SimClock::new(),
        MemorySink::default(),
    )
    .expect("valid service config");
    for j in instance.jobs() {
        let admission = service
            .submit_at(j.release, j.id)
            .expect("same-tick completion + failure must not error");
        assert!(admission.is_ok(), "{:?} rejected", j.id);
    }
    let (report, _sink) = service
        .drain()
        .expect("same-tick completion + failure must not error");
    assert!(matches!(report.outcomes[0], JobOutcome::Completed));
    assert!(matches!(report.outcomes[1], JobOutcome::Completed));
    assert_eq!(
        report.log.re_releases[0], 0,
        "the finishing job must not be re-released by the same-tick failure"
    );
    assert_eq!(report.summary.failures, 1, "the strike itself still lands");
    assert!(
        report
            .log
            .completions
            .iter()
            .any(|c| c.job == JobId(0) && c.end == 2.0),
        "job 0's completion at the strike instant is recorded"
    );
    report.log.verify().expect("audit log stays sound");
}

/// An offer of an unknown job, a repeated job or an unknown tenant is a
/// typed error from every `submit*` entry point, refused before the clock
/// moves or any count changes: the ledger, its counts, the queue and the
/// clock are as they were.
#[test]
fn invalid_offers_are_typed_and_change_nothing() {
    let jobs: Vec<Job> = (0..4)
        .map(|i| Job::from_fractions(JobId(i), i as f64, 1.0, 1.0, &[0.3]))
        .collect();
    let instance = Instance::new(jobs, 1).unwrap();
    let two_tenants = ServiceConfig::builder(1)
        .tenants(vec![
            TenantSpec::new("alpha", "tok-a", 1.0),
            TenantSpec::new("beta", "tok-b", 1.0),
        ])
        .build()
        .expect("valid");
    for (cfg, tenants) in [(ServiceConfig::new(1), 0), (two_tenants, 2)] {
        let policy = online_policy_by_name("pq-wsjf", &instance, 1).unwrap();
        let mut service = Service::new(
            instance.clone(),
            policy,
            cfg,
            SimClock::new(),
            MemorySink::default(),
        )
        .expect("valid service config");
        // Job 0 is queued and due at 0; a clock that moved to 3 would
        // deliver, run and complete it.
        service.submit_at(0.0, JobId(0)).unwrap().unwrap();
        let state = |s: &Service<SimClock, MemorySink>| {
            let outcomes: Vec<Option<JobOutcome>> =
                (0..4).map(|j| s.checked_outcome(JobId(j))).collect();
            (outcomes, s.counts(), s.now().to_bits(), s.queue_depth())
        };
        let before = state(&service);
        let unknown_job = AdmissionError::UnknownJob {
            job: JobId(4),
            jobs: 4,
        };
        let repeated = AdmissionError::AlreadySubmitted { job: JobId(0) };
        let stranger = TenantId(tenants as u32 + 1);
        let unknown_tenant = AdmissionError::UnknownTenant {
            tenant: stranger,
            tenants,
        };
        let offers = [
            (JobId(4), TenantId::DEFAULT, unknown_job),
            (JobId(0), TenantId::DEFAULT, repeated),
            (JobId(1), stranger, unknown_tenant),
        ];
        for (job, tenant, want) in offers {
            assert!(want.is_invalid_offer());
            let got = [
                service.submit_at_as(3.0, job, tenant).unwrap(),
                service.submit_as(job, tenant),
            ];
            assert_eq!(got, [Err(want); 2], "{job} as {tenant}");
            if tenant == TenantId::DEFAULT {
                let got = [service.submit_at(3.0, job).unwrap(), service.submit(job)];
                assert_eq!(got, [Err(want); 2], "{job}");
            }
            assert_eq!(
                state(&service),
                before,
                "{job} as {tenant} changed the service"
            );
        }
        service.submit_at(3.0, JobId(1)).unwrap().unwrap();
        let (report, _) = service.drain().unwrap();
        assert_eq!(report.summary.submitted, 2);
        assert_eq!(report.summary.completed, 2);
    }
}
