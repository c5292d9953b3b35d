//! Hostile arguments to the public lookups: one table row per lookup that
//! takes a caller's id, each called with ids past the instance. A lookup
//! answers "absent" for every such id and never panics; a panic fix lands
//! here as a new row.

use std::panic::{catch_unwind, AssertUnwindSafe};

use mris_core::registry::online_policy_by_name;
use mris_service::{NullSink, Service, ServiceConfig, SimClock};
use mris_types::{Instance, Job, JobId};

/// A lookup by job id; returns whether it reported the id absent.
type JobLookup = fn(&Service<SimClock, NullSink>, JobId) -> bool;

const JOB_LOOKUPS: &[(&str, JobLookup)] = &[("Service::checked_outcome", |s, j| {
    s.checked_outcome(j).is_none()
})];

#[test]
fn out_of_range_job_ids_are_absent_never_a_panic() {
    let jobs = (0..4)
        .map(|i| Job::from_fractions(JobId(0), i as f64, 1.0, 1.0, &[0.5]))
        .collect();
    let instance = Instance::from_unnumbered(jobs, 1).expect("valid instance");
    let n = instance.len() as u32;
    let policy = online_policy_by_name("pq-wsjf", &instance, 2).expect("known policy");
    let svc = Service::new(
        instance,
        policy,
        ServiceConfig::new(2),
        SimClock::new(),
        NullSink,
    )
    .expect("valid service");
    for &(name, lookup) in JOB_LOOKUPS {
        assert!(
            !lookup(&svc, JobId(n - 1)),
            "{name}: the last job is absent"
        );
        for id in [n, n + 1, u32::MAX] {
            let absent = catch_unwind(AssertUnwindSafe(|| lookup(&svc, JobId(id))));
            assert_eq!(
                absent.ok(),
                Some(true),
                "{name}({id}) is not a clean absence"
            );
        }
    }
}
