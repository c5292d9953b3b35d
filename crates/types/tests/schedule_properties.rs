//! Property tests of the schedule feasibility validator against a naive
//! pairwise-overlap reference, plus metric consistency checks.

use mris_rng::prop::{check, Config};
use mris_rng::{prop_assert, prop_assert_eq, Rng};
use mris_types::{Instance, Job, JobId, Schedule, ScheduleError, CAPACITY};

/// Naive feasibility: for each machine and each resource, check total
/// demand at every job-start instant (piecewise-constant usage makes starts
/// sufficient witnesses).
fn naive_feasible(instance: &Instance, schedule: &Schedule) -> bool {
    let assignments: Vec<_> = schedule.assignments().collect();
    for a in &assignments {
        let ja = instance.job(a.job);
        if a.start < ja.release {
            return false;
        }
        for l in 0..instance.num_resources() {
            let mut usage = 0u64;
            for b in &assignments {
                if b.machine != a.machine {
                    continue;
                }
                let jb = instance.job(b.job);
                // Does b run at instant a.start?
                if b.start <= a.start && a.start < b.start + jb.proc_time {
                    usage += jb.demands[l];
                }
            }
            if usage > CAPACITY {
                return false;
            }
        }
    }
    true
}

/// One generated job row: release, proc time, demands, machine, start
/// offset past release.
type Row = (f64, f64, Vec<f64>, usize, f64);

fn gen_rows(rng: &mut Rng) -> Vec<Row> {
    let n = rng.gen_range(1..14usize);
    (0..n)
        .map(|_| {
            (
                rng.gen_range(0.0..5.0),
                rng.gen_range(0.5..6.0),
                vec![rng.gen_range(0.0..0.7), rng.gen_range(0.0..0.7)],
                rng.gen_range(0..2usize),
                rng.gen_range(0.0..12.0),
            )
        })
        .collect()
}

/// Builds the instance and placements for a row set; `None` for shrink
/// candidates that broke the generator's invariants (treated as passing).
fn build_case(rows: &[Row]) -> Option<(Instance, Vec<(usize, f64)>)> {
    if rows.is_empty() || rows.iter().any(|(_, _, d, _, _)| d.len() != 2) {
        return None;
    }
    let jobs: Vec<Job> = rows
        .iter()
        .map(|(r, p, d, _, _)| Job::from_fractions(JobId(0), *r, *p, 1.0, d))
        .collect();
    let instance = Instance::from_unnumbered(jobs, 2).ok()?;
    let placements = rows.iter().map(|(r, _, _, m, off)| (*m, r + off)).collect();
    Some((instance, placements))
}

/// The sweep validator agrees with the naive checker on arbitrary
/// (often infeasible) schedules.
#[test]
fn validator_matches_naive_reference() {
    check(
        "validator matches naive reference",
        &Config::with_cases(256),
        gen_rows,
        |rows| {
            let Some((instance, placements)) = build_case(rows) else {
                return Ok(());
            };
            let mut schedule = Schedule::new(instance.len(), 2);
            for (job, (machine, start)) in instance.jobs().iter().zip(&placements) {
                schedule.assign(job.id, *machine, *start).unwrap();
            }
            let fast = schedule.validate(&instance);
            let naive = naive_feasible(&instance, &schedule);
            prop_assert_eq!(
                fast.is_ok(),
                naive,
                "validator {:?} vs naive {}",
                fast,
                naive
            );
            Ok(())
        },
    );
}

/// Objective decompositions are consistent: AWCT * N = total weighted
/// completion.
#[test]
fn metric_identities() {
    check(
        "metric identities",
        &Config::with_cases(256),
        gen_rows,
        |rows| {
            let Some((instance, placements)) = build_case(rows) else {
                return Ok(());
            };
            let mut schedule = Schedule::new(instance.len(), 2);
            for (job, (machine, start)) in instance.jobs().iter().zip(&placements) {
                schedule.assign(job.id, *machine, *start).unwrap();
            }
            let n = instance.len() as f64;
            let twc = schedule.total_weighted_completion(&instance);
            prop_assert!((schedule.awct(&instance) * n - twc).abs() < 1e-6);
            // Makespan dominates every completion time.
            let mk = schedule.makespan(&instance);
            for job in instance.jobs() {
                prop_assert!(schedule.completion_time(&instance, job.id).unwrap() <= mk + 1e-9);
            }
            // Queuing delays are starts minus releases.
            let delays = schedule.queuing_delays(&instance);
            for (job, d) in instance.jobs().iter().zip(&delays) {
                let a = schedule.get(job.id).unwrap();
                prop_assert!((a.start - job.release - d).abs() < 1e-9);
            }
            Ok(())
        },
    );
}

/// Normalization preserves feasibility verdicts and scales objectives.
#[test]
fn normalization_preserves_feasibility() {
    check(
        "normalization preserves feasibility",
        &Config::with_cases(256),
        gen_rows,
        |rows| {
            let Some((instance, placements)) = build_case(rows) else {
                return Ok(());
            };
            let (normalized, scale) = instance.normalize();
            let mut original = Schedule::new(instance.len(), 2);
            let mut scaled = Schedule::new(instance.len(), 2);
            for (job, (machine, start)) in instance.jobs().iter().zip(&placements) {
                original.assign(job.id, *machine, *start).unwrap();
                scaled.assign(job.id, *machine, start / scale).unwrap();
            }
            prop_assert_eq!(
                original.validate(&instance).is_ok(),
                scaled.validate(&normalized).is_ok()
            );
            prop_assert!(
                (original.makespan(&instance) / scale - scaled.makespan(&normalized)).abs() < 1e-6
            );
            Ok(())
        },
    );
}

#[test]
fn validator_pinpoints_violation_location() {
    let instance = Instance::from_unnumbered(
        vec![
            Job::from_fractions(JobId(0), 0.0, 4.0, 1.0, &[0.6, 0.0]),
            Job::from_fractions(JobId(0), 0.0, 4.0, 1.0, &[0.0, 0.6]),
            Job::from_fractions(JobId(0), 0.0, 4.0, 1.0, &[0.0, 0.6]),
        ],
        2,
    )
    .unwrap();
    let mut s = Schedule::new(3, 1);
    s.assign(JobId(0), 0, 0.0).unwrap();
    s.assign(JobId(1), 0, 1.0).unwrap();
    s.assign(JobId(2), 0, 2.0).unwrap();
    match s.validate(&instance).unwrap_err() {
        ScheduleError::CapacityExceeded {
            machine: 0,
            resource: 1,
            at,
        } => assert_eq!(at, 2.0),
        other => panic!("unexpected error {other}"),
    }
}
