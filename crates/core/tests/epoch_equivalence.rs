//! Incremental `EpochState` vs from-scratch rebuild equivalence.
//!
//! The incremental epoch state (monotone eligibility frontier + reused
//! scratch) is a pure optimization: it must not change a
//! single placement. Pinned here, over randomized instances, for **all
//! four** knapsack solvers:
//!
//! 1. `MrisOnline` with `force_epoch_rebuild` (the reference path: flat
//!    job set, per-epoch threshold filter) is bit-identical — schedules and
//!    AWCT bits — to the default incremental path, through the unified
//!    driver. There is one loop: batch `Mris` is this same policy under
//!    `run_online`, and `FaultPlan::none()` adds nothing to it, so the
//!    batch entry point needs no case of its own (its bits are pinned in
//!    absolute terms by `tests/mris_batch_golden.rs`).
//! 2. Chaos composition: machine failures mid-epoch (which orphan
//!    committed jobs back into the frontier) leave the incremental path
//!    bit-identical to the rebuild path under the identical fault plan —
//!    schedules, AWCT bits, and audit logs.

use mris_core::{KnapsackChoice, MrisConfig, MrisOnline};
use mris_rng::prop::{check, Config};
use mris_rng::{prop_assert_eq, Rng};
use mris_sim::{run_online_chaos, FaultPlan};
use mris_types::{FaultEvent, FaultTarget, Instance, Job, JobId, RestartSemantics};

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
    if rows.len() < 2 || !(1..=3).contains(machines) {
        return None;
    }
    let jobs = rows
        .iter()
        .map(|(rel, p, w, d)| Job::from_fractions(JobId(0), *rel, *p, *w, d))
        .collect();
    let instance = Instance::from_unnumbered(jobs, *r).ok()?;
    Some((*machines, instance))
}

fn config(knapsack: KnapsackChoice, force_epoch_rebuild: bool) -> MrisConfig {
    MrisConfig {
        knapsack,
        force_epoch_rebuild,
        ..Default::default()
    }
}

/// Incremental vs rebuild through the unified driver (fault-free), for one
/// solver and case.
fn assert_equivalent(
    knapsack: KnapsackChoice,
    machines: usize,
    instance: &Instance,
) -> Result<(), String> {
    let plan = FaultPlan::none();
    let mut inc_policy = MrisOnline::new(config(knapsack, false), instance, machines);
    let mut reb_policy = MrisOnline::new(config(knapsack, true), instance, machines);
    let inc = run_online_chaos(
        instance,
        machines,
        &mut inc_policy,
        &plan,
        RestartSemantics::FullRestart,
    )
    .map_err(|e| format!("incremental online: {e}"))?;
    let reb = run_online_chaos(
        instance,
        machines,
        &mut reb_policy,
        &plan,
        RestartSemantics::FullRestart,
    )
    .map_err(|e| format!("rebuild online: {e}"))?;
    prop_assert_eq!(&inc.schedule, &reb.schedule, "online schedules diverged");
    prop_assert_eq!(
        inc.schedule.awct(instance).to_bits(),
        reb.schedule.awct(instance).to_bits(),
        "online AWCT bits diverged"
    );
    Ok(())
}

fn check_solver(knapsack: KnapsackChoice, name: &'static str) {
    check(name, &Config::with_cases(64), gen_case, |case| {
        let Some((machines, instance)) = build_case(case) else {
            return Ok(());
        };
        assert_equivalent(knapsack, machines, &instance)
    });
}

#[test]
fn incremental_matches_rebuild_cadp() {
    check_solver(KnapsackChoice::Cadp, "epoch equivalence (cadp)");
}

#[test]
fn incremental_matches_rebuild_greedy() {
    check_solver(KnapsackChoice::Greedy, "epoch equivalence (greedy)");
}

#[test]
fn incremental_matches_rebuild_greedy_half() {
    check_solver(
        KnapsackChoice::GreedyHalf,
        "epoch equivalence (greedy-half)",
    );
}

#[test]
fn incremental_matches_rebuild_exact() {
    check_solver(KnapsackChoice::Exact, "epoch equivalence (exact)");
}

/// Chaos composition: randomized fault plans (machine strikes that orphan
/// committed jobs mid-epoch) must leave the
/// incremental path bit-identical to the rebuild path — schedules, AWCT
/// bits, and the full audit log.
#[test]
fn incremental_matches_rebuild_under_chaos() {
    check(
        "epoch equivalence under chaos",
        &Config::with_cases(64),
        |rng| {
            let case = gen_case(rng);
            let strikes = rng.gen_range(1..=3usize);
            let events: Vec<(f64, f64, usize)> = (0..strikes)
                .map(|_| {
                    (
                        rng.gen_range(0.0..20.0),
                        rng.gen_range(0.5..8.0),
                        rng.gen_range(0..4usize),
                    )
                })
                .collect();
            (case, events)
        },
        |(case, events)| {
            let Some((machines, instance)) = build_case(case) else {
                return Ok(());
            };
            let plan = FaultPlan::from_events(
                events
                    .iter()
                    .map(|&(at, downtime, m)| FaultEvent {
                        at,
                        downtime,
                        target: FaultTarget::Machine(m),
                    })
                    .collect(),
            );
            let mut inc_policy =
                MrisOnline::new(config(KnapsackChoice::Cadp, false), &instance, machines);
            let mut reb_policy =
                MrisOnline::new(config(KnapsackChoice::Cadp, true), &instance, machines);
            let inc = run_online_chaos(
                &instance,
                machines,
                &mut inc_policy,
                &plan,
                RestartSemantics::FullRestart,
            )
            .map_err(|e| format!("incremental chaos: {e}"))?;
            let reb = run_online_chaos(
                &instance,
                machines,
                &mut reb_policy,
                &plan,
                RestartSemantics::FullRestart,
            )
            .map_err(|e| format!("rebuild chaos: {e}"))?;
            prop_assert_eq!(&inc.schedule, &reb.schedule, "chaos schedules diverged");
            prop_assert_eq!(&inc.log, &reb.log, "chaos audit logs diverged");
            prop_assert_eq!(
                inc.schedule.awct(&instance).to_bits(),
                reb.schedule.awct(&instance).to_bits(),
                "chaos AWCT bits diverged"
            );
            Ok(())
        },
    );
}

/// A pinned mid-epoch failure: the strike lands between two grid wakeups,
/// after jobs have been committed ahead of wall-clock, so orphans and
/// re-releases re-enter the frontier with thresholds behind the grid — the
/// incremental frontier must still match the rebuild path's flat filter.
#[test]
fn mid_epoch_failure_matches_rebuild() {
    let jobs = vec![
        Job::from_fractions(JobId(0), 0.0, 2.0, 3.0, &[0.6]),
        Job::from_fractions(JobId(1), 0.0, 2.0, 2.0, &[0.6]),
        Job::from_fractions(JobId(2), 0.5, 4.0, 1.0, &[0.5]),
        Job::from_fractions(JobId(3), 3.0, 1.0, 4.0, &[0.7]),
    ];
    let instance = Instance::from_unnumbered(jobs, 1).unwrap();
    let plan = FaultPlan::from_events(vec![FaultEvent {
        at: 3.0,
        downtime: 2.5,
        target: FaultTarget::Machine(0),
    }]);
    for machines in [1usize, 2] {
        let mut inc_policy =
            MrisOnline::new(config(KnapsackChoice::Cadp, false), &instance, machines);
        let mut reb_policy =
            MrisOnline::new(config(KnapsackChoice::Cadp, true), &instance, machines);
        let inc = run_online_chaos(
            &instance,
            machines,
            &mut inc_policy,
            &plan,
            RestartSemantics::FullRestart,
        )
        .unwrap();
        let reb = run_online_chaos(
            &instance,
            machines,
            &mut reb_policy,
            &plan,
            RestartSemantics::FullRestart,
        )
        .unwrap();
        assert_eq!(inc.schedule, reb.schedule, "M = {machines}");
        assert_eq!(inc.log, reb.log, "M = {machines}");
        assert!(inc.log.total_kills() > 0, "plan must actually strike");
    }
}

/// The recovery twin of the test above: the machine comes back between two
/// grid wakeups while jobs are still pending, so epochs plan against both
/// the degraded and the recovered cluster. The incremental path must stay
/// bit-identical to the rebuild path across the mid-epoch recovery (and
/// keep matching through the epochs that follow it).
#[test]
fn mid_epoch_recovery_matches_rebuild() {
    let jobs = vec![
        Job::from_fractions(JobId(0), 0.0, 1.5, 3.0, &[0.7]),
        Job::from_fractions(JobId(1), 0.0, 3.0, 2.0, &[0.6]),
        Job::from_fractions(JobId(2), 0.25, 2.0, 1.0, &[0.5]),
        Job::from_fractions(JobId(3), 3.5, 1.0, 4.0, &[0.8]),
        Job::from_fractions(JobId(4), 6.0, 2.0, 2.5, &[0.4]),
    ];
    let instance = Instance::from_unnumbered(jobs, 1).unwrap();
    // Strike at t = 2.5 (killing work placed at the gamma = 2 wakeup) and
    // recover at t = 4.2: both land strictly between grid wakeups
    // (gamma = 2, 4, 8), and the job released at t = 6.0 forces a
    // post-recovery epoch that plans against the recovered machine.
    let plan = FaultPlan::from_events(vec![FaultEvent {
        at: 2.5,
        downtime: 1.7,
        target: FaultTarget::Machine(0),
    }]);
    for machines in [1usize, 2] {
        let mut inc_policy =
            MrisOnline::new(config(KnapsackChoice::Cadp, false), &instance, machines);
        let mut reb_policy =
            MrisOnline::new(config(KnapsackChoice::Cadp, true), &instance, machines);
        let inc = run_online_chaos(
            &instance,
            machines,
            &mut inc_policy,
            &plan,
            RestartSemantics::FullRestart,
        )
        .unwrap();
        let reb = run_online_chaos(
            &instance,
            machines,
            &mut reb_policy,
            &plan,
            RestartSemantics::FullRestart,
        )
        .unwrap();
        assert_eq!(inc.schedule, reb.schedule, "M = {machines}");
        assert_eq!(inc.log, reb.log, "M = {machines}");
        assert!(inc.log.total_kills() > 0, "plan must actually strike");
        assert!(
            !inc.log.recoveries.is_empty(),
            "recovery must land before the run drains"
        );
        assert!(
            inc.schedule.assignments().count() >= instance.len(),
            "every job is eventually placed"
        );
    }
}
