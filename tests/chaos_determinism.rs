//! Determinism and conservativity of the fault-injection harness.
//!
//! Two pinned properties, each over randomized instances, plans, restart
//! semantics, and schedulers:
//!
//! 1. **Bit-for-bit replay**: the same seed and fault plan produce a
//!    byte-identical schedule, fault log, and AWCT when run twice. This is
//!    what makes chaos experiments debuggable — any failure reproduces.
//! 2. **Conservativity**: a run under [`FaultPlan::none`] is identical to
//!    the failure-free scheduler for every registered comparison
//!    algorithm. Each scheduler *is* its policy run through the event
//!    kernel — one loop — so this pins that `FaultPlan::none()` adds
//!    nothing to it: the chaos harness has no behavior when nothing fails.

use mris::registry::{algorithm_by_name, online_policy_by_name};
use mris::sim::{run_online_chaos, suggested_horizon, FaultPlan, PoissonFaultConfig};
use mris::types::{Instance, Job, JobId, RestartSemantics};
use mris_rng::prop::{check, Config};
use mris_rng::{prop_assert, prop_assert_eq, Rng};

const SCHEDULERS: [&str; 6] = ["mris", "pq-wsjf", "pq-wsvf", "tetris", "bf-exec", "ca-pq"];

/// One generated job row: release, proc time, weight, demands.
type Row = (f64, f64, f64, Vec<f64>);

/// `(scheduler index, restart selector, plan seed, machines, resources, rows)`.
type Case = (usize, u8, u64, usize, usize, Vec<Row>);

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
    (
        rng.gen_range(0..SCHEDULERS.len()),
        rng.gen_range(0..=1usize) as u8,
        rng.gen_range(0..u64::MAX),
        rng.gen_range(1..=3usize),
        r,
        rows,
    )
}

/// `None` for shrink candidates that broke the generator's invariants.
fn build_case(case: &Case) -> Option<(&'static str, RestartSemantics, u64, usize, Instance)> {
    let (algo_idx, restart_sel, plan_seed, machines, r, rows) = case;
    if rows.len() < 2
        || !(1..=2).contains(r)
        || !(1..=3).contains(machines)
        || *algo_idx >= SCHEDULERS.len()
        || rows.iter().any(|(_, _, _, d)| d.len() != *r)
    {
        return None;
    }
    let jobs = rows
        .iter()
        .map(|(rel, p, w, d)| Job::from_fractions(JobId(0), *rel, *p, *w, d))
        .collect();
    let instance = Instance::from_unnumbered(jobs, *r).ok()?;
    let restart = if *restart_sel == 0 {
        RestartSemantics::FullRestart
    } else {
        RestartSemantics::WeightAging { factor: 1.5 }
    };
    Some((
        SCHEDULERS[*algo_idx],
        restart,
        *plan_seed,
        *machines,
        instance,
    ))
}

fn poisson_plan(seed: u64, instance: &Instance, machines: usize) -> FaultPlan {
    let horizon = suggested_horizon(instance, machines);
    FaultPlan::poisson(&PoissonFaultConfig {
        seed,
        num_machines: machines,
        horizon,
        mtbf: horizon / 1.5,
        mttr: 0.1 * horizon,
    })
}

/// Same seed, same plan, same scheduler: byte-identical schedule, fault
/// log, and AWCT bits across two independent runs.
#[test]
fn chaos_runs_are_bit_for_bit_reproducible() {
    check(
        "chaos replay determinism",
        &Config::with_cases(64),
        gen_case,
        |case| {
            let Some((name, restart, plan_seed, machines, instance)) = build_case(case) else {
                return Ok(());
            };
            let plan = poisson_plan(plan_seed, &instance, machines);
            let run = || {
                let mut policy = online_policy_by_name(name, &instance, machines)
                    .expect("registry resolves comparison names");
                run_online_chaos(&instance, machines, policy.as_mut(), &plan, restart)
            };
            let first = run().map_err(|e| format!("{name}: {e}"))?;
            let second = run().map_err(|e| format!("{name}: {e}"))?;
            prop_assert_eq!(&first.schedule, &second.schedule, "{name} schedule");
            prop_assert_eq!(&first.log, &second.log, "{name} fault log");
            prop_assert_eq!(
                first.schedule.awct(&instance).to_bits(),
                second.schedule.awct(&instance).to_bits(),
                "{name} AWCT bits"
            );
            prop_assert!(first.schedule.is_complete(), "{name} incomplete");
            first
                .log
                .verify()
                .map_err(|v| format!("{name}: invariant violation: {v}"))?;
            Ok(())
        },
    );
}

/// Under an empty fault plan, the chaos driver reproduces the failure-free
/// scheduler exactly, for every registered comparison algorithm.
#[test]
fn empty_plan_matches_failure_free_run() {
    check(
        "chaos conservativity",
        &Config::with_cases(64),
        gen_case,
        |case| {
            let Some((_, restart, _, machines, instance)) = build_case(case) else {
                return Ok(());
            };
            for name in SCHEDULERS {
                let baseline = algorithm_by_name(name)
                    .expect("registry resolves comparison names")
                    .try_schedule(&instance, machines)
                    .map_err(|e| format!("{name} baseline: {e}"))?;
                let mut policy = online_policy_by_name(name, &instance, machines)
                    .expect("registry resolves comparison names");
                let outcome = run_online_chaos(
                    &instance,
                    machines,
                    policy.as_mut(),
                    &FaultPlan::none(),
                    restart,
                )
                .map_err(|e| format!("{name} chaos: {e}"))?;
                prop_assert_eq!(&outcome.schedule, &baseline, "{name} diverged");
                prop_assert_eq!(
                    outcome.schedule.awct(&instance).to_bits(),
                    baseline.awct(&instance).to_bits(),
                    "{name} AWCT bits diverged"
                );
                prop_assert!(outcome.log.failures.is_empty(), "{name} phantom failure");
                prop_assert_eq!(outcome.log.total_re_releases(), 0u64, "{name} re-release");
            }
            Ok(())
        },
    );
}
