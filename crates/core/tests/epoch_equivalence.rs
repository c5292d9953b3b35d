//! `MrisOnline` against a flat, from-scratch reference of Algorithm 1.
//!
//! `MrisOnline` carries its epoch working set across iterations (a monotone
//! eligibility frontier and reused scratch). That is a pure optimization:
//! it must not change a single placement. The reference here, [`FlatMris`],
//! re-derives every epoch from the paper's text instead:
//!
//! * the geometric grid `gamma_k = gamma_0 * alpha^k`, with `gamma_0` the
//!   instance's minimum processing time;
//! * `J_k` is one flat threshold filter over every announced, unscheduled
//!   job: eligible once `gamma_k >= max(p_j, available_j)`, where
//!   `available_j` is the release, or the instant a fault killed or
//!   orphaned the job;
//! * P1 at `zeta_k = R * M * gamma_k` through [`MrisConfig::solver`], with
//!   free zero-weight items folded in afterwards (the rule `select_batch`
//!   documents);
//! * the batch in heuristic order, placed by
//!   [`ClusterTimelines::place_batch`] at floor `gamma_k` (or the committed
//!   horizon without backfilling);
//! * on a machine failure, orphaned commitments are re-planned and the
//!   downtime is blocked out, as `MrisOnline` does.
//!
//! Pinned over randomized instances, for **all four** knapsack solvers:
//!
//! 1. Fault-free, schedules and AWCT bits are identical through the
//!    unified driver. There is one loop: batch `Mris` is this same policy
//!    under `run_online`, so the batch entry point needs no case of its own
//!    (its bits are pinned in absolute terms by `tests/mris_batch_golden.rs`).
//! 2. Chaos composition: machine failures mid-epoch (which orphan committed
//!    jobs back into the eligible set) leave `MrisOnline` bit-identical to
//!    the reference under the identical fault plan — schedules, AWCT bits,
//!    and audit logs.

use std::collections::{BTreeMap, BTreeSet};

use mris_core::{KnapsackChoice, MrisConfig, MrisOnline};
use mris_knapsack::{Item, KnapsackSolver};
use mris_rng::prop::{check, Config};
use mris_rng::{prop_assert_eq, Rng};
use mris_sim::{run_online_chaos, ClusterTimelines, Dispatcher, FaultPlan, OnlinePolicy, OrdTime};
use mris_types::{
    FaultEvent, FaultTarget, Instance, Job, JobId, RestartSemantics, SchedulingError, Time,
};

/// The flat reference policy described in the module docs.
struct FlatMris {
    config: MrisConfig,
    solver: Box<dyn KnapsackSolver>,
    timelines: ClusterTimelines,
    gamma0: Time,
    k: usize,
    /// Every announced, unscheduled job and its eligibility threshold.
    announced: BTreeMap<JobId, Time>,
    /// Committed `(start, job, machine)` placements not yet realized.
    committed: BTreeSet<(OrdTime, JobId, usize)>,
}

impl FlatMris {
    fn new(config: MrisConfig, instance: &Instance, machines: usize) -> Self {
        let gamma0 = if instance.is_empty() {
            1.0
        } else {
            instance.stats().min_proc
        };
        FlatMris {
            config,
            solver: config.solver(),
            timelines: ClusterTimelines::new(machines, instance.num_resources()),
            gamma0,
            k: 0,
            announced: BTreeMap::new(),
            committed: BTreeSet::new(),
        }
    }

    fn gamma(&self) -> Time {
        self.gamma0 * self.config.alpha.powi(self.k as i32)
    }

    fn announce(&mut self, job: JobId, proc_time: Time, available: Time) {
        self.announced.insert(job, proc_time.max(available));
    }

    /// Algorithm 1's iteration `k` at `gamma_k`.
    fn run_iteration(&mut self, instance: &Instance) {
        let gamma = self.gamma();
        self.k += 1;
        let eligible: Vec<JobId> = self
            .announced
            .iter()
            .filter(|&(_, &threshold)| threshold <= gamma)
            .map(|(&j, _)| j)
            .collect();
        if eligible.is_empty() {
            return;
        }
        let zeta = (instance.num_resources() * self.timelines.num_machines()) as f64 * gamma;
        let items: Vec<Item> = eligible
            .iter()
            .map(|&j| Item::new(instance.job(j).weight, instance.job(j).volume()))
            .collect();
        let solution = self.solver.solve(&items, zeta);
        let mut selected = solution.selected.clone();
        let mut used = solution.size;
        let budget = zeta * self.solver.capacity_blowup();
        for (idx, item) in items.iter().enumerate() {
            if item.weight == 0.0 && !solution.selected.contains(&idx) && used + item.size <= budget
            {
                used += item.size;
                selected.push(idx);
            }
        }
        let heuristic = self.config.heuristic;
        let mut batch: Vec<JobId> = selected.iter().map(|&i| eligible[i]).collect();
        batch.sort_by(|&a, &b| {
            OrdTime(heuristic.key(instance.job(a)))
                .cmp(&OrdTime(heuristic.key(instance.job(b))))
                .then(a.cmp(&b))
        });
        let floor = if self.config.backfill {
            gamma
        } else {
            gamma.max(self.timelines.horizon())
        };
        let mut placements = Vec::new();
        self.timelines
            .place_batch(instance, &batch, floor, &mut placements);
        for (job, machine, start) in placements {
            self.announced.remove(&job);
            self.committed.insert((OrdTime(start), job, machine));
        }
    }
}

impl OnlinePolicy for FlatMris {
    fn on_arrivals(&mut self, now: Time, arrived: &[JobId], instance: &Instance) {
        for &j in arrived {
            self.announce(j, instance.job(j).proc_time, now);
        }
    }

    fn dispatch(
        &mut self,
        d: &mut Dispatcher<'_>,
        _freed: &[usize],
    ) -> Result<(), SchedulingError> {
        let now = d.now();
        while !self.announced.is_empty() && self.gamma() <= now {
            self.run_iteration(d.instance());
        }
        while let Some(&(start, job, machine)) = self.committed.first() {
            if start.0 > now {
                break;
            }
            self.committed.pop_first();
            if d.cluster().is_up(machine) {
                d.place(machine, job)?;
            } else {
                // A zero-demand job committed inside a downtime block.
                self.announce(job, d.instance().job(job).proc_time, now);
            }
        }
        Ok(())
    }

    fn on_machine_failed(
        &mut self,
        now: Time,
        machine: usize,
        recover_at: Time,
        _killed: &[JobId],
        instance: &Instance,
    ) {
        let orphans: Vec<_> = self
            .committed
            .iter()
            .filter(|&&(_, _, m)| m == machine)
            .copied()
            .collect();
        for entry @ (_, job, _) in orphans {
            self.committed.remove(&entry);
            self.announce(job, instance.job(job).proc_time, now);
        }
        self.timelines.reset_machine(machine);
        let full = self.timelines.capacity(machine).to_vec();
        self.timelines.commit(machine, now, recover_at - now, &full);
    }

    fn next_wakeup(&self) -> Option<Time> {
        let grid = (!self.announced.is_empty()).then(|| self.gamma());
        let realize = self.committed.first().map(|&(s, _, _)| s.0);
        match (grid, realize) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }
}

/// One generated job row: release, proc time, weight, demands.
type Row = (f64, f64, f64, Vec<f64>);

/// `(machines, resources, rows)`.
type Case = (usize, usize, Vec<Row>);

/// Proc times on a half-unit grid and integer weights, some of them zero,
/// so that heuristic keys tie and the zero-weight folding has work to do.
fn gen_case(rng: &mut Rng) -> Case {
    let r = rng.gen_range(1..=2usize);
    let n = rng.gen_range(2..=12usize);
    let rows = (0..n)
        .map(|_| {
            (
                rng.gen_range(0.0..10.0),
                rng.gen_range(1..=12usize) as f64 * 0.5,
                rng.gen_range(0..=4usize) as f64,
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

fn config(knapsack: KnapsackChoice) -> MrisConfig {
    MrisConfig {
        knapsack,
        ..Default::default()
    }
}

/// `MrisOnline` vs the flat reference through the unified driver
/// (fault-free), for one solver and case.
fn assert_equivalent(
    knapsack: KnapsackChoice,
    machines: usize,
    instance: &Instance,
) -> Result<(), String> {
    let plan = FaultPlan::none();
    let mut inc_policy = MrisOnline::new(config(knapsack), instance, machines);
    let mut reb_policy = FlatMris::new(config(knapsack), instance, machines);
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
    .map_err(|e| format!("flat reference: {e}"))?;
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
/// committed jobs mid-epoch) must leave `MrisOnline` bit-identical to the
/// flat reference — schedules, AWCT bits, and the full audit log.
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
            let mut inc_policy = MrisOnline::new(config(KnapsackChoice::Cadp), &instance, machines);
            let mut reb_policy = FlatMris::new(config(KnapsackChoice::Cadp), &instance, machines);
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
            .map_err(|e| format!("flat reference chaos: {e}"))?;
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
/// re-releases re-enter with thresholds behind the grid — the incremental
/// frontier must still match the reference's flat filter.
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
        let mut inc_policy = MrisOnline::new(config(KnapsackChoice::Cadp), &instance, machines);
        let mut reb_policy = FlatMris::new(config(KnapsackChoice::Cadp), &instance, machines);
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
/// the degraded and the recovered cluster. `MrisOnline` must stay
/// bit-identical to the reference across the mid-epoch recovery (and keep
/// matching through the epochs that follow it).
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
        let mut inc_policy = MrisOnline::new(config(KnapsackChoice::Cadp), &instance, machines);
        let mut reb_policy = FlatMris::new(config(KnapsackChoice::Cadp), &instance, machines);
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
