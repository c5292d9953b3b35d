//! Property-based tests pinning the paper's theoretical results on random
//! instances.

use mris::core::{batch_makespan_bound, Mris};
use mris::prelude::*;
use mris::sim::ClusterTimelines;
use mris_rng::prop::{check, Config};
use mris_rng::{prop_assert, prop_assert_eq, Rng};

/// Small-instance oracle: the minimum-AWCT *list schedule* over **all
/// permutations** of the instance's jobs, each permutation placed by
/// [`list_schedule`].
///
/// The true offline optimum is NP-hard (Section 1 of the paper), but for
/// tiny instances this search yields a feasible schedule whose objective
/// tightly **upper-bounds** OPT, which sharpens the Theorem 6.8 ceiling
/// check: `AWCT(MRIS) <= 8R(1+eps) * OPT <= 8R(1+eps) * oracle`. It is not
/// OPT itself: optimal schedules may idle deliberately in ways no list
/// order expresses.
///
/// Complexity `O(N! * N * M * segments)` — panics for `N > 9`.
fn best_list_schedule(instance: &Instance, machines: usize) -> Schedule {
    assert!(
        instance.len() <= 9,
        "best_list_schedule is exhaustive; use <= 9 jobs"
    );
    let mut order: Vec<JobId> = instance.jobs().iter().map(|j| j.id).collect();
    let mut best: Option<(f64, Schedule)> = None;
    permute(&mut order, 0, &mut |perm| {
        let schedule = list_schedule(instance, machines, perm);
        let awct = schedule.awct(instance);
        if best.as_ref().is_none_or(|(b, _)| awct < *b) {
            best = Some((awct, schedule));
        }
    });
    best.expect("non-empty instance").1
}

/// Places jobs in the given order, each at its earliest feasible start at or
/// after its release (list scheduling with backfilling).
fn list_schedule(instance: &Instance, machines: usize, order: &[JobId]) -> Schedule {
    let mut timelines = ClusterTimelines::new(machines, instance.num_resources());
    let mut schedule = Schedule::new(instance.len(), machines);
    let mut placed = Vec::with_capacity(1);
    for &id in order {
        placed.clear();
        timelines.place_batch(instance, &[id], instance.job(id).release, &mut placed);
        let (_, m, start) = placed[0];
        schedule.assign(id, m, start).expect("each job placed once");
    }
    schedule
}

/// Calls `visit` for each permutation of `items` (swap-based recursion).
fn permute<T, F: FnMut(&[T])>(items: &mut [T], k: usize, visit: &mut F) {
    let n = items.len();
    if k == n {
        visit(items);
        return;
    }
    for i in k..n {
        items.swap(k, i);
        permute(items, k + 1, visit);
        items.swap(k, i);
    }
}

#[test]
fn oracle_skips_the_lemma_4_1_blocker() {
    // 1 machine: blocker (p=5, d=1) at t=0; 4 small jobs at t=0.1. The
    // best list order runs the small jobs first.
    let mut jobs = vec![Job::from_fractions(JobId(0), 0.0, 5.0, 1.0, &[1.0])];
    for _ in 0..4 {
        jobs.push(Job::from_fractions(JobId(0), 0.1, 1.0, 1.0, &[0.25]));
    }
    let instance = Instance::from_unnumbered(jobs, 1).unwrap();
    let best = best_list_schedule(&instance, 1);
    best.validate(&instance).unwrap();
    // Small jobs at 0.1, blocker at 1.1: AWCT = (6.1 + 4 * 1.1) / 5.
    assert!((best.awct(&instance) - (6.1 + 4.0 * 1.1) / 5.0).abs() < 1e-9);
}

#[test]
fn oracle_beats_every_single_heuristic() {
    let jobs = vec![
        Job::from_fractions(JobId(0), 0.0, 3.0, 1.0, &[0.9, 0.1]),
        Job::from_fractions(JobId(0), 0.5, 1.0, 4.0, &[0.3, 0.8]),
        Job::from_fractions(JobId(0), 1.0, 2.0, 2.0, &[0.5, 0.5]),
        Job::from_fractions(JobId(0), 1.5, 1.0, 1.0, &[0.2, 0.9]),
    ];
    let instance = Instance::from_unnumbered(jobs, 2).unwrap();
    let best = best_list_schedule(&instance, 1).awct(&instance);
    for h in SortHeuristic::ALL {
        let s = Pq::new(h).schedule(&instance, 1);
        assert!(best <= s.awct(&instance) + 1e-9, "{h}");
    }
}

#[test]
fn oracle_single_job_is_trivial() {
    let instance = Instance::from_unnumbered(
        vec![Job::from_fractions(JobId(0), 2.0, 1.0, 1.0, &[0.5])],
        1,
    )
    .unwrap();
    let best = best_list_schedule(&instance, 3);
    assert_eq!(best.get(JobId(0)).unwrap().start, 2.0);
}

#[test]
#[should_panic(expected = "exhaustive")]
fn oracle_rejects_large_instances() {
    let jobs = (0..10)
        .map(|_| Job::from_fractions(JobId(0), 0.0, 1.0, 1.0, &[0.1]))
        .collect();
    let instance = Instance::from_unnumbered(jobs, 1).unwrap();
    let _ = best_list_schedule(&instance, 1);
}

/// One generated job row: release, proc time, weight, demands.
type Row = (f64, f64, f64, Vec<f64>);

/// Random small instances: up to 24 jobs, 1-3 resources, generated as
/// `(num_resources, rows)` so the row list shrinks while `r` stays fixed.
fn gen_case(rng: &mut Rng) -> (usize, Vec<Row>) {
    let r = rng.gen_range(1..=3usize);
    let n = rng.gen_range(1..24usize);
    let rows = (0..n)
        .map(|_| {
            (
                rng.gen_range(0.0..20.0),
                rng.gen_range(1.0..8.0),
                rng.gen_range(0.0..5.0),
                (0..r).map(|_| rng.gen_range(0.0..=1.0)).collect(),
            )
        })
        .collect();
    (r, rows)
}

/// `None` for shrink candidates that broke the generator's invariants.
fn build_instance(r: usize, rows: &[Row]) -> Option<Instance> {
    if rows.is_empty() || !(1..=3).contains(&r) || rows.iter().any(|(_, _, _, d)| d.len() != r) {
        return None;
    }
    let jobs = rows
        .iter()
        .map(|(rel, p, w, d)| Job::from_fractions(JobId(0), *rel, *p, *w, d))
        .collect();
    Instance::from_unnumbered(jobs, r).ok()
}

fn all_algorithms() -> Vec<Box<dyn Scheduler>> {
    vec![
        Box::new(Mris::default()),
        Box::new(Pq::new(SortHeuristic::Wsjf)),
        Box::new(Pq::new(SortHeuristic::Svf)),
        Box::new(Tetris::default()),
        Box::new(BfExec),
        Box::new(CaPq::default()),
    ]
}

/// Every algorithm produces a complete, feasible, online-respecting
/// schedule on arbitrary instances and machine counts.
#[test]
fn schedules_always_feasible() {
    check(
        "schedules always feasible",
        &Config::with_cases(64),
        |rng| (gen_case(rng), rng.gen_range(1..5usize)),
        |((r, rows), machines)| {
            let Some(instance) = build_instance(*r, rows) else {
                return Ok(());
            };
            for algo in all_algorithms() {
                let schedule = algo.schedule(&instance, *machines);
                prop_assert!(
                    schedule.validate(&instance).is_ok(),
                    "{} produced an infeasible schedule",
                    algo.name()
                );
            }
            Ok(())
        },
    );
}

/// Lemma 6.2: makespan >= V/(R*M) for every algorithm (they are all
/// feasible schedules, so the lower bound binds them too).
#[test]
fn lemma_6_2_volume_lower_bound() {
    check(
        "lemma 6.2 volume lower bound",
        &Config::with_cases(64),
        |rng| (gen_case(rng), rng.gen_range(1..5usize)),
        |((r, rows), machines)| {
            let Some(instance) = build_instance(*r, rows) else {
                return Ok(());
            };
            let bound = instance.total_volume() / (instance.num_resources() * machines) as f64;
            for algo in all_algorithms() {
                let makespan = algo.schedule(&instance, *machines).makespan(&instance);
                prop_assert!(
                    makespan >= bound - 1e-6,
                    "{}: {makespan} < {bound}",
                    algo.name()
                );
            }
            Ok(())
        },
    );
}

/// Lemma 6.3: the offline PQ-with-backfilling subroutine schedules any
/// batch on an empty cluster within max(2 p_max, 2 V / M).
#[test]
fn lemma_6_3_pq_makespan_bound() {
    check(
        "lemma 6.3 pq makespan bound",
        &Config::with_cases(64),
        |rng| (gen_case(rng), rng.gen_range(1..5usize)),
        |((r, rows), machines)| {
            let Some(instance) = build_instance(*r, rows) else {
                return Ok(());
            };
            let mut timelines = ClusterTimelines::new(*machines, instance.num_resources());
            let batch: Vec<JobId> = instance.jobs().iter().map(|j| j.id).collect();
            let mut placements = Vec::new();
            timelines.place_batch(&instance, &batch, 0.0, &mut placements);
            let makespan = placements
                .iter()
                .map(|&(j, _, s)| s + instance.job(j).proc_time)
                .fold(0.0_f64, f64::max);
            let bound = batch_makespan_bound(&instance, &batch, *machines);
            prop_assert!(makespan <= bound + 1e-6, "{makespan} > {bound}");
            Ok(())
        },
    );
}

/// Theorem 6.8 (necessary condition): MRIS's AWCT is at most
/// 8R(1 + eps) times the best AWCT any implemented algorithm achieves
/// (which upper-bounds OPT). Same for makespan via Lemma 6.9.
#[test]
fn theorem_6_8_ceiling_vs_best_known() {
    check(
        "theorem 6.8 ceiling vs best known",
        &Config::with_cases(64),
        |rng| (gen_case(rng), rng.gen_range(1..4usize)),
        |((r, rows), machines)| {
            let Some(instance) = build_instance(*r, rows) else {
                return Ok(());
            };
            let mris = Mris::default();
            let ceiling = mris.config.competitive_ratio(instance.num_resources());
            let s = mris.schedule(&instance, *machines);
            let (awct, makespan) = (s.awct(&instance), s.makespan(&instance));
            let mut best_awct = f64::INFINITY;
            let mut best_makespan = f64::INFINITY;
            for algo in all_algorithms() {
                let s = algo.schedule(&instance, *machines);
                best_awct = best_awct.min(s.awct(&instance));
                best_makespan = best_makespan.min(s.makespan(&instance));
            }
            prop_assert!(
                awct <= ceiling * best_awct + 1e-6,
                "AWCT {awct} > {ceiling} x {best_awct}"
            );
            prop_assert!(
                makespan <= ceiling * best_makespan + 1e-6,
                "makespan {makespan} > {ceiling} x {best_makespan}"
            );
            Ok(())
        },
    );
}

/// Theorem 6.8 against the exhaustive small-instance oracle: the best
/// list schedule over all permutations upper-bounds OPT much more
/// tightly than any single heuristic, and MRIS stays within the proven
/// ceiling of it.
#[test]
fn theorem_6_8_ceiling_vs_permutation_oracle() {
    check(
        "theorem 6.8 ceiling vs permutation oracle",
        &Config::with_cases(64),
        |rng| {
            let n = rng.gen_range(1..7usize);
            let rows: Vec<Row> = (0..n)
                .map(|_| {
                    (
                        rng.gen_range(0.0..6.0),
                        rng.gen_range(1.0..4.0),
                        rng.gen_range(0.5..3.0),
                        vec![rng.gen_range(0.05..=1.0), rng.gen_range(0.05..=1.0)],
                    )
                })
                .collect();
            (rows, rng.gen_range(1..3usize))
        },
        |(rows, machines)| {
            let Some(instance) = build_instance(2, rows) else {
                return Ok(());
            };
            let mris = Mris::default();
            let ceiling = mris.config.competitive_ratio(2);
            let mris_awct = mris.schedule(&instance, *machines).awct(&instance);
            let oracle = best_list_schedule(&instance, *machines);
            oracle.validate(&instance).unwrap();
            prop_assert!(
                mris_awct <= ceiling * oracle.awct(&instance) + 1e-6,
                "MRIS {mris_awct} > {ceiling} x oracle {}",
                oracle.awct(&instance)
            );
            Ok(())
        },
    );
}

/// MRIS per-iteration volume budget (Lemma 6.5 machinery): every batch's
/// volume is at most (1 + eps) * zeta_k.
#[test]
fn mris_iteration_volume_budget() {
    check(
        "mris iteration volume budget",
        &Config::with_cases(64),
        |rng| (gen_case(rng), rng.gen_range(1..4usize)),
        |((r, rows), machines)| {
            let Some(instance) = build_instance(*r, rows) else {
                return Ok(());
            };
            let mris = Mris::default();
            let (_, log) = mris.schedule_with_log(&instance, *machines);
            for it in &log {
                prop_assert!(
                    it.batch_volume <= (1.0 + mris.config.epsilon) * it.zeta + 1e-6,
                    "iteration {} volume {} > budget {}",
                    it.k,
                    it.batch_volume,
                    (1.0 + mris.config.epsilon) * it.zeta
                );
                prop_assert!(it.scheduled <= it.eligible);
            }
            let scheduled: usize = log.iter().map(|it| it.scheduled).sum();
            prop_assert_eq!(scheduled, instance.len());
            Ok(())
        },
    );
}
