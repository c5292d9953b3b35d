//! The batch face of Algorithm 1: [`Mris`] is a [`Scheduler`] whose policy
//! is [`MrisOnline`], plus the per-iteration log and the P1 batch selection.

use mris_knapsack::{Item, KnapsackSolver, SolveScratch};
use mris_schedulers::Scheduler;
use mris_sim::{run_online, OnlinePolicy};
use mris_types::{ClusterSpec, Instance, Schedule, SchedulingError, Time};

use crate::config::{KnapsackChoice, MrisConfig};
use crate::online::MrisOnline;

/// Multi-Resource Interval Scheduling (Algorithm 1): the paper's main
/// contribution. `8R(1 + eps)`-competitive for AWCT (Theorem 6.8) and for
/// makespan (Lemma 6.9) under the default configuration.
///
/// ```
/// use mris_core::Mris;
/// use mris_schedulers::Scheduler;
/// use mris_types::{Instance, Job, JobId};
///
/// let jobs = vec![
///     Job::from_fractions(JobId(0), 0.0, 4.0, 1.0, &[1.0, 1.0]),
///     Job::from_fractions(JobId(1), 0.5, 1.0, 1.0, &[0.3, 0.1]),
/// ];
/// let instance = Instance::new(jobs, 2).unwrap();
/// let schedule = Mris::default().schedule(&instance, 2);
/// schedule.validate(&instance).unwrap();
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Mris {
    /// Algorithm knobs; `Default` reproduces the paper's configuration.
    pub config: MrisConfig,
}

/// Per-iteration instrumentation returned by [`Mris::schedule_with_log`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IterationStats {
    /// Iteration index `k`.
    pub k: usize,
    /// The interval endpoint `gamma_k` (wall-clock decision time).
    pub gamma: Time,
    /// Knapsack volume budget `zeta_k = R * M * gamma_k`.
    pub zeta: f64,
    /// Number of eligible pending jobs `|J_k|`.
    pub eligible: usize,
    /// Number of jobs selected and scheduled `|B_k|`.
    pub scheduled: usize,
    /// Total weight of `B_k`.
    pub batch_weight: f64,
    /// Total volume of `B_k` (at most `blowup * zeta`).
    pub batch_volume: f64,
    /// Latest completion among this iteration's placements (0 if none).
    pub batch_end: Time,
}

/// Solves P1 over `items` with budget `zeta` and returns the selected item
/// indices, with "free" zero-weight items folded in.
///
/// Zero-weight items are never chosen by the knapsack (they add volume for
/// no profit), but every job must eventually be scheduled. Once a
/// zero-weight item's volume is free — i.e. the leftover budget (at the
/// solver's capacity blow-up) covers it — it joins the batch; this keeps the
/// Lemma 6.5 volume bound intact.
///
/// The folding binary-searches `Solution::selected`, relying on the
/// [`KnapsackSolver`] contract that selections are strictly increasing;
/// that invariant is re-checked here in debug builds.
pub(crate) fn select_batch(
    solver: &dyn KnapsackSolver,
    scratch: &mut SolveScratch,
    items: &[Item],
    zeta: f64,
) -> Vec<usize> {
    let solution = solver.solve_into(scratch, items, zeta);
    debug_assert!(
        solution.selected.windows(2).all(|w| w[0] < w[1]),
        "KnapsackSolver contract violation: {} returned a selection that is \
         not strictly increasing: {:?}",
        solver.name(),
        solution.selected
    );
    let mut used = solution.size;
    let mut batch = solution.selected;
    // Folded items are appended, so the solver's picks stay the sorted
    // prefix the binary search needs.
    let picked = batch.len();
    let budget = zeta * solver.capacity_blowup();
    for (idx, item) in items.iter().enumerate() {
        if item.weight == 0.0
            && batch[..picked].binary_search(&idx).is_err()
            && used + item.size <= budget
        {
            used += item.size;
            batch.push(idx);
        }
    }
    batch
}

impl Mris {
    /// MRIS with an explicit configuration.
    pub fn with_config(config: MrisConfig) -> Self {
        config.validate();
        Mris { config }
    }

    /// Runs Algorithm 1 and additionally returns per-iteration statistics.
    pub fn schedule_with_log(
        &self,
        instance: &Instance,
        num_machines: usize,
    ) -> (Schedule, Vec<IterationStats>) {
        self.schedule_with_log_on(instance, &ClusterSpec::uniform(num_machines))
    }

    /// [`Mris::schedule_with_log`] on an explicit cluster description:
    /// placement probes and commits scale nominal work by each machine's
    /// speed and respect per-machine capacities. The schedule is the one
    /// [`Scheduler::try_schedule_on`] returns; the log has one entry per
    /// iteration that scheduled at least one job.
    ///
    /// # Panics
    ///
    /// Panics if the policy fails to place a job, like
    /// [`Scheduler::schedule_on`].
    pub fn schedule_with_log_on(
        &self,
        instance: &Instance,
        cluster: &ClusterSpec,
    ) -> (Schedule, Vec<IterationStats>) {
        let mut policy = MrisOnline::new_on(self.config, instance, cluster);
        policy.record_iterations();
        match self.run(instance, cluster, policy) {
            Ok(out) => out,
            Err(e) => panic!("{} failed to schedule: {e}", self.name()),
        }
    }

    /// Runs `policy` through the event kernel under the batch entry point's
    /// `mris_schedule_seconds` span and iteration counter.
    fn run(
        &self,
        instance: &Instance,
        cluster: &ClusterSpec,
        mut policy: MrisOnline,
    ) -> Result<(Schedule, Vec<IterationStats>), SchedulingError> {
        let _span = mris_obs::span!(
            "mris_schedule_seconds",
            jobs = instance.len(),
            machines = cluster.len()
        );
        let schedule = run_online(instance, cluster, &mut policy)?;
        let (log, iterations) = policy.into_iterations();
        mris_obs::counter_add("mris_schedule_iterations_total", iterations as u64);
        Ok((schedule, log))
    }
}

impl Scheduler for Mris {
    fn name(&self) -> String {
        match self.config.knapsack {
            KnapsackChoice::Cadp => format!("MRIS-{}", self.config.heuristic),
            KnapsackChoice::Greedy => format!("MRIS-GREEDY-{}", self.config.heuristic),
            KnapsackChoice::GreedyHalf => {
                format!("MRIS-GREEDY-HALF-{}", self.config.heuristic)
            }
            KnapsackChoice::Exact => format!("MRIS-EXACT-{}", self.config.heuristic),
        }
    }

    fn policy(&self, instance: &Instance, cluster: &ClusterSpec) -> Box<dyn OnlinePolicy> {
        Box::new(MrisOnline::new_on(self.config, instance, cluster))
    }

    // The provided method on a concrete `MrisOnline`, inside the batch
    // entry point's span and counter.
    fn try_schedule_on(
        &self,
        instance: &Instance,
        cluster: &ClusterSpec,
    ) -> Result<Schedule, SchedulingError> {
        let policy = MrisOnline::new_on(self.config, instance, cluster);
        Ok(self.run(instance, cluster, policy)?.0)
    }

    fn supports_precedence(&self) -> bool {
        true
    }

    fn supports_heterogeneous(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mris_schedulers::{Pq, SortHeuristic};
    use mris_types::{Job, JobId};

    fn inst(jobs: Vec<Job>, r: usize) -> Instance {
        Instance::from_unnumbered(jobs, r).unwrap()
    }

    fn j(r: f64, p: f64, w: f64, d: &[f64]) -> Job {
        Job::from_fractions(JobId(0), r, p, w, d)
    }

    #[test]
    fn schedules_everything_feasibly_and_online() {
        let jobs: Vec<Job> = (0..40)
            .map(|i| {
                j(
                    (i % 8) as f64 * 0.7,
                    1.0 + (i % 5) as f64,
                    1.0 + (i % 3) as f64,
                    &[0.1 + (i % 7) as f64 * 0.1, 0.05 * (i % 10) as f64],
                )
            })
            .collect();
        let instance = inst(jobs, 2);
        let (s, log) = Mris::default().schedule_with_log(&instance, 3);
        s.validate(&instance).unwrap();
        assert!(!log.is_empty());
        // Online property beyond S_j >= r_j: every job starts at or after the
        // gamma of the iteration that scheduled it. Reconstruct per-iteration
        // floors from the log order.
        let total: usize = log.iter().map(|it| it.scheduled).sum();
        assert_eq!(total, instance.len());
    }

    #[test]
    fn exercises_patience_on_lemma_4_1_instance() {
        // One machine; a full-demand blocker at t=0 with p = 16, and 15 small
        // jobs at t = 0.1 with p = 1, demand 1/15. PQ runs the blocker first;
        // MRIS schedules the small jobs in an early interval and defers the
        // blocker (it only becomes eligible once gamma >= 16).
        let n = 16usize;
        let p = n as f64;
        let mut jobs = vec![j(0.0, p, 1.0, &[1.0])];
        for _ in 0..n - 1 {
            jobs.push(j(0.1, 1.0, 1.0, &[1.0 / (n - 1) as f64]));
        }
        let instance = inst(jobs, 1);
        let mris = Mris::default().schedule(&instance, 1);
        let pq = Pq::new(SortHeuristic::Wsjf).schedule(&instance, 1);
        mris.validate(&instance).unwrap();
        pq.validate(&instance).unwrap();
        assert!(
            mris.awct(&instance) < pq.awct(&instance) / 2.0,
            "MRIS {} vs PQ {}",
            mris.awct(&instance),
            pq.awct(&instance)
        );
        // The blocker is deferred behind the small jobs.
        let blocker_start = mris.get(JobId(0)).unwrap().start;
        for i in 1..n {
            assert!(mris.get(JobId(i as u32)).unwrap().start < blocker_start);
        }
    }

    #[test]
    fn batch_volume_respects_blowup() {
        let jobs: Vec<Job> = (0..30)
            .map(|i| j(0.0, 1.0 + (i % 4) as f64, 1.0, &[0.5, 0.5]))
            .collect();
        let instance = inst(jobs, 2);
        let config = MrisConfig::default();
        let (_, log) = Mris::with_config(config).schedule_with_log(&instance, 1);
        for it in &log {
            assert!(
                it.batch_volume <= (1.0 + config.epsilon) * it.zeta + 1e-9,
                "iteration {} volume {} exceeds budget {}",
                it.k,
                it.batch_volume,
                (1.0 + config.epsilon) * it.zeta
            );
        }
    }

    #[test]
    fn greedy_variant_schedules_everything() {
        let jobs: Vec<Job> = (0..25)
            .map(|i| j((i % 5) as f64, 1.0 + (i % 3) as f64, 1.0 + i as f64, &[0.3]))
            .collect();
        let instance = inst(jobs, 1);
        let mris = Mris::with_config(MrisConfig {
            knapsack: KnapsackChoice::Greedy,
            ..Default::default()
        });
        let s = mris.schedule(&instance, 2);
        s.validate(&instance).unwrap();
        assert!(mris.name().contains("GREEDY"));
    }

    #[test]
    fn zero_weight_jobs_are_eventually_scheduled() {
        let jobs = vec![
            j(0.0, 2.0, 0.0, &[0.5]),
            j(0.0, 1.0, 5.0, &[0.5]),
            j(3.0, 1.0, 0.0, &[1.0]),
        ];
        let instance = inst(jobs, 1);
        let s = Mris::default().schedule(&instance, 1);
        s.validate(&instance).unwrap();
    }

    #[test]
    fn no_backfill_appends_iterations() {
        let jobs: Vec<Job> = (0..10)
            .map(|i| j(0.0, 1.0 + (i % 2) as f64, 1.0, &[0.9]))
            .collect();
        let instance = inst(jobs.clone(), 1);
        let with = Mris::default().schedule(&instance, 1);
        let without = Mris::with_config(MrisConfig {
            backfill: false,
            ..Default::default()
        })
        .schedule(&instance, 1);
        with.validate(&instance).unwrap();
        without.validate(&instance).unwrap();
        assert!(with.awct(&instance) <= without.awct(&instance) + 1e-9);
    }

    #[test]
    fn handles_unnormalized_instances() {
        // Processing times below 1: gamma_0 adapts to min_proc.
        let jobs = vec![j(0.0, 0.25, 1.0, &[0.5]), j(0.1, 0.5, 2.0, &[0.5])];
        let instance = inst(jobs, 1);
        let s = Mris::default().schedule(&instance, 1);
        s.validate(&instance).unwrap();
    }

    #[test]
    fn batch_end_is_a_completion_time_on_related_machines() {
        // Two full-demand p = 4 jobs on one speed-0.5 machine run [4, 12)
        // and [12, 20): the log reports those completions, not start + p.
        let jobs = vec![j(0.0, 4.0, 2.0, &[1.0]), j(0.0, 4.0, 1.0, &[1.0])];
        let instance = inst(jobs, 1);
        let cluster = ClusterSpec::related(1, &[0.5]);
        let (s, log) = Mris::default().schedule_with_log_on(&instance, &cluster);
        s.validate_on(&instance, &cluster).unwrap();
        let ends: Vec<Time> = log.iter().map(|it| it.batch_end).collect();
        assert_eq!(ends, [12.0, 20.0]);
    }

    #[test]
    fn log_path_honours_precedence_edges() {
        use mris_types::InstanceBuilder;
        // The chain 0 -> 1 on one machine, and `tests/dag_golden.rs`'s
        // diamond 0 -> {1, 2} -> 3 on two.
        let mut chain = InstanceBuilder::new(1);
        let a = chain.push_job(0.0, 4.0, 1.0, &[0.5]);
        let b = chain.push_job(0.0, 4.0, 1.0, &[0.5]);
        chain.edge(a, b);
        let mut diamond = InstanceBuilder::new(1);
        let ids: Vec<JobId> = [(2.0, 1.0), (1.0, 2.0), (3.0, 1.0), (1.0, 4.0)]
            .iter()
            .map(|&(p, w)| diamond.push_job(0.0, p, w, &[0.6]))
            .collect();
        for (pred, succ) in [(0, 1), (0, 2), (1, 3), (2, 3)] {
            diamond.edge(ids[pred], ids[succ]);
        }
        for (builder, machines) in [(chain, 1), (diamond, 2)] {
            let instance = builder.build().unwrap();
            let cluster = ClusterSpec::uniform(machines);
            let (s, log) = Mris::default().schedule_with_log_on(&instance, &cluster);
            s.validate_on(&instance, &cluster).unwrap();
            assert_eq!(
                s,
                Mris::default()
                    .try_schedule_on(&instance, &cluster)
                    .unwrap()
            );
            let logged: usize = log.iter().map(|it| it.scheduled).sum();
            assert_eq!(logged, instance.len());
        }
    }

    #[test]
    fn empty_instance() {
        let instance = Instance::new(vec![], 2).unwrap();
        let (s, log) = Mris::default().schedule_with_log(&instance, 4);
        assert!(s.is_complete());
        assert!(log.is_empty());
    }

    /// A mock solver with a fixed (possibly contract-violating) selection.
    struct FixedSelection(Vec<usize>);

    impl KnapsackSolver for FixedSelection {
        fn name(&self) -> &'static str {
            "mock-fixed"
        }
        fn solve_into(
            &self,
            _scratch: &mut SolveScratch,
            items: &[Item],
            _capacity: f64,
        ) -> mris_knapsack::Solution {
            // Deliberately bypasses `Solution::from_selected` so tests can
            // hand the call site an out-of-contract selection.
            mris_knapsack::Solution {
                selected: self.0.clone(),
                weight: self.0.iter().map(|&i| items[i].weight).sum(),
                size: self.0.iter().map(|&i| items[i].size).sum(),
            }
        }
        fn capacity_blowup(&self) -> f64 {
            1.0
        }
    }

    #[test]
    fn select_batch_folds_free_zero_weight_items() {
        // Solver picks item 1 only; items 0 and 3 are zero-weight. With
        // budget 10 and 4.0 used, item 0 (size 3) folds in, then item 3
        // (size 4) no longer fits the leftover budget.
        let items = vec![
            Item::new(0.0, 3.0),
            Item::new(5.0, 4.0),
            Item::new(2.0, 1.0),
            Item::new(0.0, 4.0),
        ];
        let batch = select_batch(
            &FixedSelection(vec![1]),
            &mut SolveScratch::default(),
            &items,
            10.0,
        );
        assert_eq!(batch, vec![1, 0]);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "not strictly increasing")]
    fn unsorted_solver_selection_is_caught_in_debug() {
        let items = vec![
            Item::new(1.0, 1.0),
            Item::new(2.0, 1.0),
            Item::new(0.0, 1.0),
        ];
        // An unsorted selection breaks the binary-search invariant of the
        // zero-weight folding; the call site must reject it loudly instead
        // of silently double-scheduling item 2.
        let _ = select_batch(
            &FixedSelection(vec![1, 0]),
            &mut SolveScratch::default(),
            &items,
            10.0,
        );
    }
}
