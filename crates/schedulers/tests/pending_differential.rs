//! Differential pin for the baselines' pending queues: PQ (every sorting
//! heuristic), CA-PQ and BF-EXEC against full-rescan references written from
//! the paper's definitions (Section 4 for PQ, Section 7.2 for CA-PQ and
//! BF-EXEC).
//!
//! The references keep one flat queue and, at every event, scan all of it:
//! PQ and CA-PQ try every pending job in `(key, id)` order against every
//! machine (first fit); BF-EXEC backfills each freed machine by scanning the
//! whole queue for the shortest job that fits, once per placement. The
//! product policies skip work that cannot change that answer, so schedules
//! and fault logs must be equal on:
//!
//! * demand populations: a catalog of at most 30 vectors, all-distinct
//!   vectors, and a single vector;
//! * uniform, related (speeds 2/1/0.5) and capacity-restricted clusters;
//! * precedence chains, delivered through the driver's `PrecedenceGate`;
//! * fault plans with failures and recoveries under both restart semantics
//!   (recovered machines are listed as freed);
//! * deep queues: up to 2,000 jobs at load 16.

use mris_rng::Rng;
use mris_schedulers::{BfExecPolicy, CaPqPolicy, PqPolicy, SortHeuristic};
use mris_sim::{
    run_driver, run_driver_observed, run_online, suggested_horizon, ChaosOutcome, FaultPlan,
    OnlinePolicy, PoissonFaultConfig, RunOptions,
};
use mris_types::{
    Amount, ClusterSpec, Instance, Job, JobId, MachineSpec, RestartSemantics, CAPACITY,
};

/// The full-rescan references.
mod reference {
    use std::collections::BTreeSet;

    use mris_schedulers::SortHeuristic;
    use mris_sim::{Dispatcher, OnlinePolicy, OrdTime};
    use mris_types::{fraction, Amount, Instance, JobId, SchedulingError, Time};

    /// Section 4, literally: at every event, scan *all* pending jobs in
    /// heuristic order against *all* machines and start each one that fits
    /// on its first-fit machine.
    #[derive(Debug, Clone)]
    pub struct NaivePqPolicy {
        heuristic: SortHeuristic,
        pending: BTreeSet<(OrdTime, JobId)>,
    }

    impl NaivePqPolicy {
        pub fn new(heuristic: SortHeuristic) -> Self {
            NaivePqPolicy {
                heuristic,
                pending: BTreeSet::new(),
            }
        }
    }

    impl OnlinePolicy for NaivePqPolicy {
        fn on_arrivals(&mut self, _now: Time, arrived: &[JobId], instance: &Instance) {
            for &j in arrived {
                self.pending
                    .insert((OrdTime(self.heuristic.key(instance.job(j))), j));
            }
        }

        fn dispatch(
            &mut self,
            d: &mut Dispatcher<'_>,
            _freed: &[usize],
        ) -> Result<(), SchedulingError> {
            let instance = d.instance();
            let mut placed = Vec::new();
            for &(key, j) in self.pending.iter() {
                if let Some(m) = d.cluster().first_fit(&instance.job(j).demands) {
                    d.place(m, j)?;
                    placed.push((key, j));
                }
            }
            for entry in placed {
                self.pending.remove(&entry);
            }
            Ok(())
        }
    }

    /// Section 7.2's CA-PQ: hold everything until the last release, then
    /// behave as [`NaivePqPolicy`] at every event.
    #[derive(Debug, Clone)]
    pub struct NaiveCaPqPolicy {
        gate: Time,
        pq: NaivePqPolicy,
    }

    impl NaiveCaPqPolicy {
        pub fn new(heuristic: SortHeuristic, gate: Time) -> Self {
            NaiveCaPqPolicy {
                gate,
                pq: NaivePqPolicy::new(heuristic),
            }
        }
    }

    impl OnlinePolicy for NaiveCaPqPolicy {
        fn on_arrivals(&mut self, now: Time, arrived: &[JobId], instance: &Instance) {
            self.pq.on_arrivals(now, arrived, instance);
        }

        fn dispatch(
            &mut self,
            d: &mut Dispatcher<'_>,
            freed: &[usize],
        ) -> Result<(), SchedulingError> {
            if d.now() < self.gate {
                return Ok(());
            }
            self.pq.dispatch(d, freed)
        }
    }

    /// Section 7.2's BF-EXEC with a flat queue: on departure, repeatedly
    /// start the shortest queued job (ties by id) that fits the freed
    /// machine, rescanning the whole queue for every placement; on arrival,
    /// start the job on the feasible machine with the smallest L2 norm of
    /// remaining capacity (ties by index), or queue it.
    #[derive(Debug, Clone, Default)]
    pub struct NaiveBfExecPolicy {
        queue: Vec<JobId>,
        fresh: Vec<JobId>,
    }

    impl NaiveBfExecPolicy {
        pub fn new() -> Self {
            Self::default()
        }
    }

    fn residual_norm2(avail: &[Amount], demands: &[Amount]) -> f64 {
        avail
            .iter()
            .zip(demands)
            .map(|(&a, &d)| {
                let rem = fraction(a) - fraction(d);
                rem * rem
            })
            .sum()
    }

    impl OnlinePolicy for NaiveBfExecPolicy {
        fn on_arrivals(&mut self, _now: Time, arrived: &[JobId], _instance: &Instance) {
            self.fresh.extend_from_slice(arrived);
        }

        fn dispatch(
            &mut self,
            d: &mut Dispatcher<'_>,
            freed: &[usize],
        ) -> Result<(), SchedulingError> {
            let instance = d.instance();
            for &m in freed {
                loop {
                    let shortest = self
                        .queue
                        .iter()
                        .enumerate()
                        .filter(|&(_, &j)| d.cluster().fits(m, &instance.job(j).demands))
                        .min_by(|&(_, &a), &(_, &b)| {
                            let (pa, pb) = (instance.job(a).proc_time, instance.job(b).proc_time);
                            pa.total_cmp(&pb).then(a.cmp(&b))
                        })
                        .map(|(i, _)| i);
                    let Some(i) = shortest else { break };
                    let j = self.queue.swap_remove(i);
                    d.place(m, j)?;
                }
            }
            for j in std::mem::take(&mut self.fresh) {
                let demands = &instance.job(j).demands;
                let best = (0..d.cluster().num_machines())
                    .filter(|&m| d.cluster().fits(m, demands))
                    .min_by(|&a, &b| {
                        let na = residual_norm2(d.cluster().avail(a), demands);
                        let nb = residual_norm2(d.cluster().avail(b), demands);
                        na.total_cmp(&nb).then(a.cmp(&b))
                    });
                match best {
                    Some(m) => d.place(m, j)?,
                    None => self.queue.push(j),
                }
            }
            Ok(())
        }
    }
}

use reference::{NaiveBfExecPolicy, NaiveCaPqPolicy, NaivePqPolicy};

const MACHINES: usize = 8;
const RESOURCES: usize = 4;

/// Which demand vectors an instance's jobs draw from.
#[derive(Debug, Clone, Copy)]
enum Population {
    /// At most 30 vectors, like the Azure catalog (one is all-zero).
    Catalog,
    /// Every job its own vector: one class per job, the index's worst case.
    Distinct,
    /// One vector for every job.
    Single,
}

const POPULATIONS: [Population; 3] = [
    Population::Catalog,
    Population::Distinct,
    Population::Single,
];

/// A random demand vector in ticks; each resource is idle with chance 1/4.
fn random_demands(rng: &mut Rng) -> Box<[Amount]> {
    (0..RESOURCES)
        .map(|_| {
            if rng.gen_range(0..4usize) == 0 {
                0
            } else {
                rng.gen_range(CAPACITY / 100..CAPACITY * 7 / 10)
            }
        })
        .collect()
}

/// `n` jobs at nominal load `load` on [`MACHINES`] unit machines. Integer
/// processing times in `[1, 100]` and weights in `{0, 1, 2, 3}` make
/// heuristic keys tie often, so the id tie-break is exercised; releases on a
/// 0.25 grid make several jobs arrive at one event. With `chains`, jobs
/// `4k .. 4k + 3` form a precedence chain.
fn instance(seed: u64, n: usize, load: f64, population: Population, chains: bool) -> Instance {
    let mut rng = Rng::new(seed);
    let catalog: Vec<Box<[Amount]>> = match population {
        Population::Catalog => {
            let size = rng.gen_range(12..=30usize);
            let mut v: Vec<_> = (1..size).map(|_| random_demands(&mut rng)).collect();
            v.push(vec![0; RESOURCES].into());
            v
        }
        Population::Single => vec![random_demands(&mut rng)],
        Population::Distinct => Vec::new(),
    };
    let mut jobs: Vec<Job> = (0..n)
        .map(|i| {
            let demands = match population {
                Population::Distinct => {
                    let mut d = random_demands(&mut rng);
                    // Resource 0 alone keeps every vector distinct.
                    d[0] = CAPACITY / 50 + 173 * i as Amount;
                    d
                }
                _ => rng.choose(&catalog).clone(),
            };
            Job {
                id: JobId(i as u32),
                release: 0.0,
                proc_time: rng.gen_range(1..=100usize) as f64,
                weight: [0.0, 1.0, 1.0, 2.0, 2.0, 3.0][rng.gen_range(0..6usize)],
                demands,
            }
        })
        .collect();
    let work: f64 = jobs
        .iter()
        .map(|j| j.proc_time * j.demands.iter().copied().max().unwrap_or(0) as f64)
        .sum::<f64>()
        / CAPACITY as f64;
    let horizon = work / (MACHINES as f64 * load);
    for job in &mut jobs {
        job.release = (rng.gen_range(0.0..horizon) * 4.0).floor() / 4.0;
    }
    let edges = if chains {
        (0..n)
            .filter(|i| i % 4 != 3 && i + 1 < n)
            .map(|i| (JobId(i as u32), JobId(i as u32 + 1)))
            .collect()
    } else {
        Vec::new()
    };
    Instance::with_edges(jobs, RESOURCES, edges).expect("generated instance is valid")
}

/// Uniform, related (speeds 2/1/0.5) and capacity-restricted clusters.
fn clusters() -> [(&'static str, ClusterSpec); 3] {
    let restricted = (0..MACHINES)
        .map(|m| {
            if m % 2 == 0 {
                MachineSpec::from_fractions(1.0, &[0.75, 1.0, 0.75, 1.0])
            } else {
                MachineSpec::unit()
            }
        })
        .collect();
    [
        ("uniform", ClusterSpec::uniform(MACHINES)),
        ("related", ClusterSpec::related(MACHINES, &[2.0, 1.0, 0.5])),
        ("restricted", ClusterSpec::new(restricted)),
    ]
}

/// Poisson failures over the instance's suggested horizon: each machine
/// fails about twice and stays down for a fortieth of the horizon.
fn faults(seed: u64, instance: &Instance) -> FaultPlan {
    let horizon = suggested_horizon(instance, MACHINES);
    FaultPlan::poisson(&PoissonFaultConfig {
        seed,
        num_machines: MACHINES,
        horizon,
        mtbf: horizon / 2.0,
        mttr: horizon / 40.0,
    })
}

const RESTARTS: [RestartSemantics; 2] = [
    RestartSemantics::FullRestart,
    RestartSemantics::WeightAging { factor: 2.0 },
];

/// The first job whose placement differs, for a readable failure.
fn first_difference(a: &ChaosOutcome, b: &ChaosOutcome, n: usize) -> Option<String> {
    (0..n as u32).map(JobId).find_map(|j| {
        let (x, y) = (a.schedule.get(j), b.schedule.get(j));
        (x != y).then(|| format!("{j}: product {x:?}, rescan {y:?}"))
    })
}

/// Runs `product` and `reference` on one configuration and requires equal
/// schedules and fault logs. Returns the product's outcome and the deepest
/// queue it saw (released minus placed, over the events).
fn same(
    label: &str,
    instance: &Instance,
    cluster: &ClusterSpec,
    options: RunOptions<'_>,
    product: &mut dyn OnlinePolicy,
    reference: &mut dyn OnlinePolicy,
) -> (ChaosOutcome, usize) {
    let mut deepest = 0;
    let a = run_driver_observed(instance, cluster.clone(), product, options, |s| {
        deepest = deepest.max(s.released.saturating_sub(s.placed))
    })
    .unwrap_or_else(|e| panic!("{label}: product failed: {e}"));
    let b = run_driver(instance, cluster.clone(), reference, options)
        .unwrap_or_else(|e| panic!("{label}: rescan failed: {e}"));
    if let Some(diff) = first_difference(&a, &b, instance.len()) {
        panic!("{label}: schedules differ at {diff}");
    }
    assert!(a.log == b.log, "{label}: fault logs differ");
    a.schedule.validate_on(instance, cluster).unwrap();
    (a, deepest)
}

#[test]
fn pq_matches_rescan_for_every_heuristic() {
    for (pi, population) in POPULATIONS.into_iter().enumerate() {
        let inst = instance(100 + pi as u64, 300, 8.0, population, false);
        for (name, cluster) in clusters() {
            for h in SortHeuristic::ALL_EXTENDED {
                same(
                    &format!("PQ-{h} {population:?} {name}"),
                    &inst,
                    &cluster,
                    RunOptions::new(),
                    &mut PqPolicy::new(h),
                    &mut NaivePqPolicy::new(h),
                );
            }
        }
    }
}

#[test]
fn pq_wsjf_matches_rescan_on_deep_queues() {
    for (pi, population) in POPULATIONS.into_iter().enumerate() {
        let inst = instance(200 + pi as u64, 2_000, 16.0, population, false);
        let [uniform, related, _] = clusters();
        // The related cluster only for the catalog: the other two
        // populations are slow for the rescan and add no new path.
        let clusters = match population {
            Population::Catalog => vec![uniform, related],
            _ => vec![uniform],
        };
        for (name, cluster) in clusters {
            let label = format!("PQ-WSJF n=2000 {population:?} {name}");
            let (_, depth) = same(
                &label,
                &inst,
                &cluster,
                RunOptions::new(),
                &mut PqPolicy::new(SortHeuristic::Wsjf),
                &mut NaivePqPolicy::new(SortHeuristic::Wsjf),
            );
            assert!(depth >= 500, "{label}: queue only reached {depth}");
        }
    }
}

#[test]
fn pq_matches_rescan_on_precedence_chains() {
    for (pi, population) in POPULATIONS.into_iter().enumerate() {
        let inst = instance(300 + pi as u64, 400, 8.0, population, true);
        assert!(inst.has_precedence());
        for (name, cluster) in clusters() {
            for h in [SortHeuristic::Wsjf, SortHeuristic::Sjf, SortHeuristic::Erf] {
                same(
                    &format!("PQ-{h} chains {population:?} {name}"),
                    &inst,
                    &cluster,
                    RunOptions::new(),
                    &mut PqPolicy::new(h),
                    &mut NaivePqPolicy::new(h),
                );
            }
        }
    }
}

#[test]
fn pq_matches_rescan_under_faults() {
    for (pi, population) in POPULATIONS.into_iter().enumerate() {
        for chains in [false, true] {
            let inst = instance(400 + pi as u64, 400, 8.0, population, chains);
            let plan = faults(40 + pi as u64, &inst);
            for (name, cluster) in clusters() {
                for restart in RESTARTS {
                    for h in [SortHeuristic::Wsjf, SortHeuristic::Wsvf] {
                        let options = RunOptions::new().with_faults(&plan).with_restart(restart);
                        let (out, _) = same(
                            &format!(
                                "PQ-{h} faults {restart:?} chains={chains} {population:?} {name}"
                            ),
                            &inst,
                            &cluster,
                            options,
                            &mut PqPolicy::new(h),
                            &mut NaivePqPolicy::new(h),
                        );
                        assert!(out.log.total_kills() > 0 && !out.log.recoveries.is_empty());
                    }
                }
            }
        }
    }
}

#[test]
fn capq_matches_rescan() {
    for (pi, population) in POPULATIONS.into_iter().enumerate() {
        let inst = instance(500 + pi as u64, 300, 8.0, population, false);
        let gate = inst.stats().max_release;
        for (name, cluster) in clusters() {
            for h in [SortHeuristic::Wsjf, SortHeuristic::Sjf, SortHeuristic::Sddf] {
                same(
                    &format!("CA-PQ-{h} {population:?} {name}"),
                    &inst,
                    &cluster,
                    RunOptions::new(),
                    &mut CaPqPolicy::new(h, gate),
                    &mut NaiveCaPqPolicy::new(h, gate),
                );
            }
        }
    }
}

#[test]
fn capq_matches_rescan_under_faults() {
    for (pi, population) in POPULATIONS.into_iter().enumerate() {
        let inst = instance(550 + pi as u64, 300, 8.0, population, false);
        let gate = inst.stats().max_release;
        let plan = faults(55 + pi as u64, &inst);
        for (name, cluster) in clusters() {
            for restart in RESTARTS {
                let options = RunOptions::new().with_faults(&plan).with_restart(restart);
                let (out, _) = same(
                    &format!("CA-PQ-WSJF faults {restart:?} {population:?} {name}"),
                    &inst,
                    &cluster,
                    options,
                    &mut CaPqPolicy::new(SortHeuristic::Wsjf, gate),
                    &mut NaiveCaPqPolicy::new(SortHeuristic::Wsjf, gate),
                );
                assert!(out.log.total_kills() > 0 && !out.log.recoveries.is_empty());
            }
        }
    }
}

#[test]
fn bfexec_matches_rescan() {
    for (pi, population) in POPULATIONS.into_iter().enumerate() {
        let inst = instance(600 + pi as u64, 400, 8.0, population, false);
        for (name, cluster) in clusters() {
            same(
                &format!("BF-EXEC {population:?} {name}"),
                &inst,
                &cluster,
                RunOptions::new(),
                &mut BfExecPolicy::new(),
                &mut NaiveBfExecPolicy::new(),
            );
        }
        let deep = instance(650 + pi as u64, 2_000, 16.0, population, false);
        let label = format!("BF-EXEC n=2000 {population:?} uniform");
        let (_, depth) = same(
            &label,
            &deep,
            &ClusterSpec::uniform(MACHINES),
            RunOptions::new(),
            &mut BfExecPolicy::new(),
            &mut NaiveBfExecPolicy::new(),
        );
        assert!(depth >= 500, "{label}: queue only reached {depth}");
    }
}

#[test]
fn bfexec_matches_rescan_on_chains_and_under_faults() {
    for (pi, population) in POPULATIONS.into_iter().enumerate() {
        let inst = instance(700 + pi as u64, 400, 8.0, population, true);
        let plan = faults(70 + pi as u64, &inst);
        for (name, cluster) in clusters() {
            same(
                &format!("BF-EXEC chains {population:?} {name}"),
                &inst,
                &cluster,
                RunOptions::new(),
                &mut BfExecPolicy::new(),
                &mut NaiveBfExecPolicy::new(),
            );
            for restart in RESTARTS {
                let options = RunOptions::new().with_faults(&plan).with_restart(restart);
                let (out, _) = same(
                    &format!("BF-EXEC chains faults {restart:?} {population:?} {name}"),
                    &inst,
                    &cluster,
                    options,
                    &mut BfExecPolicy::new(),
                    &mut NaiveBfExecPolicy::new(),
                );
                assert!(out.log.total_kills() > 0 && !out.log.recoveries.is_empty());
            }
        }
    }
}

#[test]
fn optimized_matches_naive_on_pseudorandom_instances() {
    let mut state = 0x9E3779B97F4A7C15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for trial in 0..40 {
        let n = 5 + (next() % 40) as usize;
        let jobs: Vec<Job> = (0..n)
            .map(|_| {
                Job::from_fractions(
                    JobId(0),
                    (next() % 20) as f64 * 0.5,
                    1.0 + (next() % 8) as f64,
                    1.0 + (next() % 3) as f64,
                    &[(next() % 100) as f64 / 100.0, (next() % 100) as f64 / 100.0],
                )
            })
            .collect();
        let instance = Instance::from_unnumbered(jobs, 2).unwrap();
        for heuristic in SortHeuristic::ALL_EXTENDED {
            let machines = 1 + (trial % 3);
            let fast = run_online(&instance, machines, &mut PqPolicy::new(heuristic)).unwrap();
            let slow = run_online(&instance, machines, &mut NaivePqPolicy::new(heuristic)).unwrap();
            assert_eq!(fast, slow, "trial {trial} heuristic {heuristic}");
            fast.validate(&instance).unwrap();
        }
    }
}
