//! Input generation. The program only ever receives the finished
//! [`Instance`]; release times are fixed here, up front, so every arrival
//! process is open-loop in simulated time.
//!
//! The job *shapes* (processing time, weight, demand vector) of a workload
//! are one fixed population: the Azure-like trace generator at its default
//! seed. `--seed` decides which shape arrives when — a permutation of the
//! population and the exponential gaps for the Poisson workloads; for
//! `dag_related` only a small jitter of the trace's own release times. The
//! trace generator draws its VM catalog and its heavy-tailed durations
//! from the seed too, so seeding it directly moves AWCT by ±25% and the
//! work per run by ±15% from one seed to the next; with the population
//! fixed, seeds differ by about 1%.

use mris_rng::Rng;
use mris_service::poisson_rate_for_utilization;
use mris_trace::{AzureTrace, AzureTraceConfig};
use mris_types::{ClusterSpec, Instance, InstanceBuilder, Job, JobId};

use crate::spec::{WorkloadSpec, DAG_CHAIN, DAG_SPEEDS};

/// The first `num_jobs / factor` shapes of the fixed population, releases
/// included, sorted by release.
fn population(num_jobs: usize, factor: usize) -> Instance {
    AzureTrace::generate(&AzureTraceConfig {
        num_jobs,
        ..AzureTraceConfig::default()
    })
    .sample_instance(factor, 0)
}

/// A seeded permutation of `0..n` (Fisher–Yates).
fn permutation(n: usize, rng: &mut Rng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.gen_range(0..i + 1));
    }
    order
}

/// `n` independent jobs arriving as a Poisson process at nominal load
/// `spec.load` on `spec.machines` machines.
pub fn poisson_instance(spec: &WorkloadSpec, n: usize, seed: u64) -> Instance {
    let shapes = population(n, 1);
    let rate = poisson_rate_for_utilization(&shapes, spec.machines, spec.load);
    let root = Rng::new(seed);
    let order = permutation(n, &mut root.substream("benchmark-order"));
    let mut gaps = root.substream("benchmark-arrivals");
    let mut release = 0.0_f64;
    let jobs = order
        .iter()
        .enumerate()
        .map(|(i, &k)| {
            let shape = &shapes.jobs()[k];
            // Exponential gap, the draw idiom of `generate_workload`.
            release += -(1.0 - gaps.gen_f64()).ln() / rate;
            Job {
                id: JobId(i as u32),
                release,
                proc_time: shape.proc_time,
                weight: shape.weight,
                demands: shape.demands.clone(),
            }
        })
        .collect();
    Instance::new(jobs, shapes.num_resources()).expect("permuted shapes stay valid")
}

/// Share of a release time the seed may move it by, either way.
const DAG_JITTER: f64 = 0.005;

/// `n` jobs of the trace in its own order (every second request of a `2n`
/// trace) in disjoint chains of [`DAG_CHAIN`] consecutive ids, and the
/// related-machine cluster they run on. The seed only jitters the native
/// release times by ±[`DAG_JITTER`]: MRIS's makespan on chains sits on its
/// geometric grid, and moving shapes between slots — even within a chain —
/// flips it between 2^24 and 2^25 from one seed to the next.
pub fn dag_instance(spec: &WorkloadSpec, n: usize, seed: u64) -> (Instance, ClusterSpec) {
    let base = population(2 * n, 2);
    let mut jitter = Rng::new(seed).substream("benchmark-arrivals");
    let mut b = InstanceBuilder::new(base.num_resources());
    for job in base.jobs() {
        b.push(Job {
            release: job.release * (1.0 + DAG_JITTER * (2.0 * jitter.gen_f64() - 1.0)),
            ..job.clone()
        });
    }
    for i in 0..base.len().saturating_sub(1) {
        if i % DAG_CHAIN != DAG_CHAIN - 1 {
            b.edge(JobId(i as u32), JobId(i as u32 + 1));
        }
    }
    let speeds: Vec<f64> = (0..spec.machines)
        .map(|m| DAG_SPEEDS[m % DAG_SPEEDS.len()])
        .collect();
    (
        b.build().expect("forward chains are acyclic"),
        ClusterSpec::related(spec.machines, &speeds),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;

    #[test]
    fn same_seed_same_inputs_and_seeds_share_one_population() {
        let spec = spec::workload("steady").unwrap();
        let a = poisson_instance(spec, 400, 11);
        assert_eq!(a, poisson_instance(spec, 400, 11));
        let b = poisson_instance(spec, 400, 12);
        assert_ne!(a, b);
        let work = |i: &Instance| {
            let mut p: Vec<u64> = i.jobs().iter().map(|j| j.proc_time.to_bits()).collect();
            p.sort_unstable();
            p
        };
        assert_eq!(work(&a), work(&b));
        assert!(a.jobs().windows(2).all(|w| w[0].release <= w[1].release));
    }

    #[test]
    fn dag_instance_has_chains_and_related_speeds() {
        let spec = spec::workload("dag_related").unwrap();
        let (instance, cluster) = dag_instance(spec, 400, 11);
        assert_eq!(instance.len(), 400);
        assert_eq!(instance.edges().len(), 300);
        assert_eq!(cluster.len(), 6);
        assert!(!cluster.is_uniform());
        assert_eq!(dag_instance(spec, 400, 11).0, instance);
    }
}
