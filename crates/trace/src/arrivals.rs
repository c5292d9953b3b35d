//! Synthetic arrival processes for open-loop workloads: an [`Arrivals`]
//! process redraws only the release times of an already-sampled instance
//! (usually [`crate::AzureTrace`]'s), so an experiment sets its offered load
//! independently of the job shapes. The same shapes, process and seed always
//! give the same instance.

use std::num::NonZeroUsize;

use mris_rng::Rng;
use mris_types::{fraction, Instance, InstanceError, Job, JobId, Time};

/// How [`Arrivals::rewrite`] draws release times. A release that is not
/// finite and non-negative makes the rewrite fail: from a zero, negative or
/// NaN rate, a rate small enough to overflow, or a non-finite period.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrivals {
    /// Exponential interarrival times with the given mean rate
    /// (jobs per normalized time unit).
    Poisson {
        /// Mean arrival rate.
        rate: f64,
    },
    /// `size` jobs arrive together every `period` time units, starting at 0.
    Bursts {
        /// Spacing between bursts.
        period: Time,
        /// Jobs per burst.
        size: NonZeroUsize,
    },
}

impl Arrivals {
    /// The jobs of `shapes` in id order with their releases redrawn by this
    /// process; everything else about a job is kept. The Poisson draw
    /// comes from `seed`'s `"loadgen-arrivals"` sub-stream.
    pub fn rewrite(self, shapes: &Instance, seed: u64) -> Result<Instance, InstanceError> {
        let mut arrival_rng = Rng::new(seed).substream("loadgen-arrivals");
        let mut t = 0.0_f64;
        let jobs: Vec<Job> = shapes
            .jobs()
            .iter()
            .enumerate()
            .map(|(i, shape)| {
                let release = match self {
                    Arrivals::Poisson { rate } => {
                        // Exponential interarrival, same draw idiom as the
                        // fault-plan generators.
                        t += -(1.0 - arrival_rng.gen_f64()).ln() / rate;
                        t
                    }
                    Arrivals::Bursts { period, size } => (i / size.get()) as f64 * period,
                };
                Job {
                    id: JobId(i as u32),
                    release,
                    ..shape.clone()
                }
            })
            .collect();
        Instance::new(jobs, shapes.num_resources())
    }
}

/// A Poisson rate putting the cluster's bottleneck resource at `utilization`
/// under the shape distribution of `instance`: offered volume per time unit
/// equals `utilization * num_machines` times one machine's capacity of the
/// most-demanded resource. Returns at least `f64::MIN_POSITIVE` so the
/// result is always a valid [`Arrivals::Poisson`] rate.
pub fn poisson_rate_for_utilization(
    instance: &Instance,
    num_machines: usize,
    utilization: f64,
) -> f64 {
    assert!(
        utilization.is_finite() && utilization > 0.0,
        "utilization must be finite and positive, got {utilization}"
    );
    if instance.is_empty() {
        return 1.0;
    }
    // Mean per-job load on the bottleneck resource: p_j * max_l d_jl.
    let mean_load: f64 = instance
        .jobs()
        .iter()
        .map(|j| {
            let peak = j.demands.iter().copied().max().unwrap_or(0);
            j.proc_time * fraction(peak)
        })
        .sum::<f64>()
        / instance.len() as f64;
    if mean_load <= 0.0 {
        return 1.0;
    }
    (utilization * num_machines as f64 / mean_load).max(f64::MIN_POSITIVE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AzureTrace, AzureTraceConfig};

    #[test]
    fn processes_place_releases_as_declared() {
        let shapes = AzureTrace::generate(&AzureTraceConfig {
            num_jobs: 103,
            seed: 3,
            ..Default::default()
        })
        .sample_instance(1, 0);
        let size = NonZeroUsize::new(10).unwrap();
        let bursts = Arrivals::Bursts { period: 2.5, size };
        let bursts = bursts.rewrite(&shapes, 1).unwrap();
        // Ten jobs at each of 0, 2.5, ..., 22.5, then the last three at 25.
        for k in 0..=10 {
            let at = bursts.jobs().iter().filter(|j| j.release == k as f64 * 2.5);
            assert_eq!(at.count(), if k < 10 { 10 } else { 3 }, "burst {k}");
        }
        let poisson = Arrivals::Poisson { rate: 4.0 }.rewrite(&shapes, 1).unwrap();
        let releases: Vec<Time> = poisson.jobs().iter().map(|j| j.release).collect();
        assert!(releases.iter().all(|r| r.is_finite()));
        assert!(releases.windows(2).all(|w| w[0] <= w[1]));
    }
}
