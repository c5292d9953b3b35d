//! Shared experiment plumbing for the figure binaries and benches.

use mris_metrics::Summary;
use mris_schedulers::Scheduler;
use mris_trace::{AzureTrace, AzureTraceConfig};
use mris_types::Instance;

use crate::Args;

/// A generated base trace plus the Section 7.1 downsampling protocol: for a
/// target of `n` jobs, the factor is `base_len / n` and `samples` offsets
/// are drawn without replacement.
pub struct TracePool {
    trace: AzureTrace,
    sample_seed: u64,
}

impl TracePool {
    /// Generates a base trace of `base_jobs` requests.
    pub fn new(base_jobs: usize, seed: u64) -> Self {
        let trace = AzureTrace::generate(&AzureTraceConfig {
            num_jobs: base_jobs,
            seed,
            ..Default::default()
        });
        TracePool {
            trace,
            sample_seed: seed ^ 0x5EED,
        }
    }

    /// The underlying base trace.
    pub fn trace(&self) -> &AzureTrace {
        &self.trace
    }

    /// `samples` downsampled instances of ~`n` jobs each (fewer samples if
    /// the downsampling factor is smaller than `samples`).
    pub fn instances_for(&self, n: usize, samples: usize) -> Vec<Instance> {
        let factor = (self.trace.len() / n).max(1);
        self.trace
            .sample_instances(factor, samples.min(factor), self.sample_seed)
    }
}

/// The standard experiment scale, derived from command-line flags.
///
/// Defaults target a single-core machine: `N` up to 16000 on `M = 5`
/// machines — the paper's jobs-per-machine load (64000 / 20 = 3200) at a
/// quarter of the size. `--paper` restores the paper's full scale.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Job-count sweep for Figures 1-3.
    pub n_sweep: Vec<usize>,
    /// Fixed job count for Figures 4-6.
    pub n_fixed: usize,
    /// Machine count (Figures 1-3, 5, 6).
    pub machines: usize,
    /// Sampled job sets per data point.
    pub samples: usize,
    /// Base-trace size (downsampling source).
    pub base_jobs: usize,
    /// Base-trace seed.
    pub seed: u64,
    /// Emit CSV instead of markdown.
    pub csv: bool,
}

impl Scale {
    /// Reads the scale from flags: `--paper`, `--samples`, `--machines`,
    /// `--n`, `--sweep a,b,c`, `--seed`, `--csv`.
    pub fn from_args(args: &Args) -> Self {
        let paper = args.has("paper");
        let (default_sweep, default_n, default_m): (&[usize], usize, usize) = if paper {
            (&[4_000, 8_000, 16_000, 32_000, 64_000], 64_000, 20)
        } else {
            (&[500, 1_000, 2_000, 4_000, 8_000, 16_000], 16_000, 5)
        };
        let n_sweep = args.get_list("sweep", default_sweep);
        let n_fixed = args.get("n", default_n);
        let samples = args.get("samples", 10usize);
        let max_n = n_sweep.iter().copied().max().unwrap_or(0).max(n_fixed);
        Scale {
            n_sweep,
            n_fixed,
            machines: args.get("machines", default_m),
            samples,
            // Enough base jobs that even the largest N has >= samples offsets.
            base_jobs: max_n * samples.max(16),
            seed: args.get("seed", 0xA2u64),
            csv: args.has("csv"),
        }
    }

    /// Prints a table in the format selected by `--csv`.
    pub fn print_table(&self, table: &mris_metrics::Table) {
        if self.csv {
            print!("{}", table.to_csv());
        } else {
            print!("{}", table.to_markdown());
        }
    }
}

/// Runs every algorithm over every instance and summarizes AWCT
/// (validating each schedule in debug builds).
pub fn awct_summaries(
    algorithms: &[Box<dyn Scheduler>],
    instances: &[Instance],
    machines: usize,
) -> Vec<(String, Summary)> {
    algorithms
        .iter()
        .map(|algo| {
            let awcts: Vec<f64> = instances
                .iter()
                .map(|instance| {
                    let schedule = algo.schedule(instance, machines);
                    debug_assert!(schedule.validate(instance).is_ok());
                    schedule.awct(instance)
                })
                .collect();
            (algo.name(), Summary::of(&awcts))
        })
        .collect()
}

/// The Figure 3/4 comparison set: MRIS, PQ-WSJF, PQ-WSVF, Tetris, BF-EXEC,
/// CA-PQ. Delegates to [`mris_core::registry`], the single source of truth
/// for name → scheduler resolution.
pub fn comparison_algorithms() -> Vec<Box<dyn Scheduler>> {
    mris_core::registry::comparison_algorithms()
}

/// Builds the standard trace pool for a scale.
pub fn default_trace(scale: &Scale) -> TracePool {
    TracePool::new(scale.base_jobs, scale.seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_defaults_and_paper_flag() {
        let scale = Scale::from_args(&Args::from_args_iter(Vec::<String>::new()));
        assert_eq!(scale.machines, 5);
        assert_eq!(scale.n_fixed, 16_000);
        let paper = Scale::from_args(&Args::from_args_iter(["--paper".to_string()]));
        assert_eq!(paper.machines, 20);
        assert_eq!(paper.n_fixed, 64_000);
        assert!(paper.base_jobs >= 64_000 * 10);
    }

    #[test]
    fn trace_pool_downsamples_to_target() {
        let pool = TracePool::new(4_000, 1);
        let instances = pool.instances_for(500, 4);
        assert_eq!(instances.len(), 4);
        for inst in &instances {
            assert!((500..=501).contains(&inst.len()), "{}", inst.len());
        }
    }

    #[test]
    fn awct_summaries_run_all_algorithms() {
        let pool = TracePool::new(2_000, 2);
        let instances = pool.instances_for(200, 2);
        let algos = comparison_algorithms();
        let rows = awct_summaries(&algos, &instances, 3);
        assert_eq!(rows.len(), algos.len());
        for (name, summary) in rows {
            assert!(summary.mean > 0.0, "{name}");
        }
    }
}
