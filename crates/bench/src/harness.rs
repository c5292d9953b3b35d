//! The base trace the figures downsample their job sets from.

use mris_trace::{AzureTrace, AzureTraceConfig};
use mris_types::Instance;

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

    /// `samples` downsampled instances of ~`n` jobs each (fewer samples if
    /// the downsampling factor is smaller than `samples`).
    pub fn instances_for(&self, n: usize, samples: usize) -> Vec<Instance> {
        let factor = (self.trace.len() / n).max(1);
        self.trace
            .sample_instances(factor, samples.min(factor), self.sample_seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_pool_downsamples_to_target() {
        let pool = TracePool::new(4_000, 1);
        let instances = pool.instances_for(500, 4);
        assert_eq!(instances.len(), 4);
        for inst in &instances {
            assert!((500..=501).contains(&inst.len()), "{}", inst.len());
        }
    }
}
