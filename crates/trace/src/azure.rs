//! Synthetic Azure-like VM request trace (substitute for the Microsoft
//! Azure packing trace; see DESIGN.md for the substitution rationale).

use mris_rng::Rng;
use mris_types::{Instance, Job, JobId};

/// Raw resource indices before the SSD/HDD merge.
pub(crate) const CPU: usize = 0;
pub(crate) const MEM: usize = 1;
pub(crate) const HDD: usize = 2;
pub(crate) const SSD: usize = 3;
pub(crate) const NET: usize = 4;
/// Number of raw resources in the generated catalog.
pub(crate) const RAW_RESOURCES: usize = 5;

const SECONDS_PER_DAY: f64 = 86_400.0;
const MAX_DURATION: f64 = 90.0 * SECONDS_PER_DAY;
const MIN_DURATION: f64 = 5.0;

/// One VM type: a name and its demand as a fraction of a machine's capacity
/// for each raw resource. Following the Azure trace's structure, a type
/// demands SSD or HDD but never both.
#[derive(Debug, Clone, PartialEq)]
pub struct VmType {
    /// Family/size label, e.g. `"compute-x4"`.
    pub name: String,
    /// Fractional demand per raw resource (CPU, MEM, HDD, SSD, NET).
    pub demands: [f64; RAW_RESOURCES],
    /// Relative request frequency (smaller sizes are more popular).
    pub popularity: f64,
}

/// A catalog of VM types with demands already resolved against sampled
/// machine types (the paper "randomly samples a machine type for each VM
/// type" because no single Azure machine type hosts every VM type).
#[derive(Debug, Clone, PartialEq)]
pub struct VmCatalog {
    types: Vec<VmType>,
}

/// VM families: (label, cpu, mem, storage, net, uses_hdd) demand fractions
/// of a reference machine at size x1.
const FAMILIES: [(&str, f64, f64, f64, f64, bool); 5] = [
    ("general", 0.030, 0.030, 0.020, 0.030, false),
    ("compute", 0.060, 0.020, 0.015, 0.040, false),
    ("memory", 0.030, 0.080, 0.020, 0.030, false),
    ("storage", 0.020, 0.030, 0.100, 0.050, true),
    ("burst", 0.008, 0.010, 0.005, 0.010, false),
];

/// Size multipliers within each family (powers of two, like cloud SKUs).
const SIZES: [f64; 6] = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0];

impl VmCatalog {
    /// Builds the catalog, sampling one machine-type scaling factor per VM
    /// type and resource (heterogeneity across the catalog) — 30 types in
    /// total (5 families x 6 sizes).
    pub fn sample(rng: &mut Rng) -> Self {
        let mut types = Vec::new();
        for (family, cpu, mem, storage, net, uses_hdd) in FAMILIES {
            for (si, &size) in SIZES.iter().enumerate() {
                // Per-(type, resource) machine heterogeneity factor.
                let mut factor = || rng.gen_range(0.7..1.4);
                let mut demands = [0.0; RAW_RESOURCES];
                demands[CPU] = (cpu * size * factor()).min(1.0);
                demands[MEM] = (mem * size * factor()).min(1.0);
                let st = (storage * size * factor()).min(1.0);
                if uses_hdd {
                    demands[HDD] = st;
                } else {
                    demands[SSD] = st;
                }
                demands[NET] = (net * size * factor()).min(1.0);
                types.push(VmType {
                    name: format!("{family}-x{size}"),
                    demands,
                    // Popularity decays with size: small VMs dominate real
                    // traces.
                    popularity: 1.0 / (si + 1) as f64,
                });
            }
        }
        VmCatalog { types }
    }

    /// The catalog entries.
    pub fn types(&self) -> &[VmType] {
        &self.types
    }
}

/// Configuration of the synthetic trace generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AzureTraceConfig {
    /// Number of base-trace jobs to generate (the paper uses the first
    /// 4 096 000 requests; generate `N * f` to downsample to `N`).
    pub num_jobs: usize,
    /// Release window length in days (the paper's 4.096M jobs span ~12.5
    /// days).
    pub window_days: f64,
    /// RNG seed: the full pipeline is deterministic given the seed.
    pub seed: u64,
    /// Number of priority levels; priorities `0..levels` map to weights
    /// `1..=levels`. The Azure trace has a small priority range.
    pub priority_levels: u8,
}

impl Default for AzureTraceConfig {
    fn default() -> Self {
        AzureTraceConfig {
            num_jobs: 256_000,
            window_days: 12.5,
            seed: 0xA207_2024,
            priority_levels: 3,
        }
    }
}

/// One base-trace request, kept compact so multi-million-job base traces
/// stay cheap; demands are materialized from the catalog at sampling time.
#[derive(Debug, Clone, Copy)]
struct BaseJob {
    release: f64,
    duration: f64,
    priority: u8,
    vm: u16,
}

/// The generated base trace: requests sorted by release time, plus the VM
/// catalog they reference.
#[derive(Debug, Clone)]
pub struct AzureTrace {
    catalog: VmCatalog,
    jobs: Vec<BaseJob>,
    window_seconds: f64,
}

/// Duration mixture components: (probability, median seconds, log-sigma).
/// Spans "a few seconds to 90 days" like the real trace.
const DURATION_MIX: [(f64, f64, f64); 4] = [
    (0.40, 300.0, 1.0),     // minutes-scale
    (0.35, 7_200.0, 0.8),   // hours-scale
    (0.18, 86_400.0, 0.7),  // day-scale
    (0.07, 604_800.0, 0.9), // weeks-scale
];

impl AzureTrace {
    /// Generates the base trace: `num_jobs` requests with diurnal Poisson-
    /// like arrivals over the window, mixture-lognormal durations clamped to
    /// `[5 s, 90 days]`, catalog-sampled demands, and priority weights.
    ///
    /// Each generator section (catalog, arrivals, durations, VM choice,
    /// priorities) draws from its own seed-derived sub-stream, so changing
    /// how many values one section consumes cannot shift any other
    /// section's output.
    pub fn generate(config: &AzureTraceConfig) -> Self {
        assert!(config.window_days > 0.0 && config.priority_levels >= 1);
        let root = Rng::new(config.seed);
        let catalog = VmCatalog::sample(&mut root.substream("catalog"));
        let window_seconds = config.window_days * SECONDS_PER_DAY;
        let popularity: Vec<f64> = catalog.types.iter().map(|t| t.popularity).collect();
        let mix_weights: Vec<f64> = DURATION_MIX.iter().map(|c| c.0).collect();
        // Priority distribution: low priorities most common.
        let prio_weights: Vec<f64> = (0..config.priority_levels)
            .map(|p| 1.0 / (1.0 + p as f64))
            .collect();

        let mut arrival_rng = root.substream("arrivals");
        let mut duration_rng = root.substream("durations");
        let mut vm_rng = root.substream("vm-types");
        let mut prio_rng = root.substream("priorities");
        let mut jobs = Vec::with_capacity(config.num_jobs);
        for _ in 0..config.num_jobs {
            let release = sample_diurnal_arrival(&mut arrival_rng, window_seconds, 0.35);
            let comp = DURATION_MIX[duration_rng.weighted_choice(&mix_weights)];
            let duration = duration_rng
                .lognormal(comp.1.ln(), comp.2)
                .clamp(MIN_DURATION, MAX_DURATION);
            let vm = vm_rng.weighted_choice(&popularity) as u16;
            let priority = prio_rng.weighted_choice(&prio_weights) as u8;
            jobs.push(BaseJob {
                release,
                duration,
                priority,
                vm,
            });
        }
        jobs.sort_by(|a, b| a.release.total_cmp(&b.release));
        AzureTrace {
            catalog,
            jobs,
            window_seconds,
        }
    }

    /// Number of base-trace requests.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the base trace is empty.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// The VM catalog backing the trace.
    pub fn catalog(&self) -> &VmCatalog {
        &self.catalog
    }

    /// The release window in seconds.
    pub fn window_seconds(&self) -> f64 {
        self.window_seconds
    }

    /// Downsamples the base trace per Section 7.1: keep every `factor`-th
    /// request starting at offset `delta` (`delta < factor`), merge SSD and
    /// HDD into one storage resource (R = 4), and normalize times by the
    /// minimum processing time so `p_j >= 1`.
    pub fn sample_instance(&self, factor: usize, delta: usize) -> Instance {
        assert!(factor >= 1 && delta < factor);
        let mut jobs = Vec::with_capacity(self.jobs.len() / factor + 1);
        let mut idx = delta;
        while idx < self.jobs.len() {
            let base = &self.jobs[idx];
            let vm = &self.catalog.types[base.vm as usize];
            let demands = [
                vm.demands[CPU],
                vm.demands[MEM],
                vm.demands[HDD] + vm.demands[SSD],
                vm.demands[NET],
            ];
            jobs.push(Job::from_fractions(
                JobId(0),
                base.release,
                base.duration,
                (base.priority + 1) as f64,
                &demands,
            ));
            idx += factor;
        }
        let instance = Instance::from_unnumbered(jobs, 4).expect("generated jobs are valid");
        instance.normalize().0
    }

    /// Draws `count` instances at distinct offsets (without replacement,
    /// uniformly from `[0, factor)`), the paper's protocol for confidence
    /// intervals. `count` must be at most `factor`.
    pub fn sample_instances(&self, factor: usize, count: usize, seed: u64) -> Vec<Instance> {
        assert!(count <= factor, "need count <= factor distinct offsets");
        let mut rng = Rng::new(seed);
        let mut offsets: Vec<usize> = (0..factor).collect();
        // Partial Fisher-Yates: the first `count` entries become the sample.
        for i in 0..count {
            let j = rng.gen_range(i..factor);
            offsets.swap(i, j);
        }
        offsets[..count]
            .iter()
            .map(|&delta| self.sample_instance(factor, delta))
            .collect()
    }
}

/// One arrival time in `[0, window)` with a diurnal intensity
/// `1 + amplitude * sin(2 pi t / day)` via rejection sampling.
fn sample_diurnal_arrival(rng: &mut Rng, window: f64, amplitude: f64) -> f64 {
    debug_assert!((0.0..1.0).contains(&amplitude));
    loop {
        let t = rng.gen_f64() * window;
        let intensity = 1.0 + amplitude * (std::f64::consts::TAU * t / SECONDS_PER_DAY).sin();
        if rng.gen_f64() * (1.0 + amplitude) <= intensity {
            return t;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> AzureTraceConfig {
        AzureTraceConfig {
            num_jobs: 4000,
            window_days: 2.0,
            seed: 42,
            priority_levels: 3,
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = AzureTrace::generate(&small_config());
        let b = AzureTrace::generate(&small_config());
        assert_eq!(a.len(), b.len());
        assert_eq!(a.sample_instance(4, 1), b.sample_instance(4, 1));
    }

    #[test]
    fn catalog_types_are_valid() {
        let mut rng = Rng::new(1);
        let catalog = VmCatalog::sample(&mut rng);
        assert_eq!(catalog.types().len(), 30);
        for t in catalog.types() {
            assert!(t.demands.iter().all(|&d| (0.0..=1.0).contains(&d)), "{t:?}");
            // SSD xor HDD (one of them is zero).
            assert!(t.demands[HDD] == 0.0 || t.demands[SSD] == 0.0, "{t:?}");
            assert!(t.demands[CPU] > 0.0);
        }
    }

    #[test]
    fn releases_sorted_within_window() {
        let trace = AzureTrace::generate(&small_config());
        let mut last = 0.0;
        for j in &trace.jobs {
            assert!(j.release >= last && j.release <= trace.window_seconds());
            last = j.release;
            assert!((MIN_DURATION..=MAX_DURATION).contains(&j.duration));
        }
    }

    #[test]
    fn sample_instance_is_normalized_and_merged() {
        let trace = AzureTrace::generate(&small_config());
        let inst = trace.sample_instance(8, 3);
        assert_eq!(inst.num_resources(), 4);
        // ceil((4000 - 3) / 8) jobs survive downsampling at offset 3.
        assert_eq!(inst.len(), 500);
        let stats = inst.stats();
        assert!((stats.min_proc - 1.0).abs() < 1e-9, "normalized min_proc");
        // Wide duration spread survives sampling.
        assert!(stats.max_proc > 50.0);
    }

    #[test]
    fn downsampling_factor_controls_size() {
        let trace = AzureTrace::generate(&small_config());
        let full = trace.sample_instance(1, 0);
        let eighth = trace.sample_instance(8, 0);
        assert_eq!(full.len(), 4000);
        assert_eq!(eighth.len(), 500);
    }

    #[test]
    fn sample_instances_distinct_offsets() {
        let trace = AzureTrace::generate(&small_config());
        let instances = trace.sample_instances(16, 10, 7);
        assert_eq!(instances.len(), 10);
        // Offsets are distinct, so sampled sizes are near-equal but the job
        // multisets differ.
        for w in instances.windows(2) {
            assert_ne!(w[0], w[1]);
        }
    }

    #[test]
    fn priorities_map_to_small_weight_range() {
        let trace = AzureTrace::generate(&small_config());
        let inst = trace.sample_instance(4, 0);
        for j in inst.jobs() {
            assert!((1.0..=3.0).contains(&j.weight));
        }
    }
}
