//! Synthetic adversarial instances from the paper: the Lemma 4.1 lower-bound
//! family and the Figure 7 "exercising patience" scenario.

use mris_rng::Rng;
use mris_types::{Instance, Job, JobId};

/// The Lemma 4.1 adversarial family on one machine: job 0 is released at
/// time zero with demand **one for every resource** and processing time
/// `p = n` (the choice that makes the PQ ratio `Omega(N)`); the remaining
/// `n - 1` jobs are released at `release_eps > 0` with demand `1/(n - 1)`
/// per resource and unit processing time. All weights are one.
///
/// Any PQ-class algorithm starts job 0 immediately and forces every small
/// job to wait `p` time units; the optimal schedule runs the small jobs
/// first.
pub fn lemma41_instance(n: usize, num_resources: usize, release_eps: f64) -> Instance {
    assert!(n >= 2 && num_resources >= 1 && release_eps > 0.0);
    let p = n as f64;
    let small_demand = 1.0 / (n - 1) as f64;
    let full = vec![1.0; num_resources];
    let small = vec![small_demand; num_resources];
    let mut jobs = vec![Job::from_fractions(JobId(0), 0.0, p, 1.0, &full)];
    for _ in 1..n {
        jobs.push(Job::from_fractions(JobId(0), release_eps, 1.0, 1.0, &small));
    }
    Instance::from_unnumbered(jobs, num_resources).expect("lemma 4.1 jobs are valid")
}

/// The AWCT of the reference schedule from the Lemma 4.1 proof (run all
/// small jobs together at their release, then the big job):
/// `((n-1)(1 + eps) + 1 + eps + p) / n` with `p = n`. This upper-bounds the
/// optimum, so `AWCT(PQ) / lemma41_reference_awct` lower-bounds PQ's
/// competitive ratio.
pub fn lemma41_reference_awct(n: usize, release_eps: f64) -> f64 {
    assert!(n >= 2);
    let p = n as f64;
    let nf = n as f64;
    ((nf - 1.0) * (1.0 + release_eps) + 1.0 + release_eps + p) / nf
}

/// Configuration of the Figure 7 "exercising patience" input.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PatienceConfig {
    /// Number of small jobs (the paper uses "nearly 2500").
    pub num_small: usize,
    /// Number of resource types.
    pub num_resources: usize,
    /// Blocking job's processing time (14 in the paper).
    pub blocker_proc: f64,
    /// RNG seed for the small jobs' randomized sizes and demands.
    pub seed: u64,
}

impl Default for PatienceConfig {
    fn default() -> Self {
        PatienceConfig {
            num_small: 2_500,
            num_resources: 4,
            blocker_proc: 14.0,
            seed: 7,
        }
    }
}

/// The Figure 7 scenario on one machine: one job arrives at time zero
/// consuming the full machine for `blocker_proc` time units; shortly after,
/// `num_small` jobs arrive with random sizes (`p` in `[1, 3]`) and small
/// randomized demands. PQ/Tetris/BF-EXEC commit to the blocker prematurely;
/// MRIS exercises patience and schedules the small jobs first, achieving
/// roughly a third of their AWCT.
pub fn patience_instance(config: &PatienceConfig) -> Instance {
    assert!(config.num_small >= 1 && config.num_resources >= 1 && config.blocker_proc >= 1.0);
    let mut rng = Rng::new(config.seed);
    let full = vec![1.0; config.num_resources];
    let mut jobs = vec![Job::from_fractions(
        JobId(0),
        0.0,
        config.blocker_proc,
        1.0,
        &full,
    )];
    for _ in 0..config.num_small {
        let release = rng.gen_range(0.05..0.5);
        let proc = rng.gen_range(1.0..3.0);
        // Small enough that the whole small-job population packs into a few
        // early MRIS intervals (as in Lemma 4.1, where the N-1 small jobs
        // run together): the 14-unit blocker delay then dominates the
        // baselines' AWCT, reproducing Figure 7's ~3x gap.
        let demands: Vec<f64> = (0..config.num_resources)
            .map(|_| rng.gen_range(0.0001..0.0005))
            .collect();
        jobs.push(Job::from_fractions(JobId(0), release, proc, 1.0, &demands));
    }
    Instance::from_unnumbered(jobs, config.num_resources).expect("patience jobs are valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lemma41_shape() {
        let inst = lemma41_instance(10, 3, 0.01);
        assert_eq!(inst.len(), 10);
        let blocker = inst.job(JobId(0));
        assert_eq!(blocker.proc_time, 10.0);
        assert!(blocker.demands.iter().all(|&d| d == mris_types::CAPACITY));
        for j in &inst.jobs()[1..] {
            assert_eq!(j.proc_time, 1.0);
            assert_eq!(j.release, 0.01);
        }
        // All small jobs fit together: (n-1) * 1/(n-1) == capacity.
        let total: u64 = inst.jobs()[1..].iter().map(|j| j.demands[0]).sum();
        assert!((total as i64 - mris_types::CAPACITY as i64).abs() <= 9);
    }

    #[test]
    fn reference_awct_formula() {
        // n = 4, eps = 0.5: ((3)(1.5) + 1.5 + 4) / 4 = 10 / 4.
        assert!((lemma41_reference_awct(4, 0.5) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn patience_instance_shape() {
        let cfg = PatienceConfig {
            num_small: 100,
            ..Default::default()
        };
        let inst = patience_instance(&cfg);
        assert_eq!(inst.len(), 101);
        assert_eq!(inst.job(JobId(0)).proc_time, 14.0);
        for j in &inst.jobs()[1..] {
            assert!(j.release > 0.0 && j.release < 0.5);
            assert!((1.0..=3.0).contains(&j.proc_time));
            assert!(j.total_demand_frac() < 0.03);
        }
    }

    #[test]
    fn patience_deterministic() {
        let cfg = PatienceConfig::default();
        assert_eq!(patience_instance(&cfg), patience_instance(&cfg));
    }
}
