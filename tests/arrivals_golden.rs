//! Golden for the synthetic arrival processes: the releases they draw over
//! Azure-derived job shapes, and the rate `poisson_rate_for_utilization`
//! picks for a target load, pinned bit for bit.
//!
//! Every open-loop workload in the repository (the CLI's `loadgen`, the
//! overload and deep-queue goldens, the TCP suites) builds its releases this
//! way, so a change to the draw, its seed stream or its id order moves one
//! of these hashes before it moves any schedule.

use std::num::NonZeroUsize;

use mris::trace::{poisson_rate_for_utilization, Arrivals, AzureTrace, AzureTraceConfig};
use mris::types::Instance;
use mris_rng::fnv1a;

const MACHINES: usize = 8;
const JOBS: usize = 1_000;

/// FNV-1a over every job field of the instance, in job order (the field
/// order of `crates/trace/tests/determinism.rs`).
fn instance_fingerprint(instance: &Instance) -> u64 {
    let mut bytes = Vec::with_capacity(instance.len() * 8 * 8);
    bytes.extend_from_slice(&(instance.len() as u64).to_le_bytes());
    bytes.extend_from_slice(&(instance.num_resources() as u64).to_le_bytes());
    for job in instance.jobs() {
        bytes.extend_from_slice(&job.id.0.to_le_bytes());
        bytes.extend_from_slice(&job.release.to_bits().to_le_bytes());
        bytes.extend_from_slice(&job.proc_time.to_bits().to_le_bytes());
        bytes.extend_from_slice(&job.weight.to_bits().to_le_bytes());
        for &d in job.demands.iter() {
            bytes.extend_from_slice(&d.to_le_bytes());
        }
    }
    fnv1a(&bytes)
}

fn shapes(seed: u64) -> Instance {
    AzureTrace::generate(&AzureTraceConfig {
        num_jobs: JOBS,
        seed,
        ..Default::default()
    })
    .sample_instance(1, 0)
}

/// `(seed, load, rate bits, instance fingerprint)`: the Poisson rate that
/// puts `MACHINES` machines at `load`, and the instance it draws.
const POISSON: [(u64, f64, u64, u64); 4] = [
    (13, 1.0, 0x3f6d_6cb5_6b2a_2f40, 0x321a_784c_1416_1c13),
    (13, 16.0, 0x3fad_6cb5_6b2a_2f40, 0xfa56_cbcf_6384_8f54),
    (29, 1.0, 0x3f80_0774_b107_8e5f, 0x2cbe_fe8d_9453_8f75),
    (29, 16.0, 0x3fc0_0774_b107_8e5f, 0x0d30_9951_9e7a_14f5),
];

#[test]
fn poisson_rates_and_releases_are_pinned() {
    let mut seen = Vec::new();
    for (seed, load, _, _) in POISSON {
        let shapes = shapes(seed);
        let rate = poisson_rate_for_utilization(&shapes, MACHINES, load);
        let instance = Arrivals::Poisson { rate }.rewrite(&shapes, seed).unwrap();
        assert_eq!(instance.len(), JOBS);
        seen.push((seed, load, rate.to_bits(), instance_fingerprint(&instance)));
    }
    assert_eq!(seen, POISSON, "a Poisson rate or release drifted");
}

/// `(seed, instance fingerprint)` of seven jobs every 2.5 time units.
const BURSTS: [(u64, u64); 2] = [(13, 0xc296_72d1_62fd_896a), (29, 0xc268_5f07_c307_3990)];

#[test]
fn burst_releases_are_pinned() {
    let seen: Vec<(u64, u64)> = BURSTS
        .iter()
        .map(|&(seed, _)| {
            let size = NonZeroUsize::new(7).unwrap();
            let bursts = Arrivals::Bursts { period: 2.5, size };
            let instance = bursts.rewrite(&shapes(seed), seed).unwrap();
            (seed, instance_fingerprint(&instance))
        })
        .collect();
    assert_eq!(seen, BURSTS, "a burst release drifted");
}
