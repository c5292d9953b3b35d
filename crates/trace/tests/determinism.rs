//! Bit-reproducibility guarantees of the trace generator.
//!
//! The golden hash pins the exact output of a small fixed-seed Azure-like
//! instance. If an intentional change to the generator or the RNG alters
//! the stream, update `GOLDEN_HASH` in the same PR and call the change out
//! in the review — silent drift is exactly what this test exists to catch.

use mris_rng::fnv1a;
use mris_trace::{AzureTrace, AzureTraceConfig};
use mris_types::Instance;

/// FNV-1a over every job field of the instance, in job order.
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

fn small_trace(seed: u64) -> Instance {
    let trace = AzureTrace::generate(&AzureTraceConfig {
        num_jobs: 1_600,
        window_days: 2.0,
        seed,
        priority_levels: 3,
    });
    // factor 8 at offset 0: 200 jobs, the paper's downsampling protocol.
    trace.sample_instance(8, 0)
}

/// Pinned fingerprint of `small_trace(0xD5EED)`; see module docs.
const GOLDEN_SEED: u64 = 0xD5EED;
const GOLDEN_HASH: u64 = 0x66b2_17ac_70a6_5b07;

#[test]
fn fixed_seed_trace_matches_golden_hash() {
    let instance = small_trace(GOLDEN_SEED);
    assert_eq!(instance.len(), 200);
    let hash = instance_fingerprint(&instance);
    assert_eq!(
        hash, GOLDEN_HASH,
        "trace generator output drifted: fingerprint {hash:#018x}, \
         expected {GOLDEN_HASH:#018x}"
    );
}

#[test]
fn same_seed_generations_are_identical() {
    assert_eq!(small_trace(123), small_trace(123));
}

#[test]
fn different_seeds_differ() {
    assert_ne!(small_trace(123), small_trace(124));
    assert_ne!(
        instance_fingerprint(&small_trace(123)),
        instance_fingerprint(&small_trace(124))
    );
}
