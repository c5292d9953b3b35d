//! Bit-identity of the redesigned `Scheduler` API on legacy workloads.
//!
//! The `try_schedule_on(instance, &ClusterSpec)` redesign must be a pure
//! generalization: for an **edge-free** instance on a **uniform** cluster,
//! every registered algorithm must produce exactly the schedule the
//! pre-redesign `try_schedule(instance, machines)` path produced — same
//! assignments and the same AWCT down to the last mantissa bit (uniform
//! machines divide by speed 1.0, which is bitwise exact).
//!
//! 48 seeded random cases × 6 algorithms, pinning:
//!
//! 1. `try_schedule_on` with `ClusterSpec::uniform(m)` == `try_schedule`
//!    with `m` (schedule equality);
//! 2. `awct_on` under the uniform spec == plain `awct`, bit for bit;
//! 3. the registry's workload-aware resolver accepts every algorithm for
//!    the edge-free + uniform pair (nothing regresses to Unsupported).

use mris::prelude::*;
use mris::registry::algorithm_by_name;
use mris_rng::Rng;

const ALGORITHMS: [&str; 6] = ["mris", "pq-wsjf", "pq-wsvf", "tetris", "bf-exec", "ca-pq"];
const CASES: usize = 48;

/// A seeded random edge-free instance in the conservativity suite's style.
fn gen_instance(rng: &mut Rng) -> (usize, Instance) {
    let r = rng.gen_range(1..=3usize);
    let n = rng.gen_range(2..=16usize);
    let jobs = (0..n)
        .map(|i| {
            let demands: Vec<f64> = (0..r).map(|_| rng.gen_range(0.05..=1.0)).collect();
            Job::from_fractions(
                JobId(i as u32),
                rng.gen_range(0.0..10.0),
                rng.gen_range(0.5..6.0),
                rng.gen_range(0.0..4.0),
                &demands,
            )
        })
        .collect();
    let machines = rng.gen_range(1..=4usize);
    (
        machines,
        Instance::new(jobs, r).expect("generated jobs are valid"),
    )
}

#[test]
fn uniform_spec_is_bit_identical_to_legacy_path() {
    let mut rng = Rng::new(42).substream("api-bit-identity");
    for case in 0..CASES {
        let (machines, instance) = gen_instance(&mut rng);
        let cluster = ClusterSpec::uniform(machines);
        for name in ALGORITHMS {
            let algo = algorithm_by_name(name).expect("registry resolves comparison names");
            let legacy = algo
                .try_schedule(&instance, machines)
                .unwrap_or_else(|e| panic!("{name} case {case} legacy: {e}"));
            let spec_aware = algo
                .try_schedule_on(&instance, &cluster)
                .unwrap_or_else(|e| panic!("{name} case {case} spec-aware: {e}"));
            assert_eq!(
                spec_aware, legacy,
                "{name} case {case}: uniform spec-aware schedule diverged from try_schedule"
            );
            assert_eq!(
                spec_aware.awct_on(&instance, &cluster).to_bits(),
                legacy.awct(&instance).to_bits(),
                "{name} case {case}: AWCT bits diverged between awct_on(uniform) and awct"
            );
        }
    }
}

#[test]
fn registry_accepts_every_algorithm_for_legacy_workloads() {
    let mut rng = Rng::new(43).substream("api-registry-accepts");
    let (machines, instance) = gen_instance(&mut rng);
    let cluster = ClusterSpec::uniform(machines);
    for name in ALGORITHMS {
        algorithm_for_workload(name, &instance, &cluster)
            .unwrap_or_else(|e| panic!("{name}: rejected an edge-free uniform workload: {e}"));
    }
}
