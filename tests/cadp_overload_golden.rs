//! Schedule-level golden for the CADP solve: one overload-shaped instance
//! (M = 8, Poisson arrivals at 16x the cluster's capacity, N = 2,000) whose
//! MRIS schedule is pinned by hash: one pinned schedule, two entry points
//! (batch `Mris` and a hand-driven `MrisOnline`) into the one loop.
//!
//! `epoch_equivalence.rs` compares MRIS with itself, so a knapsack solver
//! that returned a *different optimal set* — another tie-break, another
//! rounding of an absorbed weight — would pass it. This test would not:
//! the hash below was captured with the scalar in-place DP that
//! preceded the streaming kernel, and any change to which jobs an epoch
//! selects moves some `(job, machine, start)` triple.

use mris::core::{Mris, MrisConfig, MrisOnline};
use mris::schedulers::Scheduler;
use mris::service::fnv64;
use mris::sim::{run_driver, RunOptions};
use mris::trace::{poisson_rate_for_utilization, Arrivals, AzureTrace, AzureTraceConfig};
use mris::types::{Instance, Schedule};

const MACHINES: usize = 8;
const JOBS: usize = 2_000;
const LOAD: f64 = 16.0;
const SEED: u64 = 13;

/// Azure-derived shapes arriving as a Poisson process at nominal load
/// [`LOAD`].
fn overload_instance() -> Instance {
    let shapes = AzureTrace::generate(&AzureTraceConfig {
        num_jobs: JOBS,
        seed: SEED,
        ..Default::default()
    })
    .sample_instance(1, 0);
    let rate = poisson_rate_for_utilization(&shapes, MACHINES, LOAD);
    Arrivals::Poisson { rate }.rewrite(&shapes, SEED).unwrap()
}

/// FNV-1a over `(job, machine, start.to_bits())` in job order.
fn schedule_hash(schedule: &Schedule) -> u64 {
    let mut bytes = Vec::with_capacity(JOBS * 20);
    for a in schedule.assignments() {
        bytes.extend_from_slice(&a.job.0.to_le_bytes());
        bytes.extend_from_slice(&(a.machine as u64).to_le_bytes());
        bytes.extend_from_slice(&a.start.to_bits().to_le_bytes());
    }
    fnv64(&bytes)
}

/// Captured at the commit before the streaming kernel, when batch `Mris`
/// was still a loop of its own beside `MrisOnline`; both produced this
/// schedule, and both entry points into the merged loop must keep it. Three
/// epochs reach the DP (n = 188, 494, 901), and with the trace's integer
/// priorities as weights their optima are heavily tied: flipping the
/// Hirschberg split's `>` to `>=` alone moves this hash.
const SCHEDULE_HASH: u64 = 0xec7f_f7c9_3d26_3824;

#[test]
fn offline_mris_schedule_is_pinned() {
    let instance = overload_instance();
    let schedule = Mris::default().schedule(&instance, MACHINES);
    schedule.validate(&instance).unwrap();
    assert_eq!(
        schedule_hash(&schedule),
        SCHEDULE_HASH,
        "batch MRIS (CADP) placed some job differently"
    );
}

/// The same instance with weight `w_j + 0.1 * (j mod 7)`: no weight is an
/// integer, so the DP's partial sums round and its zero-size items cannot
/// be lifted out of the passes as an exact shift. Captured at the commit
/// before zero-size items were special-cased in the DP.
const FRACTIONAL_SCHEDULE_HASH: u64 = 0xf552_fced_0baf_12f5;

#[test]
fn fractional_weights_schedule_is_pinned() {
    let instance = overload_instance();
    let jobs = instance
        .jobs()
        .iter()
        .map(|job| {
            let mut job = job.clone();
            job.weight += 0.1 * (job.id.0 % 7) as f64;
            job
        })
        .collect();
    let instance = Instance::new(jobs, instance.num_resources()).unwrap();
    let schedule = Mris::default().schedule(&instance, MACHINES);
    schedule.validate(&instance).unwrap();
    let hash = schedule_hash(&schedule);
    assert_eq!(
        hash, FRACTIONAL_SCHEDULE_HASH,
        "MRIS (CADP) with fractional weights placed some job differently: {hash:#018x}"
    );
}

/// The same instance with every weight multiplied by 24: still integers,
/// but the positive weight totals of the run's three DP solves are now
/// 7,128, 19,200 and 35,184, on both sides of `i16::MAX` (32,767). One run,
/// and one `SolveScratch`, takes both the 16-bit and the `f64` lane.
///
/// Captured at the commit before the 16-bit lane, where it read
/// [`SCHEDULE_HASH`]: scaling every weight by 24 moved no job.
const WEIGHT_SCALE: f64 = 24.0;

#[test]
fn scaled_weights_schedule_is_pinned() {
    let instance = overload_instance();
    let jobs = instance
        .jobs()
        .iter()
        .map(|job| {
            let mut job = job.clone();
            job.weight *= WEIGHT_SCALE;
            job
        })
        .collect();
    let instance = Instance::new(jobs, instance.num_resources()).unwrap();
    let schedule = Mris::default().schedule(&instance, MACHINES);
    schedule.validate(&instance).unwrap();
    let hash = schedule_hash(&schedule);
    assert_eq!(
        hash, SCHEDULE_HASH,
        "MRIS (CADP) with scaled integer weights placed some job differently: {hash:#018x}"
    );
}

#[test]
fn online_mris_schedule_is_pinned() {
    let instance = overload_instance();
    let mut policy = MrisOnline::new(MrisConfig::default(), &instance, MACHINES);
    let outcome = run_driver(&instance, MACHINES, &mut policy, RunOptions::default())
        .expect("MRIS places every job");
    outcome.schedule.validate(&instance).unwrap();
    assert_eq!(
        schedule_hash(&outcome.schedule),
        SCHEDULE_HASH,
        "online MRIS (CADP) placed some job differently"
    );
}
