//! Absolute pins for batch MRIS: schedule **and** iteration-log hashes for
//! a configuration matrix, captured from the offline `Mris` loop at the
//! commit before that loop was merged into `MrisOnline`.
//!
//! Batch `Mris` and `MrisOnline` are one loop, so a suite that compares
//! them cannot catch a wrong answer. `cadp_overload_golden.rs` pins one
//! configuration (CADP, WSJF, backfill, uniform); this pins the rest of the
//! matrix — every [`KnapsackChoice`] x backfill on/off x {WSJF, WSVF} at
//! M = 1 and 3 — plus one related-machines cluster. Weights, processing
//! times and demands sit on coarse grids so knapsack optima and heuristic
//! keys tie often: a changed tie-break moves a hash.

use mris::prelude::*;
use mris::service::fnv64;
use mris_rng::Rng;

const JOBS: usize = 300;
const SEED: u64 = 0x14_b47c;

/// 300 jobs over 2 resources arriving in `[0, 60)`: far more volume than
/// one or three machines clear in that window, so every epoch's knapsack
/// has to choose. A few jobs carry weight 0 (the zero-weight folding path).
fn instance() -> Instance {
    let mut rng = Rng::new(SEED);
    let jobs = (0..JOBS)
        .map(|_| {
            let release = rng.gen_range(0..240usize) as f64 * 0.25;
            let proc_time = rng.gen_range(2..=32usize) as f64 * 0.25;
            let weight = rng.gen_range(0..=4usize) as f64;
            let demands = [
                rng.gen_range(1..=20usize) as f64 * 0.05,
                rng.gen_range(0..=20usize) as f64 * 0.05,
            ];
            Job::from_fractions(JobId(0), release, proc_time, weight, &demands)
        })
        .collect();
    Instance::from_unnumbered(jobs, 2).unwrap()
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

/// FNV-1a over every logged iteration. `batch_end` is left out on the
/// related cluster: the parent recorded it in nominal work there (the fix
/// is pinned by `batch_end_is_a_completion_time_on_related_machines` in
/// `crates/core/src/algorithm.rs`).
fn log_hash(log: &[mris::core::IterationStats], with_batch_end: bool) -> u64 {
    let mut bytes = Vec::new();
    for it in log {
        bytes.extend_from_slice(&(it.k as u64).to_le_bytes());
        bytes.extend_from_slice(&it.gamma.to_bits().to_le_bytes());
        bytes.extend_from_slice(&it.zeta.to_bits().to_le_bytes());
        bytes.extend_from_slice(&(it.eligible as u64).to_le_bytes());
        bytes.extend_from_slice(&(it.scheduled as u64).to_le_bytes());
        bytes.extend_from_slice(&it.batch_weight.to_bits().to_le_bytes());
        bytes.extend_from_slice(&it.batch_volume.to_bits().to_le_bytes());
        if with_batch_end {
            bytes.extend_from_slice(&it.batch_end.to_bits().to_le_bytes());
        }
    }
    fnv64(&bytes)
}

/// `(schedule hash, log hash)` per case, in the order [`uniform_matrix`]
/// walks it: knapsack (outer) x backfill x heuristic x machines (inner).
/// The four CADP rows at M = 1 were re-pinned when CADP's scaled capacity
/// became `floor(n / eps)` computed from `n` and `eps` (it had been
/// `floor(capacity / K)`, one column short for some epochs); no other row
/// moved.
const UNIFORM: [(u64, u64); 32] = [
    (0xf64cc0ab8c397b8e, 0x4994377c5ab0fbe2), // Cadp/backfill=true/WSJF/M=1
    (0xbd47dcbe37e276f4, 0xba7faf576fd186cb), // Cadp/backfill=true/WSJF/M=3
    (0x9c292d4e7d9620bb, 0x87bb524a49575708), // Cadp/backfill=true/WSVF/M=1
    (0x6e508e8d91395eee, 0x95bf981d15793349), // Cadp/backfill=true/WSVF/M=3
    (0x004c4792849c1bb6, 0x812a6cb01e9c9ecb), // Cadp/backfill=false/WSJF/M=1
    (0x5e7413a72e9d2d9d, 0xc2de2d2d40db6c9b), // Cadp/backfill=false/WSJF/M=3
    (0xa87611bfcf01b033, 0xef7f8df2530d964f), // Cadp/backfill=false/WSVF/M=1
    (0xffdce0ffa2a21652, 0x7bfb21854a7cca83), // Cadp/backfill=false/WSVF/M=3
    (0x974d9bd9e69fd7cb, 0x3c6b85ce65a0912c), // Greedy/backfill=true/WSJF/M=1
    (0xae6112b0179942a0, 0x4b3029eebddf7a07), // Greedy/backfill=true/WSJF/M=3
    (0x8aab46e7f5c93433, 0xec8c714d84e65840), // Greedy/backfill=true/WSVF/M=1
    (0x785a49a3ed974ca6, 0xd16c54aceec967e0), // Greedy/backfill=true/WSVF/M=3
    (0x2b97f62958315dd8, 0xd602a9b9d426729b), // Greedy/backfill=false/WSJF/M=1
    (0xecd83ad24df9483b, 0x43ffb77bf735765d), // Greedy/backfill=false/WSJF/M=3
    (0x8b7fa513f1df81df, 0x903807dbe8b271ef), // Greedy/backfill=false/WSVF/M=1
    (0xb92cf7a5df829f4f, 0x999596d508cbea60), // Greedy/backfill=false/WSVF/M=3
    (0xe9d0bfd7d54b3c08, 0xa913d66a1ff4d82f), // GreedyHalf/backfill=true/WSJF/M=1
    (0xd0199e25df2a095e, 0xf88bb12c66945a28), // GreedyHalf/backfill=true/WSJF/M=3
    (0xd2f87656fe1ba13f, 0x95744bed9a183237), // GreedyHalf/backfill=true/WSVF/M=1
    (0x4d3e747555470f08, 0x353ffd92e0558ae4), // GreedyHalf/backfill=true/WSVF/M=3
    (0x1aee37c3b1907182, 0x9d57e8a5e1917763), // GreedyHalf/backfill=false/WSJF/M=1
    (0x13541fe09cf9372a, 0x5619215d219578f6), // GreedyHalf/backfill=false/WSJF/M=3
    (0xb5de0f9681964f65, 0x36f7dab4a971b39e), // GreedyHalf/backfill=false/WSVF/M=1
    (0xf6b1a1fca86c81f9, 0x5f872b7902cf64b2), // GreedyHalf/backfill=false/WSVF/M=3
    (0xbcd687dff7269470, 0x6205a41301e10c07), // Exact/backfill=true/WSJF/M=1
    (0x27473b37962b7c83, 0x1c41d4d9b5635a6b), // Exact/backfill=true/WSJF/M=3
    (0xc5d8486c008c0492, 0x92891f60a7e9e090), // Exact/backfill=true/WSVF/M=1
    (0x6ac3a79ccf01ca00, 0x1c5abe87e94e1773), // Exact/backfill=true/WSVF/M=3
    (0x99d79bb59a4d4714, 0x533033c6d6876076), // Exact/backfill=false/WSJF/M=1
    (0x27b9348d401e0be0, 0xc1952d448486c51a), // Exact/backfill=false/WSJF/M=3
    (0x5a301327bfa819c2, 0xc80716afa1338cc1), // Exact/backfill=false/WSVF/M=1
    (0xa185d103226843d1, 0xd8c1bfa469222bb0), // Exact/backfill=false/WSVF/M=3
];

/// The related-machines case: CADP/WSJF/backfill on speeds `[0.5, 1, 2]`.
const RELATED: (u64, u64) = (0xcf76_c8b6_1f50_6c2c, 0xdaae_fee7_e3ab_d3c3);

#[test]
fn uniform_matrix() {
    let instance = instance();
    let mut actual = Vec::new();
    for knapsack in [
        KnapsackChoice::Cadp,
        KnapsackChoice::Greedy,
        KnapsackChoice::GreedyHalf,
        KnapsackChoice::Exact,
    ] {
        for backfill in [true, false] {
            for heuristic in [SortHeuristic::Wsjf, SortHeuristic::Wsvf] {
                for machines in [1usize, 3] {
                    let mris = Mris::with_config(MrisConfig {
                        knapsack,
                        backfill,
                        heuristic,
                        ..Default::default()
                    });
                    let (schedule, log) = mris.schedule_with_log(&instance, machines);
                    schedule.validate(&instance).unwrap();
                    assert!(log.len() > 3, "the pin should span several epochs");
                    // Both entry points return the one schedule (the exact
                    // DP is the slow one in debug builds; it runs once).
                    if knapsack != KnapsackChoice::Exact {
                        assert_eq!(schedule, mris.schedule(&instance, machines));
                    }
                    actual.push((
                        (schedule_hash(&schedule), log_hash(&log, true)),
                        format!("{knapsack:?}/backfill={backfill}/{heuristic}/M={machines}"),
                    ));
                }
            }
        }
    }
    let table: String = actual
        .iter()
        .map(|((s, l), label)| format!("    ({s:#018x}, {l:#018x}), // {label}\n"))
        .collect();
    assert_eq!(actual.len(), UNIFORM.len());
    for ((got, label), want) in actual.iter().zip(&UNIFORM) {
        assert_eq!(got, want, "{label} moved; the table now reads:\n{table}");
    }
}

#[test]
fn related_cluster() {
    let instance = instance();
    let cluster = ClusterSpec::related(3, &[0.5, 1.0, 2.0]);
    let mris = Mris::default();
    let (schedule, log) = mris.schedule_with_log_on(&instance, &cluster);
    schedule.validate_on(&instance, &cluster).unwrap();
    assert_eq!(schedule, mris.schedule_on(&instance, &cluster));
    let actual = (schedule_hash(&schedule), log_hash(&log, false));
    assert_eq!(
        actual, RELATED,
        "related-machines MRIS moved: {actual:#018x?}"
    );
}
