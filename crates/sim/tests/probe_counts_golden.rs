//! The exact probe traffic of seeded `ClusterTimelines` scripts, pinned.
//!
//! Answer pins (`probe_differential`, the schedule goldens) cannot see how
//! an answer was found: a machine that stops being ruled out by a floor and
//! is scanned instead returns the same start. This suite pins the counts a
//! script publishes — `mris_timeline_probes_total`, `_hint_hits_total`
//! (rule-outs), `_hint_misses_total` (scans) and `_block_jumps_total` —
//! beside a hash of every answer, on three clusters:
//!
//! * 1,024 uniform machines, four resources, 30 demand vectors plus three
//!   more: the first 32 fill the floor-class table, the 33rd probes without
//!   floors;
//! * `ClusterSpec::related(6, [2, 1, 0.5])`, two resources;
//! * a capacity-restricted cluster, five resources (the slice-generic scan).
//!
//! Each script places batches at one floor `gamma` before moving it, asks
//! shared-access queries, compacts, and fails a machine mid-epoch (reset
//! plus a downtime block) so the next batch at the same floor probes it.
//!
//! Alone in its file: the obs subscriber is process-wide, and probes in a
//! sibling test thread would count into it.

use std::sync::Arc;

use mris_rng::Rng;
use mris_sim::ClusterTimelines;
use mris_types::{ClusterSpec, Instance, Job, JobId, MachineSpec, Time};

/// Durations that recur, so later queries are often an easier or harder
/// version of an earlier one.
const DURS: [f64; 4] = [0.5, 1.0, 2.5, 6.0];

/// What a script published, and what it answered.
#[derive(Debug, PartialEq, Eq)]
struct Traffic {
    probes: u64,
    hint_hits: u64,
    hint_misses: u64,
    block_jumps: u64,
    /// FNV-1a over every `(job, machine, start bits)` placement and every
    /// shared-access `(machine, start bits)` answer, in order.
    answers: u64,
}

struct Script {
    spec: ClusterSpec,
    resources: usize,
    catalog: Vec<Vec<f64>>,
    seed: u64,
    epochs: usize,
    batches_per_epoch: usize,
    batch_len: usize,
}

fn fnv(hash: &mut u64, word: u64) {
    for byte in word.to_le_bytes() {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn replay(s: &Script) -> Traffic {
    let mut rng = Rng::new(s.seed);
    let total = s.epochs * s.batches_per_epoch * s.batch_len;
    // The first jobs take the catalog in order, so the class table fills
    // before the last vectors appear; the rest draw from all of it.
    let jobs: Vec<Job> = (0..total)
        .map(|i| {
            let fracs = if i < s.catalog.len() {
                &s.catalog[i]
            } else {
                &s.catalog[rng.gen_range(0..s.catalog.len())]
            };
            let dur = if rng.gen_range(0..2usize) == 0 {
                DURS[rng.gen_range(0..DURS.len())]
            } else {
                rng.gen_range(0.2..9.0)
            };
            Job::from_fractions(JobId(i as u32), 0.0, dur, 1.0, fracs)
        })
        .collect();
    let instance = Instance::new(jobs, s.resources).expect("generated jobs are valid");

    let obs = Arc::new(mris_obs::Obs::new());
    let guard = mris_obs::install_guard(obs.clone());
    let mut cl = ClusterTimelines::with_spec(&s.spec, s.resources);
    let machines = cl.num_machines();
    let mut answers = 0xcbf2_9ce4_8422_2325_u64;
    let mut placements: Vec<(JobId, usize, Time)> = Vec::new();
    let mut gamma = 0.0_f64;
    let mut next = 0usize;
    for epoch in 0..s.epochs {
        for b in 0..s.batches_per_epoch {
            let batch: Vec<JobId> = (next..next + s.batch_len)
                .map(|i| JobId(i as u32))
                .collect();
            next += s.batch_len;
            placements.clear();
            cl.place_batch(&instance, &batch, gamma, &mut placements);
            for &(id, m, start) in &placements {
                fnv(&mut answers, u64::from(id.0));
                fnv(&mut answers, m as u64);
                fnv(&mut answers, start.to_bits());
            }
            if epoch == s.epochs / 2 && b == 0 {
                // A machine fails between two batches at one floor: its
                // timeline and its floors start over under a downtime block.
                let m = rng.gen_range(0..machines);
                let full = cl.capacity(m).to_vec();
                cl.reset_machine(m);
                cl.commit(m, gamma + 0.5, 3.0, &full);
            }
        }
        // Shared access reads floors and learns nothing.
        for _ in 0..3 {
            let job = instance.job(JobId(rng.gen_range(0..next) as u32));
            let (m, start) = cl.earliest_fit(gamma, job.proc_time, &job.demands);
            fnv(&mut answers, m as u64);
            fnv(&mut answers, start.to_bits());
        }
        gamma += rng.gen_range(0.5..4.0);
        if epoch % 2 == 1 {
            cl.compact_before(gamma - rng.gen_range(0.0..2.0));
        }
    }
    drop(guard);
    let counter = |name| obs.registry().counter_value(name, None).unwrap_or(0);
    Traffic {
        probes: counter("mris_timeline_probes_total"),
        hint_hits: counter("mris_timeline_hint_hits_total"),
        hint_misses: counter("mris_timeline_hint_misses_total"),
        block_jumps: counter("mris_timeline_block_jumps_total"),
        answers,
    }
}

fn catalog(rng: &mut Rng, vectors: usize, resources: usize) -> Vec<Vec<f64>> {
    (0..vectors)
        .map(|_| (0..resources).map(|_| rng.gen_range(0.05..0.7)).collect())
        .collect()
}

#[test]
fn probe_traffic_is_pinned() {
    let mut rng = Rng::new(31);

    let wide = replay(&Script {
        spec: ClusterSpec::uniform(1_024),
        resources: 4,
        catalog: catalog(&mut rng, 33, 4),
        seed: 11,
        epochs: 8,
        batches_per_epoch: 3,
        batch_len: 400,
    });
    let related = replay(&Script {
        spec: ClusterSpec::related(6, &[2.0, 1.0, 0.5]),
        resources: 2,
        catalog: catalog(&mut rng, 8, 2),
        seed: 29,
        epochs: 12,
        batches_per_epoch: 3,
        batch_len: 60,
    });
    let restricted = replay(&Script {
        spec: ClusterSpec::new(
            [
                (1.0, [0.5, 1.0, 1.0, 0.6, 1.0]),
                (2.0, [1.0, 0.4, 1.0, 1.0, 0.8]),
                (0.5, [0.7, 0.7, 0.7, 0.7, 0.7]),
                (1.0, [1.0, 1.0, 0.5, 1.0, 1.0]),
                (1.0, [1.0, 1.0, 1.0, 1.0, 1.0]),
            ]
            .iter()
            .map(|(speed, caps)| MachineSpec::from_fractions(*speed, caps))
            .collect(),
        ),
        resources: 5,
        catalog: catalog(&mut rng, 6, 5),
        seed: 7,
        epochs: 12,
        batches_per_epoch: 3,
        batch_len: 40,
    });

    let pinned = [
        (
            "wide",
            wide,
            Traffic {
                probes: 5_660_683,
                hint_hits: 4_974_871,
                hint_misses: 685_812,
                block_jumps: 3_369,
                answers: 0xa51a_9a1b_e49e_b915,
            },
        ),
        (
            "related",
            related,
            Traffic {
                probes: 13_147,
                hint_hits: 1_530,
                hint_misses: 11_617,
                block_jumps: 3_960,
                answers: 0xc86a_13b7_2daf_70e7,
            },
        ),
        (
            "restricted",
            restricted,
            Traffic {
                probes: 7_366,
                hint_hits: 2_770,
                hint_misses: 4_596,
                block_jumps: 266,
                answers: 0x60ea_644d_7ea2_32da,
            },
        ),
    ];
    for (name, got, expect) in &pinned {
        assert!(got.hint_hits > 0 && got.hint_misses > 0 && got.block_jumps > 0);
        assert_eq!(got.probes, got.hint_hits + got.hint_misses);
        assert_eq!(got, expect, "{name}");
    }
}
