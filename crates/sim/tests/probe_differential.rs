//! Differential suite pinning batch placement on `ClusterTimelines` to the
//! per-job probe it replaced: same `(job, machine, start.to_bits())` for
//! every placement and the same durable encoding after every operation.
//!
//! [`reference`] is the pre-floor probe kept verbatim — the seeded
//! cutoff-pruned sweep (`earliest_fit_seeded_mut`), the one-slot fit hint
//! with its exact-hit and dominance paths (`fit_via_hint`), the skip-index
//! scans (`scan_core` / `scan_any`) and the commit / compaction that
//! invalidate the hint — minus the hint's `Mutex`, which a single-threaded
//! reference does not need. Random scripts of batch placements, wall-time
//! commits, compactions and machine failures (reset + downtime block) are
//! replayed into it and into one cluster under test. Demand vectors are
//! drawn mostly from a small per-case catalog (the shape of every benchmark
//! workload, and what keys any per-demand acceleration state), with
//! continuous ones mixed in; clusters are uniform, related, and related +
//! restricted, and one case in eight is as wide as the `wide` workload
//! (512 to 1,100 machines).

use mris_rng::prop::{check, Config};
use mris_rng::{prop_assert, prop_assert_eq, Rng};
use mris_sim::ClusterTimelines;
use mris_types::{
    amount_from_fraction, Amount, ClusterSpec, Codec, Encoder, Instance, Job, JobId, MachineSpec,
    Time,
};

/// The pre-floor `MachineTimeline` / `ClusterTimelines` probe path, copied
/// from `crates/sim/src/timeline.rs` as of the commit before floors.
mod reference {
    use mris_types::{Amount, ClusterSpec, Encoder, Time, CAPACITY};

    const BLOCK: usize = 16;

    #[derive(Debug, Clone)]
    struct FitHint {
        from: Time,
        dur: Time,
        demands: Vec<Amount>,
        result: Time,
        exact: bool,
    }

    #[derive(Debug, Clone)]
    pub struct MachineTimeline {
        num_resources: usize,
        cap: Vec<Amount>,
        speed: f64,
        times: Vec<Time>,
        usage: Vec<Amount>,
        block_max: Vec<Amount>,
        block_min: Vec<Amount>,
        watermark: Time,
        hint: Option<FitHint>,
    }

    impl MachineTimeline {
        fn with_limits(num_resources: usize, cap: Vec<Amount>, speed: f64) -> Self {
            MachineTimeline {
                num_resources,
                cap,
                speed,
                times: vec![0.0],
                usage: vec![0; num_resources],
                block_max: vec![0; num_resources],
                block_min: vec![0; num_resources],
                watermark: 0.0,
                hint: None,
            }
        }

        pub fn capacity(&self) -> &[Amount] {
            &self.cap
        }

        pub fn compaction_watermark(&self) -> Time {
            self.watermark
        }

        fn is_unit_machine(&self) -> bool {
            self.speed.to_bits() == 1.0_f64.to_bits() && self.cap.iter().all(|&c| c == CAPACITY)
        }

        fn encode(&self, e: &mut Encoder) {
            e.f64(self.watermark);
            e.u64(self.times.len() as u64);
            for &t in &self.times {
                e.f64(t);
            }
            for &u in &self.usage {
                e.u64(u);
            }
        }

        fn segment_index(&self, t: Time) -> usize {
            self.times.partition_point(|&bp| bp <= t) - 1
        }

        fn segment_usage(&self, i: usize) -> &[Amount] {
            &self.usage[i * self.num_resources..(i + 1) * self.num_resources]
        }

        fn block_feasible(&self, b: usize, demands: &[Amount]) -> bool {
            let r = self.num_resources;
            self.block_max[b * r..(b + 1) * r]
                .iter()
                .zip(demands)
                .zip(&self.cap)
                .all(|((&u, &d), &c)| u + d <= c)
        }

        fn block_saturated(&self, b: usize, demands: &[Amount]) -> bool {
            let r = self.num_resources;
            self.block_min[b * r..(b + 1) * r]
                .iter()
                .zip(demands)
                .zip(&self.cap)
                .any(|((&u, &d), &c)| u + d > c)
        }

        fn recompute_block(&mut self, b: usize) {
            let r = self.num_resources;
            let lo = b * BLOCK;
            let hi = (lo + BLOCK).min(self.times.len());
            let base = b * r;
            self.block_max[base..base + r].copy_from_slice(&self.usage[lo * r..lo * r + r]);
            self.block_min[base..base + r].copy_from_slice(&self.usage[lo * r..lo * r + r]);
            for i in lo + 1..hi {
                for (res, &u) in self.usage[i * r..(i + 1) * r].iter().enumerate() {
                    if u > self.block_max[base + res] {
                        self.block_max[base + res] = u;
                    }
                    if u < self.block_min[base + res] {
                        self.block_min[base + res] = u;
                    }
                }
            }
        }

        fn rebuild_index_from(&mut self, first_seg: usize) {
            let r = self.num_resources;
            let num_blocks = self.times.len().div_ceil(BLOCK);
            let first_block = first_seg / BLOCK;
            self.block_max.resize(num_blocks * r, 0);
            self.block_min.resize(num_blocks * r, 0);
            for b in first_block..num_blocks {
                self.recompute_block(b);
            }
        }

        /// Whether a job with `demands` fits throughout `[start, start + dur)`
        /// (the script generator's guard for wall-time commits).
        pub fn is_feasible(&self, start: Time, dur: Time, demands: &[Amount]) -> bool {
            let n = self.times.len();
            let end = start + dur;
            let mut i = self.segment_index(start);
            while i < n && self.times[i] < end {
                let seg = self.segment_usage(i);
                if seg
                    .iter()
                    .zip(demands)
                    .zip(&self.cap)
                    .any(|((&u, &d), &c)| u + d > c)
                {
                    return false;
                }
                i += 1;
            }
            true
        }

        fn earliest_fit_bounded_mut(
            &mut self,
            from: Time,
            dur: Time,
            demands: &[Amount],
            cutoff: Time,
        ) -> Option<Time> {
            assert!(dur > 0.0, "job duration must be positive");
            let from = from.max(self.watermark);
            let cutoff = if cutoff.is_finite() {
                cutoff
            } else {
                f64::INFINITY
            };
            let mut slot = self.hint.take();
            let result = self.fit_via_hint(&mut slot, from, dur, demands, cutoff);
            self.hint = slot;
            result
        }

        fn fit_via_hint(
            &self,
            slot: &mut Option<FitHint>,
            from: Time,
            dur: Time,
            demands: &[Amount],
            cutoff: Time,
        ) -> Option<Time> {
            if let Some(hint) = slot.as_ref() {
                if hint.exact
                    && hint.dur == dur
                    && hint.from <= from
                    && from <= hint.result
                    && *hint.demands == *demands
                {
                    let hit = hint.result;
                    return if hit < cutoff { Some(hit) } else { None };
                }
                if hint.result >= cutoff
                    && hint.from <= from
                    && hint.dur <= dur
                    && hint.demands.len() == demands.len()
                    && hint.demands.iter().zip(demands).all(|(&h, &d)| h <= d)
                {
                    return None;
                }
            }
            let result = self.scan_earliest(from, dur, demands, cutoff);
            let (learned, exact) = match result {
                Some(t) => (t, true),
                None => (cutoff, false),
            };
            if learned.is_finite() {
                match slot.as_mut() {
                    Some(hint) => {
                        hint.from = from;
                        hint.dur = dur;
                        hint.demands.clear();
                        hint.demands.extend_from_slice(demands);
                        hint.result = learned;
                        hint.exact = exact;
                    }
                    None => {
                        *slot = Some(FitHint {
                            from,
                            dur,
                            demands: demands.to_vec(),
                            result: learned,
                            exact,
                        });
                    }
                }
            }
            result
        }

        fn scan_earliest(
            &self,
            from: Time,
            dur: Time,
            demands: &[Amount],
            cutoff: Time,
        ) -> Option<Time> {
            if demands.iter().zip(&self.cap).any(|(&d, &c)| d > c) {
                return None;
            }
            match demands.len() {
                1 => self.scan_core::<1>(from, dur, demands, cutoff),
                2 => self.scan_core::<2>(from, dur, demands, cutoff),
                3 => self.scan_core::<3>(from, dur, demands, cutoff),
                4 => self.scan_core::<4>(from, dur, demands, cutoff),
                _ => self.scan_any(from, dur, demands, cutoff),
            }
        }

        fn scan_core<const R: usize>(
            &self,
            from: Time,
            dur: Time,
            demands: &[Amount],
            cutoff: Time,
        ) -> Option<Time> {
            let room: [Amount; R] = std::array::from_fn(|r| self.cap[r] - demands[r]);
            let n = self.times.len();
            let times = &self.times[..n];
            let usage = &self.usage[..n * R];
            let bmax = self.block_max.as_slice();
            let bmin = self.block_min.as_slice();
            let mut cand = from.max(0.0);
            if cand >= cutoff {
                return None;
            }
            let mut start_k = self.segment_index(cand);
            'outer: loop {
                let end = cand + dur;
                let mut k = start_k;
                while k < n && times[k] < end {
                    if k.is_multiple_of(BLOCK) {
                        let mut feasible = true;
                        for r in 0..R {
                            feasible &= bmax[(k / BLOCK) * R + r] <= room[r];
                        }
                        if feasible {
                            k += BLOCK;
                            continue;
                        }
                    }
                    let mut fits = true;
                    for r in 0..R {
                        fits &= usage[k * R + r] <= room[r];
                    }
                    if !fits {
                        let mut j = k + 1;
                        loop {
                            if times[j] >= cutoff {
                                break 'outer None;
                            }
                            if j.is_multiple_of(BLOCK) {
                                let mut saturated = false;
                                for r in 0..R {
                                    saturated |= bmin[(j / BLOCK) * R + r] > room[r];
                                }
                                if saturated {
                                    j += BLOCK;
                                    continue;
                                }
                            }
                            let mut free = true;
                            for r in 0..R {
                                free &= usage[j * R + r] <= room[r];
                            }
                            if free {
                                break;
                            }
                            j += 1;
                        }
                        cand = times[j];
                        start_k = j + 1;
                        continue 'outer;
                    }
                    k += 1;
                }
                break 'outer Some(cand);
            }
        }

        fn scan_any(
            &self,
            from: Time,
            dur: Time,
            demands: &[Amount],
            cutoff: Time,
        ) -> Option<Time> {
            let n = self.times.len();
            let mut cand = from.max(0.0);
            if cand >= cutoff {
                return None;
            }
            let mut start_k = self.segment_index(cand);
            'outer: loop {
                let end = cand + dur;
                let mut k = start_k;
                while k < n && self.times[k] < end {
                    if k.is_multiple_of(BLOCK) && self.block_feasible(k / BLOCK, demands) {
                        k += BLOCK;
                        continue;
                    }
                    let seg = self.segment_usage(k);
                    if seg
                        .iter()
                        .zip(demands)
                        .zip(&self.cap)
                        .any(|((&u, &d), &c)| u + d > c)
                    {
                        let mut j = k + 1;
                        loop {
                            if self.times[j] >= cutoff {
                                break 'outer None;
                            }
                            if j.is_multiple_of(BLOCK) && self.block_saturated(j / BLOCK, demands) {
                                j += BLOCK;
                                continue;
                            }
                            if self
                                .segment_usage(j)
                                .iter()
                                .zip(demands)
                                .zip(&self.cap)
                                .all(|((&u, &d), &c)| u + d <= c)
                            {
                                break;
                            }
                            j += 1;
                        }
                        cand = self.times[j];
                        start_k = j + 1;
                        continue 'outer;
                    }
                    k += 1;
                }
                break 'outer Some(cand);
            }
        }

        fn invalidate_hint_overlapping(&mut self, start: Time, end: Time) {
            if let Some(hint) = self.hint.as_ref() {
                if hint.exact && start < hint.result + hint.dur && hint.result < end {
                    self.hint = None;
                }
            }
        }

        fn split_segment(&mut self, i: usize, at: Time) {
            let r = self.num_resources;
            self.times.insert(i + 1, at);
            let old_len = self.usage.len();
            self.usage.resize(old_len + r, 0);
            self.usage.copy_within(i * r..old_len, (i + 1) * r);
        }

        fn insert_breakpoints(&mut self, start: Time, end: Time) -> (usize, usize) {
            let i_s = self.segment_index(start);
            let need_s = self.times[i_s] != start;
            let i_e = self.segment_index(end);
            let need_e = self.times[i_e] != end;
            let inserted = need_s as usize + need_e as usize;
            let i0 = i_s + need_s as usize;
            let i1 = i_e + inserted;
            if inserted == 0 {
                return (i0, i1);
            }
            if need_e {
                self.split_segment(i_e, end);
            }
            if need_s {
                self.split_segment(i_s, start);
            }
            self.rebuild_index_from(i0);
            (i0, i1)
        }

        fn commit(&mut self, start: Time, dur: Time, demands: &[Amount]) {
            assert!(start >= 0.0 && dur > 0.0 && (start + dur).is_finite());
            let (i0, i1) = self.insert_breakpoints(start, start + dur);
            let r = self.num_resources;
            for i in i0..i1 {
                for ((u, &d), &c) in self.usage[i * r..(i + 1) * r]
                    .iter_mut()
                    .zip(demands)
                    .zip(&self.cap)
                {
                    *u += d;
                    assert!(*u <= c, "reference commit exceeds capacity");
                }
            }
            for b in i0 / BLOCK..=(i1 - 1) / BLOCK {
                self.recompute_block(b);
            }
            self.invalidate_hint_overlapping(start, start + dur);
        }

        fn compact_before(&mut self, horizon: Time) {
            let keep_from = self.segment_index(horizon.max(0.0));
            if keep_from == 0 {
                return;
            }
            self.watermark = self.watermark.max(self.times[keep_from]);
            self.times.drain(..keep_from);
            self.usage.drain(..keep_from * self.num_resources);
            self.times[0] = 0.0;
            let num_blocks = self.times.len().div_ceil(BLOCK);
            self.block_max.truncate(num_blocks * self.num_resources);
            self.block_min.truncate(num_blocks * self.num_resources);
            self.rebuild_index_from(0);
            self.hint = None;
        }
    }

    /// The sequential half of the pre-floor `ClusterTimelines` (the pooled
    /// scan returns the same lexicographic minimum by construction, which
    /// `shard_differential` pins). Shards do not exist here: they only
    /// partition the machine vector.
    pub struct ClusterTimelines {
        machines: Vec<MachineTimeline>,
        num_resources: usize,
        scan_seed: usize,
    }

    impl ClusterTimelines {
        pub fn with_spec(spec: &ClusterSpec, num_resources: usize) -> Self {
            ClusterTimelines {
                machines: (0..spec.len())
                    .map(|m| {
                        MachineTimeline::with_limits(
                            num_resources,
                            spec.capacity_vec(m, num_resources).into_vec(),
                            spec.speed(m),
                        )
                    })
                    .collect(),
                num_resources,
                scan_seed: 0,
            }
        }

        pub fn machine(&self, m: usize) -> &MachineTimeline {
            &self.machines[m]
        }

        /// The earliest instant still exact on every machine.
        pub fn watermark(&self) -> Time {
            self.machines
                .iter()
                .map(|tl| tl.watermark)
                .fold(0.0, f64::max)
        }

        fn earliest_fit_seeded_mut(
            &mut self,
            from: Time,
            dur: Time,
            demands: &[Amount],
        ) -> (usize, Time) {
            let num_machines = self.machines.len();
            let floor = from.max(0.0);
            let g = self.scan_seed.min(num_machines - 1);
            let seed_speed = self.machines[g].speed;
            let mut best = match self.machines[g].earliest_fit_bounded_mut(
                from,
                dur / seed_speed,
                demands,
                f64::INFINITY,
            ) {
                Some(s_g) => (g, s_g),
                None => (usize::MAX, f64::INFINITY),
            };
            for (m, tl) in self.machines.iter_mut().enumerate() {
                if best.1 <= floor && best.0 <= m {
                    break;
                }
                if m == g {
                    continue;
                }
                let cutoff = if m < best.0 { best.1.next_up() } else { best.1 };
                if let Some(s) = tl.earliest_fit_bounded_mut(from, dur / tl.speed, demands, cutoff)
                {
                    if s < best.1 || (s == best.1 && m < best.0) {
                        best = (m, s);
                    }
                }
            }
            if best.0 < num_machines {
                self.scan_seed = (best.0 + 1) % num_machines;
            }
            best
        }

        pub fn commit(&mut self, machine: usize, start: Time, dur: Time, demands: &[Amount]) {
            self.machines[machine].commit(start, dur, demands);
        }

        fn commit_job(&mut self, machine: usize, start: Time, work: Time, demands: &[Amount]) {
            let tl = &mut self.machines[machine];
            let dur = work / tl.speed;
            tl.commit(start, dur, demands);
        }

        /// `place_earliest`: probe, then commit on the winner.
        pub fn place_earliest(
            &mut self,
            work: Time,
            demands: &[Amount],
            from: Time,
        ) -> (usize, Time) {
            let (m, s) = self.earliest_fit_seeded_mut(from, work, demands);
            self.commit_job(m, s, work, demands);
            (m, s)
        }

        pub fn reset_machine(&mut self, m: usize) {
            let tl = &mut self.machines[m];
            *tl = MachineTimeline::with_limits(self.num_resources, tl.cap.clone(), tl.speed);
        }

        pub fn compact_before(&mut self, horizon: Time) {
            for tl in &mut self.machines {
                tl.compact_before(horizon);
            }
        }

        /// The durable encoding of a cluster sharded at `shard_size`.
        pub fn encode(&self, shard_size: usize, e: &mut Encoder) {
            e.u64(self.machines.len() as u64);
            e.u64(self.num_resources as u64);
            e.u64(shard_size as u64);
            for tl in &self.machines {
                tl.encode(e);
            }
            if !self.machines.iter().all(MachineTimeline::is_unit_machine) {
                for tl in &self.machines {
                    for &c in &tl.cap {
                        e.u64(c);
                    }
                    e.f64(tl.speed);
                }
            }
        }
    }
}

/// Durations that recur within a case, so repeated `(dur, demands)` queries
/// (the reference's exact-hit path) happen often.
const COMMON_DURS: [f64; 4] = [0.5, 1.0, 2.5, 6.0];

#[derive(Debug, Clone)]
enum Op {
    /// One epoch's batch: `advance` moves the floor first (0 keeps it, as
    /// consecutive batches at one grid point would); `rewind` instead
    /// probes from just above the watermark, below earlier floors.
    Batch {
        advance: f64,
        rewind: bool,
        jobs: Vec<(f64, Vec<f64>)>,
    },
    /// A wall-time commit on one machine (skipped where it would not fit).
    Wall {
        pick: usize,
        start_off: f64,
        dur: f64,
        fracs: Vec<f64>,
    },
    /// Cluster-wide compaction at or below the current floor.
    Compact { back: f64 },
    /// Machine failure: reset, then a full-capacity downtime block.
    Down { pick: usize, at_off: f64, dur: f64 },
}

/// `(cluster kind, machines, resources, spec seed, script)`.
type Case = (usize, usize, usize, u64, Vec<Op>);

fn gen_case(rng: &mut Rng) -> Case {
    let kind = rng.gen_range(0..3usize);
    let machines = match rng.gen_range(0..8usize) {
        0 => rng.gen_range(512..=1_100usize),
        1 | 2 => rng.gen_range(60..80usize),
        _ => rng.gen_range(2..12usize),
    };
    // Every width the scan has a fixed lane for, and two it slices: 5 and
    // Fig. 6's resource augmentation, 20.
    const WIDTHS: [usize; 6] = [1, 2, 3, 4, 5, 20];
    let resources = WIDTHS[rng.gen_range(0..WIDTHS.len())];
    let spec_seed = rng.gen_range(0..u64::MAX);
    let catalog: Vec<Vec<f64>> = (0..rng.gen_range(2..7usize))
        .map(|_| (0..resources).map(|_| rng.gen_range(0.02..0.7)).collect())
        .collect();
    let gen_job = |rng: &mut Rng| {
        let dur = if rng.gen_range(0..2usize) == 0 {
            COMMON_DURS[rng.gen_range(0..COMMON_DURS.len())]
        } else {
            rng.gen_range(0.1..9.0)
        };
        let fracs = if rng.gen_range(0..5usize) == 0 {
            (0..resources).map(|_| rng.gen_range(0.0..0.8)).collect()
        } else {
            catalog[rng.gen_range(0..catalog.len())].clone()
        };
        (dur, fracs)
    };
    let ops = (0..rng.gen_range(1..14usize))
        .map(|_| match rng.gen_range(0..10usize) {
            0..=5 => Op::Batch {
                advance: if rng.gen_range(0..2usize) == 0 {
                    0.0
                } else {
                    rng.gen_range(0.0..8.0)
                },
                rewind: rng.gen_range(0..8usize) == 0,
                jobs: (0..rng.gen_range(1..25usize))
                    .map(|_| gen_job(rng))
                    .collect(),
            },
            6 => Op::Wall {
                pick: rng.gen_range(0..1024usize),
                start_off: rng.gen_range(0.0..20.0),
                dur: rng.gen_range(0.1..6.0),
                fracs: (0..resources).map(|_| rng.gen_range(0.0..0.5)).collect(),
            },
            7..=8 => Op::Compact {
                back: rng.gen_range(0.0..6.0),
            },
            _ => Op::Down {
                pick: rng.gen_range(0..1024usize),
                at_off: rng.gen_range(0.0..10.0),
                dur: rng.gen_range(0.5..10.0),
            },
        })
        .collect();
    (kind, machines, resources, spec_seed, ops)
}

/// Uniform, related (speeds 0.5 / 1 / 2), or related + restricted: the last
/// machine always keeps full capacity so every demand stays placeable.
fn cluster_spec(kind: usize, machines: usize, resources: usize, seed: u64) -> ClusterSpec {
    let mut rng = Rng::new(seed);
    match kind {
        0 => ClusterSpec::uniform(machines),
        1 => {
            let speeds: Vec<f64> = (0..machines)
                .map(|_| [0.5, 1.0, 2.0][rng.gen_range(0..3usize)])
                .collect();
            ClusterSpec::related(machines, &speeds)
        }
        _ => ClusterSpec::new(
            (0..machines)
                .map(|m| {
                    let speed = [0.5, 1.0, 2.0][rng.gen_range(0..3usize)];
                    let caps: Vec<f64> = (0..resources)
                        .map(|_| {
                            if m + 1 == machines || rng.gen_range(0..2usize) == 0 {
                                1.0
                            } else {
                                rng.gen_range(0.3..1.0)
                            }
                        })
                        .collect();
                    MachineSpec::from_fractions(speed, &caps)
                })
                .collect(),
        ),
    }
}

fn to_amounts(fracs: &[f64]) -> Vec<Amount> {
    fracs.iter().map(|&f| amount_from_fraction(f)).collect()
}

fn bits(placements: &[(JobId, usize, Time)]) -> Vec<(u32, usize, u64)> {
    placements
        .iter()
        .map(|&(j, m, s)| (j.0, m, s.to_bits()))
        .collect()
}

#[test]
fn batch_placement_matches_the_per_job_probe() {
    check(
        "batch placement matches the pre-floor per-job probe",
        &Config::with_cases(128),
        gen_case,
        |(kind, machines, resources, spec_seed, ops)| {
            let (machines, resources) = ((*machines).clamp(2, 1_100), *resources);
            // Shrinking may cut a demand vector loose from its case.
            if ops.iter().any(|op| match op {
                Op::Batch { jobs, .. } => jobs.iter().any(|(_, f)| f.len() != resources),
                Op::Wall { fracs, .. } => fracs.len() != resources,
                _ => false,
            }) {
                return Ok(());
            }
            let spec = cluster_spec(*kind, machines, resources, *spec_seed);
            // Every batch's jobs, numbered in script order.
            let jobs: Vec<Job> = ops
                .iter()
                .filter_map(|op| match op {
                    Op::Batch { jobs, .. } => Some(jobs),
                    _ => None,
                })
                .flatten()
                .enumerate()
                .map(|(i, (dur, fracs))| {
                    Job::from_fractions(JobId(i as u32), 0.0, *dur, 1.0, fracs)
                })
                .collect();
            let instance = Instance::new(jobs, resources).expect("generated jobs are valid");

            let mut reference = reference::ClusterTimelines::with_spec(&spec, resources);
            let mut cluster = ClusterTimelines::with_spec(&spec, resources);

            let mut gamma = 0.0_f64;
            let mut next_job = 0usize;
            for (step, op) in ops.iter().enumerate() {
                match op {
                    Op::Batch {
                        advance,
                        rewind,
                        jobs,
                    } => {
                        gamma += advance;
                        let floor = if *rewind {
                            reference.watermark()
                        } else {
                            gamma.max(reference.watermark())
                        };
                        let batch: Vec<JobId> = (next_job..next_job + jobs.len())
                            .map(|i| JobId(i as u32))
                            .collect();
                        next_job += jobs.len();
                        let expect: Vec<(JobId, usize, Time)> = batch
                            .iter()
                            .map(|&id| {
                                let job = instance.job(id);
                                let (m, s) =
                                    reference.place_earliest(job.proc_time, &job.demands, floor);
                                (id, m, s)
                            })
                            .collect();
                        let mut got = Vec::new();
                        cluster.place_batch(&instance, &batch, floor, &mut got);
                        prop_assert_eq!(
                            bits(&got),
                            bits(&expect),
                            "step {}: batch at floor {}",
                            step,
                            floor
                        );
                    }
                    Op::Wall {
                        pick,
                        start_off,
                        dur,
                        fracs,
                    } => {
                        let m = pick % machines;
                        let demands = to_amounts(fracs);
                        let start = gamma.max(reference.watermark()) + start_off;
                        let tl = reference.machine(m);
                        let holds = demands.iter().zip(tl.capacity()).all(|(&d, &c)| d <= c);
                        if holds && tl.is_feasible(start, *dur, &demands) {
                            reference.commit(m, start, *dur, &demands);
                            cluster.commit(m, start, *dur, &demands);
                        }
                    }
                    Op::Compact { back } => {
                        let horizon = gamma - back;
                        reference.compact_before(horizon);
                        cluster.compact_before(horizon);
                    }
                    Op::Down { pick, at_off, dur } => {
                        let m = pick % machines;
                        let at = gamma + at_off;
                        let full = reference.machine(m).capacity().to_vec();
                        reference.reset_machine(m);
                        reference.commit(m, at, *dur, &full);
                        cluster.reset_machine(m);
                        cluster.commit(m, at, *dur, &full);
                    }
                }
                // The reference encodes the layout word it is given; the
                // cluster writes the frozen `64` (see its `Codec` impl).
                let (mut got, mut expect) = (Encoder::new(), Encoder::new());
                cluster.encode(&mut got);
                reference.encode(64, &mut expect);
                prop_assert!(
                    got.as_bytes() == expect.as_bytes(),
                    "step {}: durable encodings differ",
                    step
                );
                for m in 0..machines {
                    prop_assert_eq!(
                        cluster.machine(m).compaction_watermark().to_bits(),
                        reference.machine(m).compaction_watermark().to_bits(),
                        "step {}: watermark of machine {}",
                        step,
                        m
                    );
                }
            }
            Ok(())
        },
    );
}
