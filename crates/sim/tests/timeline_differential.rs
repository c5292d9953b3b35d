//! Differential property suite: the indexed `MachineTimeline` against the
//! pre-index brute-force scan.
//!
//! [`BruteTimeline`] is a faithful copy of the original unindexed structure
//! (sorted breakpoints, `Vec::insert`/`splice` per commit, `O(segments)`
//! linear scans). Random scripts of commits, compactions, and queries are
//! replayed into both; every answer — usage, feasibility, earliest fit, and
//! segment count — must agree exactly. A second suite drives whole clusters
//! and checks the cutoff-pruned cluster sweep against the brute per-machine
//! loop, including the lower-machine-index tie-break.

use mris_rng::prop::{check, Config};
use mris_rng::{prop_assert_eq, Rng};
use mris_sim::{ClusterTimelines, MachineTimeline};
use mris_types::{amount_from_fraction, Amount, CAPACITY};

const RESOURCES: usize = 2;

/// Whether the timeline holds `demands` throughout `[start, start + dur)`:
/// its scan, cut off one ulp past `start`, finds `start` itself.
fn fits(tl: &MachineTimeline, start: f64, dur: f64, demands: &[Amount]) -> bool {
    tl.earliest_fit_bounded(start, dur, demands, start.next_up()) == Some(start)
}

/// The original `MachineTimeline`: identical invariants, no skip index, no
/// hint cache, per-breakpoint `Vec::insert`/`splice`, linear scans.
struct BruteTimeline {
    num_resources: usize,
    times: Vec<f64>,
    usage: Vec<Amount>,
    watermark: f64,
}

impl BruteTimeline {
    fn new(num_resources: usize) -> Self {
        BruteTimeline {
            num_resources,
            times: vec![0.0],
            usage: vec![0; num_resources],
            watermark: 0.0,
        }
    }

    fn segment_index(&self, t: f64) -> usize {
        self.times.partition_point(|&bp| bp <= t) - 1
    }

    fn segment_usage(&self, i: usize) -> &[Amount] {
        &self.usage[i * self.num_resources..(i + 1) * self.num_resources]
    }

    fn usage_at(&self, t: f64) -> &[Amount] {
        let i = self.segment_index(t);
        self.segment_usage(i)
    }

    fn ensure_breakpoint(&mut self, t: f64) -> usize {
        let i = self.segment_index(t);
        if self.times[i] == t {
            return i;
        }
        self.times.insert(i + 1, t);
        let r = self.num_resources;
        let seg: Vec<Amount> = self.segment_usage(i).to_vec();
        let at = (i + 1) * r;
        self.usage.splice(at..at, seg);
        i + 1
    }

    fn is_feasible(&self, start: f64, dur: f64, demands: &[Amount]) -> bool {
        let end = start + dur;
        let mut i = self.segment_index(start);
        while i < self.times.len() && self.times[i] < end {
            let seg = self.segment_usage(i);
            if seg.iter().zip(demands).any(|(&u, &d)| u + d > CAPACITY) {
                return false;
            }
            i += 1;
        }
        true
    }

    fn earliest_fit(&self, from: f64, dur: f64, demands: &[Amount]) -> f64 {
        let mut cand = from.max(0.0);
        'outer: loop {
            let end = cand + dur;
            let mut i = self.segment_index(cand);
            while i < self.times.len() && self.times[i] < end {
                let seg = self.segment_usage(i);
                if seg.iter().zip(demands).any(|(&u, &d)| u + d > CAPACITY) {
                    cand = self.times[i + 1];
                    continue 'outer;
                }
                i += 1;
            }
            return cand;
        }
    }

    fn commit(&mut self, start: f64, dur: f64, demands: &[Amount]) {
        let i0 = self.ensure_breakpoint(start);
        let i1 = self.ensure_breakpoint(start + dur);
        let r = self.num_resources;
        for i in i0..i1 {
            for (u, &d) in self.usage[i * r..(i + 1) * r].iter_mut().zip(demands) {
                *u += d;
            }
        }
    }

    fn compact_before(&mut self, horizon: f64) {
        let keep_from = self.segment_index(horizon.max(0.0));
        if keep_from == 0 {
            return;
        }
        self.watermark = self.watermark.max(self.times[keep_from]);
        self.times.drain(..keep_from);
        self.usage.drain(..keep_from * self.num_resources);
        self.times[0] = 0.0;
    }
}

/// One scripted operation against both structures.
#[derive(Debug, Clone)]
enum Op {
    Commit {
        start: f64,
        dur: f64,
        fracs: Vec<f64>,
    },
    Compact {
        horizon: f64,
    },
    EarliestFit {
        from: f64,
        dur: f64,
        fracs: Vec<f64>,
    },
    Feasible {
        start: f64,
        dur: f64,
        fracs: Vec<f64>,
    },
    Usage {
        t: f64,
    },
}

fn to_amounts(fracs: &[f64]) -> Vec<Amount> {
    fracs.iter().map(|&f| amount_from_fraction(f)).collect()
}

fn gen_fracs(rng: &mut Rng, hi: f64) -> Vec<f64> {
    (0..RESOURCES).map(|_| rng.gen_range(0.0..hi)).collect()
}

fn gen_script(rng: &mut Rng) -> Vec<Op> {
    let n = rng.gen_range(1..60usize);
    (0..n)
        .map(|_| match rng.gen_range(0..10usize) {
            0..=3 => Op::Commit {
                start: rng.gen_range(0.0..60.0),
                dur: rng.gen_range(0.1..12.0),
                fracs: gen_fracs(rng, 0.4),
            },
            4 => Op::Compact {
                horizon: rng.gen_range(0.0..70.0),
            },
            5..=7 => Op::EarliestFit {
                from: rng.gen_range(0.0..70.0),
                dur: rng.gen_range(0.1..15.0),
                fracs: gen_fracs(rng, 1.0),
            },
            8 => Op::Feasible {
                start: rng.gen_range(0.0..70.0),
                dur: rng.gen_range(0.1..15.0),
                fracs: gen_fracs(rng, 1.0),
            },
            _ => Op::Usage {
                t: rng.gen_range(0.0..90.0),
            },
        })
        .collect()
}

/// Replays a script into both structures, checking every answer. Commits
/// only apply when feasible (the `commit` contract); query instants are
/// clamped to the compaction watermark, below which answers are undefined
/// by contract.
#[test]
fn indexed_timeline_matches_brute_force_reference() {
    check(
        "indexed timeline matches brute-force reference",
        &Config::with_cases(128),
        gen_script,
        |script| {
            let mut indexed = MachineTimeline::new(RESOURCES);
            let mut brute = BruteTimeline::new(RESOURCES);
            for op in script {
                match op {
                    Op::Commit { start, dur, fracs } => {
                        if fracs.len() != RESOURCES {
                            continue;
                        }
                        let demands = to_amounts(fracs);
                        let start = start.max(brute.watermark);
                        let ok_brute = brute.is_feasible(start, *dur, &demands);
                        prop_assert_eq!(
                            fits(&indexed, start, *dur, &demands),
                            ok_brute,
                            "pre-commit feasibility at [{}, {})",
                            start,
                            start + dur
                        );
                        if ok_brute {
                            indexed.commit(start, *dur, &demands);
                            brute.commit(start, *dur, &demands);
                        }
                    }
                    Op::Compact { horizon } => {
                        indexed.compact_before(*horizon);
                        brute.compact_before(*horizon);
                        prop_assert_eq!(
                            indexed.compaction_watermark(),
                            brute.watermark,
                            "watermark after compact_before({})",
                            horizon
                        );
                    }
                    Op::EarliestFit { from, dur, fracs } => {
                        if fracs.len() != RESOURCES {
                            continue;
                        }
                        let demands = to_amounts(fracs);
                        let from = from.max(brute.watermark);
                        prop_assert_eq!(
                            indexed.earliest_fit(from, *dur, &demands),
                            brute.earliest_fit(from, *dur, &demands),
                            "earliest_fit(from = {}, dur = {})",
                            from,
                            dur
                        );
                    }
                    Op::Feasible { start, dur, fracs } => {
                        if fracs.len() != RESOURCES {
                            continue;
                        }
                        let demands = to_amounts(fracs);
                        let start = start.max(brute.watermark);
                        prop_assert_eq!(
                            fits(&indexed, start, *dur, &demands),
                            brute.is_feasible(start, *dur, &demands),
                            "fits([{}, {}))",
                            start,
                            start + dur
                        );
                    }
                    Op::Usage { t } => {
                        let t = t.max(brute.watermark);
                        prop_assert_eq!(indexed.usage_at(t), brute.usage_at(t), "usage_at({})", t);
                    }
                }
                prop_assert_eq!(indexed.num_segments(), brute.times.len(), "segment count");
            }
            Ok(())
        },
    );
}

/// Cluster-level differential: the cutoff-pruned cluster sweep and the
/// brute per-machine loop place identical `(machine, start)` sequences —
/// pruning and floors must not disturb results or the lower-machine-index
/// tie-break.
#[test]
fn cluster_scans_match_brute_force_reference() {
    check(
        "cluster scans match brute-force reference",
        &Config::with_cases(128),
        |rng| {
            let machines = rng.gen_range(2..6usize);
            let n = rng.gen_range(1..40usize);
            let jobs: Vec<(f64, f64, Vec<f64>)> = (0..n)
                .map(|_| {
                    (
                        rng.gen_range(0.0..20.0),
                        rng.gen_range(0.1..9.0),
                        gen_fracs(rng, 1.0),
                    )
                })
                .collect();
            (machines, jobs)
        },
        |(machines, jobs)| {
            let machines = (*machines).clamp(2, 8);
            let mut cluster = ClusterTimelines::new(machines, RESOURCES);
            let mut brute: Vec<BruteTimeline> = (0..machines)
                .map(|_| BruteTimeline::new(RESOURCES))
                .collect();
            for (from, dur, fracs) in jobs {
                if fracs.len() != RESOURCES {
                    return Ok(());
                }
                let demands = to_amounts(fracs);
                // Original cluster loop: full scan, strict < tie-break.
                let mut expect = (0usize, f64::INFINITY);
                for (m, tl) in brute.iter().enumerate() {
                    let s = tl.earliest_fit(*from, *dur, &demands);
                    if s < expect.1 {
                        expect = (m, s);
                    }
                }
                let got = cluster.earliest_fit(*from, *dur, &demands);
                prop_assert_eq!(got, expect, "cluster scan from {}", from);
                brute[expect.0].commit(expect.1, *dur, &demands);
                cluster.commit(expect.0, expect.1, *dur, &demands);
            }
            Ok(())
        },
    );
}
