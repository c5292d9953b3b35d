//! Property tests of `MachineTimeline` against a naive reference model.
//!
//! The reference stores committed occupations as a plain interval list and
//! answers usage/feasibility queries by direct summation; the step-function
//! timeline must agree with it everywhere.

use mris_rng::prop::{check, Config};
use mris_rng::{prop_assert, prop_assert_eq, Rng};
use mris_sim::MachineTimeline;
use mris_types::{Amount, CAPACITY};

/// Naive model: list of (start, duration, demands).
struct Reference {
    num_resources: usize,
    occupations: Vec<(f64, f64, Vec<Amount>)>,
}

impl Reference {
    fn usage_at(&self, t: f64) -> Vec<Amount> {
        let mut usage = vec![0; self.num_resources];
        for (s, d, demands) in &self.occupations {
            if *s <= t && t < s + d {
                for (u, &dem) in usage.iter_mut().zip(demands) {
                    *u += dem;
                }
            }
        }
        usage
    }

    fn is_feasible(&self, start: f64, dur: f64, demands: &[Amount]) -> bool {
        // Check at all interval endpoints within [start, start + dur), plus
        // the start itself — usage is piecewise constant between them.
        let mut points = vec![start];
        for (s, d, _) in &self.occupations {
            for &p in &[*s, s + d] {
                if p > start && p < start + dur {
                    points.push(p);
                }
            }
        }
        points.iter().all(|&p| {
            self.usage_at(p)
                .iter()
                .zip(demands)
                .all(|(&u, &d)| u + d <= CAPACITY)
        })
    }
}

/// Whether the timeline holds `demands` throughout `[start, start + dur)`:
/// its scan, cut off one ulp past `start`, finds `start` itself.
fn fits(tl: &MachineTimeline, start: f64, dur: f64, demands: &[Amount]) -> bool {
    tl.earliest_fit_bounded(start, dur, demands, start.next_up()) == Some(start)
}

/// A commit script: sequences of (start, duration, demand fractions).
fn gen_commits(rng: &mut Rng, r: usize) -> Vec<(f64, f64, Vec<f64>)> {
    let n = rng.gen_range(0..20usize);
    (0..n)
        .map(|_| {
            (
                rng.gen_range(0.0..50.0),
                rng.gen_range(0.1..10.0),
                (0..r).map(|_| rng.gen_range(0.0..0.3)).collect(),
            )
        })
        .collect()
}

fn to_amounts(fracs: &[f64]) -> Vec<Amount> {
    fracs
        .iter()
        .map(|&f| mris_types::amount_from_fraction(f))
        .collect()
}

/// Replays a commit script into both models, keeping only feasible commits
/// (`commit()` requires feasibility by contract). `None` for shrink
/// candidates whose demand vectors lost the 2-resource invariant.
fn replay(commits: &[(f64, f64, Vec<f64>)]) -> Option<(MachineTimeline, Reference)> {
    if commits.iter().any(|(_, _, fr)| fr.len() != 2) {
        return None;
    }
    let mut tl = MachineTimeline::new(2);
    let mut reference = Reference {
        num_resources: 2,
        occupations: vec![],
    };
    for (s, d, fr) in commits {
        let demands = to_amounts(fr);
        if reference.is_feasible(*s, *d, &demands) {
            tl.commit(*s, *d, &demands);
            reference.occupations.push((*s, *d, demands));
        }
    }
    Some((tl, reference))
}

/// Usage queries agree with the naive model at arbitrary probe points.
#[test]
fn usage_matches_reference() {
    check(
        "usage matches reference",
        &Config::with_cases(128),
        |rng| {
            let commits = gen_commits(rng, 2);
            let n_probes = rng.gen_range(1..20usize);
            let probes: Vec<f64> = (0..n_probes).map(|_| rng.gen_range(0.0..80.0)).collect();
            (commits, probes)
        },
        |(commits, probes)| {
            let Some((tl, reference)) = replay(commits) else {
                return Ok(());
            };
            for &p in probes {
                prop_assert_eq!(tl.usage_at(p), &reference.usage_at(p)[..], "at {}", p);
            }
            Ok(())
        },
    );
}

/// The scan cut off just past a window's start agrees with the naive
/// model on whether the window is feasible, for arbitrary windows.
#[test]
fn feasibility_matches_reference() {
    check(
        "feasibility matches reference",
        &Config::with_cases(128),
        |rng| {
            let commits = gen_commits(rng, 2);
            let n_queries = rng.gen_range(1..16usize);
            let queries: Vec<(f64, f64, Vec<f64>)> = (0..n_queries)
                .map(|_| {
                    (
                        rng.gen_range(0.0..60.0),
                        rng.gen_range(0.1..15.0),
                        vec![rng.gen_range(0.0..=1.0), rng.gen_range(0.0..=1.0)],
                    )
                })
                .collect();
            (commits, queries)
        },
        |(commits, queries)| {
            let Some((tl, reference)) = replay(commits) else {
                return Ok(());
            };
            for (s, d, fr) in queries {
                if fr.len() != 2 {
                    return Ok(());
                }
                let demands = to_amounts(fr);
                prop_assert_eq!(
                    fits(&tl, *s, *d, &demands),
                    reference.is_feasible(*s, *d, &demands),
                    "window [{}, {})",
                    s,
                    s + d
                );
            }
            Ok(())
        },
    );
}

/// `earliest_fit` returns a feasible start, no earlier than requested,
/// and *minimal*: the window immediately before it is infeasible.
#[test]
fn earliest_fit_is_sound_and_minimal() {
    check(
        "earliest fit is sound and minimal",
        &Config::with_cases(128),
        |rng| {
            (
                gen_commits(rng, 2),
                rng.gen_range(0.0..40.0),
                rng.gen_range(0.1..10.0),
                vec![rng.gen_range(0.0..=1.0), rng.gen_range(0.0..=1.0)],
            )
        },
        |(commits, from, dur, probe_fr)| {
            if probe_fr.len() != 2 {
                return Ok(());
            }
            let Some((tl, reference)) = replay(commits) else {
                return Ok(());
            };
            let demands = to_amounts(probe_fr);
            let start = tl.earliest_fit(*from, *dur, &demands);
            prop_assert!(start >= *from);
            prop_assert!(reference.is_feasible(start, *dur, &demands));
            // Minimality: any strictly earlier start (>= from) is infeasible.
            // Usage is piecewise constant, so checking a few candidates
            // earlier than `start` suffices: midpoints between `from` and
            // `start`.
            if start > *from {
                for frac in [0.0, 0.25, 0.5, 0.75, 0.999] {
                    let earlier = from + (start - from) * frac;
                    if earlier < start {
                        prop_assert!(
                            !reference.is_feasible(earlier, *dur, &demands),
                            "earlier start {} would fit before {}",
                            earlier,
                            start
                        );
                    }
                }
            }
            Ok(())
        },
    );
}

/// Committing at the earliest fit never violates capacity (exercised by
/// the debug assertions inside commit) and horizons grow monotonically.
#[test]
fn place_sequences_stay_feasible() {
    check(
        "place sequences stay feasible",
        &Config::with_cases(128),
        |rng| {
            let n = rng.gen_range(1..30usize);
            (0..n)
                .map(|_| {
                    (
                        rng.gen_range(0.1..8.0),
                        vec![rng.gen_range(0.0..=1.0), rng.gen_range(0.0..=1.0)],
                    )
                })
                .collect::<Vec<(f64, Vec<f64>)>>()
        },
        |jobs| {
            use mris_sim::ClusterTimelines;
            if jobs.iter().any(|(_, fr)| fr.len() != 2) {
                return Ok(());
            }
            let mut cl = ClusterTimelines::new(2, 2);
            let mut horizon = 0.0f64;
            for (dur, fr) in jobs {
                let demands = to_amounts(fr);
                let (m, s) = cl.earliest_fit(0.0, *dur, &demands);
                cl.commit(m, s, *dur, &demands);
                let new_horizon = cl.horizon();
                prop_assert!(new_horizon >= horizon);
                horizon = new_horizon;
            }
            Ok(())
        },
    );
}

/// A floor learned from an easier query never changes a harder query's
/// answer. Queries go through `ClusterTimelines::earliest_fit_mut`, which
/// raises floors as it probes; each answer must be the lexicographic
/// `(start, machine)` minimum of the plain per-machine scan
/// (`MachineTimeline::earliest_fit`, which reads no floors) — across
/// interleaved commits, a compaction, and probes from below the base the
/// floors were learned at. Demands come from a two-vector catalog, one
/// pointwise above the other, and durations from a short ladder, so most
/// queries are an easier or harder version of an earlier one.
#[test]
fn learned_floors_never_change_an_answer() {
    const DURS: [f64; 4] = [0.5, 1.0, 3.0, 7.0];
    const CATALOG: [[f64; 2]; 2] = [[0.3, 0.2], [0.6, 0.45]];
    check(
        "learned floors never change an answer",
        &Config::with_cases(192),
        |rng| {
            let n = rng.gen_range(1..50usize);
            (0..n)
                .map(|_| {
                    (
                        rng.gen_range(0..5usize),
                        rng.gen_range(0.0..3.0),
                        rng.gen_range(0..DURS.len()),
                        rng.gen_range(0..CATALOG.len()),
                    )
                })
                .collect::<Vec<(usize, f64, usize, usize)>>()
        },
        |script| {
            use mris_sim::ClusterTimelines;
            let machines = 3;
            let mut cl = ClusterTimelines::new(machines, 2);
            let mut from = 0.0_f64;
            for &(kind, step, dur, class) in script {
                let (dur, demands) = (DURS[dur % DURS.len()], to_amounts(&CATALOG[class % 2]));
                let watermark = (0..machines)
                    .map(|m| cl.machine(m).compaction_watermark())
                    .fold(0.0, f64::max);
                // 0..=2 query and place, the way a batch does (2 moves the
                // floor first); 3 only queries, from the watermark — below
                // where floors were learned; 4 compacts.
                if kind == 4 {
                    cl.compact_before(from - step);
                    continue;
                }
                if kind == 2 {
                    from += step;
                }
                let at = if kind == 3 {
                    watermark
                } else {
                    from.max(watermark)
                };
                let expect = (0..machines)
                    .map(|m| (m, cl.machine(m).earliest_fit(at, dur, &demands)))
                    .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
                    .unwrap();
                let got = cl.earliest_fit_mut(at, dur, &demands);
                prop_assert_eq!(
                    (got.0, got.1.to_bits()),
                    (expect.0, expect.1.to_bits()),
                    "op {}: query from {} dur {} class {}",
                    kind,
                    at,
                    dur,
                    class
                );
                if kind != 3 {
                    cl.commit(got.0, got.1, dur, &demands);
                }
            }
            Ok(())
        },
    );
}
