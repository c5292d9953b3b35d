//! Incremental epoch state for the Algorithm 1 interval loop.
//!
//! Each iteration of [`MrisOnline`](crate::MrisOnline) — the state's one
//! owner — filters the pending set down to the eligible jobs `J_k`, solves
//! problem **P1** at budget `zeta_k`, and places the batch earliest-fit.
//! Re-deriving all of that at every `gamma_k` costs an `O(pending)` filter
//! plus a handful of allocations per epoch, even for epochs in which
//! nothing changed, so [`EpochState`] carries the loop's working set across
//! iterations:
//!
//! * **Monotone eligibility frontier.** A job becomes eligible at the fixed
//!   threshold `max(p_j, available_from_j)` and — because the grid only
//!   advances — never becomes ineligible again. Jobs wait in a min-heap
//!   keyed by that threshold and are promoted into the `frontier` set at
//!   most once; an epoch whose frontier is empty costs `O(1)`.
//! * **Scratch arena.** The eligible list, item list, batch vectors, and the
//!   solver's [`SolveScratch`] live in an [`EpochScratch`] reused across
//!   epochs, so a steady-state epoch allocates one vector: the solver's
//!   selection, which `select_batch` extends into the batch and returns.
//!
//! Stage timing: when an observability subscriber is installed the epoch
//! body opens `mris_epoch_{filter,solve}_seconds` spans and records one
//! `mris_epoch_{probe,commit}_seconds` sample per epoch from the sums
//! `ClusterTimelines::place_batch` hands back (the grid/compaction stage is
//! timed by the caller as `mris_epoch_grid_seconds`), giving the job-path
//! benchmark (`benchmark/`, the `core.*` layer) its per-stage breakdown.
//! With no subscriber each span is one relaxed atomic load.
//!
//! The state holds no per-job vector: it grows with the announced jobs,
//! not with the instance. `tests/epoch_equivalence.rs` pins it
//! bit-identical to a flat reference that re-filters every announced job
//! at every epoch, as Algorithm 1 reads.

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};

use mris_knapsack::{Item, KnapsackSolver, SolveScratch};
use mris_sim::{ClusterTimelines, OrdTime};
use mris_types::{Codec, CodecError, Decoder, Encoder, Instance, JobId, Time};

use crate::algorithm::{select_batch, IterationStats};
use crate::config::MrisConfig;

/// Reusable per-epoch buffers: cleared and refilled every epoch, never
/// shrunk, so a steady-state epoch's only allocation is the solver's
/// selection vector.
#[derive(Default)]
struct EpochScratch {
    /// Eligible job ids in ascending id order (`J_k`).
    eligible: Vec<JobId>,
    /// `(weight, volume)` items, parallel to `eligible`.
    items: Vec<Item>,
    /// The selected batch paired with its heuristic keys, for the sort.
    keyed: Vec<(OrdTime, JobId)>,
    /// The selected batch `B_k`, heuristic-sorted before placement.
    batch: Vec<JobId>,
    /// The knapsack solver's temporary buffers.
    solve: SolveScratch,
}

/// The carried state described in the [module docs](self).
#[derive(Default)]
pub(crate) struct EpochState {
    /// Announced jobs not yet eligible, keyed by eligibility threshold
    /// `max(p_j, available_from_j)`. Ties carry the id so the pop order is
    /// total.
    waiting: BinaryHeap<Reverse<(OrdTime, JobId)>>,
    /// Eligible-but-unscheduled jobs.
    frontier: BTreeSet<JobId>,
    scratch: EpochScratch,
}

impl EpochState {
    /// Announces a job (original arrival or chaos re-release): it becomes
    /// eligible once `gamma >= max(proc_time, available_from)`.
    pub(crate) fn insert(&mut self, job: JobId, proc_time: Time, available_from: Time) {
        debug_assert!(
            !self.frontier.contains(&job),
            "job {job:?} announced while already eligible"
        );
        let key = proc_time.max(available_from);
        self.waiting.push(Reverse((OrdTime(key), job)));
    }

    /// True when no announced job remains unscheduled.
    pub(crate) fn is_empty(&self) -> bool {
        self.frontier.is_empty() && self.waiting.is_empty()
    }

    /// Promotes every job whose threshold has been reached into the
    /// frontier. Monotone: `gamma` never decreases within a run, so each
    /// job is promoted exactly once.
    fn advance_frontier(&mut self, gamma: Time) {
        while let Some(&Reverse((OrdTime(key), job))) = self.waiting.peek() {
            if key > gamma {
                break;
            }
            self.waiting.pop();
            self.frontier.insert(job);
        }
    }

    /// Runs Algorithm 1's iteration `k` at `gamma` with budget
    /// `zeta_k = R * M * gamma`: frontier advance, batch selection,
    /// heuristic sort, and earliest-fit placement committed onto
    /// `timelines`. Placements are appended to `placements` in placement
    /// order; selected jobs leave the state.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_epoch(
        &mut self,
        instance: &Instance,
        timelines: &mut ClusterTimelines,
        solver: &dyn KnapsackSolver,
        config: &MrisConfig,
        k: usize,
        gamma: Time,
        placements: &mut Vec<(JobId, usize, Time)>,
    ) -> IterationStats {
        let zeta = (instance.num_resources() * timelines.num_machines()) as f64 * gamma;
        let mut stats = IterationStats {
            k,
            gamma,
            zeta,
            ..Default::default()
        };
        {
            let _s = mris_obs::span!("mris_epoch_filter_seconds");
            self.scratch.eligible.clear();
            self.advance_frontier(gamma);
            self.scratch.eligible.extend(self.frontier.iter().copied());
        }
        stats.eligible = self.scratch.eligible.len();
        if stats.eligible == 0 {
            return stats;
        }

        {
            let _s = mris_obs::span!("mris_epoch_solve_seconds");
            self.scratch.items.clear();
            self.scratch
                .items
                .extend(self.scratch.eligible.iter().map(|&j| {
                    let job = instance.job(j);
                    Item::new(job.weight, job.volume())
                }));
            let selection =
                select_batch(solver, &mut self.scratch.solve, &self.scratch.items, zeta);
            // Each key is computed once; ids are unique, so the pairs sort
            // into one total order and an unstable sort is exact.
            let heuristic = config.heuristic;
            self.scratch.keyed.clear();
            self.scratch.keyed.extend(selection.iter().map(|&i| {
                let id = self.scratch.eligible[i];
                (OrdTime(heuristic.key(instance.job(id))), id)
            }));
            self.scratch.keyed.sort_unstable();
            self.scratch.batch.clear();
            self.scratch
                .batch
                .extend(self.scratch.keyed.iter().map(|&(_, id)| id));
        }
        if self.scratch.batch.is_empty() {
            return stats;
        }

        // Earliest-fit placement with floor gamma (Section 5.2/5.3), handed
        // to the timelines as one call: commits follow each probe, so what
        // job i's probes learned is where job i+1's start. Probe and commit
        // time come back summed over the batch and are recorded once per
        // epoch — a per-job histogram insert costs as much as a cheap probe.
        let floor = if config.backfill {
            gamma
        } else {
            gamma.max(timelines.horizon())
        };
        let first = placements.len();
        let (probe_time, commit_time) =
            timelines.place_batch(instance, &self.scratch.batch, floor, placements);
        if mris_obs::enabled() {
            mris_obs::histogram_record("mris_epoch_probe_seconds", probe_time.as_secs_f64());
            mris_obs::histogram_record("mris_epoch_commit_seconds", commit_time.as_secs_f64());
        }
        for &(id, machine, start) in &placements[first..] {
            let job = instance.job(id);
            self.frontier.remove(&id);
            stats.scheduled += 1;
            stats.batch_weight += job.weight;
            stats.batch_volume += job.volume();
            // `proc_time` is nominal work: the probe, the commit and this
            // completion all scale it by the chosen machine's speed (a
            // no-op on unit machines, where `p / 1.0` is bitwise `p`).
            stats.batch_end = stats
                .batch_end
                .max(start + job.proc_time / timelines.speed(machine));
        }
        stats
    }
}

/// The replay-relevant state: the waiting heap, sorted (its layout is
/// history-dependent), then the frontier, each list prefixed by its count.
/// The scratch arena carries nothing across epochs and is not written. The
/// context is one `seen` flag per job of the instance: every job must be
/// in range and appear once across both lists and whatever `seen` already
/// marks, and each is marked. The entries must be in canonical order.
impl Codec for EpochState {
    type Context<'a> = &'a mut [bool];

    fn encode(&self, e: &mut Encoder) {
        let mut waiting: Vec<(u64, u32)> = self
            .waiting
            .iter()
            .map(|&Reverse((OrdTime(key), job))| (key.to_bits(), job.0))
            .collect();
        waiting.sort_unstable();
        e.u64(waiting.len() as u64);
        for (key, job) in waiting {
            e.u64(key);
            e.u32(job);
        }
        e.u64(self.frontier.len() as u64);
        for job in &self.frontier {
            e.u32(job.0);
        }
    }

    fn decode(d: &mut Decoder<'_>, seen: &mut [bool]) -> Result<Self, CodecError> {
        let count = d.count(12)?;
        let mut waiting = Vec::with_capacity(count);
        let mut prev = None;
        for _ in 0..count {
            let key = d.u64()?;
            let job = d.unique_job(seen)?;
            if prev.is_some_and(|p| p >= (key, job)) {
                return Err(d.malformed("waiting jobs out of canonical order"));
            }
            prev = Some((key, job));
            waiting.push(Reverse((OrdTime(f64::from_bits(key)), job)));
        }
        let mut frontier = BTreeSet::new();
        let mut prev = None;
        for _ in 0..d.count(4)? {
            let job = d.unique_job(seen)?;
            if prev.is_some_and(|p| p >= job) {
                return Err(d.malformed("frontier out of id order"));
            }
            prev = Some(job);
            frontier.insert(job);
        }
        Ok(EpochState {
            waiting: BinaryHeap::from(waiting),
            frontier,
            scratch: EpochScratch::default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frontier_promotion_is_monotone_and_single_shot() {
        let mut state = EpochState::default();
        state.insert(JobId(0), 1.0, 0.0); // threshold 1
        state.insert(JobId(1), 4.0, 0.0); // threshold 4
        state.insert(JobId(2), 1.0, 6.0); // threshold 6
        state.advance_frontier(2.0);
        assert_eq!(state.frontier.len(), 1);
        assert!(state.frontier.contains(&JobId(0)));
        state.advance_frontier(6.0);
        assert_eq!(state.frontier.len(), 3);
        assert!(state.waiting.is_empty());
    }

    #[test]
    fn empty_state_reports_empty() {
        let mut state = EpochState::default();
        assert!(state.is_empty());
        state.insert(JobId(0), 1.0, 0.0);
        assert!(!state.is_empty());
    }
}
