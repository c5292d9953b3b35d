//! The Priority-Queue makespan subroutine with backfilling (Section 5.2).
//!
//! Given a batch of jobs (already selected by the knapsack) and a committed
//! cluster timeline, the subroutine
//! ([`ClusterTimelines::place_batch`](mris_sim::ClusterTimelines::place_batch))
//! walks the batch in heuristic order and gives every job the earliest
//! feasible `(machine, start)` with `start >= floor`. This module keeps its
//! Lemma 6.3 bound. This is the offline PQ of Section 5.2 — release times
//! are ignored within the batch — combined with the backfilling of
//! Section 5.3 that lets placements flow into idle gaps left by earlier
//! iterations.
//!
//! **Why Lemma 6.3 survives backfilling.** The lemma needs: if a job is
//! active at `tau`, it could not have feasibly started at any earlier
//! `t >= floor` (else PQ would have started it there). Earliest-fit gives
//! each job exactly that property against the usage *at placement time*, and
//! later placements only increase usage, so the property holds against the
//! final profile too. Hence a batch placed on an *empty* timeline finishes by
//! `max(2 p_max, 2 V/M)` after `floor` — tested below and property-tested in
//! `tests/`.

use mris_types::{Instance, JobId, Time};

/// The Lemma 6.3 upper bound on the makespan of a batch placed by the
/// subroutine on an **empty** cluster of `machines` machines:
/// `max(2 * p_max, 2 * V / M)` where `V` is the batch volume. (Relative to
/// the placement floor.)
pub fn batch_makespan_bound(instance: &Instance, batch: &[JobId], machines: usize) -> Time {
    let p_max = batch
        .iter()
        .map(|&j| instance.job(j).proc_time)
        .fold(0.0_f64, f64::max);
    let volume: f64 = batch.iter().map(|&j| instance.job(j).volume()).sum();
    (2.0 * p_max).max(2.0 * volume / machines as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mris_sim::ClusterTimelines;
    use mris_types::{ClusterSpec, Instance, Job, JobId, Schedule};

    fn inst(jobs: Vec<Job>, r: usize) -> Instance {
        Instance::from_unnumbered(jobs, r).unwrap()
    }

    /// Places all of `instance` in id order at or after `floor`, as the
    /// MRIS epoch places a batch.
    fn place_all(
        timelines: &mut ClusterTimelines,
        instance: &Instance,
        floor: Time,
    ) -> Vec<(JobId, usize, Time)> {
        let mut placements = Vec::new();
        timelines.place_batch(instance, &all_ids(instance), floor, &mut placements);
        placements
    }

    fn all_ids(instance: &Instance) -> Vec<JobId> {
        instance.jobs().iter().map(|j| j.id).collect()
    }

    #[test]
    fn places_in_order_at_earliest_fit() {
        let instance = inst(
            vec![
                Job::from_fractions(JobId(0), 0.0, 3.0, 1.0, &[0.7]),
                Job::from_fractions(JobId(0), 0.0, 2.0, 1.0, &[0.7]),
                Job::from_fractions(JobId(0), 0.0, 1.0, 1.0, &[0.2]),
            ],
            1,
        );
        let mut tl = ClusterTimelines::new(1, 1);
        let placements = place_all(&mut tl, &instance, 0.0);
        assert_eq!(placements[0], (JobId(0), 0, 0.0));
        assert_eq!(placements[1], (JobId(1), 0, 3.0));
        // The small job backfills alongside job 0.
        assert_eq!(placements[2], (JobId(2), 0, 0.0));
    }

    #[test]
    fn respects_floor() {
        let instance = inst(
            vec![Job::from_fractions(JobId(0), 0.0, 1.0, 1.0, &[0.5])],
            1,
        );
        let mut tl = ClusterTimelines::new(2, 1);
        let placements = place_all(&mut tl, &instance, 7.5);
        assert_eq!(placements[0].2, 7.5);
    }

    #[test]
    fn lemma_6_3_bound_holds_on_tight_instance() {
        // Lemma 6.4's tight family: N jobs, demand 1/2 + delta, so only one
        // runs at a time; makespan = N * p approaches 2V/M as delta -> 0.
        let n = 8;
        let p = 3.0;
        let delta = 0.01;
        let jobs: Vec<Job> = (0..n)
            .map(|_| Job::from_fractions(JobId(0), 0.0, p, 1.0, &[0.5 + delta, 0.0]))
            .collect();
        let instance = inst(jobs, 2);
        let mut tl = ClusterTimelines::new(1, 2);
        let placements = place_all(&mut tl, &instance, 0.0);
        let makespan = placements
            .iter()
            .map(|&(j, _, s)| s + instance.job(j).proc_time)
            .fold(0.0_f64, f64::max);
        assert!((makespan - n as f64 * p).abs() < 1e-9);
        let bound = batch_makespan_bound(&instance, &all_ids(&instance), 1);
        assert!(makespan <= bound + 1e-9);
        // Tightness: the bound is within (1 + 2 delta) of the achieved value.
        assert!(bound <= makespan * (1.0 + 2.0 * delta) + 1e-9);
    }

    #[test]
    fn commits_what_it_probed_on_a_slow_machine() {
        // Two full-demand p = 4 jobs on one speed-0.5 machine: each occupies
        // 8 wall-time units, so the second must start at 8, not at 4.
        let jobs = vec![
            Job::from_fractions(JobId(0), 0.0, 4.0, 1.0, &[1.0]),
            Job::from_fractions(JobId(0), 0.0, 4.0, 1.0, &[1.0]),
        ];
        let instance = inst(jobs, 1);
        let cluster = ClusterSpec::related(1, &[0.5]);
        let mut tl = ClusterTimelines::with_spec(&cluster, 1);
        let placements = place_all(&mut tl, &instance, 0.0);
        assert_eq!(placements, [(JobId(0), 0, 0.0), (JobId(1), 0, 8.0)]);
        let mut schedule = Schedule::new(instance.len(), cluster.len());
        for (j, m, s) in placements {
            schedule.assign(j, m, s).unwrap();
        }
        schedule.validate_on(&instance, &cluster).unwrap();
    }

    #[test]
    fn bound_p_max_branch() {
        // One long skinny job: bound driven by 2 * p_max.
        let instance = inst(
            vec![Job::from_fractions(JobId(0), 0.0, 10.0, 1.0, &[0.1])],
            1,
        );
        let ids = all_ids(&instance);
        assert!((batch_makespan_bound(&instance, &ids, 4) - 20.0).abs() < 1e-9);
    }
}
