//! Shelf-based First-Fit-Decreasing placement for unit-length batches
//! (Remark 3).
//!
//! The paper notes that when all jobs have equal processing times, the
//! makespan subproblem becomes vector bin packing, for which much better
//! approximations exist than the `2R` of Lemma 6.3. This module implements
//! the classic first-fit-decreasing heuristic in *shelf* form: jobs sorted
//! by decreasing dominant demand are first-fit packed into shelves; each
//! shelf runs for the batch's common processing time, shelves are assigned
//! round-robin to machines and stacked in time.
//!
//! This is an **offline batch subroutine** like
//! [`place_batch`](crate::place_batch); it does not backfill into earlier
//! iterations' gaps, so on mixed workloads MRIS's default PQ subroutine is
//! usually preferable — the ablation bench quantifies the trade-off on
//! unit-job instances, where FFD's tighter packing wins.

use mris_sim::ClusterTimelines;
use mris_types::{Amount, Instance, JobId, Time, CAPACITY};

/// Places a batch of jobs with (approximately) equal processing times using
/// shelf-based FFD vector packing, committing onto `timelines` starting no
/// earlier than `floor` (and no earlier than each machine's current
/// horizon). Returns placements in batch order.
///
/// A unit-machine ablation routine (Remark 3): shelves are packed against
/// the global `CAPACITY` and committed as wall time, so it ignores a
/// [`ClusterSpec`](mris_types::ClusterSpec)'s per-machine capacities and
/// speeds. Use [`place_batch`](crate::place_batch) on non-uniform clusters.
///
/// Panics if the batch is empty-safe (returns empty) — jobs may have
/// unequal processing times, in which case every shelf runs for the longest
/// processing time among its members (correct, but wasteful; intended for
/// unit-time batches).
pub fn place_batch_ffd(
    timelines: &mut ClusterTimelines,
    instance: &Instance,
    batch: &[JobId],
    floor: Time,
) -> Vec<(JobId, usize, Time)> {
    if batch.is_empty() {
        return Vec::new();
    }
    let r = instance.num_resources();

    // Sort by decreasing dominant demand (FFD order), ties by id.
    let mut order: Vec<JobId> = batch.to_vec();
    order.sort_by(|&a, &b| {
        let da = instance.job(a).demands.iter().copied().max().unwrap_or(0);
        let db = instance.job(b).demands.iter().copied().max().unwrap_or(0);
        db.cmp(&da).then(a.cmp(&b))
    });

    // First-fit into shelves.
    struct Shelf {
        usage: Vec<Amount>,
        jobs: Vec<JobId>,
        span: Time,
    }
    let mut shelves: Vec<Shelf> = Vec::new();
    'jobs: for &id in &order {
        let job = instance.job(id);
        for shelf in shelves.iter_mut() {
            if shelf
                .usage
                .iter()
                .zip(job.demands.iter())
                .all(|(&u, &d)| u + d <= CAPACITY)
            {
                for (u, &d) in shelf.usage.iter_mut().zip(job.demands.iter()) {
                    *u += d;
                }
                shelf.jobs.push(id);
                shelf.span = shelf.span.max(job.proc_time);
                continue 'jobs;
            }
        }
        shelves.push(Shelf {
            usage: job.demands.to_vec(),
            jobs: vec![id],
            span: job.proc_time,
        });
    }

    // Stack shelves round-robin across machines, each starting at the later
    // of `floor` and the machine's committed horizon, then commit.
    let machines = timelines.num_machines();
    let mut next_start: Vec<Time> = (0..machines)
        .map(|m| {
            let tl = timelines.machine(m);
            // Earliest instant >= floor at which the machine is idle forever
            // (shelves need exclusive stacking, so start after everything
            // committed): query with a full-capacity probe of tiny duration.
            let full = vec![CAPACITY; r];
            tl.earliest_fit(floor, f64::MIN_POSITIVE.max(1e-9), &full)
        })
        .collect();

    let mut placements = Vec::with_capacity(batch.len());
    for (i, shelf) in shelves.iter().enumerate() {
        let m = i % machines;
        let start = next_start[m];
        for &id in &shelf.jobs {
            let job = instance.job(id);
            timelines.commit(m, start, job.proc_time, &job.demands);
            placements.push((id, m, start));
        }
        next_start[m] = start + shelf.span;
    }
    // Return in batch order for parity with `place_batch`.
    placements.sort_by_key(|&(id, _, _)| batch.iter().position(|&b| b == id).unwrap_or(usize::MAX));
    placements
}

#[cfg(test)]
mod tests {
    use super::*;
    use mris_types::{Job, Schedule};

    fn unit_instance(demands: &[f64]) -> Instance {
        let jobs = demands
            .iter()
            .map(|&d| Job::from_fractions(JobId(0), 0.0, 1.0, 1.0, &[d]))
            .collect();
        Instance::from_unnumbered(jobs, 1).unwrap()
    }

    fn validate(instance: &Instance, placements: &[(JobId, usize, Time)], machines: usize) {
        let mut s = Schedule::new(instance.len(), machines);
        for &(j, m, start) in placements {
            s.assign(j, m, start).unwrap();
        }
        s.validate(instance).unwrap();
    }

    #[test]
    fn packs_complementary_unit_jobs_into_one_shelf() {
        let instance = unit_instance(&[0.7, 0.3, 0.5, 0.5]);
        let batch: Vec<JobId> = instance.jobs().iter().map(|j| j.id).collect();
        let mut tl = ClusterTimelines::new(1, 1);
        let placements = place_batch_ffd(&mut tl, &instance, &batch, 0.0);
        validate(&instance, &placements, 1);
        // FFD: 0.7+0.3 in shelf 0, 0.5+0.5 in shelf 1 -> makespan 2.
        let makespan = placements
            .iter()
            .map(|&(j, _, s)| s + instance.job(j).proc_time)
            .fold(0.0_f64, f64::max);
        assert!((makespan - 2.0).abs() < 1e-9);
    }

    #[test]
    fn beats_naive_order_on_ffd_friendly_input() {
        // 0.6-jobs and 0.4-jobs: FFD pairs them perfectly (one of each per
        // shelf); a bad arrival order under first-fit-without-sorting packs
        // 0.4s together and strands 0.6s.
        let mut demands = vec![0.4; 4];
        demands.extend(vec![0.6; 4]);
        let instance = unit_instance(&demands);
        let batch: Vec<JobId> = instance.jobs().iter().map(|j| j.id).collect();
        let mut tl = ClusterTimelines::new(1, 1);
        let placements = place_batch_ffd(&mut tl, &instance, &batch, 0.0);
        validate(&instance, &placements, 1);
        let makespan = placements
            .iter()
            .map(|&(j, _, s)| s + instance.job(j).proc_time)
            .fold(0.0_f64, f64::max);
        assert!((makespan - 4.0).abs() < 1e-9, "got {makespan}");
    }

    #[test]
    fn respects_floor_and_existing_commitments() {
        let instance = unit_instance(&[0.9, 0.9]);
        let batch: Vec<JobId> = instance.jobs().iter().map(|j| j.id).collect();
        let mut tl = ClusterTimelines::new(1, 1);
        tl.commit(0, 0.0, 5.0, &[mris_types::amount_from_fraction(0.5)]);
        let placements = place_batch_ffd(&mut tl, &instance, &batch, 2.0);
        validate(&instance, &placements, 1);
        for &(_, _, start) in &placements {
            // Can't overlap the 0.5-usage window [0, 5): starts at >= 5.
            assert!(start >= 5.0, "start {start}");
        }
    }

    #[test]
    fn spreads_shelves_across_machines() {
        let instance = unit_instance(&[0.9, 0.9, 0.9, 0.9]);
        let batch: Vec<JobId> = instance.jobs().iter().map(|j| j.id).collect();
        let mut tl = ClusterTimelines::new(2, 1);
        let placements = place_batch_ffd(&mut tl, &instance, &batch, 0.0);
        validate(&instance, &placements, 2);
        // Four singleton shelves over two machines: makespan 2, both used.
        let makespan = placements
            .iter()
            .map(|&(j, _, s)| s + instance.job(j).proc_time)
            .fold(0.0_f64, f64::max);
        assert!((makespan - 2.0).abs() < 1e-9);
        assert!(placements.iter().any(|&(_, m, _)| m == 0));
        assert!(placements.iter().any(|&(_, m, _)| m == 1));
    }

    #[test]
    fn empty_batch() {
        let instance = unit_instance(&[0.5]);
        let mut tl = ClusterTimelines::new(1, 1);
        assert!(place_batch_ffd(&mut tl, &instance, &[], 0.0).is_empty());
    }
}
