//! The Priority-Queue (PQ) class of online algorithms (Section 4).
//!
//! On every event (arrival or completion), PQ scans the queue of pending
//! jobs in heuristic order and starts every job that currently fits on some
//! machine (first fit). The implementation exploits that between events
//! nothing changes: at a completion event only the machines that freed
//! capacity can newly admit an *old* pending job, and at an arrival event
//! only the *newly arrived* jobs can be admissible at all. This keeps each
//! event to one ordered scan with O(R) feasibility checks per job while
//! producing exactly the schedule of the textbook full rescan (verified by a
//! cross-check against [`NaivePqPolicy`] in the tests).

use std::collections::BTreeSet;

use mris_sim::{Dispatcher, OnlinePolicy, OrdTime};
use mris_types::{ClusterSpec, Instance, JobId, SchedulingError, Time};

use crate::{Scheduler, SortHeuristic};

/// The PQ online policy. Use through [`Pq`] unless you are composing your
/// own driver loop.
#[derive(Debug, Clone)]
pub struct PqPolicy {
    heuristic: SortHeuristic,
    pending: BTreeSet<(OrdTime, JobId)>,
    fresh: Vec<JobId>,
}

impl PqPolicy {
    /// A PQ policy ordering its queue with `heuristic`.
    pub fn new(heuristic: SortHeuristic) -> Self {
        PqPolicy {
            heuristic,
            pending: BTreeSet::new(),
            fresh: Vec::new(),
        }
    }

    /// Number of jobs currently queued (arrived but not started).
    pub fn num_pending(&self) -> usize {
        self.pending.len()
    }
}

impl OnlinePolicy for PqPolicy {
    fn on_arrivals(&mut self, _now: Time, arrived: &[JobId], _instance: &Instance) {
        self.fresh.extend_from_slice(arrived);
    }

    fn dispatch(&mut self, d: &mut Dispatcher<'_>, freed: &[usize]) -> Result<(), SchedulingError> {
        let instance = d.instance();
        for &j in &self.fresh {
            self.pending
                .insert((OrdTime(self.heuristic.key(instance.job(j))), j));
        }
        let mut fresh: Vec<JobId> = std::mem::take(&mut self.fresh);
        fresh.sort_unstable();
        if freed.is_empty() && fresh.is_empty() {
            return Ok(());
        }
        let mut placed: Vec<(OrdTime, JobId)> = Vec::new();
        for &(key, j) in self.pending.iter() {
            let demands = &instance.job(j).demands;
            // Old pending jobs were infeasible everywhere at the previous
            // event and capacity has only shrunk elsewhere, so they need only
            // be checked against machines that just freed capacity. `freed`
            // is sorted, so this remains first fit.
            let machine = if fresh.binary_search(&j).is_ok() {
                d.cluster().first_fit(demands)
            } else {
                freed
                    .iter()
                    .copied()
                    .find(|&m| d.cluster().fits(m, demands))
            };
            if let Some(m) = machine {
                d.place(m, j)?;
                placed.push((key, j));
            }
        }
        for entry in placed {
            self.pending.remove(&entry);
        }
        Ok(())
    }

    fn encode_durable_state(&self, out: &mut Vec<u8>) -> bool {
        // BTreeSet iterates sorted, and `fresh` is in deterministic arrival
        // order, so the encoding is already canonical.
        out.extend_from_slice(&(self.pending.len() as u64).to_le_bytes());
        for &(OrdTime(key), j) in &self.pending {
            out.extend_from_slice(&key.to_bits().to_le_bytes());
            out.extend_from_slice(&j.0.to_le_bytes());
        }
        out.extend_from_slice(&(self.fresh.len() as u64).to_le_bytes());
        for j in &self.fresh {
            out.extend_from_slice(&j.0.to_le_bytes());
        }
        true
    }
}

/// The PQ scheduler (Section 4): event-driven greedy scheduling in heuristic
/// queue order. Lemma 4.1 proves this class `Omega(N)`-competitive for AWCT.
#[derive(Debug, Clone, Copy)]
pub struct Pq {
    /// Queue ordering. The paper's evaluation uses WSJF and WSVF variants.
    pub heuristic: SortHeuristic,
}

impl Pq {
    /// A PQ scheduler with the given queue ordering.
    pub fn new(heuristic: SortHeuristic) -> Self {
        Pq { heuristic }
    }
}

impl Scheduler for Pq {
    fn name(&self) -> String {
        format!("PQ-{}", self.heuristic)
    }

    fn policy(&self, _instance: &Instance, _cluster: &ClusterSpec) -> Box<dyn OnlinePolicy> {
        Box::new(PqPolicy::new(self.heuristic))
    }

    // Purely reactive: the driver gates DAG arrivals and the cluster scales
    // run lengths by machine speed, so PQ works on both workload families.
    fn supports_precedence(&self) -> bool {
        true
    }

    fn supports_heterogeneous(&self) -> bool {
        true
    }
}

/// Reference implementation that rescans *all* pending jobs against *all*
/// machines at every event — the literal Section 4 definition, used to
/// cross-validate [`PqPolicy`]'s incremental scan. Exposed for tests.
#[derive(Debug, Clone)]
pub struct NaivePqPolicy {
    heuristic: SortHeuristic,
    pending: BTreeSet<(OrdTime, JobId)>,
}

impl NaivePqPolicy {
    /// A naive full-rescan PQ policy.
    pub fn new(heuristic: SortHeuristic) -> Self {
        NaivePqPolicy {
            heuristic,
            pending: BTreeSet::new(),
        }
    }
}

impl OnlinePolicy for NaivePqPolicy {
    fn on_arrivals(&mut self, _now: Time, arrived: &[JobId], instance: &Instance) {
        for &j in arrived {
            self.pending
                .insert((OrdTime(self.heuristic.key(instance.job(j))), j));
        }
    }

    fn dispatch(
        &mut self,
        d: &mut Dispatcher<'_>,
        _freed: &[usize],
    ) -> Result<(), SchedulingError> {
        let instance = d.instance();
        let mut placed = Vec::new();
        for &(key, j) in self.pending.iter() {
            if let Some(m) = d.cluster().first_fit(&instance.job(j).demands) {
                d.place(m, j)?;
                placed.push((key, j));
            }
        }
        for entry in placed {
            self.pending.remove(&entry);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mris_sim::run_online;
    use mris_types::Job;

    fn inst(jobs: Vec<Job>) -> Instance {
        Instance::from_unnumbered(jobs, 2).unwrap()
    }

    fn j(r: f64, p: f64, w: f64, d: &[f64]) -> Job {
        Job::from_fractions(JobId(0), r, p, w, d)
    }

    #[test]
    fn pq_commits_greedily_lemma_4_1_shape() {
        // The Lemma 4.1 adversarial shape: a huge job at t=0, tiny jobs at
        // t=0.1. PQ starts the huge job immediately; the tiny ones wait.
        let mut jobs = vec![j(0.0, 10.0, 1.0, &[1.0, 1.0])];
        for _ in 0..4 {
            jobs.push(j(0.1, 1.0, 1.0, &[0.25, 0.25]));
        }
        let instance = inst(jobs);
        let s = Pq::new(SortHeuristic::Wsjf).schedule(&instance, 1);
        s.validate(&instance).unwrap();
        assert_eq!(s.get(JobId(0)).unwrap().start, 0.0);
        for i in 1..5 {
            assert_eq!(s.get(JobId(i)).unwrap().start, 10.0, "job {i}");
        }
    }

    #[test]
    fn pq_sjf_orders_queue() {
        // Two jobs released together, both blocked by a running job; the
        // shorter goes first when capacity frees even though it arrived last.
        let jobs = vec![
            j(0.0, 5.0, 1.0, &[1.0, 0.0]),
            j(1.0, 4.0, 1.0, &[0.8, 0.0]),
            j(1.0, 1.0, 1.0, &[0.8, 0.0]),
        ];
        let instance = inst(jobs);
        let s = Pq::new(SortHeuristic::Sjf).schedule(&instance, 1);
        s.validate(&instance).unwrap();
        assert_eq!(s.get(JobId(2)).unwrap().start, 5.0);
        assert_eq!(s.get(JobId(1)).unwrap().start, 6.0);
    }

    #[test]
    fn optimized_matches_naive_on_pseudorandom_instances() {
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for trial in 0..40 {
            let n = 5 + (next() % 40) as usize;
            let jobs: Vec<Job> = (0..n)
                .map(|_| {
                    j(
                        (next() % 20) as f64 * 0.5,
                        1.0 + (next() % 8) as f64,
                        1.0 + (next() % 3) as f64,
                        &[(next() % 100) as f64 / 100.0, (next() % 100) as f64 / 100.0],
                    )
                })
                .collect();
            let instance = inst(jobs);
            for heuristic in SortHeuristic::ALL_EXTENDED {
                let machines = 1 + (trial % 3);
                let fast = run_online(&instance, machines, &mut PqPolicy::new(heuristic)).unwrap();
                let slow =
                    run_online(&instance, machines, &mut NaivePqPolicy::new(heuristic)).unwrap();
                assert_eq!(fast, slow, "trial {trial} heuristic {heuristic}");
                fast.validate(&instance).unwrap();
            }
        }
    }
}
