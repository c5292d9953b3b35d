//! The Priority-Queue (PQ) class of online algorithms (Section 4).
//!
//! On every event (arrival or completion), PQ scans the queue of pending
//! jobs in heuristic order and starts every job that currently fits on some
//! machine (first fit). The implementation exploits that between events
//! nothing changes: at a completion event only the machines that freed
//! capacity can newly admit an *old* pending job, and at an arrival event
//! only the *newly arrived* jobs can be admissible at all. Old jobs are
//! kept in a demand-class index ([`crate::pending`]), so an event visits
//! the classes that can still fit a freed machine instead of every pending
//! job, and produces exactly the schedule of the textbook full rescan
//! (pinned by `tests/pending_differential.rs`). CA-PQ is this policy behind
//! a gate.

use mris_sim::{Dispatcher, OnlinePolicy, OrdTime};
use mris_types::{
    ClusterSpec, Codec, CodecError, Decoder, Encoder, Instance, JobId, SchedulingError, Time,
};

use crate::pending::{decode_jobs, encode_jobs, Entry, PendingIndex};
use crate::{Scheduler, SortHeuristic};

/// The PQ online policy. Use through [`Pq`] unless you are composing your
/// own driver loop.
#[derive(Debug, Clone)]
pub struct PqPolicy {
    heuristic: SortHeuristic,
    pending: PendingIndex,
    /// Arrivals since the last dispatch, in arrival order.
    fresh: Vec<Entry>,
}

impl PqPolicy {
    /// A PQ policy ordering its queue with `heuristic`.
    pub fn new(heuristic: SortHeuristic) -> Self {
        PqPolicy {
            heuristic,
            pending: PendingIndex::default(),
            fresh: Vec::new(),
        }
    }

    /// Number of jobs currently queued (arrived but not started).
    pub fn num_pending(&self) -> usize {
        self.pending.len() + self.fresh.len()
    }
}

impl OnlinePolicy for PqPolicy {
    fn on_arrivals(&mut self, _now: Time, arrived: &[JobId], instance: &Instance) {
        self.fresh.extend(
            arrived
                .iter()
                .map(|&j| (OrdTime(self.heuristic.key(instance.job(j))), j)),
        );
    }

    fn dispatch(&mut self, d: &mut Dispatcher<'_>, freed: &[usize]) -> Result<(), SchedulingError> {
        if freed.is_empty() && self.fresh.is_empty() {
            return Ok(());
        }
        let mut fresh = std::mem::take(&mut self.fresh);
        fresh.sort_unstable();
        let result = self.pending.dispatch(d, freed, &fresh);
        fresh.clear();
        self.fresh = fresh;
        result
    }

    fn encode_durable_state(&self, e: &mut Encoder) -> bool {
        // Pending jobs sorted by (key, id), then the undispatched arrivals
        // in arrival order: canonical whatever the index's layout.
        self.pending.encode(e);
        encode_jobs(e, self.fresh.iter().map(|&(_, j)| j));
        true
    }

    fn decode_durable_state(
        &mut self,
        d: &mut Decoder<'_>,
        instance: &Instance,
    ) -> Result<bool, CodecError> {
        let mut seen = vec![false; instance.len()];
        self.pending = PendingIndex::decode(d, (instance, &mut seen))?;
        // An arrival's key is computed on arrival; a queued job has not run
        // since, so its weight, and with it the key, is still the same.
        self.fresh = decode_jobs(d, &mut seen)?
            .into_iter()
            .map(|j| (OrdTime(self.heuristic.key(instance.job(j))), j))
            .collect();
        Ok(true)
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

#[cfg(test)]
mod tests {
    use super::*;
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
}
