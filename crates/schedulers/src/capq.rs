//! CA-PQ: Collect-All Priority-Queue (Section 7.2).
//!
//! The extreme of "exercising patience": with oracle knowledge of the last
//! release time, CA-PQ waits until every job has arrived and then schedules
//! the whole batch with PQ. It serves as the worst-case reference in the
//! paper's evaluation — its queuing delays dominate everyone else's
//! (Figure 5) and at heavy load the other event-driven schedulers converge
//! to it (Figure 3).
//!
//! The policy is [`PqPolicy`] behind a gate: arrivals collect in PQ's fresh
//! list until the gate, the first dispatch past it places the batch by first
//! fit, and every later event (completions, fault re-releases) is PQ's.

use mris_sim::{Dispatcher, OnlinePolicy};
use mris_types::{
    ClusterSpec, CodecError, Decoder, Encoder, Instance, JobId, SchedulingError, Time,
};

use crate::{PqPolicy, Scheduler, SortHeuristic};

/// Leads CA-PQ's durable state, so PQ's own bytes never decode as it.
const DURABLE_TAG: &[u8; 4] = b"CAPQ";

/// The CA-PQ policy: holds every job until `gate` (the last release time),
/// then behaves as PQ. Use through [`CaPq`] unless composing your own
/// driver loop (e.g. the fault-injection harness).
#[derive(Debug, Clone)]
pub struct CaPqPolicy {
    gate: Time,
    pq: PqPolicy,
}

impl CaPqPolicy {
    /// A CA-PQ policy gating all dispatch until `gate` (callers pass the
    /// instance's last release time — the oracle knowledge the paper
    /// grants CA-PQ).
    pub fn new(heuristic: SortHeuristic, gate: Time) -> Self {
        CaPqPolicy {
            gate,
            pq: PqPolicy::new(heuristic),
        }
    }
}

impl OnlinePolicy for CaPqPolicy {
    fn on_arrivals(&mut self, now: Time, arrived: &[JobId], instance: &Instance) {
        self.pq.on_arrivals(now, arrived, instance);
    }

    fn dispatch(&mut self, d: &mut Dispatcher<'_>, freed: &[usize]) -> Result<(), SchedulingError> {
        if d.now() < self.gate {
            return Ok(());
        }
        self.pq.dispatch(d, freed)
    }

    fn encode_durable_state(&self, e: &mut Encoder) -> bool {
        e.bytes(DURABLE_TAG);
        e.f64(self.gate);
        self.pq.encode_durable_state(e)
    }

    fn decode_durable_state(
        &mut self,
        d: &mut Decoder<'_>,
        instance: &Instance,
    ) -> Result<bool, CodecError> {
        if d.bytes(4)? != DURABLE_TAG {
            return Err(d.malformed("not a CA-PQ policy state"));
        }
        if d.f64()?.to_bits() != self.gate.to_bits() {
            return Err(d.malformed("CA-PQ state written with another gate"));
        }
        self.pq.decode_durable_state(d, instance)
    }
}

/// The CA-PQ scheduler. Requires (and takes, like the paper grants it) the
/// last release time as side knowledge; [`Scheduler::schedule`] reads it off
/// the instance.
#[derive(Debug, Clone, Copy)]
pub struct CaPq {
    /// Queue ordering used for the batch (the paper uses WSJF).
    pub heuristic: SortHeuristic,
}

impl CaPq {
    /// CA-PQ with the given batch ordering.
    pub fn new(heuristic: SortHeuristic) -> Self {
        CaPq { heuristic }
    }
}

impl Default for CaPq {
    fn default() -> Self {
        CaPq::new(SortHeuristic::Wsjf)
    }
}

impl Scheduler for CaPq {
    fn name(&self) -> String {
        format!("CA-PQ-{}", self.heuristic)
    }

    fn policy(&self, instance: &Instance, _cluster: &ClusterSpec) -> Box<dyn OnlinePolicy> {
        let gate = instance.stats().max_release;
        Box::new(CaPqPolicy::new(self.heuristic, gate))
    }

    // Precedence stays opted out (the default): CA-PQ's oracle is the last
    // *release* time, but a DAG successor only becomes available when its
    // predecessors complete — which can be after the gate, so "collect all"
    // is no longer well-defined. Heterogeneity is fine: the batch scan
    // respects per-machine capacity and the cluster scales run lengths.
    fn supports_heterogeneous(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mris_types::Job;

    fn j(r: f64, p: f64, d: &[f64]) -> Job {
        Job::from_fractions(JobId(0), r, p, 1.0, d)
    }

    #[test]
    fn nothing_starts_before_last_release() {
        let jobs = vec![
            j(0.0, 1.0, &[0.1]),
            j(5.0, 1.0, &[0.1]),
            j(2.0, 1.0, &[0.1]),
        ];
        let instance = Instance::from_unnumbered(jobs, 1).unwrap();
        let s = CaPq::default().schedule(&instance, 2);
        s.validate(&instance).unwrap();
        for a in s.assignments() {
            assert!(a.start >= 5.0, "{a:?}");
        }
    }

    #[test]
    fn batch_is_scheduled_in_heuristic_order() {
        // All conflict pairwise; WSJF: heavier/shorter first.
        let jobs = vec![
            Job::from_fractions(JobId(0), 0.0, 4.0, 1.0, &[0.9]),
            Job::from_fractions(JobId(1), 1.0, 2.0, 1.0, &[0.9]),
            Job::from_fractions(JobId(2), 2.0, 2.0, 4.0, &[0.9]),
        ];
        let instance = Instance::from_unnumbered(jobs, 1).unwrap();
        let s = CaPq::default().schedule(&instance, 1);
        s.validate(&instance).unwrap();
        // Keys: j0 = 4, j1 = 2, j2 = 0.5 -> order j2, j1, j0 from t=2.
        assert_eq!(s.get(JobId(2)).unwrap().start, 2.0);
        assert_eq!(s.get(JobId(1)).unwrap().start, 4.0);
        assert_eq!(s.get(JobId(0)).unwrap().start, 6.0);
    }

    #[test]
    fn beats_pq_on_adversarial_patience_instance() {
        use crate::Pq;
        // Lemma 4.1 shape: PQ commits to the blocker; CA-PQ (which waits)
        // schedules the small jobs first.
        let mut jobs = vec![j(0.0, 20.0, &[1.0])];
        for _ in 0..19 {
            jobs.push(j(0.1, 1.0, &[1.0 / 19.0]));
        }
        let instance = Instance::from_unnumbered(jobs, 1).unwrap();
        let pq = Pq::new(SortHeuristic::Wsjf).schedule(&instance, 1);
        let capq = CaPq::default().schedule(&instance, 1);
        pq.validate(&instance).unwrap();
        capq.validate(&instance).unwrap();
        assert!(capq.awct(&instance) < pq.awct(&instance));
    }
}
