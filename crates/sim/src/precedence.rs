//! Precedence gating for DAG-structured instances.
//!
//! An [`Instance`](mris_types::Instance) may carry precedence edges
//! `(pred, succ)`: a successor cannot *start* until every predecessor has
//! completed. The driver enforces this by withholding gated jobs from
//! [`OnlinePolicy::on_arrivals`](crate::OnlinePolicy::on_arrivals) — a
//! policy never sees a job it is not yet allowed to place, so every
//! registered policy runs DAG workloads unmodified. [`PrecedenceGate`] is
//! the bookkeeping behind that: per-job outstanding-predecessor counters
//! driven by completion events, walking the instance's CSR successor lists.
//!
//! The gate is deliberately separate from the policy-facing pending queues:
//! it tracks *eligibility*, not priority. For an edge-free instance the gate
//! is inert ([`PrecedenceGate::is_active`] is `false`) and the driver keeps
//! its historical arrival path byte for byte.

use mris_types::{Codec, CodecError, Decoder, Encoder, Instance, JobId};

/// Tracks, for every job, how many predecessors have not yet completed, and
/// which released jobs are currently withheld from the policy.
#[derive(Debug, Clone)]
pub struct PrecedenceGate {
    /// Outstanding (incomplete) predecessor count per job.
    remaining: Vec<u32>,
    /// Whether each job has completed.
    completed: Vec<bool>,
    /// Released (past `r_j`) but withheld because `remaining > 0`.
    held: Vec<bool>,
    /// False for edge-free instances: every query short-circuits to "ready".
    active: bool,
}

impl PrecedenceGate {
    /// Builds the gate for `instance`. Inert when the instance has no
    /// precedence edges.
    pub fn new(instance: &Instance) -> Self {
        let n = instance.len();
        let active = instance.has_precedence();
        PrecedenceGate {
            remaining: (0..n)
                .map(|i| instance.num_predecessors(JobId(i as u32)))
                .collect(),
            completed: vec![false; n],
            held: vec![false; n],
            active,
        }
    }

    /// Whether the instance has precedence edges at all.
    #[inline]
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Whether `job` may start now: every predecessor has completed.
    #[inline]
    pub fn is_ready(&self, job: JobId) -> bool {
        !self.active || self.remaining[job.index()] == 0
    }

    /// Whether `job` has completed.
    #[inline]
    pub fn is_complete(&self, job: JobId) -> bool {
        self.active && self.completed[job.index()]
    }

    /// Whether `job` is released but withheld (see
    /// [`PrecedenceGate::hold`]).
    #[inline]
    pub fn is_held(&self, job: JobId) -> bool {
        self.active && self.held[job.index()]
    }

    /// Marks a released-but-gated job as withheld; it will be surfaced
    /// through `opened` by the [`PrecedenceGate::complete`] call that
    /// clears its last predecessor.
    pub fn hold(&mut self, job: JobId) {
        debug_assert!(self.active && !self.is_ready(job));
        if !self.held[job.index()] {
            self.held[job.index()] = true;
            mris_obs::counter_add("mris_prec_gated_total", 1);
        }
    }

    /// Records the completion of `job` and opens its successors' gates:
    /// every successor whose outstanding count hits zero is counted ready,
    /// and the ones previously withheld by [`PrecedenceGate::hold`] are
    /// appended to `opened` (ascending id, per the CSR successor order) for
    /// same-event delivery to the policy.
    pub fn complete(&mut self, job: JobId, instance: &Instance, opened: &mut Vec<JobId>) {
        if !self.active || self.completed[job.index()] {
            return;
        }
        self.completed[job.index()] = true;
        for &s in instance.successors(job) {
            let si = s.index();
            debug_assert!(self.remaining[si] > 0);
            self.remaining[si] -= 1;
            if self.remaining[si] == 0 {
                mris_obs::counter_add("mris_prec_ready_total", 1);
                if self.held[si] {
                    self.held[si] = false;
                    opened.push(s);
                }
            }
        }
    }

    /// Re-arms the gates downstream of `job`, undoing a completion: every
    /// successor whose count was zero is returned so the caller can withhold
    /// it again (if it has not already started — non-preemptive starts are
    /// never recalled).
    ///
    /// This is the chaos path's defensive counterpart to
    /// [`PrecedenceGate::complete`]. The kernel orders completions before
    /// failures at a shared instant, so a completed predecessor can never be
    /// killed and this is unreachable from [`crate::EventKernel`]; it is kept
    /// (and tested) so the gate stays correct if a caller with different
    /// event ordering ever revokes a completion.
    pub fn revoke(&mut self, job: JobId, instance: &Instance) -> Vec<JobId> {
        if !self.active || !self.completed[job.index()] {
            return Vec::new();
        }
        self.completed[job.index()] = false;
        let mut regated = Vec::new();
        for &s in instance.successors(job) {
            let si = s.index();
            if self.remaining[si] == 0 {
                regated.push(s);
            }
            self.remaining[si] += 1;
        }
        mris_obs::counter_add("mris_prec_revoked_total", 1);
        regated
    }

    /// The lowest-id predecessor of `job` that has not completed, if any.
    /// Used to attribute
    /// [`PredecessorIncomplete`](mris_types::SchedulingError::PredecessorIncomplete)
    /// errors.
    pub fn first_incomplete_pred(&self, job: JobId, instance: &Instance) -> Option<JobId> {
        if !self.active {
            return None;
        }
        instance
            .predecessors(job)
            .find(|p| !self.completed[p.index()])
    }
}

/// The gate state **only when active**, so the encodings of edge-free
/// instances are empty: the job count, then per job a packed `(remaining,
/// completed, held)` triple. The context is the instance the gate serves.
/// Every job's outstanding count must be the number of its predecessors
/// not marked complete, and only a job with one outstanding may be held —
/// the counters are what later completions decrement.
impl Codec for PrecedenceGate {
    type Context<'a> = &'a Instance;

    fn encode(&self, e: &mut Encoder) {
        if !self.active {
            return;
        }
        e.u64(self.remaining.len() as u64);
        for i in 0..self.remaining.len() {
            e.u32(self.remaining[i]);
            e.u8(self.completed[i] as u8);
            e.u8(self.held[i] as u8);
        }
    }

    fn decode(d: &mut Decoder<'_>, instance: &Instance) -> Result<Self, CodecError> {
        let mut gate = PrecedenceGate::new(instance);
        if !gate.active {
            return Ok(gate);
        }
        let n = instance.len();
        d.expect_count(n, "precedence gate job count")?;
        for i in 0..n {
            gate.remaining[i] = d.u32()?;
            gate.completed[i] = d.bool()?;
            gate.held[i] = d.bool()?;
        }
        let mut outstanding = vec![0u32; n];
        for &(pred, succ) in instance.edges() {
            if !gate.completed[pred.index()] {
                outstanding[succ.index()] += 1;
            }
        }
        for (i, &out) in outstanding.iter().enumerate() {
            if gate.remaining[i] != out || (gate.held[i] && out == 0) {
                return Err(d.malformed(format!(
                    "precedence gate state of {} is inconsistent",
                    JobId(i as u32)
                )));
            }
        }
        Ok(gate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mris_types::{Instance, InstanceBuilder};

    /// A diamond: 0 -> {1, 2} -> 3.
    fn diamond() -> Instance {
        let mut b = InstanceBuilder::new(1);
        for _ in 0..4 {
            b.push_job(0.0, 1.0, 1.0, &[0.5]);
        }
        b.edge(JobId(0), JobId(1));
        b.edge(JobId(0), JobId(2));
        b.edge(JobId(1), JobId(3));
        b.edge(JobId(2), JobId(3));
        b.build().unwrap()
    }

    #[test]
    fn inert_for_edge_free_instances() {
        let mut b = InstanceBuilder::new(1);
        b.push_job(0.0, 1.0, 1.0, &[0.5]);
        let inst = b.build().unwrap();
        let gate = PrecedenceGate::new(&inst);
        assert!(!gate.is_active());
        assert!(gate.is_ready(JobId(0)));
        let mut e = Encoder::new();
        gate.encode(&mut e);
        assert!(e.is_empty());
    }

    #[test]
    fn diamond_opens_in_topological_order() {
        let inst = diamond();
        let mut gate = PrecedenceGate::new(&inst);
        assert!(gate.is_active());
        assert!(gate.is_ready(JobId(0)));
        assert!(!gate.is_ready(JobId(1)));
        assert!(!gate.is_ready(JobId(3)));
        gate.hold(JobId(1));
        gate.hold(JobId(3));

        let mut opened = Vec::new();
        gate.complete(JobId(0), &inst, &mut opened);
        // 1 was held and opens; 2 becomes ready but was never held.
        assert_eq!(opened, vec![JobId(1)]);
        assert!(gate.is_ready(JobId(2)));
        assert!(!gate.is_ready(JobId(3)));

        opened.clear();
        gate.complete(JobId(1), &inst, &mut opened);
        assert!(opened.is_empty()); // 3 still waits on 2
        gate.complete(JobId(2), &inst, &mut opened);
        assert_eq!(opened, vec![JobId(3)]);
        assert_eq!(gate.first_incomplete_pred(JobId(3), &inst), None);
    }

    #[test]
    fn first_incomplete_pred_names_the_blocker() {
        let inst = diamond();
        let mut gate = PrecedenceGate::new(&inst);
        assert_eq!(gate.first_incomplete_pred(JobId(3), &inst), Some(JobId(1)));
        let mut opened = Vec::new();
        gate.complete(JobId(0), &inst, &mut opened);
        gate.complete(JobId(1), &inst, &mut opened);
        assert_eq!(gate.first_incomplete_pred(JobId(3), &inst), Some(JobId(2)));
    }

    #[test]
    fn revoke_re_arms_opened_gates() {
        let inst = diamond();
        let mut gate = PrecedenceGate::new(&inst);
        let mut opened = Vec::new();
        gate.complete(JobId(0), &inst, &mut opened);
        gate.complete(JobId(1), &inst, &mut opened);
        gate.complete(JobId(2), &inst, &mut opened);
        assert!(gate.is_ready(JobId(3)));

        // Killing completed predecessor 2 must re-gate 3.
        let regated = gate.revoke(JobId(2), &inst);
        assert_eq!(regated, vec![JobId(3)]);
        assert!(!gate.is_ready(JobId(3)));
        assert_eq!(gate.first_incomplete_pred(JobId(3), &inst), Some(JobId(2)));
        // Revoking a never-completed job is a no-op.
        assert!(gate.revoke(JobId(3), &inst).is_empty());

        // Completing 2 again re-opens the gate.
        gate.hold(JobId(3));
        opened.clear();
        gate.complete(JobId(2), &inst, &mut opened);
        assert_eq!(opened, vec![JobId(3)]);
    }

    #[test]
    fn durable_bytes_track_gate_state() {
        let inst = diamond();
        let mut gate = PrecedenceGate::new(&inst);
        let mut before = Encoder::new();
        gate.encode(&mut before);
        assert!(!before.is_empty());
        let mut opened = Vec::new();
        gate.complete(JobId(0), &inst, &mut opened);
        let mut after = Encoder::new();
        gate.encode(&mut after);
        assert_ne!(before.as_bytes(), after.as_bytes());
    }
}
