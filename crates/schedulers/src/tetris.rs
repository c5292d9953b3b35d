//! Non-preemptive Tetris adaptation (Section 7.2).
//!
//! Tetris (Grandl et al., SIGCOMM '14) packs jobs by an *alignment score* —
//! the dot product of the job's demand vector with the machine's remaining
//! capacity — blended with a term that favors short work. The paper adapts it
//! to the non-preemptive setting: "jobs are sorted by SVF, selected by the
//! alignment scores", i.e. the duration term becomes a smallest-volume-first
//! preference and placements are final.
//!
//! The paper fixes the direction of the volume term but not its scale, so we
//! normalize both terms into `[0, 1]`:
//!
//! `score(i, j) = <avail_i, d_j> / R  +  eps * v_min / v_j`
//!
//! where `v_min` is the smallest pending volume and `eps` (default 1)
//! balances packing against volume. This interpretation is recorded in
//! DESIGN.md.

use mris_sim::{Dispatcher, OnlinePolicy};
use mris_types::{
    fraction, Amount, ClusterSpec, CodecError, Decoder, Encoder, Instance, Job, JobId,
    SchedulingError, Time,
};

use crate::pending::{decode_jobs, encode_jobs};
use crate::Scheduler;

/// Leads Tetris's durable state, so no other policy's bytes decode as it.
const DURABLE_TAG: &[u8; 4] = b"TTRS";

/// The Tetris online policy. Use through [`Tetris`] unless composing your
/// own driver loop.
#[derive(Debug, Clone)]
pub struct TetrisPolicy {
    eps: f64,
    pending: Vec<JobId>,
    fresh: Vec<JobId>,
}

impl TetrisPolicy {
    /// A Tetris policy with volume-term weight `eps`.
    pub fn new(eps: f64) -> Self {
        assert!(eps >= 0.0 && eps.is_finite());
        TetrisPolicy {
            eps,
            pending: Vec::new(),
            fresh: Vec::new(),
        }
    }

    /// Normalized alignment of `job` with the remaining capacity `avail`:
    /// `sum_l avail_l * d_l / R` in capacity-fraction units, so 1.0 means a
    /// full-demand job on an idle machine.
    fn alignment(avail: &[Amount], job: &Job) -> f64 {
        avail
            .iter()
            .zip(job.demands.iter())
            .map(|(&a, &d)| fraction(a) * fraction(d))
            .sum::<f64>()
            / avail.len() as f64
    }

    fn score(&self, avail: &[Amount], job: &Job, v_min: f64) -> f64 {
        let volume_term = if job.volume() > 0.0 {
            (v_min / job.volume()).min(1.0)
        } else {
            1.0
        };
        Self::alignment(avail, job) + self.eps * volume_term
    }

    /// Smallest positive pending volume, used to normalize the SVF term
    /// (`INFINITY` when no pending job has positive volume, in which case the
    /// volume term saturates at 1 for every job).
    fn min_volume(&self, instance: &Instance) -> f64 {
        self.pending
            .iter()
            .map(|&j| instance.job(j).volume())
            .filter(|&v| v > 0.0)
            .fold(f64::INFINITY, f64::min)
    }

    /// Greedily fills machine `m` from `candidates` (indices into
    /// `self.pending`), highest score first, until nothing fits.
    fn fill_machine(
        &mut self,
        d: &mut Dispatcher<'_>,
        m: usize,
        fresh_only: bool,
    ) -> Result<(), SchedulingError> {
        let instance = d.instance();
        loop {
            let v_min = self.min_volume(instance);
            let avail = d.cluster().avail(m).to_vec();
            let mut best: Option<(f64, usize)> = None;
            for (idx, &j) in self.pending.iter().enumerate() {
                if fresh_only && !self.fresh.contains(&j) {
                    continue;
                }
                let job = instance.job(j);
                if !d.cluster().fits(m, &job.demands) {
                    continue;
                }
                let s = self.score(&avail, job, v_min);
                if best.is_none_or(|(bs, _)| s > bs) {
                    best = Some((s, idx));
                }
            }
            let Some((_, idx)) = best else { break };
            let j = self.pending.swap_remove(idx);
            self.fresh.retain(|&f| f != j);
            d.place(m, j)?;
        }
        Ok(())
    }
}

impl OnlinePolicy for TetrisPolicy {
    fn on_arrivals(&mut self, _now: Time, arrived: &[JobId], _instance: &Instance) {
        self.fresh.extend_from_slice(arrived);
        self.pending.extend_from_slice(arrived);
    }

    fn dispatch(&mut self, d: &mut Dispatcher<'_>, freed: &[usize]) -> Result<(), SchedulingError> {
        // Machines that freed capacity reconsider the whole queue.
        for &m in freed {
            self.fill_machine(d, m, false)?;
        }
        // Remaining machines gained no capacity since the previous event, so
        // only freshly arrived jobs can newly fit there.
        if !self.fresh.is_empty() {
            for m in 0..d.cluster().num_machines() {
                if freed.binary_search(&m).is_err() {
                    self.fill_machine(d, m, true)?;
                }
                if self.fresh.is_empty() {
                    break;
                }
            }
        }
        self.fresh.clear();
        Ok(())
    }

    fn encode_durable_state(&self, e: &mut Encoder) -> bool {
        // The queue in its own order: `swap_remove` reorders it, and the
        // order breaks score ties.
        e.bytes(DURABLE_TAG);
        e.f64(self.eps);
        encode_jobs(e, self.pending.iter().copied());
        encode_jobs(e, self.fresh.iter().copied());
        true
    }

    fn decode_durable_state(
        &mut self,
        d: &mut Decoder<'_>,
        instance: &Instance,
    ) -> Result<bool, CodecError> {
        if d.bytes(4)? != DURABLE_TAG {
            return Err(d.malformed("not a Tetris policy state"));
        }
        if d.f64()?.to_bits() != self.eps.to_bits() {
            return Err(d.malformed("Tetris state written with another eps"));
        }
        self.pending = decode_jobs(d, &mut vec![false; instance.len()])?;
        self.fresh = decode_jobs(d, &mut vec![false; instance.len()])?;
        if !self.fresh.iter().all(|j| self.pending.contains(j)) {
            return Err(d.malformed("a fresh Tetris job is not queued"));
        }
        Ok(true)
    }
}

/// The Tetris scheduler adapted to the non-preemptive multi-machine setting
/// (Section 7.2). Behaves like a PQ-class algorithm with a dynamic,
/// machine-aware queue order, and is therefore also subject to Lemma 4.1.
#[derive(Debug, Clone, Copy)]
pub struct Tetris {
    /// Weight of the smallest-volume-first term relative to the alignment
    /// term (both normalized to `[0, 1]`).
    pub eps: f64,
}

impl Tetris {
    /// Tetris with volume-term weight `eps`.
    pub fn new(eps: f64) -> Self {
        Tetris { eps }
    }
}

impl Default for Tetris {
    /// Equal weighting of packing alignment and volume preference.
    fn default() -> Self {
        Tetris { eps: 1.0 }
    }
}

impl Scheduler for Tetris {
    fn name(&self) -> String {
        "TETRIS".to_string()
    }

    fn policy(&self, _instance: &Instance, _cluster: &ClusterSpec) -> Box<dyn OnlinePolicy> {
        Box::new(TetrisPolicy::new(self.eps))
    }

    // Reactive like PQ: gated arrivals and speed-scaled runs both come for
    // free from the driver and cluster.
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

    fn inst(jobs: Vec<Job>) -> Instance {
        Instance::from_unnumbered(jobs, 2).unwrap()
    }

    fn j(r: f64, p: f64, d: &[f64]) -> Job {
        Job::from_fractions(JobId(0), r, p, 1.0, d)
    }

    #[test]
    fn prefers_aligned_job() {
        // Machine half full on resource 0. Job A demands the scarce resource,
        // job B the abundant one; same volume. Tetris should pick B first.
        let jobs = vec![
            j(0.0, 10.0, &[0.5, 0.0]), // background load on resource 0
            j(1.0, 2.0, &[0.5, 0.0]),  // A: contends
            j(1.0, 2.0, &[0.0, 0.5]),  // B: aligns with what's free
        ];
        let instance = inst(jobs);
        let s = Tetris::default().schedule(&instance, 1);
        s.validate(&instance).unwrap();
        // Both fit at t=1 actually (0.5 + 0.5 <= 1), so both start then; use
        // a tighter variant to force a choice:
        let jobs = vec![
            j(0.0, 10.0, &[0.6, 0.0]),
            j(1.0, 2.0, &[0.5, 0.0]), // does not fit next to the background
            j(1.0, 2.0, &[0.0, 0.5]),
        ];
        let instance = inst(jobs);
        let s = Tetris::default().schedule(&instance, 1);
        s.validate(&instance).unwrap();
        assert_eq!(s.get(JobId(2)).unwrap().start, 1.0);
        assert_eq!(s.get(JobId(1)).unwrap().start, 10.0);
    }

    #[test]
    fn volume_term_breaks_alignment_ties() {
        // Two jobs with identical demands but different durations; only one
        // fits at a time. The smaller volume wins.
        let jobs = vec![j(0.0, 8.0, &[0.6, 0.6]), j(0.0, 2.0, &[0.6, 0.6])];
        let instance = inst(jobs);
        let s = Tetris::default().schedule(&instance, 1);
        s.validate(&instance).unwrap();
        assert_eq!(s.get(JobId(1)).unwrap().start, 0.0);
        assert_eq!(s.get(JobId(0)).unwrap().start, 2.0);
    }

    #[test]
    fn commits_prematurely_like_pq() {
        // Tetris is also vulnerable to the Lemma 4.1 trap.
        let mut jobs = vec![j(0.0, 10.0, &[1.0, 1.0])];
        for _ in 0..3 {
            jobs.push(j(0.5, 1.0, &[0.2, 0.2]));
        }
        let instance = inst(jobs);
        let s = Tetris::default().schedule(&instance, 1);
        s.validate(&instance).unwrap();
        assert_eq!(s.get(JobId(0)).unwrap().start, 0.0);
        for i in 1..4 {
            assert_eq!(s.get(JobId(i)).unwrap().start, 10.0);
        }
    }

    #[test]
    fn schedules_everything_on_multiple_machines() {
        let jobs: Vec<Job> = (0..20)
            .map(|i| j((i % 5) as f64, 1.0 + (i % 4) as f64, &[0.3, 0.4]))
            .collect();
        let instance = inst(jobs);
        let s = Tetris::default().schedule(&instance, 3);
        s.validate(&instance).unwrap();
    }
}
