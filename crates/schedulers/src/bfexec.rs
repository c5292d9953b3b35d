//! BF-EXEC (Section 7.2; NoroozOliaee et al., INFOCOM WKSHPS '14).
//!
//! * **On arrival**: place the job immediately on the *feasible* machine
//!   whose remaining resources after placement have the lowest L2 norm
//!   (best fit); queue the job if no machine fits.
//! * **On departure**: repeatedly place the shortest queued job that fits on
//!   the machine that just freed capacity.
//!
//! The scheduler thereby "gives preference to jobs that have recently
//! arrived" — a newly arrived job is tried immediately, ahead of older
//! queued jobs — while draining the queue in SJF order. The queue is the
//! demand-class index of [`crate::pending`] keyed by processing time, so a
//! departure compares one head per demand class that fits the freed
//! machine instead of every queued job.

use mris_sim::{Dispatcher, OnlinePolicy, OrdTime};
use mris_types::{
    fraction, Amount, ClusterSpec, Codec, CodecError, Decoder, Encoder, Instance, JobId,
    SchedulingError, Time,
};

use crate::pending::{decode_jobs, encode_jobs, PendingIndex};
use crate::Scheduler;

/// Leads BF-EXEC's durable state, so no other policy's bytes decode as it.
const DURABLE_TAG: &[u8; 4] = b"BFEX";

/// The BF-EXEC online policy. Use through [`BfExec`] unless composing your
/// own driver loop.
#[derive(Debug, Clone, Default)]
pub struct BfExecPolicy {
    /// Queue ordered by (processing time, id): SJF draining.
    pending: PendingIndex,
    fresh: Vec<JobId>,
}

impl BfExecPolicy {
    /// An empty BF-EXEC policy.
    pub fn new() -> Self {
        Self::default()
    }

    /// Squared L2 norm of the remaining capacity of machine `m` if `demands`
    /// were placed there (in capacity fractions).
    fn residual_norm2(avail: &[Amount], demands: &[Amount]) -> f64 {
        avail
            .iter()
            .zip(demands)
            .map(|(&a, &d)| {
                let rem = fraction(a) - fraction(d);
                rem * rem
            })
            .sum()
    }
}

impl OnlinePolicy for BfExecPolicy {
    fn on_arrivals(&mut self, _now: Time, arrived: &[JobId], _instance: &Instance) {
        self.fresh.extend_from_slice(arrived);
    }

    fn dispatch(&mut self, d: &mut Dispatcher<'_>, freed: &[usize]) -> Result<(), SchedulingError> {
        let instance = d.instance();
        // Departure rule first: backfill each freed machine in SJF order.
        for &m in freed {
            self.pending.backfill(d, m)?;
        }
        // Arrival rule: best-fit each fresh job, else queue it.
        for &j in &std::mem::take(&mut self.fresh) {
            let job = instance.job(j);
            let best = (0..d.cluster().num_machines())
                .filter(|&m| d.cluster().fits(m, &job.demands))
                .min_by(|&a, &b| {
                    let na = Self::residual_norm2(d.cluster().avail(a), &job.demands);
                    let nb = Self::residual_norm2(d.cluster().avail(b), &job.demands);
                    na.total_cmp(&nb).then(a.cmp(&b))
                });
            match best {
                Some(m) => d.place(m, j)?,
                None => self
                    .pending
                    .insert((OrdTime(job.proc_time), j), &job.demands),
            }
        }
        Ok(())
    }

    fn encode_durable_state(&self, e: &mut Encoder) -> bool {
        e.bytes(DURABLE_TAG);
        self.pending.encode(e);
        encode_jobs(e, self.fresh.iter().copied());
        true
    }

    fn decode_durable_state(
        &mut self,
        d: &mut Decoder<'_>,
        instance: &Instance,
    ) -> Result<bool, CodecError> {
        if d.bytes(4)? != DURABLE_TAG {
            return Err(d.malformed("not a BF-EXEC policy state"));
        }
        let mut seen = vec![false; instance.len()];
        self.pending = PendingIndex::decode(d, (instance, &mut seen))?;
        self.fresh = decode_jobs(d, &mut seen)?;
        Ok(true)
    }
}

/// The BF-EXEC scheduler: best-fit on arrival, SJF backfill on departure.
#[derive(Debug, Clone, Copy, Default)]
pub struct BfExec;

impl Scheduler for BfExec {
    fn name(&self) -> String {
        "BF-EXEC".to_string()
    }

    fn policy(&self, _instance: &Instance, _cluster: &ClusterSpec) -> Box<dyn OnlinePolicy> {
        Box::new(BfExecPolicy::new())
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
    use mris_types::Job;

    fn inst(jobs: Vec<Job>) -> Instance {
        Instance::from_unnumbered(jobs, 2).unwrap()
    }

    fn j(r: f64, p: f64, d: &[f64]) -> Job {
        Job::from_fractions(JobId(0), r, p, 1.0, d)
    }

    #[test]
    fn arrival_picks_best_fit_machine() {
        // Machine 0 is loaded to 0.5 on both resources; machine 1 idle.
        // A small job best-fits the *loaded* machine (lower residual norm).
        let jobs = vec![j(0.0, 10.0, &[0.5, 0.5]), j(1.0, 2.0, &[0.3, 0.3])];
        let instance = inst(jobs);
        let s = BfExec.schedule(&instance, 2);
        s.validate(&instance).unwrap();
        assert_eq!(s.get(JobId(1)).unwrap().machine, 0);
        assert_eq!(s.get(JobId(1)).unwrap().start, 1.0);
    }

    #[test]
    fn departure_backfills_sjf() {
        // A blocking job holds the machine; three queued jobs of different
        // lengths; the shortest enters first when the blocker leaves.
        let jobs = vec![
            j(0.0, 5.0, &[1.0, 0.0]),
            j(1.0, 4.0, &[0.9, 0.0]),
            j(1.0, 2.0, &[0.9, 0.0]),
            j(1.0, 3.0, &[0.9, 0.0]),
        ];
        let instance = inst(jobs);
        let s = BfExec.schedule(&instance, 1);
        s.validate(&instance).unwrap();
        assert_eq!(s.get(JobId(2)).unwrap().start, 5.0);
        assert_eq!(s.get(JobId(3)).unwrap().start, 7.0);
        assert_eq!(s.get(JobId(1)).unwrap().start, 10.0);
    }

    #[test]
    fn queues_when_nothing_fits() {
        let jobs = vec![j(0.0, 3.0, &[1.0, 1.0]), j(0.5, 1.0, &[0.5, 0.5])];
        let instance = inst(jobs);
        let s = BfExec.schedule(&instance, 1);
        s.validate(&instance).unwrap();
        assert_eq!(s.get(JobId(1)).unwrap().start, 3.0);
    }

    #[test]
    fn completes_large_random_mix() {
        let jobs: Vec<Job> = (0..50)
            .map(|i| {
                j(
                    (i % 7) as f64,
                    1.0 + (i % 5) as f64,
                    &[0.1 + (i % 9) as f64 * 0.1, 0.1 + (i % 4) as f64 * 0.2],
                )
            })
            .collect();
        let instance = inst(jobs);
        let s = BfExec.schedule(&instance, 3);
        s.validate(&instance).unwrap();
    }
}
