//! Instantaneous cluster state for online event-driven simulation.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use mris_types::{
    Amount, ClusterSpec, Codec, CodecError, Decoder, Encoder, Instance, Job, JobId, Time,
};

use crate::OrdTime;

/// The instantaneous state of `M` machines: per-machine available capacity
/// (exact fixed-point) and the set of running jobs with their completion
/// times. Used by online schedulers that start jobs at the current instant.
///
/// Machines can be *failed* ([`ClusterState::fail_machine`]): a down machine
/// reports no capacity ([`ClusterState::fits`] is `false` for every demand),
/// so first-fit scans and placement checks skip it until
/// [`ClusterState::recover_machine`].
///
/// Heterogeneous clusters ([`ClusterState::with_spec`]) give each machine its
/// own capacity vector and relative speed: a job with nominal processing time
/// `p` started on machine `m` completes after `p / speed_m` wall time. The
/// uniform constructor ([`ClusterState::new`]) is bit-identical to the
/// historical behavior (`p / 1.0 == p`, capacities all
/// [`CAPACITY`](mris_types::CAPACITY)).
#[derive(Debug, Clone)]
pub struct ClusterState {
    num_machines: usize,
    num_resources: usize,
    /// Flattened `M x R` available capacity.
    avail: Vec<Amount>,
    /// Flattened `M x R` per-machine full capacity (all `CAPACITY` for a
    /// uniform cluster).
    caps: Vec<Amount>,
    /// Per-machine relative speed (all `1.0` for a uniform cluster).
    speeds: Vec<f64>,
    /// Every machine is the reference machine — durable encodings omit the
    /// machine table so uniform fingerprints are unchanged.
    uniform: bool,
    /// Per-machine failed flag; a down machine holds no capacity.
    down: Vec<bool>,
    /// Min-heap of running jobs by completion time.
    running: BinaryHeap<Reverse<(OrdTime, u32, JobId)>>,
}

impl ClusterState {
    /// An idle cluster of `num_machines` identical machines with
    /// `num_resources` resources each at full capacity.
    pub fn new(num_machines: usize, num_resources: usize) -> Self {
        Self::with_spec(&ClusterSpec::uniform(num_machines), num_resources)
    }

    /// An idle cluster following `spec`: machine `m` starts with `spec`'s
    /// per-resource capacity and runs jobs at `spec.speed(m)`.
    pub fn with_spec(spec: &ClusterSpec, num_resources: usize) -> Self {
        assert!(num_resources > 0);
        let num_machines = spec.len();
        let mut caps = Vec::with_capacity(num_machines * num_resources);
        for m in 0..num_machines {
            for r in 0..num_resources {
                caps.push(spec.capacity(m, r));
            }
        }
        ClusterState {
            num_machines,
            num_resources,
            avail: caps.clone(),
            caps,
            speeds: (0..num_machines).map(|m| spec.speed(m)).collect(),
            uniform: spec.is_uniform(),
            down: vec![false; num_machines],
            running: BinaryHeap::new(),
        }
    }

    /// Number of machines `M`.
    #[inline]
    pub fn num_machines(&self) -> usize {
        self.num_machines
    }

    /// Number of resources `R`.
    #[inline]
    pub fn num_resources(&self) -> usize {
        self.num_resources
    }

    /// Remaining capacity vector of machine `m`.
    #[inline]
    pub fn avail(&self, m: usize) -> &[Amount] {
        &self.avail[m * self.num_resources..(m + 1) * self.num_resources]
    }

    /// Full (idle) capacity vector of machine `m`.
    #[inline]
    pub fn capacity(&self, m: usize) -> &[Amount] {
        &self.caps[m * self.num_resources..(m + 1) * self.num_resources]
    }

    /// Machine `m`'s relative speed.
    #[inline]
    pub fn speed(&self, m: usize) -> f64 {
        self.speeds[m]
    }

    /// Wall time machine `m` needs for nominal processing time `p`. Exact
    /// (`p / 1.0 == p`) on uniform clusters.
    #[inline]
    pub fn effective_time(&self, m: usize, p: Time) -> Time {
        p / self.speeds[m]
    }

    /// Whether every machine is the reference machine.
    #[inline]
    pub fn is_uniform(&self) -> bool {
        self.uniform
    }

    /// Whether `demands` fits on machine `m` right now. Always `false` for a
    /// failed machine.
    #[inline]
    pub fn fits(&self, m: usize, demands: &[Amount]) -> bool {
        !self.down[m] && self.avail(m).iter().zip(demands).all(|(&a, &d)| d <= a)
    }

    /// Whether machine `m` is currently up (not failed).
    #[inline]
    pub fn is_up(&self, m: usize) -> bool {
        !self.down[m]
    }

    /// The first machine (lowest index) where `demands` fits now, if any.
    pub fn first_fit(&self, demands: &[Amount]) -> Option<usize> {
        (0..self.num_machines).find(|&m| self.fits(m, demands))
    }

    /// Number of currently running jobs.
    #[inline]
    pub fn num_running(&self) -> usize {
        self.running.len()
    }

    /// Completion time of the next job to finish, if any is running.
    pub fn next_completion(&self) -> Option<Time> {
        self.running.peek().map(|Reverse((t, _, _))| t.0)
    }

    /// Starts `job` on machine `m` at time `now`: capacity is consumed and a
    /// completion event is enqueued at `now + p / speed_m`. Panics if the job
    /// does not fit.
    pub fn start(&mut self, m: usize, job: &Job, now: Time) {
        assert!(self.fits(m, &job.demands), "job {} does not fit", job.id);
        for (a, &d) in self.avail[m * self.num_resources..(m + 1) * self.num_resources]
            .iter_mut()
            .zip(job.demands.iter())
        {
            *a -= d;
        }
        self.running.push(Reverse((
            OrdTime(now + job.proc_time / self.speeds[m]),
            m as u32,
            job.id,
        )));
    }

    /// Pops every job completing at or before `now`, restores its
    /// capacity, and appends `(job, machine)` to `completed` for each.
    pub fn complete_due_recorded(
        &mut self,
        now: Time,
        instance: &Instance,
        completed: &mut Vec<(JobId, usize)>,
    ) {
        while let Some(Reverse((t, m, job))) = self.running.peek().copied() {
            if t.0 > now {
                break;
            }
            self.running.pop();
            let m = m as usize;
            let demands = &instance.job(job).demands;
            let base = m * self.num_resources;
            for (r, (a, &d)) in self.avail[base..base + self.num_resources]
                .iter_mut()
                .zip(demands.iter())
                .enumerate()
            {
                *a += d;
                debug_assert!(*a <= self.caps[base + r]);
            }
            completed.push((job, m));
        }
    }

    /// Iterates over the running jobs as `(completion_time, machine, job)`,
    /// in heap (unspecified) order.
    pub fn running_jobs(&self) -> impl Iterator<Item = (Time, usize, JobId)> + '_ {
        self.running
            .iter()
            .map(|&Reverse((t, m, job))| (t.0, m as usize, job))
    }

    /// Fails machine `m`: every job running on it is killed (its completion
    /// event removed), the machine's capacity is restored to full (held
    /// behind the down flag, so nothing can use it), and the machine reports
    /// no capacity until [`ClusterState::recover_machine`]. Returns the
    /// killed jobs sorted by id.
    ///
    /// # Panics
    ///
    /// If `m` is already down — the caller (the fault-event queue) is
    /// responsible for absorbing failures targeting down machines.
    pub fn fail_machine(&mut self, m: usize) -> Vec<JobId> {
        assert!(!self.down[m], "machine {m} failed while already down");
        self.down[m] = true;
        let mut killed = Vec::new();
        let mut kept = Vec::with_capacity(self.running.len());
        for Reverse((t, machine, job)) in self.running.drain() {
            if machine as usize == m {
                killed.push(job);
            } else {
                kept.push(Reverse((t, machine, job)));
            }
        }
        self.running = BinaryHeap::from(kept);
        let base = m * self.num_resources;
        self.avail[base..base + self.num_resources]
            .copy_from_slice(&self.caps[base..base + self.num_resources]);
        killed.sort_unstable();
        killed
    }

    /// Brings a failed machine back up at full capacity.
    ///
    /// # Panics
    ///
    /// If `m` is not down.
    pub fn recover_machine(&mut self, m: usize) {
        assert!(self.down[m], "machine {m} recovered while already up");
        self.down[m] = false;
        debug_assert!(self.avail(m) == self.capacity(m));
    }
}

/// The machine and resource counts, the available capacities, the down
/// flags, the running jobs in sorted `(completion, machine, job)` order,
/// and — **only for non-uniform clusters**, as before heterogeneity
/// existed — the machine table (capacities, speed bits). The context is
/// the `(spec, instance)` the cluster serves: counts and table must be the
/// spec's, running jobs in order and in range, and each machine's
/// available capacity its capacity less what runs on it (all of it, idle,
/// while down), so a decoded cluster is one the event loop could build.
impl Codec for ClusterState {
    type Context<'a> = (&'a ClusterSpec, &'a Instance);

    fn encode(&self, e: &mut Encoder) {
        e.u64(self.num_machines as u64);
        e.u64(self.num_resources as u64);
        for &a in &self.avail {
            e.u64(a);
        }
        for &d in &self.down {
            e.u8(d as u8);
        }
        let mut running: Vec<(u64, u32, u32)> = self
            .running
            .iter()
            .map(|&Reverse((t, m, job))| (t.0.to_bits(), m, job.0))
            .collect();
        running.sort_unstable();
        e.u64(running.len() as u64);
        for (t, m, j) in running {
            e.u64(t);
            e.u32(m);
            e.u32(j);
        }
        if !self.uniform {
            for &c in &self.caps {
                e.u64(c);
            }
            for &s in &self.speeds {
                e.f64(s);
            }
        }
    }

    fn decode(
        d: &mut Decoder<'_>,
        (spec, instance): (&ClusterSpec, &Instance),
    ) -> Result<Self, CodecError> {
        let mut cluster = ClusterState::with_spec(spec, instance.num_resources());
        let (m_count, r_count) = (cluster.num_machines, cluster.num_resources);
        d.expect_count(m_count, "cluster machine count")?;
        d.expect_count(r_count, "cluster resource count")?;
        let avail = d.vec(m_count * r_count, Decoder::u64)?;
        for down in &mut cluster.down {
            *down = d.bool()?;
        }
        let count = d.count(16)?;
        let mut running = Vec::with_capacity(count);
        let mut expect = cluster.caps.clone();
        let mut prev: Option<(u64, u32, u32)> = None;
        for _ in 0..count {
            let key = (d.u64()?, d.u32()?, d.u32()?);
            let (t, m, j) = key;
            if prev.is_some_and(|p| p >= key) {
                return Err(d.malformed("running jobs out of canonical order"));
            }
            prev = Some(key);
            let (m, job) = (m as usize, JobId(j));
            if m >= m_count || job.index() >= instance.len() || cluster.down[m] {
                return Err(d.malformed(format!(
                    "running job {j} on machine {m}, which is out of range or down"
                )));
            }
            for (a, &dem) in expect[m * r_count..(m + 1) * r_count]
                .iter_mut()
                .zip(instance.job(job).demands.iter())
            {
                *a = a
                    .checked_sub(dem)
                    .ok_or_else(|| d.malformed(format!("machine {m} is oversubscribed")))?;
            }
            running.push(Reverse((OrdTime(f64::from_bits(t)), m as u32, job)));
        }
        if avail != expect {
            return Err(d.malformed("available capacity disagrees with the running jobs"));
        }
        if !cluster.uniform {
            for &c in &cluster.caps {
                if d.u64()? != c {
                    return Err(d.malformed("machine capacities differ from this cluster's"));
                }
            }
            for &s in &cluster.speeds {
                if d.u64()? != s.to_bits() {
                    return Err(d.malformed("machine speeds differ from this cluster's"));
                }
            }
        }
        cluster.avail = avail;
        cluster.running = BinaryHeap::from(running);
        Ok(cluster)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mris_types::{MachineSpec, CAPACITY};

    fn job(id: u32, p: f64, demand: f64) -> Job {
        Job::from_fractions(JobId(id), 0.0, p, 1.0, &[demand])
    }

    fn instance(jobs: Vec<Job>) -> Instance {
        Instance::new(jobs, 1).unwrap()
    }

    #[test]
    fn start_and_complete_roundtrip() {
        let inst = instance(vec![job(0, 2.0, 0.6), job(1, 3.0, 0.6)]);
        let mut cs = ClusterState::new(1, 1);
        cs.start(0, inst.job(JobId(0)), 0.0);
        assert!(!cs.fits(0, &inst.job(JobId(1)).demands));
        assert_eq!(cs.next_completion(), Some(2.0));
        let mut done = Vec::new();
        cs.complete_due_recorded(2.0, &inst, &mut done);
        assert_eq!(done, vec![(JobId(0), 0)]);
        assert!(cs.fits(0, &inst.job(JobId(1)).demands));
        assert_eq!(cs.num_running(), 0);
    }

    #[test]
    fn complete_due_only_pops_due_jobs() {
        let inst = instance(vec![job(0, 2.0, 0.3), job(1, 5.0, 0.3)]);
        let mut cs = ClusterState::new(1, 1);
        cs.start(0, inst.job(JobId(0)), 0.0);
        cs.start(0, inst.job(JobId(1)), 0.0);
        let mut done = Vec::new();
        cs.complete_due_recorded(3.0, &inst, &mut done);
        assert_eq!(done, vec![(JobId(0), 0)]);
        assert_eq!(cs.next_completion(), Some(5.0));
    }

    #[test]
    fn first_fit_scans_machines_in_order() {
        let inst = instance(vec![job(0, 2.0, 1.0)]);
        let mut cs = ClusterState::new(3, 1);
        cs.start(0, inst.job(JobId(0)), 0.0);
        assert_eq!(cs.first_fit(&inst.job(JobId(0)).demands), Some(1));
    }

    #[test]
    fn first_fit_none_when_cluster_full() {
        let inst = instance(vec![job(0, 5.0, 1.0), job(1, 5.0, 1.0), job(2, 1.0, 0.5)]);
        let mut cs = ClusterState::new(2, 1);
        cs.start(0, inst.job(JobId(0)), 0.0);
        cs.start(1, inst.job(JobId(1)), 0.0);
        assert_eq!(cs.first_fit(&inst.job(JobId(2)).demands), None);
        assert_eq!(cs.num_running(), 2);
    }

    #[test]
    fn simultaneous_completions_free_multiple_machines() {
        let inst = instance(vec![job(0, 2.0, 0.8), job(1, 2.0, 0.8)]);
        let mut cs = ClusterState::new(2, 1);
        cs.start(0, inst.job(JobId(0)), 0.0);
        cs.start(1, inst.job(JobId(1)), 0.0);
        let mut done = Vec::new();
        cs.complete_due_recorded(2.0, &inst, &mut done);
        done.sort_unstable();
        assert_eq!(done, vec![(JobId(0), 0), (JobId(1), 1)]);
        assert_eq!(cs.next_completion(), None);
    }

    #[test]
    fn fail_kills_running_jobs_and_blocks_fits() {
        let inst = instance(vec![job(0, 2.0, 0.3), job(1, 5.0, 0.3), job(2, 3.0, 0.3)]);
        let mut cs = ClusterState::new(2, 1);
        cs.start(0, inst.job(JobId(0)), 0.0);
        cs.start(0, inst.job(JobId(1)), 0.0);
        cs.start(1, inst.job(JobId(2)), 0.0);
        let killed = cs.fail_machine(0);
        assert_eq!(killed, vec![JobId(0), JobId(1)]);
        assert!(!cs.is_up(0));
        assert!(cs.is_up(1));
        // Down machines report no capacity, even for a zero demand.
        assert!(!cs.fits(0, &inst.job(JobId(0)).demands));
        assert_eq!(cs.first_fit(&inst.job(JobId(0)).demands), Some(1));
        // The survivor on machine 1 still completes normally.
        assert_eq!(cs.next_completion(), Some(3.0));
        let mut done = Vec::new();
        cs.complete_due_recorded(3.0, &inst, &mut done);
        assert_eq!(done, vec![(JobId(2), 1)]);
        // Recovery restores full capacity.
        cs.recover_machine(0);
        assert!(cs.is_up(0));
        assert!(cs.fits(0, &inst.job(JobId(0)).demands));
    }

    #[test]
    fn fail_on_idle_machine_kills_nothing() {
        let mut cs = ClusterState::new(2, 1);
        assert_eq!(cs.fail_machine(1), vec![]);
        assert!(!cs.is_up(1));
        cs.recover_machine(1);
    }

    #[test]
    #[should_panic(expected = "already down")]
    fn double_fail_panics() {
        let mut cs = ClusterState::new(1, 1);
        cs.fail_machine(0);
        cs.fail_machine(0);
    }

    #[test]
    #[should_panic(expected = "already up")]
    fn recover_up_machine_panics() {
        let mut cs = ClusterState::new(1, 1);
        cs.recover_machine(0);
    }

    #[test]
    fn complete_due_recorded_reports_jobs() {
        let inst = instance(vec![job(0, 2.0, 0.3), job(1, 5.0, 0.3)]);
        let mut cs = ClusterState::new(1, 1);
        cs.start(0, inst.job(JobId(0)), 0.0);
        cs.start(0, inst.job(JobId(1)), 0.0);
        let mut done = Vec::new();
        cs.complete_due_recorded(2.0, &inst, &mut done);
        assert_eq!(done, vec![(JobId(0), 0)]);
        cs.complete_due_recorded(5.0, &inst, &mut done);
        assert_eq!(done, vec![(JobId(0), 0), (JobId(1), 0)]);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn start_rejects_oversubscription() {
        let inst = instance(vec![job(0, 2.0, 0.7), job(1, 2.0, 0.7)]);
        let mut cs = ClusterState::new(1, 1);
        cs.start(0, inst.job(JobId(0)), 0.0);
        cs.start(0, inst.job(JobId(1)), 0.0);
    }

    #[test]
    fn fast_machine_finishes_early() {
        let inst = instance(vec![job(0, 4.0, 0.5), job(1, 4.0, 0.5)]);
        let spec = ClusterSpec::related(2, &[1.0, 2.0]);
        let mut cs = ClusterState::with_spec(&spec, 1);
        assert!(!cs.is_uniform());
        cs.start(0, inst.job(JobId(0)), 0.0);
        cs.start(1, inst.job(JobId(1)), 0.0);
        // Machine 1 runs at speed 2: the job completes at t = 2, not 4.
        assert_eq!(cs.next_completion(), Some(2.0));
        let mut done = Vec::new();
        cs.complete_due_recorded(2.0, &inst, &mut done);
        assert_eq!(done, vec![(JobId(1), 1)]);
        cs.complete_due_recorded(4.0, &inst, &mut done);
        assert_eq!(done, vec![(JobId(1), 1), (JobId(0), 0)]);
    }

    #[test]
    fn restricted_capacity_blocks_fit() {
        let inst = instance(vec![job(0, 2.0, 0.6)]);
        let spec = ClusterSpec::new(vec![
            MachineSpec::from_fractions(1.0, &[0.5]),
            MachineSpec::unit(),
        ]);
        let cs = ClusterState::with_spec(&spec, 1);
        // Machine 0 caps at 0.5 and cannot host a 0.6 demand.
        assert!(!cs.fits(0, &inst.job(JobId(0)).demands));
        assert_eq!(cs.first_fit(&inst.job(JobId(0)).demands), Some(1));
    }

    #[test]
    fn fail_restores_restricted_capacity_not_global() {
        let inst = instance(vec![job(0, 2.0, 0.3)]);
        let spec = ClusterSpec::new(vec![MachineSpec::from_fractions(1.0, &[0.5])]);
        let mut cs = ClusterState::with_spec(&spec, 1);
        cs.start(0, inst.job(JobId(0)), 0.0);
        cs.fail_machine(0);
        cs.recover_machine(0);
        assert_eq!(cs.avail(0), cs.capacity(0));
        assert_eq!(cs.avail(0)[0], CAPACITY / 2);
    }

    #[test]
    fn uniform_durable_bytes_have_no_machine_table() {
        let encode = |cluster: ClusterState| {
            let mut e = Encoder::new();
            cluster.encode(&mut e);
            e.into_bytes()
        };
        let uni = encode(ClusterState::new(2, 1));
        let via_spec = encode(ClusterState::with_spec(&ClusterSpec::uniform(2), 1));
        assert_eq!(uni, via_spec);
        let het = encode(ClusterState::with_spec(&ClusterSpec::related(2, &[2.0]), 1));
        assert!(het.len() > uni.len());
    }
}
