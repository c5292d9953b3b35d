//! Algorithm 1 as an [`OnlinePolicy`]: the one MRIS loop in the workspace.
//!
//! Iteration `k` executes when the simulated clock reaches `gamma_k`
//! (requested through [`OnlinePolicy::next_wakeup`]), commits its batch on
//! the policy's [`ClusterTimelines`], and the committed starts are realized
//! on the live cluster as their times arrive. Every front end runs this
//! policy through the event kernel — batch [`Mris`](crate::Mris), the
//! fault-injection driver, the service. Under machine failures it
//! additionally:
//!
//! * truncates the failed machine's committed timeline
//!   ([`ClusterTimelines::reset_machine`]) and blocks out the downtime with
//!   a full-capacity commitment, and
//! * re-plans *orphaned* jobs — committed to the failed machine but not yet
//!   started — in later iterations, alongside the killed jobs the driver
//!   re-releases.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use mris_knapsack::KnapsackSolver;
use mris_sim::{ClusterTimelines, Dispatcher, OnlinePolicy, OrdTime};
use mris_types::{
    ClusterSpec, Codec, CodecError, Decoder, Encoder, Instance, JobId, SchedulingError, Time,
};

use crate::algorithm::IterationStats;
use crate::config::MrisConfig;
use crate::epoch::EpochState;

/// The MRIS policy. Construct per run (it is stateful) with
/// [`MrisOnline::new`], then drive it with [`run_online`](mris_sim::run_online)
/// or [`run_driver`](mris_sim::run_driver).
pub struct MrisOnline {
    config: MrisConfig,
    solver: Box<dyn KnapsackSolver>,
    /// The machines of `timelines`, which a decoded state's must describe.
    cluster: ClusterSpec,
    timelines: ClusterTimelines,
    gamma0: Time,
    /// Current interval endpoint `gamma_k`; iteration `k` runs when the
    /// clock reaches it.
    gamma: Time,
    k: usize,
    /// Announced-but-uncommitted jobs plus the per-run caches: the monotone
    /// eligibility frontier and the epoch scratch arena (see `epoch.rs`). Availability (release for originals, the
    /// kill/orphan instant for fault victims) is folded into each job's
    /// eligibility threshold at insertion.
    state: EpochState,
    /// Committed placements `(start, job, machine)` not yet realized on the
    /// live cluster, ordered by start time. `(start, job)` pairs are unique,
    /// so the machine never participates in the ordering and the pop order
    /// matches the former `BTreeMap<(OrdTime, JobId), usize>` exactly.
    pending: BinaryHeap<Reverse<(OrdTime, JobId, usize)>>,
    /// Scratch for each epoch's placements, reused across iterations.
    placements: Vec<(JobId, usize, Time)>,
    /// One entry per iteration that scheduled something, when recording.
    /// `None` unless [`Mris::schedule_with_log_on`](crate::Mris) switched it
    /// on; not replay state, so not part of the durable encoding.
    log: Option<Vec<IterationStats>>,
}

impl MrisOnline {
    /// An incremental MRIS policy for one run over `instance` on
    /// `num_machines` identical unit machines.
    pub fn new(config: MrisConfig, instance: &Instance, num_machines: usize) -> Self {
        Self::new_on(config, instance, &ClusterSpec::uniform(num_machines))
    }

    /// [`MrisOnline::new`] on an explicit cluster description: the committed
    /// timelines carry each machine's capacity and speed, so probes and
    /// commits account nominal work as `p / speed_m` wall time.
    pub fn new_on(config: MrisConfig, instance: &Instance, cluster: &ClusterSpec) -> Self {
        config.validate();
        assert!(!cluster.is_empty());
        // The paper normalizes p_j >= 1 and starts the grid at gamma_0 = 1
        // (= the minimum processing time). Starting at min_proc generalizes
        // that to unnormalized instances: no job can complete before
        // gamma_0, which is what the Lemma 6.6 accounting needs. The value
        // is irrelevant for an empty instance but must be positive for the
        // geometric grid.
        let gamma0 = if instance.is_empty() {
            1.0
        } else {
            instance.stats().min_proc
        };
        debug_assert!(gamma0 > 0.0);
        MrisOnline {
            config,
            solver: config.solver(),
            timelines: ClusterTimelines::with_spec(cluster, instance.num_resources()),
            cluster: cluster.clone(),
            gamma0,
            gamma: gamma0,
            k: 0,
            state: EpochState::default(),
            pending: BinaryHeap::new(),
            placements: Vec::new(),
            log: None,
        }
    }

    /// Starts recording the iteration log.
    pub(crate) fn record_iterations(&mut self) {
        self.log = Some(Vec::new());
    }

    /// The recorded iteration log (empty unless recording) and the number
    /// of grid iterations run so far.
    pub(crate) fn into_iterations(self) -> (Vec<IterationStats>, usize) {
        (self.log.unwrap_or_default(), self.k)
    }

    /// One Algorithm 1 iteration at the current `gamma_k`: timeline
    /// compaction (the grid stage), then the epoch body
    /// (`EpochState::run_epoch` — frontier advance, knapsack with budget
    /// `zeta_k`, heuristic-ordered earliest-fit placement with floor
    /// `gamma_k`). Selected jobs leave the epoch state and enter `pending`;
    /// `gamma` always advances.
    fn run_iteration(&mut self, instance: &Instance) {
        let gamma = self.gamma;
        {
            let _s = mris_obs::span!("mris_epoch_grid_seconds");
            self.timelines.compact_before(gamma);
        }
        self.placements.clear();
        let stats = self.state.run_epoch(
            instance,
            &mut self.timelines,
            self.solver.as_ref(),
            &self.config,
            self.k,
            gamma,
            &mut self.placements,
        );
        for &(j, m, s) in &self.placements {
            self.pending.push(Reverse((OrdTime(s), j, m)));
        }
        if stats.scheduled > 0 {
            if let Some(log) = &mut self.log {
                log.push(stats);
            }
        }
        self.k += 1;
        self.gamma = self.gamma0 * self.config.alpha.powi(self.k as i32);
    }
}

impl OnlinePolicy for MrisOnline {
    fn on_arrivals(&mut self, now: Time, arrived: &[JobId], instance: &Instance) {
        // The driver delivers originals exactly at their release and
        // re-releases at the kill instant, so `now` is the right
        // availability either way.
        for &j in arrived {
            self.state.insert(j, instance.job(j).proc_time, now);
        }
    }

    fn dispatch(
        &mut self,
        d: &mut Dispatcher<'_>,
        _freed: &[usize],
    ) -> Result<(), SchedulingError> {
        let now = d.now();
        // Run every iteration whose gamma_k has arrived. When the queue was
        // empty the grid stalls; catch-up iterations for skipped gammas are
        // provably empty (everything available by those gammas was already
        // placed, and new arrivals have an eligibility threshold of at
        // least `now > gamma`), so no job is ever committed to a start in
        // the past.
        while !self.state.is_empty() && self.gamma <= now {
            self.run_iteration(d.instance());
        }
        // Realize committed starts that are due.
        while let Some(&Reverse((start, job, machine))) = self.pending.peek() {
            if start.0 > now {
                break;
            }
            self.pending.pop();
            if d.cluster().is_up(machine) {
                d.place(machine, job)?;
            } else {
                // Safety net: the failure hook re-queues commitments on a
                // failed machine, but a zero-demand job can still be
                // committed inside a downtime block (zero demand fits a
                // full machine). Re-plan it from now.
                self.state.insert(job, d.instance().job(job).proc_time, now);
            }
        }
        Ok(())
    }

    fn on_machine_failed(
        &mut self,
        now: Time,
        machine: usize,
        recover_at: Time,
        _killed: &[JobId],
        instance: &Instance,
    ) {
        // Orphans: committed to the failed machine but not yet started.
        // (Killed running jobs come back through on_arrivals.)
        let mut entries = std::mem::take(&mut self.pending).into_vec();
        let mut orphaned: u64 = 0;
        let state = &mut self.state;
        entries.retain(|&Reverse((_, job, m))| {
            if m == machine {
                orphaned += 1;
                state.insert(job, instance.job(job).proc_time, now);
                false
            } else {
                true
            }
        });
        self.pending = BinaryHeap::from(entries);
        mris_obs::counter_add("mris_chaos_orphaned_commitments_total", orphaned);
        // Truncate the machine's committed timeline — every interval on it
        // (past, running, planned) is invalidated at once — and block out
        // the downtime so future iterations cannot plan into it. The block
        // pins the *machine's own* capacity (not the global unit), and
        // `commit` is wall-time: downtime does not shrink on fast machines.
        self.timelines.reset_machine(machine);
        let full = self.timelines.capacity(machine).to_vec();
        self.timelines.commit(machine, now, recover_at - now, &full);
    }

    fn next_wakeup(&self) -> Option<Time> {
        let grid = (!self.state.is_empty()).then_some(self.gamma);
        let realize = self.pending.peek().map(|&Reverse((s, _, _))| s.0);
        match (grid, realize) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    fn encode_durable_state(&self, e: &mut Encoder) -> bool {
        e.f64(self.gamma0);
        e.f64(self.gamma);
        e.u64(self.k as u64);
        // Sorted, not heap order: the heap's layout depends on insertion
        // history, which snapshot verification must not be sensitive to.
        let mut pending: Vec<(u64, u32, u64)> = self
            .pending
            .iter()
            .map(|&Reverse((OrdTime(s), j, m))| (s.to_bits(), j.0, m as u64))
            .collect();
        pending.sort_unstable();
        e.u64(pending.len() as u64);
        for (s, j, m) in pending {
            e.u64(s);
            e.u32(j);
            e.u64(m);
        }
        self.state.encode(e);
        self.timelines.encode(e);
        true
    }

    fn decode_durable_state(
        &mut self,
        d: &mut Decoder<'_>,
        instance: &Instance,
    ) -> Result<bool, CodecError> {
        if d.f64()?.to_bits() != self.gamma0.to_bits() {
            return Err(d.malformed("MRIS state written for another grid origin"));
        }
        let gamma = d.f64()?;
        let k = d.u64()?;
        // `gamma` is a function of `k`, exactly as `run_iteration` computes it.
        let grid = i32::try_from(k)
            .ok()
            .map(|k| self.gamma0 * self.config.alpha.powi(k));
        if grid.map(f64::to_bits) != Some(gamma.to_bits()) {
            return Err(d.malformed(format!("MRIS grid point {gamma} is not gamma_{k}")));
        }
        let mut seen = vec![false; instance.len()];
        let machines = self.cluster.len() as u64;
        let count = d.count(20)?;
        let mut pending = Vec::with_capacity(count);
        let mut prev = None;
        for _ in 0..count {
            let start = d.u64()?;
            let job = d.unique_job(&mut seen)?;
            let machine = d.u64()?;
            if machine >= machines || prev.is_some_and(|p| p >= (start, job)) {
                return Err(d.malformed("MRIS commitment out of order or off the cluster"));
            }
            prev = Some((start, job));
            pending.push(Reverse((
                OrdTime(f64::from_bits(start)),
                job,
                machine as usize,
            )));
        }
        self.state = EpochState::decode(d, &mut seen)?;
        self.timelines = ClusterTimelines::decode(d, (&self.cluster, instance.num_resources()))?;
        self.gamma = gamma;
        self.k = k as usize;
        self.pending = BinaryHeap::from(pending);
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mris_sim::{run_online_chaos, FaultPlan};
    use mris_types::{FaultEvent, FaultTarget, Job, RestartSemantics};

    fn inst(jobs: Vec<Job>, r: usize) -> Instance {
        Instance::from_unnumbered(jobs, r).unwrap()
    }

    fn mixed_instance() -> Instance {
        inst(
            (0..24)
                .map(|i| {
                    Job::from_fractions(
                        JobId(0),
                        (i % 7) as f64 * 0.9,
                        1.0 + (i % 5) as f64,
                        1.0 + (i % 3) as f64,
                        &[0.1 + (i % 8) as f64 * 0.1, 0.05 * (i % 9) as f64],
                    )
                })
                .collect(),
            2,
        )
    }

    #[test]
    fn survives_failures_and_replans_orphans() {
        let instance = mixed_instance();
        let plan = FaultPlan::from_events(vec![
            FaultEvent {
                at: 1.5,
                downtime: 3.0,
                target: FaultTarget::Machine(0),
            },
            FaultEvent {
                at: 4.0,
                downtime: 2.0,
                target: FaultTarget::Busiest,
            },
        ]);
        let mut policy = MrisOnline::new(MrisConfig::default(), &instance, 2);
        let outcome = run_online_chaos(
            &instance,
            2,
            &mut policy,
            &plan,
            RestartSemantics::FullRestart,
        )
        .unwrap();
        // Complete, feasible (run_online_chaos validated stranding already),
        // and consistent with the fault log.
        assert!(outcome.schedule.is_complete());
        outcome.log.verify().unwrap();
        assert!(!outcome.log.failures.is_empty());
        // No completed run overlaps a downtime *and* every start respects
        // release times.
        for a in outcome.schedule.assignments() {
            assert!(a.start >= instance.job(a.job).release);
        }
    }

    #[test]
    fn weight_aging_run_completes() {
        let instance = mixed_instance();
        let plan = FaultPlan::from_events(vec![FaultEvent {
            at: 2.0,
            downtime: 1.0,
            target: FaultTarget::Machine(1),
        }]);
        let mut policy = MrisOnline::new(MrisConfig::default(), &instance, 2);
        let outcome = run_online_chaos(
            &instance,
            2,
            &mut policy,
            &plan,
            RestartSemantics::WeightAging { factor: 2.0 },
        )
        .unwrap();
        assert!(outcome.schedule.is_complete());
        outcome.log.verify().unwrap();
    }

    #[test]
    fn empty_instance_is_fine() {
        let instance = Instance::new(vec![], 2).unwrap();
        let mut policy = MrisOnline::new(MrisConfig::default(), &instance, 3);
        let outcome = run_online_chaos(
            &instance,
            3,
            &mut policy,
            &FaultPlan::none(),
            RestartSemantics::FullRestart,
        )
        .unwrap();
        assert!(outcome.schedule.is_complete());
    }
}
