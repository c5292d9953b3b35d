//! Fault injection: deterministic machine-failure plans, a fault-aware
//! event loop, and an invariant checker.
//!
//! A [`FaultPlan`] is a pre-computed, deterministic list of machine failure
//! events — either hand-built or drawn from a seeded generator (Poisson
//! MTBF per machine, correlated rack bursts, or adversarial
//! "kill the busiest machine" strikes). [`run_online_chaos`] replays a plan
//! against any [`OnlinePolicy`]: when a machine fails, every job running on
//! it is killed and re-released as a fresh arrival (non-preemptive restart —
//! all progress is lost), and the machine accepts no work until it recovers.
//!
//! Everything is deterministic: the same instance, policy, seed, and plan
//! produce a byte-identical [`Schedule`] and [`FaultLog`]. In debug builds
//! the driver additionally audits, after every event, that no completed job
//! overlapped a downtime interval on its machine ([`FaultLog::verify`]).
//!
//! What happens when a strike, a recovery, a completion and an arrival
//! share an instant is defined once, by [`crate::EventKernel`].

use mris_rng::Rng;
use mris_types::{
    Codec, CodecError, Decoder, Encoder, FaultEvent, FaultTarget, Instance, JobId,
    RestartSemantics, Schedule, SchedulingError, Time,
};

use crate::driver::{run_driver, RunOptions};
use crate::OnlinePolicy;

/// A deterministic list of machine failures, sorted by strike time.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

/// Configuration for [`FaultPlan::poisson`]: independent exponential
/// fail/repair clocks per machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoissonFaultConfig {
    /// RNG seed; each machine draws from `substream_indexed("fault-machine", m)`.
    pub seed: u64,
    /// Number of machines in the cluster.
    pub num_machines: usize,
    /// Failures strike strictly before this time.
    pub horizon: Time,
    /// Mean time between failures (per machine, measured up-time).
    pub mtbf: Time,
    /// Mean time to repair (mean downtime per failure).
    pub mttr: Time,
}

/// Configuration for [`FaultPlan::rack_bursts`]: whole racks of
/// `rack_size` consecutive machines fail together.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RackBurstConfig {
    /// RNG seed; bursts draw from `substream("rack-bursts")`.
    pub seed: u64,
    /// Number of machines in the cluster.
    pub num_machines: usize,
    /// Machines per rack; the last rack may be smaller.
    pub rack_size: usize,
    /// Bursts strike strictly before this time.
    pub horizon: Time,
    /// Mean time between bursts (exponential).
    pub mtbb: Time,
    /// Fixed downtime of every machine in a struck rack.
    pub downtime: Time,
}

impl FaultPlan {
    /// The empty plan: no failures. [`run_online_chaos`] under this plan is
    /// equivalent to [`crate::run_online`].
    pub fn none() -> Self {
        FaultPlan { events: Vec::new() }
    }

    /// Wraps hand-built events, validating and sorting them by strike time
    /// (stable: events at the same instant keep their given order, which
    /// fixes the order failures fire in).
    ///
    /// # Panics
    ///
    /// If any event has a non-finite or negative `at`, or a non-finite or
    /// non-positive `downtime`.
    pub fn from_events(mut events: Vec<FaultEvent>) -> Self {
        for e in &events {
            assert!(
                e.at.is_finite() && e.at >= 0.0,
                "fault event time {} is not finite and non-negative",
                e.at
            );
            assert!(
                e.downtime.is_finite() && e.downtime > 0.0,
                "fault downtime {} is not finite and positive",
                e.downtime
            );
        }
        events.sort_by(|a, b| a.at.total_cmp(&b.at));
        FaultPlan { events }
    }

    /// Independent Poisson failures: each machine alternates exponential
    /// up-times (mean `mtbf`) and exponential downtimes (mean `mttr`),
    /// seeded per machine so plans are stable under changes to the machine
    /// count.
    pub fn poisson(cfg: &PoissonFaultConfig) -> Self {
        assert!(cfg.num_machines > 0, "poisson plan needs machines");
        assert!(
            cfg.horizon.is_finite() && cfg.horizon >= 0.0,
            "invalid horizon"
        );
        assert!(cfg.mtbf.is_finite() && cfg.mtbf > 0.0, "invalid mtbf");
        assert!(cfg.mttr.is_finite() && cfg.mttr > 0.0, "invalid mttr");
        let root = Rng::new(cfg.seed);
        let mut events = Vec::new();
        for m in 0..cfg.num_machines {
            let mut rng = root.substream_indexed("fault-machine", m as u64);
            let mut t = exponential(&mut rng, cfg.mtbf);
            while t < cfg.horizon {
                let downtime = exponential(&mut rng, cfg.mttr).max(cfg.mttr * 1e-9);
                events.push(FaultEvent {
                    at: t,
                    downtime,
                    target: FaultTarget::Machine(m),
                });
                t += downtime + exponential(&mut rng, cfg.mtbf);
            }
        }
        FaultPlan::from_events(events)
    }

    /// Correlated rack bursts: at exponentially spaced instants (mean
    /// `mtbb`) a uniformly chosen rack of `rack_size` consecutive machines
    /// fails in its entirety for a fixed `downtime`.
    pub fn rack_bursts(cfg: &RackBurstConfig) -> Self {
        assert!(cfg.num_machines > 0, "rack plan needs machines");
        assert!(cfg.rack_size > 0, "rack plan needs a positive rack size");
        assert!(
            cfg.horizon.is_finite() && cfg.horizon >= 0.0,
            "invalid horizon"
        );
        assert!(cfg.mtbb.is_finite() && cfg.mtbb > 0.0, "invalid mtbb");
        assert!(
            cfg.downtime.is_finite() && cfg.downtime > 0.0,
            "invalid downtime"
        );
        let num_racks = cfg.num_machines.div_ceil(cfg.rack_size);
        let mut rng = Rng::new(cfg.seed).substream("rack-bursts");
        let mut events = Vec::new();
        let mut t = exponential(&mut rng, cfg.mtbb);
        while t < cfg.horizon {
            let rack = rng.next_u64_below(num_racks as u64) as usize;
            let lo = rack * cfg.rack_size;
            let hi = (lo + cfg.rack_size).min(cfg.num_machines);
            for m in lo..hi {
                events.push(FaultEvent {
                    at: t,
                    downtime: cfg.downtime,
                    target: FaultTarget::Machine(m),
                });
            }
            t += cfg.downtime + exponential(&mut rng, cfg.mtbb);
        }
        FaultPlan::from_events(events)
    }

    /// Adversarial strikes: `count` failures at `start`, `start + period`,
    /// …, each killing whichever up machine is running the most jobs at
    /// fire time ([`FaultTarget::Busiest`]).
    pub fn adversarial_busiest(count: usize, start: Time, period: Time, downtime: Time) -> Self {
        assert!(start.is_finite() && start >= 0.0, "invalid start");
        assert!(period.is_finite() && period > 0.0, "invalid period");
        let events = (0..count)
            .map(|i| FaultEvent {
                at: start + period * i as f64,
                downtime,
                target: FaultTarget::Busiest,
            })
            .collect();
        FaultPlan::from_events(events)
    }

    /// The events, sorted by strike time.
    #[inline]
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Whether the plan contains no failures.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of failure events.
    #[inline]
    pub fn len(&self) -> usize {
        self.events.len()
    }
}

/// Exponential draw with the given mean: `-mean * ln(1 - u)`, `u ∈ [0, 1)`.
/// Always finite and non-negative.
fn exponential(rng: &mut Rng, mean: Time) -> Time {
    -mean * (1.0 - rng.gen_f64()).ln()
}

/// A scheduler-independent simulation horizon for sizing fault plans:
/// 1.5x the instance's makespan lower bound, so generated failures land
/// while work is plausibly still running regardless of the policy under
/// test. At least 1 so empty or degenerate instances still get a valid
/// plan window.
pub fn suggested_horizon(instance: &Instance, num_machines: usize) -> Time {
    (instance.makespan_lower_bound(num_machines) * 1.5).max(1.0)
}

/// One machine failure as it actually fired (targets resolved, kills
/// recorded).
#[derive(Debug, Clone, PartialEq)]
pub struct FailureRecord {
    /// When the machine went down.
    pub at: Time,
    /// The machine that failed.
    pub machine: usize,
    /// When it came back up (`at + downtime`).
    pub recover_at: Time,
    /// Jobs killed by this failure, sorted by id.
    pub killed: Vec<JobId>,
}

/// One job completion as observed by the fault-aware driver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompletionRecord {
    /// The completed job.
    pub job: JobId,
    /// Machine it ran on.
    pub machine: usize,
    /// Start of the completed (final) run.
    pub start: Time,
    /// End of the run (`start + p_j`).
    pub end: Time,
}

/// The audit trail of one [`run_online_chaos`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultLog {
    /// Failures that actually fired (absorbed events are omitted), in fire
    /// order.
    pub failures: Vec<FailureRecord>,
    /// `(time, machine)` recovery events, in fire order.
    pub recoveries: Vec<(Time, usize)>,
    /// Per-job kill count (how many times each job was re-released).
    pub re_releases: Vec<u32>,
    /// Every completed run, in completion order.
    pub completions: Vec<CompletionRecord>,
}

/// A completed job ran across a downtime interval on its machine — the
/// invariant [`FaultLog::verify`] enforces.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosViolation {
    /// The offending job.
    pub job: JobId,
    /// The machine it completed on.
    pub machine: usize,
    /// Start of the completed run.
    pub start: Time,
    /// End of the completed run.
    pub end: Time,
    /// Start of the overlapping downtime.
    pub down_from: Time,
    /// End of the overlapping downtime.
    pub down_until: Time,
}

impl std::fmt::Display for ChaosViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} ran [{}, {}) on machine {}, overlapping its downtime [{}, {})",
            self.job, self.start, self.end, self.machine, self.down_from, self.down_until
        )
    }
}

impl std::error::Error for ChaosViolation {}

impl FaultLog {
    pub(crate) fn new(num_jobs: usize) -> Self {
        FaultLog {
            failures: Vec::new(),
            recoveries: Vec::new(),
            re_releases: vec![0; num_jobs],
            completions: Vec::new(),
        }
    }

    /// Total jobs killed across all failures.
    pub fn total_kills(&self) -> usize {
        self.failures.iter().map(|f| f.killed.len()).sum()
    }

    /// Total re-releases (equals [`FaultLog::total_kills`] by construction).
    pub fn total_re_releases(&self) -> u64 {
        self.re_releases.iter().map(|&c| c as u64).sum()
    }

    /// Checks that no completed run overlaps a downtime interval on its
    /// machine: for every completion `[start, end)` on machine `m` and
    /// every downtime `[at, recover_at)` of `m`, the intervals are
    /// disjoint. Runs automatically in debug builds after every event and
    /// at the end of [`run_online_chaos`]; exposed so release-mode callers
    /// (and negative tests) can audit a log explicitly.
    pub fn verify(&self) -> Result<(), ChaosViolation> {
        for rec in &self.completions {
            for fail in &self.failures {
                if rec.machine == fail.machine && rec.start < fail.recover_at && fail.at < rec.end {
                    return Err(ChaosViolation {
                        job: rec.job,
                        machine: rec.machine,
                        start: rec.start,
                        end: rec.end,
                        down_from: fail.at,
                        down_until: fail.recover_at,
                    });
                }
            }
        }
        Ok(())
    }
}

/// The failures with their killed jobs, the recoveries, the per-job kill
/// counts and the completions, each list prefixed by its `u64` count.
/// Machine ids and kill counts are `u64`, job ids `u32`, times their `f64`
/// bits. The context is the run's `(jobs, machines)`: every job and
/// machine the log names must be one of them, and each job's kill count
/// must be the number of failures that list it.
impl Codec for FaultLog {
    type Context<'a> = (usize, usize);

    fn encode(&self, e: &mut Encoder) {
        e.u64(self.failures.len() as u64);
        for f in &self.failures {
            e.f64(f.at);
            e.u64(f.machine as u64);
            e.f64(f.recover_at);
            e.u64(f.killed.len() as u64);
            for j in &f.killed {
                e.u32(j.0);
            }
        }
        e.u64(self.recoveries.len() as u64);
        for &(t, m) in &self.recoveries {
            e.f64(t);
            e.u64(m as u64);
        }
        e.u64(self.re_releases.len() as u64);
        for &n in &self.re_releases {
            e.u64(n as u64);
        }
        e.u64(self.completions.len() as u64);
        for c in &self.completions {
            e.u32(c.job.0);
            e.u64(c.machine as u64);
            e.f64(c.start);
            e.f64(c.end);
        }
    }

    fn decode(d: &mut Decoder<'_>, (jobs, machines): (usize, usize)) -> Result<Self, CodecError> {
        let mut log = FaultLog::new(jobs);
        for _ in 0..d.count(32)? {
            let at = d.f64()?;
            let machine = d.machine(machines)?;
            let recover_at = d.f64()?;
            let count = d.count(4)?;
            let mut killed = Vec::with_capacity(count);
            for _ in 0..count {
                let job = d.job(jobs)?;
                log.re_releases[job.index()] += 1;
                killed.push(job);
            }
            log.failures.push(FailureRecord {
                at,
                machine,
                recover_at,
                killed,
            });
        }
        for _ in 0..d.count(16)? {
            let at = d.f64()?;
            log.recoveries.push((at, d.machine(machines)?));
        }
        d.expect_count(jobs, "kill-count table length")?;
        for (i, &k) in log.re_releases.iter().enumerate() {
            if d.u64()? != k as u64 {
                return Err(d.malformed(format!(
                    "kill count of {} disagrees with the failures",
                    JobId(i as u32)
                )));
            }
        }
        // A run completes each job once: with room for every job, the
        // restored log never regrows.
        let count = d.count(28)?;
        log.completions.reserve(count.max(jobs));
        for _ in 0..count {
            log.completions.push(CompletionRecord {
                job: d.job(jobs)?,
                machine: d.machine(machines)?,
                start: d.f64()?,
                end: d.f64()?,
            });
        }
        Ok(log)
    }
}

/// The result of a [`run_online_chaos`] run: the final schedule (every
/// job's *last* placement, the one that completed) and the audit log.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosOutcome {
    /// The completed schedule.
    pub schedule: Schedule,
    /// Failure/recovery/re-release/completion audit trail.
    pub log: FaultLog,
}

/// Runs `policy` over `instance` while replaying the failures in `plan`.
///
/// Thin wrapper over the unified event-loop driver
/// ([`crate::run_driver`]) with the plan and restart semantics attached
/// via [`crate::RunOptions`] — see [`crate::run_driver_observed`] for the
/// full event-loop semantics (fault ordering, kill/re-release, weight
/// aging, debug audits).
///
/// Under [`FaultPlan::none`] this is equivalent to [`crate::run_online`]
/// for any policy, and produces the identical schedule.
///
/// # Errors
///
/// Propagates [`SchedulingError`] exactly like [`crate::run_online`]:
/// placement-rule violations (including
/// [`SchedulingError::MachineDown`]) and stranded jobs.
pub fn run_online_chaos<P: OnlinePolicy + ?Sized>(
    instance: &Instance,
    cluster: impl Into<mris_types::ClusterSpec>,
    policy: &mut P,
    plan: &FaultPlan,
    restart: RestartSemantics,
) -> Result<ChaosOutcome, SchedulingError> {
    run_driver(
        instance,
        cluster,
        policy,
        RunOptions::new().with_faults(plan).with_restart(restart),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_online, Dispatcher};
    use mris_types::Job;

    /// Minimal work-conserving FIFO policy for driver tests.
    struct Fifo {
        pending: Vec<JobId>,
    }

    impl Fifo {
        fn new() -> Self {
            Fifo { pending: vec![] }
        }
    }

    impl OnlinePolicy for Fifo {
        fn on_arrivals(&mut self, _now: Time, arrived: &[JobId], _inst: &Instance) {
            self.pending.extend_from_slice(arrived);
        }

        fn dispatch(
            &mut self,
            d: &mut Dispatcher<'_>,
            _freed: &[usize],
        ) -> Result<(), SchedulingError> {
            let mut remaining = Vec::with_capacity(self.pending.len());
            for &job in &self.pending {
                let demands = &d.instance().job(job).demands;
                if let Some(m) = d.cluster().first_fit(demands) {
                    d.place(m, job)?;
                } else {
                    remaining.push(job);
                }
            }
            self.pending = remaining;
            Ok(())
        }
    }

    fn inst(jobs: Vec<Job>) -> Instance {
        Instance::new(jobs, 1).unwrap()
    }

    #[test]
    fn no_fault_plan_matches_run_online() {
        let instance = inst(
            (0..6)
                .map(|i| Job::from_fractions(JobId(i), (i % 3) as f64, 2.0, 1.0, &[0.6]))
                .collect(),
        );
        let baseline = run_online(&instance, 2, &mut Fifo::new()).unwrap();
        let outcome = run_online_chaos(
            &instance,
            2,
            &mut Fifo::new(),
            &FaultPlan::none(),
            RestartSemantics::FullRestart,
        )
        .unwrap();
        assert_eq!(outcome.schedule, baseline);
        assert!(outcome.log.failures.is_empty());
        assert_eq!(outcome.log.total_re_releases(), 0);
        assert_eq!(outcome.log.completions.len(), instance.len());
    }

    #[test]
    fn failure_kills_and_re_releases() {
        // One machine; job 0 runs [0, 4) but is struck at t = 1. It is
        // re-released at t = 1, the machine is down until t = 3, so it
        // restarts at t = 3 and completes at t = 7.
        let instance = inst(vec![Job::from_fractions(JobId(0), 0.0, 4.0, 1.0, &[0.5])]);
        let plan = FaultPlan::from_events(vec![FaultEvent {
            at: 1.0,
            downtime: 2.0,
            target: FaultTarget::Machine(0),
        }]);
        let outcome = run_online_chaos(
            &instance,
            1,
            &mut Fifo::new(),
            &plan,
            RestartSemantics::FullRestart,
        )
        .unwrap();
        assert_eq!(outcome.schedule.get(JobId(0)).unwrap().start, 3.0);
        assert_eq!(outcome.log.re_releases, vec![1]);
        assert_eq!(outcome.log.failures.len(), 1);
        assert_eq!(outcome.log.failures[0].killed, vec![JobId(0)]);
        assert_eq!(outcome.log.recoveries, vec![(3.0, 0)]);
        outcome.log.verify().unwrap();
    }

    #[test]
    fn completion_at_strike_instant_survives() {
        // Job completes exactly at t = 2; the strike at t = 2 kills nothing.
        let instance = inst(vec![Job::from_fractions(JobId(0), 0.0, 2.0, 1.0, &[0.5])]);
        let plan = FaultPlan::from_events(vec![FaultEvent {
            at: 2.0,
            downtime: 1.0,
            target: FaultTarget::Machine(0),
        }]);
        let outcome = run_online_chaos(
            &instance,
            1,
            &mut Fifo::new(),
            &plan,
            RestartSemantics::FullRestart,
        )
        .unwrap();
        assert_eq!(outcome.schedule.get(JobId(0)).unwrap().start, 0.0);
        assert_eq!(outcome.log.total_kills(), 0);
        assert_eq!(outcome.log.failures.len(), 1); // fired, killed nothing
    }

    #[test]
    fn strikes_on_down_or_invalid_machines_are_absorbed() {
        let instance = inst(vec![Job::from_fractions(JobId(0), 0.0, 1.0, 1.0, &[0.5])]);
        let plan = FaultPlan::from_events(vec![
            FaultEvent {
                at: 2.0,
                downtime: 5.0,
                target: FaultTarget::Machine(0),
            },
            // Fires while machine 0 is still down: absorbed.
            FaultEvent {
                at: 3.0,
                downtime: 5.0,
                target: FaultTarget::Machine(0),
            },
            // Out of range: absorbed.
            FaultEvent {
                at: 4.0,
                downtime: 5.0,
                target: FaultTarget::Machine(9),
            },
        ]);
        let outcome = run_online_chaos(
            &instance,
            1,
            &mut Fifo::new(),
            &plan,
            RestartSemantics::FullRestart,
        )
        .unwrap();
        assert_eq!(outcome.log.failures.len(), 1);
        assert_eq!(outcome.log.recoveries.len(), 1);
    }

    #[test]
    fn busiest_target_picks_most_loaded_up_machine() {
        // Machine 1 runs two jobs, machine 0 runs one; the strike at t = 1
        // must hit machine 1.
        let instance = inst(vec![
            Job::from_fractions(JobId(0), 0.0, 4.0, 1.0, &[0.9]),
            Job::from_fractions(JobId(1), 0.0, 4.0, 1.0, &[0.4]),
            Job::from_fractions(JobId(2), 0.0, 4.0, 1.0, &[0.4]),
        ]);
        let plan = FaultPlan::from_events(vec![FaultEvent {
            at: 1.0,
            downtime: 1.0,
            target: FaultTarget::Busiest,
        }]);
        let outcome = run_online_chaos(
            &instance,
            2,
            &mut Fifo::new(),
            &plan,
            RestartSemantics::FullRestart,
        )
        .unwrap();
        assert_eq!(outcome.log.failures[0].machine, 1);
        assert_eq!(outcome.log.failures[0].killed, vec![JobId(1), JobId(2)]);
        outcome.log.verify().unwrap();
    }

    #[test]
    fn weight_aging_scales_working_weights_per_kill() {
        // The policy sees the aged weight after each kill; we observe it
        // through the instance passed to on_arrivals.
        struct Spy {
            inner: Fifo,
            seen_weights: Vec<f64>,
        }
        impl OnlinePolicy for Spy {
            fn on_arrivals(&mut self, now: Time, arrived: &[JobId], instance: &Instance) {
                for &j in arrived {
                    self.seen_weights.push(instance.job(j).weight);
                }
                self.inner.on_arrivals(now, arrived, instance);
            }
            fn dispatch(
                &mut self,
                d: &mut Dispatcher<'_>,
                freed: &[usize],
            ) -> Result<(), SchedulingError> {
                self.inner.dispatch(d, freed)
            }
        }
        let instance = inst(vec![Job::from_fractions(JobId(0), 0.0, 4.0, 1.0, &[0.5])]);
        let plan = FaultPlan::from_events(vec![
            FaultEvent {
                at: 1.0,
                downtime: 1.0,
                target: FaultTarget::Machine(0),
            },
            FaultEvent {
                at: 3.0,
                downtime: 1.0,
                target: FaultTarget::Machine(0),
            },
        ]);
        let mut spy = Spy {
            inner: Fifo::new(),
            seen_weights: vec![],
        };
        let outcome = run_online_chaos(
            &instance,
            1,
            &mut spy,
            &plan,
            RestartSemantics::WeightAging { factor: 2.0 },
        )
        .unwrap();
        // Original arrival at w=1, then re-releases at w=2 and w=4.
        assert_eq!(spy.seen_weights, vec![1.0, 2.0, 4.0]);
        assert_eq!(outcome.log.re_releases, vec![2]);
    }

    #[test]
    fn verify_flags_a_run_through_downtime() {
        let mut log = FaultLog::new(1);
        log.failures.push(FailureRecord {
            at: 1.0,
            machine: 0,
            recover_at: 3.0,
            killed: vec![],
        });
        log.completions.push(CompletionRecord {
            job: JobId(0),
            machine: 0,
            start: 2.0,
            end: 4.0,
        });
        let violation = log.verify().unwrap_err();
        assert_eq!(violation.job, JobId(0));
        assert_eq!((violation.down_from, violation.down_until), (1.0, 3.0));
        // Same interval on a different machine is fine.
        log.completions[0].machine = 1;
        log.verify().unwrap();
    }

    #[test]
    fn poisson_plan_is_deterministic_and_bounded() {
        let cfg = PoissonFaultConfig {
            seed: 7,
            num_machines: 4,
            horizon: 100.0,
            mtbf: 10.0,
            mttr: 2.0,
        };
        let a = FaultPlan::poisson(&cfg);
        let b = FaultPlan::poisson(&cfg);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        for e in a.events() {
            assert!(e.at >= 0.0 && e.at < cfg.horizon);
            assert!(e.downtime > 0.0);
            assert!(matches!(e.target, FaultTarget::Machine(m) if m < cfg.num_machines));
        }
        for w in a.events().windows(2) {
            assert!(w[0].at <= w[1].at);
        }
        let c = FaultPlan::poisson(&PoissonFaultConfig { seed: 8, ..cfg });
        assert_ne!(a, c);
    }

    #[test]
    fn rack_bursts_fail_whole_racks() {
        let cfg = RackBurstConfig {
            seed: 7,
            num_machines: 6,
            rack_size: 4,
            horizon: 50.0,
            mtbb: 10.0,
            downtime: 1.0,
        };
        let plan = FaultPlan::rack_bursts(&cfg);
        assert_eq!(plan, FaultPlan::rack_bursts(&cfg));
        assert!(!plan.is_empty());
        // Every burst covers one full rack: group events by strike time.
        let mut i = 0;
        while i < plan.len() {
            let t = plan.events()[i].at;
            let burst: Vec<usize> = plan.events()[i..]
                .iter()
                .take_while(|e| e.at == t)
                .map(|e| match e.target {
                    FaultTarget::Machine(m) => m,
                    FaultTarget::Busiest => unreachable!(),
                })
                .collect();
            let lo = burst[0];
            assert_eq!(lo % cfg.rack_size, 0);
            let hi = (lo + cfg.rack_size).min(cfg.num_machines);
            assert_eq!(burst, (lo..hi).collect::<Vec<_>>());
            i += burst.len();
        }
    }

    #[test]
    fn adversarial_plan_has_fixed_cadence() {
        let plan = FaultPlan::adversarial_busiest(3, 2.0, 5.0, 1.0);
        assert_eq!(plan.len(), 3);
        let times: Vec<Time> = plan.events().iter().map(|e| e.at).collect();
        assert_eq!(times, vec![2.0, 7.0, 12.0]);
        assert!(plan
            .events()
            .iter()
            .all(|e| e.target == FaultTarget::Busiest));
    }

    #[test]
    fn trailing_recovery_still_unblocks_queued_jobs() {
        // The strike at t = 1 takes the only machine down until t = 10.
        // Job 1 (released at t = 2, while the machine is down) can only be
        // placed after the trailing recovery event — the driver must keep
        // processing fault events even when no completions remain.
        let instance = inst(vec![
            Job::from_fractions(JobId(0), 0.0, 0.5, 1.0, &[0.5]),
            Job::from_fractions(JobId(1), 2.0, 1.0, 1.0, &[0.5]),
        ]);
        let plan = FaultPlan::from_events(vec![FaultEvent {
            at: 1.0,
            downtime: 9.0,
            target: FaultTarget::Machine(0),
        }]);
        let outcome = run_online_chaos(
            &instance,
            1,
            &mut Fifo::new(),
            &plan,
            RestartSemantics::FullRestart,
        )
        .unwrap();
        assert_eq!(outcome.schedule.get(JobId(0)).unwrap().start, 0.0);
        assert_eq!(outcome.schedule.get(JobId(1)).unwrap().start, 10.0);
        assert_eq!(outcome.log.total_kills(), 0);
    }
}
