//! The laws of the one durable codec shape, checked one component at a
//! time. Every [`Codec`] implementor — the kernel's parts, both timeline
//! types and the ledger outcome — and every policy's durable state (which
//! holds MRIS's epoch state and the baselines' queues) is captured from
//! seeded runs with faults under weight aging, DAG gating, related machines
//! with a restricted one, and tenant quotas, and must obey:
//!
//! 1. a captured state decodes, and re-encodes to its own bytes;
//! 2. every single-byte flip (two masks a byte) and every cut of those
//!    bytes is a typed `CodecError`, or decodes to a state that re-encodes
//!    to exactly the damaged bytes;
//! 3. no case panics.
//!
//! A whole snapshot is held to the same laws by `durability_codec.rs`;
//! here a failure names the component that broke.

use std::borrow::Cow;
use std::panic::{catch_unwind, AssertUnwindSafe};

use mris_core::registry::online_policy_on;
use mris_service::{JobOutcome, MemorySink, Service, ServiceConfig, SimClock, TenantSpec};
use mris_sim::{
    ClusterState, ClusterTimelines, EventKernel, EventSink, FaultLog, MachineTimeline,
    OnlinePolicy, PendingFaults, PrecedenceGate,
};
use mris_types::{
    AdmissionError, ClusterSpec, Codec, CodecError, Decoder, Encoder, FaultEvent, FaultTarget,
    Instance, InstanceBuilder, JobId, MachineSpec, RestartSemantics, Schedule, TenantId,
};

const POLICIES: [&str; 5] = ["mris", "pq-wsjf", "tetris", "bf-exec", "ca-pq"];

/// Checks laws 1–3 on `bytes`, the encoding of a captured state, where
/// `reencode` decodes a whole byte string and encodes the result.
fn check_laws(what: &str, bytes: &[u8], reencode: impl Fn(&[u8]) -> Result<Vec<u8>, CodecError>) {
    let own = reencode(bytes).unwrap_or_else(|e| panic!("{what}: its own bytes fail: {e}"));
    assert!(own == bytes, "{what}: decode then encode moved its bytes");
    let flips = (0..bytes.len()).flat_map(|i| {
        [0x01u8, 0x80].map(|mask| {
            let mut bad = bytes.to_vec();
            bad[i] ^= mask;
            (format!("flip {mask:#04x} at byte {i}"), bad)
        })
    });
    let cuts = (0..bytes.len()).map(|cut| (format!("cut to {cut} bytes"), bytes[..cut].to_vec()));
    for (case, bad) in flips.chain(cuts) {
        match catch_unwind(AssertUnwindSafe(|| reencode(&bad))) {
            Err(_) => panic!("{what}: {case} panicked"),
            Ok(Ok(again)) => assert!(again == bad, "{what}: {case} decoded to other bytes"),
            Ok(Err(_)) => {}
        }
    }
}

/// The laws for a [`Codec`] value, decoded against the context `cx` gives.
fn laws<'c, T: Codec>(what: &str, value: &T, cx: impl Fn() -> T::Context<'c>) {
    let mut e = Encoder::new();
    value.encode(&mut e);
    check_laws(what, e.as_bytes(), |bytes| {
        let mut d = Decoder::new(bytes);
        let decoded = T::decode(&mut d, cx())?;
        d.finish()?;
        let mut e = Encoder::new();
        decoded.encode(&mut e);
        Ok(e.into_bytes())
    });
}

/// The laws for a policy's durable state, decoded into a fresh policy
/// `name` built as the captured one was.
fn policy_laws(what: &str, state: &[u8], name: &str, instance: &Instance, spec: &ClusterSpec) {
    check_laws(what, state, |bytes| {
        let mut policy = online_policy_on(name, instance, spec).expect("known policy");
        let mut d = Decoder::new(bytes);
        assert!(
            policy.decode_durable_state(&mut d, instance)?,
            "{what}: no decoder"
        );
        d.finish()?;
        let mut e = Encoder::new();
        assert!(policy.encode_durable_state(&mut e));
        Ok(e.into_bytes())
    });
}

/// 24 jobs on two resources; with `dag`, in chains of three.
fn instance(dag: bool) -> Instance {
    let mut b = InstanceBuilder::new(2);
    for i in 0..24 {
        let demand = [0.15 + (i % 4) as f64 * 0.2, 0.1 + (i % 3) as f64 * 0.25];
        let job = b.push_job((i / 2) as f64 * 0.6, 1.0 + (i % 5) as f64, 1.0, &demand);
        if dag && i % 3 != 0 {
            b.edge(JobId(job.0 - 1), job);
        }
    }
    b.build().expect("valid instance")
}

/// Machines of speed 2 and 1, and a slow one with 60% of the first
/// resource.
fn related() -> ClusterSpec {
    ClusterSpec::new(vec![
        MachineSpec::with_speed(2.0),
        MachineSpec::unit(),
        MachineSpec::from_fractions(0.5, &[0.6, 1.0]),
    ])
}

fn strikes() -> Vec<FaultEvent> {
    [(2.1, 0), (4.7, 1), (7.9, 2), (9.3, 0)]
        .map(|(at, m)| FaultEvent {
            at,
            downtime: 1.7,
            target: FaultTarget::Machine(m),
        })
        .into_iter()
        .chain([FaultEvent {
            at: 5.5,
            downtime: 2.5,
            target: FaultTarget::Busiest,
        }])
        .collect()
}

struct Quiet;
impl EventSink for Quiet {}

/// What one event of a run leaves behind.
struct Capture {
    /// Taken between `settle` and `decide` of an instant whose failure
    /// killed jobs, which wait there for re-release.
    between: bool,
    /// The working instance: the policy's state is decoded against it.
    instance: Instance,
    faults: PendingFaults,
    cluster: ClusterState,
    schedule: Schedule,
    log: FaultLog,
    gate: PrecedenceGate,
    policy: Vec<u8>,
}

fn capture(between: bool, kernel: &EventKernel<'_>, policy: &dyn OnlinePolicy) -> Capture {
    let mut e = Encoder::new();
    assert!(policy.encode_durable_state(&mut e));
    Capture {
        between,
        instance: kernel.instance().clone(),
        faults: kernel.pending_faults().clone(),
        cluster: kernel.cluster().clone(),
        schedule: kernel.schedule().clone(),
        log: kernel.log().clone(),
        gate: kernel.gate().clone(),
        policy: e.into_bytes(),
    }
}

/// Runs `policy` through an [`EventKernel`] as `run_driver` does, and
/// captures the run after a third, half and two thirds of its events, and
/// at every instant whose failure killed jobs.
fn run(
    instance: &Instance,
    spec: &ClusterSpec,
    strikes: &[FaultEvent],
    policy: &mut dyn OnlinePolicy,
) -> Vec<Capture> {
    let restart = RestartSemantics::WeightAging { factor: 1.5 };
    let mut kernel = EventKernel::new(Cow::Borrowed(instance), spec, strikes, restart);
    let release = |j: JobId| instance.job(j).release;
    let (mut kills, mut after, mut next) = (Vec::new(), Vec::new(), 0);
    while let Some(now) = kernel.next_event_time(
        (next < instance.len()).then(|| release(JobId(next as u32))),
        policy.next_wakeup(),
    ) {
        kernel
            .settle(now, &mut *policy, &mut Quiet)
            .expect("settles");
        let mut deliver = Vec::new();
        while next < instance.len() && release(JobId(next as u32)) <= now {
            if kernel.ready_or_hold(JobId(next as u32)) {
                deliver.push(JobId(next as u32));
            }
            next += 1;
        }
        deliver.extend(kernel.opened().iter().filter(|&&j| release(j) <= now));
        deliver.sort_by(|&a, &b| release(a).total_cmp(&release(b)).then(a.cmp(&b)));
        let last = kernel.log().failures.last();
        if last.is_some_and(|f| f.at == now && !f.killed.is_empty()) {
            kills.push(capture(true, &kernel, &*policy));
        }
        kernel
            .decide(now, &deliver, &mut *policy, &mut Quiet)
            .expect("decides");
        after.push(capture(false, &kernel, &*policy));
    }
    assert!(kernel.schedule().is_complete(), "the run strands jobs");
    let events = after.len();
    let picks = [events / 3, events / 2, 2 * events / 3];
    kills.extend(
        (after.into_iter().enumerate()).filter_map(|(i, c)| picks.contains(&i).then_some(c)),
    );
    kills
}

/// Every kernel part, every timeline and every policy state of runs on a
/// related cluster with a DAG, and on a uniform one without.
#[test]
fn every_component_obeys_the_codec_laws() {
    let plan = strikes();
    for (dag, spec) in [(true, related()), (false, ClusterSpec::uniform(3))] {
        let inst = instance(dag);
        let (n, m) = (inst.len(), spec.len());
        let r = inst.num_resources();
        let mut killed_between = false;
        for name in POLICIES {
            let mut policy = online_policy_on(name, &inst, &spec).expect("known policy");
            let captures = run(&inst, &spec, &plan, policy.as_mut());
            assert!(captures.len() >= 3, "{name}: too few captures");
            for (k, c) in captures.iter().enumerate() {
                let at = format!("{name} dag {dag} capture {k}");
                killed_between |= c.between;
                laws(&format!("PendingFaults, {at}"), &c.faults, || {
                    (n, m, plan.len())
                });
                laws(&format!("ClusterState, {at}"), &c.cluster, || {
                    (&spec, &inst)
                });
                laws(&format!("Schedule, {at}"), &c.schedule, || (n, m));
                laws(&format!("FaultLog, {at}"), &c.log, || (n, m));
                laws(&format!("PrecedenceGate, {at}"), &c.gate, || &inst);
                policy_laws(
                    &format!("policy, {at}"),
                    &c.policy,
                    name,
                    &c.instance,
                    &spec,
                );
            }
            // Timelines holding a third of the run's completed work, then
            // all of it compacted past the median completion.
            let done = &captures.last().expect("captures").log.completions;
            let mut timelines = ClusterTimelines::with_spec(&spec, r);
            for (i, rec) in done.iter().enumerate() {
                let job = inst.job(rec.job);
                timelines.commit_job(rec.machine, rec.start, job.proc_time, &job.demands);
                if i + 1 == done.len() {
                    timelines.compact_before(done[done.len() / 2].end);
                }
                if i == done.len() / 3 || i + 1 == done.len() {
                    let at = format!("{name} dag {dag} after {} runs", i + 1);
                    laws(&format!("ClusterTimelines, {at}"), &timelines, || {
                        (&spec, r)
                    });
                    for mm in 0..m {
                        let tl: &MachineTimeline = timelines.machine(mm);
                        let cx = || (tl.capacity(), tl.speed());
                        laws(&format!("MachineTimeline {mm}, {at}"), tl, cx);
                    }
                }
            }
        }
        assert!(killed_between, "dag {dag}: no capture holds a kill");
    }
}

/// Every ledger outcome a tenanted run with quotas and watermarks passes
/// through: not submitted, accepted, completed, and rejected for a full
/// queue and for a tenant's quota.
#[test]
fn every_ledger_outcome_obeys_the_codec_laws() {
    let inst = instance(false);
    let cfg = ServiceConfig::builder(2)
        .epoch(4.0)
        .queue_watermark(7)
        .load_watermark(1.6)
        .tenants(vec![
            TenantSpec::new("alpha", "tok-a", 2.0),
            TenantSpec::new("beta", "tok-b", 1.0).queue_watermark(2),
        ])
        .fair_watermark(4)
        .build()
        .expect("valid config");
    let policy = online_policy_on("pq-wsjf", &inst, &ClusterSpec::uniform(2)).expect("known");
    let mut svc = Service::new(
        inst.clone(),
        policy,
        cfg,
        SimClock::new(),
        MemorySink::default(),
    )
    .expect("valid service");
    let mut all = vec![JobOutcome::NotSubmitted];
    for i in 0..inst.len() {
        let job = JobId(i as u32);
        let _ = svc
            .submit_at_as(inst.job(job).release, job, TenantId(i as u32 % 2))
            .expect("no policy error");
        all.extend((0..inst.len()).map(|j| svc.checked_outcome(JobId(j as u32)).expect("a job")));
    }
    all.extend(svc.drain().expect("drains").0.outcomes);
    let mut seen: Vec<JobOutcome> = Vec::new();
    for outcome in all {
        if !seen.contains(&outcome) {
            seen.push(outcome);
        }
    }
    let has = |kind: fn(&JobOutcome) -> bool| seen.iter().any(kind);
    assert!(has(|o| matches!(
        o,
        JobOutcome::Rejected(AdmissionError::QueueFull { .. })
    )));
    assert!(has(|o| matches!(
        o,
        JobOutcome::Rejected(AdmissionError::TenantQuota { .. })
    )));
    assert!(has(|o| *o == JobOutcome::Accepted) && has(|o| *o == JobOutcome::Completed));
    for outcome in &seen {
        laws(&format!("{outcome:?}"), outcome, || ());
    }
}

/// Corruptions the laws cannot see — a field that re-encodes to itself —
/// are refused by the decoders' semantic checks: a timeline segment over
/// its machine's capacity, a gate count that disagrees with the completed
/// predecessors, and an MRIS grid point that is not `gamma_k`.
#[test]
fn corruptions_that_reencode_cleanly_are_refused() {
    let spec = related();
    let inst = instance(true);
    let job = inst.job(JobId(0));
    let mut timelines = ClusterTimelines::with_spec(&spec, inst.num_resources());
    timelines.commit_job(0, 0.0, job.proc_time, &job.demands);
    let tl = timelines.machine(0);
    let mut e = Encoder::new();
    tl.encode(&mut e);
    let mut bytes = e.into_bytes();
    // The watermark, the segment count, two breakpoints, then the first
    // segment's usage.
    bytes[32..40].copy_from_slice(&(tl.capacity()[0] + 1).to_le_bytes());
    let cx = (tl.capacity(), tl.speed());
    assert!(MachineTimeline::decode(&mut Decoder::new(&bytes), cx).is_err());

    let gate = PrecedenceGate::new(&inst);
    let mut e = Encoder::new();
    gate.encode(&mut e);
    let mut bytes = e.into_bytes();
    // The job count, then job 1's outstanding count (it has one).
    bytes[8 + 6] += 1;
    assert!(PrecedenceGate::decode(&mut Decoder::new(&bytes), &inst).is_err());

    let mut mris = online_policy_on("mris", &inst, &spec).expect("known policy");
    let mut e = Encoder::new();
    assert!(mris.encode_durable_state(&mut e));
    let mut bytes = e.into_bytes();
    // `gamma_0`, then `gamma`.
    bytes[8] ^= 1;
    assert!(mris
        .decode_durable_state(&mut Decoder::new(&bytes), &inst)
        .is_err());
}
