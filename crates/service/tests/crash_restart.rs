//! Crash-restart equivalence: a service rebuilt from its write-ahead
//! journal (and optionally a snapshot), then driven to completion, is
//! bit-identical to the run that never crashed.
//!
//! The suite runs seeded cases across all five online policies (including
//! MRIS with its `gamma_k` wakeups and durable memo state) and varied
//! configurations — epoch batching on/off, restart semantics, live fault
//! plans. Each case:
//!
//! 1. runs a *golden* service with journaling on (in-memory journal +
//!    snapshot store) and records its schedule, AWCT bits, fault log, and
//!    outcome ledger;
//! 2. simulates crashes by truncating the journal at seeded event
//!    boundaries ([`CrashPlan`]) and at arbitrary mid-frame byte offsets
//!    (torn tails);
//! 3. restores from the truncated journal, resubmits every job the crash
//!    cut off at its release time, drains, and asserts equality with the
//!    golden run — schedule, AWCT bits, [`mris_sim::FaultLog`], and
//!    per-job outcomes.
//!
//! The golden run is itself held equal to the same case with no journal
//! attached (journaling observes decisions, it never makes them).
//!
//! A final test pins the degraded path: restoring with
//! [`RestoreOptions::outage`] after total journal-tail loss equals a
//! fresh run whose fault plan contains the same whole-cluster outage —
//! exactly the chaos driver's machine-failure semantics.

use mris_core::registry::online_policy_by_name;
use mris_rng::Rng;
use mris_service::{
    parse_journal, truncate_at_event, DurabilityConfig, JobOutcome, MemorySink, MemorySnapshots,
    Outage, RestoreOptions, RestoreReport, Service, ServiceConfig, ServiceReport, SharedBuf,
    SimClock, Snapshot, HEADER_LEN,
};
use mris_sim::{suggested_horizon, FaultPlan, PoissonFaultConfig};
use mris_types::{FaultEvent, FaultTarget, Instance, Job, JobId, RestartSemantics, RestoreError};

const POLICIES: [&str; 5] = ["mris", "pq-wsjf", "tetris", "bf-exec", "ca-pq"];
const SEEDS: u64 = 16;
const DCFG: DurabilityConfig = DurabilityConfig {
    flush_every: 1,
    snapshot_every: 8,
};

/// Seeded selection of crash points for one golden run.
#[derive(Debug, Clone, PartialEq, Eq)]
struct CrashPlan {
    /// Event indices (0-based) after whose record group the journal is
    /// cut, sorted and deduplicated.
    kill_after_events: Vec<usize>,
}

impl CrashPlan {
    /// Picks up to `count` distinct kill points over a run of
    /// `num_events` events, deterministically from `seed`.
    fn seeded(seed: u64, num_events: usize, count: usize) -> Self {
        let mut rng = Rng::new(seed).substream("crash-plan");
        let mut kill_after_events: Vec<usize> = Vec::new();
        if num_events > 0 {
            for _ in 0..count.max(1) * 4 {
                if kill_after_events.len() >= count {
                    break;
                }
                let e = rng.next_u64_below(num_events as u64) as usize;
                if !kill_after_events.contains(&e) {
                    kill_after_events.push(e);
                }
            }
        }
        kill_after_events.sort_unstable();
        CrashPlan { kill_after_events }
    }
}

#[test]
fn seeded_plans_are_deterministic_and_bounded() {
    let a = CrashPlan::seeded(7, 100, 8);
    let b = CrashPlan::seeded(7, 100, 8);
    assert_eq!(a, b);
    assert!(a.kill_after_events.len() <= 8);
    assert!(a.kill_after_events.iter().all(|&e| e < 100));
    assert!(a.kill_after_events.windows(2).all(|w| w[0] < w[1]));
    let c = CrashPlan::seeded(8, 100, 8);
    assert_ne!(a, c);
}

#[test]
fn empty_run_yields_no_kill_points() {
    assert!(CrashPlan::seeded(1, 0, 4).kill_after_events.is_empty());
}

/// One golden (uncrashed) run: its inputs, its artifacts, its results.
struct Golden {
    instance: Instance,
    cfg: ServiceConfig,
    report: ServiceReport,
    journal: Vec<u8>,
    snapshots: Vec<Vec<u8>>,
}

/// A seeded random instance in the conservativity suite's style, a bit
/// larger so epochs, wakeups, and faults all get airtime.
fn gen_instance(rng: &mut Rng) -> (usize, Instance) {
    let r = rng.gen_range(1..=2usize);
    let n = rng.gen_range(8..=24usize);
    let jobs = (0..n)
        .map(|_| {
            Job::from_fractions(
                JobId(0),
                rng.gen_range(0.0..12.0),
                rng.gen_range(0.5..6.0),
                rng.gen_range(0.0..4.0),
                &(0..r)
                    .map(|_| rng.gen_range(0.05..=1.0))
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    let machines = rng.gen_range(1..=3usize);
    (
        machines,
        Instance::from_unnumbered(jobs, r).expect("generated jobs are valid"),
    )
}

/// Seed-varied service config: epoch cadence, restart semantics, and an
/// optional live fault plan.
fn gen_cfg(seed: u64, machines: usize, instance: &Instance) -> ServiceConfig {
    let mut cfg = ServiceConfig::builder(machines)
        .epoch(match seed % 3 {
            0 => 0.0,
            1 => 0.5,
            _ => 2.0,
        })
        .build()
        .expect("valid config");
    cfg.restart = if seed.is_multiple_of(2) {
        RestartSemantics::FullRestart
    } else {
        RestartSemantics::WeightAging { factor: 2.0 }
    };
    if seed % 2 == 1 {
        let horizon = suggested_horizon(instance, machines);
        cfg.fault_plan = FaultPlan::poisson(&PoissonFaultConfig {
            seed: seed ^ 0xFA17,
            num_machines: machines,
            horizon,
            mtbf: horizon / 1.5,
            mttr: 0.08 * horizon,
        });
    }
    cfg
}

/// Jobs of `instance` in the canonical submission order.
fn submission_order(instance: &Instance) -> Vec<JobId> {
    let mut order: Vec<JobId> = instance.jobs().iter().map(|j| j.id).collect();
    order.sort_by(|&a, &b| {
        instance
            .job(a)
            .release
            .total_cmp(&instance.job(b).release)
            .then(a.cmp(&b))
    });
    order
}

/// Submits, at its release time, every job `svc` has not seen yet (all of
/// them for a fresh service, the ones a crash cut off for a restored one),
/// then drains.
fn finish(mut svc: Service<SimClock, MemorySink>, instance: &Instance) -> ServiceReport {
    for job in submission_order(instance) {
        if svc.checked_outcome(job) == Some(JobOutcome::NotSubmitted) {
            let _ = svc
                .submit_at(instance.job(job).release, job)
                .expect("submission never hits a policy error");
        }
    }
    svc.drain().expect("drain").0
}

fn golden_run(name: &str, seed: u64) -> Golden {
    let mut rng = Rng::new(seed).substream("crash-restart");
    let (machines, instance) = gen_instance(&mut rng);
    let cfg = gen_cfg(seed, machines, &instance);
    let policy = online_policy_by_name(name, &instance, machines).expect("known policy");
    let mut svc = Service::new(
        instance.clone(),
        policy,
        cfg.clone(),
        SimClock::new(),
        MemorySink::default(),
    )
    .expect("valid service config");
    let buf = SharedBuf::new();
    let snaps = MemorySnapshots::new();
    svc.attach_journal(DCFG, Box::new(buf.clone()), Box::new(snaps.clone()))
        .expect("journal attaches to a fresh service");
    let report = finish(svc, &instance);
    Golden {
        instance,
        cfg,
        report,
        journal: buf.contents(),
        snapshots: snaps.all(),
    }
}

/// Restores from `journal` (+ optional snapshot), resubmits everything the
/// crash cut off at its release time, drains, and returns both reports.
fn restore_and_finish(
    g: &Golden,
    name: &str,
    journal: &[u8],
    snapshot: Option<&[u8]>,
    opts: RestoreOptions,
) -> (ServiceReport, RestoreReport) {
    let policy = online_policy_by_name(name, &g.instance, g.cfg.num_machines).expect("known");
    let (svc, restore) = Service::restore(
        g.instance.clone(),
        policy,
        g.cfg.clone(),
        DCFG,
        SimClock::new(),
        MemorySink::default(),
        journal,
        snapshot,
        opts,
    )
    .expect("restore succeeds");
    (finish(svc, &g.instance), restore)
}

/// Equality of everything the golden run pinned.
fn assert_equivalent(
    name: &str,
    seed: u64,
    ctx: &str,
    golden: &ServiceReport,
    got: &ServiceReport,
) {
    assert_eq!(
        got.schedule, golden.schedule,
        "{name} seed {seed} {ctx}: schedule diverged"
    );
    assert_eq!(
        got.summary.awct.to_bits(),
        golden.summary.awct.to_bits(),
        "{name} seed {seed} {ctx}: AWCT bits diverged"
    );
    assert_eq!(
        got.log, golden.log,
        "{name} seed {seed} {ctx}: fault log diverged"
    );
    assert_eq!(
        got.outcomes, golden.outcomes,
        "{name} seed {seed} {ctx}: outcome ledger diverged"
    );
}

/// The tentpole property: for every policy and seed, every seeded crash
/// point restores into a continuation bit-identical to the uncrashed run.
#[test]
fn crash_restart_is_bit_identical() {
    for name in POLICIES {
        for seed in 0..SEEDS {
            let g = golden_run(name, seed);
            let epochs = g.report.summary.epochs;
            if epochs == 0 {
                continue;
            }
            for kill in CrashPlan::seeded(seed ^ 0xC4A5, epochs, 2).kill_after_events {
                let cut = truncate_at_event(&g.journal, kill)
                    .expect("kill point within the journal's events");
                let (report, restore) = restore_and_finish(
                    &g,
                    name,
                    &g.journal[..cut],
                    None,
                    RestoreOptions::default(),
                );
                assert!(!restore.clean_shutdown, "a truncated journal is a crash");
                assert_equivalent(name, seed, &format!("kill@{kill}"), &g.report, &report);
            }
        }
    }
}

/// Journaling observes decisions, it never makes them: the same case with
/// no journal attached ends in the golden (journaled, snapshotting) run's
/// schedule, AWCT bits, fault log and outcome ledger.
#[test]
fn journaling_never_changes_the_run() {
    for name in POLICIES {
        for seed in 0..SEEDS {
            let g = golden_run(name, seed);
            let policy =
                online_policy_by_name(name, &g.instance, g.cfg.num_machines).expect("known policy");
            let svc = Service::new(
                g.instance.clone(),
                policy,
                g.cfg.clone(),
                SimClock::new(),
                MemorySink::default(),
            )
            .expect("valid service config");
            let plain = finish(svc, &g.instance);
            assert_equivalent(name, seed, "no journal", &g.report, &plain);
        }
    }
}

/// Restoring the *full* journal replays the clean shutdown: nothing to
/// resubmit, nothing regenerated, and the same results.
#[test]
fn full_journal_restores_clean() {
    for name in POLICIES {
        for seed in [1, 4, 9] {
            let g = golden_run(name, seed);
            let (report, restore) =
                restore_and_finish(&g, name, &g.journal, None, RestoreOptions::default());
            assert!(restore.clean_shutdown, "{name} seed {seed}: not clean");
            assert_eq!(restore.regenerated, 0, "{name} seed {seed}: regenerated");
            assert_eq!(restore.torn_tail_bytes, 0, "{name} seed {seed}: torn");
            assert_equivalent(name, seed, "full journal", &g.report, &report);
        }
    }
}

/// Snapshots are verified where replay starts: every snapshot the golden
/// run wrote decodes, re-encodes to its own bytes, and restores the full
/// journal by replaying only the records after its mark — into the
/// uncrashed run. Without a snapshot every record is replayed. (That a
/// genesis replay re-derives each snapshot's bytes is pinned by the
/// service's `restore::tests::genesis_replay_rederives_every_snapshot`.)
#[test]
fn snapshots_verify_during_replay() {
    for name in POLICIES {
        for seed in [3, 5, 11] {
            let g = golden_run(name, seed);
            let records = records_in(&g.journal, g.journal.len());
            let (report, restore) =
                restore_and_finish(&g, name, &g.journal, None, RestoreOptions::default());
            assert_eq!(restore.replayed, records, "{name} seed {seed}: genesis");
            assert_equivalent(name, seed, "genesis", &g.report, &report);
            let mut checked = 0;
            for bytes in &g.snapshots {
                let snap = Snapshot::decode(bytes).expect("golden snapshot decodes");
                let (report, restore) = restore_and_finish(
                    &g,
                    name,
                    &g.journal,
                    Some(bytes),
                    RestoreOptions::default(),
                );
                assert_eq!(
                    restore.snapshot_verified,
                    Some(snap.lsn),
                    "{name} seed {seed}: snapshot at lsn {} not verified",
                    snap.lsn
                );
                assert_eq!(
                    restore.replayed,
                    records - snap.lsn - 1,
                    "{name} seed {seed}: snapshot at lsn {} replayed more than its tail",
                    snap.lsn
                );
                assert_equivalent(name, seed, "snapshot", &g.report, &report);
                checked += 1;
            }
            assert!(
                checked > 0,
                "{name} seed {seed}: no snapshot exercised (journal too short?)"
            );
        }
    }
}

/// Restore's work is a count, and it does not grow with history: at 1x,
/// 4x and 16x the jobs at one arrival rate and one snapshot cadence,
/// restoring the full journal from the newest snapshot replays no more
/// records than the longest stretch between two of the run's marks, while
/// replay from genesis replays all of them.
#[test]
fn restore_work_stays_within_one_snapshot_interval() {
    let dcfg = DurabilityConfig {
        flush_every: 1,
        snapshot_every: 16,
    };
    for name in ["pq-wsjf", "mris"] {
        let mut replayed_at = Vec::new();
        for scale in [1usize, 4, 16] {
            let jobs = (0..60 * scale)
                .map(|i| {
                    Job::from_fractions(
                        JobId(0),
                        i as f64 * 0.4,
                        1.0 + (i % 5) as f64,
                        1.0 + (i % 3) as f64,
                        &[0.15 + (i % 4) as f64 * 0.2],
                    )
                })
                .collect();
            let instance = Instance::from_unnumbered(jobs, 1).expect("valid jobs");
            let cfg = ServiceConfig::new(3);
            let policy = online_policy_by_name(name, &instance, 3).expect("known policy");
            let mut svc = Service::new(
                instance.clone(),
                policy,
                cfg.clone(),
                SimClock::new(),
                MemorySink::default(),
            )
            .expect("valid service config");
            let buf = SharedBuf::new();
            let snaps = MemorySnapshots::new();
            svc.attach_journal(dcfg, Box::new(buf.clone()), Box::new(snaps.clone()))
                .expect("journal attaches to a fresh service");
            finish(svc, &instance);
            let journal = buf.contents();
            let records = parse_journal(&journal).expect("journal parses").records;
            let marks: Vec<u64> = records
                .iter()
                .filter_map(|r| match *r {
                    mris_service::JournalRecord::SnapshotMark { lsn } => Some(lsn),
                    _ => None,
                })
                .collect();
            let interval = marks
                .iter()
                .zip(marks.iter().skip(1))
                .map(|(a, b)| b - a)
                .max()
                .expect("two snapshots or more");
            let restore = |snapshot: Option<&[u8]>| {
                let policy = online_policy_by_name(name, &instance, 3).expect("known policy");
                Service::restore(
                    instance.clone(),
                    policy,
                    cfg.clone(),
                    dcfg,
                    SimClock::new(),
                    MemorySink::default(),
                    &journal,
                    snapshot,
                    RestoreOptions::default(),
                )
                .expect("restore succeeds")
                .1
            };
            let all = snaps.all();
            let newest = restore(all.last().map(Vec::as_slice));
            assert!(
                newest.replayed <= interval,
                "{name} at {scale}x: {} replayed past a snapshot interval of {interval}",
                newest.replayed
            );
            assert_eq!(restore(None).replayed, records.len() as u64);
            replayed_at.push((scale, newest.replayed, records.len()));
        }
        let (_, _, total_16) = replayed_at[2];
        assert!(
            replayed_at
                .iter()
                .all(|&(_, r, _)| r as usize * 8 < total_16),
            "{name}: restore work grew with history: {replayed_at:?}"
        );
    }
}

/// Records in the journal prefix `journal[..cut]`.
fn records_in(journal: &[u8], cut: usize) -> u64 {
    parse_journal(&journal[..cut])
        .expect("event-boundary prefix parses strictly")
        .records
        .len() as u64
}

/// Every snapshot of every golden run, at every seeded kill point that
/// keeps its mark and at the full journal: restoring the cut journal from
/// the snapshot equals restoring it from the journal alone, and both equal
/// the uncrashed run.
#[test]
fn snapshot_restore_equals_journal_restore_at_every_kill_point() {
    let mut checked = 0;
    for name in POLICIES {
        for seed in 0..SEEDS {
            let g = golden_run(name, seed);
            let epochs = g.report.summary.epochs;
            let mut cuts: Vec<usize> = CrashPlan::seeded(seed ^ 0x5A9, epochs, 3)
                .kill_after_events
                .into_iter()
                .map(|kill| truncate_at_event(&g.journal, kill).expect("kill point in range"))
                .collect();
            cuts.push(g.journal.len());
            let cuts: Vec<(usize, u64)> = cuts
                .into_iter()
                .map(|cut| (cut, records_in(&g.journal, cut)))
                .collect();
            for bytes in &g.snapshots {
                let snap = Snapshot::decode(bytes).expect("golden snapshot decodes");
                for &(cut, records) in cuts.iter().filter(|&&(_, r)| r > snap.lsn) {
                    let ctx = format!("snapshot@{} cut@{records}", snap.lsn);
                    let journal = &g.journal[..cut];
                    let (from_snap, restore) = restore_and_finish(
                        &g,
                        name,
                        journal,
                        Some(bytes),
                        RestoreOptions::default(),
                    );
                    assert_eq!(restore.snapshot_verified, Some(snap.lsn), "{name} {ctx}");
                    let (alone, _) =
                        restore_and_finish(&g, name, journal, None, RestoreOptions::default());
                    assert_equivalent(name, seed, &ctx, &alone, &from_snap);
                    assert_equivalent(name, seed, &ctx, &g.report, &from_snap);
                    checked += 1;
                }
            }
        }
    }
    assert!(
        checked >= 200,
        "only {checked} snapshot/kill-point pairs exercised"
    );
}

/// A crash between a snapshot's write and the flush of its mark leaves a
/// snapshot whose sequence number lies past the surviving journal: restore
/// refuses it with a typed `JournalBehindSnapshot`.
#[test]
fn snapshot_past_the_journal_is_refused() {
    for name in POLICIES {
        let g = golden_run(name, 3);
        let bytes = g.snapshots.last().expect("the golden run snapshots");
        let snap = Snapshot::decode(bytes).expect("golden snapshot decodes");
        // The last event boundary before the snapshot's event.
        let mut cut = None;
        for kill in 0..g.report.summary.epochs {
            let c = truncate_at_event(&g.journal, kill).expect("kill point in range");
            if records_in(&g.journal, c) >= snap.lsn {
                break;
            }
            cut = Some(c);
        }
        let cut = cut.expect("the snapshot is not taken at the first event");
        let policy = online_policy_by_name(name, &g.instance, g.cfg.num_machines).expect("known");
        let refused = Service::restore(
            g.instance.clone(),
            policy,
            g.cfg.clone(),
            DCFG,
            SimClock::new(),
            MemorySink::default(),
            &g.journal[..cut],
            Some(bytes),
            RestoreOptions::default(),
        )
        .err();
        assert_eq!(
            refused,
            Some(RestoreError::JournalBehindSnapshot {
                lsn: snap.lsn,
                records: records_in(&g.journal, cut),
            }),
            "{name}"
        );
    }
}

/// A crash that tears off exactly a snapshot's mark leaves a journal that
/// ends where the snapshot was taken: restore starts from the snapshot,
/// counts the mark as regenerated, and still ends in the uncrashed run.
#[test]
fn snapshot_whose_mark_was_torn_off_restores() {
    for name in POLICIES {
        let g = golden_run(name, 5);
        for bytes in &g.snapshots {
            let snap = Snapshot::decode(bytes).expect("golden snapshot decodes");
            // The mark ends its event's record group; its frame is
            // 8 bytes of length and CRC, a tag byte and the `u64` LSN.
            let with_mark = (0..g.report.summary.epochs)
                .map(|kill| truncate_at_event(&g.journal, kill).expect("kill point in range"))
                .find(|&cut| records_in(&g.journal, cut) > snap.lsn)
                .expect("the mark is in the journal");
            let cut = with_mark - 17;
            assert_eq!(records_in(&g.journal, cut), snap.lsn, "{name}");
            let (report, restore) = restore_and_finish(
                &g,
                name,
                &g.journal[..cut],
                Some(bytes),
                RestoreOptions::default(),
            );
            assert_eq!(restore.snapshot_verified, Some(snap.lsn), "{name}");
            assert_eq!(restore.replayed, 0, "{name}");
            assert!(restore.regenerated >= 1, "{name}");
            assert_equivalent(name, 5, "mark torn off", &g.report, &report);
        }
    }
}

/// Mid-frame cuts — the torn tail a real crash leaves — restore in
/// lenient mode by dropping the torn frame and regenerating the lost
/// records, still bit-identical to the uncrashed run.
#[test]
fn torn_tails_restore_leniently() {
    for name in POLICIES {
        for seed in [2, 7, 13] {
            let g = golden_run(name, seed);
            let mut rng = Rng::new(seed).substream("torn-tail");
            for _ in 0..4 {
                let span = (g.journal.len() - HEADER_LEN) as u64;
                let cut = HEADER_LEN + rng.next_u64_below(span.max(1)) as usize;
                let (report, restore) = restore_and_finish(
                    &g,
                    name,
                    &g.journal[..cut],
                    None,
                    RestoreOptions::default(),
                );
                assert!(!restore.clean_shutdown || cut == g.journal.len());
                assert_equivalent(name, seed, &format!("torn@{cut}"), &g.report, &report);
            }
        }
    }
}

/// Degraded mode: when the journal tail after a crash is lost for good,
/// `RestoreOptions::outage` recovers with machine-failure semantics — the
/// continuation equals a fresh run whose fault plan holds the same
/// whole-cluster outage. (PR 3's chaos semantics, word for word.)
#[test]
fn journal_loss_degrades_to_machine_failure_semantics() {
    for name in POLICIES {
        for seed in [0, 6, 10] {
            let g = golden_run(name, seed);
            let epochs = g.report.summary.epochs;
            if epochs < 2 {
                continue;
            }
            let kill = epochs / 2;
            let cut = truncate_at_event(&g.journal, kill).expect("kill point in range");
            let prefix = &g.journal[..cut];

            // The outage strikes strictly after everything the surviving
            // journal recorded.
            let horizon = parse_journal(prefix)
                .expect("event-boundary prefix parses strictly")
                .records
                .iter()
                .filter_map(|r| match *r {
                    mris_service::JournalRecord::Admit { at, .. }
                    | mris_service::JournalRecord::Reject { at, .. }
                    | mris_service::JournalRecord::Event { at } => Some(at),
                    _ => None,
                })
                .fold(f64::NEG_INFINITY, f64::max);
            let outage = Outage {
                at: horizon + 0.25,
                downtime: 1.5,
            };
            let (report, restore) = restore_and_finish(
                &g,
                name,
                prefix,
                None,
                RestoreOptions {
                    strict: false,
                    outage: Some(outage),
                },
            );
            assert!(!restore.clean_shutdown);

            // Reference: a never-crashed service whose plan contains the
            // same whole-cluster failure burst.
            let mut cfg = g.cfg.clone();
            let mut events = cfg.fault_plan.events().to_vec();
            for m in 0..cfg.num_machines {
                events.push(FaultEvent {
                    at: outage.at,
                    downtime: outage.downtime,
                    target: FaultTarget::Machine(m),
                });
            }
            cfg.fault_plan = FaultPlan::from_events(events);
            let policy = online_policy_by_name(name, &g.instance, cfg.num_machines).expect("known");
            let svc = Service::new(
                g.instance.clone(),
                policy,
                cfg,
                SimClock::new(),
                MemorySink::default(),
            )
            .expect("valid service config");
            let reference = finish(svc, &g.instance);
            assert_equivalent(name, seed, "degraded outage", &reference, &report);

            // The same outage on top of the newest snapshot the cut journal
            // still reaches.
            let records = records_in(&g.journal, cut);
            let Some(snapshot) = g
                .snapshots
                .iter()
                .rev()
                .find(|b| Snapshot::decode(b).expect("golden snapshot decodes").lsn < records)
            else {
                continue;
            };
            let (from_snap, restore) = restore_and_finish(
                &g,
                name,
                prefix,
                Some(snapshot),
                RestoreOptions {
                    strict: false,
                    outage: Some(outage),
                },
            );
            assert!(restore.snapshot_verified.is_some());
            assert_equivalent(
                name,
                seed,
                "degraded outage, snapshot",
                &reference,
                &from_snap,
            );
        }
    }
}
