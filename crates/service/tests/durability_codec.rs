//! Property tests for the durability codec: snapshots and journals
//! round-trip byte-for-byte, and every corruption — flipped bits, torn
//! tails, wrong magic, wrong version — is a typed error, never a panic.
//! Snapshots are restored from, so the state inside them is hostile input
//! too: real snapshots of all five policy types, corrupted, truncated,
//! re-sealed, or handed to the wrong policy or configuration.

use mris_core::registry::online_policy_by_name;
use mris_rng::Rng;
use mris_service::{
    config_fingerprint, parse_journal, read_valid_prefix, truncate_at_event, DurabilityConfig,
    JobOutcome, JournalRecord, JournalWriter, MemorySink, MemorySnapshots, RejectReason,
    RestoreOptions, RestoreReport, Service, ServiceConfig, ServiceReport, SharedBuf, SimClock,
    Snapshot, TenantSpec, HEADER_LEN, JOURNAL_VERSION, SNAPSHOT_VERSION,
};
use mris_sim::{Dispatcher, FaultPlan, OnlinePolicy};
use mris_types::{
    CodecError, Decoder, DurabilityError, Encoder, FaultEvent, FaultTarget, Instance, Job, JobId,
    RestartSemantics, RestoreError, SchedulingError, TenantId,
};

fn tiny_instance(n: usize) -> Instance {
    let jobs = (0..n)
        .map(|i| Job::from_fractions(JobId(0), i as f64, 1.0 + i as f64 * 0.5, 1.0, &[0.5]))
        .collect();
    Instance::from_unnumbered(jobs, 1).expect("valid instance")
}

/// Every record variant, with awkward values (negative zero, infinities
/// are rejected upstream so stay finite, max ids).
fn all_records() -> Vec<JournalRecord> {
    vec![
        JournalRecord::Admit {
            at: 0.0,
            job: 0,
            tenant: 0,
        },
        JournalRecord::Admit {
            at: -0.0,
            job: u32::MAX,
            tenant: u32::MAX,
        },
        JournalRecord::Reject {
            at: 1.25,
            job: 7,
            reason: RejectReason::QueueFull,
            tenant: 0,
        },
        JournalRecord::Reject {
            at: 2.5,
            job: 8,
            reason: RejectReason::LoadShed,
            tenant: 3,
        },
        JournalRecord::Reject {
            at: 2.75,
            job: 9,
            reason: RejectReason::TenantQuota,
            tenant: 1,
        },
        JournalRecord::Event { at: 3.75 },
        JournalRecord::Place {
            job: 9,
            machine: 2,
            start: 4.0,
        },
        JournalRecord::Complete { job: 9, machine: 2 },
        JournalRecord::Fail {
            machine: 1,
            at: 5.0,
            recover_at: 6.0,
        },
        JournalRecord::Recover {
            machine: 1,
            at: 6.0,
        },
        JournalRecord::ReRelease { job: 9 },
        JournalRecord::SnapshotMark { lsn: u64::MAX },
        JournalRecord::Close { at: 7.0 },
        JournalRecord::PrecedenceReady { job: 9 },
    ]
}

/// encode → frame → parse round-trips every record variant exactly.
#[test]
fn journal_records_round_trip() {
    let buf = SharedBuf::new();
    let mut w = JournalWriter::new(Box::new(buf.clone()), 0xFEED);
    let records = all_records();
    for r in &records {
        w.append(r);
    }
    w.flush().expect("in-memory flush");
    let parsed = parse_journal(&buf.contents()).expect("own journal parses");
    assert_eq!(parsed.fingerprint, 0xFEED);
    assert_eq!(parsed.records, records);
}

/// Snapshot encode → decode → encode is byte-identical, over seeded
/// random payloads.
#[test]
fn snapshot_round_trip_is_byte_identical() {
    let mut rng = Rng::new(0x5EED).substream("snapshot-roundtrip");
    for _ in 0..64 {
        let state: Vec<u8> = (0..rng.gen_range(0..=512usize))
            .map(|_| rng.next_u64_below(256) as u8)
            .collect();
        let snap = Snapshot {
            version: SNAPSHOT_VERSION,
            fingerprint: rng.next_u64(),
            lsn: rng.next_u64(),
            at: rng.gen_range(-10.0..1e6),
            state,
        };
        let bytes = snap.encode();
        let back = Snapshot::decode(&bytes).expect("own snapshot decodes");
        assert_eq!(back, snap);
        assert_eq!(back.encode(), bytes, "re-encode changed bytes");
    }
}

/// Corrupting any single byte of a snapshot is a typed [`CodecError`] or
/// (for header-field flips that keep the frame self-consistent) decodes
/// into a *different* snapshot — never a panic, never a silent match.
#[test]
fn snapshot_corruption_is_detected_or_divergent() {
    let snap = Snapshot {
        version: SNAPSHOT_VERSION,
        fingerprint: 0xABCD_EF01_2345_6789,
        lsn: 42,
        at: 13.5,
        state: (0u8..64).collect(),
    };
    let bytes = snap.encode();
    for i in 0..bytes.len() {
        let mut bad = bytes.clone();
        bad[i] ^= 0x40;
        match Snapshot::decode(&bad) {
            Ok(other) => assert_ne!(other, snap, "flip at byte {i} went unnoticed"),
            Err(
                CodecError::BadMagic { .. }
                | CodecError::UnsupportedVersion { .. }
                | CodecError::Truncated { .. }
                | CodecError::ChecksumMismatch { .. }
                | CodecError::Malformed { .. },
            ) => {}
        }
    }
    // Truncation at every boundary is typed too.
    for cut in 0..bytes.len() {
        assert!(
            Snapshot::decode(&bytes[..cut]).is_err(),
            "truncation to {cut} bytes decoded"
        );
    }
}

/// Builds a real journal by running a journaled service to completion.
fn real_journal() -> (Instance, ServiceConfig, DurabilityConfig, Vec<u8>) {
    let instance = tiny_instance(12);
    let cfg = ServiceConfig::new(2);
    let dcfg = DurabilityConfig {
        flush_every: 1,
        snapshot_every: 4,
    };
    let policy = online_policy_by_name("pq-wsjf", &instance, 2).expect("known policy");
    let mut svc = Service::new(
        instance.clone(),
        policy,
        cfg.clone(),
        SimClock::new(),
        MemorySink::default(),
    )
    .expect("valid service config");
    let buf = SharedBuf::new();
    svc.attach_journal(
        dcfg,
        Box::new(buf.clone()),
        Box::new(mris_service::NullSnapshots),
    )
    .expect("fresh attach");
    for i in 0..instance.len() {
        let job = JobId(i as u32);
        let _ = svc
            .submit_at(instance.job(job).release, job)
            .expect("no policy error");
    }
    svc.drain().expect("drain");
    (instance, cfg, dcfg, buf.contents())
}

/// Restores `journal` (no snapshot, default options) into the world of
/// [`real_journal`]; the typed error, if restoring refused.
fn restore_error(
    instance: &Instance,
    cfg: &ServiceConfig,
    dcfg: DurabilityConfig,
    journal: &[u8],
) -> Option<RestoreError> {
    let policy = online_policy_by_name("pq-wsjf", instance, cfg.num_machines).expect("known");
    Service::restore(
        instance.clone(),
        policy,
        cfg.clone(),
        dcfg,
        SimClock::new(),
        MemorySink::default(),
        journal,
        None,
        RestoreOptions::default(),
    )
    .err()
}

/// Strict parsing rejects a truncated journal with a typed error; the
/// lenient reader recovers the valid prefix and reports the tail error.
#[test]
fn torn_tails_are_typed_and_recoverable() {
    let (_, _, _, journal) = real_journal();
    let full = parse_journal(&journal).expect("full journal parses");
    for cut in HEADER_LEN + 1..journal.len() {
        let torn = &journal[..cut];
        let strict = parse_journal(torn);
        let (prefix, valid, tail_error) = read_valid_prefix(torn).expect("header intact");
        if strict.is_ok() {
            // The cut landed exactly on a frame boundary.
            assert_eq!(valid, cut);
            assert!(tail_error.is_none());
        } else {
            assert!(valid < cut, "lenient reader claimed torn bytes");
            assert!(tail_error.is_some(), "tail error not reported at {cut}");
        }
        assert!(
            prefix.records.len() <= full.records.len(),
            "prefix grew records"
        );
        assert_eq!(
            prefix.records[..],
            full.records[..prefix.records.len()],
            "valid prefix diverged from the full journal at cut {cut}"
        );
    }
}

/// A journal whose header is well formed but names any version other than
/// the one this build writes — the retired v1 and v2 included — is refused
/// whole by every reader: a typed `UnsupportedVersion`, no panic, and not
/// one of its (perfectly valid) frames replayed.
#[test]
fn other_journal_versions_are_refused_whole() {
    let (instance, cfg, dcfg, journal) = real_journal();
    assert_eq!(JOURNAL_VERSION, 3);
    for found in [0u32, 1, 2, 4] {
        let mut other = journal.clone();
        other[4..8].copy_from_slice(&found.to_le_bytes());
        let refused = CodecError::UnsupportedVersion {
            found,
            supported: 3,
        };
        assert_eq!(parse_journal(&other), Err(refused.clone()));
        assert_eq!(read_valid_prefix(&other), Err(refused.clone()));
        assert_eq!(truncate_at_event(&other, 0), None);
        assert_eq!(
            restore_error(&instance, &cfg, dcfg, &other),
            Some(RestoreError::Journal(refused))
        );
    }
}

/// A snapshot whose header is well formed but names any version other than
/// the one this build writes — the retired v1 and v2 included — is refused whole,
/// by `Snapshot::decode` and by `Service::restore`: a typed
/// `UnsupportedVersion`, not a state mismatch found later in replay.
#[test]
fn other_snapshot_versions_are_refused_whole() {
    let (instance, cfg, dcfg, journal) = real_journal();
    assert_eq!(SNAPSHOT_VERSION, 3);
    let snapshot = Snapshot {
        version: SNAPSHOT_VERSION,
        fingerprint: config_fingerprint(&instance, &cfg, &dcfg),
        lsn: 0,
        at: 0.0,
        state: Vec::new(),
    }
    .encode();
    for found in [0u32, 1, 2, 4] {
        let mut other = snapshot.clone();
        other[4..8].copy_from_slice(&found.to_le_bytes());
        let refused = CodecError::UnsupportedVersion {
            found,
            supported: 3,
        };
        assert_eq!(Snapshot::decode(&other), Err(refused.clone()));
        let policy = online_policy_by_name("pq-wsjf", &instance, cfg.num_machines).expect("known");
        let restored = Service::restore(
            instance.clone(),
            policy,
            cfg.clone(),
            dcfg,
            SimClock::new(),
            MemorySink::default(),
            &journal,
            Some(&other),
            RestoreOptions::default(),
        );
        assert_eq!(restored.err(), Some(RestoreError::Snapshot(refused)));
    }
}

/// Seeded bit-flip fuzzing: parsing and restoring a corrupted journal
/// never panics — every outcome is `Ok` or a typed error.
#[test]
fn journal_fuzz_never_panics() {
    let (instance, cfg, dcfg, journal) = real_journal();
    let mut rng = Rng::new(0xF122).substream("journal-fuzz");
    for case in 0..64 {
        let mut bad = journal.clone();
        let flips = 1 + rng.next_u64_below(4) as usize;
        for _ in 0..flips {
            let bit = rng.next_u64_below(bad.len() as u64 * 8);
            bad[(bit / 8) as usize] ^= 1 << (bit % 8);
        }
        // Typed or fine — but no panic, in any of the three readers.
        let _ = parse_journal(&bad);
        let _ = read_valid_prefix(&bad);
        let _ = restore_error(&instance, &cfg, dcfg, &bad); // the property *is* returning
        let _ = case;
    }
}

/// The configuration fingerprint moves when anything that shapes replay
/// moves: instance, machine count, epoch, fault plan, or cadences.
#[test]
fn fingerprint_is_sensitive_to_configuration() {
    let instance = tiny_instance(6);
    let cfg = ServiceConfig::new(2);
    let dcfg = DurabilityConfig::default();
    let base = config_fingerprint(&instance, &cfg, &dcfg);
    assert_eq!(
        base,
        config_fingerprint(&instance, &cfg, &dcfg),
        "fingerprint not deterministic"
    );
    assert_ne!(
        base,
        config_fingerprint(&tiny_instance(7), &cfg, &dcfg),
        "instance change unnoticed"
    );
    assert_ne!(
        base,
        config_fingerprint(&instance, &ServiceConfig::new(3), &dcfg),
        "machine count unnoticed"
    );
    let epoch_cfg = ServiceConfig::builder(2).epoch(1.0).build().expect("valid");
    assert_ne!(
        base,
        config_fingerprint(&instance, &epoch_cfg, &dcfg),
        "epoch change unnoticed"
    );
    assert_ne!(
        base,
        config_fingerprint(
            &instance,
            &cfg,
            &DurabilityConfig {
                flush_every: 2,
                snapshot_every: 0
            }
        ),
        "flush cadence unnoticed"
    );
}

/// Journaling must cover the whole history: attaching to a service that
/// already processed work is a typed [`DurabilityError::AttachAfterStart`].
#[test]
fn attach_after_start_is_rejected() {
    let instance = tiny_instance(4);
    let policy = online_policy_by_name("pq-wsjf", &instance, 2).expect("known");
    let mut svc = Service::new(
        instance.clone(),
        policy,
        ServiceConfig::new(2),
        SimClock::new(),
        MemorySink::default(),
    )
    .expect("valid service config");
    let _ = svc.submit_at(0.0, JobId(0)).expect("no policy error");
    let err = svc
        .attach_journal(
            DurabilityConfig::default(),
            Box::new(SharedBuf::new()),
            Box::new(mris_service::NullSnapshots),
        )
        .expect_err("attach after work must fail");
    assert!(
        matches!(err, DurabilityError::AttachAfterStart { .. }),
        "wrong error: {err}"
    );
}

/// The five policy types, each with its own durable state section.
const POLICIES: [&str; 5] = ["mris", "pq-wsjf", "tetris", "bf-exec", "ca-pq"];

/// A journaled run that fills every section of the snapshot state:
/// queue-full and load-shed rejections, two machine failures under weight
/// aging, and — with `tenants` — the tenant table, per-tenant quotas and
/// the weighted-fair gate.
struct Run {
    instance: Instance,
    cfg: ServiceConfig,
    dcfg: DurabilityConfig,
    tenants: bool,
    journal: Vec<u8>,
    snapshots: Vec<Vec<u8>>,
    report: ServiceReport,
}

impl Run {
    fn new(name: &str, tenants: bool) -> Run {
        let jobs = (0..28)
            .map(|i| {
                Job::from_fractions(
                    JobId(0),
                    (i / 3) as f64 * 0.7,
                    1.0 + (i % 5) as f64,
                    1.0 + (i % 3) as f64,
                    &[0.2 + (i % 4) as f64 * 0.2, 0.1 + (i % 3) as f64 * 0.3],
                )
            })
            .collect();
        let instance = Instance::from_unnumbered(jobs, 2).expect("valid instance");
        let mut builder = ServiceConfig::builder(2)
            .epoch(4.0)
            .queue_watermark(7)
            .load_watermark(1.6)
            .restart(RestartSemantics::WeightAging { factor: 1.5 })
            .fault_plan(FaultPlan::from_events(vec![
                FaultEvent {
                    at: 3.1,
                    downtime: 2.0,
                    target: FaultTarget::Machine(1),
                },
                FaultEvent {
                    at: 7.3,
                    downtime: 1.5,
                    target: FaultTarget::Busiest,
                },
            ]));
        if tenants {
            builder = builder
                .tenants(vec![
                    TenantSpec::new("alpha", "tok-a", 2.0),
                    TenantSpec::new("beta", "tok-b", 1.0).queue_watermark(2),
                ])
                .fair_watermark(4);
        }
        let cfg = builder.build().expect("valid config");
        let dcfg = DurabilityConfig {
            flush_every: 1,
            snapshot_every: 3,
        };
        let policy = online_policy_by_name(name, &instance, 2).expect("known policy");
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
            .expect("fresh attach");
        let report = finish_run(&instance, tenants, svc);
        Run {
            instance,
            cfg,
            dcfg,
            tenants,
            journal: buf.contents(),
            snapshots: snaps.all(),
            report,
        }
    }

    fn finish(&self, svc: Service<SimClock, MemorySink>) -> ServiceReport {
        finish_run(&self.instance, self.tenants, svc)
    }

    fn restore(
        &self,
        name: &str,
        journal: &[u8],
        snapshot: Option<&[u8]>,
    ) -> Result<(Service<SimClock, MemorySink>, RestoreReport), RestoreError> {
        let policy = online_policy_by_name(name, &self.instance, 2).expect("known policy");
        Service::restore(
            self.instance.clone(),
            policy,
            self.cfg.clone(),
            self.dcfg,
            SimClock::new(),
            MemorySink::default(),
            journal,
            snapshot,
            RestoreOptions::default(),
        )
    }

    /// The journal cut just past the mark of `snapshot`, so a restore from
    /// it replays nothing and exercises the decoders alone.
    fn journal_to_mark(&self, snapshot: &[u8]) -> &[u8] {
        let lsn = Snapshot::decode(snapshot).expect("own snapshot").lsn;
        let mut kill = 0;
        loop {
            let cut = truncate_at_event(&self.journal, kill).expect("mark within the journal");
            let records = parse_journal(&self.journal[..cut]).expect("prefix").records;
            if records.len() as u64 > lsn {
                return &self.journal[..cut];
            }
            kill += 1;
        }
    }
}

/// Offers every job `svc` has not seen at its release, on behalf of tenant
/// `id % 2` when tenanted, then drains.
fn finish_run(
    instance: &Instance,
    tenants: bool,
    mut svc: Service<SimClock, MemorySink>,
) -> ServiceReport {
    for i in 0..instance.len() {
        let job = JobId(i as u32);
        if svc.checked_outcome(job) == Some(JobOutcome::NotSubmitted) {
            let tenant = TenantId(if tenants { i as u32 % 2 } else { 0 });
            let _ = svc
                .submit_at_as(instance.job(job).release, job, tenant)
                .expect("no policy error");
        }
    }
    svc.drain().expect("drain").0
}

/// Restoring from each snapshot of a run with rejections, faults under
/// weight aging and (or not) tenants ends where the uncrashed run ended:
/// the rejections' payloads and each job's tenant are state now.
#[test]
fn every_section_restores_from_every_snapshot() {
    for name in POLICIES {
        for tenants in [false, true] {
            let run = Run::new(name, tenants);
            let rejected = run
                .report
                .outcomes
                .iter()
                .filter(|o| matches!(o, JobOutcome::Rejected(_)))
                .count();
            assert!(rejected > 0, "{name}: the run rejects nothing");
            assert!(!run.report.log.failures.is_empty(), "{name}: no failure");
            assert!(run.snapshots.len() >= 4, "{name}: too few snapshots");
            for bytes in &run.snapshots {
                let (svc, restore) = run
                    .restore(name, &run.journal, Some(bytes))
                    .unwrap_or_else(|e| panic!("{name} tenants {tenants}: {e}"));
                assert!(restore.snapshot_verified.is_some());
                let report = run.finish(svc);
                let ctx = format!("{name} tenants {tenants} snapshot {}", restore.records);
                assert_eq!(report.schedule, run.report.schedule, "{ctx}");
                assert_eq!(report.log, run.report.log, "{ctx}");
                assert_eq!(report.outcomes, run.report.outcomes, "{ctx}");
                assert_eq!(report.tenants, run.report.tenants, "{ctx}");
                let (a, b) = (&report.summary, &run.report.summary);
                assert_eq!(
                    (
                        a.submitted,
                        a.accepted,
                        a.rejected_queue_full,
                        a.rejected_infeasible
                    ),
                    (
                        b.submitted,
                        b.accepted,
                        b.rejected_queue_full,
                        b.rejected_infeasible
                    ),
                    "{ctx}"
                );
                assert_eq!(
                    (a.epochs, a.max_queue_depth),
                    (b.epochs, b.max_queue_depth),
                    "{ctx}"
                );
                assert_eq!(a.awct.to_bits(), b.awct.to_bits(), "{ctx}");
            }
        }
    }
}

/// Every single-byte corruption and every truncation of a real snapshot,
/// of every policy type, is a typed error: the container's checks and the
/// CRC catch each one before any state is decoded.
#[test]
fn corrupt_and_truncated_snapshots_are_typed_errors() {
    for name in POLICIES {
        let run = Run::new(name, true);
        for bytes in [&run.snapshots[1], run.snapshots.last().expect("snapshots")] {
            for i in 0..bytes.len() {
                let mut bad = bytes.clone();
                bad[i] ^= 0x5A;
                assert!(
                    run.restore(name, &run.journal, Some(&bad)).is_err(),
                    "{name}: flip at byte {i} restored"
                );
            }
            for cut in 0..bytes.len() {
                assert!(
                    run.restore(name, &run.journal, Some(&bytes[..cut]))
                        .is_err(),
                    "{name}: truncation to {cut} bytes restored"
                );
            }
        }
    }
}

/// The decoders themselves: corrupting any byte of a snapshot's state and
/// re-sealing its checksum never panics a restore — every result is a
/// typed error, or a state that decodes and re-encodes to exactly the
/// corrupted bytes (a corruption of a field no check can tell, such as a
/// rejection's diagnostic payload).
#[test]
fn resealed_state_corruption_never_panics() {
    for name in POLICIES {
        let run = Run::new(name, true);
        let bytes = &run.snapshots[run.snapshots.len() / 2];
        let journal = run.journal_to_mark(bytes);
        let snap = Snapshot::decode(bytes).expect("own snapshot");
        let mut refused = 0;
        for i in 0..snap.state.len() {
            for flip in [0x01u8, 0x80] {
                let mut bad = snap.clone();
                bad.state[i] ^= flip;
                refused += run.restore(name, journal, Some(&bad.encode())).is_err() as usize;
            }
        }
        assert!(
            refused > snap.state.len(),
            "{name}: only {refused} of {} corruptions refused",
            snap.state.len() * 2
        );
    }
}

/// A snapshot restores only into the policy and configuration that wrote
/// it: another policy's state is refused by the policy's decoder, and
/// another configuration's by the fingerprint.
#[test]
fn snapshots_of_other_policies_and_configs_are_refused() {
    for writer in POLICIES {
        let run = Run::new(writer, false);
        let bytes = &run.snapshots[run.snapshots.len() / 2];
        let journal = run.journal_to_mark(bytes);
        assert!(run.restore(writer, journal, Some(bytes)).is_ok());
        for reader in POLICIES.iter().filter(|&&r| r != writer) {
            assert!(
                matches!(
                    run.restore(reader, journal, Some(bytes)).err(),
                    Some(RestoreError::Snapshot(_))
                ),
                "{reader} accepted a {writer} snapshot"
            );
        }
        let other = Run::new(writer, true);
        let foreign = &other.snapshots[other.snapshots.len() / 2];
        assert!(matches!(
            run.restore(writer, &run.journal, Some(foreign)).err(),
            Some(RestoreError::FingerprintMismatch { .. })
        ));
    }
}

/// PQ-WSJF with its decoder taken away: a policy that cannot decode its
/// state refuses a snapshot with a typed error rather than silently
/// replaying from genesis, and still restores from the journal alone.
#[test]
fn a_policy_without_a_decoder_refuses_snapshots() {
    struct EncodeOnly(Box<dyn OnlinePolicy>);
    impl OnlinePolicy for EncodeOnly {
        fn on_arrivals(&mut self, now: f64, arrived: &[JobId], instance: &Instance) {
            self.0.on_arrivals(now, arrived, instance);
        }
        fn dispatch(
            &mut self,
            d: &mut Dispatcher<'_>,
            freed: &[usize],
        ) -> Result<(), SchedulingError> {
            self.0.dispatch(d, freed)
        }
        fn encode_durable_state(&self, e: &mut Encoder) -> bool {
            self.0.encode_durable_state(e)
        }
    }
    let run = Run::new("pq-wsjf", false);
    let restore = |snapshot: Option<&[u8]>| {
        let policy = online_policy_by_name("pq-wsjf", &run.instance, 2).expect("known");
        Service::restore(
            run.instance.clone(),
            Box::new(EncodeOnly(policy)),
            run.cfg.clone(),
            run.dcfg,
            SimClock::new(),
            MemorySink::default(),
            &run.journal,
            snapshot,
            RestoreOptions::default(),
        )
        .map(|(_, report)| report)
    };
    assert_eq!(
        restore(run.snapshots.last().map(Vec::as_slice)).err(),
        Some(RestoreError::SnapshotUnsupported)
    );
    assert!(restore(None).is_ok());
}

/// A decoder that loses state is caught by restore's re-encode check: the
/// decoded state must re-encode to the snapshot's own bytes. The policy
/// here is PQ-WSJF plus a dispatch counter it encodes, and reads but drops.
#[test]
fn a_lossy_decoder_is_caught_by_the_re_encode_check() {
    struct Lossy {
        inner: Box<dyn OnlinePolicy>,
        dispatches: u8,
    }
    impl OnlinePolicy for Lossy {
        fn on_arrivals(&mut self, now: f64, arrived: &[JobId], instance: &Instance) {
            self.inner.on_arrivals(now, arrived, instance);
        }
        fn dispatch(
            &mut self,
            d: &mut Dispatcher<'_>,
            freed: &[usize],
        ) -> Result<(), SchedulingError> {
            self.dispatches = self.dispatches.wrapping_add(1);
            self.inner.dispatch(d, freed)
        }
        fn encode_durable_state(&self, e: &mut Encoder) -> bool {
            let encoded = self.inner.encode_durable_state(e);
            e.u8(self.dispatches);
            encoded
        }
        fn decode_durable_state(
            &mut self,
            d: &mut Decoder<'_>,
            instance: &Instance,
        ) -> Result<bool, CodecError> {
            let decoded = self.inner.decode_durable_state(d, instance)?;
            d.u8()?;
            Ok(decoded)
        }
    }
    let instance = tiny_instance(12);
    let cfg = ServiceConfig::new(2);
    let dcfg = DurabilityConfig {
        flush_every: 1,
        snapshot_every: 4,
    };
    let lossy = || {
        Box::new(Lossy {
            inner: online_policy_by_name("pq-wsjf", &instance, 2).expect("known"),
            dispatches: 0,
        })
    };
    let mut svc = Service::new(
        instance.clone(),
        lossy(),
        cfg.clone(),
        SimClock::new(),
        MemorySink::default(),
    )
    .expect("valid service config");
    let buf = SharedBuf::new();
    let snaps = MemorySnapshots::new();
    svc.attach_journal(dcfg, Box::new(buf.clone()), Box::new(snaps.clone()))
        .expect("fresh attach");
    finish_run(&instance, false, svc);
    let all = snaps.all();
    assert!(all.len() >= 2);
    for bytes in &all {
        let lsn = Snapshot::decode(bytes).expect("own snapshot").lsn;
        let refused = Service::restore(
            instance.clone(),
            lossy(),
            cfg.clone(),
            dcfg,
            SimClock::new(),
            MemorySink::default(),
            &buf.contents(),
            Some(bytes),
            RestoreOptions::default(),
        )
        .err();
        assert_eq!(refused, Some(RestoreError::SnapshotStateMismatch { lsn }));
    }
}

/// A CRC-valid state whose sections disagree is refused before anything
/// runs on it: the ledger's counters against its outcomes, the event count
/// against the journal, the queued demand against the queued jobs. Each
/// field is found by the version-3 layout of a single-tenant,
/// rejection-free state (PQ-WSJF with epoch batching, so jobs wait queued
/// at snapshot time).
#[test]
fn inconsistent_snapshot_state_is_refused() {
    let instance = tiny_instance(16);
    let n = instance.len();
    let cfg = ServiceConfig::builder(2)
        .epoch(3.0)
        .build()
        .expect("valid config");
    let dcfg = DurabilityConfig {
        flush_every: 1,
        snapshot_every: 2,
    };
    let policy = online_policy_by_name("pq-wsjf", &instance, 2).expect("known policy");
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
        .expect("fresh attach");
    let report = finish_run(&instance, false, svc);
    assert!(report
        .outcomes
        .iter()
        .all(|o| !matches!(o, JobOutcome::Rejected(_))));
    let journal = buf.contents();
    let restore = |snap: &Snapshot| {
        let policy = online_policy_by_name("pq-wsjf", &instance, 2).expect("known policy");
        Service::restore(
            instance.clone(),
            policy,
            cfg.clone(),
            dcfg,
            SimClock::new(),
            MemorySink::default(),
            &journal,
            Some(&snap.encode()),
            RestoreOptions::default(),
        )
        .map(|_| ())
    };
    let mut queued_seen = false;
    for bytes in snaps.all() {
        let snap = Snapshot::decode(&bytes).expect("own snapshot");
        assert_eq!(restore(&snap), Ok(()));
        // last_event, then submitted, accepted, two rejection counters,
        // max queue depth, events and sequence; then the outcome count,
        // one tag byte a job, one weight a job, the queue.
        let counter = |k: usize| 8 + 8 * k;
        let queue_at = 8 + 7 * 8 + 8 + n + 8 * n;
        let queued = u64::from_le_bytes(snap.state[queue_at..queue_at + 8].try_into().unwrap());
        queued_seen |= queued > 0;
        let demand_at = queue_at + 8 + 20 * queued as usize + 8;
        for (what, at) in [
            ("submitted", counter(0)),
            ("events", counter(5)),
            ("queued demand", demand_at),
        ] {
            let mut bad = snap.clone();
            bad.state[at] ^= 1;
            assert!(
                matches!(
                    restore(&bad),
                    Err(RestoreError::Snapshot(CodecError::Malformed { .. }))
                ),
                "{what} at lsn {} went unnoticed",
                snap.lsn
            );
        }
    }
    assert!(queued_seen, "no snapshot caught jobs waiting in the queue");
}
