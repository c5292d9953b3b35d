//! Property tests for the durability codec: snapshots and journals
//! round-trip byte-for-byte, and every corruption — flipped bits, torn
//! tails, wrong magic, wrong version — is a typed error, never a panic.

use mris_core::registry::online_policy_by_name;
use mris_rng::Rng;
use mris_service::{
    config_fingerprint, parse_journal, read_valid_prefix, truncate_at_event, DurabilityConfig,
    JournalRecord, JournalWriter, MemorySink, RejectReason, RestoreOptions, Service, ServiceConfig,
    SharedBuf, SimClock, Snapshot, HEADER_LEN, JOURNAL_VERSION, SNAPSHOT_VERSION,
};
use mris_types::{CodecError, DurabilityError, Instance, Job, JobId, RestoreError};

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
/// the one this build writes — the retired v1 included — is refused whole,
/// by `Snapshot::decode` and by `Service::restore`: a typed
/// `UnsupportedVersion`, not a state mismatch found later in replay.
#[test]
fn other_snapshot_versions_are_refused_whole() {
    let (instance, cfg, dcfg, journal) = real_journal();
    assert_eq!(SNAPSHOT_VERSION, 2);
    let snapshot = Snapshot {
        version: SNAPSHOT_VERSION,
        fingerprint: config_fingerprint(&instance, &cfg, &dcfg),
        lsn: 0,
        at: 0.0,
        state: Vec::new(),
    }
    .encode();
    for found in [0u32, 1, 3] {
        let mut other = snapshot.clone();
        other[4..8].copy_from_slice(&found.to_le_bytes());
        let refused = CodecError::UnsupportedVersion {
            found,
            supported: 2,
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
