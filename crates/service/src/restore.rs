//! Crash recovery: rebuilding a [`Service`] from its journal and, when
//! one is supplied, a snapshot, with bit-for-bit equivalence to the
//! uncrashed run.
//!
//! # Snapshot plus journal tail
//!
//! The service event loop is deterministic given its inputs — the
//! instance, the configuration, and the timed sequence of admission
//! offers. [`Service::restore`] therefore starts from a known state and
//! replays the journal's *input* records (`Admit`, `Reject`, `Event`)
//! after it through the service and policy; every *derived* record
//! (`Place`, `Complete`, `Fail`, `Recover`, `ReRelease`,
//! `PrecedenceReady`, `SnapshotMark`) the replay produces is compared
//! against the journal instead of re-appended. Any mismatch is a typed
//! [`RestoreError::Divergence`]: a journal written by a different build,
//! configuration, or policy can never silently restore into a different
//! schedule.
//!
//! The known state is the supplied snapshot's: it is decoded into a fresh
//! service and policy (the inverses of every durable encoder), checked to
//! re-encode to its own bytes, and replay resumes just past its
//! `SnapshotMark`. The container is parsed first, borrowing its state;
//! then one walk over the journal CRC-checks and decodes every frame,
//! counts the events before the mark, checks the mark and keeps only the
//! records after it. So restore costs one pass over the journal's bytes
//! and one over the snapshot's, and holds and replays only the records
//! written since the snapshot, not the run's whole history. Without a
//! snapshot the same loop starts from the empty state at record 0 and
//! keeps every record — replay from genesis is that degenerate case, not
//! a second path. A
//! policy that cannot decode its state refuses a snapshot with
//! [`RestoreError::SnapshotUnsupported`] rather than falling back to
//! genesis.
//!
//! # Torn tails and degraded mode
//!
//! In the default lenient mode a torn final frame (the write the crash
//! interrupted) is dropped and replay simply regenerates the lost
//! records; the continuation is identical to the uncrashed run because
//! the inputs up to the cut are identical. If the journal tail after a
//! snapshot is lost entirely, [`RestoreOptions::outage`] degrades the
//! recovery to machine-failure semantics: every machine synthetically
//! fails at the outage instant, killing (re-releasing) whatever was
//! running — exactly the fault model of the chaos driver.

use std::ops::ControlFlow;

use mris_sim::OnlinePolicy;
use mris_types::{
    CodecError, FaultEvent, FaultTarget, Instance, JobId, RestoreError, TenantId, Time,
};

use crate::clock::Clock;
use crate::codec::Encoder;
use crate::core::{Service, ServiceConfig};
use crate::journal::{
    config_fingerprint, walk_frames, Durability, DurabilityConfig, DurabilitySink, JournalRecord,
    ReplayVerifier, HEADER_LEN, MIN_FRAME,
};
use crate::snapshot::SnapshotView;
use crate::telemetry::TelemetrySink;

/// A real-world outage window for degraded (journal-loss) recovery: every
/// machine is treated as failed at `at` and recovers `downtime` later.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outage {
    /// When the outage struck. Must be after the last replayed record.
    pub at: Time,
    /// How long the machines stay down.
    pub downtime: Time,
}

/// Knobs for [`Service::restore`].
#[derive(Debug, Clone, Copy, Default)]
pub struct RestoreOptions {
    /// Reject a torn final frame instead of dropping it. Off by default:
    /// a torn tail is the expected signature of a crash mid-write.
    pub strict: bool,
    /// Degraded-mode outage to apply after replay (see [`Outage`]).
    pub outage: Option<Outage>,
}

/// What restore's one pass over the journal found: every frame is
/// CRC-checked and decoded, but only the records replay needs are kept.
#[derive(Debug)]
struct JournalScan {
    fingerprint: u64,
    /// Bytes of the valid prefix, header included.
    valid: usize,
    /// The decode error that ended the walk, if any.
    tail_error: Option<CodecError>,
    /// Records in the valid prefix.
    records: u64,
    /// `Event` records before the mark.
    events_before_mark: u64,
    /// Whether the record at the mark's position is something other than
    /// the mark.
    mark_unmatched: bool,
    /// The records after the mark (every record without one).
    tail: Vec<JournalRecord>,
    /// The time of the last input record (`-inf` without one).
    horizon: Time,
}

impl JournalScan {
    /// Walks `journal` once. With `mark = Some(lsn)` the record at `lsn`
    /// is the snapshot's mark: the events before it are counted, it is
    /// checked, and only the records after it are kept.
    ///
    /// The kept records are reserved where keeping starts, for as many
    /// frames as the bytes left can hold, so the tail never regrows.
    fn walk(journal: &[u8], mark: Option<u64>) -> Result<JournalScan, CodecError> {
        let room = |from: usize| journal.len().saturating_sub(from) / MIN_FRAME;
        let mut scan = JournalScan {
            fingerprint: 0,
            valid: HEADER_LEN,
            tail_error: None,
            records: 0,
            events_before_mark: 0,
            mark_unmatched: false,
            tail: Vec::with_capacity(if mark.is_none() { room(HEADER_LEN) } else { 0 }),
            horizon: f64::NEG_INFINITY,
        };
        let (_, fingerprint, tail_error) = walk_frames(journal, |rec, end| {
            let lsn = scan.records;
            scan.records += 1;
            scan.valid = end;
            if let JournalRecord::Admit { at, .. }
            | JournalRecord::Reject { at, .. }
            | JournalRecord::Event { at }
            | JournalRecord::Close { at } = rec
            {
                scan.horizon = at;
            }
            match mark {
                Some(m) if lsn < m => {
                    scan.events_before_mark += matches!(rec, JournalRecord::Event { .. }) as u64;
                }
                Some(m) if lsn == m => {
                    scan.mark_unmatched = rec != JournalRecord::SnapshotMark { lsn: m };
                    scan.tail.reserve(room(end));
                }
                _ => scan.tail.push(rec),
            }
            ControlFlow::Continue(())
        })?;
        scan.fingerprint = fingerprint;
        scan.tail_error = tail_error;
        Ok(scan)
    }
}

/// What a restore did, for operators and the crash suite.
#[derive(Debug, Clone, PartialEq)]
pub struct RestoreReport {
    /// Records in the surviving (valid-prefix) journal.
    pub records: u64,
    /// Journal records re-executed or verified after the starting point —
    /// past the snapshot's mark, or all of them without a snapshot. The
    /// restore's work, as a count.
    pub replayed: u64,
    /// Derived records replay produced past the journal's end — the
    /// regenerated torn tail.
    pub regenerated: u64,
    /// Bytes dropped from the journal's torn tail (lenient mode).
    pub torn_tail_bytes: usize,
    /// The decode error that terminated the lenient scan, if any.
    pub tail_error: Option<CodecError>,
    /// The sequence number of the snapshot restore started from, which
    /// decoded and re-encoded to its own bytes; `None` without one.
    pub snapshot_verified: Option<u64>,
    /// Whether the journal ends with a clean [`JournalRecord::Close`].
    pub clean_shutdown: bool,
    /// Service time replay resumed at (`-inf` for an empty journal).
    pub resumed_at: Time,
    /// Wall-clock seconds the restore took.
    pub restore_seconds: f64,
}

impl<C: Clock, S: TelemetrySink> Service<C, S> {
    /// Rebuilds a service from `journal` and, if given, `snapshot`: the
    /// snapshot's state is decoded into a fresh service and `policy`, and
    /// the journal's records after the snapshot's mark are replayed through
    /// it (all of them without a snapshot), every derived record verified
    /// against the journal. On success the returned service stands exactly
    /// where the original stood at its last flushed record and can be
    /// driven forward normally. The restored service carries no journal —
    /// re-attach via [`Service::attach_journal`] semantics is intentionally
    /// not implied, because journaling never affects scheduling decisions.
    ///
    /// `instance`, `cfg`, and `dcfg` must be the original run's; the
    /// configuration fingerprint of the journal and of the snapshot is
    /// checked against them before anything is decoded or replayed.
    ///
    /// # Errors
    ///
    /// Typed [`RestoreError`]s for every failure mode: unreadable or
    /// mismatched artifacts, a snapshot the journal does not reach or the
    /// policy cannot decode, replay divergence, and degraded-mode misuse.
    /// Restore never panics on corrupt input.
    #[allow(clippy::too_many_arguments)]
    pub fn restore(
        instance: Instance,
        policy: Box<dyn OnlinePolicy>,
        cfg: ServiceConfig,
        dcfg: DurabilityConfig,
        clock: C,
        sink: S,
        journal: &[u8],
        snapshot: Option<&[u8]>,
        opts: RestoreOptions,
    ) -> Result<(Self, RestoreReport), RestoreError> {
        let started = std::time::Instant::now();
        // The container first, borrowing its state, so that the one walk
        // knows where the mark is; its errors are reported after the
        // journal's. A container that does not parse keeps no records.
        let view = snapshot.map(SnapshotView::parse);
        let mark = view
            .as_ref()
            .map(|v| v.as_ref().map_or(u64::MAX, |v| v.lsn));
        let scan = JournalScan::walk(journal, mark).map_err(RestoreError::Journal)?;
        if let (true, Some(err)) = (opts.strict, &scan.tail_error) {
            return Err(RestoreError::Journal(err.clone()));
        }
        let torn_tail_bytes = journal.len() - scan.valid;
        let expected_fp = config_fingerprint(&instance, &cfg, &dcfg);
        if scan.fingerprint != expected_fp {
            return Err(RestoreError::FingerprintMismatch {
                stored: scan.fingerprint,
                expected: expected_fp,
            });
        }
        let total = scan.records;
        let snapshot = match view {
            Some(view) => {
                let snap = view.map_err(RestoreError::Snapshot)?;
                if snap.fingerprint != expected_fp {
                    return Err(RestoreError::FingerprintMismatch {
                        stored: snap.fingerprint,
                        expected: expected_fp,
                    });
                }
                if snap.lsn > total {
                    return Err(RestoreError::JournalBehindSnapshot {
                        lsn: snap.lsn,
                        records: total,
                    });
                }
                // The journal's record at the snapshot's LSN, unless the
                // crash tore exactly that frame off, is the snapshot's mark.
                if scan.mark_unmatched {
                    return Err(RestoreError::SnapshotUnmatched {
                        lsn: snap.lsn,
                        replayed: total,
                    });
                }
                Some(snap)
            }
            None => None,
        };

        // Degraded mode: the outage may not rewrite already-journaled
        // history; it joins the fault plan once replay is done.
        let mut outage_events = Vec::new();
        if let Some(outage) = opts.outage {
            if outage.at <= scan.horizon {
                return Err(RestoreError::OutageTooEarly {
                    at: outage.at,
                    resumed_at: scan.horizon,
                });
            }
            outage_events = (0..cfg.num_machines)
                .map(|m| FaultEvent {
                    at: outage.at,
                    downtime: outage.downtime,
                    target: FaultTarget::Machine(m),
                })
                .collect();
        }

        // The starting point: the snapshot's state just past its mark, or
        // the empty state at record 0.
        let mut svc = Service::new(instance, policy, cfg, clock, sink)?;
        let mut start = 0;
        let mut regenerated = 0;
        if let Some(snap) = &snapshot {
            svc.load_durable_state(snap.state, scan.events_before_mark)?;
            let mut again = Encoder::with_capacity(snap.state.len());
            svc.encode_durable_state(&mut again);
            if svc.kernel.last_event().to_bits() != snap.at.to_bits()
                || again.as_bytes() != snap.state
            {
                return Err(RestoreError::SnapshotStateMismatch { lsn: snap.lsn });
            }
            start = snap.lsn + 1;
            if start > total {
                // The mark itself was torn off: it counts as regenerated.
                start = total;
                regenerated = 1;
            }
        }
        let mut dur = Durability::new(
            dcfg,
            expected_fp,
            DurabilitySink::Verify(ReplayVerifier::new(scan.tail, start)),
        );
        if let Some(snap) = &snapshot {
            dur.resume_after_mark(snap.lsn + 1);
        }
        svc.dur = Some(Box::new(dur));

        // Drive replay: at each step the verifier's cursor points at the
        // next unconsumed record; input records are re-executed (their
        // emissions advance the cursor), derived records are consumed by
        // those emissions. A derived record *at* the cursor means replay
        // failed to produce it — divergence.
        let mut clean_shutdown = false;
        loop {
            let v = svc.verifier();
            if let Some(err) = &v.divergence {
                return Err(err.clone());
            }
            let lsn = v.lsn();
            let Some(record) = v.expected.get(v.cursor).cloned() else {
                break;
            };
            match record {
                JournalRecord::Admit { at, job, tenant }
                | JournalRecord::Reject {
                    at, job, tenant, ..
                } => {
                    // The decision is re-derived; the emission it triggers
                    // is checked against this very record by the verifier.
                    // An offer the service refuses outright was never
                    // journaled.
                    match svc.replay_admit(at, JobId(job), TenantId(tenant)) {
                        Err(err) if err.is_invalid_offer() => {
                            return Err(RestoreError::Divergence {
                                lsn,
                                detail: format!("journal holds an invalid offer: {err}"),
                            });
                        }
                        _ => {}
                    }
                }
                JournalRecord::Event { at } => {
                    svc.replay_event(at)?;
                }
                JournalRecord::Close { .. } => {
                    clean_shutdown = true;
                    svc.verifier().cursor += 1;
                    break;
                }
                ref derived => {
                    return Err(RestoreError::Divergence {
                        lsn,
                        detail: format!(
                            "replay did not produce derived record {derived:?} the journal holds"
                        ),
                    });
                }
            }
        }

        let resumed_at = svc.kernel.last_event();
        let dur = svc.dur.take().expect("verifier attached above");
        let DurabilitySink::Verify(verifier) = dur.sink else {
            unreachable!("restore uses a verifier")
        };
        if let Some(err) = verifier.divergence {
            return Err(err);
        }
        if verifier.cursor < verifier.expected.len() {
            return Err(RestoreError::Divergence {
                lsn: verifier.lsn(),
                detail: "journal holds records after a clean shutdown".to_string(),
            });
        }
        svc.kernel.add_fault_events(&outage_events);
        let replayed = verifier.cursor as u64;
        mris_obs::counter_add("mris_restore_replayed_records_total", replayed);
        let restore_seconds = started.elapsed().as_secs_f64();
        mris_obs::histogram_record("mris_restore_seconds", restore_seconds);
        Ok((
            svc,
            RestoreReport {
                records: total,
                replayed,
                regenerated: regenerated + verifier.regenerated,
                torn_tail_bytes,
                tail_error: scan.tail_error,
                snapshot_verified: snapshot.map(|s| s.lsn),
                clean_shutdown,
                resumed_at,
                restore_seconds,
            },
        ))
    }

    /// The replay verifier a restore attached.
    fn verifier(&mut self) -> &mut ReplayVerifier {
        match self.dur.as_deref_mut().map(|d| &mut d.sink) {
            Some(DurabilitySink::Verify(v)) => v,
            _ => unreachable!("restore attaches a verifier"),
        }
    }
}

#[cfg(test)]
mod tests {
    use std::ops::ControlFlow;

    use mris_core::registry::online_policy_by_name;
    use mris_sim::FaultPlan;
    use mris_types::{FaultEvent, FaultTarget, Instance, Job, JobId, RestartSemantics};

    use super::*;
    use crate::journal::SharedBuf;
    use crate::snapshot::{MemorySnapshots, Snapshot};
    use crate::telemetry::NullSink;
    use crate::SimClock;

    const DCFG: DurabilityConfig = DurabilityConfig {
        flush_every: 1,
        snapshot_every: 4,
    };

    /// A small run with contention, two machine failures and weight aging.
    fn world() -> (Instance, ServiceConfig) {
        let jobs = (0..20)
            .map(|i| {
                Job::from_fractions(
                    JobId(0),
                    (i % 7) as f64 * 0.8,
                    1.0 + (i % 4) as f64,
                    1.0 + (i % 3) as f64,
                    &[0.2 + (i % 5) as f64 * 0.15, 0.1 * (i % 4) as f64],
                )
            })
            .collect();
        let instance = Instance::from_unnumbered(jobs, 2).expect("valid jobs");
        let mut cfg = ServiceConfig::new(2);
        cfg.restart = RestartSemantics::WeightAging { factor: 1.5 };
        cfg.fault_plan = FaultPlan::from_events(vec![
            FaultEvent {
                at: 2.5,
                downtime: 2.0,
                target: FaultTarget::Machine(0),
            },
            FaultEvent {
                at: 6.0,
                downtime: 1.0,
                target: FaultTarget::Busiest,
            },
        ]);
        (instance, cfg)
    }

    /// Byte offset just past journal record `lsn` (0-based).
    fn end_of_record(journal: &[u8], lsn: u64) -> usize {
        let mut ends = Vec::new();
        walk_frames(journal, |_, end| {
            ends.push(end);
            ControlFlow::Continue(())
        })
        .expect("header");
        ends[lsn as usize]
    }

    /// One policy's run of [`world`], journaled with snapshots: the
    /// journal and every snapshot container written.
    fn journaled_run(name: &str) -> (Vec<u8>, Vec<Vec<u8>>) {
        let (instance, cfg) = world();
        let policy = online_policy_by_name(name, &instance, 2).expect("known policy");
        let mut svc = Service::new(instance.clone(), policy, cfg, SimClock::new(), NullSink)
            .expect("valid config");
        let buf = SharedBuf::new();
        let snaps = MemorySnapshots::new();
        svc.attach_journal(DCFG, Box::new(buf.clone()), Box::new(snaps.clone()))
            .expect("fresh attach");
        for i in 0..instance.len() {
            let job = JobId(i as u32);
            let _ = svc
                .submit_at(instance.job(job).release, job)
                .expect("no policy error");
        }
        svc.drain().expect("drain");
        (buf.contents(), snaps.all())
    }

    /// `Service::restore` of [`world`] under `policy`.
    fn restore(
        name: &str,
        journal: &[u8],
        snapshot: Option<&[u8]>,
        opts: RestoreOptions,
    ) -> Result<Service<SimClock, NullSink>, RestoreError> {
        let (instance, cfg) = world();
        let policy = online_policy_by_name(name, &instance, 2).expect("known policy");
        Service::restore(
            instance,
            policy,
            cfg,
            DCFG,
            SimClock::new(),
            NullSink,
            journal,
            snapshot,
            opts,
        )
        .map(|(svc, _)| svc)
    }

    /// Replaying a journal from genesis up to a snapshot's mark re-derives
    /// that snapshot's state bytes exactly, for every snapshot of every
    /// policy: the snapshot and the journal describe one state.
    #[test]
    fn genesis_replay_rederives_every_snapshot() {
        for name in ["mris", "pq-wsjf", "tetris", "bf-exec", "ca-pq"] {
            let (journal, all) = journaled_run(name);
            assert!(all.len() >= 3, "{name}: only {} snapshots", all.len());
            for bytes in &all {
                let snap = Snapshot::decode(bytes).expect("own snapshot decodes");
                // The container written in place is the one `encode` writes.
                assert!(
                    snap.encode() == *bytes,
                    "{name}: snapshot {} re-encodes",
                    snap.lsn
                );
                let cut = end_of_record(&journal, snap.lsn);
                let replayed = restore(name, &journal[..cut], None, RestoreOptions::default())
                    .expect("genesis replay");
                let mut state = Encoder::new();
                replayed.encode_durable_state(&mut state);
                assert!(
                    state.as_bytes() == snap.state,
                    "{name}: replay to lsn {} re-derived other state bytes",
                    snap.lsn
                );
            }
        }
    }

    /// Restore's walk keeps only the records after the snapshot's mark —
    /// the tail replay consumes — and every record without a snapshot.
    #[test]
    fn restore_keeps_only_the_tail() {
        let (journal, all) = journaled_run("pq-wsjf");
        let genesis = JournalScan::walk(&journal, None).expect("header");
        let records = genesis.records;
        assert_eq!(genesis.tail.len() as u64, records);
        for bytes in &all {
            let lsn = Snapshot::decode(bytes).expect("decodes").lsn;
            let scan = JournalScan::walk(&journal, Some(lsn)).expect("header");
            assert_eq!(scan.records, records);
            assert_eq!(
                scan.tail.len() as u64,
                records - lsn - 1,
                "snapshot at {lsn}"
            );
            assert!(!scan.mark_unmatched);
        }
    }

    /// One fault planted in a journal or snapshot, for the error-order table.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Fault {
        BadHeader,
        StrictTornTail,
        JournalFingerprint,
        BadContainer,
        ContainerCrc,
        SnapshotFingerprint,
        JournalBehindSnapshot,
        SnapshotUnmatched,
    }

    const FAULTS: [Fault; 8] = [
        Fault::BadHeader,
        Fault::StrictTornTail,
        Fault::JournalFingerprint,
        Fault::BadContainer,
        Fault::ContainerCrc,
        Fault::SnapshotFingerprint,
        Fault::JournalBehindSnapshot,
        Fault::SnapshotUnmatched,
    ];

    /// Plants `fault` into the journal, the snapshot and the options.
    /// Faults are planted last-reported first, so none undoes another:
    /// the journal is cut to the snapshot's (possibly moved) LSN before
    /// its header bytes are flipped.
    fn plant(fault: Fault, journal: &mut Vec<u8>, snap: &mut [u8], opts: &mut RestoreOptions) {
        let lsn = |snap: &[u8]| u64::from_le_bytes(snap[16..24].try_into().expect("8 bytes"));
        match fault {
            Fault::BadHeader => journal[0] ^= 0xFF,
            Fault::StrictTornTail => {
                journal.truncate(journal.len() - 3);
                opts.strict = true;
            }
            Fault::JournalFingerprint => journal[8] ^= 1,
            Fault::BadContainer => snap[0] ^= 0xFF,
            Fault::ContainerCrc => *snap.last_mut().expect("state bytes") ^= 1,
            // Another bit than the journal's, to tell the two apart.
            Fault::SnapshotFingerprint => snap[8] ^= 2,
            Fault::JournalBehindSnapshot => {
                let cut = end_of_record(journal, lsn(snap) - 2);
                journal.truncate(cut);
            }
            Fault::SnapshotUnmatched => {
                let moved = lsn(snap) - 1;
                snap[16..24].copy_from_slice(&moved.to_le_bytes());
            }
        }
    }

    /// Which planted fault an error reports.
    fn reported(err: &RestoreError, journal_fp: u64) -> Fault {
        match err {
            RestoreError::Journal(CodecError::BadMagic { .. }) => Fault::BadHeader,
            RestoreError::Journal(_) => Fault::StrictTornTail,
            RestoreError::FingerprintMismatch { stored, .. } if *stored == journal_fp ^ 1 => {
                Fault::JournalFingerprint
            }
            RestoreError::FingerprintMismatch { .. } => Fault::SnapshotFingerprint,
            RestoreError::Snapshot(CodecError::BadMagic { .. }) => Fault::BadContainer,
            RestoreError::Snapshot(CodecError::ChecksumMismatch { .. }) => Fault::ContainerCrc,
            RestoreError::JournalBehindSnapshot { .. } => Fault::JournalBehindSnapshot,
            RestoreError::SnapshotUnmatched { .. } => Fault::SnapshotUnmatched,
            other => panic!("no fault reports {other:?}"),
        }
    }

    /// Restore reports faults in one fixed order, the order of [`FAULTS`]:
    /// with any two planted, the earlier one's error comes back, and each
    /// alone comes back as itself.
    #[test]
    fn restore_reports_faults_in_a_fixed_order() {
        let (journal, all) = journaled_run("pq-wsjf");
        let journal_fp = u64::from_le_bytes(journal[8..16].try_into().expect("8 bytes"));
        let snapshot = &all[1];
        for (i, &a) in FAULTS.iter().enumerate() {
            for &b in &FAULTS[i..] {
                let (mut j, mut s, mut opts) =
                    (journal.clone(), snapshot.clone(), RestoreOptions::default());
                // Last-reported first: `b` is never earlier than `a`.
                plant(b, &mut j, &mut s, &mut opts);
                if b != a {
                    plant(a, &mut j, &mut s, &mut opts);
                }
                let err = restore("pq-wsjf", &j, Some(&s), opts)
                    .err()
                    .unwrap_or_else(|| panic!("{a:?} + {b:?} restored"));
                assert_eq!(reported(&err, journal_fp), a, "{a:?} + {b:?}: {err:?}");
            }
        }
    }
}
