//! Crash recovery: rebuilding a [`Service`] from its journal (and an
//! optional snapshot) with bit-for-bit equivalence to the uncrashed run.
//!
//! # Replay-from-genesis
//!
//! The service event loop is deterministic given its inputs — the
//! instance, the configuration, and the timed sequence of admission
//! offers. [`Service::restore`] therefore replays the journal's *input*
//! records (`Admit`, `Reject`, `Event`) through a fresh service and
//! policy; every *derived* record (`Place`, `Complete`, `Fail`,
//! `Recover`, `ReRelease`, `PrecedenceReady`, `SnapshotMark`) the replay produces is
//! compared against the journal instead of re-appended. Any mismatch is a
//! typed [`RestoreError::Divergence`]: a journal written by a different
//! build, configuration, or policy can never silently restore into a
//! different schedule. When replay passes a snapshot's sequence number it
//! re-derives the full canonical state and byte-compares it against the
//! stored snapshot, so every snapshot is an end-to-end consistency check
//! on top of the record-level trail.
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

use mris_sim::{FaultPlan, OnlinePolicy};
use mris_types::{
    CodecError, FaultEvent, FaultTarget, Instance, JobId, RestoreError, TenantId, Time,
};

use crate::clock::Clock;
use crate::core::{JobOutcome, Service, ServiceConfig};
use crate::journal::{
    config_fingerprint, parse_journal, read_valid_prefix, Durability, DurabilityConfig,
    DurabilitySink, JournalRecord, ReplayVerifier,
};
use crate::snapshot::Snapshot;
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

/// What a restore did, for operators and the crash suite.
#[derive(Debug, Clone, PartialEq)]
pub struct RestoreReport {
    /// Records in the surviving (valid-prefix) journal.
    pub records: u64,
    /// Derived records replay produced past the journal's end — the
    /// regenerated torn tail.
    pub regenerated: u64,
    /// Bytes dropped from the journal's torn tail (lenient mode).
    pub torn_tail_bytes: usize,
    /// The decode error that terminated the lenient scan, if any.
    pub tail_error: Option<CodecError>,
    /// The sequence number of the snapshot that was byte-verified during
    /// replay, if a snapshot was supplied and reached.
    pub snapshot_verified: Option<u64>,
    /// Whether the journal ends with a clean [`JournalRecord::Close`].
    pub clean_shutdown: bool,
    /// Service time replay resumed at (`-inf` for an empty journal).
    pub resumed_at: Time,
    /// Wall-clock seconds the restore took.
    pub restore_seconds: f64,
}

impl<C: Clock, S: TelemetrySink> Service<C, S> {
    /// Rebuilds a service from `journal` (and optionally `snapshot`),
    /// replaying every recorded input through a fresh `policy` and
    /// verifying every derived record against the journal. On success the
    /// returned service stands exactly where the original stood at its
    /// last flushed record and can be driven forward normally. The
    /// restored service carries no journal — re-attach via
    /// [`Service::attach_journal`] semantics is intentionally not implied,
    /// because journaling never affects scheduling decisions.
    ///
    /// `instance`, `cfg`, and `dcfg` must be the original run's; the
    /// journal's configuration fingerprint is checked against them before
    /// anything is replayed.
    ///
    /// # Errors
    ///
    /// Typed [`RestoreError`]s for every failure mode: unreadable or
    /// mismatched artifacts, replay divergence, snapshot/state mismatch,
    /// and degraded-mode misuse. Restore never panics on corrupt input.
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
        let (parsed, torn_tail_bytes, tail_error) = if opts.strict {
            let parsed = parse_journal(journal).map_err(RestoreError::Journal)?;
            (parsed, 0, None)
        } else {
            let (parsed, valid, tail_error) =
                read_valid_prefix(journal).map_err(RestoreError::Journal)?;
            (parsed, journal.len() - valid, tail_error)
        };
        let expected_fp = config_fingerprint(&instance, &cfg, &dcfg);
        if parsed.fingerprint != expected_fp {
            return Err(RestoreError::FingerprintMismatch {
                stored: parsed.fingerprint,
                expected: expected_fp,
            });
        }
        let snapshot = match snapshot {
            Some(bytes) => {
                let snap = Snapshot::decode(bytes).map_err(RestoreError::Snapshot)?;
                if snap.fingerprint != expected_fp {
                    return Err(RestoreError::FingerprintMismatch {
                        stored: snap.fingerprint,
                        expected: expected_fp,
                    });
                }
                if snap.lsn > parsed.records.len() as u64 {
                    return Err(RestoreError::JournalBehindSnapshot {
                        lsn: snap.lsn,
                        records: parsed.records.len() as u64,
                    });
                }
                Some(snap)
            }
            None => None,
        };

        // Degraded mode: bolt the outage onto the fault plan as synthetic
        // whole-cluster failures *before* construction (the fault queue is
        // seeded from the plan), after checking it cannot rewrite
        // already-journaled history.
        let mut run_cfg = cfg;
        if let Some(outage) = opts.outage {
            let horizon = parsed
                .records
                .iter()
                .rev()
                .find_map(|r| match *r {
                    JournalRecord::Admit { at, .. }
                    | JournalRecord::Reject { at, .. }
                    | JournalRecord::Event { at }
                    | JournalRecord::Close { at } => Some(at),
                    _ => None,
                })
                .unwrap_or(f64::NEG_INFINITY);
            if outage.at <= horizon {
                return Err(RestoreError::OutageTooEarly {
                    at: outage.at,
                    resumed_at: horizon,
                });
            }
            let mut events = run_cfg.fault_plan.events().to_vec();
            for m in 0..run_cfg.num_machines {
                events.push(FaultEvent {
                    at: outage.at,
                    downtime: outage.downtime,
                    target: FaultTarget::Machine(m),
                });
            }
            run_cfg.fault_plan = FaultPlan::from_events(events);
        }

        let num_jobs = instance.len();
        let mut svc = Service::new(instance, policy, run_cfg, clock, sink)?;
        svc.dur = Some(Box::new(Durability::new(
            dcfg,
            expected_fp,
            DurabilitySink::Verify(ReplayVerifier::new(parsed.records.clone(), snapshot)),
        )));

        // Drive replay: at each step the verifier's cursor points at the
        // next unconsumed record; input records are re-executed (their
        // emissions advance the cursor), derived records are consumed by
        // those emissions. A derived record *at* the cursor means replay
        // failed to produce it — divergence.
        let records = parsed.records;
        let mut clean_shutdown = false;
        loop {
            let (cursor, diverged) = {
                let d = svc.dur.as_ref().expect("verifier attached above");
                match &d.sink {
                    DurabilitySink::Verify(v) => (v.cursor, v.divergence.clone()),
                    DurabilitySink::Journal { .. } => unreachable!("restore uses a verifier"),
                }
            };
            if let Some(err) = diverged {
                return Err(err);
            }
            if cursor >= records.len() {
                break;
            }
            match records[cursor] {
                JournalRecord::Admit { at, job, tenant }
                | JournalRecord::Reject {
                    at, job, tenant, ..
                } => {
                    if job as usize >= num_jobs
                        || !matches!(svc.outcomes[job as usize], JobOutcome::NotSubmitted)
                    {
                        return Err(RestoreError::Divergence {
                            lsn: cursor as u64,
                            detail: format!("journal offers unknown or duplicate job {job}"),
                        });
                    }
                    if tenant as usize >= svc.cfg.tenants.len().max(1) {
                        return Err(RestoreError::Divergence {
                            lsn: cursor as u64,
                            detail: format!("journal names unknown tenant {tenant}"),
                        });
                    }
                    // The decision is re-derived; the emission it triggers
                    // is checked against this very record by the verifier.
                    let _ = svc.replay_admit(at, JobId(job), TenantId(tenant));
                }
                JournalRecord::Event { at } => {
                    svc.replay_event(at)?;
                }
                JournalRecord::Close { .. } => {
                    clean_shutdown = true;
                    if let Some(d) = svc.dur.as_deref_mut() {
                        if let DurabilitySink::Verify(v) = &mut d.sink {
                            v.cursor += 1;
                        }
                    }
                    break;
                }
                ref derived => {
                    return Err(RestoreError::Divergence {
                        lsn: cursor as u64,
                        detail: format!(
                            "replay did not produce derived record {derived:?} the journal holds"
                        ),
                    });
                }
            }
        }

        let resumed_at = svc.kernel.last_event();
        let dur = svc.dur.take().expect("verifier attached above");
        let verifier = match dur.sink {
            DurabilitySink::Verify(v) => v,
            DurabilitySink::Journal { .. } => unreachable!("restore uses a verifier"),
        };
        if let Some(err) = verifier.divergence {
            return Err(err);
        }
        if verifier.cursor < records.len() {
            return Err(RestoreError::Divergence {
                lsn: verifier.cursor as u64,
                detail: "journal holds records after a clean shutdown".to_string(),
            });
        }
        if let Some(snap) = &verifier.snapshot {
            if verifier.snapshot_verified != Some(snap.lsn) {
                return Err(RestoreError::SnapshotUnmatched {
                    lsn: snap.lsn,
                    replayed: verifier.cursor as u64,
                });
            }
        }
        let restore_seconds = started.elapsed().as_secs_f64();
        mris_obs::histogram_record("mris_restore_seconds", restore_seconds);
        Ok((
            svc,
            RestoreReport {
                records: records.len() as u64,
                regenerated: verifier.regenerated,
                torn_tail_bytes,
                tail_error,
                snapshot_verified: verifier.snapshot_verified,
                clean_shutdown,
                resumed_at,
                restore_seconds,
            },
        ))
    }
}
