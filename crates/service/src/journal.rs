//! Write-ahead journal of state-mutating service events.
//!
//! # Format
//!
//! A journal is a 16-byte header followed by frames:
//!
//! ```text
//! header:  magic "MRJL" | version u32 | fingerprint u64
//! frame:   len u32 | crc32(payload) u32 | payload (len bytes)
//! payload: tag u8 | tag-specific fields
//! ```
//!
//! All integers are little-endian; times are IEEE-754 bit patterns (see
//! [`crate::codec`]). The fingerprint hashes the instance, the
//! [`crate::ServiceConfig`], and the [`DurabilityConfig`] so a journal is
//! never replayed against a different world.
//!
//! # Replay model
//!
//! The journal is the *source of truth*: [`crate::Service::restore`]
//! starts from the newest supplied snapshot (or from genesis without one)
//! and replays the input records after it (admissions, rejections, event
//! marks) through the service and policy, which deterministically
//! regenerates every derived record (placements, completions, faults,
//! re-releases). During replay the derived records are *verified* against
//! the journal ([`ReplayVerifier`]) instead of being re-appended — a
//! mismatch is a typed [`RestoreError::Divergence`], so a journal from a
//! different build or a corrupted-but-checksum-valid file can never
//! silently produce a different schedule. A snapshot is the state at its
//! mark (see [`crate::snapshot`]).

use std::io::Write;
use std::ops::ControlFlow;
use std::sync::{Arc, Mutex};

use mris_sim::FaultPlan;
use mris_types::{
    AdmissionError, CodecError, DurabilityError, FaultTarget, Instance, RestartSemantics, Time,
};

use crate::codec::{crc32, fnv64, fnv64_extend, Decoder, Encoder};
use crate::core::ServiceConfig;
use crate::snapshot::{begin_container, seal_container, SnapshotStore, SNAPSHOT_VERSION};

/// Journal file magic bytes.
pub const JOURNAL_MAGIC: [u8; 4] = *b"MRJL";
/// The journal format version this build reads and writes.
///
/// v3 is the format since precedence: `Admit` and `Reject` payloads end
/// with the admitting tenant's id (`u32`), `Reject` has the `TenantQuota`
/// reason (tag 2), and the `PrecedenceReady` record (tag 11) marks a job
/// whose last outstanding predecessor completed while the job was withheld
/// from delivery. A header with any other version is
/// [`CodecError::UnsupportedVersion`]: v1 and v2 journals were only ever
/// written by earlier revisions of this repository, and nothing decodes
/// them any more.
pub const JOURNAL_VERSION: u32 = 3;
/// Upper bound on a single frame's payload; real payloads are < 32 bytes,
/// so anything larger is corruption, caught before allocating.
const MAX_FRAME: u32 = 1 << 16;
/// Bytes a frame adds around its payload: `len: u32` + `crc32: u32`.
const FRAME_OVERHEAD: usize = 8;
/// The shortest frame: the overhead and a tag with one `u32`. Bytes left
/// over it bound the records that can follow.
pub(crate) const MIN_FRAME: usize = FRAME_OVERHEAD + 5;
/// Journal header length in bytes (magic + version + fingerprint).
pub const HEADER_LEN: usize = 16;

/// Why an admission was rejected, as recorded in the journal. Collapses
/// [`mris_types::AdmissionError`] to its variant — the full diagnostic
/// fields are deterministic given replay, so the journal stores only the
/// decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// Queue-depth watermark hit.
    QueueFull,
    /// Resource-load watermark hit.
    LoadShed,
    /// A per-tenant quota or the weighted-fair gate hit.
    TenantQuota,
}

impl RejectReason {
    /// The reason a gate's rejection is journaled under. An invalid offer
    /// is refused before any gate runs, so any other error is a quota's.
    pub(crate) fn of(err: &AdmissionError) -> RejectReason {
        match err {
            AdmissionError::QueueFull { .. } => RejectReason::QueueFull,
            AdmissionError::DemandInfeasible { .. } => RejectReason::LoadShed,
            _ => RejectReason::TenantQuota,
        }
    }
}

/// One durable record. Input records (`Admit`, `Reject`, `Event`, `Close`)
/// drive replay; the rest are derived and serve as the verification trail.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalRecord {
    /// A submission was admitted at `at`.
    Admit {
        /// Admission time.
        at: Time,
        /// The admitted job id.
        job: u32,
        /// The admitting tenant (0 on the single-tenant path).
        tenant: u32,
    },
    /// A submission was rejected at `at`.
    Reject {
        /// Rejection time.
        at: Time,
        /// The rejected job id.
        job: u32,
        /// Which watermark shed it.
        reason: RejectReason,
        /// The submitting tenant (0 on the single-tenant path).
        tenant: u32,
    },
    /// The event loop processed a decision event at `at`.
    Event {
        /// Event time.
        at: Time,
    },
    /// The policy placed `job` on `machine` starting at `start`.
    Place {
        /// Placed job id.
        job: u32,
        /// Target machine.
        machine: u32,
        /// Start time (the event's now).
        start: Time,
    },
    /// `job` ran to completion on `machine`.
    Complete {
        /// Completed job id.
        job: u32,
        /// Machine it ran on.
        machine: u32,
    },
    /// `machine` failed at `at` and will recover at `recover_at`.
    Fail {
        /// Failed machine.
        machine: u32,
        /// Failure instant.
        at: Time,
        /// Scheduled recovery instant.
        recover_at: Time,
    },
    /// `machine` recovered at `at`.
    Recover {
        /// Recovered machine.
        machine: u32,
        /// Recovery instant.
        at: Time,
    },
    /// `job` was killed by a failure and re-released.
    ReRelease {
        /// The re-released job id.
        job: u32,
    },
    /// `job` was released and withheld behind a precedence gate, and its
    /// last outstanding predecessor has now completed: the job re-enters
    /// the delivery queue at this event's time (v3 journals only; derived).
    PrecedenceReady {
        /// The job whose gate opened.
        job: u32,
    },
    /// A snapshot of the full service state was persisted; `lsn` is the
    /// number of records preceding this mark.
    SnapshotMark {
        /// Records written before the mark — the snapshot's identity.
        lsn: u64,
    },
    /// The service drained cleanly at `at`.
    Close {
        /// Drain time.
        at: Time,
    },
}

impl JournalRecord {
    /// Appends the tagged payload encoding (no frame) to `e`.
    pub fn encode(&self, e: &mut Encoder) {
        match *self {
            JournalRecord::Admit { at, job, tenant } => {
                e.u8(1);
                e.f64(at);
                e.u32(job);
                e.u32(tenant);
            }
            JournalRecord::Reject {
                at,
                job,
                reason,
                tenant,
            } => {
                e.u8(2);
                e.f64(at);
                e.u32(job);
                e.u8(match reason {
                    RejectReason::QueueFull => 0,
                    RejectReason::LoadShed => 1,
                    RejectReason::TenantQuota => 2,
                });
                e.u32(tenant);
            }
            JournalRecord::Event { at } => {
                e.u8(3);
                e.f64(at);
            }
            JournalRecord::Place {
                job,
                machine,
                start,
            } => {
                e.u8(4);
                e.u32(job);
                e.u32(machine);
                e.f64(start);
            }
            JournalRecord::Complete { job, machine } => {
                e.u8(5);
                e.u32(job);
                e.u32(machine);
            }
            JournalRecord::Fail {
                machine,
                at,
                recover_at,
            } => {
                e.u8(6);
                e.u32(machine);
                e.f64(at);
                e.f64(recover_at);
            }
            JournalRecord::Recover { machine, at } => {
                e.u8(7);
                e.u32(machine);
                e.f64(at);
            }
            JournalRecord::ReRelease { job } => {
                e.u8(8);
                e.u32(job);
            }
            JournalRecord::PrecedenceReady { job } => {
                e.u8(11);
                e.u32(job);
            }
            JournalRecord::SnapshotMark { lsn } => {
                e.u8(9);
                e.u64(lsn);
            }
            JournalRecord::Close { at } => {
                e.u8(10);
                e.f64(at);
            }
        }
    }

    /// Decodes one tagged payload. `base` is the payload's offset in the
    /// file, for error reporting.
    pub fn decode(payload: &[u8], base: usize) -> Result<JournalRecord, CodecError> {
        let mut d = Decoder::new(payload);
        let tag = d.u8()?;
        let rec = match tag {
            1 => JournalRecord::Admit {
                at: d.f64()?,
                job: d.u32()?,
                tenant: d.u32()?,
            },
            2 => JournalRecord::Reject {
                at: d.f64()?,
                job: d.u32()?,
                reason: match d.u8()? {
                    0 => RejectReason::QueueFull,
                    1 => RejectReason::LoadShed,
                    2 => RejectReason::TenantQuota,
                    other => {
                        return Err(CodecError::Malformed {
                            offset: base + d.offset() - 1,
                            detail: format!("unknown reject reason {other}"),
                        })
                    }
                },
                tenant: d.u32()?,
            },
            3 => JournalRecord::Event { at: d.f64()? },
            4 => JournalRecord::Place {
                job: d.u32()?,
                machine: d.u32()?,
                start: d.f64()?,
            },
            5 => JournalRecord::Complete {
                job: d.u32()?,
                machine: d.u32()?,
            },
            6 => JournalRecord::Fail {
                machine: d.u32()?,
                at: d.f64()?,
                recover_at: d.f64()?,
            },
            7 => JournalRecord::Recover {
                machine: d.u32()?,
                at: d.f64()?,
            },
            8 => JournalRecord::ReRelease { job: d.u32()? },
            9 => JournalRecord::SnapshotMark { lsn: d.u64()? },
            10 => JournalRecord::Close { at: d.f64()? },
            11 => JournalRecord::PrecedenceReady { job: d.u32()? },
            other => {
                return Err(CodecError::Malformed {
                    offset: base,
                    detail: format!("unknown record tag {other}"),
                })
            }
        };
        d.finish().map_err(|e| match e {
            CodecError::Malformed { offset, detail } => CodecError::Malformed {
                offset: base + offset,
                detail,
            },
            other => other,
        })?;
        Ok(rec)
    }
}

/// Durability knobs, part of the journal's configuration fingerprint (the
/// flush and snapshot cadences shape which records group into frames and
/// where snapshot marks land, so replay must run under the same values).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurabilityConfig {
    /// Journal frames are flushed to the writer every `flush_every`
    /// processed events (epoch boundaries). `1` flushes per event — the
    /// strongest guarantee; larger values trade crash-window for
    /// throughput. Admissions between events ride along with the next
    /// event flush.
    pub flush_every: u32,
    /// A full state snapshot is persisted every `snapshot_every` processed
    /// events; `0` disables snapshots (journal-only durability).
    pub snapshot_every: u32,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig {
            flush_every: 1,
            snapshot_every: 0,
        }
    }
}

/// The FNV-1a hash of an encoding fed to it in chunks: the world is
/// encoded into a buffer that is hashed and emptied whenever it holds
/// [`WorldHash::CHUNK`] bytes, so the fingerprint equals the hash of the
/// whole encoding without the encoding ever being whole (5.6 MB for a
/// 100,000-job instance).
struct WorldHash {
    e: Encoder,
    h: u64,
}

impl WorldHash {
    const CHUNK: usize = 4096;

    fn new() -> Self {
        WorldHash {
            e: Encoder::with_capacity(2 * Self::CHUNK),
            h: fnv64(&[]),
        }
    }

    /// Hashes and empties the buffer once it holds a chunk; called between
    /// items, so the buffer never holds more than a chunk and one item.
    fn spill(&mut self) {
        if self.e.len() >= Self::CHUNK {
            self.h = fnv64_extend(self.h, self.e.as_bytes());
            self.e.clear();
        }
    }

    fn finish(self) -> u64 {
        fnv64_extend(self.h, self.e.as_bytes())
    }
}

/// Encodes the world a service run is determined by: the instance and the
/// full service config (fault plan and tenant table included). Shared by
/// the durability fingerprint and the net handshake fingerprint.
fn encode_world(w: &mut WorldHash, instance: &Instance, cfg: &ServiceConfig) {
    w.e.u64(instance.len() as u64);
    w.e.u64(instance.num_resources() as u64);
    for j in instance.jobs() {
        w.e.f64(j.release);
        w.e.f64(j.proc_time);
        w.e.f64(j.weight);
        for &d in j.demands.iter() {
            w.e.u64(d);
        }
        w.spill();
    }
    let e = &mut w.e;
    e.u64(cfg.num_machines as u64);
    e.f64(cfg.epoch);
    e.u64(cfg.queue_watermark as u64);
    e.f64(cfg.load_watermark);
    match cfg.restart {
        RestartSemantics::FullRestart => e.u8(0),
        RestartSemantics::WeightAging { factor } => {
            e.u8(1);
            e.f64(factor);
        }
    }
    encode_fault_plan(w, &cfg.fault_plan);
    // Tenant section only when tenancy is actually in play: a
    // single-tenant config contributes no tenant bytes. The layout is
    // frozen; changing it orphans every existing journal and snapshot.
    if !cfg.tenants.is_empty() || cfg.fair_watermark != usize::MAX {
        w.e.u64(cfg.fair_watermark as u64);
        w.e.u64(cfg.tenants.len() as u64);
        for t in &cfg.tenants {
            w.e.u64(t.name.len() as u64);
            w.e.bytes(t.name.as_bytes());
            w.e.f64(t.weight);
            w.e.u64(t.queue_watermark as u64);
            w.e.f64(t.load_watermark);
            w.spill();
        }
    }
    // Edge section only for DAG instances: an edge-free world contributes
    // no edge bytes (same frozen layout).
    if instance.has_precedence() {
        let edges = instance.edges();
        w.e.u64(edges.len() as u64);
        for &(pred, succ) in edges {
            w.e.u32(pred.0);
            w.e.u32(succ.0);
            w.spill();
        }
    }
}

/// FNV-1a fingerprint binding a journal/snapshot to the exact world it was
/// recorded under: the instance, the service config (including the fault
/// plan and tenant table), and the durability cadences.
pub fn config_fingerprint(
    instance: &Instance,
    cfg: &ServiceConfig,
    dcfg: &DurabilityConfig,
) -> u64 {
    let mut w = WorldHash::new();
    encode_world(&mut w, instance, cfg);
    w.e.u32(dcfg.flush_every);
    w.e.u32(dcfg.snapshot_every);
    w.finish()
}

/// FNV-1a fingerprint of the instance and service config alone (no
/// durability cadences) — what the `mris-net` handshake compares so a
/// client and server agree they are scheduling the same world regardless
/// of the server's journaling setup.
pub fn service_fingerprint(instance: &Instance, cfg: &ServiceConfig) -> u64 {
    let mut w = WorldHash::new();
    encode_world(&mut w, instance, cfg);
    w.finish()
}

fn encode_fault_plan(w: &mut WorldHash, plan: &FaultPlan) {
    w.e.u64(plan.len() as u64);
    for ev in plan.events() {
        w.e.f64(ev.at);
        w.e.f64(ev.downtime);
        match ev.target {
            FaultTarget::Machine(m) => {
                w.e.u8(0);
                w.e.u64(m as u64);
            }
            FaultTarget::Busiest => w.e.u8(1),
        }
        w.spill();
    }
}

/// Buffered frame writer over any `Write` sink.
///
/// Frames accumulate in an in-process buffer and reach the sink only on
/// [`JournalWriter::flush`] (called by the service at its flush cadence and
/// at drain), so the on-disk journal always ends at a frame-group boundary
/// of the configured cadence.
pub struct JournalWriter {
    out: Box<dyn Write + Send>,
    buf: Encoder,
    // Obs counters are batched and published at flush so the per-record
    // hot path stays allocation- and lookup-free.
    pending_appends: u64,
    pending_bytes: u64,
}

impl JournalWriter {
    /// Starts a journal on `out`, buffering the header immediately.
    pub fn new(out: Box<dyn Write + Send>, fingerprint: u64) -> Self {
        let mut e = Encoder::new();
        e.bytes(&JOURNAL_MAGIC);
        e.u32(JOURNAL_VERSION);
        e.u64(fingerprint);
        JournalWriter {
            out,
            buf: e,
            pending_appends: 0,
            pending_bytes: 0,
        }
    }

    /// Buffers one framed record. Allocation-free: the payload is encoded
    /// in place after an 8-byte placeholder, then the frame header (length
    /// and CRC-32) is backpatched over it.
    pub fn append(&mut self, rec: &JournalRecord) {
        let frame_start = self.buf.len();
        self.buf.u32(0); // length placeholder
        self.buf.u32(0); // crc placeholder
        rec.encode(&mut self.buf);
        let payload_len = self.buf.len() - frame_start - FRAME_OVERHEAD;
        let crc = crc32(&self.buf.as_bytes()[frame_start + FRAME_OVERHEAD..]);
        self.buf.patch_u32(frame_start, payload_len as u32);
        self.buf.patch_u32(frame_start + 4, crc);
        self.pending_appends += 1;
        self.pending_bytes += (FRAME_OVERHEAD + payload_len) as u64;
    }

    /// Writes every buffered frame to the sink and flushes it.
    pub fn flush(&mut self) -> std::io::Result<()> {
        if !self.buf.is_empty() {
            self.out.write_all(self.buf.as_bytes())?;
            self.buf.clear();
        }
        self.out.flush()?;
        mris_obs::counter_add("mris_journal_appends_total", self.pending_appends);
        mris_obs::counter_add("mris_journal_bytes_total", self.pending_bytes);
        mris_obs::counter_add("mris_journal_flushes_total", 1);
        self.pending_appends = 0;
        self.pending_bytes = 0;
        Ok(())
    }
}

/// A decoded journal: header fields plus every record in order.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedJournal {
    /// Format version from the header.
    pub version: u32,
    /// Configuration fingerprint from the header.
    pub fingerprint: u64,
    /// All records, in append order.
    pub records: Vec<JournalRecord>,
}

fn parse_frame(d: &mut Decoder<'_>) -> Result<(JournalRecord, usize), CodecError> {
    let frame_start = d.offset();
    // The `len | crc` header in one read: the length is its low half.
    let header = d.u64()?;
    let (len, stored) = (header as u32, (header >> 32) as u32);
    if len == 0 || len > MAX_FRAME {
        return Err(CodecError::Malformed {
            offset: frame_start,
            detail: format!("frame length {len} outside (0, {MAX_FRAME}]"),
        });
    }
    let payload_start = d.offset();
    let payload = d.bytes(len as usize)?;
    let computed = crc32(payload);
    if stored != computed {
        return Err(CodecError::ChecksumMismatch {
            offset: frame_start,
            stored,
            computed,
        });
    }
    let rec = JournalRecord::decode(payload, payload_start)?;
    Ok((rec, d.offset()))
}

/// The one frame loop: after the header, hands each record and the offset
/// past its frame to `visit` until the bytes end, `visit` breaks, or a
/// frame fails to parse. Returns the header's version and fingerprint and
/// that frame's error; a bad header is the outer error.
pub(crate) fn walk_frames(
    bytes: &[u8],
    mut visit: impl FnMut(JournalRecord, usize) -> ControlFlow<()>,
) -> Result<(u32, u64, Option<CodecError>), CodecError> {
    let mut d = Decoder::new(bytes);
    let magic = d.array()?;
    if magic != JOURNAL_MAGIC {
        return Err(CodecError::BadMagic { found: magic });
    }
    let version = d.u32()?;
    if version != JOURNAL_VERSION {
        return Err(CodecError::UnsupportedVersion {
            found: version,
            supported: JOURNAL_VERSION,
        });
    }
    let fingerprint = d.u64()?;
    while d.remaining() > 0 {
        let (rec, end) = match parse_frame(&mut d) {
            Ok(frame) => frame,
            Err(e) => return Ok((version, fingerprint, Some(e))),
        };
        if visit(rec, end).is_break() {
            break;
        }
    }
    Ok((version, fingerprint, None))
}

/// Strictly parses a complete journal: any malformed byte — including a
/// torn tail — is a typed error.
pub fn parse_journal(bytes: &[u8]) -> Result<ParsedJournal, CodecError> {
    match read_valid_prefix(bytes)? {
        (_, _, Some(tail_error)) => Err(tail_error),
        (parsed, _, None) => Ok(parsed),
    }
}

/// Leniently parses the longest valid prefix of a journal, for crash
/// recovery: a torn final frame (the write the crash interrupted) is
/// dropped rather than rejected. Returns the parsed prefix, the number of
/// valid bytes, and the error that terminated the scan (if any). Header
/// corruption is still fatal — without a header nothing can be replayed.
#[allow(clippy::type_complexity)]
pub fn read_valid_prefix(
    bytes: &[u8],
) -> Result<(ParsedJournal, usize, Option<CodecError>), CodecError> {
    let mut records = Vec::new();
    let mut valid = HEADER_LEN;
    let (version, fingerprint, tail_error) = walk_frames(bytes, |rec, end| {
        records.push(rec);
        valid = end;
        ControlFlow::Continue(())
    })?;
    Ok((
        ParsedJournal {
            version,
            fingerprint,
            records,
        },
        valid,
        tail_error,
    ))
}

/// Records in the longest valid prefix of a journal, counted by the one
/// frame walk without holding any of them; header corruption is the
/// error, as in [`read_valid_prefix`].
pub fn count_valid_records(bytes: &[u8]) -> Result<u64, CodecError> {
    let mut records = 0;
    walk_frames(bytes, |_, _| {
        records += 1;
        ControlFlow::Continue(())
    })?;
    Ok(records)
}

/// An in-memory `Write` sink shareable across the service and the test
/// harness — the crash suite's stand-in for a journal file.
#[derive(Debug, Clone, Default)]
pub struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    /// An empty shared buffer.
    pub fn new() -> Self {
        SharedBuf::default()
    }

    /// A copy of everything written (and flushed or not — the buffer has
    /// no separate flush stage) so far.
    pub fn contents(&self) -> Vec<u8> {
        self.0.lock().expect("shared buf lock").clone()
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .expect("shared buf lock")
            .extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Replay-time verifier: instead of appending, every record the restoring
/// service produces is compared against the journal's record at the
/// cursor. It holds only the records replay re-executes or checks — the
/// journal's tail after the restore's starting point, record `base`
/// onwards. Records produced past the journal's end are the regenerated
/// torn tail (counted, not an error). The first mismatch is latched.
pub(crate) struct ReplayVerifier {
    pub(crate) expected: Vec<JournalRecord>,
    /// The LSN of `expected[0]`.
    pub(crate) base: u64,
    pub(crate) cursor: usize,
    pub(crate) regenerated: u64,
    pub(crate) divergence: Option<mris_types::RestoreError>,
}

impl ReplayVerifier {
    pub(crate) fn new(expected: Vec<JournalRecord>, base: u64) -> Self {
        ReplayVerifier {
            expected,
            base,
            cursor: 0,
            regenerated: 0,
            divergence: None,
        }
    }

    /// The LSN of the next unconsumed record.
    pub(crate) fn lsn(&self) -> u64 {
        self.base + self.cursor as u64
    }

    fn check(&mut self, produced: JournalRecord) {
        if self.divergence.is_some() {
            return;
        }
        if self.cursor < self.expected.len() {
            let expected = &self.expected[self.cursor];
            if *expected != produced {
                self.divergence = Some(mris_types::RestoreError::Divergence {
                    lsn: self.lsn(),
                    detail: format!("journal holds {expected:?}, replay produced {produced:?}"),
                });
                return;
            }
            self.cursor += 1;
        } else {
            self.regenerated += 1;
        }
    }
}

/// Where emitted records go: a live journal or the replay verifier.
pub(crate) enum DurabilitySink {
    Journal {
        writer: JournalWriter,
        snapshots: Box<dyn SnapshotStore + Send>,
    },
    Verify(ReplayVerifier),
}

/// The durability state carried by a [`crate::Service`] when a journal is
/// attached (or during restore replay).
pub(crate) struct Durability {
    pub(crate) cfg: DurabilityConfig,
    pub(crate) fingerprint: u64,
    pub(crate) sink: DurabilitySink,
    /// Records emitted so far (the next record's LSN).
    pub(crate) records: u64,
    events_since_flush: u32,
    events_since_snapshot: u32,
    /// Bytes of the last snapshot container written (0 before the first).
    snapshot_len: usize,
    pub(crate) error: Option<DurabilityError>,
}

impl Durability {
    pub(crate) fn new(cfg: DurabilityConfig, fingerprint: u64, sink: DurabilitySink) -> Self {
        Durability {
            cfg,
            fingerprint,
            sink,
            records: 0,
            events_since_flush: 0,
            events_since_snapshot: 0,
            snapshot_len: 0,
            error: None,
        }
    }

    /// Emits one record: appended in journal mode, compared in verify mode.
    pub(crate) fn emit(&mut self, rec: JournalRecord) {
        self.records += 1;
        match &mut self.sink {
            DurabilitySink::Journal { writer, .. } => writer.append(&rec),
            DurabilitySink::Verify(v) => v.check(rec),
        }
    }

    /// Resumes the record and snapshot counters of a replay that starts at
    /// record `lsn` rather than at genesis: just past a snapshot's mark,
    /// at the event boundary the snapshot was taken at.
    pub(crate) fn resume_after_mark(&mut self, lsn: u64) {
        self.records = lsn;
        self.events_since_snapshot = 0;
    }

    /// Whether the next event boundary is a snapshot point.
    fn snapshot_due(&self) -> bool {
        self.cfg.snapshot_every > 0 && self.events_since_snapshot + 1 >= self.cfg.snapshot_every
    }

    /// Event-boundary bookkeeping: the snapshot mark (if due) and flush (at
    /// the flush cadence). Where a snapshot is written, `state` encodes the
    /// service's canonical state bytes straight behind the container
    /// header, into a buffer sized from the previous snapshot, and the
    /// store takes that buffer as it is; replay emits the mark and never
    /// calls `state`.
    pub(crate) fn event_end(&mut self, now: Time, state: impl FnOnce(&mut Encoder)) {
        if self.snapshot_due() {
            self.events_since_snapshot = 0;
            let lsn = self.records;
            self.emit(JournalRecord::SnapshotMark { lsn });
            if let DurabilitySink::Journal { snapshots, .. } = &mut self.sink {
                // An eighth of headroom: the state grows as the run goes on.
                let mut e = Encoder::with_capacity(self.snapshot_len + self.snapshot_len / 8);
                begin_container(&mut e, SNAPSHOT_VERSION, self.fingerprint, lsn, now);
                state(&mut e);
                let started = std::time::Instant::now();
                seal_container(&mut e);
                self.snapshot_len = e.len();
                if let Err(e) = snapshots.put(lsn, e.into_bytes()) {
                    self.error.get_or_insert(e);
                }
                mris_obs::histogram_record(
                    "mris_snapshot_seconds",
                    started.elapsed().as_secs_f64(),
                );
            }
        } else {
            self.events_since_snapshot += 1;
        }
        self.events_since_flush += 1;
        if self.events_since_flush >= self.cfg.flush_every.max(1) {
            self.events_since_flush = 0;
            self.flush();
        }
    }

    /// Flushes the journal writer (no-op in verify mode); IO failures are
    /// latched into [`Durability::error`] rather than crashing the loop.
    pub(crate) fn flush(&mut self) {
        if let DurabilitySink::Journal { writer, .. } = &mut self.sink {
            if let Err(e) = writer.flush() {
                self.error.get_or_insert(DurabilityError::JournalIo {
                    detail: e.to_string(),
                });
            }
        }
    }
}
