//! Snapshot container format and pluggable snapshot stores.
//!
//! A snapshot is a checksummed, version-tagged container around the
//! service's canonical state bytes (committed timelines with compaction
//! watermarks and a frozen layout word, admission ledger, pending fault queue,
//! cluster state, and the policy's durable state — see
//! `Service::encode_durable_state`):
//!
//! ```text
//! magic "MRSN" | version u32 | fingerprint u64 | lsn u64 | at f64
//!             | state_len u32 | crc32(state) u32 | state bytes
//! ```
//!
//! The service writes the state straight behind the header and then
//! backpatches its length and CRC (`begin_container`, `seal_container`),
//! and [`Snapshot::encode`] writes through the same two functions, so
//! there is one container writer and the state is never copied into it.
//!
//! A snapshot is where restore starts: `Service::restore` decodes the
//! state into a fresh service and policy, checks that it re-encodes to
//! the stored bytes, and replays only the journal records after the
//! snapshot's mark. Every durable encoder therefore has an inverse, and the
//! state carries everything the inverses need. A snapshot is also the
//! anchor for degraded journal-loss recovery (`RestoreOptions::outage`).

use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use mris_types::{CodecError, DurabilityError, Time};

use crate::codec::{crc32, Decoder, Encoder};

/// Snapshot file magic bytes.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"MRSN";
/// The one snapshot format version this build reads and writes (DESIGN.md
/// §14 says what each version changed).
pub const SNAPSHOT_VERSION: u32 = 3;

/// One decoded (or to-be-encoded) snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Format version.
    pub version: u32,
    /// Configuration fingerprint (same value as the paired journal's).
    pub fingerprint: u64,
    /// Journal records preceding this snapshot's mark.
    pub lsn: u64,
    /// Service time the snapshot was taken at.
    pub at: Time,
    /// The service's canonical state bytes.
    pub state: Vec<u8>,
}

/// Container bytes before the state: magic, version, fingerprint, lsn,
/// at, state length and CRC.
const CONTAINER_HEADER: usize = 40;

/// Writes a container header whose state length and CRC are placeholders;
/// the caller appends the state bytes right behind it and then calls
/// [`seal_container`]. `e` must be empty: the header sits at offset 0.
pub(crate) fn begin_container(e: &mut Encoder, version: u32, fingerprint: u64, lsn: u64, at: Time) {
    debug_assert!(e.is_empty(), "a container starts its encoder");
    e.bytes(&SNAPSHOT_MAGIC);
    e.u32(version);
    e.u64(fingerprint);
    e.u64(lsn);
    e.f64(at);
    e.u32(0); // state length placeholder
    e.u32(0); // crc placeholder
}

/// Backpatches the state length and CRC of a container that
/// [`begin_container`] opened, over every byte encoded after its header.
pub(crate) fn seal_container(e: &mut Encoder) {
    let state = &e.as_bytes()[CONTAINER_HEADER..];
    let (len, crc) = (state.len() as u32, crc32(state));
    e.patch_u32(CONTAINER_HEADER - 8, len);
    e.patch_u32(CONTAINER_HEADER - 4, crc);
}

/// A checked container whose state bytes are borrowed from the input:
/// what restore reads, without copying the state.
#[derive(Debug)]
pub(crate) struct SnapshotView<'a> {
    pub(crate) fingerprint: u64,
    pub(crate) lsn: u64,
    pub(crate) at: Time,
    pub(crate) state: &'a [u8],
}

impl<'a> SnapshotView<'a> {
    /// Strictly parses a container: bad magic, any version other than
    /// [`SNAPSHOT_VERSION`], short input, trailing bytes, and checksum
    /// mismatches are all typed errors.
    pub(crate) fn parse(bytes: &'a [u8]) -> Result<SnapshotView<'a>, CodecError> {
        let mut d = Decoder::new(bytes);
        let magic = d.array()?;
        if magic != SNAPSHOT_MAGIC {
            return Err(CodecError::BadMagic { found: magic });
        }
        let version = d.u32()?;
        if version != SNAPSHOT_VERSION {
            return Err(CodecError::UnsupportedVersion {
                found: version,
                supported: SNAPSHOT_VERSION,
            });
        }
        let fingerprint = d.u64()?;
        let lsn = d.u64()?;
        let at = d.f64()?;
        let state_len = d.u32()? as usize;
        let stored = d.u32()?;
        let state_offset = d.offset();
        let state = d.bytes(state_len)?;
        d.finish()?;
        let computed = crc32(state);
        if stored != computed {
            return Err(CodecError::ChecksumMismatch {
                offset: state_offset,
                stored,
                computed,
            });
        }
        Ok(SnapshotView {
            fingerprint,
            lsn,
            at,
            state,
        })
    }
}

impl Snapshot {
    /// Encodes the container; encode→decode→encode is byte-identical
    /// (pinned by the codec round-trip suite).
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::with_capacity(CONTAINER_HEADER + self.state.len());
        begin_container(&mut e, self.version, self.fingerprint, self.lsn, self.at);
        e.bytes(&self.state);
        seal_container(&mut e);
        e.into_bytes()
    }

    /// Strictly decodes a container: bad magic, any version other than
    /// [`SNAPSHOT_VERSION`], short input, trailing bytes, and checksum
    /// mismatches are all typed errors.
    pub fn decode(bytes: &[u8]) -> Result<Snapshot, CodecError> {
        let view = SnapshotView::parse(bytes)?;
        Ok(Snapshot {
            version: SNAPSHOT_VERSION,
            fingerprint: view.fingerprint,
            lsn: view.lsn,
            at: view.at,
            state: view.state.to_vec(),
        })
    }
}

/// Where encoded snapshots go.
pub trait SnapshotStore {
    /// Persists one encoded snapshot container, the one taken at journal
    /// record `lsn`. Errors are latched by the durability layer (they
    /// never abort the event loop).
    fn put(&mut self, lsn: u64, bytes: Vec<u8>) -> Result<(), DurabilityError>;
}

/// Discards snapshots (journal-only durability).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSnapshots;

impl SnapshotStore for NullSnapshots {
    fn put(&mut self, _lsn: u64, _bytes: Vec<u8>) -> Result<(), DurabilityError> {
        Ok(())
    }
}

/// Keeps every encoded snapshot in memory behind a shareable handle — the
/// crash suite's store.
#[derive(Debug, Clone, Default)]
pub struct MemorySnapshots(Arc<Mutex<Vec<Vec<u8>>>>);

impl MemorySnapshots {
    /// An empty store.
    pub fn new() -> Self {
        MemorySnapshots::default()
    }

    /// Copies of every snapshot persisted so far, in order.
    pub fn all(&self) -> Vec<Vec<u8>> {
        self.0.lock().expect("snapshot store lock").clone()
    }
}

impl SnapshotStore for MemorySnapshots {
    fn put(&mut self, _lsn: u64, bytes: Vec<u8>) -> Result<(), DurabilityError> {
        self.0.lock().expect("snapshot store lock").push(bytes);
        Ok(())
    }
}

/// Writes each snapshot to `dir/snapshot-<lsn>.bin` (zero-padded so
/// lexicographic order is LSN order). The write goes through a `.tmp`
/// sibling and a rename, so a crash mid-snapshot never leaves a torn file
/// under the canonical name.
#[derive(Debug, Clone)]
pub struct DirSnapshots {
    dir: PathBuf,
}

impl DirSnapshots {
    /// A store rooted at `dir`, created if missing.
    pub fn new(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(DirSnapshots { dir })
    }

    /// Loads the newest snapshot file under `dir` that a journal of
    /// `records` records reaches — one whose LSN is at most `records` — if
    /// any. A crash can tear the journal back past snapshots written
    /// before it; those are skipped, not restored from.
    pub fn latest_within(dir: &Path, records: u64) -> std::io::Result<Option<Vec<u8>>> {
        let mut best: Option<(u64, PathBuf)> = None;
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            let lsn = path
                .file_name()
                .and_then(|n| n.to_str())
                .and_then(|n| n.strip_prefix("snapshot-")?.strip_suffix(".bin"))
                .and_then(|lsn| lsn.parse::<u64>().ok());
            if let Some(lsn) = lsn.filter(|&lsn| lsn <= records) {
                if best.as_ref().is_none_or(|(b, _)| lsn > *b) {
                    best = Some((lsn, path));
                }
            }
        }
        best.map(|(_, path)| std::fs::read(path)).transpose()
    }
}

impl SnapshotStore for DirSnapshots {
    fn put(&mut self, lsn: u64, bytes: Vec<u8>) -> Result<(), DurabilityError> {
        let write = || -> std::io::Result<()> {
            let name = self.dir.join(format!("snapshot-{lsn:012}.bin"));
            let tmp = self.dir.join(format!("snapshot-{lsn:012}.bin.tmp"));
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.flush()?;
            std::fs::rename(&tmp, &name)
        };
        write().map_err(|e| DurabilityError::SnapshotIo {
            detail: e.to_string(),
        })
    }
}
