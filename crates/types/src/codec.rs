//! The primitive byte codec every durable format is built from, and the
//! one shape of a durable value's codec, [`Codec`].
//!
//! Integers are little-endian and `f64`s their IEEE-754 bits, so
//! encode→decode→encode is byte-identical. Every durable format reads
//! through one [`Decoder`], so every short or impossible read is the same
//! typed [`CodecError`]. Each value a snapshot holds has one [`Codec`]
//! impl next to its type, which the wire calls too where it carries the
//! value; `crates/service/tests/codec_laws.rs` holds each
//! to its laws on the states of seeded runs: a decoded value re-encodes to
//! its bytes, every single-byte flip and every cut is a typed error or a
//! value that re-encodes to exactly the damaged bytes, and nothing panics.

use crate::{AdmissionError, CodecError, JobId, Schedule, TenantId, TenantQuotaKind};

/// Append-only primitive encoder over a byte buffer. Its appends are
/// `#[inline]`: the codecs of other crates (`FaultLog`'s, the durable
/// states, the wire) write through them once per field, so a call each
/// would cost more than the append.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// A fresh empty encoder.
    pub fn new() -> Self {
        Encoder::default()
    }

    /// An empty encoder with room for `capacity` bytes, for an encoding
    /// whose size is known or estimated ahead.
    pub fn with_capacity(capacity: usize) -> Self {
        Encoder {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// Consumes the encoder and returns the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// The bytes encoded so far, without consuming the encoder.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Empties the encoder, keeping its allocation for reuse on hot paths.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Overwrites 4 bytes at `offset` with `v`, little-endian — for
    /// backpatching a frame header after its payload is encoded in place.
    ///
    /// # Panics
    ///
    /// If `offset + 4` exceeds the encoded length.
    pub fn patch_u32(&mut self, offset: usize, v: u32) {
        self.buf[offset..offset + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// Bytes encoded so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been encoded yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends one byte.
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32`, little-endian.
    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern, little-endian.
    #[inline]
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends raw bytes without a length prefix (caller frames them).
    #[inline]
    pub fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }
}

/// Cursor-based primitive decoder; every read is bounds-checked and returns
/// a typed [`CodecError`] instead of panicking. Its reads are `#[inline]`,
/// as the [`Encoder`]'s appends are: restore decodes a journal frame and
/// every per-job field of a snapshot through them, so a call each would
/// cost more than the read. A fixed-width read is one bounds check on the
/// bytes left ([`Decoder::array`]).
#[derive(Debug)]
pub struct Decoder<'a> {
    /// The bytes not yet read.
    rest: &'a [u8],
    /// The whole input's length: the offset is what `rest` lacks of it.
    len: usize,
}

impl<'a> Decoder<'a> {
    /// A decoder over `buf` starting at offset 0.
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder {
            rest: buf,
            len: buf.len(),
        }
    }

    /// Current byte offset (for error reporting and frame accounting).
    #[inline]
    pub fn offset(&self) -> usize {
        self.len - self.rest.len()
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// The error of a read of `needed` bytes at the cursor, which is not
    /// moved.
    #[cold]
    fn truncated(&self, needed: usize) -> CodecError {
        CodecError::Truncated {
            offset: self.offset(),
            needed,
            remaining: self.remaining(),
        }
    }

    /// Reads exactly `N` raw bytes, as an array.
    #[inline]
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let Some((head, rest)) = self.rest.split_first_chunk::<N>() else {
            return Err(self.truncated(N));
        };
        self.rest = rest;
        Ok(*head)
    }

    /// Reads one byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        let [b] = self.array()?;
        Ok(b)
    }

    /// Reads a little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Reads an `f64` from its IEEE-754 bit pattern.
    #[inline]
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads exactly `n` raw bytes.
    #[inline]
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let Some((head, rest)) = self.rest.split_at_checked(n) else {
            return Err(self.truncated(n));
        };
        self.rest = rest;
        Ok(head)
    }

    /// Decodes `n` values with `read` into a vector allocated once for all
    /// of them. `n` must be a size the caller already trusts: one of its
    /// own dimensions, or a count [`Decoder::count`] has bounded by the
    /// bytes left, so that a corrupt count cannot allocate past the input.
    #[inline]
    pub fn vec<T>(
        &mut self,
        n: usize,
        mut read: impl FnMut(&mut Self) -> Result<T, CodecError>,
    ) -> Result<Vec<T>, CodecError> {
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(read(self)?);
        }
        Ok(v)
    }

    /// Reads a `u8` that must be `0` or `1`.
    #[inline]
    pub fn bool(&mut self) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(self.malformed_at(
                self.offset() - 1,
                format!("flag byte {other} is not 0 or 1"),
            )),
        }
    }

    /// Reads a `u64` element count and checks that `count` elements of at
    /// least `min_bytes` bytes each can still follow, so a corrupt count is
    /// a typed error before anything is allocated for it.
    #[inline]
    pub fn count(&mut self, min_bytes: usize) -> Result<usize, CodecError> {
        let at = self.offset();
        let count = self.u64()?;
        let fits = usize::try_from(count)
            .ok()
            .and_then(|c| c.checked_mul(min_bytes.max(1)))
            .is_some_and(|bytes| bytes <= self.remaining());
        if !fits {
            return Err(self.malformed_at(
                at,
                format!("count {count} exceeds the {} bytes left", self.remaining()),
            ));
        }
        Ok(count as usize)
    }

    /// Reads a `u64` count that must equal `expected` — a dimension the
    /// decoder already knows from its own configuration.
    #[inline]
    pub fn expect_count(&mut self, expected: usize, what: &str) -> Result<(), CodecError> {
        let at = self.offset();
        let found = self.u64()?;
        if found != expected as u64 {
            return Err(self.malformed_at(at, format!("{what} is {found}, expected {expected}")));
        }
        Ok(())
    }

    /// Reads a `u32` job id that must index `seen` (one flag per job of
    /// the instance) and not be marked there yet; marks it. Durable states
    /// hold each job at most once, so this is how their decoders read ids.
    #[inline]
    pub fn unique_job(&mut self, seen: &mut [bool]) -> Result<JobId, CodecError> {
        let at = self.offset();
        let job = self.job(seen.len())?;
        if std::mem::replace(&mut seen[job.index()], true) {
            return Err(self.malformed_at(at, format!("job {} is held twice", job.0)));
        }
        Ok(job)
    }

    /// Reads a `u32` job id that must be below `jobs`.
    #[inline]
    pub fn job(&mut self, jobs: usize) -> Result<JobId, CodecError> {
        let at = self.offset();
        let j = self.u32()?;
        if j as usize >= jobs {
            return Err(self.malformed_at(at, format!("job {j} is out of range")));
        }
        Ok(JobId(j))
    }

    /// Reads a `u64` machine index that must be below `machines`.
    #[inline]
    pub fn machine(&mut self, machines: usize) -> Result<usize, CodecError> {
        let at = self.offset();
        let m = self.u64()?;
        if m >= machines as u64 {
            return Err(self.malformed_at(at, format!("machine {m} is out of range")));
        }
        Ok(m as usize)
    }

    /// A [`CodecError::Malformed`] at the current offset.
    #[cold]
    pub fn malformed(&self, detail: impl Into<String>) -> CodecError {
        self.malformed_at(self.offset(), detail)
    }

    #[cold]
    fn malformed_at(&self, offset: usize, detail: impl Into<String>) -> CodecError {
        CodecError::Malformed {
            offset,
            detail: detail.into(),
        }
    }

    /// Asserts the input is fully consumed (strict container parsing).
    #[inline]
    pub fn finish(self) -> Result<(), CodecError> {
        if self.remaining() != 0 {
            return Err(self.malformed(format!(
                "{} trailing bytes after the last field",
                self.remaining()
            )));
        }
        Ok(())
    }
}

impl AdmissionError {
    /// Appends the error: a tag byte, then its fields. The tags are 1
    /// (queue full), 2 (demand infeasible), 5 (tenant quota, then a kind
    /// byte: 0 queue depth, 1 queued demand, 2 fair share) and 6–8 (the
    /// invalid offers). 0, 3 and 4 are left to the ledger outcomes that are
    /// not rejections, which share the tag byte (`mris_service::JobOutcome`).
    pub fn encode(&self, e: &mut Encoder) {
        match *self {
            AdmissionError::QueueFull { depth, watermark } => {
                e.u8(1);
                e.u64(depth as u64);
                e.u64(watermark as u64);
            }
            AdmissionError::DemandInfeasible {
                job,
                resource,
                queued,
                budget,
            } => {
                e.u8(2);
                e.u32(job.0);
                e.u64(resource as u64);
                e.f64(queued);
                e.f64(budget);
            }
            AdmissionError::TenantQuota { tenant, kind } => {
                e.u8(5);
                e.u32(tenant.0);
                match kind {
                    TenantQuotaKind::QueueDepth { depth, watermark } => {
                        e.u8(0);
                        e.u64(depth as u64);
                        e.u64(watermark as u64);
                    }
                    TenantQuotaKind::QueuedDemand { queued, budget } => {
                        e.u8(1);
                        e.f64(queued);
                        e.f64(budget);
                    }
                    TenantQuotaKind::FairShare { deficit, cost } => {
                        e.u8(2);
                        e.u64(deficit);
                        e.u64(cost);
                    }
                }
            }
            AdmissionError::UnknownJob { job, jobs } => {
                e.u8(6);
                e.u32(job.0);
                e.u64(jobs as u64);
            }
            AdmissionError::AlreadySubmitted { job } => {
                e.u8(7);
                e.u32(job.0);
            }
            AdmissionError::UnknownTenant { tenant, tenants } => {
                e.u8(8);
                e.u32(tenant.0);
                e.u64(tenants as u64);
            }
        }
    }

    /// The inverse of [`AdmissionError::encode`], once its tag byte `tag`
    /// has been read.
    pub fn decode_tagged(tag: u8, d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(match tag {
            1 => AdmissionError::QueueFull {
                depth: d.u64()? as usize,
                watermark: d.u64()? as usize,
            },
            2 => AdmissionError::DemandInfeasible {
                job: JobId(d.u32()?),
                resource: d.u64()? as usize,
                queued: d.f64()?,
                budget: d.f64()?,
            },
            5 => {
                let tenant = TenantId(d.u32()?);
                let kind = match d.u8()? {
                    0 => TenantQuotaKind::QueueDepth {
                        depth: d.u64()? as usize,
                        watermark: d.u64()? as usize,
                    },
                    1 => TenantQuotaKind::QueuedDemand {
                        queued: d.f64()?,
                        budget: d.f64()?,
                    },
                    2 => TenantQuotaKind::FairShare {
                        deficit: d.u64()?,
                        cost: d.u64()?,
                    },
                    other => return Err(d.malformed(format!("unknown tenant quota kind {other}"))),
                };
                AdmissionError::TenantQuota { tenant, kind }
            }
            6 => AdmissionError::UnknownJob {
                job: JobId(d.u32()?),
                jobs: d.u64()? as usize,
            },
            7 => AdmissionError::AlreadySubmitted {
                job: JobId(d.u32()?),
            },
            8 => AdmissionError::UnknownTenant {
                tenant: TenantId(d.u32()?),
                tenants: d.u64()? as usize,
            },
            other => return Err(d.malformed(format!("unknown admission error tag {other}"))),
        })
    }
}

/// One durable value's encoder and decoder. `decode` builds a new value
/// from the bytes `encode` wrote, checking them against `Context` — the
/// counts, instance or cluster they must agree with — so that a value it
/// returns is one the code that owns the type could have built.
pub trait Codec: Sized {
    /// What the decoder checks the bytes against.
    type Context<'a>;

    /// Appends the value's canonical encoding.
    fn encode(&self, e: &mut Encoder);

    /// The inverse of [`Codec::encode`].
    fn decode(d: &mut Decoder<'_>, cx: Self::Context<'_>) -> Result<Self, CodecError>;
}

/// Per job, in id order, a presence byte and, when the job is placed, its
/// machine (`u32`) and start. The context is `(jobs, machines)`; neither
/// count is written, and every placement must name one of the machines.
impl Codec for Schedule {
    type Context<'a> = (usize, usize);

    fn encode(&self, e: &mut Encoder) {
        for i in 0..self.num_jobs() {
            match self.get(JobId(i as u32)) {
                Some(a) => {
                    e.u8(1);
                    e.u32(a.machine as u32);
                    e.f64(a.start);
                }
                None => e.u8(0),
            }
        }
    }

    fn decode(d: &mut Decoder<'_>, (jobs, machines): (usize, usize)) -> Result<Self, CodecError> {
        let mut schedule = Schedule::new(jobs, machines);
        for i in 0..jobs {
            if d.bool()? {
                let (machine, start) = (d.u32()? as usize, d.f64()?);
                schedule
                    .assign(JobId(i as u32), machine, start)
                    .map_err(|e| d.malformed(e.to_string()))?;
            }
        }
        Ok(schedule)
    }
}
