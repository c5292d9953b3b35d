//! The MRNP wire protocol: handshake and framed request/response codec.
//!
//! # Frame format
//!
//! Every message after the handshake travels in the journal's frame
//! format — `len: u32 | crc32: u32 | payload` (little-endian, CRC-32/IEEE
//! over the payload) — reusing [`mris_service::Encoder`] /
//! [`mris_service::Decoder`] so the service and the network speak one
//! codec. A frame whose checksum does not match is a typed
//! [`CodecError::ChecksumMismatch`]; a payload over [`MAX_FRAME_LEN`] is
//! refused by the writer as by the reader; decoding never panics on
//! corrupt bytes (the fuzz suite in `tests/net_conservativity.rs` pins
//! this).
//!
//! # Payloads
//!
//! A payload is a tag byte and the message's fields. Every count is a
//! `u64` read through [`Decoder::count`], so a count the remaining bytes
//! cannot back is a typed error before anything is allocated. The values a
//! snapshot also carries cross the wire in the snapshot's own encoding,
//! through the one codec next to each type: admission verdicts and
//! rejections are [`AdmissionError::encode`] (`0` for an admitted offer),
//! ledger outcomes [`JobOutcome::encode`], and a drained report carries
//! its outcome count, its machine count, then [`Schedule::encode`] and
//! [`FaultLog::encode`]. Decoding a report therefore checks what restoring
//! a snapshot checks: every job and machine the fault log names is in
//! range, and each job's kill count is the number of failures that list
//! it.
//!
//! # Handshake
//!
//! The client opens with `magic "MRNP" | version: u32 | expected
//! fingerprint: u64 | token length: u32 | token bytes`. An expected
//! fingerprint of `0` skips the check; otherwise the server refuses the
//! connection unless it equals [`mris_service::service_fingerprint`] of
//! the served instance and configuration — two processes that would
//! replay different worlds can never talk past each other. The server
//! replies `magic | version | status: u8 | tenant: u32 | server
//! fingerprint: u64 | detail length: u32 | detail bytes`. The token
//! authenticates the connection to a tenant: with no tenants configured
//! every token maps to tenant 0; with tenants configured the token must
//! match a [`mris_service::TenantSpec::token`] exactly.
//!
//! # Floats
//!
//! Every `f64` travels as its IEEE-754 bit pattern, so AWCT and schedule
//! times survive the wire bit-identically — the TCP ≡ in-process
//! conservativity property is checked on bits, not on epsilons.

use std::io::{IoSlice, Read, Write};

use mris_service::{
    crc32, Decoder, Encoder, JobOutcome, ServiceReport, ServiceSummary, TenantStat,
};
use mris_sim::FaultLog;
use mris_types::{AdmissionError, Codec, CodecError, NetError, Schedule, Time};

/// Magic bytes opening both directions of the handshake.
pub const NET_MAGIC: [u8; 4] = *b"MRNP";

/// Wire-protocol version. Bump on any frame-layout change; the server
/// refuses mismatched clients during the handshake (status
/// [`HandshakeStatus::VersionMismatch`]) rather than misparsing frames.
pub const NET_VERSION: u32 = 2;

/// Upper bound on a single frame's payload, to keep a corrupt or hostile
/// length field from provoking an unbounded allocation.
pub const MAX_FRAME_LEN: u32 = 64 * 1024 * 1024;

/// How the server answered the handshake.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HandshakeStatus {
    /// Connection accepted; the tenant id in the reply is authoritative.
    Ok,
    /// The token matched no configured tenant.
    AuthFailed,
    /// The client's expected fingerprint differs from the served world.
    FingerprintMismatch,
    /// The client speaks a different [`NET_VERSION`].
    VersionMismatch,
}

impl HandshakeStatus {
    fn to_u8(self) -> u8 {
        match self {
            HandshakeStatus::Ok => 0,
            HandshakeStatus::AuthFailed => 1,
            HandshakeStatus::FingerprintMismatch => 2,
            HandshakeStatus::VersionMismatch => 3,
        }
    }

    fn from_u8(v: u8) -> Result<Self, NetError> {
        Ok(match v {
            0 => HandshakeStatus::Ok,
            1 => HandshakeStatus::AuthFailed,
            2 => HandshakeStatus::FingerprintMismatch,
            3 => HandshakeStatus::VersionMismatch,
            other => {
                return Err(NetError::UnexpectedResponse {
                    detail: format!("unknown handshake status {other}"),
                })
            }
        })
    }
}

/// What the client sends first on a fresh connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hello {
    /// Client's [`NET_VERSION`].
    pub version: u32,
    /// Expected configuration fingerprint; `0` skips the check.
    pub expected_fingerprint: u64,
    /// Tenant token (ignored when the server runs single-tenant).
    pub token: String,
}

/// The server's answer to a [`Hello`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HelloReply {
    /// Accept/refuse verdict.
    pub status: HandshakeStatus,
    /// The tenant the connection authenticated to (0 single-tenant).
    pub tenant: u32,
    /// The server's [`mris_service::service_fingerprint`].
    pub fingerprint: u64,
    /// Human-readable refusal detail (empty on [`HandshakeStatus::Ok`]).
    pub detail: String,
}

/// One client request. `Submit { at: Some(t) }` offers the job at service
/// time `t` exactly like [`mris_service::Service::submit_at`], so a
/// single-connection TCP run replays the same admission sequence as the
/// in-process driver; `at: None` offers at the service clock's now.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Offer one job to the admission controller.
    Submit {
        /// Job id into the served instance.
        job: u32,
        /// Service time of the offer (`None` = clock now).
        at: Option<Time>,
    },
    /// Offer several jobs in order, one round trip.
    SubmitBatch {
        /// `(job, at)` pairs, applied in order.
        jobs: Vec<(u32, Option<Time>)>,
    },
    /// Ask for one job's ledger outcome.
    Query {
        /// Job id into the served instance.
        job: u32,
    },
    /// Ask for the mid-run counters.
    Stats,
    /// Turn this connection into a telemetry stream: the server pushes a
    /// [`Response::Telemetry`] frame per decision epoch until drain.
    Subscribe,
    /// Drain the service and return the full [`ServiceReport`]. Ends the
    /// serve loop; subsequent requests on any connection fail.
    Drain,
}

/// Mid-run counters answered to [`Request::Stats`].
#[derive(Debug, Clone, PartialEq)]
pub struct NetStats {
    /// Service time at the stats snapshot.
    pub now: Time,
    /// Jobs admitted and not yet delivered to the policy.
    pub queue_depth: u64,
    /// Ledger counts: jobs offered so far.
    pub submitted: u64,
    /// Ledger counts: offers admitted (queued, running, or completed).
    pub accepted: u64,
    /// Ledger counts: offers shed by admission control.
    pub rejected: u64,
    /// Ledger counts: jobs run to completion.
    pub completed: u64,
    /// Per-tenant accounting (empty single-tenant).
    pub tenants: Vec<TenantStat>,
}

/// One server response (or push, for subscribed connections).
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The request could not be served (unknown job, drained server, ...).
    Error {
        /// Human-readable reason.
        detail: String,
    },
    /// Admission verdict for [`Request::Submit`]. A rejection is normal
    /// operation recorded in the ledger, not a transport error.
    Submitted {
        /// The admission decision.
        result: Result<(), AdmissionError>,
    },
    /// Admission verdicts for [`Request::SubmitBatch`], in offer order.
    BatchSubmitted {
        /// One verdict per offered job.
        results: Vec<Result<(), AdmissionError>>,
    },
    /// Ledger outcome for [`Request::Query`].
    JobStatus {
        /// The job's current outcome.
        outcome: JobOutcome,
    },
    /// Counters for [`Request::Stats`].
    StatsReply(NetStats),
    /// The connection is now a telemetry stream.
    Subscribed,
    /// One telemetry push: the epoch record's JSONL line.
    Telemetry {
        /// The JSON line, exactly as a [`mris_service::JsonlSink`] would
        /// write it.
        line: String,
    },
    /// The drained [`ServiceReport`], transported bit-identically.
    Drained(Box<ServiceReport>),
}

// ---------------------------------------------------------------------------
// Frame transport
// ---------------------------------------------------------------------------

/// Bytes of the `len | crc` header in front of every frame's payload.
const FRAME_HEADER_LEN: usize = 8;

/// Writes `payload` as one `len | crc | payload` frame. Header and payload
/// leave in one vectored write — one syscall per frame on a socket, and a
/// large payload is never copied behind its header; whatever a short write
/// leaves over follows with `write_all`. A payload longer than
/// [`MAX_FRAME_LEN`], which [`read_frame`] would refuse, is refused here
/// before any byte is written.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> Result<(), NetError> {
    if payload.len() > MAX_FRAME_LEN as usize {
        return Err(NetError::FrameTooLarge {
            len: payload.len() as u64,
            cap: MAX_FRAME_LEN,
        });
    }
    let mut head = [0u8; FRAME_HEADER_LEN];
    head[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    head[4..].copy_from_slice(&crc32(payload).to_le_bytes());
    let mut sent = 0usize;
    while sent < FRAME_HEADER_LEN {
        match w.write_vectored(&[IoSlice::new(&head[sent..]), IoSlice::new(payload)]) {
            Ok(0) => return Err(io_err(std::io::ErrorKind::WriteZero.into())),
            Ok(n) => sent += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(io_err(e)),
        }
    }
    w.write_all(&payload[sent - FRAME_HEADER_LEN..])
        .map_err(io_err)?;
    w.flush().map_err(io_err)?;
    mris_obs::counter_add("mris_net_frames_tx_total", 1);
    mris_obs::counter_add("mris_net_bytes_tx_total", (payload.len() + 8) as u64);
    Ok(())
}

/// Reads one frame and returns its checksum-verified payload. A cleanly
/// closed stream before the first header byte is [`NetError::Closed`];
/// every other short read or corruption is typed.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Vec<u8>, NetError> {
    let mut head = [0u8; FRAME_HEADER_LEN];
    read_exact_or_closed(r, &mut head)?;
    let mut d = Decoder::new(&head);
    let len = d.u32().expect("8-byte header holds two u32s");
    let stored = d.u32().expect("8-byte header holds two u32s");
    if len > MAX_FRAME_LEN {
        return Err(NetError::Codec(CodecError::Malformed {
            offset: 0,
            detail: format!("frame length {len} exceeds cap {MAX_FRAME_LEN}"),
        }));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload).map_err(io_err)?;
    let computed = crc32(&payload);
    if computed != stored {
        return Err(NetError::Codec(CodecError::ChecksumMismatch {
            offset: 8,
            stored,
            computed,
        }));
    }
    mris_obs::counter_add("mris_net_frames_rx_total", 1);
    mris_obs::counter_add("mris_net_bytes_rx_total", (payload.len() + 8) as u64);
    Ok(payload)
}

fn io_err(e: std::io::Error) -> NetError {
    NetError::Io {
        detail: e.to_string(),
    }
}

/// `read_exact` that maps EOF-before-the-first-byte to
/// [`NetError::Closed`] (a clean hangup between messages) and EOF
/// mid-buffer to a typed [`NetError::Io`] (a torn message).
fn read_exact_or_closed<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<(), NetError> {
    let mut got = 0usize;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => {
                return Err(if got == 0 {
                    NetError::Closed
                } else {
                    NetError::Io {
                        detail: format!("connection closed mid-message after {got} bytes"),
                    }
                })
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(io_err(e)),
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Handshake codec
// ---------------------------------------------------------------------------

impl Hello {
    /// Serializes the client half of the handshake.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.bytes(&NET_MAGIC);
        e.u32(self.version);
        e.u64(self.expected_fingerprint);
        e.u32(self.token.len() as u32);
        e.bytes(self.token.as_bytes());
        e.into_bytes()
    }

    /// Writes the hello directly to the stream (not framed — it is the
    /// first bytes on the wire and self-describing).
    pub fn write_to<W: Write>(&self, w: &mut W) -> Result<(), NetError> {
        w.write_all(&self.encode()).map_err(io_err)?;
        w.flush().map_err(io_err)
    }

    /// Reads and validates a hello from the stream.
    pub fn read_from<R: Read>(r: &mut R) -> Result<Self, NetError> {
        let mut magic = [0u8; 4];
        read_exact_or_closed(r, &mut magic)?;
        if magic != NET_MAGIC {
            return Err(NetError::Codec(CodecError::BadMagic { found: magic }));
        }
        let mut fixed = [0u8; 16];
        r.read_exact(&mut fixed).map_err(io_err)?;
        let mut d = Decoder::new(&fixed);
        let version = d.u32().expect("fixed slice");
        let expected_fingerprint = d.u64().expect("fixed slice");
        let token_len = d.u32().expect("fixed slice");
        if token_len > 4096 {
            return Err(NetError::Codec(CodecError::Malformed {
                offset: 16,
                detail: format!("token length {token_len} exceeds cap 4096"),
            }));
        }
        let mut token = vec![0u8; token_len as usize];
        r.read_exact(&mut token).map_err(io_err)?;
        let token = String::from_utf8(token).map_err(|_| {
            NetError::Codec(CodecError::Malformed {
                offset: 20,
                detail: "token is not UTF-8".to_string(),
            })
        })?;
        Ok(Hello {
            version,
            expected_fingerprint,
            token,
        })
    }
}

impl HelloReply {
    /// Serializes the server half of the handshake.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.bytes(&NET_MAGIC);
        e.u32(NET_VERSION);
        e.u8(self.status.to_u8());
        e.u32(self.tenant);
        e.u64(self.fingerprint);
        e.u32(self.detail.len() as u32);
        e.bytes(self.detail.as_bytes());
        e.into_bytes()
    }

    /// Writes the reply directly to the stream.
    pub fn write_to<W: Write>(&self, w: &mut W) -> Result<(), NetError> {
        w.write_all(&self.encode()).map_err(io_err)?;
        w.flush().map_err(io_err)
    }

    /// Reads and validates a reply from the stream.
    pub fn read_from<R: Read>(r: &mut R) -> Result<Self, NetError> {
        let mut magic = [0u8; 4];
        read_exact_or_closed(r, &mut magic)?;
        if magic != NET_MAGIC {
            return Err(NetError::Codec(CodecError::BadMagic { found: magic }));
        }
        let mut fixed = [0u8; 21];
        r.read_exact(&mut fixed).map_err(io_err)?;
        let mut d = Decoder::new(&fixed);
        let _version = d.u32().expect("fixed slice");
        let status = HandshakeStatus::from_u8(d.u8().expect("fixed slice"))?;
        let tenant = d.u32().expect("fixed slice");
        let fingerprint = d.u64().expect("fixed slice");
        let detail_len = d.u32().expect("fixed slice");
        if detail_len > 4096 {
            return Err(NetError::Codec(CodecError::Malformed {
                offset: 25,
                detail: format!("detail length {detail_len} exceeds cap 4096"),
            }));
        }
        let mut detail = vec![0u8; detail_len as usize];
        r.read_exact(&mut detail).map_err(io_err)?;
        let detail = String::from_utf8_lossy(&detail).into_owned();
        Ok(HelloReply {
            status,
            tenant,
            fingerprint,
            detail,
        })
    }
}

// ---------------------------------------------------------------------------
// Request / Response payload codec
// ---------------------------------------------------------------------------

fn encode_opt_time(e: &mut Encoder, at: Option<Time>) {
    e.u8(at.is_some() as u8);
    if let Some(t) = at {
        e.f64(t);
    }
}

fn decode_opt_time(d: &mut Decoder) -> Result<Option<Time>, CodecError> {
    Ok(if d.bool()? { Some(d.f64()?) } else { None })
}

impl Request {
    /// Serializes the request to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        match self {
            Request::Submit { job, at } => {
                e.u8(1);
                e.u32(*job);
                encode_opt_time(&mut e, *at);
            }
            Request::SubmitBatch { jobs } => {
                e.u8(2);
                e.u64(jobs.len() as u64);
                for (job, at) in jobs {
                    e.u32(*job);
                    encode_opt_time(&mut e, *at);
                }
            }
            Request::Query { job } => {
                e.u8(3);
                e.u32(*job);
            }
            Request::Stats => e.u8(4),
            Request::Subscribe => e.u8(5),
            Request::Drain => e.u8(6),
        }
        e.into_bytes()
    }

    /// Parses a frame payload; trailing bytes are malformed.
    pub fn decode(payload: &[u8]) -> Result<Self, CodecError> {
        let mut d = Decoder::new(payload);
        let req = match d.u8()? {
            1 => Request::Submit {
                job: d.u32()?,
                at: decode_opt_time(&mut d)?,
            },
            2 => {
                let n = d.count(5)?;
                let mut jobs = Vec::with_capacity(n);
                for _ in 0..n {
                    let job = d.u32()?;
                    jobs.push((job, decode_opt_time(&mut d)?));
                }
                Request::SubmitBatch { jobs }
            }
            3 => Request::Query { job: d.u32()? },
            4 => Request::Stats,
            5 => Request::Subscribe,
            6 => Request::Drain,
            other => return Err(d.malformed(format!("request tag {other}"))),
        };
        d.finish()?;
        Ok(req)
    }
}

/// An admission verdict: `0` admitted, or the [`AdmissionError`] (whose
/// tags are never 0).
fn encode_verdict(e: &mut Encoder, r: &Result<(), AdmissionError>) {
    match r {
        Ok(()) => e.u8(0),
        Err(err) => err.encode(e),
    }
}

fn decode_verdict(d: &mut Decoder) -> Result<Result<(), AdmissionError>, CodecError> {
    match d.u8()? {
        0 => Ok(Ok(())),
        tag => Ok(Err(AdmissionError::decode_tagged(tag, d)?)),
    }
}

fn encode_string(e: &mut Encoder, s: &str) {
    e.u64(s.len() as u64);
    e.bytes(s.as_bytes());
}

fn decode_string(d: &mut Decoder) -> Result<String, CodecError> {
    let n = d.count(1)?;
    Ok(String::from_utf8_lossy(d.bytes(n)?).into_owned())
}

fn encode_tenant_stats(e: &mut Encoder, tenants: &[TenantStat]) {
    e.u64(tenants.len() as u64);
    for t in tenants {
        encode_string(e, &t.name);
        e.f64(t.weight);
        e.u64(t.admitted);
        e.u64(t.rejected);
        e.u64(t.admitted_cost);
    }
}

fn decode_tenant_stats(d: &mut Decoder) -> Result<Vec<TenantStat>, CodecError> {
    // A name's length prefix and four 8-byte fields.
    let n = d.count(40)?;
    let mut tenants = Vec::with_capacity(n);
    for _ in 0..n {
        tenants.push(TenantStat {
            name: decode_string(d)?,
            weight: d.f64()?,
            admitted: d.u64()?,
            rejected: d.u64()?,
            admitted_cost: d.u64()?,
        });
    }
    Ok(tenants)
}

/// The report: the summary, the outcome count and outcomes, the machine
/// count, then the schedule and the fault log exactly as a snapshot holds
/// them, then the tenants.
fn encode_report(e: &mut Encoder, r: &ServiceReport) {
    let s = &r.summary;
    e.u64(s.submitted as u64);
    e.u64(s.accepted as u64);
    e.u64(s.rejected_queue_full as u64);
    e.u64(s.rejected_infeasible as u64);
    e.u64(s.completed as u64);
    e.u64(s.epochs as u64);
    e.u64(s.max_queue_depth as u64);
    e.u64(s.failures as u64);
    e.f64(s.awct);
    e.f64(s.makespan);
    e.f64(s.drained_at);
    e.f64(s.wall_seconds);
    e.f64(s.throughput_jobs_per_sec);
    e.u8(s.decision_latency_us.is_some() as u8);
    if let Some(p) = &s.decision_latency_us {
        e.f64(p.p50);
        e.f64(p.p95);
        e.f64(p.p99);
    }
    e.u64(r.outcomes.len() as u64);
    for o in &r.outcomes {
        o.encode(e);
    }
    e.u64(r.schedule.num_machines() as u64);
    r.schedule.encode(e);
    r.log.encode(e);
    encode_tenant_stats(e, &r.tenants);
}

fn decode_report(d: &mut Decoder) -> Result<ServiceReport, CodecError> {
    let summary = ServiceSummary {
        submitted: d.u64()? as usize,
        accepted: d.u64()? as usize,
        rejected_queue_full: d.u64()? as usize,
        rejected_infeasible: d.u64()? as usize,
        completed: d.u64()? as usize,
        epochs: d.u64()? as usize,
        max_queue_depth: d.u64()? as usize,
        failures: d.u64()? as usize,
        awct: d.f64()?,
        makespan: d.f64()?,
        drained_at: d.f64()?,
        wall_seconds: d.f64()?,
        throughput_jobs_per_sec: d.f64()?,
        decision_latency_us: if d.bool()? {
            Some(mris_metrics::Percentiles {
                p50: d.f64()?,
                p95: d.f64()?,
                p99: d.f64()?,
            })
        } else {
            None
        },
    };
    let jobs = d.count(1)?;
    let outcomes = d.vec(jobs, |d| JobOutcome::decode(d, ()))?;
    let machines = d.u64()? as usize;
    let schedule = Schedule::decode(d, (jobs, machines))?;
    let log = FaultLog::decode(d, (jobs, machines))?;
    Ok(ServiceReport {
        schedule,
        log,
        outcomes,
        summary,
        tenants: decode_tenant_stats(d)?,
    })
}

impl Response {
    /// The payload of [`Response::Drained`] from a borrowed report, so the
    /// server encodes the report it keeps without cloning it first.
    pub(crate) fn encode_drained(report: &ServiceReport) -> Vec<u8> {
        let mut e = Encoder::new();
        e.u8(7);
        encode_report(&mut e, report);
        e.into_bytes()
    }

    /// Serializes the response to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        match self {
            Response::Error { detail } => {
                e.u8(0);
                encode_string(&mut e, detail);
            }
            Response::Submitted { result } => {
                e.u8(1);
                encode_verdict(&mut e, result);
            }
            Response::BatchSubmitted { results } => {
                e.u8(2);
                e.u64(results.len() as u64);
                for r in results {
                    encode_verdict(&mut e, r);
                }
            }
            Response::JobStatus { outcome } => {
                e.u8(3);
                outcome.encode(&mut e);
            }
            Response::StatsReply(s) => {
                e.u8(4);
                e.f64(s.now);
                e.u64(s.queue_depth);
                e.u64(s.submitted);
                e.u64(s.accepted);
                e.u64(s.rejected);
                e.u64(s.completed);
                encode_tenant_stats(&mut e, &s.tenants);
            }
            Response::Subscribed => e.u8(5),
            Response::Telemetry { line } => {
                e.u8(6);
                encode_string(&mut e, line);
            }
            Response::Drained(report) => return Self::encode_drained(report),
        }
        e.into_bytes()
    }

    /// Parses a frame payload; trailing bytes are malformed.
    pub fn decode(payload: &[u8]) -> Result<Self, CodecError> {
        let mut d = Decoder::new(payload);
        let resp = match d.u8()? {
            0 => Response::Error {
                detail: decode_string(&mut d)?,
            },
            1 => Response::Submitted {
                result: decode_verdict(&mut d)?,
            },
            2 => {
                let n = d.count(1)?;
                let mut results = Vec::with_capacity(n);
                for _ in 0..n {
                    results.push(decode_verdict(&mut d)?);
                }
                Response::BatchSubmitted { results }
            }
            3 => Response::JobStatus {
                outcome: JobOutcome::decode(&mut d, ())?,
            },
            4 => Response::StatsReply(NetStats {
                now: d.f64()?,
                queue_depth: d.u64()?,
                submitted: d.u64()?,
                accepted: d.u64()?,
                rejected: d.u64()?,
                completed: d.u64()?,
                tenants: decode_tenant_stats(&mut d)?,
            }),
            5 => Response::Subscribed,
            6 => Response::Telemetry {
                line: decode_string(&mut d)?,
            },
            7 => Response::Drained(Box::new(decode_report(&mut d)?)),
            other => return Err(d.malformed(format!("response tag {other}"))),
        };
        d.finish()?;
        Ok(resp)
    }
}
