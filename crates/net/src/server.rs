//! The TCP front door: an acceptor and per-connection handler threads that
//! execute requests on the one [`Service`] themselves, under one lock.
//!
//! # Threading model
//!
//! No async runtime (the workspace is hermetic). The acceptor blocks on
//! `TcpListener::accept` and spawns one handler thread per connection. A
//! handler owns its connection's read half behind one buffered reader from
//! byte zero (the handshake included, so a client may pipeline its hello
//! and first request), performs the handshake (version, token → tenant,
//! optional fingerprint check), and then, per request: decodes the frame,
//! takes the service lock, runs the request on the service, releases the
//! lock, and only then encodes and writes the reply. There is no worker
//! thread and no queue: a round trip wakes two threads, the handler and
//! the client.
//!
//! The service lock is the only place requests meet, so the admission
//! sequence is lock-acquisition order. One client waits for each reply
//! before it sends the next request, so its requests take the lock in send
//! order and a single connection replays exactly the admission sequence of
//! the in-process driver (`tests/net_conservativity.rs` pins TCP ≡
//! in-process on bits). Across clients the lock is not FIFO — whichever
//! handler gets it goes first — and that is on purpose no more than that:
//! fairness between tenants is the admission controller's deficit-round-
//! robin gate, not the order in which a queue would have handed requests
//! over.
//!
//! A connection has one write half behind its own lock, shared by its
//! handler (replies) and, once it subscribed, by whichever thread runs an
//! epoch (telemetry pushes), so frames never interleave. Lock order is
//! service → subscriber list → connection writer; a handler writing a reply
//! holds only the last.
//!
//! `make_policy` runs in [`serve_net`] itself, before it returns: policies
//! are `Send` (a supertrait of [`OnlinePolicy`]), so the service is built
//! on the caller's thread and moved behind the lock.
//!
//! # Shutdown
//!
//! The serve loop ends exactly once, in the handler that ended it:
//! [`Request::Drain`] takes the service out of the lock, drains it and
//! answers the full [`ServiceReport`], encoded once from the report
//! [`NetServer::wait`] returns; a [`mris_types::SchedulingError`] or a
//! panic raised by the policy while a handler drove it drops the service
//! and becomes `wait`'s typed error. That handler sends its reply first
//! (so `wait`, and a process that exits when it returns, never outruns
//! it; a draining client that stops reading holds the end until it reads
//! or hangs up), then stores the outcome, raises the shutdown flag, closes
//! every subscriber's socket and unblocks the acceptor with a loopback
//! self-connect; the acceptor hands the outcome to `wait`. Every later
//! request on any connection answers [`Response::Error`] — the service is
//! gone from the lock (or the lock is poisoned), so nothing blocks.

use std::any::Any;
use std::collections::HashMap;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use mris_service::{
    service_fingerprint, Clock, EpochRecord, Service, ServiceConfig, ServiceReport, ServiceSummary,
    TelemetrySink,
};
use mris_sim::OnlinePolicy;
use mris_types::{AdmissionError, Instance, JobId, NetError, TenantId, Time};

use crate::proto::{
    read_frame, write_frame, HandshakeStatus, Hello, HelloReply, NetStats, Request, Response,
    NET_VERSION,
};

/// A connection's write half. Its handler and, after `Subscribe`, the
/// telemetry sink both write whole frames under this lock.
type ConnWriter = Arc<Mutex<TcpStream>>;

/// Shared list of subscribed telemetry connections.
type Subscribers = Arc<Mutex<Vec<ConnWriter>>>;

/// Writes one whole frame to a connection under its writer lock.
fn send(writer: &ConnWriter, payload: &[u8]) -> Result<(), NetError> {
    let mut stream = writer.lock().expect("a frame write never panics");
    write_frame(&mut *stream, payload)
}

/// A [`TelemetrySink`] that forwards every epoch record (and the final
/// summary) to subscribed connections as [`Response::Telemetry`] frames,
/// then delegates to an inner sink. Dead subscribers are dropped silently;
/// telemetry is best-effort by design and never affects scheduling.
struct NetSink<S> {
    inner: S,
    subs: Subscribers,
}

impl<S> NetSink<S> {
    fn push_line(&self, line: String) {
        let frame = Response::Telemetry { line }.encode();
        let mut subs = self.subs.lock().expect("subscriber lock");
        subs.retain(|writer| send(writer, &frame).is_ok());
    }
}

impl<S: TelemetrySink> TelemetrySink for NetSink<S> {
    fn epoch(&mut self, record: &EpochRecord) {
        if !self.subs.lock().expect("subscriber lock").is_empty() {
            self.push_line(record.to_json());
        }
        self.inner.epoch(record);
    }

    fn summary(&mut self, summary: &ServiceSummary) {
        if !self.subs.lock().expect("subscriber lock").is_empty() {
            self.push_line(summary.to_json());
        }
        self.inner.summary(summary);
    }
}

/// Why a network serve run failed (beyond per-connection errors, which
/// are answered in-band as [`Response::Error`] frames).
#[derive(Debug)]
pub enum NetServeError {
    /// The service configuration was rejected at construction.
    Config(mris_types::ConfigError),
    /// The policy violated a placement rule while a handler drove it.
    Scheduling(mris_types::SchedulingError),
    /// A thread panicked while it held the service. There is no worker
    /// thread: the "worker" is whichever connection's handler was running
    /// a request on the service at that moment (or the acceptor).
    WorkerPanicked {
        /// Downcast panic payload.
        payload: String,
    },
}

impl std::fmt::Display for NetServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetServeError::Config(e) => write!(f, "net serve configuration rejected: {e}"),
            NetServeError::Scheduling(e) => write!(f, "net serve scheduling failed: {e}"),
            NetServeError::WorkerPanicked { payload } => {
                write!(f, "net serve worker panicked: {payload}")
            }
        }
    }
}

impl std::error::Error for NetServeError {}

fn worker_panicked(payload: Box<dyn Any + Send>) -> NetServeError {
    let payload = payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "<non-string panic payload>".to_string());
    NetServeError::WorkerPanicked { payload }
}

/// What [`NetServer::wait`] returns.
type Outcome<S> = Result<(ServiceReport, S), NetServeError>;

/// A running TCP service front door.
pub struct NetServer<S> {
    addr: SocketAddr,
    acceptor: std::thread::JoinHandle<Outcome<S>>,
}

impl<S> NetServer<S> {
    /// The bound listen address (resolves the ephemeral port when the
    /// caller listened on port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Waits for a client's [`Request::Drain`] to end the serve loop and
    /// returns the drained report and telemetry sink. The same report was
    /// answered over the wire to the draining client.
    ///
    /// # Errors
    ///
    /// A typed [`NetServeError`]; a panic is captured, not propagated.
    pub fn wait(self) -> Result<(ServiceReport, S), NetServeError> {
        // The acceptor returns once the serve loop ended, so no thread of
        // the listener outlives the server handle.
        self.acceptor
            .join()
            .unwrap_or_else(|payload| Err(worker_panicked(payload)))
    }
}

/// Everything the acceptor and the handlers share.
struct Door<C: Clock, S: TelemetrySink> {
    /// The one lock requests meet at. `None` once the serve loop ended.
    service: Mutex<Option<Service<C, NetSink<S>>>>,
    fingerprint: u64,
    /// Exact tokens → tenant ids; `None` on the single-tenant door, which
    /// accepts any token as tenant 0.
    tokens: Option<HashMap<String, u32>>,
    subs: Subscribers,
    /// Stored once, by the handler that ended the serve loop, before it
    /// raises `shutdown`; taken by the acceptor on its way out.
    outcome: Mutex<Option<Outcome<S>>>,
    shutdown: AtomicBool,
    addr: SocketAddr,
}

/// Serves `instance` under `cfg` over TCP at `listen` (e.g.
/// `"127.0.0.1:0"` for an ephemeral loopback port).
///
/// Requests are admitted in the order their handlers take the service
/// lock, against the given clock; `make_policy` runs here, before the
/// listener accepts. Returns once the listener is bound — connections are
/// accepted in the background until a client drains the service.
///
/// # Errors
///
/// [`NetError::Io`] when the listen address cannot be bound.
pub fn serve_net<C, S, F>(
    instance: Instance,
    cfg: ServiceConfig,
    clock: C,
    sink: S,
    make_policy: F,
    listen: &str,
) -> Result<NetServer<S>, NetError>
where
    C: Clock + Send + 'static,
    S: TelemetrySink + Send + 'static,
    F: FnOnce(&Instance, usize) -> Box<dyn OnlinePolicy> + Send + 'static,
{
    let listener = TcpListener::bind(listen).map_err(|e| NetError::Io {
        detail: format!("bind {listen}: {e}"),
    })?;
    let addr = listener.local_addr().map_err(|e| NetError::Io {
        detail: format!("local_addr: {e}"),
    })?;
    let fingerprint = service_fingerprint(&instance, &cfg);
    let tokens = (!cfg.tenants.is_empty()).then(|| {
        cfg.tenants
            .iter()
            .enumerate()
            .map(|(i, t)| (t.token.clone(), i as u32))
            .collect()
    });
    let subs = Subscribers::default();
    let policy = make_policy(&instance, cfg.num_machines);
    let sink = NetSink {
        inner: sink,
        subs: Arc::clone(&subs),
    };
    // A rejected configuration is a serve loop that has already ended.
    let (service, outcome) = match Service::new(instance, policy, cfg, clock, sink) {
        Ok(service) => (Some(service), None),
        Err(e) => (None, Some(Err(NetServeError::Config(e)))),
    };
    let door = Arc::new(Door {
        service: Mutex::new(service),
        fingerprint,
        tokens,
        subs,
        shutdown: AtomicBool::new(outcome.is_some()),
        outcome: Mutex::new(outcome),
        addr,
    });

    let acceptor = std::thread::spawn(move || {
        while !door.shutdown.load(Ordering::SeqCst) {
            let Ok((stream, _)) = listener.accept() else {
                continue;
            };
            if door.shutdown.load(Ordering::SeqCst) {
                break;
            }
            // Request/response framing with small frames: Nagle's
            // algorithm against delayed ACKs costs ~40ms per round
            // trip on loopback, so turn it off.
            let _ = stream.set_nodelay(true);
            mris_obs::counter_add("mris_net_connections_total", 1);
            let door = Arc::clone(&door);
            std::thread::spawn(move || {
                let _ = handle_connection(stream, &door);
            });
        }
        let outcome = door.outcome.lock().expect("outcome lock").take();
        outcome.expect("shutdown is raised only after the outcome is stored")
    });

    Ok(NetServer { addr, acceptor })
}

/// The result of one admission offer.
enum SubmitOutcome {
    /// The admission decision (rejections are normal operation).
    Decision(Result<(), AdmissionError>),
    /// The request itself was invalid; answered in-band.
    BadRequest(String),
    /// The policy violated a placement rule; ends the serve loop.
    Fatal(mris_types::SchedulingError),
}

fn submit_one<C: Clock, S: TelemetrySink>(
    svc: &mut Service<C, S>,
    job: u32,
    at: Option<Time>,
    tenant: TenantId,
) -> SubmitOutcome {
    let decision = match at {
        Some(t) => match svc.submit_at_as(t, JobId(job), tenant) {
            Ok(result) => result,
            Err(e) => return SubmitOutcome::Fatal(e),
        },
        None => svc.submit_as(JobId(job), tenant),
    };
    match decision {
        Err(AdmissionError::UnknownJob { .. }) => {
            SubmitOutcome::BadRequest(format!("job {job} is out of range for the served instance"))
        }
        Err(AdmissionError::AlreadySubmitted { .. }) => {
            SubmitOutcome::BadRequest(format!("job {job} was already submitted"))
        }
        Err(err) if err.is_invalid_offer() => SubmitOutcome::BadRequest(err.to_string()),
        decision => SubmitOutcome::Decision(decision),
    }
}

fn stats_of<C: Clock, S: TelemetrySink>(svc: &Service<C, S>) -> NetStats {
    let counts = svc.counts();
    NetStats {
        now: svc.now(),
        queue_depth: svc.queue_depth() as u64,
        submitted: counts.submitted as u64,
        accepted: counts.accepted as u64,
        rejected: counts.rejected as u64,
        completed: counts.completed as u64,
        tenants: svc.tenant_stats(),
    }
}

/// What every request is answered once the serve loop has ended.
fn gone() -> Response {
    Response::Error {
        detail: "service drained".to_string(),
    }
}

impl<C: Clock, S: TelemetrySink> Door<C, S> {
    /// Ends the serve loop with `outcome`; the first caller's stands.
    /// `own` is the calling handler's connection, whose reply is already
    /// sent: `wait` may return as soon as this runs.
    fn finish(&self, outcome: Outcome<S>, own: &ConnWriter) {
        self.outcome
            .lock()
            .expect("outcome lock")
            .get_or_insert(outcome);
        self.shutdown.store(true, Ordering::SeqCst);
        // Both halves of every other subscriber socket, so its handler
        // and its client see EOF. After the flag: a `Subscribe` that still
        // gets in is in the list before this lock is taken, or refused.
        for writer in self.subs.lock().expect("subscriber lock").drain(..) {
            if Arc::ptr_eq(&writer, own) {
                continue;
            }
            if let Ok(stream) = writer.lock() {
                let _ = stream.shutdown(std::net::Shutdown::Both);
            }
        }
        let _ = TcpStream::connect(self.addr);
    }

    /// Runs one request on the service, under the lock, and returns the
    /// reply's payload, encoded after the lock is released, and the
    /// outcome the serve loop ends with if this request ended it. The
    /// caller sends the reply before it hands that outcome to
    /// [`Door::finish`], so the reply is on the wire before `wait` returns.
    fn execute(&self, request: Request, tenant: TenantId) -> (Vec<u8>, Option<Outcome<S>>) {
        match request {
            Request::Drain => self.drain(),
            request => {
                let (reply, ended) = self.answer(request, tenant);
                (reply.encode(), ended)
            }
        }
    }

    fn answer(&self, request: Request, tenant: TenantId) -> (Response, Option<Outcome<S>>) {
        // A poisoned lock is a handler that panicked inside the service.
        let Ok(mut guard) = self.service.lock() else {
            return (gone(), None);
        };
        let Some(svc) = guard.as_mut() else {
            return (gone(), None);
        };
        let reply = |response| (response, None);
        let fatal = match request {
            Request::Submit { job, at } => match submit_one(svc, job, at, tenant) {
                SubmitOutcome::Decision(result) => return reply(Response::Submitted { result }),
                SubmitOutcome::BadRequest(detail) => return reply(Response::Error { detail }),
                SubmitOutcome::Fatal(e) => e,
            },
            Request::SubmitBatch { jobs } => {
                let mut results = Vec::with_capacity(jobs.len());
                let mut fatal = None;
                for (job, at) in jobs {
                    match submit_one(svc, job, at, tenant) {
                        SubmitOutcome::Decision(result) => results.push(result),
                        SubmitOutcome::BadRequest(detail) => {
                            return reply(Response::Error { detail })
                        }
                        SubmitOutcome::Fatal(e) => {
                            fatal = Some(e);
                            break;
                        }
                    }
                }
                match fatal {
                    Some(e) => e,
                    None => return reply(Response::BatchSubmitted { results }),
                }
            }
            Request::Query { job } => {
                return reply(match svc.checked_outcome(JobId(job)) {
                    Some(outcome) => Response::JobStatus { outcome },
                    None => Response::Error {
                        detail: format!("job {job} is out of range for the served instance"),
                    },
                })
            }
            Request::Stats => return reply(Response::StatsReply(stats_of(svc))),
            Request::Subscribe | Request::Drain => unreachable!("handled by the caller"),
        };
        *guard = None;
        drop(guard);
        let detail = format!("scheduling failed: {fatal}");
        (
            Response::Error { detail },
            Some(Err(NetServeError::Scheduling(fatal))),
        )
    }

    /// Takes the service out of the lock and drains it. The report is
    /// encoded by reference into the reply, then handed to `wait`.
    fn drain(&self) -> (Vec<u8>, Option<Outcome<S>>) {
        let taken = self.service.lock().ok().and_then(|mut guard| guard.take());
        let Some(svc) = taken else {
            return (gone().encode(), None);
        };
        match svc.drain() {
            Ok((report, sink)) => {
                let reply = Response::encode_drained(&report);
                (reply, Some(Ok((report, sink.inner))))
            }
            Err(e) => {
                let detail = format!("drain failed: {e}");
                (
                    Response::Error { detail }.encode(),
                    Some(Err(NetServeError::Scheduling(e))),
                )
            }
        }
    }
}

/// Per-connection protocol loop: handshake, then request/response frames
/// until the peer hangs up.
fn handle_connection<C: Clock, S: TelemetrySink>(
    mut stream: TcpStream,
    door: &Door<C, S>,
) -> Result<(), NetError> {
    let fingerprint = door.fingerprint;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| NetError::Io {
        detail: format!("clone connection: {e}"),
    })?);
    let hello = match Hello::read_from(&mut reader) {
        Ok(h) => h,
        Err(e) => {
            mris_obs::counter_add("mris_net_handshake_failures_total", 1);
            return Err(e);
        }
    };
    let refuse = |status: HandshakeStatus, detail: String, stream: &mut TcpStream| {
        mris_obs::counter_add("mris_net_handshake_failures_total", 1);
        let _ = HelloReply {
            status,
            tenant: 0,
            fingerprint,
            detail,
        }
        .write_to(stream);
    };
    if hello.version != NET_VERSION {
        refuse(
            HandshakeStatus::VersionMismatch,
            format!(
                "client speaks MRNP v{}, server speaks v{NET_VERSION}",
                hello.version
            ),
            &mut stream,
        );
        return Ok(());
    }
    if hello.expected_fingerprint != 0 && hello.expected_fingerprint != fingerprint {
        refuse(
            HandshakeStatus::FingerprintMismatch,
            format!(
                "client expects world {:016x}, server serves {fingerprint:016x}",
                hello.expected_fingerprint
            ),
            &mut stream,
        );
        return Ok(());
    }
    let tenant = match &door.tokens {
        None => TenantId::DEFAULT,
        Some(tokens) => match tokens.get(&hello.token) {
            Some(&t) => TenantId(t),
            None => {
                refuse(
                    HandshakeStatus::AuthFailed,
                    "token matches no configured tenant".to_string(),
                    &mut stream,
                );
                return Ok(());
            }
        },
    };
    HelloReply {
        status: HandshakeStatus::Ok,
        tenant: tenant.0,
        fingerprint,
        detail: String::new(),
    }
    .write_to(&mut stream)?;

    let writer: ConnWriter = Arc::new(Mutex::new(stream));
    loop {
        let payload = match read_frame(&mut reader) {
            Ok(p) => p,
            Err(NetError::Closed) => return Ok(()),
            Err(e) => return Err(e),
        };
        let (reply, ended) = match Request::decode(&payload) {
            // A malformed frame is answered, not fatal: the framing
            // layer already resynchronized on the length prefix.
            Err(e) => (
                Response::Error {
                    detail: format!("malformed request: {e}"),
                }
                .encode(),
                None,
            ),
            Ok(Request::Subscribe) => {
                let mut subs = door.subs.lock().expect("subscriber lock");
                if door.shutdown.load(Ordering::SeqCst) {
                    (gone().encode(), None)
                } else {
                    subs.push(Arc::clone(&writer));
                    (Response::Subscribed.encode(), None)
                }
            }
            // A panic in the policy must end the serve loop typed, not
            // strand `wait` and this client: the unwound guard poisons
            // the service lock, which every later request reads as gone.
            Ok(request) => catch_unwind(AssertUnwindSafe(|| door.execute(request, tenant)))
                .unwrap_or_else(|payload| {
                    let reply = Response::Error {
                        detail: "service panicked".to_string(),
                    };
                    (reply.encode(), Some(Err(worker_panicked(payload))))
                }),
        };
        // The reply first: once the outcome is stored, `wait` can return
        // and its caller exit before a later write would reach the client.
        let sent = send(&writer, &reply);
        if let Some(outcome) = ended {
            door.finish(outcome, &writer);
        }
        sent?;
    }
}
