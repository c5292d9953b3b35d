//! The MRNP client: a blocking, connection-per-client handle mirroring
//! the in-process [`mris_service::Service`] submission API over TCP.

use std::io::BufReader;
use std::net::TcpStream;

use mris_service::{JobOutcome, ServiceReport};
use mris_types::{AdmissionError, JobId, NetError, Time};

use crate::proto::{
    read_frame, write_frame, HandshakeStatus, Hello, HelloReply, NetStats, Request, Response,
    NET_VERSION,
};

/// A connected MRNP client. One TCP connection, strictly
/// request-response; requests from a single client are admitted in send
/// order, so driving a server from one client replays the in-process
/// admission sequence exactly.
pub struct NetClient {
    /// Reads go through the buffer (a reply's header and payload arrive in
    /// one `read`); writes go straight to the socket underneath it.
    stream: BufReader<TcpStream>,
    tenant: u32,
    fingerprint: u64,
}

impl NetClient {
    /// Connects, performs the MRNP handshake, and authenticates `token`.
    ///
    /// `expected_fingerprint` guards against talking to a server that
    /// would replay a different world: pass
    /// [`mris_service::service_fingerprint`] of the instance and
    /// configuration you believe the server runs, or `0` to skip the
    /// check. The server's refusals come back as typed errors:
    /// [`NetError::AuthFailed`], [`NetError::FingerprintMismatch`], or
    /// [`NetError::Remote`] for a version mismatch.
    pub fn connect(addr: &str, token: &str, expected_fingerprint: u64) -> Result<Self, NetError> {
        let stream = TcpStream::connect(addr).map_err(|e| NetError::Io {
            detail: format!("connect {addr}: {e}"),
        })?;
        stream.set_nodelay(true).ok();
        let mut stream = BufReader::new(stream);
        Hello {
            version: NET_VERSION,
            expected_fingerprint,
            token: token.to_string(),
        }
        .write_to(stream.get_mut())?;
        let reply = HelloReply::read_from(&mut stream)?;
        match reply.status {
            HandshakeStatus::Ok => Ok(NetClient {
                stream,
                tenant: reply.tenant,
                fingerprint: reply.fingerprint,
            }),
            HandshakeStatus::AuthFailed => Err(NetError::AuthFailed),
            HandshakeStatus::FingerprintMismatch => Err(NetError::FingerprintMismatch {
                server: reply.fingerprint,
                client: expected_fingerprint,
            }),
            HandshakeStatus::VersionMismatch => Err(NetError::Remote {
                detail: reply.detail,
            }),
        }
    }

    /// The tenant this connection authenticated to (0 single-tenant).
    pub fn tenant(&self) -> u32 {
        self.tenant
    }

    /// The server's configuration fingerprint, as sent in the handshake.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    fn round_trip(&mut self, req: &Request) -> Result<Response, NetError> {
        write_frame(self.stream.get_mut(), &req.encode())?;
        loop {
            let payload = read_frame(&mut self.stream)?;
            let resp = Response::decode(&payload).map_err(NetError::Codec)?;
            // Telemetry pushes may interleave if this connection also
            // subscribed; skip them when waiting on a reply.
            if !matches!(resp, Response::Telemetry { .. }) {
                return Ok(resp);
            }
        }
    }

    fn remote(detail: String) -> NetError {
        NetError::Remote { detail }
    }

    fn unexpected(resp: &Response) -> NetError {
        NetError::UnexpectedResponse {
            detail: format!("{resp:?}").chars().take(120).collect(),
        }
    }

    /// Offers `job` at the service clock's now. The inner result is the
    /// admission decision — rejections are normal operation.
    pub fn submit(&mut self, job: JobId) -> Result<Result<(), AdmissionError>, NetError> {
        self.submit_inner(job, None)
    }

    /// Offers `job` at service time `at`, exactly like
    /// [`mris_service::Service::submit_at`].
    pub fn submit_at(
        &mut self,
        at: Time,
        job: JobId,
    ) -> Result<Result<(), AdmissionError>, NetError> {
        self.submit_inner(job, Some(at))
    }

    fn submit_inner(
        &mut self,
        job: JobId,
        at: Option<Time>,
    ) -> Result<Result<(), AdmissionError>, NetError> {
        match self.round_trip(&Request::Submit { job: job.0, at })? {
            Response::Submitted { result } => Ok(result),
            Response::Error { detail } => Err(Self::remote(detail)),
            other => Err(Self::unexpected(&other)),
        }
    }

    /// Offers several `(job, at)` pairs in order in one round trip and
    /// returns the per-job admission decisions.
    pub fn submit_batch(
        &mut self,
        jobs: &[(JobId, Option<Time>)],
    ) -> Result<Vec<Result<(), AdmissionError>>, NetError> {
        let wire: Vec<(u32, Option<Time>)> = jobs.iter().map(|(j, at)| (j.0, *at)).collect();
        match self.round_trip(&Request::SubmitBatch { jobs: wire })? {
            Response::BatchSubmitted { results } => Ok(results),
            Response::Error { detail } => Err(Self::remote(detail)),
            other => Err(Self::unexpected(&other)),
        }
    }

    /// Asks for `job`'s current ledger outcome.
    pub fn query(&mut self, job: JobId) -> Result<JobOutcome, NetError> {
        match self.round_trip(&Request::Query { job: job.0 })? {
            Response::JobStatus { outcome } => Ok(outcome),
            Response::Error { detail } => Err(Self::remote(detail)),
            other => Err(Self::unexpected(&other)),
        }
    }

    /// Asks for the mid-run counters.
    pub fn stats(&mut self) -> Result<NetStats, NetError> {
        match self.round_trip(&Request::Stats)? {
            Response::StatsReply(s) => Ok(s),
            Response::Error { detail } => Err(Self::remote(detail)),
            other => Err(Self::unexpected(&other)),
        }
    }

    /// Subscribes this connection to telemetry pushes. After this call,
    /// use [`NetClient::next_telemetry`] to read lines; request methods
    /// keep working (pushes are skipped while awaiting replies).
    pub fn subscribe(&mut self) -> Result<(), NetError> {
        match self.round_trip(&Request::Subscribe)? {
            Response::Subscribed => Ok(()),
            Response::Error { detail } => Err(Self::remote(detail)),
            other => Err(Self::unexpected(&other)),
        }
    }

    /// Blocks for the next telemetry line on a subscribed connection.
    /// [`NetError::Closed`] when the server drained and closed the stream.
    pub fn next_telemetry(&mut self) -> Result<String, NetError> {
        loop {
            let payload = read_frame(&mut self.stream)?;
            match Response::decode(&payload).map_err(NetError::Codec)? {
                Response::Telemetry { line } => return Ok(line),
                _ => continue,
            }
        }
    }

    /// Drains the service and returns the full [`ServiceReport`],
    /// transported bit-identically (AWCT and schedule times travel as
    /// IEEE-754 bits). This ends the serve loop for every client.
    pub fn drain(mut self) -> Result<ServiceReport, NetError> {
        match self.round_trip(&Request::Drain)? {
            Response::Drained(report) => Ok(*report),
            Response::Error { detail } => Err(Self::remote(detail)),
            other => Err(Self::unexpected(&other)),
        }
    }
}
