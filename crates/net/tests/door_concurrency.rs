//! Several connections on one door: requests run on their connection's
//! thread under the one service lock, and replies and telemetry pushes
//! share a connection's one write half.
//!
//! * A subscribed connection's replies and the telemetry frames pushed to
//!   it from other threads never interleave mid-frame.
//! * Clients submitting concurrently are all answered and the drained
//!   report is whole.
//! * A policy that panics or breaks a placement rule ends the serve loop
//!   with a typed error — `wait` returns, the requester is answered, and no
//!   other connection blocks.
//! * The drain reply is on the wire before `wait` returns.
//!
//! Every test runs under a wall-clock timeout: the failure these pin is a
//! hang.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::{mpsc, Arc, Barrier};
use std::time::Duration;

use mris_core::registry::online_policy_by_name;
use mris_net::{
    read_frame, serve_net, write_frame, HandshakeStatus, Hello, HelloReply, NetClient,
    NetServeError, NetServer, Request, Response, NET_VERSION,
};
use mris_service::{JobOutcome, NullSink, ServiceConfig, SimClock};
use mris_sim::{Dispatcher, OnlinePolicy};
use mris_trace::{Arrivals, AzureTrace, AzureTraceConfig};
use mris_types::{Instance, JobId, NetError, SchedulingError, Time};

const MACHINES: usize = 2;

fn workload(seed: u64, jobs: usize) -> Instance {
    let shapes = AzureTrace::generate(&AzureTraceConfig {
        num_jobs: jobs,
        seed,
        ..Default::default()
    })
    .sample_instance(1, 0);
    Arrivals::Poisson { rate: 4.0 }
        .rewrite(&shapes, seed)
        .unwrap()
}

/// Runs `scenario` on its own thread and fails the test if it has not
/// returned within a minute.
fn within_timeout<T: Send + 'static>(scenario: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || tx.send(scenario()));
    rx.recv_timeout(Duration::from_secs(60))
        .expect("the scenario hung (or panicked) instead of ending typed")
}

fn pq_door(w: &Instance) -> NetServer<NullSink> {
    serve_net(
        w.clone(),
        ServiceConfig::new(MACHINES),
        SimClock::new(),
        NullSink,
        |inst, m| online_policy_by_name("pq-wsjf", inst, m).expect("known"),
        "127.0.0.1:0",
    )
    .expect("bind")
}

/// A subscribed client issues 2,000 `query`/`stats` round trips while
/// another client's submits drive epochs, each of which pushes a telemetry
/// frame to the subscriber from the submitter's handler thread. Every frame
/// the subscriber reads decodes and every reply matches its request: a
/// header landing inside another frame would fail the checksum, the decoder
/// or the reply's type.
#[test]
fn replies_and_telemetry_never_interleave() {
    const ROUND_TRIPS: usize = 2_000;
    within_timeout(|| {
        let w = workload(0x5EB5, 6_000);
        let n = w.len();
        let server = pq_door(&w);
        let addr = server.addr().to_string();
        let mut sub = NetClient::connect(&addr, "", 0).expect("subscriber");
        sub.subscribe().expect("subscribe");
        let mut driver = NetClient::connect(&addr, "", 0).expect("driver");

        let start = Arc::new(Barrier::new(2));
        let (asked_tx, asked_rx) = mpsc::channel::<()>();
        let submitter = {
            let start = Arc::clone(&start);
            let instance = w.clone();
            std::thread::spawn(move || {
                start.wait();
                for job in instance.jobs() {
                    driver
                        .submit_at(job.release, job.id)
                        .expect("transport")
                        .expect("admitted");
                }
                // Drain only once the subscriber has its replies: a drain
                // closes its socket.
                asked_rx.recv().expect("subscriber finished asking");
                driver.drain().expect("drain")
            })
        };

        start.wait();
        let mut last_submitted = 0;
        for i in 0..ROUND_TRIPS {
            if i % 2 == 0 {
                let outcome = sub.query(JobId((i % n) as u32)).expect("query reply");
                assert!(!matches!(outcome, JobOutcome::Rejected(_)));
            } else {
                let stats = sub.stats().expect("stats reply");
                assert!(stats.submitted >= last_submitted, "stats went backwards");
                assert_eq!(stats.submitted, stats.accepted + stats.rejected);
                last_submitted = stats.submitted;
            }
        }
        asked_tx.send(()).expect("submitter is waiting");
        // Keep reading so the pushes never back up against a full socket;
        // each line must decode, and the stream must end in a clean close.
        let mut lines = 0usize;
        let closed = loop {
            match sub.next_telemetry() {
                Ok(line) => {
                    assert!(line.contains("\"event\""), "not a telemetry line: {line}");
                    lines += 1;
                }
                Err(e) => break e,
            }
        };
        assert!(
            matches!(closed, NetError::Closed),
            "subscriber stream ended in {closed:?}"
        );
        assert!(lines > 0, "no telemetry reached the subscriber");

        let report = submitter.join().expect("submitter thread");
        assert_eq!(report.summary.submitted, n);
        assert_eq!(report.summary.completed, n);
        server.wait().expect("clean serve");
    });
}

/// A connection that subscribed can still drain: ending the serve loop
/// closes every *other* subscriber's socket, not the one that carries the
/// report.
#[test]
fn a_subscribed_connection_can_drain() {
    within_timeout(|| {
        let w = workload(77, 12);
        let server = pq_door(&w);
        let addr = server.addr().to_string();
        let mut other = NetClient::connect(&addr, "", 0).expect("other subscriber");
        other.subscribe().expect("subscribe");
        let mut client = NetClient::connect(&addr, "", 0).expect("client");
        client.subscribe().expect("subscribe");
        for job in w.jobs() {
            let _ = client.submit_at(job.release, job.id).expect("transport");
        }
        let report = client
            .drain()
            .expect("the subscriber's own drain is answered");
        assert_eq!(report.summary.completed, w.len());
        while other.next_telemetry().is_ok() {}
        server.wait().expect("clean serve");
    });
}

/// `wait` returns only once the drain reply is sent: a raw client that
/// sends its hello and `Drain` and then waits on the server finds the whole
/// reply readable without blocking. `mris serve --listen` exits when `wait`
/// returns, so a reply sent after it could be lost with the process.
/// Looped, because the fault is a race between the draining handler's
/// write and the acceptor's return.
#[test]
fn the_drain_reply_is_sent_before_wait_returns() {
    within_timeout(|| {
        let w = workload(5, 4);
        for round in 0..100 {
            let server = pq_door(&w);
            let mut segment = Hello {
                version: NET_VERSION,
                expected_fingerprint: 0,
                token: String::new(),
            }
            .encode();
            write_frame(&mut segment, &Request::Drain.encode()).expect("write to vec");
            let mut stream = TcpStream::connect(server.addr()).expect("connect");
            stream.write_all(&segment).expect("hello and drain");
            server.wait().expect("clean serve");

            stream.set_nonblocking(true).expect("non-blocking");
            let mut bytes = Vec::new();
            let mut buf = [0u8; 4096];
            loop {
                match stream.read(&mut buf) {
                    Ok(0) => break,
                    Ok(n) => bytes.extend_from_slice(&buf[..n]),
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) => panic!("round {round}: read: {e}"),
                }
            }
            let mut r = &bytes[..];
            let hello = HelloReply::read_from(&mut r).expect("hello reply");
            assert_eq!(hello.status, HandshakeStatus::Ok);
            let drained = read_frame(&mut r).unwrap_or_else(|e| {
                panic!("round {round}: the drain reply is not whole when wait returns: {e}")
            });
            match Response::decode(&drained).expect("decodes") {
                Response::Drained(report) => assert_eq!(report.summary.completed, 0),
                other => panic!("round {round}: expected the drained report, got {other:?}"),
            }
        }
    });
}

/// Four clients submit disjoint quarters of one instance concurrently:
/// every submit is answered, the drained report validates and accounts for
/// every job.
#[test]
fn four_clients_submit_disjoint_quarters() {
    const CLIENTS: usize = 4;
    within_timeout(|| {
        let w = workload(0xA11, 2_000);
        let n = w.len();
        let server = pq_door(&w);
        let addr = server.addr().to_string();
        let start = Arc::new(Barrier::new(CLIENTS));
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let start = Arc::clone(&start);
                let instance = w.clone();
                let mut client = NetClient::connect(&addr, "", 0).expect("handshake");
                std::thread::spawn(move || {
                    start.wait();
                    let mut answered = 0usize;
                    for job in instance
                        .jobs()
                        .iter()
                        .filter(|j| j.id.index() % CLIENTS == c)
                    {
                        client
                            .submit_at(job.release, job.id)
                            .expect("every submit is answered")
                            .expect("the permissive config admits everything");
                        answered += 1;
                    }
                    (client, answered)
                })
            })
            .collect();
        let mut joined: Vec<_> = clients
            .into_iter()
            .map(|t| t.join().expect("client thread"))
            .collect();
        assert_eq!(joined.iter().map(|(_, a)| a).sum::<usize>(), n);

        let (mut first, _) = joined.remove(0);
        let stats = first.stats().expect("stats");
        assert_eq!((stats.submitted, stats.accepted), (n as u64, n as u64));
        let report = first.drain().expect("drain");
        assert_eq!(report.summary.submitted, n);
        assert_eq!(report.summary.completed, n);
        report.schedule.validate(&w).expect("feasible schedule");
        report.log.verify().expect("fault-log audit");
        assert!(report
            .outcomes
            .iter()
            .all(|o| matches!(o, JobOutcome::Completed)));
        // The other three connections outlived the service: typed, prompt.
        for (mut late, _) in joined {
            assert!(matches!(late.stats(), Err(NetError::Remote { .. })));
        }
        server.wait().expect("clean serve");
    });
}

/// First-fit FIFO until it meets `trigger`, then misbehaves.
struct Saboteur {
    pending: Vec<JobId>,
    trigger: JobId,
    panics: bool,
}

impl OnlinePolicy for Saboteur {
    fn on_arrivals(&mut self, _now: Time, arrived: &[JobId], _instance: &Instance) {
        self.pending.extend_from_slice(arrived);
    }

    fn dispatch(
        &mut self,
        d: &mut Dispatcher<'_>,
        _freed: &[usize],
    ) -> Result<(), SchedulingError> {
        if self.pending.contains(&self.trigger) {
            if self.panics {
                panic!("saboteur policy met {}", self.trigger);
            }
            // No such machine: a placement-rule violation.
            d.place(usize::MAX, self.trigger)?;
        }
        let mut waiting = Vec::new();
        for &job in &self.pending {
            match d.cluster().first_fit(&d.instance().job(job).demands) {
                Some(m) => d.place(m, job)?,
                None => waiting.push(job),
            }
        }
        self.pending = waiting;
        Ok(())
    }
}

/// Serves `w` with a [`Saboteur`], submits jobs from one connection until
/// the policy misbehaves, and returns the requester's error, a bystander
/// connection's next answers, and what `wait` returned.
fn sabotage(panics: bool) -> (NetError, Vec<NetError>, NetServeError) {
    let w = workload(9, 20);
    let trigger = JobId(7);
    let server = serve_net(
        w.clone(),
        ServiceConfig::new(MACHINES),
        SimClock::new(),
        NullSink,
        move |_, _| {
            Box::new(Saboteur {
                pending: Vec::new(),
                trigger,
                panics,
            })
        },
        "127.0.0.1:0",
    )
    .expect("bind");
    let addr = server.addr().to_string();
    let mut requester = NetClient::connect(&addr, "", 0).expect("requester");
    let mut bystander = NetClient::connect(&addr, "", 0).expect("bystander");
    assert!(bystander.stats().is_ok(), "the door works before the fault");

    let mut failure = None;
    for job in w.jobs() {
        // A job is delivered to the policy by the event that follows its
        // submit, so the fault surfaces a request or two after the trigger.
        if let Err(e) = requester.submit_at(job.release, job.id) {
            failure = Some(e);
            break;
        }
    }
    let failure = failure.expect("the saboteur never fired");
    let after = vec![
        bystander.stats().expect_err("stats after the fault"),
        bystander
            .submit_at(1e9, JobId(19))
            .expect_err("submit after the fault"),
        requester
            .query(JobId(0))
            .expect_err("query after the fault"),
    ];
    let ended = match server.wait() {
        Err(e) => e,
        Ok(_) => panic!("a sabotaged serve loop ended clean"),
    };
    (failure, after, ended)
}

fn assert_all_remote(errors: &[NetError]) {
    for e in errors {
        assert!(
            matches!(e, NetError::Remote { .. }),
            "expected an in-band Response::Error, got {e:?}"
        );
    }
}

#[test]
fn a_panicking_policy_ends_the_serve_loop_typed() {
    let (failure, after, ended) = within_timeout(|| sabotage(true));
    assert_all_remote(&[failure]);
    assert_all_remote(&after);
    match ended {
        NetServeError::WorkerPanicked { payload } => {
            assert!(
                payload.contains("saboteur policy met"),
                "payload: {payload}"
            )
        }
        other => panic!("expected WorkerPanicked, got {other:?}"),
    }
}

#[test]
fn a_rule_breaking_policy_ends_the_serve_loop_typed() {
    let (failure, after, ended) = within_timeout(|| sabotage(false));
    match &failure {
        NetError::Remote { detail } => assert!(detail.contains("scheduling failed"), "{detail}"),
        other => panic!("expected an in-band error, got {other:?}"),
    }
    assert_all_remote(&after);
    assert!(
        matches!(
            ended,
            NetServeError::Scheduling(SchedulingError::InvalidMachine { .. })
        ),
        "expected Scheduling(InvalidMachine), got {ended:?}"
    );
}
