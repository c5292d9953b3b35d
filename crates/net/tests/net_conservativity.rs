//! Network conservativity: the TCP front door is an invisible transport.
//! Both sides of every comparison are the same `Service` over the same
//! event kernel (one kernel, two configurations: submissions arriving over
//! a loopback socket vs in-process calls).
//!
//! * A run driven over a loopback socket is **bit-identical** (schedule,
//!   AWCT bits, outcome ledger, fault log) to the same run driven
//!   in-process, across policies and seeds — fault-free and single-tenant,
//!   and faulted with two tenants, one of them shed by its quota.
//! * The wire codec round-trips every request/response exactly, and no
//!   corruption — truncation, bit flips, hostile lengths — ever panics a
//!   decoder; every failure is a typed error.
//! * The handshake refuses wrong versions, wrong fingerprints, and
//!   unknown tenant tokens with typed errors.

use std::io::Cursor;

use mris_core::registry::online_policy_by_name;
use mris_net::{read_frame, write_frame, NetClient, Request, Response, MAX_FRAME_LEN};
use mris_rng::Rng;
use mris_service::{
    service_fingerprint, JobOutcome, MemorySink, NullSink, Service, ServiceConfig, ServiceReport,
    SimClock, TenantSpec,
};
use mris_sim::FaultPlan;
use mris_trace::{Arrivals, AzureTrace, AzureTraceConfig};
use mris_types::{
    AdmissionError, FaultEvent, FaultTarget, Instance, JobId, NetError, RestartSemantics, TenantId,
    TenantQuotaKind,
};

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

/// The tenant `job` is offered as: with two tenants configured, odd jobs
/// belong to the second.
fn tenant_of(cfg: &ServiceConfig, job: JobId) -> TenantId {
    TenantId((cfg.tenants.len() > 1 && job.0 % 2 == 1) as u32)
}

fn in_process_report(w: &Instance, policy: &str, cfg: &ServiceConfig) -> ServiceReport {
    let p = online_policy_by_name(policy, w, cfg.num_machines).expect("known policy");
    let mut svc =
        Service::new(w.clone(), p, cfg.clone(), SimClock::new(), NullSink).expect("valid config");
    // Every job at its release time, then drain; rejections land in the
    // outcome ledger.
    for job in w.jobs() {
        let _admission = svc
            .submit_at_as(job.release, job.id, tenant_of(cfg, job.id))
            .expect("no policy violation");
    }
    let (report, _) = svc.drain().expect("no policy violation");
    report
}

fn tcp_report(w: &Instance, policy: &'static str, cfg: &ServiceConfig) -> ServiceReport {
    let fp = service_fingerprint(w, cfg);
    let server = mris_net::serve_net(
        w.clone(),
        cfg.clone(),
        SimClock::new(),
        NullSink,
        move |inst, m| online_policy_by_name(policy, inst, m).expect("known policy"),
        "127.0.0.1:0",
    )
    .expect("bind loopback");
    let addr = server.addr().to_string();
    // One connection per tenant; a single-tenant door takes any token.
    let tokens: Vec<&str> = cfg.tenants.iter().map(|t| t.token.as_str()).collect();
    let mut clients: Vec<NetClient> = (if tokens.is_empty() { vec![""] } else { tokens })
        .into_iter()
        .map(|token| NetClient::connect(&addr, token, fp).expect("handshake"))
        .collect();
    for job in w.jobs() {
        let client = &mut clients[tenant_of(cfg, job.id).index()];
        let _ = client.submit_at(job.release, job.id).expect("transport ok");
    }
    let report = clients.remove(0).drain().expect("drain over wire");
    drop(clients);
    let (local, _) = server.wait().expect("server side clean");
    // The wire copy and the server's own copy agree too.
    assert_reports_equal(&local, &report);
    report
}

/// Equality on everything deterministic; wall-clock-derived fields
/// (wall_seconds, throughput, decision latency) are excluded by design.
fn assert_reports_equal(a: &ServiceReport, b: &ServiceReport) {
    assert_eq!(a.schedule, b.schedule, "schedules diverged");
    assert_eq!(a.outcomes, b.outcomes, "outcome ledgers diverged");
    assert_eq!(a.log, b.log, "fault logs diverged");
    assert_eq!(a.tenants, b.tenants, "tenant stats diverged");
    let (sa, sb) = (&a.summary, &b.summary);
    assert_eq!(sa.awct.to_bits(), sb.awct.to_bits(), "AWCT bits diverged");
    assert_eq!(sa.makespan.to_bits(), sb.makespan.to_bits());
    assert_eq!(sa.drained_at.to_bits(), sb.drained_at.to_bits());
    assert_eq!(sa.submitted, sb.submitted);
    assert_eq!(sa.accepted, sb.accepted);
    assert_eq!(sa.rejected_queue_full, sb.rejected_queue_full);
    assert_eq!(sa.rejected_infeasible, sb.rejected_infeasible);
    assert_eq!(sa.completed, sb.completed);
    assert_eq!(sa.epochs, sb.epochs);
    assert_eq!(sa.max_queue_depth, sb.max_queue_depth);
    assert_eq!(sa.failures, sb.failures);
}

/// The tentpole pin: a single-tenant TCP run equals the in-process run on
/// bits, across 3 policies and 16 seeds.
#[test]
fn tcp_is_bit_identical_to_in_process() {
    for policy in ["mris", "tetris", "pq-wsjf"] {
        for seed in 0..16u64 {
            let w = workload(0xC0DE + seed, 18);
            let cfg = ServiceConfig::new(MACHINES);
            let local = in_process_report(&w, policy, &cfg);
            let wire = tcp_report(&w, policy, &cfg);
            assert_reports_equal(&local, &wire);
            wire.log.verify().expect("chaos audit");
            // The ledger partition holds after the wire crossing too.
            for o in &wire.outcomes {
                assert!(!matches!(
                    o,
                    JobOutcome::NotSubmitted | JobOutcome::Accepted
                ));
            }
        }
    }
    // Faulted, two tenants: the fault log, the kill counts the aged weights
    // follow, and the typed tenant-quota rejections cross the wire too.
    let (mut kills, mut quota_sheds) = (0, 0);
    for policy in ["mris", "tetris", "pq-wsjf"] {
        for seed in 0..4u64 {
            let w = workload(0xFA17 + seed, 40);
            let cfg = faulted_config();
            let local = in_process_report(&w, policy, &cfg);
            let wire = tcp_report(&w, policy, &cfg);
            assert_reports_equal(&local, &wire);
            wire.log.verify().expect("chaos audit");
            kills += wire.log.total_kills();
            quota_sheds += (wire.outcomes.iter())
                .filter(|o| matches!(o, JobOutcome::Rejected(AdmissionError::TenantQuota { .. })))
                .count();
        }
    }
    assert!(
        kills > 0,
        "no strike killed a job; the faulted case lost its teeth"
    );
    assert!(
        quota_sheds > 0,
        "no tenant quota fired; the faulted case lost its teeth"
    );
}

/// Two tenants, the second held to one queued job while one-unit epochs
/// batch the deliveries; weight aging; a strike on a fixed machine and one
/// on the busiest.
fn faulted_config() -> ServiceConfig {
    let strike = |at, downtime, target| FaultEvent {
        at,
        downtime,
        target,
    };
    ServiceConfig::builder(MACHINES)
        .epoch(1.0)
        .tenants(vec![
            TenantSpec::new("alpha", "tok-a", 2.0),
            TenantSpec::new("beta", "tok-b", 1.0).queue_watermark(1),
        ])
        .restart(RestartSemantics::WeightAging { factor: 1.5 })
        .fault_plan(FaultPlan::from_events(vec![
            strike(2.0, 1.5, FaultTarget::Machine(1)),
            strike(4.0, 1.0, FaultTarget::Busiest),
        ]))
        .build()
        .expect("valid")
}

/// Watermarked configs shed over TCP exactly as in-process, so rejection
/// ledgers (typed AdmissionError payloads) survive the wire.
#[test]
fn tcp_preserves_rejection_ledgers() {
    // Pre-submit every job at t = 0 (releases lie in the future) so the
    // admission queue builds past the watermark and sheds.
    let w = workload(0xBEEF, 40);
    let cfg = ServiceConfig::builder(MACHINES)
        .queue_watermark(3)
        .build()
        .expect("valid");

    let p = online_policy_by_name("pq-wsjf", &w, MACHINES).expect("known policy");
    let mut svc =
        Service::new(w.clone(), p, cfg.clone(), SimClock::new(), NullSink).expect("valid config");
    for job in w.jobs() {
        let _ = svc.submit_at(0.0, job.id).expect("no policy violation");
    }
    let (local, _) = svc.drain().expect("drain");

    let fp = service_fingerprint(&w, &cfg);
    let server = mris_net::serve_net(
        w.clone(),
        cfg,
        SimClock::new(),
        NullSink,
        |inst, m| online_policy_by_name("pq-wsjf", inst, m).expect("known policy"),
        "127.0.0.1:0",
    )
    .expect("bind loopback");
    let addr = server.addr().to_string();
    let mut client = NetClient::connect(&addr, "", fp).expect("handshake");
    for job in w.jobs() {
        let _ = client.submit_at(0.0, job.id).expect("transport ok");
    }
    let wire = client.drain().expect("drain over wire");
    let _ = server.wait().expect("server side clean");

    assert_reports_equal(&local, &wire);
    assert!(
        wire.summary.rejected_queue_full > 0,
        "watermark never fired; the test lost its teeth"
    );
    // Rejected outcomes carry their typed AdmissionError across the wire.
    assert!(wire
        .outcomes
        .iter()
        .any(|o| matches!(o, JobOutcome::Rejected(AdmissionError::QueueFull { .. }))));
}

/// Handshake refusals: wrong version, wrong fingerprint, bad token.
#[test]
fn handshake_refuses_typed() {
    let w = workload(7, 6);
    let cfg = ServiceConfig::builder(MACHINES)
        .tenants(vec![
            TenantSpec::new("alpha", "alpha-token", 3.0),
            TenantSpec::new("beta", "beta-token", 1.0),
        ])
        .build()
        .expect("valid");
    let fp = service_fingerprint(&w, &cfg);
    let server = mris_net::serve_net(
        w.clone(),
        cfg.clone(),
        SimClock::new(),
        NullSink,
        |inst, m| online_policy_by_name("tetris", inst, m).expect("known"),
        "127.0.0.1:0",
    )
    .expect("bind");
    let addr = server.addr().to_string();

    match NetClient::connect(&addr, "alpha-token", fp ^ 1) {
        Err(NetError::FingerprintMismatch { server, client }) => {
            assert_eq!(server, fp);
            assert_eq!(client, fp ^ 1);
        }
        Err(e) => panic!("expected fingerprint refusal, got {e:?}"),
        Ok(_) => panic!("mismatched fingerprint was accepted"),
    }
    match NetClient::connect(&addr, "who-goes-there", fp) {
        Err(NetError::AuthFailed) => {}
        Err(e) => panic!("expected auth refusal, got {e:?}"),
        Ok(_) => panic!("unknown token was accepted"),
    }
    // Correct token authenticates to the right tenant.
    let beta = NetClient::connect(&addr, "beta-token", fp).expect("beta handshake");
    assert_eq!(beta.tenant(), 1);
    assert_eq!(beta.fingerprint(), fp);

    // Submit as both tenants over the wire, then drain; the report's
    // tenant table carries the split.
    let mut alpha = NetClient::connect(&addr, "alpha-token", fp).expect("alpha handshake");
    let mut beta = beta;
    for job in w.jobs() {
        let client = if job.id.0 % 2 == 0 {
            &mut alpha
        } else {
            &mut beta
        };
        let _ = client.submit_at(job.release, job.id).expect("transport");
    }
    let report = alpha.drain().expect("drain");
    assert_eq!(report.tenants.len(), 2);
    assert_eq!(report.tenants[0].name, "alpha");
    let offered: u64 = report.tenants.iter().map(|t| t.admitted + t.rejected).sum();
    assert_eq!(offered as usize, w.len());
    let _ = server.wait().expect("clean serve");
}

/// Query, Stats, and Subscribe over a live server.
#[test]
fn query_stats_subscribe_roundtrip() {
    let w = workload(21, 10);
    let cfg = ServiceConfig::new(MACHINES);
    let fp = service_fingerprint(&w, &cfg);
    let server = mris_net::serve_net(
        w.clone(),
        cfg,
        SimClock::new(),
        MemorySink::default(),
        |inst, m| online_policy_by_name("pq-wsjf", inst, m).expect("known"),
        "127.0.0.1:0",
    )
    .expect("bind");
    let addr = server.addr().to_string();
    let mut sub = NetClient::connect(&addr, "", fp).expect("subscriber");
    sub.subscribe().expect("subscribe");
    let mut client = NetClient::connect(&addr, "", fp).expect("driver");

    assert!(matches!(
        client.query(JobId(0)).expect("query"),
        JobOutcome::NotSubmitted
    ));
    for job in w.jobs() {
        let _ = client.submit_at(job.release, job.id).expect("transport");
    }
    let stats = client.stats().expect("stats");
    assert_eq!(stats.submitted as usize, w.len());
    assert_eq!(stats.submitted, stats.accepted + stats.rejected);
    // Unknown jobs are in-band errors, not panics or hangs.
    match client.query(JobId(9999)) {
        Err(NetError::Remote { .. }) => {}
        other => panic!("expected remote error, got {other:?}"),
    }
    let report = client.drain().expect("drain");
    assert_eq!(report.summary.completed, report.summary.accepted);
    // The subscriber saw at least one epoch line and the summary line.
    let first = sub.next_telemetry().expect("telemetry line");
    assert!(first.contains("\"event\""), "not a JSONL event: {first}");
    let mut saw_summary = first.contains("\"summary\"") || first.contains("awct");
    while let Ok(line) = sub.next_telemetry() {
        saw_summary |= line.contains("awct");
    }
    assert!(saw_summary, "summary line never reached the subscriber");
    let _ = server.wait().expect("clean serve");
}

/// An offer the service refuses as invalid — an unknown or a repeated
/// job — is an in-band error with the door's detail text, alone or inside
/// a batch, and the server's clock and counts do not move.
#[test]
fn invalid_offers_answer_in_band_errors() {
    let w = workload(5, 4);
    let cfg = ServiceConfig::new(MACHINES);
    let server = mris_net::serve_net(
        w.clone(),
        cfg,
        SimClock::new(),
        NullSink,
        |inst, m| online_policy_by_name("pq-wsjf", inst, m).expect("known"),
        "127.0.0.1:0",
    )
    .expect("bind");
    let addr = server.addr().to_string();
    let mut client = NetClient::connect(&addr, "", 0).expect("handshake");
    client
        .submit_at(0.0, JobId(0))
        .expect("transport")
        .expect("admitted");
    let before = client.stats().expect("stats");
    fn remote<T: std::fmt::Debug>(r: Result<T, NetError>) -> String {
        match r {
            Err(NetError::Remote { detail }) => detail,
            other => panic!("expected an in-band error, got {other:?}"),
        }
    }
    assert_eq!(
        remote(client.submit_at(1e9, JobId(0))),
        "job 0 was already submitted"
    );
    assert_eq!(
        remote(client.submit(JobId(4))),
        "job 4 is out of range for the served instance"
    );
    assert_eq!(
        remote(client.submit_batch(&[(JobId(9), Some(1e9))])),
        "job 9 is out of range for the served instance"
    );
    assert_eq!(client.stats().expect("stats"), before);
    let _ = client.drain().expect("drain");
    let _ = server.wait().expect("clean serve");
}

/// After a drain, new requests on fresh connections answer in-band errors.
#[test]
fn drained_server_answers_errors() {
    let w = workload(3, 4);
    let cfg = ServiceConfig::new(1);
    let server = mris_net::serve_net(
        w.clone(),
        cfg,
        SimClock::new(),
        NullSink,
        |inst, m| online_policy_by_name("tetris", inst, m).expect("known"),
        "127.0.0.1:0",
    )
    .expect("bind");
    let addr = server.addr().to_string();
    let client = NetClient::connect(&addr, "", 0).expect("handshake");
    let _ = client.drain().expect("drain");
    let _ = server.wait().expect("clean");
    // The listener is gone (or refuses) after the drain; either a failed
    // connect or an in-band error is acceptable — never a hang or panic.
    if let Ok(mut late) = NetClient::connect(&addr, "", 0) {
        match late.submit(JobId(0)) {
            Err(_) => {}
            Ok(_) => panic!("drained server admitted a job"),
        }
    }
}

// ---------------------------------------------------------------------------
// Wire codec properties (mirrors tests/durability_codec.rs)
// ---------------------------------------------------------------------------

fn all_requests() -> Vec<Request> {
    vec![
        Request::Submit { job: 0, at: None },
        Request::Submit {
            job: u32::MAX,
            at: Some(-0.0),
        },
        Request::SubmitBatch {
            jobs: vec![(1, None), (2, Some(3.5)), (u32::MAX, Some(1e300))],
        },
        Request::SubmitBatch { jobs: vec![] },
        Request::Query { job: 17 },
        Request::Stats,
        Request::Subscribe,
        Request::Drain,
    ]
}

fn sample_responses() -> Vec<Response> {
    vec![
        Response::Error {
            detail: "nope".to_string(),
        },
        Response::Submitted { result: Ok(()) },
        Response::Submitted {
            result: Err(AdmissionError::QueueFull {
                depth: 9,
                watermark: 8,
            }),
        },
        Response::Submitted {
            result: Err(AdmissionError::DemandInfeasible {
                job: JobId(3),
                resource: 1,
                queued: 1.5,
                budget: 1.25,
            }),
        },
        Response::Submitted {
            result: Err(AdmissionError::TenantQuota {
                tenant: TenantId(2),
                kind: TenantQuotaKind::FairShare {
                    deficit: 10,
                    cost: 500_000,
                },
            }),
        },
        Response::Submitted {
            result: Err(AdmissionError::TenantQuota {
                tenant: TenantId(1),
                kind: TenantQuotaKind::QueueDepth {
                    depth: 4,
                    watermark: 4,
                },
            }),
        },
        Response::Submitted {
            result: Err(AdmissionError::TenantQuota {
                tenant: TenantId(0),
                kind: TenantQuotaKind::QueuedDemand {
                    queued: 0.75,
                    budget: 0.5,
                },
            }),
        },
        Response::BatchSubmitted {
            results: vec![
                Ok(()),
                Err(AdmissionError::QueueFull {
                    depth: 1,
                    watermark: 1,
                }),
            ],
        },
        Response::JobStatus {
            outcome: JobOutcome::Completed,
        },
        Response::JobStatus {
            outcome: JobOutcome::Rejected(AdmissionError::QueueFull {
                depth: usize::MAX,
                watermark: usize::MAX,
            }),
        },
        Response::Submitted {
            result: Err(AdmissionError::UnknownJob {
                job: JobId(40),
                jobs: 40,
            }),
        },
        Response::Submitted {
            result: Err(AdmissionError::AlreadySubmitted { job: JobId(7) }),
        },
        Response::Submitted {
            result: Err(AdmissionError::UnknownTenant {
                tenant: TenantId(3),
                tenants: 2,
            }),
        },
        Response::JobStatus {
            outcome: JobOutcome::Rejected(AdmissionError::TenantQuota {
                tenant: TenantId(1),
                kind: TenantQuotaKind::QueuedDemand {
                    queued: 0.5,
                    budget: 0.25,
                },
            }),
        },
        Response::Subscribed,
        Response::Telemetry {
            line: "{\"event\": \"epoch\"}".to_string(),
        },
    ]
}

/// A drained response with real payload for fuzzing: run a tiny service.
fn real_drained_response() -> Response {
    let w = workload(11, 8);
    let cfg = ServiceConfig::new(MACHINES);
    let report = in_process_report(&w, "pq-wsjf", &cfg);
    Response::Drained(Box::new(report))
}

#[test]
fn wire_round_trip_is_exact() {
    for req in all_requests() {
        let bytes = Request::encode(&req);
        assert_eq!(Request::decode(&bytes).expect("own encoding"), req);
    }
    for resp in sample_responses() {
        let bytes = resp.encode();
        assert_eq!(Response::decode(&bytes).expect("own encoding"), resp);
    }
    let drained = real_drained_response();
    let bytes = drained.encode();
    let back = Response::decode(&bytes).expect("own encoding");
    match (&drained, &back) {
        (Response::Drained(a), Response::Drained(b)) => assert_reports_equal(a, b),
        _ => panic!("drained response changed shape"),
    }
}

/// Truncating any payload at every boundary is a typed error, never a
/// panic; same for every single-byte flip (or it decodes to a different
/// value — never silently the same).
#[test]
fn corrupted_payloads_are_typed_or_divergent() {
    let mut payloads: Vec<Vec<u8>> = all_requests().iter().map(Request::encode).collect();
    payloads.extend(sample_responses().iter().map(Response::encode));
    payloads.push(real_drained_response().encode());
    for bytes in &payloads {
        for cut in 0..bytes.len() {
            let _ = Request::decode(&bytes[..cut]);
            let _ = Response::decode(&bytes[..cut]);
        }
    }
    let mut rng = Rng::new(0xFA22).substream("net-fuzz");
    for bytes in &payloads {
        for _ in 0..32 {
            let mut bad = bytes.clone();
            let flips = 1 + rng.next_u64_below(4) as usize;
            for _ in 0..flips {
                let bit = rng.next_u64_below(bad.len() as u64 * 8);
                bad[(bit / 8) as usize] ^= 1 << (bit % 8);
            }
            // Typed or fine — but never a panic.
            let _ = Request::decode(&bad);
            let _ = Response::decode(&bad);
        }
    }
    // Pure garbage too.
    for len in [0usize, 1, 7, 64, 1024] {
        let junk: Vec<u8> = (0..len).map(|_| rng.next_u64_below(256) as u8).collect();
        let _ = Request::decode(&junk);
        let _ = Response::decode(&junk);
    }
}

/// A drained report is checked as a snapshot's run section is: a fault
/// log naming a machine past the schedule's or a job past the outcomes, a
/// kill count that disagrees with the failures, or an outcome that is an
/// invalid offer is a typed `Malformed` error, not a report.
#[test]
fn hostile_drained_reports_are_typed() {
    let w = workload(0xFA17, 40);
    let report = in_process_report(&w, "pq-wsjf", &faulted_config());
    let (jobs, machines) = (w.len() as u32, report.schedule.num_machines());
    assert!(!report.log.recoveries.is_empty(), "no machine failed");
    let victim = *(report.log.failures.iter())
        .find_map(|f| f.killed.first())
        .expect("a strike killed a job");
    type Edit = Box<dyn Fn(&mut ServiceReport)>;
    let edits: Vec<(&str, Edit)> = vec![
        (
            "failure on a machine past the schedule's",
            Box::new(move |r| r.log.failures[0].machine = machines),
        ),
        (
            "recovery of a machine past the schedule's",
            Box::new(move |r| r.log.recoveries[0].1 = machines),
        ),
        (
            "completion on a machine past the schedule's",
            Box::new(move |r| r.log.completions[0].machine = machines),
        ),
        (
            "killed job past the outcomes",
            Box::new(move |r| r.log.failures[0].killed.push(JobId(jobs))),
        ),
        (
            "completed job past the outcomes",
            Box::new(move |r| r.log.completions[0].job = JobId(jobs)),
        ),
        (
            "kill count above the failures listing the job",
            Box::new(move |r| r.log.re_releases[victim.index()] += 1),
        ),
        (
            "kill count below the failures listing the job",
            Box::new(move |r| r.log.re_releases[victim.index()] -= 1),
        ),
        (
            "kill-count table of another length",
            Box::new(|r| r.log.re_releases.push(0)),
        ),
        (
            "an invalid offer in the ledger",
            Box::new(|r| {
                r.outcomes[0] =
                    JobOutcome::Rejected(AdmissionError::AlreadySubmitted { job: JobId(0) })
            }),
        ),
    ];
    for (what, edit) in edits {
        let mut bad = report.clone();
        edit(&mut bad);
        match Response::decode(&Response::Drained(Box::new(bad)).encode()) {
            Err(mris_types::CodecError::Malformed { .. }) => {}
            other => panic!("{what}: expected Malformed, got {other:?}"),
        }
    }
    let status = Response::JobStatus {
        outcome: JobOutcome::Rejected(AdmissionError::UnknownJob {
            job: JobId(jobs),
            jobs: jobs as usize,
        }),
    };
    assert!(matches!(
        Response::decode(&status.encode()),
        Err(mris_types::CodecError::Malformed { .. })
    ));
}

/// The frame layer: checksum mismatches, hostile lengths, and torn frames
/// are typed; a round-tripped frame is exact.
#[test]
fn frame_layer_is_typed() {
    let payload = Request::Stats.encode();
    let mut buf = Vec::new();
    write_frame(&mut buf, &payload).expect("write to vec");
    let got = read_frame(&mut Cursor::new(&buf)).expect("read own frame");
    assert_eq!(got, payload);

    // Flip a payload byte: checksum mismatch.
    let mut bad = buf.clone();
    let last = bad.len() - 1;
    bad[last] ^= 0xFF;
    match read_frame(&mut Cursor::new(&bad)) {
        Err(NetError::Codec(mris_types::CodecError::ChecksumMismatch { .. })) => {}
        other => panic!("expected checksum mismatch, got {other:?}"),
    }

    // Hostile length field: typed, no allocation bomb.
    let mut hostile = Vec::new();
    hostile.extend_from_slice(&u32::MAX.to_le_bytes());
    hostile.extend_from_slice(&0u32.to_le_bytes());
    match read_frame(&mut Cursor::new(&hostile)) {
        Err(NetError::Codec(mris_types::CodecError::Malformed { .. })) => {}
        other => panic!("expected malformed length, got {other:?}"),
    }

    // Torn frames at every cut: typed, never a panic.
    for cut in 0..buf.len() {
        match read_frame(&mut Cursor::new(&buf[..cut])) {
            Ok(_) => panic!("torn frame decoded at cut {cut}"),
            Err(NetError::Closed) => assert_eq!(cut, 0, "Closed only before the first byte"),
            Err(_) => {}
        }
    }

    // Empty stream is a clean close.
    assert!(matches!(
        read_frame(&mut Cursor::new(&[] as &[u8])),
        Err(NetError::Closed)
    ));
}

/// A payload the reader would refuse is refused by the writer, before any
/// byte of its frame is written.
#[test]
fn oversized_payload_is_refused_before_a_byte() {
    let payload = vec![0u8; MAX_FRAME_LEN as usize + 1];
    let mut out = Vec::new();
    match write_frame(&mut out, &payload) {
        Err(NetError::FrameTooLarge { len, cap }) => {
            assert_eq!((len, cap), (payload.len() as u64, MAX_FRAME_LEN));
        }
        other => panic!("expected FrameTooLarge, got {other:?}"),
    }
    assert!(out.is_empty(), "{} bytes written", out.len());
}
