//! `frontdoor`: PQ-WSJF (a near-free policy, so the door is the cost)
//! behind `mris_net::serve_net`, driven by one `NetClient` over loopback:
//! wire frame → handler thread → worker → admission, reads beside writes.
//! Every rep binds a fresh server.
//!
//! `serve_net` cannot attach a journal, so TCP and the WAL in one run is
//! not expressible from outside the program; `durable` covers the journal.

use std::process::Command;
use std::time::Instant;

use mris_core::registry::online_policy_by_name;
use mris_net::{serve_net, NetClient, NetServer, NetStats, Request, Response};
use mris_service::{
    service_fingerprint, JobOutcome, NullSink, Service, ServiceConfig, ServiceReport, SimClock,
};
use mris_types::{ClusterSpec, Instance, Job, JobId, Schedule};

use crate::harness::{cpu_ticks, drive, fastest_ns_per, measure, Checks, Ctx, Layers, Rep};
use crate::inputs::poisson_instance;
use crate::layers::{pq_baseline, quality, setup_layers};
use crate::report::{percentile, Row};
use crate::spans::Tracer;
use crate::spec::{self, QUERY_EVERY, STATS_EVERY};

type Door = (NetServer<NullSink>, NetClient);

fn policy(instance: &Instance, machines: usize) -> Box<dyn mris_sim::OnlinePolicy> {
    online_policy_by_name("pq-wsjf", instance, machines).expect("registered policy")
}

/// Binds a fresh server on an ephemeral loopback port and connects the one
/// client, checking the world's fingerprint in the handshake.
fn open_door(instance: &Instance, machines: usize) -> Door {
    let cfg = ServiceConfig::new(machines);
    let fingerprint = service_fingerprint(instance, &cfg);
    let server = serve_net(
        instance.clone(),
        cfg,
        SimClock::new(),
        NullSink,
        policy,
        "127.0.0.1:0",
    )
    .expect("bind an ephemeral loopback port");
    let client =
        NetClient::connect(&server.addr().to_string(), "", fingerprint).expect("loopback connect");
    (server, client)
}

/// Drains over the wire and joins the server's threads.
fn close_door((server, client): Door) -> ServiceReport {
    let report = client.drain().expect("drain round trip");
    server.wait().expect("server threads join cleanly");
    report
}

fn in_process(instance: &Instance, machines: usize) -> Service<SimClock, NullSink> {
    Service::new(
        instance.clone(),
        policy(instance, machines),
        ServiceConfig::new(machines),
        SimClock::new(),
        NullSink,
    )
    .expect("permissive config is valid")
}

/// One request of the workload's mix.
enum Op<'a> {
    Submit(&'a Job),
    /// Asks about a job submitted earlier.
    Query(JobId),
    /// Sent after this many submits.
    Stats(u64),
}

/// The requests of one rep in order: a submit per job, a query after every
/// [`QUERY_EVERY`]th and a stats after every [`STATS_EVERY`]th.
fn ops(instance: &Instance) -> impl Iterator<Item = Op<'_>> {
    instance.jobs().iter().enumerate().flat_map(|(i, job)| {
        let query =
            (i % QUERY_EVERY == QUERY_EVERY - 1).then_some(Op::Query(JobId((i / 2) as u32)));
        let stats = (i % STATS_EVERY == STATS_EVERY - 1).then_some(Op::Stats(i as u64 + 1));
        [Some(Op::Submit(job)), query, stats].into_iter().flatten()
    })
}

#[derive(PartialEq)]
struct Inputs {
    instance: Instance,
    pq_awct: f64,
    /// Schedule of the same instance through an in-process `Service`.
    reference: Schedule,
}

/// Client-side samples of the traced run's plain reps.
#[derive(Default)]
struct Samples {
    submit_us: Vec<f64>,
    query_us: Vec<f64>,
    stats_us: Vec<f64>,
    connect_us: Vec<f64>,
    drain_ms: Vec<f64>,
    user_ticks: f64,
    sys_ticks: f64,
    stats: Option<NetStats>,
    events: usize,
}

pub fn run(ctx: &Ctx, tr: &mut Tracer, checks: &mut Checks) -> Vec<Row> {
    let (n, machines) = (ctx.jobs(), ctx.spec.machines);
    let cluster = ClusterSpec::uniform(machines);
    let mut samples = Samples::default();

    let m = measure(
        ctx,
        tr,
        checks,
        |tr, checks| {
            let (instance, _) = tr.scope("trace.generate", 0, |_| {
                poisson_instance(ctx.spec, n, ctx.seed)
            });
            let pq_awct = pq_baseline(&instance, &cluster, tr, checks);
            let (service, _, _) = drive(in_process(&instance, machines), &instance, tr, checks)
                .expect("policy placed every job legally");
            let (report, _) = service.drain().expect("drain after quiescence");
            checks.service_report("frontdoor reference", &instance, &report);
            let (door, _) = tr.scope("net.connect", 0, |_| open_door(&instance, machines));
            close_door(door);
            Inputs {
                instance,
                pq_awct,
                reference: report.schedule,
            }
        },
        |inputs, tr, checks, cal| {
            let instance = &inputs.instance;
            let keep = ctx.traced && !tr.recording;
            let ticks = cpu_ticks();
            let ((server, mut client), connect_s) =
                tr.scope("net.connect", 0, |_| open_door(instance, machines));
            let before = cal.kernel_ms();
            let started = Instant::now();
            let mut calls = tr.calls();
            for op in ops(instance) {
                let (kept, rtt) = match op {
                    Op::Submit(job) => {
                        let admitted = client
                            .submit_at(job.release, job.id)
                            .expect("submit round trip");
                        let rtt = calls.done("net.submit_at", job.id.0);
                        checks.check(admitted.is_ok(), || {
                            format!("{} rejected: {admitted:?}", job.id)
                        });
                        (&mut samples.submit_us, rtt)
                    }
                    Op::Query(job) => {
                        let outcome = client.query(job).expect("query round trip");
                        let rtt = calls.done("net.query", job.0);
                        checks.check(
                            matches!(outcome, JobOutcome::Accepted | JobOutcome::Completed),
                            || format!("{job} queried after its submit is {outcome:?}"),
                        );
                        (&mut samples.query_us, rtt)
                    }
                    Op::Stats(submitted) => {
                        let stats = client.stats().expect("stats round trip");
                        let rtt = calls.done("net.stats", submitted as u32);
                        checks.check(stats.submitted == submitted && stats.rejected == 0, || {
                            format!("stats after {submitted} submits: {stats:?}")
                        });
                        samples.stats = Some(stats);
                        (&mut samples.stats_us, rtt)
                    }
                };
                if keep {
                    kept.push(rtt * 1e6);
                }
            }
            let report = client.drain().expect("drain round trip");
            let drain_s = calls.done("net.drain", 0);
            let stall_s = calls.longest_s();
            let wall_s = started.elapsed().as_secs_f64();
            let factor = cal.factor(before);
            server.wait().expect("server threads join cleanly");
            if keep {
                let now = cpu_ticks();
                samples.user_ticks += now.0 - ticks.0;
                samples.sys_ticks += now.1 - ticks.1;
                samples.connect_us.push(connect_s * 1e6);
                samples.drain_ms.push(drain_s * 1e3);
                samples.events = report.summary.epochs;
            }
            checks.service_report("frontdoor", instance, &report);
            checks.check(report.schedule == inputs.reference, || {
                "the schedule over TCP differs from the in-process schedule".into()
            });
            let (awct, makespan) = quality(instance, &cluster, &report.schedule);
            Rep {
                wall_s,
                stall_s,
                factor,
                awct,
                makespan,
            }
        },
    );
    if !ctx.traced {
        return m.end_to_end(n, m.inputs.pq_awct, checks);
    }

    let Inputs {
        instance,
        reference,
        ..
    } = &m.inputs;
    let mut layers = Layers::default();
    setup_layers(&mut layers, tr, n, &m);
    for (p50, tail, values) in [
        (
            "net.submit_rtt_us_p50",
            Some(("net.submit_rtt_us_p99", "net.submit_rtt_us_p999")),
            &mut samples.submit_us,
        ),
        ("net.query_rtt_us_p50", None, &mut samples.query_us),
        ("net.stats_rtt_us_p50", None, &mut samples.stats_us),
    ] {
        values.sort_by(f64::total_cmp);
        layers.set_n(p50, percentile(values, 50.0), values.len());
        if let Some((p99, p999)) = tail {
            layers.set_n(p99, percentile(values, 99.0), values.len());
            layers.set_n(p999, percentile(values, 99.9), values.len());
        }
    }
    let fastest = |values: &[f64]| values.iter().copied().fold(f64::INFINITY, f64::min);
    layers.set_n(
        "net.connect_us",
        fastest(&samples.connect_us),
        samples.connect_us.len(),
    );
    layers.set_n(
        "net.drain_ms",
        fastest(&samples.drain_ms),
        samples.drain_ms.len(),
    );
    layers.set(
        "net.cpu_sys_share",
        samples.sys_ticks / (samples.user_ticks + samples.sys_ticks).max(1.0),
    );
    layers.set("service.events", samples.events as f64);

    // `submit_batch` of 32: the per-request cost shared by a frame.
    let (server, mut client) = open_door(instance, machines);
    let (admitted, batch_s) = tr.scope("net.submit_batch", 0, |_| {
        let mut admitted = 0;
        for chunk in instance.jobs().chunks(32) {
            let offers: Vec<_> = chunk.iter().map(|j| (j.id, Some(j.release))).collect();
            let verdicts = client.submit_batch(&offers).expect("batch round trip");
            admitted += verdicts.iter().filter(|v| v.is_ok()).count();
        }
        admitted
    });
    checks.check(admitted == n, || {
        format!("submit_batch admitted {admitted} of {n}")
    });
    checks.check(close_door((server, client)).schedule == *reference, || {
        "the schedule of batched submits differs from the in-process schedule".into()
    });
    layers.set("net.batch32_us_per_job", batch_s * 1e6 / n as f64);

    // The same operations against an in-process `Service`: what is left of
    // the TCP wall without the transport.
    let mut service = in_process(instance, machines);
    let (_, inproc_s) = tr.scope("service.same_ops", 0, |_| {
        for op in ops(instance) {
            match op {
                Op::Submit(job) => {
                    let _ = service
                        .submit_at(job.release, job.id)
                        .expect("policy placed every job legally");
                }
                Op::Query(job) => {
                    std::hint::black_box(service.outcome(job));
                }
                // What the server's `stats` handler does: walk the ledger.
                Op::Stats(_) => {
                    let completed = (0..n)
                        .filter(|&j| service.outcome(JobId(j as u32)) == JobOutcome::Completed)
                        .count();
                    std::hint::black_box((completed, service.now(), service.queue_depth()));
                }
            }
        }
        service.drain().expect("drain after the last submit")
    });
    let num_ops = ops(instance).count();
    layers.set_n(
        "net.inproc_us_per_op",
        inproc_s * 1e6 / num_ops as f64,
        num_ops,
    );
    layers.set("net.transport_share", 1.0 - inproc_s / m.fastest_wall_s());
    layers.set("service.loop_ns_per_job", inproc_s * 1e9 / n as f64);

    // Encode + decode of the frame mix one rep sends and receives.
    let stats = samples.stats.take();
    let frames: Vec<(Request, Response)> = ops(instance)
        .map(|op| match op {
            Op::Submit(job) => (
                Request::Submit {
                    job: job.id.0,
                    at: Some(job.release),
                },
                Response::Submitted { result: Ok(()) },
            ),
            Op::Query(job) => (
                Request::Query { job: job.0 },
                Response::JobStatus {
                    outcome: JobOutcome::Completed,
                },
            ),
            Op::Stats(_) => (
                Request::Stats,
                Response::StatsReply(stats.clone().expect("a rep asked for stats")),
            ),
        })
        .collect();
    let (codec_ns, _) = tr.scope("net.codec", 0, |_| {
        fastest_ns_per(2 * frames.len(), ctx.seconds / 20.0, || {
            for (request, response) in &frames {
                std::hint::black_box(
                    Request::decode(&request.encode()).expect("own frame decodes"),
                );
                std::hint::black_box(
                    Response::decode(&response.encode()).expect("own frame decodes"),
                );
            }
        })
    });
    layers.set_n("net.codec_ns_per_frame", codec_ns, 2 * frames.len());

    // The same door with the three threads free to land on every CPU: the
    // cross-CPU wake-up mode the pinned runs avoid. A diagnostic.
    let requests = ctx.scaled(20_000);
    let child = Command::new("taskset")
        .args(["-c", &ctx.all_cpus])
        .arg(std::env::current_exe().expect("path of this executable"))
        .args(["unpinned-rtt", "--seed", &ctx.seed.to_string()])
        .args(["--requests", &requests.to_string()])
        .output()
        .expect("run the unpinned diagnostic under taskset");
    let unpinned = String::from_utf8_lossy(&child.stdout).trim().parse::<f64>();
    checks.check(child.status.success() && unpinned.is_ok(), || {
        format!(
            "unpinned diagnostic failed: {}",
            String::from_utf8_lossy(&child.stderr)
        )
    });
    layers.set_n("net.unpinned_rtt_us_p50", unpinned.unwrap_or(0.0), requests);
    layers.rows()
}

/// The child process of `net.unpinned_rtt_us_p50`: submits `requests` jobs
/// through a fresh door and prints the median round trip in µs.
pub fn unpinned_rtt(seed: u64, requests: usize) {
    let spec = spec::workload("frontdoor").expect("frontdoor is a workload");
    let instance = poisson_instance(spec, requests, seed);
    let (server, mut client) = open_door(&instance, spec.machines);
    let mut rtt_us = Vec::with_capacity(requests);
    for job in instance.jobs() {
        let sent = Instant::now();
        let _ = client
            .submit_at(job.release, job.id)
            .expect("submit round trip");
        rtt_us.push(sent.elapsed().as_secs_f64() * 1e6);
    }
    close_door((server, client));
    rtt_us.sort_by(f64::total_cmp);
    println!("{}", percentile(&rtt_us, 50.0));
}
