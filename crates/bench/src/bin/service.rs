//! Service-mode benchmark (`BENCH_service.json`).
//!
//! Drives the `mris-service` daemon loop — admission control, epoch
//! batching, telemetry — with the open-loop load generator, for MRIS and
//! every comparison baseline, under two arrival processes (Poisson at a
//! target utilization, and periodic bursts). Reports sustained throughput
//! (completed jobs per wall second) and the p50/p95/p99 per-event decision
//! latency of each policy, plus the admission ledger.
//!
//! The Poisson/permissive run is additionally pinned: every submitted job
//! completes (nothing is shed or stranded by the service machinery itself).
//!
//! The `net` section drives the same Poisson workload through the
//! `mris-net` loopback TCP front door with a single client: per-submit
//! round-trip latency percentiles, end-to-end throughput against the
//! in-process baseline (the schedules must match bit-for-bit), and a
//! contended 2-tenant pass recording how close the deficit-round-robin
//! gate lands to its configured 3:1 admitted-demand split.
//!
//! A final obs-enabled MRIS pass per arrival process produces the
//! `stage_breakdown` section: wall-seconds and span counts for each stage
//! of the epoch decision path (`grid`/`filter`/`solve`/`probe`/`commit`,
//! from the `mris_epoch_*_seconds` span histograms). The timed passes above run with observability
//! disabled, so the breakdown never pollutes the throughput numbers.
//!
//! `cargo run --release -p mris-bench --bin service [--machines 8]
//!  [--jobs 2000] [--seed 11] [--utilization 0.7] [--smoke]
//!  [--out BENCH_service.json]`
//!
//! `--smoke` shrinks the workload so CI can validate the pipeline and the
//! JSON schema in seconds; full runs are for tracked numbers.

use mris_bench::Args;
use mris_core::registry::online_policy_by_name;
use mris_metrics::Percentiles;
use mris_obs::MetricValue;
use mris_service::{
    generate_workload, poisson_rate_for_utilization, run_workload, truncate_at_event,
    ArrivalProcess, DurabilityConfig, LoadGenConfig, MemorySnapshots, NullSink, RestoreOptions,
    Service, ServiceConfig, SharedBuf, SimClock, Workload,
};

/// One policy under one arrival process.
struct ServiceRow {
    process: &'static str,
    throughput: f64,
    latency_us: Percentiles,
    submitted: usize,
    completed: usize,
    rejected: usize,
    epochs: usize,
    max_queue_depth: usize,
    awct: f64,
}

impl ServiceRow {
    fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"process\": \"{}\", \"throughput_jobs_per_sec\": {:.3}, ",
                "\"decision_latency_us\": {{\"p50\": {:.3}, \"p95\": {:.3}, \"p99\": {:.3}}}, ",
                "\"submitted\": {}, \"completed\": {}, \"rejected\": {}, ",
                "\"epochs\": {}, \"max_queue_depth\": {}, \"awct\": {:.6}}}"
            ),
            self.process,
            self.throughput,
            self.latency_us.p50,
            self.latency_us.p95,
            self.latency_us.p99,
            self.submitted,
            self.completed,
            self.rejected,
            self.epochs,
            self.max_queue_depth,
            self.awct,
        )
    }
}

struct PolicyReport {
    name: &'static str,
    rows: Vec<ServiceRow>,
}

impl PolicyReport {
    fn to_json(&self) -> String {
        let rows: Vec<String> = self.rows.iter().map(|r| r.to_json()).collect();
        format!(
            "{{\"name\": \"{}\", \"results\": [{}]}}",
            self.name,
            rows.join(", ")
        )
    }
}

fn run_one(name: &str, process: &'static str, workload: &Workload, machines: usize) -> ServiceRow {
    let policy = online_policy_by_name(name, &workload.instance, machines)
        .expect("comparison names resolve to online policies");
    let service = Service::new(
        workload.instance.clone(),
        policy,
        ServiceConfig::new(machines),
        SimClock::new(),
        NullSink,
    )
    .expect("valid service config");
    let (report, _) = run_workload(service, workload)
        .unwrap_or_else(|e| panic!("{name}/{process}: service run failed: {e}"));
    let s = report.summary;
    // The permissive service must not lose work: everything submitted
    // completes.
    assert_eq!(
        s.completed,
        workload.instance.len(),
        "{name}/{process}: service dropped jobs"
    );
    assert_eq!(s.rejected_queue_full + s.rejected_infeasible, 0);
    report
        .log
        .verify()
        .unwrap_or_else(|v| panic!("{name}/{process}: invariant violation: {v}"));
    ServiceRow {
        process,
        throughput: s.throughput_jobs_per_sec,
        latency_us: s.decision_latency_us.expect("events were processed"),
        submitted: s.submitted,
        completed: s.completed,
        rejected: 0,
        epochs: s.epochs,
        max_queue_depth: s.max_queue_depth,
        awct: s.awct,
    }
}

/// Stage totals from one obs-enabled MRIS pass over a workload.
struct StageBreakdown {
    process: &'static str,
    /// `(stage, span count, total seconds)` for the five decision stages.
    stages: Vec<(&'static str, u64, f64)>,
}

impl StageBreakdown {
    fn to_json(&self) -> String {
        let stages: Vec<String> = self
            .stages
            .iter()
            .map(|(stage, count, seconds)| {
                format!("\"{stage}\": {{\"count\": {count}, \"seconds\": {seconds:.6}}}")
            })
            .collect();
        format!(
            "{{\"process\": \"{}\", \"stages\": {{{}}}}}",
            self.process,
            stages.join(", "),
        )
    }
}

/// Re-runs MRIS over `workload` with an [`mris_obs::Obs`] subscriber
/// installed (the timed passes run with observability disabled, where the
/// `span!` sites are a single relaxed load) and reads the per-stage span
/// histograms back out of the registry.
fn stage_breakdown(process: &'static str, workload: &Workload, machines: usize) -> StageBreakdown {
    let obs = std::sync::Arc::new(mris_obs::Obs::new());
    let guard = mris_obs::install_guard(obs.clone());
    let policy = online_policy_by_name("mris", &workload.instance, machines)
        .expect("mris resolves to an online policy");
    let service = Service::new(
        workload.instance.clone(),
        policy,
        ServiceConfig::new(machines),
        SimClock::new(),
        NullSink,
    )
    .expect("valid service config");
    run_workload(service, workload)
        .unwrap_or_else(|e| panic!("mris/{process}: breakdown run failed: {e}"));
    drop(guard);

    const STAGES: [(&str, &str); 5] = [
        ("grid", "mris_epoch_grid_seconds"),
        ("filter", "mris_epoch_filter_seconds"),
        ("solve", "mris_epoch_solve_seconds"),
        ("probe", "mris_epoch_probe_seconds"),
        ("commit", "mris_epoch_commit_seconds"),
    ];
    let snapshot = obs.registry().snapshot();
    let stages = STAGES
        .iter()
        .map(|&(stage, family)| {
            let (count, sum) = snapshot
                .iter()
                .find_map(|(name, _, value)| match value {
                    MetricValue::Histogram(h) if *name == family => Some((h.count, h.sum)),
                    _ => None,
                })
                .unwrap_or((0, 0.0));
            (stage, count, sum)
        })
        .collect();
    StageBreakdown { process, stages }
}

/// Journal-on vs journal-off throughput plus restore latency at growing
/// journal-tail lengths, for MRIS under one workload. Both runs must
/// produce the identical schedule — journaling observes decisions, it
/// never makes them — and the overhead budget is 15%.
fn run_durability(
    process: &'static str,
    workload: &Workload,
    machines: usize,
    smoke: bool,
) -> String {
    let name = "mris";
    let make_policy = || {
        online_policy_by_name(name, &workload.instance, machines)
            .expect("mris resolves to an online policy")
    };
    let cfg = ServiceConfig::new(machines);
    // The throughput gate measures the WAL alone (snapshots off): the
    // journal rides the hot path on every event, while snapshotting is a
    // cadence choice measured separately below.
    let wal_dcfg = DurabilityConfig {
        flush_every: 1,
        snapshot_every: 0,
    };
    let dcfg = DurabilityConfig {
        flush_every: 1,
        snapshot_every: 32,
    };

    // The individual runs finish in milliseconds, so the off/on comparison
    // is interleaved and repeated, keeping the best of each side — the
    // standard microbench defense against scheduler noise.
    let reps = if smoke { 2 } else { 10 };
    let run_off = || {
        let service = Service::new(
            workload.instance.clone(),
            make_policy(),
            cfg.clone(),
            SimClock::new(),
            NullSink,
        )
        .expect("valid service config");
        run_workload(service, workload)
            .unwrap_or_else(|e| panic!("{name}/{process}: journal-off run failed: {e}"))
            .0
    };
    let run_on = || {
        let mut service = Service::new(
            workload.instance.clone(),
            make_policy(),
            cfg.clone(),
            SimClock::new(),
            NullSink,
        )
        .expect("valid service config");
        service
            .attach_journal(
                wal_dcfg,
                Box::new(SharedBuf::new()),
                Box::new(mris_service::NullSnapshots),
            )
            .expect("journal attaches to a pristine service");
        run_workload(service, workload)
            .unwrap_or_else(|e| panic!("{name}/{process}: journal-on run failed: {e}"))
            .0
    };
    let (mut report_off, mut report_on) = (run_off(), run_on()); // warmup pair
    for _ in 0..reps {
        let off = run_off();
        if off.summary.throughput_jobs_per_sec > report_off.summary.throughput_jobs_per_sec {
            report_off = off;
        }
        let on = run_on();
        if on.summary.throughput_jobs_per_sec > report_on.summary.throughput_jobs_per_sec {
            report_on = on;
        }
    }
    assert_eq!(
        report_off.schedule, report_on.schedule,
        "{name}/{process}: journaling changed the schedule"
    );
    assert_eq!(
        report_off.summary.awct.to_bits(),
        report_on.summary.awct.to_bits(),
        "{name}/{process}: journaling changed the AWCT"
    );

    // Snapshot pass: same run with periodic full-state snapshots; its
    // journal (and the snapshots' dcfg) feed the restore rows below.
    let journal = SharedBuf::new();
    let snapshots = MemorySnapshots::new();
    let mut service = Service::new(
        workload.instance.clone(),
        make_policy(),
        cfg.clone(),
        SimClock::new(),
        NullSink,
    )
    .expect("valid service config");
    service
        .attach_journal(dcfg, Box::new(journal.clone()), Box::new(snapshots.clone()))
        .expect("journal attaches to a pristine service");
    let (report_snap, _) = run_workload(service, workload)
        .unwrap_or_else(|e| panic!("{name}/{process}: snapshot run failed: {e}"));
    assert_eq!(
        report_off.schedule, report_snap.schedule,
        "{name}/{process}: snapshotting changed the schedule"
    );

    let off = report_off.summary.throughput_jobs_per_sec;
    let on = report_on.summary.throughput_jobs_per_sec;
    let snap_rate = report_snap.summary.throughput_jobs_per_sec;
    let overhead_pct = if off > 0.0 {
        (off - on) / off * 100.0
    } else {
        0.0
    };
    let within_budget = overhead_pct < 15.0;
    if !within_budget {
        eprintln!(
            "    WARNING: journal overhead {overhead_pct:.1}% exceeds the 15% budget \
             ({off:.0} -> {on:.0} jobs/s)"
        );
    }

    let golden = journal.contents();
    let epochs = report_snap.summary.epochs;
    let mut restore_rows = Vec::new();
    for fraction in [0.25f64, 0.5, 0.75, 1.0] {
        let cut = if fraction >= 1.0 {
            golden.len()
        } else {
            let cut_event = ((epochs as f64 * fraction) as usize).min(epochs.saturating_sub(1));
            truncate_at_event(&golden, cut_event).unwrap_or(golden.len())
        };
        let (_, restore) = Service::restore(
            workload.instance.clone(),
            make_policy(),
            cfg.clone(),
            dcfg,
            SimClock::new(),
            NullSink,
            &golden[..cut],
            None,
            RestoreOptions::default(),
        )
        .unwrap_or_else(|e| panic!("{name}/{process}: restore at {fraction} failed: {e}"));
        eprintln!(
            "    restore @{:>3.0}%: {} records in {:.1} ms",
            fraction * 100.0,
            restore.records,
            restore.restore_seconds * 1e3
        );
        restore_rows.push(format!(
            concat!(
                "{{\"fraction\": {:.2}, \"journal_bytes\": {}, \"records\": {}, ",
                "\"regenerated\": {}, \"clean_shutdown\": {}, \"restore_seconds\": {:.6}}}"
            ),
            fraction,
            cut,
            restore.records,
            restore.regenerated,
            restore.clean_shutdown,
            restore.restore_seconds,
        ));
    }
    let _ = smoke;

    format!(
        concat!(
            "{{\"policy\": \"{}\", \"process\": \"{}\", ",
            "\"journal_off_jobs_per_sec\": {:.3}, \"journal_on_jobs_per_sec\": {:.3}, ",
            "\"overhead_pct\": {:.3}, \"overhead_budget_pct\": 15.0, \"within_budget\": {}, ",
            "\"snapshot_pass_jobs_per_sec\": {:.3}, ",
            "\"journal_bytes\": {}, \"snapshots\": {}, \"flush_every\": {}, ",
            "\"snapshot_every\": {}, \"restore\": [{}]}}"
        ),
        name,
        process,
        off,
        on,
        overhead_pct,
        within_budget,
        snap_rate,
        golden.len(),
        snapshots.all().len(),
        dcfg.flush_every,
        dcfg.snapshot_every,
        restore_rows.join(", "),
    )
}

/// TCP front-door pass: the same workload driven through `mris-net` over
/// loopback by a single client, against the in-process baseline. Reports
/// the per-submit round-trip latency distribution, the end-to-end
/// throughput ratio, and — in a second, contended 2-tenant run — how
/// close the deficit-round-robin gate lands to the configured 3:1 split.
fn run_net(process: &'static str, workload: &Workload, machines: usize, smoke: bool) -> String {
    let name = "pq-wsjf"; // cheap policy: the pass measures transport, not knapsack
    let instance = &workload.instance;

    // In-process baseline.
    let policy = online_policy_by_name(name, instance, machines)
        .expect("pq-wsjf resolves to an online policy");
    let service = Service::new(
        instance.clone(),
        policy,
        ServiceConfig::new(machines),
        SimClock::new(),
        NullSink,
    )
    .expect("valid service config");
    let (inproc_report, _) = run_workload(service, workload)
        .unwrap_or_else(|e| panic!("{name}/{process}: in-process run failed: {e}"));
    let inproc_rate = inproc_report.summary.throughput_jobs_per_sec;

    // Loopback TCP run: one client, submissions at release times in the
    // same (release, id) order, per-submit round trip timed client-side.
    let server = mris_net::serve_net(
        instance.clone(),
        ServiceConfig::new(machines),
        SimClock::new(),
        NullSink,
        {
            let policy_name = name;
            move |inst: &mris_types::Instance, m: usize| {
                online_policy_by_name(policy_name, inst, m).expect("validated above")
            }
        },
        "127.0.0.1:0",
    )
    .unwrap_or_else(|e| panic!("{name}/{process}: net bench bind failed: {e}"));
    let addr = server.addr().to_string();
    let mut client = mris_net::NetClient::connect(&addr, "", 0).expect("loopback connect succeeds");
    let mut order: Vec<mris_types::JobId> = instance.jobs().iter().map(|j| j.id).collect();
    order.sort_by(|&a, &b| {
        instance
            .job(a)
            .release
            .total_cmp(&instance.job(b).release)
            .then(a.cmp(&b))
    });
    let started = std::time::Instant::now();
    let mut rtts_us = Vec::with_capacity(order.len());
    for job in order {
        let at = instance.job(job).release;
        let t0 = std::time::Instant::now();
        client
            .submit_at(at, job)
            .unwrap_or_else(|e| panic!("{name}/{process}: submit over tcp failed: {e}"))
            .expect("permissive service admits everything");
        rtts_us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    let tcp_report = client
        .drain()
        .unwrap_or_else(|e| panic!("{name}/{process}: drain over tcp failed: {e}"));
    let elapsed = started.elapsed().as_secs_f64();
    server.wait().expect("net bench server joins cleanly");
    assert_eq!(
        inproc_report.schedule, tcp_report.schedule,
        "{name}/{process}: the wire changed the schedule"
    );
    let tcp_rate = tcp_report.summary.completed as f64 / elapsed.max(1e-9);
    let latency = Percentiles::of(&rtts_us).expect("submissions were timed");

    // Contended 2-tenant pass: alternating submissions lead releases so
    // the queue stands above the fair watermark, and two clients (weights
    // 3:1) hammer the same door concurrently-in-order.
    let fair_jobs = if smoke { 120 } else { 400 };
    let fair = {
        use mris_service::TenantSpec;
        let jobs: Vec<mris_types::Job> = (0..fair_jobs)
            .map(|i| {
                mris_types::Job::from_fractions(
                    mris_types::JobId(0),
                    0.05 * i as f64,
                    1.0,
                    1.0,
                    &[0.5],
                )
            })
            .collect();
        let instance = mris_types::Instance::from_unnumbered(jobs, 1).expect("valid fair instance");
        let cfg = ServiceConfig::builder(2)
            .tenants(vec![
                TenantSpec::new("alpha", "tok-a", 3.0),
                TenantSpec::new("beta", "tok-b", 1.0),
            ])
            .fair_watermark(4)
            .build()
            .expect("valid tenant config");
        let server = mris_net::serve_net(
            instance.clone(),
            cfg,
            SimClock::new(),
            NullSink,
            |inst: &mris_types::Instance, m: usize| {
                online_policy_by_name("pq-wsjf", inst, m).expect("known policy")
            },
            "127.0.0.1:0",
        )
        .expect("fair bench bind succeeds");
        let addr = server.addr().to_string();
        let mut alpha = mris_net::NetClient::connect(&addr, "tok-a", 0).expect("alpha connects");
        let mut beta = mris_net::NetClient::connect(&addr, "tok-b", 0).expect("beta connects");
        for job in instance.jobs() {
            let at = (job.release - 2.0).max(0.0);
            let who = if job.id.0 % 2 == 0 {
                &mut alpha
            } else {
                &mut beta
            };
            let _ = who
                .submit_at(at, job.id)
                .expect("fair bench submission round trip");
        }
        let report = beta.drain().expect("fair bench drain");
        server.wait().expect("fair bench server joins");
        let a = &report.tenants[0];
        let b = &report.tenants[1];
        let total = (a.admitted_cost + b.admitted_cost) as f64;
        let share = if total > 0.0 {
            a.admitted_cost as f64 / total
        } else {
            0.0
        };
        (share, a.rejected + b.rejected)
    };
    let (measured_share, fair_rejected) = fair;
    let abs_error = (measured_share - 0.75).abs();
    let within_5pct = abs_error <= 0.05;
    if !within_5pct {
        eprintln!(
            "    WARNING: 2-tenant split {measured_share:.3} strays from 0.75 \
             by more than 5 points"
        );
    }
    eprintln!(
        "    {process:>7}: tcp {tcp_rate:>8.0} jobs/s vs in-process {inproc_rate:>8.0} \
         ({:.1}%), submit rtt p50/p95/p99 = {:.1}/{:.1}/{:.1} us, \
         3:1 split measured {measured_share:.3}",
        tcp_rate / inproc_rate.max(1e-9) * 100.0,
        latency.p50,
        latency.p95,
        latency.p99,
    );

    format!(
        concat!(
            "{{\"policy\": \"{}\", \"process\": \"{}\", ",
            "\"inproc_jobs_per_sec\": {:.3}, \"tcp_jobs_per_sec\": {:.3}, ",
            "\"tcp_vs_inproc_ratio\": {:.4}, ",
            "\"submit_rtt_us\": {{\"p50\": {:.3}, \"p95\": {:.3}, \"p99\": {:.3}}}, ",
            "\"fair_split\": {{\"weights\": [3.0, 1.0], \"target_share\": 0.75, ",
            "\"measured_share\": {:.4}, \"abs_error\": {:.4}, \"rejected\": {}, ",
            "\"within_5pct\": {}}}}}"
        ),
        name,
        process,
        inproc_rate,
        tcp_rate,
        tcp_rate / inproc_rate.max(1e-9),
        latency.p50,
        latency.p95,
        latency.p99,
        measured_share,
        abs_error,
        fair_rejected,
        within_5pct,
    )
}

fn main() {
    let args = Args::parse();
    let smoke = args.has("smoke");
    let machines = args.get("machines", if smoke { 4 } else { 8 });
    let jobs = args.get("jobs", if smoke { 150 } else { 2_000 });
    let seed = args.get("seed", 11u64);
    let utilization = args.get("utilization", 0.7);
    let out: String = args.get("out", "BENCH_service.json".to_string());

    eprintln!(
        "service bench: mode = {}, M = {machines}, N = {jobs}, seed = {seed}, \
         utilization = {utilization}",
        if smoke { "smoke" } else { "full" },
    );

    // Shape distribution is arrival-process independent for a fixed seed,
    // so probe once to calibrate the Poisson rate to the target utilization.
    let probe = generate_workload(&LoadGenConfig {
        num_jobs: jobs,
        seed,
        arrivals: ArrivalProcess::Bursts {
            period: 1.0,
            size: 1,
        },
    });
    let rate = poisson_rate_for_utilization(&probe.instance, machines, utilization);
    let burst_size = (jobs / 20).max(1);
    let workloads: [(&'static str, Workload); 2] = [
        (
            "poisson",
            generate_workload(&LoadGenConfig {
                num_jobs: jobs,
                seed,
                arrivals: ArrivalProcess::Poisson { rate },
            }),
        ),
        (
            "bursts",
            generate_workload(&LoadGenConfig {
                num_jobs: jobs,
                seed,
                arrivals: ArrivalProcess::Bursts {
                    period: burst_size as f64 / rate,
                    size: burst_size,
                },
            }),
        ),
    ];

    let names = ["mris", "pq-wsjf", "pq-wsvf", "tetris", "bf-exec", "ca-pq"];
    let mut reports = Vec::with_capacity(names.len());
    for name in names {
        eprintln!("  {name} ...");
        let rows: Vec<ServiceRow> = workloads
            .iter()
            .map(|(process, workload)| {
                let row = run_one(name, process, workload, machines);
                eprintln!(
                    "    {:>7}: {:>10.0} jobs/s, decision p50/p95/p99 = \
                     {:.1}/{:.1}/{:.1} us, {} epochs",
                    process,
                    row.throughput,
                    row.latency_us.p50,
                    row.latency_us.p95,
                    row.latency_us.p99,
                    row.epochs
                );
                row
            })
            .collect();
        reports.push(PolicyReport { name, rows });
    }

    eprintln!("  mris stage breakdown (obs-enabled pass) ...");
    let breakdowns: Vec<StageBreakdown> = workloads
        .iter()
        .map(|(process, workload)| {
            let b = stage_breakdown(process, workload, machines);
            let total: f64 = b.stages.iter().map(|(_, _, s)| s).sum();
            eprintln!(
                "    {:>7}: {:.1} ms across stages ({})",
                b.process,
                total * 1e3,
                b.stages
                    .iter()
                    .map(|(stage, _, s)| format!("{stage} {:.1}ms", s * 1e3))
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            b
        })
        .collect();

    eprintln!("  durability overhead + restore latency (journaled mris pass) ...");
    let durability = run_durability("poisson", &workloads[0].1, machines, smoke);

    eprintln!("  net front door (loopback tcp pass) ...");
    let net = run_net("poisson", &workloads[0].1, machines, smoke);

    let schedulers: Vec<String> = reports
        .iter()
        .map(|r| format!("    {}", r.to_json()))
        .collect();
    let breakdown_json: Vec<String> = breakdowns
        .iter()
        .map(|b| format!("    {}", b.to_json()))
        .collect();
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"service\",\n",
            "  \"version\": 4,\n",
            "  \"mode\": \"{}\",\n",
            "  \"machines\": {},\n",
            "  \"jobs\": {},\n",
            "  \"seed\": {},\n",
            "  \"utilization\": {},\n",
            "  \"poisson_rate\": {:.6},\n",
            "  \"schedulers\": [\n{}\n  ],\n",
            "  \"stage_breakdown\": [\n{}\n  ],\n",
            "  \"durability\": {},\n",
            "  \"net\": {}\n",
            "}}\n"
        ),
        if smoke { "smoke" } else { "full" },
        machines,
        jobs,
        seed,
        utilization,
        rate,
        schedulers.join(",\n"),
        breakdown_json.join(",\n"),
        durability,
        net
    );
    std::fs::write(&out, &json).unwrap_or_else(|e| panic!("writing {out}: {e}"));
    eprintln!("  wrote {out}");
    print!("{json}");
}
