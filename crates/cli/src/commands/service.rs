//! The service verbs: `serve` a workload in-process or over TCP, and
//! `restore` a journaled run; plus what `loadgen` shares with them.

use std::io::Write;

use mris_core::registry::online_policy_by_name;
use mris_service::{
    count_valid_records, service_fingerprint, DirSnapshots, DurabilityConfig, JobOutcome,
    JsonlSink, NullSink, NullSnapshots, Outage, RestoreOptions, Service, ServiceConfig,
    ServiceReport, SimClock, SnapshotStore, TenantSpec,
};
use mris_types::Instance;

use super::loadgen::loadgen_plan;
use super::{load_instance, obs_epilogue, obs_from_flags, offer_in_release_order};
use super::{machines_from_flags, CliError, Flags};

/// Parses `--tenants "name:token:weight[,name:token:weight...]"` into a
/// tenant table. An empty/absent flag means single-tenant.
pub(crate) fn tenants_from_flags(flags: &Flags) -> Result<Vec<TenantSpec>, CliError> {
    let Some(spec) = flags.get("tenants") else {
        return Ok(Vec::new());
    };
    let mut tenants = Vec::new();
    for entry in spec.split(',').filter(|e| !e.is_empty()) {
        let parts: Vec<&str> = entry.split(':').collect();
        let [name, token, weight] = parts.as_slice() else {
            return Err(CliError(format!(
                "--tenants: expected name:token:weight, got '{entry}'"
            )));
        };
        let weight: f64 = weight
            .parse()
            .map_err(|e| CliError(format!("--tenants: weight of '{name}': {e}")))?;
        tenants.push(TenantSpec::new(*name, *token, weight));
    }
    Ok(tenants)
}

/// Reads the service knobs into a [`ServiceConfig`].
pub(crate) fn service_cfg_from_flags(
    flags: &Flags,
    machines: usize,
) -> Result<ServiceConfig, CliError> {
    let epoch: f64 = flags.get_parsed("epoch", 0.0)?;
    let queue_watermark: usize = flags.get_parsed("queue-watermark", usize::MAX)?;
    let load_watermark: f64 = flags.get_parsed("load-watermark", f64::INFINITY)?;
    let fair_watermark: usize = flags.get_parsed("fair-watermark", usize::MAX)?;
    ServiceConfig::builder(machines)
        .epoch(epoch)
        .queue_watermark(queue_watermark)
        .load_watermark(load_watermark)
        .tenants(tenants_from_flags(flags)?)
        .fair_watermark(fair_watermark)
        .build()
        .map_err(|e| {
            // Re-key the typed error onto the CLI flag that caused it.
            use mris_types::ConfigError;
            CliError(match &e {
                ConfigError::InvalidEpoch { .. } => format!("--epoch: {e}"),
                ConfigError::ZeroQueueWatermark => format!("--queue-watermark: {e}"),
                ConfigError::InvalidLoadWatermark { .. } => format!("--load-watermark: {e}"),
                _ => e.to_string(),
            })
        })
}

/// Durability knobs shared by `serve` and `restore`: where the journal
/// lives, how often it is flushed, and where snapshots go.
pub(crate) struct DurabilitySetup {
    journal: String,
    dcfg: DurabilityConfig,
    snapshot_dir: Option<String>,
}

/// Reads `--flush-every` / `--snapshot-every` into a [`DurabilityConfig`].
/// Snapshots default on (every 64 events) when a snapshot destination is
/// named, off otherwise. The cadences feed the journal's configuration
/// fingerprint, so a `restore` must repeat the original run's flags.
fn durability_cfg_from_flags(flags: &Flags) -> Result<DurabilityConfig, CliError> {
    let snapshot_default = if flags.get("snapshot-dir").is_some() {
        64
    } else {
        0
    };
    let flush_every: u32 = flags.get_parsed("flush-every", 1)?;
    let snapshot_every: u32 = flags.get_parsed("snapshot-every", snapshot_default)?;
    if flush_every == 0 {
        return Err(CliError("--flush-every must be at least 1".into()));
    }
    Ok(DurabilityConfig {
        flush_every,
        snapshot_every,
    })
}

/// Reads the `serve` durability flags. `None` when `--journal` is absent.
fn durability_setup(flags: &Flags) -> Result<Option<DurabilitySetup>, CliError> {
    let Some(journal) = flags.get("journal") else {
        if flags.get("snapshot-dir").is_some() {
            return Err(CliError("--snapshot-dir requires --journal".into()));
        }
        return Ok(None);
    };
    Ok(Some(DurabilitySetup {
        journal: journal.to_string(),
        dcfg: durability_cfg_from_flags(flags)?,
        snapshot_dir: flags.get("snapshot-dir").map(str::to_string),
    }))
}

/// The `--telemetry` JSONL sink (discarding when the flag is absent): the
/// run's one per-epoch JSONL. `--obs-events` carries span closes only.
type Telemetry = JsonlSink<Box<dyn Write + Send>>;

fn telemetry_from_flags(flags: &Flags) -> Result<Telemetry, CliError> {
    let writer: Box<dyn Write + Send> = match flags.get("telemetry") {
        Some(path) => Box::new(
            std::fs::File::create(path)
                .map_err(|e| CliError(format!("cannot create {path}: {e}")))?,
        ),
        None => Box::new(std::io::sink()),
    };
    Ok(JsonlSink::new(writer))
}

/// Flushes the telemetry sink and verifies the drained run's fault log.
fn finish_run(name: &str, report: &ServiceReport, sink: Telemetry) -> Result<(), CliError> {
    sink.finish()
        .map_err(|e| CliError(format!("telemetry write failed: {e}")))?;
    report
        .log
        .verify()
        .map_err(|v| CliError(format!("{name}: fault-log violation: {v}")))
}

/// Feeds every job of `instance` through the admission path of a fresh
/// service (at its release time, in `(release, id)` order), drains, and
/// verifies the fault log. Per-epoch records and the summary stream to
/// `--telemetry`. With `durability`, every state-mutating event is
/// journaled (and optionally snapshotted) as it happens.
pub(crate) fn drive_service(
    flags: &Flags,
    instance: &Instance,
    name: &str,
    cfg: ServiceConfig,
    durability: Option<&DurabilitySetup>,
) -> Result<ServiceReport, CliError> {
    let policy = online_policy_by_name(name, instance, cfg.num_machines)?;
    let sink = telemetry_from_flags(flags)?;
    let mut service = Service::new(instance.clone(), policy, cfg, SimClock::new(), sink)?;
    if let Some(setup) = durability {
        let file = std::fs::File::create(&setup.journal)
            .map_err(|e| CliError(format!("cannot create {}: {e}", setup.journal)))?;
        let snapshots: Box<dyn SnapshotStore + Send> = match &setup.snapshot_dir {
            Some(dir) => Box::new(
                DirSnapshots::new(dir)
                    .map_err(|e| CliError(format!("cannot create {dir}: {e}")))?,
            ),
            None => Box::new(NullSnapshots),
        };
        service.attach_journal(
            setup.dcfg,
            Box::new(std::io::BufWriter::new(file)),
            snapshots,
        )?;
    }
    offer_in_release_order(instance, instance.jobs().iter().map(|j| j.id), |at, job| {
        service
            .submit_at(at, job)
            .map_err(|e| CliError(format!("{name}: service error: {e}")))
    })?;
    if let Some(e) = service.durability_error() {
        return Err(CliError(format!("{name}: journal write failed: {e}")));
    }
    let (report, sink) = service
        .drain()
        .map_err(|e| CliError(format!("{name}: drain failed: {e}")))?;
    finish_run(name, &report, sink)?;
    Ok(report)
}

pub(crate) fn service_summary_text(report: &ServiceReport) -> String {
    let s = &report.summary;
    let latency = match &s.decision_latency_us {
        Some(p) => format!("{:.1}/{:.1}/{:.1} us", p.p50, p.p95, p.p99),
        None => "n/a".to_string(),
    };
    let mut tenant_text = String::new();
    for t in &report.tenants {
        tenant_text.push_str(&format!(
            "tenant {} (weight {}): admitted = {} ({} demand ticks), rejected = {}\n",
            t.name, t.weight, t.admitted, t.admitted_cost, t.rejected
        ));
    }
    tenant_text
        + &format!(
            "submitted   = {}\n\
         accepted    = {}\n\
         rejected    = {} (queue full {}, load shed {})\n\
         completed   = {}\n\
         failures    = {} (re-releases {})\n\
         epochs      = {} (max queue depth {})\n\
         AWCT        = {:.6}\n\
         makespan    = {:.6}\n\
         drained at t = {:.3} ({:.3}s wall, {:.0} jobs/s)\n\
         decision latency p50/p95/p99 = {latency}\n\
         fault log verified OK\n",
            s.submitted,
            s.accepted,
            s.rejected_queue_full + s.rejected_infeasible,
            s.rejected_queue_full,
            s.rejected_infeasible,
            s.completed,
            s.failures,
            report.log.total_re_releases(),
            s.epochs,
            s.max_queue_depth,
            s.awct,
            s.makespan,
            s.drained_at,
            s.wall_seconds,
            s.throughput_jobs_per_sec,
        )
}

/// `mris serve`: a trace through the service loop, in-process.
pub(crate) fn serve(flags: &Flags) -> Result<String, CliError> {
    let instance = load_instance(flags.require("trace")?)?;
    let machines = machines_from_flags(flags, 20)?;
    let name = flags.get("algo").unwrap_or("mris");
    let cfg = service_cfg_from_flags(flags, machines)?;
    let epoch = cfg.epoch;
    let obs = obs_from_flags(flags)?;
    let durability = durability_setup(flags)?;
    let report = drive_service(flags, &instance, name, cfg, durability.as_ref())?;
    let obs_text = obs_epilogue(flags, &obs)?;
    let journal_text = match &durability {
        Some(setup) => {
            let bytes = std::fs::metadata(&setup.journal)
                .map(|m| m.len())
                .unwrap_or(0);
            let snap_text = match &setup.snapshot_dir {
                Some(dir) => format!(", snapshots in {dir} every {}", setup.dcfg.snapshot_every),
                None => String::new(),
            };
            format!(
                "journal     = {} ({bytes} bytes, flush every {}{snap_text})\n",
                setup.journal, setup.dcfg.flush_every
            )
        }
        None => String::new(),
    };
    Ok(format!(
        "serve: {} jobs, {} resources, {machines} machines, algo = {name}, epoch = {epoch}\n\n{}{journal_text}{obs_text}",
        instance.len(),
        instance.num_resources(),
        service_summary_text(&report)
    ))
}

/// `mris serve --listen`: open the TCP front door and block until a client
/// drains the service. The workload is `--trace`, or the loadgen generator
/// when `--loadgen` is given (so a `loadgen --connect` twin regenerates the
/// identical instance client-side — the handshake fingerprint pins the
/// match). The bound address lands in `--port-file` (and on stderr) before
/// the server blocks, so scripts can discover an ephemeral port.
pub(crate) fn serve_listen(flags: &Flags, loadgen: bool) -> Result<String, CliError> {
    let listen = flags.require("listen")?;
    let (instance, cfg, name, source_text) = if loadgen {
        let plan = loadgen_plan(flags)?;
        let text = format!("workload: {}\n", plan.header.replace('\n', "\n          "));
        (plan.instance, plan.cfg, plan.name, text)
    } else {
        let machines = machines_from_flags(flags, 20)?;
        let name = flags.get("algo").unwrap_or("mris").to_string();
        let instance = load_instance(flags.require("trace")?)?;
        let cfg = service_cfg_from_flags(flags, machines)?;
        (instance, cfg, name, String::new())
    };
    let machines = cfg.num_machines;
    // Validate the policy name before `serve_net` builds the policy from it.
    let _ = online_policy_by_name(&name, &instance, machines)?;
    let obs = obs_from_flags(flags)?;
    let sink = telemetry_from_flags(flags)?;
    let fingerprint = service_fingerprint(&instance, &cfg);
    let tenant_text = if cfg.tenants.is_empty() {
        "single-tenant (any token)".to_string()
    } else {
        format!(
            "{} tenants ({})",
            cfg.tenants.len(),
            cfg.tenants
                .iter()
                .map(|t| format!("{}:{}", t.name, t.weight))
                .collect::<Vec<_>>()
                .join(", ")
        )
    };
    let policy_name = name.clone();
    let server = mris_net::serve_net(
        instance.clone(),
        cfg,
        SimClock::new(),
        sink,
        move |inst, m| online_policy_by_name(&policy_name, inst, m).expect("validated above"),
        listen,
    )
    .map_err(|e| CliError(format!("serve --listen {listen}: {e}")))?;
    let addr = server.addr();
    if let Some(path) = flags.get("port-file") {
        std::fs::write(path, addr.to_string())
            .map_err(|e| CliError(format!("cannot write {path}: {e}")))?;
    }
    eprintln!(
        "mris: serving {} jobs on {addr} (algo {name}, {tenant_text}, \
         fingerprint {fingerprint:#018x}); blocks until `mris client drain --connect {addr}`",
        instance.len()
    );
    let (report, sink) = server
        .wait()
        .map_err(|e| CliError(format!("{name}: {e}")))?;
    finish_run(&name, &report, sink)?;
    let obs_text = obs_epilogue(flags, &obs)?;
    Ok(format!(
        "serve: {} jobs, {} resources, {machines} machines, algo = {name}, \
         listened on {addr}\n{source_text}tenancy: {tenant_text}, \
         fingerprint = {fingerprint:#018x}\n\n{}{obs_text}",
        instance.len(),
        instance.num_resources(),
        service_summary_text(&report)
    ))
}

/// `mris restore`: rebuild a service from a journal (and optional
/// snapshot), then finish the run — resubmitting every job the crash cut
/// off at its release time — and print both the restore report and the
/// drained summary. The same trace/algo/knobs as the original `serve`
/// must be given; the journal's configuration fingerprint enforces it.
pub(crate) fn restore(flags: &Flags) -> Result<String, CliError> {
    let instance = load_instance(flags.require("trace")?)?;
    let machines = machines_from_flags(flags, 20)?;
    let name = flags.get("algo").unwrap_or("mris");
    let cfg = service_cfg_from_flags(flags, machines)?;
    let dcfg = durability_cfg_from_flags(flags)?;
    let journal_path = flags.require("journal")?;
    let journal = std::fs::read(journal_path)
        .map_err(|e| CliError(format!("cannot read {journal_path}: {e}")))?;
    let snapshot: Option<Vec<u8>> = match (flags.get("snapshot"), flags.get("snapshot-dir")) {
        (Some(path), _) => {
            Some(std::fs::read(path).map_err(|e| CliError(format!("cannot read {path}: {e}")))?)
        }
        (None, Some(dir)) => {
            // The newest snapshot the surviving journal reaches; an
            // unreadable journal is left for `restore` to report.
            let records = count_valid_records(&journal).unwrap_or(0);
            DirSnapshots::latest_within(std::path::Path::new(dir), records)
                .map_err(|e| CliError(format!("cannot read snapshots in {dir}: {e}")))?
        }
        (None, None) => None,
    };
    let outage = match flags.get("outage-at") {
        Some(_) => Some(Outage {
            at: flags.get_parsed("outage-at", 0.0)?,
            downtime: flags.get_parsed("outage-downtime", 1.0)?,
        }),
        None => None,
    };
    let opts = RestoreOptions {
        strict: flags.switch("strict"),
        outage,
    };
    let policy = online_policy_by_name(name, &instance, machines)?;
    let (mut service, restore) = Service::restore(
        instance.clone(),
        policy,
        cfg,
        dcfg,
        SimClock::new(),
        NullSink,
        &journal,
        snapshot.as_deref(),
        opts,
    )?;

    // Finish the run: offer everything the crash cut off, in the same
    // order the original serve used, never before the replayed frontier.
    let remaining = instance
        .jobs()
        .iter()
        .map(|j| j.id)
        .filter(|&j| service.checked_outcome(j) == Some(JobOutcome::NotSubmitted))
        .collect::<Vec<_>>();
    let resubmitted = remaining.len();
    offer_in_release_order(&instance, remaining, |release, job| {
        service
            .submit_at(release.max(restore.resumed_at), job)
            .map_err(|e| CliError(format!("{name}: service error after restore: {e}")))
    })?;
    let (report, _sink) = service
        .drain()
        .map_err(|e| CliError(format!("{name}: drain failed after restore: {e}")))?;
    report
        .log
        .verify()
        .map_err(|v| CliError(format!("{name}: fault-log violation: {v}")))?;

    let snapshot_text = match restore.snapshot_verified {
        Some(lsn) => format!("restored from the snapshot at lsn {lsn}"),
        None => "none (replayed from genesis)".to_string(),
    };
    let tail_text = match &restore.tail_error {
        Some(e) => format!(" ({e})"),
        None => String::new(),
    };
    Ok(format!(
        "restore: {} jobs, {machines} machines, algo = {name}\n\n\
         records     = {} in the journal, {} replayed ({} regenerated past the journal end)\n\
         torn tail   = {} bytes dropped{tail_text}\n\
         snapshot    = {snapshot_text}\n\
         shutdown    = {}\n\
         resumed at t = {:.3} ({:.3}s wall); resubmitted {resubmitted} jobs\n\n{}",
        instance.len(),
        restore.records,
        restore.replayed,
        restore.regenerated,
        restore.torn_tail_bytes,
        if restore.clean_shutdown {
            "clean"
        } else {
            "crash"
        },
        restore.resumed_at,
        restore.restore_seconds,
        service_summary_text(&report)
    ))
}
