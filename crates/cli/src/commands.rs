//! Subcommand implementations.

use std::path::PathBuf;

use mris_metrics::{awct_lower_bound, Cdf, Table};
use mris_trace::{instance_to_csv, parse_instance_csv, AzureTrace, AzureTraceConfig};
use mris_types::Instance;

use crate::schedule_io::{parse_schedule_csv, schedule_to_csv};
use mris_core::registry::{
    algorithm_by_name, algorithm_for_workload, known_algorithms, online_policy_by_name,
};
use mris_net::NetClient;
use mris_service::{
    generate_workload, poisson_rate_for_utilization, service_fingerprint, ArrivalProcess,
    DirSnapshots, DurabilityConfig, JobOutcome, JsonlSink, LoadGenConfig, NullSink, NullSnapshots,
    ObsBridge, Outage, RestoreOptions, Service, ServiceConfig, ServiceReport, SimClock,
    SnapshotStore, TenantSpec,
};
use mris_sim::{
    run_online_chaos, suggested_horizon, FaultPlan, PoissonFaultConfig, RackBurstConfig,
};
use mris_types::{ClusterSpec, JobId, RestartSemantics, Schedule};

/// A CLI failure: message for the user, non-zero exit.
#[derive(Debug)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

impl From<String> for CliError {
    fn from(s: String) -> Self {
        CliError(s)
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError(format!("i/o error: {e}"))
    }
}

impl From<mris_types::RegistryError> for CliError {
    fn from(e: mris_types::RegistryError) -> Self {
        CliError(e.to_string())
    }
}

impl From<mris_types::ConfigError> for CliError {
    fn from(e: mris_types::ConfigError) -> Self {
        CliError(e.to_string())
    }
}

impl From<mris_types::DurabilityError> for CliError {
    fn from(e: mris_types::DurabilityError) -> Self {
        CliError(e.to_string())
    }
}

impl From<mris_types::RestoreError> for CliError {
    fn from(e: mris_types::RestoreError) -> Self {
        CliError(e.to_string())
    }
}

fn usage() -> String {
    let mut s = String::from(
        "mris — online non-preemptive multi-resource scheduling (ICPP'24 reproduction)\n\n\
         USAGE:\n\
         \x20 mris generate --jobs N [--seed S] [--out trace.csv]\n\
         \x20 mris schedule --trace trace.csv --algo NAME --machines M [--out schedule.csv]\n\
         \x20      [--speeds a,b,c] [--obs] [--obs-events events.jsonl]\n\
         \x20      [--metrics-path metrics.prom] ('run' is an alias of 'schedule';\n\
         \x20      --speeds cycles related-machine speeds over the cluster)\n\
         \x20 mris compare --trace trace.csv --machines M [--algos a,b,c] [--speeds a,b,c]\n\
         \x20 mris validate --trace trace.csv --schedule schedule.csv --machines M\n\
         \x20 mris chaos --trace trace.csv --machines M [--algos a,b,c] [--rate X]\n\
         \x20      [--mttr-frac F] [--seed S] [--restart full|aging] [--aging-factor K]\n\
         \x20 mris serve --trace trace.csv --algo NAME --machines M [--epoch E]\n\
         \x20      [--queue-watermark Q] [--load-watermark L] [--telemetry out.jsonl]\n\
         \x20      [--metrics-path metrics.prom] [--journal wal.mrjl] [--flush-every N]\n\
         \x20      [--snapshot-dir DIR] [--snapshot-every N]\n\
         \x20      [--listen HOST:PORT [--port-file PATH]] — serve over TCP; with\n\
         \x20      [--tenants name:token:weight,...] [--fair-watermark N] admission is\n\
         \x20      multi-tenant weighted-fair; with --loadgen the workload comes from\n\
         \x20      the loadgen flags below instead of --trace\n\
         \x20 mris client submit --connect HOST:PORT --trace trace.csv [--token T]\n\
         \x20      [--fingerprint F]  (also: client query --job N | client stats |\n\
         \x20      client drain — drain prints the final report)\n\
         \x20 mris restore --trace trace.csv --algo NAME --machines M --journal wal.mrjl\n\
         \x20      [--snapshot snap.bin | --snapshot-dir DIR] [--strict]\n\
         \x20      [--outage-at T --outage-downtime D] [--epoch E] (+ the serve knobs\n\
         \x20      of the original run; the journal fingerprint is checked)\n\
         \x20 mris loadgen --jobs N --machines M [--algo NAME] [--seed S]\n\
         \x20      [--process poisson|bursts] [--utilization U] [--burst-size B]\n\
         \x20      [--fault-plan none|poisson|racks|adversarial] [--fault-rate X]\n\
         \x20      [--mttr-frac F] [--restart full|aging] [--telemetry out.jsonl]\n\
         \x20      [--connect HOST:PORT [--token T]] — replay the same generated\n\
         \x20      workload over TCP against a `serve --listen --loadgen` twin\n\n\
         ALGORITHMS:\n",
    );
    for (name, desc) in known_algorithms() {
        s.push_str(&format!("  {name:<16} {desc}\n"));
    }
    s
}

struct Flags {
    pairs: Vec<(String, String)>,
}

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, CliError> {
        let mut pairs = Vec::new();
        let mut iter = args.iter().peekable();
        while let Some(arg) = iter.next() {
            let key = arg.strip_prefix("--").ok_or_else(|| {
                CliError(format!("expected a --flag, found '{arg}'\n\n{}", usage()))
            })?;
            // A flag followed by another --flag (or by nothing) is a switch
            // and records the value "true" (e.g. `--obs`).
            let value = match iter.peek() {
                Some(next) if !next.starts_with("--") => iter.next().unwrap().clone(),
                _ => "true".to_string(),
            };
            pairs.push((key.to_string(), value));
        }
        Ok(Flags { pairs })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Whether a boolean switch flag is present (and not explicitly
    /// disabled with `--flag false`).
    fn switch(&self, key: &str) -> bool {
        self.get(key).is_some_and(|v| v != "false" && v != "0")
    }

    fn require(&self, key: &str) -> Result<&str, CliError> {
        self.get(key)
            .ok_or_else(|| CliError(format!("missing required flag --{key}")))
    }

    fn get_parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, CliError>
    where
        T::Err: std::fmt::Display,
    {
        match self.get(key) {
            Some(v) => v.parse().map_err(|e| CliError(format!("--{key}: {e}"))),
            None => Ok(default),
        }
    }
}

/// Installs the process-wide observability subscriber for the duration of
/// one command when `--obs`, `--obs-events`, or `--metrics-path` asks for
/// it. Returns the subscriber (kept for rendering at command end) and the
/// RAII guard holding the installation.
fn obs_from_flags(
    flags: &Flags,
) -> Result<Option<(std::sync::Arc<mris_obs::Obs>, mris_obs::InstallGuard)>, CliError> {
    let wanted = flags.switch("obs")
        || flags.get("obs-events").is_some()
        || flags.get("metrics-path").is_some();
    if !wanted {
        return Ok(None);
    }
    let obs = match flags.get("obs-events") {
        Some(path) => {
            let file = std::fs::File::create(path)
                .map_err(|e| CliError(format!("cannot create {path}: {e}")))?;
            mris_obs::Obs::with_sink(Box::new(mris_obs::JsonlEventSink::new(
                std::io::BufWriter::new(file),
            )))
        }
        None => mris_obs::Obs::new(),
    };
    let obs = std::sync::Arc::new(obs);
    let guard = mris_obs::install_guard(obs.clone());
    Ok(Some((obs, guard)))
}

/// Flushes the obs subscriber and renders its metrics: written to
/// `--metrics-path` when given, appended to the command output otherwise.
fn obs_epilogue(flags: &Flags, obs: &mris_obs::Obs) -> Result<String, CliError> {
    obs.flush();
    let report = mris_obs::ObsReport::from_registry(obs.registry());
    let text = obs.registry().render_prometheus();
    mris_obs::validate_exposition(&text)
        .map_err(|e| CliError(format!("internal error: invalid metrics exposition: {e}")))?;
    match flags.get("metrics-path") {
        Some(path) => {
            std::fs::write(path, &text)?;
            Ok(format!(
                "observability: {} metric families; wrote Prometheus metrics to {path}\n",
                report.num_families()
            ))
        }
        None => Ok(format!(
            "observability ({} metric families):\n{text}",
            report.num_families()
        )),
    }
}

fn load_instance(path: &str) -> Result<Instance, CliError> {
    let text =
        std::fs::read_to_string(path).map_err(|e| CliError(format!("cannot read {path}: {e}")))?;
    parse_instance_csv(&text).map_err(|e| CliError(format!("{path}: {e}")))
}

/// Entry point: dispatches `args` (without the program name) and returns the
/// text to print on success.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let Some((command, rest)) = args.split_first() else {
        return Err(CliError(usage()));
    };
    match command.as_str() {
        "generate" => generate(&Flags::parse(rest)?),
        // `run` is the daemon-era alias of the original `schedule` verb.
        "schedule" | "run" => schedule(&Flags::parse(rest)?),
        "compare" => compare(&Flags::parse(rest)?),
        "validate" => validate(&Flags::parse(rest)?),
        "chaos" => chaos(&Flags::parse(rest)?),
        "serve" => serve(&Flags::parse(rest)?),
        // `client` takes an action word before its flags.
        "client" => client(rest),
        "restore" => restore(&Flags::parse(rest)?),
        "loadgen" => loadgen(&Flags::parse(rest)?),
        "help" | "--help" | "-h" => Ok(usage()),
        other => Err(CliError(format!(
            "unknown command '{other}'\n\n{}",
            usage()
        ))),
    }
}

fn generate(flags: &Flags) -> Result<String, CliError> {
    let jobs: usize = flags.get_parsed("jobs", 10_000)?;
    let seed: u64 = flags.get_parsed("seed", 0xA207_2024)?;
    let factor: usize = flags.get_parsed("factor", 1)?;
    let offset: usize = flags.get_parsed("offset", 0)?;
    let trace = AzureTrace::generate(&AzureTraceConfig {
        num_jobs: jobs * factor,
        seed,
        ..Default::default()
    });
    let instance = trace.sample_instance(factor, offset.min(factor.saturating_sub(1)));
    let csv = instance_to_csv(&instance);
    match flags.get("out") {
        Some(path) => {
            std::fs::write(PathBuf::from(path), &csv)?;
            Ok(format!(
                "wrote {} jobs x {} resources to {path}\n",
                instance.len(),
                instance.num_resources()
            ))
        }
        None => Ok(csv),
    }
}

/// Parses `--speeds a,b,c` into a cluster spec: absent means the uniform
/// (identical-machine) cluster; present means related machines with the
/// listed speeds cycled over the fleet (DESIGN.md §16).
fn cluster_from_flags(flags: &Flags, machines: usize) -> Result<ClusterSpec, CliError> {
    let Some(raw) = flags.get("speeds") else {
        return Ok(ClusterSpec::uniform(machines));
    };
    let mut speeds = Vec::new();
    for part in raw.split(',') {
        let s: f64 = part
            .trim()
            .parse()
            .map_err(|e| CliError(format!("--speeds: {e}")))?;
        if !s.is_finite() || s <= 0.0 {
            return Err(CliError(format!("--speeds: {s} is not a positive speed")));
        }
        speeds.push(s);
    }
    if speeds.is_empty() {
        return Err(CliError("--speeds needs at least one value".into()));
    }
    Ok(ClusterSpec::related(machines, &speeds))
}

/// Latest completion under the spec's effective processing times; equals
/// `Schedule::makespan` on a uniform spec.
fn makespan_on(schedule: &Schedule, instance: &Instance, spec: &ClusterSpec) -> f64 {
    instance
        .jobs()
        .iter()
        .filter_map(|j| {
            let a = schedule.get(j.id)?;
            Some(a.start + spec.effective_time(a.machine, j.proc_time))
        })
        .fold(0.0, f64::max)
}

fn schedule(flags: &Flags) -> Result<String, CliError> {
    let instance = load_instance(flags.require("trace")?)?;
    let machines: usize = flags.get_parsed("machines", 20)?;
    let cluster = cluster_from_flags(flags, machines)?;
    let algo = algorithm_for_workload(flags.require("algo")?, &instance, &cluster)?;
    let obs = obs_from_flags(flags)?;
    let schedule = algo
        .try_schedule_on(&instance, &cluster)
        .map_err(|e| CliError(format!("{}: {e}", algo.name())))?;
    schedule
        .validate_on(&instance, &cluster)
        .map_err(|e| CliError(format!("internal error: produced invalid schedule: {e}")))?;
    let speeds_line = match flags.get("speeds") {
        Some(raw) => format!("# speeds: {raw}\n"),
        None => String::new(),
    };
    let mut report = format!(
        "# algorithm: {}\n# machines: {machines}\n{speeds_line}# AWCT: {:.6}\n# makespan: {:.6}\n",
        algo.name(),
        schedule.awct_on(&instance, &cluster),
        makespan_on(&schedule, &instance, &cluster)
    );
    let csv = schedule_to_csv(&schedule);
    let obs_text = match &obs {
        Some((subscriber, _guard)) => obs_epilogue(flags, subscriber)?,
        None => String::new(),
    };
    match flags.get("out") {
        Some(path) => {
            std::fs::write(PathBuf::from(path), format!("{report}{csv}"))?;
            Ok(format!(
                "scheduled {} jobs with {}; AWCT = {:.3}; wrote {path}\n{obs_text}",
                instance.len(),
                algo.name(),
                schedule.awct_on(&instance, &cluster)
            ))
        }
        None => {
            report.push_str(&csv);
            report.push_str(&obs_text);
            Ok(report)
        }
    }
}

fn compare(flags: &Flags) -> Result<String, CliError> {
    let instance = load_instance(flags.require("trace")?)?;
    let machines: usize = flags.get_parsed("machines", 20)?;
    let cluster = cluster_from_flags(flags, machines)?;
    let names = flags
        .get("algos")
        .unwrap_or("mris,pq-wsjf,tetris,bf-exec,ca-pq");
    // The provable lower bound assumes identical unit-speed machines, so
    // the ratio column only applies on a uniform cluster.
    let lb = awct_lower_bound(&instance, machines);
    let mut table = Table::new(vec![
        "algorithm",
        "AWCT",
        "AWCT/LB",
        "makespan",
        "median delay",
        "zero-delay",
    ]);
    for name in names.split(',') {
        let algo = algorithm_for_workload(name.trim(), &instance, &cluster)?;
        let schedule = algo
            .try_schedule_on(&instance, &cluster)
            .map_err(|e| CliError(format!("{}: {e}", algo.name())))?;
        schedule
            .validate_on(&instance, &cluster)
            .map_err(|e| CliError(format!("{}: invalid schedule: {e}", algo.name())))?;
        let awct = schedule.awct_on(&instance, &cluster);
        let cdf = Cdf::new(schedule.queuing_delays(&instance));
        table.push_row(vec![
            algo.name(),
            format!("{awct:.1}"),
            if cluster.is_uniform() {
                format!("{:.2}", awct / lb)
            } else {
                "-".to_string()
            },
            format!("{:.1}", makespan_on(&schedule, &instance, &cluster)),
            format!("{:.1}", cdf.quantile(0.5)),
            format!("{:.0}%", cdf.fraction_zero() * 100.0),
        ]);
    }
    let cluster_note = match flags.get("speeds") {
        Some(raw) => format!(", related speeds {raw}"),
        None => String::new(),
    };
    Ok(format!(
        "{} jobs, {} resources, {machines} machines{cluster_note} \
         (AWCT/LB upper-bounds the true ratio)\n\n{}",
        instance.len(),
        instance.num_resources(),
        table.to_markdown()
    ))
}

fn validate(flags: &Flags) -> Result<String, CliError> {
    let instance = load_instance(flags.require("trace")?)?;
    let machines: usize = flags.get_parsed("machines", 20)?;
    let path = flags.require("schedule")?;
    let text =
        std::fs::read_to_string(path).map_err(|e| CliError(format!("cannot read {path}: {e}")))?;
    let schedule = parse_schedule_csv(&text, instance.len(), machines)
        .map_err(|e| CliError(format!("{path}: {e}")))?;
    match schedule.validate(&instance) {
        Ok(()) => Ok(format!(
            "OK: feasible schedule\nAWCT     = {:.6}\nmakespan = {:.6}\nmean delay = {:.6}\n",
            schedule.awct(&instance),
            schedule.makespan(&instance),
            schedule.queuing_delays(&instance).iter().sum::<f64>() / instance.len().max(1) as f64,
        )),
        Err(e) => Err(CliError(format!("INFEASIBLE: {e}"))),
    }
}

fn chaos(flags: &Flags) -> Result<String, CliError> {
    let instance = load_instance(flags.require("trace")?)?;
    let machines: usize = flags.get_parsed("machines", 20)?;
    let rate: f64 = flags.get_parsed("rate", 1.0)?;
    let mttr_frac: f64 = flags.get_parsed("mttr-frac", 0.05)?;
    let seed: u64 = flags.get_parsed("seed", 0xC4A05)?;
    let aging_factor: f64 = flags.get_parsed("aging-factor", 2.0)?;
    if !rate.is_finite() || rate < 0.0 {
        return Err(CliError(format!(
            "--rate must be finite and >= 0, got {rate}"
        )));
    }
    if !mttr_frac.is_finite() || mttr_frac <= 0.0 {
        return Err(CliError(format!(
            "--mttr-frac must be finite and > 0, got {mttr_frac}"
        )));
    }
    let restart = restart_from_flags(flags, aging_factor)?;
    let names = flags
        .get("algos")
        .unwrap_or("mris,pq-wsjf,tetris,bf-exec,ca-pq");
    let horizon = suggested_horizon(&instance, machines);
    let plan = if rate == 0.0 {
        FaultPlan::none()
    } else {
        FaultPlan::poisson(&PoissonFaultConfig {
            seed,
            num_machines: machines,
            horizon,
            mtbf: horizon / rate,
            mttr: mttr_frac * horizon,
        })
    };
    let mut table = Table::new(vec![
        "algorithm",
        "AWCT (no faults)",
        "AWCT (chaos)",
        "inflation",
        "failures",
        "re-releases",
    ]);
    for name in names.split(',') {
        let algo = algorithm_by_name(name.trim())?;
        let baseline = algo.schedule(&instance, machines);
        let mut policy = online_policy_by_name(name.trim(), &instance, machines)?;
        let outcome = run_online_chaos(&instance, machines, policy.as_mut(), &plan, restart)
            .map_err(|e| CliError(format!("{}: chaos run failed: {e}", algo.name())))?;
        outcome
            .log
            .verify()
            .map_err(|v| CliError(format!("{}: invariant violation: {v}", algo.name())))?;
        let base_awct = baseline.awct(&instance);
        let chaos_awct = outcome.schedule.awct(&instance);
        table.push_row(vec![
            algo.name(),
            format!("{base_awct:.1}"),
            format!("{chaos_awct:.1}"),
            format!("{:.3}", chaos_awct / base_awct),
            format!("{}", outcome.log.failures.len()),
            format!("{}", outcome.log.total_re_releases()),
        ]);
    }
    Ok(format!(
        "{} jobs, {} resources, {machines} machines; failure rate {rate} \
         (per-machine MTBF = horizon/rate, horizon {horizon:.1}), restart = {}\n\n{}",
        instance.len(),
        instance.num_resources(),
        restart.label(),
        table.to_markdown()
    ))
}

fn restart_from_flags(flags: &Flags, aging_factor: f64) -> Result<RestartSemantics, CliError> {
    match flags.get("restart").unwrap_or("full") {
        "full" => Ok(RestartSemantics::FullRestart),
        "aging" => Ok(RestartSemantics::WeightAging {
            factor: aging_factor,
        }),
        other => Err(CliError(format!(
            "--restart must be 'full' or 'aging', got '{other}'"
        ))),
    }
}

/// Parses `--tenants "name:token:weight[,name:token:weight...]"` into a
/// tenant table. An empty/absent flag means single-tenant.
fn tenants_from_flags(flags: &Flags) -> Result<Vec<TenantSpec>, CliError> {
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

/// Reads the service knobs shared by `serve` and `loadgen` into a
/// [`ServiceConfig`]: `--epoch`, `--queue-watermark`, `--load-watermark`,
/// `--tenants`, `--fair-watermark`.
fn service_cfg_from_flags(flags: &Flags, machines: usize) -> Result<ServiceConfig, CliError> {
    if machines == 0 {
        return Err(CliError("--machines must be at least 1".into()));
    }
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
struct DurabilitySetup {
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

/// Feeds every job of `instance` through the admission path of a fresh
/// service (at its release time, in `(release, id)` order), drains, and
/// verifies the fault log. With `telemetry`, per-epoch records and the
/// summary stream to that JSONL file. With `durability`, every
/// state-mutating event is journaled (and optionally snapshotted) as it
/// happens.
fn drive_service(
    instance: &Instance,
    name: &str,
    cfg: ServiceConfig,
    telemetry: Option<&str>,
    durability: Option<&DurabilitySetup>,
) -> Result<ServiceReport, CliError> {
    let machines = cfg.num_machines;
    let policy = online_policy_by_name(name, instance, machines)?;
    let writer: Box<dyn std::io::Write> = match telemetry {
        Some(path) => Box::new(
            std::fs::File::create(path)
                .map_err(|e| CliError(format!("cannot create {path}: {e}")))?,
        ),
        None => Box::new(std::io::sink()),
    };
    // The bridge leaves the JSONL bytes untouched and mirrors records into
    // the obs layer when a subscriber is installed.
    let mut service = Service::new(
        instance.clone(),
        policy,
        cfg,
        SimClock::new(),
        ObsBridge::new(JsonlSink::new(writer)),
    )?;
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
    let mut order: Vec<JobId> = instance.jobs().iter().map(|j| j.id).collect();
    order.sort_by(|&a, &b| {
        instance
            .job(a)
            .release
            .total_cmp(&instance.job(b).release)
            .then(a.cmp(&b))
    });
    for job in order {
        // Admission rejections are recorded in the report's ledger; only
        // policy failures abort the run.
        let _ = service
            .submit_at(instance.job(job).release, job)
            .map_err(|e| CliError(format!("{name}: service error: {e}")))?;
    }
    if let Some(e) = service.durability_error() {
        return Err(CliError(format!("{name}: journal write failed: {e}")));
    }
    let (report, sink) = service
        .drain()
        .map_err(|e| CliError(format!("{name}: drain failed: {e}")))?;
    sink.into_inner()
        .finish()
        .map_err(|e| CliError(format!("telemetry write failed: {e}")))?;
    report
        .log
        .verify()
        .map_err(|v| CliError(format!("{name}: fault-log violation: {v}")))?;
    Ok(report)
}

fn service_summary_text(report: &ServiceReport) -> String {
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

fn serve(flags: &Flags) -> Result<String, CliError> {
    if let Some(listen) = flags.get("listen") {
        return serve_listen(flags, listen);
    }
    let instance = load_instance(flags.require("trace")?)?;
    let machines: usize = flags.get_parsed("machines", 20)?;
    let name = flags.get("algo").unwrap_or("mris");
    let cfg = service_cfg_from_flags(flags, machines)?;
    let epoch = cfg.epoch;
    let obs = obs_from_flags(flags)?;
    let durability = durability_setup(flags)?;
    let report = drive_service(
        &instance,
        name,
        cfg,
        flags.get("telemetry"),
        durability.as_ref(),
    )?;
    let obs_text = match &obs {
        Some((subscriber, _guard)) => obs_epilogue(flags, subscriber)?,
        None => String::new(),
    };
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

/// `mris serve --listen`: open the TCP front door on `listen` and block
/// until a client drains the service. The workload is `--trace`, or the
/// loadgen generator when `--loadgen` is given (so a `loadgen --connect`
/// twin regenerates the identical instance client-side — the handshake
/// fingerprint pins the match). The bound address lands in `--port-file`
/// (and on stderr) before the server blocks, so scripts can discover an
/// ephemeral port.
fn serve_listen(flags: &Flags, listen: &str) -> Result<String, CliError> {
    let (instance, cfg, name, source_text) = if flags.switch("loadgen") {
        let plan = loadgen_plan(flags)?;
        let text = format!("workload: {}\n", plan.header.replace('\n', "\n          "));
        (plan.instance, plan.cfg, plan.name, text)
    } else {
        let machines: usize = flags.get_parsed("machines", 20)?;
        let name = flags.get("algo").unwrap_or("mris").to_string();
        let instance = load_instance(flags.require("trace")?)?;
        let cfg = service_cfg_from_flags(flags, machines)?;
        (instance, cfg, name, String::new())
    };
    let machines = cfg.num_machines;
    // Validate the policy name before `serve_net` builds the policy from it.
    let _ = online_policy_by_name(&name, &instance, machines)?;
    let obs = obs_from_flags(flags)?;
    let writer: Box<dyn std::io::Write + Send> = match flags.get("telemetry") {
        Some(path) => Box::new(
            std::fs::File::create(path)
                .map_err(|e| CliError(format!("cannot create {path}: {e}")))?,
        ),
        None => Box::new(std::io::sink()),
    };
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
        ObsBridge::new(JsonlSink::new(writer)),
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
    sink.into_inner()
        .finish()
        .map_err(|e| CliError(format!("telemetry write failed: {e}")))?;
    report
        .log
        .verify()
        .map_err(|v| CliError(format!("{name}: fault-log violation: {v}")))?;
    let obs_text = match &obs {
        Some((subscriber, _guard)) => obs_epilogue(flags, subscriber)?,
        None => String::new(),
    };
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
fn restore(flags: &Flags) -> Result<String, CliError> {
    let instance = load_instance(flags.require("trace")?)?;
    let machines: usize = flags.get_parsed("machines", 20)?;
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
        (None, Some(dir)) => DirSnapshots::latest(std::path::Path::new(dir))
            .map_err(|e| CliError(format!("cannot read snapshots in {dir}: {e}")))?,
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
    // (release, id) order the original serve used, never before the
    // replayed frontier.
    let mut remaining: Vec<JobId> = instance
        .jobs()
        .iter()
        .map(|j| j.id)
        .filter(|&j| matches!(service.outcome(j), JobOutcome::NotSubmitted))
        .collect();
    remaining.sort_by(|&a, &b| {
        instance
            .job(a)
            .release
            .total_cmp(&instance.job(b).release)
            .then(a.cmp(&b))
    });
    let resubmitted = remaining.len();
    for job in remaining {
        let at = instance.job(job).release.max(restore.resumed_at);
        let _ = service
            .submit_at(at, job)
            .map_err(|e| CliError(format!("{name}: service error after restore: {e}")))?;
    }
    let (report, _sink) = service
        .drain()
        .map_err(|e| CliError(format!("{name}: drain failed after restore: {e}")))?;
    report
        .log
        .verify()
        .map_err(|v| CliError(format!("{name}: fault-log violation: {v}")))?;

    let snapshot_text = match restore.snapshot_verified {
        Some(lsn) => format!("verified at lsn {lsn}"),
        None if snapshot.is_some() => "supplied but not reached".to_string(),
        None => "none".to_string(),
    };
    let tail_text = match &restore.tail_error {
        Some(e) => format!(" ({e})"),
        None => String::new(),
    };
    Ok(format!(
        "restore: {} jobs, {machines} machines, algo = {name}\n\n\
         records     = {} replayed ({} regenerated past the journal end)\n\
         torn tail   = {} bytes dropped{tail_text}\n\
         snapshot    = {snapshot_text}\n\
         shutdown    = {}\n\
         resumed at t = {:.3} ({:.3}s wall); resubmitted {resubmitted} jobs\n\n{}",
        instance.len(),
        restore.records,
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

/// Everything `loadgen` derives from its flags before driving a service:
/// the generated instance, the service config (fault plan and restart
/// semantics included), the policy name, and the header lines describing
/// the run. `serve --listen --loadgen` builds the same plan server-side,
/// so a `loadgen --connect` client regenerates the identical world and
/// the handshake fingerprint proves it.
struct LoadgenPlan {
    instance: Instance,
    cfg: ServiceConfig,
    name: String,
    header: String,
}

fn loadgen_plan(flags: &Flags) -> Result<LoadgenPlan, CliError> {
    let jobs: usize = flags.get_parsed("jobs", 500)?;
    let seed: u64 = flags.get_parsed("seed", 0x10AD)?;
    let machines: usize = flags.get_parsed("machines", 8)?;
    let name = flags.get("algo").unwrap_or("mris");
    let utilization: f64 = flags.get_parsed("utilization", 0.7)?;
    if jobs == 0 {
        return Err(CliError("--jobs must be at least 1".into()));
    }
    if !utilization.is_finite() || utilization <= 0.0 {
        return Err(CliError(format!(
            "--utilization must be finite and > 0, got {utilization}"
        )));
    }
    let mut cfg = service_cfg_from_flags(flags, machines)?;

    // Shapes are arrival-process independent for a fixed seed: probe once
    // to calibrate the Poisson rate against the target utilization.
    let probe = generate_workload(&LoadGenConfig {
        num_jobs: jobs,
        seed,
        arrivals: ArrivalProcess::Bursts {
            period: 1.0,
            size: 1,
        },
    });
    let rate = match flags.get("rate") {
        Some(_) => flags.get_parsed("rate", 0.0)?,
        None => poisson_rate_for_utilization(&probe.instance, machines, utilization),
    };
    if !rate.is_finite() || rate <= 0.0 {
        return Err(CliError(format!(
            "--rate must be finite and > 0, got {rate}"
        )));
    }
    let process = flags.get("process").unwrap_or("poisson");
    let arrivals = match process {
        "poisson" => ArrivalProcess::Poisson { rate },
        "bursts" => {
            let size: usize = flags.get_parsed("burst-size", (jobs / 20).max(1))?;
            if size == 0 {
                return Err(CliError("--burst-size must be at least 1".into()));
            }
            ArrivalProcess::Bursts {
                period: size as f64 / rate,
                size,
            }
        }
        other => {
            return Err(CliError(format!(
                "--process must be 'poisson' or 'bursts', got '{other}'"
            )))
        }
    };
    let workload = generate_workload(&LoadGenConfig {
        num_jobs: jobs,
        seed,
        arrivals,
    });

    // Optional fault layer, replayed against the live service.
    let plan_name = flags.get("fault-plan").unwrap_or("none");
    let fault_rate: f64 = flags.get_parsed("fault-rate", 1.0)?;
    let mttr_frac: f64 = flags.get_parsed("mttr-frac", 0.05)?;
    let fault_seed: u64 = flags.get_parsed("fault-seed", seed ^ 0xFA17)?;
    if !fault_rate.is_finite() || fault_rate < 0.0 {
        return Err(CliError(format!(
            "--fault-rate must be finite and >= 0, got {fault_rate}"
        )));
    }
    if !mttr_frac.is_finite() || mttr_frac <= 0.0 {
        return Err(CliError(format!(
            "--mttr-frac must be finite and > 0, got {mttr_frac}"
        )));
    }
    if !matches!(plan_name, "none" | "poisson" | "racks" | "adversarial") {
        return Err(CliError(format!(
            "--fault-plan must be one of none|poisson|racks|adversarial, got '{plan_name}'"
        )));
    }
    let horizon = suggested_horizon(&workload.instance, machines);
    let plan = if plan_name == "none" || fault_rate == 0.0 {
        FaultPlan::none()
    } else {
        match plan_name {
            "poisson" => FaultPlan::poisson(&PoissonFaultConfig {
                seed: fault_seed,
                num_machines: machines,
                horizon,
                mtbf: horizon / fault_rate,
                mttr: mttr_frac * horizon,
            }),
            "racks" => FaultPlan::rack_bursts(&RackBurstConfig {
                seed: fault_seed,
                num_machines: machines,
                rack_size: (machines / 4).max(1),
                horizon,
                mtbb: horizon / fault_rate,
                downtime: mttr_frac * horizon,
            }),
            _ => FaultPlan::adversarial_busiest(
                fault_rate.ceil() as usize,
                0.1 * horizon,
                0.8 * horizon / fault_rate.ceil(),
                mttr_frac * horizon,
            ),
        }
    };
    let plan_events = plan.len();
    cfg.restart = restart_from_flags(flags, flags.get_parsed("aging-factor", 2.0)?)?;
    let restart_label = cfg.restart.label();
    cfg.fault_plan = plan;

    let header = format!(
        "loadgen: {jobs} jobs, {machines} machines, algo = {name}, process = {process} \
         (rate {rate:.4}/s, target utilization {utilization})\n\
         faults: plan = {plan_name} ({plan_events} events over horizon {horizon:.1}), \
         restart = {restart_label}"
    );
    Ok(LoadgenPlan {
        instance: workload.instance,
        cfg,
        name: name.to_string(),
        header,
    })
}

fn loadgen(flags: &Flags) -> Result<String, CliError> {
    let plan = loadgen_plan(flags)?;
    if let Some(addr) = flags.get("connect") {
        return loadgen_connect(flags, plan, addr);
    }
    let obs = obs_from_flags(flags)?;
    let report = drive_service(
        &plan.instance,
        &plan.name,
        plan.cfg,
        flags.get("telemetry"),
        None,
    )?;
    let obs_text = match &obs {
        Some((subscriber, _guard)) => obs_epilogue(flags, subscriber)?,
        None => String::new(),
    };
    Ok(format!(
        "{}\n\n{}{obs_text}",
        plan.header,
        service_summary_text(&report)
    ))
}

/// `mris loadgen --connect`: replay the generated workload (fault plan
/// and all) over TCP against a `serve --listen --loadgen` twin started
/// with the same flags. The handshake pins the configuration fingerprint
/// of the regenerated world, and the drained report's fault log is
/// verified exactly as the in-process path does.
fn loadgen_connect(flags: &Flags, plan: LoadgenPlan, addr: &str) -> Result<String, CliError> {
    let token = flags.get("token").unwrap_or("");
    let fingerprint = service_fingerprint(&plan.instance, &plan.cfg);
    let mut client = NetClient::connect(addr, token, fingerprint)
        .map_err(|e| CliError(format!("connect {addr}: {e}")))?;
    let mut order: Vec<JobId> = plan.instance.jobs().iter().map(|j| j.id).collect();
    order.sort_by(|&a, &b| {
        plan.instance
            .job(a)
            .release
            .total_cmp(&plan.instance.job(b).release)
            .then(a.cmp(&b))
    });
    let (mut accepted, mut rejected) = (0u64, 0u64);
    for job in order {
        let at = plan.instance.job(job).release;
        match client
            .submit_at(at, job)
            .map_err(|e| CliError(format!("submit over {addr}: {e}")))?
        {
            Ok(()) => accepted += 1,
            Err(_) => rejected += 1,
        }
    }
    let report = client
        .drain()
        .map_err(|e| CliError(format!("drain over {addr}: {e}")))?;
    report
        .log
        .verify()
        .map_err(|v| CliError(format!("fault-log violation over TCP: {v}")))?;
    Ok(format!(
        "{}\n\
         over TCP: {addr} (fingerprint {fingerprint:#018x}), \
         door accepted {accepted} / rejected {rejected}\n\n{}",
        plan.header,
        service_summary_text(&report)
    ))
}

/// `mris client <submit|query|stats|drain>`: a thin remote control for a
/// `serve --listen` door.
fn client(args: &[String]) -> Result<String, CliError> {
    let Some((action, rest)) = args.split_first() else {
        return Err(CliError(format!(
            "client needs an action: mris client <submit|query|stats|drain> \
             --connect HOST:PORT\n\n{}",
            usage()
        )));
    };
    let flags = Flags::parse(rest)?;
    let addr = flags.require("connect")?;
    let token = flags.get("token").unwrap_or("");
    let fingerprint: u64 = flags.get_parsed("fingerprint", 0)?;
    let mut client = NetClient::connect(addr, token, fingerprint)
        .map_err(|e| CliError(format!("connect {addr}: {e}")))?;
    match action.as_str() {
        "submit" => {
            let instance = load_instance(flags.require("trace")?)?;
            let mut order: Vec<JobId> = instance.jobs().iter().map(|j| j.id).collect();
            order.sort_by(|&a, &b| {
                instance
                    .job(a)
                    .release
                    .total_cmp(&instance.job(b).release)
                    .then(a.cmp(&b))
            });
            let (mut accepted, mut rejected) = (0u64, 0u64);
            let mut first_rejection = None;
            for job in order {
                match client
                    .submit_at(instance.job(job).release, job)
                    .map_err(|e| CliError(format!("submit over {addr}: {e}")))?
                {
                    Ok(()) => accepted += 1,
                    Err(e) => {
                        rejected += 1;
                        first_rejection.get_or_insert_with(|| format!("{e}"));
                    }
                }
            }
            let rejection_text = match first_rejection {
                Some(e) => format!(" (first: {e})"),
                None => String::new(),
            };
            Ok(format!(
                "client submit: offered {} jobs to {addr} as tenant {}, \
                 accepted {accepted}, rejected {rejected}{rejection_text}\n",
                instance.len(),
                client.tenant()
            ))
        }
        "query" => {
            let job: u32 = flags
                .require("job")?
                .parse()
                .map_err(|e| CliError(format!("--job: {e}")))?;
            let outcome = client
                .query(JobId(job))
                .map_err(|e| CliError(format!("query over {addr}: {e}")))?;
            Ok(format!("job {job}: {outcome:?}\n"))
        }
        "stats" => {
            let s = client
                .stats()
                .map_err(|e| CliError(format!("stats over {addr}: {e}")))?;
            let mut text = format!(
                "stats at t = {:.3}: queue depth {}, submitted {}, accepted {}, \
                 rejected {}, completed {}\n",
                s.now, s.queue_depth, s.submitted, s.accepted, s.rejected, s.completed
            );
            for t in &s.tenants {
                text.push_str(&format!(
                    "tenant {} (weight {}): admitted {} ({} demand ticks), rejected {}\n",
                    t.name, t.weight, t.admitted, t.admitted_cost, t.rejected
                ));
            }
            Ok(text)
        }
        "drain" => {
            let report = client
                .drain()
                .map_err(|e| CliError(format!("drain over {addr}: {e}")))?;
            report
                .log
                .verify()
                .map_err(|v| CliError(format!("fault-log violation over TCP: {v}")))?;
            Ok(format!(
                "client drain: final report from {addr}\n\n{}",
                service_summary_text(&report)
            ))
        }
        other => Err(CliError(format!(
            "unknown client action '{other}' (expected submit|query|stats|drain)"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("mris_cli_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn s(args: &[&str]) -> Vec<String> {
        args.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn generate_schedule_validate_pipeline() {
        let trace_path = tmp("pipeline_trace.csv");
        let sched_path = tmp("pipeline_schedule.csv");
        let out = run(&s(&[
            "generate",
            "--jobs",
            "300",
            "--out",
            trace_path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("300 jobs"));

        let out = run(&s(&[
            "schedule",
            "--trace",
            trace_path.to_str().unwrap(),
            "--algo",
            "mris",
            "--machines",
            "4",
            "--out",
            sched_path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("MRIS-WSJF"), "{out}");

        let out = run(&s(&[
            "validate",
            "--trace",
            trace_path.to_str().unwrap(),
            "--schedule",
            sched_path.to_str().unwrap(),
            "--machines",
            "4",
        ]))
        .unwrap();
        assert!(out.starts_with("OK"), "{out}");
    }

    #[test]
    fn compare_prints_table() {
        let trace_path = tmp("compare_trace.csv");
        run(&s(&[
            "generate",
            "--jobs",
            "200",
            "--out",
            trace_path.to_str().unwrap(),
        ]))
        .unwrap();
        let out = run(&s(&[
            "compare",
            "--trace",
            trace_path.to_str().unwrap(),
            "--machines",
            "3",
            "--algos",
            "mris,pq-wsjf",
        ]))
        .unwrap();
        assert!(
            out.contains("MRIS-WSJF") && out.contains("PQ-WSJF"),
            "{out}"
        );
        assert!(out.contains("AWCT/LB"));
    }

    #[test]
    fn compare_on_related_speeds() {
        let trace_path = tmp("related_trace.csv");
        run(&s(&[
            "generate",
            "--jobs",
            "150",
            "--out",
            trace_path.to_str().unwrap(),
        ]))
        .unwrap();
        let out = run(&s(&[
            "compare",
            "--trace",
            trace_path.to_str().unwrap(),
            "--machines",
            "4",
            "--algos",
            "mris,pq-wsjf",
            "--speeds",
            "2.0,1.0,0.5",
        ]))
        .unwrap();
        // The unit-speed lower bound doesn't apply on a related cluster.
        assert!(out.contains("related speeds 2.0,1.0,0.5"), "{out}");
        assert!(out.contains(" - |"), "{out}");

        let err = run(&s(&[
            "schedule",
            "--trace",
            trace_path.to_str().unwrap(),
            "--algo",
            "mris",
            "--machines",
            "4",
            "--speeds",
            "0,-1",
        ]))
        .unwrap_err();
        assert!(err.0.contains("positive speed"), "{}", err.0);
    }

    #[test]
    fn chaos_reports_inflation_table() {
        let trace_path = tmp("chaos_trace.csv");
        run(&s(&[
            "generate",
            "--jobs",
            "120",
            "--out",
            trace_path.to_str().unwrap(),
        ]))
        .unwrap();
        let out = run(&s(&[
            "chaos",
            "--trace",
            trace_path.to_str().unwrap(),
            "--machines",
            "3",
            "--algos",
            "mris,pq-wsjf",
            "--rate",
            "1.0",
            "--seed",
            "7",
        ]))
        .unwrap();
        assert!(
            out.contains("MRIS-WSJF") && out.contains("PQ-WSJF"),
            "{out}"
        );
        assert!(
            out.contains("inflation") && out.contains("re-releases"),
            "{out}"
        );
        // rate 0 degenerates to the failure-free run: inflation exactly 1.
        let out = run(&s(&[
            "chaos",
            "--trace",
            trace_path.to_str().unwrap(),
            "--machines",
            "3",
            "--algos",
            "pq-wsjf",
            "--rate",
            "0",
        ]))
        .unwrap();
        assert!(out.contains("1.000"), "{out}");
        // Aging restart is accepted; bogus restart is not.
        run(&s(&[
            "chaos",
            "--trace",
            trace_path.to_str().unwrap(),
            "--machines",
            "3",
            "--algos",
            "pq-wsjf",
            "--restart",
            "aging",
        ]))
        .unwrap();
        let err = run(&s(&[
            "chaos",
            "--trace",
            trace_path.to_str().unwrap(),
            "--restart",
            "sideways",
        ]))
        .unwrap_err();
        assert!(err.0.contains("'full' or 'aging'"), "{err}");
    }

    #[test]
    fn helpful_errors() {
        assert!(run(&s(&["bogus"])).is_err());
        assert!(run(&[]).is_err());
        let err = run(&s(&["schedule", "--algo", "mris"])).unwrap_err();
        assert!(err.0.contains("--trace"), "{err}");
        let err = run(&s(&[
            "schedule",
            "--trace",
            "/nonexistent",
            "--algo",
            "mris",
        ]))
        .unwrap_err();
        assert!(err.0.contains("cannot read"), "{err}");
    }

    #[test]
    fn serve_runs_trace_through_service() {
        let trace_path = tmp("serve_trace.csv");
        let jsonl_path = tmp("serve_telemetry.jsonl");
        run(&s(&[
            "generate",
            "--jobs",
            "80",
            "--out",
            trace_path.to_str().unwrap(),
        ]))
        .unwrap();
        let out = run(&s(&[
            "serve",
            "--trace",
            trace_path.to_str().unwrap(),
            "--algo",
            "mris",
            "--machines",
            "3",
            "--telemetry",
            jsonl_path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("completed   = 80"), "{out}");
        assert!(out.contains("AWCT"), "{out}");
        assert!(out.contains("fault log verified OK"), "{out}");
        let jsonl = std::fs::read_to_string(&jsonl_path).unwrap();
        assert!(jsonl.contains("\"event\": \"epoch\""), "{jsonl}");
        assert!(jsonl.contains("\"event\": \"summary\""), "{jsonl}");

        // A tiny queue watermark sheds load instead of dropping silently.
        let out = run(&s(&[
            "serve",
            "--trace",
            trace_path.to_str().unwrap(),
            "--algo",
            "tetris",
            "--machines",
            "3",
            "--queue-watermark",
            "1",
        ]))
        .unwrap();
        assert!(out.contains("queue full"), "{out}");
        let err = run(&s(&[
            "serve",
            "--trace",
            trace_path.to_str().unwrap(),
            "--queue-watermark",
            "0",
        ]))
        .unwrap_err();
        assert!(err.0.contains("queue-watermark"), "{err}");
    }

    #[test]
    fn serve_journal_then_restore_round_trips() {
        let trace_path = tmp("durable_trace.csv");
        let journal_path = tmp("durable.mrjl");
        let snap_dir = tmp("durable_snaps");
        run(&s(&[
            "generate",
            "--jobs",
            "60",
            "--out",
            trace_path.to_str().unwrap(),
        ]))
        .unwrap();
        let serve_out = run(&s(&[
            "serve",
            "--trace",
            trace_path.to_str().unwrap(),
            "--algo",
            "pq-wsjf",
            "--machines",
            "3",
            "--journal",
            journal_path.to_str().unwrap(),
            "--snapshot-dir",
            snap_dir.to_str().unwrap(),
            "--snapshot-every",
            "16",
        ]))
        .unwrap();
        assert!(serve_out.contains("journal     ="), "{serve_out}");
        assert!(journal_path.exists());

        // A full journal restores cleanly to the same drained summary.
        let restore_out = run(&s(&[
            "restore",
            "--trace",
            trace_path.to_str().unwrap(),
            "--algo",
            "pq-wsjf",
            "--machines",
            "3",
            "--journal",
            journal_path.to_str().unwrap(),
            "--snapshot-dir",
            snap_dir.to_str().unwrap(),
            "--snapshot-every",
            "16",
        ]))
        .unwrap();
        assert!(restore_out.contains("shutdown    = clean"), "{restore_out}");
        assert!(restore_out.contains("resubmitted 0 jobs"), "{restore_out}");
        let serve_awct = serve_out
            .lines()
            .find(|l| l.starts_with("AWCT"))
            .unwrap()
            .to_string();
        assert!(restore_out.contains(&serve_awct), "{restore_out}");

        // A torn journal (crash mid-write) still restores: the cut tail is
        // dropped and replay regenerates the schedule up to the cut.
        let bytes = std::fs::read(&journal_path).unwrap();
        let torn_path = tmp("durable_torn.mrjl");
        std::fs::write(&torn_path, &bytes[..bytes.len() * 2 / 3]).unwrap();
        let torn_out = run(&s(&[
            "restore",
            "--trace",
            trace_path.to_str().unwrap(),
            "--algo",
            "pq-wsjf",
            "--machines",
            "3",
            "--journal",
            torn_path.to_str().unwrap(),
            "--snapshot-every",
            "16",
        ]))
        .unwrap();
        assert!(torn_out.contains("shutdown    = crash"), "{torn_out}");
        assert!(torn_out.contains(&serve_awct), "{torn_out}");

        // Wrong config ⇒ fingerprint mismatch, not a bogus replay.
        let err = run(&s(&[
            "restore",
            "--trace",
            trace_path.to_str().unwrap(),
            "--algo",
            "pq-wsjf",
            "--machines",
            "4",
            "--journal",
            journal_path.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(err.0.contains("fingerprint"), "{err}");
    }

    #[test]
    fn loadgen_replays_fault_plan_against_live_service() {
        let out = run(&s(&[
            "loadgen",
            "--jobs",
            "60",
            "--machines",
            "3",
            "--algo",
            "pq-wsjf",
            "--seed",
            "5",
            "--fault-plan",
            "poisson",
            "--fault-rate",
            "2",
        ]))
        .unwrap();
        assert!(out.contains("plan = poisson"), "{out}");
        assert!(out.contains("fault log verified OK"), "{out}");
        assert!(out.contains("completed"), "{out}");

        // Burst arrivals and rack faults also drain clean.
        let out = run(&s(&[
            "loadgen",
            "--jobs",
            "40",
            "--machines",
            "4",
            "--algo",
            "tetris",
            "--process",
            "bursts",
            "--fault-plan",
            "racks",
            "--restart",
            "aging",
        ]))
        .unwrap();
        assert!(out.contains("process = bursts"), "{out}");
        assert!(out.contains("restart = aging"), "{out}");

        let err = run(&s(&["loadgen", "--fault-plan", "sideways"])).unwrap_err();
        assert!(err.0.contains("none|poisson|racks|adversarial"), "{err}");
        let err = run(&s(&["loadgen", "--process", "sideways"])).unwrap_err();
        assert!(err.0.contains("poisson"), "{err}");
    }

    #[test]
    fn run_alias_and_obs_flag() {
        let trace_path = tmp("obs_trace.csv");
        let prom_path = tmp("obs_metrics.prom");
        let events_path = tmp("obs_events.jsonl");
        run(&s(&[
            "generate",
            "--jobs",
            "60",
            "--out",
            trace_path.to_str().unwrap(),
        ]))
        .unwrap();
        // `run` resolves to the schedule verb; `--obs` is a switch flag that
        // appends the Prometheus rendering to the output.
        let out = run(&s(&[
            "run",
            "--trace",
            trace_path.to_str().unwrap(),
            "--algo",
            "mris",
            "--machines",
            "3",
            "--obs",
            "--obs-events",
            events_path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("observability"), "{out}");
        assert!(out.contains("mris_knapsack_solves_total"), "{out}");
        assert!(out.contains("mris_timeline_probes_total"), "{out}");
        let events = std::fs::read_to_string(&events_path).unwrap();
        assert!(events.contains("mris_schedule_seconds"), "{events}");

        // With --metrics-path the exposition goes to the file instead.
        let out = run(&s(&[
            "schedule",
            "--trace",
            trace_path.to_str().unwrap(),
            "--algo",
            "pq-wsjf",
            "--machines",
            "3",
            "--metrics-path",
            prom_path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("wrote Prometheus metrics"), "{out}");
        let prom = std::fs::read_to_string(&prom_path).unwrap();
        assert!(prom.contains("# TYPE"), "{prom}");
        mris_obs::validate_exposition(&prom).unwrap();
    }

    #[test]
    fn serve_writes_prometheus_metrics() {
        let trace_path = tmp("serve_prom_trace.csv");
        let prom_path = tmp("serve_metrics.prom");
        run(&s(&[
            "generate",
            "--jobs",
            "50",
            "--out",
            trace_path.to_str().unwrap(),
        ]))
        .unwrap();
        let out = run(&s(&[
            "serve",
            "--trace",
            trace_path.to_str().unwrap(),
            "--algo",
            "mris",
            "--machines",
            "3",
            "--metrics-path",
            prom_path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("wrote Prometheus metrics"), "{out}");
        let prom = std::fs::read_to_string(&prom_path).unwrap();
        mris_obs::validate_exposition(&prom).unwrap();
        for family in [
            "mris_service_admitted_total",
            "mris_service_epochs_total",
            "mris_service_epoch_batch_size",
            "mris_service_decision_latency_seconds",
            "mris_dispatcher_placements_total",
            "mris_timeline_probes_total",
        ] {
            assert!(prom.contains(family), "missing {family} in:\n{prom}");
        }
    }

    #[test]
    fn unknown_algorithm_suggests_fix() {
        let trace_path = tmp("suggest_trace.csv");
        run(&s(&[
            "generate",
            "--jobs",
            "10",
            "--out",
            trace_path.to_str().unwrap(),
        ]))
        .unwrap();
        let err = run(&s(&[
            "schedule",
            "--trace",
            trace_path.to_str().unwrap(),
            "--algo",
            "tetriss",
        ]))
        .unwrap_err();
        assert!(err.0.contains("did you mean 'tetris'"), "{err}");
    }

    #[test]
    fn validate_rejects_tampered_schedule() {
        let trace_path = tmp("tamper_trace.csv");
        let sched_path = tmp("tamper_schedule.csv");
        run(&s(&[
            "generate",
            "--jobs",
            "50",
            "--out",
            trace_path.to_str().unwrap(),
        ]))
        .unwrap();
        run(&s(&[
            "schedule",
            "--trace",
            trace_path.to_str().unwrap(),
            "--algo",
            "pq-wsjf",
            "--machines",
            "2",
            "--out",
            sched_path.to_str().unwrap(),
        ]))
        .unwrap();
        // Move every start to zero: releases are violated.
        let text = std::fs::read_to_string(&sched_path).unwrap();
        let tampered: String = text
            .lines()
            .map(|l| {
                if l.starts_with('#') || l.starts_with("job") {
                    l.to_string()
                } else {
                    let mut parts: Vec<&str> = l.split(',').collect();
                    parts[2] = "0";
                    parts.join(",")
                }
            })
            .collect::<Vec<_>>()
            .join("\n");
        std::fs::write(&sched_path, tampered).unwrap();
        let err = run(&s(&[
            "validate",
            "--trace",
            trace_path.to_str().unwrap(),
            "--schedule",
            sched_path.to_str().unwrap(),
            "--machines",
            "2",
        ]))
        .unwrap_err();
        assert!(err.0.contains("INFEASIBLE"), "{err}");
    }

    /// Polls `--port-file` until the server thread has written the bound
    /// address.
    fn wait_for_port_file(path: &std::path::Path) -> String {
        for _ in 0..500 {
            if let Ok(addr) = std::fs::read_to_string(path) {
                if !addr.is_empty() {
                    return addr;
                }
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        panic!("server never wrote {path:?}");
    }

    #[test]
    fn serve_listen_client_round_trip() {
        let trace_path = tmp("net_trace.csv");
        let port_file = tmp("net_port.txt");
        let _ = std::fs::remove_file(&port_file);
        run(&s(&[
            "generate",
            "--jobs",
            "40",
            "--out",
            trace_path.to_str().unwrap(),
        ]))
        .unwrap();
        let server = {
            let trace = trace_path.to_str().unwrap().to_string();
            let port_file = port_file.to_str().unwrap().to_string();
            std::thread::spawn(move || {
                run(&s(&[
                    "serve",
                    "--trace",
                    &trace,
                    "--algo",
                    "pq-wsjf",
                    "--machines",
                    "3",
                    "--listen",
                    "127.0.0.1:0",
                    "--port-file",
                    &port_file,
                ]))
            })
        };
        let addr = wait_for_port_file(&port_file);

        let out = run(&s(&[
            "client",
            "submit",
            "--connect",
            &addr,
            "--trace",
            trace_path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("accepted 40, rejected 0"), "{out}");

        let out = run(&s(&["client", "query", "--connect", &addr, "--job", "0"])).unwrap();
        assert!(out.starts_with("job 0:"), "{out}");

        let out = run(&s(&["client", "stats", "--connect", &addr])).unwrap();
        assert!(out.contains("submitted 40"), "{out}");

        let out = run(&s(&["client", "drain", "--connect", &addr])).unwrap();
        assert!(out.contains("completed   = 40"), "{out}");
        assert!(out.contains("AWCT"), "{out}");
        assert!(out.contains("fault log verified OK"), "{out}");

        let server_out = server.join().unwrap().unwrap();
        assert!(server_out.contains("completed   = 40"), "{server_out}");
        assert!(server_out.contains("fingerprint"), "{server_out}");

        // The drained door refuses new connections (accept loop ended).
        let err = run(&s(&["client", "stats", "--connect", &addr]));
        assert!(err.is_err(), "drained server still answering: {err:?}");
    }

    #[test]
    fn loadgen_connects_to_loadgen_serve_twin() {
        let port_file = tmp("net_loadgen_port.txt");
        let _ = std::fs::remove_file(&port_file);
        let gen_flags = [
            "--loadgen",
            "--jobs",
            "60",
            "--seed",
            "77",
            "--machines",
            "2",
            "--algo",
            "pq-wsjf",
            "--fault-plan",
            "poisson",
            "--fault-rate",
            "2.0",
        ];
        let server = {
            let mut args = vec!["serve"];
            args.extend_from_slice(&gen_flags);
            args.extend_from_slice(&["--listen", "127.0.0.1:0", "--port-file"]);
            let args: Vec<String> = args.iter().map(|x| x.to_string()).collect();
            let port_file = port_file.to_str().unwrap().to_string();
            std::thread::spawn(move || {
                let mut args = args;
                args.push(port_file);
                run(&args)
            })
        };
        let addr = wait_for_port_file(&port_file);

        // Same generation flags minus --loadgen, plus --connect.
        let out = run(&s(&[
            "loadgen",
            "--jobs",
            "60",
            "--seed",
            "77",
            "--machines",
            "2",
            "--algo",
            "pq-wsjf",
            "--fault-plan",
            "poisson",
            "--fault-rate",
            "2.0",
            "--connect",
            &addr,
        ]))
        .unwrap();
        assert!(out.contains("over TCP"), "{out}");
        assert!(out.contains("fault log verified OK"), "{out}");
        assert!(out.contains("faults: plan = poisson"), "{out}");

        let server_out = server.join().unwrap().unwrap();
        assert!(server_out.contains("fault log verified OK"), "{server_out}");
    }

    #[test]
    fn loadgen_connect_refuses_mismatched_world() {
        let port_file = tmp("net_mismatch_port.txt");
        let _ = std::fs::remove_file(&port_file);
        let server = {
            let port_file = port_file.to_str().unwrap().to_string();
            std::thread::spawn(move || {
                run(&s(&[
                    "serve",
                    "--loadgen",
                    "--jobs",
                    "30",
                    "--seed",
                    "1",
                    "--machines",
                    "2",
                    "--listen",
                    "127.0.0.1:0",
                    "--port-file",
                    &port_file,
                ]))
            })
        };
        let addr = wait_for_port_file(&port_file);

        // A different seed regenerates a different world: the handshake
        // fingerprint refuses before any job crosses the wire.
        let err = run(&s(&[
            "loadgen",
            "--jobs",
            "30",
            "--seed",
            "2",
            "--machines",
            "2",
            "--connect",
            &addr,
        ]))
        .unwrap_err();
        assert!(err.0.contains("fingerprint mismatch"), "{err}");

        // The matching twin still drains the server cleanly.
        let out = run(&s(&[
            "loadgen",
            "--jobs",
            "30",
            "--seed",
            "1",
            "--machines",
            "2",
            "--connect",
            &addr,
        ]))
        .unwrap();
        assert!(out.contains("fault log verified OK"), "{out}");
        server.join().unwrap().unwrap();
    }

    #[test]
    fn serve_listen_multi_tenant_flags() {
        let trace_path = tmp("net_tenant_trace.csv");
        let port_file = tmp("net_tenant_port.txt");
        let _ = std::fs::remove_file(&port_file);
        run(&s(&[
            "generate",
            "--jobs",
            "20",
            "--out",
            trace_path.to_str().unwrap(),
        ]))
        .unwrap();
        let server = {
            let trace = trace_path.to_str().unwrap().to_string();
            let port_file = port_file.to_str().unwrap().to_string();
            std::thread::spawn(move || {
                run(&s(&[
                    "serve",
                    "--trace",
                    &trace,
                    "--algo",
                    "pq-wsjf",
                    "--machines",
                    "2",
                    "--tenants",
                    "alpha:tok-a:3.0,beta:tok-b:1.0",
                    "--listen",
                    "127.0.0.1:0",
                    "--port-file",
                    &port_file,
                ]))
            })
        };
        let addr = wait_for_port_file(&port_file);

        // A wrong token is refused at the handshake.
        let err = run(&s(&[
            "client",
            "stats",
            "--connect",
            &addr,
            "--token",
            "wrong",
        ]))
        .unwrap_err();
        assert!(err.0.contains("authentication failed"), "{err}");

        let out = run(&s(&[
            "client",
            "submit",
            "--connect",
            &addr,
            "--trace",
            trace_path.to_str().unwrap(),
            "--token",
            "tok-b",
        ]))
        .unwrap();
        assert!(out.contains("as tenant 1"), "{out}");

        let out = run(&s(&[
            "client",
            "drain",
            "--connect",
            &addr,
            "--token",
            "tok-a",
        ]))
        .unwrap();
        assert!(
            out.contains("tenant beta (weight 1): admitted = 20"),
            "{out}"
        );
        let server_out = server.join().unwrap().unwrap();
        assert!(server_out.contains("2 tenants"), "{server_out}");
    }

    #[test]
    fn tenant_flag_parse_errors_are_typed() {
        let err = run(&s(&[
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--trace",
            "/nonexistent",
            "--tenants",
            "missing-fields",
        ]))
        .unwrap_err();
        // Trace load fails first; tenants parse is exercised directly.
        assert!(err.0.contains("cannot read"), "{err}");
        let flags = Flags::parse(&s(&["--tenants", "a:b"])).unwrap();
        let err = tenants_from_flags(&flags).unwrap_err();
        assert!(err.0.contains("name:token:weight"), "{err}");
        let flags = Flags::parse(&s(&["--tenants", "a:b:heavy"])).unwrap();
        let err = tenants_from_flags(&flags).unwrap_err();
        assert!(err.0.contains("weight"), "{err}");
    }
}
