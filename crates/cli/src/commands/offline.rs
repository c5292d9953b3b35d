//! The offline verbs: `generate` a trace, `schedule` it with one algorithm,
//! `compare` several, `validate` a schedule, and replay faults in `chaos`.

use mris_core::registry::{algorithm_by_name, algorithm_for_workload, online_policy_by_name};
use mris_metrics::{awct_lower_bound, Cdf, Table};
use mris_sim::{run_online_chaos, suggested_horizon, FaultPlan, PoissonFaultConfig};
use mris_trace::{instance_to_csv, AzureTrace, AzureTraceConfig};
use mris_types::{ClusterSpec, Instance, RestartSemantics, Schedule};

use super::{load_instance, machines_from_flags, obs_epilogue, obs_from_flags, CliError, Flags};
use crate::schedule_io::{parse_schedule_csv, schedule_to_csv};

pub(crate) fn generate(flags: &Flags) -> Result<String, CliError> {
    let jobs: usize = flags.get_parsed("jobs", 10_000)?;
    let seed: u64 = flags.get_parsed("seed", 0xA207_2024)?;
    let factor: usize = flags.get_parsed("factor", 1)?;
    let offset: usize = flags.get_parsed("offset", 0)?;
    if factor == 0 {
        return Err(CliError("--factor must be at least 1".into()));
    }
    let trace = AzureTrace::generate(&AzureTraceConfig {
        num_jobs: jobs * factor,
        seed,
        ..Default::default()
    });
    let instance = trace.sample_instance(factor, offset.min(factor - 1));
    let csv = instance_to_csv(&instance);
    match flags.get("out") {
        Some(path) => {
            std::fs::write(path, &csv)?;
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

pub(crate) fn schedule(flags: &Flags) -> Result<String, CliError> {
    let instance = load_instance(flags.require("trace")?)?;
    let machines = machines_from_flags(flags, 20)?;
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
    let obs_text = obs_epilogue(flags, &obs)?;
    match flags.get("out") {
        Some(path) => {
            std::fs::write(path, format!("{report}{csv}"))?;
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

pub(crate) fn compare(flags: &Flags) -> Result<String, CliError> {
    let instance = load_instance(flags.require("trace")?)?;
    let machines = machines_from_flags(flags, 20)?;
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

/// Checks a schedule on the cluster it was made for: with `--speeds`, a
/// job occupies its machine for `p / speed`, as `schedule --speeds` placed
/// it.
pub(crate) fn validate(flags: &Flags) -> Result<String, CliError> {
    let instance = load_instance(flags.require("trace")?)?;
    let machines = machines_from_flags(flags, 20)?;
    let cluster = cluster_from_flags(flags, machines)?;
    let path = flags.require("schedule")?;
    let text =
        std::fs::read_to_string(path).map_err(|e| CliError(format!("cannot read {path}: {e}")))?;
    let schedule = parse_schedule_csv(&text, instance.len(), machines)
        .map_err(|e| CliError(format!("{path}: {e}")))?;
    match schedule.validate_on(&instance, &cluster) {
        Ok(()) => Ok(format!(
            "OK: feasible schedule\nAWCT     = {:.6}\nmakespan = {:.6}\nmean delay = {:.6}\n",
            schedule.awct_on(&instance, &cluster),
            makespan_on(&schedule, &instance, &cluster),
            schedule.queuing_delays(&instance).iter().sum::<f64>() / instance.len().max(1) as f64,
        )),
        Err(e) => Err(CliError(format!("INFEASIBLE: {e}"))),
    }
}

/// Reads the repair flags: the repair time as a fraction of the
/// horizon, and what a job killed by a failure keeps.
pub(crate) fn repair_from_flags(flags: &Flags) -> Result<(f64, RestartSemantics), CliError> {
    let mttr_frac: f64 = flags.get_parsed("mttr-frac", 0.05)?;
    let aging_factor: f64 = flags.get_parsed("aging-factor", 2.0)?;
    if !mttr_frac.is_finite() || mttr_frac <= 0.0 {
        return Err(CliError(format!(
            "--mttr-frac must be finite and > 0, got {mttr_frac}"
        )));
    }
    let restart = match flags.get("restart").unwrap_or("full") {
        "full" => RestartSemantics::FullRestart,
        "aging" => RestartSemantics::WeightAging {
            factor: aging_factor,
        },
        other => {
            return Err(CliError(format!(
                "--restart must be 'full' or 'aging', got '{other}'"
            )))
        }
    };
    Ok((mttr_frac, restart))
}

pub(crate) fn chaos(flags: &Flags) -> Result<String, CliError> {
    let instance = load_instance(flags.require("trace")?)?;
    let machines = machines_from_flags(flags, 20)?;
    let rate: f64 = flags.get_parsed("rate", 1.0)?;
    let seed: u64 = flags.get_parsed("seed", 0xC4A05)?;
    if !rate.is_finite() || rate < 0.0 {
        return Err(CliError(format!(
            "--rate must be finite and >= 0, got {rate}"
        )));
    }
    let (mttr_frac, restart) = repair_from_flags(flags)?;
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
