//! `mris loadgen`: an open-loop generated workload, optionally with a
//! fault plan, driven in-process or with `--connect` over TCP.

use std::num::NonZeroUsize;

use mris_service::{service_fingerprint, ServiceConfig};
use mris_sim::{suggested_horizon, FaultPlan, PoissonFaultConfig, RackBurstConfig};
use mris_trace::{poisson_rate_for_utilization, Arrivals, AzureTrace, AzureTraceConfig};
use mris_types::Instance;

use super::client::{connect, drain_door, submit_all};
use super::offline::repair_from_flags;
use super::service::{drive_service, service_cfg_from_flags, service_summary_text};
use super::{machines_from_flags, obs_epilogue, obs_from_flags, CliError, Flags};

/// Everything `loadgen` derives from its flags before driving a service:
/// the generated instance, the service config (fault plan and restart
/// semantics included), the policy name, and the header lines describing
/// the run. `serve --listen --loadgen` builds the same plan server-side,
/// so a `loadgen --connect` client regenerates the identical world and
/// the handshake fingerprint proves it.
pub(crate) struct LoadgenPlan {
    pub instance: Instance,
    pub cfg: ServiceConfig,
    pub name: String,
    pub header: String,
}

pub(crate) fn loadgen_plan(flags: &Flags) -> Result<LoadgenPlan, CliError> {
    let jobs: usize = flags.get_parsed("jobs", 500)?;
    let seed: u64 = flags.get_parsed("seed", 0x10AD)?;
    let machines = machines_from_flags(flags, 8)?;
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

    // Azure-derived job shapes, drawn once: they calibrate the Poisson rate
    // against the target utilization, then the process redraws releases.
    let shapes = AzureTrace::generate(&AzureTraceConfig {
        num_jobs: jobs,
        seed,
        ..Default::default()
    })
    .sample_instance(1, 0);
    let rate = match flags.get("rate") {
        Some(_) => flags.get_parsed("rate", 0.0)?,
        None => poisson_rate_for_utilization(&shapes, machines, utilization),
    };
    if !rate.is_finite() || rate <= 0.0 {
        return Err(CliError(format!(
            "--rate must be finite and > 0, got {rate}"
        )));
    }
    let process = flags.get("process").unwrap_or("poisson");
    let arrivals = match process {
        "poisson" => Arrivals::Poisson { rate },
        "bursts" => {
            let size: usize = flags.get_parsed("burst-size", (jobs / 20).max(1))?;
            let Some(size) = NonZeroUsize::new(size) else {
                return Err(CliError("--burst-size must be at least 1".into()));
            };
            Arrivals::Bursts {
                period: size.get() as f64 / rate,
                size,
            }
        }
        other => {
            return Err(CliError(format!(
                "--process must be 'poisson' or 'bursts', got '{other}'"
            )))
        }
    };
    // A positive rate can still be too small to draw a finite release.
    let instance = arrivals
        .rewrite(&shapes, seed)
        .map_err(|e| CliError(format!("--rate {rate:e}: {e}")))?;

    // Optional fault layer, replayed against the live service.
    let plan_name = flags.get("fault-plan").unwrap_or("none");
    let fault_rate: f64 = flags.get_parsed("fault-rate", 1.0)?;
    let fault_seed: u64 = flags.get_parsed("fault-seed", seed ^ 0xFA17)?;
    if !fault_rate.is_finite() || fault_rate < 0.0 {
        return Err(CliError(format!(
            "--fault-rate must be finite and >= 0, got {fault_rate}"
        )));
    }
    let (mttr_frac, restart) = repair_from_flags(flags)?;
    if !matches!(plan_name, "none" | "poisson" | "racks" | "adversarial") {
        return Err(CliError(format!(
            "--fault-plan must be one of none|poisson|racks|adversarial, got '{plan_name}'"
        )));
    }
    let horizon = suggested_horizon(&instance, machines);
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
    cfg.restart = restart;
    let restart_label = cfg.restart.label();
    cfg.fault_plan = plan;

    let header = format!(
        "loadgen: {jobs} jobs, {machines} machines, algo = {name}, process = {process} \
         (rate {rate:.4}/s, target utilization {utilization})\n\
         faults: plan = {plan_name} ({plan_events} events over horizon {horizon:.1}), \
         restart = {restart_label}"
    );
    Ok(LoadgenPlan {
        instance,
        cfg,
        name: name.to_string(),
        header,
    })
}

/// `mris loadgen`: the generated workload through the service loop,
/// in-process.
pub(crate) fn loadgen(flags: &Flags) -> Result<String, CliError> {
    let plan = loadgen_plan(flags)?;
    let obs = obs_from_flags(flags)?;
    let report = drive_service(flags, &plan.instance, &plan.name, plan.cfg, None)?;
    let obs_text = obs_epilogue(flags, &obs)?;
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
pub(crate) fn loadgen_connect(flags: &Flags) -> Result<String, CliError> {
    let plan = loadgen_plan(flags)?;
    let fingerprint = service_fingerprint(&plan.instance, &plan.cfg);
    let (mut client, addr) = connect(flags, fingerprint)?;
    let offered = submit_all(&mut client, addr, &plan.instance)?;
    let report = drain_door(client, addr)?;
    Ok(format!(
        "{}\n\
         over TCP: {addr} (fingerprint {fingerprint:#018x}), \
         door accepted {} / rejected {}\n\n{}",
        plan.header,
        offered.accepted,
        offered.rejected,
        service_summary_text(&report)
    ))
}
