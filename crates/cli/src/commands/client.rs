//! `mris client <submit|query|stats|drain>`: a thin remote control for a
//! `serve --listen` door, and the connection `loadgen --connect` shares.

use mris_net::NetClient;
use mris_service::ServiceReport;
use mris_types::{Instance, JobId};

use super::service::service_summary_text;
use super::{load_instance, offer_in_release_order, CliError, Flags, Offered};

/// Connects to `--connect` with `--token`, expecting `fingerprint` (0
/// accepts any service).
pub(crate) fn connect(flags: &Flags, fingerprint: u64) -> Result<(NetClient, &str), CliError> {
    let addr = flags.require("connect")?;
    let token = flags.get("token").unwrap_or("");
    let client = NetClient::connect(addr, token, fingerprint)
        .map_err(|e| CliError(format!("connect {addr}: {e}")))?;
    Ok((client, addr))
}

/// Drains the door and verifies the final report's fault log.
pub(crate) fn drain_door(client: NetClient, addr: &str) -> Result<ServiceReport, CliError> {
    let report = client
        .drain()
        .map_err(|e| CliError(format!("drain over {addr}: {e}")))?;
    report
        .log
        .verify()
        .map_err(|v| CliError(format!("fault-log violation over TCP: {v}")))?;
    Ok(report)
}

/// Offers every job of `instance` through the door, in release order.
pub(crate) fn submit_all(
    client: &mut NetClient,
    addr: &str,
    instance: &Instance,
) -> Result<Offered, CliError> {
    offer_in_release_order(instance, instance.jobs().iter().map(|j| j.id), |at, job| {
        client
            .submit_at(at, job)
            .map_err(|e| CliError(format!("submit over {addr}: {e}")))
    })
}

fn door(flags: &Flags) -> Result<(NetClient, &str), CliError> {
    connect(flags, flags.get_parsed("fingerprint", 0)?)
}

pub(crate) fn submit(flags: &Flags) -> Result<String, CliError> {
    let (mut client, addr) = door(flags)?;
    let instance = load_instance(flags.require("trace")?)?;
    let offered = submit_all(&mut client, addr, &instance)?;
    let rejection_text = match offered.first_rejection {
        Some(e) => format!(" (first: {e})"),
        None => String::new(),
    };
    Ok(format!(
        "client submit: offered {} jobs to {addr} as tenant {}, \
         accepted {}, rejected {}{rejection_text}\n",
        instance.len(),
        client.tenant(),
        offered.accepted,
        offered.rejected
    ))
}

pub(crate) fn query(flags: &Flags) -> Result<String, CliError> {
    let (mut client, addr) = door(flags)?;
    let job: u32 = flags
        .require("job")?
        .parse()
        .map_err(|e| CliError(format!("--job: {e}")))?;
    let outcome = client
        .query(JobId(job))
        .map_err(|e| CliError(format!("query over {addr}: {e}")))?;
    Ok(format!("job {job}: {outcome:?}\n"))
}

pub(crate) fn stats(flags: &Flags) -> Result<String, CliError> {
    let (mut client, addr) = door(flags)?;
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

pub(crate) fn drain(flags: &Flags) -> Result<String, CliError> {
    let (client, addr) = door(flags)?;
    let report = drain_door(client, addr)?;
    Ok(format!(
        "client drain: final report from {addr}\n\n{}",
        service_summary_text(&report)
    ))
}
