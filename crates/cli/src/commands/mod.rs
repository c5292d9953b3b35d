//! Subcommand implementations, one module per verb family. Each usage —
//! the words that select it, its flags, and the function that runs it — is
//! declared once, in [`table`].

use mris_trace::parse_instance_csv;
use mris_types::{Instance, JobId, Time};

use flags::{help, Flags, Usage};

mod client;
mod flags;
mod loadgen;
mod offline;
mod service;
#[rustfmt::skip]
mod table;
#[cfg(test)]
mod tests;

/// A CLI failure: message for the user, non-zero exit.
#[derive(Debug)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

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

/// Entry point: dispatches `args` (without the program name) and returns the
/// text to print on success.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let Some((verb, rest)) = args.split_first() else {
        return Err(CliError(help()));
    };
    let verb = match verb.as_str() {
        "help" | "--help" | "-h" => return Ok(help()),
        // `run` is the daemon-era alias of the original `schedule` verb.
        "run" => "schedule",
        verb => verb,
    };
    let (usage, rest) = Usage::select(verb, rest)?;
    (usage.run)(&Flags::parse(usage, rest)?)
}

/// An installed observability subscriber and the RAII guard holding the
/// installation.
type ObsScope = Option<(std::sync::Arc<mris_obs::Obs>, mris_obs::InstallGuard)>;

/// Installs the process-wide observability subscriber for the duration of
/// one command when `--obs`, `--obs-events`, or `--metrics-path` asks for
/// it.
fn obs_from_flags(flags: &Flags) -> Result<ObsScope, CliError> {
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

/// Flushes the obs subscriber, if one is installed, and renders its
/// metrics: written to `--metrics-path` when given, returned for the
/// command output otherwise. Empty without a subscriber.
fn obs_epilogue(flags: &Flags, obs: &ObsScope) -> Result<String, CliError> {
    let Some((obs, _guard)) = obs else {
        return Ok(String::new());
    };
    obs.flush()
        .map_err(|e| CliError(format!("obs events write failed: {e}")))?;
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

/// `--machines`, or `default` when it is absent. Every command reads it
/// here, so a count of 0 is refused before any of them builds a cluster.
fn machines_from_flags(flags: &Flags, default: usize) -> Result<usize, CliError> {
    let machines: usize = flags.get_parsed("machines", default)?;
    if machines == 0 {
        return Err(CliError("--machines must be at least 1".into()));
    }
    Ok(machines)
}

fn load_instance(path: &str) -> Result<Instance, CliError> {
    let text =
        std::fs::read_to_string(path).map_err(|e| CliError(format!("cannot read {path}: {e}")))?;
    parse_instance_csv(&text).map_err(|e| CliError(format!("{path}: {e}")))
}

/// How the jobs [`offer_in_release_order`] offered fared.
#[derive(Default)]
struct Offered {
    accepted: u64,
    rejected: u64,
    first_rejection: Option<String>,
}

/// Offers `jobs` in `(release, id)` order, the order the batch driver
/// admits them in, through `offer(release, job)`. An admission rejection
/// is counted and the first one kept; only an outer `Err` (a policy or
/// transport failure) stops the run.
fn offer_in_release_order<R: std::fmt::Display>(
    instance: &Instance,
    jobs: impl IntoIterator<Item = JobId>,
    mut offer: impl FnMut(Time, JobId) -> Result<Result<(), R>, CliError>,
) -> Result<Offered, CliError> {
    let mut order: Vec<JobId> = jobs.into_iter().collect();
    order.sort_by(|&a, &b| {
        instance
            .job(a)
            .release
            .total_cmp(&instance.job(b).release)
            .then(a.cmp(&b))
    });
    let mut offered = Offered::default();
    for job in order {
        match offer(instance.job(job).release, job)? {
            Ok(()) => offered.accepted += 1,
            Err(e) => {
                offered.rejected += 1;
                offered.first_rejection.get_or_insert_with(|| e.to_string());
            }
        }
    }
    Ok(offered)
}
