//! Threaded service front-end: a bounded `std::mpsc` transport into a
//! worker thread running the [`Service`] event loop.
//!
//! No async runtime is involved (the workspace is hermetic): the worker
//! blocks on `recv_timeout` using the clock's [`Clock::wait_hint`] so a
//! wall-clock service sleeps exactly until its next event while staying
//! responsive to submissions, and a sim-clock service replays as fast as
//! events can be processed. Dropping the last sender (or calling
//! [`ServiceHandle::drain`]) triggers a graceful drain: the worker finishes
//! every admitted job, emits the summary, and returns the report.

use std::sync::mpsc;

use mris_sim::OnlinePolicy;
use mris_types::{ConfigError, Instance, JobId, SchedulingError};

use crate::clock::Clock;
use crate::core::{Service, ServiceConfig, ServiceReport};
use crate::telemetry::TelemetrySink;

/// Why a threaded service run failed — every way the worker can go down,
/// as a typed error instead of a panic in the caller's thread.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// The configuration was rejected at construction.
    Config(ConfigError),
    /// The policy violated a placement rule (or stranded accepted jobs).
    Scheduling(SchedulingError),
    /// The worker thread panicked; `payload` is the panic message when it
    /// was a string, or a placeholder otherwise.
    WorkerPanicked {
        /// Downcast panic payload.
        payload: String,
    },
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Config(e) => write!(f, "service configuration rejected: {e}"),
            ServiceError::Scheduling(e) => write!(f, "service scheduling failed: {e}"),
            ServiceError::WorkerPanicked { payload } => {
                write!(f, "service worker panicked: {payload}")
            }
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<ConfigError> for ServiceError {
    fn from(e: ConfigError) -> Self {
        ServiceError::Config(e)
    }
}

impl From<SchedulingError> for ServiceError {
    fn from(e: SchedulingError) -> Self {
        ServiceError::Scheduling(e)
    }
}

/// Why a submission did not make it into the service's admission queue.
/// Transport-level backpressure — distinct from a typed admission
/// rejection, which is recorded in the job's [`crate::JobOutcome`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded channel to the worker is full.
    TransportFull,
    /// The worker stopped (drained or failed).
    Closed,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::TransportFull => write!(f, "service transport is full"),
            SubmitError::Closed => write!(f, "service worker stopped"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Handle to a service running on a worker thread.
pub struct ServiceHandle<S> {
    tx: Option<mpsc::SyncSender<JobId>>,
    join: std::thread::JoinHandle<Result<(ServiceReport, S), ServiceError>>,
}

impl<S> ServiceHandle<S> {
    /// Offers `job` to the service without blocking. Admission control runs
    /// on the worker at receipt time; this only reports transport failures.
    pub fn try_submit(&self, job: JobId) -> Result<(), SubmitError> {
        let tx = self.tx.as_ref().ok_or(SubmitError::Closed)?;
        tx.try_send(job).map_err(|e| match e {
            mpsc::TrySendError::Full(_) => SubmitError::TransportFull,
            mpsc::TrySendError::Disconnected(_) => SubmitError::Closed,
        })
    }

    /// Offers `job` to the service, blocking while the transport is full.
    pub fn submit(&self, job: JobId) -> Result<(), SubmitError> {
        let tx = self.tx.as_ref().ok_or(SubmitError::Closed)?;
        tx.send(job).map_err(|_| SubmitError::Closed)
    }

    /// Closes the transport and waits for the worker to drain: every
    /// admitted job completes, the summary is emitted, and the report and
    /// sink come back.
    ///
    /// # Errors
    ///
    /// A typed [`ServiceError`]: the configuration rejection or
    /// [`SchedulingError`] the worker hit, or — if the worker thread
    /// panicked — [`ServiceError::WorkerPanicked`] carrying the panic
    /// payload instead of re-panicking in the caller's thread.
    pub fn drain(mut self) -> Result<(ServiceReport, S), ServiceError> {
        drop(self.tx.take());
        match self.join.join() {
            Ok(result) => result,
            Err(payload) => {
                let payload = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "<non-string panic payload>".to_string());
                Err(ServiceError::WorkerPanicked { payload })
            }
        }
    }
}

/// Spawns a [`Service`] on a worker thread behind a bounded channel of
/// `transport_capacity` submissions.
///
/// `make_policy` runs *inside* the worker, receiving the instance and
/// machine count (policies are `Send` — `mris_net::serve_net` builds its
/// service on the caller's thread — so this is a choice here, not a need). Submissions are admitted at
/// the clock's now when the worker picks them up; between submissions the
/// worker advances the event loop, sleeping per [`Clock::wait_hint`].
pub fn spawn_service<C, S, F>(
    instance: Instance,
    cfg: ServiceConfig,
    clock: C,
    sink: S,
    make_policy: F,
    transport_capacity: usize,
) -> ServiceHandle<S>
where
    C: Clock + Send + 'static,
    S: TelemetrySink + Send + 'static,
    F: FnOnce(&Instance, usize) -> Box<dyn OnlinePolicy> + Send + 'static,
{
    let (tx, rx) = mpsc::sync_channel::<JobId>(transport_capacity.max(1));
    let join = std::thread::spawn(move || -> Result<(ServiceReport, S), ServiceError> {
        let policy = make_policy(&instance, cfg.num_machines);
        let mut service = Service::new(instance, policy, cfg, clock, sink)?;
        loop {
            match service.wait_hint() {
                // Next event is due now (or the clock never waits): process
                // it, then poll the transport opportunistically.
                None if service.next_event_time().is_some() => {
                    service.step()?;
                    while let Ok(job) = rx.try_recv() {
                        let _ = service.submit(job);
                    }
                }
                // Quiescent: block until a submission arrives or the
                // transport closes (drain request).
                None => match rx.recv() {
                    Ok(job) => {
                        let _ = service.submit(job);
                    }
                    Err(mpsc::RecvError) => break,
                },
                // An event is pending in the future: sleep toward it, but
                // wake early for submissions.
                Some(wait) => match rx.recv_timeout(wait) {
                    Ok(job) => {
                        let _ = service.submit(job);
                    }
                    Err(mpsc::RecvTimeoutError::Timeout) => {
                        service.step()?;
                    }
                    Err(mpsc::RecvTimeoutError::Disconnected) => break,
                },
            }
        }
        Ok(service.drain()?)
    });
    ServiceHandle { tx: Some(tx), join }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{SimClock, WallClock};
    use crate::telemetry::MemorySink;
    use mris_core::registry::online_policy_by_name;
    use mris_types::Job;

    fn uniform_instance(n: u32) -> Instance {
        let jobs: Vec<Job> = (0..n)
            .map(|i| Job::from_fractions(JobId(i), 0.0, 0.5, 1.0, &[0.4]))
            .collect();
        Instance::new(jobs, 1).unwrap()
    }

    #[test]
    fn threaded_server_completes_all_submissions_under_wall_clock() {
        let instance = uniform_instance(12);
        let handle = spawn_service(
            instance.clone(),
            ServiceConfig::new(2),
            WallClock::new(50_000.0),
            MemorySink::default(),
            |inst, m| online_policy_by_name("tetris", inst, m).unwrap(),
            4,
        );
        for j in instance.jobs() {
            handle.submit(j.id).unwrap();
        }
        let (report, sink) = handle.drain().unwrap();
        assert_eq!(report.summary.completed, 12);
        assert_eq!(report.summary.submitted, 12);
        assert!(sink.summary.is_some());
        report.log.verify().unwrap();
    }

    #[test]
    fn threaded_server_replays_as_fast_as_possible_under_sim_clock() {
        let instance = uniform_instance(8);
        let handle = spawn_service(
            instance.clone(),
            ServiceConfig::new(1),
            SimClock::new(),
            MemorySink::default(),
            |inst, m| online_policy_by_name("pq-wsjf", inst, m).unwrap(),
            2,
        );
        for j in instance.jobs() {
            handle.submit(j.id).unwrap();
        }
        let (report, _) = handle.drain().unwrap();
        assert_eq!(report.summary.completed, 8);
    }
}
