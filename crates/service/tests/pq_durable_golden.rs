//! Golden for PQ-WSJF's durable state: the bytes of
//! `PqPolicy::encode_durable_state`, taken after every `on_arrivals` and
//! every dispatch of one service run, hashed.
//!
//! Snapshots embed these bytes and restore verifies them, so their layout is
//! part of the snapshot format: the pending jobs sorted by `(key, id)`, then
//! the arrivals not yet dispatched, in arrival order. However the policy
//! stores its queue, this hash must not move. The run is built to stress
//! that order: a queue over a thousand deep (load 16), processing times rounded up
//! to whole e-folds so WSJF keys tie across jobs and weights, and rack
//! failures under weight aging, so killed jobs come back with new keys.

use std::sync::{Arc, Mutex};

use mris_schedulers::{PqPolicy, SortHeuristic};
use mris_service::{fnv64, Encoder, NullSink, Service, ServiceConfig, SimClock};
use mris_sim::{suggested_horizon, Dispatcher, FaultPlan, OnlinePolicy, RackBurstConfig};
use mris_trace::{poisson_rate_for_utilization, Arrivals, AzureTrace, AzureTraceConfig};
use mris_types::{Instance, Job, JobId, RestartSemantics, SchedulingError, Time};

const MACHINES: usize = 8;
const JOBS: usize = 2_000;
const LOAD: f64 = 16.0;
const SEED: u64 = 29;

/// Processing times rounded up to whole e-folds: a dozen distinct values,
/// so `p / w` ties across thousands of jobs.
fn with_tied_keys(instance: Instance) -> Instance {
    let jobs = instance
        .jobs()
        .iter()
        .map(|j| Job {
            proc_time: j.proc_time.ln().ceil().max(1.0),
            ..j.clone()
        })
        .collect();
    Instance::new(jobs, instance.num_resources()).expect("rounded jobs stay valid")
}

fn deep_queue_instance() -> Instance {
    let shapes = with_tied_keys(
        AzureTrace::generate(&AzureTraceConfig {
            num_jobs: JOBS,
            seed: SEED,
            ..Default::default()
        })
        .sample_instance(1, 0),
    );
    let rate = poisson_rate_for_utilization(&shapes, MACHINES, LOAD);
    Arrivals::Poisson { rate }.rewrite(&shapes, SEED).unwrap()
}

/// What the recorder saw: one hash per capture, and the deepest queue.
#[derive(Default)]
struct Captures {
    hashes: Vec<u64>,
    deepest: usize,
}

/// PQ-WSJF, encoding its durable state after every callback that can
/// change it.
struct Recorder {
    inner: PqPolicy,
    buf: Encoder,
    captures: Arc<Mutex<Captures>>,
}

impl Recorder {
    fn capture(&mut self) {
        self.buf.clear();
        assert!(self.inner.encode_durable_state(&mut self.buf));
        let mut c = self.captures.lock().expect("no capture panicked");
        c.hashes.push(fnv64(self.buf.as_bytes()));
        c.deepest = c.deepest.max(self.inner.num_pending());
    }
}

impl OnlinePolicy for Recorder {
    fn on_arrivals(&mut self, now: Time, arrived: &[JobId], instance: &Instance) {
        self.inner.on_arrivals(now, arrived, instance);
        self.capture();
    }

    fn dispatch(&mut self, d: &mut Dispatcher<'_>, freed: &[usize]) -> Result<(), SchedulingError> {
        self.inner.dispatch(d, freed)?;
        self.capture();
        Ok(())
    }
}

/// Captured at the commit before the demand-class index, when the pending
/// queue was one `BTreeSet<(key, id)>`.
const DURABLE_STATE_HASH: u64 = 0xae45_3844_8b08_0bf0;

#[test]
fn pq_wsjf_durable_state_is_pinned() {
    let instance = deep_queue_instance();
    let mut keys: Vec<u64> = instance
        .jobs()
        .iter()
        .map(|j| SortHeuristic::Wsjf.key(j).to_bits())
        .collect();
    keys.sort_unstable();
    keys.dedup();
    assert!(keys.len() < 50, "{} distinct WSJF keys", keys.len());

    let horizon = suggested_horizon(&instance, MACHINES);
    let plan = FaultPlan::rack_bursts(&RackBurstConfig {
        seed: SEED,
        num_machines: MACHINES,
        rack_size: 2,
        horizon,
        mtbb: horizon / 6.0,
        downtime: horizon / 100.0,
    });
    assert!(!plan.is_empty());
    let cfg = ServiceConfig::builder(MACHINES)
        .fault_plan(plan)
        .restart(RestartSemantics::WeightAging { factor: 2.0 })
        .build()
        .expect("valid service config");

    let captures = Arc::new(Mutex::new(Captures::default()));
    let recorder = Recorder {
        inner: PqPolicy::new(SortHeuristic::Wsjf),
        buf: Encoder::new(),
        captures: Arc::clone(&captures),
    };
    let mut service = Service::new(
        instance.clone(),
        Box::new(recorder),
        cfg,
        SimClock::new(),
        NullSink,
    )
    .expect("valid service config");
    for j in 0..JOBS as u32 {
        // Poisson releases increase with the id, so this is release order.
        let job = JobId(j);
        service
            .submit_at(instance.job(job).release, job)
            .expect("PQ breaks no placement rule")
            .expect("permissive config never rejects");
    }
    let (report, _) = service.drain().expect("PQ places every job");
    report.schedule.validate(&instance).unwrap();
    assert!(report.log.total_kills() > 0, "no failure killed a job");

    let c = captures.lock().expect("no capture panicked");
    assert!(c.deepest >= 1_000, "queue only reached {}", c.deepest);
    let all: Vec<u8> = c.hashes.iter().flat_map(|h| h.to_le_bytes()).collect();
    let hash = fnv64(&all);
    assert_eq!(
        hash,
        DURABLE_STATE_HASH,
        "PqPolicy::encode_durable_state changed over {} captures: {hash:#018x}",
        c.hashes.len()
    );
}
