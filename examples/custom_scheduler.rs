//! Implementing a custom online scheduler against the library's traits.
//!
//! Shows the two extension points:
//! 1. [`OnlinePolicy`] — plug a new decision rule into the event-driven
//!    simulation engine (here: a "largest weight first" greedy).
//! 2. [`Scheduler`] — name it and hand out the policy, so it can be
//!    compared against MRIS and the built-in baselines uniformly.
//!
//! Run with: `cargo run --release --example custom_scheduler`

use mris::prelude::*;
use mris::sim::{Dispatcher, OnlinePolicy, OrdTime};
use mris::trace::{AzureTrace, AzureTraceConfig};
use std::collections::BTreeSet;

/// Greedy "heaviest job first": at every event, start pending jobs in order
/// of decreasing weight (ties by id) wherever they fit.
#[derive(Default)]
struct HeaviestFirstPolicy {
    /// Orders by negated weight so iteration yields heaviest first.
    pending: BTreeSet<(OrdTime, JobId)>,
}

impl OnlinePolicy for HeaviestFirstPolicy {
    fn on_arrivals(&mut self, _now: Time, arrived: &[JobId], instance: &Instance) {
        for &j in arrived {
            self.pending.insert((OrdTime(-instance.job(j).weight), j));
        }
    }

    fn dispatch(
        &mut self,
        d: &mut Dispatcher<'_>,
        _freed: &[usize],
    ) -> Result<(), SchedulingError> {
        let instance = d.instance();
        let mut placed = Vec::new();
        for &(key, j) in self.pending.iter() {
            if let Some(m) = d.cluster().first_fit(&instance.job(j).demands) {
                d.place(m, j)?;
                placed.push((key, j));
            }
        }
        for entry in placed {
            self.pending.remove(&entry);
        }
        Ok(())
    }
}

struct HeaviestFirst;

impl Scheduler for HeaviestFirst {
    fn name(&self) -> String {
        "HEAVIEST-FIRST".to_string()
    }

    fn policy(&self, _instance: &Instance, _cluster: &ClusterSpec) -> Box<dyn OnlinePolicy> {
        Box::new(HeaviestFirstPolicy::default())
    }
}

fn main() {
    let trace = AzureTrace::generate(&AzureTraceConfig {
        num_jobs: 16_000,
        ..Default::default()
    });
    let instance = trace.sample_instance(16, 0);
    let machines = 5;

    let algorithms: Vec<Box<dyn Scheduler>> = vec![
        Box::new(HeaviestFirst),
        Box::new(Pq::new(SortHeuristic::Wsjf)),
        Box::new(Mris::default()),
    ];

    println!(
        "{} jobs, {} machines, {} resources\n",
        instance.len(),
        machines,
        instance.num_resources()
    );
    for algo in &algorithms {
        let schedule = algo.schedule(&instance, machines);
        schedule.validate(&instance).expect("feasible schedule");
        println!(
            "{:>16}: AWCT = {:>10.2}  makespan = {:>8.1}",
            algo.name(),
            schedule.awct(&instance),
            schedule.makespan(&instance)
        );
    }
    println!("\nWeight alone is a poor signal: it ignores how long and how big jobs are.");
}
