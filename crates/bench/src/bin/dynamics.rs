//! Queue-dynamics extension experiment: running-job and backlog time series
//! for the event-driven schedulers, next to MRIS's batch occupancy.
//!
//! Renders, per algorithm, the number of concurrently *running* jobs over
//! time as an ASCII strip — making the mechanism behind Figures 3/5 visible:
//! the event-driven schedulers saturate instantly and stay saturated; MRIS
//! ramps up in geometric waves.
//!
//! `cargo run --release -p mris-bench --bin dynamics [--n jobs] [--machines m]`

use mris_bench::{default_trace, Args, Scale};
use mris_core::Mris;
use mris_metrics::render_utilization;
use mris_schedulers::{BfExecPolicy, PqPolicy, Scheduler, SortHeuristic, TetrisPolicy};
use mris_sim::{run_driver_observed, EventSnapshot, OnlinePolicy, RunOptions};
use mris_types::Instance;

/// Samples `snapshots` (running counts) into `buckets` buckets over
/// `[0, horizon)` by last-value-before-bucket-end.
fn running_series(snapshots: &[EventSnapshot], horizon: f64, buckets: usize) -> Vec<f64> {
    let mut out = vec![0.0; buckets];
    let mut idx = 0;
    let mut last = 0.0;
    for (b, slot) in out.iter_mut().enumerate() {
        let t_end = (b + 1) as f64 * horizon / buckets as f64;
        while idx < snapshots.len() && snapshots[idx].time <= t_end {
            last = snapshots[idx].running as f64;
            idx += 1;
        }
        *slot = last;
    }
    out
}

fn main() {
    let args = Args::parse();
    let mut scale = Scale::from_args(&args);
    if !args.has("n") && !args.has("paper") {
        scale.n_fixed = 4_000;
    }
    eprintln!("dynamics: N = {}, M = {}", scale.n_fixed, scale.machines);
    let pool = default_trace(&scale);
    let instance = pool.instances_for(scale.n_fixed, 1).remove(0);

    // Event-driven schedulers through the observed driver.
    let mut series: Vec<(String, Vec<EventSnapshot>, f64)> = Vec::new();
    let event_driven: [(&str, Box<dyn OnlinePolicy>); 3] = [
        ("PQ-WSJF", Box::new(PqPolicy::new(SortHeuristic::Wsjf))),
        ("TETRIS", Box::new(TetrisPolicy::new(1.0))),
        ("BF-EXEC", Box::new(BfExecPolicy::new())),
    ];
    for (name, mut policy) in event_driven {
        let mut snaps = Vec::new();
        let outcome = run_driver_observed(
            &instance,
            scale.machines,
            policy.as_mut(),
            RunOptions::new(),
            |e| snaps.push(*e),
        )
        .unwrap_or_else(|e| panic!("{name} is work-conserving: {e}"));
        series.push((name.into(), snaps, outcome.schedule.makespan(&instance)));
    }

    // MRIS is not event-driven; derive its running-count series from the
    // final schedule's start/end events.
    let mris_schedule = Mris::default().schedule(&instance, scale.machines);
    let mris_makespan = mris_schedule.makespan(&instance);
    let mris_snaps = schedule_to_snapshots(&instance, &mris_schedule);
    series.push(("MRIS-WSJF".into(), mris_snaps, mris_makespan));

    let horizon = series
        .iter()
        .map(|(_, _, mk)| *mk)
        .fold(0.0_f64, f64::max)
        .ceil();
    let peak = series
        .iter()
        .flat_map(|(_, snaps, _)| snaps.iter().map(|s| s.running))
        .max()
        .unwrap_or(1)
        .max(1) as f64;

    println!(
        "\nConcurrently running jobs over [0, {horizon}) (N = {}, M = {};\n\
         each strip normalized to the global peak of {} running jobs):\n",
        scale.n_fixed, scale.machines, peak as usize
    );
    for (name, snaps, _) in &series {
        let s = running_series(snaps, horizon, 72);
        let normalized: Vec<f64> = s.iter().map(|&v| v / peak).collect();
        println!("{name:>10} |{}|", render_utilization(&normalized));
    }
}

/// Reconstructs running-count snapshots from a completed schedule.
fn schedule_to_snapshots(
    instance: &Instance,
    schedule: &mris_types::Schedule,
) -> Vec<EventSnapshot> {
    let mut events: Vec<(f64, i64)> = Vec::new();
    for a in schedule.assignments() {
        let p = instance.job(a.job).proc_time;
        events.push((a.start, 1));
        events.push((a.start + p, -1));
    }
    events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut running = 0i64;
    let mut placed = 0usize;
    events
        .iter()
        .map(|&(t, delta)| {
            running += delta;
            if delta > 0 {
                placed += 1;
            }
            EventSnapshot {
                time: t,
                running: running as usize,
                placed,
                released: instance.len(),
            }
        })
        .collect()
}
