//! Measurements more than one workload takes: the PQ-WSJF baseline of
//! set-up, schedule quality, and the per-layer readings and probes of the
//! traced run.

use std::time::Instant;

use mris_core::registry::algorithm_for_workload;
use mris_knapsack::{Cadp, GreedyConstraint, Item, KnapsackSolver, SolveScratch};
use mris_sim::ClusterTimelines;
use mris_types::{ClusterSpec, Instance, Schedule};

use crate::harness::{fastest_ns_per, Checks, Ctx, Layers, Measured, Published};
use crate::report::percentile;
use crate::spans::Tracer;

/// `(AWCT, makespan)` of a complete schedule under the cluster's
/// effective processing times.
pub fn quality(instance: &Instance, cluster: &ClusterSpec, schedule: &Schedule) -> (f64, f64) {
    let makespan = schedule
        .assignments()
        .map(|a| a.start + cluster.effective_time(a.machine, instance.job(a.job).proc_time))
        .fold(0.0, f64::max);
    (schedule.awct_on(instance, cluster), makespan)
}

/// Whether every precedence edge holds under effective times.
pub fn edges_hold(instance: &Instance, cluster: &ClusterSpec, schedule: &Schedule) -> bool {
    instance.edges().iter().all(
        |&(pred, succ)| match (schedule.get(pred), schedule.get(succ)) {
            (Some(p), Some(s)) => {
                s.start >= p.start + cluster.effective_time(p.machine, instance.job(pred).proc_time)
            }
            _ => false,
        },
    )
}

/// Schedules `instance` with `policy` through the batch path and validates
/// the result; the calls are spans of their layers.
pub fn batch_schedule(
    policy: &str,
    instance: &Instance,
    cluster: &ClusterSpec,
    tr: &mut Tracer,
    checks: &mut Checks,
) -> (Schedule, f64) {
    let algo = algorithm_for_workload(policy, instance, cluster)
        .expect("registered policy supports the workload");
    let layer = if policy == "mris" {
        "core.try_schedule_on"
    } else {
        "schedulers.try_schedule_on"
    };
    let (schedule, secs) = tr.scope(layer, 0, |_| {
        algo.try_schedule_on(instance, cluster)
            .unwrap_or_else(|e| panic!("{policy} failed to schedule: {e}"))
    });
    let (valid, _) = tr.scope("types.validate_on", 0, |_| {
        schedule.validate_on(instance, cluster)
    });
    checks.check(valid.is_ok(), || {
        format!("{policy}: Schedule::validate_on: {valid:?}")
    });
    checks.check(edges_hold(instance, cluster, &schedule), || {
        format!("{policy}: a successor starts before its predecessor completes")
    });
    (schedule, secs)
}

/// AWCT of PQ-WSJF on the instance: the baseline `awct_vs_pq` divides by.
pub fn pq_baseline(
    instance: &Instance,
    cluster: &ClusterSpec,
    tr: &mut Tracer,
    checks: &mut Checks,
) -> f64 {
    let (schedule, _) = batch_schedule("pq-wsjf", instance, cluster, tr, checks);
    schedule.awct_on(instance, cluster)
}

/// The set-up layers, read from the spans of the traced run's first
/// set-up, and the tracing overhead.
pub fn setup_layers<I>(layers: &mut Layers, tr: &Tracer, n: usize, m: &Measured<I>) {
    let per_job = |name| tr.seconds_of(name) * 1e9 / n as f64;
    layers.set("trace.generate_ns_per_job", per_job("trace.generate"));
    layers.set(
        "schedulers.pq_wsjf_s",
        tr.seconds_of("schedulers.try_schedule_on"),
    );
    layers.set("types.validate_ns_per_job", per_job("types.validate_on"));
    layers.set_n(
        "obs.traced_slowdown",
        m.traced_slowdown(),
        m.traced_reps.len(),
    );
}

/// The MRIS epoch, the knapsack and the timelines, as the program's own
/// counters and stage histograms saw one traced rep.
pub fn mris_layers<I>(layers: &mut Layers, published: &Published, n: usize, m: &Measured<I>) {
    let reps = m.traced_reps.len() as f64;
    let wall = m.traced_wall_s();
    let mut stage_sum = 0.0;
    for (metric, family) in [
        ("core.grid_s", "mris_epoch_grid_seconds"),
        ("core.filter_s", "mris_epoch_filter_seconds"),
        ("core.solve_s", "mris_epoch_solve_seconds"),
        ("core.probe_s", "mris_epoch_probe_seconds"),
        ("core.commit_s", "mris_epoch_commit_seconds"),
    ] {
        let (count, sum) = published.histogram(family);
        layers.set_n(metric, sum / reps, (count / reps) as usize);
        stage_sum += sum / reps;
    }
    let (solves, solve_s) = published.histogram("mris_epoch_solve_seconds");
    let (_, probe_s) = published.histogram("mris_epoch_probe_seconds");
    layers.set("core.solve_epochs", solves / reps);
    layers.set("core.solve_share", solve_s / reps / wall);
    layers.set("core.probe_share", probe_s / reps / wall);
    layers.set("core.stage_sum_share", stage_sum / wall);
    let per_rep = |name| published.counter(name) / reps;
    layers.set("core.memo_hits", per_rep("mris_epoch_memo_hits_total"));
    layers.set("core.memo_misses", per_rep("mris_epoch_memo_misses_total"));
    layers.set("knapsack.solves", per_rep("mris_knapsack_solves_total"));
    layers.set("knapsack.items", per_rep("mris_knapsack_items_total"));
    let probes = per_rep("mris_timeline_probes_total");
    let (hits, misses) = (
        per_rep("mris_timeline_hint_hits_total"),
        per_rep("mris_timeline_hint_misses_total"),
    );
    layers.set("sim.probes", probes);
    layers.set("sim.probes_per_job", probes / n as f64);
    layers.set(
        "sim.hint_hit_ratio",
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
    );
    layers.set(
        "sim.block_jumps_per_probe",
        if probes > 0.0 {
            per_rep("mris_timeline_block_jumps_total") / probes
        } else {
            0.0
        },
    );
    layers.set("sim.commits", per_rep("mris_timeline_commits_total"));
    layers.set(
        "sim.commit_breakpoints",
        per_rep("mris_timeline_commit_breakpoints_total"),
    );
}

/// Replays the final schedule in start order into fresh timelines —
/// `earliest_fit` at the recorded start, then `commit_job` where the
/// schedule put the job — timing each call. Returns the filled timelines.
pub fn replay_probe(
    layers: &mut Layers,
    tr: &mut Tracer,
    instance: &Instance,
    cluster: &ClusterSpec,
    schedule: &Schedule,
) -> ClusterTimelines {
    let mut order: Vec<_> = schedule.assignments().collect();
    order.sort_by(|a, b| a.start.total_cmp(&b.start).then(a.job.cmp(&b.job)));
    let mut timelines = ClusterTimelines::with_spec(cluster, instance.num_resources());
    let (mut fit_ns, mut commit_ns) = (
        Vec::with_capacity(order.len()),
        Vec::with_capacity(order.len()),
    );
    tr.scope("sim.replay", 0, |_| {
        for a in &order {
            let job = instance.job(a.job);
            let t0 = Instant::now();
            std::hint::black_box(timelines.earliest_fit(a.start, job.proc_time, &job.demands));
            let t1 = Instant::now();
            timelines.commit_job(a.machine, a.start, job.proc_time, &job.demands);
            let t2 = Instant::now();
            fit_ns.push((t1 - t0).as_nanos() as f64);
            commit_ns.push((t2 - t1).as_nanos() as f64);
        }
    });
    fit_ns.sort_by(f64::total_cmp);
    commit_ns.sort_by(f64::total_cmp);
    layers.set_n(
        "sim.replay_fit_ns_p50",
        percentile(&fit_ns, 50.0),
        fit_ns.len(),
    );
    layers.set_n(
        "sim.replay_fit_ns_p99",
        percentile(&fit_ns, 99.0),
        fit_ns.len(),
    );
    layers.set_n(
        "sim.replay_commit_ns_p50",
        percentile(&commit_ns, 50.0),
        commit_ns.len(),
    );
    timelines
}

/// Direct `KnapsackSolver::solve_into` calls on items built from the
/// workload's jobs as the epoch builds them (weight, volume), at half the
/// items' total size so the everything-fits fast path is not what is
/// timed. Item counts are capped by the workload's N.
pub fn knapsack_probe(ctx: &Ctx, layers: &mut Layers, tr: &mut Tracer, instance: &Instance) {
    let items: Vec<Item> = instance
        .jobs()
        .iter()
        .map(|j| Item::new(j.weight, j.volume()))
        .collect();
    let mut scratch = SolveScratch::default();
    let mut probe = |metric, solver: &dyn KnapsackSolver, count: usize| {
        let items = &items[..count.min(items.len())];
        let capacity = items.iter().map(|i| i.size).sum::<f64>() / 2.0;
        let ((), _) = tr.scope("knapsack.solve_into", items.len() as u32, |_| {
            let ns = fastest_ns_per(items.len(), ctx.seconds / 20.0, || {
                std::hint::black_box(solver.solve_into(&mut scratch, items, capacity));
            });
            layers.set_n(metric, ns, items.len());
        });
    };
    probe("knapsack.cadp_ns_per_item_1k", &Cadp::default(), 1_000);
    probe("knapsack.cadp_ns_per_item_16k", &Cadp::default(), 16_000);
    probe("knapsack.greedy_ns_per_item_16k", &GreedyConstraint, 16_000);
}
