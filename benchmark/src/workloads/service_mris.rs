//! `overload`, `steady` and `wide`: MRIS inside an in-process `Service`,
//! one `submit_at` per job at its release time, then `step()` to
//! quiescence. One epoch loop, three regimes: the knapsack solve carries
//! `overload`, the sequential timeline probe carries `steady`, and the
//! sharded pooled scan carries `wide`.

use mris_core::registry::online_policy_by_name;
use mris_core::Mris;
use mris_schedulers::Scheduler;
use mris_service::{NullSink, Service, ServiceConfig, SimClock};
use mris_sim::ClusterTimelines;
use mris_types::{ClusterSpec, Instance, Schedule};

use crate::harness::{drive, fastest_ns_per, measure, Checks, Ctx, Layers, Published, Rep};
use crate::inputs::poisson_instance;
use crate::layers::{
    knapsack_probe, mris_layers, pq_baseline, quality, replay_probe, setup_layers,
};
use crate::report::Row;
use crate::spans::Tracer;

#[derive(PartialEq)]
struct Inputs {
    instance: Instance,
    pq_awct: f64,
}

pub fn run(ctx: &Ctx, tr: &mut Tracer, checks: &mut Checks) -> Vec<Row> {
    let (n, machines) = (ctx.jobs(), ctx.spec.machines);
    let cluster = ClusterSpec::uniform(machines);
    let mut last: Option<(Schedule, usize)> = None;

    let m = measure(
        ctx,
        tr,
        checks,
        |tr, checks| {
            let (instance, _) = tr.scope("trace.generate", 0, |_| {
                poisson_instance(ctx.spec, n, ctx.seed)
            });
            let pq_awct = pq_baseline(&instance, &cluster, tr, checks);
            Inputs { instance, pq_awct }
        },
        |inputs, tr, checks, cal| {
            let instance = &inputs.instance;
            let policy = online_policy_by_name(ctx.spec.policy, instance, machines)
                .expect("registered policy");
            let service = Service::new(
                instance.clone(),
                policy,
                ServiceConfig::new(machines),
                SimClock::new(),
                NullSink,
            )
            .expect("permissive config is valid");
            let before = cal.kernel_ms();
            let (service, wall_s, stall_s) =
                drive(service, instance, tr, checks).expect("policy placed every job legally");
            let factor = cal.factor(before);
            let ((report, _), _) = tr.scope("service.drain", 0, |_| {
                service.drain().expect("drain after quiescence")
            });
            checks.service_report(ctx.spec.name, instance, &report);
            let (awct, makespan) = quality(instance, &cluster, &report.schedule);
            last = Some((report.schedule, report.summary.epochs));
            Rep {
                wall_s,
                stall_s,
                factor,
                awct,
                makespan,
            }
        },
    );
    if !ctx.traced {
        return m.end_to_end(n, m.inputs.pq_awct, checks);
    }

    let instance = &m.inputs.instance;
    let (schedule, events) = last.expect("at least one rep ran");
    let published = Published::read(&m.obs);
    let mut layers = Layers::default();
    setup_layers(&mut layers, tr, n, &m);
    mris_layers(&mut layers, &published, n, &m);
    layers.set("service.events", events as f64);
    let timelines = replay_probe(&mut layers, tr, instance, &cluster, &schedule);
    match ctx.spec.name {
        "overload" => knapsack_probe(ctx, &mut layers, tr, instance),
        "steady" => offline_probe(
            &mut layers,
            tr,
            checks,
            instance,
            machines,
            m.fastest_wall_s(),
        ),
        "wide" => {
            let reps = m.traced_reps.len() as f64;
            layers.set(
                "sim.shard_wakeups",
                published.counter("mris_shard_wakeups_total") / reps,
            );
            layers.set(
                "sim.shard_steals",
                published.counter("mris_shard_steals_total") / reps,
            );
            layers.set(
                "sim.shard_reduce_s",
                published.histogram("mris_shard_reduce_seconds").1 / reps,
            );
            scan_probe(ctx, &mut layers, tr, checks, instance, timelines);
        }
        other => unreachable!("{other} is not an in-process MRIS workload"),
    }
    layers.rows()
}

/// Offline `Mris::try_schedule` on the same instance against the online
/// wall: the two paths ROADMAP wants to be one.
fn offline_probe(
    layers: &mut Layers,
    tr: &mut Tracer,
    checks: &mut Checks,
    instance: &Instance,
    machines: usize,
    online_s: f64,
) {
    let (schedule, offline_s) = tr.scope("core.try_schedule", 0, |_| {
        Mris::default()
            .try_schedule(instance, machines)
            .expect("offline MRIS schedules the instance")
    });
    let valid = schedule.validate(instance);
    checks.check(valid.is_ok(), || {
        format!("offline MRIS: Schedule::validate: {valid:?}")
    });
    layers.set("core.offline_s", offline_s);
    layers.set("core.offline_vs_online_ratio", offline_s / online_s);
}

/// The same `earliest_fit` queries against the filled timelines with the
/// pooled scan forced off and forced on; the answers must agree.
fn scan_probe(
    ctx: &Ctx,
    layers: &mut Layers,
    tr: &mut Tracer,
    checks: &mut Checks,
    instance: &Instance,
    mut timelines: ClusterTimelines,
) {
    let queries = &instance.jobs()[..ctx.scaled(2_000).min(instance.len())];
    let mut scan = |span, threshold: usize| {
        timelines.set_parallel_threshold(threshold);
        let mut answers = Vec::new();
        let (ns, _) = tr.scope(span, 0, |_| {
            fastest_ns_per(queries.len(), ctx.seconds / 20.0, || {
                answers.clear();
                answers.extend(
                    queries
                        .iter()
                        .map(|j| timelines.earliest_fit(j.release, j.proc_time, &j.demands)),
                );
            })
        });
        (answers, ns)
    };
    let (sequential, seq_ns) = scan("sim.scan_sequential", usize::MAX);
    let (pooled, pool_ns) = scan("sim.scan_pooled", 1);
    checks.check(sequential == pooled, || {
        "pooled scan disagrees with the sequential scan".into()
    });
    layers.set_n("sim.scan_seq_ns_per_query", seq_ns, queries.len());
    layers.set_n("sim.scan_pool_ns_per_query", pool_ns, queries.len());
    layers.set("sim.pool_speedup", seq_ns / pool_ns);
}
