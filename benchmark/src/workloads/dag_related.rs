//! `dag_related`: MRIS through the batch path (`try_schedule_on`, that is
//! `run_driver`, not `Service`) on chains of four over six related
//! machines — the second event loop, the `PrecedenceGate`, and the
//! speed-aware timeline path.

use mris_core::registry::online_policy_for_workload;
use mris_sim::{run_driver_observed, RunOptions};
use mris_types::{ClusterSpec, Instance, Schedule};

use crate::harness::{measure, Checks, Ctx, Layers, Published, Rep};
use crate::inputs::dag_instance;
use crate::layers::{
    batch_schedule, mris_layers, pq_baseline, quality, replay_probe, setup_layers,
};
use crate::report::Row;
use crate::spans::Tracer;

#[derive(PartialEq)]
struct Inputs {
    instance: Instance,
    cluster: ClusterSpec,
    pq_awct: f64,
}

pub fn run(ctx: &Ctx, tr: &mut Tracer, checks: &mut Checks) -> Vec<Row> {
    let n = ctx.jobs();
    let mut last: Option<Schedule> = None;

    let m = measure(
        ctx,
        tr,
        checks,
        |tr, checks| {
            let ((instance, cluster), _) =
                tr.scope("trace.generate", 0, |_| dag_instance(ctx.spec, n, ctx.seed));
            let pq_awct = pq_baseline(&instance, &cluster, tr, checks);
            Inputs {
                instance,
                cluster,
                pq_awct,
            }
        },
        |inputs, tr, checks, cal| {
            let before = cal.kernel_ms();
            let (schedule, wall_s) = batch_schedule(
                ctx.spec.policy,
                &inputs.instance,
                &inputs.cluster,
                tr,
                checks,
            );
            let factor = cal.factor(before);
            checks.attempted += n as u64;
            let (awct, makespan) = quality(&inputs.instance, &inputs.cluster, &schedule);
            last = Some(schedule);
            // The batch path is one call: it is its own longest call.
            Rep {
                wall_s,
                stall_s: wall_s,
                factor,
                awct,
                makespan,
            }
        },
    );
    if !ctx.traced {
        return m.end_to_end(n, m.inputs.pq_awct, checks);
    }

    let Inputs {
        instance, cluster, ..
    } = &m.inputs;
    let published = Published::read(&m.obs);
    let reps = m.traced_reps.len() as f64;
    let mut layers = Layers::default();
    setup_layers(&mut layers, tr, n, &m);
    mris_layers(&mut layers, &published, n, &m);
    layers.set(
        "sim.gate_held",
        published.counter("mris_prec_gated_total") / reps,
    );
    layers.set(
        "sim.gate_ready",
        published.counter("mris_prec_ready_total") / reps,
    );
    checks.check(published.counter("mris_prec_ready_total") > 0.0, || {
        "no precedence gate ever opened: the chains did not reach the gate".into()
    });
    replay_probe(
        &mut layers,
        tr,
        instance,
        cluster,
        &last.expect("at least one rep ran"),
    );

    // The bare event loop: PQ-WSJF is near-free, so run_driver's own cost
    // per event is what is left.
    let mut policy = online_policy_for_workload("pq-wsjf", instance, cluster)
        .expect("PQ-WSJF supports the workload");
    let mut events = 0u64;
    let (outcome, secs) = tr.scope("sim.run_driver", 0, |_| {
        run_driver_observed(
            instance,
            cluster.clone(),
            policy.as_mut(),
            RunOptions::new(),
            |_| events += 1,
        )
    });
    checks.check(outcome.is_ok(), || {
        format!("run_driver with pq-wsjf: {:?}", outcome.as_ref().err())
    });
    layers.set_n(
        "sim.driver_ns_per_event",
        secs * 1e9 / events.max(1) as f64,
        events as usize,
    );
    layers.rows()
}
