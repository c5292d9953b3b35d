//! The six workloads. Each module's `run` measures one process's worth:
//! the end-to-end rows of a plain run, or the per-layer rows of a traced
//! one.

mod dag_related;
mod durable;
pub mod frontdoor;
mod service_mris;

use crate::harness::{Checks, Ctx};
use crate::report::Row;
use crate::spans::Tracer;

pub fn run(ctx: &Ctx, tr: &mut Tracer, checks: &mut Checks) -> Vec<Row> {
    match ctx.spec.name {
        "overload" | "steady" | "wide" => service_mris::run(ctx, tr, checks),
        "dag_related" => dag_related::run(ctx, tr, checks),
        "frontdoor" => frontdoor::run(ctx, tr, checks),
        "durable" => durable::run(ctx, tr, checks),
        other => unreachable!("workload {other} is in spec::WORKLOADS but has no module"),
    }
}
