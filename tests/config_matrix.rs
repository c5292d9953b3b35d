//! Exercises the full MRIS configuration matrix and every workload
//! generator: all heuristics x all knapsack choices x backfill on/off, on
//! the diurnal trace and on its shapes under Poisson and burst arrivals —
//! every combination must produce a feasible, complete schedule within its
//! configuration's guarantees.

use std::num::NonZeroUsize;

use mris::prelude::*;
use mris::trace::{poisson_rate_for_utilization, Arrivals, AzureTrace, AzureTraceConfig};

const SEED: u64 = 77;

fn workloads() -> Vec<(&'static str, Instance)> {
    let diurnal = AzureTrace::generate(&AzureTraceConfig {
        num_jobs: 1200,
        window_days: 2.0,
        seed: SEED,
        priority_levels: 3,
    })
    .sample_instance(4, 1);
    // Full load on the tests' three machines, arriving one by one or in
    // bursts of 30 at the same mean rate.
    let rate = poisson_rate_for_utilization(&diurnal, 3, 1.0);
    let poisson = Arrivals::Poisson { rate }.rewrite(&diurnal, SEED).unwrap();
    let bursts = Arrivals::Bursts {
        period: 30.0 / rate,
        size: NonZeroUsize::new(30).unwrap(),
    }
    .rewrite(&diurnal, SEED)
    .unwrap();
    vec![
        ("diurnal", diurnal),
        ("poisson", poisson),
        ("bursts", bursts),
    ]
}

#[test]
fn all_mris_configurations_schedule_all_workloads() {
    let machines = 3;
    for (workload, instance) in workloads() {
        for heuristic in SortHeuristic::ALL_EXTENDED {
            for knapsack in [
                KnapsackChoice::Cadp,
                KnapsackChoice::Greedy,
                KnapsackChoice::GreedyHalf,
            ] {
                for backfill in [true, false] {
                    let mris = Mris::with_config(MrisConfig {
                        heuristic,
                        knapsack,
                        backfill,
                        ..Default::default()
                    });
                    let (schedule, log) = mris.schedule_with_log(&instance, machines);
                    schedule.validate(&instance).unwrap_or_else(|e| {
                        panic!("{workload}/{heuristic}/{knapsack:?}/backfill={backfill}: {e}")
                    });
                    // Every iteration respects its volume budget.
                    let blowup = match knapsack {
                        KnapsackChoice::Cadp => 1.5,
                        _ => 2.0,
                    };
                    for it in &log {
                        assert!(
                            it.batch_volume <= blowup * it.zeta + 1e-6,
                            "{workload}/{heuristic}/{knapsack:?}: iteration {} volume budget",
                            it.k
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn alpha_and_epsilon_extremes_remain_sound() {
    let instance = workloads().remove(0).1;
    for alpha in [2.0, 4.0, 16.0] {
        for epsilon in [0.05, 0.5, 0.95] {
            let mris = Mris::with_config(MrisConfig {
                alpha,
                epsilon,
                ..Default::default()
            });
            let schedule = mris.schedule(&instance, 2);
            schedule
                .validate(&instance)
                .unwrap_or_else(|e| panic!("alpha={alpha} eps={epsilon}: {e}"));
        }
    }
}

#[test]
fn backfill_dominates_no_backfill_on_every_workload() {
    // Backfilling can only move starts earlier relative to the append-only
    // variant at equal batch choices, so AWCT should never be (much) worse.
    for (workload, instance) in workloads() {
        let with = Mris::default().schedule(&instance, 3).awct(&instance);
        let without = Mris::with_config(MrisConfig {
            backfill: false,
            ..Default::default()
        })
        .schedule(&instance, 3)
        .awct(&instance);
        assert!(
            with <= without * 1.001,
            "{workload}: backfill {with} vs append-only {without}"
        );
    }
}
