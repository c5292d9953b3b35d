//! Quickstart: build a tiny instance by hand, schedule it with MRIS and a
//! PQ baseline, and print both schedules.
//!
//! Run with: `cargo run --release --example quickstart`

use mris::prelude::*;

fn main() {
    // One machine, two resources (think CPU and memory). A full-machine
    // blocker arrives first; six small, heavier jobs arrive moments later —
    // the situation of the paper's Lemma 4.1.
    let mut jobs = vec![Job::from_fractions(JobId(0), 0.0, 8.0, 1.0, &[1.0, 1.0])];
    for i in 0..6 {
        jobs.push(Job::from_fractions(
            JobId(i + 1),
            0.25,
            1.0,
            2.0,
            &[0.3, 0.2],
        ));
    }
    let instance = Instance::new(jobs, 2).expect("valid instance");

    let algorithms: Vec<Box<dyn Scheduler>> = vec![
        Box::new(Mris::default()),
        Box::new(Pq::new(SortHeuristic::Wsjf)),
    ];

    for algo in &algorithms {
        let schedule = algo.schedule(&instance, 1);
        schedule.validate(&instance).expect("feasible schedule");
        println!("=== {} ===", algo.name());
        println!("AWCT     = {:.3}", schedule.awct(&instance));
        println!("makespan = {:.3}", schedule.makespan(&instance));
        for a in schedule.assignments() {
            let job = instance.job(a.job);
            println!(
                "  {:>4}  machine {}  start {:>6.2}  completes {:>6.2}  (p={:.1}, w={:.0})",
                a.job.to_string(),
                a.machine,
                a.start,
                a.start + job.proc_time,
                job.proc_time,
                job.weight,
            );
        }
        println!();
    }

    println!(
        "MRIS defers the blocking job and runs the heavy short jobs first;\n\
         PQ commits to the blocker at t=0 and makes everything else wait."
    );
}
