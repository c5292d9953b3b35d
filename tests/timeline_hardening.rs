//! Hardening regressions for the committed-timeline hot path: release-build
//! capacity enforcement, compaction watermarks, typed machine-index errors,
//! and unplaceable demands — all through the public facade, the way
//! downstream policies consume the crate.

use std::panic::{catch_unwind, AssertUnwindSafe};

use mris::sim::{run_online, ClusterTimelines, Dispatcher, MachineTimeline, OnlinePolicy};
use mris::types::{amount_from_fraction, Amount, Instance, Job, JobId, SchedulingError, Time};

fn d(fracs: &[f64]) -> Vec<Amount> {
    fracs.iter().copied().map(amount_from_fraction).collect()
}

/// The capacity bound in `commit` must hold in **every** build profile —
/// this test passes under both `cargo test` and `cargo test --release`
/// because the check is a hard assertion, not a `debug_assert!`. Before the
/// fix, a caller bug silently over-committed the timeline in `--release`
/// and corrupted every later feasibility answer.
#[test]
fn over_commit_aborts_in_release_semantics_and_preserves_the_timeline() {
    let mut tl = MachineTimeline::new(2);
    tl.commit(0.0, 10.0, &d(&[0.7, 0.2]));
    let err = catch_unwind(AssertUnwindSafe(|| {
        tl.commit(5.0, 2.0, &d(&[0.7, 0.2]));
    }))
    .expect_err("over-commit must panic in every profile");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()).unwrap());
    assert!(msg.contains("exceeds capacity"), "panic message: {msg}");
    // The step function is semantically unchanged: the failed commit
    // materialized at most already-implied breakpoints, never usage.
    assert_eq!(tl.usage_at(5.5), &d(&[0.7, 0.2])[..]);
    assert_eq!(tl.usage_at(11.0), &d(&[0.0, 0.0])[..]);
    assert_eq!(tl.earliest_fit(0.0, 10.0, &d(&[0.3, 0.3])), 0.0);
    assert_eq!(tl.earliest_fit(0.0, 1.0, &d(&[0.7, 0.2])), 10.0);
}

/// A commit that panics on capacity has already spliced its breakpoints
/// in, shifting every segment after them into other skip-index blocks. A
/// caught panic must leave that index folded for the shifted segments:
/// every later answer is the one a timeline built from the successful
/// commits alone gives.
#[test]
fn a_caught_over_commit_leaves_the_skip_index_exact() {
    const BLOCK: usize = 16; // segments per skip-index block (`timeline.rs`)
    let mut tl = MachineTimeline::new(1);
    let mut fresh = MachineTimeline::new(1);
    // Unit segments, one skip-index block of them nearly idle, the next
    // full, and so on: a shift by two segments moves the last two of each
    // block into a block whose fold says the opposite of them.
    let blocks = 12;
    for t in 0..blocks * BLOCK {
        let height = if (t / BLOCK).is_multiple_of(2) {
            0.01
        } else {
            1.0
        };
        let demand = d(&[height]);
        tl.commit(t as f64, 1.0, &demand);
        fresh.commit(t as f64, 1.0, &demand);
    }
    catch_unwind(AssertUnwindSafe(|| tl.commit(0.1, 0.2, &d(&[1.0]))))
        .expect_err("the first block holds 0.01 of the resource at 0.1");
    assert_eq!(tl.num_segments(), fresh.num_segments() + 2);
    for k in 0..4 * blocks * BLOCK {
        let from = k as f64 * 0.25;
        for dur in [0.5, 1.5, 3.0, 20.0] {
            for h in [0.5, 0.99] {
                let demand = d(&[h]);
                assert_eq!(
                    tl.earliest_fit(from, dur, &demand),
                    fresh.earliest_fit(from, dur, &demand),
                    "earliest fit from {from} for {dur} at {h}"
                );
            }
        }
        assert_eq!(tl.usage_at(from), fresh.usage_at(from), "usage at {from}");
    }
}

#[test]
fn compaction_watermark_is_observable_and_monotone() {
    let mut tl = MachineTimeline::new(1);
    tl.commit(0.0, 2.0, &d(&[0.5]));
    tl.commit(3.0, 2.0, &d(&[0.5]));
    tl.commit(8.0, 4.0, &d(&[0.9]));
    assert_eq!(tl.compaction_watermark(), 0.0);
    tl.compact_before(6.0);
    // The retained prefix starts at the last breakpoint <= 6, i.e. 5.0.
    assert_eq!(tl.compaction_watermark(), 5.0);
    // Post-watermark answers stay exact after compaction: the gap [5, 8)
    // takes a duration-3 job, but a duration-4 one must wait out [8, 12).
    assert_eq!(tl.earliest_fit(5.0, 3.0, &d(&[0.5])), 5.0);
    assert_eq!(tl.earliest_fit(5.0, 4.0, &d(&[0.5])), 12.0);
    assert_eq!(tl.earliest_fit(5.0, 3.0, &d(&[0.1])), 5.0);
    // Watermarks never move backwards.
    tl.compact_before(1.0);
    assert_eq!(tl.compaction_watermark(), 5.0);
}

/// A policy that targets a machine index outside the cluster: the driver
/// must surface `SchedulingError::InvalidMachine`, not panic on a slice
/// index deep inside `ClusterState::fits`.
#[test]
fn online_driver_reports_invalid_machine_as_typed_error() {
    struct OffByOne;
    impl OnlinePolicy for OffByOne {
        fn on_arrivals(&mut self, _now: Time, _arrived: &[JobId], _inst: &Instance) {}
        fn dispatch(
            &mut self,
            d: &mut Dispatcher<'_>,
            _freed: &[usize],
        ) -> Result<(), SchedulingError> {
            let machines = d.cluster().num_machines();
            d.place(machines, JobId(0))
        }
    }
    let instance = Instance::new(
        vec![Job::from_fractions(JobId(0), 0.0, 1.0, 1.0, &[0.2])],
        1,
    )
    .unwrap();
    let err = run_online(&instance, 3, &mut OffByOne).unwrap_err();
    assert_eq!(
        err,
        SchedulingError::InvalidMachine {
            machine: 3,
            num_machines: 3
        }
    );
    assert!(err.to_string().contains("machine 3"));
}

/// A query of no length has no earliest fit, and says so in every profile.
/// The cluster sweep rules most machines out from their floor columns
/// without probing a timeline, so the check cannot live in the per-machine
/// probe: it runs once per query, before the sweep. Here every machine
/// already carries a floor for the query's demand class.
#[test]
fn zero_duration_panics_even_when_every_machine_is_ruled_out() {
    let machines = 4;
    let demand = d(&[0.5, 0.5]);
    let mut cl = ClusterTimelines::new(machines, 2);
    for m in 0..machines {
        cl.commit(m, 0.0, 10.0, &d(&[1.0, 1.0]));
    }
    // Every machine learns that nothing of this class lasting 1 or more
    // starts before 10.
    assert_eq!(cl.earliest_fit_mut(0.0, 1.0, &demand), (0, 10.0));
    for dur in [0.0, -1.0, f64::NAN] {
        for shared in [true, false] {
            let err = catch_unwind(AssertUnwindSafe(|| {
                if shared {
                    cl.earliest_fit(0.0, dur, &demand)
                } else {
                    cl.earliest_fit_mut(0.0, dur, &demand)
                }
            }))
            .expect_err("a query of no length must panic, not answer");
            let msg = err
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()).unwrap());
            assert!(
                msg.contains("job duration must be positive"),
                "dur {dur}, shared {shared}: panic message: {msg}"
            );
        }
    }
    // The cluster still answers what has a length.
    assert_eq!(cl.earliest_fit(0.0, 2.0, &demand), (0, 10.0));
}

/// A demand no machine's capacity holds used to end the cluster scan on a
/// `(usize::MAX, INFINITY)` sentinel behind a `debug_assert!`; in release
/// the commit then indexed machine `usize::MAX`. The driver rejects
/// such jobs up front (`SchedulingError::UnplaceableJob`), but a direct
/// caller must get a panic that names the demand vector — in every
/// profile.
#[test]
fn unplaceable_demand_panics_naming_the_vector() {
    use mris::types::{ClusterSpec, MachineSpec};
    let spec = ClusterSpec::new(vec![
        MachineSpec::from_fractions(1.0, &[0.5, 1.0]),
        MachineSpec::from_fractions(2.0, &[1.0, 0.4]),
    ]);
    let instance = Instance::new(
        vec![
            Job::from_fractions(JobId(0), 0.0, 1.0, 1.0, &[0.6, 0.5]),
            Job::from_fractions(JobId(1), 0.0, 1.0, 1.0, &[0.6, 0.3]),
        ],
        2,
    )
    .unwrap();
    let mut cl = ClusterTimelines::with_spec(&spec, 2);
    let mut placed = Vec::new();
    let err = catch_unwind(AssertUnwindSafe(|| {
        cl.place_batch(&instance, &[JobId(0)], 0.0, &mut placed)
    }))
    .expect_err("an unplaceable demand must panic, not index out of bounds");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()).unwrap());
    assert!(
        msg.contains("no machine can ever hold demand vector [600000, 500000]"),
        "panic message: {msg}"
    );
    // The cluster is still usable: what fits is placed as before.
    placed.clear();
    cl.place_batch(&instance, &[JobId(1)], 0.0, &mut placed);
    assert_eq!(placed, [(JobId(1), 1, 0.0)]);
}
