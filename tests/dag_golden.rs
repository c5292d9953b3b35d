//! Golden regression test for precedence-constrained (DAG) scheduling: a
//! hand-built diamond whose schedule and AWCT are derived by hand below,
//! on a uniform cluster and again on related-speed machines — plus the
//! registry's capability gate rejecting the one algorithm that cannot run
//! DAGs, and a seeded grid (chains, fork-join stages, random DAGs × uniform
//! and related clusters) on which every capable algorithm must keep every
//! edge under the cluster's effective times.

use mris::prelude::*;
use mris::registry::algorithm_for_workload;
use mris::types::RegistryError;
use mris_rng::Rng;

/// The diamond `0 -> {1, 2} -> 3` on 1 resource; every demand is 0.6, so
/// no two jobs ever share a machine.
///
/// * `J0`: release 0, p = 2, w = 1 — the source
/// * `J1`: release 0, p = 1, w = 2 — WSJF key p/w = 0.5
/// * `J2`: release 0, p = 3, w = 1 — WSJF key p/w = 3
/// * `J3`: release 0, p = 1, w = 4 — the sink
fn diamond() -> Instance {
    let mut b = InstanceBuilder::new(1);
    b.push_job(0.0, 2.0, 1.0, &[0.6]);
    b.push_job(0.0, 1.0, 2.0, &[0.6]);
    b.push_job(0.0, 3.0, 1.0, &[0.6]);
    b.push_job(0.0, 1.0, 4.0, &[0.6]);
    b.edge(JobId(0), JobId(1));
    b.edge(JobId(0), JobId(2));
    b.edge(JobId(1), JobId(3));
    b.edge(JobId(2), JobId(3));
    b.build().expect("diamond is acyclic")
}

fn assignment(s: &Schedule, j: u32) -> (usize, f64) {
    let a = s.get(JobId(j)).expect("job scheduled");
    (a.machine, a.start)
}

/// PQ-WSJF on 2 unit-speed machines:
///
/// * t = 0: only `J0` is gate-ready; it starts on machine 0, runs [0, 2).
/// * t = 2: `J0` completes, opening `J1` and `J2`. WSJF delivers `J1`
///   (key 0.5) before `J2` (key 3): `J1` on machine 0 [2, 3), `J2` on
///   machine 1 [2, 5) (0.6 + 0.6 > 1 keeps them apart).
/// * t = 5: `J2` completes (the last predecessor of `J3`); `J3` starts on
///   machine 0, runs [5, 6).
///
/// Completions 2, 3, 5, 6 — AWCT = (1·2 + 2·3 + 1·5 + 4·6) / 4 = **9.25**
/// exactly (all values float-exact, so `==` is legitimate).
#[test]
fn golden_diamond_on_uniform_machines() {
    let instance = diamond();
    let cluster = ClusterSpec::uniform(2);
    let algo = algorithm_for_workload("pq-wsjf", &instance, &cluster)
        .expect("pq-wsjf supports precedence");
    let schedule = algo
        .try_schedule_on(&instance, &cluster)
        .expect("diamond schedules");
    schedule.validate_on(&instance, &cluster).unwrap();
    assert_eq!(assignment(&schedule, 0), (0, 0.0));
    assert_eq!(assignment(&schedule, 1), (0, 2.0));
    assert_eq!(assignment(&schedule, 2), (1, 2.0));
    assert_eq!(assignment(&schedule, 3), (0, 5.0));
    assert_eq!(schedule.awct_on(&instance, &cluster), 9.25);
}

/// The same diamond on related machines, speeds [2, 1]: machine 0 runs
/// every job in half its nominal time.
///
/// * t = 0: `J0` on machine 0, effective time 2/2 = 1, runs [0, 1).
/// * t = 1: `J1` on machine 0 [1, 1.5); `J2` on machine 1 [1, 4).
/// * t = 4: `J2` completes; `J3` on machine 0 [4, 4.5).
///
/// Completions 1, 1.5, 4, 4.5 — AWCT = (1 + 3 + 4 + 18) / 4 = **6.5**.
#[test]
fn golden_diamond_on_related_machines() {
    let instance = diamond();
    let cluster = ClusterSpec::related(2, &[2.0, 1.0]);
    let algo = algorithm_for_workload("pq-wsjf", &instance, &cluster)
        .expect("pq-wsjf supports heterogeneous DAGs");
    let schedule = algo
        .try_schedule_on(&instance, &cluster)
        .expect("diamond schedules on related machines");
    schedule.validate_on(&instance, &cluster).unwrap();
    assert_eq!(assignment(&schedule, 0), (0, 0.0));
    assert_eq!(assignment(&schedule, 1), (0, 1.0));
    assert_eq!(assignment(&schedule, 2), (1, 1.0));
    assert_eq!(assignment(&schedule, 3), (0, 4.0));
    assert_eq!(schedule.awct_on(&instance, &cluster), 6.5);
}

/// CA-PQ's clairvoyant arrival oracle cannot see gate-release times, so
/// the registry's capability check rejects it on any DAG instance with a
/// typed error naming the feature.
#[test]
fn capability_gate_rejects_capq_on_dags() {
    let instance = diamond();
    let cluster = ClusterSpec::uniform(2);
    match algorithm_for_workload("ca-pq", &instance, &cluster) {
        Err(RegistryError::Unsupported { algorithm, .. }) => {
            assert_eq!(algorithm, "ca-pq");
        }
        Err(other) => panic!("expected Unsupported for ca-pq on a DAG, got {other}"),
        Ok(_) => panic!("ca-pq unexpectedly accepted a DAG workload"),
    }
}

/// `n` seeded jobs on 2 resources with the precedence structure of
/// `family`; edges run from lower to higher ids, so every family is acyclic.
fn family_instance(family: &str, n: u32, rng: &mut Rng) -> Instance {
    let mut b = InstanceBuilder::new(2);
    for _ in 0..n {
        let demands = [rng.gen_range(0.05..=0.9), rng.gen_range(0.05..=0.9)];
        b.push_job(
            rng.gen_range(0.0..20.0),
            rng.gen_range(0.5..6.0),
            rng.gen_range(0.1..4.0),
            &demands,
        );
    }
    match family {
        // Disjoint chains of 4 consecutive ids.
        "chain" => {
            for i in (0..n - 1).filter(|i| i % 4 != 3) {
                b.edge(JobId(i), JobId(i + 1));
            }
        }
        // Stages of 6 consecutive ids: the first forks to four middles,
        // which all join into the last.
        "fork-join" => {
            for first in (0..n / 6).map(|stage| stage * 6) {
                for mid in first + 1..first + 5 {
                    b.edge(JobId(first), JobId(mid));
                    b.edge(JobId(mid), JobId(first + 5));
                }
            }
        }
        // Each job draws up to two predecessors among earlier ids.
        "random-dag" => {
            for succ in 1..n {
                for _ in 0..2 {
                    if rng.gen_range(0.0..1.0) < 0.5 {
                        b.edge(JobId(rng.gen_range(0..succ as usize) as u32), JobId(succ));
                    }
                }
            }
        }
        other => panic!("unknown family {other}"),
    }
    b.build()
        .unwrap_or_else(|e| panic!("{family} is acyclic: {e}"))
}

/// Every algorithm the registry accepts for a DAG workload returns a
/// schedule that passes spec-aware validation and in which no successor
/// starts before its predecessor's completion *on the machine it ran on* —
/// on uniform machines and on related speeds 2 / 1 / 0.5 alike.
#[test]
fn every_capable_algorithm_respects_edges_on_uniform_and_related_clusters() {
    let mut rng = Rng::new(17).substream("dag-grid");
    let clusters = [
        ClusterSpec::uniform(4),
        ClusterSpec::related(4, &[2.0, 1.0, 0.5]),
    ];
    for family in ["chain", "fork-join", "random-dag"] {
        let instance = family_instance(family, 48, &mut rng);
        assert!(instance.has_precedence(), "{family} drew no edges");
        for cluster in &clusters {
            for name in ["mris", "pq-wsjf", "pq-wsvf", "tetris", "bf-exec"] {
                let what = format!("{name} on {family} x {cluster:?}");
                let schedule = algorithm_for_workload(name, &instance, cluster)
                    .unwrap_or_else(|e| panic!("{what}: {e}"))
                    .try_schedule_on(&instance, cluster)
                    .unwrap_or_else(|e| panic!("{what}: {e}"));
                schedule
                    .validate_on(&instance, cluster)
                    .unwrap_or_else(|e| panic!("{what}: {e}"));
                for &(pred, succ) in instance.edges() {
                    let p = schedule.get(pred).expect("predecessor scheduled");
                    let s = schedule.get(succ).expect("successor scheduled");
                    let end =
                        p.start + cluster.effective_time(p.machine, instance.job(pred).proc_time);
                    assert!(
                        s.start >= end,
                        "{what}: {succ} starts at {} before {pred} completes at {end}",
                        s.start
                    );
                }
            }
        }
    }
}
