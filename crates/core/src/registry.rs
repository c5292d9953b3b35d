//! Algorithm registry: the one place that maps names to schedulers.
//!
//! Every front end — the `mris` CLI, the figure binaries, the bench
//! harness, and the service — resolves algorithms through this module, so
//! adding an algorithm (or renaming one) is a one-place change:
//! [`algorithm_by_name`] holds the only name table, and the online-policy
//! resolvers ask the resolved [`Scheduler`] for its
//! [`policy`](Scheduler::policy).

use crate::{KnapsackChoice, Mris, MrisConfig};
use mris_schedulers::{BfExec, CaPq, Pq, Scheduler, SortHeuristic, Tetris};
use mris_sim::OnlinePolicy;
use mris_types::{ClusterSpec, Instance, RegistryError, WorkloadFeature};

/// Names accepted by [`algorithm_by_name`], with a short description each.
pub fn known_algorithms() -> Vec<(&'static str, &'static str)> {
    vec![
        (
            "mris",
            "MRIS with CADP knapsack and WSJF order (the paper's default)",
        ),
        (
            "mris-greedy",
            "MRIS with the Remark 1 constraint greedy (16R-competitive)",
        ),
        (
            "mris-greedy-half",
            "MRIS with the capacity-respecting half-budget greedy",
        ),
        (
            "mris-exact",
            "MRIS with the exact pseudo-polynomial knapsack (reference)",
        ),
        (
            "mris-<heuristic>",
            "MRIS with another queue order, e.g. mris-wsvf",
        ),
        (
            "pq-<heuristic>",
            "Priority-Queue, e.g. pq-wsjf, pq-svf, pq-erf",
        ),
        ("tetris", "non-preemptive Tetris adaptation"),
        (
            "bf-exec",
            "BF-EXEC (best fit on arrival, SJF backfill on departure)",
        ),
        (
            "ca-pq",
            "Collect-All PQ (waits for the last release, then WSJF)",
        ),
    ]
}

/// Every concrete name the registry resolves, for did-you-mean suggestions:
/// the fixed names plus both heuristic families expanded over every
/// [`SortHeuristic`] label.
fn suggestion_candidates() -> Vec<String> {
    let mut out: Vec<String> = [
        "mris",
        "mris-greedy",
        "mris-greedy-half",
        "mris-exact",
        "tetris",
        "bf-exec",
        "ca-pq",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    for h in SortHeuristic::ALL_EXTENDED {
        out.push(format!("pq-{}", h.label().to_ascii_lowercase()));
        out.push(format!("mris-{}", h.label().to_ascii_lowercase()));
    }
    out
}

/// The typed error every resolver returns for an unrecognised name.
fn unknown(name: &str) -> RegistryError {
    RegistryError::unknown_algorithm(
        name,
        known_algorithms().iter().map(|(n, _)| *n).collect(),
        suggestion_candidates(),
    )
}

/// Maps a heuristic-suffix parse failure into the typed registry error.
fn bad_heuristic(name: &str, detail: String) -> RegistryError {
    RegistryError::UnknownHeuristic {
        name: name.to_string(),
        detail,
    }
}

/// Resolves an algorithm name (case-insensitive). Heuristic suffixes accept
/// every [`SortHeuristic`] label, e.g. `pq-wsvf` or `mris-sjf`.
pub fn algorithm_by_name(name: &str) -> Result<Box<dyn Scheduler>, RegistryError> {
    let lower = name.to_ascii_lowercase();
    match lower.as_str() {
        "mris" => return Ok(Box::new(Mris::default())),
        "mris-greedy" => {
            return Ok(Box::new(Mris::with_config(MrisConfig {
                knapsack: KnapsackChoice::Greedy,
                ..Default::default()
            })))
        }
        "mris-greedy-half" => {
            return Ok(Box::new(Mris::with_config(MrisConfig {
                knapsack: KnapsackChoice::GreedyHalf,
                ..Default::default()
            })))
        }
        "mris-exact" => {
            return Ok(Box::new(Mris::with_config(MrisConfig {
                knapsack: KnapsackChoice::Exact,
                ..Default::default()
            })))
        }
        "tetris" => return Ok(Box::new(Tetris::default())),
        "bf-exec" | "bfexec" => return Ok(Box::new(BfExec)),
        "ca-pq" | "capq" => return Ok(Box::new(CaPq::default())),
        _ => {}
    }
    if let Some(suffix) = lower.strip_prefix("pq-") {
        let heuristic: SortHeuristic = suffix.parse().map_err(|e| bad_heuristic(name, e))?;
        return Ok(Box::new(Pq::new(heuristic)));
    }
    if let Some(suffix) = lower.strip_prefix("mris-") {
        let heuristic: SortHeuristic = suffix.parse().map_err(|e| bad_heuristic(name, e))?;
        return Ok(Box::new(Mris::with_config(MrisConfig {
            heuristic,
            ..Default::default()
        })));
    }
    Err(unknown(name))
}

/// Resolves the same names as [`algorithm_by_name`] into *stateful*
/// [`OnlinePolicy`] instances for the event-driven and fault-injection
/// drivers ([`mris_sim::run_online`], [`mris_sim::run_driver`]) and the
/// service.
///
/// Unlike [`algorithm_by_name`], this takes the instance and machine count:
/// the policies are constructed per run (MRIS sizes its grid and timelines;
/// CA-PQ receives the oracle gate, the instance's last release time). It is
/// the policy the boxed scheduler's own batch entry points run.
pub fn online_policy_by_name(
    name: &str,
    instance: &Instance,
    num_machines: usize,
) -> Result<Box<dyn OnlinePolicy>, RegistryError> {
    online_policy_on(name, instance, &ClusterSpec::uniform(num_machines))
}

/// [`online_policy_by_name`] over an explicit [`ClusterSpec`]: MRIS sizes
/// its committed timelines off the spec's per-machine capacities and
/// speeds; the reactive policies carry no cluster state of their own.
///
/// No capability check happens here — use [`online_policy_for_workload`]
/// when the (algorithm, workload) pair comes from user input.
pub fn online_policy_on(
    name: &str,
    instance: &Instance,
    cluster: &ClusterSpec,
) -> Result<Box<dyn OnlinePolicy>, RegistryError> {
    Ok(algorithm_by_name(name)?.policy(instance, cluster))
}

/// Rejects a resolved algorithm whose capability flags do not cover the
/// workload: precedence edges on `instance`, non-uniform machines in
/// `cluster`. The typed error replaces the old failure mode — a scheduler
/// that silently ignored the feature and returned a wrong-looking-right
/// schedule.
fn check_capabilities(
    name: &str,
    algo: &dyn Scheduler,
    instance: &Instance,
    cluster: &ClusterSpec,
) -> Result<(), RegistryError> {
    if instance.has_precedence() && !algo.supports_precedence() {
        return Err(RegistryError::Unsupported {
            algorithm: name.to_string(),
            feature: WorkloadFeature::Precedence,
        });
    }
    if !cluster.is_uniform() && !algo.supports_heterogeneous() {
        return Err(RegistryError::Unsupported {
            algorithm: name.to_string(),
            feature: WorkloadFeature::HeterogeneousMachines,
        });
    }
    Ok(())
}

/// [`algorithm_by_name`] plus a capability check against the workload the
/// caller is about to schedule. Front ends that accept arbitrary
/// (algorithm, instance, cluster) triples resolve through this so an
/// unsupported pair fails with [`RegistryError::Unsupported`] up front.
pub fn algorithm_for_workload(
    name: &str,
    instance: &Instance,
    cluster: &ClusterSpec,
) -> Result<Box<dyn Scheduler>, RegistryError> {
    let algo = algorithm_by_name(name)?;
    check_capabilities(name, algo.as_ref(), instance, cluster)?;
    Ok(algo)
}

/// [`online_policy_on`] with the same capability check as
/// [`algorithm_for_workload`].
pub fn online_policy_for_workload(
    name: &str,
    instance: &Instance,
    cluster: &ClusterSpec,
) -> Result<Box<dyn OnlinePolicy>, RegistryError> {
    Ok(algorithm_for_workload(name, instance, cluster)?.policy(instance, cluster))
}

/// Resolves a list of names in order; fails on the first unknown name.
pub fn algorithms_by_names<I, S>(names: I) -> Result<Vec<Box<dyn Scheduler>>, RegistryError>
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    names
        .into_iter()
        .map(|n| algorithm_by_name(n.as_ref()))
        .collect()
}

/// The standard comparison set (Figures 3/4): MRIS, PQ-WSJF, PQ-WSVF,
/// Tetris, BF-EXEC, CA-PQ.
pub fn comparison_algorithms() -> Vec<Box<dyn Scheduler>> {
    algorithms_by_names(["mris", "pq-wsjf", "pq-wsvf", "tetris", "bf-exec", "ca-pq"])
        .expect("built-in comparison names resolve")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolves_all_documented_names() {
        for name in [
            "mris",
            "mris-greedy",
            "mris-greedy-half",
            "mris-exact",
            "tetris",
            "bf-exec",
            "ca-pq",
        ] {
            assert!(algorithm_by_name(name).is_ok(), "{name}");
        }
        assert_eq!(algorithm_by_name("pq-wsjf").unwrap().name(), "PQ-WSJF");
        assert_eq!(algorithm_by_name("PQ-SVF").unwrap().name(), "PQ-SVF");
        assert_eq!(algorithm_by_name("mris-erf").unwrap().name(), "MRIS-ERF");
        // "mris-exact" is an exact-match name, not a heuristic suffix.
        assert_eq!(
            algorithm_by_name("mris-exact").unwrap().name(),
            "MRIS-EXACT-WSJF"
        );
    }

    #[test]
    fn rejects_unknown_names() {
        assert!(algorithm_by_name("sjf-first").is_err());
        assert!(algorithm_by_name("pq-nope").is_err());
    }

    #[test]
    fn every_heuristic_suffix_resolves() {
        use mris_schedulers::SortHeuristic;
        for h in SortHeuristic::ALL_EXTENDED {
            let pq = algorithm_by_name(&format!("pq-{}", h.label())).unwrap();
            assert_eq!(pq.name(), format!("PQ-{h}"));
            let mris = algorithm_by_name(&format!("mris-{}", h.label())).unwrap();
            assert_eq!(mris.name(), format!("MRIS-{h}"));
        }
    }

    #[test]
    fn error_lists_known_algorithms() {
        let err = algorithm_by_name("whatever")
            .err()
            .expect("must fail")
            .to_string();
        assert!(err.contains("mris") && err.contains("tetris"), "{err}");
    }

    #[test]
    fn error_suggests_nearby_name() {
        match algorithm_by_name("tetriss").err().expect("must fail") {
            mris_types::RegistryError::UnknownAlgorithm { suggestion, .. } => {
                assert_eq!(suggestion.as_deref(), Some("tetris"));
            }
            other => panic!("unexpected error {other:?}"),
        }
        // A typo'd heuristic suffix gets the heuristic-specific error.
        match algorithm_by_name("pq-nope").err().expect("must fail") {
            mris_types::RegistryError::UnknownHeuristic { name, detail } => {
                assert_eq!(name, "pq-nope");
                assert!(detail.contains("heuristic"), "{detail}");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn batch_resolution_is_ordered_and_fails_fast() {
        let algos = algorithms_by_names(["mris", "tetris"]).unwrap();
        assert_eq!(algos[0].name(), "MRIS-WSJF");
        assert_eq!(algos[1].name(), "TETRIS");
        assert!(algorithms_by_names(["mris", "nope"]).is_err());
    }

    #[test]
    fn online_policies_resolve_for_all_comparison_names() {
        use mris_types::{Job, JobId};
        let jobs = vec![
            Job::from_fractions(JobId(0), 0.0, 2.0, 1.0, &[0.5]),
            Job::from_fractions(JobId(1), 1.0, 1.0, 2.0, &[0.25]),
        ];
        let instance = Instance::new(jobs, 1).unwrap();
        for name in ["mris", "pq-wsjf", "pq-wsvf", "tetris", "bf-exec", "ca-pq"] {
            let mut policy = online_policy_by_name(name, &instance, 2).unwrap();
            let schedule = mris_sim::run_online(&instance, 2, policy.as_mut()).unwrap();
            schedule.validate(&instance).unwrap();
        }
        assert!(online_policy_by_name("nope", &instance, 2).is_err());
    }

    #[test]
    fn capability_check_rejects_unsupported_pairs() {
        use mris_types::{InstanceBuilder, Job, JobId};
        let mut b = InstanceBuilder::new(1);
        let a = b.push_job(0.0, 1.0, 1.0, &[0.5]);
        let c = b.push_job(0.0, 1.0, 1.0, &[0.5]);
        b.edge(a, c);
        let dag = b.build().unwrap();
        let uniform = ClusterSpec::uniform(2);
        let related = ClusterSpec::related(2, &[1.0, 2.0]);

        // CA-PQ opts out of precedence; everything else in the comparison
        // set supports both families.
        match algorithm_for_workload("ca-pq", &dag, &uniform) {
            Err(RegistryError::Unsupported { algorithm, feature }) => {
                assert_eq!(algorithm, "ca-pq");
                assert_eq!(feature, WorkloadFeature::Precedence);
            }
            Err(other) => panic!("expected Unsupported, got {other:?}"),
            Ok(_) => panic!("expected Unsupported, got Ok"),
        }
        assert!(online_policy_for_workload("ca-pq", &dag, &uniform).is_err());
        for name in ["mris", "pq-wsjf", "pq-wsvf", "tetris", "bf-exec"] {
            assert!(
                algorithm_for_workload(name, &dag, &related).is_ok(),
                "{name}"
            );
            assert!(
                online_policy_for_workload(name, &dag, &related).is_ok(),
                "{name}"
            );
        }
        // CA-PQ stays fine on edge-free heterogeneous workloads.
        let flat = Instance::new(
            vec![Job::from_fractions(JobId(0), 0.0, 1.0, 1.0, &[0.5])],
            1,
        )
        .unwrap();
        assert!(algorithm_for_workload("ca-pq", &flat, &related).is_ok());
        // Unknown names still surface as UnknownAlgorithm, not Unsupported.
        assert!(matches!(
            algorithm_for_workload("nope", &dag, &uniform),
            Err(RegistryError::UnknownAlgorithm { .. })
        ));
    }

    #[test]
    fn comparison_set_matches_figures_3_and_4() {
        let names: Vec<String> = comparison_algorithms().iter().map(|a| a.name()).collect();
        assert_eq!(
            names,
            [
                "MRIS-WSJF",
                "PQ-WSJF",
                "PQ-WSVF",
                "TETRIS",
                "BF-EXEC",
                "CA-PQ-WSJF"
            ]
        );
    }
}
