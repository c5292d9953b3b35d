//! MRIS configuration.

use mris_knapsack::{Cadp, ExactDp, GreedyConstraint, GreedyHalf, KnapsackSolver};
use mris_schedulers::SortHeuristic;

/// Which constraint-approximate knapsack solves problem **P1** each
/// iteration (Figure 2 compares the two).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KnapsackChoice {
    /// Constraint-approximate dynamic programming (Lemma 6.1): optimal
    /// weight within `(1 + eps)` of the volume budget; `O(n^2 / eps)`.
    /// Yields the `8R(1 + eps)` competitive ratio.
    Cadp,
    /// The Remark 1 greedy: optimal weight within twice the volume budget;
    /// `O(n log n)`. Yields a `16R` competitive ratio (`MRIS-GREEDY`).
    Greedy,
    /// The classic capacity-respecting density greedy (better of the
    /// fitting prefix or the single overflow item). Only a weight
    /// 1/2-approximation, so **no** competitive guarantee carries through
    /// Lemma 6.5 — included for the Figure 2 comparison and ablations.
    GreedyHalf,
    /// Exact pseudo-polynomial dynamic programming
    /// ([`ExactDp`](mris_knapsack::ExactDp) at its default resolution):
    /// optimal weight *within* the volume budget (blow-up 1). Exponentially
    /// slower than CADP on adversarial sizes but exact; yields the `8R`
    /// competitive ratio and serves as the reference solver for the epoch
    /// equivalence suite (`MRIS-EXACT`).
    Exact,
}

/// Tuning knobs for [`Mris`](crate::Mris). `Default` reproduces the paper's
/// configuration: `alpha = 2`, CADP with `eps = 0.5`, WSJF placement order,
/// backfilling enabled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MrisConfig {
    /// CADP's constraint-approximation parameter, `0 < eps < 1` (ignored by
    /// the greedy knapsack).
    pub epsilon: f64,
    /// Base of the geometric interval sequence. Theorem 6.8 requires
    /// `gamma_{k+1} - gamma_k >= gamma_k`, i.e. `alpha >= 2`; the paper
    /// picks the smallest such base, `alpha = 2`.
    pub alpha: f64,
    /// Order in which each iteration's batch `B_k` is handed to the
    /// Priority-Queue makespan subroutine. The competitive ratio is
    /// independent of this choice (Section 7.3); WSJF performs best
    /// empirically (Figure 1).
    pub heuristic: SortHeuristic,
    /// The **P1** solver.
    pub knapsack: KnapsackChoice,
    /// Whether batch placement may backfill into gaps left by earlier
    /// iterations (Section 5.3). Disabling reproduces the worst case of the
    /// Theorem 6.8 analysis, where each iteration's schedule strictly
    /// follows the previous one; exposed for the ablation bench.
    pub backfill: bool,
}

impl Default for MrisConfig {
    fn default() -> Self {
        MrisConfig {
            epsilon: 0.5,
            alpha: 2.0,
            heuristic: SortHeuristic::Wsjf,
            knapsack: KnapsackChoice::Cadp,
            backfill: true,
        }
    }
}

impl MrisConfig {
    /// Panics unless the configuration satisfies the analysis' requirements
    /// (`0 < epsilon < 1`, `alpha >= 2`).
    pub fn validate(&self) {
        assert!(
            self.epsilon > 0.0 && self.epsilon < 1.0,
            "MRIS requires 0 < epsilon < 1, got {}",
            self.epsilon
        );
        assert!(
            self.alpha >= 2.0 && self.alpha.is_finite(),
            "MRIS requires alpha >= 2 (gamma_(k+1) - gamma_k >= gamma_k), got {}",
            self.alpha
        );
    }

    /// The **P1** solver this configuration names;
    /// [`MrisOnline`](crate::MrisOnline) constructs its own here.
    pub fn solver(&self) -> Box<dyn KnapsackSolver> {
        match self.knapsack {
            KnapsackChoice::Cadp => Box::new(Cadp::new(self.epsilon)),
            KnapsackChoice::Greedy => Box::new(GreedyConstraint),
            KnapsackChoice::GreedyHalf => Box::new(GreedyHalf),
            KnapsackChoice::Exact => Box::new(ExactDp::default()),
        }
    }

    /// The proven competitive ratio of this configuration for AWCT (and
    /// makespan): `2 * R * c * alpha^2 / (alpha - 1)` where `c` is the
    /// knapsack's capacity blow-up. At the paper's `alpha = 2` this is
    /// `8R(1 + eps)` for CADP and `16R` for the greedy. (Each batch spans at
    /// most `2 R c gamma_k`; summing the geometric prefix contributes the
    /// `alpha / (alpha - 1)` factor and indexing completion intervals by
    /// `gamma_{k-1}` the remaining `alpha`.)
    pub fn competitive_ratio(&self, num_resources: usize) -> f64 {
        let blowup = match self.knapsack {
            KnapsackChoice::Cadp => 1.0 + self.epsilon,
            KnapsackChoice::Greedy => 2.0,
            // No proven ratio: the weight guarantee needed by Lemma 6.5
            // fails for the half-approximation.
            KnapsackChoice::GreedyHalf => return f64::INFINITY,
            // Exact solver: blow-up 1, i.e. the eps -> 0 limit of CADP.
            KnapsackChoice::Exact => 1.0,
        };
        2.0 * num_resources as f64 * blowup * self.alpha * self.alpha / (self.alpha - 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = MrisConfig::default();
        c.validate();
        assert_eq!(c.alpha, 2.0);
        assert_eq!(c.knapsack, KnapsackChoice::Cadp);
        // 8R(1 + eps) with R = 4, eps = 0.5 -> 48.
        assert!((c.competitive_ratio(4) - 48.0).abs() < 1e-9);
    }

    #[test]
    fn greedy_ratio_is_16r() {
        let c = MrisConfig {
            knapsack: KnapsackChoice::Greedy,
            ..Default::default()
        };
        assert!((c.competitive_ratio(3) - 48.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "alpha >= 2")]
    fn rejects_small_alpha() {
        MrisConfig {
            alpha: 1.5,
            ..Default::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "0 < epsilon < 1")]
    fn rejects_bad_epsilon() {
        MrisConfig {
            epsilon: 0.0,
            ..Default::default()
        }
        .validate();
    }
}
