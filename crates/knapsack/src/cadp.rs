//! CADP: Constraint-Approximate Dynamic Programming (Section 5.1, Lemma 6.1).
//!
//! Modifies Ibarra & Kim's FPTAS to approximate the *constraint* instead of
//! the objective: item sizes are scaled by `K = eps * capacity / n` and
//! rounded **down**, then the scaled instance is solved exactly at capacity
//! `floor(capacity / K) = floor(n / eps)`, computed from `n` and `eps`.
//! Because weights are untouched and the scaled DP is exact, the returned
//! weight is at least the optimum at the original capacity; because each
//! item's rounding error is below `K`, the total size overshoot is below
//! `n * K = eps * capacity` (Lemma 6.1).
//!
//! Note the paper's Section 5.1 text sets `K = zeta * n / eps`, which is a
//! typo: its own Lemma 6.1 proof requires `n * K = eps * zeta`, i.e.
//! `K = eps * zeta / n`, which is what we implement.

use crate::dp::solve_integer_into;
use crate::{assert_valid_items, Item, KnapsackSolver, Solution, SolveScratch};

/// The CADP solver: optimal weight at `capacity`, returned size at most
/// `(1 + epsilon) * capacity`, running time `O(n^2 / epsilon)`.
#[derive(Debug, Clone, Copy)]
pub struct Cadp {
    /// The constraint-approximation parameter `0 < eps < 1`.
    pub epsilon: f64,
}

impl Cadp {
    /// Creates a CADP solver. Panics unless `0 < epsilon < 1` (the range
    /// Lemma 6.5 requires).
    pub fn new(epsilon: f64) -> Self {
        assert!(
            epsilon > 0.0 && epsilon < 1.0,
            "CADP requires 0 < epsilon < 1, got {epsilon}"
        );
        Cadp { epsilon }
    }

    /// Lemma 6.1's scaling for `n` items at `capacity`: the size unit
    /// `K = eps * capacity / n` and the integer capacity `floor(n / eps)`.
    ///
    /// The capacity comes from `n` and `eps`, not from `capacity / K`: that
    /// quotient rounds twice and lands just below `n / eps` often enough
    /// (at `eps = 0.5`, `2n - 1` for about one `(n, capacity)` in twenty)
    /// to cost the lemma its last column.
    fn scaling(&self, n: usize, capacity: f64) -> (f64, u64) {
        let k = self.epsilon * capacity / n as f64;
        (k, (n as f64 / self.epsilon).floor() as u64)
    }
}

impl Default for Cadp {
    /// `epsilon = 0.5`, the value used in the trace-driven evaluation.
    fn default() -> Self {
        Cadp::new(0.5)
    }
}

impl KnapsackSolver for Cadp {
    fn name(&self) -> &'static str {
        "cadp"
    }

    fn solve_into(&self, scratch: &mut SolveScratch, items: &[Item], capacity: f64) -> Solution {
        assert_valid_items(items);
        crate::record_solve(self.name(), items.len());
        mris_obs::gauge_set("mris_knapsack_epsilon", self.epsilon);
        let n = items.len();
        if n == 0 {
            return Solution::empty();
        }
        if capacity <= 0.0 {
            // Only size-zero items can be in any optimal solution.
            let selected = (0..n)
                .filter(|&i| items[i].size == 0.0 && items[i].weight > 0.0)
                .collect();
            return Solution::from_selected(items, selected);
        }
        // Fast path: everything fits — the optimum takes every positive item.
        let total_size: f64 = items.iter().map(|it| it.size).sum();
        if total_size <= capacity {
            let selected = (0..n).filter(|&i| items[i].weight > 0.0).collect();
            return Solution::from_selected(items, selected);
        }
        let (k, scaled_cap) = self.scaling(n, capacity);
        scratch.sizes.clear();
        scratch
            .sizes
            .extend(items.iter().map(|it| (it.size / k).floor() as u64));
        scratch.weights.clear();
        scratch.weights.extend(items.iter().map(|it| it.weight));
        let selected = solve_integer_into(scratch, scaled_cap);
        Solution::from_selected(items, selected)
    }

    fn capacity_blowup(&self) -> f64 {
        1.0 + self.epsilon
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp::ExactDp;

    fn items_from(pairs: &[(f64, f64)]) -> Vec<Item> {
        pairs.iter().map(|&(w, s)| Item::new(w, s)).collect()
    }

    #[test]
    fn matches_optimum_weight_small() {
        let items = items_from(&[(60.0, 5.0), (50.0, 4.0), (40.0, 6.0), (10.0, 3.0)]);
        let cadp = Cadp::new(0.3);
        let sol = cadp.solve(&items, 10.0);
        let exact = ExactDp { resolution: 64.0 }.solve(&items, 10.0);
        assert!(sol.weight >= exact.weight - 1e-9);
        assert!(sol.size <= (1.0 + 0.3) * 10.0 + 1e-9);
    }

    #[test]
    fn fast_path_when_everything_fits() {
        let items = items_from(&[(1.0, 1.0), (0.0, 1.0), (2.0, 1.0)]);
        let sol = Cadp::default().solve(&items, 10.0);
        assert_eq!(sol.selected, vec![0, 2]);
    }

    #[test]
    fn zero_capacity_selects_zero_size_items() {
        let items = items_from(&[(1.0, 0.0), (5.0, 0.1), (2.0, 0.0)]);
        let sol = Cadp::default().solve(&items, 0.0);
        assert_eq!(sol.selected, vec![0, 2]);
        assert_eq!(sol.size, 0.0);
    }

    #[test]
    fn oversized_items_stay_within_blowup() {
        // One item bigger than the capacity; constraint approximation may
        // take it but must stay within (1 + eps) * capacity overall.
        let items = items_from(&[(100.0, 1.4), (1.0, 0.5)]);
        let cadp = Cadp::new(0.5);
        let sol = cadp.solve(&items, 1.0);
        assert!(sol.size <= 1.5 + 1e-9);
        // Optimum at capacity 1.0 is the small item (weight 1); CADP must
        // reach at least that.
        assert!(sol.weight >= 1.0);
    }

    /// At `eps = 0.5` the scaled capacity is exactly `2n` for every `n` and
    /// every capacity: `n / 0.5` is exact, so nothing rounds.
    #[test]
    fn scaled_capacity_is_floor_n_over_eps() {
        let cadp = Cadp::new(0.5);
        let capacities = [
            1e-3,
            0.1,
            0.7,
            1.0,
            3.0,
            7.3,
            24.0,
            1000.1,
            123_456.789,
            2f64.powi(40) / 3.0,
        ];
        for n in 1..=20_000usize {
            for capacity in capacities {
                let (_, scaled_cap) = cadp.scaling(n, capacity);
                assert_eq!(scaled_cap, 2 * n as u64, "n = {n}, capacity = {capacity}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "CADP requires")]
    fn rejects_bad_epsilon() {
        let _ = Cadp::new(1.0);
    }

    #[test]
    fn empty_input() {
        assert_eq!(Cadp::default().solve(&[], 3.0), Solution::empty());
    }
}
