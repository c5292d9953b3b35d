//! Knapsack subroutines for MRIS (Sections 5.1 and 6.1 of the paper).
//!
//! MRIS selects, in every iteration `k`, a maximum-weight subset of pending
//! jobs whose total *volume* fits a knapsack capacity `zeta_k = R*M*gamma_k`
//! (problem **P1**). Because MRIS must match the optimal scheduler's weight
//! exactly (not a fraction of it), it uses **constraint approximation**: the
//! solver may exceed the capacity by a bounded factor but must reach at least
//! the optimal weight at the *original* capacity.
//!
//! Three solvers are provided:
//!
//! * [`Cadp`] — Constraint-Approximate Dynamic Programming (Lemma 6.1):
//!   optimal weight, size at most `(1 + eps) * capacity`, fully polynomial
//!   `O(n^2 / eps)` time.
//! * [`GreedyConstraint`] — the Remark 1 greedy: optimal weight, size at most
//!   `2 * capacity`, `O(n log n)` time. Used by `MRIS-GREEDY` in Figure 2.
//! * [`GreedyHalf`] — the classic capacity-respecting greedy, a
//!   1/2-approximation to the weight. Not usable inside MRIS's analysis (it
//!   can fall short of the optimal weight) but included as a baseline.
//!
//! [`ExactDp`] solves the integer-size knapsack exactly (pseudo-polynomial)
//! and backs [`Cadp`]. Solution reconstruction uses
//! a Hirschberg-style divide-and-conquer, so memory stays `O(capacity)` while
//! time is about 1.6 times the value-only recurrence (children reuse a row
//! their parent's pass kept), and less when zero-size items can leave the
//! passes. Integer weights summing to at most 32,767 run on 16-bit cells,
//! with the same selection.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cadp;
mod dp;
mod greedy;

pub use cadp::Cadp;
pub use dp::{max_weight_integer, solve_integer, value_row_integer, ExactDp};
pub use greedy::{GreedyConstraint, GreedyHalf};

/// A knapsack item: MRIS maps job `j` to `weight = w_j`, `size = v_j`
/// (volume). Weights and sizes must be finite and non-negative.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Item {
    /// The profit of selecting this item.
    pub weight: f64,
    /// The capacity the item consumes.
    pub size: f64,
}

impl Item {
    /// Convenience constructor.
    pub fn new(weight: f64, size: f64) -> Self {
        Item { weight, size }
    }
}

/// The outcome of a knapsack solve: which items were picked and their totals.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// Indices into the input item slice, strictly increasing.
    pub selected: Vec<usize>,
    /// Sum of selected weights.
    pub weight: f64,
    /// Sum of selected sizes.
    pub size: f64,
}

impl Solution {
    /// Builds a solution from item indices, enforcing the sorted invariant
    /// of `selected` (sorts, dedups, and sums weight/size).
    pub fn from_selected(items: &[Item], mut selected: Vec<usize>) -> Self {
        selected.sort_unstable();
        selected.dedup();
        let weight = selected.iter().map(|&i| items[i].weight).sum();
        let size = selected.iter().map(|&i| items[i].size).sum();
        Solution {
            selected,
            weight,
            size,
        }
    }

    /// An empty selection.
    pub fn empty() -> Self {
        Solution {
            selected: Vec::new(),
            weight: 0.0,
            size: 0.0,
        }
    }
}

/// Reusable scratch buffers for [`KnapsackSolver::solve_into`].
///
/// Every solver needs a handful of temporaries per solve — scaled integer
/// sizes, extracted weights, a density-sorted index order, and for the
/// DP-based solvers three `O(capacity)` value rows and a stack of rows kept
/// for the reconstruction's children, in one arena per DP cell type. A
/// caller that solves once per scheduling epoch can hold one `SolveScratch`
/// for the lifetime of the run and amortize those allocations away: once
/// the buffers have grown to the largest instance seen, the only per-solve
/// allocation left is the (batch-sized) `selected` vector inside the
/// returned [`Solution`].
///
/// The buffers carry **no state between solves**: every `solve_into`
/// implementation fully re-initializes whatever it uses, so a scratch can be
/// shared freely across solvers and capacities.
#[derive(Debug, Default)]
pub struct SolveScratch {
    /// Integer-scaled item sizes (DP-based solvers).
    pub(crate) sizes: Vec<u64>,
    /// Extracted item weights (DP-based solvers).
    pub(crate) weights: Vec<f64>,
    /// Index staging: density order for the greedies, raw DP selection for
    /// the exact solvers.
    pub(crate) indices: Vec<usize>,
    /// The DP rows of the solves whose sums fit 16-bit cells.
    pub(crate) narrow: dp::Arena<i16>,
    /// The DP rows of every other solve.
    pub(crate) wide: dp::Arena<f64>,
}

/// A 0/1-knapsack solver over real-valued sizes.
///
/// Implementations document their guarantee as a relation between the
/// returned solution and the optimum at `capacity`: exact solvers respect the
/// capacity; *constraint-approximate* solvers ([`Cadp`], [`GreedyConstraint`])
/// guarantee `solution.weight >= OPT(capacity)` while allowing
/// `solution.size` up to their documented blow-up factor times `capacity`.
///
/// **Contract:** `Solution::selected` must be **strictly increasing** (and
/// therefore duplicate-free). Callers rely on this — MRIS's zero-weight
/// folding binary-searches the selection — so custom implementations should
/// construct results via [`Solution::from_selected`], which sorts and
/// dedups. The MRIS call site re-checks the invariant in debug builds.
pub trait KnapsackSolver: Send {
    /// A short human-readable solver name for reports.
    fn name(&self) -> &'static str;

    /// Selects a subset of `items` for the given `capacity`, drawing all
    /// per-solve temporaries from `scratch`. Results are independent of the
    /// scratch's prior contents.
    fn solve_into(&self, scratch: &mut SolveScratch, items: &[Item], capacity: f64) -> Solution;

    /// Convenience wrapper over [`KnapsackSolver::solve_into`] that allocates
    /// a fresh [`SolveScratch`] per call. Hot paths (one solve per epoch)
    /// should hold a scratch and call `solve_into` directly.
    fn solve(&self, items: &[Item], capacity: f64) -> Solution {
        self.solve_into(&mut SolveScratch::default(), items, capacity)
    }

    /// The factor `c` such that the returned size is guaranteed at most
    /// `c * capacity` (1.0 for exact solvers, `1 + eps` for CADP, 2.0 for the
    /// constraint greedy).
    fn capacity_blowup(&self) -> f64;
}

/// Records one solver invocation in the observability registry: a per-solver
/// solve count and item count under the `mris_knapsack_*` families. One
/// relaxed atomic load each when no subscriber is installed.
pub(crate) fn record_solve(solver: &'static str, num_items: usize) {
    mris_obs::counter_add_labeled("mris_knapsack_solves_total", ("solver", solver), 1);
    mris_obs::counter_add_labeled(
        "mris_knapsack_items_total",
        ("solver", solver),
        num_items as u64,
    );
}

pub(crate) fn assert_valid_items(items: &[Item]) {
    for (i, item) in items.iter().enumerate() {
        assert!(
            item.weight.is_finite() && item.weight >= 0.0,
            "item {i} has invalid weight {}",
            item.weight
        );
        assert!(
            item.size.is_finite() && item.size >= 0.0,
            "item {i} has invalid size {}",
            item.size
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solution_from_selected_sorts_and_sums() {
        let items = [
            Item::new(1.0, 2.0),
            Item::new(3.0, 4.0),
            Item::new(5.0, 6.0),
        ];
        let s = Solution::from_selected(&items, vec![2, 0, 2]);
        assert_eq!(s.selected, vec![0, 2]);
        assert!((s.weight - 6.0).abs() < 1e-12);
        assert!((s.size - 8.0).abs() < 1e-12);
    }
}
