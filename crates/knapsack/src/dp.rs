//! Exact integer-size knapsack dynamic programming.
//!
//! The value recurrence is a streaming kernel over two `O(capacity)` rows:
//! each item relaxes the current row **out of place** into the other one
//! ([`relax`]), the rows swap, and only the columns an item can still
//! change are touched (the *reach* bound in [`dp_values`]). Solution
//! reconstruction uses Hirschberg-style divide and conquer: split the items
//! in half, run the value DP over each half, find the capacity split that
//! maximizes the combined value, and recurse. Each recursion level does at
//! most `n * capacity` cell updates in total, so the whole reconstruction
//! costs at most twice the value-only DP while never materializing the
//! `n x capacity` choice matrix. Every node works in prefixes of one set of
//! rows held by [`SolveScratch`], so a solve allocates nothing but its
//! result.

use crate::{assert_valid_items, Item, KnapsackSolver, Solution, SolveScratch};

/// One item of size `s` and weight `w`: `next[c] = max(cur[c], cur[c-s] + w)`
/// for `c >= s`, `next[c] = cur[c]` below.
///
/// `cur` and `next` never alias, so the loop is a zip over three disjoint
/// slices — a packed add, compare and select with no branch and no bounds
/// check. An in-place downward scan computes the same cells but reads and
/// writes one slice at an offset the compiler cannot see through, which
/// keeps it scalar with a data-dependent branch (DESIGN.md §18 has the
/// measurements). The comparison is the strict `>` on `cur[c-s] + w`, not
/// `f64::max`.
fn relax(cur: &[f64], next: &mut [f64], s: usize, w: f64) {
    debug_assert_eq!(cur.len(), next.len());
    let shifted = cur.len() - s;
    next[..s].copy_from_slice(&cur[..s]);
    for ((out, &below), &same) in next[s..].iter_mut().zip(&cur[..shifted]).zip(&cur[s..]) {
        let candidate = below + w;
        *out = if candidate > same { candidate } else { same };
    }
}

/// Best achievable weight for each capacity `0..=cap` over the given items,
/// written to `out`. `out` and `spare` must both have length `cap + 1`;
/// their prior contents are irrelevant.
///
/// **Flat-region invariant.** Let `P` be the summed size of the items
/// relaxed so far. Every column `c >= P` holds the same bits as column
/// `min(P, cap)`: before any item the row is all zeros, and if the claim
/// holds at `P` then relaxing an item of size `s` reads, for every
/// `c >= P + s`, the candidate `row[c-s] + w` with `c - s >= P` and the
/// incumbent `row[c]` with `c >= P` — the same two floats in each such
/// column, hence the same result. So only `[..=reach]`, `reach = min(cap,
/// P)`, is kept live: it is extended by a fill before each item and the
/// tail is filled once at the end.
fn dp_values(sizes: &[u64], weights: &[f64], cap: u64, out: &mut [f64], spare: &mut [f64]) {
    let cap = cap as usize;
    debug_assert_eq!(out.len(), cap + 1);
    debug_assert_eq!(spare.len(), cap + 1);
    let (mut cur, mut next) = (out, spare);
    let mut result_in_out = true;
    cur[0] = 0.0;
    let mut reach = 0usize;
    for (&s, &w) in sizes.iter().zip(weights) {
        if s > cap as u64 || w <= 0.0 {
            continue;
        }
        let s = s as usize;
        let grown = cap.min(reach + s);
        let flat = cur[reach];
        cur[reach + 1..=grown].fill(flat);
        reach = grown;
        relax(&cur[..=reach], &mut next[..=reach], s, w);
        std::mem::swap(&mut cur, &mut next);
        result_in_out = !result_in_out;
    }
    if !result_in_out {
        // An odd number of relaxations left the row in `spare`.
        next[..=reach].copy_from_slice(&cur[..=reach]);
        cur = next;
    }
    let flat = cur[reach];
    cur[reach + 1..].fill(flat);
}

/// Reconstructs one optimal selection of `items[lo..hi]` at capacity `cap`
/// into `selected` (in increasing index order), using divide and conquer.
///
/// `rows` is the arena: two value rows and the relaxation spare, each at
/// least `cap + 1` long. A node is done with its rows once it has chosen
/// the split, so its children reuse them as shorter prefixes.
fn dp_reconstruct(
    sizes: &[u64],
    weights: &[f64],
    lo: usize,
    hi: usize,
    cap: u64,
    rows: &mut [Vec<f64>; 3],
    selected: &mut Vec<usize>,
) {
    if lo >= hi || cap == 0 {
        // Zero-capacity subproblems can still take zero-size items.
        for i in lo..hi {
            if sizes[i] == 0 && weights[i] > 0.0 {
                selected.push(i);
            }
        }
        return;
    }
    if hi - lo == 1 {
        if sizes[lo] <= cap && weights[lo] > 0.0 {
            selected.push(lo);
        }
        return;
    }
    let mid = lo + (hi - lo) / 2;
    let width = cap as usize + 1;
    let [left, right, spare] = rows;
    let (left, right, spare) = (&mut left[..width], &mut right[..width], &mut spare[..width]);
    dp_values(&sizes[lo..mid], &weights[lo..mid], cap, left, spare);
    dp_values(&sizes[mid..hi], &weights[mid..hi], cap, right, spare);
    let mut best_c = 0usize;
    let mut best = f64::NEG_INFINITY;
    for c in 0..=cap as usize {
        let v = left[c] + right[cap as usize - c];
        if v > best {
            best = v;
            best_c = c;
        }
    }
    dp_reconstruct(sizes, weights, lo, mid, best_c as u64, rows, selected);
    dp_reconstruct(sizes, weights, mid, hi, cap - best_c as u64, rows, selected);
}

/// `cap` clamped to the total size: larger capacities are equivalent and
/// only waste DP columns.
fn clamp_to_total(sizes: &[u64], cap: u64) -> u64 {
    cap.min(sizes.iter().fold(0u64, |a, &b| a.saturating_add(b)))
}

/// [`solve_integer`] over the instance staged in `scratch.sizes` and
/// `scratch.weights`, drawing the DP rows and the index staging from
/// `scratch`; the returned vector is the only allocation once the scratch
/// has grown to the instance.
pub(crate) fn solve_integer_into(scratch: &mut SolveScratch, cap: u64) -> Vec<usize> {
    let SolveScratch {
        sizes,
        weights,
        indices,
        rows,
    } = scratch;
    assert_eq!(sizes.len(), weights.len());
    let cap = clamp_to_total(sizes, cap);
    for row in rows.iter_mut() {
        // Contents are overwritten by every `dp_values`; only length matters.
        if row.len() <= cap as usize {
            row.resize(cap as usize + 1, 0.0);
        }
    }
    indices.clear();
    dp_reconstruct(sizes, weights, 0, sizes.len(), cap, rows, indices);
    debug_assert!(indices.windows(2).all(|w| w[0] < w[1]));
    indices.clone()
}

/// Solves the 0/1 knapsack with integer sizes exactly.
///
/// Returns the selected indices (strictly increasing) achieving the maximum
/// total weight subject to `sum(sizes[selected]) <= cap`. Runs in
/// `O(n * cap)` time (times two for reconstruction) and `O(cap)` memory.
///
/// Items with non-positive weight are never selected (selecting them cannot
/// increase the objective and only consumes capacity).
pub fn solve_integer(sizes: &[u64], weights: &[f64], cap: u64) -> Vec<usize> {
    let mut scratch = SolveScratch {
        sizes: sizes.to_vec(),
        weights: weights.to_vec(),
        ..SolveScratch::default()
    };
    solve_integer_into(&mut scratch, cap)
}

/// Best achievable total weight at every integer capacity `0..=cap` (value
/// only): entry `c` is the optimum of the knapsack with capacity `c`.
pub fn value_row_integer(sizes: &[u64], weights: &[f64], cap: u64) -> Vec<f64> {
    assert_eq!(sizes.len(), weights.len());
    let width = cap as usize + 1;
    let (mut out, mut spare) = (vec![0.0; width], vec![0.0; width]);
    dp_values(sizes, weights, cap, &mut out, &mut spare);
    out
}

/// Best achievable total weight at integer capacity `cap` (value only).
pub fn max_weight_integer(sizes: &[u64], weights: &[f64], cap: u64) -> f64 {
    let row = value_row_integer(sizes, weights, clamp_to_total(sizes, cap));
    row[row.len() - 1]
}

/// Exact pseudo-polynomial knapsack over real sizes, via fixed-point scaling.
///
/// Real sizes are multiplied by `resolution` and rounded **up**; the capacity
/// is rounded **down**. Rounding in opposite directions keeps every returned
/// selection feasible at the true capacity, at the cost of possibly missing
/// solutions that only fit by less than one tick. With `resolution` large
/// relative to `1/min_gap` this is exact; it exists mainly as the test oracle
/// and for small instances — MRIS itself uses [`Cadp`](crate::Cadp).
#[derive(Debug, Clone, Copy)]
pub struct ExactDp {
    /// Ticks per unit of size. Default `1024.0`.
    pub resolution: f64,
}

impl Default for ExactDp {
    fn default() -> Self {
        ExactDp { resolution: 1024.0 }
    }
}

impl KnapsackSolver for ExactDp {
    fn name(&self) -> &'static str {
        "exact-dp"
    }

    fn solve_into(&self, scratch: &mut SolveScratch, items: &[Item], capacity: f64) -> Solution {
        assert_valid_items(items);
        crate::record_solve(self.name(), items.len());
        if items.is_empty() || capacity < 0.0 {
            return Solution::empty();
        }
        scratch.sizes.clear();
        scratch.sizes.extend(
            items
                .iter()
                .map(|it| (it.size * self.resolution).ceil() as u64),
        );
        scratch.weights.clear();
        scratch.weights.extend(items.iter().map(|it| it.weight));
        let cap = (capacity * self.resolution).floor().max(0.0) as u64;
        let selected = solve_integer_into(scratch, cap);
        Solution::from_selected(items, selected)
    }

    fn capacity_blowup(&self) -> f64 {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn weight_of(selected: &[usize], weights: &[f64]) -> f64 {
        selected.iter().map(|&i| weights[i]).sum()
    }

    #[test]
    fn tiny_exact() {
        // Classic: capacity 10, items (w, s): (60,5) (50,4) (40,6) (10,3).
        let sizes = [5, 4, 6, 3];
        let weights = [60.0, 50.0, 40.0, 10.0];
        let sel = solve_integer(&sizes, &weights, 10);
        assert_eq!(sel, vec![0, 1]);
        assert_eq!(max_weight_integer(&sizes, &weights, 10), 110.0);
    }

    #[test]
    fn zero_capacity_takes_only_zero_size() {
        let sizes = [0, 1, 0];
        let weights = [5.0, 9.0, 0.0];
        let sel = solve_integer(&sizes, &weights, 0);
        // Item 2 has zero weight: not selected.
        assert_eq!(sel, vec![0]);
    }

    #[test]
    fn capacity_above_total_takes_all_positive() {
        let sizes = [3, 4, 5];
        let weights = [1.0, 0.0, 2.0];
        let sel = solve_integer(&sizes, &weights, 1_000_000);
        assert_eq!(sel, vec![0, 2]);
    }

    #[test]
    fn reconstruction_matches_value_dp() {
        // Deterministic pseudo-random instance; checks the Hirschberg
        // reconstruction returns a selection achieving the value-DP optimum
        // and respecting the capacity.
        let mut state = 0x243F6A88u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for trial in 0..30 {
            let n = 1 + (next() % 40) as usize;
            let sizes: Vec<u64> = (0..n).map(|_| next() % 50).collect();
            let weights: Vec<f64> = (0..n).map(|_| (next() % 100) as f64).collect();
            let cap = next() % 300;
            let sel = solve_integer(&sizes, &weights, cap);
            let total_size: u64 = sel.iter().map(|&i| sizes[i]).sum();
            assert!(total_size <= cap.min(sizes.iter().sum()), "trial {trial}");
            let got = weight_of(&sel, &weights);
            let want = max_weight_integer(&sizes, &weights, cap);
            assert!((got - want).abs() < 1e-9, "trial {trial}: {got} vs {want}");
        }
    }

    #[test]
    fn exact_dp_trait_respects_capacity() {
        let items = vec![
            Item::new(60.0, 0.5),
            Item::new(50.0, 0.4),
            Item::new(40.0, 0.6),
        ];
        let sol = ExactDp::default().solve(&items, 1.0);
        assert!(sol.size <= 1.0 + 1e-9);
        assert_eq!(sol.selected, vec![0, 1]);
    }

    #[test]
    fn empty_items() {
        assert_eq!(ExactDp::default().solve(&[], 5.0), Solution::empty());
        assert!(solve_integer(&[], &[], 5).is_empty());
    }
}
