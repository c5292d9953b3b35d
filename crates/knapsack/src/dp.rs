//! Exact integer-size knapsack dynamic programming.
//!
//! The value recurrence is a streaming kernel over two `O(capacity)` rows:
//! each item relaxes the current row **out of place** into the other one
//! ([`relax`]), the rows swap, and only the columns an item can still
//! change are touched (the *reach* bound in [`dp_values`]). Solution
//! reconstruction uses Hirschberg-style divide and conquer: split the items
//! in half, run the value DP over each half, find the capacity split that
//! maximizes the combined value, and recurse, never materializing the `n x capacity` choice matrix. Every
//! pass over a half also keeps its row after half of its items: that is
//! the child's left row, so a child that inherits one runs only its right
//! pass, and a solve costs about `1.6 * n * capacity` cell updates where
//! recomputing every row would cost `2 * n * capacity`. When every sum the
//! DP forms is exact ([`exact_total`]), the reconstruction also leaves
//! zero-size items out of the passes, and when those sums also fit 16 bits
//! the kernel runs on `i16` cells instead of `f64` ([`Lane`]). Every node
//! works in prefixes of one set of rows held by [`SolveScratch`], so a
//! solve allocates nothing but its result.

use std::ops::Add;

use crate::{assert_valid_items, Item, KnapsackSolver, Solution, SolveScratch};

/// The type of a DP cell: `f64` for any input, or `i16` when every weight
/// the DP relaxes is an integer and they sum to at most `i16::MAX`
/// ([`exact_total`]). Then every cell, and every `left + right` of the
/// split scan, is an integer no larger than that total, which both types
/// hold exactly: the `i16` kernel forms the same values and makes the same
/// strict `>` comparisons as the `f64` one, eight cells to a 128-bit
/// register instead of two. Debug builds check the bound on every `+`.
pub(crate) trait Lane: Copy + PartialOrd + Add<Output = Self> {
    /// The empty knapsack's value.
    const ZERO: Self;
    /// Below every value a cell or a split sum can hold.
    const LOWEST: Self;
    /// A positive weight, which the caller has checked this type holds.
    fn from_weight(w: f64) -> Self;
}

impl Lane for f64 {
    const ZERO: f64 = 0.0;
    const LOWEST: f64 = f64::NEG_INFINITY;
    fn from_weight(w: f64) -> f64 {
        w
    }
}

impl Lane for i16 {
    const ZERO: i16 = 0;
    const LOWEST: i16 = i16::MIN;
    fn from_weight(w: f64) -> i16 {
        debug_assert!(w.fract() == 0.0 && w <= i16::MAX as f64, "weight {w}");
        w as i16
    }
}

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
fn relax<L: Lane>(cur: &[L], next: &mut [L], s: usize, w: L) {
    debug_assert_eq!(cur.len(), next.len());
    let shifted = cur.len() - s;
    next[..s].copy_from_slice(&cur[..s]);
    for ((out, &below), &same) in next[s..].iter_mut().zip(&cur[..shifted]).zip(&cur[s..]) {
        let candidate = below + w;
        *out = if candidate > same { candidate } else { same };
    }
}

/// The total of the weights the DP relaxes (every one not `<= 0`), if they
/// are all integers summing to at most `2^53`; `None` otherwise. Then every
/// partial sum, and every `left + right` of the split scan, is an integer
/// no larger than the total and so a float, and an `i16` when the total is
/// at most `i16::MAX`. The sum is kept in a `u64`, so it cannot round down
/// to the limit along the way.
fn exact_total(weights: &[f64]) -> Option<u64> {
    const LIMIT: u64 = 1 << 53;
    let mut total = 0u64;
    for &w in weights {
        if w <= 0.0 {
            continue;
        }
        // Also `None` for NaN and infinity.
        if !(w <= LIMIT as f64 && w.fract() == 0.0) {
            return None;
        }
        total += w as u64;
        if total > LIMIT {
            return None;
        }
    }
    Some(total)
}

/// Whether 16-bit cells hold every sum a DP over weights of this
/// [`exact_total`] forms.
fn fits_i16(total: Option<u64>) -> bool {
    total.is_some_and(|t| t <= i16::MAX as u64)
}

/// The DP rows of one cell type: two value rows and the out-of-place
/// relaxation spare, sized for the top-level capacity (every Hirschberg
/// node works in prefixes of them), and the stack of rows a node keeps for
/// its children: each half's row after half its items, which is that
/// child's left row.
#[derive(Debug, Default)]
pub(crate) struct Arena<L> {
    rows: [Vec<L>; 3],
    kept: Vec<L>,
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
///
/// **Zero-size items.** For `s = 0` and `w > 0`, [`relax`] writes
/// `row[c] + w` in every column. With `fold_zero` the item is skipped
/// instead; the caller has checked [`exact_total`], so the row comes out
/// lower by the exact total of the skipped weights in every column.
///
/// **The kept row.** With `keep = Some((k, kept))`, the row after the
/// first `k` items is pushed onto `kept`, widened to `cap + 1` columns by
/// the flat-region fill.
fn dp_values<L: Lane>(
    sizes: &[u64],
    weights: &[f64],
    cap: u64,
    fold_zero: bool,
    out: &mut [L],
    spare: &mut [L],
    mut keep: Option<(usize, &mut Vec<L>)>,
) {
    let cap = cap as usize;
    debug_assert_eq!(out.len(), cap + 1);
    debug_assert_eq!(spare.len(), cap + 1);
    let (mut cur, mut next) = (out, spare);
    let mut result_in_out = true;
    cur[0] = L::ZERO;
    let mut reach = 0usize;
    for (i, (&s, &w)) in sizes.iter().zip(weights).enumerate() {
        if let Some((_, kept)) = keep.as_mut().filter(|(k, _)| *k == i) {
            kept.extend_from_slice(&cur[..=reach]);
            kept.resize(kept.len() + cap - reach, cur[reach]);
        }
        if s > cap as u64 || w <= 0.0 || (s == 0 && fold_zero) {
            continue;
        }
        let s = s as usize;
        let grown = cap.min(reach + s);
        let flat = cur[reach];
        cur[reach + 1..=grown].fill(flat);
        reach = grown;
        relax(&cur[..=reach], &mut next[..=reach], s, L::from_weight(w));
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

/// One solve's divide and conquer: the staged instance, the arena, and the
/// selection being built.
struct Reconstruction<'a, L> {
    sizes: &'a [u64],
    weights: &'a [f64],
    /// Zero-size items are left out of every pass ([`exact_total`] is
    /// `Some`); the leaf rules still select them.
    fold_zero: bool,
    /// Each row at least the root's `cap + 1` long. A node is done with its
    /// rows once it has chosen the split, so its children reuse them as
    /// shorter prefixes; kept rows are `cap + 1` wide at the node that kept
    /// them.
    arena: &'a mut Arena<L>,
    /// Selected indices, pushed in increasing order.
    selected: &'a mut Vec<usize>,
}

impl<L: Lane> Reconstruction<'_, L> {
    /// Selects one optimal subset of items `lo..hi` at capacity `cap`.
    /// `inherited` is the offset in `kept` of this node's left row (items
    /// `lo..mid` at capacity `cap`), if its parent's pass kept one.
    ///
    /// **Why an inherited row is this node's left row, bit for bit.** The
    /// parent ran items `lo..mid` at its own capacity `cap' >= cap` and kept
    /// the row widened to `cap' + 1`. Column `c` of a pass reads only
    /// columns `<= c`, and an item with `s > c` leaves column `c` alone, so
    /// the `s > cap` skip changes no column `<= cap`. Columns past the reach
    /// are the flat region at both capacities.
    ///
    /// **Why a folded pass chooses the same split.** Under
    /// [`exact_total`], a zero-size item of weight `z` raises every
    /// column of a row by exactly `z` and changes no comparison after it,
    /// so a row without the node's zero-size items is the full row minus
    /// one exact constant. Every `left[c] + right[cap - c]` of the split
    /// scan moves by the same exact amount, and the first maximum stays
    /// at the same `c`. The tree keeps the original indices, so every
    /// `mid`, and with it every tie-break, is unchanged.
    fn node(&mut self, lo: usize, hi: usize, cap: u64, inherited: Option<usize>) {
        let (sizes, weights) = (self.sizes, self.weights);
        if lo >= hi || cap == 0 {
            // Zero-capacity subproblems can still take zero-size items.
            for i in lo..hi {
                if sizes[i] == 0 && weights[i] > 0.0 {
                    self.selected.push(i);
                }
            }
            return;
        }
        if hi - lo == 1 {
            if sizes[lo] <= cap && weights[lo] > 0.0 {
                self.selected.push(lo);
            }
            return;
        }
        let mid = lo + (hi - lo) / 2;
        let width = cap as usize + 1;
        let Arena { rows, kept } = &mut *self.arena;
        let base = kept.len();
        let [left, right, spare] = rows;
        let (left, right, spare) = (&mut left[..width], &mut right[..width], &mut spare[..width]);
        // A half of two or more items is a child with passes of its own:
        // keep its left row, at the stack's current top.
        let right_kept = (hi - mid >= 2).then_some(kept.len());
        dp_values(
            &sizes[mid..hi],
            &weights[mid..hi],
            cap,
            self.fold_zero,
            right,
            spare,
            right_kept.map(|_| ((hi - mid) / 2, &mut *kept)),
        );
        let (left, left_kept): (&[L], _) = match inherited {
            Some(at) => (&kept[at..at + width], None),
            None => {
                let left_kept = (mid - lo >= 2).then_some(kept.len());
                dp_values(
                    &sizes[lo..mid],
                    &weights[lo..mid],
                    cap,
                    self.fold_zero,
                    left,
                    spare,
                    left_kept.map(|_| ((mid - lo) / 2, &mut *kept)),
                );
                (left, left_kept)
            }
        };
        let mut best_c = 0usize;
        let mut best = L::LOWEST;
        for c in 0..width {
            let v = left[c] + right[cap as usize - c];
            if v > best {
                best = v;
                best_c = c;
            }
        }
        self.node(lo, mid, best_c as u64, left_kept);
        self.node(mid, hi, cap - best_c as u64, right_kept);
        self.arena.kept.truncate(base);
    }
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
///
/// The cell type is chosen once per solve: `i16` when [`fits_i16`] holds,
/// `f64` otherwise, each in its own arena.
pub(crate) fn solve_integer_into(scratch: &mut SolveScratch, cap: u64) -> Vec<usize> {
    let SolveScratch {
        sizes,
        weights,
        indices,
        narrow,
        wide,
    } = scratch;
    assert_eq!(sizes.len(), weights.len());
    let cap = clamp_to_total(sizes, cap);
    let total = exact_total(weights);
    indices.clear();
    if fits_i16(total) {
        reconstruct(sizes, weights, cap, true, narrow, indices);
    } else {
        reconstruct(sizes, weights, cap, total.is_some(), wide, indices);
    }
    debug_assert!(indices.windows(2).all(|w| w[0] < w[1]));
    indices.clone()
}

/// Runs the divide and conquer over all items at `cap` in `arena`'s cell
/// type, pushing the selection onto the empty `selected`.
fn reconstruct<L: Lane>(
    sizes: &[u64],
    weights: &[f64],
    cap: u64,
    fold_zero: bool,
    arena: &mut Arena<L>,
    selected: &mut Vec<usize>,
) {
    for row in arena.rows.iter_mut() {
        // Contents are overwritten by every `dp_values`; only length matters.
        if row.len() <= cap as usize {
            row.resize(cap as usize + 1, L::ZERO);
        }
    }
    arena.kept.clear();
    Reconstruction {
        sizes,
        weights,
        fold_zero,
        arena,
        selected,
    }
    .node(0, sizes.len(), cap, None);
}

/// Solves the 0/1 knapsack with integer sizes exactly.
///
/// Returns the selected indices (strictly increasing) achieving the maximum
/// total weight subject to `sum(sizes[selected]) <= cap`. Runs in
/// `O(n * cap)` time (about 1.6 times the value-only DP, for the
/// reconstruction) and `O(cap)` memory.
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
///
/// Runs on the cell type [`solve_integer`] would choose for these weights,
/// and never leaves zero-size items out; `i16` cells widen to `f64`
/// exactly.
pub fn value_row_integer(sizes: &[u64], weights: &[f64], cap: u64) -> Vec<f64> {
    assert_eq!(sizes.len(), weights.len());
    if fits_i16(exact_total(weights)) {
        let row: Vec<i16> = value_row(sizes, weights, cap);
        row.into_iter().map(f64::from).collect()
    } else {
        value_row(sizes, weights, cap)
    }
}

/// [`value_row_integer`] in one cell type.
fn value_row<L: Lane>(sizes: &[u64], weights: &[f64], cap: u64) -> Vec<L> {
    let width = cap as usize + 1;
    let (mut out, mut spare) = (vec![L::ZERO; width], vec![L::ZERO; width]);
    dp_values(sizes, weights, cap, false, &mut out, &mut spare, None);
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
