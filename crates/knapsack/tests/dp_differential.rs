//! Differential test pinning the streaming DP kernel to the scalar
//! in-place DP it replaced: same `selected` vector from `solve_integer`,
//! and `to_bits`-equal value rows at every `(lo, hi, cap)` node the
//! Hirschberg recursion visits. Every schedule in the repo is downstream
//! of *which* optimal set the solver returns, so "same optimum" is not
//! enough — ties must break the same way and `f64` absorption must land
//! on the same bits.

use mris_knapsack::{
    max_weight_integer, solve_integer, value_row_integer, Cadp, ExactDp, Item, KnapsackSolver,
    SolveScratch,
};
use mris_rng::prop::{check, Config};
use mris_rng::{prop_assert, prop_assert_eq, Rng};

/// The pre-kernel solver, kept verbatim as the reference: a 0/1 downward
/// scan in place, fresh rows at every recursion node. The one addition is
/// `visit`, called with each value row the recursion computes.
mod reference {
    pub fn dp_values(
        sizes: &[u64],
        weights: &[f64],
        lo: usize,
        hi: usize,
        cap: u64,
        out: &mut [f64],
    ) {
        debug_assert_eq!(out.len(), cap as usize + 1);
        out.fill(0.0);
        for i in lo..hi {
            let s = sizes[i] as usize;
            let w = weights[i];
            if s > cap as usize || w <= 0.0 {
                continue;
            }
            // Classic 0/1 downward scan so each item is used at most once.
            for c in (s..=cap as usize).rev() {
                let candidate = out[c - s] + w;
                if candidate > out[c] {
                    out[c] = candidate;
                }
            }
        }
    }

    pub fn dp_reconstruct(
        sizes: &[u64],
        weights: &[f64],
        lo: usize,
        hi: usize,
        cap: u64,
        selected: &mut Vec<usize>,
        visit: &mut impl FnMut(usize, usize, u64, &[f64]),
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
        let mut left = vec![0.0; cap as usize + 1];
        let mut right = vec![0.0; cap as usize + 1];
        dp_values(sizes, weights, lo, mid, cap, &mut left);
        dp_values(sizes, weights, mid, hi, cap, &mut right);
        visit(lo, mid, cap, &left);
        visit(mid, hi, cap, &right);
        let mut best_c = 0usize;
        let mut best = f64::NEG_INFINITY;
        for c in 0..=cap as usize {
            let v = left[c] + right[cap as usize - c];
            if v > best {
                best = v;
                best_c = c;
            }
        }
        drop(left);
        drop(right);
        dp_reconstruct(sizes, weights, lo, mid, best_c as u64, selected, visit);
        dp_reconstruct(
            sizes,
            weights,
            mid,
            hi,
            cap - best_c as u64,
            selected,
            visit,
        );
    }

    pub fn solve_integer(
        sizes: &[u64],
        weights: &[f64],
        cap: u64,
        visit: &mut impl FnMut(usize, usize, u64, &[f64]),
    ) -> Vec<usize> {
        let total: u64 = sizes.iter().fold(0u64, |a, &b| a.saturating_add(b));
        let cap = cap.min(total);
        let mut selected = Vec::new();
        dp_reconstruct(sizes, weights, 0, sizes.len(), cap, &mut selected, visit);
        selected.sort_unstable();
        selected
    }

    pub fn max_weight_integer(sizes: &[u64], weights: &[f64], cap: u64) -> f64 {
        let total: u64 = sizes.iter().fold(0u64, |a, &b| a.saturating_add(b));
        let cap = cap.min(total);
        let mut out = vec![0.0; cap as usize + 1];
        dp_values(sizes, weights, 0, sizes.len(), cap, &mut out);
        *out.last().unwrap()
    }
}

/// `(sizes, weights, cap)`.
type Case = (Vec<u64>, Vec<f64>, u64);

/// Instances shaped to hit every branch of the kernel: zero / unit /
/// duplicate / oversized sizes, zero weights, integer weights (many exact
/// ties, so `>` versus `>=` shows), and tiny-next-to-huge weights (so
/// `f64` absorption shows); capacities 0, small, mid-range and at or above
/// the total size. Most cases are small; one in eight is up to n = 300 so
/// the reach bound, both ping-pong parities and deep recursion all run.
fn gen_case(rng: &mut Rng) -> Case {
    let n = if rng.gen_range(0..8usize) == 0 {
        rng.gen_range(49..=300usize)
    } else {
        rng.gen_range(0..=48usize)
    };
    let max_size = *rng.choose(&[1u64, 2, 5, 40, 400]);
    let size_mode = rng.gen_range(0..3usize);
    let sizes: Vec<u64> = (0..n)
        .map(|_| match size_mode {
            // CADP-like: small scaled sizes, a few zeros.
            0 => rng.gen_range(0..=max_size.min(5)),
            // Few distinct values, so duplicates dominate.
            1 => *rng.choose(&[0, 1, max_size, max_size, 2 * max_size + 1]),
            _ => rng.gen_range(0..=max_size),
        })
        .collect();
    let weight_mode = rng.gen_range(0..4usize);
    let weights: Vec<f64> = (0..n)
        .map(|_| match weight_mode {
            0 => rng.gen_range(0..6usize) as f64,
            1 => rng.gen_range(0.0..100.0),
            2 => *rng.choose(&[0.0, 1e-12, 1e-3, 1.0, 3.0, 1e12, 1e16]),
            _ => {
                if rng.gen_range(0..4usize) == 0 {
                    0.0
                } else {
                    rng.gen_range(0.0..1.0) * 10f64.powi(rng.gen_range(0..=18usize) as i32 - 9)
                }
            }
        })
        .collect();
    let total: u64 = sizes.iter().sum();
    let cap = match rng.gen_range(0..6usize) {
        0 => 0,
        1 => rng.gen_range(1..=20u64),
        2 => total,
        3 => total + rng.gen_range(1..=1000u64),
        _ => rng.gen_range(0..=total),
    };
    (sizes, weights, cap)
}

/// The shape of the solves `overload` sends to CADP: about two thirds of the
/// items have scaled size 0, every weight is 1, 2 or 3 (the trace's integer
/// priorities), and the capacity is near `2n` (`floor(n / eps)` at
/// `eps = 0.5`) or anywhere up to the total.
fn gen_cadp_case(rng: &mut Rng) -> Case {
    let n = rng.gen_range(0..=300usize);
    let sizes: Vec<u64> = (0..n)
        .map(|_| {
            if rng.gen_range(0..3usize) < 2 {
                0
            } else {
                rng.gen_range(1..=12u64)
            }
        })
        .collect();
    let weights: Vec<f64> = (0..n).map(|_| *rng.choose(&[1.0, 2.0, 3.0])).collect();
    let total: u64 = sizes.iter().sum();
    let cap = match rng.gen_range(0..3usize) {
        0 => 2 * n as u64,
        1 => (2 * n as u64).saturating_sub(1),
        _ => rng.gen_range(0..=total),
    };
    (sizes, weights, cap)
}

/// Small instances whose weight sums sit on `2^53`, the largest total at
/// which every partial sum a DP forms is exact: integer weights summing to
/// exactly `2^53`, to `2^53 + 2`, or a few weights near `1e16` beside `1.0`
/// weights. Half the sizes are 0, so zero-size items sit in both halves of
/// most splits; a zero-size weight that is absorbed into one side's partial
/// sum and not the other's moves the split scan's first maximum.
fn gen_boundary_case(rng: &mut Rng) -> Case {
    const EXACT: f64 = (1u64 << 53) as f64;
    let n = rng.gen_range(2..=16usize);
    let sizes: Vec<u64> = (0..n)
        .map(|_| {
            if rng.gen_bool() {
                0
            } else {
                rng.gen_range(1..=3u64)
            }
        })
        .collect();
    let mut weights: Vec<f64>;
    match rng.gen_range(0..3usize) {
        // Integer weights summing to exactly 2^53 or 2^53 + 2: small ones,
        // at most one 2^52, and one item that tops them up to the target.
        mode @ (0 | 1) => {
            weights = (0..n - 1)
                .map(|_| rng.gen_range(0..=3usize) as f64)
                .collect();
            if rng.gen_bool() {
                weights[rng.gen_range(0..n - 1)] = (1u64 << 52) as f64;
            }
            let target = if mode == 0 { EXACT } else { EXACT + 2.0 };
            let rest: f64 = weights.iter().sum();
            weights.push(target - rest);
            let last = rng.gen_range(0..n);
            weights.swap(last, n - 1);
        }
        _ => {
            weights = (0..n)
                .map(|_| *rng.choose(&[1.0, 1.0, 1.0, 1e16, 1e16 + 2.0, 1e16 + 4.0]))
                .collect();
        }
    }
    let total: u64 = sizes.iter().sum();
    let cap = rng.gen_range(0..=total);
    (sizes, weights, cap)
}

/// CADP-shaped solves whose positive weight total lands on 32,766, 32,767,
/// 32,768 or 32,769, the edge of what 16-bit cells hold (`i16::MAX` is
/// 32,767). Two thirds of the sizes are 0; weights are 0, −0, 1–3 or a
/// share of the total, and one item tops the total up to its target. That
/// item has a positive size three times in four, so the passes that leave
/// zero-size items out still form sums near the total.
fn gen_i16_boundary_case(rng: &mut Rng) -> Case {
    let target = *rng.choose(&[32_766u64, 32_767, 32_768, 32_769]);
    let n = rng.gen_range(2..=40usize);
    let share = target / n as u64;
    let mut sizes: Vec<u64> = (0..n)
        .map(|_| {
            if rng.gen_range(0..3usize) < 2 {
                0
            } else {
                rng.gen_range(1..=12u64)
            }
        })
        .collect();
    let mut weights: Vec<f64> = (0..n - 1)
        .map(|_| match rng.gen_range(0..4usize) {
            0 => *rng.choose(&[0.0, -0.0]),
            1 => rng.gen_range(1..=3u64) as f64,
            _ => rng.gen_range(0..=share) as f64,
        })
        .collect();
    let rest: u64 = weights.iter().map(|&w| w as u64).sum();
    weights.push((target - rest) as f64);
    if rng.gen_range(0..4usize) != 0 {
        sizes[n - 1] = rng.gen_range(1..=12u64);
    }
    let last = rng.gen_range(0..n);
    weights.swap(last, n - 1);
    sizes.swap(last, n - 1);
    let total: u64 = sizes.iter().sum();
    let cap = match rng.gen_range(0..3usize) {
        0 => 2 * n as u64,
        1 => total,
        _ => rng.gen_range(0..=total),
    };
    (sizes, weights, cap)
}

fn bits(row: &[f64]) -> Vec<u64> {
    row.iter().map(|v| v.to_bits()).collect()
}

/// `solve_integer` returns the reference's selection, and every value row
/// the reference's recursion computes is `to_bits`-equal to
/// `value_row_integer` over the same items and capacity.
fn matches_reference((sizes, weights, cap): &Case) -> Result<(), String> {
    // Shrinking halves the vectors independently.
    let n = sizes.len().min(weights.len());
    let (sizes, weights) = (&sizes[..n], &weights[..n]);
    let mut row_error = None;
    let want = reference::solve_integer(sizes, weights, *cap, &mut |lo, hi, c, row| {
        let got = value_row_integer(&sizes[lo..hi], &weights[lo..hi], c);
        if row_error.is_none() && bits(&got) != bits(row) {
            row_error = Some(format!(
                "value row of items {lo}..{hi} at capacity {c} differs:\n\
                 kernel    {got:?}\nreference {row:?}"
            ));
        }
    });
    if let Some(e) = row_error {
        return Err(e);
    }
    prop_assert_eq!(solve_integer(sizes, weights, *cap), want);
    prop_assert_eq!(
        max_weight_integer(sizes, weights, *cap).to_bits(),
        reference::max_weight_integer(sizes, weights, *cap).to_bits()
    );
    Ok(())
}

#[test]
fn kernel_matches_scalar_reference() {
    check(
        "streaming DP == scalar in-place DP",
        &Config::with_cases(2048),
        gen_case,
        matches_reference,
    );
}

#[test]
fn cadp_shaped_solves_match_scalar_reference() {
    check(
        "streaming DP == scalar in-place DP on CADP-shaped solves",
        &Config::with_cases(256),
        gen_cadp_case,
        matches_reference,
    );
}

#[test]
fn weight_sums_at_2_pow_53_match_scalar_reference() {
    check(
        "streaming DP == scalar in-place DP with weight sums at 2^53",
        &Config::with_cases(2048),
        gen_boundary_case,
        matches_reference,
    );
}

#[test]
fn weight_sums_at_i16_max_match_scalar_reference() {
    check(
        "streaming DP == scalar in-place DP with weight sums at i16::MAX",
        &Config::with_cases(1024),
        gen_i16_boundary_case,
        matches_reference,
    );
}

/// A capacity far above the total: the flat region covers almost the whole
/// row, and the unclamped row must still match column for column.
#[test]
fn unclamped_row_is_flat_past_the_total() {
    let sizes = [3, 0, 4, 9, 4];
    let weights = [1.5, 2.0, 0.0, 7.25, 1e-20];
    let cap = 64;
    let mut want = vec![0.0; cap + 1];
    reference::dp_values(&sizes, &weights, 0, sizes.len(), cap as u64, &mut want);
    let got = value_row_integer(&sizes, &weights, cap as u64);
    assert_eq!(bits(&got), bits(&want));
    assert!(got[20..].iter().all(|v| v.to_bits() == got[20].to_bits()));
}

/// `solve_integer` takes any finite weights and never selects a
/// non-positive one: a zero-size item of weight `-1`, `0` or `-0` leaves
/// every column of the row alone.
#[test]
fn zero_size_items_without_positive_weight_change_no_column() {
    let sizes = [0, 2, 0, 1, 0, 0];
    let weights = [-1.0, 3.0, 0.0, 0.5, -0.0, 2.0];
    for cap in 0..=4u64 {
        let mut want = vec![0.0; cap as usize + 1];
        reference::dp_values(&sizes, &weights, 0, sizes.len(), cap, &mut want);
        let got = value_row_integer(&sizes, &weights, cap);
        assert_eq!(bits(&got), bits(&want), "capacity {cap}");
        assert_eq!(
            solve_integer(&sizes, &weights, cap),
            reference::solve_integer(&sizes, &weights, cap, &mut |_, _, _, _| {})
        );
    }
}

/// A CADP-shaped solve whose integer weights sum past `i16::MAX` (each
/// positive weight alone is at least 40,000), or one whose weights are all
/// fractional: the two kinds of input 16-bit cells cannot hold.
fn gen_wide_case(rng: &mut Rng) -> Case {
    let (sizes, mut weights, cap) = gen_cadp_case(rng);
    let fractional = rng.gen_bool();
    for w in &mut weights {
        *w = if fractional { *w + 0.25 } else { *w * 40_000.0 };
    }
    (sizes, weights, cap)
}

/// One `SolveScratch` reused across solves of different sizes, through
/// both DP-backed solvers, and alternating between solves 16-bit cells
/// hold (weights 1–3, or anything [`gen_case`] draws) and ones they do not
/// (integer totals past `i16::MAX`, fractional weights): every result
/// equals the fresh-scratch result, so nothing a larger solve or the other
/// cell type leaves in the arena leaks into a later solve.
#[test]
fn dirty_scratch_does_not_change_results() {
    check(
        "solve_into is independent of the scratch's prior contents",
        &Config::with_cases(48),
        |rng| {
            let rounds = rng.gen_range(3..=6usize);
            (0..rounds)
                .map(|round| match round % 3 {
                    0 => gen_cadp_case(rng),
                    1 => gen_wide_case(rng),
                    _ => gen_case(rng),
                })
                .collect::<Vec<Case>>()
        },
        |rounds| {
            let mut scratch = SolveScratch::default();
            let exact = ExactDp { resolution: 1.0 };
            let cadp = Cadp::new(0.5);
            for (sizes, weights, cap) in rounds {
                let items: Vec<Item> = sizes
                    .iter()
                    .zip(weights)
                    .map(|(&s, &w)| Item::new(w, s as f64))
                    .collect();
                let cap_f = *cap as f64;
                // At resolution 1 the integer instance passes through
                // `ExactDp` unchanged, so the reference applies directly.
                let got = exact.solve_into(&mut scratch, &items, cap_f);
                let n = items.len();
                let want = reference::solve_integer(
                    &sizes[..n],
                    &weights[..n],
                    *cap,
                    &mut |_, _, _, _| {},
                );
                prop_assert_eq!(&got.selected, &want);
                let got = cadp.solve_into(&mut scratch, &items, cap_f);
                let fresh = cadp.solve(&items, cap_f);
                prop_assert!(got == fresh, "CADP: dirty {got:?} vs fresh {fresh:?}");
            }
            Ok(())
        },
    );
}
