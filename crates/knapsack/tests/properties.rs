//! Property-based tests pinning the paper's knapsack guarantees
//! (Lemma 6.1 and Remark 1) against a brute-force oracle.

use mris_knapsack::{Cadp, GreedyConstraint, GreedyHalf, Item, KnapsackSolver, Solution};
use mris_rng::prop::{check, Config};
use mris_rng::{prop_assert, Rng};

/// Exhaustively finds an optimal selection at `capacity`. Ties are broken
/// toward smaller total size, then lexicographically smaller index sets.
/// Panics if `items.len() > 25`.
fn brute_force(items: &[Item], capacity: f64) -> Solution {
    assert!(items.len() <= 25, "brute force limited to 25 items");
    let n = items.len();
    let mut best_mask = 0usize;
    let mut best_weight = 0.0;
    let mut best_size = 0.0;
    for mask in 0..(1usize << n) {
        let mut weight = 0.0;
        let mut size = 0.0;
        for (i, item) in items.iter().enumerate() {
            if mask & (1 << i) != 0 {
                weight += item.weight;
                size += item.size;
            }
        }
        if size <= capacity + 1e-12
            && (weight > best_weight + 1e-12
                || ((weight - best_weight).abs() <= 1e-12 && size < best_size - 1e-12))
        {
            best_mask = mask;
            best_weight = weight;
            best_size = size;
        }
    }
    let selected = (0..n).filter(|i| best_mask & (1 << i) != 0).collect();
    Solution {
        selected,
        weight: best_weight,
        size: best_size,
    }
}

#[test]
fn brute_force_finds_optimum() {
    let items = vec![
        Item::new(60.0, 5.0),
        Item::new(50.0, 4.0),
        Item::new(40.0, 6.0),
        Item::new(10.0, 3.0),
    ];
    let sol = brute_force(&items, 10.0);
    assert_eq!(sol.selected, vec![0, 1]);
    assert_eq!(sol.weight, 110.0);
}

#[test]
fn brute_force_on_empty_input_gives_empty_solution() {
    let sol = brute_force(&[], 10.0);
    assert!(sol.selected.is_empty());
    assert_eq!(sol.weight, 0.0);
}

fn gen_items(rng: &mut Rng) -> Vec<Item> {
    let n = rng.gen_range(0..12usize);
    (0..n)
        .map(|_| Item::new(rng.gen_range(0.0..100.0), rng.gen_range(0.0..10.0)))
        .collect()
}

fn gen_capacity(rng: &mut Rng) -> f64 {
    rng.gen_range(0.0..30.0)
}

/// Lemma 6.1: CADP reaches at least the optimal weight at the original
/// capacity and uses at most (1 + eps) times the capacity.
#[test]
fn cadp_constraint_approximation() {
    check(
        "cadp constraint approximation",
        &Config::with_cases(256),
        |rng| (gen_items(rng), gen_capacity(rng), rng.gen_range(0.05..0.95)),
        |(items, cap, eps)| {
            let opt = brute_force(items, *cap);
            let sol = Cadp::new(*eps).solve(items, *cap);
            prop_assert!(
                sol.weight >= opt.weight - 1e-6,
                "CADP weight {} below optimum {}",
                sol.weight,
                opt.weight
            );
            prop_assert!(
                sol.size <= (1.0 + eps) * cap + 1e-6,
                "CADP size {} exceeds (1+{eps}) * {cap}",
                sol.size
            );
            Ok(())
        },
    );
}

/// Remark 1: the constraint greedy reaches the optimal weight within
/// twice the capacity.
#[test]
fn greedy_constraint_approximation() {
    check(
        "greedy constraint approximation",
        &Config::with_cases(256),
        |rng| (gen_items(rng), gen_capacity(rng)),
        |(items, cap)| {
            let opt = brute_force(items, *cap);
            let sol = GreedyConstraint.solve(items, *cap);
            prop_assert!(sol.weight >= opt.weight - 1e-6);
            prop_assert!(sol.size <= 2.0 * cap + 1e-6);
            Ok(())
        },
    );
}

/// The classic greedy is a capacity-respecting 1/2-approximation.
#[test]
fn greedy_half_approximation() {
    check(
        "greedy half approximation",
        &Config::with_cases(256),
        |rng| (gen_items(rng), gen_capacity(rng)),
        |(items, cap)| {
            let opt = brute_force(items, *cap);
            let sol = GreedyHalf.solve(items, *cap);
            prop_assert!(sol.size <= cap + 1e-6);
            prop_assert!(sol.weight >= opt.weight / 2.0 - 1e-6);
            Ok(())
        },
    );
}

/// The integer DP with divide-and-conquer reconstruction is exact.
#[test]
fn integer_dp_matches_brute_force() {
    check(
        "integer dp matches brute force",
        &Config::with_cases(256),
        |rng| {
            let n = rng.gen_range(0..12usize);
            let pairs: Vec<(u64, f64)> = (0..n)
                .map(|_| (rng.gen_range(0..20u64), rng.gen_range(0.0..50.0)))
                .collect();
            (pairs, rng.gen_range(0..60u64))
        },
        |(pairs, cap)| {
            let sizes: Vec<u64> = pairs.iter().map(|p| p.0).collect();
            let items: Vec<Item> = pairs.iter().map(|&(s, w)| Item::new(w, s as f64)).collect();
            let sel = mris_knapsack::ExactDp { resolution: 1.0 }.solve(&items, *cap as f64);
            let opt = brute_force(&items, *cap as f64);
            prop_assert!(
                (sel.weight - opt.weight).abs() < 1e-6,
                "dp weight {} vs brute {}",
                sel.weight,
                opt.weight
            );
            let total: u64 = sel.selected.iter().map(|&i| sizes[i]).sum();
            prop_assert!(total <= *cap);
            Ok(())
        },
    );
}

/// CADP's solution weight is monotone in epsilon at fixed capacity:
/// more slack can never produce a worse weight than the exact optimum
/// (they all dominate it), and every epsilon respects its own blow-up.
#[test]
fn cadp_epsilon_spectrum() {
    check(
        "cadp epsilon spectrum",
        &Config::with_cases(256),
        |rng| (gen_items(rng), gen_capacity(rng)),
        |(items, cap)| {
            let opt = brute_force(items, *cap);
            for eps in [0.1, 0.3, 0.6, 0.9] {
                let sol = Cadp::new(eps).solve(items, *cap);
                prop_assert!(sol.weight >= opt.weight - 1e-6, "eps {eps}");
                prop_assert!(sol.size <= (1.0 + eps) * cap + 1e-6, "eps {eps}");
            }
            Ok(())
        },
    );
}

/// All solvers return strictly increasing, in-range index sets and
/// consistent weight/size sums.
#[test]
fn solutions_are_well_formed() {
    check(
        "solutions are well formed",
        &Config::with_cases(256),
        |rng| (gen_items(rng), gen_capacity(rng)),
        |(items, cap)| {
            for solver in [
                &Cadp::default() as &dyn KnapsackSolver,
                &GreedyConstraint,
                &GreedyHalf,
            ] {
                let sol = solver.solve(items, *cap);
                prop_assert!(sol.selected.windows(2).all(|w| w[0] < w[1]));
                prop_assert!(sol.selected.iter().all(|&i| i < items.len()));
                let w: f64 = sol.selected.iter().map(|&i| items[i].weight).sum();
                let s: f64 = sol.selected.iter().map(|&i| items[i].size).sum();
                prop_assert!((w - sol.weight).abs() < 1e-9);
                prop_assert!((s - sol.size).abs() < 1e-9);
            }
            Ok(())
        },
    );
}

/// Hirschberg reconstruction stress: a large instance where the value-only
/// DP optimum must be met exactly by the reconstructed selection.
#[test]
fn divide_and_conquer_reconstruction_at_scale() {
    let mut state = 0xDEADBEEFu64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    let n = 3000;
    let sizes: Vec<u64> = (0..n).map(|_| next() % 40 + 1).collect();
    let weights: Vec<f64> = (0..n).map(|_| (next() % 1000) as f64).collect();
    let cap = sizes.iter().sum::<u64>() / 3;
    let selection = mris_knapsack::solve_integer(&sizes, &weights, cap);
    let total_size: u64 = selection.iter().map(|&i| sizes[i]).sum();
    assert!(total_size <= cap);
    let got: f64 = selection.iter().map(|&i| weights[i]).sum();
    let want = mris_knapsack::max_weight_integer(&sizes, &weights, cap);
    assert!((got - want).abs() < 1e-6, "{got} vs {want}");
}
