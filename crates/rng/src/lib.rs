//! Deterministic, dependency-free random numbers for the whole workspace.
//!
//! Two layers live here:
//!
//! 1. [`Rng`] — a xoshiro256++ generator seeded through SplitMix64, with the
//!    handful of draw primitives the trace generators and tests need
//!    ([`Rng::gen_f64`], [`Rng::gen_range`], [`Rng::normal`],
//!    [`Rng::lognormal`], [`Rng::weighted_choice`]) plus cheap sub-stream
//!    forking ([`Rng::substream`]) so each generator section gets an
//!    independent stream that does not shift when an unrelated section
//!    changes how many values it draws.
//! 2. [`prop`] — a small property-testing harness (seeded case generation,
//!    failing-seed reporting, halving shrink for `Vec` inputs) that replaces
//!    the external `proptest` dependency.
//!
//! Everything is bit-reproducible per seed across platforms: the only
//! floating-point operations involved in generation are exact power-of-two
//! scalings, and the distributions use plain `f64` arithmetic.

#![forbid(unsafe_code)]

pub mod prop;

/// SplitMix64 step: the standard seed-expansion generator.
///
/// Used to initialise xoshiro state from a single `u64` seed and to mix
/// seeds with labels/indices when forking sub-streams.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Mixes two 64-bit values into one through a SplitMix64 round; used to
/// derive sub-stream and per-case seeds deterministically.
#[inline]
pub fn mix(a: u64, b: u64) -> u64 {
    let mut s = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    splitmix64(&mut s)
}

/// FNV-1a hash of a byte string; used to turn sub-stream labels into seeds.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A xoshiro256++ pseudo-random generator seeded via SplitMix64.
///
/// The generator remembers the seed it was constructed from so that
/// [`Rng::substream`] can derive independent streams from the *seed*, not
/// from the current position — a sub-stream is therefore stable no matter
/// how many values were already drawn from the parent.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
    base_seed: u64,
}

impl Rng {
    /// Creates a generator from a 64-bit seed (SplitMix64 state expansion).
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng { s, base_seed: seed }
    }

    /// The seed this generator (or sub-stream) was constructed from.
    pub fn seed(&self) -> u64 {
        self.base_seed
    }

    /// Derives an independent, reproducible stream for a named section.
    ///
    /// The derived seed depends only on this generator's seed and the label,
    /// never on how many values have been drawn — so adding draws to one
    /// section of a trace generator cannot perturb any other section.
    pub fn substream(&self, label: &str) -> Rng {
        Rng::new(mix(self.base_seed, fnv1a(label.as_bytes())))
    }

    /// Derives an independent stream from a numeric index (e.g. per job).
    pub fn substream_indexed(&self, label: &str, index: u64) -> Rng {
        Rng::new(mix(mix(self.base_seed, fnv1a(label.as_bytes())), index))
    }

    /// Forks a child generator from the *current position* of this one.
    ///
    /// Unlike [`Rng::substream`] this advances the parent; use it when you
    /// need many anonymous children rather than stable named sections.
    pub fn fork(&mut self) -> Rng {
        let seed = self.next_u64();
        Rng::new(seed)
    }

    /// Core xoshiro256++ step.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `bool`.
    #[inline]
    pub fn gen_bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// Uniform `u64` in `[0, bound)` via multiply-shift with rejection
    /// (Lemire's method); `bound` must be non-zero.
    #[inline]
    pub fn next_u64_below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0, "next_u64_below: bound must be positive");
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            let lo = m as u64;
            if lo >= bound || lo >= bound.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform draw from a range; see [`SampleRange`] for supported types.
    #[inline]
    pub fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Output {
        range.sample(self)
    }

    /// Standard normal draw via Box–Muller.
    ///
    /// The uniform for the log term is drawn from
    /// `[f64::MIN_POSITIVE, 1.0)` so `ln` never sees zero.
    pub fn normal(&mut self) -> f64 {
        let u1 = self.gen_range(f64::MIN_POSITIVE..1.0);
        let u2 = self.gen_f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Log-normal draw: `exp(N(mu, sigma))`.
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        (mu + sigma * self.normal()).exp()
    }

    /// Samples an index proportionally to `weights` (need not be
    /// normalised). Returns the last index as a numeric-fallout fallback,
    /// matching the previous `rng_ext::weighted_choice` behaviour.
    pub fn weighted_choice(&mut self, weights: &[f64]) -> usize {
        debug_assert!(!weights.is_empty(), "weighted_choice: empty weights");
        let total: f64 = weights.iter().sum();
        let mut x = self.gen_f64() * total;
        for (i, &w) in weights.iter().enumerate() {
            x -= w;
            if x < 0.0 {
                return i;
            }
        }
        weights.len() - 1
    }

    /// Uniformly picks a reference out of a non-empty slice.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        debug_assert!(!items.is_empty(), "choose: empty slice");
        &items[self.gen_range(0..items.len())]
    }
}

/// Ranges accepted by [`Rng::gen_range`].
///
/// Implemented for half-open and inclusive `f64` ranges and half-open /
/// inclusive integer ranges over `usize` and `u64` — exactly the surface
/// the workspace uses.
pub trait SampleRange {
    type Output;
    fn sample(self, rng: &mut Rng) -> Self::Output;
}

impl SampleRange for std::ops::Range<f64> {
    type Output = f64;
    #[inline]
    fn sample(self, rng: &mut Rng) -> f64 {
        debug_assert!(self.start < self.end, "gen_range: empty f64 range");
        let v = self.start + (self.end - self.start) * rng.gen_f64();
        // Guard against rounding up to `end` when the span is tiny.
        if v < self.end {
            v
        } else {
            self.start
        }
    }
}

impl SampleRange for std::ops::RangeInclusive<f64> {
    type Output = f64;
    #[inline]
    fn sample(self, rng: &mut Rng) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        debug_assert!(lo <= hi, "gen_range: empty inclusive f64 range");
        lo + (hi - lo) * rng.gen_f64()
    }
}

impl SampleRange for std::ops::Range<usize> {
    type Output = usize;
    #[inline]
    fn sample(self, rng: &mut Rng) -> usize {
        debug_assert!(self.start < self.end, "gen_range: empty usize range");
        let span = (self.end - self.start) as u64;
        self.start + rng.next_u64_below(span) as usize
    }
}

impl SampleRange for std::ops::RangeInclusive<usize> {
    type Output = usize;
    #[inline]
    fn sample(self, rng: &mut Rng) -> usize {
        let (lo, hi) = (*self.start(), *self.end());
        debug_assert!(lo <= hi, "gen_range: empty inclusive usize range");
        let span = (hi - lo) as u64;
        if span == u64::MAX {
            return rng.next_u64() as usize;
        }
        lo + rng.next_u64_below(span + 1) as usize
    }
}

impl SampleRange for std::ops::Range<u64> {
    type Output = u64;
    #[inline]
    fn sample(self, rng: &mut Rng) -> u64 {
        debug_assert!(self.start < self.end, "gen_range: empty u64 range");
        self.start + rng.next_u64_below(self.end - self.start)
    }
}

impl SampleRange for std::ops::RangeInclusive<u64> {
    type Output = u64;
    #[inline]
    fn sample(self, rng: &mut Rng) -> u64 {
        let (lo, hi) = (*self.start(), *self.end());
        debug_assert!(lo <= hi, "gen_range: empty inclusive u64 range");
        let span = hi - lo;
        if span == u64::MAX {
            return rng.next_u64();
        }
        lo + rng.next_u64_below(span + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let va: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn substream_is_position_independent() {
        let mut a = Rng::new(7);
        let b = Rng::new(7);
        // Drawing from `a` must not change what its sub-streams produce.
        for _ in 0..100 {
            a.next_u64();
        }
        let mut sa = a.substream("jobs");
        let mut sb = b.substream("jobs");
        for _ in 0..32 {
            assert_eq!(sa.next_u64(), sb.next_u64());
        }
    }

    #[test]
    fn substreams_with_different_labels_differ() {
        let r = Rng::new(7);
        let va: Vec<u64> = {
            let mut s = r.substream("alpha");
            (0..8).map(|_| s.next_u64()).collect()
        };
        let vb: Vec<u64> = {
            let mut s = r.substream("beta");
            (0..8).map(|_| s.next_u64()).collect()
        };
        assert_ne!(va, vb);
    }

    #[test]
    fn gen_f64_in_unit_interval_with_plausible_mean() {
        let mut r = Rng::new(3);
        let n = 10_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let v = r.gen_f64();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} far from 0.5");
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut r = Rng::new(9);
        for _ in 0..5_000 {
            let f = r.gen_range(2.5..7.5);
            assert!((2.5..7.5).contains(&f));
            let fi = r.gen_range(-1.0..=1.0);
            assert!((-1.0..=1.0).contains(&fi));
            let u = r.gen_range(3..17usize);
            assert!((3..17).contains(&u));
            let ui = r.gen_range(5..=5usize);
            assert_eq!(ui, 5);
            let w = r.gen_range(10..1000u64);
            assert!((10..1000).contains(&w));
        }
    }

    #[test]
    fn integer_ranges_hit_all_values() {
        let mut r = Rng::new(11);
        let mut seen = [false; 8];
        for _ in 0..1_000 {
            seen[r.gen_range(0..8usize)] = true;
        }
        assert!(seen.iter().all(|&s| s), "uniform draw missed a bucket");
    }

    #[test]
    fn normal_moments_are_plausible() {
        let mut r = Rng::new(21);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| r.normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "normal mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "normal variance {var}");
    }

    #[test]
    fn lognormal_is_positive_with_plausible_median() {
        let mut r = Rng::new(23);
        let n = 20_000;
        let mut samples: Vec<f64> = (0..n).map(|_| r.lognormal(2.0, 0.5)).collect();
        assert!(samples.iter().all(|&x| x > 0.0));
        samples.sort_by(f64::total_cmp);
        let median = samples[n / 2];
        // Median of lognormal(mu, sigma) is exp(mu).
        assert!(
            (median - 2.0_f64.exp()).abs() / 2.0_f64.exp() < 0.1,
            "lognormal median {median}"
        );
    }

    #[test]
    fn weighted_choice_tracks_weights() {
        let mut r = Rng::new(31);
        let weights = [1.0, 3.0, 6.0];
        let mut counts = [0usize; 3];
        let n = 30_000;
        for _ in 0..n {
            counts[r.weighted_choice(&weights)] += 1;
        }
        let total: f64 = weights.iter().sum();
        for (i, &w) in weights.iter().enumerate() {
            let expected = w / total;
            let observed = counts[i] as f64 / n as f64;
            assert!(
                (observed - expected).abs() < 0.02,
                "weight {i}: observed {observed}, expected {expected}"
            );
        }
    }

    #[test]
    fn fork_children_are_independent() {
        let mut parent = Rng::new(99);
        let mut c1 = parent.fork();
        let mut c2 = parent.fork();
        let v1: Vec<u64> = (0..8).map(|_| c1.next_u64()).collect();
        let v2: Vec<u64> = (0..8).map(|_| c2.next_u64()).collect();
        assert_ne!(v1, v2);
    }

    #[test]
    fn choose_returns_member() {
        let mut r = Rng::new(5);
        let items = ["a", "b", "c"];
        for _ in 0..100 {
            assert!(items.contains(r.choose(&items)));
        }
    }
}
