//! Empirical cumulative distribution functions (Figure 5) and the shared
//! p50/p95/p99 latency summary used by the service and bench reports.

/// An empirical CDF over a sample of values (e.g. per-job queuing delays).
#[derive(Debug, Clone, PartialEq)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Builds the CDF of `values` (NaNs are rejected).
    pub fn new(mut values: Vec<f64>) -> Self {
        assert!(
            values.iter().all(|v| !v.is_nan()),
            "CDF values must not be NaN"
        );
        values.sort_by(f64::total_cmp);
        Cdf { sorted: values }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the CDF has no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// `P[X <= x]`.
    pub fn fraction_at_most(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        self.sorted.partition_point(|&v| v <= x) as f64 / self.sorted.len() as f64
    }

    /// The `q`-quantile for `q` in `[0, 1]` (nearest-rank). Panics when
    /// empty or `q` outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile requires q in [0, 1]");
        assert!(!self.sorted.is_empty(), "quantile of empty CDF");
        let rank = ((q * self.sorted.len() as f64).ceil() as usize).clamp(1, self.sorted.len());
        self.sorted[rank - 1]
    }

    /// Fraction of samples equal to the minimum (used to report "share of
    /// jobs with zero queuing delay").
    pub fn fraction_zero(&self) -> f64 {
        self.fraction_at_most(0.0)
    }

    /// Largest sample.
    pub fn max(&self) -> Option<f64> {
        self.sorted.last().copied()
    }

    /// Sample mean.
    pub fn mean(&self) -> Option<f64> {
        if self.sorted.is_empty() {
            None
        } else {
            Some(self.sorted.iter().sum::<f64>() / self.sorted.len() as f64)
        }
    }

    /// The standard p50/p95/p99 summary of this CDF (nearest-rank), or
    /// `None` when the CDF has no samples. [`Percentiles::of`] is the
    /// equivalent entry point for unsorted slices; both are total.
    pub fn percentiles(&self) -> Option<Percentiles> {
        if self.sorted.is_empty() {
            return None;
        }
        Some(Percentiles {
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
        })
    }
}

/// The p50/p95/p99 summary every latency-style report in the workspace
/// shares (service decision latencies, timeline query latencies, …), so
/// quantile math lives in one place.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentiles {
    /// Median (nearest-rank 0.50-quantile).
    pub p50: f64,
    /// Nearest-rank 0.95-quantile.
    pub p95: f64,
    /// Nearest-rank 0.99-quantile.
    pub p99: f64,
}

impl Percentiles {
    /// Summarizes `values` (need not be sorted; NaNs are rejected).
    /// Returns `None` for an empty sample.
    pub fn of(values: &[f64]) -> Option<Percentiles> {
        Cdf::new(values.to_vec()).percentiles()
    }

    /// Divides all three percentiles by `scale` — e.g. nanosecond samples
    /// reported in microseconds.
    pub fn scaled(&self, scale: f64) -> Percentiles {
        Percentiles {
            p50: self.p50 / scale,
            p95: self.p95 / scale,
            p99: self.p99 / scale,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fractions_and_quantiles() {
        let cdf = Cdf::new(vec![3.0, 1.0, 2.0, 0.0]);
        assert_eq!(cdf.fraction_at_most(-1.0), 0.0);
        assert_eq!(cdf.fraction_at_most(0.0), 0.25);
        assert_eq!(cdf.fraction_at_most(1.5), 0.5);
        assert_eq!(cdf.fraction_at_most(100.0), 1.0);
        assert_eq!(cdf.quantile(0.5), 1.0);
        assert_eq!(cdf.quantile(1.0), 3.0);
        assert_eq!(cdf.quantile(0.0), 0.0);
    }

    #[test]
    fn zero_fraction() {
        let cdf = Cdf::new(vec![0.0, 0.0, 5.0, 1.0]);
        assert_eq!(cdf.fraction_zero(), 0.5);
    }

    #[test]
    fn percentiles_follow_nearest_rank() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let p = Percentiles::of(&values).unwrap();
        assert_eq!(p.p50, 50.0);
        assert_eq!(p.p95, 95.0);
        assert_eq!(p.p99, 99.0);
        assert_eq!(Some(p), Cdf::new(values).percentiles());
        assert_eq!(Percentiles::of(&[]), None);
        assert_eq!(Cdf::new(vec![]).percentiles(), None);
        let single = Percentiles::of(&[7.0]).unwrap();
        assert_eq!((single.p50, single.p95, single.p99), (7.0, 7.0, 7.0));
        let us = p.scaled(1_000.0);
        assert_eq!(us.p50, 0.05);
    }

    #[test]
    fn mean_and_max() {
        let cdf = Cdf::new(vec![1.0, 2.0, 3.0]);
        assert_eq!(cdf.mean(), Some(2.0));
        assert_eq!(cdf.max(), Some(3.0));
        assert_eq!(Cdf::new(vec![]).mean(), None);
    }
}
