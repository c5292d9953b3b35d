//! Jobs: the unit of work being scheduled.

use crate::resource::{fraction, Amount, DemandVec};
use crate::Time;

/// Identifies a job within its [`Instance`](crate::Instance): the index of
/// the job in the instance's job list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u32);

impl JobId {
    /// The job's index into [`Instance::jobs`](crate::Instance::jobs).
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "j{}", self.0)
    }
}

/// A non-preemptible job, following Section 3 of the paper.
///
/// After [`Instance::normalize`](crate::Instance::normalize), `proc_time >= 1`
/// and every demand is at most [`CAPACITY`](crate::CAPACITY) (i.e. `<= 1.0` as
/// a fraction of a machine's per-resource capacity).
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// The job's identifier (its index within the owning instance).
    pub id: JobId,
    /// Release time `r_j`: the job is unknown to the scheduler before this
    /// instant, and `S_j >= r_j` must hold.
    pub release: Time,
    /// Processing time `p_j > 0`. Completion is `C_j = S_j + p_j`.
    pub proc_time: Time,
    /// Weight `w_j >= 0` in the average weighted completion time objective.
    pub weight: f64,
    /// Fixed-point demand `d_{jl}` for each resource `l`, each `<= CAPACITY`.
    pub demands: DemandVec,
}

impl Job {
    /// Builds a job from fractional demands in `[0, 1]`.
    ///
    /// ```
    /// use mris_types::{Job, JobId};
    /// let j = Job::from_fractions(JobId(0), 0.0, 2.0, 1.0, &[0.5, 0.25]);
    /// assert_eq!(j.proc_time, 2.0);
    /// assert!((j.total_demand_frac() - 0.75).abs() < 1e-9);
    /// ```
    pub fn from_fractions(
        id: JobId,
        release: Time,
        proc_time: Time,
        weight: f64,
        demand_fractions: &[f64],
    ) -> Self {
        Job {
            id,
            release,
            proc_time,
            weight,
            demands: demand_fractions
                .iter()
                .map(|&f| crate::resource::amount_from_fraction(f))
                .collect(),
        }
    }

    /// Total demand `u_j = sum_l d_{jl}` in fixed-point ticks.
    #[inline]
    pub fn total_demand(&self) -> Amount {
        self.demands.iter().sum()
    }

    /// Total demand `u_j` as a fraction (so `u_j <= R`).
    #[inline]
    pub fn total_demand_frac(&self) -> f64 {
        fraction(self.total_demand())
    }

    /// The job's volume `v_j = p_j * u_j` (Section 5.1), the quantity MRIS
    /// uses as the knapsack item size.
    #[inline]
    pub fn volume(&self) -> f64 {
        self.proc_time * self.total_demand_frac()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CAPACITY;

    fn job(demands: &[f64], p: f64) -> Job {
        Job::from_fractions(JobId(7), 1.0, p, 2.0, demands)
    }

    #[test]
    fn volume_is_proc_times_total_demand() {
        let j = job(&[0.5, 0.5, 1.0], 3.0);
        assert!((j.volume() - 6.0).abs() < 1e-9);
        assert!((j.total_demand_frac() - 2.0).abs() < 1e-9);
        assert_eq!(j.total_demand(), 2 * CAPACITY);
    }

    #[test]
    fn zero_demand_job_has_zero_volume() {
        let j = job(&[0.0, 0.0], 5.0);
        assert_eq!(j.volume(), 0.0);
    }

    #[test]
    fn job_id_display_and_index() {
        assert_eq!(JobId(42).to_string(), "j42");
        assert_eq!(JobId(42).index(), 42);
    }
}
