//! Machine specifications for heterogeneous clusters.
//!
//! The paper's model (and the original API surface of this workspace)
//! assumes `M` *identical* machines: unit speed, [`CAPACITY`] per resource.
//! [`MachineSpec`] and [`ClusterSpec`] generalize that to the related /
//! restricted-capacity machine models of Gupta–Kumar–Singla (bag-of-tasks
//! on related machines): machine `m` runs every job at `speed_m`, so a job
//! with nominal processing time `p_j` occupies `p_j / speed_m` wall time,
//! and fit checks compare demands against `m`'s own per-resource capacity
//! instead of the global [`CAPACITY`].
//!
//! `ClusterSpec::uniform(n)` is the drop-in replacement for a bare
//! `num_machines: usize` (there is a `From<usize>` impl, so call sites that
//! pass an integer keep compiling) and is **bit-identical** to the
//! pre-heterogeneity behavior: unit speed divides every duration exactly
//! (`p / 1.0 == p` in IEEE-754), and the capacity comparisons are the same
//! integer comparisons as before.

use crate::resource::{amount_from_fraction, Amount, DemandVec, CAPACITY};
use crate::Time;

/// One machine's speed and per-resource capacity.
///
/// An **empty** `capacities` vector means "full [`CAPACITY`] in every
/// resource" — the uniform default — so a spec does not need to know the
/// instance's resource dimension up front.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineSpec {
    /// Relative speed `s_m > 0`. A job with nominal processing time `p_j`
    /// runs for `p_j / s_m` wall time on this machine. The reference
    /// (uniform) machine has speed `1.0`.
    pub speed: f64,
    /// Per-resource capacity in fixed-point ticks, each in `(0, CAPACITY]`.
    /// Empty means full capacity for every resource.
    pub capacities: DemandVec,
}

impl MachineSpec {
    /// The reference machine: unit speed, full capacity everywhere.
    pub fn unit() -> Self {
        MachineSpec {
            speed: 1.0,
            capacities: Box::new([]),
        }
    }

    /// A machine with relative speed `speed` and full capacities.
    ///
    /// # Panics
    ///
    /// If `speed` is not finite and positive.
    pub fn with_speed(speed: f64) -> Self {
        assert!(
            speed.is_finite() && speed > 0.0,
            "machine speed must be finite and positive, got {speed}"
        );
        MachineSpec {
            speed,
            capacities: Box::new([]),
        }
    }

    /// A machine with `speed` and per-resource capacities given as
    /// fractions of the reference capacity (each in `(0, 1]`).
    ///
    /// # Panics
    ///
    /// If `speed` is invalid or any fraction is outside `(0, 1]`.
    pub fn from_fractions(speed: f64, capacity_fractions: &[f64]) -> Self {
        assert!(
            speed.is_finite() && speed > 0.0,
            "machine speed must be finite and positive, got {speed}"
        );
        let capacities: DemandVec = capacity_fractions
            .iter()
            .map(|&f| {
                assert!(
                    f.is_finite() && f > 0.0 && f <= 1.0,
                    "machine capacity fraction must be in (0, 1], got {f}"
                );
                amount_from_fraction(f)
            })
            .collect();
        assert!(
            capacities.iter().all(|&c| c > 0 && c <= CAPACITY),
            "machine capacity must round into (0, CAPACITY]"
        );
        MachineSpec { speed, capacities }
    }

    /// This machine's capacity for resource `r` in fixed-point ticks.
    #[inline]
    pub fn capacity(&self, r: usize) -> Amount {
        if self.capacities.is_empty() {
            CAPACITY
        } else {
            self.capacities[r]
        }
    }

    /// Whether this is the reference machine: unit speed, full capacity.
    #[inline]
    pub fn is_unit(&self) -> bool {
        self.speed.to_bits() == 1.0_f64.to_bits() && self.capacities.iter().all(|&c| c == CAPACITY)
    }

    /// Wall time this machine needs for nominal processing time `p`.
    /// Exact (`p / 1.0 == p`) for the reference machine.
    #[inline]
    pub fn effective_time(&self, p: Time) -> Time {
        p / self.speed
    }
}

impl Default for MachineSpec {
    fn default() -> Self {
        MachineSpec::unit()
    }
}

/// A validated machine table: the cluster the schedulers run against.
///
/// Replaces the bare `num_machines: usize` parameter across the simulation
/// and scheduler APIs. `From<usize>` builds the uniform cluster, so
/// functions taking `impl Into<ClusterSpec>` accept plain machine counts
/// unchanged.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    machines: Vec<MachineSpec>,
    /// Cached: every machine is the reference machine. Lets hot paths skip
    /// per-machine scaling and preserves bit-identity with the
    /// pre-heterogeneity code by construction.
    uniform: bool,
}

impl ClusterSpec {
    /// `n` identical reference machines — bit-identical to the historical
    /// `num_machines: usize` behavior.
    ///
    /// # Panics
    ///
    /// If `n == 0`.
    pub fn uniform(n: usize) -> Self {
        assert!(n > 0, "a cluster needs at least one machine");
        ClusterSpec {
            machines: vec![MachineSpec::unit(); n],
            uniform: true,
        }
    }

    /// Wraps an explicit machine table.
    ///
    /// # Panics
    ///
    /// If `machines` is empty, any speed is invalid, or any capacity is
    /// outside `(0, CAPACITY]`.
    pub fn new(machines: Vec<MachineSpec>) -> Self {
        assert!(!machines.is_empty(), "a cluster needs at least one machine");
        for (m, spec) in machines.iter().enumerate() {
            assert!(
                spec.speed.is_finite() && spec.speed > 0.0,
                "machine {m}: speed must be finite and positive, got {}",
                spec.speed
            );
            assert!(
                spec.capacities.iter().all(|&c| c > 0 && c <= CAPACITY),
                "machine {m}: capacities must lie in (0, CAPACITY]"
            );
        }
        let uniform = machines.iter().all(MachineSpec::is_unit);
        ClusterSpec { machines, uniform }
    }

    /// `n` machines with the given relative speeds cycling over `speeds`
    /// (the related-machines model; capacities stay full).
    pub fn related(n: usize, speeds: &[f64]) -> Self {
        assert!(!speeds.is_empty(), "need at least one speed");
        ClusterSpec::new(
            (0..n)
                .map(|m| MachineSpec::with_speed(speeds[m % speeds.len()]))
                .collect(),
        )
    }

    /// Number of machines `M`.
    #[inline]
    pub fn len(&self) -> usize {
        self.machines.len()
    }

    /// Whether the cluster has no machines (never true for a validated spec).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.machines.is_empty()
    }

    /// The machine table.
    #[inline]
    pub fn machines(&self) -> &[MachineSpec] {
        &self.machines
    }

    /// Machine `m`'s spec.
    #[inline]
    pub fn machine(&self, m: usize) -> &MachineSpec {
        &self.machines[m]
    }

    /// Machine `m`'s relative speed.
    #[inline]
    pub fn speed(&self, m: usize) -> f64 {
        self.machines[m].speed
    }

    /// Machine `m`'s capacity for resource `r` in fixed-point ticks.
    #[inline]
    pub fn capacity(&self, m: usize, r: usize) -> Amount {
        self.machines[m].capacity(r)
    }

    /// Machine `m`'s capacity vector, materialized to `num_resources`.
    pub fn capacity_vec(&self, m: usize, num_resources: usize) -> DemandVec {
        (0..num_resources).map(|r| self.capacity(m, r)).collect()
    }

    /// Whether every machine is the reference machine. Uniform clusters are
    /// guaranteed bit-identical to the pre-heterogeneity code paths.
    #[inline]
    pub fn is_uniform(&self) -> bool {
        self.uniform
    }

    /// Wall time machine `m` needs for nominal processing time `p`.
    #[inline]
    pub fn effective_time(&self, m: usize, p: Time) -> Time {
        p / self.machines[m].speed
    }
}

impl From<usize> for ClusterSpec {
    fn from(n: usize) -> Self {
        ClusterSpec::uniform(n)
    }
}

impl From<&ClusterSpec> for ClusterSpec {
    fn from(spec: &ClusterSpec) -> Self {
        spec.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_is_unit_machines() {
        let spec = ClusterSpec::uniform(3);
        assert_eq!(spec.len(), 3);
        assert!(spec.is_uniform());
        assert_eq!(spec.capacity(1, 7), CAPACITY);
        assert_eq!(spec.speed(2), 1.0);
        // Unit speed divides exactly: bit-identity with the uniform path.
        let p = 3.7612;
        assert_eq!(spec.effective_time(0, p).to_bits(), p.to_bits());
    }

    #[test]
    fn from_usize_is_uniform() {
        let spec: ClusterSpec = 4.into();
        assert!(spec.is_uniform());
        assert_eq!(spec.len(), 4);
    }

    #[test]
    fn related_cycles_speeds() {
        let spec = ClusterSpec::related(4, &[1.0, 2.0]);
        assert!(!spec.is_uniform());
        assert_eq!(spec.speed(0), 1.0);
        assert_eq!(spec.speed(1), 2.0);
        assert_eq!(spec.speed(3), 2.0);
        assert_eq!(spec.effective_time(1, 3.0), 1.5);
    }

    #[test]
    fn capacity_fractions_convert() {
        let m = MachineSpec::from_fractions(1.5, &[0.5, 1.0]);
        assert_eq!(m.capacity(0), CAPACITY / 2);
        assert_eq!(m.capacity(1), CAPACITY);
        assert!(!m.is_unit());
        let spec = ClusterSpec::new(vec![MachineSpec::unit(), m]);
        assert!(!spec.is_uniform());
        assert_eq!(spec.capacity(0, 0), CAPACITY);
        assert_eq!(spec.capacity(1, 0), CAPACITY / 2);
        assert_eq!(*spec.capacity_vec(1, 2), [CAPACITY / 2, CAPACITY]);
    }

    #[test]
    #[should_panic(expected = "at least one machine")]
    fn empty_cluster_rejected() {
        ClusterSpec::uniform(0);
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn bad_speed_rejected() {
        MachineSpec::with_speed(0.0);
    }
}
