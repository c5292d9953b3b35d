//! The service event loop's time source.
//!
//! The loop is written against the [`Clock`] trait; its one implementation
//! is [`SimClock`], deterministic virtual time that jumps instantly, so a
//! run is a pure function of its inputs.

use mris_types::Time;

/// A monotonic time source the service advances between events.
pub trait Clock {
    /// The current service time (normalized instance time units).
    fn now(&self) -> Time;

    /// Advances to at least `t` and returns the new now, which is never
    /// less than `max(t, now)`.
    fn advance_to(&mut self, t: Time) -> Time;
}

/// Deterministic virtual time starting at 0: `advance_to` jumps instantly
/// and clamps backward targets to the current now.
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    now: Time,
}

impl SimClock {
    /// A virtual clock starting at time 0.
    pub fn new() -> Self {
        SimClock::default()
    }
}

impl Clock for SimClock {
    fn now(&self) -> Time {
        self.now
    }

    fn advance_to(&mut self, t: Time) -> Time {
        self.now = t.max(self.now);
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_clock_jumps_and_is_monotone() {
        let mut c = SimClock::new();
        assert_eq!(c.now(), 0.0);
        assert_eq!(c.advance_to(5.0), 5.0);
        // Backwards targets clamp to the current now.
        assert_eq!(c.advance_to(1.0), 5.0);
        assert_eq!(c.now(), 5.0);
    }
}
