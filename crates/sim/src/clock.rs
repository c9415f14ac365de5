//! Discrete simulation clock.
//!
//! RAPS advances time one second at a time (Algorithm 1 of the paper); the
//! cooling model is evaluated every 15 s ("trace quanta", §III-B). The clock
//! keeps integral seconds to avoid floating-point drift over multi-day
//! replays and offers helpers for the multi-rate pattern
//! (`timestep mod 15 == 0`).

use serde::{Deserialize, Serialize};

/// Seconds in one simulated day.
pub const SECONDS_PER_DAY: u64 = 86_400;

/// Seconds in one simulated hour.
pub const SECONDS_PER_HOUR: u64 = 3_600;

/// A discrete clock counting whole simulated seconds from an epoch offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimClock {
    /// Seconds elapsed since simulation start.
    elapsed: u64,
    /// Epoch offset in seconds (e.g. seconds-of-day the replay starts at).
    epoch: u64,
}

impl SimClock {
    /// New clock starting at `epoch` seconds (absolute), zero elapsed.
    pub fn new(epoch: u64) -> Self {
        SimClock { elapsed: 0, epoch }
    }

    /// Clock starting at midnight.
    pub fn midnight() -> Self {
        SimClock::new(0)
    }

    /// Advance the clock by one second, returning the new elapsed count.
    #[inline]
    pub fn tick(&mut self) -> u64 {
        self.elapsed += 1;
        self.elapsed
    }

    /// Advance by `n` seconds.
    #[inline]
    pub fn advance(&mut self, n: u64) {
        self.elapsed += n;
    }

    /// Seconds elapsed since simulation start.
    #[inline]
    pub fn elapsed(&self) -> u64 {
        self.elapsed
    }

    /// Absolute simulated time (epoch + elapsed) in seconds.
    #[inline]
    pub fn now(&self) -> u64 {
        self.epoch + self.elapsed
    }

    /// Absolute simulated time as `f64` seconds — the unit used across the
    /// FMI boundary.
    #[inline]
    pub fn now_f64(&self) -> f64 {
        self.now() as f64
    }

    /// True every `period` seconds (and at t=0), mirroring the paper's
    /// `timestep mod 15 == 0` cooling-model cadence.
    #[inline]
    pub fn every(&self, period: u64) -> bool {
        debug_assert!(period > 0);
        self.elapsed.is_multiple_of(period)
    }

    /// Second-of-day in `[0, 86400)` for diurnal forcing (wet-bulb cycles).
    #[inline]
    pub fn second_of_day(&self) -> u64 {
        self.now() % SECONDS_PER_DAY
    }

    /// Fraction of the day in `[0, 1)`.
    #[inline]
    pub fn day_fraction(&self) -> f64 {
        self.second_of_day() as f64 / SECONDS_PER_DAY as f64
    }
}

impl Default for SimClock {
    fn default() -> Self {
        SimClock::midnight()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticks_accumulate() {
        let mut c = SimClock::midnight();
        for _ in 0..100 {
            c.tick();
        }
        assert_eq!(c.elapsed(), 100);
        assert_eq!(c.now(), 100);
    }

    #[test]
    fn epoch_offsets_now_but_not_elapsed() {
        let mut c = SimClock::new(3_600);
        c.advance(10);
        assert_eq!(c.elapsed(), 10);
        assert_eq!(c.now(), 3_610);
    }

    #[test]
    fn every_fifteen_matches_paper_cadence() {
        let mut c = SimClock::midnight();
        let mut cooling_calls = 0;
        for _ in 0..60 {
            c.tick();
            if c.every(15) {
                cooling_calls += 1;
            }
        }
        assert_eq!(cooling_calls, 4); // at t = 15, 30, 45, 60
    }

    #[test]
    fn day_fraction_wraps() {
        let mut c = SimClock::new(SECONDS_PER_DAY - 1);
        assert!(c.day_fraction() > 0.99);
        c.tick();
        assert_eq!(c.second_of_day(), 0);
        assert_eq!(c.day_fraction(), 0.0);
    }
}
