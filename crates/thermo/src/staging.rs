//! Staging logic and signal conditioning.
//!
//! The plant control system stages equipment up and down: "The HTWPs are
//! staged up/down depending on the relative percent pump speeds of the
//! running pumps", "the CTs are staged up/down based on header pressure
//! and the gradient of the hot temperature water supply temperature", and
//! the loop-to-loop coupling is handled "via a delay transfer function"
//! (§III-C5). This module provides the three blocks those sentences
//! describe: a hysteresis stager with hold-off timers, a first-order lag,
//! and a rate-of-change estimator.

use serde::{Deserialize, Serialize};

/// Hysteresis staging state machine with minimum hold times.
///
/// Stage up when the signal stays above `up_threshold` for `up_delay_s`;
/// stage down when it stays below `down_threshold` for `down_delay_s`.
/// Count is clamped to `[min_count, max_count]`. Hold-off timers prevent
/// short-cycling the machinery — the real plant enforces the same.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HysteresisStager {
    /// Signal level that requests another unit.
    pub up_threshold: f64,
    /// Signal level that allows dropping a unit.
    pub down_threshold: f64,
    /// Seconds the up condition must persist.
    pub up_delay_s: f64,
    /// Seconds the down condition must persist.
    pub down_delay_s: f64,
    /// Minimum units online.
    pub min_count: u32,
    /// Maximum units available.
    pub max_count: u32,
    count: u32,
    up_timer: f64,
    down_timer: f64,
}

impl HysteresisStager {
    /// New stager starting with `initial` units online.
    pub fn new(
        up_threshold: f64,
        down_threshold: f64,
        up_delay_s: f64,
        down_delay_s: f64,
        min_count: u32,
        max_count: u32,
        initial: u32,
    ) -> Self {
        assert!(up_threshold > down_threshold, "thresholds must not overlap");
        assert!(min_count <= max_count);
        HysteresisStager {
            up_threshold,
            down_threshold,
            up_delay_s,
            down_delay_s,
            min_count,
            max_count,
            count: initial.clamp(min_count, max_count),
            up_timer: 0.0,
            down_timer: 0.0,
        }
    }

    /// Units currently online.
    pub fn count(&self) -> u32 {
        self.count
    }

    /// Advance by `dt` seconds with the current staging `signal`; returns
    /// the (possibly updated) unit count.
    pub fn update(&mut self, signal: f64, dt: f64) -> u32 {
        if signal > self.up_threshold {
            self.up_timer += dt;
            self.down_timer = 0.0;
            if self.up_timer >= self.up_delay_s && self.count < self.max_count {
                self.count += 1;
                self.up_timer = 0.0;
            }
        } else if signal < self.down_threshold {
            self.down_timer += dt;
            self.up_timer = 0.0;
            if self.down_timer >= self.down_delay_s && self.count > self.min_count {
                self.count -= 1;
                self.down_timer = 0.0;
            }
        } else {
            self.up_timer = 0.0;
            self.down_timer = 0.0;
        }
        self.count
    }
}

/// First-order lag (`tau · y' + y = u`) — the "delay transfer function"
/// coupling the primary pump loop to the cooling-tower loop.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FirstOrderLag {
    /// Time constant, s.
    pub tau_s: f64,
    state: f64,
}

impl FirstOrderLag {
    /// New lag with time constant `tau_s`, initial output `y0`.
    pub fn new(tau_s: f64, y0: f64) -> Self {
        assert!(tau_s > 0.0);
        FirstOrderLag { tau_s, state: y0 }
    }

    /// Advance by `dt` with input `u` (exact exponential update).
    pub fn update(&mut self, u: f64, dt: f64) -> f64 {
        let decay = (-dt / self.tau_s).exp();
        self.state = u + (self.state - u) * decay;
        self.state
    }

    /// Current output.
    pub fn output(&self) -> f64 {
        self.state
    }
}

/// Finite-difference rate-of-change estimator with a smoothing lag —
/// used for the HTWS temperature gradient in the CT staging criterion.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RateEstimator {
    lag: FirstOrderLag,
    prev: Option<f64>,
}

impl RateEstimator {
    /// New estimator smoothing over `tau_s` seconds.
    pub fn new(tau_s: f64) -> Self {
        RateEstimator { lag: FirstOrderLag::new(tau_s, 0.0), prev: None }
    }

    /// Advance with a new sample; returns the smoothed derivative (units/s).
    pub fn update(&mut self, sample: f64, dt: f64) -> f64 {
        let raw = match self.prev {
            Some(prev) => (sample - prev) / dt,
            None => 0.0,
        };
        self.prev = Some(sample);
        self.lag.update(raw, dt)
    }

    /// Current smoothed rate.
    pub fn rate(&self) -> f64 {
        self.lag.output()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stages_up_after_delay() {
        let mut s = HysteresisStager::new(0.9, 0.4, 30.0, 60.0, 1, 4, 2);
        // 29 s above threshold: no change yet.
        for _ in 0..29 {
            s.update(0.95, 1.0);
        }
        assert_eq!(s.count(), 2);
        s.update(0.95, 1.0);
        assert_eq!(s.count(), 3);
    }

    #[test]
    fn stages_down_after_delay() {
        let mut s = HysteresisStager::new(0.9, 0.4, 30.0, 60.0, 1, 4, 3);
        for _ in 0..60 {
            s.update(0.2, 1.0);
        }
        assert_eq!(s.count(), 2);
    }

    #[test]
    fn deadband_resets_timers() {
        let mut s = HysteresisStager::new(0.9, 0.4, 30.0, 60.0, 1, 4, 2);
        for _ in 0..29 {
            s.update(0.95, 1.0);
        }
        s.update(0.5, 1.0); // into the deadband: timer must reset
        for _ in 0..29 {
            s.update(0.95, 1.0);
        }
        assert_eq!(s.count(), 2, "timer should have been reset by deadband");
    }

    #[test]
    fn respects_bounds() {
        let mut s = HysteresisStager::new(0.9, 0.4, 1.0, 1.0, 1, 3, 3);
        for _ in 0..100 {
            s.update(1.0, 1.0);
        }
        assert_eq!(s.count(), 3);
        for _ in 0..1000 {
            s.update(0.0, 1.0);
        }
        assert_eq!(s.count(), 1);
    }

    #[test]
    fn repeated_staging_walks_one_at_a_time() {
        let mut s = HysteresisStager::new(0.9, 0.4, 10.0, 10.0, 0, 4, 0);
        let mut counts = Vec::new();
        for _ in 0..45 {
            counts.push(s.update(1.0, 1.0));
        }
        // Steps at 10, 20, 30, 40 s.
        assert_eq!(*counts.last().unwrap(), 4);
        for w in counts.windows(2) {
            assert!(w[1] - w[0] <= 1);
        }
    }

    #[test]
    fn lag_converges_exponentially() {
        let mut lag = FirstOrderLag::new(10.0, 0.0);
        lag.update(1.0, 10.0);
        // After one time constant: 1 - e^-1 ≈ 0.632.
        assert!((lag.output() - 0.632).abs() < 0.001);
        for _ in 0..10 {
            lag.update(1.0, 10.0);
        }
        assert!((lag.output() - 1.0).abs() < 1e-4);
    }

    #[test]
    fn lag_stable_for_huge_steps() {
        let mut lag = FirstOrderLag::new(1.0, 0.0);
        let y = lag.update(5.0, 1e6);
        assert!((y - 5.0).abs() < 1e-9);
    }

    #[test]
    fn rate_estimator_tracks_slope() {
        let mut r = RateEstimator::new(5.0);
        // Ramp 2 units/s sampled at 1 s.
        let mut t = 0.0;
        for _ in 0..100 {
            t += 1.0;
            r.update(2.0 * t, 1.0);
        }
        assert!((r.rate() - 2.0).abs() < 0.01, "rate={}", r.rate());
    }

    #[test]
    fn rate_estimator_zero_on_constant() {
        let mut r = RateEstimator::new(5.0);
        for _ in 0..50 {
            r.update(42.0, 1.0);
        }
        assert!(r.rate().abs() < 1e-9);
    }
}
