//! Statistics for verification & validation.
//!
//! §IV of the paper reports RMSE and MAE between model predictions and
//! telemetry (Fig. 7), percent errors for the power verification tests
//! (Table III) and min/avg/max/std summaries over 183 daily replays
//! (Table IV). This module provides those metrics plus an online Welford
//! accumulator so multi-day replays never need to retain raw samples.

use serde::{Deserialize, Serialize};

/// Root mean square error between two equally long slices.
pub fn rmse(predicted: &[f64], measured: &[f64]) -> f64 {
    assert_eq!(predicted.len(), measured.len(), "series lengths differ");
    if predicted.is_empty() {
        return f64::NAN;
    }
    let sum_sq: f64 = predicted
        .iter()
        .zip(measured)
        .map(|(p, m)| (p - m) * (p - m))
        .sum();
    (sum_sq / predicted.len() as f64).sqrt()
}

/// Mean absolute error between two equally long slices.
pub fn mae(predicted: &[f64], measured: &[f64]) -> f64 {
    assert_eq!(predicted.len(), measured.len(), "series lengths differ");
    if predicted.is_empty() {
        return f64::NAN;
    }
    let sum: f64 = predicted
        .iter()
        .zip(measured)
        .map(|(p, m)| (p - m).abs())
        .sum();
    sum / predicted.len() as f64
}

/// Mean absolute percentage error (in percent). Measured values of zero are
/// skipped to avoid division blow-ups.
pub fn mape(predicted: &[f64], measured: &[f64]) -> f64 {
    assert_eq!(predicted.len(), measured.len(), "series lengths differ");
    let mut sum = 0.0;
    let mut n = 0usize;
    for (p, m) in predicted.iter().zip(measured) {
        if m.abs() > f64::EPSILON {
            sum += ((p - m) / m).abs();
            n += 1;
        }
    }
    if n == 0 {
        f64::NAN
    } else {
        100.0 * sum / n as f64
    }
}

/// Signed percent error of a single prediction vs a reference, as used in
/// Table III of the paper.
pub fn percent_error(predicted: f64, reference: f64) -> f64 {
    100.0 * (predicted - reference) / reference
}

/// Percentile (0..=100) of a slice using linear interpolation between order
/// statistics. The input need not be sorted.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!((0.0..=100.0).contains(&p), "percentile out of range");
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Online mean/variance accumulator (Welford's algorithm): numerically
/// stable, O(1) memory, merge-able for parallel reduction with rayon.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Welford {
    /// Fresh accumulator.
    pub fn new() -> Self {
        Welford { n: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    /// Absorb one observation.
    #[inline]
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Absorb `n` identical observations in O(1) — the Chan et al. merge
    /// of a degenerate accumulator `{n, mean: x, m2: 0}`. This is what
    /// lets the event-driven simulation kernel account a constant-power
    /// gap of thousands of seconds in one update instead of one push per
    /// simulated second (mathematically exact: the mean/variance of `n`
    /// copies of `x` have closed forms; only float rounding differs from
    /// `n` sequential pushes).
    #[inline]
    pub fn push_n(&mut self, x: f64, n: u64) {
        if n == 0 {
            return;
        }
        self.merge(&Welford { n, mean: x, m2: 0.0, min: x, max: x });
    }

    /// Merge another accumulator (parallel reduction; Chan et al. update).
    pub fn merge(&mut self, other: &Welford) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n_total = self.n + other.n;
        let delta = other.mean - self.mean;
        self.mean += delta * other.n as f64 / n_total as f64;
        self.m2 += other.m2 + delta * delta * (self.n as f64 * other.n as f64) / n_total as f64;
        self.n = n_total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Running mean (NaN when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.mean
        }
    }

    /// Population variance (NaN when empty).
    pub fn variance(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Sample standard deviation (NaN for fewer than two observations).
    pub fn std(&self) -> f64 {
        if self.n < 2 {
            f64::NAN
        } else {
            (self.m2 / (self.n - 1) as f64).sqrt()
        }
    }

    /// Minimum observation.
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.min
        }
    }

    /// Maximum observation.
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.max
        }
    }

    /// Snapshot as a [`Summary`].
    pub fn summary(&self) -> Summary {
        Summary {
            count: self.n,
            min: self.min(),
            mean: self.mean(),
            max: self.max(),
            std: self.std(),
        }
    }
}

/// Min/mean/max/std summary of a set of observations — one row of the
/// paper's Table IV.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Number of observations.
    pub count: u64,
    /// Minimum.
    pub min: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Maximum.
    pub max: f64,
    /// Sample standard deviation.
    pub std: f64,
}

impl Summary {
    /// Summarise a slice in one pass.
    pub fn of(values: &[f64]) -> Summary {
        let mut w = Welford::new();
        for &v in values {
            w.push(v);
        }
        w.summary()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rmse_zero_for_identical() {
        let a = [1.0, 2.0, 3.0];
        assert_eq!(rmse(&a, &a), 0.0);
        assert_eq!(mae(&a, &a), 0.0);
    }

    #[test]
    fn rmse_known_value() {
        let p = [1.0, 2.0, 3.0];
        let m = [2.0, 2.0, 5.0];
        // errors: -1, 0, -2 -> rmse = sqrt(5/3)
        assert!((rmse(&p, &m) - (5.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert!((mae(&p, &m) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn percent_error_matches_table3_style() {
        // Table III: idle telemetry 7.4 MW vs RAPS 7.24 MW -> -2.16 %
        let e = percent_error(7.24, 7.4);
        assert!((e + 2.16).abs() < 0.01, "e={e}");
    }

    #[test]
    fn percentile_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert!((percentile(&v, 50.0) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn welford_matches_two_pass() {
        let data: Vec<f64> = (0..1000).map(|i| (i as f64).sin() * 10.0 + 5.0).collect();
        let mut w = Welford::new();
        for &x in &data {
            w.push(x);
        }
        let mean = data.iter().sum::<f64>() / data.len() as f64;
        let var =
            data.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (data.len() - 1) as f64;
        assert!((w.mean() - mean).abs() < 1e-9);
        assert!((w.std() - var.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn welford_merge_equals_sequential() {
        let data: Vec<f64> = (0..500).map(|i| i as f64 * 0.37).collect();
        let mut all = Welford::new();
        for &x in &data {
            all.push(x);
        }
        let (a, b) = data.split_at(123);
        let mut wa = Welford::new();
        let mut wb = Welford::new();
        for &x in a {
            wa.push(x);
        }
        for &x in b {
            wb.push(x);
        }
        wa.merge(&wb);
        assert!((wa.mean() - all.mean()).abs() < 1e-9);
        assert!((wa.std() - all.std()).abs() < 1e-9);
        assert_eq!(wa.count(), all.count());
        assert_eq!(wa.min(), all.min());
        assert_eq!(wa.max(), all.max());
    }

    #[test]
    fn push_n_matches_sequential_pushes() {
        let mut seq = Welford::new();
        let mut fast = Welford::new();
        seq.push(3.0);
        fast.push(3.0);
        for _ in 0..1000 {
            seq.push(7.25);
        }
        fast.push_n(7.25, 1000);
        for _ in 0..99 {
            seq.push(-2.5);
        }
        fast.push_n(-2.5, 99);
        assert_eq!(fast.count(), seq.count());
        assert_eq!(fast.min(), seq.min());
        assert_eq!(fast.max(), seq.max());
        assert!((fast.mean() - seq.mean()).abs() < 1e-12 * seq.mean().abs());
        assert!((fast.std() - seq.std()).abs() < 1e-9);
        // Zero-weight push is a no-op.
        let before = fast;
        fast.push_n(999.0, 0);
        assert_eq!(fast, before);
    }

    #[test]
    fn summary_of_slice() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert_eq!(s.count, 4);
    }

    #[test]
    fn mape_skips_zero_reference() {
        let p = [1.0, 2.0];
        let m = [0.0, 4.0];
        assert!((mape(&p, &m) - 50.0).abs() < 1e-12);
    }
}
