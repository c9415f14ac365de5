//! Property-based tests for the simulation substrate.

use exadigit_sim::stats::{mae, percentile, rmse, Welford};
use exadigit_sim::{Rng, TimeSeries};
use proptest::prelude::*;

proptest! {
    /// Uniform deviates always land in [0, 1).
    #[test]
    fn rng_uniform_in_unit_interval(seed in any::<u64>()) {
        let mut rng = Rng::new(seed);
        for _ in 0..100 {
            let u = rng.uniform();
            prop_assert!((0.0..1.0).contains(&u));
        }
    }

    /// Exponential deviates are non-negative for any positive rate.
    #[test]
    fn rng_exponential_non_negative(seed in any::<u64>(), lambda in 1e-6f64..1e3) {
        let mut rng = Rng::new(seed);
        for _ in 0..50 {
            prop_assert!(rng.exponential(lambda) >= 0.0);
        }
    }

    /// Split streams never alias their parent stream.
    #[test]
    fn rng_split_differs_from_parent(seed in any::<u64>(), stream in 1u64..1000) {
        let parent = Rng::new(seed);
        let mut a = parent.clone();
        let mut b = parent.split(stream);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        prop_assert!(same < 4);
    }

    /// uniform_usize respects its bound.
    #[test]
    fn rng_uniform_usize_bounded(seed in any::<u64>(), n in 1usize..10_000) {
        let mut rng = Rng::new(seed);
        for _ in 0..50 {
            prop_assert!(rng.uniform_usize(n) < n);
        }
    }

    /// Welford merge is order-independent (within float tolerance).
    #[test]
    fn welford_merge_commutes(
        xs in prop::collection::vec(-1e6f64..1e6, 1..200),
        split_at in 0usize..200,
    ) {
        let k = split_at.min(xs.len());
        let (left, right) = xs.split_at(k);
        let mut a = Welford::new();
        left.iter().for_each(|&x| a.push(x));
        let mut b = Welford::new();
        right.iter().for_each(|&x| b.push(x));
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        prop_assert_eq!(ab.count(), ba.count());
        if ab.count() > 0 {
            prop_assert!((ab.mean() - ba.mean()).abs() <= 1e-9 * (1.0 + ab.mean().abs()));
            prop_assert_eq!(ab.min(), ba.min());
            prop_assert_eq!(ab.max(), ba.max());
        }
    }

    /// RMSE ≥ MAE ≥ 0 for any pair of equal-length series.
    #[test]
    fn rmse_dominates_mae(
        pairs in prop::collection::vec((-1e3f64..1e3, -1e3f64..1e3), 1..100)
    ) {
        let p: Vec<f64> = pairs.iter().map(|x| x.0).collect();
        let m: Vec<f64> = pairs.iter().map(|x| x.1).collect();
        let r = rmse(&p, &m);
        let a = mae(&p, &m);
        prop_assert!(a >= 0.0);
        prop_assert!(r >= a - 1e-12);
    }

    /// Percentiles are monotone in p and bracketed by min/max.
    #[test]
    fn percentile_monotone(values in prop::collection::vec(-1e6f64..1e6, 1..100)) {
        let p25 = percentile(&values, 25.0);
        let p50 = percentile(&values, 50.0);
        let p75 = percentile(&values, 75.0);
        prop_assert!(p25 <= p50 && p50 <= p75);
        let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(p25 >= min && p75 <= max);
    }

    /// Linear interpolation of a series is bracketed by its min/max.
    #[test]
    fn series_sample_bracketed(
        values in prop::collection::vec(-1e3f64..1e3, 2..100),
        t in -100f64..2e4,
    ) {
        let s = TimeSeries::from_values(0.0, 15.0, values.clone());
        let v = s.sample_at(t);
        prop_assert!(v >= s.min() - 1e-9 && v <= s.max() + 1e-9);
    }
}
