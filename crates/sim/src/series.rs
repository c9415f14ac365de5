//! Fixed-step time series with copy-on-write chunked storage.
//!
//! Telemetry in the paper arrives at heterogeneous cadences (Table II: 1 s
//! measured power, 15 s rack power and cooling outputs, 60 s wet-bulb,
//! 10 min pump power...). `TimeSeries` stores a uniformly sampled channel
//! and supports the resampling needed to align model output with telemetry
//! for RMSE/MAE validation.
//!
//! # Storage: sealed chunks + mutable tail
//!
//! Samples live in two tiers: a list of immutable **sealed chunks** — each
//! exactly [`CHUNK_LEN`] samples behind an `Arc` — plus one small mutable
//! **tail** holding the trailing `len % CHUNK_LEN` samples. Appends only
//! ever touch the tail; the moment the tail reaches [`CHUNK_LEN`] samples
//! it is sealed into an `Arc` and a fresh tail starts. Sealed chunks are
//! *never* mutated afterwards, so cloning a series — the heart of
//! `DigitalTwin::fork` — bumps one refcount per chunk and copies only the
//! tail: O(touched-state) instead of O(recorded-history). Forks of forks
//! keep sharing every chunk sealed before the fork point.
//!
//! The chunk layout is a pure function of the sample count (a chunk seals
//! exactly at each `CHUNK_LEN` boundary, regardless of whether samples
//! arrived via [`TimeSeries::push`], [`TimeSeries::push_n`], or
//! [`TimeSeries::from_values`]), so the derived `PartialEq`/`Clone` keep
//! their value semantics and equality never depends on append history.
//!
//! Serde intentionally sees the *materialized* view — `{t0, dt, values}`
//! with a flat sample array — so the PR 7 snapshot wire format is
//! byte-identical to the pre-chunking layout and fixtures never notice
//! the representation change.

use std::cell::Cell;
use std::sync::Arc;

/// Samples per sealed chunk. A power of two so position decomposition
/// (`i / CHUNK_LEN`, `i % CHUNK_LEN`) compiles to shifts/masks. At the
/// 15 s record cadence one chunk covers ~4.3 h; a 7-day history is ~40
/// chunk refcount bumps per series to fork.
pub const CHUNK_LEN: usize = 1024;

thread_local! {
    /// Count of sealed-chunk allocations performed by this thread — the
    /// "counting allocator" hook behind the zero-copy-fork guarantee
    /// (see [`TimeSeries::sealed_chunk_allocations`]).
    static CHUNK_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// A uniformly sampled time series: value `i` is the sample at
/// `t0 + i * dt` (seconds). Storage is copy-on-write chunked (see the
/// module docs); `clone()` is O(chunks + tail), not O(samples).
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    /// Time of the first sample, in seconds.
    pub t0: f64,
    /// Sample period in seconds (must be > 0).
    pub dt: f64,
    /// Immutable full chunks (each exactly `CHUNK_LEN` samples), shared
    /// by refcount across forks.
    sealed: Vec<Arc<Vec<f64>>>,
    /// The mutable trailing partial chunk (`len % CHUNK_LEN` samples).
    tail: Vec<f64>,
}

impl TimeSeries {
    /// Empty series starting at `t0` with period `dt`.
    pub fn new(t0: f64, dt: f64) -> Self {
        assert!(dt > 0.0, "sample period must be positive");
        TimeSeries { t0, dt, sealed: Vec::new(), tail: Vec::new() }
    }

    /// Empty series with pre-reserved tail capacity (avoids re-allocation
    /// in multi-day replays; anything past one chunk is irrelevant — the
    /// tail never exceeds [`CHUNK_LEN`] samples).
    pub fn with_capacity(t0: f64, dt: f64, capacity: usize) -> Self {
        assert!(dt > 0.0, "sample period must be positive");
        TimeSeries {
            t0,
            dt,
            sealed: Vec::new(),
            tail: Vec::with_capacity(capacity.min(CHUNK_LEN)),
        }
    }

    /// Build from existing samples (sealing every full chunk).
    pub fn from_values(t0: f64, dt: f64, values: Vec<f64>) -> Self {
        assert!(dt > 0.0, "sample period must be positive");
        let mut s = TimeSeries { t0, dt, sealed: Vec::new(), tail: values };
        s.seal_full_chunks();
        s
    }

    /// Seal the tail into an `Arc` chunk. Caller guarantees the tail
    /// holds exactly `CHUNK_LEN` samples.
    fn seal_tail(&mut self) {
        debug_assert_eq!(self.tail.len(), CHUNK_LEN);
        let chunk = std::mem::replace(&mut self.tail, Vec::with_capacity(CHUNK_LEN));
        self.sealed.push(Arc::new(chunk));
        CHUNK_ALLOCS.with(|c| c.set(c.get() + 1));
    }

    /// Restore the canonical layout after bulk-loading the tail: split
    /// off every full chunk, leaving `len % CHUNK_LEN` samples mutable.
    fn seal_full_chunks(&mut self) {
        if self.tail.len() < CHUNK_LEN {
            return;
        }
        let full = self.tail.len() / CHUNK_LEN * CHUNK_LEN;
        let rest = self.tail.split_off(full);
        let mut bulk = std::mem::replace(&mut self.tail, rest);
        while bulk.len() > CHUNK_LEN {
            let spill = bulk.split_off(CHUNK_LEN);
            self.sealed.push(Arc::new(bulk));
            CHUNK_ALLOCS.with(|c| c.set(c.get() + 1));
            bulk = spill;
        }
        self.sealed.push(Arc::new(bulk));
        CHUNK_ALLOCS.with(|c| c.set(c.get() + 1));
    }

    /// Append the next sample.
    #[inline]
    pub fn push(&mut self, value: f64) {
        self.tail.push(value);
        if self.tail.len() == CHUNK_LEN {
            self.seal_tail();
        }
    }

    /// Append `n` copies of the same sample in one call. Bit-identical to
    /// `n` sequential [`TimeSeries::push`] calls of `value` (no arithmetic
    /// happens — the same f64 is cloned), which is what lets the lazy
    /// record backfill in the event kernel materialise the samples of a
    /// constant-power gap without visiting each record boundary.
    #[inline]
    pub fn push_n(&mut self, value: f64, n: usize) {
        let mut remaining = n;
        while remaining > 0 {
            let take = remaining.min(CHUNK_LEN - self.tail.len());
            self.tail.resize(self.tail.len() + take, value);
            remaining -= take;
            if self.tail.len() == CHUNK_LEN {
                self.seal_tail();
            }
        }
    }

    /// Number of samples.
    #[inline]
    pub fn len(&self) -> usize {
        self.sealed.len() * CHUNK_LEN + self.tail.len()
    }

    /// True when no samples are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.sealed.is_empty() && self.tail.is_empty()
    }

    /// Sample `i` (panics when out of bounds, like slice indexing).
    #[inline]
    pub fn get(&self, i: usize) -> f64 {
        let chunk = i / CHUNK_LEN;
        if chunk < self.sealed.len() {
            self.sealed[chunk][i % CHUNK_LEN]
        } else {
            self.tail[i - self.sealed.len() * CHUNK_LEN]
        }
    }

    /// Last sample (None when empty).
    pub fn last(&self) -> Option<f64> {
        self.tail
            .last()
            .or_else(|| self.sealed.last().map(|c| &c[CHUNK_LEN - 1]))
            .copied()
    }

    /// Iterator over the raw samples in time order.
    pub fn samples(&self) -> impl Iterator<Item = f64> + '_ {
        self.sealed
            .iter()
            .flat_map(|c| c.iter().copied())
            .chain(self.tail.iter().copied())
    }

    /// Materialise the samples into one contiguous vector (for chart
    /// bucketing and similar slice consumers). O(samples) — not a hot
    /// path.
    pub fn to_vec(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.len());
        for c in &self.sealed {
            out.extend_from_slice(c);
        }
        out.extend_from_slice(&self.tail);
        out
    }

    /// Time of sample `i`.
    #[inline]
    pub fn time_at(&self, i: usize) -> f64 {
        self.t0 + i as f64 * self.dt
    }

    /// Time of the last sample (None when empty).
    pub fn end_time(&self) -> Option<f64> {
        if self.is_empty() {
            None
        } else {
            Some(self.time_at(self.len() - 1))
        }
    }

    /// Linear interpolation at time `t`, clamped to the series ends.
    pub fn sample_at(&self, t: f64) -> f64 {
        assert!(!self.is_empty(), "cannot sample an empty series");
        let pos = (t - self.t0) / self.dt;
        if pos <= 0.0 {
            return self.get(0);
        }
        let last = self.len() - 1;
        if pos >= last as f64 {
            return self.get(last);
        }
        let i = pos.floor() as usize;
        let frac = pos - i as f64;
        self.get(i) * (1.0 - frac) + self.get(i + 1) * frac
    }

    /// Mean of all samples (NaN when empty).
    pub fn mean(&self) -> f64 {
        if self.is_empty() {
            return f64::NAN;
        }
        self.samples().sum::<f64>() / self.len() as f64
    }

    /// Minimum sample (NaN when empty).
    pub fn min(&self) -> f64 {
        self.samples().fold(f64::NAN, f64::min)
    }

    /// Maximum sample (NaN when empty).
    pub fn max(&self) -> f64 {
        self.samples().fold(f64::NAN, f64::max)
    }

    /// Element-wise map into a new series.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> TimeSeries {
        TimeSeries::from_values(self.t0, self.dt, self.samples().map(f).collect())
    }

    /// Iterator over `(time, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.samples()
            .enumerate()
            .map(move |(i, v)| (self.time_at(i), v))
    }

    // ---- copy-on-write introspection -----------------------------------

    /// Number of sealed (immutable, refcount-shared) chunks.
    pub fn sealed_chunk_count(&self) -> usize {
        self.sealed.len()
    }

    /// Approximate heap bytes split into (shared, owned): a sealed chunk
    /// referenced by more than one series counts as shared, a uniquely
    /// held chunk and the tail count as owned. The split is what
    /// `Response::Status` reports for snapshot memory.
    pub fn shared_owned_bytes(&self) -> (usize, usize) {
        let mut shared = 0usize;
        let mut owned = self.tail.capacity() * std::mem::size_of::<f64>();
        for c in &self.sealed {
            let bytes = c.len() * std::mem::size_of::<f64>();
            if Arc::strong_count(c) > 1 {
                shared += bytes;
            } else {
                owned += bytes;
            }
        }
        (shared, owned)
    }

    /// True when every sealed chunk of `self` is pointer-identical to the
    /// corresponding chunk of `other` (the fork-sharing invariant: a
    /// fresh fork shares *all* sealed history with its parent).
    pub fn shares_sealed_chunks_with(&self, other: &TimeSeries) -> bool {
        self.sealed.len() == other.sealed.len()
            && self
                .sealed
                .iter()
                .zip(&other.sealed)
                .all(|(a, b)| Arc::ptr_eq(a, b))
    }

    /// Sealed-chunk allocations performed by the calling thread so far.
    /// A fork performs none: sample the counter before and after
    /// `fork()`/`clone()` on one thread to prove zero history bytes were
    /// copied (the aliasing-safety test in `tests/service_fork.rs`).
    pub fn sealed_chunk_allocations() -> u64 {
        CHUNK_ALLOCS.with(|c| c.get())
    }
}

impl std::ops::Index<usize> for TimeSeries {
    type Output = f64;

    #[inline]
    fn index(&self, i: usize) -> &f64 {
        let chunk = i / CHUNK_LEN;
        if chunk < self.sealed.len() {
            &self.sealed[chunk][i % CHUNK_LEN]
        } else {
            &self.tail[i - self.sealed.len() * CHUNK_LEN]
        }
    }
}

// Serde sees the materialized `{t0, dt, values}` view — byte-identical to
// the former `#[derive]` on a flat `values: Vec<f64>` field, which keeps
// the PR 7 snapshot wire format stable across the representation change.
impl serde::Serialize for TimeSeries {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("t0".to_string(), serde::Serialize::to_value(&self.t0)),
            ("dt".to_string(), serde::Serialize::to_value(&self.dt)),
            (
                "values".to_string(),
                serde::Value::Array(
                    self.samples().map(|v| serde::Serialize::to_value(&v)).collect(),
                ),
            ),
        ])
    }
}

impl serde::Deserialize for TimeSeries {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let field = |name: &str| -> Result<&serde::Value, serde::Error> {
            v.get(name)
                .ok_or_else(|| serde::Error::msg(format!("TimeSeries.{name}: missing")))
        };
        let t0 = f64::from_value(field("t0")?)
            .map_err(|e| serde::Error::msg(format!("TimeSeries.t0: {e}")))?;
        let dt = f64::from_value(field("dt")?)
            .map_err(|e| serde::Error::msg(format!("TimeSeries.dt: {e}")))?;
        let values = Vec::<f64>::from_value(field("values")?)
            .map_err(|e| serde::Error::msg(format!("TimeSeries.values: {e}")))?;
        if dt.is_nan() || dt <= 0.0 {
            return Err(serde::Error::msg(format!(
                "TimeSeries.dt: non-positive period {dt}"
            )));
        }
        Ok(TimeSeries::from_values(t0, dt, values))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp() -> TimeSeries {
        TimeSeries::from_values(0.0, 15.0, (0..=10).map(|i| i as f64).collect())
    }

    #[test]
    fn sample_interpolates_linearly() {
        let s = ramp();
        assert_eq!(s.sample_at(0.0), 0.0);
        assert_eq!(s.sample_at(15.0), 1.0);
        assert!((s.sample_at(22.5) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn sample_clamps_at_ends() {
        let s = ramp();
        assert_eq!(s.sample_at(-100.0), 0.0);
        assert_eq!(s.sample_at(1e9), 10.0);
    }

    #[test]
    fn summary_helpers() {
        let s = ramp();
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 10.0);
        assert!((s.mean() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn push_n_matches_sequential_pushes() {
        let mut seq = TimeSeries::new(0.0, 15.0);
        let mut fast = TimeSeries::new(0.0, 15.0);
        seq.push(1.5);
        fast.push(1.5);
        for _ in 0..100 {
            seq.push(7.25);
        }
        fast.push_n(7.25, 100);
        assert_eq!(seq, fast);
        // Zero-count push is a no-op.
        let before = fast.clone();
        fast.push_n(999.0, 0);
        assert_eq!(fast, before);
    }

    #[test]
    fn push_n_matches_across_chunk_boundaries() {
        let mut seq = TimeSeries::new(0.0, 1.0);
        let mut fast = TimeSeries::new(0.0, 1.0);
        for _ in 0..(3 * CHUNK_LEN + 7) {
            seq.push(0.125);
        }
        fast.push_n(0.125, 3 * CHUNK_LEN + 7);
        assert_eq!(seq, fast);
        assert_eq!(seq.sealed_chunk_count(), 3);
        assert_eq!(fast.sealed_chunk_count(), 3);
    }

    #[test]
    fn map_applies_elementwise() {
        let s = ramp().map(|v| v * 2.0);
        assert_eq!(s[3], 6.0);
    }

    #[test]
    #[should_panic]
    fn zero_dt_rejected() {
        let _ = TimeSeries::new(0.0, 0.0);
    }

    #[test]
    fn chunk_layout_is_a_pure_function_of_len() {
        // The same samples loaded in one shot, pushed one by one, or
        // bulk-appended land in the same sealed/tail split.
        let n = 2 * CHUNK_LEN + 100;
        let values: Vec<f64> = (0..n).map(|i| i as f64 * 0.5).collect();
        let bulk = TimeSeries::from_values(0.0, 1.0, values.clone());
        let mut pushed = TimeSeries::new(0.0, 1.0);
        for &v in &values {
            pushed.push(v);
        }
        assert_eq!(bulk, pushed);
        assert_eq!(bulk.sealed_chunk_count(), 2);
        assert_eq!(bulk.len(), n);
        assert_eq!(bulk.to_vec(), values);
        for (i, &v) in values.iter().enumerate() {
            assert_eq!(bulk.get(i), v);
            assert_eq!(bulk[i], v);
        }
        assert_eq!(bulk.last(), Some(values[n - 1]));
        let collected: Vec<f64> = bulk.samples().collect();
        assert_eq!(collected, values);
    }

    #[test]
    fn clone_shares_sealed_chunks_and_allocates_none() {
        let mut s = TimeSeries::new(0.0, 1.0);
        s.push_n(2.5, 5 * CHUNK_LEN + 13);
        let before = TimeSeries::sealed_chunk_allocations();
        let fork = s.clone();
        assert_eq!(
            TimeSeries::sealed_chunk_allocations(),
            before,
            "clone must not copy any sealed chunk"
        );
        assert!(fork.shares_sealed_chunks_with(&s));
        let (shared, _) = s.shared_owned_bytes();
        assert_eq!(shared, 5 * CHUNK_LEN * std::mem::size_of::<f64>());
        drop(fork);
        let (shared, owned) = s.shared_owned_bytes();
        assert_eq!(shared, 0, "sole owner again after the fork drops");
        assert!(owned >= 5 * CHUNK_LEN * std::mem::size_of::<f64>());
    }

    #[test]
    fn diverging_after_clone_leaves_the_parent_untouched() {
        let mut parent = TimeSeries::new(0.0, 1.0);
        parent.push_n(1.0, CHUNK_LEN + 50);
        let frozen = parent.clone();
        let mut child = parent.clone();
        child.push_n(9.0, 2 * CHUNK_LEN);
        assert_eq!(parent, frozen);
        assert!(!child.shares_sealed_chunks_with(&frozen));
        assert_eq!(child.len(), 3 * CHUNK_LEN + 50);
        // The shared prefix is still pointer-identical.
        assert!(Arc::ptr_eq(&child.sealed[0], &parent.sealed[0]));
    }

    #[test]
    fn serde_round_trips_and_matches_flat_layout() {
        let mut s = TimeSeries::new(10.0, 15.0);
        s.push_n(3.75, CHUNK_LEN + 5);
        let v = serde::Serialize::to_value(&s);
        // The wire shape is the flat pre-chunking layout.
        let obj = match &v {
            serde::Value::Object(fields) => fields,
            other => panic!("expected object, got {other:?}"),
        };
        assert_eq!(obj[0].0, "t0");
        assert_eq!(obj[1].0, "dt");
        assert_eq!(obj[2].0, "values");
        match &obj[2].1 {
            serde::Value::Array(a) => assert_eq!(a.len(), CHUNK_LEN + 5),
            other => panic!("expected array, got {other:?}"),
        }
        let back = <TimeSeries as serde::Deserialize>::from_value(&v).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.sealed_chunk_count(), 1);
    }
}
