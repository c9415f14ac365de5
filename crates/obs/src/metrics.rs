//! The metrics core: counters, gauges, fixed-bucket histograms, and the
//! [`Registry`] that names them.
//!
//! Every instrument is an `Arc` around atomics, so the hot path —
//! `inc`, `set`, `observe` — is a handful of relaxed atomic operations
//! with no lock, no allocation, and no formatting. The registry's
//! mutex guards *registration and rendering only*: instrument a site
//! by registering once (at construction) and keeping the returned
//! handle, never by looking the instrument up per event.
//!
//! Histograms are fixed-bucket: `observe` increments one bucket counter
//! and CAS-adds the sum, and quantiles (p50/p90/p99) are estimated from
//! the cumulative bucket counts by linear interpolation — no per-sample
//! storage, so a histogram's cost is independent of how many samples it
//! has absorbed.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing counter (events, requests, rejections).
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A fresh, unregistered counter at zero (useful as a default before
    /// a registry attaches real handles).
    pub fn new() -> Self {
        Counter::default()
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that goes up and down (queue depth, resident bytes).
/// Stores f64 bits in an atomic, so `set`/`get` are lock-free.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// A fresh, unregistered gauge at zero.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Set the current value.
    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Default latency buckets, seconds: 1 µs .. 10 s in a 1–2.5–5 ladder.
/// Wide enough for a 1.5 µs cache hit and a multi-second UQ ensemble in
/// the same histogram.
pub const LATENCY_BUCKETS_S: [f64; 22] = [
    1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2,
    2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
];

#[derive(Debug)]
struct HistogramInner {
    /// Ascending upper bounds (inclusive, Prometheus `le` semantics).
    /// An implicit +Inf bucket catches everything beyond the last bound.
    bounds: Vec<f64>,
    /// One counter per bound plus the +Inf overflow bucket
    /// (`buckets.len() == bounds.len() + 1`). Non-cumulative; the
    /// renderer accumulates.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// Σ observed values as f64 bits, CAS-updated.
    sum_bits: AtomicU64,
}

/// A fixed-bucket histogram: `observe` is two relaxed increments and one
/// CAS-add, quantiles come from the bucket counts.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistogramInner>);

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new(&LATENCY_BUCKETS_S)
    }
}

impl Histogram {
    /// A histogram over the given ascending upper bounds (an implicit
    /// +Inf bucket is always appended). Panics on unsorted bounds —
    /// bucket layout is programmer configuration, not runtime input.
    pub fn new(bounds: &[f64]) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        let buckets = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram(Arc::new(HistogramInner {
            bounds: bounds.to_vec(),
            buckets,
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
        }))
    }

    /// Record one observation. The bucket index is found by scanning the
    /// bounds (≤ 22 comparisons on the default ladder — cheaper than a
    /// branch-mispredicted binary search at this size).
    #[inline]
    pub fn observe(&self, v: f64) {
        let inner = &*self.0;
        let idx = inner.bounds.iter().position(|&b| v <= b).unwrap_or(inner.bounds.len());
        inner.buckets[idx].fetch_add(1, Ordering::Relaxed);
        inner.count.fetch_add(1, Ordering::Relaxed);
        let mut cur = inner.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match inner.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Record a [`std::time::Duration`] in seconds.
    #[inline]
    pub fn observe_duration(&self, d: std::time::Duration) {
        self.observe(d.as_secs_f64());
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of observed values.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.0.sum_bits.load(Ordering::Relaxed))
    }

    /// A consistent-enough point-in-time copy of the bucket counts (the
    /// buckets are read one atomic at a time; concurrent observes may
    /// straddle the reads, which quantile estimation tolerates).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let inner = &*self.0;
        HistogramSnapshot {
            bounds: inner.bounds.clone(),
            buckets: inner.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            count: self.count(),
            sum: self.sum(),
        }
    }

    /// Estimate quantile `q` in `[0, 1]` from the bucket counts; see
    /// [`HistogramSnapshot::quantile`].
    pub fn quantile(&self, q: f64) -> f64 {
        self.snapshot().quantile(q)
    }
}

/// A point-in-time copy of a histogram's buckets, detached from the
/// live atomics.
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramSnapshot {
    /// Ascending upper bounds (`le` values); the overflow bucket's bound
    /// is implicit +Inf.
    pub bounds: Vec<f64>,
    /// Non-cumulative per-bucket counts, one per bound plus overflow.
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
}

impl HistogramSnapshot {
    /// Estimate quantile `q` in `[0, 1]` by linear interpolation inside
    /// the bucket holding the target rank (the standard
    /// `histogram_quantile` estimate). Returns 0 for an empty histogram;
    /// ranks landing in the +Inf overflow bucket answer the last finite
    /// bound (the estimate cannot exceed what the buckets resolve).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * self.count as f64;
        let mut cum = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            let prev = cum;
            cum += n;
            if (cum as f64) >= rank && n > 0 {
                if i >= self.bounds.len() {
                    // Overflow bucket: no finite upper edge to
                    // interpolate toward.
                    return self.bounds.last().copied().unwrap_or(0.0);
                }
                let lower = if i == 0 { 0.0 } else { self.bounds[i - 1] };
                let upper = self.bounds[i];
                let frac = (rank - prev as f64) / n as f64;
                return lower + (upper - lower) * frac.clamp(0.0, 1.0);
            }
        }
        self.bounds.last().copied().unwrap_or(0.0)
    }
}

/// One registered instrument's identity and current value, as reported
/// by [`Registry::samples`].
#[derive(Clone, Debug)]
pub struct Sample {
    /// Metric family name, e.g. `exadigit_requests_total`.
    pub name: String,
    /// Help text rendered in the `# HELP` line.
    pub help: String,
    /// Label pairs, e.g. `[("type", "Query")]`.
    pub labels: Vec<(String, String)>,
    /// The value at sampling time.
    pub value: MetricValue,
}

/// The value half of a [`Sample`].
#[derive(Clone, Debug)]
pub enum MetricValue {
    /// A counter's running total.
    Counter(u64),
    /// A gauge's current value.
    Gauge(f64),
    /// A histogram's bucket snapshot.
    Histogram(HistogramSnapshot),
}

enum Instrument {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

struct Registered {
    name: String,
    help: String,
    labels: Vec<(String, String)>,
    instrument: Instrument,
}

/// The namespace instruments register into and exposition reads from.
///
/// Registration is idempotent on `(name, labels)`: asking twice returns
/// a handle to the *same* atomics, so independently constructed
/// components can share an instrument by name. Registering the same
/// identity as two different instrument kinds panics — that is a
/// programming error, not load-dependent behaviour.
#[derive(Default)]
pub struct Registry {
    instruments: Mutex<Vec<Registered>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn register(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Instrument,
    ) -> usize {
        let mut instruments = self.instruments.lock().unwrap();
        if let Some(i) = instruments.iter().position(|r| {
            r.name == name
                && r.labels.len() == labels.len()
                && r.labels.iter().zip(labels).all(|(a, b)| a.0 == b.0 && a.1 == b.1)
        }) {
            return i;
        }
        instruments.push(Registered {
            name: name.to_string(),
            help: help.to_string(),
            labels: labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect(),
            instrument: make(),
        });
        instruments.len() - 1
    }

    /// Register (or look up) a label-less counter.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.counter_with(name, help, &[])
    }

    /// Register (or look up) a counter with labels.
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        let i = self.register(name, help, labels, || Instrument::Counter(Counter::new()));
        match &self.instruments.lock().unwrap()[i].instrument {
            Instrument::Counter(c) => c.clone(),
            _ => panic!("metric {name} already registered as a different kind"),
        }
    }

    /// Register (or look up) a label-less gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        self.gauge_with(name, help, &[])
    }

    /// Register (or look up) a gauge with labels.
    pub fn gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        let i = self.register(name, help, labels, || Instrument::Gauge(Gauge::new()));
        match &self.instruments.lock().unwrap()[i].instrument {
            Instrument::Gauge(g) => g.clone(),
            _ => panic!("metric {name} already registered as a different kind"),
        }
    }

    /// Register (or look up) a label-less histogram over `bounds`.
    pub fn histogram(&self, name: &str, help: &str, bounds: &[f64]) -> Histogram {
        self.histogram_with(name, help, &[], bounds)
    }

    /// Register (or look up) a histogram with labels. `bounds` applies
    /// only on first registration; a later lookup returns the existing
    /// instrument unchanged.
    pub fn histogram_with(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        bounds: &[f64],
    ) -> Histogram {
        let i = self.register(name, help, labels, || Instrument::Histogram(Histogram::new(bounds)));
        match &self.instruments.lock().unwrap()[i].instrument {
            Instrument::Histogram(h) => h.clone(),
            _ => panic!("metric {name} already registered as a different kind"),
        }
    }

    /// Point-in-time values of every registered instrument, in
    /// registration order.
    pub fn samples(&self) -> Vec<Sample> {
        self.instruments
            .lock()
            .unwrap()
            .iter()
            .map(|r| Sample {
                name: r.name.clone(),
                help: r.help.clone(),
                labels: r.labels.clone(),
                value: match &r.instrument {
                    Instrument::Counter(c) => MetricValue::Counter(c.get()),
                    Instrument::Gauge(g) => MetricValue::Gauge(g.get()),
                    Instrument::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                },
            })
            .collect()
    }

    /// Render every instrument in the Prometheus text exposition format;
    /// see [`render_prometheus`].
    pub fn render_prometheus(&self) -> String {
        render_prometheus(&self.samples())
    }
}

/// Render samples in the Prometheus text exposition format (version
/// 0.0.4): one `# HELP` / `# TYPE` header per family, cumulative
/// `_bucket{le=...}` lines plus `_sum` / `_count` for histograms.
/// Families render in slice order, so output is deterministic for a
/// deterministically built sample list ([`Registry::samples`] lists in
/// registration order).
pub fn render_prometheus(samples: &[Sample]) -> String {
    let mut out = String::new();
    let mut seen_header: Vec<String> = Vec::new();
    for s in samples {
        let kind = match &s.value {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Histogram(_) => "histogram",
        };
        if !seen_header.iter().any(|n| n == &s.name) {
            out.push_str(&format!("# HELP {} {}\n# TYPE {} {}\n", s.name, s.help, s.name, kind));
            seen_header.push(s.name.clone());
        }
        match &s.value {
            MetricValue::Counter(v) => {
                out.push_str(&format!("{}{} {}\n", s.name, render_labels(&s.labels, &[]), v));
            }
            MetricValue::Gauge(v) => {
                out.push_str(&format!(
                    "{}{} {}\n",
                    s.name,
                    render_labels(&s.labels, &[]),
                    fmt_f64(*v)
                ));
            }
            MetricValue::Histogram(h) => {
                let mut cum = 0u64;
                for (i, &n) in h.buckets.iter().enumerate() {
                    cum += n;
                    let le = if i < h.bounds.len() {
                        fmt_f64(h.bounds[i])
                    } else {
                        "+Inf".to_string()
                    };
                    out.push_str(&format!(
                        "{}_bucket{} {}\n",
                        s.name,
                        render_labels(&s.labels, &[("le", &le)]),
                        cum
                    ));
                }
                out.push_str(&format!(
                    "{}_sum{} {}\n",
                    s.name,
                    render_labels(&s.labels, &[]),
                    fmt_f64(h.sum)
                ));
                out.push_str(&format!(
                    "{}_count{} {}\n",
                    s.name,
                    render_labels(&s.labels, &[]),
                    h.count
                ));
            }
        }
    }
    out
}

/// Format a label set (base labels plus extras like `le`), or the empty
/// string for a label-less instrument.
fn render_labels(labels: &[(String, String)], extra: &[(&str, &str)]) -> String {
    if labels.is_empty() && extra.is_empty() {
        return String::new();
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    parts.extend(extra.iter().map(|(k, v)| format!("{k}=\"{}\"", escape_label(v))));
    format!("{{{}}}", parts.join(","))
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

/// Format an f64 the way Prometheus expects: integral values without a
/// trailing `.0` would be ambiguous with counters in golden tests, so
/// keep Rust's shortest-round-trip `{}` formatting (Prometheus parses
/// both forms).
fn fmt_f64(v: f64) -> String {
    if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let r = Registry::new();
        let c = r.counter("c_total", "a counter");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Idempotent registration returns the same atomics.
        assert_eq!(r.counter("c_total", "a counter").get(), 5);
        let g = r.gauge("g", "a gauge");
        g.set(2.5);
        assert_eq!(g.get(), 2.5);
        g.set(-1.0);
        assert_eq!(g.get(), -1.0);
    }

    #[test]
    fn labelled_instruments_are_distinct() {
        let r = Registry::new();
        let a = r.counter_with("req_total", "requests", &[("type", "Query")]);
        let b = r.counter_with("req_total", "requests", &[("type", "Status")]);
        a.inc();
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
        assert_eq!(b.get(), 1);
        assert_eq!(r.counter_with("req_total", "requests", &[("type", "Query")]).get(), 2);
    }

    #[test]
    fn histogram_bucket_boundaries_are_inclusive_le() {
        // Prometheus `le` semantics: a value exactly on a bound lands in
        // that bound's bucket, not the next one.
        let h = Histogram::new(&[1.0, 2.0, 4.0]);
        h.observe(1.0); // le=1
        h.observe(1.5); // le=2
        h.observe(2.0); // le=2 (boundary is inclusive)
        h.observe(4.0001); // +Inf overflow
        let snap = h.snapshot();
        assert_eq!(snap.buckets, vec![1, 2, 0, 1]);
        assert_eq!(snap.count, 4);
        assert!((snap.sum - 8.5001).abs() < 1e-9);
    }

    #[test]
    fn histogram_smallest_bucket_catches_zero_and_negative() {
        let h = Histogram::new(&[1.0, 2.0]);
        h.observe(0.0);
        h.observe(-3.0);
        assert_eq!(h.snapshot().buckets, vec![2, 0, 0]);
    }

    #[test]
    fn quantiles_interpolate_within_the_target_bucket() {
        let h = Histogram::new(&[1.0, 2.0, 4.0]);
        // 10 samples uniform in (1, 2]: every quantile lands in bucket 1.
        for i in 0..10 {
            h.observe(1.0 + (i as f64 + 1.0) / 10.0);
        }
        // p50 → rank 5 of 10, all in bucket [1,2): 1 + (5/10)·(2−1) = 1.5.
        assert!((h.quantile(0.5) - 1.5).abs() < 1e-9, "{}", h.quantile(0.5));
        assert!((h.quantile(0.9) - 1.9).abs() < 1e-9);
        assert!((h.quantile(1.0) - 2.0).abs() < 1e-9);
        // Empty histogram answers 0, not NaN.
        assert_eq!(Histogram::new(&[1.0]).quantile(0.5), 0.0);
    }

    #[test]
    fn overflow_quantile_is_clamped_to_the_last_finite_bound() {
        let h = Histogram::new(&[1.0, 2.0]);
        h.observe(100.0);
        h.observe(200.0);
        assert_eq!(h.quantile(0.99), 2.0, "estimate cannot exceed the resolved range");
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn unsorted_bounds_panic() {
        let _ = Histogram::new(&[2.0, 1.0]);
    }

    #[test]
    fn concurrent_observes_lose_nothing() {
        let h = Histogram::new(&LATENCY_BUCKETS_S);
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let h = h.clone();
                std::thread::spawn(move || {
                    for i in 0..10_000 {
                        h.observe(1e-6 * ((t * 10_000 + i) % 100 + 1) as f64);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.count(), 40_000);
        assert_eq!(h.snapshot().buckets.iter().sum::<u64>(), 40_000);
        assert!(h.sum() > 0.0);
    }

    #[test]
    fn prometheus_rendering_golden() {
        let r = Registry::new();
        let c = r.counter_with("exadigit_requests_total", "Requests handled", &[("type", "Query")]);
        c.add(3);
        let g = r.gauge("exadigit_queue_depth", "Admitted requests waiting");
        g.set(2.0);
        let h = r.histogram("exadigit_request_seconds", "Handle time", &[0.5, 1.0]);
        h.observe(0.25);
        h.observe(0.75);
        h.observe(9.0);
        let expected = "\
# HELP exadigit_requests_total Requests handled
# TYPE exadigit_requests_total counter
exadigit_requests_total{type=\"Query\"} 3
# HELP exadigit_queue_depth Admitted requests waiting
# TYPE exadigit_queue_depth gauge
exadigit_queue_depth 2
# HELP exadigit_request_seconds Handle time
# TYPE exadigit_request_seconds histogram
exadigit_request_seconds_bucket{le=\"0.5\"} 1
exadigit_request_seconds_bucket{le=\"1\"} 2
exadigit_request_seconds_bucket{le=\"+Inf\"} 3
exadigit_request_seconds_sum 10
exadigit_request_seconds_count 3
";
        assert_eq!(r.render_prometheus(), expected);
    }

    #[test]
    fn label_values_are_escaped() {
        let r = Registry::new();
        r.counter_with("c_total", "c", &[("name", "a\"b\\c\nd")]).inc();
        let text = r.render_prometheus();
        assert!(text.contains("name=\"a\\\"b\\\\c\\nd\""), "{text}");
    }
}
