//! The service's observability hub: one [`Registry`] every layer feeds.
//!
//! [`ServiceObs`] pre-registers every hot-path instrument at
//! construction — per-request-type counters and latency histograms,
//! queue depth/wait, admission rejections, reader wakeups, cache and
//! snapshot-store instruments, and the event kernel's counters — and
//! hands the shared handles to the components that increment them
//! ([`crate::QueryCache`], [`crate::SnapshotStore`], the live twin via
//! `DigitalTwin::set_kernel_metrics`, and the worker pool). Exposition
//! (the `Metrics` verb and the Prometheus HTTP sidecar) reads the same
//! registry.
//!
//! The live-state gauges (`now`, queue sizes, PUE, the online backend's
//! fidelity counters, snapshot-store memory accounting) are not registry
//! instruments. [`status_samples`] derives them from a
//! [`crate::ServerStatus`] each time exposition collects, so the
//! `Status` verb, the `Metrics` verb and `GET /metrics` read one source
//! and agree by construction, whether observability is on or off. The
//! fidelity counters are *model state*, serialized with the twin; the
//! exposition reports them, it does not own them.
//!
//! Everything here is simulation-inert by construction: instruments
//! absorb values and never feed a number back into simulation
//! arithmetic — the `observability` bit-identity tests run the same
//! twin with metrics attached, detached, and contended and require
//! every recorded f64 to match to the bit.

use crate::cache::CacheMetrics;
use crate::protocol::{Request, ServerStatus};
use crate::snapshot::StoreMetrics;
use exadigit_obs::{Registry, SlowQueryLog, TraceRing};
use exadigit_obs::{Counter, Gauge, Histogram, MetricValue, Sample, LATENCY_BUCKETS_S};
use exadigit_raps::metrics::KernelMetrics;
use std::sync::atomic::{AtomicBool, Ordering};

/// Stable request-type names, indexed by [`request_kind`]. These are
/// the `type` label values on `exadigit_requests_total` and
/// `exadigit_request_seconds`.
pub(crate) const REQUEST_KINDS: [&str; 11] = [
    "Status",
    "Advance",
    "Snapshot",
    "ListSnapshots",
    "DropSnapshot",
    "Query",
    "QueryBatch",
    "Checkpoint",
    "Persist",
    "Shutdown",
    "Metrics",
];

/// Index of a request's type in [`REQUEST_KINDS`].
pub(crate) fn request_kind(request: &Request) -> usize {
    match request {
        Request::Status => 0,
        Request::Advance { .. } => 1,
        Request::Snapshot { .. } => 2,
        Request::ListSnapshots => 3,
        Request::DropSnapshot { .. } => 4,
        Request::Query { .. } => 5,
        Request::QueryBatch { .. } => 6,
        Request::Checkpoint => 7,
        Request::Persist { .. } => 8,
        Request::Shutdown => 9,
        Request::Metrics => 10,
    }
}

/// One-line summary of a request for the slow-query log (built lazily —
/// only requests that actually crossed the threshold pay for it).
pub(crate) fn request_detail(request: &Request) -> String {
    match request {
        Request::Advance { seconds } => format!("advance {seconds} s"),
        Request::Snapshot { label } => format!("label \"{label}\""),
        Request::DropSnapshot { snapshot_id } | Request::Persist { snapshot_id } => {
            format!("snapshot {snapshot_id}")
        }
        Request::Query { snapshot_id, spec } => format!(
            "snapshot {snapshot_id}, horizon {} s, draws {}",
            spec.horizon_s, spec.draws
        ),
        Request::QueryBatch { snapshot_id, specs } => {
            format!("snapshot {snapshot_id}, {} specs", specs.len())
        }
        _ => String::new(),
    }
}

/// Default slow-query threshold: 250 ms of queue + handle time. A cache
/// hit is ~µs and a fresh single-draw query ~ms, so anything here is a
/// big ensemble, a long advance, or real congestion.
pub(crate) const DEFAULT_SLOW_QUERY_US: u64 = 250_000;

/// Trace-ring capacity: enough to hold the full lifecycle of a burst
/// (3 events per request × ~85 requests) at a few hundred bytes each.
const TRACE_CAPACITY: usize = 256;

/// Slow-query log capacity.
const SLOW_LOG_CAPACITY: usize = 32;

/// The service-wide metrics registry plus every pre-registered
/// hot-path handle.
pub(crate) struct ServiceObs {
    /// The single namespace exposition reads.
    pub registry: Registry,
    /// Hot-path master switch (`TwinService::set_observability`). Off
    /// skips timestamping, tracing, and counting — the configuration the
    /// overhead bench compares against.
    enabled: AtomicBool,
    /// `exadigit_requests_total{type}` by [`request_kind`] index.
    pub requests_total: Vec<Counter>,
    /// `exadigit_request_seconds{type}` by [`request_kind`] index.
    pub handle_seconds: Vec<Histogram>,
    /// Time admitted requests spent queued before a worker picked them
    /// up.
    pub queue_wait_seconds: Histogram,
    /// Admitted requests currently in the bounded queue.
    pub queue_depth: Gauge,
    /// `Busy` answers: connection over its in-flight cap.
    pub busy_inflight: Counter,
    /// `Busy` answers: request queue full.
    pub busy_queue_full: Counter,
    /// Reader loop iterations that made progress (bytes read or
    /// requests admitted).
    pub wakeups_productive: Counter,
    /// Reader loop iterations that found every socket idle and napped.
    pub wakeups_wasted: Counter,
    /// Requests that crossed the slow-query threshold.
    pub slow_queries_total: Counter,
    /// Requests whose handler panicked; the worker answered `Error` and
    /// kept serving.
    pub handler_panics_total: Counter,
    /// Query-cache handles (shared with [`crate::QueryCache`]).
    pub cache: CacheMetrics,
    /// Snapshot-store handles (shared with [`crate::SnapshotStore`]).
    pub store: StoreMetrics,
    /// Event-kernel handles (shared with the live twin and every fork).
    pub kernel: KernelMetrics,
    /// Request-lifecycle trace ring.
    pub trace: TraceRing,
    /// Threshold-gated slow-query log.
    pub slowlog: SlowQueryLog,
}

impl ServiceObs {
    /// Build the registry and pre-register every hot-path instrument.
    pub fn new() -> Self {
        let registry = Registry::new();
        let requests_total = REQUEST_KINDS
            .iter()
            .map(|kind| {
                registry.counter_with(
                    "exadigit_requests_total",
                    "Requests handled, by request type",
                    &[("type", kind)],
                )
            })
            .collect();
        let handle_seconds = REQUEST_KINDS
            .iter()
            .map(|kind| {
                registry.histogram_with(
                    "exadigit_request_seconds",
                    "Service handle time, by request type",
                    &[("type", kind)],
                    &LATENCY_BUCKETS_S,
                )
            })
            .collect();
        let queue_wait_seconds = registry.histogram(
            "exadigit_queue_wait_seconds",
            "Time admitted requests waited in the bounded queue",
            &LATENCY_BUCKETS_S,
        );
        let queue_depth =
            registry.gauge("exadigit_queue_depth", "Admitted requests currently queued");
        let busy_inflight = registry.counter_with(
            "exadigit_busy_total",
            "Requests refused by admission control",
            &[("reason", "inflight_cap")],
        );
        let busy_queue_full = registry.counter_with(
            "exadigit_busy_total",
            "Requests refused by admission control",
            &[("reason", "queue_full")],
        );
        let wakeups_productive = registry.counter_with(
            "exadigit_reader_wakeups_total",
            "Reader multiplexer iterations, split by whether any socket had work",
            &[("kind", "productive")],
        );
        let wakeups_wasted = registry.counter_with(
            "exadigit_reader_wakeups_total",
            "Reader multiplexer iterations, split by whether any socket had work",
            &[("kind", "wasted")],
        );
        let slow_queries_total = registry.counter(
            "exadigit_slow_queries_total",
            "Requests slower than the slow-query threshold",
        );
        let handler_panics_total = registry.counter(
            "exadigit_handler_panics_total",
            "Requests whose handler panicked and were answered Error",
        );
        let cache = CacheMetrics {
            hits: registry.counter("exadigit_cache_hits_total", "Query-cache hits"),
            misses: registry.counter("exadigit_cache_misses_total", "Query-cache misses"),
            evictions: registry
                .counter("exadigit_cache_evictions_total", "Query-cache LRU evictions"),
            entries: registry.gauge("exadigit_cache_entries", "Outcomes currently memoised"),
            bytes: registry.gauge("exadigit_cache_bytes", "Resident bytes of memoised outcomes"),
        };
        let store = StoreMetrics {
            persist_seconds: registry.histogram(
                "exadigit_snapshot_persist_seconds",
                "Time to serialize and write one snapshot to the disk tier",
                &LATENCY_BUCKETS_S,
            ),
            rehydrate_seconds: registry.histogram(
                "exadigit_snapshot_rehydrate_seconds",
                "Time to load one spilled snapshot back from the disk tier",
                &LATENCY_BUCKETS_S,
            ),
            spills: registry.counter(
                "exadigit_snapshot_spills_total",
                "Resident snapshots evicted to the disk tier by the memory cap",
            ),
        };
        let kernel_events = |kind: &str| {
            registry.counter_with(
                "exadigit_kernel_events_total",
                "Events the simulation kernel stepped, by kind",
                &[("kind", kind)],
            )
        };
        let kernel = KernelMetrics {
            job_arrivals: kernel_events("job_arrival"),
            job_completions: kernel_events("job_completion"),
            wet_bulb_breakpoints: kernel_events("wet_bulb_breakpoint"),
            cooling_quanta: kernel_events("cooling_quantum"),
            record_boundaries: kernel_events("record_boundary"),
            gaps_batched: registry.counter(
                "exadigit_kernel_gaps_batched_total",
                "Constant-power gaps the kernel absorbed in closed form",
            ),
            cooled_quanta_batched: registry.counter(
                "exadigit_kernel_cooled_quanta_batched_total",
                "Cooling quanta collapsed through quasi-static repeat_step",
            ),
            samples_backfilled: registry.counter(
                "exadigit_kernel_samples_backfilled_total",
                "Output samples materialised by closed-form backfill",
            ),
            power_lanes: registry.counter(
                "exadigit_kernel_power_lanes_total",
                "Power models carried as lanes over another's schedule, one per lane per run",
            ),
        };
        ServiceObs {
            registry,
            enabled: AtomicBool::new(true),
            requests_total,
            handle_seconds,
            queue_wait_seconds,
            queue_depth,
            busy_inflight,
            busy_queue_full,
            wakeups_productive,
            wakeups_wasted,
            slow_queries_total,
            handler_panics_total,
            cache,
            store,
            kernel,
            trace: TraceRing::new(TRACE_CAPACITY),
            slowlog: SlowQueryLog::new(SLOW_LOG_CAPACITY, DEFAULT_SLOW_QUERY_US),
        }
    }

    /// Hot-path switch: true when instrumentation should run.
    #[inline]
    pub fn on(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Flip the master switch (the uninstrumented arm of the overhead
    /// bench; counters keep their totals, they just stop moving).
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }
}

/// The live-state gauges of one [`ServerStatus`], in a fixed order that
/// exposition appends after the registry's own samples. A `None` field
/// (PUE without cooling, a fidelity counter the backend lacks) is left
/// out, so a power-only twin never shows a misleading zero.
pub(crate) fn status_samples(s: &ServerStatus) -> Vec<Sample> {
    let some = |v: u64| Some(v as f64);
    let count = |v: Option<u64>| v.map(|v| v as f64);
    let gauges = [
        ("exadigit_live_now_seconds", "Live twin's simulated second", some(s.now_s)),
        ("exadigit_live_running_jobs", "Jobs running on the live twin", some(s.running_jobs)),
        ("exadigit_live_pending_jobs", "Jobs queued on the live twin", some(s.pending_jobs)),
        ("exadigit_jobs_ingested", "Jobs ingested from the telemetry feed", some(s.jobs_ingested)),
        ("exadigit_snapshots", "Snapshots held across both tiers", some(s.snapshots)),
        ("exadigit_snapshots_resident", "Snapshots resident in memory", some(s.snapshots_resident)),
        (
            "exadigit_snapshots_spilled",
            "Snapshots held only on the disk tier",
            some(s.snapshots_spilled),
        ),
        (
            "exadigit_snapshot_shared_bytes",
            "Recorded-history bytes resident snapshots share by refcount",
            some(s.snapshot_shared_bytes),
        ),
        (
            "exadigit_snapshot_owned_bytes",
            "Recorded-history bytes uniquely owned by resident snapshots",
            some(s.snapshot_owned_bytes),
        ),
        ("exadigit_pue", "Live twin's latest PUE", s.pue),
        (
            "exadigit_surrogate_extrapolations",
            "Queries the L3 surrogate answered outside its training envelope",
            count(s.surrogate_extrapolations),
        ),
        (
            "exadigit_online_l3_steps",
            "Cooling quanta served from a trusted online fit",
            count(s.online_l3_steps),
        ),
        (
            "exadigit_online_l4_steps",
            "Cooling quanta that paid the L4 transient plant",
            count(s.online_l4_steps),
        ),
        (
            "exadigit_online_fallback_steps",
            "L4 quanta taken after trust existed (envelope misses)",
            count(s.online_fallback_steps),
        ),
        (
            "exadigit_online_trusted_regimes",
            "Staging regimes whose online fit is currently trusted",
            count(s.online_trusted_regimes),
        ),
    ];
    gauges
        .into_iter()
        .filter_map(|(name, help, value)| {
            let value = MetricValue::Gauge(value?);
            Some(Sample { name: name.into(), help: help.into(), labels: Vec::new(), value })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_request_maps_to_its_kind_name() {
        use crate::query::WhatIfSpec;
        let reqs: Vec<(Request, &str)> = vec![
            (Request::Status, "Status"),
            (Request::Advance { seconds: 1 }, "Advance"),
            (Request::Snapshot { label: "x".into() }, "Snapshot"),
            (Request::ListSnapshots, "ListSnapshots"),
            (Request::DropSnapshot { snapshot_id: 1 }, "DropSnapshot"),
            (Request::Query { snapshot_id: 1, spec: WhatIfSpec::default() }, "Query"),
            (Request::QueryBatch { snapshot_id: 1, specs: vec![] }, "QueryBatch"),
            (Request::Checkpoint, "Checkpoint"),
            (Request::Persist { snapshot_id: 1 }, "Persist"),
            (Request::Shutdown, "Shutdown"),
            (Request::Metrics, "Metrics"),
        ];
        for (req, name) in reqs {
            assert_eq!(REQUEST_KINDS[request_kind(&req)], name);
        }
    }

    #[test]
    fn hot_path_instruments_are_preregistered() {
        let obs = ServiceObs::new();
        obs.requests_total[request_kind(&Request::Status)].inc();
        obs.kernel.gaps_batched.inc();
        obs.kernel.power_lanes.add(3);
        obs.cache.hits.inc();
        let text = obs.registry.render_prometheus();
        assert!(text.contains("exadigit_requests_total{type=\"Status\"} 1"), "{text}");
        assert!(text.contains("exadigit_kernel_gaps_batched_total 1"), "{text}");
        assert!(text.contains("exadigit_kernel_power_lanes_total 3"), "{text}");
        assert!(text.contains("exadigit_cache_hits_total 1"), "{text}");
        assert!(text.contains("exadigit_request_seconds_bucket"), "{text}");
        // Live-state gauges are derived from a status at collection, not
        // registered.
        assert!(!text.contains("exadigit_live_now_seconds"), "{text}");
    }
}
