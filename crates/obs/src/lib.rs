//! Lock-light observability for the twin service: a metrics registry,
//! request-lifecycle tracing, and Prometheus text exposition.
//!
//! The paper's twin is an *operational* tool — ORNL runs ExaDigiT
//! against live Frontier telemetry — so the serving tier needs to be
//! watchable while it runs, not just benchmarkable offline. This crate
//! is the shared core the rest of the workspace instruments itself
//! with:
//!
//! - [`Counter`] / [`Gauge`] / [`Histogram`] — `Arc`-shared atomics;
//!   the hot path (`inc`, `set`, `observe`) takes no lock and
//!   allocates nothing. Histograms are fixed-bucket with quantile
//!   estimation from the bucket counts ([`HistogramSnapshot::quantile`]),
//!   so p50/p99 cost nothing per sample.
//! - [`Registry`] — names instruments, deduplicates registration by
//!   `(name, labels)`, and snapshots every value ([`Registry::samples`]);
//!   [`render_prometheus`] renders any sample list (the registry's, plus
//!   whatever a caller derives at collection time) in the Prometheus
//!   text exposition format.
//! - [`TraceRing`] / [`SlowQueryLog`] — a bounded ring of structured
//!   request-lifecycle events (admitted → executing → written with
//!   per-stage timings) and a threshold-gated log of the slowest
//!   requests.
//! - [`HttpExporter`] — a one-thread plain-HTTP sidecar serving
//!   `GET /metrics`, so a Prometheus scraper (or `curl`) can watch a
//!   live server without speaking the NDJSON protocol.
//!
//! **Simulation inertness is a hard contract**: instruments only ever
//! *absorb* values — nothing in this crate feeds back into simulation
//! arithmetic, so a twin runs bit-identically with observability
//! enabled, disabled, or contended (pinned by the workspace's
//! `observability` bit-identity tests).
//!
//! The crate is std-only and dependency-free, so every layer (raps
//! kernel included) can depend on it without dragging serde or the
//! service stack into leaf crates.

#![warn(missing_docs)]

mod http;
mod metrics;
mod trace;

pub use http::HttpExporter;
pub use metrics::{
    render_prometheus, Counter, Gauge, Histogram, HistogramSnapshot, MetricValue, Registry,
    Sample, LATENCY_BUCKETS_S,
};
pub use trace::{SlowQuery, SlowQueryLog, Stage, TraceEvent, TraceRing};
