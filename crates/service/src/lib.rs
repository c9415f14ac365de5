//! Twin-as-a-service: a persistent scenario server with snapshot/fork
//! state.
//!
//! The paper's framework is not a batch simulator: ExaDigiT runs as a
//! *live* digital twin that tracks the real system and answers what-if
//! queries on demand. This crate is that service layer. A
//! [`TwinService`] keeps one **live twin** advancing through ingested
//! telemetry (a [`TelemetryFeed`] stands in for the real stream), takes
//! cheap deterministic **snapshots** of the full simulation state —
//! clock, queues, event calendar, accumulated outputs, cooling-model
//! internals — and answers **concurrent what-if queries** by *forking*
//! those snapshots instead of replaying from t = 0: a query branched
//! from "now" costs O(horizon), not O(elapsed + horizon), and a fork's
//! continuation is bit-identical to the original's (the `service_fork`
//! golden + property tests).
//!
//! Queries arrive over a newline-delimited-JSON protocol on plain TCP
//! ([`TwinServer`] / [`ServiceClient`]; grammar in `docs/SERVICE.md`),
//! are scheduled by a **bounded worker pool** (fixed reader set
//! multiplexing the sockets, a depth-limited request queue with
//! [`Response::Busy`] backpressure, per-connection in-flight caps —
//! no thread-per-connection; [`TwinServer::with_workers`] and its
//! sibling builders size it), fan out across the
//! workspace thread pool (UQ draws and query batches in one pool
//! pass), and are memoised in a size-aware LRU [`QueryCache`] keyed by
//! `(snapshot id, scenario fingerprint)` — asking the same question of
//! the same frozen state twice costs one hash lookup. Shutdown is a
//! drain: admitted requests finish and every server thread is joined
//! before [`ServerHandle::shutdown`] returns.
//!
//! The service also **survives restarts**: built with
//! [`TwinService::with_persist_dir`], every snapshot is written to disk
//! as it is taken (length-prefixed JSON, atomic tmp + rename — see
//! [`PersistError`] for the typed failure modes), capacity evictions
//! spill instead of vanishing, [`Request::Checkpoint`] captures the
//! live twin, and [`TwinService::recover`] brings the whole service
//! back from the directory alone with bit-identical answers
//! (`crates/service/tests/recovery.rs`, `docs/SERVICE.md` § 6).
//!
//! ```no_run
//! use exadigit_core::config::TwinConfig;
//! use exadigit_service::{Request, ServiceClient, TwinServer, TwinService, WhatIfSpec};
//! use exadigit_telemetry::replay::TelemetryFeed;
//!
//! let config = TwinConfig::frontier_power_only();
//! let feed = TelemetryFeed::synthetic(&config.system, 42, 1);
//! let service = TwinService::new(config, feed, 42).unwrap();
//! let handle = TwinServer::bind(service, "127.0.0.1:0").unwrap().spawn();
//! let mut client = ServiceClient::connect(handle.addr()).unwrap();
//! client.request(&Request::Advance { seconds: 43_200 }).unwrap();
//! let snap = client.request(&Request::Snapshot { label: "noon".into() }).unwrap();
//! # let _ = snap;
//! client
//!     .request(&Request::Query {
//!         snapshot_id: 1,
//!         spec: WhatIfSpec { horizon_s: 3_600, ..WhatIfSpec::default() },
//!     })
//!     .unwrap();
//! handle.shutdown();
//! ```

#![warn(missing_docs)]

mod cache;
mod client;
mod metrics;
mod persist;
mod pool;
mod protocol;
mod query;
mod server;
mod snapshot;

pub use cache::{outcome_bytes, scenario_fingerprint, QueryCache};
pub use client::ServiceClient;
pub use persist::{ManifestEntry, ManifestHeader, PersistError, MANIFEST_FORMAT_VERSION};
pub use pool::{ServerHandle, TwinServer};
pub use protocol::{
    read_message, write_message, BatchOutcome, CounterSample, GaugeSample, HistogramSample,
    MetricsReport, Request, Response, ServerStatus, SlowQueryEntry, TraceEntry, MAX_LINE_BYTES,
};
pub use query::{run_whatif, WhatIfOutcome, WhatIfSpec};
pub use server::TwinService;
pub use snapshot::{SnapshotInfo, SnapshotStore, StoreMemoryStats, TwinSnapshot};

// Re-exported so service consumers can build feeds without naming the
// telemetry crate.
pub use exadigit_telemetry::replay::TelemetryFeed;
