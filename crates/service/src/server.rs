//! The protocol-agnostic twin service.
//!
//! [`TwinService`] is the core the serving tier (see [`crate::pool`])
//! schedules requests onto: one live twin fed by a [`TelemetryFeed`], a
//! [`SnapshotStore`], and a [`QueryCache`], all behind locks so
//! [`TwinService::handle`] is callable from any worker thread. The
//! locking is deliberately asymmetric: ingest ([`Request::Advance`])
//! serialises on the live-twin mutex, while what-if queries only take
//! that lock long enough to resolve a snapshot `Arc` — the fork and the
//! horizon run execute lock-free, which is what makes *concurrent*
//! scenario queries concurrent in practice. No method holds two of the
//! three locks at once ([`Request::Status`] reads the cache and snapshot
//! stores before it takes the live twin), so a long `Advance` can never
//! wedge requests that don't need the live twin.

use crate::cache::{scenario_fingerprint, QueryCache};
use crate::metrics::{request_kind, status_samples, ServiceObs};
use crate::persist::{checkpoint_path, read_json, write_json};
use crate::protocol::{
    BatchOutcome, CounterSample, GaugeSample, HistogramSample, MetricsReport, Request, Response,
    ServerStatus, SlowQueryEntry, TraceEntry,
};
use crate::query::{run_whatif, WhatIfOutcome, WhatIfSpec};
use crate::snapshot::{SnapshotStore, TwinSnapshot};
use exadigit_obs::{MetricValue, Sample};
use exadigit_core::config::TwinConfig;
use exadigit_core::twin::DigitalTwin;
use exadigit_sim::ensemble::EnsembleRunner;
use exadigit_telemetry::replay::TelemetryFeed;
use parking_lot::Mutex;
use std::path::PathBuf;
use std::sync::Arc;

/// The live twin plus its telemetry feed (one lock, one writer at a
/// time: ingest is inherently serial).
struct LiveState {
    twin: DigitalTwin,
    feed: TelemetryFeed,
    jobs_ingested: u64,
    /// Successful `Advance` batches since the last checkpoint (manual
    /// or automatic); drives the opt-in auto-checkpoint cadence.
    batches_since_checkpoint: u64,
}

/// On-disk form of the live-twin checkpoint (`live.json`): the twin's
/// versioned state blob plus everything else [`TwinService::recover`]
/// needs to resume ingest exactly where it stopped — the telemetry
/// feed's cursor and the ingest counter.
#[derive(serde::Serialize, serde::Deserialize)]
struct PersistedCheckpoint {
    now_s: u64,
    jobs_ingested: u64,
    feed: TelemetryFeed,
    twin: serde::Value,
}

/// The persistent twin service: live twin, snapshots, query cache.
pub struct TwinService {
    live: Mutex<LiveState>,
    snapshots: Mutex<SnapshotStore>,
    cache: Mutex<QueryCache>,
    /// Pool width for query fan-out (`None` = process default).
    threads: Option<usize>,
    /// Checkpoint the live twin after every N successful ingest batches
    /// (`None` = checkpoints stay explicit-only).
    auto_checkpoint_every: Option<u64>,
    /// The observability hub: one registry every layer feeds, plus the
    /// trace ring and slow-query log. Shared with the worker pool.
    obs: Arc<ServiceObs>,
}

impl TwinService {
    /// Build the service: construct the live twin from `config`, wire the
    /// feed's wet-bulb forcing into it, and derive all snapshot RNG
    /// streams from `seed`. Defaults: 32 snapshots, 1024 cached outcomes,
    /// process-default pool width (see the `with_*` builders).
    pub fn new(config: TwinConfig, feed: TelemetryFeed, seed: u64) -> Result<Self, String> {
        let obs = Arc::new(ServiceObs::new());
        let mut twin = DigitalTwin::new(config)?;
        twin.set_wet_bulb(feed.wet_bulb().clone());
        // Route the kernel's, cache's and store's instruments through
        // the shared registry so one namespace observes every layer.
        twin.set_kernel_metrics(obs.kernel.clone());
        let mut store = SnapshotStore::new(32, seed);
        store.set_metrics(obs.store.clone());
        let mut cache = QueryCache::new(1024);
        cache.set_metrics(obs.cache.clone());
        Ok(TwinService {
            live: Mutex::new(LiveState {
                twin,
                feed,
                jobs_ingested: 0,
                batches_since_checkpoint: 0,
            }),
            snapshots: Mutex::new(store),
            cache: Mutex::new(cache),
            threads: None,
            auto_checkpoint_every: None,
            obs,
        })
    }

    /// Cap the snapshot store (builder style). Errs once any snapshot
    /// has been taken: the cap is serving configuration, not a runtime
    /// control, and re-capping the store would drop live snapshot ids.
    pub fn with_max_snapshots(self, max_snapshots: usize) -> Result<Self, String> {
        {
            let mut store = self.snapshots.lock();
            if !store.is_empty() {
                return Err(format!(
                    "snapshot cap must be configured before serving ({} snapshots already taken)",
                    store.len()
                ));
            }
            store.set_max_snapshots(max_snapshots)?;
        }
        Ok(self)
    }

    /// Enable the durable tier (builder style): every snapshot taken
    /// from now on is also written under `dir`, capacity evictions spill
    /// to disk instead of erroring, and [`Request::Checkpoint`] /
    /// [`TwinService::recover`] become available. Must be configured
    /// before any snapshot is taken, and refuses a directory that
    /// already holds a manifest (recover that instead).
    pub fn with_persist_dir(self, dir: impl Into<PathBuf>) -> Result<Self, String> {
        let store = self.snapshots.into_inner().with_persist_dir(dir)?;
        Ok(TwinService { snapshots: Mutex::new(store), ..self })
    }

    /// Restore a service from a persist directory: the snapshot store's
    /// identity and every persisted snapshot come back from the manifest
    /// (spilled — rehydrated lazily on first use), and the live twin,
    /// feed cursor, and ingest counter come back from the last
    /// [`Request::Checkpoint`]. The query cache starts cold: entries are
    /// keyed by `(snapshot id, fingerprint)` and ids are never reused
    /// across recoveries, so a cold cache recomputes identical answers
    /// rather than risking stale ones. Damaged manifest lines are
    /// reported via [`TwinService::recovery_warnings`], not silently
    /// dropped; a missing or torn checkpoint is a typed error.
    pub fn recover(dir: impl Into<PathBuf>) -> Result<Self, String> {
        let obs = Arc::new(ServiceObs::new());
        let dir = dir.into();
        let mut store = SnapshotStore::recover(&dir).map_err(|e| e.to_string())?;
        store.set_metrics(obs.store.clone());
        let checkpoint: PersistedCheckpoint =
            read_json(&checkpoint_path(&dir)).map_err(|e| e.to_string())?;
        let mut twin = DigitalTwin::from_state(&checkpoint.twin)?;
        if twin.now() != checkpoint.now_s {
            return Err(format!(
                "checkpoint claims t = {} s but the restored twin is at t = {} s",
                checkpoint.now_s,
                twin.now()
            ));
        }
        // Instruments are diagnostics, not state: a recovered service
        // starts them at zero (the checkpoint never carried them).
        twin.set_kernel_metrics(obs.kernel.clone());
        let mut cache = QueryCache::new(1024);
        cache.set_metrics(obs.cache.clone());
        Ok(TwinService {
            live: Mutex::new(LiveState {
                twin,
                feed: checkpoint.feed,
                jobs_ingested: checkpoint.jobs_ingested,
                batches_since_checkpoint: 0,
            }),
            snapshots: Mutex::new(store),
            cache: Mutex::new(cache),
            threads: None,
            auto_checkpoint_every: None,
            obs,
        })
    }

    /// Damage reports collected while recovering the snapshot manifest
    /// (empty for a clean recovery or a service that was never
    /// recovered).
    pub fn recovery_warnings(&self) -> Vec<String> {
        self.snapshots.lock().recovery_warnings().to_vec()
    }

    /// Cap the query cache's entry count (builder style); the byte
    /// budget is preserved.
    pub fn with_cache_capacity(self, capacity: usize) -> Self {
        let bytes = self.cache.lock().byte_budget();
        let mut cache = QueryCache::new(capacity).with_byte_budget(bytes);
        cache.set_metrics(self.obs.cache.clone());
        TwinService { cache: Mutex::new(cache), ..self }
    }

    /// Cap the query cache's resident bytes (builder style); the entry
    /// cap is preserved.
    pub fn with_cache_bytes(self, bytes: usize) -> Self {
        let capacity = self.cache.lock().capacity();
        let mut cache = QueryCache::new(capacity).with_byte_budget(bytes);
        cache.set_metrics(self.obs.cache.clone());
        TwinService { cache: Mutex::new(cache), ..self }
    }

    /// Turn the hot-path instrumentation on or off (on by default; one
    /// relaxed atomic store). Off skips request timing, tracing and
    /// counting — the arm the overhead benchmark compares against, on
    /// the *same* service instance. Exposition keeps working either way:
    /// counters stop moving, and the live-state gauges stay current.
    pub fn set_observability(&self, enabled: bool) {
        self.obs.set_enabled(enabled);
    }

    /// Pin the pool width query fan-out uses (builder style).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// Opt in to automatic checkpoints (builder style): after every
    /// `batches` successful `Advance` requests the live twin is
    /// checkpointed exactly as [`Request::Checkpoint`] would, bounding
    /// how much ingest a crash can lose without any client discipline.
    /// Requires the durable tier ([`TwinService::with_persist_dir`] or
    /// [`TwinService::recover`]) to be configured first — an
    /// auto-checkpoint with nowhere to write would turn every Nth
    /// advance into an error.
    pub fn with_auto_checkpoint_every(mut self, batches: u64) -> Result<Self, String> {
        if batches == 0 {
            return Err("auto-checkpoint cadence must be at least 1 batch".to_string());
        }
        if self.snapshots.lock().persist_dir().is_none() {
            return Err(
                "auto-checkpoint needs a persist directory; call with_persist_dir first"
                    .to_string(),
            );
        }
        self.auto_checkpoint_every = Some(batches);
        Ok(self)
    }

    /// Handle one request. Thread-safe: ingest serialises on the live
    /// twin, queries run lock-free after resolving their snapshot.
    /// Every call lands in `exadigit_requests_total{type}` and the
    /// per-type latency histogram (unless observability is off).
    pub fn handle(&self, request: &Request) -> Response {
        if !self.obs.on() {
            return self.dispatch(request);
        }
        let started = std::time::Instant::now();
        let response = self.dispatch(request);
        let kind = request_kind(request);
        self.obs.requests_total[kind].inc();
        self.obs.handle_seconds[kind].observe_duration(started.elapsed());
        response
    }

    fn dispatch(&self, request: &Request) -> Response {
        match request {
            Request::Status => Response::Status(self.server_status()),
            Request::Advance { seconds } => self.advance(*seconds),
            Request::Snapshot { label } => self.take_snapshot(label.clone()),
            Request::ListSnapshots => Response::Snapshots(self.snapshots.lock().list()),
            Request::DropSnapshot { snapshot_id } => self.drop_snapshot(*snapshot_id),
            Request::Query { snapshot_id, spec } => self.query(*snapshot_id, spec),
            Request::QueryBatch { snapshot_id, specs } => self.query_batch(*snapshot_id, specs),
            Request::Checkpoint => self.checkpoint(),
            Request::Persist { snapshot_id } => self.persist(*snapshot_id),
            Request::Shutdown => Response::ShuttingDown,
            Request::Metrics => Response::Metrics(self.metrics_report()),
        }
    }

    /// The observability hub (shared with the worker pool, which feeds
    /// the queue/wakeup instruments and the trace ring).
    pub(crate) fn obs(&self) -> &Arc<ServiceObs> {
        &self.obs
    }

    /// Every registry sample, then the live-state gauges derived from a
    /// fresh [`ServerStatus`]: what both exposition surfaces collect.
    fn samples(&self) -> Vec<Sample> {
        let mut samples = self.obs.registry.samples();
        samples.extend(status_samples(&self.server_status()));
        samples
    }

    /// Render every sample in Prometheus text exposition format 0.0.4.
    /// This is what the optional HTTP sidecar
    /// (`TwinServer::with_metrics_http`) serves on `GET /metrics`.
    pub fn render_prometheus(&self) -> String {
        exadigit_obs::render_prometheus(&self.samples())
    }

    /// Assemble the typed [`MetricsReport`] the `Metrics` verb answers
    /// with: every sample (live-state gauges included), the trace ring,
    /// the slow-query log, and any recovery warnings.
    pub fn metrics_report(&self) -> MetricsReport {
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        let mut histograms = Vec::new();
        for sample in self.samples() {
            match sample.value {
                MetricValue::Counter(value) => counters.push(CounterSample {
                    name: sample.name,
                    labels: sample.labels,
                    value,
                }),
                MetricValue::Gauge(value) => gauges.push(GaugeSample {
                    name: sample.name,
                    labels: sample.labels,
                    value,
                }),
                MetricValue::Histogram(h) => histograms.push(HistogramSample {
                    name: sample.name,
                    labels: sample.labels,
                    count: h.count,
                    sum: h.sum,
                    p50: h.quantile(0.50),
                    p90: h.quantile(0.90),
                    p99: h.quantile(0.99),
                }),
            }
        }
        let slow_queries = self
            .obs
            .slowlog
            .entries()
            .into_iter()
            .map(|s| SlowQueryEntry {
                at_us: s.at_us,
                request: s.request.to_string(),
                detail: s.detail,
                queue_us: s.queue_us,
                handle_us: s.handle_us,
            })
            .collect();
        let trace = self
            .obs
            .trace
            .recent(usize::MAX)
            .into_iter()
            .map(|e| TraceEntry {
                at_us: e.at_us,
                conn: e.conn,
                seq: e.seq,
                request: e.request.to_string(),
                stage: e.stage.name().to_string(),
                stage_us: e.stage_us,
            })
            .collect();
        MetricsReport {
            counters,
            gauges,
            histograms,
            slow_queries,
            trace,
            recovery_warnings: self.recovery_warnings(),
        }
    }

    /// Build the `Status` payload: the one place live state is read.
    /// Exposition derives its live-state gauges from this, so the three
    /// surfaces agree by construction.
    fn server_status(&self) -> ServerStatus {
        // One lock at a time: holding the live twin across the other
        // locks would let a long Advance wedge every Status probe that
        // queued behind it on those stores.
        let (cache_entries, cache_hits, cache_misses) = {
            let cache = self.cache.lock();
            let (hits, misses) = cache.stats();
            (cache.len() as u64, hits, misses)
        };
        let (snapshots, memory) = {
            let store = self.snapshots.lock();
            (store.len() as u64, store.memory_stats())
        };
        let live = self.live.lock();
        let (running, pending) = live.twin.queue_state();
        // Fidelity diagnostics ride the same FMI locals every other probe
        // uses; backends that don't expose a counter simply answer None
        // and the field stays absent.
        let counter = |name: &str| live.twin.cooling_output(name).map(|v| v as u64);
        ServerStatus {
            now_s: live.twin.now(),
            running_jobs: running as u64,
            pending_jobs: pending as u64,
            jobs_ingested: live.jobs_ingested,
            feed_pending_jobs: live.feed.pending_jobs() as u64,
            snapshots,
            cache_entries,
            cache_hits,
            cache_misses,
            pue: live.twin.cooling_output("pue"),
            surrogate_extrapolations: counter("surrogate.extrapolation_count"),
            online_l3_steps: counter("online.l3_steps"),
            online_l4_steps: counter("online.l4_steps"),
            online_fallback_steps: counter("online.fallback_steps"),
            online_trusted_regimes: counter("online.trusted_regimes"),
            snapshots_resident: memory.resident as u64,
            snapshots_spilled: memory.spilled as u64,
            snapshot_shared_bytes: memory.shared_bytes as u64,
            snapshot_owned_bytes: memory.owned_bytes as u64,
        }
    }

    fn advance(&self, seconds: u64) -> Response {
        // Bound the request before taking the ingest lock: an absurd
        // horizon would hold the live-twin mutex for an unbounded run
        // (and overflow the target arithmetic), wedging every client.
        const MAX_ADVANCE_S: u64 = 366 * 86_400;
        if seconds > MAX_ADVANCE_S {
            return Response::Error {
                message: format!(
                    "advance of {seconds} s exceeds the {MAX_ADVANCE_S} s (1 year) per-request cap"
                ),
            };
        }
        let (now_s, ingested, checkpoint_due) = {
            let mut live = self.live.lock();
            let target = live.twin.now() + seconds;
            let batch = live.feed.poll(target);
            let ingested = batch.len() as u64;
            live.jobs_ingested += ingested;
            if !batch.is_empty() {
                live.twin.submit(batch);
            }
            if let Err(e) = live.twin.run(seconds) {
                return Response::Error { message: format!("advance failed: {e}") };
            }
            live.batches_since_checkpoint += 1;
            let due = self
                .auto_checkpoint_every
                .is_some_and(|n| live.batches_since_checkpoint >= n);
            if due {
                live.batches_since_checkpoint = 0;
            }
            (live.twin.now(), ingested, due)
        };
        // The auto-checkpoint runs outside the live lock (checkpoint()
        // re-takes it), so a slow disk delays this one response but
        // never wedges concurrent requests behind the ingest mutex.
        if checkpoint_due {
            if let Response::Error { message } = self.checkpoint() {
                return Response::Error {
                    message: format!(
                        "advance succeeded (t = {now_s} s) but the auto-checkpoint failed: {message}"
                    ),
                };
            }
        }
        Response::Advanced { now_s, jobs_ingested: ingested }
    }

    fn take_snapshot(&self, label: String) -> Response {
        // Clone under the live lock so the frozen state is a consistent
        // instant — O(state), not O(elapsed) — then register it outside.
        let frozen = {
            let live = self.live.lock();
            live.twin.fork()
        };
        match frozen.and_then(|twin| self.snapshots.lock().adopt(twin, label)) {
            Ok(snapshot) => Response::SnapshotTaken(snapshot.info()),
            Err(message) => Response::Error { message },
        }
    }

    fn drop_snapshot(&self, snapshot_id: u64) -> Response {
        if self.snapshots.lock().drop_snapshot(snapshot_id) {
            self.cache.lock().invalidate_snapshot(snapshot_id);
            Response::Dropped { snapshot_id }
        } else {
            Response::Error { message: format!("unknown snapshot {snapshot_id}") }
        }
    }

    /// Capture the live twin to `live.json` so [`TwinService::recover`]
    /// can resume from it. The state is cloned under the live lock (a
    /// consistent instant, O(state)); the disk write happens under the
    /// store lock instead, so a slow disk never wedges ingest and
    /// concurrent checkpoints serialise on the file.
    fn checkpoint(&self) -> Response {
        let checkpoint = {
            let live = self.live.lock();
            match live.twin.save_state() {
                Ok(twin) => PersistedCheckpoint {
                    now_s: live.twin.now(),
                    jobs_ingested: live.jobs_ingested,
                    feed: live.feed.clone(),
                    twin,
                },
                Err(e) => {
                    return Response::Error { message: format!("checkpoint failed: {e}") }
                }
            }
        };
        let store = self.snapshots.lock();
        let Some(dir) = store.persist_dir() else {
            return Response::Error {
                message: "no persist directory configured; checkpoint needs a durable tier"
                    .to_string(),
            };
        };
        match write_json(&checkpoint_path(dir), &checkpoint) {
            Ok(bytes) => {
                // A durable checkpoint restarts the auto-cadence clock
                // whether it was manual or automatic: the crash-loss
                // bound is "batches since last durable write".
                drop(store);
                self.live.lock().batches_since_checkpoint = 0;
                Response::Checkpointed { now_s: checkpoint.now_s, bytes }
            }
            Err(e) => Response::Error { message: format!("checkpoint failed: {e}") },
        }
    }

    fn persist(&self, snapshot_id: u64) -> Response {
        match self.snapshots.lock().persist(snapshot_id) {
            Ok(bytes) => Response::Persisted { snapshot_id, bytes },
            Err(message) => Response::Error { message },
        }
    }

    fn resolve(&self, snapshot_id: u64) -> Result<Arc<TwinSnapshot>, String> {
        match self.snapshots.lock().get(snapshot_id) {
            Ok(Some(snapshot)) => Ok(snapshot),
            Ok(None) => Err(format!("unknown snapshot {snapshot_id}")),
            // A spilled snapshot whose file is torn or corrupt degrades
            // to a per-request typed error, never a panic.
            Err(e) => Err(format!("snapshot {snapshot_id} failed to load: {e}")),
        }
    }

    fn query(&self, snapshot_id: u64, spec: &WhatIfSpec) -> Response {
        let snapshot = match self.resolve(snapshot_id) {
            Ok(s) => s,
            Err(message) => return Response::Error { message },
        };
        let fingerprint = scenario_fingerprint(spec);
        if let Some(outcome) = self.cache.lock().get(snapshot_id, fingerprint) {
            return Response::Answer { cached: true, outcome };
        }
        // Lock-free from here: the Arc keeps the frozen state alive and
        // `run_whatif` is pure, so concurrent identical queries at worst
        // compute the same answer twice.
        match run_whatif(&snapshot, spec, self.threads) {
            Ok(outcome) => {
                self.cache.lock().insert(snapshot_id, fingerprint, outcome.clone());
                Response::Answer { cached: false, outcome }
            }
            Err(message) => Response::Error { message },
        }
    }

    fn query_batch(&self, snapshot_id: u64, specs: &[WhatIfSpec]) -> Response {
        let snapshot = match self.resolve(snapshot_id) {
            Ok(s) => s,
            Err(message) => return Response::Error { message },
        };
        let fingerprints: Vec<u64> = specs.iter().map(scenario_fingerprint).collect();
        let mut slots: Vec<Option<BatchOutcome>> = {
            let mut cache = self.cache.lock();
            fingerprints
                .iter()
                .map(|&fp| cache.get(snapshot_id, fp).map(BatchOutcome::Ok))
                .collect()
        };
        let cached_hits = slots.iter().filter(|s| s.is_some()).count() as u64;

        // One pool pass over the misses, outcomes gathered in spec order.
        // Each miss gets the service pool width too: a spec with
        // draws > 1 fans its own forks, and when the batch has fewer
        // misses than workers those draws fill the idle slots (nested
        // calls from an occupied pool simply run inline). Outcomes are
        // width-invariant either way, so cache coherence is unaffected.
        let misses: Vec<usize> = (0..specs.len()).filter(|&i| slots[i].is_none()).collect();
        if !misses.is_empty() {
            let mut runner = EnsembleRunner::new(0);
            if let Some(n) = self.threads {
                runner = runner.threads(n);
            }
            let computed: Vec<(usize, Result<WhatIfOutcome, String>)> = runner
                .map(misses, |_ctx, i| (i, run_whatif(&snapshot, &specs[i], self.threads)));
            // Every success is cached and reported; a failed spec fills
            // only its own slot with its error — siblings keep their
            // computed outcomes instead of being discarded wholesale.
            let mut cache = self.cache.lock();
            for (i, result) in computed {
                slots[i] = Some(match result {
                    Ok(outcome) => {
                        cache.insert(snapshot_id, fingerprints[i], outcome.clone());
                        BatchOutcome::Ok(outcome)
                    }
                    Err(message) => BatchOutcome::Err {
                        message: format!("spec {i} ({}): {message}", specs[i].label),
                    },
                });
            }
        }
        Response::Answers {
            cached_hits,
            outcomes: slots.into_iter().map(|s| s.expect("filled above")).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exadigit_core::config::{CoolingBackend, SurrogateSource};
    use exadigit_core::online::OnlineSurrogateConfig;
    use exadigit_core::surrogate::{Sample, Surrogate};
    use exadigit_raps::job::{Job, UtilTrace};
    use exadigit_raps::uq::UqPerturbations;
    use exadigit_telemetry::replay::CoolingTrace;

    fn service() -> TwinService {
        let config = TwinConfig::frontier_power_only();
        let feed = TelemetryFeed::synthetic(&config.system, 7, 1);
        TwinService::new(config, feed, 7).unwrap().with_threads(2)
    }

    #[test]
    fn advance_ingests_the_feed() {
        let svc = service();
        let r = svc.handle(&Request::Advance { seconds: 1_800 });
        let Response::Advanced { now_s, jobs_ingested } = r else {
            panic!("unexpected {r:?}");
        };
        assert_eq!(now_s, 1_800);
        assert!(jobs_ingested > 0, "a synthetic half hour has arrivals");
        let Response::Status(status) = svc.handle(&Request::Status) else { panic!() };
        assert_eq!(status.now_s, 1_800);
        assert_eq!(status.jobs_ingested, jobs_ingested);
        // Power-only twin: no cooling backend, so every fidelity
        // diagnostic is absent rather than zero.
        assert_eq!(status.pue, None);
        assert_eq!(status.surrogate_extrapolations, None);
        assert_eq!(status.online_l3_steps, None);
        assert_eq!(status.online_l4_steps, None);
        assert_eq!(status.online_trusted_regimes, None);
    }

    #[test]
    fn status_surfaces_online_fidelity_counters() {
        let config = TwinConfig::marconi100_like()
            .with_backend(exadigit_core::config::CoolingBackend::Online(
                exadigit_core::online::OnlineSurrogateConfig::default(),
            ));
        let feed = TelemetryFeed::synthetic(&config.system, 5, 1);
        let svc = TwinService::new(config, feed, 5).unwrap().with_threads(2);
        svc.handle(&Request::Advance { seconds: 1_800 });
        let Response::Status(status) = svc.handle(&Request::Status) else { panic!() };
        // Every cooling quantum was answered by exactly one of the two
        // fidelities, and the counters say so through the wire protocol.
        let l4 = status.online_l4_steps.expect("online backend exposes online.l4_steps");
        let l3 = status.online_l3_steps.expect("online backend exposes online.l3_steps");
        assert_eq!(l4 + l3, 1_800 / 15, "every quantum is either L3 or L4");
        assert!(l4 > 0, "an untrained start must pay L4 first");
        assert!(status.online_trusted_regimes.is_some());
        assert!(status.pue.is_some(), "online backend serves pue like any other");
        // The offline-surrogate extrapolation counter belongs to the
        // Surrogate backend only.
        assert_eq!(status.surrogate_extrapolations, None);
        let fallback = status.online_fallback_steps.expect("online backend exposes fallbacks");
        assert!(fallback <= l4, "a fallback is an L4 quantum");

        // Every live-state field equals its gauge on both exposition
        // surfaces.
        let fields = [
            ("exadigit_live_now_seconds", status.now_s as f64),
            ("exadigit_live_running_jobs", status.running_jobs as f64),
            ("exadigit_live_pending_jobs", status.pending_jobs as f64),
            ("exadigit_jobs_ingested", status.jobs_ingested as f64),
            ("exadigit_snapshots", status.snapshots as f64),
            ("exadigit_snapshots_resident", status.snapshots_resident as f64),
            ("exadigit_snapshots_spilled", status.snapshots_spilled as f64),
            ("exadigit_snapshot_shared_bytes", status.snapshot_shared_bytes as f64),
            ("exadigit_snapshot_owned_bytes", status.snapshot_owned_bytes as f64),
            ("exadigit_pue", status.pue.unwrap()),
            ("exadigit_online_l3_steps", l3 as f64),
            ("exadigit_online_l4_steps", l4 as f64),
            ("exadigit_online_fallback_steps", fallback as f64),
            ("exadigit_online_trusted_regimes", status.online_trusted_regimes.unwrap() as f64),
        ];
        let report = svc.metrics_report();
        let text = svc.render_prometheus();
        for (name, value) in fields {
            let gauge = report.gauges.iter().find(|g| g.name == name).map(|g| g.value);
            assert_eq!(gauge, Some(value), "{name}");
            assert!(text.contains(&format!("\n{name} {value}\n")), "{name} {value}:\n{text}");
        }
        assert!(!text.contains("exadigit_surrogate_extrapolations"), "{text}");
    }

    #[test]
    fn live_state_gauges_stay_current_with_observability_off() {
        let svc = service();
        svc.handle(&Request::Status);
        svc.set_observability(false);
        svc.handle(&Request::Advance { seconds: 300 });
        let text = svc.render_prometheus();
        assert!(text.contains("\nexadigit_live_now_seconds 300\n"), "{text}");
    }

    #[test]
    fn snapshot_query_cache_flow() {
        let svc = service();
        svc.handle(&Request::Advance { seconds: 900 });
        let Response::SnapshotTaken(info) =
            svc.handle(&Request::Snapshot { label: "t900".into() })
        else {
            panic!()
        };
        assert_eq!(info.taken_at_s, 900);

        let spec = WhatIfSpec { horizon_s: 600, ..WhatIfSpec::default() };
        let q = Request::Query { snapshot_id: info.id, spec };
        let Response::Answer { cached: false, outcome: first } = svc.handle(&q) else {
            panic!("first ask must compute");
        };
        let Response::Answer { cached: true, outcome: second } = svc.handle(&q) else {
            panic!("second ask must hit the cache");
        };
        assert_eq!(first, second);

        // The live twin keeps moving; the snapshot's answers don't.
        svc.handle(&Request::Advance { seconds: 900 });
        let Response::Answer { cached: true, outcome: third } = svc.handle(&q) else {
            panic!()
        };
        assert_eq!(first, third);
    }

    #[test]
    fn non_finite_wet_bulb_offset_from_the_wire_is_an_error_and_not_cached() {
        // The vendored JSON decodes `null` in a float field to NaN and
        // `1e999` to infinity. Unchecked, a NaN offset answered exactly
        // the no-offset numbers and an infinite one a plausible PUE.
        let svc = service();
        svc.handle(&Request::Advance { seconds: 600 });
        let Response::SnapshotTaken(info) =
            svc.handle(&Request::Snapshot { label: "base".into() })
        else {
            panic!()
        };
        let valid = Request::Query {
            snapshot_id: info.id,
            spec: WhatIfSpec { horizon_s: 300, wet_bulb_offset_c: 1.5, ..WhatIfSpec::default() },
        };
        let json = serde_json::to_string(&valid).unwrap();
        assert!(json.contains(r#""wet_bulb_offset_c":1.5"#), "{json}");
        for literal in ["null", "1e999"] {
            let line = json.replace(r#""wet_bulb_offset_c":1.5"#, &format!(r#""wet_bulb_offset_c":{literal}"#));
            let request: Request = serde_json::from_str(&line).unwrap();
            let Request::Query { spec, .. } = &request else { panic!() };
            assert!(!spec.wet_bulb_offset_c.is_finite(), "{literal} decodes non-finite");
            let r = svc.handle(&request);
            let Response::Error { message } = &r else { panic!("{literal}: {r:?}") };
            assert!(message.contains("wet_bulb_offset_c"), "{message}");
        }
        let Response::Status(s) = svc.handle(&Request::Status) else { panic!() };
        assert_eq!(s.cache_entries, 0, "a refused spec must not be cached");
    }

    #[test]
    fn power_only_uq_counts_its_lanes_and_cooled_uq_counts_none() {
        // 16 draws make one chunk of 15 lanes at width 1, four chunks of
        // 3 lanes at width 4; cooled draws fork and carry no lanes.
        for (width, lanes) in [(1, 15), (4, 12)] {
            let svc = service().with_threads(width);
            svc.handle(&Request::Advance { seconds: 600 });
            let Response::SnapshotTaken(info) =
                svc.handle(&Request::Snapshot { label: "base".into() })
            else {
                panic!()
            };
            let counted = || svc.obs().kernel.power_lanes.get();
            let power_only = WhatIfSpec { horizon_s: 300, draws: 16, ..WhatIfSpec::default() };
            let before = counted();
            let r = svc.handle(&Request::Query { snapshot_id: info.id, spec: power_only });
            assert!(matches!(r, Response::Answer { cached: false, .. }), "{r:?}");
            assert_eq!(counted() - before, lanes, "width {width}");
            let cooled = WhatIfSpec {
                horizon_s: 300,
                draws: 2,
                backend: Some(CoolingBackend::Replay(CoolingTrace::constant(1.0625, 5.0e5))),
                ..WhatIfSpec::default()
            };
            let before = counted();
            let r = svc.handle(&Request::Query { snapshot_id: info.id, spec: cooled });
            assert!(matches!(r, Response::Answer { cached: false, .. }), "{r:?}");
            assert_eq!(counted(), before, "width {width}: cooled draws fork");
        }
    }

    #[test]
    fn a_huge_uq_sigma_is_an_error_and_not_cached() {
        // Uncapped, a component σ of 1e300 answered NaN MW (with infinite
        // per-draw powers) and cached it; 10 answered a draw below the
        // machine's idle floor.
        let svc = service();
        svc.handle(&Request::Advance { seconds: 3_600 });
        let Response::SnapshotTaken(info) =
            svc.handle(&Request::Snapshot { label: "base".into() })
        else {
            panic!()
        };
        for sigma in [1e300, 1e10, 10.0] {
            let spec = WhatIfSpec {
                draws: 4,
                perturbations: UqPerturbations { component_power_rel: sigma, ..Default::default() },
                ..WhatIfSpec::default()
            };
            let r = svc.handle(&Request::Query { snapshot_id: info.id, spec });
            let Response::Error { message } = &r else { panic!("σ {sigma}: {r:?}") };
            assert!(message.contains("component_power_rel"), "{message}");
        }
        let Response::Status(s) = svc.handle(&Request::Status) else { panic!() };
        assert_eq!(s.cache_entries, 0, "a refused spec must not be cached");
    }

    #[test]
    fn the_largest_ensemble_at_the_sigma_caps_answers_finite_numbers() {
        let svc = service();
        svc.handle(&Request::Advance { seconds: 3_600 });
        let Response::SnapshotTaken(info) =
            svc.handle(&Request::Snapshot { label: "base".into() })
        else {
            panic!()
        };
        let spec = WhatIfSpec {
            horizon_s: 60,
            draws: 4_096,
            perturbations: UqPerturbations {
                rectifier_eff_abs: 0.05,
                sivoc_eff_abs: 0.05,
                component_power_rel: 0.25,
            },
            ..WhatIfSpec::default()
        };
        let r = svc.handle(&Request::Query { snapshot_id: info.id, spec });
        let Response::Answer { outcome: o, .. } = &r else { panic!("{r:?}") };
        assert_eq!(o.draw_avg_power_mw.len(), 4_096);
        let scalars = [o.avg_power_mw, o.power_std_mw, o.energy_mwh, o.energy_std_mwh];
        let every = scalars
            .into_iter()
            .chain([o.final_utilization])
            .chain(o.draw_avg_power_mw.iter().copied())
            .chain(o.draw_energy_mwh.iter().copied());
        for v in every {
            assert!(v.is_finite(), "{v} in {o:?}");
        }
    }

    /// `spec`, asked twice of a power-only Frontier service advanced 1 h,
    /// must answer an `Error` naming `field` both times (the first answer
    /// was not cached) and leave the cache empty.
    fn assert_spec_refused(spec: WhatIfSpec, field: &str) {
        let svc = service();
        svc.handle(&Request::Advance { seconds: 3_600 });
        let Response::SnapshotTaken(info) =
            svc.handle(&Request::Snapshot { label: "base".into() })
        else {
            panic!()
        };
        for attempt in 1..=2 {
            let r = svc.handle(&Request::Query { snapshot_id: info.id, spec: spec.clone() });
            let Response::Error { message } = &r else { panic!("{field} #{attempt}: {r:?}") };
            assert!(message.contains(field), "{message}");
        }
        let Response::Status(s) = svc.handle(&Request::Status) else { panic!() };
        assert_eq!(s.cache_entries, 0, "a refused spec must not be cached");
    }

    /// A what-if whose one extra job is `job` must be refused, naming
    /// `field`, before any fork.
    fn assert_extra_job_refused(job: Job, field: &str) {
        let spec = WhatIfSpec { horizon_s: 300, extra_jobs: vec![job], ..WhatIfSpec::default() };
        assert_spec_refused(spec, field);
    }

    fn with_backend(backend: CoolingBackend) -> WhatIfSpec {
        WhatIfSpec { backend: Some(backend), ..WhatIfSpec::default() }
    }

    /// A surrogate fitted to a smooth synthetic plane: valid, and cheap
    /// because no plant is settled to train it.
    fn fitted_surrogate() -> Surrogate {
        let samples: Vec<Sample> = [0.3, 0.6, 0.9]
            .into_iter()
            .flat_map(|load| {
                [10.0, 14.0, 18.0].map(|wb| Sample {
                    load_fraction: load,
                    wet_bulb_c: wb,
                    pue: 1.02 + 0.01 * load + 0.001 * wb,
                    cooling_power_w: 4e5 * load + 1e4 * wb,
                })
            })
            .collect();
        Surrogate::fit(&samples).unwrap()
    }

    #[test]
    fn an_empty_replay_trace_is_an_error_and_not_cached() {
        // Unchecked, the replay panics sampling the empty series.
        let empty = || exadigit_sim::TimeSeries::from_values(0.0, 15.0, Vec::new());
        let trace = CoolingTrace::new(empty(), empty());
        assert_spec_refused(with_backend(CoolingBackend::Replay(trace)), "pue");
    }

    #[test]
    fn a_non_finite_replay_pue_is_an_error_and_not_cached() {
        // Unchecked, the replay serves its NaN as `"final_pue": null`.
        let trace = CoolingTrace::constant(f64::NAN, 2e6);
        assert_spec_refused(with_backend(CoolingBackend::Replay(trace)), "pue");
    }

    #[test]
    fn an_online_backend_with_zero_max_samples_is_an_error_and_not_cached() {
        // Unchecked, the trainer takes a remainder by zero once a regime
        // holds its (zero) samples.
        let config = OnlineSurrogateConfig { max_samples: 0, ..OnlineSurrogateConfig::default() };
        assert_spec_refused(with_backend(CoolingBackend::Online(config)), "max_samples");
    }

    #[test]
    fn a_null_surrogate_coefficient_from_the_wire_is_an_error_and_not_cached() {
        // The vendored JSON decodes `null` in a float field to NaN, which
        // unchecked answers `"final_pue": null`.
        let fitted = CoolingBackend::Surrogate(SurrogateSource::Fitted(fitted_surrogate()));
        let json = serde_json::to_string(&with_backend(fitted)).unwrap();
        let at = json.find(r#""pue_coeffs":["#).expect("coefficients on the wire") + 14;
        let end = at + json[at..].find(',').unwrap();
        let line = format!("{}null{}", &json[..at], &json[end..]);
        let spec: WhatIfSpec = serde_json::from_str(&line).unwrap();
        assert_spec_refused(spec, "pue_coeffs");
    }

    #[test]
    fn a_huge_wet_bulb_under_a_fitted_surrogate_is_an_error_and_not_cached() {
        // A constant of 1e200 is refused by the spec's own check. An
        // offset of 1e200 validates (it is finite, and no query scans the
        // forcing), but the fit's wet-bulb square overflows, so the
        // answer's PUE is not finite, on the single-draw return and on
        // the UQ return alike.
        let fitted = CoolingBackend::Surrogate(SurrogateSource::Fitted(fitted_surrogate()));
        let forced = WhatIfSpec { wet_bulb_c: Some(1e200), ..with_backend(fitted.clone()) };
        assert_spec_refused(forced, "wet_bulb_c");
        let shifted = WhatIfSpec { wet_bulb_offset_c: 1e200, ..with_backend(fitted) };
        let drawn = WhatIfSpec { draws: 2, ..shifted.clone() };
        for spec in [shifted, drawn] {
            assert!(spec.validate().is_ok());
            assert_spec_refused(spec, "final_pue");
        }
    }

    #[test]
    fn a_plant_wet_bulb_outside_the_tower_range_is_an_error_and_not_cached() {
        // Unchecked, ±1e6 °C panics the plant's ε-NTU debug assertion,
        // and in a release build every probe answers a meaningless PUE.
        for wet_bulb in [1e6, -1e6, 300.0, 1e200] {
            let spec = WhatIfSpec {
                horizon_s: 900,
                wet_bulb_c: Some(wet_bulb),
                ..with_backend(CoolingBackend::Plant)
            };
            assert_spec_refused(spec, "wet_bulb_c");
        }
    }

    #[test]
    fn a_wet_bulb_offset_past_the_tower_range_ends_the_fork_with_an_error() {
        // The offset validates; each backend that steps the plant refuses
        // the shifted forcing at its wet-bulb input, the online trainer
        // before its re-settle could reach the plant.
        let online = CoolingBackend::Online(OnlineSurrogateConfig::default());
        for backend in [CoolingBackend::Plant, online] {
            let spec = WhatIfSpec { horizon_s: 900, wet_bulb_offset_c: 100.0, ..with_backend(backend) };
            assert!(spec.validate().is_ok());
            assert_spec_refused(spec, "wet_bulb");
        }
    }

    #[test]
    fn an_in_range_wet_bulb_override_under_the_plant_still_answers() {
        let svc = service();
        svc.handle(&Request::Advance { seconds: 3_600 });
        let Response::SnapshotTaken(info) =
            svc.handle(&Request::Snapshot { label: "base".into() })
        else {
            panic!()
        };
        let plant = || WhatIfSpec { horizon_s: 900, ..with_backend(CoolingBackend::Plant) };
        let forced = WhatIfSpec { wet_bulb_c: Some(22.0), ..plant() };
        let shifted = WhatIfSpec { wet_bulb_offset_c: 2.5, ..plant() };
        for spec in [forced, shifted] {
            let r = svc.handle(&Request::Query { snapshot_id: info.id, spec });
            let Response::Answer { outcome, .. } = &r else { panic!("{r:?}") };
            let pue = outcome.final_pue.expect("the plant reports a PUE");
            assert!((1.0..1.5).contains(&pue), "pue={pue}");
        }
    }

    fn probe_job() -> Job {
        Job::new(9_001, "probe", 64, 600, 0, 0.5, 0.5)
    }

    #[test]
    fn extra_job_on_a_missing_partition_is_an_error() {
        // Unchecked, this panics in `NodePool::allocate`.
        assert_extra_job_refused(Job { partition: 99, ..probe_job() }, "partition");
    }

    #[test]
    fn extra_job_with_an_overflowing_wall_time_is_an_error() {
        // Unchecked, `now + wall_time_s` overflows at the job's start.
        assert_extra_job_refused(Job { wall_time_s: u64::MAX, ..probe_job() }, "wall_time_s");
    }

    #[test]
    fn extra_job_with_a_null_utilization_from_the_wire_is_an_error() {
        // The vendored JSON decodes `null` in a float field to NaN, which
        // unchecked answers `null` MW.
        let json = serde_json::to_string(&probe_job()).unwrap();
        let util = r#""cpu_util":{"Constant":0.5}"#;
        assert!(json.contains(util), "{json}");
        let line = json.replace(util, r#""cpu_util":{"Constant":null}"#);
        let job: Job = serde_json::from_str(&line).unwrap();
        assert_extra_job_refused(job, "cpu_util");
    }

    #[test]
    fn extra_job_with_a_zero_trace_quantum_is_an_error() {
        // Unchecked, `UtilTrace::at` divides by zero.
        let gpu_util = UtilTrace::Series { quantum_s: 0, values: vec![0.5; 4] };
        assert_extra_job_refused(Job { gpu_util, ..probe_job() }, "quantum_s");
    }

    #[test]
    fn batch_returns_in_spec_order_with_cache_hits() {
        let svc = service();
        svc.handle(&Request::Advance { seconds: 600 });
        let Response::SnapshotTaken(info) =
            svc.handle(&Request::Snapshot { label: "base".into() })
        else {
            panic!()
        };
        let specs = vec![
            WhatIfSpec { label: "a".into(), horizon_s: 300, ..WhatIfSpec::default() },
            WhatIfSpec { label: "b".into(), horizon_s: 600, ..WhatIfSpec::default() },
            WhatIfSpec { label: "c".into(), horizon_s: 900, ..WhatIfSpec::default() },
        ];
        // Warm one spec through the single-query path.
        svc.handle(&Request::Query { snapshot_id: info.id, spec: specs[1].clone() });
        let Response::Answers { cached_hits, outcomes } =
            svc.handle(&Request::QueryBatch { snapshot_id: info.id, specs: specs.clone() })
        else {
            panic!()
        };
        assert_eq!(cached_hits, 1);
        let outcomes: Vec<_> = outcomes.iter().map(|o| o.ok().expect("all succeed")).collect();
        assert_eq!(
            outcomes.iter().map(|o| o.label.as_str()).collect::<Vec<_>>(),
            vec!["a", "b", "c"]
        );
        assert!(outcomes[0].to_s < outcomes[2].to_s);
    }

    #[test]
    fn batch_reports_per_spec_errors_and_keeps_sibling_outcomes() {
        let svc = service();
        svc.handle(&Request::Advance { seconds: 600 });
        let Response::SnapshotTaken(info) =
            svc.handle(&Request::Snapshot { label: "base".into() })
        else {
            panic!()
        };
        let good = WhatIfSpec { label: "good".into(), horizon_s: 300, ..WhatIfSpec::default() };
        let bad =
            WhatIfSpec { label: "bad".into(), horizon_s: u64::MAX, ..WhatIfSpec::default() };
        let tail = WhatIfSpec { label: "tail".into(), horizon_s: 600, ..WhatIfSpec::default() };
        let Response::Answers { cached_hits, outcomes } = svc.handle(&Request::QueryBatch {
            snapshot_id: info.id,
            specs: vec![good.clone(), bad, tail],
        }) else {
            panic!()
        };
        assert_eq!(cached_hits, 0);
        assert!(outcomes[0].is_ok() && outcomes[2].is_ok(), "siblings survive the bad spec");
        let BatchOutcome::Err { message } = &outcomes[1] else {
            panic!("bad spec must report its own error")
        };
        assert!(message.contains("spec 1") && message.contains("bad"), "{message}");
        // The successes were cached despite the failure.
        let Response::Answer { cached: true, .. } =
            svc.handle(&Request::Query { snapshot_id: info.id, spec: good })
        else {
            panic!("sibling success must have been cached")
        };
    }

    #[test]
    fn absurd_advance_is_rejected_before_taking_the_lock() {
        let svc = service();
        let r = svc.handle(&Request::Advance { seconds: u64::MAX });
        assert!(matches!(r, Response::Error { .. }), "{r:?}");
        // The live twin is untouched and the service still works.
        let Response::Status(s) = svc.handle(&Request::Status) else { panic!() };
        assert_eq!(s.now_s, 0);
        assert!(matches!(
            svc.handle(&Request::Advance { seconds: 60 }),
            Response::Advanced { now_s: 60, .. }
        ));
    }

    #[test]
    fn unknown_snapshot_is_an_error_not_a_panic() {
        let svc = service();
        let r = svc.handle(&Request::Query {
            snapshot_id: 404,
            spec: WhatIfSpec::default(),
        });
        assert!(matches!(r, Response::Error { .. }));
        let r = svc.handle(&Request::DropSnapshot { snapshot_id: 404 });
        assert!(matches!(r, Response::Error { .. }));
    }

    #[test]
    fn dropped_snapshot_invalidates_its_cache_entries() {
        let svc = service();
        svc.handle(&Request::Advance { seconds: 300 });
        let Response::SnapshotTaken(info) =
            svc.handle(&Request::Snapshot { label: "x".into() })
        else {
            panic!()
        };
        let q = Request::Query {
            snapshot_id: info.id,
            spec: WhatIfSpec { horizon_s: 120, ..WhatIfSpec::default() },
        };
        svc.handle(&q);
        let Response::Status(s) = svc.handle(&Request::Status) else { panic!() };
        assert_eq!(s.cache_entries, 1);
        svc.handle(&Request::DropSnapshot { snapshot_id: info.id });
        let Response::Status(s) = svc.handle(&Request::Status) else { panic!() };
        assert_eq!(s.cache_entries, 0);
        assert!(matches!(svc.handle(&q), Response::Error { .. }));
    }

    #[test]
    fn late_snapshot_cap_is_an_error_not_a_panic() {
        let svc = service();
        svc.handle(&Request::Advance { seconds: 300 });
        svc.handle(&Request::Snapshot { label: "taken".into() });
        let err = svc.with_max_snapshots(4).err().expect("late cap must be refused");
        assert!(err.contains("before serving"), "{err}");
        // Before any snapshot, the cap applies cleanly.
        let svc = service().with_max_snapshots(1).unwrap();
        svc.handle(&Request::Snapshot { label: "only".into() });
        let r = svc.handle(&Request::Snapshot { label: "one too many".into() });
        assert!(matches!(r, Response::Error { .. }), "{r:?}");
    }

    #[test]
    fn live_twin_accepts_out_of_band_jobs_via_feed_exhaustion() {
        // An exhausted feed still advances (idle power accrues).
        let svc = TwinService::new(
            TwinConfig::frontier_power_only(),
            TelemetryFeed::new(
                vec![Job::new(1, "only", 64, 60, 5, 0.5, 0.5)],
                exadigit_sim::TimeSeries::from_values(0.0, 3_600.0, vec![15.0, 15.0]),
                120,
            ),
            1,
        )
        .unwrap();
        svc.handle(&Request::Advance { seconds: 300 });
        let Response::Status(s) = svc.handle(&Request::Status) else { panic!() };
        assert_eq!(s.jobs_ingested, 1);
        assert_eq!(s.feed_pending_jobs, 0);
        assert_eq!(s.now_s, 300);
    }
}
