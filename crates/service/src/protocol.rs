//! The wire protocol: newline-delimited JSON over plain TCP.
//!
//! One request per line, one response per line, strictly alternating per
//! connection. Messages are externally tagged serde JSON —
//! `{"Advance":{"seconds":3600}}`, `"Status"`, … — so any language with
//! a JSON library can speak the protocol with a socket and a line
//! reader; no framing beyond `\n`. The full grammar, with examples, is
//! in `docs/SERVICE.md`.
//!
//! Malformed lines answer [`Response::Error`] without closing the
//! connection; the protocol state machine cannot desynchronise because
//! every line is a complete message.

use crate::query::{WhatIfOutcome, WhatIfSpec};
use crate::snapshot::SnapshotInfo;
use serde::{Deserialize, Serialize};
use std::io::{self, BufRead, Write};

/// A client request (one JSON line).
// Wire messages are transient (one parse, one handle, dropped), so the
// spec-carrying variants' size is irrelevant next to grammar clarity.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Server and live-twin status.
    Status,
    /// Ingest telemetry and advance the live twin by `seconds`.
    Advance {
        /// Seconds of simulated time (and telemetry) to ingest.
        seconds: u64,
    },
    /// Freeze the live twin into a new snapshot.
    Snapshot {
        /// Label echoed in listings, e.g. `"noon"`.
        label: String,
    },
    /// Summaries of every held snapshot.
    ListSnapshots,
    /// Drop a snapshot (in-flight queries on it finish unaffected).
    DropSnapshot {
        /// Id to drop.
        snapshot_id: u64,
    },
    /// Answer one what-if from a snapshot (memoised).
    Query {
        /// Snapshot to branch from.
        snapshot_id: u64,
        /// The scenario.
        spec: WhatIfSpec,
    },
    /// Answer a batch of what-ifs from one snapshot in a single pool
    /// pass; outcomes return in spec order.
    QueryBatch {
        /// Snapshot to branch from.
        snapshot_id: u64,
        /// The scenarios.
        specs: Vec<WhatIfSpec>,
    },
    /// Write the live twin (feed position included) to the service's
    /// persist directory so [`crate::TwinService::recover`] can restore
    /// it after a restart. Errors without a persist directory.
    Checkpoint,
    /// Force a snapshot's state to disk. With a persist directory every
    /// snapshot is already written at take time, so this re-writes the
    /// file (healing a damaged one) and confirms durability to the
    /// client; without one it errors.
    Persist {
        /// Id to persist.
        snapshot_id: u64,
    },
    /// Stop accepting connections and shut the server down.
    Shutdown,
    /// Typed snapshot of the service's observability surface: every
    /// registry counter, gauge and histogram (with precomputed
    /// quantiles), the recent request trace, the slow-query log, and
    /// any recovery warnings. The same registry also renders as
    /// Prometheus text on the optional HTTP sidecar.
    Metrics,
}

/// Server/live-twin status (the `Status` response payload).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerStatus {
    /// Live twin's simulated second.
    pub now_s: u64,
    /// Jobs running on the live twin.
    pub running_jobs: u64,
    /// Jobs queued on the live twin.
    pub pending_jobs: u64,
    /// Jobs ingested from the feed so far.
    pub jobs_ingested: u64,
    /// Jobs the feed still holds.
    pub feed_pending_jobs: u64,
    /// Snapshots currently held.
    pub snapshots: u64,
    /// Outcomes currently memoised.
    pub cache_entries: u64,
    /// Lifetime cache hits.
    pub cache_hits: u64,
    /// Lifetime cache misses.
    pub cache_misses: u64,
    /// Live twin's latest PUE (`None` without cooling).
    pub pue: Option<f64>,
    /// Queries the pre-trained L3 surrogate answered outside its
    /// training envelope (`None` unless the backend is
    /// `CoolingBackend::Surrogate`). Non-zero means the envelope no
    /// longer covers the operating range — retrain or switch to the
    /// online backend, whose fallback makes extrapolation structurally
    /// impossible.
    pub surrogate_extrapolations: Option<u64>,
    /// Cooling quanta the online backend served from a trusted
    /// per-regime fit (`None` unless the backend is
    /// `CoolingBackend::Online`).
    pub online_l3_steps: Option<u64>,
    /// Cooling quanta the online backend paid the L4 transient plant
    /// for — training observations plus envelope-miss fallbacks.
    pub online_l4_steps: Option<u64>,
    /// The part of `online_l4_steps` taken after trust existed: queries
    /// outside every trusted envelope. A message without the field (from
    /// a peer that predates it) decodes as `None`.
    pub online_fallback_steps: Option<u64>,
    /// Staging regimes whose online fit is currently inside tolerance.
    pub online_trusted_regimes: Option<u64>,
    /// Snapshots resident in memory (≤ `snapshots`).
    pub snapshots_resident: u64,
    /// Snapshots held only on the disk tier (`snapshots` −
    /// `snapshots_resident`).
    pub snapshots_spilled: u64,
    /// Approximate recorded-history bytes resident snapshots share by
    /// refcount with other twins (the live twin, forks, sibling
    /// snapshots) under the copy-on-write series representation.
    pub snapshot_shared_bytes: u64,
    /// Approximate recorded-history bytes uniquely owned by resident
    /// snapshots — what dropping them would actually free.
    pub snapshot_owned_bytes: u64,
}

/// One counter sample in a [`MetricsReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterSample {
    /// Metric name, e.g. `exadigit_requests_total`.
    pub name: String,
    /// Label pairs, e.g. `[("type", "Query")]`.
    pub labels: Vec<(String, String)>,
    /// Monotone total.
    pub value: u64,
}

/// One gauge sample in a [`MetricsReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaugeSample {
    /// Metric name, e.g. `exadigit_queue_depth`.
    pub name: String,
    /// Label pairs.
    pub labels: Vec<(String, String)>,
    /// Last set value.
    pub value: f64,
}

/// One histogram sample in a [`MetricsReport`], summarised as count,
/// sum and precomputed quantiles (the full bucket vector is available
/// on the Prometheus surface).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSample {
    /// Metric name, e.g. `exadigit_request_seconds`.
    pub name: String,
    /// Label pairs, e.g. `[("type", "Query")]`.
    pub labels: Vec<(String, String)>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
    /// Median, estimated from bucket counts.
    pub p50: f64,
    /// 90th percentile, estimated from bucket counts.
    pub p90: f64,
    /// 99th percentile, estimated from bucket counts.
    pub p99: f64,
}

/// One slow-query log entry in a [`MetricsReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SlowQueryEntry {
    /// Microseconds since the service's observability epoch.
    pub at_us: u64,
    /// Request type name, e.g. `"QueryBatch"`.
    pub request: String,
    /// One-line request summary (e.g. snapshot id and draw count).
    pub detail: String,
    /// Microseconds spent queued before a worker picked it up.
    pub queue_us: u64,
    /// Microseconds the handler ran.
    pub handle_us: u64,
}

/// One request-lifecycle trace event in a [`MetricsReport`], oldest
/// first.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceEntry {
    /// Microseconds since the service's observability epoch.
    pub at_us: u64,
    /// Server-assigned connection id.
    pub conn: u64,
    /// Request sequence number within the connection.
    pub seq: u64,
    /// Request type name.
    pub request: String,
    /// Lifecycle stage: `admitted`, `executing`, `written`, `rejected`.
    pub stage: String,
    /// Microseconds spent in the previous stage (0 at admission).
    pub stage_us: u64,
}

/// Reply payload of [`Request::Metrics`]: the registry's current
/// samples plus the diagnostic rings.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsReport {
    /// Every registered counter, in registration order.
    pub counters: Vec<CounterSample>,
    /// Every registered gauge, in registration order.
    pub gauges: Vec<GaugeSample>,
    /// Every registered histogram, in registration order.
    pub histograms: Vec<HistogramSample>,
    /// Slow-query log entries, oldest first.
    pub slow_queries: Vec<SlowQueryEntry>,
    /// Recent request-lifecycle trace, oldest first.
    pub trace: Vec<TraceEntry>,
    /// Damage reports from manifest recovery (empty for a clean start).
    pub recovery_warnings: Vec<String>,
}

/// A server response (one JSON line).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// Reply to [`Request::Status`].
    Status(ServerStatus),
    /// Reply to [`Request::Advance`].
    Advanced {
        /// Live twin's simulated second after the advance.
        now_s: u64,
        /// Jobs ingested from the feed during this advance.
        jobs_ingested: u64,
    },
    /// Reply to [`Request::Snapshot`].
    SnapshotTaken(SnapshotInfo),
    /// Reply to [`Request::ListSnapshots`].
    Snapshots(Vec<SnapshotInfo>),
    /// Reply to [`Request::DropSnapshot`].
    Dropped {
        /// The id that was dropped.
        snapshot_id: u64,
    },
    /// Reply to [`Request::Query`].
    Answer {
        /// True when served from the cache.
        cached: bool,
        /// The outcome.
        outcome: WhatIfOutcome,
    },
    /// Reply to [`Request::QueryBatch`].
    Answers {
        /// How many of the outcomes came from the cache.
        cached_hits: u64,
        /// Per-spec results in spec order: one bad spec reports its own
        /// error without discarding its siblings' outcomes.
        outcomes: Vec<BatchOutcome>,
    },
    /// Admission control refused the request: the request queue is full
    /// or this connection is over its in-flight cap. Nothing was
    /// executed; back off and resend.
    Busy {
        /// Suggested back-off before retrying, milliseconds
        /// ([`crate::ServiceClient::request_with_retry`] honours it).
        retry_after_ms: u64,
    },
    /// Reply to [`Request::Checkpoint`].
    Checkpointed {
        /// Live twin's simulated second at the checkpoint instant.
        now_s: u64,
        /// Checkpoint payload size, bytes.
        bytes: u64,
    },
    /// Reply to [`Request::Persist`].
    Persisted {
        /// The id that was written.
        snapshot_id: u64,
        /// Snapshot payload size, bytes.
        bytes: u64,
    },
    /// Reply to [`Request::Shutdown`]; the server stops accepting
    /// connections after sending it.
    ShuttingDown,
    /// Reply to [`Request::Metrics`].
    Metrics(MetricsReport),
    /// Any failure: unknown snapshot, malformed request, fork error, …
    Error {
        /// Human-readable cause.
        message: String,
    },
}

/// One slot of a [`Response::Answers`] batch, in spec order.
///
/// The vendored serde has no `Result` impls, and a dedicated enum keeps
/// the wire shape explicit anyway: `{"Ok": outcome}` or
/// `{"Err": {"message": ...}}`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum BatchOutcome {
    /// The spec's outcome (computed or served from the cache).
    Ok(WhatIfOutcome),
    /// The spec failed; sibling slots are unaffected.
    Err {
        /// Human-readable cause.
        message: String,
    },
}

impl BatchOutcome {
    /// The outcome, when this slot succeeded.
    pub fn ok(&self) -> Option<&WhatIfOutcome> {
        match self {
            BatchOutcome::Ok(outcome) => Some(outcome),
            BatchOutcome::Err { .. } => None,
        }
    }

    /// True when this slot succeeded.
    pub fn is_ok(&self) -> bool {
        matches!(self, BatchOutcome::Ok(_))
    }
}

/// Write one message as a JSON line, newline included, in one write: a
/// separate write for the `\n` would leave it behind Nagle's algorithm
/// until the peer's delayed ACK, stalling every round trip.
pub fn write_message<T: Serialize>(writer: &mut impl Write, message: &T) -> io::Result<()> {
    let mut line = serde_json::to_string(message)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    line.push('\n');
    writer.write_all(line.as_bytes())?;
    writer.flush()
}

/// Per-line byte cap: a spec with trace-level jobs is megabytes at
/// most, so anything beyond this is wire abuse, and an unbounded
/// `read_line` would grow a handler thread's buffer until the whole
/// server (live twin and snapshots included) is taken down.
pub const MAX_LINE_BYTES: usize = 16 * 1024 * 1024;

/// `read_line` with a byte cap: reads up to and including the next
/// `\n`, erroring (`InvalidData`) once a line exceeds
/// [`MAX_LINE_BYTES`] — the caller should drop the connection.
fn read_line_capped(reader: &mut impl BufRead, line: &mut Vec<u8>) -> io::Result<usize> {
    let start = line.len();
    loop {
        let buf = reader.fill_buf()?;
        if buf.is_empty() {
            return Ok(line.len() - start); // EOF
        }
        let (chunk, done) = match buf.iter().position(|&b| b == b'\n') {
            Some(pos) => (&buf[..=pos], true),
            None => (buf, false),
        };
        if line.len() - start + chunk.len() > MAX_LINE_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("line exceeds the {MAX_LINE_BYTES}-byte cap"),
            ));
        }
        line.extend_from_slice(chunk);
        let consumed = chunk.len();
        reader.consume(consumed);
        if done {
            return Ok(line.len() - start);
        }
    }
}

/// Read one JSON line into a message. `Ok(None)` on clean EOF;
/// `Ok(Some(Err(_)))` on a malformed line (the connection stays
/// usable); `Err` on a broken socket or a line past [`MAX_LINE_BYTES`].
#[allow(clippy::type_complexity)]
pub fn read_message<T: Deserialize>(
    reader: &mut impl BufRead,
) -> io::Result<Option<Result<T, String>>> {
    let mut line = Vec::new();
    loop {
        line.clear();
        if read_line_capped(reader, &mut line)? == 0 {
            return Ok(None);
        }
        let text = String::from_utf8_lossy(&line);
        let trimmed = text.trim();
        if !trimmed.is_empty() {
            return Ok(Some(serde_json::from_str(trimmed).map_err(|e| e.to_string())));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Counts `write` calls; each accepts the whole buffer.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_message_is_one_write_per_message() {
        let mut wire = CountingWriter::default();
        let messages = [Request::Status, Request::Advance { seconds: 60 }, Request::Metrics];
        for (i, message) in messages.iter().enumerate() {
            write_message(&mut wire, message).unwrap();
            assert_eq!(wire.writes, i + 1, "message {i} took more than one write");
        }
        let text = String::from_utf8(wire.bytes).unwrap();
        assert_eq!(text.lines().count(), messages.len());
        assert!(text.ends_with('\n'));
    }

    #[test]
    fn requests_round_trip_the_wire_format() {
        let requests = vec![
            Request::Status,
            Request::Advance { seconds: 3_600 },
            Request::Snapshot { label: "noon".into() },
            Request::ListSnapshots,
            Request::DropSnapshot { snapshot_id: 3 },
            Request::Query { snapshot_id: 1, spec: WhatIfSpec::default() },
            Request::QueryBatch {
                snapshot_id: 1,
                specs: vec![
                    WhatIfSpec { label: "warm".into(), wet_bulb_offset_c: 4.0, ..WhatIfSpec::default() },
                    WhatIfSpec { draws: 16, ..WhatIfSpec::default() },
                ],
            },
            Request::Checkpoint,
            Request::Persist { snapshot_id: 2 },
            Request::Shutdown,
            Request::Metrics,
        ];
        for req in requests {
            let json = serde_json::to_string(&req).unwrap();
            let back: Request = serde_json::from_str(&json).unwrap();
            assert_eq!(req, back, "round trip failed for {json}");
        }
    }

    #[test]
    fn line_io_round_trips_and_survives_garbage() {
        let mut wire = Vec::new();
        write_message(&mut wire, &Request::Advance { seconds: 60 }).unwrap();
        wire.extend_from_slice(b"this is not json\n");
        write_message(&mut wire, &Request::Status).unwrap();

        let mut reader = io::BufReader::new(wire.as_slice());
        let first: Request = read_message(&mut reader).unwrap().unwrap().unwrap();
        assert_eq!(first, Request::Advance { seconds: 60 });
        let garbage = read_message::<Request>(&mut reader).unwrap().unwrap();
        assert!(garbage.is_err(), "malformed line reports, not panics");
        let second: Request = read_message(&mut reader).unwrap().unwrap().unwrap();
        assert_eq!(second, Request::Status);
        assert!(read_message::<Request>(&mut reader).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn oversized_lines_error_instead_of_growing_without_bound() {
        // A newline-free flood must be rejected once it passes the cap,
        // not buffered until the process dies.
        struct Flood {
            served: usize,
        }
        impl io::Read for Flood {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                buf.fill(b'x');
                self.served += buf.len();
                Ok(buf.len())
            }
        }
        let mut reader = io::BufReader::new(Flood { served: 0 });
        let err = read_message::<Request>(&mut reader).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // The reader stopped near the cap rather than draining forever.
        assert!(reader.get_ref().served < MAX_LINE_BYTES + 1_000_000);
    }

    #[test]
    fn busy_and_per_slot_batch_results_round_trip() {
        let outcome = WhatIfOutcome {
            label: "ok".into(),
            from_s: 0,
            to_s: 60,
            jobs_completed: 1,
            avg_power_mw: 8.0,
            power_std_mw: 0.0,
            energy_mwh: 0.13,
            energy_std_mwh: 0.0,
            final_pue: None,
            final_utilization: 0.5,
            draw_avg_power_mw: vec![],
            draw_energy_mwh: vec![],
            draws: 1,
        };
        let responses = vec![
            Response::Busy { retry_after_ms: 20 },
            Response::Checkpointed { now_s: 43_200, bytes: 9_999 },
            Response::Persisted { snapshot_id: 2, bytes: 1_234 },
            Response::Answers {
                cached_hits: 1,
                outcomes: vec![
                    BatchOutcome::Ok(outcome),
                    BatchOutcome::Err { message: "spec 1: horizon too long".into() },
                ],
            },
        ];
        for resp in responses {
            let json = serde_json::to_string(&resp).unwrap();
            let back: Response = serde_json::from_str(&json).unwrap();
            assert_eq!(resp, back, "round trip failed for {json}");
        }
        // The grammar documented in docs/SERVICE.md.
        let json = serde_json::to_string(&Response::Busy { retry_after_ms: 5 }).unwrap();
        assert!(json.contains("\"Busy\"") && json.contains("retry_after_ms"), "{json}");
    }

    #[test]
    fn metrics_report_round_trips_the_wire_format() {
        let report = MetricsReport {
            counters: vec![CounterSample {
                name: "exadigit_requests_total".into(),
                labels: vec![("type".into(), "Query".into())],
                value: 41,
            }],
            gauges: vec![GaugeSample {
                name: "exadigit_queue_depth".into(),
                labels: vec![],
                value: 3.0,
            }],
            histograms: vec![HistogramSample {
                name: "exadigit_request_seconds".into(),
                labels: vec![("type".into(), "Query".into())],
                count: 41,
                sum: 0.9,
                p50: 0.01,
                p90: 0.05,
                p99: 0.2,
            }],
            slow_queries: vec![SlowQueryEntry {
                at_us: 1_000_000,
                request: "QueryBatch".into(),
                detail: "snapshot 1, 64 specs".into(),
                queue_us: 120,
                handle_us: 450_000,
            }],
            trace: vec![TraceEntry {
                at_us: 999_000,
                conn: 2,
                seq: 7,
                request: "Query".into(),
                stage: "written".into(),
                stage_us: 840,
            }],
            recovery_warnings: vec!["manifest line 3: bad id".into()],
        };
        let resp = Response::Metrics(report);
        let json = serde_json::to_string(&resp).unwrap();
        let back: Response = serde_json::from_str(&json).unwrap();
        assert_eq!(resp, back, "round trip failed for {json}");
        // Label pairs ride as JSON arrays (vendored serde tuple impls).
        assert!(json.contains("[\"type\",\"Query\"]"), "{json}");
    }

    #[test]
    fn status_decodes_without_a_newer_field_and_with_an_unknown_one() {
        let status = ServerStatus {
            now_s: 900,
            running_jobs: 3,
            pending_jobs: 1,
            jobs_ingested: 4,
            feed_pending_jobs: 40,
            snapshots: 1,
            cache_entries: 0,
            cache_hits: 0,
            cache_misses: 0,
            pue: Some(1.04),
            surrogate_extrapolations: None,
            online_l3_steps: Some(50),
            online_l4_steps: Some(10),
            online_fallback_steps: Some(2),
            online_trusted_regimes: Some(1),
            snapshots_resident: 1,
            snapshots_spilled: 0,
            snapshot_shared_bytes: 64,
            snapshot_owned_bytes: 32,
        };
        let json = serde_json::to_string(&Response::Status(status.clone())).unwrap();
        let decode = |line: &str| match serde_json::from_str::<Response>(line) {
            Ok(Response::Status(s)) => s,
            other => panic!("{line}: {other:?}"),
        };
        // From a peer that predates the field: absent decodes as None.
        let older = json.replace("\"online_fallback_steps\":2,", "");
        assert_ne!(older, json);
        assert_eq!(decode(&older), ServerStatus { online_fallback_steps: None, ..status.clone() });
        // From a peer with a field this side does not know: ignored.
        let newer = json.replace("\"now_s\":900", "\"now_s\":900,\"fans_rpm\":1200");
        assert_ne!(newer, json);
        assert_eq!(decode(&newer), status);
    }

    #[test]
    fn externally_tagged_shape_is_stable() {
        // The documented grammar (docs/SERVICE.md) promises this shape.
        let json = serde_json::to_string(&Request::Advance { seconds: 5 }).unwrap();
        assert!(json.contains("\"Advance\""), "{json}");
        assert!(json.contains("\"seconds\""), "{json}");
        let unit = serde_json::to_string(&Request::Status).unwrap();
        assert!(unit.contains("Status"), "{unit}");
    }
}
