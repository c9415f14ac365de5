//! End-to-end loopback: a real TCP server, concurrent clients, the full
//! snapshot → fork → query → cache lifecycle over the wire — plus the
//! serving-tier contracts (bounded worker pool, Busy backpressure,
//! drain-on-shutdown, LRU cache behaviour).

use exadigit_core::config::TwinConfig;
use exadigit_service::{
    BatchOutcome, Request, Response, ServiceClient, TelemetryFeed, TwinServer, TwinService,
    WhatIfOutcome, WhatIfSpec,
};
use std::time::Duration;

fn service() -> TwinService {
    TwinService::new(
        TwinConfig::frontier_power_only(),
        TelemetryFeed::synthetic(123, 1),
        123,
    )
    .unwrap()
    .with_threads(2)
}

fn spawn_server() -> exadigit_service::ServerHandle {
    TwinServer::bind(service(), "127.0.0.1:0").unwrap().spawn()
}

#[test]
fn full_lifecycle_over_tcp() {
    let handle = spawn_server();
    let mut client = ServiceClient::connect(handle.addr()).unwrap();

    // Ingest one synthetic hour.
    let r = client.request(&Request::Advance { seconds: 3_600 }).unwrap();
    let Response::Advanced { now_s, jobs_ingested } = r else { panic!("{r:?}") };
    assert_eq!(now_s, 3_600);
    assert!(jobs_ingested > 0);

    // Snapshot, then query it twice: compute once, hit the cache once.
    let Response::SnapshotTaken(info) =
        client.request(&Request::Snapshot { label: "t1h".into() }).unwrap()
    else {
        panic!()
    };
    let query = Request::Query {
        snapshot_id: info.id,
        spec: WhatIfSpec { horizon_s: 900, ..WhatIfSpec::default() },
    };
    let Response::Answer { cached: false, outcome: first } =
        client.request(&query).unwrap()
    else {
        panic!("first ask computes")
    };
    let Response::Answer { cached: true, outcome: second } =
        client.request(&query).unwrap()
    else {
        panic!("second ask hits the cache")
    };
    assert_eq!(first, second);

    // Listing sees the snapshot; dropping it frees the id.
    let Response::Snapshots(list) = client.request(&Request::ListSnapshots).unwrap() else {
        panic!()
    };
    assert_eq!(list.len(), 1);
    let Response::Dropped { snapshot_id } =
        client.request(&Request::DropSnapshot { snapshot_id: info.id }).unwrap()
    else {
        panic!()
    };
    assert_eq!(snapshot_id, info.id);

    handle.shutdown();
}

#[test]
fn concurrent_clients_get_identical_deterministic_answers() {
    let handle = spawn_server();
    let addr = handle.addr();

    {
        let mut setup = ServiceClient::connect(addr).unwrap();
        setup.request(&Request::Advance { seconds: 1_800 }).unwrap();
        let Response::SnapshotTaken(info) =
            setup.request(&Request::Snapshot { label: "base".into() }).unwrap()
        else {
            panic!()
        };
        assert_eq!(info.id, 1);
    }

    // Three clients ask the same three questions concurrently.
    let specs = |i: u64| WhatIfSpec {
        label: format!("q{i}"),
        horizon_s: 600 + 300 * i,
        ..WhatIfSpec::default()
    };
    let workers: Vec<_> = (0..3)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = ServiceClient::connect(addr).unwrap();
                (0..3u64)
                    .map(|i| {
                        let r = client
                            .request(&Request::Query { snapshot_id: 1, spec: specs(i) })
                            .unwrap();
                        match r {
                            Response::Answer { outcome, .. } => outcome,
                            other => panic!("{other:?}"),
                        }
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let results: Vec<_> = workers.into_iter().map(|w| w.join().unwrap()).collect();
    assert_eq!(results[0], results[1], "concurrent clients must agree");
    assert_eq!(results[1], results[2]);
    assert!(results[0][0].to_s < results[0][2].to_s);

    handle.shutdown();
}

#[test]
fn malformed_lines_answer_errors_without_dropping_the_connection() {
    use std::io::{BufRead, BufReader, Write};
    let handle = spawn_server();
    let stream = std::net::TcpStream::connect(handle.addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);

    writer.write_all(b"{not json}\n").unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("Error"), "{line}");

    // The connection is still usable afterwards.
    writer.write_all(b"\"Status\"\n").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("Status"), "{line}");

    handle.shutdown();
}

#[test]
fn shutdown_request_stops_the_server() {
    let handle = spawn_server();
    let addr = handle.addr();
    let mut client = ServiceClient::connect(addr).unwrap();
    let r = client.request(&Request::Shutdown).unwrap();
    assert_eq!(r, Response::ShuttingDown);
    handle.shutdown(); // idempotent: joins the already-draining tier
}

/// Regression for the detached-handler bug: `shutdown()` used to return
/// while a handler thread mid-`Advance` could still be mutating the
/// live twin. The drain contract: the in-flight advance *finishes*, its
/// response is written, and after `shutdown()` returns the twin never
/// moves again.
#[test]
fn shutdown_drains_in_flight_work_then_freezes_the_twin() {
    let handle = spawn_server();
    let addr = handle.addr();
    let service = handle.service();
    let in_flight = std::thread::spawn(move || {
        let mut client = ServiceClient::connect(addr).unwrap();
        client.request(&Request::Advance { seconds: 86_400 })
    });
    // Let the advance be admitted and start mutating the live twin.
    std::thread::sleep(Duration::from_millis(10));
    handle.shutdown();
    // Every worker is joined, so the twin cannot move any more.
    let Response::Status(a) = service.handle(&Request::Status) else { panic!() };
    std::thread::sleep(Duration::from_millis(50));
    let Response::Status(b) = service.handle(&Request::Status) else { panic!() };
    assert_eq!(a.now_s, b.now_s, "state changed after shutdown returned");
    // And the admitted request was drained, not abandoned: the client
    // got its real answer, matching the frozen clock.
    match in_flight.join().unwrap() {
        Ok(Response::Advanced { now_s, .. }) => assert_eq!(now_s, a.now_s),
        other => panic!("in-flight advance must finish through the drain: {other:?}"),
    }
}

/// Duplicate specs inside one batch are a benign race on the same cache
/// key: both slots answer, identically, and later batches hit the cache
/// for every slot.
#[test]
fn duplicate_specs_in_one_batch_agree_and_cache_once() {
    let handle = spawn_server();
    let mut client = ServiceClient::connect(handle.addr()).unwrap();
    client.request(&Request::Advance { seconds: 900 }).unwrap();
    let Response::SnapshotTaken(info) =
        client.request(&Request::Snapshot { label: "base".into() }).unwrap()
    else {
        panic!()
    };
    let twin_spec = WhatIfSpec { label: "twin".into(), horizon_s: 300, ..WhatIfSpec::default() };
    let other = WhatIfSpec { label: "other".into(), horizon_s: 600, ..WhatIfSpec::default() };
    let batch = Request::QueryBatch {
        snapshot_id: info.id,
        specs: vec![twin_spec.clone(), twin_spec, other],
    };
    let Response::Answers { cached_hits, outcomes } = client.request(&batch).unwrap() else {
        panic!()
    };
    assert_eq!(cached_hits, 0);
    let unwrap_ok = |o: &BatchOutcome| -> WhatIfOutcome { o.ok().expect("ok").clone() };
    assert_eq!(unwrap_ok(&outcomes[0]), unwrap_ok(&outcomes[1]), "duplicates must agree");
    // Re-ask: every slot, duplicates included, is a cache hit now.
    let Response::Answers { cached_hits, .. } = client.request(&batch).unwrap() else {
        panic!()
    };
    assert_eq!(cached_hits, 3);
    handle.shutdown();
}

/// One bad spec reports per-slot; siblings keep their outcomes, over
/// the wire.
#[test]
fn batch_error_is_per_slot_over_the_wire() {
    let handle = spawn_server();
    let mut client = ServiceClient::connect(handle.addr()).unwrap();
    client.request(&Request::Advance { seconds: 600 }).unwrap();
    let Response::SnapshotTaken(info) =
        client.request(&Request::Snapshot { label: "base".into() }).unwrap()
    else {
        panic!()
    };
    let Response::Answers { outcomes, .. } = client
        .request(&Request::QueryBatch {
            snapshot_id: info.id,
            specs: vec![
                WhatIfSpec { label: "ok".into(), horizon_s: 300, ..WhatIfSpec::default() },
                WhatIfSpec { label: "bad".into(), draws: u64::MAX, ..WhatIfSpec::default() },
            ],
        })
        .unwrap()
    else {
        panic!()
    };
    assert!(outcomes[0].is_ok());
    assert!(matches!(&outcomes[1], BatchOutcome::Err { message } if message.contains("draws")));
    handle.shutdown();
}

/// LRU semantics observed through the wire's `cached` flag: a hit
/// promotes, so the promoted entry survives an eviction that claims the
/// stalest entry instead.
#[test]
fn cache_promotes_on_hit_and_evicts_lru_over_the_wire() {
    let svc = service().with_cache_capacity(2);
    let handle = TwinServer::bind(svc, "127.0.0.1:0").unwrap().spawn();
    let mut client = ServiceClient::connect(handle.addr()).unwrap();
    client.request(&Request::Advance { seconds: 600 }).unwrap();
    let Response::SnapshotTaken(info) =
        client.request(&Request::Snapshot { label: "base".into() }).unwrap()
    else {
        panic!()
    };
    let spec = |label: &str, horizon_s: u64| WhatIfSpec {
        label: label.into(),
        horizon_s,
        ..WhatIfSpec::default()
    };
    let cached_flag = |client: &mut ServiceClient, s: WhatIfSpec| -> bool {
        match client.request(&Request::Query { snapshot_id: info.id, spec: s }).unwrap() {
            Response::Answer { cached, .. } => cached,
            other => panic!("{other:?}"),
        }
    };
    assert!(!cached_flag(&mut client, spec("a", 300))); // miss: {a}
    assert!(!cached_flag(&mut client, spec("b", 600))); // miss: {a, b}
    assert!(cached_flag(&mut client, spec("a", 300))); // hit promotes a
    assert!(!cached_flag(&mut client, spec("c", 900))); // evicts b, not a
    assert!(cached_flag(&mut client, spec("a", 300)), "promoted entry survived");
    assert!(!cached_flag(&mut client, spec("b", 600)), "stale entry was evicted");
    handle.shutdown();
}

/// Snapshot memory accounting observed through the wire: resident vs
/// spilled counts plus the copy-on-write shared/owned byte split. A
/// snapshot of a twin with sealed history must read as mostly *shared*
/// (its chunks are refcount-aliased with the live twin), and dropping
/// it must return the accounting to zero.
#[test]
fn status_reports_snapshot_memory_accounting() {
    let handle = spawn_server();
    let mut client = ServiceClient::connect(handle.addr()).unwrap();

    let status = |client: &mut ServiceClient| match client.request(&Request::Status).unwrap() {
        Response::Status(s) => s,
        other => panic!("{other:?}"),
    };
    let s0 = status(&mut client);
    assert_eq!(s0.snapshots_resident, 0);
    assert_eq!(s0.snapshots_spilled, 0);
    assert_eq!(s0.snapshot_shared_bytes + s0.snapshot_owned_bytes, 0);

    // Record enough history to seal chunks (15 s cadence ⇒ the 1024th
    // sample lands at ~4.3 h), then freeze it.
    client.request(&Request::Advance { seconds: 18_000 }).unwrap();
    let Response::SnapshotTaken(info) =
        client.request(&Request::Snapshot { label: "deep".into() }).unwrap()
    else {
        panic!()
    };
    let s1 = status(&mut client);
    assert_eq!(s1.snapshots_resident, 1);
    assert_eq!(s1.snapshots_spilled, 0);
    // Four power-only series each sealed one 1024-sample chunk, and
    // every one of those chunks is aliased with the live twin.
    assert!(
        s1.snapshot_shared_bytes >= 4 * 1024 * 8,
        "sealed history must be refcount-shared with the live twin ({} B)",
        s1.snapshot_shared_bytes
    );
    assert!(
        s1.snapshot_owned_bytes < s1.snapshot_shared_bytes,
        "a fresh snapshot owns only unsealed tails ({} owned vs {} shared)",
        s1.snapshot_owned_bytes,
        s1.snapshot_shared_bytes
    );

    // Dropping the snapshot frees its accounting.
    client.request(&Request::DropSnapshot { snapshot_id: info.id }).unwrap();
    let s2 = status(&mut client);
    assert_eq!(s2.snapshots_resident, 0);
    assert_eq!(s2.snapshot_shared_bytes + s2.snapshot_owned_bytes, 0);
    handle.shutdown();
}

/// Byte-budget eviction observed through the wire: with room for only
/// one outcome, every distinct question evicts the previous answer.
#[test]
fn cache_byte_budget_bounds_residency_over_the_wire() {
    let one_outcome = exadigit_service::outcome_bytes(&WhatIfOutcome {
        label: "a".into(),
        from_s: 0,
        to_s: 0,
        jobs_completed: 0,
        avg_power_mw: 0.0,
        power_std_mw: 0.0,
        energy_mwh: 0.0,
        energy_std_mwh: 0.0,
        final_pue: None,
        final_utilization: 0.0,
        draw_avg_power_mw: vec![],
        draw_energy_mwh: vec![],
        draws: 1,
    });
    let svc = service().with_cache_bytes(one_outcome + one_outcome / 2);
    let handle = TwinServer::bind(svc, "127.0.0.1:0").unwrap().spawn();
    let mut client = ServiceClient::connect(handle.addr()).unwrap();
    client.request(&Request::Advance { seconds: 600 }).unwrap();
    let Response::SnapshotTaken(info) =
        client.request(&Request::Snapshot { label: "base".into() }).unwrap()
    else {
        panic!()
    };
    let spec = |label: &str, horizon_s: u64| WhatIfSpec {
        label: label.into(),
        horizon_s,
        ..WhatIfSpec::default()
    };
    let cached_flag = |client: &mut ServiceClient, s: WhatIfSpec| -> bool {
        match client.request(&Request::Query { snapshot_id: info.id, spec: s }).unwrap() {
            Response::Answer { cached, .. } => cached,
            other => panic!("{other:?}"),
        }
    };
    assert!(!cached_flag(&mut client, spec("a", 300)));
    assert!(cached_flag(&mut client, spec("a", 300)), "fits the budget alone");
    assert!(!cached_flag(&mut client, spec("b", 600)), "second outcome computes");
    assert!(!cached_flag(&mut client, spec("a", 300)), "and evicted the first by bytes");
    handle.shutdown();
}

/// Over-capacity pipelining answers `Busy` instead of queueing without
/// bound — and the refusals come back in request order, interleaved
/// with the real answers, leaving the connection usable.
#[test]
fn pipelined_overload_answers_busy_in_order() {
    use std::io::{BufRead, BufReader, Write};
    let svc = service();
    let handle = TwinServer::bind(svc, "127.0.0.1:0")
        .unwrap()
        .with_workers(1)
        .with_queue_depth(1)
        .with_per_client_inflight(2)
        .spawn();
    let mut setup = ServiceClient::connect(handle.addr()).unwrap();
    setup.request(&Request::Advance { seconds: 600 }).unwrap();
    let Response::SnapshotTaken(info) =
        setup.request(&Request::Snapshot { label: "base".into() }).unwrap()
    else {
        panic!()
    };

    // Fire 8 uncached queries down one socket without reading a single
    // response: with 1 worker, queue depth 1, and in-flight cap 2, most
    // must be refused.
    let stream = std::net::TcpStream::connect(handle.addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    for i in 0..8u64 {
        let spec = WhatIfSpec {
            label: format!("storm{i}"),
            horizon_s: 1_800 + i,
            ..WhatIfSpec::default()
        };
        let line =
            serde_json::to_string(&Request::Query { snapshot_id: info.id, spec }).unwrap();
        writer.write_all(line.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
    }
    writer.flush().unwrap();
    let mut answers = 0;
    let mut busy = 0;
    for _ in 0..8 {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let response: Response = serde_json::from_str(line.trim()).unwrap();
        match response {
            Response::Answer { .. } => answers += 1,
            Response::Busy { retry_after_ms } => {
                assert!(retry_after_ms > 0, "hint must be actionable");
                busy += 1;
            }
            other => panic!("{other:?}"),
        }
    }
    assert!(answers >= 1, "admitted work still completes");
    assert!(busy >= 1, "over-capacity load must see Busy");
    assert_eq!(answers + busy, 8, "every request is answered exactly once");

    // The connection survives the storm.
    writer.write_all(b"\"Status\"\n").unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("Status"), "{line}");
    handle.shutdown();
}

/// Strictly sequential clients never see `Busy` at an in-flight cap of
/// one: the worker frees the connection's slot before it writes the
/// answer, so a client's next request cannot find the slot still held.
/// Several clients at once keep the workers contended, so a worker is
/// often preempted right after it writes an answer: the slot must be
/// free before that point.
#[test]
fn sequential_requests_at_inflight_cap_one_never_get_busy() {
    let handle =
        TwinServer::bind(service(), "127.0.0.1:0").unwrap().with_per_client_inflight(1).spawn();
    let addr = handle.addr();
    let clients: Vec<_> = (0..6)
        .map(|c| {
            std::thread::spawn(move || {
                let mut client = ServiceClient::connect(addr).unwrap();
                for i in 0..300 {
                    let response = client.request(&Request::Status).unwrap();
                    assert!(
                        !matches!(response, Response::Busy { .. }),
                        "client {c}: sequential request {i} was refused"
                    );
                }
            })
        })
        .collect();
    for client in clients {
        client.join().unwrap();
    }
    handle.shutdown();
}

/// A client storm beyond worker capacity: every request eventually
/// succeeds through `request_with_retry`, backpressure (not queue
/// growth) absorbing the overload.
#[test]
fn client_storm_converges_through_retry_on_busy() {
    let svc = service();
    let handle = TwinServer::bind(svc, "127.0.0.1:0")
        .unwrap()
        .with_workers(2)
        .with_queue_depth(2)
        .spawn();
    let addr = handle.addr();
    let mut setup = ServiceClient::connect(addr).unwrap();
    setup.request(&Request::Advance { seconds: 600 }).unwrap();
    let Response::SnapshotTaken(info) =
        setup.request(&Request::Snapshot { label: "base".into() }).unwrap()
    else {
        panic!()
    };

    let workers: Vec<_> = (0..16u64)
        .map(|i| {
            std::thread::spawn(move || {
                let mut client = ServiceClient::connect(addr).unwrap();
                let mut busy_seen = 0u64;
                for j in 0..3u64 {
                    let spec = WhatIfSpec {
                        label: format!("storm{}", (i + j) % 4),
                        horizon_s: 900 + 60 * ((i + j) % 4),
                        ..WhatIfSpec::default()
                    };
                    loop {
                        match client
                            .request(&Request::Query { snapshot_id: info.id, spec: spec.clone() })
                            .unwrap()
                        {
                            Response::Answer { .. } => break,
                            Response::Busy { retry_after_ms } => {
                                busy_seen += 1;
                                std::thread::sleep(Duration::from_millis(retry_after_ms.min(50)));
                            }
                            other => panic!("{other:?}"),
                        }
                    }
                }
                busy_seen
            })
        })
        .collect();
    let _total_busy: u64 = workers.into_iter().map(|w| w.join().unwrap()).sum();
    // Convergence is the assertion: every storm client got every
    // answer. (Busy counts vary with scheduling; the pipelined test
    // above pins that refusals actually happen under overload.)
    handle.shutdown();
}

/// The `Metrics` verb over the wire: one registry observed every layer,
/// so the typed report carries live per-request histograms, cache
/// counters that agree with `Status`, and a request trace whose events
/// name this very connection's requests.
#[test]
fn metrics_verb_reports_live_instruments_over_the_wire() {
    let handle = spawn_server();
    let mut client = ServiceClient::connect(handle.addr()).unwrap();
    client.request(&Request::Advance { seconds: 900 }).unwrap();
    let Response::SnapshotTaken(info) =
        client.request(&Request::Snapshot { label: "base".into() }).unwrap()
    else {
        panic!()
    };
    let query = Request::Query {
        snapshot_id: info.id,
        spec: WhatIfSpec { horizon_s: 300, ..WhatIfSpec::default() },
    };
    client.request(&query).unwrap(); // miss
    client.request(&query).unwrap(); // hit
    let Response::Status(status) = client.request(&Request::Status).unwrap() else { panic!() };
    let Response::Metrics(report) = client.request(&Request::Metrics).unwrap() else {
        panic!("Metrics verb must answer Response::Metrics")
    };

    let counter = |name: &str, label: Option<(&str, &str)>| -> u64 {
        report
            .counters
            .iter()
            .find(|c| {
                c.name == name
                    && label.is_none_or(|(k, v)| {
                        c.labels.iter().any(|(lk, lv)| lk == k && lv == v)
                    })
            })
            .unwrap_or_else(|| panic!("missing counter {name}"))
            .value
    };
    // Request accounting: exactly what this client sent (plus nothing —
    // the loopback server has no other clients).
    assert_eq!(counter("exadigit_requests_total", Some(("type", "Advance"))), 1);
    assert_eq!(counter("exadigit_requests_total", Some(("type", "Query"))), 2);
    assert_eq!(counter("exadigit_requests_total", Some(("type", "Status"))), 1);
    // Cache counters agree with the Status probe taken on the same
    // connection (single source of truth).
    assert_eq!(counter("exadigit_cache_hits_total", None), status.cache_hits);
    assert_eq!(counter("exadigit_cache_misses_total", None), status.cache_misses);
    assert!(status.cache_hits >= 1 && status.cache_misses >= 1);
    // The kernel's counters crossed the service boundary: a synthetic
    // 15 min of Frontier ingest sees arrivals and record boundaries.
    assert!(counter("exadigit_kernel_events_total", Some(("kind", "job_arrival"))) > 0);

    // Per-type latency histograms hold one observation per request.
    let hist = report
        .histograms
        .iter()
        .find(|h| {
            h.name == "exadigit_request_seconds"
                && h.labels.iter().any(|(k, v)| k == "type" && v == "Query")
        })
        .expect("Query latency histogram");
    assert_eq!(hist.count, 2);
    assert!(hist.sum > 0.0);
    assert!(hist.p50 <= hist.p90 && hist.p90 <= hist.p99);

    // Live gauges mirrored from the status collection.
    let gauge = |name: &str| -> f64 {
        report
            .gauges
            .iter()
            .find(|g| g.name == name)
            .unwrap_or_else(|| panic!("missing gauge {name}"))
            .value
    };
    assert_eq!(gauge("exadigit_live_now_seconds"), status.now_s as f64);
    assert_eq!(gauge("exadigit_snapshots"), 1.0);

    // The trace ring saw this connection's lifecycle: every request
    // admitted, executed, written.
    assert!(!report.trace.is_empty());
    assert!(report.trace.iter().any(|t| t.request == "Query" && t.stage == "executing"));
    assert!(report.trace.iter().any(|t| t.request == "Advance" && t.stage == "written"));
    let mut stages: Vec<&str> = report
        .trace
        .iter()
        .filter(|t| t.request == "Advance")
        .map(|t| t.stage.as_str())
        .collect();
    stages.dedup();
    assert_eq!(stages, vec!["admitted", "executing", "written"]);

    // A power-only twin exposes no cooling gauges and a clean start has
    // no recovery warnings.
    assert!(!report.gauges.iter().any(|g| g.name == "exadigit_pue"));
    assert!(report.recovery_warnings.is_empty());
    handle.shutdown();
}

/// The Prometheus sidecar scraped over real HTTP: same registry as the
/// `Metrics` verb, rendered in text exposition format 0.0.4.
#[test]
fn http_sidecar_serves_prometheus_text() {
    use std::io::{Read, Write};
    let handle = TwinServer::bind(service(), "127.0.0.1:0")
        .unwrap()
        .with_metrics_http("127.0.0.1:0")
        .unwrap()
        .spawn();
    let metrics_addr = handle.metrics_addr().expect("sidecar was configured");
    let mut client = ServiceClient::connect(handle.addr()).unwrap();
    client.request(&Request::Advance { seconds: 600 }).unwrap();
    client.request(&Request::Status).unwrap();

    let scrape = |path: &str| -> String {
        let mut stream = std::net::TcpStream::connect(metrics_addr).unwrap();
        write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n").unwrap();
        let mut body = String::new();
        stream.read_to_string(&mut body).unwrap();
        body
    };
    let response = scrape("/metrics");
    assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
    assert!(response.contains("text/plain; version=0.0.4"), "{response}");
    assert!(response.contains("# TYPE exadigit_requests_total counter"), "{response}");
    assert!(response.contains("exadigit_requests_total{type=\"Advance\"} 1"), "{response}");
    assert!(response.contains("exadigit_request_seconds_bucket"), "{response}");
    assert!(response.contains("exadigit_live_now_seconds 600"), "{response}");
    assert!(scrape("/nope").starts_with("HTTP/1.1 404"), "unknown paths 404");
    handle.shutdown();
}

/// Observability off is a real off switch: the hot-path instruments
/// stop moving while the service keeps answering correctly, and the
/// live-state gauges, derived from `Status` at collection, stay current.
#[test]
fn disabled_observability_stops_the_counters_not_the_service() {
    let svc = service();
    svc.set_observability(false);
    let handle = TwinServer::bind(svc, "127.0.0.1:0").unwrap().spawn();
    let mut client = ServiceClient::connect(handle.addr()).unwrap();
    let Response::Advanced { now_s, .. } =
        client.request(&Request::Advance { seconds: 300 }).unwrap()
    else {
        panic!()
    };
    assert_eq!(now_s, 300);
    let Response::Metrics(report) = client.request(&Request::Metrics).unwrap() else {
        panic!()
    };
    let advances = report
        .counters
        .iter()
        .find(|c| {
            c.name == "exadigit_requests_total"
                && c.labels.iter().any(|(k, v)| k == "type" && v == "Advance")
        })
        .expect("instrument stays registered")
        .value;
    assert_eq!(advances, 0, "disabled instrumentation must not count");
    assert!(report.trace.is_empty(), "no trace events when disabled");
    let now = report
        .gauges
        .iter()
        .find(|g| g.name == "exadigit_live_now_seconds")
        .expect("live-state gauges do not depend on the switch");
    assert_eq!(now.value, 300.0);
    handle.shutdown();
}
