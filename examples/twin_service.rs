//! Twin-as-a-service smoke: start the scenario server on a loopback
//! port, ingest a synthetic telemetry day into the live twin, snapshot
//! it, answer three what-if queries concurrently over TCP, and verify
//! the snapshot/fork/cache contracts end-to-end.
//!
//! ```sh
//! cargo run --release --example twin_service
//! ```
//!
//! Runs in CI as the service-layer smoke test (exit code 1 on any
//! violated assertion).

use exadigit_core::TwinConfig;
use exadigit_service::{
    Request, Response, ServiceClient, TelemetryFeed, TwinServer, TwinService, WhatIfSpec,
};

fn main() {
    println!("ExaDigiT-rs twin-as-a-service — loopback demo\n");

    // 1. Boot the service: a power-only Frontier live twin fed by one
    //    synthetic telemetry day (the stand-in for the real stream).
    let config = TwinConfig::frontier_power_only();
    let feed = TelemetryFeed::synthetic(&config.system, 42, 1);
    let service = TwinService::new(config, feed, 42).expect("frontier config is valid");
    let handle = TwinServer::bind(service, "127.0.0.1:0")
        .expect("bind loopback")
        .with_metrics_http("127.0.0.1:0")
        .expect("bind metrics sidecar")
        .spawn();
    let metrics_addr = handle.metrics_addr().expect("sidecar is attached");
    println!("server listening on {}", handle.addr());
    println!("metrics sidecar on http://{metrics_addr}/metrics");

    // 2. Ingest a telemetry day: the live twin advances to t = 86,400 s,
    //    pulling every job the feed carries.
    let mut client = ServiceClient::connect(handle.addr()).expect("connect");
    let Response::Advanced { now_s, jobs_ingested } =
        client.expect(&Request::Advance { seconds: 86_400 }).expect("advance")
    else {
        panic!("unexpected response to Advance")
    };
    println!("ingested one day: now t = {now_s} s, {jobs_ingested} jobs from the feed");
    assert_eq!(now_s, 86_400);
    assert!(jobs_ingested > 500, "a synthetic day carries hundreds of jobs");

    // 3. Freeze "now" into a snapshot — O(state), not O(elapsed).
    let Response::SnapshotTaken(info) =
        client.expect(&Request::Snapshot { label: "end-of-day".into() }).expect("snapshot")
    else {
        panic!("unexpected response to Snapshot")
    };
    println!(
        "snapshot {} ('{}') at t = {} s ({} running / {} pending jobs)",
        info.id, info.label, info.taken_at_s, info.running_jobs, info.pending_jobs
    );

    // 4. Three concurrent what-if clients branch from the snapshot: a
    //    plain continuation, a fidelity swap (attach an L2 replay
    //    backend to the power-only fork, so the query reports PUE), and
    //    a surge of extra load.
    let addr = handle.addr();
    let snapshot_id = info.id;
    let specs = [
        WhatIfSpec { label: "continuation".into(), horizon_s: 3_600, ..WhatIfSpec::default() },
        WhatIfSpec {
            label: "L2 replay PUE".into(),
            horizon_s: 3_600,
            backend: Some(exadigit_core::config::CoolingBackend::Replay(
                exadigit_telemetry::replay::CoolingTrace::constant(1.0625, 5.0e5),
            )),
            ..WhatIfSpec::default()
        },
        WhatIfSpec {
            label: "surge +2048 nodes".into(),
            horizon_s: 3_600,
            extra_jobs: vec![exadigit_raps::job::Job::new(
                900_001, "surge", 2_048, 3_000, 86_400, 0.9, 0.95,
            )],
            ..WhatIfSpec::default()
        },
    ];
    let workers: Vec<_> = specs
        .iter()
        .cloned()
        .map(|spec| {
            std::thread::spawn(move || {
                let mut c = ServiceClient::connect(addr).expect("connect worker");
                match c.expect(&Request::Query { snapshot_id, spec }).expect("query") {
                    Response::Answer { cached, outcome } => (cached, outcome),
                    other => panic!("unexpected response {other:?}"),
                }
            })
        })
        .collect();
    let answers: Vec<_> = workers.into_iter().map(|w| w.join().expect("worker")).collect();

    println!(
        "\n{:<22} {:>12} {:>12} {:>8} {:>8}",
        "scenario", "avg MW", "MWh (1 h)", "jobs", "PUE"
    );
    for (_, out) in &answers {
        println!(
            "{:<22} {:>12.2} {:>12.2} {:>8} {:>8}",
            out.label,
            out.avg_power_mw,
            out.energy_mwh,
            out.jobs_completed,
            out.final_pue.map_or("—".into(), |p| format!("{p:.4}")),
        );
    }

    // Assert the physics ordering: extra load costs energy; the L2 swap
    // serves the trace's PUE; every outcome covers exactly the queried
    // horizon from the fork point.
    let by_label = |l: &str| {
        &answers.iter().find(|(_, o)| o.label == l).expect("present").1
    };
    let base = by_label("continuation");
    let surge = by_label("surge +2048 nodes");
    assert!(surge.avg_power_mw > base.avg_power_mw, "surge must raise power");
    assert_eq!(base.final_pue, None, "power-only fork has no PUE");
    assert_eq!(by_label("L2 replay PUE").final_pue, Some(1.0625));
    for (_, out) in &answers {
        assert_eq!(out.from_s, 86_400);
        assert_eq!(out.to_s, 90_000);
        assert!(out.avg_power_mw > 5.0, "Frontier never idles below ~7 MW");
    }

    // 5. Ask the continuation again: the answer must come from the cache
    //    and be bit-identical.
    let Response::Answer { cached, outcome } = client
        .expect(&Request::Query { snapshot_id, spec: specs[0].clone() })
        .expect("cached query")
    else {
        panic!("unexpected response")
    };
    assert!(cached, "identical question must hit the cache");
    assert_eq!(&outcome, base);
    println!("\nre-asked 'continuation': served from cache, bit-identical ✓");

    let Response::Status(status) = client.expect(&Request::Status).expect("status") else {
        panic!("unexpected response")
    };
    println!(
        "status: t = {} s, {} snapshots, cache {} entries ({} hits / {} misses)",
        status.now_s, status.snapshots, status.cache_entries, status.cache_hits,
        status.cache_misses
    );
    assert!(status.cache_hits >= 1);

    // 6. Scrape the Prometheus sidecar like a collector would: plain
    //    HTTP GET, text exposition format 0.0.4, counters that agree
    //    with the work done above.
    let scrape = {
        use std::io::{Read, Write};
        let mut sock = std::net::TcpStream::connect(metrics_addr).expect("connect sidecar");
        sock.write_all(b"GET /metrics HTTP/1.1\r\nHost: twin\r\nConnection: close\r\n\r\n")
            .expect("send scrape");
        let mut text = String::new();
        sock.read_to_string(&mut text).expect("read scrape");
        text
    };
    assert!(scrape.starts_with("HTTP/1.1 200 OK"), "scrape must succeed");
    assert!(scrape.contains("text/plain; version=0.0.4"), "Prometheus text format");
    assert!(scrape.contains("# TYPE exadigit_requests_total counter"));
    assert!(
        scrape.contains("exadigit_requests_total{type=\"Query\"} 4"),
        "three concurrent queries plus the cache re-ask were counted"
    );
    assert!(scrape.contains("exadigit_cache_hits_total 1"));
    assert!(scrape.contains("exadigit_live_now_seconds 86400"));
    assert!(scrape.contains("exadigit_request_seconds_bucket"), "latency histograms exposed");
    println!("scraped {} bytes of Prometheus exposition ✓", scrape.len());

    handle.shutdown();
    println!("\nserver shut down cleanly ✓");
}
