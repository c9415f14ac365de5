//! Serving-tier scale: hundreds of concurrent loopback clients against
//! the bounded worker pool.
//!
//! The serving-tier acceptance criterion (`docs/SERVICE.md` § "Serving
//! tier"): the server must sustain **≥ 128 concurrent clients** with a
//! fixed worker count (no thread-per-connection), answer over-capacity
//! load with `Busy` backpressure instead of unbounded queueing, and
//! keep cached outcomes bit-identical to uncached ones. This bench
//! drives that shape directly — a mixed Query / QueryBatch / Advance /
//! Status workload from `EXADIGIT_SCALE_CLIENTS` threads (default 128,
//! `EXADIGIT_SCALE_REQUESTS` requests each) — and reports throughput
//! plus client-observed p50/p99 latency, then storms a deliberately
//! tiny pool to measure the admission-control refusal rate, then
//! measures the observability overhead budget (`docs/OBSERVABILITY.md`:
//! instrumented vs uninstrumented < 2%, asserted) with interleaved
//! paired blocks on one in-process service. Baseline:
//! `BENCH_service_scale.json`.
//!
//! Not a criterion harness: latency percentiles need every sample, not
//! a mean, so the bench owns its own measurement loop.

use exadigit_core::config::TwinConfig;
use exadigit_service::{
    Request, Response, ServiceClient, TelemetryFeed, TwinServer, TwinService, WhatIfSpec,
};
use std::time::{Duration, Instant};

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn service() -> TwinService {
    let config = TwinConfig::frontier_power_only();
    let feed = TelemetryFeed::synthetic(&config.system, 2024, 1);
    TwinService::new(config, feed, 2024).expect("frontier config is valid").with_threads(2)
}

/// The mixed request stream client `i` sends at step `j`: mostly
/// queries over a small working set (cache-friendly, like operators
/// re-asking the hot questions), plus batches, status probes, and
/// occasional one-second ingest ticks.
fn request_for(snapshot_id: u64, i: usize, j: usize) -> Request {
    let spec = |k: usize| WhatIfSpec {
        label: format!("scale{k}"),
        horizon_s: 600 + 300 * (k as u64 % 8),
        ..WhatIfSpec::default()
    };
    match (i + j) % 8 {
        0 => Request::Status,
        1 => Request::QueryBatch {
            snapshot_id,
            specs: (0..3).map(|k| spec((i + j + k) % 8)).collect(),
        },
        2 if i.is_multiple_of(16) => Request::Advance { seconds: 1 },
        k => Request::Query { snapshot_id, spec: spec(k) },
    }
}

fn percentile(sorted_ns: &[u64], p: f64) -> u64 {
    if sorted_ns.is_empty() {
        return 0;
    }
    let rank = ((sorted_ns.len() - 1) as f64 * p).round() as usize;
    sorted_ns[rank]
}

struct ClientReport {
    latencies_ns: Vec<u64>,
    busy_retries: u64,
}

fn main() {
    let clients = env_usize("EXADIGIT_SCALE_CLIENTS", 128);
    let requests = env_usize("EXADIGIT_SCALE_REQUESTS", 16);

    // ---- Phase 1: sustained mixed load on the default-sized pool ----
    let handle = TwinServer::bind(service(), "127.0.0.1:0")
        .expect("bind loopback")
        .with_workers(4)
        .with_queue_depth(256)
        .spawn();
    let addr = handle.addr();
    let mut setup = ServiceClient::connect(addr).expect("connect");
    setup.request(&Request::Advance { seconds: 43_200 }).expect("advance to noon");
    let Response::SnapshotTaken(info) =
        setup.request(&Request::Snapshot { label: "noon".into() }).expect("snapshot")
    else {
        panic!("unexpected response to Snapshot")
    };
    // Warm the working set so the steady state measures the serving
    // tier, not eight first-compute forks.
    for k in 0..8 {
        setup
            .request(&Request::Query {
                snapshot_id: info.id,
                spec: WhatIfSpec {
                    label: format!("scale{k}"),
                    horizon_s: 600 + 300 * (k % 8),
                    ..WhatIfSpec::default()
                },
            })
            .expect("warm");
    }

    let wall = Instant::now();
    let reports: Vec<ClientReport> = {
        let threads: Vec<_> = (0..clients)
            .map(|i| {
                let snapshot_id = info.id;
                std::thread::spawn(move || {
                    let mut client = ServiceClient::connect(addr).expect("client connect");
                    let mut report =
                        ClientReport { latencies_ns: Vec::with_capacity(requests), busy_retries: 0 };
                    for j in 0..requests {
                        let request = request_for(snapshot_id, i, j);
                        let t0 = Instant::now();
                        loop {
                            match client.request(&request).expect("request") {
                                Response::Busy { retry_after_ms } => {
                                    report.busy_retries += 1;
                                    std::thread::sleep(Duration::from_millis(
                                        retry_after_ms.clamp(1, 100),
                                    ));
                                }
                                Response::Error { message } => panic!("server error: {message}"),
                                _ => break,
                            }
                        }
                        // Latency as the client saw it, retries included.
                        report.latencies_ns.push(t0.elapsed().as_nanos() as u64);
                    }
                    report
                })
            })
            .collect();
        threads.into_iter().map(|t| t.join().expect("client thread")).collect()
    };
    let elapsed = wall.elapsed();
    handle.shutdown();

    let mut latencies: Vec<u64> =
        reports.iter().flat_map(|r| r.latencies_ns.iter().copied()).collect();
    latencies.sort_unstable();
    let total_requests = latencies.len();
    let busy_retries: u64 = reports.iter().map(|r| r.busy_retries).sum();
    let throughput = total_requests as f64 / elapsed.as_secs_f64();
    let p50_us = percentile(&latencies, 0.50) as f64 / 1e3;
    let p99_us = percentile(&latencies, 0.99) as f64 / 1e3;

    println!("service_scale/sustained");
    println!("  clients                {clients}");
    println!("  requests               {total_requests} ({requests} per client, mixed Query/QueryBatch/Advance/Status)");
    println!("  workers                4 (+2 readers; no thread-per-connection)");
    println!("  wall time              {:.3} s", elapsed.as_secs_f64());
    println!("  throughput             {throughput:.0} req/s");
    println!("  latency p50            {p50_us:.1} µs");
    println!("  latency p99            {p99_us:.1} µs");
    println!("  busy retries           {busy_retries}");

    // ---- Phase 2: over-capacity storm on a deliberately tiny pool ----
    // Every client fires its requests as fast as it can at 1 worker and
    // a depth-2 queue; admission control must refuse (not queue) the
    // excess, and every refusal must converge through retry.
    let handle = TwinServer::bind(service(), "127.0.0.1:0")
        .expect("bind loopback")
        .with_workers(1)
        .with_queue_depth(2)
        .spawn();
    let addr = handle.addr();
    let mut setup = ServiceClient::connect(addr).expect("connect");
    setup.request(&Request::Advance { seconds: 3_600 }).expect("advance");
    let Response::SnapshotTaken(storm_info) =
        setup.request(&Request::Snapshot { label: "storm".into() }).expect("snapshot")
    else {
        panic!("unexpected response to Snapshot")
    };
    let storm_clients = clients.min(64);
    let storm_requests = 4;
    let storm_reports: Vec<(u64, u64)> = {
        let threads: Vec<_> = (0..storm_clients)
            .map(|i| {
                let snapshot_id = storm_info.id;
                std::thread::spawn(move || {
                    let mut client = ServiceClient::connect(addr).expect("storm connect");
                    let mut answered = 0u64;
                    let mut busy = 0u64;
                    for j in 0..storm_requests {
                        let spec = WhatIfSpec {
                            label: format!("storm{}", (i + j) % 4),
                            horizon_s: 900 + 60 * ((i + j) as u64 % 4),
                            ..WhatIfSpec::default()
                        };
                        loop {
                            match client
                                .request(&Request::Query { snapshot_id, spec: spec.clone() })
                                .expect("storm request")
                            {
                                Response::Busy { retry_after_ms } => {
                                    busy += 1;
                                    std::thread::sleep(Duration::from_millis(
                                        retry_after_ms.clamp(1, 50),
                                    ));
                                }
                                _ => {
                                    answered += 1;
                                    break;
                                }
                            }
                        }
                    }
                    (answered, busy)
                })
            })
            .collect();
        threads.into_iter().map(|t| t.join().expect("storm thread")).collect()
    };
    handle.shutdown();

    let answered: u64 = storm_reports.iter().map(|r| r.0).sum();
    let refused: u64 = storm_reports.iter().map(|r| r.1).sum();
    println!("service_scale/storm");
    println!("  clients                {storm_clients} (workers 1, queue depth 2)");
    println!("  answered               {answered}");
    println!("  busy refusals          {refused}");
    assert_eq!(
        answered,
        (storm_clients * storm_requests) as u64,
        "every storm request must converge through retry"
    );
    assert!(refused > 0, "an over-capacity storm must see Busy backpressure");

    // ---- Phase 3: observability overhead, in-process ----
    // The `exadigit_obs` budget (docs/OBSERVABILITY.md): full
    // instrumentation must cost < 2% of request throughput. Measured
    // in-process (`TwinService::handle` directly) so a single-core host
    // compares the instrumented code path, not socket scheduling noise.
    // Design: ONE service, instrumented and uninstrumented 16-request
    // blocks interleaved back to back via `set_observability` — paired
    // blocks share the same scheduler/frequency environment, so noise
    // that would swamp whole-pass comparisons cancels. Block order
    // alternates per pair to cancel linear drift; the median of 3
    // repeats is the reported figure.
    let pairs = env_usize("EXADIGIT_OVERHEAD_PAIRS", 1024);
    let block_len = 16usize;
    // Every block: 1 Status, 1 uncached Query (fresh label — a real
    // fork + simulate, like an operator asking something new), 14
    // cache hits over the warmed 8-spec working set.
    let block_requests = |cold_tag: usize| -> Vec<Request> {
        (0..block_len)
            .map(|j| {
                if j == 0 {
                    Request::Status
                } else if j == block_len - 1 {
                    Request::Query {
                        snapshot_id: 1,
                        spec: WhatIfSpec {
                            label: format!("cold{cold_tag}"),
                            horizon_s: 600,
                            ..WhatIfSpec::default()
                        },
                    }
                } else {
                    Request::Query {
                        snapshot_id: 1,
                        spec: WhatIfSpec {
                            label: format!("scale{}", j % 8),
                            horizon_s: 600 + 300 * (j as u64 % 8),
                            ..WhatIfSpec::default()
                        },
                    }
                }
            })
            .collect()
    };
    let svc = service();
    svc.handle(&Request::Advance { seconds: 43_200 });
    svc.handle(&Request::Snapshot { label: "overhead".into() });
    for k in 0..8u64 {
        svc.handle(&Request::Query {
            snapshot_id: 1,
            spec: WhatIfSpec {
                label: format!("scale{k}"),
                horizon_s: 600 + 300 * (k % 8),
                ..WhatIfSpec::default()
            },
        });
    }
    // Each block times handle + response serialization: a served
    // request always pays `write_message` (the outcome JSON dwarfs the
    // instrumentation), so measuring handle() alone would overstate the
    // relative overhead of the serving tier.
    let mut sink = 0usize;
    let mut timed_block = |instrumented: bool, cold_tag: usize| -> u128 {
        let requests = block_requests(cold_tag);
        svc.set_observability(instrumented);
        let t0 = Instant::now();
        let mut bytes = 0usize;
        for request in &requests {
            let response = svc.handle(request);
            if let Response::Error { message } = &response {
                panic!("overhead block error: {message}");
            }
            bytes += serde_json::to_string(&response).expect("serializable response").len();
        }
        let elapsed = t0.elapsed().as_nanos();
        sink = sink.wrapping_add(bytes);
        elapsed
    };
    // Per-pair overhead ratios, then the median across pairs: a pair
    // hit by a deschedule or an eviction burst becomes one discarded
    // outlier instead of poisoning an aggregate sum.
    let mut cold_tag = 0usize;
    let mut ratios: Vec<f64> = (0..pairs)
        .map(|p| {
            let (on_ns, off_ns) = if p % 2 == 0 {
                let on = timed_block(true, cold_tag);
                let off = timed_block(false, cold_tag + 1);
                (on, off)
            } else {
                let off = timed_block(false, cold_tag);
                let on = timed_block(true, cold_tag + 1);
                (on, off)
            };
            cold_tag += 2;
            (on_ns as f64 - off_ns as f64) / off_ns as f64 * 100.0
        })
        .collect();
    ratios.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let overhead_pct = ratios[ratios.len() / 2];
    svc.set_observability(true);
    println!("service_scale/observability_overhead");
    println!(
        "  blocks                 {} x {block_len} in-process requests (1 Status, 14 cache-hit Query, 1 uncached Query), handle + response serialization, on/off interleaved",
        pairs * 2
    );
    println!("  response bytes         {:.1} MB serialized", sink as f64 / 1e6);
    println!(
        "  overhead               {overhead_pct:.2} % (median of {pairs} paired blocks; p10 {:.2} %, p90 {:.2} %)",
        ratios[ratios.len() / 10],
        ratios[ratios.len() * 9 / 10]
    );
    assert!(
        overhead_pct < 2.0,
        "observability overhead budget exceeded: {overhead_pct:.2}% >= 2%"
    );
}
