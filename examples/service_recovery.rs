//! Restart-recovery smoke: boot a durable scenario server, ingest half a
//! telemetry day, snapshot, answer a what-if, checkpoint — then kill the
//! server, recover a new one from the persist directory, and verify the
//! live twin, the snapshot catalogue, and the query answers all survived
//! the "crash" bit-for-bit.
//!
//! ```sh
//! cargo run --release --example service_recovery
//! ```
//!
//! Runs in CI as the durability smoke test (exit code 1 on any violated
//! assertion).

use exadigit_core::TwinConfig;
use exadigit_service::{
    Request, Response, ServiceClient, TelemetryFeed, TwinServer, TwinService, WhatIfSpec,
};

fn main() {
    println!("ExaDigiT-rs twin-as-a-service — restart recovery demo\n");
    let dir = std::env::temp_dir()
        .join(format!("exadigit-recovery-demo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // 1. Boot a durable service: every snapshot is written under `dir`
    //    (length-prefixed JSON, atomic tmp + rename) as it is taken.
    let config = TwinConfig::frontier_power_only();
    let feed = TelemetryFeed::synthetic(&config.system, 42, 1);
    let service = TwinService::new(config, feed, 42)
        .expect("frontier config is valid")
        .with_persist_dir(&dir)
        .expect("fresh persist dir");
    let handle = TwinServer::bind(service, "127.0.0.1:0").expect("bind loopback").spawn();
    let mut client = ServiceClient::connect(handle.addr()).expect("connect");
    println!("durable server on {} persisting to {}", handle.addr(), dir.display());

    // 2. Ingest half a day, freeze "noon", answer a what-if.
    let Response::Advanced { now_s, jobs_ingested } =
        client.expect(&Request::Advance { seconds: 43_200 }).expect("advance")
    else {
        panic!("unexpected response to Advance")
    };
    println!("ingested half a day: t = {now_s} s, {jobs_ingested} jobs");
    let Response::SnapshotTaken(info) =
        client.expect(&Request::Snapshot { label: "noon".into() }).expect("snapshot")
    else {
        panic!("unexpected response to Snapshot")
    };
    let spec = WhatIfSpec { label: "next hour".into(), horizon_s: 3_600, ..WhatIfSpec::default() };
    let Response::Answer { outcome: before, .. } = client
        .expect(&Request::Query { snapshot_id: info.id, spec: spec.clone() })
        .expect("query")
    else {
        panic!("unexpected response to Query")
    };
    println!(
        "snapshot {} ('{}'): next hour averages {:.2} MW, {} jobs complete",
        info.id, info.label, before.avg_power_mw, before.jobs_completed
    );

    // 3. Checkpoint the live twin, then kill the server — no graceful
    //    state handoff, only what the disk already holds.
    let Response::Checkpointed { now_s, bytes } =
        client.expect(&Request::Checkpoint).expect("checkpoint")
    else {
        panic!("unexpected response to Checkpoint")
    };
    println!("checkpointed live twin at t = {now_s} s ({bytes} bytes)");
    drop(client);
    handle.shutdown();
    println!("server killed ✗\n");

    // 4. Recover a brand-new service from the directory alone.
    let recovered = TwinService::recover(&dir).expect("recover from persist dir");
    assert!(recovered.recovery_warnings().is_empty(), "clean recovery");
    let handle = TwinServer::bind(recovered, "127.0.0.1:0").expect("rebind").spawn();
    let mut client = ServiceClient::connect(handle.addr()).expect("reconnect");
    println!("recovered server on {}", handle.addr());

    // 5. The live twin resumes at the checkpointed second; the snapshot
    //    catalogue survived with its ids and labels.
    let Response::Status(status) = client.expect(&Request::Status).expect("status") else {
        panic!("unexpected response to Status")
    };
    assert_eq!(status.now_s, 43_200, "live twin resumes at the checkpoint");
    let Response::Snapshots(list) = client.expect(&Request::ListSnapshots).expect("list")
    else {
        panic!("unexpected response to ListSnapshots")
    };
    assert_eq!(list.len(), 1);
    assert_eq!(list[0].id, info.id);
    assert_eq!(list[0].label, "noon");
    println!("live twin back at t = {} s; snapshot '{}' (id {}) survived", status.now_s,
        list[0].label, list[0].id);

    // 6. The same question gets the same answer: the cache restarts cold
    //    (first ask recomputes from the rehydrated snapshot), and the
    //    recomputed outcome equals the pre-crash one exactly.
    let Response::Answer { cached, outcome: after } = client
        .expect(&Request::Query { snapshot_id: info.id, spec: spec.clone() })
        .expect("post-recovery query")
    else {
        panic!("unexpected response to Query")
    };
    assert!(!cached, "recovered cache starts cold");
    assert_eq!(after, before, "the recovered snapshot answers bit-identically");
    let Response::Answer { cached, .. } = client
        .expect(&Request::Query { snapshot_id: info.id, spec })
        .expect("cached re-ask")
    else {
        panic!("unexpected response to Query")
    };
    assert!(cached, "second ask hits the rebuilt cache");
    println!("what-if re-answered after recovery: bit-identical, cache warm again ✓");

    // 7. The recovered service keeps serving without id reuse.
    let Response::Advanced { now_s, .. } =
        client.expect(&Request::Advance { seconds: 3_600 }).expect("post-recovery advance")
    else {
        panic!("unexpected response to Advance")
    };
    assert_eq!(now_s, 46_800);
    let Response::SnapshotTaken(fresh) =
        client.expect(&Request::Snapshot { label: "afternoon".into() }).expect("snapshot")
    else {
        panic!("unexpected response to Snapshot")
    };
    assert_eq!(fresh.id, info.id + 1, "snapshot ids never restart from 1");
    println!("ingest resumed to t = {now_s} s; new snapshot took id {} ✓", fresh.id);

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    println!("\nrecovered server shut down cleanly ✓");
}
