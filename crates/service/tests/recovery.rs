//! Kill-and-recover: the service-level durability contract.
//!
//! A [`TwinService`] built with a persist directory writes every adopted
//! snapshot to disk and checkpoints its live twin on demand; dropping the
//! service (process death) and calling [`TwinService::recover`] on the
//! same directory must bring back the live twin at its checkpointed
//! second, every snapshot id and label, and answers equivalent to what
//! the pre-crash service would have given — the query cache restarts
//! cold, but a cold cache recomputing the *same* outcome is exactly the
//! soundness bar. Torn snapshot files and corrupt manifest lines degrade
//! to typed per-request errors and warnings; they never panic and are
//! never silently skipped.

use exadigit_core::config::TwinConfig;
use exadigit_service::{
    read_message, write_message, PersistError, Request, Response, TelemetryFeed, TwinServer,
    TwinService, WhatIfSpec,
};
use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::Duration;

fn scratch_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("exadigit-recovery-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn durable_service(dir: &PathBuf) -> TwinService {
    TwinService::new(TwinConfig::frontier_power_only(), TelemetryFeed::synthetic(11, 1), 11)
        .unwrap()
        .with_threads(2)
        .with_persist_dir(dir)
        .unwrap()
}

#[test]
fn checkpoint_kill_recover_restores_snapshots_and_answers() {
    let dir = scratch_dir("lifecycle");
    let spec = WhatIfSpec { horizon_s: 900, ..WhatIfSpec::default() };
    let (morning_answer, noon_answer, ingested) = {
        let svc = durable_service(&dir);
        svc.handle(&Request::Advance { seconds: 21_600 });
        let Response::SnapshotTaken(morning) =
            svc.handle(&Request::Snapshot { label: "morning".into() })
        else {
            panic!()
        };
        svc.handle(&Request::Advance { seconds: 21_600 });
        let Response::SnapshotTaken(noon) =
            svc.handle(&Request::Snapshot { label: "noon".into() })
        else {
            panic!()
        };
        let Response::Answer { outcome: morning_answer, .. } =
            svc.handle(&Request::Query { snapshot_id: morning.id, spec: spec.clone() })
        else {
            panic!()
        };
        let Response::Answer { outcome: noon_answer, .. } =
            svc.handle(&Request::Query { snapshot_id: noon.id, spec: spec.clone() })
        else {
            panic!()
        };
        // Checkpoint mid-day, then "crash" (drop without shutdown).
        let Response::Checkpointed { now_s, bytes } = svc.handle(&Request::Checkpoint) else {
            panic!("checkpoint must succeed with a persist dir")
        };
        assert_eq!(now_s, 43_200);
        assert!(bytes > 0);
        let Response::Status(s) = svc.handle(&Request::Status) else { panic!() };
        (morning_answer, noon_answer, s.jobs_ingested)
    };

    let svc = TwinService::recover(&dir).unwrap().with_threads(2);
    assert!(svc.recovery_warnings().is_empty());

    // The live twin resumes at the checkpointed second with its ingest
    // counter intact.
    let Response::Status(s) = svc.handle(&Request::Status) else { panic!() };
    assert_eq!(s.now_s, 43_200);
    assert_eq!(s.jobs_ingested, ingested);

    // Snapshot ids and labels survive.
    let Response::Snapshots(list) = svc.handle(&Request::ListSnapshots) else { panic!() };
    assert_eq!(
        list.iter().map(|i| (i.id, i.label.as_str())).collect::<Vec<_>>(),
        vec![(1, "morning"), (2, "noon")]
    );

    // Cached-equivalent answers: the recomputed outcomes equal the
    // pre-crash ones exactly (first ask is a cold-cache compute, second
    // is a hit on the same bits).
    for (id, expected) in [(1, &morning_answer), (2, &noon_answer)] {
        let q = Request::Query { snapshot_id: id, spec: spec.clone() };
        let Response::Answer { cached: false, outcome } = svc.handle(&q) else {
            panic!("recovered cache must start cold")
        };
        assert_eq!(&outcome, expected, "snapshot {id} answered differently after recovery");
        let Response::Answer { cached: true, outcome } = svc.handle(&q) else { panic!() };
        assert_eq!(&outcome, expected);
    }

    // The recovered service keeps serving: ingest continues and new
    // snapshot ids never reuse pre-crash ones.
    assert!(matches!(
        svc.handle(&Request::Advance { seconds: 600 }),
        Response::Advanced { now_s: 43_800, .. }
    ));
    let Response::SnapshotTaken(info) =
        svc.handle(&Request::Snapshot { label: "post-crash".into() })
    else {
        panic!()
    };
    assert_eq!(info.id, 3, "next_id survives the restart");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recovery_without_a_checkpoint_is_a_typed_error() {
    let dir = scratch_dir("no-checkpoint");
    {
        let svc = durable_service(&dir);
        svc.handle(&Request::Advance { seconds: 600 });
        svc.handle(&Request::Snapshot { label: "only".into() });
        // No Checkpoint request before the "crash".
    }
    let err = TwinService::recover(&dir).err().expect("recover must fail without live.json");
    assert!(err.contains("live.json"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_snapshot_file_degrades_to_a_per_request_error() {
    let dir = scratch_dir("torn-snap");
    {
        let svc = durable_service(&dir);
        svc.handle(&Request::Advance { seconds: 1_800 });
        svc.handle(&Request::Snapshot { label: "a".into() });
        svc.handle(&Request::Snapshot { label: "b".into() });
        svc.handle(&Request::Checkpoint);
    }
    // Tear snapshot 1's file mid-payload.
    let snap_path = dir.join("snap-1.json");
    let bytes = std::fs::read(&snap_path).unwrap();
    std::fs::write(&snap_path, &bytes[..bytes.len() / 3]).unwrap();

    let svc = TwinService::recover(&dir).unwrap();
    // The torn snapshot errors (typed, mentioning the tear), siblings
    // and the live twin are untouched.
    let spec = WhatIfSpec { horizon_s: 300, ..WhatIfSpec::default() };
    let Response::Error { message } =
        svc.handle(&Request::Query { snapshot_id: 1, spec: spec.clone() })
    else {
        panic!("a torn snapshot must answer an error, not a panic")
    };
    assert!(message.contains("truncated"), "{message}");
    assert!(matches!(
        svc.handle(&Request::Query { snapshot_id: 2, spec }),
        Response::Answer { .. }
    ));
    // Persist can heal the torn file from nothing only if the snapshot
    // is resident; here it is spilled and unreadable, so it errors too.
    assert!(matches!(
        svc.handle(&Request::Persist { snapshot_id: 1 }),
        Response::Error { .. }
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_manifest_line_is_reported_not_skipped() {
    let dir = scratch_dir("bad-manifest");
    {
        let svc = durable_service(&dir);
        svc.handle(&Request::Advance { seconds: 1_200 });
        svc.handle(&Request::Snapshot { label: "a".into() });
        svc.handle(&Request::Snapshot { label: "b".into() });
        svc.handle(&Request::Checkpoint);
    }
    // Corrupt the first entry line in place, keeping the length prefix
    // truthful (a damaged line, not a torn file).
    let manifest = dir.join("manifest.json");
    let bytes = std::fs::read(&manifest).unwrap();
    let text = String::from_utf8(bytes[8..].to_vec()).unwrap();
    let mangled: Vec<String> = text
        .lines()
        .enumerate()
        .map(|(i, l)| if i == 1 { "{broken".to_string() } else { l.to_string() })
        .collect();
    let payload = mangled.join("\n") + "\n";
    let mut rewritten = (payload.len() as u64).to_le_bytes().to_vec();
    rewritten.extend_from_slice(payload.as_bytes());
    std::fs::write(&manifest, rewritten).unwrap();

    let svc = TwinService::recover(&dir).unwrap();
    let warnings = svc.recovery_warnings();
    assert_eq!(warnings.len(), 1, "the damaged line is reported");
    assert!(warnings[0].contains("line 2"), "{}", warnings[0]);
    // The intact snapshot still serves; the damaged id is unknown (its
    // manifest entry is gone), which is an error, not a silent blank.
    let Response::Snapshots(list) = svc.handle(&Request::ListSnapshots) else { panic!() };
    assert_eq!(list.iter().map(|i| i.id).collect::<Vec<_>>(), vec![2]);
    assert!(matches!(
        svc.handle(&Request::Query { snapshot_id: 1, spec: WhatIfSpec::default() }),
        Response::Error { .. }
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recovery_warnings_travel_the_wire() {
    let dir = scratch_dir("warn-wire");
    {
        let svc = durable_service(&dir);
        svc.handle(&Request::Advance { seconds: 1_200 });
        svc.handle(&Request::Snapshot { label: "a".into() });
        svc.handle(&Request::Snapshot { label: "b".into() });
        svc.handle(&Request::Checkpoint);
    }
    // Same in-place damage as above: a mangled entry line with a
    // truthful length prefix.
    let manifest = dir.join("manifest.json");
    let bytes = std::fs::read(&manifest).unwrap();
    let text = String::from_utf8(bytes[8..].to_vec()).unwrap();
    let mangled: Vec<String> = text
        .lines()
        .enumerate()
        .map(|(i, l)| if i == 1 { "{broken".to_string() } else { l.to_string() })
        .collect();
    let payload = mangled.join("\n") + "\n";
    let mut rewritten = (payload.len() as u64).to_le_bytes().to_vec();
    rewritten.extend_from_slice(payload.as_bytes());
    std::fs::write(&manifest, rewritten).unwrap();

    // A remote operator never calls `recovery_warnings()` directly; the
    // Metrics verb must carry the same report over a real socket.
    let svc = TwinService::recover(&dir).unwrap();
    let handle =
        exadigit_service::TwinServer::bind(svc, "127.0.0.1:0").expect("bind loopback").spawn();
    let mut client =
        exadigit_service::ServiceClient::connect(handle.addr()).expect("connect loopback");
    let Response::Metrics(report) = client.request(&Request::Metrics).unwrap() else {
        panic!("Metrics request must answer with a metrics report");
    };
    assert_eq!(report.recovery_warnings.len(), 1, "the damaged line travels the wire");
    assert!(report.recovery_warnings[0].contains("line 2"), "{}", report.recovery_warnings[0]);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// One request on a fresh connection. The read timeout turns a request
/// that no worker will ever answer into a failure instead of a hang.
fn ask(addr: SocketAddr, request: &Request) -> Response {
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    write_message(&mut stream.try_clone().unwrap(), request).unwrap();
    let answer = read_message(&mut BufReader::new(stream));
    answer.expect("answered within 30 s").expect("not closed").expect("well-formed")
}

#[test]
fn a_handler_panic_answers_error_and_the_worker_keeps_serving() {
    let dir = scratch_dir("handler-panic");
    {
        let svc = durable_service(&dir);
        svc.handle(&Request::Advance { seconds: 600 });
        svc.handle(&Request::Checkpoint);
    }
    // Move the first job still in the checkpointed feed onto a partition
    // the system lacks. Recovery does not check the feed, so the next
    // Advance hands the job to the scheduler, which panics placing it.
    let path = dir.join("live.json");
    let bytes = std::fs::read(&path).unwrap();
    let text = String::from_utf8(bytes[8..].to_vec()).unwrap();
    let (from, to) = ("\"partition\":0", "\"partition\":99");
    let feed = text.find("\"feed\":").expect("the checkpoint carries the feed");
    let job = feed + text[feed..].find(from).expect("the feed holds a job");
    let tampered = format!("{}{to}{}", &text[..job], &text[job + from.len()..]);
    let mut rewritten = (tampered.len() as u64).to_le_bytes().to_vec();
    rewritten.extend_from_slice(tampered.as_bytes());
    std::fs::write(&path, rewritten).unwrap();

    let svc = TwinService::recover(&dir).unwrap();
    let handle = TwinServer::bind(svc, "127.0.0.1:0").unwrap().with_workers(1).spawn();
    let r = ask(handle.addr(), &Request::Advance { seconds: 3_600 });
    let Response::Error { message } = &r else { panic!("{r:?}") };
    assert!(message.contains("Advance") && message.contains("panicked"), "{message}");
    // The only worker survived: a fresh connection still gets answers.
    let r = ask(handle.addr(), &Request::Status);
    assert!(matches!(r, Response::Status(_)), "{r:?}");
    let Response::Metrics(report) = ask(handle.addr(), &Request::Metrics) else { panic!() };
    let panics = report.counters.iter().find(|c| c.name == "exadigit_handler_panics_total");
    assert_eq!(panics.map(|c| c.value), Some(1));
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_manifest_header_fails_recovery_with_a_typed_error() {
    let dir = scratch_dir("bad-header");
    {
        let svc = durable_service(&dir);
        svc.handle(&Request::Snapshot { label: "a".into() });
        svc.handle(&Request::Checkpoint);
    }
    let manifest = dir.join("manifest.json");
    let payload = b"not a header\n".to_vec();
    let mut rewritten = (payload.len() as u64).to_le_bytes().to_vec();
    rewritten.extend_from_slice(&payload);
    std::fs::write(&manifest, rewritten).unwrap();
    let err = TwinService::recover(&dir).err().expect("a headerless manifest cannot recover");
    assert!(err.contains("header"), "{err}");

    // The same failure is typed at the store layer.
    match exadigit_service::SnapshotStore::recover(&dir) {
        Err(PersistError::Corrupt { detail, .. }) => {
            assert!(detail.contains("header"), "{detail}")
        }
        Err(e) => panic!("expected Corrupt, got {e}"),
        Ok(_) => panic!("recovery must fail"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dropped_snapshot_stays_dropped_across_recovery_and_cache_stays_clean() {
    // The satellite cache fix: invalidation applies to spilled snapshots
    // too, and because `next_id` is persisted, a recovered service can
    // never mint an id that stale cache entries were keyed under.
    let dir = scratch_dir("drop-across");
    {
        let svc = durable_service(&dir);
        svc.handle(&Request::Advance { seconds: 900 });
        svc.handle(&Request::Snapshot { label: "doomed".into() });
        let q = Request::Query {
            snapshot_id: 1,
            spec: WhatIfSpec { horizon_s: 300, ..WhatIfSpec::default() },
        };
        svc.handle(&q);
        let Response::Status(s) = svc.handle(&Request::Status) else { panic!() };
        assert_eq!(s.cache_entries, 1);
        // Dropping invalidates the cache even though the snapshot also
        // lives on disk.
        svc.handle(&Request::DropSnapshot { snapshot_id: 1 });
        let Response::Status(s) = svc.handle(&Request::Status) else { panic!() };
        assert_eq!(s.cache_entries, 0, "spilled snapshot's cache entries are invalidated");
        assert!(matches!(svc.handle(&q), Response::Error { .. }));
        svc.handle(&Request::Checkpoint);
    }
    let svc = TwinService::recover(&dir).unwrap();
    let Response::Snapshots(list) = svc.handle(&Request::ListSnapshots) else { panic!() };
    assert!(list.is_empty(), "the drop survived the restart");
    let Response::SnapshotTaken(info) =
        svc.handle(&Request::Snapshot { label: "fresh".into() })
    else {
        panic!()
    };
    assert_eq!(info.id, 2, "the dropped id is never reused");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_and_persist_travel_the_wire_format() {
    // The new protocol verbs round-trip like every other message.
    let mut wire = Vec::new();
    write_message(&mut wire, &Request::Checkpoint).unwrap();
    write_message(&mut wire, &Request::Persist { snapshot_id: 9 }).unwrap();
    write_message(&mut wire, &Response::Checkpointed { now_s: 120, bytes: 4_096 }).unwrap();
    write_message(&mut wire, &Response::Persisted { snapshot_id: 9, bytes: 512 }).unwrap();
    let mut reader = std::io::BufReader::new(wire.as_slice());
    let a: Request = read_message(&mut reader).unwrap().unwrap().unwrap();
    let b: Request = read_message(&mut reader).unwrap().unwrap().unwrap();
    let c: Response = read_message(&mut reader).unwrap().unwrap().unwrap();
    let d: Response = read_message(&mut reader).unwrap().unwrap().unwrap();
    assert_eq!(a, Request::Checkpoint);
    assert_eq!(b, Request::Persist { snapshot_id: 9 });
    assert_eq!(c, Response::Checkpointed { now_s: 120, bytes: 4_096 });
    assert_eq!(d, Response::Persisted { snapshot_id: 9, bytes: 512 });
}

#[test]
fn auto_checkpoint_requires_a_persist_dir_and_positive_cadence() {
    let svc =
        TwinService::new(TwinConfig::frontier_power_only(), TelemetryFeed::synthetic(3, 1), 3)
            .unwrap();
    // No durable tier: the cadence has nowhere to write.
    assert!(svc.with_auto_checkpoint_every(4).is_err());
    let dir = scratch_dir("auto-zero");
    let svc = durable_service(&dir);
    assert!(svc.with_auto_checkpoint_every(0).is_err(), "zero cadence is a config mistake");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn auto_checkpoint_bounds_crash_loss_to_the_cadence() {
    let dir = scratch_dir("auto-cadence");
    {
        // Checkpoint automatically after every 2 ingest batches; the
        // client never sends an explicit Checkpoint.
        let svc = durable_service(&dir).with_auto_checkpoint_every(2).unwrap();
        svc.handle(&Request::Advance { seconds: 600 });
        // One batch since the last durable write: recovery still finds
        // nothing (explicit-only semantics are preserved between ticks).
        assert!(TwinService::recover(&dir).is_err(), "no checkpoint after 1 of 2 batches");
        svc.handle(&Request::Advance { seconds: 600 });
        // Second batch crossed the cadence: live.json exists now.
        let recovered = TwinService::recover(&dir).unwrap();
        let Response::Status(s) = recovered.handle(&Request::Status) else { panic!() };
        assert_eq!(s.now_s, 1_200, "auto-checkpoint captured the second advance");
        // A third advance leaves the twin past the checkpoint; crash-loss
        // is bounded by the cadence, so recovery lands on t = 1200 s.
        svc.handle(&Request::Advance { seconds: 600 });
        let recovered = TwinService::recover(&dir).unwrap();
        let Response::Status(s) = recovered.handle(&Request::Status) else { panic!() };
        assert_eq!(s.now_s, 1_200, "the un-checkpointed batch is the only loss");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn manual_checkpoint_restarts_the_auto_cadence() {
    let dir = scratch_dir("auto-manual");
    {
        let svc = durable_service(&dir).with_auto_checkpoint_every(2).unwrap();
        svc.handle(&Request::Advance { seconds: 300 });
        // Manual checkpoint at t = 300 resets the batch counter...
        let Response::Checkpointed { now_s, .. } = svc.handle(&Request::Checkpoint) else {
            panic!()
        };
        assert_eq!(now_s, 300);
        // ...so the next advance is 1 of 2 again and does not re-write.
        svc.handle(&Request::Advance { seconds: 300 });
        let recovered = TwinService::recover(&dir).unwrap();
        let Response::Status(s) = recovered.handle(&Request::Status) else { panic!() };
        assert_eq!(s.now_s, 300, "cadence counts from the manual checkpoint");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
