//! Durable-snapshot round trip: the bit-identity contract restart
//! recovery rests on.
//!
//! `load(save(sim at t)).run_until(t + h)` must be `f64::to_bits`-identical
//! to the original simulation continuing uninterrupted — same recorded
//! series, same energy bits, same completions — across every scheduler
//! policy and regardless of the pool width the rehydrated copies are
//! fanned out at. The serialized form itself must be canonical
//! (save → load → save is byte-stable), RNG streams must continue
//! mid-sequence without a seam (Box–Muller cache included), and UQ
//! draws answered from a disk-rehydrated snapshot must match the
//! resident snapshot's answers exactly.
//!
//! The same precision note as `service_fork.rs` applies: the fresh
//! reference is advanced with the same `run_until(t)`-then-
//! `run_until(t + h)` call sequence as the saved path, because pausing
//! at `t` splits a steady-state gap's closed-form energy addition and
//! can move `energy_j` by float associativity (~1 ULP) while every
//! recorded series stays bit-identical.

use exadigit_core::config::{CoolingBackend, TwinConfig};
use exadigit_core::online::OnlineSurrogateConfig;
use exadigit_core::twin::DigitalTwin;
use exadigit_raps::config::{PartitionConfig, SystemConfig};
use exadigit_raps::job::{Job, UtilTrace};
use exadigit_raps::power::PowerDelivery;
use exadigit_raps::scheduler::Policy;
use exadigit_raps::simulation::{CoolingCoupling, RapsSimulation};
use exadigit_service::{run_whatif, SnapshotStore, WhatIfSpec};
use exadigit_sim::ensemble::EnsembleRunner;
use exadigit_sim::fmi::CoSimModel;
use exadigit_sim::{Rng, TimeSeries};
use exadigit_telemetry::replay::CoolingTrace;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

const POLICIES: [Policy; 4] =
    [Policy::Fcfs, Policy::Sjf, Policy::FirstFit, Policy::EasyBackfill];

fn small_config(nodes: usize) -> SystemConfig {
    let mut cfg = SystemConfig::frontier();
    cfg.partitions = vec![PartitionConfig { name: "batch".into(), nodes, gpus_per_node: 4 }];
    cfg
}

fn sim(policy: Policy) -> RapsSimulation {
    RapsSimulation::new(small_config(96), PowerDelivery::StandardAC, policy, 15)
}

/// Everything the equivalence compares, all at bit level.
fn state_digest(s: &RapsSimulation) -> (Vec<u64>, Vec<u64>, u64, u64, usize, usize) {
    let out = s.outputs();
    (
        out.system_power_w.samples().map(|v| v.to_bits()).collect(),
        out.utilization.samples().map(|v| v.to_bits()).collect(),
        out.energy_j.to_bits(),
        s.report().jobs_completed,
        s.running_count(),
        s.pending_count(),
    )
}

/// Decode a saved simulation. Power-only states never invoke the
/// cooling rebuild hook.
fn rehydrate(json: &str) -> RapsSimulation {
    let value: serde::Value = serde_json::from_str(json).expect("saved state parses");
    RapsSimulation::from_state(&value, |_| -> Result<Box<dyn CoSimModel>, String> {
        Err("power-only state has no cooling to rebuild".into())
    })
    .expect("saved state loads")
}

fn arbitrary_jobs() -> impl Strategy<Value = Vec<Job>> {
    prop::collection::vec(
        (1usize..=96, 30u64..2_400, 0u64..1_200, 0.0f32..1.0, 0.0f32..1.0),
        1..24,
    )
    .prop_map(|specs| {
        specs
            .into_iter()
            .enumerate()
            .map(|(i, (nodes, wall, submit, cu, gu))| {
                Job::new(i as u64, format!("j{i}"), nodes, wall, submit, cu, gu)
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The headline invariant, for every policy and at pool widths 1 and
    /// 4: a simulation saved mid-run and loaded back continues
    /// bit-identically to the original running uninterrupted, the
    /// serialized form is canonical, and saving is observation-free (the
    /// original is unaffected by having been saved).
    #[test]
    fn save_load_run_equals_uninterrupted_run(
        jobs in arbitrary_jobs(),
        pause_at in 60u64..2_000,
        horizon in 60u64..2_400,
    ) {
        for policy in POLICIES {
            let target = pause_at + horizon;

            // Uninterrupted reference, advanced with the same call
            // sequence as the saved path (see the module docs on why the
            // pause point is part of the energy-bit contract).
            let mut fresh = sim(policy);
            fresh.submit_jobs(jobs.clone());
            fresh.run_until(pause_at).unwrap();
            fresh.run_until(target).unwrap();
            let reference = state_digest(&fresh);

            let mut live = sim(policy);
            live.submit_jobs(jobs.clone());
            live.run_until(pause_at).unwrap();
            let json = serde_json::to_string(&live.save_state().unwrap()).unwrap();

            // Canonical encoding: save → load → save is byte-stable.
            let again =
                serde_json::to_string(&rehydrate(&json).save_state().unwrap()).unwrap();
            prop_assert_eq!(&again, &json, "policy {:?}: second save drifted", policy);

            // Two independent rehydrations continued to the horizon, at
            // pool widths 1 and 4: both must equal the reference (and
            // therefore each other).
            for width in [1usize, 4] {
                let digests = EnsembleRunner::new(0).threads(width).map(
                    vec![(), ()],
                    |_ctx, ()| {
                        let mut back = rehydrate(&json);
                        back.run_until(target).unwrap();
                        state_digest(&back)
                    },
                );
                prop_assert_eq!(
                    &digests[0], &reference,
                    "policy {:?}, width {}: rehydrated run diverged from the original",
                    policy, width
                );
                prop_assert_eq!(
                    &digests[0], &digests[1],
                    "policy {:?}, width {}: two rehydrations of one save diverged",
                    policy, width
                );
            }

            // Saving is a pure observation: the original continues as if
            // never serialized.
            live.run_until(target).unwrap();
            prop_assert_eq!(&state_digest(&live), &reference,
                "policy {:?}: saving perturbed the original", policy);
        }
    }
}

/// A save/load boundary landing *inside* a record gap must neither skip
/// nor duplicate backfilled samples. The lazy record backfill derives
/// its cursor from series length + clock (nothing new is serialized),
/// so with hourly recording a pause at t = 5,000 s — 1,400 s past the
/// t = 3,600 s boundary, 2,200 s before the next — is the adversarial
/// spot: the restored kernel must resume the half-spanned gap exactly.
/// Pinned at bit level against the eager per-second kernel, which never
/// backfills at all.
#[test]
fn save_load_mid_record_gap_matches_eager_kernel_bit_for_bit() {
    let jobs: Vec<Job> = [
        (48usize, 7_200u64, 0u64, 0.7f32, 0.9f32),
        (16, 900, 1_000, 0.4, 0.5),
        (96, 4_000, 4_200, 0.9, 0.8),
        (8, 60, 9_500, 0.2, 0.3),
        (32, 11_000, 12_000, 0.6, 0.7),
    ]
    .iter()
    .enumerate()
    .map(|(i, &(nodes, wall, submit, cu, gu))| {
        Job::new(i as u64, format!("j{i}"), nodes, wall, submit, cu, gu)
    })
    .collect();
    for policy in POLICIES {
        let mk = || {
            let mut s =
                RapsSimulation::new(small_config(96), PowerDelivery::StandardAC, policy, 3_600);
            s.submit_jobs(jobs.clone());
            s
        };
        let mut eager = mk();
        eager.run_until_per_second(25_000).unwrap();

        let mut live = mk();
        live.run_until(5_000).unwrap();
        let json = serde_json::to_string(&live.save_state().unwrap()).unwrap();
        let mut back = rehydrate(&json);
        back.run_until(25_000).unwrap();

        let (rb, re) = (back.report(), eager.report());
        assert_eq!(rb.jobs_completed, re.jobs_completed, "policy {policy:?}");
        assert_eq!(back.pool(), eager.pool(), "policy {policy:?}");
        let (ob, oe) = (back.outputs(), eager.outputs());
        for (name, a, b) in [
            ("system_power_w", &ob.system_power_w, &oe.system_power_w),
            ("utilization", &ob.utilization, &oe.utilization),
            ("loss_w", &ob.loss_w, &oe.loss_w),
            ("efficiency", &ob.efficiency, &oe.efficiency),
        ] {
            assert_eq!(a.len(), b.len(), "policy {policy:?}: {name} length");
            for (i, (x, y)) in a.samples().zip(b.samples()).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "policy {policy:?}: {name}[{i}] diverged across the mid-gap reload"
                );
            }
        }
    }
}

/// A snapshot file is untrusted input. Unchecked, a well-formed save
/// whose record cadence is 0 loads cleanly and then divides by zero in
/// the first run's record backfill, on whichever worker rehydrated it;
/// the load itself must refuse it with a typed error.
#[test]
fn a_save_with_a_zero_record_cadence_is_refused_on_load() {
    let mut twin = DigitalTwin::new(TwinConfig::frontier_power_only()).unwrap();
    twin.run(600).unwrap();
    let mut value = twin.save_state().unwrap();
    let serde::Value::Object(fields) = &mut value else { panic!("a save is an object") };
    let (_, sim) = fields.iter_mut().find(|(k, _)| k == "sim").expect("sim field");
    let serde::Value::Object(sim) = sim else { panic!("sim is an object") };
    let (_, every) = sim.iter_mut().find(|(k, _)| k == "record_every_s").expect("cadence");
    *every = serde::Value::Number(serde::Number::U(0));
    match DigitalTwin::from_state(&value) {
        Ok(_) => panic!("a zero record cadence must be refused"),
        Err(e) => assert!(e.contains("record_every_s"), "{e}"),
    }
}

/// A save carries the cooling backend's payload twice: in the config,
/// which the load validates, and in the model state the model is rebuilt
/// from. Unchecked, an online save whose model state alone says
/// `max_samples: 0` loads, and its next run takes a remainder by zero
/// once a regime fills; the load must refuse it with a typed error.
#[test]
fn a_save_whose_model_state_alone_is_invalid_is_refused_on_load() {
    let config = TwinConfig::marconi100_like()
        .with_backend(CoolingBackend::Online(OnlineSurrogateConfig::default()));
    let twin = DigitalTwin::new(config).unwrap();
    let json = twin.to_snapshot_json().unwrap();
    let field = r#""max_samples":2048"#;
    let model_copy = json.rfind(field).expect("the model state's copy");
    assert!(json.find(field).unwrap() < model_copy, "the config's copy comes first");
    let tampered =
        format!("{}\"max_samples\":0{}", &json[..model_copy], &json[model_copy + field.len()..]);
    match DigitalTwin::from_snapshot_json(&tampered) {
        Ok(_) => panic!("a model state with max_samples 0 must be refused"),
        Err(e) => assert!(e.contains("max_samples"), "{e}"),
    }
}

/// A power-model swap keeps nothing of the chain it replaced. A live
/// simulation swapped from standard to smart rectifiers mid-run, its
/// recompute scratch and held snapshot filled under the standard chain,
/// continues exactly as a reloaded copy given the same swap, on every
/// recorded series.
#[test]
fn a_power_model_swap_mid_run_matches_a_reload_then_the_same_swap() {
    let cfg = small_config(512);
    let jobs: Vec<Job> = [(200usize, 9_000u64, 0u64), (64, 900, 300), (100, 4_000, 2_400)]
        .iter()
        .enumerate()
        .map(|(i, &(nodes, wall, submit))| {
            Job::new(i as u64, format!("j{i}"), nodes, wall, submit, 0.6, 0.8)
        })
        .collect();
    let mut live =
        RapsSimulation::new(cfg.clone(), PowerDelivery::StandardAC, Policy::FirstFit, 15);
    live.submit_jobs(jobs);
    live.run_until(1_800).unwrap();
    let json = serde_json::to_string(&live.save_state().unwrap()).unwrap();
    let mut back = rehydrate(&json);
    for sim in [&mut live, &mut back] {
        sim.set_power_model(cfg.clone(), PowerDelivery::SmartRectifiers).unwrap();
        sim.run_until(7_200).unwrap();
    }
    assert_eq!(state_digest(&live), state_digest(&back));
    let (ol, ob) = (live.outputs(), back.outputs());
    for (name, a, b) in [
        ("system_power_w", &ol.system_power_w, &ob.system_power_w),
        ("loss_w", &ol.loss_w, &ob.loss_w),
        ("utilization", &ol.utilization, &ob.utilization),
        ("efficiency", &ol.efficiency, &ob.efficiency),
        ("pue", &ol.pue, &ob.pue),
    ] {
        assert_eq!(a.len(), b.len(), "{name} length");
        for (i, (x, y)) in a.samples().zip(b.samples()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{name}[{i}] diverged after the swap");
        }
    }
}

/// The node at `path` inside a saved state: object keys, or array
/// indices written as numbers.
fn at<'a>(value: &'a mut serde::Value, path: &[&str]) -> &'a mut serde::Value {
    path.iter().fold(value, |v, key| match v {
        serde::Value::Object(fields) => {
            &mut fields.iter_mut().find(|(k, _)| k == key).expect("field present").1
        }
        serde::Value::Array(items) => &mut items[key.parse::<usize>().expect("an index")],
        _ => panic!("{key}: not a container"),
    })
}

/// A save carries only state, and the load checks what the kernel
/// indexes or relies on. Each of these tampered fresh saves of a twin
/// running a 200-node job, with two jobs still to arrive, is refused with
/// a typed error naming what is wrong, while the untampered save still
/// loads. A tampered last sample is clamped like any utilization.
#[test]
fn a_save_whose_allocation_counts_disagree_is_refused_on_load() {
    let mut twin = DigitalTwin::new(TwinConfig::frontier_power_only()).unwrap();
    twin.submit(vec![
        Job::new(1, "wide", 200, 3_600, 0, 0.5, 0.5),
        Job::new(2, "later", 64, 600, 7_200, 0.5, 0.5),
        Job::new(3, "last", 64, 600, 9_000, 0.5, 0.5),
    ]);
    twin.run(600).unwrap();
    assert_eq!(twin.queue_state().0, 1, "the job is running");
    let save = twin.save_state().unwrap();
    DigitalTwin::from_state(&save).expect("the untampered save loads");
    let number = |n| serde::Value::Number(serde::Number::U(n));
    let ids = |r: std::ops::Range<u64>| serde::Value::Array(r.map(number).collect());
    let probes: [(&[&str], serde::Value, &str); 9] = [
        (&["sim", "future", "0", "partition"], number(3), "partition 3 does not exist"),
        (&["sim", "running", "0", "job", "partition"], number(1), "partition 1 does not exist"),
        (&["sim", "future", "0", "submit_time_s"], number(9_500), "not in submit order"),
        (&["sim", "running", "0", "nodes"], ids(9_400..9_600), "node 9472, outside it"),
        (&["sim", "running", "0", "nodes", "1"], number(0), "node 0 is held twice"),
        (&["sim", "running", "0", "nodes"], ids(0..199), "holds 199 of its 200 nodes"),
        (&["sim", "running", "0", "rack_counts", "0", "0"], number(999), "rack_counts are not"),
        (&["sim", "running", "0", "job", "wall_time_s"], number(7_200), "no completion one-shot"),
        (&["sim", "running", "0", "last_cpu"], serde::Value::Null, "non-finite last sample"),
    ];
    for (path, tampered, expect) in probes {
        let mut value = save.clone();
        *at(&mut value, path) = tampered;
        match DigitalTwin::from_state(&value) {
            Ok(_) => panic!("{path:?} must be refused"),
            Err(e) => assert!(e.contains(expect), "{path:?}: {e}"),
        }
    }
    let with_last_cpu = |cpu: f64| {
        let mut value = save.clone();
        *at(&mut value, &["sim", "running", "0", "last_cpu"]) =
            serde::Value::Number(serde::Number::F(cpu));
        DigitalTwin::from_state(&value).expect("a finite last sample loads").snapshot().system_w
    };
    assert_eq!(with_last_cpu(5.0).to_bits(), with_last_cpu(1.0).to_bits());
}

/// A fresh save holds no value the kernel derives: no node pool, rack
/// tables, occupancy counts, power snapshot, per-job GPU count, and no
/// arrival one-shot (a power-only twin's calendar holds one completion
/// per running job). A stale copy of a derived key, such as a 1 TW power
/// snapshot, is ignored: the twin loads and continues as the original.
#[test]
fn a_fresh_save_carries_no_derived_value() {
    let mut save = frontier_day_twin().save_state().unwrap();
    let sim = at(&mut save, &["sim"]);
    let derived = [
        "pool",
        "snapshot",
        "rack_allocated",
        "rack_capacity",
        "active_nodes",
        "total_nodes",
        "variable_running",
    ];
    let fields = sim.as_object().expect("sim is an object");
    for key in derived {
        assert!(fields.iter().all(|(k, _)| k != key), "a fresh save carries {key}");
    }
    let running = sim.get("running").and_then(serde::Value::as_array).expect("running jobs");
    assert!(!running.is_empty());
    for rj in running {
        assert!(rj.get("gpus_per_node").is_none(), "a running job carries gpus_per_node");
    }
    let running = running.len();
    let one_shots = at(sim, &["events", "one_shots"]).as_array().expect("one-shots").len();
    assert_eq!(one_shots, running, "one completion one-shot per running job, nothing else");
    let stale = r#"{"system_w": 1e12, "loss_w": 1e12}"#;
    let serde::Value::Object(fields) = sim else { unreachable!() };
    fields.push(("snapshot".into(), serde_json::from_str(stale).unwrap()));
    let mut loaded = DigitalTwin::from_state(&save).expect("an unknown key is ignored");
    let mut fresh = frontier_day_twin();
    for twin in [&mut loaded, &mut fresh] {
        twin.run(600).unwrap();
    }
    assert_eq!(loaded.report(), fresh.report());
}

/// A save taken while a recompute is owed holds last samples the kernel
/// has not re-taken, so the snapshot a load derives from them is not the
/// one the live twin holds; but the kernel recomputes before it reads the
/// snapshot, so the loaded simulation continues bit for bit. Covered: a
/// save at t = 0, one right after submitting jobs whose submit time has
/// passed, and one after a power-model swap, with series-trace jobs
/// running in the last two.
#[test]
fn saves_owing_a_recompute_load_and_continue_bit_for_bit() {
    fn jobs(first_id: u64, submit: u64) -> Vec<Job> {
        let trace = UtilTrace::Series { quantum_s: 15, values: vec![0.1, 0.9, 0.4, 0.7, 0.2] };
        (0..4)
            .map(|i| Job {
                cpu_util: trace.clone(),
                ..Job::new(first_id + i, "series", 40, 900 + 300 * i, submit + 7 * i, 0.5, 0.6)
            })
            .collect()
    }
    type Prepare = fn(&mut RapsSimulation);
    let cases: [(&str, Prepare); 3] = [
        ("t = 0", |_| {}),
        ("past submits", |s| {
            s.run_until(1_000).unwrap();
            s.submit_jobs(jobs(10, 400));
        }),
        ("power-model swap", |s| {
            s.run_until(1_000).unwrap();
            s.set_power_model(small_config(256), PowerDelivery::SmartRectifiers).unwrap();
        }),
    ];
    for (name, prepare) in cases {
        let mut live =
            RapsSimulation::new(small_config(256), PowerDelivery::StandardAC, Policy::FirstFit, 15);
        live.submit_jobs(jobs(0, 0));
        prepare(&mut live);
        let json = serde_json::to_string(&live.save_state().unwrap()).unwrap();
        let mut back = rehydrate(&json);
        for sim in [&mut live, &mut back] {
            sim.run_until(4_000).unwrap();
        }
        assert_eq!(state_digest(&live), state_digest(&back), "{name}");
        let (ol, ob) = (live.outputs(), back.outputs());
        for (a, b) in [(&ol.loss_w, &ob.loss_w), (&ol.efficiency, &ob.efficiency)] {
            let bits = |s: &TimeSeries| s.samples().map(f64::to_bits).collect::<Vec<_>>();
            assert_eq!(bits(a), bits(b), "{name}");
        }
        assert_eq!(live.report(), back.report(), "{name}");
    }
}

/// With a cooling model attached, a breakpoint one-shot bounds every lazy
/// jump at each breakpoint of the forcing, which is what makes batching
/// a cooled gap sound; a cooled save must carry one for every breakpoint
/// after now. Each way a forcing and a backend come together loads:
/// forcing set before the attach, after it, a backend swap, and a
/// wet-bulb offset. An online-backend save with its breakpoint one-shots
/// dropped is refused; a power-only save holds none and loads.
#[test]
fn cooled_saves_carry_every_forcing_breakpoint() {
    let ramp = || TimeSeries::from_values(0.0, 3_600.0, vec![12.0, 14.0, 14.0, 18.0, 12.0]);
    let online = CoolingBackend::Online(OnlineSurrogateConfig::default());
    let attach = |twin: &mut DigitalTwin, backend: &CoolingBackend| {
        let num_cdus = twin.config.system.cooling.num_cdus;
        let model = backend.build(&twin.config.plant, num_cdus).unwrap().unwrap();
        twin.raps_mut().attach_cooling(CoolingCoupling::attach(model, num_cdus).unwrap());
        twin.config.cooling = backend.clone();
    };
    let loads = |twin: &DigitalTwin, flow: &str| {
        if let Err(e) = DigitalTwin::from_state(&twin.save_state().unwrap()) {
            panic!("{flow}: {e}");
        }
    };
    let mut before = DigitalTwin::new(TwinConfig::marconi100_like()).unwrap();
    before.set_wet_bulb(ramp());
    before.run(600).unwrap();
    loads(&before, "power-only, no breakpoint one-shots");
    attach(&mut before, &online);
    before.run(600).unwrap();
    loads(&before, "forcing set before the attach");

    let mut after = DigitalTwin::new(TwinConfig::marconi100_like().with_backend(online)).unwrap();
    after.run(600).unwrap();
    after.set_wet_bulb(ramp());
    after.run(600).unwrap();
    loads(&after, "forcing set after the attach");

    let mut swapped = after.fork().unwrap();
    attach(&mut swapped, &CoolingBackend::Replay(CoolingTrace::constant(1.05, 4.0e5)));
    loads(&swapped, "a backend swap");

    let mut shifted = after.fork().unwrap();
    let offset = shifted.raps().wet_bulb().map(|v| v + 2.5);
    shifted.set_wet_bulb(offset);
    loads(&shifted, "a wet-bulb offset");

    let mut save = after.save_state().unwrap();
    let serde::Value::Array(one_shots) = at(&mut save, &["sim", "events", "one_shots"]) else {
        panic!("one-shots are an array")
    };
    let count = one_shots.len();
    one_shots.retain(|q| !serde_json::to_string(q).unwrap().contains("WetBulbBreakpoint"));
    assert!(one_shots.len() < count, "the save held breakpoint one-shots");
    match DigitalTwin::from_state(&save) {
        Ok(_) => panic!("a cooled save without its breakpoint one-shots must be refused"),
        Err(e) => assert!(e.contains("has no breakpoint one-shot"), "{e}"),
    }
}

/// Load checks only what the kernel indexes, so every job submission
/// accepts loads again. A power-only Marconi100-like twin (980 nodes)
/// holds a job with a CPU utilization of 1.05 (running, clamped to 1),
/// one asking for Frontier's 9,472 nodes (never started), a zero-node
/// job (started at once, holding no node) and a later copy of each;
/// its save loads, and the loaded twin continues exactly as the
/// original.
#[test]
fn a_save_of_jobs_submission_accepts_loads() {
    let config = TwinConfig::marconi100_like().with_backend(CoolingBackend::None);
    let mut twin = DigitalTwin::new(config).unwrap();
    for (first_id, submit) in [(1, 0), (4, 3_600)] {
        twin.submit(vec![
            Job::new(first_id, "hot", 64, 600, submit, 1.05, 0.5),
            Job::new(first_id + 1, "oversized", 9_472, 600, submit, 0.5, 0.5),
            Job::new(first_id + 2, "empty", 0, 600, submit, 0.5, 0.5),
        ]);
    }
    twin.run(300).unwrap();
    assert_eq!(twin.queue_state(), (2, 1), "hot and empty run, oversized waits");
    let mut back = DigitalTwin::from_state(&twin.save_state().unwrap()).expect("the save loads");
    for t in [&mut twin, &mut back] {
        t.run(7_200).unwrap();
    }
    let json = |t: &DigitalTwin| serde_json::to_string(&t.save_state().unwrap()).unwrap();
    assert_eq!(json(&twin), json(&back));
}

/// RNG streams must continue mid-sequence across the round trip — the
/// xoshiro state *and* the Box–Muller spare, which is why the cache is
/// part of the serialized state: dropping it would shift every
/// subsequent normal draw by one.
#[test]
fn rng_stream_continues_bit_exact_across_the_round_trip() {
    let mut rng = Rng::new(0xDEAD_BEEF).split(3);
    // An odd number of normals loads the Box–Muller cache.
    for _ in 0..7 {
        rng.standard_normal();
    }
    rng.next_u64();
    let json = serde_json::to_string(&rng).unwrap();
    let mut back: Rng = serde_json::from_str(&json).unwrap();
    for i in 0..64 {
        assert_eq!(rng.next_u64(), back.next_u64(), "u64 draw {i} diverged");
        assert_eq!(
            rng.standard_normal().to_bits(),
            back.standard_normal().to_bits(),
            "normal draw {i} diverged"
        );
    }
}

/// UQ answers from a disk-rehydrated snapshot equal the resident
/// snapshot's answers exactly: the snapshot seed rides the file, draw
/// streams are split per fork, and outcomes are pool-width-invariant.
#[test]
fn uq_draws_on_a_rehydrated_snapshot_match_the_resident_snapshot() {
    let dir = std::env::temp_dir()
        .join(format!("exadigit-roundtrip-uq-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut store = SnapshotStore::new(4, 99).with_persist_dir(&dir).unwrap();

    let mut twin = DigitalTwin::new(TwinConfig::frontier_power_only()).unwrap();
    let mut gen = exadigit_raps::workload::WorkloadGenerator::new(
        exadigit_raps::workload::WorkloadParams::default(),
        7,
    );
    twin.submit(gen.generate_day(0));
    twin.run(3_600).unwrap();
    let snapshot = store.take(&twin, "t1h".into()).unwrap();

    let spec = WhatIfSpec { horizon_s: 1_800, draws: 8, ..WhatIfSpec::default() };
    let resident = run_whatif(&snapshot, &spec, Some(2)).unwrap();
    drop(snapshot);
    drop(store);

    // "Restart": recover the store from disk and ask again.
    let mut recovered = SnapshotStore::recover(&dir).unwrap();
    let rehydrated = recovered.get(1).unwrap().expect("persisted snapshot survives");
    for width in [1usize, 4] {
        let replay = run_whatif(&rehydrated, &spec, Some(width)).unwrap();
        assert_eq!(
            resident, replay,
            "width {width}: UQ outcome diverged across the disk round trip"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/frontier_day_snapshot.json")
}

/// The exact twin the pinned fixture was generated from: a Frontier
/// power-only twin carrying a generated day of jobs, paused at
/// t = 5000 s (mid-queue, off the 15 s recording grid).
fn frontier_day_twin() -> DigitalTwin {
    let mut twin = DigitalTwin::new(TwinConfig::frontier_power_only()).unwrap();
    let mut gen = exadigit_raps::workload::WorkloadGenerator::new(
        exadigit_raps::workload::WorkloadParams::default(),
        2024,
    );
    twin.submit(gen.generate_day(0));
    twin.run(5_000).unwrap();
    twin
}

/// Golden fixture: a serialized Frontier-day snapshot pinned in the
/// repo. Every CI run loads it and replays four hours; if the snapshot
/// format drifts without a version bump this fails loudly at the load,
/// and a deliberate format change regenerates the fixture with
/// `EXADIGIT_REGEN_FIXTURES=1 cargo test golden_fixture`.
#[test]
fn golden_fixture_frontier_day_loads_and_replays_bit_identically() {
    let path = fixture_path();
    if std::env::var("EXADIGIT_REGEN_FIXTURES").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, frontier_day_twin().to_snapshot_json().unwrap()).unwrap();
    }
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "pinned fixture {} is unreadable ({e}); regenerate with \
             EXADIGIT_REGEN_FIXTURES=1 cargo test golden_fixture"
        , path.display())
    });
    let mut loaded = DigitalTwin::from_snapshot_json(&text).unwrap_or_else(|e| {
        panic!(
            "pinned Frontier-day snapshot no longer loads: {e}\n\
             If the snapshot format changed on purpose, bump \
             SNAPSHOT_FORMAT_VERSION (crates/core/src/twin.rs), document the \
             change in docs/DESIGN.md, and regenerate the fixture with \
             EXADIGIT_REGEN_FIXTURES=1 cargo test golden_fixture"
        )
    });

    let mut fresh = frontier_day_twin();
    assert_eq!(loaded.now(), fresh.now(), "fixture was taken at t = 5000 s");
    loaded.run(14_400).unwrap();
    fresh.run(14_400).unwrap();

    assert_eq!(fresh.report(), loaded.report());
    let (a, b) = (fresh.outputs(), loaded.outputs());
    assert_eq!(a.system_power_w.len(), b.system_power_w.len());
    for (i, (x, y)) in
        a.system_power_w.samples().zip(b.system_power_w.samples()).enumerate()
    {
        assert_eq!(x.to_bits(), y.to_bits(), "power sample {i} diverged");
    }
    for (i, (x, y)) in a.utilization.samples().zip(b.utilization.samples()).enumerate()
    {
        assert_eq!(x.to_bits(), y.to_bits(), "utilization sample {i} diverged");
    }
    assert_eq!(a.energy_j.to_bits(), b.energy_j.to_bits(), "energy diverged");
}

/// Every leaf of a parsed snapshot keyed by its object path, with its
/// serialized text. Objects also record a marker of their own, so an
/// empty object still counts as a key; key order is not part of the
/// format and plays no part here.
fn layout(path: String, value: &serde::Value, out: &mut BTreeMap<String, String>) {
    match value.as_object() {
        Some(fields) => {
            out.insert(path.clone(), "{..}".into());
            for (key, field) in fields {
                layout(format!("{path}/{key}"), field, out);
            }
        }
        None => {
            out.insert(path, serde_json::to_string(value).unwrap());
        }
    }
}

/// The fixture pins the snapshot *layout*, not just loadability. The
/// golden test above only loads and replays it, and the derive ignores
/// unknown keys and reads missing ones as `null`, so a dropped or
/// renamed state field, or a new `Option` field, would still load. A
/// fresh save of the fixture's twin must carry exactly the fixture's
/// keys, each with a byte-identical serialized value, at the same total
/// length. (Not named `golden_fixture_*`, so the regeneration command
/// never runs it against a half-written file.)
#[test]
fn fresh_save_has_the_pinned_fixture_layout() {
    let pinned_text = std::fs::read_to_string(fixture_path()).expect("pinned fixture is readable");
    let fresh_text = frontier_day_twin().to_snapshot_json().unwrap();
    let (mut pinned, mut fresh) = (BTreeMap::new(), BTreeMap::new());
    layout(String::new(), &serde_json::from_str(&pinned_text).unwrap(), &mut pinned);
    layout(String::new(), &serde_json::from_str(&fresh_text).unwrap(), &mut fresh);
    let differing: BTreeSet<&String> = pinned
        .keys()
        .chain(fresh.keys())
        .filter(|key| pinned.get(*key) != fresh.get(*key))
        .collect();
    assert!(
        differing.is_empty() && pinned_text.len() == fresh_text.len(),
        "a fresh save no longer matches the pinned Frontier-day fixture \
         ({} vs {} bytes); keys missing, added or changed: {differing:?}\n\
         If the snapshot layout changed (a state field added, dropped, renamed \
         or retyped), bump SNAPSHOT_FORMAT_VERSION (crates/core/src/twin.rs) and \
         regenerate the fixture. If only the simulation's behaviour changed on \
         purpose, regenerate the fixture alone. Regenerate with \
         EXADIGIT_REGEN_FIXTURES=1 cargo test golden_fixture",
        fresh_text.len(),
        pinned_text.len(),
    );
}
