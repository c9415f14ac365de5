//! Power lanes ≡ forks, to the bit.
//!
//! A UQ draw or a delivery variant changes only the power model, and the
//! scheduler never reads power, so the kernel runs one schedule and
//! carries the other power models as lanes. Each lane must end exactly
//! where a fork of its own would: the same recompute points, the same
//! accounted seconds and gaps, the same arithmetic. These tests rebuild
//! the per-draw fork path from public API and compare every number by
//! `to_bits`, at pool widths 1–4 (which chunk the draws differently), with
//! a series-trace job running so the eager path and the utilization-sample
//! skip both run.

use exadigit_core::{CoolingBackend, DigitalTwin, TwinConfig};
use exadigit_raps::config::SystemConfig;
use exadigit_raps::job::{Job, UtilTrace};
use exadigit_raps::power::PowerDelivery;
use exadigit_raps::scheduler::Policy;
use exadigit_raps::simulation::LaneError;
use exadigit_raps::stats::RunReport;
use exadigit_raps::uq::perturb_config;
use exadigit_raps::workload::{WorkloadGenerator, WorkloadParams};
use exadigit_service::{
    run_whatif, scenario_fingerprint, SnapshotStore, TwinSnapshot, WhatIfOutcome, WhatIfSpec,
};
use exadigit_sim::stats::Summary;
use exadigit_sim::Rng;
use exadigit_telemetry::replay::CoolingTrace;
use proptest::prelude::*;

const POLICIES: [Policy; 4] = [Policy::Fcfs, Policy::Sjf, Policy::FirstFit, Policy::EasyBackfill];
const DELIVERIES: [Option<PowerDelivery>; 3] =
    [None, Some(PowerDelivery::SmartRectifiers), Some(PowerDelivery::Direct380Vdc)];

/// A 1,024-node Frontier slice: 8 racks over 3 CDUs.
fn small_system() -> SystemConfig {
    let mut cfg = SystemConfig::frontier();
    cfg.partitions[0].nodes = 1_024;
    cfg.cooling.num_cdus = 3;
    cfg.cooling.racks_per_cdu = 3;
    cfg
}

/// A job whose CPU trace, over its whole wall time, holds each value for
/// two quanta, so some quantum recomputes change the snapshot and others
/// are skipped as unchanged.
fn series_job(id: u64, nodes: usize, wall_s: u64, submit_s: u64) -> Job {
    let cycle = [0.2, 0.2, 0.9, 0.9, 0.5, 0.5, 0.7];
    let values = (0..=wall_s / 15).map(|q| cycle[q as usize % cycle.len()]).collect();
    let cpu_util = UtilTrace::Series { quantum_s: 15, values };
    Job { cpu_util, ..Job::new(id, "series", nodes, wall_s, submit_s, 0.5, 0.6) }
}

/// A power-only snapshot at `fork_at` of a synthetic day on the small
/// system, optionally with a series-trace job running at the fork.
fn snapshot(
    seed: u64,
    policy: Policy,
    fork_at: u64,
    series: bool,
) -> (SnapshotStore, std::sync::Arc<TwinSnapshot>) {
    let config = TwinConfig { system: small_system(), policy, ..TwinConfig::frontier_power_only() };
    let mut twin = DigitalTwin::new(config).unwrap();
    let params = WorkloadParams { machine_nodes: 1_024, ..WorkloadParams::default() };
    twin.submit(WorkloadGenerator::new(params, seed).generate_day(0));
    if series {
        twin.submit(vec![series_job(900_001, 64, 6 * 3_600, 0)]);
    }
    twin.run(fork_at).unwrap();
    let mut store = SnapshotStore::new(2, seed);
    let snap = store.take(&twin, format!("t{fork_at}")).unwrap();
    (store, snap)
}

/// The spec's overrides this test uses, applied as `run_whatif` applies
/// them.
fn apply_overrides(twin: &mut DigitalTwin, spec: &WhatIfSpec) {
    if let Some(delivery) = spec.delivery {
        let cfg = twin.config.system.clone();
        twin.raps_mut().set_power_model(cfg, delivery).unwrap();
        twin.config.delivery = delivery;
    }
    if !spec.extra_jobs.is_empty() {
        twin.submit(spec.extra_jobs.clone());
    }
}

/// `run_whatif`'s answer for `draws > 1` as one fork per draw gives it:
/// fork the configured prefix, perturb with draw `i`'s stream,
/// `set_power_model`, run, and take the marginals.
fn forked_answer(snapshot: &TwinSnapshot, spec: &WhatIfSpec) -> WhatIfOutcome {
    let mut base = snapshot.fork().unwrap();
    apply_overrides(&mut base, spec);
    let streams = Rng::new(snapshot.seed ^ scenario_fingerprint(spec));
    let runs: Vec<(u64, f64, f64, f64)> = (0..spec.draws)
        .map(|i| {
            let mut twin = base.fork().unwrap();
            let cfg =
                perturb_config(&twin.config.system, &spec.perturbations, &mut streams.split(i));
            let delivery = twin.config.delivery;
            twin.raps_mut().set_power_model(cfg, delivery).unwrap();
            let r0 = twin.report();
            twin.run(spec.horizon_s).unwrap();
            let r1 = twin.report();
            let hours = spec.horizon_s as f64 / 3_600.0;
            let energy_mwh = r1.total_energy_mwh - r0.total_energy_mwh;
            let avg_power_mw = if hours > 0.0 { energy_mwh / hours } else { 0.0 };
            (r1.jobs_completed - r0.jobs_completed, avg_power_mw, energy_mwh, twin.utilization())
        })
        .collect();
    let draw_avg_power_mw: Vec<f64> = runs.iter().map(|r| r.1).collect();
    let draw_energy_mwh: Vec<f64> = runs.iter().map(|r| r.2).collect();
    let (power, energy) = (Summary::of(&draw_avg_power_mw), Summary::of(&draw_energy_mwh));
    WhatIfOutcome {
        label: spec.label.clone(),
        from_s: snapshot.taken_at_s,
        to_s: snapshot.taken_at_s + spec.horizon_s,
        jobs_completed: runs[0].0,
        avg_power_mw: power.mean,
        power_std_mw: power.std,
        energy_mwh: energy.mean,
        energy_std_mwh: energy.std,
        final_pue: None,
        final_utilization: runs[0].3,
        draw_avg_power_mw,
        draw_energy_mwh,
        draws: spec.draws,
    }
}

/// Every field of an outcome, f64s by their bits.
fn outcome_bits(o: &WhatIfOutcome) -> (String, [u64; 4], Vec<u64>, Option<u64>) {
    let mut floats = vec![o.avg_power_mw, o.power_std_mw, o.energy_mwh, o.energy_std_mwh];
    floats.push(o.final_utilization);
    floats.extend(&o.draw_avg_power_mw);
    floats.extend(&o.draw_energy_mwh);
    (
        o.label.clone(),
        [o.from_s, o.to_s, o.jobs_completed, o.draws],
        floats.iter().map(|v| v.to_bits()).collect(),
        o.final_pue.map(f64::to_bits),
    )
}

/// Every field of a run report, f64s by their bits.
fn report_bits(r: &RunReport) -> Vec<u64> {
    let mut v = vec![r.sim_seconds, r.jobs_completed, r.jobs_unfinished];
    v.extend(
        [
            r.throughput_jobs_per_hour,
            r.avg_power_mw,
            r.max_power_mw,
            r.total_energy_mwh,
            r.avg_loss_mw,
            r.max_loss_mw,
            r.loss_percent,
            r.efficiency,
            r.co2_tons,
            r.cost_usd,
            r.avg_utilization,
            r.avg_pue.unwrap_or(f64::NAN),
            r.avg_wait_s,
        ]
        .map(f64::to_bits),
    );
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `run_whatif`'s lanes answer every power-only UQ question exactly as
    /// one fork per draw does, at every pool width and over horizons of
    /// 0 s, 1 s and past completions, and each lane's full run report
    /// equals its fork's.
    #[test]
    fn lanes_answer_exactly_what_one_fork_per_draw_answers(
        seed in 0u64..1_000,
        policy in 0usize..4,
        fork_at in 600u64..7_200,
        draws in 2u64..=16,
        long_horizon in 1_800u64..10_800,
        delivery in 0usize..3,
        extra in 0usize..3,
        series_running in 0usize..3,
    ) {
        let (_store, snap) = snapshot(seed, POLICIES[policy], fork_at, series_running != 0);
        let extra_jobs = match extra {
            0 => Vec::new(),
            1 => vec![Job::new(900_002, "extra", 256, 2_400, 0, 0.8, 0.9)],
            _ => vec![series_job(900_003, 128, 1_500, fork_at + 30)],
        };
        for horizon in [0, 1, long_horizon] {
            let spec = WhatIfSpec {
                label: format!("uq-{seed}"),
                horizon_s: horizon,
                delivery: DELIVERIES[delivery],
                extra_jobs: extra_jobs.clone(),
                draws,
                ..WhatIfSpec::default()
            };
            let forked = outcome_bits(&forked_answer(&snap, &spec));
            for width in 1..=4 {
                let lanes = run_whatif(&snap, &spec, Some(width)).unwrap();
                prop_assert_eq!(&outcome_bits(&lanes), &forked, "{} s at width {}", horizon, width);
            }

            // The kernel's own view: lane i's whole report against fork
            // i's.
            let mut base = snap.fork().unwrap();
            apply_overrides(&mut base, &spec);
            let delivery = base.config.delivery;
            let mut rng = Rng::new(seed);
            let models: Vec<(SystemConfig, PowerDelivery)> = (0..draws)
                .map(|_| {
                    let cfg = perturb_config(&base.config.system, &spec.perturbations, &mut rng);
                    (cfg, delivery)
                })
                .collect();
            let horizon_s = base.now() + horizon;
            let forks: Vec<Vec<u64>> = models
                .iter()
                .map(|(cfg, d)| {
                    let mut fork = base.fork().unwrap();
                    fork.raps_mut().set_power_model(cfg.clone(), *d).unwrap();
                    fork.raps_mut().run_until(horizon_s).unwrap();
                    report_bits(&fork.report())
                })
                .collect();
            let mut twin = base.fork().unwrap();
            twin.raps_mut().set_power_model(models[0].0.clone(), delivery).unwrap();
            let lanes =
                twin.raps_mut().run_until_with_lanes(horizon_s, models[1..].to_vec()).unwrap();
            prop_assert_eq!(&report_bits(&twin.report()), &forks[0]);
            for (i, lane) in lanes.iter().enumerate() {
                prop_assert_eq!(&report_bits(lane), &forks[i + 1], "{} s, lane {}", horizon, i + 1);
            }
        }
    }
}

/// A lane run refuses a cooled simulation and a lane on another machine,
/// before it runs a second.
#[test]
fn lane_runs_refuse_cooling_and_a_foreign_machine() {
    let cooled = TwinConfig::frontier_power_only()
        .with_backend(CoolingBackend::Replay(CoolingTrace::constant(1.0625, 5.0e5)));
    let mut twin = DigitalTwin::new(cooled).unwrap();
    let lane = vec![(SystemConfig::frontier(), PowerDelivery::Direct380Vdc)];
    let refused = twin.raps_mut().run_until_with_lanes(600, lane.clone());
    assert_eq!(refused, Err(LaneError::CoolingAttached));
    assert_eq!(twin.now(), 0);

    let mut twin = DigitalTwin::new(TwinConfig::frontier_power_only()).unwrap();
    let mut more_gpus = SystemConfig::frontier();
    more_gpus.partitions[0].gpus_per_node = 8;
    let lanes = vec![lane[0].clone(), (more_gpus, PowerDelivery::StandardAC)];
    let refused = twin.raps_mut().run_until_with_lanes(600, lanes);
    assert_eq!(refused, Err(LaneError::Topology { lane: 1 }));
    assert_eq!(twin.now(), 0);
    assert_eq!(twin.kernel_metrics().power_lanes.get(), 0, "a refused run counts no lanes");
}
