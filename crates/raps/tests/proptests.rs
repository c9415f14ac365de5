//! Property-based tests for RAPS: scheduler allocation invariants, power
//! bounds, and workload generator validity under arbitrary inputs.

use exadigit_raps::config::{PartitionConfig, SystemConfig};
use exadigit_raps::job::{Job, UtilTrace};
use exadigit_raps::power::{PowerDelivery, PowerModel, PowerSnapshot};
use exadigit_raps::scheduler::{schedule_jobs, NodePool, Policy, RunningRelease};
use exadigit_raps::simulation::RapsSimulation;
use exadigit_raps::workload::{WorkloadGenerator, WorkloadParams};
use proptest::prelude::*;
use std::collections::HashSet;

fn small_config(nodes: usize) -> SystemConfig {
    let mut cfg = SystemConfig::frontier();
    cfg.partitions =
        vec![PartitionConfig { name: "batch".into(), nodes, gpus_per_node: 4 }];
    cfg
}

/// Every number of a snapshot as bits: the scalars, then each rack's AC
/// input, then each CDU's heat.
fn snapshot_bits(s: &PowerSnapshot) -> (Vec<u64>, Vec<u64>, Vec<u64>) {
    let b = &s.breakdown;
    let scalars = [
        s.system_w, s.node_dc_w, s.node_ac_w, s.loss_w, s.efficiency, s.switch_w, s.cdu_pump_w,
        b.gpus_w, b.cpus_w, b.ram_w, b.nics_w, b.nvme_w, b.switches_w, b.losses_w, b.cdu_pumps_w,
    ];
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect();
    (bits(&scalars), bits(&s.rack_ac_w), bits(&s.cdu_heat_w))
}

fn arbitrary_jobs(max_nodes: usize) -> impl Strategy<Value = Vec<Job>> {
    prop::collection::vec(
        (1usize..=max_nodes, 60u64..7_200, 0u64..600, 0.0f32..1.0, 0.0f32..1.0),
        0..40,
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
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// No policy ever double-allocates a node or exceeds capacity, for any
    /// job mix.
    #[test]
    fn schedulers_never_double_allocate(
        jobs in arbitrary_jobs(200),
        policy_idx in 0usize..4,
    ) {
        let policy = [Policy::Fcfs, Policy::Sjf, Policy::FirstFit, Policy::EasyBackfill][policy_idx];
        let cfg = small_config(128);
        let mut pool = NodePool::new(&cfg);
        let decisions = schedule_jobs(policy, &jobs, &mut pool, 0, &[]);
        let mut seen = HashSet::new();
        let mut total = 0usize;
        for d in &decisions {
            prop_assert_eq!(d.nodes.len(), jobs[d.job_index].nodes);
            for &n in &d.nodes {
                prop_assert!(seen.insert(n), "node {} double-allocated", n);
            }
            total += d.nodes.len();
        }
        prop_assert!(total <= 128);
        prop_assert_eq!(pool.available(0), 128 - total);
    }

    /// Each pending job is started at most once per pass.
    #[test]
    fn schedulers_start_jobs_at_most_once(
        jobs in arbitrary_jobs(64),
        policy_idx in 0usize..4,
    ) {
        let policy = [Policy::Fcfs, Policy::Sjf, Policy::FirstFit, Policy::EasyBackfill][policy_idx];
        let cfg = small_config(256);
        let mut pool = NodePool::new(&cfg);
        let decisions = schedule_jobs(policy, &jobs, &mut pool, 0, &[]);
        let mut idx = HashSet::new();
        for d in &decisions {
            prop_assert!(idx.insert(d.job_index), "job {} started twice", d.job_index);
        }
    }

    /// EASY backfill never starts a job that could delay the head job's
    /// reservation (soundness of the reservation arithmetic): after the
    /// pass, either the head started, or every started job fits the
    /// backfill rule.
    #[test]
    fn backfill_reservation_sound(
        jobs in arbitrary_jobs(100),
        running_nodes in 1usize..100,
        end_time in 100u64..5_000,
    ) {
        let cfg = small_config(128);
        let mut pool = NodePool::new(&cfg);
        let held = pool.allocate(0, running_nodes).unwrap();
        let running = [RunningRelease { end_time_s: end_time, partition: 0, nodes: held.len() }];
        let free_before = pool.available(0);
        let decisions = schedule_jobs(Policy::EasyBackfill, &jobs, &mut pool, 0, &running);
        if let Some(head) = jobs.first() {
            let head_started = decisions.iter().any(|d| d.job_index == 0);
            if !head_started && head.nodes <= 128 {
                // Shadow time exists; spare = free_before + released − head.
                let spare = (free_before + running_nodes).saturating_sub(head.nodes);
                for d in &decisions {
                    let j = &jobs[d.job_index];
                    let ends_before = j.wall_time_s <= end_time;
                    let within_spare = j.nodes <= spare;
                    prop_assert!(
                        ends_before || within_spare,
                        "job {} ({} nodes, {} s) violates the reservation",
                        d.job_index, j.nodes, j.wall_time_s
                    );
                }
            }
        }
    }

    /// Node power is always within [idle, peak] for any utilization pair.
    #[test]
    fn node_power_bounded(cu in -1.0f64..2.0, gu in -1.0f64..2.0) {
        let model = PowerModel::new(SystemConfig::frontier(), PowerDelivery::StandardAC);
        let p = model.node_power(cu, gu, 4);
        prop_assert!((626.0 - 1e-9..=2704.0 + 1e-9).contains(&p), "p={p}");
    }

    /// System power is monotone in utilization and bounded by the
    /// idle/peak anchors for every delivery variant.
    #[test]
    fn system_power_monotone_and_bounded(
        u in 0.0f64..1.0,
        du in 0.0f64..0.5,
        delivery_idx in 0usize..3,
    ) {
        let delivery = [
            PowerDelivery::StandardAC,
            PowerDelivery::SmartRectifiers,
            PowerDelivery::Direct380Vdc,
        ][delivery_idx];
        let mut cfg = small_config(256);
        cfg.cooling.num_cdus = 1;
        let model = PowerModel::new(cfg, delivery);
        let lo = model.uniform_power(0.0, 0.0).system_w;
        let hi = model.uniform_power(1.0, 1.0).system_w;
        let p1 = model.uniform_power(u, u).system_w;
        let p2 = model.uniform_power((u + du).min(1.0), (u + du).min(1.0)).system_w;
        prop_assert!(p1 >= lo - 1e-6 && p1 <= hi + 1e-6);
        prop_assert!(p2 >= p1 - 1e-6, "power must be monotone in utilization");
    }

    /// Conversion losses are non-negative and efficiency ≤ 1 everywhere.
    #[test]
    fn losses_non_negative(u in 0.0f64..1.0, delivery_idx in 0usize..3) {
        let delivery = [
            PowerDelivery::StandardAC,
            PowerDelivery::SmartRectifiers,
            PowerDelivery::Direct380Vdc,
        ][delivery_idx];
        let mut cfg = small_config(512);
        cfg.cooling.num_cdus = 1;
        let model = PowerModel::new(cfg, delivery);
        let snap = model.uniform_power(u, u);
        prop_assert!(snap.loss_w >= 0.0);
        prop_assert!(snap.efficiency <= 1.0 + 1e-12);
        prop_assert!(snap.efficiency > 0.85);
        // CDU heats sum to the scaled rack+switch power.
        let heat: f64 = snap.cdu_heat_w.iter().sum();
        let expect = 0.945 * (snap.node_ac_w + snap.switch_w);
        prop_assert!((heat - expect).abs() <= 1e-6 * expect);
    }

    /// Evaluating into a held snapshot is invisible. Recomputes through
    /// one reused accumulator into one held snapshot, whose vectors still
    /// hold the previous round's values, equal a fresh accumulator's
    /// fresh evaluation to the bit, in every field and vector element.
    /// Each round picks its delivery variant, so the held vectors were
    /// often written under another conversion chain.
    #[test]
    fn evaluating_into_a_held_snapshot_equals_a_fresh_evaluation(
        rounds in prop::collection::vec(
            (0usize..3, prop::collection::vec((0usize..4, 1usize..3, 0usize..3), 0..5)),
            1..16,
        ),
    ) {
        const UTIL: [f64; 3] = [0.0, 0.5, 1.0];
        let mut cfg = small_config(512);
        cfg.cooling.num_cdus = 2;
        let models =
            [PowerDelivery::StandardAC, PowerDelivery::SmartRectifiers, PowerDelivery::Direct380Vdc]
                .map(|d| PowerModel::new(cfg.clone(), d));
        let mut reused = models[0].new_accumulator();
        let mut held = PowerSnapshot::default();
        for (delivery_idx, adds) in &rounds {
            let model = &models[*delivery_idx];
            model.reset_accumulator(&mut reused);
            let mut fresh = model.new_accumulator();
            for &(rack, count, u) in adds {
                for acc in [&mut reused, &mut fresh] {
                    model.add_nodes(acc, rack, count, UTIL[u], UTIL[u], 4);
                }
            }
            model.evaluate_into(&reused, &mut held);
            prop_assert_eq!(snapshot_bits(&held), snapshot_bits(&model.evaluate(&fresh)));
        }
    }

    /// Utilization traces stay in [0, 1] whatever the raw samples.
    #[test]
    fn util_trace_clamped(samples in prop::collection::vec(-2.0f32..3.0, 0..50), t in 0u64..10_000) {
        let trace = UtilTrace::Series { quantum_s: 15, values: samples };
        let u = trace.at(t);
        prop_assert!((0.0..=1.0).contains(&u));
        prop_assert!((0.0..=1.0).contains(&trace.mean()));
    }

    /// Event-driven and per-second stepping are the *same simulation*:
    /// identical completed-job counts, wait statistics, and final
    /// node-pool state on randomized workloads across all four scheduler
    /// policies. Wall times start at zero to cover the degenerate
    /// completes-one-second-after-start case.
    #[test]
    fn event_kernel_equivalent_to_per_second_stepping(
        specs in prop::collection::vec(
            (1usize..=96, 0u64..2_000, 0u64..900, 0.0f32..1.0, 0.0f32..1.0),
            1..24,
        ),
        policy_idx in 0usize..4,
        // Per-second recording (nothing to backfill), telemetry-grade
        // cadences (on- and off-grid), and hourly multi-week cadence
        // (whole runs inside one record gap) all pin bit-identical.
        record_every in prop::sample::select(vec![1u64, 15, 60, 97, 120, 3_600]),
    ) {
        let policy = [Policy::Fcfs, Policy::Sjf, Policy::FirstFit, Policy::EasyBackfill][policy_idx];
        let jobs: Vec<Job> = specs
            .into_iter()
            .enumerate()
            .map(|(i, (nodes, wall, submit, cu, gu))| {
                Job::new(i as u64, format!("j{i}"), nodes, wall, submit, cu, gu)
            })
            .collect();
        let run = |event_driven: bool| {
            let mut sim = RapsSimulation::new(
                small_config(128),
                PowerDelivery::StandardAC,
                policy,
                record_every,
            );
            sim.submit_jobs(jobs.clone());
            if event_driven {
                sim.run_until(2_400).unwrap();
            } else {
                sim.run_until_per_second(2_400).unwrap();
            }
            sim
        };
        let ps = run(false);
        let ev = run(true);
        let (rp, re) = (ps.report(), ev.report());
        prop_assert_eq!(re.jobs_completed, rp.jobs_completed);
        prop_assert_eq!(re.jobs_unfinished, rp.jobs_unfinished);
        prop_assert_eq!(ev.running_count(), ps.running_count());
        prop_assert_eq!(ev.pending_count(), ps.pending_count());
        // Wait statistics are pushed at the same event seconds with the
        // same values in the same order: exact equality, not tolerance.
        let (we, wp) = (&ev.outputs().wait_stats, &ps.outputs().wait_stats);
        prop_assert_eq!(we.count(), wp.count());
        prop_assert_eq!(we.mean().to_bits(), wp.mean().to_bits());
        prop_assert_eq!(we.max().to_bits(), wp.max().to_bits());
        // Final free-list state of the node pool.
        prop_assert_eq!(ev.pool(), ps.pool());
        prop_assert_eq!(ev.pool().free_nodes(0), ps.pool().free_nodes(0));
        // Every recorded series rides along bit-identically — the lazy
        // backfill's samples are the same f64s the eager kernel records.
        let (oe, op) = (ev.outputs(), ps.outputs());
        for (a, b) in [
            (&oe.utilization, &op.utilization),
            (&oe.system_power_w, &op.system_power_w),
            (&oe.loss_w, &op.loss_w),
            (&oe.efficiency, &op.efficiency),
        ] {
            prop_assert_eq!(a.len(), b.len());
            for (x, y) in a.samples().zip(b.samples()) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    /// Interleaving per-second `tick()` stretches with event-driven
    /// `run_until` jumps is still the same simulation as a pure
    /// per-second loop: the record cursor is derived from series length
    /// and clock, so switching stepping modes mid-gap can neither skip
    /// nor duplicate a boundary. Recorded series pin bit-identical.
    #[test]
    fn mixed_tick_and_event_stepping_bit_identical(
        specs in prop::collection::vec(
            (1usize..=96, 0u64..1_500, 0u64..900, 0.0f32..1.0, 0.0f32..1.0),
            1..16,
        ),
        policy_idx in 0usize..4,
        record_every in prop::sample::select(vec![1u64, 15, 60, 97, 120, 3_600]),
        segments in prop::collection::vec((any::<bool>(), 1u64..600), 1..12),
    ) {
        let policy = [Policy::Fcfs, Policy::Sjf, Policy::FirstFit, Policy::EasyBackfill][policy_idx];
        let jobs: Vec<Job> = specs
            .into_iter()
            .enumerate()
            .map(|(i, (nodes, wall, submit, cu, gu))| {
                Job::new(i as u64, format!("j{i}"), nodes, wall, submit, cu, gu)
            })
            .collect();
        let new_sim = || {
            let mut sim = RapsSimulation::new(
                small_config(128),
                PowerDelivery::StandardAC,
                policy,
                record_every,
            );
            sim.submit_jobs(jobs.clone());
            sim
        };
        let mut mixed = new_sim();
        let mut total = 0u64;
        for &(event_mode, len) in &segments {
            total += len;
            if event_mode {
                mixed.run_until(total).unwrap();
            } else {
                for _ in 0..len {
                    mixed.tick().unwrap();
                }
            }
        }
        let mut reference = new_sim();
        reference.run_until_per_second(total).unwrap();
        let (rm, rr) = (mixed.report(), reference.report());
        prop_assert_eq!(rm.jobs_completed, rr.jobs_completed);
        prop_assert_eq!(rm.jobs_unfinished, rr.jobs_unfinished);
        prop_assert_eq!(mixed.pool(), reference.pool());
        let (om, or) = (mixed.outputs(), reference.outputs());
        for (a, b) in [
            (&om.utilization, &or.utilization),
            (&om.system_power_w, &or.system_power_w),
            (&om.loss_w, &or.loss_w),
            (&om.efficiency, &or.efficiency),
        ] {
            prop_assert_eq!(a.len(), b.len());
            for (x, y) in a.samples().zip(b.samples()) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    /// The workload generator emits valid jobs for arbitrary (sane)
    /// parameters and seeds.
    #[test]
    fn generator_emits_valid_jobs(
        seed in any::<u64>(),
        tavg in 20.0f64..600.0,
        load in 0.1f64..0.95,
    ) {
        let params = WorkloadParams {
            tavg_median_s: tavg,
            offered_load: load,
            ..WorkloadParams::default()
        };
        let mut generator = WorkloadGenerator::new(params, seed);
        let jobs = generator.generate_day(0);
        for j in &jobs {
            prop_assert!(j.nodes >= 1 && j.nodes <= 9_472);
            prop_assert!(j.wall_time_s >= 60);
            prop_assert!(j.submit_time_s < 86_400);
        }
    }
}
