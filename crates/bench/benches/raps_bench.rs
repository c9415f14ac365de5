//! RAPS performance: node power evaluation, the full-system power solve,
//! 1 s tick cost under load, and the scheduling policies at queue depth.
//! Context: the paper replays 24 h in ~3 min without cooling — ~480 ticks
//! per wall second.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use exadigit_raps::config::SystemConfig;
use exadigit_raps::job::Job;
use exadigit_raps::power::{PowerDelivery, PowerModel};
use exadigit_raps::scheduler::{schedule_jobs, NodePool, Policy};
use exadigit_raps::simulation::RapsSimulation;
use exadigit_raps::workload::{WorkloadGenerator, WorkloadParams};
use std::hint::black_box;
use std::time::Duration;

fn bench_power_model(c: &mut Criterion) {
    let model = PowerModel::new(SystemConfig::frontier(), PowerDelivery::StandardAC);
    let mut group = c.benchmark_group("power_model");
    group.measurement_time(Duration::from_secs(3)).sample_size(30);
    group.bench_function("node_power_eq3", |b| {
        b.iter(|| black_box(model.node_power(black_box(0.33), black_box(0.79), 4)))
    });
    group.bench_function("uniform_power_full_system", |b| {
        b.iter(|| black_box(model.uniform_power(black_box(0.6), black_box(0.6)).system_w))
    });
    let mut acc = model.new_accumulator();
    let mut snapshot = model.evaluate(&acc);
    group.bench_function("accumulate_74_racks_and_evaluate", |b| {
        b.iter(|| {
            model.reset_accumulator(&mut acc);
            for rack in 0..74 {
                model.add_nodes(&mut acc, rack, 128, 0.5, 0.7, 4);
            }
            model.evaluate_into(&acc, &mut snapshot);
            black_box(snapshot.system_w)
        })
    });
    group.finish();
}

fn bench_tick(c: &mut Criterion) {
    let mut group = c.benchmark_group("raps_tick");
    group.measurement_time(Duration::from_secs(4)).sample_size(20);
    for (name, njobs) in [("idle", 0usize), ("loaded_200_jobs", 200)] {
        group.bench_function(name, |b| {
            let mut sim = RapsSimulation::new(
                SystemConfig::frontier(),
                PowerDelivery::StandardAC,
                Policy::FirstFit,
                3_600,
            );
            let jobs: Vec<Job> = (0..njobs)
                .map(|i| Job::new(i as u64, format!("j{i}"), 40, 1_000_000, 0, 0.5, 0.7))
                .collect();
            sim.submit_jobs(jobs);
            sim.run_until(30).unwrap(); // start everything
            b.iter(|| {
                sim.tick().unwrap();
            })
        });
    }
    group.finish();
}

fn bench_schedulers(c: &mut Criterion) {
    let mut group = c.benchmark_group("scheduler");
    group.measurement_time(Duration::from_secs(3)).sample_size(30);
    let cfg = SystemConfig::frontier();
    let mut generator = WorkloadGenerator::new(WorkloadParams::default(), 7);
    let mut pending = generator.generate_day(0);
    pending.truncate(1_000);
    for policy in [Policy::Fcfs, Policy::Sjf, Policy::FirstFit, Policy::EasyBackfill] {
        group.bench_with_input(
            BenchmarkId::new("queue_1000", format!("{policy:?}")),
            &policy,
            |b, &policy| {
                b.iter_batched(
                    || NodePool::new(&cfg),
                    |mut pool| black_box(schedule_jobs(policy, &pending, &mut pool, 0, &[])),
                    criterion::BatchSize::SmallInput,
                )
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_power_model, bench_tick, bench_schedulers);
criterion_main!(benches);
