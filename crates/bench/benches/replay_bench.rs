//! Replay throughput — the paper's headline performance numbers: "Each
//! 24-hour replay takes about nine minutes to run with cooling, or just
//! three minutes without; the entire analysis takes about an hour when
//! running the different days in parallel". These benches measure a
//! 30-simulated-minute fragment with and without cooling, the pool-backed
//! parallel-day sweep (4-thread pool vs serial), and one UQ ensemble
//! member. Pool-width scaling lives in `ensemble_throughput`.

use criterion::{criterion_group, criterion_main, Criterion};
use exadigit_cooling::CoolingModel;
use exadigit_raps::config::SystemConfig;
use exadigit_raps::power::PowerDelivery;
use exadigit_raps::scheduler::Policy;
use exadigit_raps::simulation::{CoolingCoupling, RapsSimulation};
use exadigit_raps::uq::{run_ensemble, UqPerturbations};
use exadigit_raps::workload::{WorkloadGenerator, WorkloadParams};
use exadigit_sim::EnsembleRunner;
use rayon::prelude::*;
use std::hint::black_box;
use std::time::Duration;

fn fragment_jobs(seed: u64) -> Vec<exadigit_raps::job::Job> {
    let mut generator = WorkloadGenerator::new(WorkloadParams::default(), seed);
    generator.generate_day(0).into_iter().filter(|j| j.submit_time_s < 1_800).collect()
}

fn bench_replay_fragment(c: &mut Criterion) {
    let mut group = c.benchmark_group("replay_30min");
    group.measurement_time(Duration::from_secs(8)).sample_size(10);
    group.bench_function("without_cooling", |b| {
        b.iter(|| {
            let mut sim = RapsSimulation::new(
                SystemConfig::frontier(),
                PowerDelivery::StandardAC,
                Policy::FirstFit,
                300,
            );
            sim.submit_jobs(fragment_jobs(5));
            sim.run_until(1_800).unwrap();
            black_box(sim.report().avg_power_mw)
        })
    });
    group.bench_function("with_cooling", |b| {
        b.iter(|| {
            let mut sim = RapsSimulation::new(
                SystemConfig::frontier(),
                PowerDelivery::StandardAC,
                Policy::FirstFit,
                300,
            );
            let coupling =
                CoolingCoupling::attach(Box::new(CoolingModel::frontier()), 25).unwrap();
            sim.attach_cooling(coupling);
            sim.submit_jobs(fragment_jobs(5));
            sim.run_until(1_800).unwrap();
            black_box(sim.report().avg_pue)
        })
    });
    group.finish();
}

fn bench_parallel_days(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel_days");
    group.measurement_time(Duration::from_secs(10)).sample_size(10);
    let run_day = |day: u64| {
        let mut generator = WorkloadGenerator::new(WorkloadParams::default(), 11);
        let mut jobs = generator.generate_day(day);
        for j in &mut jobs {
            j.submit_time_s -= day * 86_400;
            j.submit_time_s = j.submit_time_s.min(1_799);
        }
        let mut sim = RapsSimulation::new(
            SystemConfig::frontier(),
            PowerDelivery::StandardAC,
            Policy::FirstFit,
            300,
        );
        sim.submit_jobs(jobs);
        sim.run_until(1_800).unwrap();
        sim.report().avg_power_mw
    };
    group.bench_function("8_fragments_serial", |b| {
        b.iter(|| {
            let total: f64 = (0..8u64).map(run_day).sum();
            black_box(total)
        })
    });
    group.bench_function("8_fragments_pool4", |b| {
        b.iter(|| {
            let total: f64 =
                rayon::with_threads(4, || (0..8u64).into_par_iter().map(run_day).sum());
            black_box(total)
        })
    });
    group.finish();
}

fn bench_uq_member(c: &mut Criterion) {
    let mut group = c.benchmark_group("uq");
    group.measurement_time(Duration::from_secs(8)).sample_size(10);
    let mut cfg = SystemConfig::frontier();
    cfg.partitions[0].nodes = 1_024;
    cfg.cooling.num_cdus = 3;
    let jobs = vec![exadigit_raps::job::Job::new(1, "load", 512, 900, 1, 0.7, 0.8)];
    let runner = EnsembleRunner::new(3);
    group.bench_function("ensemble_8_members_1024_nodes", |b| {
        b.iter(|| {
            let uq = run_ensemble(&runner, &cfg, &jobs, 900, 8, &UqPerturbations::default());
            black_box(uq.power_mean_mw)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_replay_fragment, bench_parallel_days, bench_uq_member);
criterion_main!(benches);
