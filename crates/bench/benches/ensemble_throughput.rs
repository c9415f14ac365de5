//! Ensemble-engine throughput: scenarios/second at pool widths 1/2/4/8.
//!
//! The workload is a fixed 16-member UQ ensemble (the paper's §IV
//! Monte-Carlo shape) on a small Frontier slice, batched through
//! `EnsembleRunner` at each width. Because the executor guarantees
//! bit-identical output at every width, the only thing that may change
//! across these benches is wall-clock time — the acceptance target is
//! ≥2× at width 4 on a multi-core runner. The first recorded baseline
//! lives in `BENCH_ensemble_throughput.json` at the repo root (note its
//! `host_cpus` field: on a single-core container every width necessarily
//! measures flat).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use exadigit_raps::config::SystemConfig;
use exadigit_raps::job::Job;
use exadigit_raps::uq::{run_ensemble, UqPerturbations};
use exadigit_sim::EnsembleRunner;
use std::hint::black_box;
use std::time::Duration;

const MEMBERS: usize = 16;

fn bench_system() -> SystemConfig {
    let mut cfg = SystemConfig::frontier();
    cfg.partitions[0].nodes = 256;
    cfg.cooling.num_cdus = 1;
    cfg.cooling.racks_per_cdu = 2;
    cfg
}

fn bench_ensemble_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("ensemble_throughput");
    group.measurement_time(Duration::from_secs(10)).sample_size(10);
    let cfg = bench_system();
    let jobs = vec![Job::new(1, "load", 128, 1200, 1, 0.8, 0.8)];
    for width in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new(format!("uq_{MEMBERS}_members"), width),
            &width,
            |b, &width| {
                let runner = EnsembleRunner::new(42).threads(width);
                b.iter(|| {
                    let summary =
                        run_ensemble(&runner, &cfg, &jobs, 1200, MEMBERS, &UqPerturbations::default());
                    black_box(summary.power_mean_mw)
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_ensemble_throughput);
criterion_main!(benches);
