//! A 64-draw Monte-Carlo UQ sweep with confidence bands — the paper's §IV
//! uncertainty quantification, batched across the thread-pool executor.
//!
//! ```sh
//! cargo run --release --example ensemble_sweep
//! EXADIGIT_THREADS=4 cargo run --release --example ensemble_sweep
//! cargo run --release --example ensemble_sweep -- --threads 8
//! ```
//!
//! Whatever the pool width, the numbers printed are bit-identical — the
//! engine's determinism contract (see docs/ENSEMBLES.md).

use exadigit_raps::config::SystemConfig;
use exadigit_raps::job::Job;
use exadigit_raps::uq::{run_ensemble, UqPerturbations};
use exadigit_sim::EnsembleRunner;
use std::time::Instant;

fn main() {
    // Pool width: --threads N beats EXADIGIT_THREADS beats the core count.
    let args: Vec<String> = std::env::args().collect();
    let threads = args
        .iter()
        .position(|a| a == "--threads")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok());

    // A Frontier slice small enough to sweep quickly.
    let mut cfg = SystemConfig::frontier();
    cfg.partitions[0].nodes = 512;
    cfg.cooling.num_cdus = 2;
    cfg.cooling.racks_per_cdu = 2;

    // One steady 80 %-utilization job pinned to half the machine.
    let jobs = vec![Job::new(1, "hpl-like", 256, 3_600, 1, 0.8, 0.8)];

    let mut runner = EnsembleRunner::new(42);
    if let Some(n) = threads {
        runner = runner.threads(n);
    }
    let members = 64;
    println!(
        "UQ sweep: {members} draws, pool width {} (override with --threads or EXADIGIT_THREADS)",
        runner.effective_threads()
    );

    let t0 = Instant::now();
    let summary =
        run_ensemble(&runner, &cfg, &jobs, 3_600, members, &UqPerturbations::default());
    let elapsed = t0.elapsed();

    println!(
        "\n  mean system power  {:7.3} MW  ± {:.3} MW (1σ)",
        summary.power_mean_mw, summary.power_std_mw
    );
    println!(
        "  90% confidence     [{:.3}, {:.3}] MW",
        summary.power_ci90_mw.0, summary.power_ci90_mw.1
    );
    println!(
        "  mean conversion loss {:5.3} MW, 90% CI [{:.3}, {:.3}] MW",
        summary.loss_mean_mw, summary.loss_ci90_mw.0, summary.loss_ci90_mw.1
    );
    println!(
        "\n  {} scenarios in {:.2?} — {:.1} scenarios/s",
        members,
        elapsed,
        members as f64 / elapsed.as_secs_f64()
    );
}
