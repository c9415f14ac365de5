//! Regenerates **Table IV** of the paper: "Daily statistics of DT from
//! telemetry replay of 183 days" — min / avg / max / std of the daily
//! aggregates over a 183-day synthetic workload, replayed through the
//! coupled twin. Days run as one scenario batch on the thread-pool
//! executor, exactly like the paper runs "the different days in parallel
//! on a single Frontier node"; set `EXADIGIT_THREADS` to control the
//! pool width.
//!
//! The cooling side is fidelity-selectable (`--backend none|plant|
//! surrogate`, see docs/FIDELITY.md): `plant` is the paper's L4
//! configuration, `surrogate` trains one L3 model up front and shares
//! the fitted polynomial across every day of the replay — the
//! fast-model/slow-model split that makes large sweeps tractable.
//!
//! ```sh
//! cargo run --release -p exadigit_bench --bin table4_daily_stats -- --days 183 --backend surrogate
//! ```

use exadigit_bench::{arg_str, arg_u64, section};
use exadigit_core::{CoolingBackend, DigitalTwin, SurrogateSource, TwinConfig};
use exadigit_raps::workload::{WorkloadGenerator, WorkloadParams};
use exadigit_sim::clock::SECONDS_PER_DAY;
use exadigit_sim::{EnsembleRunner, Summary, Welford};
use exadigit_telemetry::SyntheticTwin;

#[derive(Debug, Clone, Copy)]
struct DayStats {
    tavg_s: f64,
    nodes_per_job: f64,
    runtime_min: f64,
    jobs_completed: f64,
    throughput: f64,
    avg_power_mw: f64,
    loss_mw: f64,
    loss_pct: f64,
    energy_mwh: f64,
    co2_tons: f64,
    pue: f64,
}

fn run_day(day: u64, backend: &CoolingBackend) -> DayStats {
    let mut generator = WorkloadGenerator::new(WorkloadParams::default(), 0xEADD);
    let mut jobs = generator.generate_day(day);
    let day_start = day * SECONDS_PER_DAY;
    for j in &mut jobs {
        j.submit_time_s -= day_start;
    }
    let n_jobs = jobs.len().max(1) as f64;
    let tavg = SECONDS_PER_DAY as f64 / n_jobs;
    let nodes_avg = jobs.iter().map(|j| j.nodes as f64).sum::<f64>() / n_jobs;
    let runtime_avg = jobs.iter().map(|j| j.wall_time_s as f64).sum::<f64>() / n_jobs / 60.0;

    let mut cfg = TwinConfig::frontier().with_backend(backend.clone());
    cfg.record_every_s = 300;
    let mut twin = DigitalTwin::new(cfg).expect("frontier config with backend");
    if !matches!(backend, CoolingBackend::None) {
        twin.set_wet_bulb(SyntheticTwin::frontier().wet_bulb_day(day));
    }
    twin.submit(jobs);
    twin.run(SECONDS_PER_DAY).expect("day replay");
    let r = twin.report();
    DayStats {
        tavg_s: tavg,
        nodes_per_job: nodes_avg,
        runtime_min: runtime_avg,
        jobs_completed: r.jobs_completed as f64,
        throughput: r.throughput_jobs_per_hour,
        avg_power_mw: r.avg_power_mw,
        loss_mw: r.avg_loss_mw,
        loss_pct: r.loss_percent,
        energy_mwh: r.total_energy_mwh,
        co2_tons: r.co2_tons,
        pue: r.avg_pue.unwrap_or(f64::NAN),
    }
}

/// Resolve `--backend` into a `CoolingBackend`, training the shared L3
/// surrogate up front when asked for.
fn select_backend(name: &str) -> CoolingBackend {
    match name {
        "none" => CoolingBackend::None,
        "plant" => CoolingBackend::Plant,
        "surrogate" => {
            println!("  training the L3 surrogate once (shared across all days)...");
            let t0 = std::time::Instant::now();
            let sur = exadigit_core::surrogate::train_default(&TwinConfig::frontier().plant)
                .expect("frontier surrogate trains");
            println!("  trained in {:.1} s\n", t0.elapsed().as_secs_f64());
            CoolingBackend::Surrogate(SurrogateSource::Fitted(sur))
        }
        other => {
            eprintln!("unknown --backend {other} (expected none|plant|surrogate)");
            std::process::exit(2);
        }
    }
}

fn main() {
    // The pre-backend `--cooling 0|1` flag is retired; unknown flags are
    // otherwise ignored silently, so reject it loudly rather than run
    // the wrong fidelity.
    if std::env::args().any(|a| a == "--cooling") {
        eprintln!("--cooling is retired: use --backend none|plant|surrogate");
        std::process::exit(2);
    }
    let days = arg_u64("--days", 183);
    let backend_name = arg_str("--backend", "plant");
    section(&format!(
        "Table IV — Daily statistics from telemetry replay of {days} days (backend: {backend_name})"
    ));
    let backend = select_backend(&backend_name);
    let t0 = std::time::Instant::now();
    let stats: Vec<DayStats> =
        EnsembleRunner::new(0).map((0..days).collect(), |_ctx, d| run_day(d, &backend));
    let elapsed = t0.elapsed();

    let summarise = |f: fn(&DayStats) -> f64| -> Summary {
        let mut w = Welford::new();
        for s in &stats {
            w.push(f(s));
        }
        w.summary()
    };

    // (label, extractor, paper (min, avg, max, std))
    type Row = (&'static str, fn(&DayStats) -> f64, (f64, f64, f64, f64));
    let rows: Vec<Row> = vec![
        ("Avg Arrival Rate, tavg (s)", |s| s.tavg_s, (17.0, 138.0, 2988.0, 331.0)),
        ("Avg Nodes per Job", |s| s.nodes_per_job, (39.0, 268.0, 5441.0, 626.0)),
        ("Avg Runtime (m)", |s| s.runtime_min, (17.0, 39.0, 101.0, 14.0)),
        ("Jobs Completed", |s| s.jobs_completed, (32.0, 1575.0, 5157.0, 1171.0)),
        ("Throughput (jobs/hr)", |s| s.throughput, (1.3, 66.0, 215.0, 49.0)),
        ("Avg Power (MW)", |s| s.avg_power_mw, (10.2, 16.9, 23.0, 2.4)),
        ("Loss (MW)", |s| s.loss_mw, (0.52, 1.14, 1.84, 0.15)),
        ("Loss (%)", |s| s.loss_pct, (6.26, 6.74, 8.36, 0.11)),
        ("Total Energy (MW-hr)", |s| s.energy_mwh, (129.0, 405.0, 553.0, 64.0)),
        ("Carbon Emissions (t CO2)", |s| s.co2_tons, (53.0, 168.0, 229.0, 26.0)),
    ];

    println!(
        "  {:<28} {:>8} {:>8} {:>8} {:>8}   paper(min/avg/max/std)",
        "Parameter", "Min", "Avg", "Max", "Std"
    );
    for (label, f, (p_min, p_avg, p_max, p_std)) in rows {
        let s = summarise(f);
        println!(
            "  {label:<28} {:>8.1} {:>8.1} {:>8.1} {:>8.1}   {p_min}/{p_avg}/{p_max}/{p_std}",
            s.min, s.mean, s.max, s.std
        );
    }
    if !matches!(backend, CoolingBackend::None) {
        let pue = summarise(|s| s.pue);
        println!(
            "  {:<28} {:>8.3} {:>8.3} {:>8.3} {:>8.3}   (backend: {backend_name})",
            "Avg PUE", pue.min, pue.mean, pue.max, pue.std
        );
    }

    // Finding 9 headline: average and maximum conversion loss + cost.
    let loss = summarise(|s| s.loss_mw);
    let yearly_loss_cost = loss.mean * 8_766.0 * 90.0;
    println!("\n  Finding 9: avg conversion loss {:.2} MW (paper 1.14), max {:.2} MW (paper 1.84)", loss.mean, loss.max);
    println!("  yearly loss cost at 90 $/MWh: ${yearly_loss_cost:.0} (paper ≈ $900k)");
    println!(
        "\n  replayed {days} days in {:.1} s wall ({:.2} s/day; paper: ~9 min/day with cooling on one Frontier node)",
        elapsed.as_secs_f64(),
        elapsed.as_secs_f64() / days as f64
    );
}
