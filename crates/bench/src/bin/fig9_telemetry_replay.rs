//! Regenerates **Fig. 9** of the paper: "Telemetry replay validation test
//! of 24-hour period ... containing an HPL run" — the day with ~1238 jobs
//! (≈400 single-node) and four back-to-back 9216-node HPL runs, showing
//! predicted vs measured system power, η_system, cooling efficiency and
//! utilization.
//!
//! ```sh
//! cargo run --release -p exadigit_bench --bin fig9_telemetry_replay -- --hours 24
//! ```

use exadigit_bench::{arg_u64, section};
use exadigit_raps::config::SystemConfig;
use exadigit_raps::power::PowerDelivery;
use exadigit_raps::scheduler::Policy;
use exadigit_raps::simulation::RapsSimulation;
use exadigit_raps::workload::benchmark_day;
use exadigit_telemetry::{compare_channels, SyntheticTwin};
use exadigit_viz::chart::{bucket_means, line_chart, spark_series};

fn main() {
    let hours = arg_u64("--hours", 24);
    let span = hours * 3_600;
    section(&format!("Fig. 9 — telemetry replay of a {hours} h period with HPL runs"));

    let jobs: Vec<_> =
        benchmark_day(0x0F19).into_iter().filter(|j| j.submit_time_s < span).collect();
    let singles = jobs.iter().filter(|j| j.nodes == 1).count();
    let hpls = jobs.iter().filter(|j| j.name.starts_with("hpl")).count();
    println!(
        "  workload: {} jobs ({} single-node, {} HPL 9216-node; paper: 1238 / 400 / 4)",
        jobs.len(),
        singles,
        hpls
    );

    println!("  recording physical twin (measured side)...");
    let twin = SyntheticTwin::frontier();
    let telemetry = twin.record_span(jobs.clone(), span, 0);

    println!("  replaying through the digital twin (predicted side)...");
    let t0 = std::time::Instant::now();
    let mut sim = RapsSimulation::new(
        SystemConfig::frontier(),
        PowerDelivery::StandardAC,
        Policy::FirstFit,
        15,
    );
    sim.submit_jobs(jobs);
    sim.run_until(span).expect("replay");
    let replay_wall = t0.elapsed();
    let report = sim.report();

    // The four Fig. 9 series.
    let predicted = &sim.outputs().system_power_w;
    let cmp = compare_channels("P_system", predicted, &telemetry.measured_power_w, 60.0);
    let width = 72;
    let pred_mw: Vec<f64> =
        bucket_means(&predicted.to_vec(), width).iter().map(|w| w / 1e6).collect();
    let meas_mw: Vec<f64> =
        bucket_means(&telemetry.measured_power_w.to_vec(), width).iter().map(|w| w / 1e6).collect();
    println!("\n  instantaneous system power [MW] (red=predicted, black=measured in the paper):");
    println!("{}", line_chart(&[("predicted", &pred_mw), ("measured", &meas_mw)], width, 14));
    println!("  η_system     {}", spark_series(&sim.outputs().efficiency, width));
    println!("  utilization  {}", spark_series(&sim.outputs().utilization, width));

    println!("\n  predicted vs measured power: RMSE {:.3} MW, MAE {:.3} MW, bias {:+.2} %",
        cmp.rmse / 1e6, cmp.mae / 1e6, cmp.mean_bias_percent());
    println!("\n{report}");
    println!(
        "\n  mean η_system {:.3} (paper ~0.933)   mean cooling efficiency (config) 0.945   utilization {:.1} %",
        report.efficiency,
        100.0 * report.avg_utilization
    );
    println!(
        "  replay wall time: {:.1} s for {hours} h without cooling (paper: ~3 min/24 h without cooling)",
        replay_wall.as_secs_f64()
    );
}
