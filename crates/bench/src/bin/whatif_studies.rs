//! Regenerates the **§IV-3 what-if results** of the paper:
//!
//! * smart load-sharing rectifiers — "a modest efficiency gain of 0.1 %
//!   ... yearly cost savings of approximately $120k";
//! * direct 380 V DC distribution — "increased the system efficiency from
//!   93.3 % to 97.3 %, a potential savings of $542k per year, while also
//!   reducing the carbon footprint by 8.2 %".
//!
//! ```sh
//! cargo run --release -p exadigit_bench --bin whatif_studies -- --days 7
//! ```

use exadigit_bench::{arg_u64, section};
use exadigit_core::surrogate::{generate_training_data, Surrogate};
use exadigit_core::whatif::{
    blockage_experiment, whatif_grid, CoolingExtensionStudy, Fidelity, PowerDeliveryStudy,
};
use exadigit_cooling::PlantSpec;
use exadigit_raps::config::SystemConfig;
use exadigit_raps::power::PowerDelivery;
use exadigit_raps::scheduler::Policy;
use exadigit_raps::workload::{WorkloadGenerator, WorkloadParams};
use exadigit_sim::clock::SECONDS_PER_DAY;

fn main() {
    let days = arg_u64("--days", 7);
    let system = SystemConfig::frontier();

    section(&format!("§IV-3 what-if studies over a {days}-day replay"));
    let mut generator = WorkloadGenerator::new(WorkloadParams::default(), 0x14F);
    let jobs = generator.generate_span(days);
    println!("  {} jobs over {days} days, three delivery variants in parallel...\n", jobs.len());
    let study = PowerDeliveryStudy::run(&system, &jobs, days * SECONDS_PER_DAY, Policy::FirstFit);

    println!(
        "  {:<20} {:>9} {:>9} {:>9} {:>11} {:>13} {:>9}",
        "variant", "avg MW", "loss MW", "loss %", "η_system", "save $/yr", "ΔCO₂ %"
    );
    for outcome in &study.outcomes {
        println!(
            "  {:<20} {:>9.2} {:>9.3} {:>9.2} {:>11.4} {:>13.0} {:>9.2}",
            format!("{:?}", outcome.delivery),
            outcome.report.avg_power_mw,
            outcome.report.avg_loss_mw,
            outcome.report.loss_percent,
            outcome.report.efficiency,
            study.yearly_savings_usd(outcome.delivery, &system),
            study.carbon_delta_percent(outcome.delivery),
        );
    }
    println!("\n  paper: smart rectifiers ≈ +0.1 % η, $120k/yr; 380 V DC: 93.3→97.3 %, $542k/yr, −8.2 % CO₂");
    println!(
        "  ours : smart rectifiers {:+.2} pts, ${:.0}/yr; 380 V DC {:+.2} pts, ${:.0}/yr, {:+.1} % CO₂",
        study.efficiency_gain_points(PowerDelivery::SmartRectifiers),
        study.yearly_savings_usd(PowerDelivery::SmartRectifiers, &system),
        study.efficiency_gain_points(PowerDelivery::Direct380Vdc),
        study.yearly_savings_usd(PowerDelivery::Direct380Vdc, &system),
        study.carbon_delta_percent(PowerDelivery::Direct380Vdc),
    );

    section("Virtual prototyping — extending the CEP for a secondary system");
    let ext = CoolingExtensionStudy::run(&PlantSpec::frontier(), 0.6, 6.0, 18.0).expect("study");
    println!(
        "  {:<28} {:>12} {:>12}",
        "quantity", "baseline", "+6 MW ext."
    );
    println!(
        "  {:<28} {:>12.2} {:>12.2}",
        "HTW supply temp [degC]", ext.baseline.htws_temp_c, ext.extended.htws_temp_c
    );
    println!("  {:<28} {:>12.4} {:>12.4}", "PUE", ext.baseline.pue, ext.extended.pue);
    println!(
        "  {:<28} {:>12.0} {:>12.0}",
        "tower cells staged", ext.baseline.cells_staged, ext.extended.cells_staged
    );
    println!(
        "  {:<28} {:>12.0} {:>12.0}",
        "cooling aux power [kW]",
        ext.baseline.cooling_power_w / 1e3,
        ext.extended.cooling_power_w / 1e3
    );

    section("Diagnostics — CDU blockage injection (water-quality use case)");
    let report = blockage_experiment(&PlantSpec::frontier(), &[4, 16], 5.0, 0.6).expect("run");
    println!("  injected 5x blockage into CDUs 5 and 17 (1-based)");
    println!(
        "  detector flagged CDUs: {:?} (0-based; threshold {} of median flow)",
        report.flagged, report.threshold
    );

    section("Fidelity backends — the same what-if grid at L3 vs L4 (docs/FIDELITY.md)");
    let spec = PlantSpec::marconi100_like();
    let t_train = std::time::Instant::now();
    let samples = generate_training_data(&spec, &[0.3, 0.6, 0.9], &[10.0, 14.0, 18.0], 400)
        .expect("training sweep");
    let sur = Surrogate::fit(&samples).expect("fit");
    let train_s = t_train.elapsed().as_secs_f64();
    let loads = [0.35, 0.5, 0.65, 0.8];
    let wbs = [11.0, 13.0, 15.0, 17.0];
    let t4 = std::time::Instant::now();
    let l4 = whatif_grid(&spec, &Fidelity::Plant, &loads, &wbs).expect("L4 grid");
    let l4_s = t4.elapsed().as_secs_f64();
    let t3 = std::time::Instant::now();
    let l3 = whatif_grid(&spec, &Fidelity::Surrogate(sur), &loads, &wbs).expect("L3 grid");
    let l3_s = t3.elapsed().as_secs_f64();
    let max_err = l3
        .points
        .iter()
        .zip(&l4.points)
        .map(|(a, b)| (a.pue - b.pue).abs())
        .fold(0.0f64, f64::max);
    println!(
        "  {}-point grid: L4 {:.2} s, L3 {:.6} s (x{:.0} speedup; one-off training {:.1} s)",
        l3.points.len(),
        l4_s,
        l3_s,
        l4_s / l3_s.max(1e-12),
        train_s
    );
    let envelope_note = if l3.extrapolations == 0 {
        " (all inside the envelope)"
    } else {
        " (outside the training envelope — treat those PUEs as unreliable)"
    };
    println!(
        "  max |ΔPUE| across the grid: {max_err:.4}; extrapolated points: {}{envelope_note}",
        l3.extrapolations
    );
}
