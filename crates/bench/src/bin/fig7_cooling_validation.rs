//! Regenerates **Fig. 7** of the paper: cooling-model validation against
//! (synthetic) telemetry — (a) CDU primary flow, (b) CDU primary return
//! temperature, (c) HTW supply pressure, (d) PUE — plus the **Table II**
//! channel specification and the **Fig. 5** station registry.
//!
//! ```sh
//! cargo run --release -p exadigit_bench --bin fig7_cooling_validation -- --hours 24
//! ```

use exadigit_bench::{arg_u64, section};
use exadigit_cooling::stations::STATIONS;
use exadigit_cooling::CoolingModel;
use exadigit_raps::config::SystemConfig;
use exadigit_raps::power::PowerDelivery;
use exadigit_raps::scheduler::Policy;
use exadigit_raps::simulation::{CoolingCoupling, RapsSimulation};
use exadigit_raps::workload::{WorkloadGenerator, WorkloadParams};
use exadigit_sim::TimeSeries;
use exadigit_telemetry::{compare_channels, SyntheticTwin};
use exadigit_viz::chart::spark_series;

fn main() {
    let hours = arg_u64("--hours", 24);
    let span = hours * 3_600;

    section("Table II — telemetry channels used for validation");
    println!("  RAPS inputs : jobs (name, id, node_count, start, cpu/gpu power @15 s)");
    println!("  RAPS output : measured system power @1 s");
    println!("  Cooling in  : rack power @15 s ×25, wet-bulb @60 s");
    println!("  Cooling out : CDU flows/temps/pumps @15 s ×25, facility T @60 s,");
    println!("                pressures @30 s, flows @120 s, PUE @15 s");

    section("Fig. 5 — station registry");
    for s in STATIONS {
        println!("  {:>2}  {:<38} [{}]", s.id, s.name, s.loop_name);
    }

    section(&format!("Fig. 7 — cooling validation over {hours} h of replay"));
    let twin = SyntheticTwin::frontier();
    let mut generator = WorkloadGenerator::new(WorkloadParams::default(), 0x0407);
    let jobs: Vec<_> =
        generator.generate_day(0).into_iter().filter(|j| j.submit_time_s < span).collect();
    println!("  recording physical-twin telemetry ({} jobs, perturbed plant + sensor noise)...", jobs.len());
    let telemetry = twin.record_span(jobs.clone(), span, 0);

    println!("  replaying through the nominal Modelica-equivalent model...");
    let mut sim = RapsSimulation::new(
        SystemConfig::frontier(),
        PowerDelivery::StandardAC,
        Policy::FirstFit,
        15,
    );
    sim.attach_cooling(CoolingCoupling::attach(Box::new(CoolingModel::frontier()), 25).unwrap());
    sim.set_wet_bulb(telemetry.wet_bulb.clone());
    sim.submit_jobs(jobs);

    let mut pred_flow = TimeSeries::new(0.0, 15.0);
    let mut pred_temp = TimeSeries::new(0.0, 15.0);
    let mut pred_press = TimeSeries::new(0.0, 30.0);
    let mut pred_pue = TimeSeries::new(0.0, 15.0);
    let (vr_flow, vr_temp, vr_press, vr_pue) = {
        let m = sim.cooling_model().unwrap();
        (
            m.var_by_name("cdu[1].primary_flow").unwrap().vr,
            m.var_by_name("cdu[1].primary_return_temp").unwrap().vr,
            m.var_by_name("facility.htw_supply_pressure").unwrap().vr,
            m.var_by_name("pue").unwrap().vr,
        )
    };
    for sec in 0..span {
        sim.tick().expect("replay");
        let t = sec + 1;
        let m = sim.cooling_model().unwrap();
        if t % 15 == 0 {
            pred_flow.push(m.get_real(vr_flow).unwrap());
            pred_temp.push(m.get_real(vr_temp).unwrap());
            pred_pue.push(m.get_real(vr_pue).unwrap());
        }
        if t % 30 == 0 {
            pred_press.push(m.get_real(vr_press).unwrap());
        }
    }

    let skip = 1_800.0;
    println!("\n  {:<42} {:>12} {:>12} {:>9}", "panel / channel", "RMSE", "MAE", "nRMSE %");
    let panels: [(&str, &TimeSeries, &TimeSeries); 4] = [
        ("(a) cdu[1].primary_flow [m3/s]", &pred_flow, &telemetry.cooling.cdu_primary_flow[0]),
        ("(b) cdu[1].primary_return_temp [degC]", &pred_temp, &telemetry.cooling.cdu_return_temp[0]),
        ("(c) facility.htw_supply_pressure [Pa]", &pred_press, &telemetry.cooling.htw_supply_pressure),
        ("(d) pue [1]", &pred_pue, &telemetry.cooling.pue),
    ];
    for (name, predicted, measured) in &panels {
        let cmp = compare_channels(*name, predicted, measured, skip);
        println!(
            "  {name:<42} {:>12.4} {:>12.4} {:>9.2}",
            cmp.rmse,
            cmp.mae,
            cmp.nrmse_percent()
        );
    }
    let pue_cmp = compare_channels("pue", &pred_pue, &telemetry.cooling.pue, skip);
    println!(
        "\n  PUE bias {:+.2} %   (paper: \"model-predicted PUE is within 1.4 percent\")",
        pue_cmp.mean_bias_percent()
    );

    println!("\n  predicted (a) {}", spark_series(&pred_flow, 60));
    println!("  measured  (a) {}", spark_series(&telemetry.cooling.cdu_primary_flow[0], 60));
    println!("  predicted (b) {}", spark_series(&pred_temp, 60));
    println!("  measured  (b) {}", spark_series(&telemetry.cooling.cdu_return_temp[0], 60));
    println!("  predicted (d) {}", spark_series(&pred_pue, 60));
    println!("  measured  (d) {}", spark_series(&telemetry.cooling.pue, 60));
}
