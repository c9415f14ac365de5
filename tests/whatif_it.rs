//! What-if studies at Frontier scale — the §IV-3 experiments.

use exadigit_core::whatif::{
    blockage_experiment, BlockageReport, CoolingExtensionStudy, PowerDeliveryStudy,
};
use exadigit_cooling::PlantSpec;
use exadigit_raps::config::SystemConfig;
use exadigit_raps::job::Job;
use exadigit_raps::power::PowerDelivery;
use exadigit_raps::scheduler::Policy;
use exadigit_raps::workload::{WorkloadGenerator, WorkloadParams};

// FNV-1a-64 pins (see `fnv_bits`) of every number each study below
// returns on these tests' inputs.
const PIN_DC380_STUDY: u64 = 0x4e28_1bf9_16a0_35af;
const PIN_SMART_STUDY: u64 = 0x69b2_2bf6_c71d_47d4;
const PIN_EXTENSION: u64 = 0x3e93_3adc_baea_2fc4;
const PIN_BLOCKAGE: u64 = 0xeec4_8b35_c5a3_fd0b;
const PIN_CLEAN_PLANT: u64 = 0xae86_867f_e3be_f68b;

/// FNV-1a-64 over the little-endian bytes of every value's `to_bits`.
fn fnv_bits(values: impl IntoIterator<Item = f64>) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

/// Every number of a delivery study, variant by variant.
fn delivery_numbers(study: &PowerDeliveryStudy) -> Vec<f64> {
    let mut v = Vec::new();
    for o in &study.outcomes {
        let r = &o.report;
        v.extend([
            o.delivery as u8 as f64,
            r.sim_seconds as f64,
            r.jobs_completed as f64,
            r.jobs_unfinished as f64,
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
        ]);
    }
    v
}

/// Run the delivery study at pool widths 1, 3 and 8 — one schedule
/// carrying two power lanes, then one schedule per variant — and hold
/// every width to the same pin.
fn study_at_widths(cfg: &SystemConfig, jobs: &[Job], expected: u64) -> PowerDeliveryStudy {
    let studies = [1, 3, 8].map(|width| {
        let study =
            rayon::with_threads(width, || PowerDeliveryStudy::run(cfg, jobs, 7_200, Policy::FirstFit));
        let pin = fnv_bits(delivery_numbers(&study));
        assert_eq!(pin, expected, "delivery study moved at width {width}: {pin:#018x}");
        study
    });
    let [study, ..] = studies;
    study
}

/// Every number of a blockage report.
fn blockage_numbers(report: &BlockageReport) -> Vec<f64> {
    let mut v = report.flows_m3s.clone();
    v.extend(report.flagged.iter().map(|&i| i as f64));
    v.push(report.threshold);
    v
}

#[test]
fn dc380_study_reproduces_paper_shape() {
    // Paper: 380 V DC raises system efficiency from 93.3 % to 97.3 %,
    // saves ≈$542k/yr and cuts carbon by 8.2 %.
    let cfg = SystemConfig::frontier();
    let mut generator = WorkloadGenerator::new(WorkloadParams::default(), 11);
    let jobs: Vec<_> =
        generator.generate_day(0).into_iter().filter(|j| j.submit_time_s < 7_200).collect();
    let study = study_at_widths(&cfg, &jobs, PIN_DC380_STUDY);

    let eff_base = study.baseline().report.efficiency;
    let eff_dc = study.outcome(PowerDelivery::Direct380Vdc).report.efficiency;
    assert!((0.925..0.95).contains(&eff_base), "baseline eff {eff_base}");
    assert!((eff_dc - 0.973).abs() < 0.005, "dc eff {eff_dc}");

    // Yearly savings of the right order (paper: $542k at full utilization
    // profile; any mid-load day must land in the hundreds of k$).
    let savings = study.yearly_savings_usd(PowerDelivery::Direct380Vdc, &cfg);
    assert!(
        (150_000.0..1_200_000.0).contains(&savings),
        "dc yearly savings {savings}"
    );

    // Carbon reduction of several percent (paper: −8.2 %).
    let carbon = study.carbon_delta_percent(PowerDelivery::Direct380Vdc);
    assert!((-12.0..-4.0).contains(&carbon), "carbon delta {carbon} %");
}

#[test]
fn smart_rectifiers_modest_but_positive() {
    // Paper: "this modification yielded only a modest efficiency gain of
    // 0.1 %, it translates into ... approximately $120k" per year.
    let cfg = SystemConfig::frontier();
    let mut generator = WorkloadGenerator::new(WorkloadParams::default(), 13);
    let jobs: Vec<_> =
        generator.generate_day(0).into_iter().filter(|j| j.submit_time_s < 7_200).collect();
    let study = study_at_widths(&cfg, &jobs, PIN_SMART_STUDY);

    let gain = study.efficiency_gain_points(PowerDelivery::SmartRectifiers);
    assert!(gain > 0.0, "smart rectifiers must help: {gain}");
    assert!(gain < 1.5, "gain should be modest: {gain} points");

    let savings = study.yearly_savings_usd(PowerDelivery::SmartRectifiers, &cfg);
    assert!((20_000.0..400_000.0).contains(&savings), "smart savings {savings}");

    // Ordering: DC beats smart rectifiers.
    assert!(
        study.yearly_savings_usd(PowerDelivery::Direct380Vdc, &cfg) > savings,
        "DC must dominate"
    );
}

#[test]
fn cooling_extension_prototyping() {
    // §III-A use case: virtually extend the plant with a future secondary
    // system and evaluate the impact on the current one.
    let study = CoolingExtensionStudy::run(&PlantSpec::frontier(), 0.6, 6.0, 18.0).unwrap();
    let pin = fnv_bits(
        [study.baseline, study.extended]
            .iter()
            .flat_map(|c| [c.htws_temp_c, c.pue, c.cells_staged, c.cooling_power_w])
            .chain([study.extension_w]),
    );
    assert_eq!(pin, PIN_EXTENSION, "extension study moved: {pin:#018x}");
    // More load: more cooling effort and (weakly) warmer supply.
    assert!(
        study.extended.cooling_power_w > study.baseline.cooling_power_w,
        "aux power must rise: {} -> {}",
        study.baseline.cooling_power_w,
        study.extended.cooling_power_w
    );
    assert!(study.extended.cells_staged >= study.baseline.cells_staged);
    assert!(study.extended.htws_temp_c > study.baseline.htws_temp_c - 0.5);
    // The plant still copes: PUE stays physical.
    assert!((1.0..1.3).contains(&study.extended.pue), "pue {}", study.extended.pue);
}

#[test]
fn blockage_injection_detected() {
    // §III-A water-quality use case: inject blockages into CDUs 5 and 17
    // and require the detector to flag exactly them.
    let report =
        blockage_experiment(&PlantSpec::frontier(), &[4, 16], 5.0, 0.6).unwrap();
    let pin = fnv_bits(blockage_numbers(&report));
    assert_eq!(pin, PIN_BLOCKAGE, "blockage flows moved: {pin:#018x}");
    assert_eq!(report.flagged, vec![4, 16], "flows: {:?}", report.flows_m3s);
}

#[test]
fn clean_plant_yields_no_blockage_flags() {
    let report = blockage_experiment(&PlantSpec::frontier(), &[], 2.0, 0.6).unwrap();
    let pin = fnv_bits(blockage_numbers(&report));
    assert_eq!(pin, PIN_CLEAN_PLANT, "blockage flows moved: {pin:#018x}");
    assert!(report.flagged.is_empty(), "false positives: {:?}", report.flagged);
}
