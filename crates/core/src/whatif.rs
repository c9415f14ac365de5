//! What-if studies — §IV-3 of the paper and the §III-A use-case list.
//!
//! "Now we can begin to envision ways to improve overall efficiency
//! through virtual modifications to Frontier's DT": the paper tests smart
//! load-sharing rectifiers (+0.1 % efficiency ≈ $120k/yr) and direct
//! 380 V DC distribution (93.3 % → 97.3 %, ≈ $542k/yr, −8.2 % CO₂). This
//! module reproduces those two studies plus two §III-A use cases:
//! virtually extending the cooling plant for a future secondary system,
//! and CDU blockage injection/detection (water quality).
//!
//! Every steady-plant study — the L4 grid, the extension study and the
//! surrogate's training data — settles the plant through one protocol
//! and reads one [`PlantCondition`].
//!
//! Plant-condition sweeps are fidelity-selectable (see
//! `docs/FIDELITY.md`): [`whatif_grid`] evaluates the same
//! (load × wet-bulb) grid either by settling the L4 plant at every point
//! or by serving each point from a fitted L3 [`Surrogate`] — the paper's
//! motivation for surrogates ("run in real-time") made concrete, since
//! the L3 grid costs microseconds where the L4 grid costs seconds.

use crate::surrogate::Surrogate;
use exadigit_cooling::{CoolingModel, PlantSpec};
use exadigit_raps::config::SystemConfig;
use exadigit_raps::job::Job;
use exadigit_raps::power::PowerDelivery;
use exadigit_raps::scheduler::Policy;
use exadigit_raps::simulation::RapsSimulation;
use exadigit_raps::stats::RunReport;
use exadigit_sim::ensemble::EnsembleRunner;
use exadigit_sim::fmi::{CoSimModel, VarRef};
use serde::{Deserialize, Serialize};

// ---------------------------------------------------------------------
// Power-delivery study (smart rectifiers, 380 V DC)
// ---------------------------------------------------------------------

/// Outcome of one power-delivery variant.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeliveryOutcome {
    /// The variant simulated.
    pub delivery: PowerDelivery,
    /// Its run report.
    pub report: RunReport,
}

/// Results of replaying one workload under all three delivery variants.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerDeliveryStudy {
    /// Outcomes in `[StandardAC, SmartRectifiers, Direct380Vdc]` order.
    pub outcomes: Vec<DeliveryOutcome>,
}

impl PowerDeliveryStudy {
    /// Replay `jobs` for `horizon_s` under each variant (power-only:
    /// conversion losses do not feed back into cooling). A delivery swap
    /// changes only the conversion chain, so the variants share one
    /// schedule: the runner splits them into `min(3, width)` chunks at the
    /// process-default width, and each chunk replays once with its first
    /// variant as the simulation's own power model and the rest as power
    /// lanes. Every outcome is bit-identical to a replay of its own.
    pub fn run(system: &SystemConfig, jobs: &[Job], horizon_s: u64, policy: Policy) -> Self {
        const VARIANTS: [PowerDelivery; 3] = [
            PowerDelivery::StandardAC,
            PowerDelivery::SmartRectifiers,
            PowerDelivery::Direct380Vdc,
        ];
        let chunks = EnsembleRunner::new(0).run_chunks(VARIANTS.len(), |ctxs| {
            let deliveries: Vec<PowerDelivery> = ctxs.iter().map(|c| VARIANTS[c.index]).collect();
            let mut sim = RapsSimulation::new(system.clone(), deliveries[0], policy, 60);
            sim.submit_jobs(jobs.to_vec());
            let lanes = deliveries[1..].iter().map(|&d| (system.clone(), d)).collect();
            let lanes = sim
                .run_until_with_lanes(horizon_s, lanes)
                .expect("a power-only run over one machine");
            let reports = std::iter::once(sim.report()).chain(lanes);
            deliveries
                .into_iter()
                .zip(reports)
                .map(|(delivery, report)| DeliveryOutcome { delivery, report })
                .collect::<Vec<_>>()
        });
        PowerDeliveryStudy { outcomes: chunks.into_iter().flatten().collect() }
    }

    /// The baseline (standard AC) outcome.
    pub fn baseline(&self) -> &DeliveryOutcome {
        &self.outcomes[0]
    }

    /// Outcome for a variant.
    pub fn outcome(&self, delivery: PowerDelivery) -> &DeliveryOutcome {
        self.outcomes.iter().find(|o| o.delivery == delivery).expect("all variants present")
    }

    /// Yearly energy-cost savings of a variant vs the baseline, USD —
    /// the Δloss energy valued at the configured tariff.
    pub fn yearly_savings_usd(&self, delivery: PowerDelivery, system: &SystemConfig) -> f64 {
        let base = &self.baseline().report;
        let var = &self.outcome(delivery).report;
        let delta_mw = base.avg_loss_mw - var.avg_loss_mw;
        let yearly_mwh = delta_mw * 8_766.0;
        RunReport::cost_for(&system.costs, yearly_mwh)
    }

    /// Relative CO₂ change of a variant vs the baseline, percent
    /// (negative = reduction). Per eq. (6) emissions scale with consumed
    /// energy *and* 1/η.
    pub fn carbon_delta_percent(&self, delivery: PowerDelivery) -> f64 {
        let base = &self.baseline().report;
        let var = &self.outcome(delivery).report;
        100.0 * (var.co2_tons - base.co2_tons) / base.co2_tons
    }

    /// Efficiency gain of a variant vs the baseline, percentage points.
    pub fn efficiency_gain_points(&self, delivery: PowerDelivery) -> f64 {
        100.0 * (self.outcome(delivery).report.efficiency - self.baseline().report.efficiency)
    }
}

// ---------------------------------------------------------------------
// Steady plant condition (the one settle protocol)
// ---------------------------------------------------------------------

/// Steady condition of a settled plant at one operating point — the one
/// reading every steady-plant study takes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlantCondition {
    /// HTW supply temperature at the hall, °C.
    pub htws_temp_c: f64,
    /// PUE.
    pub pue: f64,
    /// Tower cells staged.
    pub cells_staged: f64,
    /// Auxiliary cooling power (HTWP+CTWP+fans+CDU pumps), W.
    pub cooling_power_w: f64,
    /// CDU 1 secondary supply temperature (what the GPUs see), °C.
    pub secondary_supply_c: f64,
}

/// Settle steps (× 15 s) of the L4 grid; a surrogate trained with the
/// same count matches the L4 grid's settling transient.
const SWEEP_SETTLE_STEPS: usize = 400;

/// Build a plant from `spec`, apply `heat_per_cdu_w` to every CDU at the
/// given wet-bulb with the matching IT power (`heat·n/0.945`), step it
/// `steps` × 15 s, and read off the steady condition. Every steady-plant
/// study settles through here; [`blockage_experiment`] (no wet-bulb or
/// IT power) and `CoolingModel::settle` (the online fallback's clamped
/// protocol) keep their own forms.
pub(crate) fn settle_plant(
    spec: &PlantSpec,
    heat_per_cdu_w: f64,
    wet_bulb_c: f64,
    steps: usize,
) -> Result<PlantCondition, String> {
    let mut model = CoolingModel::new(spec.clone())?;
    model.setup(0.0);
    for i in 0..spec.num_cdus {
        model.set_real(VarRef(i as u32), heat_per_cdu_w).map_err(|e| e.to_string())?;
    }
    let wb_vr = model.var_by_name("wet_bulb").expect("registry").vr;
    model.set_real(wb_vr, wet_bulb_c).map_err(|e| e.to_string())?;
    let it_vr = model.var_by_name("it_power").expect("registry").vr;
    model
        .set_real(it_vr, heat_per_cdu_w * spec.num_cdus as f64 / 0.945)
        .map_err(|e| e.to_string())?;
    for k in 0..steps {
        model.do_step(k as f64 * 15.0, 15.0).map_err(|e| e.to_string())?;
    }
    let read = |name: &str| model.output_by_name(name).expect("registry output");
    Ok(PlantCondition {
        htws_temp_c: read("facility.htw_supply_temp"),
        pue: read("pue"),
        cells_staged: read("ct.num_cells_staged"),
        cooling_power_w: read("cooling_power"),
        secondary_supply_c: read("cdu[1].secondary_supply_temp"),
    })
}

// ---------------------------------------------------------------------
// Cooling-extension study (virtual prototyping)
// ---------------------------------------------------------------------

/// Virtual prototyping: impact of attaching a future secondary system's
/// heat load onto the existing CEP (§III-A use case).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CoolingExtensionStudy {
    /// Current-system condition.
    pub baseline: PlantCondition,
    /// Condition with the extension load attached.
    pub extended: PlantCondition,
    /// Extension load, W.
    pub extension_w: f64,
}

impl CoolingExtensionStudy {
    /// Settle the plant (600 × 15 s) at `base_load_fraction` of design
    /// heat, then with `extension_mw` of additional load spread across the
    /// CDUs, and compare the steady conditions at the given wet-bulb.
    pub fn run(
        spec: &PlantSpec,
        base_load_fraction: f64,
        extension_mw: f64,
        wet_bulb_c: f64,
    ) -> Result<Self, String> {
        let settle = |extra_w: f64| {
            let heat =
                spec.heat_per_cdu_w() * base_load_fraction + extra_w / spec.num_cdus as f64;
            settle_plant(spec, heat, wet_bulb_c, 600)
        };
        Ok(CoolingExtensionStudy {
            baseline: settle(0.0)?,
            extended: settle(extension_mw * 1e6)?,
            extension_w: extension_mw * 1e6,
        })
    }
}

// ---------------------------------------------------------------------
// CDU blockage injection & detection (water quality)
// ---------------------------------------------------------------------

/// Result of a blockage-detection pass.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BlockageReport {
    /// Per-CDU secondary flows observed, m³/s.
    pub flows_m3s: Vec<f64>,
    /// CDUs flagged as blocked (0-based).
    pub flagged: Vec<usize>,
    /// Detection threshold used (fraction of the median flow).
    pub threshold: f64,
}

/// Flag CDUs whose secondary flow falls below `threshold` × median —
/// the detection predicate for "can these types of blockages be
/// detected?" (§III-A).
pub fn detect_blockages(flows: &[f64], threshold: f64) -> BlockageReport {
    let mut sorted = flows.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("flows are finite"));
    let median = sorted[sorted.len() / 2];
    let flagged = flows
        .iter()
        .enumerate()
        .filter(|(_, &q)| q < threshold * median)
        .map(|(i, _)| i)
        .collect();
    BlockageReport { flows_m3s: flows.to_vec(), flagged, threshold }
}

/// Inject blockages into the given CDUs of a settled plant and verify the
/// detector finds exactly them. Returns the detection report.
pub fn blockage_experiment(
    spec: &PlantSpec,
    blocked_cdus: &[usize],
    blockage_factor: f64,
    load_fraction: f64,
) -> Result<BlockageReport, String> {
    let mut model = CoolingModel::new(spec.clone())?;
    model.setup(0.0);
    let heat = spec.heat_per_cdu_w() * load_fraction;
    for i in 0..spec.num_cdus {
        model.set_real(VarRef(i as u32), heat).map_err(|e| e.to_string())?;
    }
    for &cdu in blocked_cdus {
        let vr = model
            .var_by_name(&format!("cdu_blockage[{}]", cdu + 1))
            .ok_or("unknown CDU")?
            .vr;
        model.set_real(vr, blockage_factor).map_err(|e| e.to_string())?;
    }
    for k in 0..200 {
        model.do_step(k as f64 * 15.0, 15.0).map_err(|e| e.to_string())?;
    }
    let flows: Vec<f64> = (1..=spec.num_cdus)
        .map(|i| model.output_by_name(&format!("cdu[{i}].secondary_flow")).unwrap())
        .collect();
    Ok(detect_blockages(&flows, 0.85))
}

// ---------------------------------------------------------------------
// Fidelity-selectable what-if grid (L3 surrogate vs L4 plant)
// ---------------------------------------------------------------------

/// The model fidelity a plant-condition sweep runs at.
///
/// Both arms answer the same question — steady PUE and cooling power at
/// a (load fraction, wet-bulb) operating point — through different
/// machinery, so a sweep can trade accuracy for wall-clock per point.
#[derive(Debug, Clone, PartialEq)]
pub enum Fidelity {
    /// L4: settle the comprehensive transient plant at every point.
    Plant,
    /// L3: serve every point from a fitted surrogate (microseconds per
    /// point; extrapolation outside the training envelope is flagged,
    /// not fatal).
    Surrogate(Surrogate),
}

impl Fidelity {
    /// Short label for tables and bench IDs (`"L3"` / `"L4"`).
    pub fn label(&self) -> &'static str {
        match self {
            Fidelity::Plant => "L4",
            Fidelity::Surrogate(_) => "L3",
        }
    }
}

/// One evaluated point of a fidelity-selectable what-if grid.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GridOutcome {
    /// Load fraction of plant design heat.
    pub load_fraction: f64,
    /// Wet-bulb temperature, °C.
    pub wet_bulb_c: f64,
    /// Steady PUE at the operating point.
    pub pue: f64,
    /// Steady cooling auxiliary power, W.
    pub cooling_power_w: f64,
    /// True when an L3 backend answered from outside its training
    /// envelope (always false at L4).
    pub extrapolated: bool,
}

/// A completed what-if grid with its extrapolation tally.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WhatIfGrid {
    /// Outcomes in (load-major, wet-bulb-minor) sweep order.
    pub points: Vec<GridOutcome>,
    /// How many points were answered by extrapolation — the counted
    /// warning the paper's caveat about interpolative L3 models demands.
    pub extrapolations: usize,
}

/// Evaluate one grid point at the chosen fidelity — the unit
/// [`whatif_grid`] batches, and the one to map over when a batch mixes
/// fidelities (`docs/ENSEMBLES.md`).
pub fn evaluate_grid_point(
    spec: &PlantSpec,
    fidelity: &Fidelity,
    load_fraction: f64,
    wet_bulb_c: f64,
) -> Result<GridOutcome, String> {
    match fidelity {
        Fidelity::Plant => {
            let heat = spec.heat_per_cdu_w() * load_fraction;
            let c = settle_plant(spec, heat, wet_bulb_c, SWEEP_SETTLE_STEPS)?;
            Ok(GridOutcome {
                load_fraction,
                wet_bulb_c,
                pue: c.pue,
                cooling_power_w: c.cooling_power_w,
                extrapolated: false,
            })
        }
        Fidelity::Surrogate(sur) => Ok(GridOutcome {
            load_fraction,
            wet_bulb_c,
            pue: sur.predict_pue(load_fraction, wet_bulb_c),
            cooling_power_w: sur.predict_cooling_power(load_fraction, wet_bulb_c),
            extrapolated: !sur.in_domain(load_fraction, wet_bulb_c),
        }),
    }
}

/// Evaluate a (load × wet-bulb) grid at the chosen fidelity, batched
/// across the thread-pool executor at the process-default width.
pub fn whatif_grid(
    spec: &PlantSpec,
    fidelity: &Fidelity,
    loads: &[f64],
    wet_bulbs: &[f64],
) -> Result<WhatIfGrid, String> {
    let mut cells = Vec::with_capacity(loads.len() * wet_bulbs.len());
    for &l in loads {
        for &w in wet_bulbs {
            cells.push((l, w));
        }
    }
    let points = EnsembleRunner::new(0)
        .try_map(cells, |_ctx, (l, w)| evaluate_grid_point(spec, fidelity, l, w))?;
    let extrapolations = points.iter().filter(|p| p.extrapolated).count();
    Ok(WhatIfGrid { points, extrapolations })
}

#[cfg(test)]
mod tests {
    use super::*;
    use exadigit_raps::workload::{WorkloadGenerator, WorkloadParams};

    // FNV-1a-64 pins (see `fnv_bits`) of every number the studies below
    // return on these tests' inputs.
    const PIN_DELIVERY: u64 = 0x93ae_34db_feef_b9a3;
    const PIN_GRIDS_INSIDE: u64 = 0x7ff5_5825_f304_5cb5;
    const PIN_GRID_OUTSIDE: u64 = 0x5ca5_d9e2_bdf5_16e7;

    fn small_system() -> SystemConfig {
        let mut cfg = SystemConfig::frontier();
        cfg.partitions[0].nodes = 1024;
        cfg.cooling.num_cdus = 3;
        cfg.cooling.racks_per_cdu = 3;
        cfg
    }

    /// FNV-1a-64 over the little-endian bytes of every value's `to_bits`:
    /// the pin that holds a study's returned numbers to the bit.
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

    /// Every number of a what-if grid, extrapolation flags included.
    fn grid_numbers(grid: &WhatIfGrid) -> Vec<f64> {
        let mut v: Vec<f64> = grid
            .points
            .iter()
            .flat_map(|p| {
                [p.load_fraction, p.wet_bulb_c, p.pue, p.cooling_power_w, p.extrapolated as u8 as f64]
            })
            .collect();
        v.push(grid.extrapolations as f64);
        v
    }

    /// Every number of a set of training samples.
    fn sample_numbers(samples: &[crate::surrogate::Sample]) -> Vec<f64> {
        samples
            .iter()
            .flat_map(|s| [s.load_fraction, s.wet_bulb_c, s.pue, s.cooling_power_w])
            .collect()
    }

    #[test]
    fn delivery_study_orders_losses_correctly() {
        let cfg = small_system();
        let mut generator = WorkloadGenerator::new(
            WorkloadParams { machine_nodes: 1024, ..Default::default() },
            99,
        );
        let jobs = generator.generate_day(0);
        let study = PowerDeliveryStudy::run(&cfg, &jobs, 3 * 3600, Policy::FirstFit);
        let pin = fnv_bits(delivery_numbers(&study));
        assert_eq!(pin, PIN_DELIVERY, "delivery study moved: {pin:#018x}");
        let base = study.outcome(PowerDelivery::StandardAC).report.avg_loss_mw;
        let smart = study.outcome(PowerDelivery::SmartRectifiers).report.avg_loss_mw;
        let dc = study.outcome(PowerDelivery::Direct380Vdc).report.avg_loss_mw;
        // Paper ordering: DC < smart < baseline losses.
        assert!(smart < base, "smart {smart} vs base {base}");
        assert!(dc < smart, "dc {dc} vs smart {smart}");
        // DC raises efficiency to ~97.3 %.
        let eff_dc = study.outcome(PowerDelivery::Direct380Vdc).report.efficiency;
        assert!((eff_dc - 0.973).abs() < 0.01, "eff={eff_dc}");
        // And cuts carbon.
        assert!(study.carbon_delta_percent(PowerDelivery::Direct380Vdc) < -3.0);
        // Savings are positive for both variants.
        assert!(study.yearly_savings_usd(PowerDelivery::SmartRectifiers, &cfg) > 0.0);
        assert!(
            study.yearly_savings_usd(PowerDelivery::Direct380Vdc, &cfg)
                > study.yearly_savings_usd(PowerDelivery::SmartRectifiers, &cfg)
        );
    }

    #[test]
    fn blockage_detector_flags_outliers() {
        let mut flows = vec![0.03; 25];
        flows[7] = 0.012;
        flows[19] = 0.015;
        let report = detect_blockages(&flows, 0.85);
        assert_eq!(report.flagged, vec![7, 19]);
    }

    #[test]
    fn blockage_detector_clean_plant_flags_nothing() {
        let flows = vec![0.03; 25];
        assert!(detect_blockages(&flows, 0.85).flagged.is_empty());
    }

    #[test]
    fn grid_fidelities_agree_inside_the_envelope() {
        // Train a surrogate on the small plant with the same 400-step
        // settle protocol the L4 grid uses, over a wet-bulb range that
        // stays inside one tower-staging regime (above ~wb 20 °C this
        // plant stages an extra cell, a PUE cliff no quadratic can
        // track — the training-envelope caveat in docs/FIDELITY.md).
        let spec = exadigit_cooling::PlantSpec::marconi100_like();
        let samples = crate::surrogate::generate_training_data(
            &spec,
            &[0.3, 0.6, 0.9],
            &[10.0, 14.0, 18.0],
            400,
        )
        .unwrap();
        let sur = crate::surrogate::Surrogate::fit(&samples).unwrap();
        let loads = [0.45, 0.7];
        let wbs = [12.0, 16.0];
        let l3 = whatif_grid(&spec, &Fidelity::Surrogate(sur), &loads, &wbs).unwrap();
        let l4 = whatif_grid(&spec, &Fidelity::Plant, &loads, &wbs).unwrap();
        let pin = fnv_bits(
            sample_numbers(&samples).into_iter().chain(grid_numbers(&l3)).chain(grid_numbers(&l4)),
        );
        assert_eq!(pin, PIN_GRIDS_INSIDE, "training samples or grids moved: {pin:#018x}");
        assert_eq!(l3.points.len(), 4);
        assert_eq!(l3.extrapolations, 0, "interior points must not extrapolate");
        for (a, b) in l3.points.iter().zip(&l4.points) {
            assert_eq!(a.load_fraction, b.load_fraction);
            assert_eq!(a.wet_bulb_c, b.wet_bulb_c);
            assert!((a.pue - b.pue).abs() < 0.01, "L3 {} vs L4 {}", a.pue, b.pue);
            assert!(!b.extrapolated, "L4 never extrapolates");
        }
    }

    #[test]
    fn grid_flags_extrapolation_outside_the_envelope() {
        let spec = exadigit_cooling::PlantSpec::marconi100_like();
        let samples = crate::surrogate::generate_training_data(
            &spec,
            &[0.3, 0.6, 0.9],
            &[10.0, 18.0, 26.0],
            50,
        )
        .unwrap();
        let sur = crate::surrogate::Surrogate::fit(&samples).unwrap();
        let grid =
            whatif_grid(&spec, &Fidelity::Surrogate(sur), &[0.6, 1.4], &[18.0, 35.0]).unwrap();
        let pin = fnv_bits(sample_numbers(&samples).into_iter().chain(grid_numbers(&grid)));
        assert_eq!(pin, PIN_GRID_OUTSIDE, "training samples or grid moved: {pin:#018x}");
        // (0.6, 18) is interior; (0.6, 35), (1.4, 18), (1.4, 35) are not.
        assert_eq!(grid.extrapolations, 3);
        assert!(!grid.points[0].extrapolated);
        assert!(grid.points[1].extrapolated);
        assert_eq!(Fidelity::Plant.label(), "L4");
    }

    #[test]
    fn mixed_fidelity_grid_batch_in_one_pool_pass() {
        // The same operating point at L3 and L4 in one pool pass, mapped
        // through `evaluate_grid_point` — how a batch mixes fidelities.
        let spec = exadigit_cooling::PlantSpec::marconi100_like();
        let samples = crate::surrogate::generate_training_data(
            &spec,
            &[0.3, 0.6, 0.9],
            &[10.0, 14.0, 18.0],
            400, // match the grid's L4 settle protocol
        )
        .unwrap();
        let l3 = Fidelity::Surrogate(crate::surrogate::Surrogate::fit(&samples).unwrap());
        let points = vec![(&l3, 0.6, 14.0), (&Fidelity::Plant, 0.6, 14.0), (&l3, 1.5, 18.0)];
        let outcomes = EnsembleRunner::new(3)
            .threads(2)
            .try_map(points, |_ctx, (fidelity, load, wb)| {
                evaluate_grid_point(&spec, fidelity, load, wb)
            })
            .unwrap();
        let (l3, l4, extrap) = (outcomes[0], outcomes[1], outcomes[2]);
        assert!(!l3.extrapolated);
        assert!(!l4.extrapolated);
        assert!((l3.pue - l4.pue).abs() < 0.05, "L3 {} vs L4 {}", l3.pue, l4.pue);
        assert!(extrap.extrapolated, "out-of-envelope point must be flagged");
    }
}
